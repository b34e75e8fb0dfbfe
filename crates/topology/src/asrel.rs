//! CAIDA AS-REL2 edge-list interchange.
//!
//! The AS Relationships dataset (`as-rel2` files) is the de-facto
//! community format for inferred AS-level topologies: one edge per line,
//! `<as0>|<as1>|<rel>`, where `rel == -1` means *as0 is a provider of
//! as1* (p2c) and `rel == 0` means settlement-free peering (p2p). Lines
//! starting with `#` are comments. This module loads such a file into a
//! [`Topology`] and writes a topology back out in a canonical form, so
//! churnlab worlds can be swapped with the real CAIDA graph (78k ASes /
//! 723k edges) or exported for external tools.
//!
//! The loader derives what the edge list cannot express:
//!
//! * **Roles** from the degree profile — no providers ⇒ [`AsRole::Tier1`],
//!   providers but no customers ⇒ [`AsRole::Stub`], both ⇒
//!   [`AsRole::NationalTransit`].
//! * **Country** is unknowable from an edge list; every AS lands in the
//!   synthetic `ZZ` jurisdiction.
//! * **Stability** defaults to [`LinkStability::stable`] (churn configs
//!   rescale it anyway).
//!
//! The loaded topology is [frozen](Topology::freeze) but **not**
//! validated: real CAIDA snapshots contain provider cycles and ASes with
//! no route to a clique member, which [`Topology::validate`] would
//! reject. `churnlab-bgp` routes such a graph anyway: a provider route is
//! the least solution over the cycle, and a forwarding path on which
//! preference-chosen providers loop is reported as no path. Round-tripping
//! is canonical: `write → load → write` is byte-identical.

use crate::asys::{AsClass, AsInfo, AsRole, Asn};
use crate::geo::{Country, Region};
use crate::graph::Topology;
use crate::hash::FxMap;
use crate::links::{Link, LinkStability, Relationship};
use crate::TopologyError;
use std::io::{self, BufRead, Write};

fn bad(line_no: usize, msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("as-rel2 line {line_no}: {msg}"))
}

/// Parse an AS-REL2 edge list into a frozen [`Topology`].
///
/// Accepts `#` comments and blank lines anywhere. Errors on malformed
/// lines, unknown relationship codes, self-edges, and duplicate
/// unordered pairs; every error names its file line, and a duplicate
/// pair also names the line that listed the pair first, and whether it
/// repeats that line's relationship or contradicts it.
pub fn load_asrel2(r: impl BufRead) -> io::Result<Topology> {
    // Pass 1: parse every edge, with its file line; roles need global
    // degree knowledge before any AS can be inserted.
    let mut edges: Vec<(u32, u32, i8)> = Vec::new();
    let mut edge_lines: Vec<usize> = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('|');
        let a: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(line_no, "expected numeric as0"))?;
        let b: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(line_no, "expected numeric as1"))?;
        let rel: i8 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(line_no, "expected relationship code"))?;
        if rel != -1 && rel != 0 {
            return Err(bad(line_no, "relationship must be -1 (p2c) or 0 (p2p)"));
        }
        if a == b {
            return Err(bad(line_no, "self edge"));
        }
        edges.push((a, b, rel));
        edge_lines.push(line_no);
    }

    // Degree profile per ASN: (has_provider, has_customer).
    let mut profile: FxMap<u32, (bool, bool)> = FxMap::default();
    for &(a, b, rel) in &edges {
        let ea = profile.entry(a).or_insert((false, false));
        if rel == -1 {
            ea.1 = true; // a is a provider => has a customer
        }
        let eb = profile.entry(b).or_insert((false, false));
        if rel == -1 {
            eb.0 = true; // b is a customer => has a provider
        }
    }

    let mut asns: Vec<u32> = profile.keys().copied().collect();
    asns.sort_unstable();

    let mut topo = Topology::new(vec![Country::new("ZZ", "Unattributed", Region::NorthAmerica)]);
    for asn in asns {
        let (has_prov, has_cust) = profile[&asn];
        let role = match (has_prov, has_cust) {
            (false, _) => AsRole::Tier1,
            (true, false) => AsRole::Stub,
            (true, true) => AsRole::NationalTransit,
        };
        topo.add_as(AsInfo {
            asn: Asn(asn),
            name: format!("AS{asn}"),
            country: crate::geo::CountryCode::new("ZZ"),
            class: AsClass::TransitAccess,
            role,
        })
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("as-rel2: {e}")))?;
    }
    topo.reserve(0, edges.len());
    for (i, &(a, b, rel)) in edges.iter().enumerate() {
        let link = if rel == -1 {
            // a provider-of b: the Link orientation is customer → provider.
            Link::transit(Asn(b), Asn(a), LinkStability::stable())
        } else {
            Link::peering(Asn(a), Asn(b), LinkStability::stable())
        };
        topo.add_link(link).map_err(|e| match e {
            TopologyError::DuplicateLink(..) => {
                // Only a pair listed on an earlier line is a duplicate.
                let first = edges[..i]
                    .iter()
                    .position(|&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a))
                    .expect("a duplicate pair was listed before");
                let (x, y, r) = edges[first];
                let same = r == rel && (rel == 0 || (x, y) == (a, b));
                let how = if same { "repeats" } else { "contradicts" };
                bad(edge_lines[i], &format!("{e}: {how} line {}", edge_lines[first]))
            }
            e => bad(edge_lines[i], &format!("{e}")),
        })?;
    }
    topo.freeze();
    Ok(topo)
}

/// Write a topology as a canonical AS-REL2 edge list.
///
/// p2c lines are written `provider|customer|-1`, p2p lines
/// `low|high|0`, all lines sorted numerically — so the output is a pure
/// function of the edge set and `write → load → write` round-trips
/// byte-identically. Stability profiles and AS metadata are not
/// representable in the format and are dropped.
pub fn write_asrel2(topo: &Topology, mut w: impl Write) -> io::Result<()> {
    let mut lines: Vec<(u32, u32, i8)> = topo
        .links()
        .map(|l| match l.rel {
            Relationship::CustomerToProvider => (l.b.0, l.a.0, -1),
            Relationship::PeerToPeer => (l.a.0.min(l.b.0), l.a.0.max(l.b.0), 0),
        })
        .collect();
    lines.sort_unstable();
    writeln!(w, "# churnlab as-rel2 export: <as0>|<as1>|<rel>, -1 = p2c, 0 = p2p")?;
    for (a, b, rel) in lines {
        writeln!(w, "{a}|{b}|{rel}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# test file
1|2|-1
1|3|-1

2|3|0
2|4|-1
3|5|-1
";

    #[test]
    fn load_derives_roles_and_relationships() {
        let t = load_asrel2(SAMPLE.as_bytes()).unwrap();
        assert_eq!(t.n_ases(), 5);
        assert_eq!(t.n_links(), 5);
        assert!(t.is_frozen());
        let role = |asn: u32| t.info_by_asn(Asn(asn)).unwrap().role;
        assert_eq!(role(1), AsRole::Tier1); // no providers
        assert_eq!(role(2), AsRole::NationalTransit); // both
        assert_eq!(role(3), AsRole::NationalTransit);
        assert_eq!(role(4), AsRole::Stub); // customer only
        assert_eq!(role(5), AsRole::Stub);
        // 1|2|-1 means 1 is 2's provider.
        let i2 = t.idx(Asn(2)).unwrap();
        let provs: Vec<_> = t.providers(i2).map(|p| t.asn(p)).collect();
        assert_eq!(provs, vec![Asn(1)]);
        let peers: Vec<_> = t.peers(i2).map(|p| t.asn(p)).collect();
        assert_eq!(peers, vec![Asn(3)]);
        // Real-data loads skip validate(); this tiny fixture happens to
        // pass it, which is fine too.
        assert!(t.validate().is_ok());
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let t1 = load_asrel2(SAMPLE.as_bytes()).unwrap();
        let mut out1 = Vec::new();
        write_asrel2(&t1, &mut out1).unwrap();
        let t2 = load_asrel2(&out1[..]).unwrap();
        let mut out2 = Vec::new();
        write_asrel2(&t2, &mut out2).unwrap();
        assert_eq!(out1, out2);
        assert_eq!(t1.n_ases(), t2.n_ases());
        assert_eq!(t1.n_links(), t2.n_links());
    }

    #[test]
    fn unsorted_input_canonicalizes() {
        // Same edges as SAMPLE, shuffled and with p2p endpoints swapped.
        let shuffled = "3|5|-1\n2|4|-1\n3|2|0\n1|3|-1\n1|2|-1\n";
        let a = load_asrel2(SAMPLE.as_bytes()).unwrap();
        let b = load_asrel2(shuffled.as_bytes()).unwrap();
        let mut wa = Vec::new();
        let mut wb = Vec::new();
        write_asrel2(&a, &mut wa).unwrap();
        write_asrel2(&b, &mut wb).unwrap();
        assert_eq!(wa, wb);
    }

    #[test]
    fn errors_name_file_lines_past_comments_and_blanks() {
        let file = "\
# as-rel2 header
# <as0>|<as1>|<rel>
1|2|-1

1|3|-1
# a comment between edges
2|3|0

3|2|0
";
        let err = load_asrel2(file.as_bytes()).unwrap_err().to_string();
        assert_eq!(err, "as-rel2 line 9: duplicate link AS3-AS2: repeats line 7");
        let file = "# header\n\n1|2|-1\n1|3|-1\n\n# flipped\n2|1|-1\n";
        let err = load_asrel2(file.as_bytes()).unwrap_err().to_string();
        assert_eq!(err, "as-rel2 line 7: duplicate link AS1-AS2: contradicts line 3");
        let file = "# header\n1|2|-1\n\n2|1|0\n";
        let err = load_asrel2(file.as_bytes()).unwrap_err().to_string();
        assert_eq!(err, "as-rel2 line 4: duplicate link AS2-AS1: contradicts line 2");
        let file = "# header\n\n1|2|-1\n# next\n7|7|0\n";
        let err = load_asrel2(file.as_bytes()).unwrap_err().to_string();
        assert_eq!(err, "as-rel2 line 5: self edge");
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(load_asrel2("1|2".as_bytes()).is_err());
        assert!(load_asrel2("1|2|7".as_bytes()).is_err());
        assert!(load_asrel2("x|2|-1".as_bytes()).is_err());
        assert!(load_asrel2("1|1|0".as_bytes()).is_err());
        // Duplicate unordered pair.
        assert!(load_asrel2("1|2|-1\n2|1|0\n".as_bytes()).is_err());
    }
}
