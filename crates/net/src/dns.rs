//! DNS messages: the RFC 1035 subset used by the measurement platform.
//!
//! ICLab's DNS-anomaly test issues A queries through two resolvers and
//! counts response packets — a censor that *injects* a response produces a
//! second answer racing the resolver's. This module provides the message
//! model for both legitimate responses and injected ones, including wire
//! encoding (label format) and parsing (with compression-pointer support,
//! since real injectors use pointers to look legitimate).

use crate::shared::SharedBytes;
use crate::WireError;
use bytes::{BufMut, BytesMut};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Query type (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DnsQType {
    /// IPv4 address record.
    A,
    /// Anything else (kept numeric).
    Other(u16),
}

impl DnsQType {
    fn to_u16(self) -> u16 {
        match self {
            DnsQType::A => 1,
            DnsQType::Other(v) => v,
        }
    }

    fn from_u16(v: u16) -> Self {
        match v {
            1 => DnsQType::A,
            other => DnsQType::Other(other),
        }
    }
}

/// Response code (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DnsRcode {
    /// No error.
    NoError,
    /// Name does not exist.
    NxDomain,
    /// Server failure.
    ServFail,
    /// Other code, kept numeric.
    Other(u8),
}

impl DnsRcode {
    fn to_u8(self) -> u8 {
        match self {
            DnsRcode::NoError => 0,
            DnsRcode::ServFail => 2,
            DnsRcode::NxDomain => 3,
            DnsRcode::Other(v) => v & 0x0f,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v & 0x0f {
            0 => DnsRcode::NoError,
            2 => DnsRcode::ServFail,
            3 => DnsRcode::NxDomain,
            other => DnsRcode::Other(other),
        }
    }
}

/// An A-record answer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DnsAnswer {
    /// Owner name.
    pub name: String,
    /// TTL seconds.
    pub ttl: u32,
    /// The IPv4 address.
    pub addr: u32,
}

/// A DNS message carrying exactly one question (as ICLab's tests do).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DnsMessage {
    /// Transaction ID (responses must echo the query's).
    pub id: u16,
    /// True for responses.
    pub is_response: bool,
    /// Recursion desired (queries) / available (responses) collapsed into
    /// one flag for simplicity.
    pub recursion: bool,
    /// Response code.
    pub rcode: DnsRcode,
    /// Queried name (lowercase, no trailing dot).
    pub qname: String,
    /// Query type.
    pub qtype: DnsQType,
    /// Answers (responses only).
    pub answers: Vec<DnsAnswer>,
}

impl DnsMessage {
    /// An A query for `qname`.
    pub fn query(id: u16, qname: &str) -> Self {
        DnsMessage {
            id,
            is_response: false,
            recursion: true,
            rcode: DnsRcode::NoError,
            qname: qname.to_ascii_lowercase(),
            qtype: DnsQType::A,
            answers: Vec::new(),
        }
    }

    /// A response answering `query` with one A record.
    pub fn answer(query: &DnsMessage, addr: u32, ttl: u32) -> Self {
        DnsMessage {
            id: query.id,
            is_response: true,
            recursion: true,
            rcode: DnsRcode::NoError,
            qname: query.qname.clone(),
            qtype: query.qtype,
            answers: vec![DnsAnswer { name: query.qname.clone(), ttl, addr }],
        }
    }

    /// Encode to wire bytes (uncompressed names in the question, a
    /// compression pointer back to the question name in each answer, as
    /// real servers emit).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u16(self.id);
        let mut flags: u16 = 0;
        if self.is_response {
            flags |= 0x8000;
        }
        if self.recursion {
            flags |= 0x0100 | if self.is_response { 0x0080 } else { 0 };
        }
        flags |= u16::from(self.rcode.to_u8());
        buf.put_u16(flags);
        buf.put_u16(1); // QDCOUNT
        buf.put_u16(self.answers.len() as u16); // ANCOUNT
        buf.put_u16(0); // NSCOUNT
        buf.put_u16(0); // ARCOUNT
        let qname_off = buf.len() as u16;
        encode_name(&self.qname, &mut buf)?;
        buf.put_u16(self.qtype.to_u16());
        buf.put_u16(1); // IN
        for ans in &self.answers {
            if ans.name == self.qname {
                // Compression pointer to the question name.
                buf.put_u16(0xc000 | qname_off);
            } else {
                encode_name(&ans.name, &mut buf)?;
            }
            buf.put_u16(1); // TYPE A
            buf.put_u16(1); // CLASS IN
            buf.put_u32(ans.ttl);
            buf.put_u16(4);
            buf.put_u32(ans.addr);
        }
        Ok(buf.to_vec())
    }

    /// Parse from wire bytes. Non-A answer records are skipped.
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut qname = String::new();
        let mut answers = Vec::new();
        let head = walk(data, Some(&mut qname), Some(&mut answers))?;
        Ok(DnsMessage {
            id: head.id,
            is_response: head.is_response,
            recursion: head.flags & 0x0100 != 0,
            rcode: DnsRcode::from_u8((head.flags & 0x0f) as u8),
            qname,
            qtype: head.qtype,
            answers,
        })
    }

    /// Validate `data` exactly as [`DnsMessage::decode`] does and return
    /// its transaction id and direction without building the message. The
    /// question name (lowercase, dotted) replaces the contents of `qname`
    /// when one is passed — a middlebox matching queries against a
    /// blocklist keeps one buffer, not one message per packet.
    pub fn peek(data: &[u8], qname: Option<&mut String>) -> Result<DnsPeek, WireError> {
        let head = walk(data, qname, None)?;
        Ok(DnsPeek { id: head.id, is_response: head.is_response })
    }

    /// `wire` — an encoded message — under transaction id `id`: how every
    /// test of a URL sends the one question encoded for it.
    pub fn stamp_id(wire: &[u8], id: u16) -> SharedBytes {
        let mut stamped: Arc<[u8]> = Arc::from(wire);
        let bytes = Arc::get_mut(&mut stamped).expect("a fresh buffer has one owner");
        bytes[..2].copy_from_slice(&id.to_be_bytes());
        SharedBytes::from(stamped)
    }
}

/// What [`DnsMessage::peek`] reads off a valid message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsPeek {
    /// Transaction ID.
    pub id: u16,
    /// True for responses.
    pub is_response: bool,
}

/// The fixed fields [`walk`] reads.
struct Walked {
    id: u16,
    flags: u16,
    is_response: bool,
    qtype: DnsQType,
}

/// Walk a message, checking everything a decoder must check, and fill in
/// whichever of the question name and the A answers the caller wants.
fn walk(
    data: &[u8],
    mut qname: Option<&mut String>,
    mut answers: Option<&mut Vec<DnsAnswer>>,
) -> Result<Walked, WireError> {
    if data.len() < 12 {
        return Err(WireError::Truncated("dns header"));
    }
    let id = u16::from_be_bytes([data[0], data[1]]);
    let flags = u16::from_be_bytes([data[2], data[3]]);
    let qd = u16::from_be_bytes([data[4], data[5]]);
    let an = u16::from_be_bytes([data[6], data[7]]);
    if qd != 1 {
        return Err(WireError::Unsupported("dns qdcount"));
    }
    let mut pos = 12usize;
    if let Some(q) = qname.as_deref_mut() {
        q.clear();
    }
    decode_name(data, &mut pos, qname)?;
    if pos + 4 > data.len() {
        return Err(WireError::Truncated("dns question"));
    }
    let qtype = DnsQType::from_u16(u16::from_be_bytes([data[pos], data[pos + 1]]));
    pos += 4; // type + class
    for _ in 0..an {
        let mut name = answers.is_some().then(String::new);
        decode_name(data, &mut pos, name.as_mut())?;
        if pos + 10 > data.len() {
            return Err(WireError::Truncated("dns answer"));
        }
        let rtype = u16::from_be_bytes([data[pos], data[pos + 1]]);
        let ttl = u32::from_be_bytes([data[pos + 4], data[pos + 5], data[pos + 6], data[pos + 7]]);
        let rdlen = u16::from_be_bytes([data[pos + 8], data[pos + 9]]) as usize;
        pos += 10;
        if pos + rdlen > data.len() {
            return Err(WireError::Truncated("dns rdata"));
        }
        if rtype == 1 && rdlen == 4 {
            if let (Some(answers), Some(name)) = (answers.as_deref_mut(), name) {
                let addr =
                    u32::from_be_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
                answers.push(DnsAnswer { name, ttl, addr });
            }
        }
        pos += rdlen;
    }
    Ok(Walked { id, flags, is_response: flags & 0x8000 != 0, qtype })
}

fn encode_name(name: &str, buf: &mut BytesMut) -> Result<(), WireError> {
    if name.len() > 253 {
        return Err(WireError::BadName);
    }
    for label in name.split('.') {
        if label.is_empty() || label.len() > 63 {
            return Err(WireError::BadName);
        }
        buf.put_u8(label.len() as u8);
        buf.extend_from_slice(label.as_bytes());
    }
    buf.put_u8(0);
    Ok(())
}

/// Walk one (possibly compressed) name starting at `*pos`, appending it
/// to `out` when the caller wants it.
fn decode_name(data: &[u8], pos: &mut usize, mut out: Option<&mut String>) -> Result<(), WireError> {
    let mut first = true;
    let mut cursor = *pos;
    let mut jumped = false;
    let mut jumps = 0;
    loop {
        if cursor >= data.len() {
            return Err(WireError::Truncated("dns name"));
        }
        let len = data[cursor] as usize;
        if len & 0xc0 == 0xc0 {
            // Compression pointer.
            if cursor + 1 >= data.len() {
                return Err(WireError::Truncated("dns pointer"));
            }
            let target = ((len & 0x3f) << 8) | data[cursor + 1] as usize;
            if !jumped {
                *pos = cursor + 2;
                jumped = true;
            }
            jumps += 1;
            if jumps > 16 || target >= data.len() {
                return Err(WireError::BadName);
            }
            cursor = target;
            continue;
        }
        if len == 0 {
            if !jumped {
                *pos = cursor + 1;
            }
            return Ok(());
        }
        if len > 63 || cursor + 1 + len > data.len() {
            return Err(WireError::BadName);
        }
        let label = &data[cursor + 1..cursor + 1 + len];
        if !label.iter().all(|b| b.is_ascii() && *b != b'.') {
            return Err(WireError::BadName);
        }
        if let Some(out) = out.as_deref_mut() {
            if !first {
                out.push('.');
            }
            out.extend(label.iter().map(|b| char::from(b.to_ascii_lowercase())));
        }
        first = false;
        cursor += 1 + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn query_roundtrip() {
        let q = DnsMessage::query(0xbeef, "www.example.com");
        let back = DnsMessage::decode(&q.encode().unwrap()).unwrap();
        assert_eq!(q, back);
    }

    #[test]
    fn answer_roundtrip_uses_compression() {
        let q = DnsMessage::query(7, "blocked.example.org");
        let a = DnsMessage::answer(&q, 0x01020304, 300);
        let wire = a.encode().unwrap();
        // The answer name must be a compression pointer (0xc0..).
        let q_end = 12 + "blocked.example.org".len() + 2 + 4;
        assert_eq!(wire[q_end] & 0xc0, 0xc0);
        let back = DnsMessage::decode(&wire).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn response_flag_set() {
        let q = DnsMessage::query(1, "a.b");
        let a = DnsMessage::answer(&q, 9, 60);
        assert!(!DnsMessage::decode(&q.encode().unwrap()).unwrap().is_response);
        assert!(DnsMessage::decode(&a.encode().unwrap()).unwrap().is_response);
    }

    #[test]
    fn qname_case_insensitive() {
        let q = DnsMessage::query(1, "WwW.ExAmPle.COM");
        assert_eq!(q.qname, "www.example.com");
    }

    #[test]
    fn bad_names_rejected() {
        let mut q = DnsMessage::query(1, "ok.example");
        q.qname = "a..b".to_string();
        assert_eq!(q.encode(), Err(WireError::BadName));
        q.qname = "x".repeat(64) + ".com";
        assert_eq!(q.encode(), Err(WireError::BadName));
        q.qname = "y".repeat(300);
        assert_eq!(q.encode(), Err(WireError::BadName));
    }

    #[test]
    fn pointer_loop_rejected() {
        // Header + a name that is a pointer to itself at offset 12.
        let mut wire = vec![0u8; 12];
        wire[5] = 1; // QDCOUNT = 1
        wire.extend_from_slice(&[0xc0, 12]); // pointer -> 12 (itself)
        wire.extend_from_slice(&[0, 1, 0, 1]);
        assert_eq!(DnsMessage::decode(&wire), Err(WireError::BadName));
    }

    #[test]
    fn rcode_roundtrip() {
        for rc in [DnsRcode::NoError, DnsRcode::NxDomain, DnsRcode::ServFail, DnsRcode::Other(5)] {
            let mut q = DnsMessage::query(3, "x.y");
            q.rcode = rc;
            q.is_response = true;
            let back = DnsMessage::decode(&q.encode().unwrap()).unwrap();
            assert_eq!(back.rcode, rc);
        }
    }

    proptest! {
        #[test]
        fn prop_dns_roundtrip(
            id in any::<u16>(),
            labels in proptest::collection::vec("[a-z0-9]{1,12}", 1..5),
            addr in any::<u32>(), ttl in any::<u32>(), nanswers in 0usize..4,
        ) {
            let name = labels.join(".");
            let q = DnsMessage::query(id, &name);
            let mut m = if nanswers > 0 { DnsMessage::answer(&q, addr, ttl) } else { q };
            for _ in 1..nanswers {
                m.answers.push(DnsAnswer { name: name.clone(), ttl, addr });
            }
            let back = DnsMessage::decode(&m.encode().unwrap()).unwrap();
            prop_assert_eq!(m, back);
        }

        #[test]
        fn prop_dns_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..96)) {
            let _ = DnsMessage::decode(&data);
        }

        /// `peek` accepts exactly what `decode` accepts and reads the same
        /// id, direction and question name — over valid messages, valid
        /// messages with one byte damaged, and noise.
        #[test]
        fn prop_peek_agrees_with_decode(
            id in any::<u16>(),
            labels in proptest::collection::vec("[a-zA-Z0-9]{1,12}", 1..5),
            answered in any::<bool>(),
            damage in proptest::collection::vec((0usize..96, any::<u8>()), 0..3),
            noise in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let q = DnsMessage::query(id, &labels.join("."));
            let m = if answered { DnsMessage::answer(&q, 0x0102_0304, 60) } else { q };
            let mut wire = m.encode().unwrap();
            for (at, byte) in damage {
                let at = at % wire.len();
                wire[at] = byte;
            }
            let mut qname = String::from("left over from the last packet");
            for data in [&wire, &noise] {
                match (DnsMessage::decode(data), DnsMessage::peek(data, Some(&mut qname))) {
                    (Ok(full), Ok(peeked)) => {
                        prop_assert_eq!(peeked, DnsPeek { id: full.id, is_response: full.is_response });
                        prop_assert_eq!(&qname, &full.qname);
                        prop_assert_eq!(DnsMessage::peek(data, None), Ok(peeked));
                    }
                    (Err(full), Err(peeked)) => prop_assert_eq!(full, peeked),
                    (full, peeked) => prop_assert!(false, "decode {:?} but peek {:?}", full, peeked),
                }
            }
        }
    }

    #[test]
    fn stamped_wire_is_the_message_under_the_new_id() {
        let q = DnsMessage::query(0, "site.example.org");
        let a = DnsMessage::answer(&q, 0x0808_0404, 300);
        for m in [q, a] {
            let stamped = DnsMessage::stamp_id(&m.encode().unwrap(), 0xbeef);
            assert_eq!(*stamped, *DnsMessage { id: 0xbeef, ..m }.encode().unwrap());
        }
    }
}
