//! Flow synthesis: clean DNS lookups and HTTP GETs over a hop path, with
//! an on-path observer hook for middleboxes.
//!
//! The simulator builds the packet timeline a client-side capture would
//! show. Middleboxes (censors — implemented in `churnlab-censor`) register
//! as [`OnPathObserver`]s at an AS position along the path; they see every
//! *forward* (client → server) packet that reaches their AS, and may drop
//! it and/or inject packets back toward the client. Injected packets get
//! their remaining TTL computed from the injector's position — the
//! asymmetry the paper's TTL detector exploits — while the timeline places
//! them ahead of the genuine response — the race the DNS detector exploits.
//!
//! Injection mechanics mirror real-world censors: an injector cannot see
//! the server's initial sequence number directly (it only watches forward
//! packets), so — like the Great Firewall — it derives it from the ACK
//! field of the client's request.
//!
//! Each flow has one implementation, in the form a measurement loop
//! wants: [`FlowSimulator::dns_lookup_into`] and
//! [`FlowSimulator::http_get_into`] take the messages as wire bytes
//! ([`SharedBytes`], so the page is serialised once per URL and every
//! segment, capture copy and retransmission of it is a slice), fill a
//! caller-owned [`Capture`], reassemble into a caller-owned
//! [`Reassembly`], and take the observers as any `OnPathObserver` type.
//! [`FlowSimulator::dns_lookup`] and [`FlowSimulator::http_get`] are the
//! adapters for callers holding structured messages: they encode once,
//! delegate, and build the owned results on return.

use crate::capture::{Capture, Direction};
use crate::dns::DnsMessage;
use crate::hops::HopPath;
use crate::http::{HttpRequest, HttpResponse, ResponseHead, HEAD_END};
use crate::ip::Ipv4Packet;
use crate::shared::SharedBytes;
use crate::tcp::{TcpFlags, TcpSegment, STREAM_WINDOW};
use crate::udp::UdpDatagram;
use serde::{Deserialize, Serialize};

/// A packet injected by an on-path observer.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedPacket {
    /// Extra delay after the triggering packet reached the injector.
    pub delay_us: u64,
    /// TTL the injector stamps on the packet *at the injection point*; the
    /// simulator decrements it by the hop distance back to the client.
    pub initial_ttl: u8,
    /// The packet (src/dst/ports/seq as forged by the injector; the `ttl`
    /// field is overwritten on arrival).
    pub pkt: Ipv4Packet,
}

/// What an observer decides about one forward packet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObserverVerdict {
    /// Stop the packet here (it never reaches later ASes or the server).
    pub drop_forward: bool,
    /// Packets to send back toward the client.
    pub inject: Vec<InjectedPacket>,
}

impl ObserverVerdict {
    /// Let the packet through untouched.
    pub fn pass() -> Self {
        ObserverVerdict::default()
    }
}

/// A middlebox watching forward packets at a fixed AS position on a path.
pub trait OnPathObserver {
    /// Inspect a forward packet arriving at this observer at time `t_us`.
    fn observe(&mut self, pkt: &Ipv4Packet, t_us: u64) -> ObserverVerdict;
}

impl<T: OnPathObserver + ?Sized> OnPathObserver for &mut T {
    fn observe(&mut self, pkt: &Ipv4Packet, t_us: u64) -> ObserverVerdict {
        (**self).observe(pkt, t_us)
    }
}

/// Per-flow configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// Initial TTL on client packets.
    pub client_init_ttl: u8,
    /// Initial TTL on server packets.
    pub server_init_ttl: u8,
    /// Client ephemeral port.
    pub client_port: u16,
    /// Client initial sequence number.
    pub isn_client: u32,
    /// Server initial sequence number.
    pub isn_server: u32,
    /// Maximum segment size for response data.
    pub mss: usize,
    /// Organic noise: the server resets the connection after the handshake
    /// (overload, policy) — a false-positive source for the RST detector,
    /// which cannot distinguish organic from injected resets (the paper
    /// blames exactly this for ~30% unsolvable RST CNFs).
    pub organic_rst: bool,
    /// Organic noise: one response segment is lost and retransmitted,
    /// leaving a visible gap-then-duplicate in the capture — a
    /// false-positive source for the SEQNO detector.
    pub organic_loss: bool,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            client_init_ttl: 64,
            server_init_ttl: 64,
            client_port: 40000,
            isn_client: 1000,
            isn_server: 5_000_000,
            mss: 1200,
            organic_rst: false,
            organic_loss: false,
        }
    }
}

/// Functional outcome of an HTTP fetch, as the client's "browser" sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FlowOutcome {
    /// A complete HTTP response was assembled (possibly a blockpage).
    HttpOk(HttpResponse),
    /// The connection was reset before a response was assembled.
    HttpReset,
    /// Nothing (or no complete response) arrived.
    HttpTimeout,
}

/// Stream-reassembly buffers, reused from one flow to the next.
#[derive(Debug, Default)]
pub struct Reassembly {
    /// The server → client stream assembled in order so far.
    stream: Vec<u8>,
    /// The out-of-order buffer: `(stream offset, index into the capture's
    /// packets)` sorted by offset. The first segment to claim an offset
    /// keeps it.
    pending: Vec<(u32, u32)>,
}

/// [`FlowOutcome`] before anything is built from it: the bytes stay in
/// the [`Reassembly`] the fetch was assembled in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetched<'r> {
    /// A complete HTTP response was assembled (possibly a blockpage).
    Ok {
        /// The in-order stream: head, blank line, body.
        stream: &'r [u8],
        /// Where the body starts in `stream`.
        body_at: usize,
    },
    /// The connection was reset before a response was assembled.
    Reset,
    /// Nothing (or no complete response) arrived.
    Timeout,
}

impl<'r> Fetched<'r> {
    /// The assembled body, if a complete response arrived.
    pub fn body(&self) -> Option<&'r [u8]> {
        match *self {
            Fetched::Ok { stream, body_at } => Some(&stream[body_at..]),
            _ => None,
        }
    }
}

impl From<Fetched<'_>> for FlowOutcome {
    fn from(fetched: Fetched<'_>) -> Self {
        match fetched {
            Fetched::Ok { stream, .. } => FlowOutcome::HttpOk(
                HttpResponse::parse(stream).expect("reassembly completes only on a parsed head"),
            ),
            Fetched::Reset => FlowOutcome::HttpReset,
            Fetched::Timeout => FlowOutcome::HttpTimeout,
        }
    }
}

/// Where reassembly stands on the response head.
enum Head {
    /// No blank line in the stream yet.
    Open,
    /// The bytes before the first blank line are not a response head; no
    /// later byte can change that.
    Malformed,
    /// Parsed: where the body starts, and its `Content-Length` if the
    /// head carries a numeric one.
    Parsed { body_at: usize, want: Option<usize> },
}

/// Retransmission timer for dropped SYN / request segments.
const RETRANSMIT_US: u64 = 1_000_000;

/// The flow simulator.
///
/// Stateless: each call synthesises one flow's capture over a path with a
/// set of observers positioned on it.
pub struct FlowSimulator;

impl FlowSimulator {
    /// Propagate one forward packet along the path, consulting observers in
    /// AS-path order. Returns the time the packet reached the server
    /// (`None` if dropped en route), appending injections to the capture.
    fn forward<O: OnPathObserver>(
        path: &HopPath,
        cap: &mut Capture,
        t_send: u64,
        pkt: &Ipv4Packet,
        observers: &mut [(usize, O)],
    ) -> Option<u64> {
        cap.push(t_send, Direction::Out, pkt.clone());
        for (as_pos, obs) in observers.iter_mut() {
            let hop = match path.first_hop_of_as(*as_pos) {
                Some(h) => h,
                None => continue, // observer's AS not on this path
            };
            let t_at = t_send + path.delay_to_hop_us(hop);
            let verdict = obs.observe(pkt, t_at);
            for inj in verdict.inject {
                let mut p = inj.pkt;
                p.ttl = path.ttl_at_client_from_hop(hop, inj.initial_ttl);
                let t_arrive = t_at + path.delay_to_hop_us(hop) + inj.delay_us;
                cap.push(t_arrive, Direction::In, p);
            }
            if verdict.drop_forward {
                return None;
            }
        }
        Some(t_send + path.delay_to_hop_us(path.len() - 1))
    }

    /// Deliver one server packet to the client.
    fn from_server(path: &HopPath, cap: &mut Capture, t_sent_by_server: u64, mut pkt: Ipv4Packet, cfg: &FlowConfig) {
        pkt.ttl = path.ttl_at_client_from_server(cfg.server_init_ttl);
        let t_arrive = t_sent_by_server + path.delay_to_hop_us(path.len() - 1);
        cap.push(t_arrive, Direction::In, pkt);
    }

    /// Simulate a DNS lookup to the resolver at the end of `path`.
    ///
    /// `answer` is what the (honest) resolver would return; `None` models a
    /// resolver failure. Returns the capture and the DNS responses in
    /// arrival order — the client's stub resolver believes the first one.
    ///
    /// The adapter over [`FlowSimulator::dns_lookup_into`].
    pub fn dns_lookup(
        path: &HopPath,
        cfg: &FlowConfig,
        query: &DnsMessage,
        answer: Option<&DnsMessage>,
        observers: &mut [(usize, &mut dyn OnPathObserver)],
    ) -> (Capture, Vec<DnsMessage>) {
        let query = query.encode().expect("queries built by the platform are valid");
        let answer = answer.map(|a| a.encode().expect("platform answers are valid"));
        let mut cap = Capture::new();
        Self::dns_lookup_into(path, cfg, query.into(), answer.map(SharedBytes::from), observers, &mut cap);
        let responses = cap.dns_responses().into_iter().map(|(_, m)| m).collect();
        (cap, responses)
    }

    /// The DNS lookup over encoded messages: `cap` is cleared and filled
    /// with the exchange as the client saw it.
    pub fn dns_lookup_into<O: OnPathObserver>(
        path: &HopPath,
        cfg: &FlowConfig,
        query: SharedBytes,
        answer: Option<SharedBytes>,
        observers: &mut [(usize, O)],
        cap: &mut Capture,
    ) {
        cap.clear();
        let q_pkt = Ipv4Packet::udp(
            path.client_ip,
            path.server_ip,
            cfg.client_init_ttl,
            1,
            UdpDatagram::new(cfg.client_port, 53, query),
        );
        let reached = Self::forward(path, cap, 0, &q_pkt, observers);
        if let (Some(t_reach), Some(answer)) = (reached, answer) {
            let a_pkt = Ipv4Packet::udp(
                path.server_ip,
                path.client_ip,
                cfg.server_init_ttl,
                2,
                UdpDatagram::new(53, cfg.client_port, answer),
            );
            Self::from_server(path, cap, t_reach, a_pkt, cfg);
        }
    }

    /// Simulate an HTTP GET to the server at the end of `path`.
    ///
    /// `server_body` is the genuine response the server would send.
    ///
    /// The adapter over [`FlowSimulator::http_get_into`].
    pub fn http_get(
        path: &HopPath,
        cfg: &FlowConfig,
        request: &HttpRequest,
        server_body: &HttpResponse,
        observers: &mut [(usize, &mut dyn OnPathObserver)],
    ) -> (Capture, FlowOutcome) {
        let get = SharedBytes::from(request.serialize());
        let page = SharedBytes::from(server_body.serialize());
        let mut cap = Capture::new();
        let mut reassembly = Reassembly::default();
        let outcome =
            Self::http_get_into(path, cfg, &get, &page, observers, &mut cap, &mut reassembly).into();
        (cap, outcome)
    }

    /// The HTTP GET over serialised messages: `get` is the request as the
    /// client sends it, `page` the response as the server sends it (cut
    /// into `cfg.mss`-sized segments that share its buffer). `cap` is
    /// cleared and filled with the connection as the client saw it; the
    /// result borrows what the client assembled from `reassembly`.
    pub fn http_get_into<'r, O: OnPathObserver>(
        path: &HopPath,
        cfg: &FlowConfig,
        get: &SharedBytes,
        page: &SharedBytes,
        observers: &mut [(usize, O)],
        cap: &mut Capture,
        reassembly: &'r mut Reassembly,
    ) -> Fetched<'r> {
        cap.clear();
        Self::exchange(path, cfg, get, page, observers, cap);
        Self::assemble(cap, cfg, reassembly)
    }

    /// The packets of one GET, up to wherever the connection got.
    fn exchange<O: OnPathObserver>(
        path: &HopPath,
        cfg: &FlowConfig,
        get: &SharedBytes,
        page: &SharedBytes,
        observers: &mut [(usize, O)],
        cap: &mut Capture,
    ) {
        let sport = cfg.client_port;
        let client = path.client_ip;
        let server = path.server_ip;
        let mut ident_c = 100u16;
        let mut ident_s = 200u16;

        // --- SYN (with one retransmission on drop) ----------------------
        let syn = Ipv4Packet::tcp(client, server, cfg.client_init_ttl, ident_c, {
            TcpSegment::syn(sport, 80, cfg.isn_client)
        });
        ident_c += 1;
        let mut t = 0u64;
        let mut reached = Self::forward(path, cap, t, &syn, observers);
        if reached.is_none() {
            t += RETRANSMIT_US;
            reached = Self::forward(path, cap, t, &syn, observers);
        }
        let Some(t_syn_at_server) = reached else { return };

        // --- SYNACK -------------------------------------------------------
        let synack = Ipv4Packet::tcp(server, client, cfg.server_init_ttl, ident_s, TcpSegment {
            src_port: 80,
            dst_port: sport,
            seq: cfg.isn_server,
            ack: cfg.isn_client.wrapping_add(1),
            flags: TcpFlags::SYN | TcpFlags::ACK,
            window: 65535,
            payload: SharedBytes::new(),
        });
        ident_s += 1;
        Self::from_server(path, cap, t_syn_at_server, synack, cfg);
        let t_handshake_done = t_syn_at_server + path.delay_to_hop_us(path.len() - 1);

        // --- ACK + GET ------------------------------------------------------
        let ack_pkt = Ipv4Packet::tcp(client, server, cfg.client_init_ttl, ident_c, TcpSegment {
            src_port: sport,
            dst_port: 80,
            seq: cfg.isn_client.wrapping_add(1),
            ack: cfg.isn_server.wrapping_add(1),
            flags: TcpFlags::ACK,
            window: 65535,
            payload: SharedBytes::new(),
        });
        ident_c += 1;
        let _ = Self::forward(path, cap, t_handshake_done, &ack_pkt, observers);

        let get_pkt = Ipv4Packet::tcp(client, server, cfg.client_init_ttl, ident_c, TcpSegment {
            src_port: sport,
            dst_port: 80,
            seq: cfg.isn_client.wrapping_add(1),
            ack: cfg.isn_server.wrapping_add(1),
            flags: TcpFlags::PSH | TcpFlags::ACK,
            window: 65535,
            payload: get.clone(),
        });
        let mut t_get = t_handshake_done + 300;
        let mut get_reached = Self::forward(path, cap, t_get, &get_pkt, observers);
        if get_reached.is_none() {
            t_get += RETRANSMIT_US;
            get_reached = Self::forward(path, cap, t_get, &get_pkt, observers);
        }
        let Some(t_get_at_server) = get_reached else { return };

        // --- Server response --------------------------------------------
        let next_client_seq = cfg.isn_client.wrapping_add(1).wrapping_add(get.len() as u32);
        if cfg.organic_rst {
            // Overloaded/impolite server: valid RST instead of data.
            let rst = Ipv4Packet::tcp(server, client, cfg.server_init_ttl, ident_s, TcpSegment {
                src_port: 80,
                dst_port: sport,
                seq: cfg.isn_server.wrapping_add(1),
                ack: next_client_seq,
                flags: TcpFlags::RST | TcpFlags::ACK,
                window: 0,
                payload: SharedBytes::new(),
            });
            Self::from_server(path, cap, t_get_at_server + 100, rst, cfg);
            return;
        }

        // ACK of the GET.
        let srv_ack = Ipv4Packet::tcp(server, client, cfg.server_init_ttl, ident_s, TcpSegment {
            src_port: 80,
            dst_port: sport,
            seq: cfg.isn_server.wrapping_add(1),
            ack: next_client_seq,
            flags: TcpFlags::ACK,
            window: 65535,
            payload: SharedBytes::new(),
        });
        ident_s += 1;
        Self::from_server(path, cap, t_get_at_server + 50, srv_ack, cfg);

        // Data segments: slices of the one serialised page.
        let data_segment = |seq: u32, payload: SharedBytes| TcpSegment {
            src_port: 80,
            dst_port: sport,
            seq,
            ack: next_client_seq,
            flags: TcpFlags::PSH | TcpFlags::ACK,
            window: 65535,
            payload,
        };
        let mut seq = cfg.isn_server.wrapping_add(1);
        let mut t_seg = t_get_at_server + 400;
        let mss = cfg.mss.max(1);
        let n_chunks = page.len().div_ceil(mss);
        let lost_index = if cfg.organic_loss && n_chunks > 1 { Some(n_chunks / 2) } else { None };
        let mut deferred: Option<(u32, SharedBytes)> = None;
        for i in 0..n_chunks {
            let chunk = page.slice(i * mss..page.len().min((i + 1) * mss));
            let len = chunk.len() as u32;
            if lost_index == Some(i) {
                // Lost in transit: remember for retransmission.
                deferred = Some((seq, chunk));
            } else {
                let pkt =
                    Ipv4Packet::tcp(server, client, cfg.server_init_ttl, ident_s, data_segment(seq, chunk));
                Self::from_server(path, cap, t_seg, pkt, cfg);
            }
            ident_s += 1;
            seq = seq.wrapping_add(len);
            t_seg += 150;
        }
        if let Some((rseq, rchunk)) = deferred {
            // Retransmission: same sequence range again, later — the capture
            // now shows a gap followed by an overlap, organically.
            let pkt =
                Ipv4Packet::tcp(server, client, cfg.server_init_ttl, ident_s, data_segment(rseq, rchunk));
            Self::from_server(path, cap, t_seg + RETRANSMIT_US / 2, pkt, cfg);
            ident_s += 1;
            t_seg += RETRANSMIT_US / 2 + 150;
        }

        // FIN from server, ACK from client.
        let fin = Ipv4Packet::tcp(server, client, cfg.server_init_ttl, ident_s, TcpSegment {
            src_port: 80,
            dst_port: sport,
            seq,
            ack: next_client_seq,
            flags: TcpFlags::FIN | TcpFlags::ACK,
            window: 65535,
            payload: SharedBytes::new(),
        });
        Self::from_server(path, cap, t_seg, fin, cfg);
        let fin_ack = Ipv4Packet::tcp(client, server, cfg.client_init_ttl, ident_c, TcpSegment {
            src_port: sport,
            dst_port: 80,
            seq: next_client_seq,
            ack: seq.wrapping_add(1),
            flags: TcpFlags::FIN | TcpFlags::ACK,
            window: 65535,
            payload: SharedBytes::new(),
        });
        let _ = Self::forward(
            path,
            cap,
            t_seg + path.delay_to_hop_us(path.len() - 1) + 100,
            &fin_ack,
            observers,
        );
    }

    /// Reassemble the client's view of the connection: in-order data on the
    /// (server → client) stream, stopping at the first valid RST.
    ///
    /// Injected data racing the genuine response wins by arriving first
    /// with the expected sequence number — exactly how blockpage injection
    /// defeats the real server.
    ///
    /// The response head is looked for only in bytes that arrived since
    /// the last look and parsed once; from then on completion is a
    /// comparison of the bytes in hand with its `Content-Length`.
    fn assemble<'r>(cap: &Capture, cfg: &FlowConfig, reassembly: &'r mut Reassembly) -> Fetched<'r> {
        let Reassembly { stream, pending } = reassembly;
        stream.clear();
        pending.clear();
        let stream_start = cfg.isn_server.wrapping_add(1);
        let payload_of = |at: u32| -> &[u8] {
            &cap.packets[at as usize].pkt.as_tcp().expect("pending entries index TCP packets").payload
        };
        let mut head = Head::Open;
        let mut reset = false;
        for (at, cp) in cap.packets.iter().enumerate() {
            let Some(seg) = cp.pkt.as_tcp().filter(|_| cp.dir == Direction::In) else { continue };
            // Bytes assembled in order so far.
            let mut contiguous = stream.len() as u32;
            if seg.flags.contains(TcpFlags::RST) {
                // Accept an RST whose seq is within a small window of the
                // next expected byte (clients are permissive in practice).
                let expected = stream_start.wrapping_add(contiguous);
                let delta = seg.seq.wrapping_sub(expected);
                if !(4096..=u32::MAX - 4096).contains(&delta) {
                    reset = true;
                    break;
                }
                continue; // wildly out-of-window RST ignored by the stack
            }
            if !seg.has_data() {
                continue;
            }
            let off = seg.seq.wrapping_sub(stream_start);
            // Ignore segments far outside the plausible stream window.
            if off >= STREAM_WINDOW {
                continue;
            }
            let slot = pending.partition_point(|&(o, _)| o < off);
            if pending.get(slot).is_none_or(|&(o, _)| o != off) {
                pending.insert(slot, (off, at as u32));
            }
            // Drain everything now contiguous; the first writer of a
            // byte range wins, mirroring common client stacks (and
            // letting injected data beat the real server's).
            let grown_from = stream.len();
            loop {
                let upto = pending.partition_point(|&(o, _)| o <= contiguous);
                let Some(&(o, seg_at)) = upto.checked_sub(1).map(|i| &pending[i]) else { break };
                let payload = payload_of(seg_at);
                let end = o.wrapping_add(payload.len() as u32);
                if end <= contiguous {
                    break;
                }
                stream.extend_from_slice(&payload[(contiguous - o) as usize..]);
                contiguous = end;
            }
            if stream.len() == grown_from {
                continue; // nothing new to look at
            }
            if let Head::Open = head {
                // A terminator may straddle the old end of the stream.
                let from = grown_from.saturating_sub(HEAD_END.len() - 1);
                if let Some(found) = stream[from..].windows(HEAD_END.len()).position(|w| w == HEAD_END) {
                    let split = from + found;
                    head = match ResponseHead::parse(&stream[..split]) {
                        Some(parsed) => Head::Parsed {
                            body_at: split + HEAD_END.len(),
                            want: parsed.header("Content-Length").and_then(|v| v.parse().ok()),
                        },
                        None => Head::Malformed,
                    };
                }
            }
            if let Head::Parsed { body_at, want } = head {
                let have = stream.len() - body_at;
                if have >= want.unwrap_or(have) {
                    return Fetched::Ok { stream, body_at };
                }
            }
        }
        if reset {
            Fetched::Reset
        } else {
            Fetched::Timeout
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::Payload;
    use churnlab_topology::{Asn, Ipv4Prefix, PrefixTable};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path() -> HopPath {
        let asns = [Asn(10), Asn(20), Asn(30)];
        let prefixes: PrefixTable = asns
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, vec![Ipv4Prefix::new(((i as u32) + 1) << 24, 16).unwrap()]))
            .collect();
        let mut rng = StdRng::seed_from_u64(9);
        let server = prefixes.of_asn(Asn(30))[0].nth_host(1);
        let client = prefixes.of_asn(Asn(10))[0].nth_host(1);
        HopPath::expand(&asns, &prefixes, client, server, (1, 2), &mut rng)
    }

    /// The reassembler this module had before it parsed the head once —
    /// a `BTreeMap` of cloned payloads and a full `HttpResponse::parse`
    /// after every data segment — kept verbatim (but for the shared
    /// window constant) as the oracle the incremental one must equal.
    fn assemble_oracle(cap: &Capture, cfg: &FlowConfig) -> FlowOutcome {
        use std::collections::BTreeMap;
        let stream_start = cfg.isn_server.wrapping_add(1);
        let mut buffer: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        let mut contiguous: u32 = 0;
        let mut data: Vec<u8> = Vec::new();
        let mut reset = false;
        for (_, seg) in cap.incoming_tcp() {
            if seg.flags.contains(TcpFlags::RST) {
                let expected = stream_start.wrapping_add(contiguous);
                let delta = seg.seq.wrapping_sub(expected);
                if !(4096..=u32::MAX - 4096).contains(&delta) {
                    reset = true;
                    break;
                }
                continue;
            }
            if seg.has_data() {
                let off = seg.seq.wrapping_sub(stream_start);
                if off >= STREAM_WINDOW {
                    continue;
                }
                buffer.entry(off).or_insert_with(|| seg.payload.to_vec());
                loop {
                    let next = buffer
                        .range(..=contiguous)
                        .next_back()
                        .map(|(o, p)| (*o, p.len() as u32));
                    match next {
                        Some((o, len)) if o.wrapping_add(len) > contiguous => {
                            let skip = (contiguous - o) as usize;
                            let chunk = buffer[&o][skip..].to_vec();
                            data.extend_from_slice(&chunk);
                            contiguous = o.wrapping_add(len);
                        }
                        _ => break,
                    }
                }
                if let Some(resp) = HttpResponse::parse(&data) {
                    let want: usize = resp
                        .header("Content-Length")
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(resp.body.len());
                    if resp.body.len() >= want {
                        return FlowOutcome::HttpOk(resp);
                    }
                }
            }
        }
        if reset {
            FlowOutcome::HttpReset
        } else {
            FlowOutcome::HttpTimeout
        }
    }

    /// What arrives at the client, in arrival order.
    #[derive(Debug, Clone)]
    enum Arrival {
        /// Data at a stream offset (may be negative or far: it wraps).
        Data(i64, Vec<u8>),
        /// An RST at a stream offset.
        Rst(i64),
    }

    fn capture_of(cfg: &FlowConfig, arrivals: &[Arrival]) -> Capture {
        let stream_start = cfg.isn_server.wrapping_add(1);
        let mut cap = Capture::new();
        for (i, arrival) in arrivals.iter().enumerate() {
            let (off, flags, payload) = match arrival {
                Arrival::Data(off, bytes) => (*off, TcpFlags::PSH | TcpFlags::ACK, bytes.clone()),
                Arrival::Rst(off) => (*off, TcpFlags::RST, Vec::new()),
            };
            let seg = TcpSegment {
                src_port: 80,
                dst_port: cfg.client_port,
                seq: stream_start.wrapping_add(off as u32),
                ack: 0,
                flags,
                window: 0,
                payload: payload.into(),
            };
            cap.push(i as u64 * 10, Direction::In, Ipv4Packet::tcp(2, 1, 60, i as u16, seg));
        }
        cap
    }

    /// Both reassemblers over `arrivals`; panics unless they agree.
    fn assembled(arrivals: &[Arrival]) -> FlowOutcome {
        let cfg = FlowConfig { isn_server: u32::MAX - 7, ..FlowConfig::default() };
        let cap = capture_of(&cfg, arrivals);
        let mut reassembly = Reassembly::default();
        // A scratch that already held another flow must not show through.
        reassembly.stream.extend_from_slice(b"HTTP/1.1 200 OK\r\n\r\nstale");
        reassembly.pending.push((0, 0));
        let got: FlowOutcome = FlowSimulator::assemble(&cap, &cfg, &mut reassembly).into();
        assert_eq!(got, assemble_oracle(&cap, &cfg), "arrivals: {arrivals:?}");
        got
    }

    const PAGE: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 26\r\n\r\nabcdefghijklmnopqrstuvwxyz";

    /// `PAGE` cut at `cuts`, as in-order arrivals.
    fn cut(page: &[u8], cuts: &[usize]) -> Vec<Arrival> {
        let mut edges = vec![0];
        edges.extend_from_slice(cuts);
        edges.push(page.len());
        edges.windows(2).map(|w| Arrival::Data(w[0] as i64, page[w[0]..w[1]].to_vec())).collect()
    }

    fn body_of(outcome: &FlowOutcome) -> &[u8] {
        match outcome {
            FlowOutcome::HttpOk(r) => &r.body,
            other => panic!("expected a response, got {other:?}"),
        }
    }

    #[test]
    fn reassembly_in_order_reordered_and_duplicated() {
        let in_order = cut(PAGE, &[10, 30, 70]);
        assert_eq!(body_of(&assembled(&in_order)), b"abcdefghijklmnopqrstuvwxyz");
        let mut reordered = in_order.clone();
        reordered.swap(0, 3);
        reordered.swap(1, 2);
        assert_eq!(assembled(&reordered), assembled(&in_order));
        // Exact duplicates (retransmissions) change nothing, wherever they land.
        let mut duplicated = in_order.clone();
        duplicated.insert(1, in_order[0].clone());
        duplicated.insert(3, in_order[2].clone());
        duplicated.push(in_order[3].clone());
        assert_eq!(assembled(&duplicated), assembled(&in_order));
        // Short of the promised length there is no response yet.
        assert_eq!(assembled(&in_order[..3]), FlowOutcome::HttpTimeout);
        assert_eq!(assembled(&[]), FlowOutcome::HttpTimeout);
    }

    #[test]
    fn reassembly_first_writer_of_a_range_wins() {
        let head_len = PAGE.len() - 26;
        // Injected bytes at the body's offset arrive before the genuine ones.
        let forged = Arrival::Data(head_len as i64, b"ABCDEFGHIJKLM".to_vec());
        let mut arrivals = cut(PAGE, &[head_len, head_len + 13]);
        arrivals.insert(1, forged.clone());
        assert_eq!(body_of(&assembled(&arrivals)), b"ABCDEFGHIJKLMnopqrstuvwxyz");
        // The same forgery arriving late loses to what is already assembled…
        let mut late = cut(PAGE, &[head_len]);
        late.push(forged);
        assert_eq!(body_of(&assembled(&late)), b"abcdefghijklmnopqrstuvwxyz");
        // …and one that overlaps the assembled stream from the middle of
        // a segment contributes only its tail.
        let straddling = [
            Arrival::Data(0, PAGE[..head_len + 4].to_vec()),
            Arrival::Data(head_len as i64 + 2, b"CDEFGHIJKLMNOPQRSTUVWXYZ".to_vec()),
        ];
        assert_eq!(body_of(&assembled(&straddling)), b"abcdEFGHIJKLMNOPQRSTUVWXYZ");
        // A same-offset rival never replaces the segment that got there first.
        let rivals = [
            Arrival::Data(head_len as i64, b"ABC".to_vec()),
            Arrival::Data(head_len as i64, b"abcdefghijklmnopqrstuvwxyz".to_vec()),
            Arrival::Data(0, PAGE[..head_len].to_vec()),
        ];
        assert_eq!(assembled(&rivals), FlowOutcome::HttpTimeout);
    }

    #[test]
    fn reassembly_finds_a_head_terminator_split_across_segments() {
        let end = PAGE.len() - 26; // first body byte
        for cuts in [
            vec![end - 2],                   // \r\n | \r\n
            vec![end - 1],                   // \r\n\r | \n
            vec![end - 3],                   // \r | \n\r\n
            vec![end - 3, end - 1],          // three pieces
            vec![end - 3, end - 2, end - 1], // one byte at a time
            vec![end - 4, end],              // the terminator alone
        ] {
            let arrivals = cut(PAGE, &cuts);
            assert_eq!(body_of(&assembled(&arrivals)), b"abcdefghijklmnopqrstuvwxyz", "cuts {cuts:?}");
            let mut reversed = arrivals.clone();
            reversed.reverse();
            assert_eq!(assembled(&reversed), assembled(&arrivals), "cuts {cuts:?}");
        }
    }

    #[test]
    fn reassembly_without_a_usable_content_length_completes_at_the_head() {
        for head in [
            &b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\nContent-Length: lots\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
            b"HTTP/1.0 302\r\n\r\n",
        ] {
            let mut page = head.to_vec();
            page.extend_from_slice(b"0123456789");
            // Whatever body shares the terminator's segment is all there is.
            let arrivals = cut(&page, &[head.len() + 4]);
            assert_eq!(body_of(&assembled(&arrivals)), b"0123");
            let arrivals = cut(&page, &[head.len() - 1]);
            assert_eq!(body_of(&assembled(&arrivals)), b"0123456789");
        }
        // The first of two Content-Length headers counts, in any case.
        let page = b"HTTP/1.1 200 OK\r\ncontent-LENGTH: 3\r\nContent-Length: 9\r\n\r\n0123456789";
        assert_eq!(body_of(&assembled(&cut(page, &[page.len() - 8, page.len() - 4]))), b"012345");
    }

    #[test]
    fn reassembly_never_completes_on_a_malformed_head() {
        for page in [
            &b"SSH-2.0-OpenSSH\r\n\r\nContent-Length: 0\r\n\r\n"[..],
            b"HTTP/1.1 two hundred\r\n\r\nHTTP/1.1 200 OK\r\n\r\n",
            b"HTTP/1.1 200 \xff\xfe\r\n\r\nHTTP/1.1 200 OK\r\n\r\n",
            b"\r\n\r\nHTTP/1.1 200 OK\r\n\r\n",
        ] {
            assert_eq!(assembled(&cut(page, &[5, 9])), FlowOutcome::HttpTimeout);
            // …but the stream still advances, so a later RST is in window.
            let mut arrivals = cut(page, &[5, 9]);
            arrivals.push(Arrival::Rst(page.len() as i64));
            assert_eq!(assembled(&arrivals), FlowOutcome::HttpReset);
        }
    }

    #[test]
    fn reassembly_accepts_only_in_window_resets() {
        let half = cut(PAGE, &[40])[..1].to_vec();
        for (delta, accepted) in [
            (0i64, true),
            (4095, true),
            (4096, false),
            (-4096, true),
            (-4097, false),
            (1 << 20, false),
        ] {
            let mut arrivals = half.clone();
            arrivals.push(Arrival::Rst(40 + delta));
            arrivals.push(Arrival::Data(40, PAGE[40..].to_vec()));
            let outcome = assembled(&arrivals);
            assert_eq!(outcome == FlowOutcome::HttpReset, accepted, "delta {delta}");
            assert!(accepted || matches!(outcome, FlowOutcome::HttpOk(_)), "delta {delta}");
        }
        // An RST before any data is judged against the stream's first byte.
        assert_eq!(assembled(&[Arrival::Rst(-100)]), FlowOutcome::HttpReset);
        assert_eq!(assembled(&[Arrival::Rst(5000)]), FlowOutcome::HttpTimeout);
    }

    #[test]
    fn reassembly_buffers_only_inside_the_stream_window() {
        let cfg = FlowConfig::default();
        let window = i64::from(STREAM_WINDOW);
        let arrivals = [
            Arrival::Data(window, b"outside".to_vec()),
            Arrival::Data(window - 1, b"inside".to_vec()),
            Arrival::Data(-1, b"before".to_vec()),
        ];
        let cap = capture_of(&cfg, &arrivals);
        let mut reassembly = Reassembly::default();
        assert_eq!(FlowSimulator::assemble(&cap, &cfg, &mut reassembly), Fetched::Timeout);
        assert_eq!(reassembly.pending, vec![(STREAM_WINDOW - 1, 1)]);
        assert_eq!(assembled(&arrivals), FlowOutcome::HttpTimeout);
    }

    /// Seeded soups of everything above at once: the page in small random
    /// pieces, shuffled a little, with forged overlaps, duplicates and
    /// resets thrown in.
    #[test]
    fn reassembly_equals_the_oracle_on_random_arrivals() {
        use rand::Rng;
        let heads: [&[u8]; 5] = [
            b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n",
            b"HTTP/1.1 403 Forbidden\r\nContent-Length: 12\r\nX: y\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: many\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n\r\n",
            b"garbage\r\n\r\n",
        ];
        let mut outcomes = [0u32; 3];
        for seed in 0..3000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut page = heads[rng.gen_range(0..heads.len())].to_vec();
            page.extend((0..40).map(|i| b'a' + (i % 26) as u8));
            let mut cuts: Vec<usize> = (0..rng.gen_range(0..12)).map(|_| rng.gen_range(1..page.len())).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut arrivals = cut(&page, &cuts);
            for _ in 0..rng.gen_range(0..4) {
                let at = rng.gen_range(0..page.len()) as i64;
                let extra = match rng.gen_range(0..4) {
                    0 => Arrival::Data(at, (0..rng.gen_range(1..30)).map(|_| rng.gen()).collect()),
                    1 => arrivals[rng.gen_range(0..arrivals.len())].clone(),
                    2 => Arrival::Rst(at + [0, 7, -9, 4095, 4096, -4096, 1 << 25][rng.gen_range(0..7usize)]),
                    _ => Arrival::Data(at + (1 << 24) - rng.gen_range(0..2), b"far".to_vec()),
                };
                arrivals.insert(rng.gen_range(0..=arrivals.len()), extra);
            }
            for _ in 0..rng.gen_range(0..3) {
                let (a, b) = (rng.gen_range(0..arrivals.len()), rng.gen_range(0..arrivals.len()));
                arrivals.swap(a, b);
            }
            match assembled(&arrivals) {
                FlowOutcome::HttpOk(_) => outcomes[0] += 1,
                FlowOutcome::HttpReset => outcomes[1] += 1,
                FlowOutcome::HttpTimeout => outcomes[2] += 1,
            }
        }
        assert!(outcomes.iter().all(|&n| n > 100), "every outcome is exercised: {outcomes:?}");
    }

    #[test]
    fn clean_get_completes_with_consistent_ttls() {
        let p = path();
        let cfg = FlowConfig::default();
        let req = HttpRequest::get("ok.example.com", "/");
        let resp = HttpResponse::ok("<html>fine</html>");
        let (cap, outcome) = FlowSimulator::http_get(&p, &cfg, &req, &resp, &mut []);
        match outcome {
            FlowOutcome::HttpOk(r) => assert_eq!(r.body, resp.body),
            other => panic!("expected ok, got {other:?}"),
        }
        // All incoming TCP packets carry the same remaining TTL (they all
        // come from the server).
        let ttls: Vec<u8> = cap.incoming_tcp().map(|(p, _)| p.pkt.ttl).collect();
        assert!(!ttls.is_empty());
        assert!(ttls.windows(2).all(|w| w[0] == w[1]), "ttls varied: {ttls:?}");
    }

    #[test]
    fn clean_get_has_monotone_seq_no_gaps() {
        let p = path();
        let cfg = FlowConfig::default();
        let req = HttpRequest::get("ok.example.com", "/");
        let resp = HttpResponse::ok(&"x".repeat(5000));
        let (cap, _) = FlowSimulator::http_get(&p, &cfg, &req, &resp, &mut []);
        let mut expected = cfg.isn_server.wrapping_add(1);
        for (_, seg) in cap.incoming_tcp().filter(|(_, s)| s.has_data()) {
            assert_eq!(seg.seq, expected, "unexpected gap/overlap in clean flow");
            expected = expected.wrapping_add(seg.payload.len() as u32);
        }
    }

    #[test]
    fn organic_rst_flows_reset_without_ttl_anomaly() {
        let p = path();
        let cfg = FlowConfig { organic_rst: true, ..FlowConfig::default() };
        let req = HttpRequest::get("ok.example.com", "/");
        let resp = HttpResponse::ok("body");
        let (cap, outcome) = FlowSimulator::http_get(&p, &cfg, &req, &resp, &mut []);
        assert_eq!(outcome, FlowOutcome::HttpReset);
        let ttls: Vec<u8> = cap.incoming_tcp().map(|(p, _)| p.pkt.ttl).collect();
        assert!(ttls.windows(2).all(|w| w[0] == w[1]), "organic RST must not change TTL");
    }

    #[test]
    fn organic_loss_produces_gap_then_overlap() {
        let p = path();
        let cfg = FlowConfig { organic_loss: true, mss: 400, ..FlowConfig::default() };
        let req = HttpRequest::get("ok.example.com", "/");
        let resp = HttpResponse::ok(&"y".repeat(2500));
        let (cap, outcome) = FlowSimulator::http_get(&p, &cfg, &req, &resp, &mut []);
        // Retransmission repairs the stream, so the fetch still succeeds…
        assert!(matches!(outcome, FlowOutcome::HttpOk(_)));
        // …but the capture order shows a sequence discontinuity.
        let seqs: Vec<u32> = cap
            .incoming_tcp()
            .filter(|(_, s)| s.has_data())
            .map(|(_, s)| s.seq)
            .collect();
        let sorted = {
            let mut s = seqs.clone();
            s.sort();
            s
        };
        assert_ne!(seqs, sorted, "loss must reorder the observed sequence numbers");
    }

    #[test]
    fn dns_lookup_single_answer_when_clean() {
        let p = path();
        let cfg = FlowConfig::default();
        let q = DnsMessage::query(7, "site.example.org");
        let a = DnsMessage::answer(&q, 0x08080404, 60);
        let (cap, responses) = FlowSimulator::dns_lookup(&p, &cfg, &q, Some(&a), &mut []);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].answers[0].addr, 0x08080404);
        assert_eq!(cap.dns_responses().len(), 1);
    }

    #[test]
    fn dns_lookup_resolver_failure_yields_nothing() {
        let p = path();
        let (_, responses) =
            FlowSimulator::dns_lookup(&p, &FlowConfig::default(), &DnsMessage::query(1, "x.y"), None, &mut []);
        assert!(responses.is_empty());
    }

    /// An observer that injects a forged RST when it sees payload (the GET).
    struct RstInjector {
        fired: bool,
    }

    impl OnPathObserver for RstInjector {
        fn observe(&mut self, pkt: &Ipv4Packet, _t: u64) -> ObserverVerdict {
            if self.fired {
                return ObserverVerdict::pass();
            }
            if let Payload::Tcp(seg) = &pkt.payload {
                if seg.has_data() {
                    self.fired = true;
                    return ObserverVerdict {
                        drop_forward: false,
                        inject: vec![InjectedPacket {
                            delay_us: 10,
                            initial_ttl: 64,
                            pkt: Ipv4Packet::tcp(pkt.dst, pkt.src, 64, 9999, TcpSegment {
                                src_port: 80,
                                dst_port: seg.src_port,
                                seq: seg.ack,
                                ack: seg.seq_end(),
                                flags: TcpFlags::RST,
                                window: 0,
                                payload: SharedBytes::new(),
                            }),
                        }],
                    };
                }
            }
            ObserverVerdict::pass()
        }
    }

    #[test]
    fn injected_rst_resets_and_leaves_ttl_fingerprint() {
        let p = path();
        let cfg = FlowConfig::default();
        let req = HttpRequest::get("blocked.example.com", "/");
        let resp = HttpResponse::ok("real content");
        let mut inj = RstInjector { fired: false };
        let mut observers: Vec<(usize, &mut dyn OnPathObserver)> = vec![(1, &mut inj)];
        let (cap, outcome) = FlowSimulator::http_get(&p, &cfg, &req, &resp, &mut observers);
        assert_eq!(outcome, FlowOutcome::HttpReset);
        // The RST must carry a *different* remaining TTL than the SYNACK.
        let synack_ttl = cap
            .incoming_tcp()
            .find(|(_, s)| s.flags.contains(TcpFlags::SYN | TcpFlags::ACK))
            .map(|(p, _)| p.pkt.ttl)
            .unwrap();
        let rst_ttl = cap
            .incoming_tcp()
            .find(|(_, s)| s.flags.contains(TcpFlags::RST))
            .map(|(p, _)| p.pkt.ttl)
            .unwrap();
        assert!(rst_ttl > synack_ttl, "injector is closer, so more TTL must remain");
    }

    #[test]
    fn observer_off_path_is_ignored() {
        let p = path();
        let mut inj = RstInjector { fired: false };
        // as_pos 7 does not exist on a 3-AS path.
        let mut observers: Vec<(usize, &mut dyn OnPathObserver)> = vec![(7, &mut inj)];
        let (_, outcome) = FlowSimulator::http_get(
            &p,
            &FlowConfig::default(),
            &HttpRequest::get("a.b", "/"),
            &HttpResponse::ok("ok"),
            &mut observers,
        );
        assert!(matches!(outcome, FlowOutcome::HttpOk(_)));
    }

    /// Observer that drops everything with payload (blackholing filter).
    struct Dropper;

    impl OnPathObserver for Dropper {
        fn observe(&mut self, pkt: &Ipv4Packet, _t: u64) -> ObserverVerdict {
            let drop = matches!(&pkt.payload, Payload::Tcp(s) if s.has_data());
            ObserverVerdict { drop_forward: drop, inject: vec![] }
        }
    }

    #[test]
    fn dropped_get_times_out_after_retransmit() {
        let p = path();
        let mut d = Dropper;
        let mut observers: Vec<(usize, &mut dyn OnPathObserver)> = vec![(1, &mut d)];
        let (cap, outcome) = FlowSimulator::http_get(
            &p,
            &FlowConfig::default(),
            &HttpRequest::get("a.b", "/"),
            &HttpResponse::ok("ok"),
            &mut observers,
        );
        assert_eq!(outcome, FlowOutcome::HttpTimeout);
        // The GET appears twice in the capture (original + retransmit).
        let gets = cap
            .packets
            .iter()
            .filter(|cp| {
                cp.dir == Direction::Out
                    && cp.pkt.as_tcp().map(|s| s.has_data()).unwrap_or(false)
            })
            .count();
        assert_eq!(gets, 2);
    }
}
