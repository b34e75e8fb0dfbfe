//! # churnlab-net
//!
//! Packet-level network substrate for churnlab.
//!
//! The ICLab platform that the paper builds on records *raw packet
//! captures* and derives censorship anomalies from packet artifacts: a
//! second DNS response racing the first, a SYNACK whose IP TTL disagrees
//! with later segments, overlapping/gapped TCP sequence ranges, spurious
//! RSTs, and blockpage payloads. To reproduce the paper honestly, our
//! anomaly detectors must look at *packets*, not at ground truth — so this
//! crate models them:
//!
//! * [`ip`] — IPv4 packets with real header encode/decode and the Internet
//!   checksum.
//! * [`tcp`] — TCP segments (flags, seq/ack) with wire format and
//!   pseudo-header checksum.
//! * [`udp`] — UDP datagrams.
//! * [`dns`] — DNS messages (RFC 1035 subset: A queries/answers, label
//!   encoding, compression-pointer parsing).
//! * [`http`] — a minimal HTTP/1.1 request/response model used for GET
//!   tests and blockpage bodies.
//! * [`hops`] — router-level paths: each AS on an AS-level path expands to
//!   one or more router hops with interface addresses drawn from that AS's
//!   prefixes; TTL arithmetic happens here.
//! * [`shared`] — [`SharedBytes`], the payload of every segment and
//!   datagram: a reference-counted buffer and a range of it.
//! * [`flow`] — clean TCP/DNS flow synthesis over a hop path, with an
//!   [`flow::OnPathObserver`] hook through which middleboxes (the censor
//!   engine in `churnlab-censor`) inspect forward packets and inject
//!   responses.
//! * [`capture`] — client-side packet captures plus a libpcap-format
//!   writer.
//! * [`traceroute`] — a traceroute engine over hop paths with
//!   non-responsive hops and failures (the raw material for the paper's
//!   path-elimination rules).
//!
//! The simulation hot path passes structured packets around, and what
//! they carry costs what the wire would: a payload is a [`SharedBytes`]
//! slice, so the segments of a response are ranges of the one serialised
//! page, and the capture's copy of a packet, a retransmission, and every
//! further test of the same URL share its buffer instead of copying it.
//! The hot entry points take caller-owned buffers and fill them —
//! [`HopPath::expand_into`], [`FlowSimulator::dns_lookup_into`],
//! [`FlowSimulator::http_get_into`] over a [`Capture`] and a
//! [`Reassembly`] — and readers that keep nothing parse in place
//! ([`DnsMessage::peek`], [`HttpRequest::parse_borrowed`]). The
//! signatures that return owned values ([`HopPath::expand`],
//! [`FlowSimulator::dns_lookup`], [`FlowSimulator::http_get`],
//! [`DnsMessage::decode`], [`HttpRequest::parse`]) are adapters over
//! those: one implementation each. The wire formats exist for realism,
//! interop (pcap export) and are property-tested for roundtripping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod dns;
pub mod flow;
pub mod hops;
pub mod http;
pub mod ip;
pub mod shared;
pub mod tcp;
pub mod traceroute;
pub mod udp;

pub use capture::{Capture, CapturedPacket, Direction};
pub use dns::{DnsMessage, DnsPeek, DnsQType, DnsRcode};
pub use flow::{
    Fetched, FlowConfig, FlowOutcome, FlowSimulator, InjectedPacket, ObserverVerdict,
    OnPathObserver, Reassembly,
};
pub use hops::{Hop, HopPath};
pub use http::{HttpRequest, HttpResponse};
pub use ip::{Ipv4Packet, Payload};
pub use shared::SharedBytes;
pub use tcp::{TcpFlags, TcpSegment, STREAM_WINDOW};
pub use traceroute::{Traceroute, TracerouteConfig, TracerouteError};
pub use udp::UdpDatagram;

/// Errors from wire-format parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer too short for the claimed structure.
    Truncated(&'static str),
    /// A field held an unsupported value.
    Unsupported(&'static str),
    /// Checksum mismatch.
    BadChecksum(&'static str),
    /// Malformed DNS name (bad label length / pointer loop).
    BadName,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated(w) => write!(f, "truncated {w}"),
            WireError::Unsupported(w) => write!(f, "unsupported {w}"),
            WireError::BadChecksum(w) => write!(f, "bad checksum in {w}"),
            WireError::BadName => write!(f, "malformed DNS name"),
        }
    }
}

impl std::error::Error for WireError {}

/// The Internet checksum (RFC 1071) over a byte slice.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_odd_length_pads_with_zero() {
        assert_eq!(internet_checksum(&[0xab]), internet_checksum(&[0xab, 0x00]));
    }

    #[test]
    fn checksum_of_zeroes_is_ffff() {
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xffff);
    }

    #[test]
    fn checksum_validates_to_zero() {
        // A buffer with its own checksum embedded sums to 0 (i.e. the
        // complement of the running sum is 0).
        let mut data = vec![0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0];
        let ck = internet_checksum(&data);
        data[10] = (ck >> 8) as u8;
        data[11] = (ck & 0xff) as u8;
        assert_eq!(internet_checksum(&data), 0);
    }

    #[test]
    fn checksum_order_independent_within_words() {
        // Swapping 16-bit words does not change the sum (one's complement
        // addition is commutative).
        let a = [0x12, 0x34, 0xab, 0xcd];
        let b = [0xab, 0xcd, 0x12, 0x34];
        assert_eq!(internet_checksum(&a), internet_checksum(&b));
    }
}
