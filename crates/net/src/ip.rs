//! IPv4 packets: structured form plus RFC 791 wire format.

use crate::tcp::TcpSegment;
use crate::udp::UdpDatagram;
use crate::{internet_checksum, WireError};
use bytes::{BufMut, BytesMut};
use serde::{Deserialize, Serialize};

/// Transport payload of an IPv4 packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Payload {
    /// TCP segment (protocol 6).
    Tcp(TcpSegment),
    /// UDP datagram (protocol 17).
    Udp(UdpDatagram),
}

impl Payload {
    /// IANA protocol number.
    pub fn proto(&self) -> u8 {
        match self {
            Payload::Tcp(_) => 6,
            Payload::Udp(_) => 17,
        }
    }
}

/// An IPv4 packet.
///
/// The simulator keeps packets structured; [`Ipv4Packet::encode`] /
/// [`Ipv4Packet::decode`] provide the on-the-wire view (used by the pcap
/// exporter and exercised by property tests).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ipv4Packet {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Remaining time-to-live. This is the field the paper's TTL-anomaly
    /// detector scrutinises: a packet injected by an on-path censor has
    /// traversed fewer hops than one from the true server, so its remaining
    /// TTL differs from the SYNACK's.
    pub ttl: u8,
    /// IP identification field.
    pub ident: u16,
    /// Transport payload.
    pub payload: Payload,
}

impl Ipv4Packet {
    /// Convenience constructor for a TCP packet.
    pub fn tcp(src: u32, dst: u32, ttl: u8, ident: u16, seg: TcpSegment) -> Self {
        Ipv4Packet { src, dst, ttl, ident, payload: Payload::Tcp(seg) }
    }

    /// Convenience constructor for a UDP packet.
    pub fn udp(src: u32, dst: u32, ttl: u8, ident: u16, dgram: UdpDatagram) -> Self {
        Ipv4Packet { src, dst, ttl, ident, payload: Payload::Udp(dgram) }
    }

    /// The TCP segment, if this is a TCP packet.
    pub fn as_tcp(&self) -> Option<&TcpSegment> {
        match &self.payload {
            Payload::Tcp(t) => Some(t),
            _ => None,
        }
    }

    /// The UDP datagram, if this is a UDP packet.
    pub fn as_udp(&self) -> Option<&UdpDatagram> {
        match &self.payload {
            Payload::Udp(u) => Some(u),
            _ => None,
        }
    }

    /// Encode to wire bytes: a 20-byte header (no options) with a correct
    /// header checksum, followed by the encoded transport payload
    /// (transport checksums computed over the IPv4 pseudo-header).
    pub fn encode(&self) -> Vec<u8> {
        let body = match &self.payload {
            Payload::Tcp(t) => t.encode(self.src, self.dst),
            Payload::Udp(u) => u.encode(self.src, self.dst),
        };
        let total_len = 20 + body.len();
        let mut buf = BytesMut::with_capacity(total_len);
        buf.put_u8(0x45); // version 4, IHL 5
        buf.put_u8(0); // DSCP/ECN
        buf.put_u16(total_len as u16);
        buf.put_u16(self.ident);
        buf.put_u16(0); // flags/fragment offset: DF not modelled
        buf.put_u8(self.ttl);
        buf.put_u8(self.payload.proto());
        buf.put_u16(0); // checksum placeholder
        buf.put_u32(self.src);
        buf.put_u32(self.dst);
        let ck = internet_checksum(&buf[..20]);
        buf[10] = (ck >> 8) as u8;
        buf[11] = (ck & 0xff) as u8;
        buf.extend_from_slice(&body);
        buf.to_vec()
    }

    /// Decode from wire bytes, validating the header checksum and
    /// structure.
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        if data.len() < 20 {
            return Err(WireError::Truncated("ipv4 header"));
        }
        if data[0] >> 4 != 4 {
            return Err(WireError::Unsupported("ip version"));
        }
        let ihl = (data[0] & 0x0f) as usize * 4;
        if ihl < 20 || data.len() < ihl {
            return Err(WireError::Truncated("ipv4 options"));
        }
        if internet_checksum(&data[..ihl]) != 0 {
            return Err(WireError::BadChecksum("ipv4 header"));
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total_len < ihl || data.len() < total_len {
            return Err(WireError::Truncated("ipv4 body"));
        }
        let ident = u16::from_be_bytes([data[4], data[5]]);
        let ttl = data[8];
        let proto = data[9];
        let src = u32::from_be_bytes([data[12], data[13], data[14], data[15]]);
        let dst = u32::from_be_bytes([data[16], data[17], data[18], data[19]]);
        let body = &data[ihl..total_len];
        let payload = match proto {
            6 => Payload::Tcp(TcpSegment::decode(body, src, dst)?),
            17 => Payload::Udp(UdpDatagram::decode(body, src, dst)?),
            _ => return Err(WireError::Unsupported("ip protocol")),
        };
        Ok(Ipv4Packet { src, dst, ttl, ident, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;
    use proptest::prelude::*;

    fn sample_tcp() -> Ipv4Packet {
        Ipv4Packet::tcp(
            0x0a000001,
            0x0a000002,
            57,
            0x1234,
            TcpSegment {
                src_port: 443,
                dst_port: 51000,
                seq: 0xdeadbeef,
                ack: 0x01020304,
                flags: TcpFlags::SYN | TcpFlags::ACK,
                window: 65535,
                payload: vec![].into(),
            },
        )
    }

    #[test]
    fn encode_decode_roundtrip_tcp() {
        let p = sample_tcp();
        let wire = p.encode();
        let back = Ipv4Packet::decode(&wire).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn header_fields_on_wire() {
        let p = sample_tcp();
        let wire = p.encode();
        assert_eq!(wire[0], 0x45);
        assert_eq!(wire[8], 57); // TTL
        assert_eq!(wire[9], 6); // proto
        assert_eq!(&wire[12..16], &[10, 0, 0, 1]);
        assert_eq!(&wire[16..20], &[10, 0, 0, 2]);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let mut wire = sample_tcp().encode();
        wire[10] ^= 0xff;
        assert_eq!(Ipv4Packet::decode(&wire), Err(WireError::BadChecksum("ipv4 header")));
    }

    #[test]
    fn truncation_rejected() {
        let wire = sample_tcp().encode();
        assert!(Ipv4Packet::decode(&wire[..10]).is_err());
        assert!(Ipv4Packet::decode(&wire[..25]).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut wire = sample_tcp().encode();
        wire[0] = 0x65;
        assert_eq!(Ipv4Packet::decode(&wire), Err(WireError::Unsupported("ip version")));
    }

    proptest! {
        #[test]
        fn prop_ip_tcp_roundtrip(
            src in any::<u32>(), dst in any::<u32>(), ttl in any::<u8>(),
            ident in any::<u16>(), sport in any::<u16>(), dport in any::<u16>(),
            seq in any::<u32>(), ack in any::<u32>(), flags_bits in 0u8..64,
            window in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let p = Ipv4Packet::tcp(src, dst, ttl, ident, TcpSegment {
                src_port: sport, dst_port: dport, seq, ack,
                flags: TcpFlags::from_bits(flags_bits),
                window, payload: payload.into(),
            });
            let back = Ipv4Packet::decode(&p.encode()).unwrap();
            prop_assert_eq!(p, back);
        }

        #[test]
        fn prop_ip_udp_roundtrip(
            src in any::<u32>(), dst in any::<u32>(), ttl in any::<u8>(),
            sport in any::<u16>(), dport in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let p = Ipv4Packet::udp(src, dst, ttl, 0, UdpDatagram {
                src_port: sport, dst_port: dport, payload: payload.into(),
            });
            let back = Ipv4Packet::decode(&p.encode()).unwrap();
            prop_assert_eq!(p, back);
        }

        #[test]
        fn prop_random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = Ipv4Packet::decode(&data); // must not panic
        }
    }
}
