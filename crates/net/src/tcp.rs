//! TCP segments: flags, sequence space, wire format with pseudo-header
//! checksum.

use crate::shared::SharedBytes;
use crate::{internet_checksum, WireError};
use bytes::{BufMut, BytesMut};
use serde::{Deserialize, Serialize};

/// TCP flag bits (subset used by the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// FIN: no more data from sender.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection. The censorship mechanism of choice for
    /// several nation-state filters (§2, refs. 2, 21, 34).
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: acknowledgement field significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG: urgent pointer significant (unused, parsed for realism).
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// Empty flag set.
    pub const fn empty() -> Self {
        TcpFlags(0)
    }

    /// From raw bits (upper two bits masked off).
    pub const fn from_bits(bits: u8) -> Self {
        TcpFlags(bits & 0x3f)
    }

    /// Raw bits.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// True if every flag in `other` is set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if no flags are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl std::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut wrote = false;
        for (bit, name) in [
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::URG, "URG"),
        ] {
            if self.contains(bit) {
                if wrote {
                    f.write_str("|")?;
                }
                f.write_str(name)?;
                wrote = true;
            }
        }
        if !wrote {
            f.write_str("-")?;
        }
        Ok(())
    }
}

/// The plausible-stream window: a sequence number belongs to a
/// connection's server → client stream only if it lies fewer than this
/// many bytes past the stream's first byte. Reassembly ignores data
/// outside it, and the SEQNO detector neither collects such data nor
/// judges an RST there (short of the few KB just *before* the stream,
/// where sloppy injectors undershoot).
pub const STREAM_WINDOW: u32 = 1 << 24;

/// A TCP segment (no options modelled; data offset always 5).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Acknowledgement number (meaningful when ACK set).
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Payload bytes.
    pub payload: SharedBytes,
}

impl TcpSegment {
    /// A SYN segment.
    pub fn syn(src_port: u16, dst_port: u16, isn: u32) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq: isn,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            payload: SharedBytes::new(),
        }
    }

    /// The exclusive end of this segment's sequence range
    /// (`seq + len`, SYN/FIN each consume one sequence number).
    pub fn seq_end(&self) -> u32 {
        let mut len = self.payload.len() as u32;
        if self.flags.contains(TcpFlags::SYN) {
            len += 1;
        }
        if self.flags.contains(TcpFlags::FIN) {
            len += 1;
        }
        self.seq.wrapping_add(len)
    }

    /// True if the segment carries payload bytes.
    pub fn has_data(&self) -> bool {
        !self.payload.is_empty()
    }

    /// Encode to wire bytes including a correct checksum over the IPv4
    /// pseudo-header.
    pub fn encode(&self, src_ip: u32, dst_ip: u32) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(20 + self.payload.len());
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        buf.put_u8(5 << 4); // data offset 5, reserved 0
        buf.put_u8(self.flags.bits());
        buf.put_u16(self.window);
        buf.put_u16(0); // checksum placeholder
        buf.put_u16(0); // urgent pointer
        buf.extend_from_slice(&self.payload);
        let ck = pseudo_checksum(src_ip, dst_ip, 6, &buf);
        buf[16] = (ck >> 8) as u8;
        buf[17] = (ck & 0xff) as u8;
        buf.to_vec()
    }

    /// Decode from wire bytes, validating length and checksum.
    pub fn decode(data: &[u8], src_ip: u32, dst_ip: u32) -> Result<Self, WireError> {
        if data.len() < 20 {
            return Err(WireError::Truncated("tcp header"));
        }
        let off = (data[12] >> 4) as usize * 4;
        if off < 20 || data.len() < off {
            return Err(WireError::Truncated("tcp options"));
        }
        if pseudo_checksum(src_ip, dst_ip, 6, data) != 0 {
            return Err(WireError::BadChecksum("tcp"));
        }
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags::from_bits(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]),
            payload: SharedBytes::from(&data[off..]),
        })
    }
}

/// Internet checksum over the IPv4 pseudo-header plus segment bytes.
pub(crate) fn pseudo_checksum(src_ip: u32, dst_ip: u32, proto: u8, seg: &[u8]) -> u16 {
    let mut pseudo = Vec::with_capacity(12 + seg.len());
    pseudo.extend_from_slice(&src_ip.to_be_bytes());
    pseudo.extend_from_slice(&dst_ip.to_be_bytes());
    pseudo.push(0);
    pseudo.push(proto);
    pseudo.extend_from_slice(&(seg.len() as u16).to_be_bytes());
    pseudo.extend_from_slice(seg);
    internet_checksum(&pseudo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn flags_display() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::RST.to_string(), "RST");
        assert_eq!(TcpFlags::empty().to_string(), "-");
    }

    #[test]
    fn flags_contains() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(f.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::RST));
    }

    #[test]
    fn seq_end_accounting() {
        let mut s = TcpSegment::syn(1, 2, 100);
        assert_eq!(s.seq_end(), 101, "SYN consumes one sequence number");
        s.flags = TcpFlags::ACK;
        s.payload = vec![0; 10].into();
        assert_eq!(s.seq_end(), 110);
        s.flags = TcpFlags::ACK | TcpFlags::FIN;
        assert_eq!(s.seq_end(), 111);
    }

    #[test]
    fn seq_end_wraps() {
        let s = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: u32::MAX - 1,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 0,
            payload: vec![0; 4].into(),
        };
        assert_eq!(s.seq_end(), 2);
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let seg = TcpSegment {
            src_port: 80,
            dst_port: 1024,
            seq: 1,
            ack: 2,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 100,
            payload: b"hello world".to_vec().into(),
        };
        let mut wire = seg.encode(1, 2);
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert_eq!(TcpSegment::decode(&wire, 1, 2), Err(WireError::BadChecksum("tcp")));
    }

    #[test]
    fn checksum_binds_addresses() {
        // A segment captured with spoofed/NATed addresses fails the
        // pseudo-header check — this is why injected packets must forge a
        // checksum for the *claimed* source, not their real one.
        let seg = TcpSegment::syn(1000, 80, 42);
        let wire = seg.encode(0x0a000001, 0x0a000002);
        assert!(TcpSegment::decode(&wire, 0x0a000001, 0x0a000002).is_ok());
        assert!(TcpSegment::decode(&wire, 0x0a000001, 0x0a000003).is_err());
    }

    proptest! {
        #[test]
        fn prop_tcp_roundtrip(
            sport in any::<u16>(), dport in any::<u16>(), seq in any::<u32>(),
            ack in any::<u32>(), bits in 0u8..64, window in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            src in any::<u32>(), dst in any::<u32>(),
        ) {
            let seg = TcpSegment {
                src_port: sport, dst_port: dport, seq, ack,
                flags: TcpFlags::from_bits(bits), window, payload: payload.into(),
            };
            let back = TcpSegment::decode(&seg.encode(src, dst), src, dst).unwrap();
            prop_assert_eq!(seg, back);
        }

        #[test]
        fn prop_tcp_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = TcpSegment::decode(&data, 1, 2);
        }
    }
}
