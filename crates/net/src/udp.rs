//! UDP datagrams (carrier for DNS in the measurement flows).

use crate::shared::SharedBytes;
use crate::tcp::pseudo_checksum;
use crate::WireError;
use bytes::{BufMut, BytesMut};
use serde::{Deserialize, Serialize};

/// A UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes (e.g. an encoded DNS message).
    pub payload: SharedBytes,
}

impl UdpDatagram {
    /// Construct a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: impl Into<SharedBytes>) -> Self {
        UdpDatagram { src_port, dst_port, payload: payload.into() }
    }

    /// Encode to wire bytes with a correct pseudo-header checksum.
    pub fn encode(&self, src_ip: u32, dst_ip: u32) -> Vec<u8> {
        let len = 8 + self.payload.len();
        let mut buf = BytesMut::with_capacity(len);
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16(len as u16);
        buf.put_u16(0); // checksum placeholder
        buf.extend_from_slice(&self.payload);
        let mut ck = pseudo_checksum(src_ip, dst_ip, 17, &buf);
        // RFC 768: a computed checksum of zero is transmitted as all-ones.
        if ck == 0 {
            ck = 0xffff;
        }
        buf[6] = (ck >> 8) as u8;
        buf[7] = (ck & 0xff) as u8;
        buf.to_vec()
    }

    /// Decode from wire bytes, validating length and checksum.
    pub fn decode(data: &[u8], src_ip: u32, dst_ip: u32) -> Result<Self, WireError> {
        if data.len() < 8 {
            return Err(WireError::Truncated("udp header"));
        }
        let len = u16::from_be_bytes([data[4], data[5]]) as usize;
        if len < 8 || data.len() < len {
            return Err(WireError::Truncated("udp body"));
        }
        let ck_field = u16::from_be_bytes([data[6], data[7]]);
        // Checksum 0 means "not computed" per RFC 768.
        if ck_field != 0 && pseudo_checksum(src_ip, dst_ip, 17, &data[..len]) != 0 {
            return Err(WireError::BadChecksum("udp"));
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            payload: SharedBytes::from(&data[8..len]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_basic() {
        let d = UdpDatagram::new(5353, 53, b"query".to_vec());
        let back = UdpDatagram::decode(&d.encode(7, 8), 7, 8).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn corruption_detected() {
        let d = UdpDatagram::new(1, 2, b"payload".to_vec());
        let mut wire = d.encode(7, 8);
        wire[9] ^= 0xff;
        assert_eq!(UdpDatagram::decode(&wire, 7, 8), Err(WireError::BadChecksum("udp")));
    }

    #[test]
    fn zero_checksum_skips_validation() {
        let d = UdpDatagram::new(1, 2, b"x".to_vec());
        let mut wire = d.encode(7, 8);
        wire[6] = 0;
        wire[7] = 0;
        assert!(UdpDatagram::decode(&wire, 7, 8).is_ok());
    }

    #[test]
    fn truncated_rejected() {
        assert!(UdpDatagram::decode(&[0; 4], 1, 2).is_err());
        let d = UdpDatagram::new(1, 2, vec![0; 16]);
        let wire = d.encode(1, 2);
        assert!(UdpDatagram::decode(&wire[..12], 1, 2).is_err());
    }

    proptest! {
        #[test]
        fn prop_udp_roundtrip(
            sport in any::<u16>(), dport in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            src in any::<u32>(), dst in any::<u32>(),
        ) {
            let d = UdpDatagram::new(sport, dport, payload);
            let back = UdpDatagram::decode(&d.encode(src, dst), src, dst).unwrap();
            prop_assert_eq!(d, back);
        }
    }
}
