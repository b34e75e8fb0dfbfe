//! Shared-slice packet payloads.
//!
//! One measurement moves the same bytes many times: the serialised page
//! is cut into segments, every forwarded packet is copied into the
//! capture, a dropped GET is retransmitted, and every test of a URL sends
//! the same request and receives the same page. [`SharedBytes`] makes
//! each of those a reference bump: a reference-counted buffer plus the
//! range of it this payload covers. It dereferences to `[u8]`, compares
//! by content, and serialises as the byte sequence a `Vec<u8>` would, so
//! nothing that reads a payload can tell the difference.

use serde::{Deserialize, Serialize};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable byte payload that clones without copying.
#[derive(Clone, Default)]
pub struct SharedBytes {
    /// `None` for the empty payload most packets of a flow carry (SYN,
    /// ACK, FIN, RST), so building one never allocates.
    buf: Option<Arc<[u8]>>,
    /// The covered range of `buf`; `0..0` without one.
    range: Range<usize>,
}

impl SharedBytes {
    /// The empty payload.
    pub fn new() -> Self {
        SharedBytes::default()
    }

    /// A payload covering `range` of this one, sharing its buffer.
    ///
    /// # Panics
    /// If `range` does not lie within `0..self.len()`.
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} outside a payload of {} bytes",
            self.len()
        );
        if range.is_empty() {
            return SharedBytes::new();
        }
        let at = self.range.start;
        SharedBytes { buf: self.buf.clone(), range: at + range.start..at + range.end }
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.buf {
            Some(buf) => &buf[self.range.clone()],
            None => &[],
        }
    }
}

impl From<Arc<[u8]>> for SharedBytes {
    fn from(buf: Arc<[u8]>) -> Self {
        if buf.is_empty() {
            return SharedBytes::new();
        }
        SharedBytes { range: 0..buf.len(), buf: Some(buf) }
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(bytes: Vec<u8>) -> Self {
        SharedBytes::from(Arc::<[u8]>::from(bytes))
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(bytes: &[u8]) -> Self {
        SharedBytes::from(Arc::<[u8]>::from(bytes))
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SharedBytes {}

impl PartialEq<Vec<u8>> for SharedBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl Serialize for SharedBytes {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out)
    }
}

impl Deserialize for SharedBytes {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        Vec::<u8>::deserialize(v).map(SharedBytes::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::Ipv4Packet;
    use crate::tcp::{TcpFlags, TcpSegment};
    use crate::udp::UdpDatagram;
    use proptest::prelude::*;

    #[test]
    fn empty_payloads_hold_no_buffer() {
        for empty in [
            SharedBytes::new(),
            SharedBytes::from(Vec::new()),
            SharedBytes::from(&[][..]),
            SharedBytes::from(vec![1, 2, 3]).slice(2..2),
        ] {
            assert!(empty.buf.is_none());
            assert!(empty.is_empty());
            assert_eq!(empty, SharedBytes::new());
        }
    }

    #[test]
    fn slices_share_the_buffer_and_compare_by_content() {
        let page = SharedBytes::from(b"0123456789".to_vec());
        let mid = page.slice(2..8);
        assert_eq!(&*mid, b"234567");
        assert_eq!(&*mid.slice(1..3), b"34", "a slice of a slice is relative to the slice");
        assert!(Arc::ptr_eq(page.buf.as_ref().unwrap(), mid.buf.as_ref().unwrap()));
        assert_eq!(mid, SharedBytes::from(b"234567".to_vec()), "equality ignores where the bytes live");
        assert_eq!(page.slice(0..10), page);
    }

    #[test]
    #[should_panic(expected = "outside a payload of 3 bytes")]
    fn slicing_past_the_end_panics() {
        SharedBytes::from(vec![1, 2, 3]).slice(1..4);
    }

    proptest! {
        /// A payload equals the `Vec<u8>` it came from — directly, as a
        /// slice of a larger buffer, through serde, and through the wire
        /// codecs of the packets that carry it.
        #[test]
        fn prop_payload_roundtrips_equal_to_its_vec(
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
            lead in 0usize..8,
        ) {
            let whole = SharedBytes::from(bytes.clone());
            prop_assert_eq!(&whole, &bytes);
            let mut framed = vec![0xaa; lead];
            framed.extend_from_slice(&bytes);
            framed.push(0x55);
            let cut = SharedBytes::from(framed).slice(lead..lead + bytes.len());
            prop_assert_eq!(&cut, &bytes);
            prop_assert_eq!(&cut, &whole);

            let (mut cut_text, mut vec_text) = (String::new(), String::new());
            cut.serialize(&mut cut_text);
            bytes.serialize(&mut vec_text);
            prop_assert_eq!(&cut_text, &vec_text);
            prop_assert_eq!(&SharedBytes::deserialize(&serde::to_value(&cut).unwrap()).unwrap(), &bytes);

            let tcp = Ipv4Packet::tcp(1, 2, 64, 7, TcpSegment {
                src_port: 80, dst_port: 4000, seq: 9, ack: 3,
                flags: TcpFlags::PSH | TcpFlags::ACK, window: 100, payload: cut.clone(),
            });
            let back = Ipv4Packet::decode(&tcp.encode()).unwrap();
            prop_assert_eq!(&back.as_tcp().unwrap().payload, &bytes);
            prop_assert_eq!(&Ipv4Packet::deserialize(&serde::to_value(&tcp).unwrap()).unwrap(), &tcp);
            let udp = Ipv4Packet::udp(1, 2, 64, 7, UdpDatagram::new(53, 4000, cut));
            let back = Ipv4Packet::decode(&udp.encode()).unwrap();
            prop_assert_eq!(&back.as_udp().unwrap().payload, &bytes);
            prop_assert_eq!(&Ipv4Packet::deserialize(&serde::to_value(&udp).unwrap()).unwrap(), &udp);
        }
    }
}
