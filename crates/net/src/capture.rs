//! Client-side packet captures and a libpcap writer.
//!
//! ICLab records raw pcaps at each vantage point and derives every anomaly
//! from them; [`Capture`] is our equivalent. The pcap export writes the
//! classic libpcap format (magic `0xa1b2c3d4`, LINKTYPE_RAW) so captures
//! can be opened in Wireshark/tcpdump for debugging.

use crate::dns::DnsMessage;
use crate::ip::Ipv4Packet;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};

/// Direction of a packet relative to the capturing client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Sent by the client.
    Out,
    /// Received by the client.
    In,
}

/// A timestamped packet as seen at the client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapturedPacket {
    /// Microseconds since the start of the test.
    pub t_us: u64,
    /// Direction.
    pub dir: Direction,
    /// The packet.
    pub pkt: Ipv4Packet,
}

/// A packet capture: the full client-side view of one measurement flow.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Capture {
    /// Packets in timestamp order.
    pub packets: Vec<CapturedPacket>,
}

impl Capture {
    /// Empty capture.
    pub fn new() -> Self {
        Capture::default()
    }

    /// Forget every packet, keeping the buffer for the next flow.
    pub fn clear(&mut self) {
        self.packets.clear();
    }

    /// Append a packet (keeps timestamp order by insertion point).
    pub fn push(&mut self, t_us: u64, dir: Direction, pkt: Ipv4Packet) {
        let at = self.packets.partition_point(|p| p.t_us <= t_us);
        self.packets.insert(at, CapturedPacket { t_us, dir, pkt });
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Incoming packets only.
    pub fn incoming(&self) -> impl Iterator<Item = &CapturedPacket> {
        self.packets.iter().filter(|p| p.dir == Direction::In)
    }

    /// Incoming TCP packets as (capture, segment) pairs.
    pub fn incoming_tcp(&self) -> impl Iterator<Item = (&CapturedPacket, &crate::tcp::TcpSegment)> {
        self.incoming().filter_map(|p| p.pkt.as_tcp().map(|t| (p, t)))
    }

    /// Parsed DNS responses received by the client, with timestamps.
    pub fn dns_responses(&self) -> Vec<(u64, DnsMessage)> {
        self.incoming()
            .filter_map(|p| {
                let udp = p.pkt.as_udp()?;
                if udp.src_port != 53 {
                    return None;
                }
                let msg = DnsMessage::decode(&udp.payload).ok()?;
                msg.is_response.then_some((p.t_us, msg))
            })
            .collect()
    }

    /// Write the capture as a classic libpcap file (LINKTYPE_RAW = 101,
    /// microsecond timestamps).
    pub fn write_pcap<W: Write>(&self, w: &mut W) -> io::Result<()> {
        // Global header.
        w.write_all(&0xa1b2_c3d4u32.to_le_bytes())?; // magic
        w.write_all(&2u16.to_le_bytes())?; // major
        w.write_all(&4u16.to_le_bytes())?; // minor
        w.write_all(&0i32.to_le_bytes())?; // thiszone
        w.write_all(&0u32.to_le_bytes())?; // sigfigs
        w.write_all(&65535u32.to_le_bytes())?; // snaplen
        w.write_all(&101u32.to_le_bytes())?; // linktype raw IP
        for p in &self.packets {
            let bytes = p.pkt.encode();
            let sec = (p.t_us / 1_000_000) as u32;
            let usec = (p.t_us % 1_000_000) as u32;
            w.write_all(&sec.to_le_bytes())?;
            w.write_all(&usec.to_le_bytes())?;
            w.write_all(&(bytes.len() as u32).to_le_bytes())?;
            w.write_all(&(bytes.len() as u32).to_le_bytes())?;
            w.write_all(&bytes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpSegment;
    use crate::udp::UdpDatagram;

    fn tcp_pkt(ttl: u8) -> Ipv4Packet {
        Ipv4Packet::tcp(1, 2, ttl, 0, TcpSegment::syn(1000, 80, 5))
    }

    #[test]
    fn push_keeps_time_order() {
        let mut c = Capture::new();
        c.push(300, Direction::In, tcp_pkt(60));
        c.push(100, Direction::Out, tcp_pkt(64));
        c.push(200, Direction::In, tcp_pkt(61));
        let ts: Vec<u64> = c.packets.iter().map(|p| p.t_us).collect();
        assert_eq!(ts, vec![100, 200, 300]);
    }

    #[test]
    fn equal_timestamps_preserve_insertion_order() {
        let mut c = Capture::new();
        c.push(100, Direction::In, tcp_pkt(1));
        c.push(100, Direction::In, tcp_pkt(2));
        assert_eq!(c.packets[0].pkt.ttl, 1);
        assert_eq!(c.packets[1].pkt.ttl, 2);
    }

    #[test]
    fn dns_response_extraction() {
        let q = DnsMessage::query(9, "x.example.com");
        let a = DnsMessage::answer(&q, 0x05060708, 60);
        let mut c = Capture::new();
        // Outgoing query — must not be extracted.
        c.push(
            0,
            Direction::Out,
            Ipv4Packet::udp(1, 2, 64, 0, UdpDatagram::new(5555, 53, q.encode().unwrap())),
        );
        // Incoming response from port 53.
        c.push(
            1000,
            Direction::In,
            Ipv4Packet::udp(2, 1, 60, 0, UdpDatagram::new(53, 5555, a.encode().unwrap())),
        );
        // Incoming non-DNS UDP — ignored.
        c.push(2000, Direction::In, Ipv4Packet::udp(2, 1, 60, 0, UdpDatagram::new(9, 5555, vec![1])));
        let rs = c.dns_responses();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].0, 1000);
        assert_eq!(rs[0].1.answers[0].addr, 0x05060708);
    }

    #[test]
    fn incoming_tcp_filter() {
        let mut c = Capture::new();
        c.push(0, Direction::Out, tcp_pkt(64));
        c.push(1, Direction::In, tcp_pkt(60));
        assert_eq!(c.incoming_tcp().count(), 1);
    }

    #[test]
    fn pcap_output_has_magic_and_records() {
        let mut c = Capture::new();
        c.push(1_500_000, Direction::In, tcp_pkt(60));
        let mut buf = Vec::new();
        c.write_pcap(&mut buf).unwrap();
        assert_eq!(&buf[..4], &0xa1b2_c3d4u32.to_le_bytes());
        // Global header is 24 bytes; record header 16; then the packet.
        assert!(buf.len() > 24 + 16 + 20);
        // Timestamp seconds field of the first record.
        let sec = u32::from_le_bytes([buf[24], buf[25], buf[26], buf[27]]);
        assert_eq!(sec, 1);
    }
}
