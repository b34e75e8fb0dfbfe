//! The blockpage fingerprint list, compiled for one pass over raw bytes.
//!
//! The blockpage detector asks, of every data segment of every flow,
//! whether its text contains any of a handful of known phrases. Asked
//! naively that is a lossy UTF-8 copy of the segment and one substring
//! search per phrase. [`FingerprintSet`] answers the same question —
//! exactly: `needles.iter().any(|n| String::from_utf8_lossy(hay).contains(n))`
//! — in one Wu–Manber pass: a shift table over two-byte blocks, built
//! from the first `window` bytes of every needle (`window` = the shortest
//! needle), says how far the scan may jump from each window end, so on
//! text that shares few byte pairs with the needles it touches roughly
//! one byte in `window`.
//!
//! Needles are ASCII in practice, and an ASCII needle occurs in the lossy
//! decoding of a byte string exactly where it occurs in the bytes: the
//! decoder passes every ASCII byte through and puts at least one
//! non-ASCII character wherever it consumed anything else, so the maximal
//! ASCII runs — the only places an ASCII needle can sit — are the same on
//! both sides. A set holding a non-ASCII needle keeps the contract by
//! decoding the haystack first and scanning that.

/// Shift-table slots; [`block`] maps a byte pair into them.
const SLOTS: usize = 1 << 13;

/// Table slot of the two-byte block `(a, b)`. Distinct blocks may share a
/// slot; a shared slot holds the smaller shift, which is always safe.
fn block(a: u8, b: u8) -> usize {
    (usize::from(a) << 5) ^ usize::from(b)
}

/// A compiled set of substring needles.
#[derive(Debug, Clone)]
pub struct FingerprintSet {
    /// Every needle, with the slot of the block that ends its first
    /// `window` bytes (a window can only match needles whose slot it
    /// lands on).
    needles: Vec<(usize, Box<[u8]>)>,
    /// Scan window: the length of the shortest needle, at most 255.
    /// Zero when some needle is empty (everything matches) or there are
    /// no needles (nothing does).
    window: usize,
    /// Safe jump from a window ending in the block of each slot.
    shift: Box<[u8]>,
    /// Whether every needle is ASCII (see the module docs).
    ascii: bool,
}

impl FingerprintSet {
    /// Compile `needles`.
    pub fn compile(needles: &[&str]) -> Self {
        let window = needles.iter().map(|n| n.len()).min().unwrap_or(0).min(usize::from(u8::MAX));
        let mut set = FingerprintSet {
            needles: Vec::with_capacity(needles.len()),
            window,
            shift: Box::default(),
            ascii: needles.iter().all(|n| n.is_ascii()),
        };
        if window == 0 {
            set.needles.extend(needles.iter().map(|n| (0, n.as_bytes().into())));
            return set;
        }
        // A block no needle's window contains can still straddle the start
        // of a match that begins on the window's last byte.
        let widest = window - set.block_len() + 1;
        set.shift = vec![widest as u8; SLOTS].into();
        for needle in needles {
            let needle = needle.as_bytes();
            for end in set.block_len() - 1..window {
                let slot = set.slot(needle, end);
                set.shift[slot] = set.shift[slot].min((window - 1 - end) as u8);
            }
            set.needles.push((set.slot(needle, window - 1), needle.into()));
        }
        set
    }

    /// Bytes per block: two, or one when some needle is a single byte.
    fn block_len(&self) -> usize {
        self.window.min(2)
    }

    /// Slot of the block of `bytes` that ends at index `end`.
    fn slot(&self, bytes: &[u8], end: usize) -> usize {
        if self.window >= 2 {
            block(bytes[end - 1], bytes[end])
        } else {
            block(0, bytes[end])
        }
    }

    /// Does the lossy UTF-8 decoding of `hay` contain any needle?
    pub fn is_match(&self, hay: &[u8]) -> bool {
        if self.ascii {
            self.scan(hay)
        } else {
            self.scan(String::from_utf8_lossy(hay).as_bytes())
        }
    }

    /// Does `hay` contain any needle, byte for byte?
    fn scan(&self, hay: &[u8]) -> bool {
        if self.window == 0 {
            return !self.needles.is_empty();
        }
        let mut end = self.window - 1;
        while end < hay.len() {
            let slot = self.slot(hay, end);
            match self.shift[slot] {
                0 => {
                    let candidate = &hay[end + 1 - self.window..];
                    if self.needles.iter().any(|(s, n)| *s == slot && candidate.starts_with(n)) {
                        return true;
                    }
                    end += 1;
                }
                jump => end += usize::from(jump),
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The contract, spelled the way the detector used to compute it.
    fn naive(needles: &[&str], hay: &[u8]) -> bool {
        let text = String::from_utf8_lossy(hay);
        needles.iter().any(|n| text.contains(n))
    }

    fn assert_agrees(set: &FingerprintSet, needles: &[&str], hay: &[u8]) {
        assert_eq!(
            set.is_match(hay),
            naive(needles, hay),
            "needles {needles:?} over {:?}",
            String::from_utf8_lossy(hay)
        );
    }

    /// Random bytes: mostly the needles' own alphabet (so partial matches
    /// and zero shifts are common), some arbitrary bytes, some of the
    /// sequences UTF-8 decoding treats specially.
    fn haystack(rng: &mut StdRng, needles: &[&str], len: usize) -> Vec<u8> {
        let needles = if needles.is_empty() { &["filler"][..] } else { needles };
        let mut hay = Vec::with_capacity(len + 4);
        while hay.len() < len {
            match rng.gen_range(0..10) {
                0 => hay.push(rng.gen()),
                1 => hay.extend_from_slice(
                    [&b"\xff"[..], b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", "é".as_bytes(), "€".as_bytes(), "\u{fffd}".as_bytes()]
                        [rng.gen_range(0..7usize)],
                ),
                2 => {
                    // A needle fragment.
                    let n = needles[rng.gen_range(0..needles.len())].as_bytes();
                    if !n.is_empty() {
                        let from = rng.gen_range(0..n.len());
                        hay.extend_from_slice(&n[from..rng.gen_range(from..=n.len())]);
                    }
                }
                _ => {
                    let n = needles[rng.gen_range(0..needles.len())].as_bytes();
                    hay.push(if n.is_empty() { b' ' } else { n[rng.gen_range(0..n.len())] });
                }
            }
        }
        hay.truncate(len);
        hay
    }

    /// The compiled matcher equals the lossy-UTF-8 substring test over
    /// random haystacks (valid UTF-8 or not), alone and with each needle —
    /// whole, and short of its last byte — planted at every offset,
    /// including flush with the start and the end.
    fn check_set(needles: &[&str], seed: u64) {
        let set = FingerprintSet::compile(needles);
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..24 {
            let hay = haystack(&mut rng, needles, round * 3);
            assert_agrees(&set, needles, &hay);
            for needle in needles {
                let needle = needle.as_bytes();
                for planted in [needle, &needle[..needle.len().saturating_sub(1)]] {
                    for at in 0..=hay.len() {
                        // Spliced in, and overwriting what was there.
                        let mut spliced = hay[..at].to_vec();
                        spliced.extend_from_slice(planted);
                        spliced.extend_from_slice(&hay[at..]);
                        assert_agrees(&set, needles, &spliced);
                        let mut over = hay.clone();
                        over.truncate(at);
                        over.extend_from_slice(planted);
                        assert_agrees(&set, needles, &over);
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_fingerprint_list_equals_the_lossy_substring_test() {
        let list = churnlab_censor::blockpage::fingerprint_list();
        assert!(list.iter().all(|f| f.is_ascii()), "the shipped list takes the raw-byte scan");
        check_set(&list, 1);
    }

    #[test]
    fn compiled_sets_of_every_shape_equal_the_lossy_substring_test() {
        let long = "x".repeat(300);
        let sets: [&[&str]; 9] = [
            &["blocked"],
            &["ab", "abc", "bca", "cab"],
            &["a"],
            &["aa", "b"],
            &["needle", ""],
            &[],
            &["accès refusé", "blocked"],
            &["\u{fffd}", "zz"],
            &[&long, "xxxxxy"],
        ];
        for (i, needles) in sets.iter().enumerate() {
            check_set(needles, 100 + i as u64);
        }
    }

    #[test]
    fn a_needle_longer_than_the_haystack_never_matches() {
        let set = FingerprintSet::compile(&["abcdef"]);
        for hay in [&b""[..], b"a", b"abcde", b"bcdef"] {
            assert!(!set.is_match(hay));
        }
        assert!(set.is_match(b"abcdef"));
        assert!(!FingerprintSet::compile(&[]).is_match(b"anything"));
        assert!(FingerprintSet::compile(&[""]).is_match(b""));
    }
}
