//! Spans recorded from the benchmark's own files, around each call into
//! a product layer. Kept in memory and written out when the run ends.
//!
//! The tracer is also the benchmark's stopwatch: [`Tracer::exit`] returns
//! the span's duration whether or not spans are being kept, so a traced
//! and an untraced pass run the same code and differ only in the push
//! onto the span list — which is what `trace.overhead_frac` measures.

use serde::Serialize;
use std::collections::HashMap;
use std::time::Instant;

/// One recorded span. `parent` is the span that was open when this one
/// began; spans of one run share the tracer's clock origin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Inputs the layer call processed (measurements, flows, keys…).
    pub items: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, handed back to [`Tracer::exit`].
#[must_use = "an entered span must be exited"]
pub struct Open {
    name: &'static str,
    start_ns: u64,
    parent: Option<u32>,
    id: u32,
}

pub struct Tracer {
    origin: Instant,
    keep: bool,
    next_id: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that keeps spans (`keep`) or only times them.
    pub fn new(keep: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            keep,
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_keep(&mut self, keep: bool) {
        self.keep = keep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        Open {
            name,
            start_ns: self.now_ns(),
            parent,
            id,
        }
    }

    /// Close `open`, recording `items`; returns the span's nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order — a bug in the caller.
    pub fn exit(&mut self, open: Open, items: u64) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(open.id),
            "span `{}` closed out of order",
            open.name
        );
        if self.keep {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                items,
            });
        }
        end_ns - open.start_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
/// Indexed like `spans`.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.nanos() - covered
        })
        .collect()
}

/// Self time by span name over `root` and everything beneath it, as a
/// share of `root`'s duration, largest first. The shares sum to 1.
pub fn self_shares(spans: &[Span], root: u32) -> Vec<(&'static str, f64)> {
    let own = self_nanos(spans);
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let under_root = |s: &Span| {
        let mut at = Some(s.id);
        while let Some(id) = at {
            if id == root {
                return true;
            }
            at = by_id.get(&id).and_then(|s| s.parent);
        }
        false
    };
    let whole = by_id[&root].nanos().max(1) as f64;
    let mut by_name: Vec<(&'static str, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(own).filter(|(s, _)| under_root(s)) {
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, share)) => *share += own as f64 / whole,
            None => by_name.push((s.name, own as f64 / whole)),
        }
    }
    by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            // Overlaps span 1 on 30..40: that stretch is covered once.
            span(2, Some(0), 30, 60),
            // A grandchild shortens span 2, not the root.
            span(3, Some(2), 35, 55),
            // Sticks out past the parent's end: clipped to 90..100.
            span(4, Some(0), 90, 120),
        ];
        assert_eq!(self_nanos(&spans), vec![100 - 50 - 10, 30, 10, 20, 30]);
        // Under span 2 only: its own 10 and its child's 20, of 30.
        let shares = self_shares(&spans, 2);
        assert_eq!(shares.len(), 1, "both spans are called `t`");
        assert!((shares[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_times_without_keeping() {
        let mut t = Tracer::new(false);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner, 3);
        let ns = t.exit(outer, 1);
        assert!(t.spans().is_empty(), "an untraced run keeps nothing");
        assert!(ns < 1_000_000_000);

        t.set_keep(true);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner, 3);
        t.exit(outer, 1);
        let [inner, outer] = t.spans() else {
            panic!("two spans kept")
        };
        assert_eq!(
            (inner.name, inner.parent, inner.items),
            ("inner", Some(outer.id), 3)
        );
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let shares = self_shares(t.spans(), outer.id);
        assert_eq!(shares.len(), 2);
        assert!((shares.iter().map(|(_, s)| s).sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
