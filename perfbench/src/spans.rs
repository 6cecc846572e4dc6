//! The benchmark's own span recorder.
//!
//! Spans are opened and closed around calls into the library's public
//! functions and kept in memory until the run ends; nothing inside the
//! library is instrumented by this module. A span's self time is its
//! duration minus the time its direct children cover.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    /// Open a span nested in the innermost open one; close it with
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Closed spans named `name`: how many, and their summed duration.
    pub fn total(&self, name: &str) -> (usize, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end.is_finite())
            .fold((0, 0.0), |(n, t), s| (n + 1, t + (s.end - s.start)))
    }

    /// Durations of every closed span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end.is_finite())
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Summed self time of spans named `name`.
    pub fn self_time(&self, name: &str) -> f64 {
        let mut child_time: BTreeMap<usize, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.end.is_finite()) {
            if let Some(p) = s.parent {
                *child_time.entry(p).or_default() += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.end.is_finite())
            .map(|(i, s)| (s.end - s.start) - child_time.get(&i).copied().unwrap_or(0.0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new();
        let outer = tr.enter("outer");
        tr.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tr.exit(outer);
        let (n, outer_t) = tr.total("outer");
        let (_, inner_t) = tr.total("inner");
        assert_eq!(n, 1);
        assert!(inner_t >= 0.005);
        let self_t = tr.self_time("outer");
        assert!((self_t - (outer_t - inner_t)).abs() < 1e-12);
    }
}
