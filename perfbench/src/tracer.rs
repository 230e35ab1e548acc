//! Host-time spans recorded around calls into the library, from the
//! benchmark's own code: the library crates stay free of the host clock.

use crate::Layers;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// A call replayed outside the library loop that makes it, over the
    /// same inputs; its time is already inside an in-order span.
    replay: bool,
    start: f64,
    end: f64,
}

/// Spans kept in memory and written when the traced run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            replay: false,
            start,
            end: f64::NAN,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Time `f` as an in-order span under `parent`.
    pub fn call<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = black_box(f());
        self.close(id);
        out
    }

    /// Time `f` as a replay span.
    pub fn replay<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, None);
        self.spans[id].replay = true;
        let out = black_box(f());
        self.close(id);
        out
    }

    fn duration(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// The span's duration minus the part its child spans cover.
    fn self_time(&self, id: usize) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.duration(c))
            .sum();
        self.duration(id) - children
    }

    /// Add every span's self time to `layers`: the in-order root as
    /// `trace.total_s` (its duration) and `trace.remainder_s` (the glue
    /// between layer calls), every other span as `<name>_s` (or `<name>.s`
    /// for a one-word name).
    pub fn add_layers(&self, layers: &mut Layers) {
        for (id, span) in self.spans.iter().enumerate() {
            if span.parent.is_none() && !span.replay {
                layers.insert("trace.total_s".into(), self.duration(id));
                layers.insert("trace.remainder_s".into(), self.self_time(id));
            } else {
                let metric = if span.name.contains('.') {
                    format!("{}_s", span.name)
                } else {
                    format!("{}.s", span.name)
                };
                *layers.entry(metric).or_insert(0.0) += self.self_time(id);
            }
        }
    }

    /// Write the spans to standard error, one JSON object per line.
    pub fn write_spans(&self) {
        let mut err = std::io::stderr().lock();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| {
                format!("\"{}\"", self.spans[p].name)
            });
            // Best effort: the spans are diagnostics, the metrics carry the result.
            let _ = writeln!(
                err,
                "{{\"span\": \"{}\", \"parent\": {parent}, \"replay\": {}, \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}",
                s.name,
                s.replay,
                s.start,
                s.end,
                self.self_time(id)
            );
        }
    }
}
