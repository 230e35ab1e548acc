//! Simulation-clock-aware observability for the reshape pipeline.
//!
//! Every timing primitive here is keyed on **simulated** seconds supplied
//! by the caller (usually `Cloud::now()` or a per-instance timeline) —
//! this crate never reads the host clock (lint rule RL005 applies to it),
//! so recording changes nothing about a run's determinism: the log is a
//! pure function of the seed and the call sequence.
//!
//! Architecture:
//!
//! * [`Obs`] is a cheap cloneable handle. The default handle is a **no-op
//!   sink**: every method is a single `Option` check, so instrumented code
//!   pays nothing when observability is off (the packing kernels are not
//!   instrumented at all — see `DESIGN.md` §10).
//! * [`Obs::recording`] attaches a shared in-memory core that records
//!   [`Event`]s (append-only), plus rolled-up counters, gauges, histograms
//!   and span aggregates ([`MetricsSnapshot`]).
//! * [`Obs::to_ndjson`] renders the log as newline-delimited JSON with a
//!   stable schema ([`event::SCHEMA_VERSION`]) and a deterministic
//!   `run_id` derived from the seed — same-seed runs emit **byte-identical**
//!   logs, an invariant asserted by tests and CI.

#![forbid(unsafe_code)]

pub mod event;
pub mod metrics;

pub use event::{run_id_from_seed, Event, EventKind, SCHEMA_VERSION};
pub use metrics::{HistStat, MetricsSnapshot, SpanStat};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Identifier of an open span. The no-op sink hands out [`SpanId::NOOP`];
/// recording sinks allocate ids starting at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The id every span gets on a no-op sink; closing it does nothing.
    pub const NOOP: SpanId = SpanId(0);
}

#[derive(Debug, Default)]
struct State {
    next_span: u64,
    events: Vec<Event>,
    open: BTreeMap<u64, (String, f64)>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, HistStat>,
    spans: BTreeMap<String, SpanStat>,
}

#[derive(Debug)]
struct ObsCore {
    seed: u64,
    run_id: String,
    state: Mutex<State>,
}

impl ObsCore {
    /// Lock the state. A poisoned lock only means another thread panicked
    /// mid-record; the data is still consistent enough for a diagnostic
    /// subsystem, so recover the guard instead of propagating the panic.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Observability handle: a no-op sink by default, a shared recording sink
/// after [`Obs::recording`]. Cloning shares the sink, so one handle can be
/// threaded through the pipeline, the executor and the simulated cloud and
/// every layer appends to the same ordered log.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    core: Option<Arc<ObsCore>>,
}

impl Obs {
    /// The no-op sink (same as `Obs::default()`): records nothing,
    /// allocates nothing.
    pub fn noop() -> Self {
        Obs::default()
    }

    /// A recording sink for the run identified by `seed`. Emits the
    /// `RunStart` event immediately.
    pub fn recording(seed: u64) -> Self {
        let core = ObsCore {
            seed,
            run_id: run_id_from_seed(seed),
            state: Mutex::new(State::default()),
        };
        let obs = Obs {
            core: Some(Arc::new(core)),
        };
        obs.push(EventKind::RunStart {
            schema: SCHEMA_VERSION,
            run_id: run_id_from_seed(seed),
            seed,
        });
        obs
    }

    /// Whether this handle records anything.
    pub fn is_recording(&self) -> bool {
        self.core.is_some()
    }

    /// The deterministic run id, when recording.
    pub fn run_id(&self) -> Option<String> {
        self.core.as_ref().map(|c| c.run_id.clone())
    }

    fn push(&self, kind: EventKind) {
        if let Some(core) = &self.core {
            let mut st = core.state();
            let seq = st.events.len() as u64;
            st.events.push(Event { seq, kind });
        }
    }

    /// Open a span at simulated time `sim_now` (seconds).
    pub fn span_start(&self, name: &'static str, sim_now: f64) -> SpanId {
        let Some(core) = &self.core else {
            return SpanId::NOOP;
        };
        let mut st = core.state();
        st.next_span += 1;
        let id = st.next_span;
        st.open.insert(id, (name.to_string(), sim_now));
        let seq = st.events.len() as u64;
        st.events.push(Event {
            seq,
            kind: EventKind::SpanStart {
                id,
                name: name.to_string(),
                at: sim_now,
            },
        });
        SpanId(id)
    }

    /// Close a span at simulated time `sim_now` (seconds). Closing an
    /// unknown or already-closed span is a silent no-op — observability
    /// must never turn into a failure mode of the observed code.
    pub fn span_end(&self, span: SpanId, sim_now: f64) {
        let Some(core) = &self.core else {
            return;
        };
        let mut st = core.state();
        let Some((name, started)) = st.open.remove(&span.0) else {
            return;
        };
        let secs = sim_now - started;
        let agg = st.spans.entry(name.clone()).or_insert(SpanStat {
            count: 0,
            secs: 0.0,
        });
        agg.count += 1;
        agg.secs += secs;
        let seq = st.events.len() as u64;
        st.events.push(Event {
            seq,
            kind: EventKind::SpanEnd {
                id: span.0,
                name,
                at: sim_now,
                secs,
            },
        });
    }

    /// Add `delta` to the named monotone counter.
    pub fn count(&self, name: &'static str, delta: u64) {
        let Some(core) = &self.core else {
            return;
        };
        let mut st = core.state();
        let total = {
            let entry = st.counters.entry(name).or_insert(0);
            *entry += delta;
            *entry
        };
        let seq = st.events.len() as u64;
        st.events.push(Event {
            seq,
            kind: EventKind::Counter {
                name: name.to_string(),
                delta,
                total,
            },
        });
    }

    /// Set the named gauge (last write wins).
    pub fn gauge(&self, name: &'static str, value: f64) {
        let Some(core) = &self.core else {
            return;
        };
        let mut st = core.state();
        st.gauges.insert(name, value);
        let seq = st.events.len() as u64;
        st.events.push(Event {
            seq,
            kind: EventKind::Gauge {
                name: name.to_string(),
                value,
            },
        });
    }

    /// Record one observation into the named histogram.
    pub fn observe(&self, name: &'static str, value: f64) {
        let Some(core) = &self.core else {
            return;
        };
        let mut st = core.state();
        st.histograms.entry(name).or_default().observe(value);
        let seq = st.events.len() as u64;
        st.events.push(Event {
            seq,
            kind: EventKind::Observe {
                name: name.to_string(),
                value,
            },
        });
    }

    /// Record a fired fault-injection event.
    pub fn fault(&self, kind: &str, at: f64, instance: Option<u64>, volume: Option<u64>) {
        self.push(EventKind::Fault {
            kind: kind.to_string(),
            at,
            instance,
            volume,
        });
    }

    /// Record a streaming-ingest segment seal.
    pub fn seal(&self, segment: u64, cause: &str, at: f64, items: u64, bytes: u64, bins: u64) {
        self.push(EventKind::Seal {
            segment,
            cause: cause.to_string(),
            at,
            items,
            bytes,
            bins,
        });
    }

    /// Record one shuffle transfer through a sharing backend.
    pub fn transfer(&self, backend: &str, key: &str, bytes: u64, at: f64, secs: f64) {
        self.push(EventKind::Transfer {
            backend: backend.to_string(),
            key: key.to_string(),
            bytes,
            at,
            secs,
        });
    }

    /// Record a fleet-market decision (quote, allocation or anticipated
    /// spot reclaim) for one instance family.
    pub fn market(
        &self,
        family: &str,
        action: &str,
        tier: &str,
        at: f64,
        instances: u64,
        cost: f64,
    ) {
        self.push(EventKind::Market {
            family: family.to_string(),
            action: action.to_string(),
            tier: tier.to_string(),
            at,
            instances,
            cost,
        });
    }

    /// Record per-shard accounting of a data-parallel stage.
    pub fn shard(&self, stage: &'static str, shard: u64, items: u64, bytes: u64) {
        self.push(EventKind::Shard {
            stage: stage.to_string(),
            shard,
            items,
            bytes,
        });
    }

    /// Roll up everything recorded so far. `None` on the no-op sink.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        let core = self.core.as_ref()?;
        let st = core.state();
        Some(MetricsSnapshot {
            run_id: core.run_id.clone(),
            seed: core.seed,
            events: st.events.len() as u64,
            counters: st
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: st
                .gauges
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            histograms: st
                .histograms
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            spans: st.spans.clone(),
        })
    }

    /// The number of events recorded so far (0 on the no-op sink).
    pub fn event_count(&self) -> usize {
        match &self.core {
            None => 0,
            Some(core) => core.state().events.len(),
        }
    }

    /// Render the event log as newline-delimited JSON (one event per line,
    /// trailing newline). Empty on the no-op sink. Same seed + same call
    /// sequence ⇒ byte-identical output.
    pub fn to_ndjson(&self) -> String {
        let Some(core) = &self.core else {
            return String::new();
        };
        let st = core.state();
        let mut out = String::new();
        for e in &st.events {
            // Writing into a `String` never fails.
            let _ = e.write_ndjson(&mut out);
        }
        out
    }
}

// `Obs` rides inside `PipelineConfig`, which derives `Serialize`,
// `Deserialize` and `PartialEq`; the vendored derive has no `#[serde(skip)]`,
// so the handle implements the traits manually. A config's observability
// sink is runtime plumbing, not configuration state: it serializes as a
// recording flag and never participates in config equality.
impl serde::Serialize for Obs {
    fn to_value(&self) -> serde::Value {
        serde::Value::Bool(self.is_recording())
    }
}

impl serde::Deserialize for Obs {}

impl PartialEq for Obs {
    /// Always equal: two configs that differ only in where diagnostics go
    /// describe the same run.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_records_nothing() {
        let obs = Obs::noop();
        let span = obs.span_start("probe", 0.0);
        assert_eq!(span, SpanId::NOOP);
        obs.span_end(span, 10.0);
        obs.count("x", 1);
        obs.gauge("g", 2.0);
        obs.observe("h", 3.0);
        obs.fault("instance_crash", 1.0, Some(0), None);
        obs.shard("reshape", 0, 10, 1000);
        obs.seal(0, "flush", 2.0, 10, 1000, 2);
        obs.transfer("s3", "shuffle/p0", 4096, 3.0, 0.12);
        assert!(!obs.is_recording());
        assert_eq!(obs.event_count(), 0);
        assert!(obs.to_ndjson().is_empty());
        assert!(obs.snapshot().is_none());
    }

    #[test]
    fn recording_sink_orders_and_aggregates() {
        let obs = Obs::recording(42);
        let s = obs.span_start("probe", 100.0);
        obs.count("retries", 2);
        obs.count("retries", 3);
        obs.gauge("makespan", 9.5);
        obs.observe("job_secs", 4.0);
        obs.observe("job_secs", 6.0);
        obs.span_end(s, 160.0);

        let snap = obs.snapshot().expect("recording");
        assert_eq!(snap.run_id, run_id_from_seed(42));
        assert_eq!(snap.counters["retries"], 5);
        assert!((snap.gauges["makespan"] - 9.5).abs() < 1e-12);
        assert_eq!(snap.histograms["job_secs"].count, 2);
        let span = &snap.spans["probe"];
        assert_eq!(span.count, 1);
        assert!((span.secs - 60.0).abs() < 1e-12);
        // RunStart + SpanStart + 2 counters + gauge + 2 observes + SpanEnd.
        assert_eq!(snap.events, 8);
    }

    #[test]
    fn ndjson_is_byte_identical_for_identical_call_sequences() {
        let run = || {
            let obs = Obs::recording(7);
            let s = obs.span_start("fit", 10.0);
            obs.count("execute.crashes", 1);
            obs.fault("spot_preemption", 33.25, Some(4), None);
            obs.shard("reshape", 1, 128, 4096);
            obs.span_end(s, 12.5);
            obs.to_ndjson()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert_eq!(a.lines().count(), 6);
        let first = a.lines().next().expect("has RunStart");
        assert!(first.contains("\"RunStart\""));
        assert!(first.contains(&run_id_from_seed(7)));
        // Seeds must distinguish logs via the run id.
        assert_ne!(a, {
            let o = Obs::recording(8);
            let s = o.span_start("fit", 10.0);
            o.count("execute.crashes", 1);
            o.fault("spot_preemption", 33.25, Some(4), None);
            o.shard("reshape", 1, 128, 4096);
            o.span_end(s, 12.5);
            o.to_ndjson()
        });
    }

    #[test]
    fn seq_is_gap_free() {
        let obs = Obs::recording(1);
        for i in 0..5 {
            obs.count("c", i + 1);
        }
        let log = obs.to_ndjson();
        for (i, line) in log.lines().enumerate() {
            assert!(line.contains(&format!("\"seq\":{i}")), "line {i}: {line}");
        }
    }

    #[test]
    fn seal_events_render_and_replay_identically() {
        let run = || {
            let obs = Obs::recording(11);
            obs.seal(0, "full", 12.5, 128, 65_536, 4);
            obs.seal(1, "flush", 20.0, 3, 512, 1);
            obs.to_ndjson()
        };
        let a = run();
        assert_eq!(a, run());
        assert_eq!(a.lines().count(), 3);
        assert!(a.contains("\"Seal\""));
        assert!(a.contains("\"cause\":\"full\""));
        assert!(a.contains("\"bins\":4"));
    }

    #[test]
    fn transfer_events_render_and_replay_identically() {
        let run = || {
            let obs = Obs::recording(13);
            obs.transfer("shared_fs", "shuffle/part-3", 65_536, 41.5, 0.002);
            obs.transfer("s3", "shuffle/part-4", 1_024, 41.5, 0.031);
            obs.to_ndjson()
        };
        let a = run();
        assert_eq!(a, run());
        assert_eq!(a.lines().count(), 3);
        assert!(a.contains("\"Transfer\""));
        assert!(a.contains("\"backend\":\"shared_fs\""));
        assert!(a.contains("\"key\":\"shuffle/part-4\""));
    }

    /// Every variant, with every float edge of the float rule in each
    /// float field and every escape class in each string field, renders
    /// exactly as the `Serialize` derive does through `serde_json`.
    #[test]
    fn ndjson_writer_matches_the_serde_derive() {
        let floats = [
            0.0,
            -0.0,
            0.1,
            1.0,
            1e15 - 1.0,
            1e15,
            1e16,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let strings = [
            "execute.share",
            "",
            "quote \" back \\ slash",
            "line\nfeed\rreturn\ttab",
            "\u{1}\u{1f}\u{7f}",
            "Grüße, 東京 🚀",
        ];
        let mut kinds = Vec::new();
        for (i, (&x, s)) in floats
            .iter()
            .flat_map(|x| strings.iter().map(move |s| (x, s.to_string())))
            .enumerate()
        {
            let n = if i % 2 == 0 {
                i as u64
            } else {
                u64::MAX - i as u64
            };
            let (instance, volume) = match i % 4 {
                0 => (None, None),
                1 => (Some(n), None),
                2 => (None, Some(n)),
                _ => (Some(n), Some(n)),
            };
            kinds.extend([
                EventKind::RunStart {
                    schema: SCHEMA_VERSION,
                    run_id: run_id_from_seed(n),
                    seed: n,
                },
                EventKind::SpanStart {
                    id: n,
                    name: s.clone(),
                    at: x,
                },
                EventKind::SpanEnd {
                    id: n,
                    name: s.clone(),
                    at: x,
                    secs: -x,
                },
                EventKind::Counter {
                    name: s.clone(),
                    delta: n,
                    total: n / 3,
                },
                EventKind::Gauge {
                    name: s.clone(),
                    value: x,
                },
                EventKind::Observe {
                    name: s.clone(),
                    value: x,
                },
                EventKind::Fault {
                    kind: s.clone(),
                    at: x,
                    instance,
                    volume,
                },
                EventKind::Seal {
                    segment: n,
                    cause: s.clone(),
                    at: x,
                    items: n,
                    bytes: n,
                    bins: n,
                },
                EventKind::Transfer {
                    backend: s.clone(),
                    key: s.clone(),
                    bytes: n,
                    at: x,
                    secs: x,
                },
                EventKind::Market {
                    family: s.clone(),
                    action: s.clone(),
                    tier: s.clone(),
                    at: x,
                    instances: n,
                    cost: x,
                },
                EventKind::Shard {
                    stage: s.clone(),
                    shard: n,
                    items: n,
                    bytes: n,
                },
            ]);
        }
        let obs = Obs::recording(u64::MAX);
        for kind in &kinds {
            obs.push(kind.clone());
        }
        let log = obs.to_ndjson();
        let core = obs.core.as_ref().expect("recording");
        let events = &core.state().events;
        assert_eq!(events.len(), kinds.len() + 1);
        assert_eq!(log.lines().count(), events.len());
        for (line, event) in log.lines().zip(events) {
            let reference = serde_json::to_string(event).expect("serializes");
            assert_eq!(line, reference, "event {event:?}");
        }
        assert!(log.ends_with('\n'));
    }

    #[test]
    fn clones_share_the_sink() {
        let obs = Obs::recording(3);
        let clone = obs.clone();
        clone.count("from_clone", 1);
        assert_eq!(obs.snapshot().expect("recording").counters["from_clone"], 1);
    }

    #[test]
    fn closing_unknown_span_is_a_noop() {
        let obs = Obs::recording(5);
        let before = obs.event_count();
        obs.span_end(SpanId(999), 1.0);
        obs.span_end(SpanId::NOOP, 1.0);
        assert_eq!(obs.event_count(), before);
    }

    #[test]
    fn config_equality_ignores_the_sink() {
        assert_eq!(Obs::noop(), Obs::recording(1));
    }
}
