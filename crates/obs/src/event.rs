//! The event log: a stable, append-only schema rendered as NDJSON.
//!
//! Determinism contract: every field of every event derives from the run
//! seed and the **simulated** clock — never from the host. Two runs with
//! the same seed therefore emit byte-identical logs, which the test suite
//! and CI assert verbatim. Growing the schema is fine (add variants or
//! trailing fields and bump [`SCHEMA_VERSION`]); reordering or renaming
//! existing fields is a breaking change for downstream log readers.

use serde::Serialize;
use std::fmt::{self, Write};

/// Version stamped into the `RunStart` event. Bump on any change to the
/// shape of existing events.
///
/// * v2: added the `Seal` variant (streaming-ingest segment seals).
/// * v3: added the `Transfer` variant (shuffle data movement).
/// * v4: added the `Market` variant (fleet-market quotes and allocations).
pub const SCHEMA_VERSION: u32 = 4;

/// One log record. `seq` is the global emission ordinal (0-based), so a
/// log can be validated as gap-free and merged records can be re-sorted.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Event {
    /// Emission ordinal within the run, starting at 0.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Everything the observability layer records. Times (`at`) are simulated
/// seconds from the cloud clock; durations (`secs`) are differences of
/// simulated timestamps.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum EventKind {
    /// First event of every recording run.
    RunStart {
        /// [`SCHEMA_VERSION`] at emission time.
        schema: u32,
        /// Deterministic run identifier derived from the seed.
        run_id: String,
        /// The seed the run id derives from.
        seed: u64,
    },
    /// A span (phase or per-bin timer) opened.
    SpanStart {
        /// Span id, unique within the run (1-based).
        id: u64,
        /// Span name, e.g. `probe` or `execute.share`.
        name: String,
        /// Simulated start time, seconds.
        at: f64,
    },
    /// A span closed.
    SpanEnd {
        /// Id of the span being closed.
        id: u64,
        /// Name repeated so a line is self-describing.
        name: String,
        /// Simulated end time, seconds.
        at: f64,
        /// Simulated duration, seconds (`at − start`).
        secs: f64,
    },
    /// A monotone counter moved.
    Counter {
        /// Counter name, e.g. `execute.transient_retries`.
        name: String,
        /// Increment applied.
        delta: u64,
        /// Running total after the increment.
        total: u64,
    },
    /// A gauge was set (last write wins).
    Gauge {
        /// Gauge name, e.g. `execute.makespan_secs`.
        name: String,
        /// New value.
        value: f64,
    },
    /// A histogram observation.
    Observe {
        /// Histogram name, e.g. `execute.job_secs`.
        name: String,
        /// Observed value.
        value: f64,
    },
    /// An injected fault actually fired in the simulated cloud.
    Fault {
        /// Stable fault label, e.g. `instance_crash`.
        kind: String,
        /// Simulated time the fault fired, seconds.
        at: f64,
        /// Target instance ordinal, if the fault targets an instance.
        instance: Option<u64>,
        /// Target volume ordinal, if the fault targets a volume.
        volume: Option<u64>,
    },
    /// A streaming-ingest segment sealed: a contiguous run of the arrival
    /// trace was batch-packed into immutable bins. `at` is the simulated
    /// seal time from the arrival trace — a pure function of the seed, so
    /// seal events keep same-seed logs byte-identical.
    Seal {
        /// Segment ordinal within the ingest run (0-based).
        segment: u64,
        /// Stable seal-cause label: `full`, `aged`, `explicit` or `flush`.
        cause: String,
        /// Simulated seal time, seconds.
        at: f64,
        /// Items in the sealed segment.
        items: u64,
        /// Payload bytes in the sealed segment.
        bytes: u64,
        /// Bins the segment packed into.
        bins: u64,
    },
    /// One shuffle transfer scheduled through a sharing backend. `at` is
    /// the simulated start from the transfer timeline — a pure function of
    /// the seed and the deterministic request order, so transfer events
    /// keep same-seed logs byte-identical.
    Transfer {
        /// Backend label: `s3`, `ebs_local` or `shared_fs`.
        backend: String,
        /// Object key moved.
        key: String,
        /// Payload bytes.
        bytes: u64,
        /// Simulated start time, seconds.
        at: f64,
        /// Simulated transfer duration, seconds.
        secs: f64,
    },
    /// A fleet-market decision: a per-family quote evaluated, a fleet
    /// line allocated, or a spot reclaim anticipated by the planner. `at`
    /// is simulated planning time; prices derive from the seeded spot
    /// process, so market events keep same-seed logs byte-identical.
    Market {
        /// Family label: `standard`, `hi_cpu` or `low_power`.
        family: String,
        /// Stable action label, e.g. `quote`, `allocate` or `reclaim`.
        action: String,
        /// Purchase tier label: `on_demand` or `spot`.
        tier: String,
        /// Simulated time, seconds.
        at: f64,
        /// Instances involved.
        instances: u64,
        /// Dollars attached to the decision (expected cost for quotes and
        /// allocations).
        cost: f64,
    },
    /// Per-shard accounting of a data-parallel stage. Shards are
    /// deterministic contiguous ranges of the input (see
    /// `binpack::shard_ranges`), independent of the worker count.
    Shard {
        /// Stage name, e.g. `reshape`.
        stage: String,
        /// Shard ordinal within the stage.
        shard: u64,
        /// Items in the shard.
        items: u64,
        /// Bytes in the shard.
        bytes: u64,
    },
}

impl Event {
    /// Append this event to `out` as one NDJSON line: byte for byte what
    /// `serde_json::to_string(self)` renders from the `Serialize` derive,
    /// plus the newline, written without building the derive's
    /// `serde::Value` tree. The derive stays as the reference the parity
    /// test compares against.
    pub(crate) fn write_ndjson(&self, out: &mut String) -> fmt::Result {
        use Field::{Float as F, Str as S, Uint as U, UintOrNull};
        let seq = self.seq;
        match &self.kind {
            EventKind::RunStart {
                schema,
                run_id,
                seed,
            } => write_object(
                out,
                seq,
                "RunStart",
                &[
                    ("schema", U(u64::from(*schema))),
                    ("run_id", S(run_id)),
                    ("seed", U(*seed)),
                ],
            ),
            EventKind::SpanStart { id, name, at } => write_object(
                out,
                seq,
                "SpanStart",
                &[("id", U(*id)), ("name", S(name)), ("at", F(*at))],
            ),
            EventKind::SpanEnd { id, name, at, secs } => write_object(
                out,
                seq,
                "SpanEnd",
                &[
                    ("id", U(*id)),
                    ("name", S(name)),
                    ("at", F(*at)),
                    ("secs", F(*secs)),
                ],
            ),
            EventKind::Counter { name, delta, total } => write_object(
                out,
                seq,
                "Counter",
                &[
                    ("name", S(name)),
                    ("delta", U(*delta)),
                    ("total", U(*total)),
                ],
            ),
            EventKind::Gauge { name, value } => write_object(
                out,
                seq,
                "Gauge",
                &[("name", S(name)), ("value", F(*value))],
            ),
            EventKind::Observe { name, value } => write_object(
                out,
                seq,
                "Observe",
                &[("name", S(name)), ("value", F(*value))],
            ),
            EventKind::Fault {
                kind,
                at,
                instance,
                volume,
            } => write_object(
                out,
                seq,
                "Fault",
                &[
                    ("kind", S(kind)),
                    ("at", F(*at)),
                    ("instance", UintOrNull(*instance)),
                    ("volume", UintOrNull(*volume)),
                ],
            ),
            EventKind::Seal {
                segment,
                cause,
                at,
                items,
                bytes,
                bins,
            } => write_object(
                out,
                seq,
                "Seal",
                &[
                    ("segment", U(*segment)),
                    ("cause", S(cause)),
                    ("at", F(*at)),
                    ("items", U(*items)),
                    ("bytes", U(*bytes)),
                    ("bins", U(*bins)),
                ],
            ),
            EventKind::Transfer {
                backend,
                key,
                bytes,
                at,
                secs,
            } => write_object(
                out,
                seq,
                "Transfer",
                &[
                    ("backend", S(backend)),
                    ("key", S(key)),
                    ("bytes", U(*bytes)),
                    ("at", F(*at)),
                    ("secs", F(*secs)),
                ],
            ),
            EventKind::Market {
                family,
                action,
                tier,
                at,
                instances,
                cost,
            } => write_object(
                out,
                seq,
                "Market",
                &[
                    ("family", S(family)),
                    ("action", S(action)),
                    ("tier", S(tier)),
                    ("at", F(*at)),
                    ("instances", U(*instances)),
                    ("cost", F(*cost)),
                ],
            ),
            EventKind::Shard {
                stage,
                shard,
                items,
                bytes,
            } => write_object(
                out,
                seq,
                "Shard",
                &[
                    ("stage", S(stage)),
                    ("shard", U(*shard)),
                    ("items", U(*items)),
                    ("bytes", U(*bytes)),
                ],
            ),
        }
    }
}

/// One field value of an event, as [`Event::write_ndjson`] renders it.
#[derive(Clone, Copy)]
enum Field<'a> {
    Uint(u64),
    UintOrNull(Option<u64>),
    Float(f64),
    Str(&'a str),
}

/// `{"seq":…,"kind":{"<variant>":{<fields>}}}` and a newline — the
/// derive's externally tagged layout. Variant and field names are plain
/// identifiers, so they need no escaping.
fn write_object(
    out: &mut String,
    seq: u64,
    variant: &str,
    fields: &[(&str, Field<'_>)],
) -> fmt::Result {
    write!(out, "{{\"seq\":{seq},\"kind\":{{\"")?;
    out.push_str(variant);
    out.push_str("\":{");
    for (i, &(name, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(name);
        out.push_str("\":");
        match value {
            Field::Uint(n) | Field::UintOrNull(Some(n)) => write!(out, "{n}")?,
            Field::UintOrNull(None) => out.push_str("null"),
            Field::Float(x) => write_f64(out, x)?,
            Field::Str(s) => write_str(out, s)?,
        }
    }
    out.push_str("}}}\n");
    Ok(())
}

/// `vendor/serde_json`'s float rule: an integral value below 1e15 keeps a
/// `.0`, any other finite value prints in its shortest form, and NaN and
/// ±∞, which JSON lacks, print `null`.
fn write_f64(out: &mut String, x: f64) -> fmt::Result {
    // lint:allow(RL004, the reference serializer's exact integral-value test)
    let integral = x.fract() == 0.0 && x.abs() < 1e15;
    if !x.is_finite() {
        out.push_str("null");
        Ok(())
    } else if integral {
        write!(out, "{x:.1}")
    } else {
        write!(out, "{x}")
    }
}

/// A JSON string with `vendor/serde_json`'s escaping: `"`, `\\`, `\n`, `\r`
/// and `\t` by name, other control characters as `\u00xx`, everything else
/// verbatim. Every escaped character is ASCII, so the unescaped runs
/// between them are copied whole.
fn write_str(out: &mut String, s: &str) -> fmt::Result {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match named {
            Some(escape) => out.push_str(escape),
            None => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
    Ok(())
}

/// Deterministic run identifier: a splitmix64 scramble of the seed,
/// rendered as 16 hex digits. Pure function of the seed, so same-seed runs
/// share the id (that is the point: the id names the *reproducible run*,
/// not the invocation). `obs` depends on no workspace crate, so it keeps
/// its own splitmix64; the workspace test `seeded_hashes` pins it to
/// `corpus::hash::splitmix64`.
pub fn run_id_from_seed(seed: u64) -> String {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    format!("{z:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_id_is_stable_and_seed_sensitive() {
        assert_eq!(run_id_from_seed(0), run_id_from_seed(0));
        assert_ne!(run_id_from_seed(0), run_id_from_seed(1));
        assert_eq!(run_id_from_seed(7).len(), 16);
        // Pinned value: a change here is a log-schema break.
        assert_eq!(run_id_from_seed(0), "e220a8397b1dcdaf");
    }

    #[test]
    fn events_render_as_single_json_lines() {
        let e = Event {
            seq: 3,
            kind: EventKind::Counter {
                name: "execute.crashes".into(),
                delta: 1,
                total: 2,
            },
        };
        let line = serde_json::to_string(&e).unwrap();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"seq\":3"));
        assert!(line.contains("\"Counter\""));
        assert!(line.contains("\"total\":2"));
    }
}
