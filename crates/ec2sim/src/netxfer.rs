//! Deterministic network-transfer model for shuffle-style data sharing.
//!
//! *Data Sharing Options for Scientific Workflows on Amazon EC2* (Juve et
//! al.) benchmarks the three ways EC2 workloads move intermediate data —
//! S3 objects, EBS volume hand-off, and an NFS-style shared filesystem —
//! and finds the backend choice dominates workflow cost and latency. This
//! module gives the simulator those three backends as *transfer timelines*:
//! every transfer runs on the simulated clock, is assigned to a stream
//! deterministically, and costs dollars according to 2010-era rates.
//!
//! Shape of each backend (the constants live in
//! [`BackendParams::for_backend`]):
//!
//! * **S3** — effectively unlimited parallel streams, but a high
//!   per-object latency (~30 ms) plus per-request dollars and the
//!   cross-AZ per-GB rate when producer and consumer zones differ. The
//!   only backend that keeps scaling as worker counts grow.
//! * **EbsLocal** — data changes hands by detaching a volume from the
//!   producer and attaching it to the consumer: zero transfer dollars,
//!   full block-device bandwidth, but a single stream serialized through
//!   attach/detach overhead. Cheap and slow.
//! * **SharedFs** — an always-on NFS server instance: tiny per-object
//!   latency and a few concurrent streams sharing the server NIC, paid for
//!   as ordinary flat-rate instance hours over the window the shuffle
//!   keeps it busy ([`crate::billed_hours`], so hour-boundary float drift
//!   is forgiven like everywhere else).
//!
//! Determinism contract: durations depend only on `(params, seed, key,
//! bytes)` and the deterministic stream-assignment order; per-transfer
//! jitter is a splitmix64 hash of the object key, so it is independent of
//! call order and identical across `Parallelism` settings. No wall clock
//! is ever read.

use crate::billing::billed_hours;
use crate::transfer::TransferPricing;
use crate::types::AvailabilityZone;
use corpus::hash::{fnv1a, splitmix64};
use serde::{Deserialize, Serialize};

/// Which data-sharing backend a shuffle moves its partials through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SharingBackend {
    /// Object store: parallel, latency-bound, per-request + cross-AZ cost.
    S3,
    /// EBS volume hand-off: serialized, attach-overhead-bound, free.
    EbsLocal,
    /// NFS-style shared filesystem on a dedicated server instance.
    SharedFs,
}

impl SharingBackend {
    /// All backends, in canonical order (plan enumeration order).
    pub const ALL: [SharingBackend; 3] = [
        SharingBackend::S3,
        SharingBackend::EbsLocal,
        SharingBackend::SharedFs,
    ];

    /// Stable snake_case label for logs and reports.
    pub fn label(&self) -> &'static str {
        match self {
            SharingBackend::S3 => "s3",
            SharingBackend::EbsLocal => "ebs_local",
            SharingBackend::SharedFs => "shared_fs",
        }
    }
}

/// The timing/cost constants of one backend.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackendParams {
    /// Per-stream bandwidth, bytes per second.
    pub bandwidth_bps: f64,
    /// Fixed latency charged to every object, seconds.
    pub per_object_latency_s: f64,
    /// Concurrent streams; `0` means unbounded (S3).
    pub parallel_streams: usize,
    /// Fixed setup time per transfer (EBS attach/detach hand-off), seconds.
    pub setup_overhead_s: f64,
    /// Dollars per object written.
    pub put_request_cost: f64,
    /// Dollars per object read.
    pub get_request_cost: f64,
    /// Hourly rate of a dedicated server instance (SharedFs), dollars.
    pub server_hourly_rate: f64,
    /// Relative jitter half-width applied per object (hash-seeded).
    pub jitter_rel: f64,
}

impl BackendParams {
    /// Calibrated 2010-era defaults per backend.
    pub fn for_backend(backend: SharingBackend) -> Self {
        match backend {
            SharingBackend::S3 => BackendParams {
                bandwidth_bps: 40.0e6,
                per_object_latency_s: 30.0e-3,
                parallel_streams: 0,
                setup_overhead_s: 0.0,
                put_request_cost: 1.0e-5,
                get_request_cost: 1.0e-6,
                server_hourly_rate: 0.0,
                jitter_rel: 0.03,
            },
            SharingBackend::EbsLocal => BackendParams {
                bandwidth_bps: 75.0e6,
                per_object_latency_s: 4.5e-3,
                parallel_streams: 1,
                setup_overhead_s: 6.0,
                put_request_cost: 0.0,
                get_request_cost: 0.0,
                server_hourly_rate: 0.0,
                jitter_rel: 0.03,
            },
            SharingBackend::SharedFs => BackendParams {
                bandwidth_bps: 60.0e6,
                per_object_latency_s: 1.0e-3,
                parallel_streams: 4,
                setup_overhead_s: 0.0,
                put_request_cost: 0.0,
                get_request_cost: 0.0,
                server_hourly_rate: 0.085,
                jitter_rel: 0.03,
            },
        }
    }
}

/// One transfer to schedule: move `bytes` under `key` from the producer's
/// zone to the consumer's zone, no earlier than `not_before`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRequest {
    /// Object key (also the jitter seed, so durations are order-free).
    pub key: String,
    /// Payload size.
    pub bytes: u64,
    /// Producer zone.
    pub src_zone: AvailabilityZone,
    /// Consumer zone.
    pub dst_zone: AvailabilityZone,
    /// Earliest simulated start (the producer's finish time).
    pub not_before: f64,
    /// True when the consumer reads (GET); false when the producer writes
    /// (PUT). Only request pricing distinguishes them.
    pub is_get: bool,
}

/// The scheduled outcome of one transfer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferReceipt {
    /// Object key.
    pub key: String,
    /// Payload size.
    pub bytes: u64,
    /// Simulated start (after stream queueing).
    pub started_at: f64,
    /// Simulated finish.
    pub finished_at: f64,
    /// Transfer dollars: request cost plus cross-AZ per-GB when the zones
    /// differ (SharedFs server hours are accounted separately, per window).
    pub cost: f64,
}

/// A per-backend transfer scheduler: assigns each request to a stream,
/// tracks stream busy horizons on the simulated clock, and accumulates
/// dollars. Bounded backends queue FIFO on the least-busy stream (ties to
/// the lowest index), so the schedule is a pure function of the request
/// sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferEngine {
    backend: SharingBackend,
    params: BackendParams,
    seed: u64,
    /// Busy-until horizon per stream (bounded backends only).
    streams: Vec<f64>,
    /// First transfer start, for the server-occupancy window.
    window_start: Option<f64>,
    /// Last transfer finish.
    window_end: f64,
    /// Accumulated per-transfer dollars.
    transfer_cost: f64,
    /// Total bytes moved.
    pub bytes_moved: u64,
    /// Number of transfers scheduled.
    pub transfers: usize,
}

impl TransferEngine {
    /// A fresh engine for `backend` with its default parameters.
    pub fn new(backend: SharingBackend, seed: u64) -> Self {
        Self::with_params(backend, BackendParams::for_backend(backend), seed)
    }

    /// A fresh engine with explicit parameters.
    pub fn with_params(backend: SharingBackend, params: BackendParams, seed: u64) -> Self {
        TransferEngine {
            backend,
            params,
            seed,
            streams: vec![0.0; params.parallel_streams],
            window_start: None,
            window_end: 0.0,
            transfer_cost: 0.0,
            bytes_moved: 0,
            transfers: 0,
        }
    }

    /// The backend this engine schedules for.
    pub fn backend(&self) -> SharingBackend {
        self.backend
    }

    /// The active parameters.
    pub fn params(&self) -> &BackendParams {
        &self.params
    }

    /// Model-truth duration of moving `bytes` under `key`: setup plus
    /// latency plus bytes/bandwidth, stretched by the key-hashed jitter.
    /// Pure — no queueing, no state.
    pub fn duration_secs(&self, key: &str, bytes: u64) -> f64 {
        let base = self.params.setup_overhead_s
            + self.params.per_object_latency_s
            + bytes as f64 / self.params.bandwidth_bps;
        let u = splitmix64(self.seed ^ fnv1a(key.as_bytes())) as f64 / u64::MAX as f64;
        base * (1.0 + self.params.jitter_rel * (2.0 * u - 1.0))
    }

    /// Schedule one transfer: queue on the least-busy stream (bounded
    /// backends), run for [`Self::duration_secs`], accumulate dollars.
    pub fn transfer(&mut self, req: &TransferRequest) -> TransferReceipt {
        let secs = self.duration_secs(&req.key, req.bytes);
        let started_at = if self.streams.is_empty() {
            req.not_before
        } else {
            // Least-busy stream, ties to the lowest index (strict `<`).
            let mut slot = 0;
            for i in 1..self.streams.len() {
                if self.streams[i] < self.streams[slot] {
                    slot = i;
                }
            }
            let start = self.streams[slot].max(req.not_before);
            self.streams[slot] = start + secs;
            start
        };
        let finished_at = started_at + secs;
        let request_cost = if req.is_get {
            self.params.get_request_cost
        } else {
            self.params.put_request_cost
        };
        let wire_cost = if self.backend == SharingBackend::S3 {
            let kind = TransferPricing::kind_between(req.src_zone, req.dst_zone);
            TransferPricing {}.cost(kind, req.bytes)
        } else {
            0.0
        };
        let cost = request_cost + wire_cost;
        self.transfer_cost += cost;
        self.bytes_moved += req.bytes;
        self.transfers += 1;
        self.window_start = Some(self.window_start.map_or(started_at, |w| w.min(started_at)));
        self.window_end = self.window_end.max(finished_at);
        TransferReceipt {
            key: req.key.clone(),
            bytes: req.bytes,
            started_at,
            finished_at,
            cost,
        }
    }

    /// Accumulated per-transfer dollars (requests + cross-AZ bytes).
    pub fn transfer_cost(&self) -> f64 {
        self.transfer_cost
    }

    /// Fixed dollars for the backend's standing resources: the SharedFs
    /// server is billed flat-rate instance hours over the busy window
    /// (robust hour rounding — see [`crate::robust_ceil`]).
    pub fn fixed_cost(&self) -> f64 {
        // A zero hourly rate (S3, EBS hand-off) multiplies out to zero —
        // no guard needed.
        match self.window_start {
            None => 0.0,
            Some(start) => {
                let hours = billed_hours(self.window_end - start);
                hours as f64 * self.params.server_hourly_rate
            }
        }
    }

    /// Total dollars: per-transfer plus fixed.
    pub fn total_cost(&self) -> f64 {
        self.transfer_cost + self.fixed_cost()
    }

    /// Simulated time the last scheduled transfer finishes (0 when idle).
    pub fn horizon(&self) -> f64 {
        self.window_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone() -> AvailabilityZone {
        AvailabilityZone::us_east_1a()
    }

    fn req(key: &str, bytes: u64, not_before: f64) -> TransferRequest {
        TransferRequest {
            key: key.to_string(),
            bytes,
            src_zone: zone(),
            dst_zone: zone(),
            not_before,
            is_get: false,
        }
    }

    #[test]
    fn duration_is_key_hashed_and_order_free() {
        let e = TransferEngine::new(SharingBackend::S3, 7);
        let a = e.duration_secs("part-0", 1_000_000);
        let b = e.duration_secs("part-1", 1_000_000);
        assert_ne!(a, b, "distinct keys must jitter differently");
        assert_eq!(a, e.duration_secs("part-0", 1_000_000));
        // Jitter stays within its half-width.
        let base = 30.0e-3 + 1_000_000.0 / 40.0e6;
        assert!((a / base - 1.0).abs() <= 0.03 + 1e-12);
    }

    #[test]
    fn unbounded_s3_transfers_overlap() {
        let mut e = TransferEngine::new(SharingBackend::S3, 1);
        let r1 = e.transfer(&req("a", 40_000_000, 0.0));
        let r2 = e.transfer(&req("b", 40_000_000, 0.0));
        assert_eq!(r1.started_at, 0.0);
        assert_eq!(r2.started_at, 0.0, "S3 never queues");
        assert!(e.horizon() < 2.2, "parallel, not serial: {}", e.horizon());
    }

    #[test]
    fn single_stream_ebs_serializes() {
        let mut e = TransferEngine::new(SharingBackend::EbsLocal, 1);
        let r1 = e.transfer(&req("a", 75_000_000, 0.0));
        let r2 = e.transfer(&req("b", 75_000_000, 0.0));
        assert_eq!(r2.started_at, r1.finished_at, "volume hand-off is FIFO");
        // Each hand-off pays the attach/detach setup.
        assert!(r1.finished_at > 6.0);
    }

    #[test]
    fn bounded_sharedfs_queues_on_least_busy_stream() {
        let mut e = TransferEngine::new(SharingBackend::SharedFs, 1);
        let receipts: Vec<TransferReceipt> = (0..6)
            .map(|i| e.transfer(&req(&format!("p{i}"), 60_000_000, 0.0)))
            .collect();
        // First four start immediately (4 streams), the rest queue.
        for r in &receipts[..4] {
            assert_eq!(r.started_at, 0.0);
        }
        for r in &receipts[4..] {
            assert!(r.started_at > 0.0, "fifth transfer must queue");
        }
    }

    #[test]
    fn s3_pays_requests_and_cross_az_bytes() {
        let mut e = TransferEngine::new(SharingBackend::S3, 1);
        let same = e.transfer(&req("a", 10_000_000_000 / 10, 0.0));
        assert!((same.cost - 1.0e-5).abs() < 1e-12, "intra-zone: {:?}", same);
        let other = AvailabilityZone {
            region: crate::types::Region::UsEast,
            index: 1,
        };
        let cross = e.transfer(&TransferRequest {
            key: "b".into(),
            bytes: 10_000_000_000,
            src_zone: zone(),
            dst_zone: other,
            not_before: 0.0,
            is_get: true,
        });
        // 10 GB × $0.01/GB + GET request.
        assert!((cross.cost - (0.1 + 1.0e-6)).abs() < 1e-9, "{:?}", cross);
    }

    #[test]
    fn ebs_and_sharedfs_move_bytes_for_free_per_transfer() {
        for b in [SharingBackend::EbsLocal, SharingBackend::SharedFs] {
            let mut e = TransferEngine::new(b, 1);
            let r = e.transfer(&req("a", 1_000_000_000, 0.0));
            assert_eq!(r.cost, 0.0);
        }
    }

    #[test]
    fn sharedfs_bills_server_hours_over_busy_window() {
        let mut e = TransferEngine::new(SharingBackend::SharedFs, 1);
        assert_eq!(e.fixed_cost(), 0.0, "idle server costs nothing");
        e.transfer(&req("a", 60_000_000, 100.0));
        assert!((e.fixed_cost() - 0.085).abs() < 1e-12, "{}", e.fixed_cost());
        // Stretch the window past an hour: second billed hour.
        e.transfer(&req("b", 60_000_000, 100.0 + 3_700.0));
        assert!((e.fixed_cost() - 0.17).abs() < 1e-12, "{}", e.fixed_cost());
        assert_eq!(e.total_cost(), e.fixed_cost());
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let mut e = TransferEngine::new(SharingBackend::SharedFs, seed);
            (0..10)
                .map(|i| e.transfer(&req(&format!("p{i}"), 5_000_000 * (i + 1), i as f64)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn counters_accumulate() {
        let mut e = TransferEngine::new(SharingBackend::S3, 1);
        e.transfer(&req("a", 100, 0.0));
        e.transfer(&req("b", 200, 0.0));
        assert_eq!(e.bytes_moved, 300);
        assert_eq!(e.transfers, 2);
    }
}
