//! Distributed map/shuffle/reduce with storage-backend-aware data sharing.
//!
//! The paper's workloads are embarrassingly parallel: N instances never
//! talk to each other. Whole-corpus aggregations (term counts, dedup —
//! [`textapps::aggregate`]) are the first workload class that cannot be
//! split that way: every map task's keyed partials must move to the
//! reducer that owns the key. This module adds that two-phase execution
//! mode on top of the existing planner and executor:
//!
//! 1. **Map** — the compute plan's bins run exactly like ordinary shares
//!    (per-instance timelines, transient attach retries, instance-loss
//!    replacement and requeue bounded by [`RetryPolicy`]).
//! 2. **Shuffle** — each map bin's partial is partitioned by the pure
//!    FNV-1a key partitioner and moved through a [`SharingBackend`]
//!    ([`ec2sim::TransferEngine`]): one PUT from the producer at its map
//!    finish, one GET by the consumer once the PUT lands. On the `S3`
//!    backend both sides go through `Cloud::s3_put`/`s3_get`, so injected
//!    transient S3 faults hit real transfers and are retried with the same
//!    backoff machinery the compute path uses.
//! 3. **Reduce** — reducers ride on the map fleet (task `r` on instance
//!    `r mod M`), merge their column with the kind's commutative operator
//!    and render the canonical byte output.
//!
//! **Backend selection mirrors the compute path** (§5.2 applied to data
//! movement): seeded probe transfers per backend give `(bytes, secs)`
//! samples, an affine transfer model is fitted, its relative residuals
//! produce the adjusted shuffle budget `B/(1+a)`, and the inverse
//! `f⁻¹(B_adj)` prescribes how many streams the movement volume needs —
//! the planner then picks the **cheapest backend that fits** (EBS hand-off
//! is free but serialized, the shared filesystem bills server hours,
//! S3 bills requests plus cross-AZ bytes), falling back to the fastest
//! when none fits.
//!
//! Determinism contract: the shuffle plan, transfer schedule, NDJSON event
//! log and reduce output are pure functions of `(seed, config, corpus)` —
//! partials are `BTreeMap`s, the partitioner is a pure hash, transfers are
//! scheduled in `(map bin, reduce bin)` order with key-hashed jitter, and
//! merges are commutative — so the output is byte-identical across
//! `Parallelism` settings and replays, including under a non-empty
//! `FaultPlan`.

use crate::error::ProvisionError;
use crate::executor::{ExecutionConfig, Fleet, FreshFleet, RetryPolicy, RunKind, ShareEnd};
use crate::plan::Plan;
use crate::strategy::{invert_at, make_plan, Strategy};
use corpus::{FileSpec, TextGenerator, TextParams};
use ec2sim::{
    AvailabilityZone, BackendParams, Cloud, CloudError, DataLocation, SharingBackend,
    TransferEngine, TransferRequest,
};
use obs::Obs;
use perfmodel::{try_fit, Fit, ModelKind};
use serde::{Deserialize, Serialize};
use textapps::aggregate::{merge_partials, partial_bytes, partition_partial, render, TermTable};
use textapps::{AggKind, Partial, TokenizeCostModel};

/// Everything a distributed aggregation needs beyond the compute plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffleConfig {
    /// Which aggregation to compute.
    pub kind: AggKind,
    /// Corpus seed the map tasks materialize their files from.
    pub corpus_seed: u64,
    /// Number of reduce partitions (clamped to ≥ 1).
    pub reduce_bins: usize,
    /// Fleet parameters shared with the compute path.
    pub exec: ExecutionConfig,
    /// Backoff/replacement policy shared by map retries, reduce retries
    /// and transient S3 transfer errors.
    pub retry: RetryPolicy,
    /// Seed of the transfer engine's key-hashed jitter.
    pub seed: u64,
    /// Acceptable deadline-miss probability for the adjusted budget.
    pub p_miss: f64,
    /// Zones the fleet is spread over round-robin; empty means everything
    /// stays in `exec.zone`. Cross-zone pairs make S3 pay the per-GB rate.
    pub zone_spread: Vec<AvailabilityZone>,
}

impl Default for ShuffleConfig {
    fn default() -> Self {
        ShuffleConfig {
            kind: AggKind::TermCount,
            corpus_seed: 42,
            reduce_bins: 4,
            exec: ExecutionConfig::default(),
            retry: RetryPolicy::default(),
            seed: 0,
            p_miss: 0.1,
            zone_spread: Vec::new(),
        }
    }
}

impl ShuffleConfig {
    /// The zones the fleet round-robins over (never empty).
    fn zones(&self) -> Vec<AvailabilityZone> {
        if self.zone_spread.is_empty() {
            vec![self.exec.zone]
        } else {
            self.zone_spread.clone()
        }
    }
}

/// One keyed movement the shuffle must make: map bin → reduce bin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShuffleMovement {
    /// Backend object key (`shuffle/<kind>/m<producer>/r<reducer>`).
    pub key: String,
    /// Serialized partial size.
    pub bytes: u64,
    /// Producing map bin.
    pub producer: usize,
    /// Consuming reduce bin.
    pub reducer: usize,
    /// Producer's zone.
    pub src_zone: AvailabilityZone,
    /// Consumer's zone.
    pub dst_zone: AvailabilityZone,
}

/// How one backend scored during planning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackendEvaluation {
    /// The backend evaluated.
    pub backend: SharingBackend,
    /// Fit-predicted shuffle makespan for the movement set, seconds.
    pub predicted_secs: f64,
    /// The backend's adjusted shuffle budget `B/(1+a)`, seconds.
    pub adjusted_budget_secs: f64,
    /// `f⁻¹(B_adj)`: bytes one stream can carry within the adjusted
    /// budget (0 when the transfer model is not invertible there).
    pub stream_bytes: f64,
    /// Streams the movement volume needs at that per-stream capacity.
    pub streams_needed: u64,
    /// Whether the backend finishes the shuffle inside the budget.
    pub feasible: bool,
    /// Dry-run transfer dollars (requests + cross-AZ bytes + server hours).
    pub transfer_cost: f64,
}

/// The planner's verdict: which backend carries the shuffle, and why.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShufflePlan {
    /// Chosen backend: cheapest feasible, else fastest.
    pub backend: SharingBackend,
    /// Raw shuffle budget (deadline − predicted map makespan), seconds.
    pub budget_secs: f64,
    /// Number of movements (non-empty map×reduce pairs).
    pub movements: usize,
    /// Total payload bytes across the movements (one direction).
    pub movement_bytes: u64,
    /// Per-backend scores, in [`SharingBackend::ALL`] order.
    pub evaluations: Vec<BackendEvaluation>,
}

/// The measured outcome of a distributed aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffleReport {
    /// Backend the shuffle ran on.
    pub backend: SharingBackend,
    /// Map shares executed (= compute-plan instances).
    pub map_shares: usize,
    /// Reduce partitions.
    pub reduce_bins: usize,
    /// The user deadline, seconds.
    pub deadline_secs: f64,
    /// Simulated time the last map share finished.
    pub map_finish_secs: f64,
    /// Simulated time the last transfer landed.
    pub shuffle_finish_secs: f64,
    /// Simulated time the last reduce task finished.
    pub makespan_secs: f64,
    /// Bytes moved through the backend (PUTs + GETs).
    pub bytes_shuffled: u64,
    /// Transfers scheduled (PUTs + GETs).
    pub transfers: usize,
    /// Transient retries across attaches and S3 transfers.
    pub transient_retries: usize,
    /// Instance crashes absorbed by replacement.
    pub crashes: usize,
    /// Spot preemptions absorbed by replacement.
    pub preemptions: usize,
    /// Replacement instances launched.
    pub replacements: usize,
    /// Billed instance-hours across the fleet (including doomed attempts).
    pub instance_hours: u64,
    /// Fleet dollars (`instance_hours × hourly rate`).
    pub compute_cost: f64,
    /// Transfer dollars (requests + cross-AZ bytes + server hours).
    pub transfer_cost: f64,
    /// Canonical per-reducer outputs, in reduce-bin order.
    pub reduce_outputs: Vec<Vec<u8>>,
    /// The merged corpus-wide result.
    pub result: Partial,
}

impl ShuffleReport {
    /// Fleet plus transfer dollars.
    pub fn total_cost(&self) -> f64 {
        self.compute_cost + self.transfer_cost
    }

    /// Whether the whole pipeline beat the user deadline.
    pub fn met_deadline(&self) -> bool {
        self.makespan_secs <= self.deadline_secs
    }

    /// The canonical corpus-wide rendering — the bytes the differential
    /// harness compares against the sequential oracle.
    pub fn output(&self) -> Vec<u8> {
        render(&self.result)
    }
}

/// Plan plus execution, as returned by [`execute_aggregation_observed`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationReport {
    /// The backend-selection plan.
    pub plan: ShufflePlan,
    /// The measured execution under the chosen backend.
    pub exec: ShuffleReport,
}

/// Why a distributed aggregation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ShuffleError {
    /// The compute plan could not be made.
    Plan(ProvisionError),
    /// A non-retryable cloud error (or retries exhausted on a transfer).
    Cloud(CloudError),
    /// A map or reduce share ran out of replacement instances. Unlike the
    /// degradable compute path, an aggregation cannot drop a share — every
    /// key range is needed — so exhaustion is fatal.
    SharesExhausted {
        /// Ordinal of the doomed share (map bins first, then reduce bins).
        share: usize,
    },
}

impl std::fmt::Display for ShuffleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShuffleError::Plan(e) => write!(f, "shuffle planning failed: {e}"),
            ShuffleError::Cloud(e) => write!(f, "shuffle cloud error: {e}"),
            ShuffleError::SharesExhausted { share } => {
                write!(f, "share {share} exhausted its replacement budget")
            }
        }
    }
}

impl std::error::Error for ShuffleError {}

impl From<ProvisionError> for ShuffleError {
    fn from(e: ProvisionError) -> Self {
        ShuffleError::Plan(e)
    }
}

impl From<CloudError> for ShuffleError {
    fn from(e: CloudError) -> Self {
        ShuffleError::Cloud(e)
    }
}

/// Every map bin's corpus-wide partial — a pure function of the corpus
/// seed and the bin contents. One text generator serves the whole pass,
/// and each file's terms are counted into its bin's [`TermTable`];
/// [`textapps::aggregate::oracle`] is the independent per-file reference.
pub fn map_partials(kind: AggKind, corpus_seed: u64, bins: &[Vec<FileSpec>]) -> Vec<Partial> {
    let generator = TextGenerator::new(TextParams::default(), corpus_seed);
    bins.iter()
        .map(|bin| {
            let mut table = TermTable::new(kind);
            for file in bin {
                table.add_document(file.id, &generator.file_text(file));
            }
            table.into_partial()
        })
        .collect()
}

/// The compute plan's map bins.
fn plan_bins(plan: &Plan) -> Vec<Vec<FileSpec>> {
    plan.instances.iter().map(|i| i.files.clone()).collect()
}

/// Every map bin's partial split into its per-reducer partials: the data
/// plane the planner sizes and the executor moves and reduces.
fn partitioned_partials(cfg: &ShuffleConfig, bins: &[Vec<FileSpec>]) -> Vec<Vec<Partial>> {
    map_partials(cfg.kind, cfg.corpus_seed, bins)
        .iter()
        .map(|p| partition_partial(p, cfg.reduce_bins.max(1)))
        .collect()
}

/// The movement set a compute plan implies: one entry per non-empty
/// `(map bin, reduce bin)` pair, in deterministic `(m, r)` order.
pub fn shuffle_movements(cfg: &ShuffleConfig, bins: &[Vec<FileSpec>]) -> Vec<ShuffleMovement> {
    movements_of(cfg, &partitioned_partials(cfg, bins))
}

/// [`shuffle_movements`] over already partitioned partials.
fn movements_of(cfg: &ShuffleConfig, partitioned: &[Vec<Partial>]) -> Vec<ShuffleMovement> {
    let zones = cfg.zones();
    let mut out = Vec::new();
    for (m, parts) in partitioned.iter().enumerate() {
        for (r, part) in parts.iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            out.push(ShuffleMovement {
                key: format!("shuffle/{}/m{m}/r{r}", cfg.kind.label()),
                bytes: partial_bytes(part),
                producer: m,
                reducer: r,
                src_zone: zones[m % zones.len()],
                dst_zone: zones[r % zones.len()],
            });
        }
    }
    out
}

/// Fit one backend's transfer model from seeded probe transfers spanning
/// the movement size range. The probes use the engine's own key-hashed
/// jitter, so the residual spread is exactly the model error a real
/// schedule would see.
fn probe_fit(backend: SharingBackend, seed: u64, lo: u64, hi: u64) -> Option<Fit> {
    let engine = TransferEngine::new(backend, seed);
    let lo = lo.max(256) as f64;
    let hi = (hi as f64).max(lo * 8.0);
    let n = 12usize;
    let (mut xs, mut ys) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        let frac = i as f64 / (n - 1) as f64;
        let bytes = (lo * (hi / lo).powf(frac)).round().max(1.0);
        let key = format!("probe/{}/{i}", backend.label());
        xs.push(bytes);
        ys.push(engine.duration_secs(&key, bytes as u64));
    }
    try_fit(ModelKind::Affine, &xs, &ys).ok()
}

/// Dry-run the movement set through a scratch engine (PUT then GET per
/// movement, `not_before = 0`) to price the backend.
fn dry_run_cost(backend: SharingBackend, seed: u64, movements: &[ShuffleMovement]) -> f64 {
    let mut engine = TransferEngine::new(backend, seed);
    for mv in movements {
        let put = engine.transfer(&TransferRequest {
            key: mv.key.clone(),
            bytes: mv.bytes,
            src_zone: mv.src_zone,
            dst_zone: mv.dst_zone,
            not_before: 0.0,
            is_get: false,
        });
        engine.transfer(&TransferRequest {
            key: mv.key.clone(),
            bytes: mv.bytes,
            src_zone: mv.dst_zone,
            dst_zone: mv.dst_zone,
            not_before: put.finished_at,
            is_get: true,
        });
    }
    engine.total_cost()
}

/// Choose the sharing backend for a movement set under a shuffle budget,
/// mirroring the compute path: fit per-backend transfer models from
/// seeded probes, derive each backend's adjusted budget from its relative
/// residuals, invert the model there for a per-stream byte capacity, and
/// pick the cheapest backend whose streams fit (fastest when none do).
pub fn plan_shuffle(
    movements: &[ShuffleMovement],
    budget_secs: f64,
    p_miss: f64,
    seed: u64,
) -> ShufflePlan {
    let total_bytes: u64 = movements.iter().map(|m| m.bytes).sum();
    let lo = movements.iter().map(|m| m.bytes).min().unwrap_or(1024);
    let hi = movements.iter().map(|m| m.bytes).max().unwrap_or(1024);

    let mut evaluations = Vec::with_capacity(SharingBackend::ALL.len());
    for backend in SharingBackend::ALL {
        let params = BackendParams::for_backend(backend);
        let eval = match probe_fit(backend, seed, lo, hi) {
            None => BackendEvaluation {
                backend,
                predicted_secs: f64::INFINITY,
                adjusted_budget_secs: 0.0,
                stream_bytes: 0.0,
                streams_needed: u64::MAX,
                feasible: false,
                transfer_cost: dry_run_cost(backend, seed, movements),
            },
            Some(fit) => {
                let b_adj = fit.adjusted_deadline(budget_secs, p_miss);
                // Every movement crosses the backend twice (PUT + GET).
                let preds: Vec<f64> = movements
                    .iter()
                    .map(|m| fit.predict(m.bytes as f64).max(0.0))
                    .collect();
                let sum2: f64 = 2.0 * preds.iter().sum::<f64>();
                let max2 = 2.0 * preds.iter().fold(0.0f64, |acc, &p| acc.max(p));
                let streams = params.parallel_streams;
                let predicted_secs = if movements.is_empty() {
                    0.0
                } else if streams == 0 {
                    max2
                } else {
                    (sum2 / streams as f64).max(max2)
                };
                let stream_bytes = invert_at(&fit, b_adj).unwrap_or(0.0);
                let streams_needed = if total_bytes == 0 {
                    0
                } else if stream_bytes >= 1.0 {
                    ((2 * total_bytes) as f64 / stream_bytes).ceil() as u64
                } else {
                    u64::MAX
                };
                let invertible = stream_bytes >= 1.0 || total_bytes == 0;
                let feasible = invertible
                    && predicted_secs <= b_adj
                    && (streams == 0 || streams_needed <= streams as u64);
                BackendEvaluation {
                    backend,
                    predicted_secs,
                    adjusted_budget_secs: b_adj,
                    stream_bytes,
                    streams_needed,
                    feasible,
                    transfer_cost: dry_run_cost(backend, seed, movements),
                }
            }
        };
        evaluations.push(eval);
    }

    // Cheapest feasible backend; fall back to the fastest overall. Ties
    // break in canonical `ALL` order because the scan keeps the first min.
    let pick = |evals: &[BackendEvaluation],
                keep: &dyn Fn(&BackendEvaluation) -> bool,
                score: &dyn Fn(&BackendEvaluation) -> f64| {
        evals
            .iter()
            .filter(|e| keep(e))
            .fold(None::<(f64, SharingBackend)>, |best, e| match best {
                Some((s, _)) if s <= score(e) => best,
                _ => Some((score(e), e.backend)),
            })
            .map(|(_, b)| b)
    };
    let backend = pick(&evaluations, &|e| e.feasible, &|e| e.transfer_cost)
        .or_else(|| pick(&evaluations, &|_| true, &|e| e.predicted_secs))
        .unwrap_or(SharingBackend::S3);

    ShufflePlan {
        backend,
        budget_secs: budget_secs.max(0.0),
        movements: movements.len(),
        movement_bytes: total_bytes,
        evaluations,
    }
}

/// Plan both phases of a distributed aggregation: the compute plan (§5.2
/// adjusted-deadline strategy) and the shuffle plan, whose budget is
/// whatever the compute plan's predicted makespan leaves of the deadline.
pub fn plan_aggregation(
    cfg: &ShuffleConfig,
    files: &[FileSpec],
    fit: &Fit,
    deadline_secs: f64,
) -> Result<(Plan, ShufflePlan), ProvisionError> {
    let (plan, shuffle_plan, _) = plan_with_partials(cfg, files, fit, deadline_secs)?;
    Ok((plan, shuffle_plan))
}

/// [`plan_aggregation`], also returning the partitioned map partials the
/// shuffle plan was sized from, so the executor need not map again.
fn plan_with_partials(
    cfg: &ShuffleConfig,
    files: &[FileSpec],
    fit: &Fit,
    deadline_secs: f64,
) -> Result<(Plan, ShufflePlan, Vec<Vec<Partial>>), ProvisionError> {
    let plan = make_plan(
        Strategy::AdjustedDeadline { p_miss: cfg.p_miss },
        files,
        fit,
        deadline_secs,
    )?;
    let partitioned = partitioned_partials(cfg, &plan_bins(&plan));
    let movements = movements_of(cfg, &partitioned);
    let budget = (deadline_secs - plan.predicted_makespan()).max(0.0);
    let shuffle_plan = plan_shuffle(&movements, budget, cfg.p_miss, cfg.seed);
    Ok((plan, shuffle_plan, partitioned))
}

/// The shuffle's recovery counters.
const SHUFFLE: RunKind = RunKind {
    salt: 0x0EC2_5AFF,
    transient_retries: "shuffle.transient_retries",
    crashes: "shuffle.crashes",
    preemptions: "shuffle.preemptions",
    replacements: "shuffle.replacements",
};

/// Perform one real `s3_put`/`s3_get` against the simulated store at the
/// transfer's simulated start, retrying transient injected faults with the
/// fleet's backoff step. Returns the (possibly delayed) start time.
/// Advancing the global clock to the op time is what arms time-scheduled
/// S3 fault events; the advance is monotone, so replays stay identical.
fn s3_op(
    cloud: &mut Cloud,
    fleet: &mut Fleet<'_>,
    key: &str,
    bytes: u64,
    mut not_before: f64,
    is_get: bool,
) -> Result<f64, ShuffleError> {
    let mut attempt = 0u32;
    loop {
        let t = not_before.max(cloud.now());
        if t > cloud.now() {
            cloud.advance(t - cloud.now());
        }
        let outcome = if is_get {
            cloud.s3_get(key).map(|_| ())
        } else {
            cloud.s3_put(key, bytes)
        };
        match outcome {
            Ok(()) => return Ok(t),
            Err(e) if e.is_transient() => match fleet.backoff(&mut attempt) {
                Some(delay) => not_before = t + delay,
                None => return Err(ShuffleError::Cloud(e)),
            },
            Err(e) => return Err(ShuffleError::Cloud(e)),
        }
    }
}

/// Execute a distributed aggregation over an explicit backend. The
/// differential harness uses this to force all three backends onto the
/// same corpus; [`execute_aggregation_observed`] lets the planner choose.
pub fn execute_shuffle_observed(
    cloud: &mut Cloud,
    cfg: &ShuffleConfig,
    plan: &Plan,
    backend: SharingBackend,
    obs: &Obs,
) -> Result<ShuffleReport, ShuffleError> {
    let partitioned = partitioned_partials(cfg, &plan_bins(plan));
    execute_partitioned(cloud, cfg, plan, backend, &partitioned, obs)
}

/// [`execute_shuffle_observed`] over the plan's partitioned map partials.
/// They are a pure function of (kind, corpus seed, bins), so the data
/// plane is identical however the compute attempts go.
fn execute_partitioned(
    cloud: &mut Cloud,
    cfg: &ShuffleConfig,
    plan: &Plan,
    backend: SharingBackend,
    partitioned: &[Vec<Partial>],
    obs: &Obs,
) -> Result<ShuffleReport, ShuffleError> {
    let zones = cfg.zones();
    let zone_cfg = |i: usize| ExecutionConfig {
        zone: zones[i % zones.len()],
        ..cfg.exec
    };
    let reduce_bins = cfg.reduce_bins.max(1);
    let model = TokenizeCostModel::default();
    let mut source = FreshFleet;
    let mut fleet = Fleet::new(&SHUFFLE, &cfg.retry, &mut source, obs);
    let m_count = plan.instance_count();

    let phase_start = cloud.now();
    let pipeline = obs.span_start("shuffle.pipeline", phase_start);
    // Per-map-slot (instance, ready): reducers ride on the map fleet and
    // replacements swap in place.
    let mut slots = Vec::with_capacity(m_count);
    // Per-slot horizon the release must cover beyond submitted jobs
    // (producers stay up until their last PUT lands).
    let mut put_horizon = vec![phase_start; m_count];

    // ---- Phase 1: map ----------------------------------------------------
    // Each bin is an ordinary share; an aggregation cannot drop a key
    // range, so a share that exhausts the retry policy stops the run.
    let map_span = obs.span_start("shuffle.map", phase_start);
    let mut map_finish = vec![phase_start; m_count];
    for (idx, share) in plan.instances.iter().enumerate() {
        let share_cfg = zone_cfg(idx);
        let first = fleet.acquire(cloud, &share_cfg)?;
        match fleet.run_share(cloud, &share_cfg, &model, share, first)? {
            ShareEnd::Done { report, ready, .. } => {
                map_finish[idx] = report.finished_at;
                slots.push((report.instance, ready));
            }
            ShareEnd::GaveUp { err: Some(err), .. } => return Err(ShuffleError::Cloud(err)),
            ShareEnd::GaveUp { err: None, .. } => {
                return Err(ShuffleError::SharesExhausted { share: idx })
            }
        }
    }
    let map_finish_secs = map_finish.iter().copied().fold(phase_start, f64::max);
    obs.span_end(map_span, map_finish_secs);

    // ---- Phase 2: shuffle ------------------------------------------------
    let xfer_span = obs.span_start("shuffle.xfer", map_finish_secs);
    let mut engine = TransferEngine::new(backend, cfg.seed);
    let mut get_finish = vec![map_finish_secs; reduce_bins];
    for mv in movements_of(cfg, partitioned) {
        let (m, r, bytes) = (mv.producer, mv.reducer, mv.bytes);
        let mut put_nb = map_finish[m];
        if backend == SharingBackend::S3 {
            put_nb = s3_op(cloud, &mut fleet, &mv.key, bytes, put_nb, false)?;
        }
        let put = engine.transfer(&TransferRequest {
            key: mv.key.clone(),
            bytes,
            src_zone: mv.src_zone,
            dst_zone: mv.dst_zone,
            not_before: put_nb,
            is_get: false,
        });
        obs.transfer(
            backend.label(),
            &mv.key,
            bytes,
            put.started_at,
            put.finished_at - put.started_at,
        );
        obs.count("shuffle.bytes_moved", bytes);
        put_horizon[m] = put_horizon[m].max(put.finished_at);
        let mut get_nb = put.finished_at;
        if backend == SharingBackend::S3 {
            get_nb = s3_op(cloud, &mut fleet, &mv.key, bytes, get_nb, true)?;
        }
        let get = engine.transfer(&TransferRequest {
            key: mv.key,
            bytes,
            src_zone: mv.dst_zone,
            dst_zone: mv.dst_zone,
            not_before: get_nb,
            is_get: true,
        });
        obs.transfer(
            backend.label(),
            &get.key,
            bytes,
            get.started_at,
            get.finished_at - get.started_at,
        );
        obs.count("shuffle.bytes_moved", bytes);
        get_finish[r] = get_finish[r].max(get.finished_at);
    }
    let shuffle_finish_secs = engine.horizon().max(map_finish_secs);
    obs.span_end(xfer_span, shuffle_finish_secs);

    // ---- Phase 3: reduce -------------------------------------------------
    let reduce_span = obs.span_start("shuffle.reduce", shuffle_finish_secs);
    let mut reduce_outputs = Vec::with_capacity(reduce_bins);
    let mut result = Partial::new();
    let mut last_finish = shuffle_finish_secs;
    for r in 0..reduce_bins {
        let mut merged = Partial::new();
        for parts in partitioned {
            merge_partials(cfg.kind, &mut merged, &parts[r]);
        }
        if m_count > 0 && !merged.is_empty() {
            let slot = r % m_count;
            let spec = [FileSpec::new(r as u64, partial_bytes(&merged).max(1))];
            let mut used = 0u32;
            loop {
                let (inst, ready) = slots[slot];
                let nb = get_finish[r].max(ready);
                let err = match cloud.submit_job(inst, &model, &spec, DataLocation::Local, nb) {
                    Ok(rep) => {
                        last_finish = last_finish.max(rep.finished_at);
                        break;
                    }
                    Err(e) if e.is_instance_loss() => e,
                    Err(e) => return Err(ShuffleError::Cloud(e)),
                };
                match fleet.replace(cloud, &zone_cfg(r), slots[slot], &err, nb, &mut used)? {
                    (_, Some(next)) => slots[slot] = next,
                    (_, None) => return Err(ShuffleError::SharesExhausted { share: m_count + r }),
                }
            }
        }
        merge_partials(cfg.kind, &mut result, &merged);
        reduce_outputs.push(render(&merged));
    }
    obs.span_end(reduce_span, last_finish);

    // Release the fleet: each instance is held through its own busy
    // horizon and any PUT it still had in flight.
    for (&(inst, ready), &put_done) in slots.iter().zip(&put_horizon) {
        let busy = cloud.busy_until(inst)?;
        fleet.release(cloud, inst, ready, busy.max(put_done).max(ready))?;
    }

    let makespan_secs = last_finish - phase_start;
    obs.count("shuffle.transfers", engine.transfers as u64);
    obs.count("shuffle.instance_hours", fleet.hours);
    obs.gauge("shuffle.makespan_secs", makespan_secs);
    obs.span_end(pipeline, last_finish);

    Ok(ShuffleReport {
        backend,
        map_shares: m_count,
        reduce_bins,
        deadline_secs: plan.deadline_secs,
        map_finish_secs,
        shuffle_finish_secs,
        makespan_secs,
        bytes_shuffled: engine.bytes_moved,
        transfers: engine.transfers,
        transient_retries: fleet.transient_retries,
        crashes: fleet.crashes,
        preemptions: fleet.preemptions,
        replacements: fleet.replacements,
        instance_hours: fleet.hours,
        compute_cost: fleet.hours as f64 * cfg.exec.hourly_rate(),
        transfer_cost: engine.total_cost(),
        reduce_outputs,
        result,
    })
}

/// The full pipeline: plan compute and shuffle, then execute map, shuffle
/// and reduce on the planner-chosen backend.
pub fn execute_aggregation_observed(
    cloud: &mut Cloud,
    cfg: &ShuffleConfig,
    files: &[FileSpec],
    fit: &Fit,
    deadline_secs: f64,
    obs: &Obs,
) -> Result<AggregationReport, ShuffleError> {
    let (plan, shuffle_plan, partitioned) = plan_with_partials(cfg, files, fit, deadline_secs)?;
    let exec = execute_partitioned(cloud, cfg, &plan, shuffle_plan.backend, &partitioned, obs)?;
    Ok(AggregationReport {
        plan: shuffle_plan,
        exec,
    })
}

/// [`execute_aggregation_observed`] without an observability sink.
pub fn execute_aggregation(
    cloud: &mut Cloud,
    cfg: &ShuffleConfig,
    files: &[FileSpec],
    fit: &Fit,
    deadline_secs: f64,
) -> Result<AggregationReport, ShuffleError> {
    execute_aggregation_observed(cloud, cfg, files, fit, deadline_secs, &Obs::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2sim::{CloudConfig, FaultEvent, FaultKind, FaultPlan};
    use perfmodel::fit as fit_model;
    use textapps::aggregate::oracle;

    fn zone() -> AvailabilityZone {
        AvailabilityZone::us_east_1a()
    }

    fn mv(key: &str, bytes: u64) -> ShuffleMovement {
        ShuffleMovement {
            key: key.to_string(),
            bytes,
            producer: 0,
            reducer: 0,
            src_zone: zone(),
            dst_zone: zone(),
        }
    }

    /// The strategy-test compute model: ~1 s per MB with ±2 % wobble.
    fn compute_fit() -> Fit {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1.0e6).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(k, &x)| 1.0e-6 * x * (1.0 + 0.02 * if k % 2 == 0 { 1.0 } else { -1.0 }))
            .collect();
        fit_model(ModelKind::Affine, &xs, &ys)
    }

    fn small_corpus(n: u64) -> Vec<FileSpec> {
        (0..n).map(|i| FileSpec::new(i, 2_000 + 137 * i)).collect()
    }

    #[test]
    fn loose_budget_prefers_free_ebs_handoff() {
        let movements: Vec<ShuffleMovement> =
            (0..20).map(|i| mv(&format!("p{i}"), 5_000_000)).collect();
        let plan = plan_shuffle(&movements, 100_000.0, 0.1, 7);
        assert_eq!(plan.backend, SharingBackend::EbsLocal, "{plan:?}");
        let ebs = &plan.evaluations[1];
        assert!(ebs.feasible);
        assert_eq!(ebs.transfer_cost, 0.0);
    }

    #[test]
    fn tight_budget_forces_parallel_s3() {
        let movements: Vec<ShuffleMovement> =
            (0..20).map(|i| mv(&format!("p{i}"), 5_000_000)).collect();
        let plan = plan_shuffle(&movements, 1.0, 0.1, 7);
        assert_eq!(plan.backend, SharingBackend::S3, "{plan:?}");
        assert!(!plan.evaluations[1].feasible, "EBS cannot serialize in 1 s");
    }

    #[test]
    fn many_small_objects_make_sharedfs_cheapest() {
        // 10k tiny objects: S3 pays ~$0.11 of request costs, the shared
        // filesystem one server-hour ($0.085), EBS cannot serialize them.
        let movements: Vec<ShuffleMovement> =
            (0..10_000).map(|i| mv(&format!("p{i}"), 2_048)).collect();
        let plan = plan_shuffle(&movements, 60.0, 0.1, 7);
        assert_eq!(plan.backend, SharingBackend::SharedFs, "{plan:?}");
        let s3 = &plan.evaluations[0];
        assert!(s3.feasible && s3.transfer_cost > 0.085, "{s3:?}");
    }

    #[test]
    fn infeasible_everywhere_falls_back_to_fastest() {
        let movements: Vec<ShuffleMovement> =
            (0..100).map(|i| mv(&format!("p{i}"), 50_000_000)).collect();
        let plan = plan_shuffle(&movements, 0.0, 0.1, 7);
        assert!(plan.evaluations.iter().all(|e| !e.feasible));
        assert_eq!(plan.backend, SharingBackend::S3, "unbounded S3 is fastest");
    }

    #[test]
    fn empty_movement_set_is_trivially_feasible() {
        let plan = plan_shuffle(&[], 10.0, 0.1, 7);
        assert_eq!(plan.movements, 0);
        assert_eq!(plan.movement_bytes, 0);
        assert!(plan.evaluations.iter().any(|e| e.feasible));
    }

    #[test]
    fn map_partials_equal_the_per_bin_oracle() {
        let mut odd = small_corpus(12);
        for (i, f) in odd.iter_mut().enumerate() {
            f.complexity = 0.5 + 0.25 * i as f64;
        }
        let bins = vec![
            odd[..5].to_vec(),
            Vec::new(),
            odd[5..].to_vec(),
            small_corpus(1),
        ];
        for kind in [AggKind::TermCount, AggKind::Dedup] {
            for seed in [0, 42] {
                let expected: Vec<Partial> = bins.iter().map(|b| oracle(kind, seed, b)).collect();
                assert_eq!(
                    map_partials(kind, seed, &bins),
                    expected,
                    "{kind:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn movements_enumerate_nonempty_pairs_in_order() {
        let cfg = ShuffleConfig {
            reduce_bins: 3,
            ..ShuffleConfig::default()
        };
        let bins = vec![small_corpus(3), small_corpus(2)];
        let movements = shuffle_movements(&cfg, &bins);
        assert!(!movements.is_empty());
        for w in movements.windows(2) {
            assert!(
                (w[0].producer, w[0].reducer) < (w[1].producer, w[1].reducer),
                "movement order must be (m, r)-sorted"
            );
        }
        assert!(movements.iter().all(|m| m.bytes > 0));
        assert!(movements
            .iter()
            .all(|m| m.key.starts_with("shuffle/term_count/")));
    }

    #[test]
    fn every_backend_reproduces_the_oracle_bit_for_bit() {
        let files = small_corpus(8);
        let fit = compute_fit();
        let cfg = ShuffleConfig::default();
        let expected = render(&oracle(cfg.kind, cfg.corpus_seed, &files));
        let plan = make_plan(Strategy::UniformBins, &files, &fit, 10.0).unwrap();
        for backend in SharingBackend::ALL {
            let mut cloud = Cloud::new(CloudConfig::default());
            let report =
                execute_shuffle_observed(&mut cloud, &cfg, &plan, backend, &Obs::default())
                    .unwrap();
            assert_eq!(report.output(), expected, "{backend:?} diverged");
            assert!(report.bytes_shuffled > 0);
            assert!(report.transfers > 0);
            assert_eq!(report.reduce_outputs.len(), cfg.reduce_bins);
            assert!(report.makespan_secs >= report.shuffle_finish_secs - 1e-9);
        }
    }

    #[test]
    fn planner_end_to_end_picks_a_backend_and_matches_oracle() {
        let files = small_corpus(10);
        let fit = compute_fit();
        let cfg = ShuffleConfig {
            kind: AggKind::Dedup,
            ..ShuffleConfig::default()
        };
        let mut cloud = Cloud::new(CloudConfig::default());
        let agg = execute_aggregation(&mut cloud, &cfg, &files, &fit, 60.0).unwrap();
        assert_eq!(agg.plan.evaluations.len(), 3);
        assert_eq!(agg.exec.backend, agg.plan.backend);
        let expected = render(&oracle(cfg.kind, cfg.corpus_seed, &files));
        assert_eq!(agg.exec.output(), expected);
        assert!(agg.exec.total_cost() > 0.0);
    }

    #[test]
    fn injected_s3_transients_are_retried_without_corrupting_output() {
        let files = small_corpus(6);
        let fit = compute_fit();
        let cfg = ShuffleConfig::default();
        let expected = render(&oracle(cfg.kind, cfg.corpus_seed, &files));
        let plan = make_plan(Strategy::UniformBins, &files, &fit, 10.0).unwrap();
        let faults = FaultPlan::scripted(vec![
            FaultEvent {
                at: 0.0,
                instance: None,
                volume: None,
                kind: FaultKind::S3TransientPut,
            },
            FaultEvent {
                at: 0.0,
                instance: None,
                volume: None,
                kind: FaultKind::S3TransientGet,
            },
        ]);
        let mut cloud = Cloud::with_faults(CloudConfig::default(), &faults);
        let report =
            execute_shuffle_observed(&mut cloud, &cfg, &plan, SharingBackend::S3, &Obs::default())
                .unwrap();
        assert!(
            report.transient_retries >= 2,
            "{}",
            report.transient_retries
        );
        assert_eq!(report.output(), expected);
    }

    #[test]
    fn same_seed_same_report() {
        let files = small_corpus(7);
        let fit = compute_fit();
        let cfg = ShuffleConfig::default();
        let run = || {
            let mut cloud = Cloud::new(CloudConfig::default());
            execute_aggregation(&mut cloud, &cfg, &files, &fit, 30.0).unwrap()
        };
        assert_eq!(run(), run());
    }
}
