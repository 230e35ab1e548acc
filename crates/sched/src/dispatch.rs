//! The EDF/priority dispatcher: a discrete-event loop over arrivals and
//! job completions on the shared simulated clock.
//!
//! At every event the dispatcher (1) expires warm instances whose paid
//! hour ran out, (2) admits jobs arriving at that instant, then (3)
//! dispatches from the queue in priority order, earliest absolute
//! deadline first. The head of the feasible line blocks on pool capacity
//! (no backfill — a large job cannot be starved by a stream of small
//! ones), but tenants at their in-flight quota are skipped so one noisy
//! tenant cannot wedge the fleet.
//!
//! A job's plan is built when it dispatches, once: with a family catalog
//! it is the plan of the cheapest family whose fleet fits the free pool
//! ([`market::cheapest_family_plan`]); otherwise, or when no family fits,
//! it is the plan of the base fit at the sizing admission priced.
//!
//! Dispatched jobs run through
//! [`provision::execute_plan_resilient_sourced`] with the shared
//! [`InstancePool`] as their fleet source: faults and preemptions requeue
//! bins exactly as in the single-tenant executor, and each share pays
//! only the marginal hours it adds to the instance it landed on.

use crate::admission::{admit_sized, Admission, DeferReason};
use crate::job::{AppFits, ArrivalTrace};
use crate::pool::{InstancePool, PoolConfig};
use crate::report::{JobOutcome, JobStatus, SchedReport, TenantAccount};
use ec2sim::{Cloud, CloudConfig, CloudError, FaultConfig, FaultPlan, InstanceFamily};
use obs::Obs;
use provision::{execute_plan_resilient_sourced, ExecutionConfig, RetryPolicy, Sizing};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Everything a scheduling run needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedConfig {
    /// The simulated cloud.
    pub cloud: CloudConfig,
    /// Pool sizing and warm-reuse policy.
    pub pool: PoolConfig,
    /// How shares execute (staging tier, screening, pricing).
    pub exec: ExecutionConfig,
    /// Fault retry/backoff policy; each job gets an independent jitter
    /// stream derived from `retry.seed` and its job id.
    pub retry: RetryPolicy,
    /// Fitted models per application.
    pub fits: AppFits,
    /// Target miss probability for the adjusted deadline (paper §5.2).
    pub p_miss: f64,
    /// Maximum concurrently running jobs per tenant.
    pub tenant_inflight_cap: usize,
    /// Instance-family catalog. When set, each dispatched job runs the plan
    /// of the cheapest family whose fleet fits the pool's free capacity
    /// (warm reuse stays family-exact), or the base fit's plan when no
    /// family's fits; `None` keeps the classic single-type fleet
    /// bit-for-bit.
    pub catalog: Option<Vec<InstanceFamily>>,
    /// Injected fault schedule (None ⇒ fault-free).
    pub faults: Option<FaultConfig>,
    /// Observability sink; a recording sink yields a byte-identical
    /// NDJSON log for the same seed and trace.
    pub obs: Obs,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            cloud: CloudConfig::default(),
            pool: PoolConfig::default(),
            exec: ExecutionConfig::default(),
            retry: RetryPolicy::default(),
            fits: AppFits::default(),
            p_miss: 0.05,
            tenant_inflight_cap: 4,
            catalog: None,
            faults: None,
            obs: Obs::default(),
        }
    }
}

/// A scheduling run failed outright (job-level failures are outcomes, not
/// errors).
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// The simulated cloud failed in a way the executor cannot absorb.
    Cloud(CloudError),
    /// The event loop ran out of events with jobs still queued — a
    /// scheduler invariant violation (admission must guarantee every
    /// queued job eventually fits an empty pool).
    Stalled {
        /// Jobs still waiting.
        pending: usize,
    },
}

impl From<CloudError> for SchedError {
    fn from(e: CloudError) -> Self {
        SchedError::Cloud(e)
    }
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Cloud(e) => write!(f, "cloud error during scheduling: {e}"),
            SchedError::Stalled { pending } => {
                write!(f, "scheduler stalled with {pending} jobs queued")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// Total order on event times (`f64::total_cmp`; times are finite).
#[derive(Debug, Clone, Copy, PartialEq)]
struct EventTime(f64);

impl Eq for EventTime {}

impl PartialOrd for EventTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// An admitted job waiting to dispatch.
struct Queued {
    idx: usize,
    /// The fleet admission sized on the base fit.
    sizing: Sizing,
    instances: usize,
    admission: Admission,
    deferrals: u64,
    last_defer: Option<DeferReason>,
}

/// Run a full trace: admission at arrival, EDF/priority dispatch over the
/// shared pool, per-tenant accounting. Deterministic: the same config and
/// trace produce a `PartialEq`-equal report and (with a recording [`Obs`])
/// a byte-identical event log.
pub fn run_trace(cfg: &SchedConfig, trace: &ArrivalTrace) -> Result<SchedReport, SchedError> {
    let mut cloud = match &cfg.faults {
        Some(fc) => Cloud::with_faults(cfg.cloud, &FaultPlan::generate(cfg.cloud.seed, fc)),
        None => Cloud::new(cfg.cloud),
    };
    cloud.set_obs(cfg.obs.clone());
    let obs = &cfg.obs;
    let run_span = obs.span_start("sched.run", cloud.now());
    let mut pool = InstancePool::new(cfg.pool, obs.clone());

    let n = trace.jobs.len();
    let mut outcomes: Vec<Option<JobOutcome>> = (0..n).map(|_| None).collect();
    let mut pending: Vec<Queued> = Vec::new();
    // (finish, tenant) of running jobs; inflight counts per tenant.
    let mut running: Vec<(f64, u32)> = Vec::new();
    let mut inflight: BTreeMap<u32, usize> = BTreeMap::new();
    let mut completions: BTreeSet<EventTime> = BTreeSet::new();
    let mut arrival_ix = 0usize;
    let mut makespan = 0.0f64;

    loop {
        let next_arrival = trace.jobs.get(arrival_ix).map(|j| j.arrival_secs);
        let next_completion = completions.first().map(|e| e.0);
        let t = match (next_arrival, next_completion) {
            (Some(a), Some(c)) => a.min(c),
            (Some(a), None) => a,
            (None, Some(c)) => c,
            (None, None) => {
                if pending.is_empty() {
                    break;
                }
                // No future events but jobs still queued: dispatch at the
                // current instant (the pool is necessarily all-free).
                cloud.now()
            }
        };
        let dt = t - cloud.now();
        if dt > 0.0 {
            cloud.advance(dt);
        }

        // 1. Completions free tenant quota (pool slots free themselves by
        //    `free_at`); 2. expire warm instances whose hour ran out.
        while completions.first().is_some_and(|e| e.0 <= t) {
            completions.pop_first();
        }
        running.retain(|&(finish, tenant)| {
            if finish <= t {
                if let Some(c) = inflight.get_mut(&tenant) {
                    *c = c.saturating_sub(1);
                }
                false
            } else {
                true
            }
        });
        pool.expire_until(&mut cloud, t)?;

        // 3. Admit everything arriving at this instant.
        while let Some(job) = trace.jobs.get(arrival_ix) {
            if job.arrival_secs > t {
                break;
            }
            obs.count("sched.arrivals", 1);
            let fit = cfg.fits.for_kind(job.app);
            let (admission, sizing) = admit_sized(job, fit, cfg.p_miss, pool.capacity());
            match (sizing, admission) {
                (Some(sizing), admission @ Admission::Accepted { instances, .. }) => {
                    obs.count("sched.admitted", 1);
                    pending.push(Queued {
                        idx: arrival_ix,
                        sizing,
                        instances,
                        admission,
                        deferrals: 0,
                        last_defer: None,
                    });
                }
                (_, admission) => {
                    obs.count("sched.rejected", 1);
                    outcomes[arrival_ix] = Some(JobOutcome {
                        job_id: job.id,
                        tenant: job.tenant,
                        admission,
                        status: JobStatus::Rejected,
                        deferrals: 0,
                        last_defer: None,
                        wait_secs: 0.0,
                        finished_at: job.arrival_secs,
                        met_deadline: false,
                        family: None,
                        billed_hours: 0,
                        cost: 0.0,
                        busy_secs: 0.0,
                        lost_bytes: job.volume(),
                    });
                }
            }
            arrival_ix += 1;
        }

        // 4. Dispatch: priority desc, absolute deadline asc (EDF), id asc.
        pending.sort_by(|a, b| {
            let (ja, jb) = (&trace.jobs[a.idx], &trace.jobs[b.idx]);
            jb.priority
                .cmp(&ja.priority)
                .then(ja.absolute_deadline().total_cmp(&jb.absolute_deadline()))
                .then(ja.id.cmp(&jb.id))
        });
        let mut dispatched_any = false;
        loop {
            let mut chosen = None;
            for (qi, q) in pending.iter_mut().enumerate() {
                let job = &trace.jobs[q.idx];
                let tenant_running = inflight.get(&job.tenant.0).copied().unwrap_or(0);
                if tenant_running >= cfg.tenant_inflight_cap {
                    // Quota, not capacity: skip this tenant's job and let
                    // the next tenant through.
                    q.deferrals += 1;
                    q.last_defer = Some(DeferReason::TenantBusy {
                        inflight: tenant_running,
                        cap: cfg.tenant_inflight_cap,
                    });
                    obs.count("sched.deferrals", 1);
                    continue;
                }
                let free = pool.free_capacity(t);
                if q.instances > free {
                    // Head-of-line blocking on capacity: no backfill.
                    q.deferrals += 1;
                    q.last_defer = Some(DeferReason::PoolSaturated {
                        needed: q.instances,
                        free,
                    });
                    obs.count("sched.deferrals", 1);
                    break;
                }
                chosen = Some(qi);
                break;
            }
            let Some(qi) = chosen else { break };
            let q = pending.remove(qi);
            let job = &trace.jobs[q.idx];
            dispatched_any = true;

            // The one plan this job runs: on the cheapest family whose
            // fleet fits the pool right now, else on the base fit at the
            // sizing admission priced.
            let fit = cfg.fits.for_kind(job.app);
            let chosen = cfg.catalog.as_deref().and_then(|catalog| {
                let free = pool.free_capacity(t);
                market::cheapest_family_plan(
                    &job.files,
                    fit,
                    catalog,
                    job.deadline_secs,
                    cfg.p_miss,
                    free,
                )
            });
            let (plan, exec_cfg, family) = match chosen {
                Some((fam, plan)) => {
                    obs.market(
                        fam.id.label(),
                        "allocate",
                        "on_demand",
                        t,
                        plan.instance_count() as u64,
                        0.0,
                    );
                    let exec_cfg = ExecutionConfig {
                        itype: fam.itype,
                        family: Some(*fam),
                        ..cfg.exec
                    };
                    (plan, exec_cfg, Some(fam.id))
                }
                None => (q.sizing.plan(&job.files, fit), cfg.exec, None),
            };

            obs.count("sched.dispatched", 1);
            let span = obs.span_start("sched.job", t);
            let retry = RetryPolicy {
                seed: cfg.retry.seed ^ job.id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..cfg.retry
            };
            let model = job.cost_model();
            let degraded = execute_plan_resilient_sourced(
                &mut cloud,
                &plan,
                model.as_ref(),
                &exec_cfg,
                &retry,
                &mut pool,
                obs,
            )?;
            let finish = degraded.finished_at;
            obs.span_end(span, finish);
            let wait = (t - job.arrival_secs).max(0.0);
            obs.observe("sched.wait_secs", wait);
            let met = degraded.failed_shares.is_empty() && finish <= job.absolute_deadline();
            if !met {
                obs.count("sched.misses", 1);
            }
            makespan = makespan.max(finish);
            outcomes[q.idx] = Some(JobOutcome {
                job_id: job.id,
                tenant: job.tenant,
                admission: q.admission,
                status: if degraded.failed_shares.is_empty() {
                    JobStatus::Completed
                } else {
                    JobStatus::Degraded
                },
                deferrals: q.deferrals,
                last_defer: q.last_defer,
                wait_secs: wait,
                finished_at: finish,
                met_deadline: met,
                family,
                billed_hours: degraded.execution.instance_hours,
                cost: degraded.execution.cost,
                busy_secs: degraded.execution.runs.iter().map(|r| r.job_secs).sum(),
                lost_bytes: degraded.lost_bytes,
            });
            if finish > t {
                running.push((finish, job.tenant.0));
                *inflight.entry(job.tenant.0).or_insert(0) += 1;
                completions.insert(EventTime(finish));
            }
        }

        // Backstop: with no events left and nothing dispatchable, the
        // loop would spin forever. Admission guarantees this is
        // unreachable (every admitted fleet fits an empty pool).
        if next_arrival.is_none()
            && next_completion.is_none()
            && !dispatched_any
            && !pending.is_empty()
        {
            return Err(SchedError::Stalled {
                pending: pending.len(),
            });
        }
    }

    pool.drain(&mut cloud)?;
    obs.gauge("sched.makespan_secs", makespan);
    obs.span_end(run_span, makespan);

    // Aggregate per-tenant accounts.
    let mut tenants: BTreeMap<u32, TenantAccount> = BTreeMap::new();
    let mut jobs = Vec::with_capacity(n);
    let (mut completed, mut rejected, mut missed) = (0usize, 0usize, 0usize);
    let mut total_billed = 0u64;
    let mut total_cost = 0.0f64;
    for (idx, outcome) in outcomes.into_iter().enumerate() {
        let Some(outcome) = outcome else {
            return Err(SchedError::Stalled { pending: n - idx });
        };
        let job = &trace.jobs[idx];
        let acct = tenants
            .entry(outcome.tenant.0)
            .or_insert_with(|| TenantAccount::new(outcome.tenant));
        acct.submitted += 1;
        acct.deferrals += outcome.deferrals;
        match outcome.status {
            JobStatus::Rejected => {
                acct.rejected += 1;
                rejected += 1;
            }
            JobStatus::Completed | JobStatus::Degraded => {
                acct.completed += 1;
                completed += 1;
                if !outcome.met_deadline {
                    acct.misses += 1;
                    missed += 1;
                }
                acct.billed_hours += outcome.billed_hours;
                acct.cost += outcome.cost;
                acct.busy_secs += outcome.busy_secs;
                acct.wait_secs += outcome.wait_secs;
                acct.bytes += job.volume() - outcome.lost_bytes;
                total_billed += outcome.billed_hours;
                total_cost += outcome.cost;
            }
        }
        jobs.push(outcome);
    }

    Ok(SchedReport {
        jobs,
        tenants: tenants.into_values().collect(),
        pool: pool.stats(),
        families: pool.family_usage(),
        total_billed_hours: total_billed,
        total_cost,
        makespan_secs: makespan,
        completed,
        rejected,
        missed,
    })
}
