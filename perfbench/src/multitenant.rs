//! `multitenant_trace`: a seeded open-loop arrival trace through
//! `sched::run_trace` on a shared warm pool with the instance-family
//! catalog, then `obs::Obs::to_ndjson` — the event log is part of the
//! product, so serialising it is part of the unit of work.

use crate::{fnv1a, Layers, Outcome, Tracer, Workload};
use ec2sim::{CloudConfig, InstanceFamily};
use obs::Obs;
use provision::{ExecutionConfig, StagingTier};
use sched::{
    admit, run_trace, ArrivalTrace, JobStatus, PoolConfig, SchedConfig, SchedReport, TraceConfig,
};

/// Jobs in the full-scale trace.
const JOBS: usize = 20_000;

pub struct SchedBench {
    cfg: SchedConfig,
    trace: ArrivalTrace,
    seed: u64,
    /// The last checked report and its log's (fingerprint, length).
    last: Option<(SchedReport, u64, usize)>,
}

pub fn multitenant_trace(seed: u64, scale: f64) -> SchedBench {
    let trace = TraceConfig {
        jobs: ((JOBS as f64 * scale).round() as usize).max(2),
        // At this gap the 48-instance pool keeps up with Poisson arrivals
        // that do not slow down when it saturates.
        mean_interarrival_secs: 400.0,
        seed,
        ..TraceConfig::default()
    }
    .generate();
    let cfg = SchedConfig {
        cloud: CloudConfig {
            homogeneous: true,
            ..CloudConfig::default()
        },
        pool: PoolConfig {
            capacity: 48,
            warm_reuse: true,
        },
        exec: ExecutionConfig {
            staging: StagingTier::Local,
            ..ExecutionConfig::default()
        },
        catalog: Some(InstanceFamily::catalog()),
        ..SchedConfig::default()
    };
    SchedBench {
        cfg,
        trace,
        seed,
        last: None,
    }
}

impl SchedBench {
    fn recording_config(&self) -> (SchedConfig, Obs) {
        let obs = Obs::recording(self.seed);
        let cfg = SchedConfig {
            obs: obs.clone(),
            ..self.cfg.clone()
        };
        (cfg, obs)
    }
}

impl Workload for SchedBench {
    type Output = (SchedReport, String);

    fn run(&self) -> Result<(SchedReport, String), String> {
        let (cfg, obs) = self.recording_config();
        let report = run_trace(&cfg, &self.trace).map_err(|e| e.to_string())?;
        Ok((report, obs.to_ndjson()))
    }

    fn check(&mut self, (report, log): (SchedReport, String)) -> Result<Outcome, String> {
        let (hash, len) = (fnv1a(log.as_bytes()), log.len());
        drop(log);
        if let Some((prev, prev_hash, prev_len)) = &self.last {
            if *prev != report || (*prev_hash, *prev_len) != (hash, len) {
                return Err("same-seed iterations gave different reports or logs".into());
            }
        }
        if report.jobs.len() != self.trace.jobs.len() {
            return Err(format!(
                "{} jobs submitted, {} reported",
                self.trace.jobs.len(),
                report.jobs.len()
            ));
        }
        // Billed hours reconcile exactly at every level of attribution;
        // dollars to float rounding.
        let total_h = report.total_billed_hours;
        let hours = [
            (
                "jobs",
                report.jobs.iter().map(|j| j.billed_hours).sum::<u64>(),
            ),
            (
                "tenants",
                report.tenants.iter().map(|t| t.billed_hours).sum(),
            ),
            (
                "families",
                report.families.iter().map(|f| f.billed_hours).sum(),
            ),
            ("pool", report.pool.billed_hours),
        ];
        if let Some((level, h)) = hours.iter().find(|(_, h)| *h != total_h) {
            return Err(format!("{level} bill {h} h, the total is {total_h} h"));
        }
        let total_usd = report.total_cost;
        let dollars = [
            ("jobs", report.jobs.iter().map(|j| j.cost).sum::<f64>()),
            ("tenants", report.tenants.iter().map(|t| t.cost).sum()),
            ("families", report.families.iter().map(|f| f.cost).sum()),
        ];
        if let Some((level, usd)) = dollars
            .iter()
            .find(|(_, usd)| (usd - total_usd).abs() > 1e-9 * total_usd.abs().max(1.0))
        {
            return Err(format!("{level} bill ${usd}, the total is ${total_usd}"));
        }
        if report
            .jobs
            .iter()
            .zip(&self.trace.jobs)
            .any(|(o, j)| o.job_id != j.id)
        {
            return Err("job outcomes are not in trace order".into());
        }
        // A refused job counts as late.
        let late = report
            .jobs
            .iter()
            .zip(&self.trace.jobs)
            .filter(|(o, j)| {
                o.status == JobStatus::Rejected || o.finished_at > j.absolute_deadline()
            })
            .count();
        let outcome = Outcome {
            sim_cost_usd: report.total_cost,
            sim_makespan_s: report.makespan_secs,
            sim_miss_rate: late as f64 / report.jobs.len() as f64,
        };
        self.last = Some((report, hash, len));
        Ok(outcome)
    }

    fn traced(&mut self, t: &mut Tracer) -> Result<Layers, String> {
        let mut layers = Layers::new();
        let (cfg, obs) = self.recording_config();
        let root = t.open("sched", None);
        let report = t
            .call("sched.run", root, || run_trace(&cfg, &self.trace))
            .map_err(|e| e.to_string())?;
        let log = t.call("obs.ndjson", root, || obs.to_ndjson());
        t.close(root);

        let (last, last_hash, last_len) = self.last.as_ref().ok_or("no untraced report")?;
        if *last != report || (*last_hash, *last_len) != (fnv1a(log.as_bytes()), log.len()) {
            return Err("the traced run diverged from the untraced scheduler run".into());
        }

        // Admission and family re-planning run inside the event loop; replay
        // them over the same jobs.
        let capacity = cfg.pool.capacity;
        t.replay("sched.admit", || {
            for job in &self.trace.jobs {
                std::hint::black_box(admit(job, cfg.fits.for_kind(job.app), cfg.p_miss, capacity));
            }
        });
        let catalog = cfg.catalog.as_deref().unwrap_or_default();
        t.replay("market.plan", || {
            for job in &self.trace.jobs {
                let fit = cfg.fits.for_kind(job.app);
                for fam in catalog {
                    std::hint::black_box(market::plan_on_family(
                        &job.files,
                        fit,
                        fam,
                        job.deadline_secs,
                        cfg.p_miss,
                    ))
                    .ok();
                }
            }
        });

        let pool = report.pool;
        let mut waits: Vec<f64> = report
            .jobs
            .iter()
            .filter(|j| j.status != JobStatus::Rejected)
            .map(|j| j.wait_secs)
            .collect();
        waits.sort_by(f64::total_cmp);
        let p90 = waits
            .get((waits.len() * 9 / 10).min(waits.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0.0);
        let reuse = (pool.warm_hits + pool.cold_launches).max(1) as f64;
        for (name, value) in [
            ("sched.jobs", report.jobs.len() as f64),
            ("sched.rejected", report.rejected as f64),
            (
                "sched.deferrals",
                report.jobs.iter().map(|j| j.deferrals).sum::<u64>() as f64,
            ),
            ("sched.warm_hit_ratio", pool.warm_hits as f64 / reuse),
            ("sched.wait_p90_s", p90),
            ("obs.events", obs.event_count() as f64),
            ("obs.log_bytes", log.len() as f64),
        ] {
            layers.insert(name.into(), value);
        }
        Ok(layers)
    }

    fn corpus(&self) -> (u64, u64) {
        let jobs = &self.trace.jobs;
        (
            jobs.iter().map(|j| j.files.len() as u64).sum(),
            jobs.iter().map(|j| j.volume()).sum(),
        )
    }
}
