//! Static provisioning under deadline and cost constraints (paper §5),
//! plus the dynamic-rescheduling and instance-switching extensions (§3.1,
//! §7).
//!
//! Given a fitted performance model `f`, a total volume `V` and a user
//! deadline `D`, the planner:
//!
//! 1. inverts the model: `x₀ = f⁻¹(D)` is the volume one instance can
//!    process by the deadline;
//! 2. prescribes `i = ⌈V / ⌊x₀⌋⌉` instances;
//! 3. splits the data into per-instance bins — capacity-driven in-order
//!    first fit (Fig 8(a)), or uniformly balanced at `V/i` (Fig 8(b));
//! 4. optionally schedules against the *adjusted deadline* `D/(1+a)` to
//!    bound the miss probability (Fig 8(d), Fig 9(c));
//! 5. executes the plan on the simulated cloud, one instance per bin, and
//!    reports per-instance times, misses, instance-hours and dollars.
//!    Every share runs through one share attempt that also recovers from
//!    injected faults (backoff on transient errors, whole-bin requeue on
//!    instance loss), so the static and resilient executors are one path.

#![forbid(unsafe_code)]

pub mod budget;
pub mod dynamic;
pub mod error;
pub mod executor;
pub mod montecarlo;
pub mod plan;
pub mod pricing;
pub mod quality_aware;
pub mod shuffle;
pub mod strategy;
pub mod switching;
pub mod workflow;

pub use budget::{plan_within_budget, BudgetPlan};
pub use dynamic::{execute_dynamic, DynamicConfig, DynamicError, DynamicReport};
pub use error::ProvisionError;
pub use executor::{
    acquire_instance, execute_plan, execute_plan_observed, execute_plan_resilient,
    execute_plan_resilient_sourced, DegradedReport, ExecutionConfig, ExecutionReport, FleetSource,
    FreshFleet, InstanceRun, RetryPolicy, StagingTier,
};
pub use montecarlo::{evaluate_plan, PlanDistribution};
pub use plan::{InstancePlan, Plan};
pub use pricing::{cost_for_deadline, instance_hours, PricingModel};
pub use quality_aware::{execute_quality_aware, QualityAwareConfig, QualityAwareReport};
pub use shuffle::{
    execute_aggregation_observed, execute_shuffle_observed, map_partials, plan_aggregation,
    plan_shuffle, shuffle_movements, AggregationReport, BackendEvaluation, ShuffleConfig,
    ShuffleError, ShuffleMovement, ShufflePlan, ShuffleReport,
};
pub use strategy::{make_plan, Sizing, Strategy};
pub use switching::{switch_analysis, SwitchAnalysis};
pub use workflow::{schedule_workflow, Stage, StagePlan, WorkflowError, WorkflowSchedule};
