//! A deterministic EC2-like cloud simulator.
//!
//! The paper's algorithms never inspect EC2 internals — they observe
//! *runtimes* and *costs*. This crate synthesizes those observations with
//! the statistical structure the paper (and the work it cites) reports:
//!
//! * **instance lifecycle** — pending → running → shutting-down →
//!   terminated, with a startup latency of a few minutes (§3.1 budgets
//!   "a penalty of 3 min for the new instance startup");
//! * **flat-rate billing** — `$0.085–0.10` per *started* hour per instance,
//!   pending/terminated time free (§1.1);
//! * **instance heterogeneity** — most instances are good (60+ MB/s block
//!   I/O), a fraction is consistently slow (CPU/I/O down to ~4× worse, per
//!   Dejun et al. as cited in §3.1) and a fraction is inconsistent;
//! * **EBS volumes** — attachable to one instance at a time, same
//!   availability zone only, persistent, with *placement segments* whose
//!   access-time multipliers reproduce the repeatable spikes of Fig 5
//!   ("clones of a large sized directory can result in performance
//!   variations of up to a factor of 3");
//! * **S3-like object store** — 5 GB object cap, higher and more variable
//!   latency than EBS (§1.1);
//! * **bonnie++-style screening** — the paper's §4 procedure: measure an
//!   instance's block I/O, keep it only if stable and >60 MB/s;
//! * **measurement noise** — relative noise grows as runs get shorter,
//!   which is what makes the paper discard its 1 MB probe (Fig 3).
//!
//! Everything is seeded: the same seed yields the same fleet, the same
//! placement spikes and the same noise, so every figure regenerates
//! identically.

#![forbid(unsafe_code)]

mod billing;
mod bonnie;
mod cloud;
mod error;
mod family;
mod faults;
mod instance;
mod netxfer;
mod noise;
mod numeric;
mod retrieval;
mod storage;
mod transfer;
mod types;

pub use billing::{billed_hours, paid_through, BillingLedger, InstanceBill};
pub use bonnie::{
    acquire_good_instance, run_bonnie, run_bonnie_at, run_disk_probe_at, screen_at, BonnieReport,
    ScreeningPolicy,
};
pub use cloud::{Cloud, CloudConfig, DataLocation, RunReport};
pub use error::CloudError;
pub use family::{FamilyId, InstanceFamily};
pub use faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan};
pub use instance::{Instance, InstanceId, InstanceQuality, InstanceState};
pub use netxfer::{
    BackendParams, SharingBackend, TransferEngine, TransferReceipt, TransferRequest,
};
pub use noise::NoiseModel;
pub use numeric::robust_ceil;
pub use retrieval::RetrievalModel;
pub use storage::{EbsVolume, ObjectStore, VolumeId};
pub use transfer::{TransferKind, TransferPricing};
pub use types::{AvailabilityZone, InstanceType, Region};
