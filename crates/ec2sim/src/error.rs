//! Simulator error type.

use crate::instance::InstanceId;
use crate::storage::VolumeId;

/// Everything that can go wrong when driving the simulated cloud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloudError {
    /// The instance id does not exist.
    NoSuchInstance(InstanceId),
    /// The volume id does not exist.
    NoSuchVolume(VolumeId),
    /// Operation requires a running instance.
    NotRunning(InstanceId),
    /// Instance was already terminated.
    Terminated(InstanceId),
    /// Volume is attached to another instance (EBS volumes attach to at
    /// most one instance at a time, §1.1).
    VolumeBusy(VolumeId, InstanceId),
    /// Volume is not attached to the given instance.
    VolumeNotAttached(VolumeId),
    /// Volume and instance live in different availability zones.
    ZoneMismatch,
    /// S3 object exceeds the 5 GB per-object cap (§1.1).
    ObjectTooLarge {
        /// Requested object size.
        size: u64,
        /// The cap (5 GB).
        max: u64,
    },
    /// No such S3 object.
    NoSuchObject(String),
    /// A capped object store cannot hold the object: storing it would need
    /// `needed` bytes against a `capacity`-byte store (replaced bytes
    /// already credited).
    StoreFull {
        /// Bytes the store would hold after the put.
        needed: u64,
        /// The store's byte capacity.
        capacity: u64,
    },
    /// The account's instance cap was reached (EC2 limits concurrent
    /// instances per account; the paper notes "limitations on the number
    /// of instances that can be requested", §5.2).
    InstanceCapReached(usize),
    /// §4 screening rejected every candidate it was allowed to launch;
    /// each was measured with bonnie and terminated.
    ScreeningExhausted {
        /// Candidates screened and rejected.
        attempts: usize,
    },
    /// An injected fault killed the instance (hardware loss). The crash
    /// time is available via `Cloud::crash_time`.
    InstanceCrashed(InstanceId),
    /// An injected fault reclaimed the instance (spot preemption); billing
    /// still follows the flat per-started-hour rule.
    SpotPreempted(InstanceId),
    /// An injected transient attach failure; retrying the attach succeeds.
    AttachFailed(VolumeId),
    /// An injected transient S3 error on the named key; a retry succeeds.
    S3Transient(String),
}

impl std::fmt::Display for CloudError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CloudError::NoSuchInstance(id) => write!(f, "no such instance {id:?}"),
            CloudError::NoSuchVolume(id) => write!(f, "no such volume {id:?}"),
            CloudError::NotRunning(id) => write!(f, "instance {id:?} is not running"),
            CloudError::Terminated(id) => write!(f, "instance {id:?} was terminated"),
            CloudError::VolumeBusy(v, i) => {
                write!(f, "volume {v:?} already attached to {i:?}")
            }
            CloudError::VolumeNotAttached(v) => write!(f, "volume {v:?} is not attached"),
            CloudError::ZoneMismatch => write!(f, "volume and instance in different zones"),
            CloudError::ObjectTooLarge { size, max } => {
                write!(f, "object of {size} bytes exceeds the {max} byte cap")
            }
            CloudError::NoSuchObject(k) => write!(f, "no such object {k}"),
            CloudError::StoreFull { needed, capacity } => {
                write!(f, "store full: need {needed} bytes of {capacity}")
            }
            CloudError::InstanceCapReached(n) => {
                write!(f, "account instance cap of {n} reached")
            }
            CloudError::ScreeningExhausted { attempts } => {
                write!(f, "screening rejected all {attempts} candidate instances")
            }
            CloudError::InstanceCrashed(id) => write!(f, "instance {id:?} crashed"),
            CloudError::SpotPreempted(id) => write!(f, "instance {id:?} was preempted"),
            CloudError::AttachFailed(v) => {
                write!(f, "transient attach failure on volume {v:?}")
            }
            CloudError::S3Transient(k) => write!(f, "transient S3 error on {k}"),
        }
    }
}

impl std::error::Error for CloudError {}
