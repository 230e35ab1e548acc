//! Result retrieval — the §1 claim: "This also speeds up the task of
//! retrieving the results of our application, by having the output be less
//! segmented. This, in turn, results in a shorter makespan."
//!
//! An application writing one output object per input file leaves a
//! reshaped corpus's results in far fewer objects; downloading results
//! pays a per-object request round-trip (S3 GET latency) plus bytes over
//! the wire, so segmentation dominates retrieval time for small outputs.

use serde::{Deserialize, Serialize};

/// Round-trip latency per object request, seconds (S3 GET ≈ 50–100 ms
/// in 2010).
const PER_OBJECT_S: f64 = 0.08;

/// Download bandwidth, bytes/second.
const BANDWIDTH_BPS: f64 = 20.0e6;

/// Retrieval cost model: per-object request latency + streaming bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetrievalModel {
    /// Concurrent requests the client pipelines (latency amortization).
    pub parallelism: usize,
}

impl Default for RetrievalModel {
    fn default() -> Self {
        RetrievalModel { parallelism: 8 }
    }
}

impl RetrievalModel {
    /// Seconds to retrieve `objects` result files totalling `bytes`.
    /// Request latencies amortize across `parallelism` in-flight requests;
    /// bytes are serialized through the single downlink.
    pub fn retrieval_secs(&self, objects: usize, bytes: u64) -> f64 {
        let request_time = (objects as f64 / self.parallelism.max(1) as f64).ceil() * PER_OBJECT_S;
        request_time + bytes as f64 / BANDWIDTH_BPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_floor_for_single_object() {
        let m = RetrievalModel::default();
        // One big object: time ≈ bytes / bandwidth + one request.
        let t = m.retrieval_secs(1, 2_000_000_000);
        assert!((t - (0.08 + 100.0)).abs() < 0.1, "t = {t}");
    }

    #[test]
    fn parallelism_amortizes_requests() {
        let serial = RetrievalModel { parallelism: 1 };
        let parallel = RetrievalModel { parallelism: 32 };
        let n = 100_000;
        assert!(parallel.retrieval_secs(n, 0) * 4.0 < serial.retrieval_secs(n, 0));
    }

    #[test]
    fn monotone_in_objects_and_bytes() {
        let m = RetrievalModel::default();
        assert!(m.retrieval_secs(10, 1_000) <= m.retrieval_secs(100, 1_000));
        assert!(m.retrieval_secs(10, 1_000) <= m.retrieval_secs(10, 1_000_000));
    }
}
