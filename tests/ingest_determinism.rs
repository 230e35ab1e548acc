//! Replay determinism for the streaming-ingest reshape sink: the same
//! seeded arrival trace and sealing policy must produce byte-identical
//! container bytes and a byte-identical observability NDJSON log across
//! repeated runs and across every `Parallelism` setting — the streaming
//! counterpart of `tests/observability.rs`.

use binpack::{container_from_bin, Container, Item, MergePolicy, StreamConfig, StreamPacker};
use corpus::{ArrivalConfig, ArrivalOrder, IngestTrace};
use obs::Obs;
use reshape::{
    App, IngestConfig, Parallelism, Pipeline, PipelineConfig, ProbeCampaign, SealPolicy, Workload,
};

fn ingest_config() -> IngestConfig {
    IngestConfig {
        arrival: ArrivalConfig {
            mean_interarrival_secs: 0.5,
            order: ArrivalOrder::Shuffled,
        },
        arrival_seed: 41,
        seal: SealPolicy {
            max_pending_bytes: Some(2_000_000),
            max_age_secs: Some(30.0),
        },
        merge: MergePolicy::RepackTails,
        compact_min_fill: Some(0.6),
    }
}

fn pipeline_config(parallelism: Parallelism) -> PipelineConfig {
    PipelineConfig {
        deadline_secs: 10.0,
        probe: ProbeCampaign {
            v0: 5_000_000,
            growth: 5,
            max_volume: 400_000_000,
            repeats: 3,
            s0: 1_000_000,
            factors: vec![10, 100],
            stability_cv: 0.25,
            min_sets: 3,
        },
        ingest: Some(ingest_config()),
        parallelism,
        ..PipelineConfig::default()
    }
}

/// Run the ingest pipeline once with a fresh recording sink and return the
/// NDJSON log it produced.
fn run_and_log(mut config: PipelineConfig, workload: &Workload) -> String {
    let sink = Obs::recording(config.cloud.seed);
    config.obs = sink.clone();
    Pipeline::new(config).run(workload).unwrap();
    sink.to_ndjson()
}

#[test]
fn same_seed_ingest_runs_emit_byte_identical_logs() {
    let manifest = corpus::html_18mil(0.0005, 41);
    let workload = Workload::new(manifest, App::grep("zxqv"));
    let first = run_and_log(pipeline_config(Parallelism::Sequential), &workload);
    let second = run_and_log(pipeline_config(Parallelism::Sequential), &workload);
    assert!(!first.is_empty(), "ingest run produced no events");
    assert_eq!(
        first, second,
        "same-seed ingest logs must be byte-identical"
    );
    assert!(
        first.contains("\"Seal\""),
        "ingest run must log seal events"
    );
    assert!(
        first.contains("ingest.admitted_files"),
        "ingest run must record admission counters"
    );
}

#[test]
fn ingest_logs_are_byte_identical_across_parallelism_settings() {
    // Arrivals are a serial stream, so the ingest reshape never consults
    // the worker count — the whole log must be invariant under it.
    let manifest = corpus::html_18mil(0.0005, 42);
    let workload = Workload::new(manifest, App::grep("zxqv"));
    let baseline = run_and_log(pipeline_config(Parallelism::Sequential), &workload);
    for par in [
        Parallelism::Rayon(0),
        Parallelism::Rayon(2),
        Parallelism::Rayon(7),
    ] {
        let log = run_and_log(pipeline_config(par), &workload);
        assert_eq!(baseline, log, "ingest log diverged under {par:?}");
    }
}

#[test]
fn different_arrival_seeds_change_the_log() {
    // Sensitivity check: determinism must come from the seed actually
    // flowing through the trace, not from the arrival process being inert.
    let manifest = corpus::html_18mil(0.0005, 43);
    let workload = Workload::new(manifest, App::grep("zxqv"));
    let mut other = pipeline_config(Parallelism::Sequential);
    if let Some(ingest) = other.ingest.as_mut() {
        ingest.arrival_seed = 42;
    }
    let a = run_and_log(pipeline_config(Parallelism::Sequential), &workload);
    let b = run_and_log(other, &workload);
    assert_ne!(a, b, "shuffled arrival order must depend on the seed");
}

/// Drive the online packer over a seeded trace and materialise every bin as
/// an indexed container blob; return the concatenated container bytes.
fn containers_for_trace(seed: u64) -> Vec<u8> {
    let manifest = corpus::html_18mil(0.0003, 77);
    let trace = IngestTrace::generate(
        &manifest,
        &ArrivalConfig {
            mean_interarrival_secs: 0.25,
            order: ArrivalOrder::Shuffled,
        },
        seed,
    );
    let mut packer = StreamPacker::new(StreamConfig {
        seal: SealPolicy::bin_full(1_000_000),
        ..StreamConfig::new(256 * 1024)
    });
    for event in &trace.events {
        packer.admit(Item::new(event.file.id, event.file.size), event.at_secs);
    }
    let out = packer.finish(trace.duration_secs());
    let mut blob = Vec::new();
    for bin in out.packing.bins() {
        let container = container_from_bin(
            bin,
            &out.items,
            |it| format!("file-{:08}", it.id),
            |it| {
                // Synthetic payload: deterministic bytes of the recorded size.
                (0..it.size).map(|j| ((it.id + j) % 251) as u8).collect()
            },
        )
        .expect("bin members have unique names");
        // Each blob must stand alone as a valid container.
        let parsed = Container::parse(&container).expect("container parses");
        parsed.verify().expect("member checksums hold");
        assert_eq!(parsed.member_count(), bin.len());
        blob.extend_from_slice(&container);
    }
    blob
}

#[test]
fn same_trace_and_policy_yield_byte_identical_container_bytes() {
    let first = containers_for_trace(11);
    let second = containers_for_trace(11);
    assert!(!first.is_empty(), "trace produced no containers");
    assert_eq!(
        first, second,
        "same seeded trace + sealing policy must produce byte-identical containers"
    );
    assert_ne!(
        first,
        containers_for_trace(12),
        "container bytes must depend on the arrival seed"
    );
}
