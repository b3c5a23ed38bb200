//! ISSUE 9 acceptance: the tuner's determinism, cache, and cancellation
//! contracts, end to end.
//!
//! * The frontier artifact over a ≥3-knob lattice is **byte-identical**
//!   across repeated runs and across fleet shapes (lanes, in-flight
//!   window, shedding on/off) — these knobs parallelize evaluation, they
//!   must not touch the answer.
//! * A second `tune` of the same circuit is a **cache hit that skips
//!   evaluation entirely**, from memory within a tuner and from the
//!   artifact directory across tuners; a changed tuning question (e.g.
//!   new seeds) is a miss that overwrites.
//! * A dominated in-flight point is **cancelled mid-flight** through the
//!   PR 7 cancellation path (job futures → cancel tokens → lane
//!   checkpoints), observable as `LayerFailureReason::Cancelled`
//!   outcomes counted by [`TuneStats::cancellations_observed`].

use std::path::PathBuf;

use oneperc::CompilerConfig;
use oneperc_circuit::benchmarks;
use oneperc_tune::{
    ConfigLattice, CostModel, PointSample, TuneSource, TuneStats, Tuner, TunerBuilder,
};

/// The 3-knob lattice the determinism tests sweep: 8 points around the
/// 4-qubit Table 1 preset at p = 0.90 (24×24 RSL — cheap to execute).
fn three_knob_lattice() -> ConfigLattice {
    ConfigLattice::new(CompilerConfig::for_qubits(4, 0.9, 1))
        .with_temporal_redundancies(&[2, 3])
        .with_renorm_workers(&[0, 1])
        .with_refresh_periods(&[None, Some(6)])
}

fn tuner(configure: impl FnOnce(TunerBuilder) -> TunerBuilder) -> Tuner {
    configure(Tuner::builder(three_knob_lattice()).seeds(&[1, 2]).refinement(1, 2)).build()
}

/// A scratch directory under the system temp dir (the same place the CI
/// bench smoke writes), fresh per test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oneperc-tune-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn artifact_is_byte_identical_across_runs_and_fleet_shapes() {
    let lattice = three_knob_lattice();
    assert!(lattice.knob_count() >= 3, "acceptance demands a >=3-knob lattice");
    assert_eq!(lattice.len(), 8);

    let circuit = benchmarks::qaoa(4, 1);
    let baseline = tuner(|b| b).tune(&circuit).expect("baseline tune");
    assert_eq!(baseline.source, TuneSource::Evaluated);
    assert!(!baseline.artifact.frontier.is_empty());
    assert_eq!(baseline.artifact.rungs.len(), 1, "one refinement rung ran");

    // Same question, different fleet shapes: identical bytes.
    type Shape = fn(TunerBuilder) -> TunerBuilder;
    let shapes: [(&str, Shape); 3] = [
        ("rerun", |b| b),
        ("wide", |b| b.lanes(2).concurrent_points(4)),
        ("serial-no-shed", |b| b.concurrent_points(1).shed_inflight(false)),
    ];
    for (name, shape) in shapes {
        let outcome = tuner(shape).tune(&circuit).expect("shaped tune");
        assert_eq!(
            outcome.json, baseline.json,
            "fleet shape {name:?} changed the artifact bytes"
        );
    }

    // The artifact's own invariants: canonical frontier order and a
    // recommendation drawn from the frontier.
    let frontier = &baseline.artifact.frontier;
    for pair in frontier.windows(2) {
        let ordered = pair[0].cost.iter().zip(&pair[1].cost).find_map(|(a, b)| {
            match a.total_cmp(b) {
                std::cmp::Ordering::Equal => None,
                other => Some(other),
            }
        });
        assert_ne!(
            ordered,
            Some(std::cmp::Ordering::Greater),
            "frontier is sorted lexicographically by cost"
        );
    }
    let recommended = baseline.artifact.recommended;
    assert!(
        frontier.iter().any(|p| p.config == recommended),
        "the recommendation is a frontier member"
    );
}

#[test]
fn memory_cache_answers_retunes_without_evaluation() {
    let circuit = benchmarks::qaoa(4, 1);
    let mut t = tuner(|b| b);
    let first = t.tune(&circuit).expect("first tune");
    assert_eq!(first.source, TuneSource::Evaluated);
    assert!(first.stats.points_evaluated > 0);

    let second = t.tune(&circuit).expect("second tune");
    assert_eq!(second.source, TuneSource::MemoryCache);
    assert_eq!(second.json, first.json, "cache returns the stored bytes");
    assert_eq!(
        second.stats,
        TuneStats { points_total: 8, wall: second.stats.wall, ..TuneStats::default() },
        "a cache hit executes nothing"
    );

    // A different circuit is a different key: evaluated, cached separately.
    let other = benchmarks::qft(4);
    assert_eq!(t.tune(&other).expect("other circuit").source, TuneSource::Evaluated);
    assert_eq!(t.tune(&other).expect("other again").source, TuneSource::MemoryCache);
    assert_eq!(t.tune(&circuit).expect("original again").source, TuneSource::MemoryCache);
}

#[test]
fn disk_artifacts_reload_across_tuners_and_invalidate_on_new_questions() {
    let dir = scratch_dir("disk");
    let circuit = benchmarks::qaoa(4, 1);

    let first = tuner(|b| b.artifact_dir(&dir)).tune(&circuit).expect("first tune");
    assert_eq!(first.source, TuneSource::Evaluated);
    let path = dir.join(oneperc_tune::FrontierArtifact::file_name(
        first.artifact.circuit_hash,
    ));
    let stored = std::fs::read_to_string(&path).expect("artifact file exists");
    assert_eq!(stored, first.json, "the file holds exactly the canonical bytes");

    // A fresh tuner with the same question: disk hit, nothing evaluated.
    let mut reloaded_tuner = tuner(|b| b.artifact_dir(&dir));
    let reloaded = reloaded_tuner.tune(&circuit).expect("reload");
    assert_eq!(reloaded.source, TuneSource::DiskCache);
    assert_eq!(reloaded.json, first.json);
    assert_eq!(reloaded.stats.points_evaluated, 0);
    // And the disk answer is now memoized.
    assert_eq!(reloaded_tuner.tune(&circuit).expect("memo").source, TuneSource::MemoryCache);
    // Dropping the memo falls back to disk, not evaluation.
    reloaded_tuner.clear_memory_cache();
    assert_eq!(reloaded_tuner.tune(&circuit).expect("disk again").source, TuneSource::DiskCache);

    // A different seed set is a different tuning question: the stale
    // artifact is a miss and gets overwritten.
    let changed = tuner(|b| b.artifact_dir(&dir).seeds(&[7, 8]))
        .tune(&circuit)
        .expect("changed question");
    assert_eq!(changed.source, TuneSource::Evaluated);
    assert_ne!(changed.artifact.tune_key, first.artifact.tune_key);
    let rewritten = std::fs::read_to_string(&path).expect("artifact file exists");
    assert_eq!(rewritten, changed.json, "the new answer replaced the stale one");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Single-objective model for the cancellation test: raw resource volume
/// only, with the sound floor of one merged layer (`merging_factor ×
/// sites`). A 192×192 point can never beat a finished 24×24 point on
/// volume, so its bound is dominated the moment the small point lands.
struct VolumeOnly;

impl CostModel for VolumeOnly {
    fn objectives(&self) -> Vec<String> {
        vec!["resource_volume".into()]
    }

    fn cost(&self, sample: &PointSample<'_>) -> Vec<f64> {
        vec![sample.mean_resource_volume()]
    }

    fn lower_bound(&self, config: &CompilerConfig, _ir_layers: usize) -> Option<Vec<f64>> {
        let floor = config.hardware.merging_factor() * config.hardware.sites_per_rsl();
        Some(vec![floor as f64])
    }

    fn fingerprint(&self) -> u64 {
        0x766f_6c75_6d65 // "volume"
    }
}

fn volume_lattice() -> ConfigLattice {
    ConfigLattice::new(CompilerConfig::for_qubits(4, 0.9, 1)).with_rsl_sizes(&[24, 192])
}

#[test]
fn dominated_inflight_point_is_cancelled_through_the_service_path() {
    let circuit = benchmarks::qaoa(4, 1);
    let seeds = [1u64, 2, 3, 4];

    // Window of 2: both points are in flight when the cheap one lands,
    // so the dominated big point must be shed mid-run.
    let outcome = Tuner::builder(volume_lattice())
        .seeds(&seeds)
        .concurrent_points(2)
        .refinement(0, 2)
        .cost_model(VolumeOnly)
        .build()
        .tune(&circuit)
        .expect("tune with shedding");
    assert_eq!(outcome.stats.points_total, 2);
    assert_eq!(outcome.stats.points_evaluated, 1, "only the 24x24 point is harvested");
    assert_eq!(outcome.stats.points_shed_inflight, 1, "the 192x192 point was shed in flight");
    assert_eq!(outcome.stats.jobs_cancelled, seeds.len());
    assert!(
        outcome.stats.cancellations_observed >= 1,
        "at least one lane observed the cancel token at a checkpoint, got {:?}",
        outcome.stats
    );
    assert_eq!(outcome.artifact.frontier.len(), 1);
    assert_eq!(outcome.artifact.frontier[0].config.rsl_size, 24);
    assert_eq!(outcome.artifact.recommended.rsl_size, 24);

    // Window of 1: the same point never gets submitted at all (static
    // prune) — and the artifact bytes are identical either way.
    let serial = Tuner::builder(volume_lattice())
        .seeds(&seeds)
        .concurrent_points(1)
        .refinement(0, 2)
        .cost_model(VolumeOnly)
        .build()
        .tune(&circuit)
        .expect("tune without overlap");
    assert_eq!(serial.stats.points_pruned_static, 1);
    assert_eq!(serial.stats.points_shed_inflight, 0);
    assert_eq!(serial.stats.jobs_cancelled, 0);
    assert_eq!(serial.json, outcome.json, "shedding must not touch the artifact");
}
