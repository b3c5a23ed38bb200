//! The cross-path determinism fuzzer.
//!
//! Every byte-identity guarantee in the workspace — pooled ≡ in-thread
//! renormalization, warm ≡ cold, cached ≡ uncached, any lane count — is
//! pinned by hand-written suites over four seed benchmarks. This module
//! sweeps *sampled* circuits (see [`CorpusSpec`]) through the full path
//! matrix instead:
//!
//! > warm/cold × 0/2 renormalization workers × cached/uncached × 1/2/4 lanes
//!
//! For each sampled circuit the fuzzer computes a **baseline** (a fresh
//! single-lane in-thread uncached [`Session`]) and asserts that every other
//! path shape reproduces it byte-for-byte per execution seed (wall-clock
//! and operational telemetry aside, via
//! [`ExecutionReport::deterministic`](oneperc::ExecutionReport::deterministic)
//! — including the full [`LayerFailure`](oneperc::LayerFailure) diagnostics
//! of incomplete runs).
//!
//! On a divergence the failing spec is **shrunk** to a minimal reproducer
//! (greedy descent over [`CorpusSpec::shrink`] candidates, re-checking only
//! the diverging path) and reported with a replay token; export it as
//! `ONEPERC_FUZZ_REPLAY` and re-run `cargo xtask fuzz-determinism` to
//! re-check exactly that circuit through the whole matrix.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use oneperc::{CompileError, CompilerConfig, ExecuteOutcome, ExecutionRequest, JobFuture, Session};
use oneperc_circuit::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{CorpusSpec, FAMILIES};

/// Environment variable holding a replay token
/// (`<spec>@<circuit_seed>:<exec_seed>[,<exec_seed>…]`); when set, the
/// fuzzer re-checks exactly that circuit instead of sampling.
pub const REPLAY_ENV: &str = "ONEPERC_FUZZ_REPLAY";

/// One shape of the execution path matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathShape {
    /// Run a lane-warming sweep (seeds outside the test set) before the
    /// checked executions, so the engines, the worker pool and (when
    /// cached) the program cache are all hot.
    pub warm: bool,
    /// Renormalization workers of the session's shared pool (`0` =
    /// renormalize in-lane).
    pub renorm_workers: usize,
    /// Resolve the program through the content-addressed cache
    /// ([`Session::sweep`]) instead of compiling explicitly.
    pub cached: bool,
    /// Session lanes the executions fan out over.
    pub lanes: usize,
}

impl PathShape {
    /// The reference every other shape must reproduce: a fresh single-lane
    /// in-thread uncached session.
    pub const BASELINE: PathShape =
        PathShape { warm: false, renorm_workers: 0, cached: false, lanes: 1 };

    /// The full 2×2×2×3 matrix, baseline-most shape first.
    pub fn matrix() -> Vec<PathShape> {
        let mut shapes = Vec::with_capacity(24);
        for &warm in &[false, true] {
            for &renorm_workers in &[0usize, 2] {
                for &cached in &[false, true] {
                    for &lanes in &[1usize, 2, 4] {
                        shapes.push(PathShape { warm, renorm_workers, cached, lanes });
                    }
                }
            }
        }
        shapes
    }
}

impl fmt::Display for PathShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}w/{}/{}l",
            if self.warm { "warm" } else { "cold" },
            self.renorm_workers,
            if self.cached { "cached" } else { "uncached" },
            self.lanes
        )
    }
}

/// Fuzzer options; the defaults match the bounded CI budget.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Sampled circuits to sweep.
    pub circuits: u64,
    /// Seed of the corpus stream: specs, circuit seeds and execution
    /// seeds all derive from it.
    pub base_seed: u64,
    /// Execution seeds checked per circuit and path shape.
    pub exec_seeds: usize,
    /// Minimize a failing spec before reporting it.
    pub shrink: bool,
    /// Print one progress line per circuit (the xtask runner turns this
    /// on; library callers usually leave it off).
    pub progress: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            circuits: 200,
            base_seed: 0x0ec0_ffee,
            exec_seeds: 2,
            shrink: true,
            progress: false,
        }
    }
}

/// Summary of a clean fuzzing run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuzzStats {
    /// Circuits swept through the full matrix.
    pub circuits: u64,
    /// Total checked executions (baseline and matrix, warm-ups excluded).
    pub executions: u64,
    /// Circuits per family, indexed like [`FAMILIES`].
    pub family_counts: [u64; 4],
    /// Circuits whose offline pass failed (skipped; compile errors are
    /// deterministic per `(circuit, config)` and carry no stream state).
    pub skipped: u64,
    /// Wall-clock of the sweep.
    pub wall: Duration,
}

impl fmt::Display for FuzzStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let families: Vec<String> = FAMILIES
            .iter()
            .zip(self.family_counts)
            .map(|(name, count)| format!("{name} {count}"))
            .collect();
        write!(
            f,
            "{} circuits ({}) x {} path shapes, {} checked executions, {} skipped, {:.1} s",
            self.circuits,
            families.join(", "),
            PathShape::matrix().len(),
            self.executions,
            self.skipped,
            self.wall.as_secs_f64()
        )
    }
}

/// A byte-identity violation: the minimal reproducer and everything
/// needed to replay it.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Corpus index of the originally failing circuit (`u64::MAX` in
    /// replay mode).
    pub index: u64,
    /// The spec as sampled.
    pub spec: CorpusSpec,
    /// The spec after shrinking (equals `spec` when shrinking is off or
    /// no smaller reproducer diverged).
    pub minimized: CorpusSpec,
    /// Circuit seed the spec was instantiated with.
    pub circuit_seed: u64,
    /// Execution seed whose outcome diverged.
    pub exec_seed: u64,
    /// The first path shape that disagreed with the baseline.
    pub path: PathShape,
    /// Baseline ([`PathShape::BASELINE`]) outcome, deterministic view.
    pub expected: ExecuteOutcome,
    /// The diverging path's outcome, deterministic view.
    pub actual: ExecuteOutcome,
}

impl Divergence {
    /// The replay token for [`REPLAY_ENV`], reproducing the minimized
    /// divergence.
    pub fn replay_token(&self) -> String {
        format!("{}@{}:{}", self.minimized.to_token(), self.circuit_seed, self.exec_seed)
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "determinism divergence at corpus index {}: path {} disagrees with the \
             {} baseline",
            self.index, self.path, PathShape::BASELINE
        )?;
        writeln!(f, "  spec      : {} (circuit seed {})", self.spec, self.circuit_seed)?;
        writeln!(f, "  minimized : {} (exec seed {})", self.minimized, self.exec_seed)?;
        writeln!(f, "  expected  : {:?}", self.expected)?;
        writeln!(f, "  actual    : {:?}", self.actual)?;
        write!(f, "  replay    : {}='{}' cargo xtask fuzz-determinism", REPLAY_ENV, self.replay_token())
    }
}

/// A parsed [`REPLAY_ENV`] token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// The spec to re-instantiate.
    pub spec: CorpusSpec,
    /// Circuit seed to instantiate it with.
    pub circuit_seed: u64,
    /// Execution seeds to check (at least one).
    pub exec_seeds: Vec<u64>,
}

impl Replay {
    /// Parses `<spec>@<circuit_seed>:<exec_seed>[,<exec_seed>…]`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the malformed part.
    pub fn parse(token: &str) -> Result<Replay, String> {
        let (spec_part, seeds_part) = token
            .split_once('@')
            .ok_or_else(|| format!("replay token `{token}` is missing `@<circuit_seed>`"))?;
        let spec = CorpusSpec::parse(spec_part)?;
        let (circuit_seed, exec_part) = seeds_part
            .split_once(':')
            .ok_or_else(|| format!("replay token `{token}` is missing `:<exec_seed>`"))?;
        let circuit_seed = circuit_seed
            .parse()
            .map_err(|_| format!("circuit seed `{circuit_seed}` is not an integer"))?;
        let mut exec_seeds = Vec::new();
        for part in exec_part.split(',') {
            exec_seeds
                .push(part.parse().map_err(|_| format!("exec seed `{part}` is not an integer"))?);
        }
        Ok(Replay { spec, circuit_seed, exec_seeds })
    }

    /// Reads and parses [`REPLAY_ENV`]; `Ok(None)` when unset or empty.
    ///
    /// # Errors
    ///
    /// Returns the parse failure for a set-but-malformed token.
    pub fn from_env() -> Result<Option<Replay>, String> {
        match std::env::var(REPLAY_ENV) {
            Ok(token) if !token.trim().is_empty() => Replay::parse(token.trim()).map(Some),
            _ => Ok(None),
        }
    }
}

/// The deterministic comparison view of an outcome: wall-clock, cache
/// counters and scheduler telemetry cleared on either arm; completion flag
/// and full failure diagnostics kept.
pub fn deterministic_view(outcome: ExecuteOutcome) -> ExecuteOutcome {
    match outcome {
        ExecuteOutcome::Complete(report) => ExecuteOutcome::Complete(report.deterministic()),
        ExecuteOutcome::Incomplete { report, failure } => {
            ExecuteOutcome::Incomplete { report: report.deterministic(), failure }
        }
    }
}

/// The compiler configuration a corpus circuit runs under: the Table 1
/// auto-sizing for its width at a hyper-advanced fusion rate, so the
/// RSLs stay small and one circuit sweeps the whole matrix in
/// milliseconds. The probability alternates per circuit seed for a little
/// hardware diversity without leaving the small-RSL preset table.
fn exec_config(spec: &CorpusSpec, circuit_seed: u64) -> CompilerConfig {
    let p = if circuit_seed.is_multiple_of(2) { 0.9 } else { 0.88 };
    CompilerConfig::for_qubits(spec.qubits().max(2), p, 0)
}

/// Warm-up seeds: far away from the derived execution seeds (which stay
/// below 2³²) so warming can never alias a checked execution.
fn warm_seeds(lanes: usize) -> Vec<u64> {
    (0..lanes as u64).map(|lane| 0xFFFF_0000_0000_0100 + lane).collect()
}

/// Runs one path shape and returns the deterministic outcome views in
/// seed order.
///
/// # Errors
///
/// Propagates the offline pass's [`CompileError`].
fn run_path(
    path: PathShape,
    base: CompilerConfig,
    circuit: &Circuit,
    seeds: &[u64],
) -> Result<Vec<ExecuteOutcome>, CompileError> {
    let config = base.with_renorm_workers(path.renorm_workers);
    let session = Session::builder(config)
        .lanes(path.lanes)
        .program_cache(if path.cached { 4 } else { 0 })
        .build();
    // Every seed is submitted before any is waited on, so the jobs fan
    // out over the lanes.
    let run = |seeds: &[u64]| -> Result<Vec<ExecuteOutcome>, CompileError> {
        let jobs = if path.cached {
            session.sweep(circuit, seeds)?
        } else {
            let compiled = Arc::new(session.compile(circuit)?);
            seeds
                .iter()
                .map(|&seed| session.submit(ExecutionRequest::new(Arc::clone(&compiled), seed)))
                .collect()
        };
        Ok(jobs.into_iter().map(JobFuture::wait).collect())
    };
    if path.warm {
        run(&warm_seeds(path.lanes))?;
    }
    Ok(run(seeds)?.into_iter().map(deterministic_view).collect())
}

/// The first divergence of one circuit against its baseline, if any.
/// `Ok(None)` means every path reproduced the baseline; `Err` means the
/// offline pass failed (the circuit is skipped — compilation consumes no
/// stream state).
fn check_circuit(
    spec: &CorpusSpec,
    circuit_seed: u64,
    exec_seeds: &[u64],
) -> Result<Option<(PathShape, u64, ExecuteOutcome, ExecuteOutcome)>, CompileError> {
    let circuit = spec.circuit(circuit_seed);
    let config = exec_config(spec, circuit_seed);
    let baseline = run_path(PathShape::BASELINE, config, &circuit, exec_seeds)?;
    for path in PathShape::matrix() {
        let outcomes = run_path(path, config, &circuit, exec_seeds)?;
        for (slot, (&seed, actual)) in exec_seeds.iter().zip(&outcomes).enumerate() {
            if *actual != baseline[slot] {
                return Ok(Some((path, seed, baseline[slot], *actual)));
            }
        }
    }
    Ok(None)
}

/// Greedy shrink: walk [`CorpusSpec::shrink`] candidates, keeping the
/// first strictly smaller spec that still diverges on the *same* path
/// shape and circuit seed, until no candidate diverges. Re-checks only
/// the diverging path against a fresh baseline, so minimization costs a
/// couple of runs per candidate rather than a full matrix.
fn shrink_divergence(
    spec: CorpusSpec,
    circuit_seed: u64,
    exec_seeds: &[u64],
    path: PathShape,
) -> CorpusSpec {
    let still_diverges = |candidate: &CorpusSpec| -> bool {
        let circuit = candidate.circuit(circuit_seed);
        let config = exec_config(candidate, circuit_seed);
        match (
            run_path(PathShape::BASELINE, config, &circuit, exec_seeds),
            run_path(path, config, &circuit, exec_seeds),
        ) {
            (Ok(expected), Ok(actual)) => expected != actual,
            // A candidate that stops compiling is not a reproducer.
            _ => false,
        }
    };
    let mut current = spec;
    'outer: loop {
        for candidate in current.shrink() {
            if still_diverges(&candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        return current;
    }
}

/// Packages one confirmed divergence, shrinking it first when enabled.
fn report_divergence(
    options: &FuzzOptions,
    index: u64,
    spec: CorpusSpec,
    circuit_seed: u64,
    exec_seeds: &[u64],
    found: (PathShape, u64, ExecuteOutcome, ExecuteOutcome),
) -> Divergence {
    let (path, exec_seed, mut expected, mut actual) = found;
    let minimized = if options.shrink {
        shrink_divergence(spec, circuit_seed, exec_seeds, path)
    } else {
        spec
    };
    if minimized != spec {
        // Re-derive the expected/actual pair for the minimized spec so
        // the report shows the reproducer, not the original monster.
        let circuit = minimized.circuit(circuit_seed);
        let config = exec_config(&minimized, circuit_seed);
        if let (Ok(base), Ok(other)) = (
            run_path(PathShape::BASELINE, config, &circuit, exec_seeds),
            run_path(path, config, &circuit, exec_seeds),
        ) {
            if let Some(slot) = base.iter().zip(&other).position(|(b, o)| b != o) {
                expected = base[slot];
                actual = other[slot];
            }
        }
    }
    Divergence { index, spec, minimized, circuit_seed, exec_seed, path, expected, actual }
}

/// Derived per-circuit seeds: the circuit seed feeds the spec's random
/// generator, the exec seeds feed the online pass. All below 2³² so the
/// warm-up seeds can never collide with them.
fn derive_seeds(base_seed: u64, index: u64, exec_seeds: usize) -> (u64, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(index).rotate_left(32) ^ index);
    let circuit_seed = u64::from(rng.gen::<u32>());
    let seeds = (0..exec_seeds).map(|_| u64::from(rng.gen::<u32>())).collect();
    (circuit_seed, seeds)
}

/// Sweeps `options.circuits` sampled circuits through the full path
/// matrix.
///
/// # Errors
///
/// Returns the first (minimized) [`Divergence`]; a clean sweep returns
/// its [`FuzzStats`].
pub fn run_fuzz(options: &FuzzOptions) -> Result<FuzzStats, Box<Divergence>> {
    let start = Instant::now();
    let mut stats = FuzzStats::default();
    let shapes = PathShape::matrix().len() as u64;
    for index in 0..options.circuits {
        let spec = CorpusSpec::sample(options.base_seed, index);
        let (circuit_seed, exec_seeds) = derive_seeds(options.base_seed, index, options.exec_seeds);
        if options.progress {
            println!(
                "[{:>4}/{}] {spec} (circuit seed {circuit_seed})",
                index + 1,
                options.circuits
            );
        }
        match check_circuit(&spec, circuit_seed, &exec_seeds) {
            Ok(None) => {
                stats.circuits += 1;
                stats.family_counts[spec.family_index()] += 1;
                stats.executions += (shapes + 1) * exec_seeds.len() as u64;
            }
            Ok(Some(found)) => {
                return Err(Box::new(report_divergence(
                    options,
                    index,
                    spec,
                    circuit_seed,
                    &exec_seeds,
                    found,
                )));
            }
            Err(_) => stats.skipped += 1,
        }
    }
    stats.wall = start.elapsed();
    Ok(stats)
}

/// Re-checks one replayed circuit through the full matrix.
///
/// # Errors
///
/// Returns the (minimized) [`Divergence`] when the replay still diverges.
pub fn run_replay(replay: &Replay, options: &FuzzOptions) -> Result<FuzzStats, Box<Divergence>> {
    let start = Instant::now();
    let mut stats = FuzzStats::default();
    match check_circuit(&replay.spec, replay.circuit_seed, &replay.exec_seeds) {
        Ok(None) => {
            stats.circuits = 1;
            stats.family_counts[replay.spec.family_index()] = 1;
            stats.executions = (PathShape::matrix().len() as u64 + 1) * replay.exec_seeds.len() as u64;
        }
        Ok(Some(found)) => {
            return Err(Box::new(report_divergence(
                options,
                u64::MAX,
                replay.spec,
                replay.circuit_seed,
                &replay.exec_seeds,
                found,
            )));
        }
        Err(error) => panic!(
            "replayed spec {} does not compile under its derived config: {error}",
            replay.spec
        ),
    }
    stats.wall = start.elapsed();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_matrix_is_2x2x2x3() {
        let shapes = PathShape::matrix();
        assert_eq!(shapes.len(), 24);
        let mut unique = shapes.clone();
        unique.dedup();
        assert_eq!(unique.len(), 24, "no duplicate shapes");
        assert_eq!(shapes[0], PathShape::BASELINE);
        assert!(shapes.iter().any(|s| s.warm && s.renorm_workers == 2 && s.cached && s.lanes == 4));
    }

    #[test]
    fn replay_token_roundtrip() {
        let divergence = Divergence {
            index: 3,
            spec: CorpusSpec::Layered { width: 5, depth: 8, entanglement_permille: 420 },
            minimized: CorpusSpec::Layered { width: 5, depth: 2, entanglement_permille: 420 },
            circuit_seed: 1234,
            exec_seed: 77,
            path: PathShape { warm: true, renorm_workers: 2, cached: false, lanes: 2 },
            expected: ExecuteOutcome::Complete(Default::default()),
            actual: ExecuteOutcome::Complete(Default::default()),
        };
        let token = divergence.replay_token();
        assert_eq!(token, "layered:w5,d2,e420@1234:77");
        let replay = Replay::parse(&token).unwrap();
        assert_eq!(replay.spec, divergence.minimized);
        assert_eq!(replay.circuit_seed, 1234);
        assert_eq!(replay.exec_seeds, vec![77]);
        assert!(Replay::parse("layered:w5,d2,e420").is_err());
        assert!(Replay::parse("layered:w5,d2,e420@12").is_err());
        assert!(Replay::parse("layered:w5,d2,e420@x:1").is_err());
        let multi = Replay::parse("rev:w4,g9,s1@9:1,2,3").unwrap();
        assert_eq!(multi.exec_seeds, vec![1, 2, 3]);
    }

    #[test]
    fn derived_seeds_are_stable_and_low() {
        let (c1, e1) = derive_seeds(42, 7, 3);
        let (c2, e2) = derive_seeds(42, 7, 3);
        assert_eq!((c1, &e1), (c2, &e2));
        assert!(c1 < (1 << 32));
        assert!(e1.iter().all(|&s| s < (1 << 32)));
        assert_eq!(e1.len(), 3);
        let (c3, _) = derive_seeds(42, 8, 3);
        assert_ne!(c1, c3, "indices get distinct circuit seeds");
    }

    #[test]
    fn path_labels_are_readable() {
        let path = PathShape { warm: true, renorm_workers: 0, cached: true, lanes: 4 };
        assert_eq!(path.to_string(), "warm/0w/cached/4l");
    }
}
