//! The two passes of the OnePerc compiler: the offline mapping and the
//! online execution. [`Session`](crate::Session) drives both.

use std::error::Error;
use std::fmt;
use std::time::Instant;

use oneperc_circuit::{Circuit, ProgramGraph};
use oneperc_mapper::{MapError, Mapper, MapperConfig, MappingResult};
use oneperc_percolation::{
    CancelToken, LayerRequirement, ReshapeConfig, ReshapeEngine, TemporalRequirement,
};

use crate::config::CompilerConfig;
use crate::memory::MemoryModel;
use crate::report::{
    CacheStats, ExecuteOutcome, ExecutionReport, LayerFailure, LayerFailureReason,
    ServiceTelemetry,
};

/// Errors of the end-to-end compilation.
///
/// Marked non-exhaustive: future online-error variants (delay-line
/// exhaustion, hardware backpressure, …) must not be breaking changes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The configuration breaks a rule of [`CompilerConfig::check`]. Its
    /// fields are public, so an edit after construction can skip the
    /// constructors' checks; the offline pass refuses such a configuration
    /// before it maps anything.
    InvalidConfig(&'static str),
    /// The offline mapping failed.
    Mapping(MapError),
    /// The online pass gave up on a logical layer
    /// (see [`ExecuteOutcome::into_result`]).
    Incomplete(LayerFailure),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidConfig(rule) => write!(f, "invalid configuration: {rule}"),
            CompileError::Mapping(e) => write!(f, "offline mapping failed: {e}"),
            CompileError::Incomplete(failure) => {
                write!(f, "online execution incomplete: {failure}")
            }
        }
    }
}

// The cause is inlined in `Display` (house style, like `MapError`), so
// `source()` stays `None` — chain-walking reporters would otherwise print
// the inner error twice.
impl Error for CompileError {}

impl From<MapError> for CompileError {
    fn from(e: MapError) -> Self {
        CompileError::Mapping(e)
    }
}

/// The output of the offline pass, ready for online execution.
#[derive(Debug, Clone)]
#[must_use]
pub struct CompiledProgram {
    /// The program graph state of the input circuit.
    pub program: ProgramGraph,
    /// The FlexLattice IR, instruction stream and mapping statistics.
    pub mapping: MappingResult,
    /// Wall-clock time of the offline pass.
    pub offline_time: std::time::Duration,
}

impl CompiledProgram {
    /// Number of virtual-hardware layers (logical layers the online pass
    /// must form).
    pub fn layer_count(&self) -> usize {
        self.mapping.ir.layer_count()
    }
}

/// Offline pass behind [`Session::compile`](crate::Session::compile) and
/// the program cache: circuit → program graph state → FlexLattice IR →
/// instructions. It checks the configuration first
/// ([`CompileError::InvalidConfig`]).
pub(crate) fn run_offline_pass(
    config: &CompilerConfig,
    circuit: &Circuit,
) -> Result<CompiledProgram, CompileError> {
    config.check().map_err(CompileError::InvalidConfig)?;
    let start = Instant::now();
    let program = ProgramGraph::from_circuit(circuit);
    let mapper_config = MapperConfig::new(config.virtual_hardware())
        .with_occupancy_limit(config.occupancy_limit)
        .with_refresh_period(config.refresh_period);
    let mapping = Mapper::new(mapper_config).map(&program)?;
    Ok(CompiledProgram { program, mapping, offline_time: start.elapsed() })
}

/// The reshaping-engine configuration a compiler configuration implies.
pub(crate) fn reshape_config(config: &CompilerConfig) -> ReshapeConfig {
    ReshapeConfig::new(config.hardware, config.node_size, config.virtual_side, config.seed)
        .with_temporal_redundancy(config.temporal_redundancy)
}

/// Online pass run by the warm [`Session`](crate::Session) lanes: drives
/// `engine` through every IR layer of `compiled` and derives the
/// evaluation metrics.
///
/// The caller is responsible for `engine` being in its start-of-run state
/// (freshly constructed, or [`ReshapeEngine::reset`]) with the seed it
/// wants; every metric of the outcome is then a pure function of
/// `(config, compiled, seed)` — wall-clock fields aside — regardless of
/// engine reuse, worker counts or lane placement.
///
/// When `cancel` is provided, the engine checks it before consuming each
/// merged layer: a cancelled run stops at the next checkpoint and returns
/// [`ExecuteOutcome::Incomplete`] with
/// [`LayerFailureReason::Cancelled`]. Cancellation is strictly
/// cooperative — a run that finishes before the flag is observed is
/// byte-identical to an uncancellable one, which is what keeps every
/// determinism contract intact.
pub(crate) fn run_online_pass(
    engine: &mut ReshapeEngine,
    compiled: &CompiledProgram,
    config: &CompilerConfig,
    memory_model: &MemoryModel,
    cancel: Option<&CancelToken>,
) -> ExecuteOutcome {
    let start = Instant::now();
    let mut failure: Option<LayerFailure> = None;
    for (layer_index, summary) in compiled.mapping.ir.layer_summaries().into_iter().enumerate() {
        let requirement = LayerRequirement {
            temporal_edges: summary
                .incoming_temporal
                .iter()
                .map(|&(coord, gap)| TemporalRequirement { coord, back_distance: gap })
                .collect(),
            stores: summary.stores,
            retrieves: summary.retrieves,
        };
        let report = match cancel {
            Some(token) => engine.advance_logical_layer_cancellable(&requirement, token),
            None => engine.advance_logical_layer(&requirement),
        };
        if !report.formed {
            let reason = if report.cancelled {
                LayerFailureReason::Cancelled
            } else if report.timelike_failures > report.renorm_failures {
                LayerFailureReason::TimelikeStarved
            } else {
                LayerFailureReason::RenormalizationStarved
            };
            failure = Some(LayerFailure {
                layer_index,
                reason,
                merged_layers: report.merged_layers,
                renorm_failures: report.renorm_failures,
                timelike_failures: report.timelike_failures,
            });
            break;
        }
    }
    let online_time = start.elapsed();

    let stats = *engine.stats();
    // Memory: without refresh the real-time stage retains graph
    // information for every merged layer it has consumed; with refresh
    // only the layers of the current refresh window are retained. The
    // window is `refresh_period` logical layers' worth of merged layers,
    // computed in saturating integer arithmetic — a huge refresh period
    // must degrade to "retain everything", not overflow.
    let retained_layers = match config.refresh_period {
        Some(period) => {
            let period = period as u64;
            let window = if stats.logical_layers == 0 {
                period
            } else {
                // ceil(period · merged / logical) without f64 precision
                // loss; u128 keeps the product from wrapping.
                let scaled = (period as u128 * stats.merged_layers as u128)
                    .div_ceil(stats.logical_layers as u128);
                u64::try_from(scaled).unwrap_or(u64::MAX)
            };
            window.max(period).min(stats.merged_layers.max(1))
        }
        None => stats.merged_layers.max(1),
    };
    let peak_memory_bytes = memory_model.peak_bytes(config.hardware.rsl_size, retained_layers);

    let report = ExecutionReport {
        rsl_consumed: stats.raw_rsl,
        merged_layers: stats.merged_layers,
        fusions: stats.fusions_attempted,
        logical_layers: stats.logical_layers,
        routing_layers: stats.routing_layers,
        ir_layers: compiled.layer_count(),
        program_nodes: compiled.mapping.stats.program_nodes,
        complete: failure.is_none(),
        peak_memory_bytes,
        cache: CacheStats::default(),
        service: ServiceTelemetry::default(),
        offline_time: compiled.offline_time,
        online_time,
    };
    match failure {
        None => ExecuteOutcome::Complete(report),
        Some(failure) => ExecuteOutcome::Incomplete { report, failure },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use oneperc_circuit::benchmarks;

    fn small_config(p: f64, seed: u64) -> CompilerConfig {
        // A deliberately small machine so tests stay fast: 36x36 RSL,
        // 3x3 virtual hardware, 7-qubit resource states.
        CompilerConfig::for_sensitivity(36, 3, p, seed)
    }

    /// Compiles and executes `circuit` once on a fresh session with the
    /// configuration's own seed.
    fn run(config: CompilerConfig, circuit: &Circuit) -> ExecutionReport {
        let session = Session::new(config);
        let compiled = std::sync::Arc::new(session.compile(circuit).unwrap());
        session.execute_shared(compiled, config.seed).into_report()
    }

    /// Runs the online pass on a fresh engine, optionally cancellable.
    fn run_online(
        config: &CompilerConfig,
        compiled: &CompiledProgram,
        cancel: Option<&CancelToken>,
    ) -> ExecuteOutcome {
        let mut engine = ReshapeEngine::new(reshape_config(config));
        run_online_pass(&mut engine, compiled, config, &MemoryModel::default(), cancel)
    }

    #[test]
    fn compile_produces_ir_layers() {
        let compiled = run_offline_pass(&small_config(0.9, 1), &benchmarks::qaoa(4, 2)).unwrap();
        assert!(compiled.layer_count() > 0);
        assert!(compiled.mapping.complete);
        assert!(compiled.offline_time.as_nanos() > 0);
    }

    #[test]
    fn execute_reports_consistent_metrics() {
        let report = run(small_config(0.9, 2), &benchmarks::qaoa(4, 2));
        assert!(report.complete);
        assert_eq!(report.logical_layers as usize, report.ir_layers);
        assert_eq!(
            report.merged_layers,
            report.logical_layers + report.routing_layers
        );
        assert!(report.rsl_consumed >= report.merged_layers);
        assert!(report.fusions > 0);
        assert!(report.pl_ratio() >= 1.0);
        assert!(report.peak_memory_bytes > 0);
    }

    #[test]
    fn lower_fusion_probability_costs_more_rsl() {
        let circuit = benchmarks::vqe(4, 3);
        let high = run(small_config(0.9, 3), &circuit);
        let low = run(small_config(0.72, 3), &circuit);
        assert!(
            low.rsl_consumed >= high.rsl_consumed,
            "lower fusion probability should consume at least as many RSLs ({} vs {})",
            low.rsl_consumed,
            high.rsl_consumed
        );
    }

    #[test]
    fn four_qubit_resource_states_multiply_raw_rsl() {
        let circuit = benchmarks::qaoa(4, 5);
        let seven = run(small_config(0.9, 4), &circuit);
        let four = run(small_config(0.9, 4).with_resource_state_size(4), &circuit);
        assert!(four.rsl_consumed > seven.rsl_consumed);
        assert_eq!(four.rsl_consumed, 3 * four.merged_layers);
        assert_eq!(seven.rsl_consumed, seven.merged_layers);
    }

    #[test]
    fn refresh_limits_memory_estimate() {
        let circuit = benchmarks::qft(4);
        let base = CompilerConfig::for_sensitivity(36, 3, 0.85, 9);
        let without = run(base, &circuit);
        let with = run(base.with_refresh_period(Some(5)), &circuit);
        assert!(with.peak_memory_bytes <= without.peak_memory_bytes);
        assert!(with.ir_layers >= without.ir_layers);
    }

    #[test]
    fn huge_refresh_period_saturates_instead_of_overflowing() {
        // Regression: the retained-layers window used to be computed as
        // `(period as f64 * pl_ratio).ceil() as u64`, which loses precision
        // above 2^53 and silently saturates through the float cast. The
        // integer path must degrade to "retain every merged layer" — the
        // same estimate as running without refresh — for any period.
        let circuit = benchmarks::qft(4);
        let base = CompilerConfig::for_sensitivity(36, 3, 0.85, 9);
        let unrefreshed = run(base, &circuit);
        for period in [usize::MAX, usize::MAX / 2, u64::MAX as usize] {
            let huge = run(base.with_refresh_period(Some(period)), &circuit);
            assert_eq!(
                huge.peak_memory_bytes, unrefreshed.peak_memory_bytes,
                "period {period}: a window larger than the run retains everything"
            );
        }
        // And a sane period still shrinks the estimate.
        let small = run(base.with_refresh_period(Some(5)), &circuit);
        assert!(small.peak_memory_bytes <= unrefreshed.peak_memory_bytes);
    }

    #[test]
    fn incomplete_execution_reports_failed_layer() {
        // Virtual side == RSL side cannot renormalize: the safety cap hits
        // on the very first logical layer and the outcome must say so.
        let config = CompilerConfig::for_sensitivity(12, 12, 0.7, 5);
        let compiled = run_offline_pass(&config, &benchmarks::qaoa(4, 1)).unwrap();
        let outcome = run_online(&config, &compiled, None);
        assert!(!outcome.is_complete());
        let failure = outcome.failure().unwrap();
        assert_eq!(failure.layer_index, 0);
        assert_eq!(failure.merged_layers, failure.renorm_failures + failure.timelike_failures);
        assert_eq!(
            failure.reason,
            crate::report::LayerFailureReason::RenormalizationStarved
        );
        // The flattened report carries the same information in the bool.
        assert!(!outcome.into_report().complete);
    }

    #[test]
    fn cancelled_token_stops_the_online_pass() {
        let config = CompilerConfig::for_sensitivity(36, 3, 0.9, 6);
        let compiled = run_offline_pass(&config, &benchmarks::qaoa(4, 2)).unwrap();

        // Pre-cancelled: the run stops before consuming a single merged
        // layer and says why.
        let token = CancelToken::new();
        token.cancel();
        let outcome = run_online(&config, &compiled, Some(&token));
        assert!(!outcome.is_complete());
        let failure = outcome.failure().unwrap();
        assert_eq!(failure.reason, LayerFailureReason::Cancelled);
        assert_eq!(failure.layer_index, 0);
        assert_eq!(outcome.report().merged_layers, 0);

        // A live token never perturbs the run: byte-identical to the
        // uncancellable path.
        let live = CancelToken::new();
        let with_token = run_online(&config, &compiled, Some(&live));
        let plain = run_online(&config, &compiled, None);
        assert_eq!(
            with_token.report().deterministic(),
            plain.report().deterministic()
        );
        assert!(with_token.is_complete());
    }

    #[test]
    fn reports_are_reproducible_per_seed() {
        let circuit = benchmarks::rca(4);
        let a = run(small_config(0.8, 77), &circuit);
        let b = run(small_config(0.8, 77), &circuit);
        assert_eq!(a.rsl_consumed, b.rsl_consumed);
        assert_eq!(a.fusions, b.fusions);
    }
}
