//! Execution metrics: the paper's `#RSL` and `#fusion`, plus supporting
//! statistics, and the counters of the service layer's compiled-program
//! cache.

use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Counters of a session's content-addressed compiled-program cache at a
/// point in time (see [`crate::service::ProgramCache`]).
///
/// A snapshot travels on every [`ExecutionReport`] produced through a
/// cached entry point ([`Session::sweep`](crate::Session::sweep),
/// [`AsyncSession::submit_circuit`](crate::service::AsyncSession::submit_circuit),
/// …) so service callers can observe hit rates in-band; reports from
/// explicit-program paths carry the all-zero default. The counters describe
/// the session's *traffic history*, not the execution itself —
/// [`ExecutionReport::deterministic`] therefore clears them along with the
/// wall-clock fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the offline pass.
    pub misses: u64,
    /// Entries displaced to make room (LRU order).
    pub evictions: u64,
    /// Programs currently resident.
    pub entries: usize,
    /// Maximum resident programs (`0` = caching disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Total lookups served.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (`0.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.0}% hit rate), {} of {} entries resident, {} evictions",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.capacity,
            self.evictions
        )
    }
}

/// Per-tenant scheduling telemetry stamped by the service entry points
/// ([`Session::sweep`](crate::Session::sweep),
/// [`AsyncSession::submit`](crate::service::AsyncSession::submit), …).
///
/// These fields describe how the *scheduler* treated one job — how deep
/// the admission queue was when it was accepted, how long it waited for a
/// lane, and whether its program came out of the shared cache. Like the
/// wall-clock fields they are operational, not a function of
/// `(config, circuit, seed)`, so [`ExecutionReport::deterministic`]
/// clears them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use]
pub struct ServiceTelemetry {
    /// Jobs already admitted (in flight) when this job was accepted,
    /// including this one — `1` means it had the service to itself.
    pub queue_depth: u64,
    /// Wall-clock time between submission and the lane starting the run.
    pub queue_wait: Duration,
    /// Whether this job's compiled program was answered from the cache
    /// (waiters served by another tenant's in-flight compile count as
    /// hits).
    pub cache_hit: bool,
}

/// The metrics of one end-to-end compilation + execution, aligned with the
/// columns of Table 2 and the series of the analysis figures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[must_use]
pub struct ExecutionReport {
    /// Raw resource-state layers consumed — the paper's `#RSL`.
    pub rsl_consumed: u64,
    /// Merged layers consumed (equals `#RSL` divided by the merging factor).
    pub merged_layers: u64,
    /// Fusions attempted — the paper's `#fusion`.
    pub fusions: u64,
    /// Logical layers formed by the online pass (equals the layers of the IR
    /// program when execution completes).
    pub logical_layers: u64,
    /// Routing layers consumed along the way.
    pub routing_layers: u64,
    /// Virtual-hardware layers requested by the offline pass.
    pub ir_layers: usize,
    /// Program-graph nodes mapped by the offline pass.
    pub program_nodes: usize,
    /// Whether every requested logical layer was formed within the safety
    /// caps.
    pub complete: bool,
    /// Peak classical-memory estimate in bytes for the real-time stage.
    pub peak_memory_bytes: u64,
    /// Compiled-program cache counters at report time, when the execution
    /// came through a cached entry point (all-zero default otherwise). Like
    /// the wall-clock fields this is operational telemetry, not a function
    /// of `(config, circuit, seed)`; [`ExecutionReport::deterministic`]
    /// clears it.
    pub cache: CacheStats,
    /// Per-tenant scheduling telemetry, when the execution came through a
    /// service entry point (all-zero default otherwise). Operational like
    /// the wall-clock fields; [`ExecutionReport::deterministic`] clears it.
    pub service: ServiceTelemetry,
    /// Wall-clock time spent in the offline pass.
    pub offline_time: Duration,
    /// Wall-clock time spent simulating the online pass.
    pub online_time: Duration,
}

impl ExecutionReport {
    /// The PL ratio: merged layers consumed per logical layer (Fig. 13(b)).
    pub fn pl_ratio(&self) -> f64 {
        if self.logical_layers == 0 {
            0.0
        } else {
            self.merged_layers as f64 / self.logical_layers as f64
        }
    }

    /// Peak classical memory in gibibytes.
    pub fn peak_memory_gib(&self) -> f64 {
        self.peak_memory_bytes as f64 / (1u64 << 30) as f64
    }

    /// Average online processing time per merged layer (Fig. 14).
    pub fn online_seconds_per_layer(&self) -> f64 {
        if self.merged_layers == 0 {
            0.0
        } else {
            self.online_time.as_secs_f64() / self.merged_layers as f64
        }
    }

    /// Per-RSL latency: raw resource-state layers consumed per formed
    /// logical layer. The RSG array emits one raw layer per cycle, so this
    /// is also the number of RSG cycles a logical layer costs — the figure
    /// to hold against
    /// [`HardwareConfig::photon_lifetime_cycles`](oneperc_hardware::HardwareConfig)
    /// when asking whether photons survive until their layer forms.
    /// Returns `0.0` when no logical layer formed (mirroring
    /// [`ExecutionReport::pl_ratio`]); for complete runs it is bounded
    /// below by the merging factor.
    pub fn rsl_per_logical_layer(&self) -> f64 {
        if self.logical_layers == 0 {
            0.0
        } else {
            self.rsl_consumed as f64 / self.logical_layers as f64
        }
    }

    /// The report with its wall-clock fields and cache counters zeroed:
    /// every remaining field is a pure function of the configuration and
    /// seed, so two runs of the same `(config, circuit, seed)` must produce
    /// equal deterministic views whatever machine, session, batch or cache
    /// state they ran against. This is the comparison form used by the
    /// batch-determinism suite.
    pub fn deterministic(mut self) -> ExecutionReport {
        self.offline_time = Duration::ZERO;
        self.online_time = Duration::ZERO;
        self.cache = CacheStats::default();
        self.service = ServiceTelemetry::default();
        self
    }
}

/// Why a logical layer could not be formed within the safety cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LayerFailureReason {
    /// Most attempts never renormalized to the target lattice — the RSL is
    /// too small or the fusion probability too close to the percolation
    /// threshold for this virtual-hardware size.
    RenormalizationStarved,
    /// Renormalization mostly succeeded but the requested time-like
    /// connections kept failing — temporal redundancy or photon lifetime is
    /// the binding constraint.
    TimelikeStarved,
    /// The submitter cancelled the job (dropped its
    /// [`JobFuture`](crate::service::JobFuture) or called `cancel()`): the
    /// online pass stopped at a layer checkpoint before consuming further
    /// merged layers. The report covers everything consumed up to the
    /// checkpoint.
    Cancelled,
}

impl fmt::Display for LayerFailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerFailureReason::RenormalizationStarved => {
                write!(f, "2D renormalization kept missing the target lattice")
            }
            LayerFailureReason::TimelikeStarved => {
                write!(f, "time-like connections kept failing")
            }
            LayerFailureReason::Cancelled => {
                write!(f, "the submitter cancelled the job")
            }
        }
    }
}

/// Diagnostic detail for an online pass that gave up: which logical layer
/// failed to form, after consuming how much, and why.
///
/// Replaces silently inspecting [`ExecutionReport::complete`] — an
/// incomplete execution now says *what* starved it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerFailure {
    /// Zero-based index of the IR logical layer that failed to form.
    pub layer_index: usize,
    /// Dominant failure mode of the attempts.
    pub reason: LayerFailureReason,
    /// Merged layers consumed by the failed attempt (the safety cap).
    pub merged_layers: usize,
    /// Attempts that failed 2D renormalization.
    pub renorm_failures: usize,
    /// Attempts that renormalized but failed a time-like connection.
    pub timelike_failures: usize,
}

impl fmt::Display for LayerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "logical layer {} failed to form after {} merged layers \
             ({} renormalization failures, {} time-like failures): {}",
            self.layer_index,
            self.merged_layers,
            self.renorm_failures,
            self.timelike_failures,
            self.reason
        )
    }
}

// `LayerFailure` is the error payload of an incomplete execution
// (`ExecuteOutcome::into_result` wraps it in `CompileError::Incomplete`);
// implementing `Error` lets service callers `?` it into `Box<dyn Error>`
// directly instead of matching the outcome by hand.
impl Error for LayerFailure {}

/// Typed outcome of an online execution: the metrics, plus — when the run
/// gave up — the failed layer's diagnostics instead of a silent
/// `complete: false`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use]
pub enum ExecuteOutcome {
    /// Every requested logical layer was formed.
    Complete(ExecutionReport),
    /// A logical layer hit the safety cap; `report` covers everything
    /// consumed up to (and including) the failed attempt.
    Incomplete {
        /// Metrics of the partial run.
        report: ExecutionReport,
        /// Which layer failed, and why.
        failure: LayerFailure,
    },
}

impl ExecuteOutcome {
    /// Whether every logical layer was formed.
    pub fn is_complete(&self) -> bool {
        matches!(self, ExecuteOutcome::Complete(_))
    }

    /// The execution metrics, complete or not.
    pub fn report(&self) -> &ExecutionReport {
        match self {
            ExecuteOutcome::Complete(report) => report,
            ExecuteOutcome::Incomplete { report, .. } => report,
        }
    }

    /// Consumes the outcome into its metrics, complete or not.
    pub fn into_report(self) -> ExecutionReport {
        match self {
            ExecuteOutcome::Complete(report) => report,
            ExecuteOutcome::Incomplete { report, .. } => report,
        }
    }

    /// The failed layer's diagnostics, when the run gave up.
    pub fn failure(&self) -> Option<&LayerFailure> {
        match self {
            ExecuteOutcome::Complete(_) => None,
            ExecuteOutcome::Incomplete { failure, .. } => Some(failure),
        }
    }

    /// Converts to a `Result`, mapping an incomplete run onto
    /// [`CompileError::Incomplete`](crate::CompileError::Incomplete).
    pub fn into_result(self) -> Result<ExecutionReport, crate::CompileError> {
        match self {
            ExecuteOutcome::Complete(report) => Ok(report),
            ExecuteOutcome::Incomplete { failure, .. } => {
                Err(crate::CompileError::Incomplete(failure))
            }
        }
    }

    /// The metrics, mutably — for the service stamps below.
    fn report_mut(&mut self) -> &mut ExecutionReport {
        match self {
            ExecuteOutcome::Complete(report) => report,
            ExecuteOutcome::Incomplete { report, .. } => report,
        }
    }

    /// Stamps the report with this lookup's cache counters and whether it
    /// hit; used by the cached entry points of the session and the async
    /// service so hit rates are observable in-band. The counters are the
    /// lookup's own atomic snapshot, not a post-hoc cache read — traffic
    /// from concurrent tenants (or later lookups of the same sweep) cannot
    /// smear them.
    pub(crate) fn with_cache_stamp(mut self, hit: bool, stats: CacheStats) -> ExecuteOutcome {
        let report = self.report_mut();
        report.cache = stats;
        report.service.cache_hit = hit;
        self
    }

    /// Stamps the report with the scheduler's admission telemetry: how
    /// many jobs were in flight when this one was accepted and how long it
    /// waited for a lane.
    pub(crate) fn with_queue_telemetry(mut self, depth: u64, wait: Duration) -> ExecuteOutcome {
        let report = self.report_mut();
        report.service.queue_depth = depth;
        report.service.queue_wait = wait;
        self
    }
}

impl fmt::Display for ExecuteOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecuteOutcome::Complete(report) => report.fmt(f),
            ExecuteOutcome::Incomplete { failure, .. } => {
                write!(f, "incomplete execution: {failure}")
            }
        }
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "#RSL            {:>12}", self.rsl_consumed)?;
        writeln!(f, "#fusion         {:>12}", self.fusions)?;
        writeln!(f, "logical layers  {:>12}", self.logical_layers)?;
        writeln!(f, "routing layers  {:>12}", self.routing_layers)?;
        writeln!(f, "PL ratio        {:>12.2}", self.pl_ratio())?;
        writeln!(f, "peak memory     {:>9.2} GiB", self.peak_memory_gib())?;
        if self.cache.lookups() > 0 {
            writeln!(f, "program cache   {}", self.cache)?;
        }
        writeln!(
            f,
            "offline time    {:>9.2} s",
            self.offline_time.as_secs_f64()
        )?;
        write!(f, "online time     {:>9.2} s", self.online_time.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let report = ExecutionReport {
            rsl_consumed: 90,
            merged_layers: 30,
            logical_layers: 10,
            routing_layers: 20,
            online_time: Duration::from_secs(3),
            ..ExecutionReport::default()
        };
        assert!((report.pl_ratio() - 3.0).abs() < 1e-12);
        assert!((report.online_seconds_per_layer() - 0.1).abs() < 1e-12);
        assert_eq!(ExecutionReport::default().pl_ratio(), 0.0);
        assert_eq!(ExecutionReport::default().online_seconds_per_layer(), 0.0);
    }

    #[test]
    fn cost_model_accessors() {
        let report = ExecutionReport {
            rsl_consumed: 90,
            merged_layers: 30,
            logical_layers: 10,
            ..ExecutionReport::default()
        };
        assert!((report.rsl_per_logical_layer() - 9.0).abs() < 1e-12);
        assert_eq!(ExecutionReport::default().rsl_per_logical_layer(), 0.0);
    }

    #[test]
    fn display_contains_metrics() {
        let report = ExecutionReport { rsl_consumed: 42, fusions: 7, ..Default::default() };
        let text = report.to_string();
        assert!(text.contains("#RSL"));
        assert!(text.contains("42"));
        assert!(text.contains("#fusion"));
        assert!(!text.contains("program cache"), "idle cache stays out of the report");
        let cached = ExecutionReport {
            cache: CacheStats { hits: 3, misses: 1, evictions: 0, entries: 1, capacity: 8 },
            ..report
        };
        assert!(cached.to_string().contains("program cache"));
    }

    #[test]
    fn cache_stats_ratios_and_display() {
        let stats = CacheStats { hits: 3, misses: 1, evictions: 2, entries: 4, capacity: 8 };
        assert_eq!(stats.lookups(), 4);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let text = stats.to_string();
        assert!(text.contains("3 hits"));
        assert!(text.contains("75% hit rate"));
        assert!(text.contains("2 evictions"));
    }

    #[test]
    fn deterministic_clears_cache_counters() {
        let report = ExecutionReport {
            rsl_consumed: 9,
            cache: CacheStats { hits: 5, misses: 1, evictions: 0, entries: 1, capacity: 4 },
            service: ServiceTelemetry {
                queue_depth: 3,
                queue_wait: Duration::from_millis(7),
                cache_hit: true,
            },
            online_time: Duration::from_secs(1),
            ..Default::default()
        };
        let det = report.deterministic();
        assert_eq!(det.cache, CacheStats::default());
        assert_eq!(det.service, ServiceTelemetry::default());
        assert_eq!(det.rsl_consumed, 9);
        assert_eq!(det.online_time, Duration::ZERO);
    }

    #[test]
    fn service_stamps_land_on_either_outcome_form() {
        let report = ExecutionReport::default();
        let stats = CacheStats { hits: 2, misses: 1, evictions: 0, entries: 1, capacity: 4 };
        let complete = ExecuteOutcome::Complete(report)
            .with_cache_stamp(true, stats)
            .with_queue_telemetry(2, Duration::from_millis(5));
        assert!(complete.report().service.cache_hit);
        assert_eq!(complete.report().service.queue_depth, 2);
        assert_eq!(complete.report().cache, stats);

        let failure = LayerFailure {
            layer_index: 0,
            reason: LayerFailureReason::Cancelled,
            merged_layers: 1,
            renorm_failures: 1,
            timelike_failures: 0,
        };
        let incomplete = ExecuteOutcome::Incomplete { report, failure }
            .with_cache_stamp(false, stats)
            .with_queue_telemetry(1, Duration::ZERO);
        assert!(!incomplete.report().service.cache_hit);
        assert_eq!(incomplete.report().cache, stats);
        assert!(failure.to_string().contains("cancelled"));
    }

    #[test]
    fn layer_failure_is_a_std_error() {
        let failure = LayerFailure {
            layer_index: 2,
            reason: LayerFailureReason::TimelikeStarved,
            merged_layers: 10,
            renorm_failures: 1,
            timelike_failures: 9,
        };
        // `?`-compatibility: the failure coerces into `Box<dyn Error>`.
        let boxed: Box<dyn Error> = Box::new(failure);
        assert!(boxed.to_string().contains("logical layer 2"));
    }

    #[test]
    fn outcome_display_covers_both_forms() {
        let report = ExecutionReport { rsl_consumed: 42, ..Default::default() };
        assert!(ExecuteOutcome::Complete(report).to_string().contains("#RSL"));
        let failure = LayerFailure {
            layer_index: 0,
            reason: LayerFailureReason::RenormalizationStarved,
            merged_layers: 3,
            renorm_failures: 3,
            timelike_failures: 0,
        };
        let text = ExecuteOutcome::Incomplete { report, failure }.to_string();
        assert!(text.contains("incomplete execution"));
        assert!(text.contains("logical layer 0"));
    }
}
