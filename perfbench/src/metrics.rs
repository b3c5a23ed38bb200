//! The benchmark's metric catalogue (mirrored by `BENCHMARK.json`, which the
//! smoke test checks against it) and the recorder that collects one run's
//! values and raw samples.

use crate::json::Value;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound of an end-to-end metric, as a share of the parent's
    /// median.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("compile_s", "s", "lower", 0.25),
    e2e("execute_s_per_seed", "s", "lower", 0.25),
    e2e("jobs_per_s", "1/s", "higher", 0.25),
    e2e("job_latency_p50_s", "s", "lower", 0.25),
    e2e("job_latency_p90_s", "s", "lower", 0.25),
    e2e("rsl_per_logical_layer", "count", "lower", 0.15),
    e2e("fusions_per_logical_layer", "count", "lower", 0.1),
    e2e("ir_layers", "count", "lower", 0.1),
    e2e("completed_frac", "frac", "higher", 0.01),
    e2e("peak_rss_mib", "MiB", "lower", 0.15),
];

/// Printed by traced runs (`--trace 1`).
pub const PER_LAYER: &[MetricSpec] = &[
    layer("circuit.program_graph_s", "s", "lower"),
    layer("circuit.dag_s", "s", "lower"),
    layer("circuit.program_nodes", "count", "lower"),
    layer("mapper.self_s", "s", "lower"),
    layer("mapper.us_per_node", "us", "lower"),
    layer("mapper.peak_live_nodes", "count", "lower"),
    layer("mapper.temporal_edges", "count", "lower"),
    layer("mapper.deferred_edges", "count", "lower"),
    layer("ir.lower_s", "s", "lower"),
    layer("ir.summaries_s", "s", "lower"),
    layer("ir.layers", "count", "lower"),
    layer("hardware.generate_us_per_layer", "us", "lower"),
    layer("hardware.fusions_per_layer", "count", "lower"),
    layer("hardware.fusion_success_ratio", "frac", "higher"),
    layer("percolation.renormalize_us_per_layer", "us", "lower"),
    layer("percolation.renorm_success_ratio", "frac", "higher"),
    layer("percolation.advance_us_per_logical_layer", "us", "lower"),
    layer("percolation.connect_us_per_logical_layer", "us", "lower"),
    layer("percolation.pl_ratio", "ratio", "lower"),
    layer(
        "percolation.renorm_failures_per_logical_layer",
        "count",
        "lower",
    ),
    layer(
        "percolation.timelike_failures_per_logical_layer",
        "count",
        "lower",
    ),
    layer("percolation.delay_line_peak", "count", "lower"),
    layer("oneperc.online_s_per_seed", "s", "lower"),
    layer("oneperc.job_overhead_s", "s", "lower"),
    layer("service.cache_hit_ratio", "frac", "higher"),
    layer("service.cache_misses", "count", "lower"),
    layer("service.cache_evictions", "count", "lower"),
    layer("service.compile_on_miss_s", "s", "lower"),
    layer("service.queue_wait_s", "s", "lower"),
    layer("service.admission_wait_s", "s", "lower"),
    layer("recon.compile_stages_s", "s", "lower"),
    layer("recon.compile_residual_frac", "frac", "lower"),
    layer("recon.online_stages_s", "s", "lower"),
    layer("recon.online_residual_frac", "frac", "lower"),
    layer("trace.overhead_frac", "frac", "lower"),
];

/// The catalogue a run prints.
pub fn catalogue(traced: bool) -> &'static [MetricSpec] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Values, raw samples and notes gathered during one run.
#[derive(Debug)]
pub struct Recorder {
    values: Vec<(&'static str, f64)>,
    samples: Value,
    notes: Value,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            values: Vec::new(),
            samples: Value::obj(),
            notes: Value::obj(),
        }
    }
}

impl Recorder {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Keeps the raw samples behind a reported statistic.
    pub fn samples(&mut self, name: &str, samples: Vec<f64>) {
        self.samples.push(name, samples);
    }

    /// A free-form remark for the provenance header (how a metric was
    /// derived, which circuits a workload used).
    pub fn note(&mut self, key: &str, text: impl Into<String>) {
        self.notes.push(key, Value::Str(text.into()));
    }

    /// The `metrics` object of the result line for `catalogue`.
    ///
    /// # Errors
    ///
    /// Names the first catalogue metric the run did not record.
    pub fn metrics_json(&self, catalogue: &[MetricSpec]) -> Result<Value, String> {
        let mut out = Value::obj();
        for spec in catalogue {
            let value = self
                .get(spec.name)
                .ok_or_else(|| format!("metric `{}` was not recorded", spec.name))?;
            let mut entry = Value::obj();
            entry.push("value", value);
            entry.push("unit", spec.unit);
            out.push(spec.name, entry);
        }
        Ok(out)
    }

    pub fn into_parts(self) -> (Value, Value) {
        (self.samples, self.notes)
    }
}
