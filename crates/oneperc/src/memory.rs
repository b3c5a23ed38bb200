//! Classical-memory model for the refresh study (Table 3).
//!
//! The real-time stage must keep classical graph information for every
//! physical qubit whose fate is not yet decided: the sites of the RSLs that
//! are still reachable through stored photons and routing layers. The
//! paper's reference implementation keeps roughly half a kilobyte of Python
//! object overhead per site, which is what makes the 64-qubit benchmarks
//! consume ~192 GB without refresh. The refresh mechanism bounds the number
//! of retained layers to one refresh window.

/// Estimates classical memory consumption of the real-time stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryModel {
    /// Bytes of graph bookkeeping per physical lattice site.
    pub bytes_per_site: u64,
}

impl Default for MemoryModel {
    fn default() -> Self {
        MemoryModel { bytes_per_site: Self::DEFAULT_BYTES_PER_SITE }
    }
}

impl MemoryModel {
    /// Default per-site cost, calibrated against the paper's reported RAM
    /// footprints (≈ 192 GB for the 64-qubit benchmarks without refresh).
    pub const DEFAULT_BYTES_PER_SITE: u64 = 512;

    /// Creates a model with an explicit per-site cost.
    pub fn new(bytes_per_site: u64) -> Self {
        MemoryModel { bytes_per_site }
    }

    /// Peak memory (bytes) when graph information for `retained_layers`
    /// merged layers of an `rsl_size × rsl_size` machine must be kept at
    /// once.
    pub fn peak_bytes(&self, rsl_size: usize, retained_layers: u64) -> u64 {
        (rsl_size as u64) * (rsl_size as u64) * retained_layers * self.bytes_per_site
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_footprints() {
        const GIB: u64 = 1 << 30;
        let model = MemoryModel::default();
        // 64-qubit benchmarks: 192x192 RSL, ~10 000 merged layers without
        // refresh lands in the hundred-GB range.
        let no_refresh = model.peak_bytes(192, 10_000);
        assert!(no_refresh > 100 * GIB, "expected >100 GiB, got {no_refresh} B");
        // 25-qubit benchmarks without refresh stay within 32 GB.
        let small = model.peak_bytes(120, 3_000);
        assert!(small < 32 * GIB, "expected <32 GiB, got {small} B");
        // 100-qubit benchmarks with a 50-layer refresh window fit in 32 GB.
        let refreshed = model.peak_bytes(240, 150);
        assert!(refreshed < 32 * GIB, "expected <32 GiB, got {refreshed} B");
        assert_eq!(MemoryModel::new(1024).peak_bytes(10, 2), 100 * 2 * 1024);
    }
}
