//! Host speed. The benchmark shares a few cores of a busy machine whose
//! speed drifts by tens of percent for seconds at a time, which moves every
//! wall-clock figure of a run together. A fixed calibration kernel — code
//! of this crate, untouched by changes to the stack under test — is timed
//! between the workload's timed operations, and each timing is scaled by
//! [`REFERENCE_KERNEL_S`] over the kernel's time around it: the benchmark
//! reports seconds at a reference host speed, and a change to the stack
//! moves them while a change in host speed largely cancels.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::metrics::Recorder;
use crate::stats::{median, secs};

/// The kernel's time at the reference host speed: about its median on a
/// shared 2-vCPU Xeon host in a quiet period. A constant, so that scaled
/// figures of different runs and revisions compare directly.
pub const REFERENCE_KERNEL_S: f64 = 0.8e-3;

/// Timings of the kernel taken back to back; a probe keeps their minimum.
const REPS: usize = 3;

/// Buffers the kernel reuses between probes.
struct Scratch {
    map: HashMap<u64, u64>,
    sort: Vec<u32>,
    /// A single-cycle random permutation of 64 Ki entries (256 KiB).
    walk: Vec<u32>,
}

/// xorshift64: the kernel's fixed pseudo-random stream.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Scratch {
    fn new() -> Self {
        const LEN: usize = 1 << 16;
        // Sattolo's shuffle gives one cycle through every entry.
        let mut order: Vec<u32> = (0..LEN as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1D;
        for i in (1..LEN).rev() {
            let j = (xorshift(&mut x) % i as u64) as usize;
            order.swap(i, j);
        }
        let mut walk = vec![0; LEN];
        for k in 0..LEN {
            walk[order[k] as usize] = order[(k + 1) % LEN];
        }
        Scratch {
            map: HashMap::with_capacity(4096),
            sort: vec![0; 4096],
            walk,
        }
    }

    /// A fixed mix of the kinds of work the stack does: hash-map inserts
    /// and lookups, small allocations, a sort, and a dependent walk over a
    /// table larger than L1.
    fn kernel(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15;
        self.map.clear();
        for _ in 0..6144 {
            *self.map.entry(xorshift(&mut x) & 0xFFF).or_insert(0) += 1;
        }
        let mut acc = 0u64;
        for _ in 0..6144 {
            let key = xorshift(&mut x) & 0xFFF;
            acc = acc.wrapping_add(*self.map.get(&key).unwrap_or(&0));
        }
        let lists: Vec<Vec<u64>> = (0..6000u64)
            .map(|k| {
                let mut v = Vec::with_capacity((k % 37) as usize + 1);
                v.push(k);
                v
            })
            .collect();
        let index: HashMap<u64, usize> = lists
            .iter()
            .enumerate()
            .map(|(k, v)| (v[0].wrapping_mul(0x9E37_79B9), k))
            .collect();
        acc = acc.wrapping_add(black_box(index.len()) as u64);
        for v in &mut self.sort {
            *v = xorshift(&mut x) as u32;
        }
        self.sort.sort_unstable();
        acc ^= u64::from(self.sort[self.sort.len() / 2]);
        let mut i = (xorshift(&mut x) as usize) % self.walk.len();
        for _ in 0..49_152 {
            i = self.walk[i] as usize;
            acc = acc.wrapping_add(i as u64);
        }
        acc
    }
}

/// Probes the host's speed between a workload's timed operations.
pub struct HostClock {
    scratch: Scratch,
    last: f64,
    /// Every probe's kernel time, in seconds.
    pub probes: Vec<f64>,
}

impl Default for HostClock {
    fn default() -> Self {
        let mut clock = HostClock {
            scratch: Scratch::new(),
            last: 0.0,
            probes: Vec::new(),
        };
        clock.last = clock.probe();
        clock
    }
}

impl HostClock {
    /// Times the kernel now; keeps and returns the fastest of [`REPS`].
    fn probe(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t = Instant::now();
            black_box(self.scratch.kernel());
            best = best.min(secs(t.elapsed()));
        }
        self.probes.push(best);
        best
    }

    /// Probes the host now and returns the scale for timings taken since
    /// the previous tick: [`REFERENCE_KERNEL_S`] over the mean of the
    /// kernel's time at the two ticks.
    pub fn tick(&mut self) -> f64 {
        let now = self.probe();
        let scale = REFERENCE_KERNEL_S / (0.5 * (self.last + now));
        self.last = now;
        scale
    }

    /// Puts the probes and how timings were scaled in the provenance
    /// header.
    pub fn record(&self, rec: &mut Recorder) {
        rec.samples("host.kernel_s", self.probes.clone());
        rec.note(
            "host.scale",
            format!(
                "timings are seconds at the reference host speed: each is scaled by \
                 {REFERENCE_KERNEL_S} s over the calibration kernel's mean time at the probes \
                 around it; the run's median kernel time was {} s",
                median(&self.probes)
            ),
        );
    }
}
