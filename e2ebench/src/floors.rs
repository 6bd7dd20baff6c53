//! Timing on a shared machine: per-slot floors, normalised by a fixed
//! calibration kernel.
//!
//! The machines this runs on share their cores with other tenants, and the
//! speed they give this memory-heavy code drifts by 20–40%: within a run in
//! phases of seconds, and between runs in phases of minutes. Two measures
//! take that out of the end-to-end timings:
//!
//! - A timed loop repeats the same pieces of work (a group of compiles, a
//!   verification batch, one case's candidate preparation: milliseconds
//!   each), and each piece keeps its fastest time over the run's passes.
//!   A short piece finds an uncontended moment far more often than a whole
//!   pass does.
//! - Just before every piece, the same slot times one run of a fixed
//!   calibration kernel (string formatting, hashing, sorting; no repository
//!   code), and keeps its fastest time too. The reported time is the sum of
//!   the work floors scaled by `KERNEL_REF_S` over the kernel's mean floor:
//!   the work's time on a machine where the kernel takes `KERNEL_REF_S`. A
//!   slow phase that lasts a whole run slows both alike and cancels; a
//!   change to the program moves the work and not the kernel.
//!
//! The text report prints the floors as measured next to their reference
//! value. `setup_s` is reported as measured: set-up runs monolithic calls
//! of seconds, which no kernel sample taken around them can calibrate.

use std::hint::black_box;
use std::time::Instant;

/// Strings the calibration kernel builds.
const KERNEL_STRINGS: u64 = 1000;

/// The reference machine's kernel time, in seconds: a unit of machine
/// speed, near the kernel's floor on a 2-vCPU Xeon guest.
const KERNEL_REF_S: f64 = 2.0e-4;

/// The calibration kernel: formats strings, hashes them into a map and
/// sorts them. `salt` varies the data, not the work.
fn kernel(salt: u64) -> usize {
    let mut names: Vec<String> = (0..KERNEL_STRINGS)
        .map(|i| format!("sig_{}_{}", i ^ salt, i * 7))
        .collect();
    let index: std::collections::HashMap<&str, u64> =
        names.iter().map(|s| s.as_str()).zip(0..).collect();
    let distinct = index.len();
    drop(index);
    names.sort_unstable();
    distinct + names[(salt % KERNEL_STRINGS) as usize].len()
}

/// The fastest time of each slot's work and of the kernel run before it,
/// over a run's passes.
pub struct Floors {
    work: Vec<f64>,
    kernel: Vec<f64>,
}

impl Floors {
    pub fn new(slots: usize) -> Self {
        Floors {
            work: vec![f64::INFINITY; slots],
            kernel: vec![f64::INFINITY; slots],
        }
    }

    /// Runs the kernel and then `f` as slot `slot`, lowering both floors.
    pub fn time<T>(&mut self, slot: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        black_box(kernel(black_box(slot as u64)));
        let kernel_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let out = f();
        let work_s = start.elapsed().as_secs_f64();
        self.kernel[slot] = self.kernel[slot].min(kernel_s);
        self.work[slot] = self.work[slot].min(work_s);
        out
    }

    /// The machine's speed relative to the reference: `KERNEL_REF_S` over
    /// the kernel's mean floor (below 1 on a slower machine).
    fn speed(&self) -> f64 {
        KERNEL_REF_S * self.kernel.len() as f64 / self.kernel.iter().sum::<f64>()
    }

    /// Sum of the work floors in reference seconds; prints it, as measured
    /// and scaled, under `what`.
    pub fn total(&self, what: &str) -> f64 {
        let measured: f64 = self.work.iter().sum();
        let reference = measured * self.speed();
        println!(
            "{what}: {measured:.4} s as measured, speed {:.4} of the reference, \
             {reference:.4} reference s",
            self.speed()
        );
        reference
    }
}
