//! How fast the host is *right now*, from a reference kernel the benchmark
//! owns.
//!
//! The sandbox this benchmark runs in slows down for a minute or two at a
//! time (a neighbour on the same machine): the same epochs then take up to
//! twice the wall *and* CPU time, and since a spell outlasts a run no window
//! length averages it out.  Forty runs across one spell spread by 24–38 %
//! between their quartiles on the prep-bound workloads, past the widest
//! bound the manifest allows (README, "Host-speed normalisation").  Between
//! the epochs of a window the harness therefore times two fixed pieces of
//! work of its own — a byte-wise transform over a cache-resident buffer and
//! a copy through memory, the two things the loader's stages spend their
//! time on — and the run's time-based end-to-end metrics are divided by how
//! much slower than nominal ran the piece that resembles the workload's
//! blocking stage.  The two are kept apart because a spell is not one
//! factor: it slowed the transform by up to 2.1x and the copy by 1.3x, and
//! the prep-bound workloads followed the first and the fetch-bound ones the
//! second.
//!
//! The kernel must not call the measured program, or a faster program would
//! normalise its own gain away.

use crate::workloads::Stage;
use std::hint::black_box;
use std::time::Instant;

/// Buffer of the transform part: fits the second-level cache.
const TRANSFORM_BYTES: usize = 256 * 1024;
const TRANSFORM_PASSES: u8 = 64;

/// Buffer of the copy part: does not.
const COPY_BYTES: usize = 4 * 1024 * 1024;
const COPY_PASSES: usize = 4;

/// What the transform and the copy take on a host of nominal speed, in
/// milliseconds.  A convention, close to the recorded host while it is
/// quiet: only ratios to it matter, and on another class of host every
/// normalised number of a workload shifts by one constant factor, for the
/// parent commit and the change alike.
pub const NOMINAL_MS: (f64, f64) = (0.45, 1.8);

/// The kernel runs between epochs, at most this often.
const SPACING_S: f64 = 0.05;

/// Times the reference kernel between epochs.
pub struct HostSpeed {
    src: Vec<u8>,
    dst: Vec<u8>,
    /// Slowdown of the transform and of the copy, per sample.
    slowdowns: Vec<(f64, f64)>,
    last: Option<Instant>,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            src: (0..COPY_BYTES).map(|i| i as u8).collect(),
            dst: vec![0u8; COPY_BYTES],
            slowdowns: Vec::new(),
            last: None,
        }
    }

    /// Run the kernel once and record by what factor each part was slower
    /// than nominal.
    pub fn sample(&mut self) {
        let start = Instant::now();
        for pass in 0..TRANSFORM_PASSES {
            let (src, dst) = (
                &self.src[..TRANSFORM_BYTES],
                &mut self.dst[..TRANSFORM_BYTES],
            );
            for (d, s) in dst.iter_mut().zip(src) {
                *d = s.wrapping_add(pass);
            }
            black_box(&mut self.dst);
        }
        let transform_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        for _ in 0..COPY_PASSES {
            self.dst.copy_from_slice(&self.src);
            black_box(&mut self.dst);
        }
        let copy_ms = start.elapsed().as_secs_f64() * 1e3;
        self.slowdowns
            .push((transform_ms / NOMINAL_MS.0, copy_ms / NOMINAL_MS.1));
        self.last = Some(Instant::now());
    }

    /// [`HostSpeed::sample`], unless the last sample is younger than
    /// [`SPACING_S`]: short epochs need not pay for one each.
    pub fn sample_if_due(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= SPACING_S)
        {
            self.sample();
        }
    }

    /// Median slowdown, since the last call, of the part that resembles a
    /// workload bound by `stage` (1 when there were no samples).
    pub fn take_slowdown(&mut self, stage: Stage) -> f64 {
        let samples = std::mem::take(&mut self.slowdowns);
        if samples.is_empty() {
            return 1.0;
        }
        let part: Vec<f64> = samples
            .iter()
            .map(|&(transform, copy)| match stage {
                Stage::Prep => transform,
                Stage::Fetch => copy,
            })
            .collect();
        crate::stats::median(&part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_a_positive_ratio_per_part_and_resets_when_taken() {
        let mut host = HostSpeed::new();
        assert_eq!(host.take_slowdown(Stage::Prep), 1.0, "no samples yet");
        host.sample();
        host.sample_if_due(); // not due: nothing recorded
        assert_eq!(host.slowdowns.len(), 1);
        let (transform, copy) = host.slowdowns[0];
        assert!(transform.is_finite() && transform > 0.0 && copy.is_finite() && copy > 0.0);
        assert_eq!(host.take_slowdown(Stage::Fetch), copy);
        assert_eq!(host.take_slowdown(Stage::Fetch), 1.0, "taken");
        host.slowdowns = vec![(2.0, 1.0), (4.0, 1.5), (3.0, 1.2)];
        assert_eq!(
            host.take_slowdown(Stage::Prep),
            3.0,
            "the transform's median"
        );
    }

    #[test]
    fn the_kernel_computes_what_it_claims() {
        let mut host = HostSpeed::new();
        host.sample();
        // The copy overwrote the transform's output with the source.
        assert_eq!(host.dst, host.src);
    }
}
