//! Host steal time: CPU time the hypervisor gave to other tenants while
//! the benchmark's CPUs wanted to run. It is noise the program did not
//! cause, and it comes in bursts of seconds, so each workload ranks its
//! windows (or, in process, its fits) by the steal they saw and reports
//! its figures over the least-stolen half.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the sampler reads the steal counter.
const PERIOD: Duration = Duration::from_millis(100);

/// Cumulative steal time of all CPUs (in USER_HZ ticks) from `/proc/stat`.
pub fn ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Reads the steal counter every [`PERIOD`] until finished.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(Instant, u64)>>,
}

impl Sampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                if let Some(t) = ticks() {
                    samples.push((Instant::now(), t));
                }
                if flag.load(Ordering::Relaxed) {
                    return samples;
                }
                std::thread::sleep(PERIOD);
            }
        });
        Self { stop, handle }
    }

    /// Stops sampling and returns the steal ticks in each of `windows`
    /// equal slices of the `span_s` seconds after `origin`.
    pub fn per_window(self, origin: Instant, span_s: f64, windows: usize) -> Vec<u64> {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self.handle.join().unwrap_or_default();
        // Ticks counted by the last sample at or before `s` seconds.
        let at = |s: f64| {
            let t = origin + Duration::from_secs_f64(s.max(0.0));
            samples
                .iter()
                .take_while(|(when, _)| *when <= t)
                .last()
                .or(samples.first())
                .map_or(0, |&(_, ticks)| ticks)
        };
        let width = span_s / windows as f64;
        (0..windows)
            .map(|w| at((w + 1) as f64 * width) - at(w as f64 * width))
            .collect()
    }
}

/// Which of `steal` (one entry per window or fit) are in the
/// least-stolen half: those at or below the median, ties kept, so at
/// least half and all of them when the host took nothing.
pub fn quiet(steal: &[u64]) -> Vec<bool> {
    let mut sorted = steal.to_vec();
    sorted.sort_unstable();
    let cut = sorted.get(sorted.len().saturating_sub(1) / 2).copied();
    steal.iter().map(|&s| Some(s) <= cut).collect()
}

/// The entries of `items` that [`quiet`] keeps.
pub fn keep_quiet<T: Clone>(items: &[T], steal: &[u64]) -> Vec<T> {
    items
        .iter()
        .zip(quiet(steal))
        .filter(|(_, keep)| *keep)
        .map(|(item, _)| item.clone())
        .collect()
}

/// Per-window steal ticks for the samples line.
pub fn value(steal: &[u64]) -> serde::Value {
    serde::Value::Array(steal.iter().map(|&t| serde::Value::Int(t as i64)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_keeps_the_least_stolen_half_and_ties() {
        assert_eq!(quiet(&[5, 0, 9, 1]), [false, true, false, true]);
        assert_eq!(quiet(&[3, 0, 9]), [true, true, false]);
        assert_eq!(quiet(&[0, 0, 0, 7]), [true, true, true, false]);
        assert_eq!(keep_quiet(&["a", "b", "c"], &[2, 2, 2]), ["a", "b", "c"]);
    }
}
