//! The machine-speed reference.
//!
//! The recording machine is two vCPUs of a shared host, and the host has
//! phases, seconds to minutes long, in which every piece of code in the
//! guest runs 10 to 30 % slower (neighbours on the sibling hyper-thread and
//! in the shared cache). No statistic taken inside a 20-second run can see
//! past a phase that outlasts the run. So the client interleaves a fixed
//! piece of reference work with its requests, about a tenth of the time,
//! timed the same way, and the times of every slice of a run are divided by
//! how much slower than [`NOMINAL_S`] the reference ran during that slice:
//! the end-to-end times are in *reference* milliseconds, the time the program
//! would have taken had the machine run the reference at its nominal speed.
//!
//! The reference is none of the product's code (a change to the product must
//! not move it) but does the kind of work the product does on a hit: format
//! numbers into a growing string, split it, parse them back.
//!
//! Only the service workloads are read this way. A solver workload's
//! requests take seconds: the reference can only run between them, and what
//! it reads there says little about the seconds in between (over 200 solves
//! of each solver request next to five candidate references, none explained
//! more than 0.43 of the variance of the solve time, and dividing by any of
//! them over-corrected: the large LP is memory-bound and slowed 7 % in a
//! phase that slowed this reference 35 %). Their times stay wall-clock.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;

/// What one [`reference_work`] takes on the recording machine (2.1 GHz Xeon
/// vCPU) in a quiet phase, seconds. A constant, so that runs stay comparable.
pub const NOMINAL_S: f64 = 1.22e-3;

/// One piece of reference work is due per this much time, seconds.
const PERIOD_S: f64 = 12e-3;
/// Fewest and most pieces run back to back. Pieces wait for each other,
/// because the request that follows one finds the caches cold: at four to a
/// burst that is one hit in 450, clear of the 99th percentile. The cap is
/// for the burst after a request that took seconds.
const MIN_BURST: usize = 4;
const MAX_BURST: usize = 40;

const ROUNDS: usize = 20;
const FIELDS: usize = 500;

fn reference_work() -> usize {
    let mut total = 0;
    for round in 0..ROUNDS {
        let mut text = String::new();
        for i in 0..FIELDS {
            let _ = write!(text, "{{\"k{i}\":{}.{}}},", i * 31 + round, i % 97);
        }
        for token in text.split(|c: char| !c.is_ascii_digit() && c != '.') {
            if let Ok(x) = token.parse::<f64>() {
                total += x as usize;
            }
        }
    }
    total
}

/// The reference readings of the slice being timed.
pub struct Reference {
    /// Off for the solver workloads: no readings, every slowdown 1.
    on: bool,
    samples: Vec<f64>,
    /// Time the readings of this slice took, seconds: not the program's.
    spent_s: f64,
    last: Instant,
}

impl Reference {
    pub fn new(on: bool) -> Reference {
        Reference {
            on,
            samples: Vec::new(),
            spent_s: 0.0,
            last: Instant::now(),
        }
    }

    fn read(&mut self) {
        let started = Instant::now();
        std::hint::black_box(reference_work());
        let took = started.elapsed().as_secs_f64();
        self.samples.push(took);
        self.spent_s += took;
    }

    /// Call between requests: runs the reference work that has fallen due
    /// since the last burst, one piece per [`PERIOD_S`].
    pub fn tick(&mut self) {
        let due = (self.last.elapsed().as_secs_f64() / PERIOD_S) as usize;
        if self.on && due >= MIN_BURST {
            for _ in 0..due.min(MAX_BURST) {
                self.read();
            }
            self.last = Instant::now();
        }
    }

    /// Ends a slice: `(slowdown, spent_s)`. The slowdown is the median
    /// reading over nominal (1.0 on the recording machine in a quiet phase,
    /// 1.25 when it runs a quarter slower); `spent_s` is the time the
    /// readings took, to be taken off the slice's wall time.
    pub fn close_slice(&mut self) -> (f64, f64) {
        if !self.on {
            return (1.0, 0.0);
        }
        if self.samples.is_empty() {
            self.read();
        }
        let closed = (stats::median(&self.samples) / NOMINAL_S, self.spent_s);
        self.samples.clear();
        self.spent_s = 0.0;
        self.last = Instant::now();
        closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_fixed_work_read_once_per_period() {
        assert_eq!(reference_work(), reference_work());
        assert_eq!(Reference::new(false).close_slice(), (1.0, 0.0));
        let mut r = Reference::new(true);
        r.tick();
        assert!(r.samples.is_empty(), "nothing is due yet");
        std::thread::sleep(std::time::Duration::from_secs_f64(5.5 * PERIOD_S));
        r.tick();
        // A sleep may overrun.
        assert!((5..=MAX_BURST).contains(&r.samples.len()));
        let (slowdown, spent_s) = r.close_slice();
        assert!(slowdown.is_finite() && slowdown > 0.0, "{slowdown}");
        assert!(spent_s > 0.0);
        // An empty slice still gets one reading.
        assert!(r.close_slice().0 > 0.0);
    }
}
