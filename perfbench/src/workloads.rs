//! The four workloads: which requests each one sends, as a pure function of
//! `--seed`. The program under test only ever sees the generated lines.

use std::time::Duration;

use teccl_collective::{CollectiveKind, DemandMatrix};
use teccl_service::protocol::solve_request_line;
use teccl_service::{builtin_topology, RequestMethod, SolveRequest};
use teccl_util::Rng64;

use crate::stats::{Zipf, P90, P99};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AlltoallLp,
    AllgatherCopy,
    ServiceHot,
    ServiceChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AlltoallLp,
        Workload::AllgatherCopy,
        Workload::ServiceHot,
        Workload::ServiceChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AlltoallLp => "alltoall_lp",
            Workload::AllgatherCopy => "allgather_copy",
            Workload::ServiceHot => "service_hot",
            Workload::ServiceChurn => "service_churn",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The percentile (per mille) `latency_tail_ms` reports of a slice that
    /// holds enough replies. On `service_churn` a tenth of the replies are
    /// re-solves, so the 99th percentile lies well inside them. On
    /// `service_hot` every reply is the same kind of work, and the slowest
    /// 1 % are whatever interrupted it: over ten seeds the 99th percentile
    /// spread by 16 % of its median in a noisy phase of the host, the 90th
    /// (the three dearest keys) by 5 %.
    pub fn tail_pm(self) -> u32 {
        match self {
            Workload::ServiceHot => P90,
            _ => P99,
        }
    }

    /// Solver workloads send a short list of cold requests; service
    /// workloads send a long stream over a small key set.
    pub fn is_solver(self) -> bool {
        matches!(self, Workload::AlltoallLp | Workload::AllgatherCopy)
    }
}

/// One request shape: a builtin topology name, what to schedule and how.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub topology: &'static str,
    pub collective: CollectiveKind,
    pub method: RequestMethod,
    pub chunks: usize,
    pub mb: f64,
    /// Whether the set-up's first request for this key is certain to solve
    /// cold: no key of its family within two half-octaves is asked before
    /// it, so the service has no basis to hint with.
    pub cold_anchor: bool,
}

const fn lp(topology: &'static str, chunks: usize, mb: f64) -> Spec {
    Spec {
        topology,
        collective: CollectiveKind::AllToAll,
        method: RequestMethod::Lp,
        chunks,
        mb,
        cold_anchor: true,
    }
}

const fn astar(topology: &'static str, chunks: usize, mb: f64) -> Spec {
    Spec {
        topology,
        collective: CollectiveKind::AllGather,
        method: RequestMethod::AStar,
        chunks,
        mb,
        cold_anchor: true,
    }
}

const fn milp(topology: &'static str, chunks: usize, mb: f64) -> Spec {
    Spec {
        topology,
        collective: CollectiveKind::AllGather,
        method: RequestMethod::Milp,
        chunks,
        mb,
        cold_anchor: true,
    }
}

/// `alltoall_lp`: cold copy-free LPs; `internal1x2` with two chunks is the
/// degenerate ~10k-iteration solve that dominates the pass. A short list,
/// so that a window holds half a dozen passes for the medians to work on.
const ALLTOALL_LP: [Spec; 3] = [
    lp("dgx1", 2, 16.0),
    lp("internal2x3", 2, 16.0),
    lp("internal1x2", 2, 16.0),
];

/// `allgather_copy`: many small copy-friendly models through A* and B&B.
const ALLGATHER_COPY: [Spec; 8] = [
    astar("internal1x2", 1, 16.0),
    astar("internal1x2", 2, 16.0),
    astar("internal1x3", 1, 16.0),
    astar("internal2x4", 2, 16.0),
    astar("internal2x8", 1, 16.0),
    astar("dgx2", 1, 16.0),
    astar("internal1x4", 1, 16.0),
    milp("dgx1", 1, 16.0),
];

const HOT_TOPOLOGIES: [&str; 4] = ["dgx1", "ndv2", "internal1x2", "internal2x3"];
const HOT_MB: [f64; 4] = [1.0, 4.0, 16.0, 64.0];

/// `service_churn` families (cheap to solve, so the stream is mostly cache
/// bookkeeping); each is requested at [`CHURN_SIZES`] half-octave sizes.
const CHURN_FAMILIES: [Spec; 6] = [
    lp("dgx1", 1, 1.0),
    lp("ndv2", 1, 1.0),
    lp("internal2x3", 1, 1.0),
    astar("internal1x2", 1, 1.0),
    astar("internal2x4", 1, 1.0),
    milp("internal1", 2, 1.0),
];
const CHURN_SIZES: usize = 8;

/// Memory-cache capacity of the `service_churn` service: a third of its 48
/// keys, so the LRU evicts and the disk store is read.
pub const CHURN_CACHE_CAPACITY: usize = 16;
/// Every n-th `service_churn` draw carries [`CHURN_DEADLINE`].
const CHURN_DEADLINE_EVERY: usize = 8;
const CHURN_DEADLINE: Duration = Duration::from_millis(1);
const CHURN_ZIPF_S: f64 = 1.0;

/// Relative jitter of the buffer sizes. Small on purpose: it has to leave the
/// models what they are. At ±1 % some seeds gave `allgather_copy` another
/// schedule and a median request 15 % slower: a spread between seeds that is
/// none of the machine's and none of the program's.
const SIZE_JITTER: f64 = 1e-4;

/// One distinct cache key of a workload, ready to send.
pub struct Target {
    pub request: SolveRequest,
    /// `\n`-terminated wire line, exactly as `teccl-cli` sends it.
    pub line: String,
    /// The same request carrying [`CHURN_DEADLINE`] (`service_churn` only).
    pub deadline_line: String,
    pub demand: DemandMatrix,
    /// See [`Spec::cold_anchor`].
    pub cold_anchor: bool,
}

impl Target {
    /// Buffer sizes are jittered by ±[`SIZE_JITTER`] from the seed.
    fn new(spec: &Spec, rng: &mut Rng64) -> Target {
        let topology = builtin_topology(spec.topology).expect("builtin topology name");
        let jitter = rng.gen_range_f64(1.0 - SIZE_JITTER, 1.0 + SIZE_JITTER);
        let bytes = spec.mb * 1024.0 * 1024.0 * jitter;
        let request = SolveRequest::new(topology, spec.collective, spec.chunks, bytes.round())
            .with_method(spec.method);
        let line = solve_request_line(&request) + "\n";
        let deadline_line =
            solve_request_line(&request.clone().with_deadline(CHURN_DEADLINE)) + "\n";
        let demand = request.demand();
        Target {
            request,
            line,
            deadline_line,
            demand,
            cold_anchor: spec.cold_anchor,
        }
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range_usize_inclusive(i));
    }
}

fn specs(workload: Workload, quick: bool) -> Vec<Spec> {
    let mut specs: Vec<Spec> = match workload {
        Workload::AlltoallLp => ALLTOALL_LP.to_vec(),
        Workload::AllgatherCopy => ALLGATHER_COPY.to_vec(),
        Workload::ServiceHot => HOT_TOPOLOGIES
            .iter()
            .flat_map(|&t| {
                HOT_MB
                    .iter()
                    .flat_map(move |&mb| [astar(t, 1, mb), lp(t, 1, mb)])
            })
            .collect(),
        Workload::ServiceChurn => CHURN_FAMILIES
            .iter()
            .flat_map(|family| {
                (0..CHURN_SIZES).map(move |half_octaves| Spec {
                    mb: family.mb * 2f64.powf(half_octaves as f64 / 2.0),
                    cold_anchor: half_octaves % 3 == 0,
                    ..*family
                })
            })
            .collect(),
    };
    if quick {
        // Keep the cheapest shapes: one request per solver workload, eight
        // hot keys, two sizes of every churn family.
        match workload {
            Workload::AlltoallLp | Workload::AllgatherCopy => specs.truncate(1),
            Workload::ServiceHot => specs.truncate(8),
            Workload::ServiceChurn => specs.retain(|s| s.mb < 1.5),
        }
    }
    specs
}

/// The distinct keys of a workload. Solver workloads send them in this
/// (seed-shuffled) order; service workloads index into them.
pub fn targets(workload: Workload, seed: u64, quick: bool) -> Vec<Target> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut targets: Vec<Target> = specs(workload, quick)
        .iter()
        .map(|s| Target::new(s, &mut rng))
        .collect();
    if workload.is_solver() {
        shuffle(&mut targets, &mut rng);
    }
    targets
}

/// Uniform draws over `n` keys for the `service_hot` connection.
pub struct HotStream {
    rng: Rng64,
    n: usize,
}

impl HotStream {
    pub fn new(seed: u64, n: usize) -> HotStream {
        HotStream {
            rng: Rng64::seed_from_u64(seed ^ 0x686f74 << 32),
            n,
        }
    }
}

impl Iterator for HotStream {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        Some(self.rng.gen_range_usize(self.n))
    }
}

/// Requests per `service_churn` epoch (each epoch starts with `evict`).
pub fn churn_epoch_len(quick: bool) -> usize {
    if quick {
        100
    } else {
        600
    }
}

/// One `service_churn` epoch: `(key index, carries a deadline)` draws.
/// Popularity ranks go round the families (keys are family-major), so every
/// family has a key among the hottest six, the next six, and so on: the
/// same mix of cheap and dear replies on every seed, whose draws differ.
pub fn churn_epoch(seed: u64, epoch: usize, n: usize, quick: bool) -> Vec<(usize, bool)> {
    let sizes = n / CHURN_FAMILIES.len();
    let by_rank: Vec<usize> = (0..n)
        .map(|rank| rank % CHURN_FAMILIES.len() * sizes + rank / CHURN_FAMILIES.len())
        .collect();
    let zipf = Zipf::new(n, CHURN_ZIPF_S);
    let mut rng = Rng64::seed_from_u64(seed ^ (0x636875726e + epoch as u64) << 24);
    (0..churn_epoch_len(quick))
        .map(|i| {
            (
                by_rank[zipf.sample(&mut rng)],
                (i + 1) % CHURN_DEADLINE_EVERY == 0,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn streams_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let lines = |seed| {
                targets(w, seed, true)
                    .into_iter()
                    .map(|t| t.line)
                    .collect::<Vec<_>>()
            };
            assert_eq!(lines(3), lines(3), "{}", w.name());
            assert_ne!(lines(3), lines(4), "{}", w.name());
        }
        assert_eq!(churn_epoch(5, 2, 48, false), churn_epoch(5, 2, 48, false));
        assert_ne!(churn_epoch(5, 2, 48, false), churn_epoch(5, 3, 48, false));
        assert_ne!(churn_epoch(5, 2, 48, false), churn_epoch(6, 2, 48, false));
    }

    #[test]
    fn keys_are_distinct_and_seed_independent() {
        for (w, n) in [
            (Workload::AlltoallLp, 3),
            (Workload::AllgatherCopy, 8),
            (Workload::ServiceHot, 32),
            (Workload::ServiceChurn, 48),
        ] {
            let keys = |seed| {
                targets(w, seed, false)
                    .iter()
                    .map(|t| t.request.key().hash)
                    .collect::<BTreeSet<_>>()
            };
            assert_eq!(keys(1).len(), n, "{}", w.name());
            assert_eq!(keys(1), keys(2), "jitter must stay inside the size bucket");
        }
    }

    #[test]
    fn churn_marks_every_eighth_draw() {
        let e = churn_epoch(1, 1, 48, false);
        assert_eq!(e.len(), 600);
        assert_eq!(e.iter().filter(|d| d.1).count(), 75);
        assert!(e.iter().all(|d| d.0 < 48));
    }
}
