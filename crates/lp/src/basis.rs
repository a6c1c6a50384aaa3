//! Sparse LU factorization of the simplex basis with product-form (eta)
//! updates.
//!
//! The revised simplex needs two linear solves per iteration against the basis
//! matrix `B` (one column of `A` per basic variable):
//!
//! * **FTRAN** — `B w = a` (the transformed entering column),
//! * **BTRAN** — `yᵀ B = c_Bᵀ` (the simplex multipliers / duals).
//!
//! Instead of maintaining a dense `B⁻¹` (`O(m²)` memory, `O(m²)` per pivot),
//! this module factorizes `B = L·U` with partial pivoting, stores `L` and `U`
//! sparsely, and absorbs basis changes with *eta* vectors (the product form of
//! the inverse): after a pivot on row `r` with transformed column `w`,
//! `B_new⁻¹ = E(w, r) · B_old⁻¹` where `E` is an identity matrix whose `r`-th
//! column is replaced.
//!
//! The factorization is **Gilbert–Peierls left-looking**: before the numeric
//! update of column `k`, a DFS over the already-built `L` columns computes the
//! exact set of elimination steps the column reaches, and only those steps are
//! replayed (in topological = ascending-step order). The cost per column is
//! proportional to the actual arithmetic (`O(flops)`), not to `k` — the dense
//! `for step in 0..k` replay this replaced had an `O(m²)` floor on every
//! refactorization regardless of sparsity.
//!
//! Solves replay the factors and then the etas. Refactorization is
//! **fill-aware**: the eta file is folded back into a fresh factorization once
//! its accumulated non-zeros exceed [`ETA_FILL_FACTOR`]× the factor fill
//! ([`LuFactors::fill_nnz`]) — i.e. once replaying the etas costs about as
//! much as the factors themselves — with a fixed [`ETA_PIVOT_BACKSTOP`] pivot
//! cap bounding numerical drift on very sparse bases.

use std::fmt;
use std::sync::Arc;

use teccl_util::json::{Emit, Event, JsonError, JsonSink, Reader};

use crate::error::LpError;
use crate::sparse::{IndexedVec, SparseMatrix, SparseVec};

/// Fill-aware refactorization trigger: refactorize once the eta file holds
/// more than this multiple of the factor non-zeros ([`LuFactors::fill_nnz`]).
/// At that point each FTRAN/BTRAN spends more time replaying etas than
/// factors, so folding them in pays for itself almost immediately.
pub const ETA_FILL_FACTOR: usize = 2;

/// Hard cap on accumulated eta *pivots* regardless of fill: numerical drift
/// grows with eta-chain length even when the etas are sparse.
pub const ETA_PIVOT_BACKSTOP: usize = 256;

/// Absolute pivot threshold: elements at or below this magnitude are rejected
/// (TE-CCL's matrices are unit-scaled, so an absolute test suffices; switch to
/// a column-relative test if badly scaled models ever show up).
const PIVOT_TOL: f64 = 1e-10;

/// Markowitz threshold-pivoting parameter: any candidate whose magnitude is
/// at least this fraction of the column's largest admissible pivot may be
/// chosen; among those, the row with the fewest non-zeros across the basis
/// columns wins (less elimination work touching it → less fill-in). `0.1` is
/// the classic compromise between stability (1.0 = pure partial pivoting)
/// and sparsity.
const MARKOWITZ_THRESHOLD: f64 = 0.1;

/// Status of a variable (standard-form column) in a simplex basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarStatus {
    /// In the basis.
    Basic,
    /// Non-basic at its lower bound.
    AtLower,
    /// Non-basic at its upper bound.
    AtUpper,
    /// Non-basic free variable sitting at value 0.
    Free,
}

/// A snapshot of a simplex basis, sufficient to warm-start a later solve on
/// the same [`crate::standard::StandardForm`] (possibly with changed bounds —
/// the branch-and-bound use case).
///
/// `basic[r]` is the column occupying row `r`. Columns `>= num_cols` denote
/// the phase-1 artificial of row `col - num_cols`; these can linger in a
/// degenerate optimal basis and are reconstructed on warm start.
#[derive(Debug, Clone)]
pub struct SimplexBasis {
    /// Basic column per row (length `m`).
    pub basic: Vec<usize>,
    /// Status of every standard-form column (length `n`, artificials excluded).
    pub status: Vec<VarStatus>,
    /// The factorization the solve that exported this basis ended on. A warm
    /// start over the same matrix adopts it instead of refactorizing; any
    /// other start ignores it. Equality and JSON ignore it.
    pub factors: Option<Arc<CarriedFactors>>,
}

impl PartialEq for SimplexBasis {
    fn eq(&self, other: &Self) -> bool {
        self.basic == other.basic && self.status == other.status
    }
}

/// The LU factors of a basis together with the matrix and the basic list
/// they were computed from (opaque: only a warm start reads them).
pub struct CarriedFactors {
    /// Held, not only compared, so a freed and reused allocation can never
    /// pass for the same matrix.
    a: Arc<SparseMatrix>,
    basic: Vec<usize>,
    lu: Factors,
}

impl fmt::Debug for CarriedFactors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CarriedFactors(m = {})", self.basic.len())
    }
}

impl CarriedFactors {
    /// Whether these are the factors of `basic` over `a`, with no artificial
    /// basic (its unit column depends on the start).
    pub(crate) fn fits(&self, a: &Arc<SparseMatrix>, basic: &[usize]) -> bool {
        Arc::ptr_eq(&self.a, a) && self.basic == basic && basic.iter().all(|&j| j < a.cols.len())
    }
}

impl SimplexBasis {
    /// Reads the basis document whose first event is `first` from `src`, to
    /// its end (see [`Reader`] for the two errors); `basic` is checked
    /// before `status`. A shape- or content-invalid document is an error
    /// here; a shape-*mismatched* (but well-formed) basis is fine — the
    /// warm-start path falls back to a cold solve on its own.
    pub fn decode<'a>(
        first: Event<'a>,
        src: &mut Reader<'a>,
    ) -> Result<Result<SimplexBasis, JsonError>, JsonError> {
        let mut basic = None;
        let mut status = None;
        src.object(first, |key, value, src| {
            match key {
                "basic" if basic.is_none() => {
                    let mut columns = Vec::new();
                    let mut whole = true;
                    let is_array = src.array(value, |item, src| {
                        match src.scalar(item, |v| v.as_usize())? {
                            Some(j) => columns.push(j),
                            None => whole = false,
                        }
                        Ok(())
                    })?;
                    basic = Some(match (is_array, whole) {
                        (false, _) => Err("missing basic"),
                        (true, false) => Err("bad basic entry"),
                        (true, true) => Ok(columns),
                    });
                }
                "status" if status.is_none() => {
                    status = Some(src.scalar(value, |v| {
                        v.as_str()
                            .map(|s| s.chars().map(status_of).collect::<Option<Vec<_>>>())
                    })?)
                }
                _ => src.skip(&value)?,
            }
            Ok(())
        })?;
        let bad = |msg: &str| JsonError {
            pos: 0,
            msg: msg.to_string(),
        };
        let basic = match basic.unwrap_or(Err("missing basic")) {
            Ok(basic) => basic,
            Err(msg) => return Ok(Err(bad(msg))),
        };
        let status = match status.flatten() {
            None => return Ok(Err(bad("missing status"))),
            Some(None) => return Ok(Err(bad("bad status char"))),
            Some(Some(status)) => status,
        };
        Ok(Ok(SimplexBasis {
            basic,
            status,
            factors: None,
        }))
    }
}

/// The basis as a document: the `basic` column list plus a compact status
/// string (one char per column: `B`asic, `L`ower, `U`pper, `F`ree). The
/// schedule service persists it beside a cached schedule as a warm-start
/// hint.
impl Emit for SimplexBasis {
    fn emit(&self, sink: &mut JsonSink<'_>) {
        sink.begin_obj();
        sink.key("basic").begin_arr();
        for &j in &self.basic {
            sink.uint(j);
        }
        sink.end_arr();
        sink.key("status");
        let status: String = self
            .status
            .iter()
            .map(|s| match s {
                VarStatus::Basic => 'B',
                VarStatus::AtLower => 'L',
                VarStatus::AtUpper => 'U',
                VarStatus::Free => 'F',
            })
            .collect();
        sink.str(&status);
        sink.end_obj();
    }
}

/// The status a character of the stored status string stands for.
fn status_of(c: char) -> Option<VarStatus> {
    Some(match c {
        'B' => VarStatus::Basic,
        'L' => VarStatus::AtLower,
        'U' => VarStatus::AtUpper,
        'F' => VarStatus::Free,
        _ => return None,
    })
}

/// A basis column borrowed for [`LuFactors::refactor`]: a column of the
/// constraint matrix, or the unit column of a phase-1 artificial.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ColRef<'a> {
    /// A stored column.
    Sparse(&'a SparseVec),
    /// `value · e_row`.
    Unit { row: usize, value: f64 },
}

impl ColRef<'_> {
    /// The column's `(indices, values)`, indices strictly increasing.
    fn entries(&self) -> (&[usize], &[f64]) {
        match self {
            ColRef::Sparse(col) => (&col.indices, &col.values),
            ColRef::Unit { row, value } => (std::slice::from_ref(row), std::slice::from_ref(value)),
        }
    }
}

/// Columns (or rows) of a sparse matrix in one flat allocation: line `s`
/// is `ent[ptr[s]..ptr[s + 1]]`, `(index, value)` pairs (a purely symbolic
/// view leaves the values 0). Lines are appended in order and the buffers
/// are reused from one factorization to the next.
#[derive(Debug, Clone, Default)]
struct Flat {
    ptr: Vec<usize>,
    ent: Vec<(usize, f64)>,
}

impl Flat {
    /// Empties the matrix, keeping its buffers.
    fn clear(&mut self) {
        self.ptr.clear();
        self.ptr.push(0);
        self.ent.clear();
    }

    /// Ends the line being built of the entries pushed since the last one.
    fn close(&mut self) {
        self.ptr.push(self.ent.len());
    }

    fn line(&self, s: usize) -> &[(usize, f64)] {
        &self.ent[self.ptr[s]..self.ptr[s + 1]]
    }

    /// Rebuilds this matrix as the transpose of `lines`' `m` lines, in
    /// place; `row_of` maps an entry's index to its line here. Lines are
    /// taken in ascending order, so every line here lists its entries by
    /// ascending source line. `numeric` keeps the values.
    fn transpose_of(
        &mut self,
        lines: &Flat,
        m: usize,
        numeric: bool,
        row_of: impl Fn(usize) -> usize,
    ) {
        let ptr = &mut self.ptr;
        ptr.clear();
        ptr.resize(m + 1, 0);
        for &(i, _) in &lines.ent {
            ptr[row_of(i) + 1] += 1;
        }
        for s in 0..m {
            ptr[s + 1] += ptr[s];
        }
        self.ent.clear();
        self.ent.resize(ptr[m], (0, 0.0));
        // `ptr[t]` walks line t's slots; afterwards each holds the start of
        // the next line and is shifted back into place.
        for j in 0..m {
            for &(i, v) in lines.line(j) {
                let at = &mut ptr[row_of(i)];
                self.ent[*at] = (j, if numeric { v } else { 0.0 });
                *at += 1;
            }
        }
        for s in (1..=m).rev() {
            ptr[s] = ptr[s - 1];
        }
        ptr[0] = 0;
    }
}

/// The product-form update file: eta `e` pivots on row `r[e]` with value
/// `pivot[e]`; line `e` of `cols` holds the other non-zeros `(row, w[row])`
/// of the transformed entering column `w`, ascending.
#[derive(Debug, Clone, Default)]
struct EtaFile {
    r: Vec<usize>,
    pivot: Vec<f64>,
    cols: Flat,
}

impl EtaFile {
    fn clear(&mut self) {
        self.r.clear();
        self.pivot.clear();
        self.cols.clear();
    }
}

/// The factors proper — what a fresh factorization determines and a warm
/// start can adopt ([`CarriedFactors`]).
#[derive(Debug, Clone, Default)]
struct Factors {
    /// `pivot_row[k]` — the original row eliminated at step `k`.
    pivot_row: Vec<usize>,
    /// Inverse of `pivot_row`: the step at which each original row pivots.
    step_of_row: Vec<usize>,
    /// L columns per step: multipliers `(original_row, l)`, unit diagonal
    /// implicit.
    l: Flat,
    /// U columns per step: `(step, u)` entries strictly above the diagonal.
    u: Flat,
    /// U diagonal per step.
    udiag: Vec<f64>,
    /// Non-zeros in `L`+`U` (diagonals included), frozen at factorize time so
    /// [`LuFactors::needs_refactor`] is O(1) on the pivot hot loop.
    nnz: usize,
}

/// The factorization's scratch, kept between refactorizations (`step_seen`
/// is all `false` between calls, the rest is rewritten before it is read).
#[derive(Debug, Clone, Default)]
struct FactorWork {
    step_seen: Vec<bool>,
    reach: Vec<usize>,
    stack: Vec<usize>,
    touched: Vec<usize>,
    row_count: Vec<usize>,
    ucol: Vec<(usize, f64)>,
}

/// The sparse solves run while a vector holds at most `m /` this many
/// non-zeros (and the symbolic reach of a stage stays under the same cap);
/// past it the dense kernels' sequential passes are cheaper than list
/// bookkeeping. The same 1/8 the primal's row-wise pivot-row gather uses.
const SPARSE_DIVISOR: usize = 8;

/// `acc / div` with a zero quotient normalized to `+0.0` (`-0.0 + 0.0` is
/// `+0.0`; every other value is unchanged by the addition). The BTRAN stages
/// finish every entry through this, so an entry no non-zero reached is `+0.0`
/// in the dense kernels — whatever the sign of the divisor — exactly as in
/// the sparse ones, which never visit it. An addition rather than a
/// compare-and-select: the compiler turns a select around a division into a
/// branch, which mispredicts on the irregular fill of a dense solve (+60 % on
/// `btran2` when tried).
#[inline]
fn settle(acc: f64, div: f64) -> f64 {
    acc / div + 0.0
}

/// Closes `list` — whose entries are already set in `mark` — under `adj`
/// (breadth first, the list is its own queue). Returns `false`, with every
/// mark cleared again, as soon as the list outgrows `cap`.
fn close_reach<I: Iterator<Item = usize>>(
    list: &mut Vec<usize>,
    mark: &mut [bool],
    cap: usize,
    adj: impl Fn(usize) -> I,
) -> bool {
    let mut head = 0;
    while head < list.len() {
        if list.len() > cap {
            for &s in list.iter() {
                mark[s] = false;
            }
            return false;
        }
        for t in adj(list[head]) {
            if !mark[t] {
                mark[t] = true;
                list.push(t);
            }
        }
        head += 1;
    }
    true
}

/// A sparse LU factorization `B = L·U` (with row permutation) plus an eta file.
#[derive(Debug, Clone, Default)]
pub struct LuFactors {
    m: usize,
    f: Factors,
    /// Row-wise copy of the U columns: row `s` lists `(j, U[s, j])` by
    /// ascending `j`. The sparse BTRAN's `Uᵀ` solve scatters along it. Both
    /// row views are built by the first sparse BTRAN after a factorization
    /// ([`LuFactors::ensure_row_views`]), so a basis that only ever sees
    /// dense solves never pays for them.
    urows: Flat,
    /// Symbolic row view of L in step space: `lrows[t]` lists the steps
    /// `s < t` whose L column has an entry in row `pivot_row[t]` — the steps
    /// a non-zero at step `t` reaches in the `Lᵀ` solve.
    lrows: Flat,
    /// Whether `urows` and `lrows` describe the current factors.
    views: bool,
    etas: EtaFile,
    /// Non-zeros accumulated in `etas` (pivots + off-pivot entries): the
    /// fill-aware refactorization signal.
    eta_nnz: usize,
    /// Scratch vectors reused by every FTRAN/BTRAN (the solves sit on the
    /// simplex hot loop; allocating per call dominated small-pivot profiles).
    scratch_a: Vec<f64>,
    scratch_b: Vec<f64>,
    scratch_c: Vec<f64>,
    scratch_d: Vec<f64>,
    /// Sparse-solve scratch, all `+0.0` / all `false` between calls (the
    /// factorization borrows them as its work vector and touched marks).
    work: Vec<f64>,
    mark: Vec<bool>,
    fw: FactorWork,
    /// The last sparse-entry FTRAN / BTRAN produced a dense result, so the
    /// next one skips the symbolic attempt and runs the dense kernel.
    ftran_dense: bool,
    btran_dense: bool,
    /// Sparse-entry solves that ran their last stage through the list — the
    /// equivalence fuzz checks it is exercising the sparse stages at all.
    #[cfg(test)]
    sparse_finishes: usize,
}

impl LuFactors {
    /// Factorizes the basis given by `cols` (one sparse column per row of the
    /// basis, in basis-position order). Fails with [`LpError::Numerical`] if
    /// the matrix is (numerically) singular.
    pub fn factorize(m: usize, cols: &[SparseVec]) -> Result<Self, LpError> {
        debug_assert_eq!(cols.len(), m);
        let mut lu = LuFactors::default();
        lu.refactor(m, |k| ColRef::Sparse(&cols[k]))?;
        Ok(lu)
    }

    /// Sizes the solve scratch for dimension `m` and empties the eta file:
    /// the state every fresh set of factors starts from.
    fn reset(&mut self, m: usize) {
        self.m = m;
        self.scratch_a.resize(m, 0.0);
        self.scratch_b.resize(m, 0.0);
        self.scratch_c.resize(m, 0.0);
        self.scratch_d.resize(m, 0.0);
        self.work.resize(m, 0.0);
        self.mark.resize(m, false);
        self.fw.step_seen.resize(m, false);
        self.etas.clear();
        self.eta_nnz = 0;
        self.views = false;
        self.ftran_dense = false;
        self.btran_dense = false;
    }

    /// Refactorizes in place over borrowed columns: `col_at(k)` is the
    /// column at basis position `k`. Every buffer is reused, and a refresh
    /// copies no column. On an error the factors are unusable until the next
    /// successful call.
    pub(crate) fn refactor<'a>(
        &mut self,
        m: usize,
        col_at: impl Fn(usize) -> ColRef<'a>,
    ) -> Result<(), LpError> {
        self.reset(m);
        let f = &mut self.f;
        f.pivot_row.clear();
        f.udiag.clear();
        f.l.clear();
        f.u.clear();
        // A row is pivoted once its step is set; `usize::MAX` until then.
        f.step_of_row.clear();
        f.step_of_row.resize(m, usize::MAX);
        let (work, in_touched) = (&mut self.work, &mut self.mark);
        let FactorWork {
            step_seen,
            reach,
            stack,
            touched,
            row_count,
            ucol,
        } = &mut self.fw;
        // Static per-row non-zero counts over the basis columns: the
        // Markowitz tie-breaking signal (rows touched by few columns create
        // little fill when eliminated early).
        row_count.clear();
        row_count.resize(m, 0);
        for k in 0..m {
            for &i in col_at(k).entries().0 {
                row_count[i] += 1;
            }
        }

        for k in 0..m {
            let col = col_at(k);
            let (col_rows, col_vals) = col.entries();
            // Scatter the column into the dense work vector.
            for (&i, &v) in col_rows.iter().zip(col_vals) {
                if !in_touched[i] {
                    in_touched[i] = true;
                    touched.push(i);
                }
                work[i] += v;
            }
            // Gilbert–Peierls symbolic phase: the elimination steps that can
            // touch this column are exactly those reachable from its initial
            // non-zero rows through the `L` dependency graph (step `s`
            // scatters into the rows of L column `s`, each of which may be
            // the pivot row of a *later* step). A DFS collects that reach;
            // since every edge goes to a strictly larger step, ascending step
            // order is a topological order for the numeric replay. Cost is
            // proportional to the reach, not to `k`.
            reach.clear();
            for &i in col_rows {
                let s = f.step_of_row[i];
                if s != usize::MAX && !step_seen[s] {
                    step_seen[s] = true;
                    stack.push(s);
                }
            }
            while let Some(s) = stack.pop() {
                reach.push(s);
                for &(i, _) in f.l.line(s) {
                    let s2 = f.step_of_row[i];
                    if s2 != usize::MAX && !step_seen[s2] {
                        step_seen[s2] = true;
                        stack.push(s2);
                    }
                }
            }
            reach.sort_unstable();
            // Numeric phase: replay only the reached steps, in order.
            for &step in reach.iter() {
                step_seen[step] = false;
                let t = work[f.pivot_row[step]];
                if t == 0.0 {
                    continue; // exact numerical cancellation
                }
                for &(i, l) in f.l.line(step) {
                    if !in_touched[i] {
                        in_touched[i] = true;
                        touched.push(i);
                    }
                    work[i] -= l * t;
                }
            }
            // Gather U entries (rows already pivoted) and pick the pivot among
            // the rest: threshold partial pivoting with Markowitz
            // tie-breaking. Pass 1 finds the largest admissible magnitude;
            // pass 2 picks, among rows within MARKOWITZ_THRESHOLD of it, the
            // one with the smallest basis row count (ties by magnitude, then
            // by row index for determinism).
            ucol.clear();
            let mut max_abs = 0.0f64;
            for &i in touched.iter() {
                let v = work[i];
                if v == 0.0 {
                    continue;
                }
                match f.step_of_row[i] {
                    usize::MAX => max_abs = max_abs.max(v.abs()),
                    step => ucol.push((step, v)),
                }
            }
            let cutoff = (MARKOWITZ_THRESHOLD * max_abs).max(PIVOT_TOL);
            let mut best: Option<(usize, f64)> = None;
            if max_abs > PIVOT_TOL {
                for &i in touched.iter() {
                    let v = work[i];
                    if v == 0.0 || f.step_of_row[i] != usize::MAX || v.abs() < cutoff {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some((bi, bv)) => match row_count[i].cmp(&row_count[bi]) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Greater => false,
                            std::cmp::Ordering::Equal => {
                                v.abs() > bv.abs() || (v.abs() == bv.abs() && i < bi)
                            }
                        },
                    };
                    if better {
                        best = Some((i, v));
                    }
                }
            }
            let Some((prow, pval)) = best else {
                for &i in touched.iter() {
                    work[i] = 0.0;
                    in_touched[i] = false;
                }
                touched.clear();
                return Err(LpError::Numerical(format!(
                    "singular basis at column {k} (no admissible pivot)"
                )));
            };
            ucol.sort_unstable_by_key(|&(step, _)| step);
            f.u.ent.extend_from_slice(ucol);
            f.u.close();
            for &i in touched.iter() {
                let v = work[i];
                if v != 0.0 && f.step_of_row[i] == usize::MAX && i != prow {
                    f.l.ent.push((i, v / pval));
                }
            }
            f.l.close();
            f.step_of_row[prow] = k;
            f.pivot_row.push(prow);
            f.udiag.push(pval);
            // Clear the work vector.
            for &i in touched.iter() {
                work[i] = 0.0;
                in_touched[i] = false;
            }
            touched.clear();
        }
        f.nnz = f.l.ent.len() + f.u.ent.len() + 2 * m;
        Ok(())
    }

    /// Moves fresh factors (an empty eta file) out, for `basic` over `a`.
    pub(crate) fn carry(&mut self, a: Arc<SparseMatrix>, basic: Vec<usize>) -> CarriedFactors {
        debug_assert_eq!(self.etas.r.len(), 0);
        CarriedFactors {
            a,
            basic,
            lu: std::mem::take(&mut self.f),
        }
    }

    /// Starts over from carried factors: the state [`LuFactors::refactor`]
    /// leaves on the same basis.
    pub(crate) fn adopt(&mut self, carried: &CarriedFactors) {
        self.reset(carried.basic.len());
        self.f = carried.lu.clone();
    }

    /// Number of eta updates accumulated since the last factorization.
    pub fn eta_count(&self) -> usize {
        self.etas.r.len()
    }

    /// Total non-zeros stored in the `L` and `U` factors (including the unit
    /// and stored diagonals) — the fill-in metric `BENCH_lp.json` tracks for
    /// the Markowitz pivot ordering. Frozen at factorize time (O(1)).
    pub fn fill_nnz(&self) -> usize {
        self.f.nnz
    }

    /// Non-zeros accumulated in the eta file since the last factorization.
    pub fn eta_nnz(&self) -> usize {
        self.eta_nnz
    }

    /// Whether the caller should refactorize: fill-aware (the eta file's
    /// non-zeros exceed [`ETA_FILL_FACTOR`]× the factor fill, so solves spend
    /// most of their time replaying etas) with a pivot-count backstop for
    /// numerical drift.
    pub fn needs_refactor(&self) -> bool {
        self.etas.r.len() >= ETA_PIVOT_BACKSTOP || self.eta_nnz > ETA_FILL_FACTOR * self.f.nnz
    }

    // ---- Dense kernels -----------------------------------------------------
    //
    // Each solve is three stages, and each stage exists once densely (below)
    // and once over a non-zero list (the `_sparse` entry points further
    // down). The two forms perform the same floating-point operations in the
    // same order on every entry that is structurally non-zero, and the dense
    // form leaves an entry no non-zero reaches at `+0.0` — FTRAN skips zeros,
    // BTRAN finishes entries through [`settle`] — just as the sparse form,
    // which never visits it. So the results agree to the bit, and that is
    // what lets a solve start sparse and finish dense.

    /// FTRAN: solves `B x = rhs` in place. On input `rhs` is in original row
    /// space; on output it holds `x` indexed by basis position.
    pub fn ftran(&mut self, rhs: &mut [f64]) {
        debug_assert_eq!(rhs.len(), self.m);
        self.ftran_l(rhs);
        self.ftran_u(rhs);
        self.ftran_etas(rhs);
    }

    /// Forward elimination: replays L (row space, in place).
    fn ftran_l(&self, rhs: &mut [f64]) {
        for step in 0..self.m {
            let t = rhs[self.f.pivot_row[step]];
            if t == 0.0 {
                continue;
            }
            for &(i, l) in self.f.l.line(step) {
                rhs[i] -= l * t;
            }
        }
    }

    /// Back substitution on U (columns hold entries above the diagonal): row
    /// space in, step (= basis position) space out.
    fn ftran_u(&mut self, rhs: &mut [f64]) {
        let (f, x) = (&self.f, &mut self.scratch_a);
        for step in 0..self.m {
            x[step] = rhs[f.pivot_row[step]];
        }
        for j in (0..self.m).rev() {
            if x[j] == 0.0 {
                continue;
            }
            let xj = x[j] / f.udiag[j];
            x[j] = xj;
            if xj != 0.0 {
                for &(step, u) in f.u.line(j) {
                    x[step] -= u * xj;
                }
            }
        }
        rhs.copy_from_slice(x);
    }

    /// Replays the eta file.
    fn ftran_etas(&self, rhs: &mut [f64]) {
        let etas = &self.etas;
        for e in 0..etas.r.len() {
            let r = etas.r[e];
            let num = rhs[r];
            if num != 0.0 {
                let t = num / etas.pivot[e];
                rhs[r] = t;
                for &(i, w) in etas.cols.line(e) {
                    rhs[i] -= w * t;
                }
            }
        }
    }

    /// BTRAN: solves `yᵀ B = c` in place. On input `c` is indexed by basis
    /// position; on output it holds `y` in original row space.
    pub fn btran(&mut self, c: &mut [f64]) {
        debug_assert_eq!(c.len(), self.m);
        self.btran_etas(c);
        self.btran_u(c);
        self.btran_l(c);
    }

    /// Transposed etas, in reverse order.
    fn btran_etas(&self, c: &mut [f64]) {
        let etas = &self.etas;
        for e in (0..etas.r.len()).rev() {
            let r = etas.r[e];
            let mut acc = c[r];
            for &(i, w) in etas.cols.line(e) {
                acc -= w * c[i];
            }
            c[r] = settle(acc, etas.pivot[e]);
        }
    }

    /// Solves `Uᵀ z = c` in place (forward over steps).
    fn btran_u(&self, c: &mut [f64]) {
        for j in 0..self.m {
            let mut acc = c[j];
            for &(step, u) in self.f.u.line(j) {
                acc -= u * c[step];
            }
            c[j] = settle(acc, self.f.udiag[j]);
        }
    }

    /// Solves `Lᵀ y = z`: step space in, original row space out.
    fn btran_l(&mut self, c: &mut [f64]) {
        let (f, y) = (&self.f, &mut self.scratch_b);
        for step in 0..self.m {
            y[f.pivot_row[step]] = c[step];
        }
        for step in (0..self.m).rev() {
            let prow = f.pivot_row[step];
            let mut acc = y[prow];
            for &(i, l) in f.l.line(step) {
                acc -= l * y[i];
            }
            y[prow] = acc;
        }
        c.copy_from_slice(y);
    }

    /// BTRAN on two right-hand sides in lockstep: every eta and factor entry
    /// is loaded once and applied to both systems, roughly halving the memory
    /// traffic of two back-to-back [`LuFactors::btran`] calls (whose results
    /// it reproduces exactly). The primal pivot loop solves ρ = B⁻ᵀe_r and
    /// τ = B⁻ᵀw together on this path while they are dense — on the big
    /// ALLTOALL forms the two solves are the largest single per-iteration
    /// cost.
    pub fn btran2(&mut self, c1: &mut [f64], c2: &mut [f64]) {
        debug_assert_eq!(c1.len(), self.m);
        debug_assert_eq!(c2.len(), self.m);
        let (f, etas) = (&self.f, &self.etas);
        // Transposed etas, in reverse order.
        for e in (0..etas.r.len()).rev() {
            let r = etas.r[e];
            let mut a1 = c1[r];
            let mut a2 = c2[r];
            for &(i, w) in etas.cols.line(e) {
                a1 -= w * c1[i];
                a2 -= w * c2[i];
            }
            c1[r] = settle(a1, etas.pivot[e]);
            c2[r] = settle(a2, etas.pivot[e]);
        }
        // Solve Uᵀ z = c (forward over steps).
        let z1 = &mut self.scratch_a;
        let z2 = &mut self.scratch_c;
        for j in 0..self.m {
            let mut a1 = c1[j];
            let mut a2 = c2[j];
            for &(step, u) in f.u.line(j) {
                a1 -= u * z1[step];
                a2 -= u * z2[step];
            }
            z1[j] = settle(a1, f.udiag[j]);
            z2[j] = settle(a2, f.udiag[j]);
        }
        // Solve Lᵀ y = z, scattering back to original row space.
        let y1 = &mut self.scratch_b;
        let y2 = &mut self.scratch_d;
        for step in 0..self.m {
            y1[f.pivot_row[step]] = z1[step];
            y2[f.pivot_row[step]] = z2[step];
        }
        for step in (0..self.m).rev() {
            let prow = f.pivot_row[step];
            let mut a1 = y1[prow];
            let mut a2 = y2[prow];
            for &(i, l) in f.l.line(step) {
                a1 -= l * y1[i];
                a2 -= l * y2[i];
            }
            y1[prow] = a1;
            y2[prow] = a2;
        }
        c1.copy_from_slice(y1);
        c2.copy_from_slice(y2);
    }

    // ---- Sparse-right-hand-side kernels ------------------------------------
    //
    // A stage first closes the non-zero list under the factor's dependency
    // graph (which steps can a non-zero reach), sorts the reached steps, and
    // replays exactly those in the dense kernel's order. Every edge of the
    // graphs below leads to a later (FTRAN-L, BTRAN-Uᵀ) or an earlier
    // (FTRAN-U, BTRAN-Lᵀ) step, so sorted order is a topological order. If a
    // reach outgrows `m / SPARSE_DIVISOR` the remaining stages run densely —
    // free of charge in accuracy because the two forms agree to the bit.

    /// [`LuFactors::ftran`] for a right-hand side given with its non-zero
    /// list (duplicates in `v.nz` are tolerated on input). The result is
    /// bit-identical to the dense solve; on return `v` either lists a sorted
    /// superset of its non-zeros or is marked dense.
    pub fn ftran_sparse(&mut self, v: &mut IndexedVec) {
        debug_assert_eq!(v.values.len(), self.m);
        let cap = self.m / SPARSE_DIVISOR;
        let IndexedVec {
            values: rhs,
            nz,
            dense,
        } = v;
        // Stages already applied through the list.
        let mut done = 0;
        let mut sparse = !*dense && !self.ftran_dense && nz.len() <= cap;
        if sparse {
            // Row space → step space, dropping duplicates.
            let (mark, f) = (&mut self.mark, &self.f);
            nz.retain_mut(|i| {
                *i = f.step_of_row[*i];
                !std::mem::replace(&mut mark[*i], true)
            });
            sparse = close_reach(nz, mark, cap, |s| {
                f.l.line(s).iter().map(|&(i, _)| f.step_of_row[i])
            });
        }
        if sparse {
            nz.sort_unstable();
            for &s in nz.iter() {
                let t = rhs[self.f.pivot_row[s]];
                if t != 0.0 {
                    for &(i, l) in self.f.l.line(s) {
                        rhs[i] -= l * t;
                    }
                }
            }
            done = 1;
            let u = &self.f.u;
            sparse = close_reach(nz, &mut self.mark, cap, |j| {
                u.line(j).iter().map(|&(s, _)| s)
            });
        }
        if sparse {
            nz.sort_unstable();
            let (f, x) = (&self.f, &mut self.work);
            for &s in nz.iter() {
                let prow = f.pivot_row[s];
                x[s] = rhs[prow];
                rhs[prow] = 0.0;
            }
            for &j in nz.iter().rev() {
                if x[j] == 0.0 {
                    continue;
                }
                let xj = x[j] / f.udiag[j];
                x[j] = xj;
                if xj != 0.0 {
                    for &(step, u) in f.u.line(j) {
                        x[step] -= u * xj;
                    }
                }
            }
            for &j in nz.iter() {
                rhs[j] = x[j];
                x[j] = 0.0;
            }
            let etas = &self.etas;
            for e in 0..etas.r.len() {
                let r = etas.r[e];
                let num = rhs[r];
                if num != 0.0 {
                    let t = num / etas.pivot[e];
                    rhs[r] = t;
                    for &(i, w) in etas.cols.line(e) {
                        rhs[i] -= w * t;
                        if !self.mark[i] {
                            self.mark[i] = true;
                            nz.push(i);
                        }
                    }
                }
            }
            nz.sort_unstable();
            for &i in nz.iter() {
                self.mark[i] = false;
            }
            self.ftran_dense = nz.len() > cap;
            #[cfg(test)]
            {
                self.sparse_finishes += 1;
            }
            return;
        }
        if done < 1 {
            self.ftran_l(rhs);
        }
        self.ftran_u(rhs);
        self.ftran_etas(rhs);
        self.ftran_dense = v.reindex(cap);
    }

    /// [`LuFactors::btran`] for a right-hand side given with its non-zero
    /// list; same contract as [`LuFactors::ftran_sparse`].
    pub fn btran_sparse(&mut self, v: &mut IndexedVec) {
        let try_sparse = !self.btran_dense;
        self.btran_dense = self.btran_indexed(v, try_sparse);
    }

    /// [`LuFactors::btran2`] for two indexed right-hand sides: lockstep dense
    /// while the solves have been coming out dense, two sparse solves
    /// otherwise — the same values either way.
    pub fn btran2_sparse(&mut self, v1: &mut IndexedVec, v2: &mut IndexedVec) {
        let cap = self.m / SPARSE_DIVISOR;
        let listed = |v: &IndexedVec| !v.dense && v.nz.len() <= cap;
        if self.btran_dense || !listed(v1) || !listed(v2) {
            self.btran2(&mut v1.values, &mut v2.values);
            // One census decides both while the first is dense: the second
            // (τ = B⁻ᵀw in the primal) is never the sparser of the two.
            self.btran_dense = v1.reindex(cap);
            if self.btran_dense {
                v2.nz.clear();
                v2.dense = true;
            } else {
                self.btran_dense = v2.reindex(cap);
            }
        } else {
            let d1 = self.btran_indexed(v1, true);
            let d2 = self.btran_indexed(v2, true);
            self.btran_dense = d1 || d2;
        }
    }

    /// Builds the row views on first use: each U row lists its entries by
    /// ascending column — the order the dense `Uᵀ` solve subtracts them in.
    /// An L entry sits in an original row; its row in step space is the step
    /// that row pivots at.
    fn ensure_row_views(&mut self) {
        if !self.views {
            let (f, m) = (&self.f, self.m);
            self.urows.transpose_of(&f.u, m, true, |s| s);
            self.lrows
                .transpose_of(&f.l, m, false, |i| f.step_of_row[i]);
            self.views = true;
        }
    }

    /// The BTRAN behind both sparse entry points; returns whether the result
    /// came out dense.
    fn btran_indexed(&mut self, v: &mut IndexedVec, try_sparse: bool) -> bool {
        debug_assert_eq!(v.values.len(), self.m);
        let cap = self.m / SPARSE_DIVISOR;
        let IndexedVec {
            values: c,
            nz,
            dense,
        } = v;
        let mut done = 0;
        let mut sparse = try_sparse && !*dense && nz.len() <= cap;
        if sparse {
            self.ensure_row_views();
            let (mark, etas) = (&mut self.mark, &self.etas);
            nz.retain(|&i| !std::mem::replace(&mut mark[i], true));
            // The transposed etas have no reach to exploit: each one is a
            // dot product over its own entries, whatever `c` holds.
            for e in (0..etas.r.len()).rev() {
                let r = etas.r[e];
                let mut acc = c[r];
                for &(i, w) in etas.cols.line(e) {
                    acc -= w * c[i];
                }
                c[r] = settle(acc, etas.pivot[e]);
                if acc != 0.0 && !mark[r] {
                    mark[r] = true;
                    nz.push(r);
                }
            }
            done = 1;
            let urows = &self.urows;
            sparse = close_reach(nz, mark, cap, |s| urows.line(s).iter().map(|&(j, _)| j));
        }
        if sparse {
            // Uᵀ by rows: once z_s is final it is scattered along row s of U,
            // so each later entry receives its subtractions by ascending s —
            // the order the dense column dot takes them in.
            nz.sort_unstable();
            for &s in nz.iter() {
                let z = settle(c[s], self.f.udiag[s]);
                c[s] = z;
                if z != 0.0 {
                    for &(j, u) in self.urows.line(s) {
                        c[j] -= u * z;
                    }
                }
            }
            done = 2;
            let lrows = &self.lrows;
            sparse = close_reach(nz, &mut self.mark, cap, |t| {
                lrows.line(t).iter().map(|&(s, _)| s)
            });
        }
        if sparse {
            // Lᵀ: the reached steps, latest first, each with the dense
            // kernel's full dot over its L column.
            nz.sort_unstable();
            let (f, y) = (&self.f, &mut self.work);
            for &s in nz.iter() {
                y[f.pivot_row[s]] = c[s];
                c[s] = 0.0;
            }
            for &s in nz.iter().rev() {
                let prow = f.pivot_row[s];
                let mut acc = y[prow];
                for &(i, l) in f.l.line(s) {
                    acc -= l * y[i];
                }
                y[prow] = acc;
            }
            for s in nz.iter_mut() {
                self.mark[*s] = false;
                *s = f.pivot_row[*s];
                c[*s] = y[*s];
                y[*s] = 0.0;
            }
            nz.sort_unstable();
            #[cfg(test)]
            {
                self.sparse_finishes += 1;
            }
            return nz.len() > cap;
        }
        if done < 1 {
            self.btran_etas(c);
        }
        if done < 2 {
            self.btran_u(c);
        }
        self.btran_l(c);
        v.reindex(cap)
    }

    /// Records a basis change: the column entering at basis position `r` has
    /// transformed column `w` (`= B⁻¹ a_enter`, basis-position space). The
    /// eta is built from `w`'s non-zero list. Returns an error if the pivot
    /// element is numerically unusable, in which case the caller must
    /// refactorize.
    pub fn update(&mut self, w: &IndexedVec, r: usize) -> Result<(), LpError> {
        let pivot = w.values[r];
        if pivot.abs() <= PIVOT_TOL {
            return Err(LpError::Numerical(format!(
                "eta pivot too small ({pivot:.3e})"
            )));
        }
        let etas = &mut self.etas;
        let start = etas.cols.ent.len();
        w.indices().for_each(|i| {
            let v = w.values[i];
            if i != r && v != 0.0 {
                etas.cols.ent.push((i, v));
            }
        });
        etas.cols.close();
        etas.r.push(r);
        etas.pivot.push(pivot);
        self.eta_nnz += etas.cols.ent.len() - start + 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseVec;

    fn dense_cols(cols: &[Vec<f64>]) -> Vec<SparseVec> {
        cols.iter()
            .map(|c| {
                SparseVec::from_pairs(
                    &c.iter()
                        .enumerate()
                        .filter(|(_, v)| **v != 0.0)
                        .map(|(i, v)| (i, *v))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    fn mat_vec(cols: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        let m = cols[0].len();
        let mut out = vec![0.0; m];
        for (j, col) in cols.iter().enumerate() {
            for i in 0..m {
                out[i] += col[i] * x[j];
            }
        }
        out
    }

    fn vec_mat(cols: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
        cols.iter()
            .map(|col| col.iter().zip(y.iter()).map(|(a, b)| a * b).sum())
            .collect()
    }

    #[test]
    fn ftran_btran_solve_small_system() {
        // B = [[2, 1, 0], [0, 3, 1], [1, 0, 1]] given by columns.
        let cols = vec![
            vec![2.0, 0.0, 1.0],
            vec![1.0, 3.0, 0.0],
            vec![0.0, 1.0, 1.0],
        ];
        let mut lu = LuFactors::factorize(3, &dense_cols(&cols)).unwrap();
        let b = vec![4.0, 5.0, 6.0];
        let mut x = b.clone();
        lu.ftran(&mut x);
        let back = mat_vec(&cols, &x);
        for (a, e) in back.iter().zip(b.iter()) {
            assert!((a - e).abs() < 1e-10, "{back:?}");
        }
        let c = vec![1.0, -2.0, 0.5];
        let mut y = c.clone();
        lu.btran(&mut y);
        let back = vec_mat(&cols, &y);
        for (a, e) in back.iter().zip(c.iter()) {
            assert!((a - e).abs() < 1e-10, "{back:?}");
        }
    }

    #[test]
    fn btran2_matches_two_single_btrans() {
        // Same 3x3 system as above, plus an eta update so the lockstep path
        // exercises the eta replay too.
        let cols = vec![
            vec![2.0, 0.0, 1.0],
            vec![1.0, 3.0, 0.0],
            vec![0.0, 1.0, 1.0],
        ];
        let mut lu = LuFactors::factorize(3, &dense_cols(&cols)).unwrap();
        let mut w = vec![1.0, -1.0, 2.0];
        lu.ftran(&mut w);
        lu.update(&IndexedVec::from_dense(w), 2).unwrap();
        let c1 = vec![1.0, -2.0, 0.5];
        let c2 = vec![-3.0, 0.0, 4.0];
        let (mut s1, mut s2) = (c1.clone(), c2.clone());
        lu.btran(&mut s1);
        lu.btran(&mut s2);
        let (mut p1, mut p2) = (c1.clone(), c2.clone());
        lu.btran2(&mut p1, &mut p2);
        for (a, b) in s1.iter().zip(p1.iter()).chain(s2.iter().zip(p2.iter())) {
            assert!((a - b).abs() < 1e-12, "{s1:?}/{p1:?} {s2:?}/{p2:?}");
        }
    }

    #[test]
    fn permuted_identity_and_singular_detection() {
        // A permutation matrix factorizes fine.
        let cols = vec![
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0],
        ];
        let mut lu = LuFactors::factorize(3, &dense_cols(&cols)).unwrap();
        let mut x = vec![1.0, 2.0, 3.0];
        lu.ftran(&mut x);
        assert_eq!(mat_vec(&cols, &x), vec![1.0, 2.0, 3.0]);
        // A rank-deficient matrix is rejected.
        let sing = vec![
            vec![1.0, 1.0, 0.0],
            vec![2.0, 2.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        assert!(LuFactors::factorize(3, &dense_cols(&sing)).is_err());
    }

    #[test]
    fn eta_update_matches_refactorization() {
        // Start from B = I, replace column 1 with a = [1, 2, 0]^T.
        let eye = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        let mut lu = LuFactors::factorize(3, &dense_cols(&eye)).unwrap();
        let a = vec![1.0, 2.0, 0.0];
        let mut w = a.clone();
        lu.ftran(&mut w); // w = a since B = I
        lu.update(&IndexedVec::from_dense(w), 1).unwrap();
        assert_eq!(lu.eta_count(), 1);

        let new_cols = vec![vec![1.0, 0.0, 0.0], a.clone(), vec![0.0, 0.0, 1.0]];
        let mut fresh = LuFactors::factorize(3, &dense_cols(&new_cols)).unwrap();
        let rhs = vec![3.0, 4.0, 5.0];
        let (mut x1, mut x2) = (rhs.clone(), rhs.clone());
        lu.ftran(&mut x1);
        fresh.ftran(&mut x2);
        for (a, b) in x1.iter().zip(x2.iter()) {
            assert!((a - b).abs() < 1e-10, "{x1:?} vs {x2:?}");
        }
        let cb = vec![1.0, 2.0, 3.0];
        let (mut y1, mut y2) = (cb.clone(), cb.clone());
        lu.btran(&mut y1);
        fresh.btran(&mut y2);
        for (a, b) in y1.iter().zip(y2.iter()) {
            assert!((a - b).abs() < 1e-10, "{y1:?} vs {y2:?}");
        }
    }

    #[test]
    fn long_eta_chain_stays_accurate() {
        // Random-ish sequence of rank-1 basis replacements on a 6x6 system,
        // checked against a fresh factorization each step.
        let m = 6;
        let mut cols: Vec<Vec<f64>> = (0..m)
            .map(|j| (0..m).map(|i| if i == j { 1.0 } else { 0.0 }).collect())
            .collect();
        let mut lu = LuFactors::factorize(m, &dense_cols(&cols)).unwrap();
        let mut seed = 12345u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for step in 0..20 {
            let r = step % m;
            let a: Vec<f64> = (0..m)
                .map(|i| {
                    if i == r {
                        2.0 + next().abs()
                    } else {
                        next() * 0.5
                    }
                })
                .collect();
            let mut w = a.clone();
            lu.ftran(&mut w);
            if w[r].abs() < 1e-8 {
                continue;
            }
            lu.update(&IndexedVec::from_dense(w), r).unwrap();
            cols[r] = a;
            let mut fresh = LuFactors::factorize(m, &dense_cols(&cols)).unwrap();
            let rhs: Vec<f64> = (0..m).map(|_| next()).collect();
            let (mut x1, mut x2) = (rhs.clone(), rhs.clone());
            lu.ftran(&mut x1);
            fresh.ftran(&mut x2);
            for (a, b) in x1.iter().zip(x2.iter()) {
                assert!((a - b).abs() < 1e-7, "step {step}: {x1:?} vs {x2:?}");
            }
        }
        assert!(lu.eta_count() > 10);
    }

    #[test]
    fn gilbert_peierls_handles_structured_sparse_basis() {
        // A banded + arrow matrix (the shape TE-CCL flow bases take): the
        // symbolic reach keeps each column solve local, and the numerics must
        // match a dense check. 40x40, bandwidth 2 plus a dense last row.
        let m = 40;
        let mut cols: Vec<Vec<f64>> = vec![vec![0.0; m]; m];
        for j in 0..m {
            cols[j][j] = 4.0 + (j % 3) as f64;
            if j + 1 < m {
                cols[j][j + 1] = -1.0;
            }
            if j >= 1 {
                cols[j][j - 1] = -0.5;
            }
            cols[j][m - 1] += 0.25; // arrow row
        }
        let mut lu = LuFactors::factorize(m, &dense_cols(&cols)).unwrap();
        let rhs: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut x = rhs.clone();
        lu.ftran(&mut x);
        let back = mat_vec(&cols, &x);
        for (a, e) in back.iter().zip(rhs.iter()) {
            assert!((a - e).abs() < 1e-8, "{back:?}");
        }
        let mut y = rhs.clone();
        lu.btran(&mut y);
        let back = vec_mat(&cols, &y);
        for (a, e) in back.iter().zip(rhs.iter()) {
            assert!((a - e).abs() < 1e-8, "{back:?}");
        }
        // Fill stays near-linear for a banded matrix — the symbolic reach did
        // not densify the factors.
        assert!(
            lu.fill_nnz() < 8 * m,
            "unexpected fill-in: {} nnz for a banded {m}x{m} basis",
            lu.fill_nnz()
        );
    }

    /// Values whose sums and products stay exact in `f64`, so eliminations
    /// cancel to exact zeros as they do on TE-CCL's ±1 matrices.
    const EXACT: [f64; 6] = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5];

    /// A random sparse column over `m` rows with `k` entries (duplicates
    /// merged, zeros dropped).
    fn random_col(rng: &mut teccl_util::Rng64, m: usize, k: usize, exact: bool) -> SparseVec {
        let pairs: Vec<(usize, f64)> = (0..k)
            .map(|_| {
                let v = if exact {
                    EXACT[rng.gen_range_usize(EXACT.len())]
                } else {
                    rng.gen_range_f64(-2.0, 2.0)
                };
                (rng.gen_range_usize(m), v)
            })
            .collect();
        SparseVec::from_pairs(&pairs)
    }

    /// What every sparse-entry solve must leave behind: the dense kernel's
    /// result to the bit, a truthful index, and clean scratch.
    fn assert_same_solve(what: &str, lu: &LuFactors, sparse: &IndexedVec, dense: &[f64]) {
        for (i, (a, b)) in sparse.values.iter().zip(dense).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: entry {i}: {a:e} vs {b:e}"
            );
        }
        if !sparse.dense {
            assert!(
                sparse.nz.windows(2).all(|p| p[0] < p[1]),
                "{what}: index list not strictly ascending: {:?}",
                sparse.nz
            );
            for (i, v) in sparse.values.iter().enumerate() {
                if sparse.nz.binary_search(&i).is_err() {
                    assert_eq!(v.to_bits(), 0, "{what}: unlisted entry {i} holds {v:e}");
                }
            }
        }
        assert!(
            lu.work.iter().all(|v| v.to_bits() == 0) && lu.mark.iter().all(|b| !b),
            "{what}: scratch left dirty"
        );
    }

    #[test]
    fn sparse_solves_match_dense_bit_for_bit() {
        let mut rng = teccl_util::Rng64::seed_from_u64(0x005b_a5e5);
        let (mut bases, mut solves, mut sparse_finishes) = (0usize, 0usize, 0usize);
        let mut case = 0usize;
        while bases < 2_000 {
            case += 1;
            // m 5–400, mostly small; eta-file lengths cycle 0 / 1 / 50 / 256.
            let m = match case % 8 {
                0 => 5 + rng.gen_range_usize(396),
                1..=4 => 64 + rng.gen_range_usize(96),
                _ => 5 + rng.gen_range_usize(60),
            };
            let etas = [0, 1, 50, 256][case % 4];
            let exact = !case.is_multiple_of(3);
            // A row-permuted diagonal plus zero to two off-diagonal entries
            // per column: around the density where a solve's reach tips from
            // a handful of steps to most of them, so both regimes occur.
            let mut perm: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                perm.swap(i, rng.gen_range_usize(i + 1));
            }
            let cols: Vec<SparseVec> = (0..m)
                .map(|j| {
                    let extra = rng.gen_range_usize(2 + case % 2);
                    let mut col = random_col(&mut rng, m, extra, exact).to_dense(m);
                    col[perm[j]] = if exact { 2.0 } else { 3.0 + rng.gen_f64() };
                    dense_cols(&[col]).remove(0)
                })
                .collect();
            let Ok(mut lu) = LuFactors::factorize(m, &cols) else {
                continue; // singular draw
            };
            bases += 1;
            // Grow the eta file through the sparse FTRAN itself.
            let mut tries = 0;
            while lu.eta_count() < etas && tries < 4 * etas {
                tries += 1;
                let r = rng.gen_range_usize(m);
                let k = 1 + rng.gen_range_usize(3);
                let a = random_col(&mut rng, m, k, exact);
                let mut w = IndexedVec::zeros(m);
                for (i, v) in a.iter() {
                    w.add(i, v);
                }
                lu.ftran_sparse(&mut w);
                if w.values[r].abs() > 0.25 {
                    lu.update(&w, r).unwrap();
                }
            }
            for probe in 0..6 {
                // Unit, column-of-the-basis and multi-entry right-hand sides.
                let rhs = match probe % 3 {
                    0 => SparseVec::from_pairs(&[(rng.gen_range_usize(m), 1.0)]),
                    1 => cols[rng.gen_range_usize(m)].clone(),
                    _ => {
                        let k = 2 + rng.gen_range_usize(m.min(12));
                        random_col(&mut rng, m, k, exact)
                    }
                };
                let mut v = IndexedVec::zeros(m);
                for (i, x) in rhs.iter() {
                    v.add(i, x);
                }
                if probe == 5 {
                    v.nz.extend_from_slice(&rhs.indices); // duplicates tolerated
                }
                let mut dense = v.values.clone();
                // Half the probes start from a clean density history, half
                // inherit whatever the previous solve observed.
                if probe < 3 {
                    (lu.ftran_dense, lu.btran_dense) = (false, false);
                }
                let before = lu.sparse_finishes;
                let what = format!("case {case} m {m} etas {} probe {probe}", lu.eta_count());
                if probe % 2 == 0 {
                    lu.ftran(&mut dense);
                    lu.ftran_sparse(&mut v);
                    assert_same_solve(&format!("ftran {what}"), &lu, &v, &dense);
                } else {
                    lu.btran(&mut dense);
                    lu.btran_sparse(&mut v);
                    assert_same_solve(&format!("btran {what}"), &lu, &v, &dense);
                }
                solves += 1;
                sparse_finishes += lu.sparse_finishes - before;
            }
            // The lockstep pair agrees with two single solves either way.
            let (r, j) = (rng.gen_range_usize(m), rng.gen_range_usize(m));
            let (mut d1, mut d2) = (vec![0.0; m], cols[j].to_dense(m));
            d1[r] = 1.0;
            let (mut v1, mut v2) = (IndexedVec::zeros(m), IndexedVec::zeros(m));
            v1.set_unit(r);
            for (i, x) in cols[j].iter() {
                v2.add(i, x);
            }
            lu.btran2(&mut d1, &mut d2);
            lu.btran2_sparse(&mut v1, &mut v2);
            assert_same_solve(&format!("btran2/1 case {case}"), &lu, &v1, &d1);
            assert_same_solve(&format!("btran2/2 case {case}"), &lu, &v2, &d2);
        }
        // The fuzz is only worth its name if both regimes ran: most solves
        // finish on the list, a fair share fall back to the dense stages.
        assert!(
            sparse_finishes * 3 > solves && sparse_finishes * 20 < solves * 19,
            "{sparse_finishes} of {solves} solves finished sparse"
        );
    }

    #[test]
    fn refactor_trigger_is_fill_aware() {
        // Identity basis: factor_nnz = 2m. Dense etas accumulate nnz fast, so
        // the fill-aware trigger must fire long before the pivot backstop.
        let m = 8;
        let eye: Vec<Vec<f64>> = (0..m)
            .map(|j| (0..m).map(|i| if i == j { 1.0 } else { 0.0 }).collect())
            .collect();
        let mut lu = LuFactors::factorize(m, &dense_cols(&eye)).unwrap();
        assert_eq!(lu.fill_nnz(), 2 * m);
        assert!(!lu.needs_refactor());
        let mut pivots = 0usize;
        while !lu.needs_refactor() {
            let w: Vec<f64> = (0..m).map(|i| 1.0 + i as f64 * 0.01).collect();
            lu.update(&IndexedVec::from_dense(w), pivots % m).unwrap();
            pivots += 1;
            assert!(pivots <= ETA_PIVOT_BACKSTOP, "trigger never fired");
        }
        // Dense etas carry m nnz each; the fill trigger fires after about
        // ETA_FILL_FACTOR * 2m / m = 2 * ETA_FILL_FACTOR pivots.
        assert!(
            pivots <= 2 * ETA_FILL_FACTOR + 1,
            "fill-aware trigger fired late: {pivots} pivots"
        );
        assert_eq!(lu.eta_nnz(), pivots * m);
        // Sparse (single-entry) etas carry 1 nnz each, so the fill trigger
        // lets them run ETA_FILL_FACTOR * factor_nnz pivots — far longer than
        // the dense case above, which is the whole point of the fill-aware
        // trigger.
        let mut lu2 = LuFactors::factorize(m, &dense_cols(&eye)).unwrap();
        let mut sparse_pivots = 0usize;
        while !lu2.needs_refactor() {
            let mut w = IndexedVec::zeros(m);
            w.add(sparse_pivots % m, 1.5);
            lu2.update(&w, sparse_pivots % m).unwrap();
            sparse_pivots += 1;
            assert!(sparse_pivots <= ETA_PIVOT_BACKSTOP, "trigger never fired");
        }
        assert_eq!(sparse_pivots, ETA_FILL_FACTOR * 2 * m + 1);
        assert!(sparse_pivots > pivots * 4);
    }
}
