//! Dense LU factorisation with partial pivoting, replayed sparsely.
//!
//! Every system of at most 96 unknowns, DC or transient, factors here:
//! every single-cell testbench. The factors are those of the textbook
//! row-major Doolittle loop with partial pivoting (the first largest
//! magnitude of the column wins), bit for bit. The rounding matters: a
//! storage cell's DC sits at its latch's metastable balance and the LU
//! rounding picks the basin its transients start from (SOLVER.md §2),
//! and every characterisation golden was taken with these factors.
//!
//! Only the work is sparse. [`DenseLu::factor_csc`] runs the loop with
//! row swaps over the structural non-zeros of each step and records
//! them. [`DenseLu::refactor`] scatters new values on the same pattern
//! straight into pivot order and replays the recorded steps, checking at
//! every step that the pivot search still picks the recorded row; when
//! it does not, it factors and records afresh. A skipped position holds
//! an exact `+0.0`, from which the full loop would subtract `factor ·
//! 0.0`, or `0.0 · u`, without effect, so for finite values the factors
//! and solutions do not change. On a 46-unknown cell transient this
//! about halves the time per factorisation and solve; the sparse LU's
//! fill-reducing order would cut it further, but its rounding differs
//! (SOLVER.md §3).

use super::{CscPattern, SystemMatrix};
use crate::error::SpiceError;

/// Threshold below which a pivot is treated as numerically zero.
const PIVOT_EPS: f64 = 1e-13;

/// Flat per-step index lists: step `k` owns `idx[ptr[k]..ptr[k + 1]]`.
#[derive(Debug, Clone, Default)]
struct StepLists {
    ptr: Vec<usize>,
    idx: Vec<usize>,
}

impl StepLists {
    fn clear(&mut self) {
        self.ptr.clear();
        self.ptr.push(0);
        self.idx.clear();
    }

    fn close_step(&mut self) {
        self.ptr.push(self.idx.len());
    }

    fn step(&self, k: usize) -> &[usize] {
        &self.idx[self.ptr[k]..self.ptr[k + 1]]
    }
}

/// Dense LU factors of `P·A` with partial pivoting, and the structure of
/// the elimination that produced them.
///
/// All positions are pivot positions: row `k` of the factors is the row
/// swapped into place at step `k`.
#[derive(Debug, Clone)]
pub struct DenseLu {
    n: usize,
    /// Row-major working matrix; U on and above the diagonal once
    /// factored.
    a: Vec<f64>,
    /// `piv[k]`: the position swapped with `k` at step `k`.
    piv: Vec<usize>,
    /// `scatter[p]`: where pattern slot `p` lands in `a`.
    scatter: Vec<usize>,
    /// Step `k`'s pivot candidates in the order the dense search visits
    /// them: the row then at position `k`, then every structurally
    /// non-zero row below it.
    cand: StepLists,
    /// Step `k`'s structurally non-zero multiplier rows.
    lower: StepLists,
    /// The multipliers of L, parallel to `lower`'s rows (`0.0` where the
    /// dense loop skips the row).
    lvals: Vec<f64>,
    /// Step `k`'s structurally non-zero columns right of the pivot, in
    /// ascending order.
    upper: StepLists,
    /// Whether the lists and `scatter` describe `piv` on the factored
    /// pattern; cleared while a factorisation runs, so one that fails
    /// leaves nothing to replay.
    recorded: bool,
    /// Recording scratch: the structural non-zeros, row-major in the
    /// current row order.
    nz: Vec<bool>,
    /// Replay scratch: the pivot row's values at `upper`'s columns.
    uk: Vec<f64>,
}

impl DenseLu {
    /// Factor `A`, given as pattern + values, and record the elimination
    /// for [`DenseLu::refactor`].
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] if no usable pivot exists
    /// in some column.
    pub fn factor_csc(pattern: &CscPattern, vals: &[f64]) -> Result<Self, SpiceError> {
        let mut lu = Self {
            n: pattern.dim(),
            a: Vec::new(),
            piv: Vec::new(),
            scatter: Vec::new(),
            cand: StepLists::default(),
            lower: StepLists::default(),
            lvals: Vec::new(),
            upper: StepLists::default(),
            recorded: false,
            nz: Vec::new(),
            uk: Vec::new(),
        };
        lu.record(pattern, vals)?;
        Ok(lu)
    }

    /// Refactor for new values on the pattern last factored, replaying
    /// the recorded elimination. Returns `Ok(true)` when the recorded
    /// pivot sequence held and `Ok(false)` when the pivot search chose
    /// another row, in which case the matrix was factored and recorded
    /// afresh. Either way the factors are the dense loop's, bit for bit.
    /// Allocation-free while the pivot sequence holds.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] if no usable pivot exists
    /// in some column; the factors are then unusable.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` has another dimension than the one factored,
    /// or `vals` another length than `pattern`.
    pub fn refactor(&mut self, pattern: &CscPattern, vals: &[f64]) -> Result<bool, SpiceError> {
        assert_eq!(pattern.dim(), self.n, "pattern dimension mismatch");
        assert_eq!(vals.len(), pattern.nnz(), "values length mismatch");
        if self.recorded && self.replay(vals)? {
            return Ok(true);
        }
        self.record(pattern, vals)?;
        Ok(false)
    }

    /// Overwrite `x`, holding `b` on entry, with the solution of
    /// `A·x = b` for the last factored `A`.
    ///
    /// The row swaps apply first; each entry then receives its
    /// eliminations in step order, skipping zero multipliers, exactly as
    /// the dense loop's elimination carried along with the factorisation.
    /// Back substitution visits U's structural non-zeros in ascending
    /// column order; the zeros it skips can only change the sign of a
    /// zero sum, so a row whose sum is zero is summed again in full.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the factored dimension.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.n;
        assert_eq!(x.len(), n, "rhs length mismatch");
        for (k, &p) in self.piv.iter().enumerate() {
            x.swap(k, p);
        }
        for k in 0..n {
            let xk = x[k];
            let span = self.lower.ptr[k]..self.lower.ptr[k + 1];
            for (&r, &factor) in self.lower.idx[span.clone()].iter().zip(&self.lvals[span]) {
                if factor != 0.0 {
                    x[r] -= factor * xk;
                }
            }
        }
        for k in (0..n).rev() {
            let row = &self.a[k * n..(k + 1) * n];
            let mut acc = x[k];
            for &c in self.upper.step(k) {
                acc -= row[c] * x[c];
            }
            if acc == 0.0 {
                acc = x[k];
                for c in (k + 1)..n {
                    acc -= row[c] * x[c];
                }
            }
            x[k] = acc / row[k];
        }
    }

    /// The dense loop with row swaps, restricted to each step's
    /// structural non-zeros, recording them as it goes.
    fn record(&mut self, pattern: &CscPattern, vals: &[f64]) -> Result<(), SpiceError> {
        let n = self.n;
        self.recorded = false;
        let (a, nz) = (&mut self.a, &mut self.nz);
        a.clear();
        a.resize(n * n, 0.0);
        nz.clear();
        nz.resize(n * n, false);
        for c in 0..n {
            for p in pattern.col_range(c) {
                let i = pattern.row_indices()[p] * n + c;
                a[i] += vals[p];
                nz[i] = true;
            }
        }
        // `row_at[q]`: the original row at position `q` as the swaps
        // proceed. The lists hold original rows until the final
        // positions are known.
        let mut row_at: Vec<usize> = (0..n).collect();
        self.piv.clear();
        self.cand.clear();
        self.lower.clear();
        self.lvals.clear();
        self.upper.clear();
        for k in 0..n {
            // Pivot search in column k, rows k..n. A row without a
            // structural entry holds +0.0 and never wins.
            let mut p = k;
            let mut best = a[k * n + k].abs();
            self.cand.idx.push(row_at[k]);
            for q in (k + 1)..n {
                if nz[q * n + k] {
                    self.cand.idx.push(row_at[q]);
                    let m = a[q * n + k].abs();
                    if m > best {
                        best = m;
                        p = q;
                    }
                }
            }
            self.cand.close_step();
            if best < PIVOT_EPS {
                return Err(SpiceError::SingularMatrix { index: k });
            }
            self.piv.push(p);
            if p != k {
                for c in 0..n {
                    a.swap(k * n + c, p * n + c);
                    nz.swap(k * n + c, p * n + c);
                }
                row_at.swap(k, p);
            }
            let cols_from = self.upper.idx.len();
            self.upper
                .idx
                .extend(((k + 1)..n).filter(|&c| nz[k * n + c]));
            self.upper.close_step();
            let cols = &self.upper.idx[cols_from..];
            let pivot = a[k * n + k];
            for q in (k + 1)..n {
                if !nz[q * n + k] {
                    continue;
                }
                self.lower.idx.push(row_at[q]);
                for &c in cols {
                    nz[q * n + c] = true;
                }
                if a[q * n + k] == 0.0 {
                    self.lvals.push(0.0);
                    continue;
                }
                let factor = a[q * n + k] / pivot;
                self.lvals.push(factor);
                if factor == 0.0 {
                    continue;
                }
                for &c in cols {
                    a[q * n + c] -= factor * a[k * n + c];
                }
            }
            self.lower.close_step();
        }
        let mut pos = vec![0; n];
        for (q, &r) in row_at.iter().enumerate() {
            pos[r] = q;
        }
        for r in self.cand.idx.iter_mut().chain(self.lower.idx.iter_mut()) {
            *r = pos[*r];
        }
        self.scatter.clear();
        for c in 0..n {
            self.scatter.extend(
                pattern
                    .col_range(c)
                    .map(|p| pos[pattern.row_indices()[p]] * n + c),
            );
        }
        self.recorded = true;
        Ok(())
    }

    /// The recorded elimination on new values. `Ok(false)` as soon as a
    /// step's pivot search picks a row other than the recorded one.
    fn replay(&mut self, vals: &[f64]) -> Result<bool, SpiceError> {
        let n = self.n;
        let a = &mut self.a;
        a.fill(0.0);
        for (&i, &v) in self.scatter.iter().zip(vals) {
            a[i] += v;
        }
        for k in 0..n {
            let cand = self.cand.step(k);
            let mut winner = cand[0];
            let mut best = a[winner * n + k].abs();
            for &r in &cand[1..] {
                let m = a[r * n + k].abs();
                if m > best {
                    best = m;
                    winner = r;
                }
            }
            if best < PIVOT_EPS {
                return Err(SpiceError::SingularMatrix { index: k });
            }
            if winner != k {
                return Ok(false);
            }
            let pivot = a[k * n + k];
            let cols = self.upper.step(k);
            let (top, below) = a.split_at_mut((k + 1) * n);
            let urow = &top[k * n..];
            let uk = &mut self.uk;
            uk.clear();
            uk.extend(cols.iter().map(|&c| urow[c]));
            let span = self.lower.ptr[k]..self.lower.ptr[k + 1];
            for (&r, l) in self.lower.idx[span.clone()]
                .iter()
                .zip(&mut self.lvals[span])
            {
                let row = &mut below[(r - k - 1) * n..(r - k) * n];
                let factor = if row[k] == 0.0 { 0.0 } else { row[k] / pivot };
                *l = factor;
                if factor == 0.0 {
                    continue;
                }
                for (&c, &u) in cols.iter().zip(uk.iter()) {
                    row[c] -= factor * u;
                }
            }
        }
        Ok(true)
    }
}

/// Solve `A·x = b` densely. `m` must already be consolidated.
///
/// # Errors
///
/// Returns [`SpiceError::SingularMatrix`] if no usable pivot exists in some
/// column.
pub fn solve_dense(m: &SystemMatrix, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
    let (pattern, vals) = CscPattern::from_system(m);
    let lu = DenseLu::factor_csc(&pattern, &vals)?;
    let mut x = b.to_vec();
    lu.solve_in_place(&mut x);
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(entries: &[(usize, usize, f64)], n: usize, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        let mut m = SystemMatrix::new(n);
        for &(r, c, v) in entries {
            m.add(r, c, v);
        }
        m.consolidate();
        solve_dense(&m, b)
    }

    /// The textbook loop the factors must match bit for bit: every
    /// column of every row, the right-hand side eliminated alongside.
    fn reference_solve(pattern: &CscPattern, vals: &[f64], b: &[f64]) -> Option<Vec<f64>> {
        let n = pattern.dim();
        let mut a = vec![0.0; n * n];
        for c in 0..n {
            for (r, v) in pattern.col(c, vals) {
                a[r * n + c] += v;
            }
        }
        let mut x = b.to_vec();
        for k in 0..n {
            let mut piv = k;
            let mut best = a[k * n + k].abs();
            for r in (k + 1)..n {
                if a[r * n + k].abs() > best {
                    best = a[r * n + k].abs();
                    piv = r;
                }
            }
            if best < PIVOT_EPS {
                return None;
            }
            for c in 0..n {
                a.swap(k * n + c, piv * n + c);
            }
            x.swap(k, piv);
            for r in (k + 1)..n {
                let factor = a[r * n + k] / a[k * n + k];
                if factor == 0.0 {
                    continue;
                }
                for c in (k + 1)..n {
                    a[r * n + c] -= factor * a[k * n + c];
                }
                x[r] -= factor * x[k];
            }
        }
        for k in (0..n).rev() {
            let mut acc = x[k];
            for c in (k + 1)..n {
                acc -= a[k * n + c] * x[c];
            }
            x[k] = acc / a[k * n + k];
        }
        Some(x)
    }

    #[test]
    fn identity_returns_rhs() {
        let x = solve(
            &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)],
            3,
            &[4.0, 5.0, 6.0],
        )
        .unwrap();
        assert_eq!(x, vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn requires_pivoting_zero_diagonal() {
        // [0 1; 1 0] x = [2; 3] -> x = [3, 2]; fails without row swap.
        let x = solve(&[(0, 1, 1.0), (1, 0, 1.0)], 2, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn known_3x3() {
        // A = [[2,1,1],[1,3,2],[1,0,0]], b = [4,5,6] -> x = [6,15,-23]
        let x = solve(
            &[
                (0, 0, 2.0),
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (1, 2, 2.0),
                (2, 0, 1.0),
            ],
            3,
            &[4.0, 5.0, 6.0],
        )
        .unwrap();
        assert!((x[0] - 6.0).abs() < 1e-9);
        assert!((x[1] - 15.0).abs() < 1e-9);
        assert!((x[2] + 23.0).abs() < 1e-9);
    }

    #[test]
    fn singular_detected() {
        let err = solve(&[(0, 0, 1.0), (1, 0, 1.0)], 2, &[1.0, 1.0]).unwrap_err();
        assert!(matches!(err, SpiceError::SingularMatrix { .. }));
    }

    #[test]
    fn workspace_matches_solve_dense_and_reuses_buffer() {
        let sites = [(0usize, 0usize), (0, 1), (1, 0), (1, 1)];
        let (pattern, slots) = CscPattern::from_sites(2, &sites);
        let mut vals = vec![0.0; pattern.nnz()];
        for (&slot, v) in slots.iter().zip([2.0f64, 1.0, 1.0, 3.0]) {
            vals[slot] += v;
        }
        let mut lu = DenseLu::factor_csc(&pattern, &vals).unwrap();
        let mut bx = vec![3.0, 5.0];
        lu.solve_in_place(&mut bx);
        assert!((bx[0] - 0.8).abs() < 1e-12 && (bx[1] - 1.4).abs() < 1e-12);
        // A refactor with different values replays the recorded steps
        // in the same buffers.
        vals[slots[1]] = 0.0;
        vals[slots[2]] = 0.0;
        let buffer = lu.a.as_ptr();
        assert!(lu.refactor(&pattern, &vals).unwrap());
        assert_eq!(lu.a.as_ptr(), buffer);
        let mut bx2 = vec![4.0, 6.0];
        lu.solve_in_place(&mut bx2);
        assert!((bx2[0] - 2.0).abs() < 1e-12 && (bx2[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn random_systems_residual_small() {
        // Deterministic pseudo-random matrix; verify A·x ≈ b.
        let n = 24;
        let mut state = 0x1234_5678_u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut entries = Vec::new();
        let mut dense = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..n {
                let v = rnd() + if r == c { 4.0 } else { 0.0 };
                entries.push((r, c, v));
                dense[r * n + c] = v;
            }
        }
        let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let x = solve(&entries, n, &b).unwrap();
        for r in 0..n {
            let mut acc = 0.0;
            for c in 0..n {
                acc += dense[r * n + c] * x[c];
            }
            assert!((acc - b[r]).abs() < 1e-9, "residual row {r}");
        }
    }

    /// Refactors replay the recorded elimination, re-record when a pivot
    /// moves, and every solution matches the full dense loop bit for bit,
    /// signed zeros included. The systems look like MNA: a sparse
    /// conductance pattern plus branch rows of exact ±1 entries (pivot
    /// ties) with zero diagonals, some right-hand sides exactly `-0.0`.
    #[test]
    fn replay_is_bit_identical_to_the_full_dense_loop() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let (mut replays, mut rerecords) = (0, 0);
        for trial in 0..40 {
            let nodes = 6 + trial % 23;
            let branches = 1 + trial % 4;
            let n = nodes + branches;
            let mut sites = Vec::new();
            for i in 0..nodes {
                sites.push((i, i));
                for j in 0..nodes {
                    if i != j && rnd() < 0.15 {
                        sites.push((i, j));
                        sites.push((j, i));
                    }
                }
            }
            let mut unit = Vec::new();
            for b in 0..branches {
                let node = (b * 5 + trial) % nodes;
                unit.push(sites.len());
                sites.push((nodes + b, node));
                unit.push(sites.len());
                sites.push((node, nodes + b));
            }
            let (pattern, slots) = CscPattern::from_sites(n, &sites);
            let base: Vec<f64> = (0..sites.len())
                .map(|s| {
                    if unit.contains(&s) {
                        1.0
                    } else if sites[s].0 == sites[s].1 {
                        10f64.powf(6.0 * rnd() - 3.0)
                    } else if rnd() < 0.1 {
                        0.0
                    } else {
                        -rnd()
                    }
                })
                .collect();
            let mut lu: Option<DenseLu> = None;
            for round in 0..12 {
                // Small drifts keep the pivots; every third round one
                // diagonal swings over decades (a switching device) and
                // may move them.
                let swing = (round % 3 == 2).then(|| (rnd() * nodes as f64) as usize);
                let mut vals = vec![0.0; pattern.nnz()];
                for (s, &slot) in slots.iter().enumerate() {
                    let v = if unit.contains(&s) {
                        1.0
                    } else if swing.is_some_and(|i| sites[s] == (i, i)) {
                        base[s] * 10f64.powf(6.0 * rnd() - 3.0)
                    } else {
                        base[s] * (1.0 + 1e-3 * (rnd() - 0.5))
                    };
                    vals[slot] += v;
                }
                let b: Vec<f64> = (0..n)
                    .map(|i| match (i + round) % 5 {
                        0 => -0.0,
                        1 => 0.0,
                        _ => 2.0 * rnd() - 1.0,
                    })
                    .collect();
                let expect = reference_solve(&pattern, &vals, &b);
                let factored = match &mut lu {
                    Some(lu) => lu.refactor(&pattern, &vals).map(|replayed| {
                        if replayed {
                            replays += 1;
                        } else {
                            rerecords += 1;
                        }
                    }),
                    None => DenseLu::factor_csc(&pattern, &vals).map(|f| lu = Some(f)),
                };
                match (expect, factored) {
                    (Some(expect), Ok(())) => {
                        let mut x = b.clone();
                        lu.as_ref().unwrap().solve_in_place(&mut x);
                        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&x), bits(&expect), "trial {trial} round {round}");
                    }
                    (None, Err(SpiceError::SingularMatrix { .. })) => {}
                    (expect, got) => panic!("trial {trial} round {round}: {expect:?} vs {got:?}"),
                }
            }
        }
        assert!(
            replays > 100 && rerecords > 10,
            "{replays} replays, {rerecords} re-records"
        );
    }
}
