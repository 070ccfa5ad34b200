//! Left-looking Gilbert–Peierls sparse LU with partial pivoting, a
//! fill-reducing column order and a symbolic/numeric split.
//!
//! Large transistor-level netlists (e.g. the reduced-AES security testbench
//! of Fig. 6) produce MNA systems with hundreds to thousands of unknowns
//! but only a handful of entries per row; this module factorises them in
//! time proportional to the flop count of the factors, following the
//! classic Gilbert–Peierls algorithm (symbolic depth-first reachability per
//! column, then a sparse triangular solve).
//!
//! That flop count depends on the order in which columns are eliminated.
//! [`SparseLu::factor_ordered`] eliminates column `col_order[k]` at step
//! `k`; the transient engine passes the minimum-degree order of
//! [`super::order::min_degree_order`], computed once per stamp plan
//! (`analysis::plan::StampPlan::fill_order`). On the 262-unknown fig. 6
//! matrix (2,084 non-zeros) it cuts
//! the factors from 16,644 to 3,589 entries and makes one numeric
//! refactor ~16× cheaper (SOLVER.md §3). [`SparseLu::factor_csc`] keeps
//! the raw MNA (identity) order, bit for bit the factors this module
//! produced before the order existed — the DC operating point relies on
//! that (SOLVER.md §2).
//!
//! The expensive part of every factorisation — the per-column DFS that
//! discovers the fill-in pattern, plus the pivot search — depends only on
//! the sparsity pattern, which the Newton loop keeps fixed. A first
//! factorisation therefore records the column order, the per-step update
//! order and the row permutation; subsequent [`SparseLu::refactor`] calls
//! on the same [`CscPattern`] replay the recorded structure and recompute
//! numbers only, and [`SparseLu::solve_into`] back-substitutes without
//! allocating. A refactorisation whose fixed pivot degrades numerically
//! (threshold pivot test) fails over to [`SparseLu::repivot`]: a fresh
//! pivot search in the same column order.
//!
//! The DC operating point stores less: the slots that only capacitors
//! stamp hold `+0.0` in every DC matrix, so after each fresh
//! factorisation it drops every entry that no other slot reaches
//! (`SparseLu::retain_reached`). On the fig. 6 matrix that keeps 2,870
//! of the raw order's 16,644 entries, and every kept value is the one the
//! full factors hold (SOLVER.md §3).

use std::sync::Arc;

use super::{CscPattern, SystemMatrix};
use crate::error::SpiceError;

/// Threshold below which a pivot is treated as numerically zero.
const PIVOT_EPS: f64 = 1e-13;

/// Threshold-pivoting guard for numeric-only refactorisation: the fixed
/// pivot must retain at least this fraction of the column's largest
/// candidate magnitude, bounding element growth per column to 1/τ.
const REFACTOR_PIVOT_TAU: f64 = 1e-3;

const UNPIVOTED: usize = usize::MAX;

/// LU factors of `P·A·Q` with row permutation `P` (partial pivoting) and
/// column order `Q`. Step `k` eliminates column `col_order[k]` of A.
/// `l_cols[k]` holds the strictly-lower entries of L's column `k` as
/// `(original_row, value)`; `u_cols[k]` holds the strictly-upper entries
/// of U's column `k` as `(pivot_position, value)`; `u_diag[k]` is the
/// pivot.
///
/// The struct also carries the reusable symbolic state: the column
/// order, the row permutation and, in `u_cols[k]`'s order, the
/// topological order in which step `k` applies the earlier columns of L.
/// [`SparseLu::refactor`] replays them for numeric-only
/// refactorisation.
pub struct SparseLu {
    n: usize,
    /// `col_order[k]` = column of A eliminated at step `k`.
    col_order: Arc<[usize]>,
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Also the replay order: the symbolic DFS of the first
    /// factorisation lists every row before all the rows it updates,
    /// and `u_cols[k]` keeps that order.
    u_cols: Vec<Vec<(usize, f64)>>,
    u_diag: Vec<f64>,
    /// `perm_row[pivot position] = original_row`.
    perm_row: Vec<usize>,
    /// `row_target[original_row]` = the column eliminated at the step
    /// that pivots on that row: the unknown whose slot carries that row's
    /// value during the solve.
    row_target: Vec<usize>,
    /// Dense workspace reused by refactor (cleared between columns).
    work: Vec<f64>,
}

impl SparseLu {
    /// Factor the consolidated matrix in natural column order
    /// (convenience wrapper that builds a column-compressed copy first).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] if a column has no usable
    /// pivot.
    pub fn factor(m: &SystemMatrix) -> Result<Self, SpiceError> {
        let (pattern, vals) = CscPattern::from_system(m);
        Self::factor_csc(&pattern, &vals)
    }

    /// Full symbolic + numeric factorisation of `pattern` with the given
    /// values, eliminating columns in natural (identity) order.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] if a column has no usable
    /// pivot.
    pub fn factor_csc(pattern: &CscPattern, vals: &[f64]) -> Result<Self, SpiceError> {
        Self::factor_ordered(pattern, vals, (0..pattern.dim()).collect())
    }

    /// Full symbolic + numeric factorisation of `pattern` with the given
    /// values, eliminating column `col_order[k]` at step `k`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidParameter`] if `col_order` is not a
    /// permutation of `0..pattern.dim()`, and
    /// [`SpiceError::SingularMatrix`] if a column has no usable pivot.
    pub fn factor_ordered(
        pattern: &CscPattern,
        vals: &[f64],
        col_order: Arc<[usize]>,
    ) -> Result<Self, SpiceError> {
        let n = pattern.dim();
        let mut seen = vec![false; n];
        if col_order.len() != n
            || !col_order
                .iter()
                .all(|&c| c < n && !std::mem::replace(&mut seen[c], true))
        {
            return Err(SpiceError::InvalidParameter {
                element: "sparse LU".into(),
                reason: format!("column order is not a permutation of 0..{n}"),
            });
        }

        let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut u_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut u_diag = vec![0.0f64; n];
        let mut pinv = vec![UNPIVOTED; n];
        let mut reach: Vec<usize> = Vec::with_capacity(n);

        // Dense workspace for the current column and DFS bookkeeping.
        let mut x = vec![0.0f64; n];
        let mut mark = vec![usize::MAX; n]; // step stamp for visited rows
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(n);

        // The left-looking factorisation is written over step index k;
        // an iterator over `u_diag` would hide the algorithm's shape.
        #[allow(clippy::needless_range_loop)]
        for k in 0..n {
            let col = col_order[k];
            // --- symbolic: rows reachable from the pattern of A[:,col]
            // through already-pivoted columns of L. A DFS edge runs from
            // a pivoted row to each row its L column updates, so the
            // reversed post-order lists every row before all the rows it
            // updates — the order the numeric elimination must follow.
            reach.clear();
            for (r, _) in pattern.col(col, vals) {
                if mark[r] == k {
                    continue;
                }
                // Iterative DFS with explicit child cursor.
                stack.push((r, 0));
                mark[r] = k;
                while let Some(&(node, cursor)) = stack.last() {
                    let step = pinv[node];
                    if step == UNPIVOTED {
                        // Unpivoted row: leaf.
                        reach.push(node);
                        stack.pop();
                        continue;
                    }
                    let children = &l_cols[step];
                    if cursor < children.len() {
                        stack.last_mut().expect("non-empty").1 += 1;
                        let child = children[cursor].0;
                        if mark[child] != k {
                            mark[child] = k;
                            stack.push((child, 0));
                        }
                    } else {
                        reach.push(node);
                        stack.pop();
                    }
                }
            }
            reach.reverse();

            // --- numeric: scatter A[:,col], then eliminate in reach order.
            for (r, v) in pattern.col(col, vals) {
                x[r] = v;
            }
            for &r in &reach {
                let step = pinv[r];
                if step == UNPIVOTED {
                    continue;
                }
                let xv = x[r];
                if xv != 0.0 {
                    for &(rr, lv) in &l_cols[step] {
                        x[rr] -= lv * xv;
                    }
                }
            }

            // --- pivot: largest magnitude among unpivoted rows.
            let mut ipiv = UNPIVOTED;
            let mut best = 0.0f64;
            for &r in &reach {
                if pinv[r] == UNPIVOTED {
                    let mag = x[r].abs();
                    if mag > best {
                        best = mag;
                        ipiv = r;
                    }
                }
            }
            if ipiv == UNPIVOTED || best < PIVOT_EPS {
                return Err(SpiceError::SingularMatrix { index: col });
            }

            // --- store factors and clear the workspace. Every reachable
            // position is stored, including exact numeric zeros: the
            // stored pattern must be the *symbolic* fill pattern so a
            // later numeric-only refactor can deposit any value there.
            let pivot_val = x[ipiv];
            u_diag[k] = pivot_val;
            let mut ucol = Vec::new();
            let mut lcol = Vec::new();
            for &r in &reach {
                let v = x[r];
                x[r] = 0.0;
                if r == ipiv {
                    continue;
                }
                match pinv[r] {
                    UNPIVOTED => lcol.push((r, v / pivot_val)),
                    pos => ucol.push((pos, v)),
                }
            }
            x[ipiv] = 0.0;
            pinv[ipiv] = k;
            l_cols.push(lcol);
            u_cols.push(ucol);
        }

        let mut perm_row = vec![0usize; n];
        for (orig, &pos) in pinv.iter().enumerate() {
            perm_row[pos] = orig;
        }
        let row_target = pinv.iter().map(|&pos| col_order[pos]).collect();
        Ok(SparseLu {
            n,
            col_order,
            l_cols,
            u_cols,
            u_diag,
            perm_row,
            row_target,
            work: x,
        })
    }

    /// Fresh symbolic + numeric factorisation (new pivot search) in the
    /// column order these factors already use — the fallback when
    /// [`SparseLu::refactor`] rejects a degraded pivot. The order is
    /// shared, never recomputed.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] if a column has no usable
    /// pivot; the factors are then left as they were.
    pub fn repivot(&mut self, pattern: &CscPattern, vals: &[f64]) -> Result<(), SpiceError> {
        *self = Self::factor_ordered(pattern, vals, Arc::clone(&self.col_order))?;
        Ok(())
    }

    /// Drop every L and U entry that no slot outside `dead_slots` can
    /// reach, keeping the pivots, the column order and the order of the
    /// entries that stay.
    ///
    /// For callers whose `dead_slots` hold `+0.0` in every matrix they
    /// factor (the DC operating point, where only capacitors stamp
    /// them). With finite values every dropped entry then holds an exact
    /// ±0 in the full factors, for any values on the other slots, so
    /// [`SparseLu::refactor`] and [`SparseLu::solve_into`] over the kept
    /// entries compute every kept entry and every non-zero of a solution
    /// bit for bit as the full factors would (SOLVER.md §3). Run it
    /// after every fresh factorisation; an empty `dead_slots` keeps
    /// every entry.
    pub(crate) fn retain_reached(&mut self, pattern: &CscPattern, dead_slots: &[usize]) {
        if dead_slots.is_empty() {
            return;
        }
        let mut live = vec![true; pattern.nnz()];
        for &s in dead_slots {
            live[s] = false;
        }
        // `reached[r] == k`: row `r` can hold a non-zero at step `k`.
        let mut reached = vec![usize::MAX; self.n];
        for k in 0..self.n {
            for p in pattern.col_range(self.col_order[k]) {
                if live[p] {
                    reached[pattern.row_indices()[p]] = k;
                }
            }
            // `u_cols[k]` lists every row before the rows its L column
            // updates, so a row's mark is final when its turn comes.
            let (l_done, perm_row) = (&self.l_cols, &self.perm_row);
            self.u_cols[k].retain(|&(pos, _)| {
                let keep = reached[perm_row[pos]] == k;
                if keep {
                    for &(r, _) in &l_done[pos] {
                        reached[r] = k;
                    }
                }
                keep
            });
            self.l_cols[k].retain(|&(r, _)| reached[r] == k);
        }
    }

    /// Numeric-only refactorisation: recompute L/U values for new matrix
    /// values on the *same* sparsity pattern, replaying the recorded
    /// column order, update order and row permutation. No allocation, no
    /// DFS, no pivot search.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when a fixed pivot fails the
    /// threshold test (degraded below `REFACTOR_PIVOT_TAU` of its
    /// column's largest candidate, or below `PIVOT_EPS` absolutely) —
    /// the caller should fall back to [`SparseLu::repivot`] — and
    /// [`SpiceError::InvalidParameter`] when `pattern` has a different
    /// dimension than the factored matrix.
    pub fn refactor(&mut self, pattern: &CscPattern, vals: &[f64]) -> Result<(), SpiceError> {
        if pattern.dim() != self.n {
            return Err(SpiceError::InvalidParameter {
                element: "sparse LU".into(),
                reason: format!(
                    "pattern of dimension {} refactored against factors of dimension {}",
                    pattern.dim(),
                    self.n
                ),
            });
        }
        let x = &mut self.work;
        for k in 0..self.n {
            // Scatter A[:,col] and apply the rows pivoted at earlier
            // steps, in the recorded order; steps 0..k of L already hold
            // their refactored values (left-looking).
            let col = self.col_order[k];
            for (r, v) in pattern.col(col, vals) {
                x[r] = v;
            }
            for &(pos, _) in &self.u_cols[k] {
                let xv = x[self.perm_row[pos]];
                if xv != 0.0 {
                    for &(rr, lv) in &self.l_cols[pos] {
                        x[rr] -= lv * xv;
                    }
                }
            }

            // Threshold-pivot check against the fixed pivot row.
            let ipiv = self.perm_row[k];
            let pivot_val = x[ipiv];
            let mut cand_max = pivot_val.abs();
            for &(r, _) in &self.l_cols[k] {
                cand_max = cand_max.max(x[r].abs());
            }
            if pivot_val.abs() < PIVOT_EPS || pivot_val.abs() < REFACTOR_PIVOT_TAU * cand_max {
                // Clear the workspace before bailing so a later call
                // starts clean.
                for &(pos, _) in &self.u_cols[k] {
                    x[self.perm_row[pos]] = 0.0;
                }
                for &(r, _) in &self.l_cols[k] {
                    x[r] = 0.0;
                }
                x[ipiv] = 0.0;
                return Err(SpiceError::SingularMatrix { index: col });
            }

            self.u_diag[k] = pivot_val;
            for entry in &mut self.u_cols[k] {
                entry.1 = std::mem::take(&mut x[self.perm_row[entry.0]]);
            }
            for entry in &mut self.l_cols[k] {
                entry.1 = std::mem::take(&mut x[entry.0]) / pivot_val;
            }
            x[ipiv] = 0.0;
        }
        Ok(())
    }

    /// Solve `A·x = b` using the computed factors.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0f64; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solve `A·x = b` into a caller-provided buffer — no allocation, for
    /// call sites that loop (the Newton iteration, transient stepping).
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` do not match the system dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        assert_eq!(x.len(), self.n, "solution length mismatch");
        // Step k's working value lives in x[col_order[k]] throughout, so
        // back substitution leaves each unknown in its own slot and no
        // un-permuting pass (or scratch buffer) is needed. Apply the row
        // permutation on the way in.
        let q = &self.col_order;
        for (&target, &bv) in self.row_target.iter().zip(b) {
            x[target] = bv;
        }

        // Forward substitution with unit-diagonal L.
        for k in 0..self.n {
            let xk = x[q[k]];
            if xk != 0.0 {
                for &(orig_row, v) in &self.l_cols[k] {
                    x[self.row_target[orig_row]] -= v * xk;
                }
            }
        }
        // Back substitution with U.
        for k in (0..self.n).rev() {
            let c = q[k];
            x[c] /= self.u_diag[k];
            let xk = x[c];
            if xk != 0.0 {
                for &(pos, v) in &self.u_cols[k] {
                    x[q[pos]] -= v * xk;
                }
            }
        }
    }

    /// The column elimination order: step `k` eliminated column
    /// `col_order()[k]`.
    #[must_use]
    pub fn col_order(&self) -> &[usize] {
        &self.col_order
    }

    /// Structural non-zero count of the factors (fill-in included).
    #[cfg(test)]
    fn factor_nnz(&self) -> usize {
        self.n
            + self.l_cols.iter().map(Vec::len).sum::<usize>()
            + self.u_cols.iter().map(Vec::len).sum::<usize>()
    }
}

/// One-shot factor + solve. `m` must be consolidated.
///
/// # Errors
///
/// Returns [`SpiceError::SingularMatrix`] when factorisation fails.
pub fn solve_sparse(m: &SystemMatrix, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
    Ok(SparseLu::factor(m)?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::dense::solve_dense;

    fn mat(n: usize, entries: &[(usize, usize, f64)]) -> SystemMatrix {
        let mut m = SystemMatrix::new(n);
        for &(r, c, v) in entries {
            m.add(r, c, v);
        }
        m.consolidate();
        m
    }

    #[test]
    fn diagonal_system() {
        let m = mat(3, &[(0, 0, 2.0), (1, 1, 4.0), (2, 2, 8.0)]);
        let x = solve_sparse(&m, &[2.0, 4.0, 8.0]).unwrap();
        assert_eq!(x, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn permutation_matrix() {
        // Pure permutation requires pivoting on every column.
        let m = mat(3, &[(0, 2, 1.0), (1, 0, 1.0), (2, 1, 1.0)]);
        let x = solve_sparse(&m, &[3.0, 1.0, 2.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((x[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_dense_on_random_sparse_system() {
        let n = 60;
        let mut state = 0xdead_beef_u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut entries = Vec::new();
        for r in 0..n {
            entries.push((r, r, 5.0 + rnd()));
            for _ in 0..3 {
                let c = ((rnd().abs() * n as f64) as usize).min(n - 1);
                entries.push((r, c, rnd()));
            }
        }
        let m = mat(n, &entries);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let xs = solve_sparse(&m, &b).unwrap();
        let xd = solve_dense(&m, &b).unwrap();
        for (a, d) in xs.iter().zip(xd.iter()) {
            assert!((a - d).abs() < 1e-8, "sparse {a} vs dense {d}");
        }
    }

    #[test]
    fn non_permutation_order_rejected() {
        let m = mat(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let (pattern, vals) = CscPattern::from_system(&m);
        for order in [&[0, 0][..], &[0], &[0, 2], &[1, 0, 2]] {
            let err = SparseLu::factor_ordered(&pattern, &vals, Arc::from(order))
                .err()
                .expect("rejected");
            assert!(
                matches!(&err, SpiceError::InvalidParameter { reason, .. } if reason.contains("not a permutation")),
                "{order:?}: {err}"
            );
        }
    }

    #[test]
    fn refactor_against_another_dimension_rejected() {
        let m = mat(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let (pattern, vals) = CscPattern::from_system(&m);
        let mut lu = SparseLu::factor_csc(&pattern, &vals).unwrap();
        let (big, big_vals) =
            CscPattern::from_system(&mat(3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]));
        let err = lu.refactor(&big, &big_vals).expect_err("rejected");
        assert!(
            matches!(&err, SpiceError::InvalidParameter { reason, .. } if reason.contains("dimension 3")),
            "{err}"
        );
        // The factors are untouched and still solve the 2×2 system.
        lu.refactor(&pattern, &vals).unwrap();
        assert_eq!(lu.solve(&[2.0, 3.0]), vec![2.0, 3.0]);
    }

    #[test]
    fn singular_column_detected() {
        let m = mat(2, &[(0, 0, 1.0), (1, 0, 2.0)]);
        assert!(matches!(
            solve_sparse(&m, &[1.0, 1.0]),
            Err(SpiceError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn factor_reuse_solves_multiple_rhs() {
        let m = mat(2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
        let lu = SparseLu::factor(&m).unwrap();
        let x1 = lu.solve(&[3.0, 5.0]);
        let x2 = lu.solve(&[1.0, 0.0]);
        assert!((x1[0] - 0.8).abs() < 1e-12 && (x1[1] - 1.4).abs() < 1e-12);
        assert!((x2[0] - 0.6).abs() < 1e-12 && (x2[1] + 0.2).abs() < 1e-12);
    }

    #[test]
    fn solve_into_matches_solve() {
        let m = mat(
            3,
            &[
                (0, 0, 4.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, 1.0),
                (2, 2, 2.0),
            ],
        );
        let lu = SparseLu::factor(&m).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x1 = lu.solve(&b);
        let mut x2 = vec![0.0; 3];
        lu.solve_into(&b, &mut x2);
        assert_eq!(x1, x2);
    }

    #[test]
    fn mna_like_zero_diagonal() {
        // Structure of a voltage source row: zero diagonal block.
        // [G  1; 1  0] [v; i] = [0; V]
        let g = 1e-3;
        let m = mat(2, &[(0, 0, g), (0, 1, 1.0), (1, 0, 1.0)]);
        let x = solve_sparse(&m, &[0.0, 1.2]).unwrap();
        assert!((x[0] - 1.2).abs() < 1e-12, "node voltage pinned");
        assert!((x[1] + g * 1.2).abs() < 1e-15, "branch current");
    }

    /// Deterministic PRNG-driven refactor check: numeric-only
    /// refactorisation on changed values must match a fresh factorisation
    /// on many random systems.
    #[test]
    fn refactor_matches_fresh_factor() {
        let n = 40;
        let mut state = 0x5eed_u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        // Fixed pattern: diagonal plus a few off-diagonal sites.
        let mut sites = Vec::new();
        for r in 0..n {
            sites.push((r, r));
            for _ in 0..3 {
                let c = ((rnd().abs() * n as f64) as usize).min(n - 1);
                sites.push((r, c));
            }
        }
        let (pattern, slots) = CscPattern::from_sites(n, &sites);
        let fill = |rnd: &mut dyn FnMut() -> f64| {
            let mut vals = vec![0.0f64; pattern.nnz()];
            for (site, &slot) in sites.iter().zip(&slots) {
                let diag_boost = if site.0 == site.1 { 6.0 } else { 0.0 };
                vals[slot] += rnd() + diag_boost;
            }
            vals
        };
        let vals0 = fill(&mut rnd);
        let mut lu = SparseLu::factor_csc(&pattern, &vals0).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        for _ in 0..10 {
            let vals = fill(&mut rnd);
            lu.refactor(&pattern, &vals).expect("refactor");
            let x_re = lu.solve(&b);
            let fresh = SparseLu::factor_csc(&pattern, &vals).unwrap();
            let x_fresh = fresh.solve(&b);
            for (a, c) in x_re.iter().zip(&x_fresh) {
                assert!((a - c).abs() < 1e-9, "refactor {a} vs fresh {c}");
            }
            // Residual check against the actual matrix values.
            let mut ax = vec![0.0; n];
            pattern.spmv_add(&vals, &x_re, &mut ax);
            for (r, (axr, br)) in ax.iter().zip(&b).enumerate() {
                assert!((axr - br).abs() < 1e-8, "row {r}: {axr} vs {br}");
            }
        }
    }

    /// MNA-shaped system: `nodes` node unknowns (conductance diagonal
    /// plus symmetric random couplings) and `branches` voltage-source
    /// rows, each with its ±1 incidence pair and a zero diagonal.
    fn mna_system(nodes: usize, branches: usize, seed: u64) -> (CscPattern, Vec<f64>) {
        let mut state = seed;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut entries = Vec::new();
        for i in 0..nodes {
            entries.push((i, i, 1e-3 * (2.0 + rnd())));
            for _ in 0..2 {
                let j = ((rnd().abs() * nodes as f64) as usize).min(nodes - 1);
                let g = 1e-4 * (1.0 + rnd());
                entries.extend([(i, i, g), (j, j, g), (i, j, -g), (j, i, -g)]);
            }
        }
        for b in 0..branches {
            let (node, row) = (b * nodes / branches, nodes + b);
            entries.extend([(node, row, 1.0), (row, node, 1.0)]);
        }
        CscPattern::from_system(&mat(nodes + branches, &entries))
    }

    /// FNV-1a over the pivot permutation (each original row's pivot
    /// position, in row order), every factor entry and one solve, bit
    /// for bit.
    fn fingerprint(lu: &SparseLu, b: &[f64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |w: u64| h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
        let mut pinv = vec![0; lu.n];
        for (pos, &row) in lu.perm_row.iter().enumerate() {
            pinv[row] = pos;
        }
        for p in pinv {
            eat(p as u64);
        }
        for &d in &lu.u_diag {
            eat(d.to_bits());
        }
        for col in lu.l_cols.iter().chain(&lu.u_cols) {
            for &(i, v) in col {
                eat(i as u64);
                eat(v.to_bits());
            }
        }
        for v in lu.solve(b) {
            eat(v.to_bits());
        }
        h
    }

    const FACTOR_FINGERPRINT: u64 = 0xb862_4e5b_9774_11b9;
    const REFACTOR_FINGERPRINT: u64 = 0x03be_6ac0_7f4c_40dd;

    /// Natural order is the DC operating point's contract (SOLVER.md
    /// §2): `factor_csc` and `refactor` must reproduce, bit for bit, the
    /// factors and solves of the implementation that predates column
    /// orders. The fingerprints were recorded from that implementation.
    #[test]
    fn natural_order_reproduces_original_factors_bitwise() {
        let (pattern, vals) = mna_system(48, 12, 0x1dea);
        let n = pattern.dim();
        let vals2: Vec<f64> = vals
            .iter()
            .enumerate()
            .map(|(i, v)| v * (1.0 + 0.1 * (i as f64).sin()))
            .collect();
        let b: Vec<f64> = (0..n).map(|i| (0.7 * i as f64).cos()).collect();
        let mut lu = SparseLu::factor_csc(&pattern, &vals).unwrap();
        assert!(lu.col_order().iter().copied().eq(0..n));
        assert_eq!(fingerprint(&lu, &b), FACTOR_FINGERPRINT);
        lu.refactor(&pattern, &vals2).unwrap();
        assert_eq!(fingerprint(&lu, &b), REFACTOR_FINGERPRINT);
    }

    /// An MNA-shaped pattern with DC-dead slots: node conductances
    /// (each node's diagonal plus a coupling to a random node) and
    /// voltage-source incidence rows are live; `caps` capacitors between
    /// random node pairs add sites that hold `+0.0` in every matrix.
    /// Returns the pattern, each live site's slot (flagged when it is a
    /// node diagonal) and the dead slots.
    fn dc_system(
        nodes: usize,
        branches: usize,
        caps: usize,
        rnd: &mut impl FnMut() -> f64,
    ) -> (CscPattern, Vec<(usize, bool)>, Vec<usize>) {
        let mut node = || ((rnd().abs() * nodes as f64) as usize).min(nodes - 1);
        let mut sites = Vec::new();
        for i in 0..nodes {
            let j = node();
            sites.extend([(i, i), (i, j), (j, i)]);
        }
        for b in 0..branches {
            let (v, row) = (b * nodes / branches, nodes + b);
            sites.extend([(v, row), (row, v)]);
        }
        let n_live = sites.len();
        for _ in 0..caps {
            let (i, j) = (node(), node());
            sites.extend([(i, i), (i, j), (j, i), (j, j)]);
        }
        let (pattern, slots) = CscPattern::from_sites(nodes + branches, &sites);
        let mut live = vec![false; pattern.nnz()];
        for &s in &slots[..n_live] {
            live[s] = true;
        }
        let dead = (0..pattern.nnz()).filter(|&s| !live[s]).collect();
        let live_sites = sites[..n_live]
            .iter()
            .zip(&slots)
            .map(|(&(r, c), &slot)| (slot, r == c))
            .collect();
        (pattern, live_sites, dead)
    }

    /// The pruned factors against the full ones: the same pivots, every
    /// kept entry bit for bit at its position, every dropped one ±0, and
    /// solves equal by `to_bits`.
    fn assert_prune_exact(full: &SparseLu, pruned: &SparseLu, b: &[f64]) {
        assert_eq!(full.perm_row, pruned.perm_row, "pivot sequence");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&full.u_diag), bits(&pruned.u_diag), "pivots");
        let cols = |lu: &'_ SparseLu| {
            lu.l_cols
                .iter()
                .chain(&lu.u_cols)
                .cloned()
                .collect::<Vec<_>>()
        };
        for (f, p) in cols(full).iter().zip(cols(pruned)) {
            let mut kept = p.iter().peekable();
            for &(i, v) in f {
                match kept.next_if(|&&(j, _)| j == i) {
                    Some(&(_, w)) => assert_eq!(v.to_bits(), w.to_bits(), "kept entry {i}"),
                    None => assert_eq!(v, 0.0, "dropped entry {i} holds {v:e}"),
                }
            }
            assert!(
                kept.next().is_none(),
                "kept entries are the full factors' in order"
            );
        }
        assert_eq!(bits(&full.solve(b)), bits(&pruned.solve(b)), "solve");
    }

    /// Dropping what only DC-dead slots reach changes no bit, after a
    /// first factorisation, a numeric refactor and a repivot alike.
    #[test]
    fn pruned_factors_match_full_factors_bitwise() {
        let mut state = 0xdc_u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for _ in 0..20 {
            let (pattern, live, dead) = dc_system(60, 8, 40, &mut rnd);
            assert!(!dead.is_empty());
            let mut fill = |boost: f64| {
                let mut vals = vec![0.0f64; pattern.nnz()];
                for &(slot, diag) in &live {
                    vals[slot] += rnd() + if diag { boost } else { 0.0 };
                }
                vals
            };
            let n = pattern.dim();
            let b: Vec<f64> = (0..n).map(|i| (0.3 * i as f64).cos() + 0.1).collect();

            let vals = fill(4.0);
            let mut full = SparseLu::factor_csc(&pattern, &vals).unwrap();
            let mut pruned = SparseLu::factor_csc(&pattern, &vals).unwrap();
            pruned.retain_reached(&pattern, &dead);
            assert!(pruned.factor_nnz() < full.factor_nnz());
            assert_prune_exact(&full, &pruned, &b);

            let vals = fill(4.0);
            full.refactor(&pattern, &vals).unwrap();
            pruned.refactor(&pattern, &vals).unwrap();
            assert_prune_exact(&full, &pruned, &b);

            // Weak diagonals make the fresh pivot search pick other rows.
            let vals = fill(0.0);
            full.repivot(&pattern, &vals).unwrap();
            pruned.repivot(&pattern, &vals).unwrap();
            pruned.retain_reached(&pattern, &dead);
            assert_prune_exact(&full, &pruned, &b);
        }
    }

    #[test]
    fn ordered_factor_solves_like_natural_with_less_fill() {
        let (pattern, vals) = mna_system(120, 30, 0xfeed);
        let n = pattern.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let natural = SparseLu::factor_csc(&pattern, &vals).unwrap();
        let order: Arc<[usize]> = crate::matrix::order::min_degree_order(&pattern).into();
        let ordered = SparseLu::factor_ordered(&pattern, &vals, order).unwrap();
        let (xn, xo) = (natural.solve(&b), ordered.solve(&b));
        let scale = xn.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, c) in xn.iter().zip(&xo) {
            assert!((a - c).abs() <= 1e-9 * scale, "natural {a} vs ordered {c}");
        }
        assert!(
            ordered.factor_nnz() < natural.factor_nnz(),
            "fill {} vs natural {}",
            ordered.factor_nnz(),
            natural.factor_nnz()
        );
    }

    #[test]
    fn refactor_rejects_degraded_pivot() {
        // Factor with a healthy diagonal, then refactor with the first
        // pivot zeroed out: the threshold test must reject it.
        let sites = [(0usize, 0usize), (0, 1), (1, 0), (1, 1)];
        let (pattern, slots) = CscPattern::from_sites(2, &sites);
        let mut vals = vec![0.0; pattern.nnz()];
        for (&(_r, _c), (&slot, v)) in sites.iter().zip(slots.iter().zip([4.0f64, 1.0, 1.0, 4.0])) {
            vals[slot] = v;
        }
        let mut lu = SparseLu::factor_csc(&pattern, &vals).unwrap();
        let mut bad = vals.clone();
        bad[slots[0]] = 1e-16; // a(0,0) ~ 0 with a(1,0) = 1: pivot degraded
        assert!(lu.refactor(&pattern, &bad).is_err());
        // The workspace must be clean: a good refactor afterwards works.
        lu.refactor(&pattern, &vals).unwrap();
        let x = lu.solve(&[5.0, 5.0]);
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }
}
