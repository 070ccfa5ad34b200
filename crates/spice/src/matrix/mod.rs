//! Linear-system assembly and LU solvers.
//!
//! Two assembly paths feed the solvers:
//!
//! * the legacy row-wise [`SystemMatrix`] accumulator (stamps appended,
//!   consolidated on demand) — the reference path, still used by one-shot
//!   solves and the equivalence tests, and
//! * a fixed [`CscPattern`] plus a flat values buffer — the fast path the
//!   Newton loop uses via `analysis::plan::StampPlan`, where the sparsity
//!   pattern is computed once per circuit and only values change.
//!
//! A system of at most 96 unknowns (every cell testbench) factors on the
//! dense partial-pivoting LU ([`dense::DenseLu`]), which records the
//! structure of its elimination and replays only the structural
//! non-zeros while the pivot sequence holds. A larger one factors on a
//! left-looking Gilbert–Peierls sparse LU ([`sparse::SparseLu`]) with a
//! symbolic/numeric split for allocation-free refactorisation, in the
//! minimum-degree column order of [`order::min_degree_order`] for a
//! transient and in raw MNA column order for the DC operating point.
//! One-shot solves of a [`SystemMatrix`] call [`dense::solve_dense`] or
//! [`sparse::solve_sparse`] directly.

pub mod dense;
pub mod order;
pub mod sparse;

/// Immutable column-compressed sparsity pattern of an MNA Jacobian.
///
/// Built once per `(circuit, analysis)` by the stamp plan; every Newton
/// iteration then rewrites only a parallel values buffer (`vals[slot]`
/// for slot indices handed out at construction). Both LU backends consume
/// the pattern directly, so no per-iteration format conversion remains.
#[derive(Debug, Clone)]
pub struct CscPattern {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
}

impl CscPattern {
    /// Build a pattern from (possibly duplicate) `(row, col)` stamp sites.
    ///
    /// Returns the pattern plus one slot index per input site: duplicate
    /// sites share a slot, so stamping is `vals[slot] += v`.
    ///
    /// # Panics
    ///
    /// Panics if any site is out of range.
    #[must_use]
    pub fn from_sites(n: usize, sites: &[(usize, usize)]) -> (Self, Vec<usize>) {
        for &(r, c) in sites {
            assert!(r < n && c < n, "site ({r},{c}) out of range {n}");
        }
        // Sort site indices by (col, row); equal sites collapse to a slot.
        let mut order: Vec<usize> = (0..sites.len()).collect();
        order.sort_unstable_by_key(|&i| (sites[i].1, sites[i].0));
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::with_capacity(sites.len());
        let mut slots = vec![0usize; sites.len()];
        let mut prev: Option<(usize, usize)> = None;
        for &i in &order {
            let (r, c) = sites[i];
            if prev != Some((r, c)) {
                row_idx.push(r);
                col_ptr[c + 1] += 1;
                prev = Some((r, c));
            }
            slots[i] = row_idx.len() - 1;
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        (
            Self {
                n,
                col_ptr,
                row_idx,
            },
            slots,
        )
    }

    /// Build a pattern and values from a consolidated [`SystemMatrix`].
    #[must_use]
    pub fn from_system(m: &SystemMatrix) -> (Self, Vec<f64>) {
        let n = m.dim();
        let mut col_ptr = vec![0usize; n + 1];
        for row in m.rows() {
            for &(c, _) in row {
                col_ptr[c + 1] += 1;
            }
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        let nnz = col_ptr[n];
        let mut row_idx = vec![0usize; nnz];
        let mut vals = vec![0.0f64; nnz];
        let mut next = col_ptr.clone();
        for (r, row) in m.rows().iter().enumerate() {
            for &(c, v) in row {
                let p = next[c];
                row_idx[p] = r;
                vals[p] = v;
                next[c] += 1;
            }
        }
        (
            Self {
                n,
                col_ptr,
                row_idx,
            },
            vals,
        )
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Value-slot range of column `j`.
    #[inline]
    #[must_use]
    pub fn col_range(&self, j: usize) -> std::ops::Range<usize> {
        self.col_ptr[j]..self.col_ptr[j + 1]
    }

    /// Row indices, parallel to the values buffer.
    #[inline]
    #[must_use]
    pub fn row_indices(&self) -> &[usize] {
        &self.row_idx
    }

    /// `(row, value)` pairs of column `j` for the given values buffer.
    #[inline]
    pub fn col<'a>(&'a self, j: usize, vals: &'a [f64]) -> impl Iterator<Item = (usize, f64)> + 'a {
        self.col_range(j).map(move |p| (self.row_idx[p], vals[p]))
    }

    /// Accumulate `y += A·x` for the given values buffer.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn spmv_add(&self, vals: &[f64], x: &[f64], y: &mut [f64]) {
        assert_eq!(vals.len(), self.nnz(), "values length mismatch");
        assert!(x.len() == self.n && y.len() == self.n, "vector mismatch");
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                for p in self.col_range(j) {
                    y[self.row_idx[p]] += vals[p] * xj;
                }
            }
        }
    }
}

/// The largest system, in unknowns, that the engine factors on the dense
/// LU ([`dense::DenseLu`]); larger ones factor on the sparse LU.
pub(crate) const DENSE_LIMIT: usize = 96;

/// Row-wise sparse accumulator for the MNA Jacobian.
///
/// Stamps are appended (duplicates allowed) and consolidated on demand.
#[derive(Debug, Clone)]
pub struct SystemMatrix {
    n: usize,
    rows: Vec<Vec<(usize, f64)>>,
}

impl SystemMatrix {
    /// An `n × n` zero matrix.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            rows: vec![Vec::new(); n],
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Clear all entries, keeping allocations.
    pub fn clear(&mut self) {
        for r in &mut self.rows {
            r.clear();
        }
    }

    /// Add `v` at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of range.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.n && c < self.n,
            "stamp ({r},{c}) out of range {}",
            self.n
        );
        if v != 0.0 {
            self.rows[r].push((c, v));
        }
    }

    /// Merge duplicate column entries within each row (sorted by column).
    pub fn consolidate(&mut self) {
        for row in &mut self.rows {
            if row.len() < 2 {
                continue;
            }
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut w = 0;
            for i in 1..row.len() {
                if row[i].0 == row[w].0 {
                    row[w].1 += row[i].1;
                } else {
                    w += 1;
                    row[w] = row[i];
                }
            }
            row.truncate(w + 1);
        }
    }

    /// Consolidated rows (call [`SystemMatrix::consolidate`] first for
    /// duplicate-free access).
    #[must_use]
    pub fn rows(&self) -> &[Vec<(usize, f64)>] {
        &self.rows
    }

    /// Number of stored (possibly duplicate) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SpiceError;
    use dense::solve_dense;
    use sparse::solve_sparse;

    #[test]
    fn consolidate_merges_duplicates() {
        let mut m = SystemMatrix::new(2);
        m.add(0, 0, 1.0);
        m.add(0, 0, 2.0);
        m.add(0, 1, -1.0);
        m.consolidate();
        assert_eq!(m.rows()[0], vec![(0, 3.0), (1, -1.0)]);
    }

    #[test]
    fn zero_stamps_are_skipped() {
        let mut m = SystemMatrix::new(2);
        m.add(0, 0, 0.0);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn dense_and_sparse_agree_on_small_system() {
        // 2x2: [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
        let mut m = SystemMatrix::new(2);
        m.add(0, 0, 2.0);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 3.0);
        m.consolidate();
        let b = vec![3.0, 5.0];
        let xd = solve_dense(&m, &b).unwrap();
        let xs = solve_sparse(&m, &b).unwrap();
        for (a, b) in xd.iter().zip(xs.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!((xd[0] - 0.8).abs() < 1e-12);
        assert!((xd[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_reported() {
        let mut m = SystemMatrix::new(2);
        m.add(0, 0, 1.0);
        // row 1 empty -> singular
        let err = solve_dense(&m, &[1.0, 1.0]).unwrap_err();
        assert!(matches!(err, SpiceError::SingularMatrix { .. }));
        let err2 = solve_sparse(&m, &[1.0, 1.0]).unwrap_err();
        assert!(matches!(err2, SpiceError::SingularMatrix { .. }));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_stamp_panics() {
        let mut m = SystemMatrix::new(2);
        m.add(2, 0, 1.0);
    }
}
