//! Fill-reducing column order for the sparse LU.
//!
//! [`min_degree_order`] runs exact minimum degree on the symmetrised
//! pattern A+Aᵀ: it eliminates, one at a time, the vertex with the
//! fewest live neighbours in the elimination graph, turning that
//! vertex's neighbourhood into a clique (the fill the elimination would
//! create). The elimination sequence is the column order. Ties go to the
//! lowest index, so the order is a pure function of the pattern.
//!
//! MNA Jacobians are structurally near-symmetric (every conductance
//! stamps both `(a, b)` and `(b, a)`; voltage-source incidences come in
//! row/column pairs), so the symmetric graph predicts the LU fill well
//! even though [`super::sparse::SparseLu`] pivots by rows. The graph is
//! kept explicitly, one sorted neighbour list per vertex: fill stays
//! small under this order, so the lists do too (see SOLVER.md §3 for the
//! fig. 6 numbers).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::CscPattern;

/// Minimum-degree elimination order of `pattern`'s A+Aᵀ graph:
/// `order[k]` is the column to eliminate at step `k`. Always a
/// permutation of `0..pattern.dim()`.
#[must_use]
pub fn min_degree_order(pattern: &CscPattern) -> Vec<usize> {
    let n = pattern.dim();
    let rows = pattern.row_indices();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in 0..n {
        for &r in &rows[pattern.col_range(c)] {
            if r != c {
                adj[r].push(c);
                adj[c].push(r);
            }
        }
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }

    // Min-heap on (degree, vertex) with lazy deletion: every degree
    // change pushes a fresh entry, and an entry whose degree no longer
    // matches its live vertex is skipped on pop.
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|v| Reverse((adj[v].len(), v))).collect();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut merged = Vec::new();
    while let Some(Reverse((deg, v))) = heap.pop() {
        if eliminated[v] || deg != adj[v].len() {
            continue;
        }
        eliminated[v] = true;
        order.push(v);
        let clique = std::mem::take(&mut adj[v]);
        for &u in &clique {
            // u loses v and gains every other member of v's clique.
            merged.clear();
            merged.extend(adj[u].iter().chain(&clique).filter(|&&w| w != u && w != v));
            merged.sort_unstable();
            merged.dedup();
            std::mem::swap(&mut adj[u], &mut merged);
            heap.push(Reverse((adj[u].len(), u)));
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_permutation(order: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        order.len() == n
            && order
                .iter()
                .all(|&c| c < n && !std::mem::replace(&mut seen[c], true))
    }

    #[test]
    fn empty_and_diagonal_patterns() {
        let (p0, _) = CscPattern::from_sites(0, &[]);
        assert!(min_degree_order(&p0).is_empty());
        // No edges: every degree is 0, ties resolve to index order.
        let (p, _) = CscPattern::from_sites(4, &[(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert_eq!(min_degree_order(&p), vec![0, 1, 2, 3]);
    }

    #[test]
    fn arrow_matrix_defers_hub() {
        // Column 0 couples to every other unknown (a supply node): the
        // natural order fills the whole matrix, minimum degree defers
        // the hub until one leaf is left (a degree tie) and creates no
        // fill at all.
        let n = 8;
        let mut sites = vec![(0, 0)];
        for i in 1..n {
            sites.extend([(i, i), (0, i), (i, 0)]);
        }
        let (p, _) = CscPattern::from_sites(n, &sites);
        let order = min_degree_order(&p);
        assert!(is_permutation(&order, n));
        assert_eq!(order[n - 2..], [0, n - 1], "hub eliminated late: {order:?}");
    }

    #[test]
    fn random_patterns_give_permutations() {
        let mut state = 0x0dd_ba11_u64;
        let mut next = move |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as usize) % m
        };
        for n in [1, 2, 7, 40, 150] {
            let mut sites: Vec<(usize, usize)> = Vec::new();
            for _ in 0..3 * n {
                sites.push((next(n), next(n)));
            }
            let (p, _) = CscPattern::from_sites(n, &sites);
            assert!(is_permutation(&min_degree_order(&p), n), "n = {n}");
        }
    }
}
