//! Hopcroft–Karp maximum bipartite matching.
//!
//! The EAR feasibility check can be phrased either as a max-flow problem
//! (the paper's formulation, see [`crate::FlowNetwork`]) or — when `c = 1`
//! and racks are collapsed into nodes — as a plain bipartite matching. This
//! module provides Hopcroft–Karp as the alternative formulation; the
//! `tests/proptest_flow.rs` checks that the two agree.

use std::collections::VecDeque;

/// Maximum bipartite matching between `left_count` left vertices and
/// `right_count` right vertices, given adjacency `adj[l] = right neighbours`.
///
/// Returns the matching as `match_of_left[l] = Some(r)`.
///
/// ```
/// use ear_flow::hopcroft_karp;
/// // 0-0, 0-1, 1-0: maximum matching has size 2.
/// let m = hopcroft_karp(2, 2, &[vec![0, 1], vec![0]]);
/// assert_eq!(m.iter().flatten().count(), 2);
/// ```
///
/// # Panics
///
/// Panics if `adj.len() != left_count` or any neighbour index is out of
/// range.
pub fn hopcroft_karp(
    left_count: usize,
    right_count: usize,
    adj: &[Vec<usize>],
) -> Vec<Option<usize>> {
    assert_eq!(adj.len(), left_count, "adjacency size mismatch");
    for nbrs in adj {
        for &r in nbrs {
            assert!(r < right_count, "right vertex out of range");
        }
    }

    const INF: u32 = u32::MAX;
    let mut match_l: Vec<Option<usize>> = vec![None; left_count];
    let mut match_r: Vec<Option<usize>> = vec![None; right_count];
    let mut dist = vec![INF; left_count];

    loop {
        // BFS phase: layer free left vertices.
        let mut queue = VecDeque::new();
        for l in 0..left_count {
            if match_l[l].is_none() {
                dist[l] = 0;
                queue.push_back(l);
            } else {
                dist[l] = INF;
            }
        }
        let mut found_augmenting = false;
        while let Some(l) = queue.pop_front() {
            for &r in &adj[l] {
                match match_r[r] {
                    None => found_augmenting = true,
                    Some(l2) => {
                        if dist[l2] == INF {
                            dist[l2] = dist[l] + 1;
                            queue.push_back(l2);
                        }
                    }
                }
            }
        }
        if !found_augmenting {
            break;
        }
        // DFS phase: find vertex-disjoint augmenting paths.
        for l in 0..left_count {
            if match_l[l].is_none() {
                dfs(l, adj, &mut match_l, &mut match_r, &mut dist);
            }
        }
    }
    match_l
}

fn dfs(
    l: usize,
    adj: &[Vec<usize>],
    match_l: &mut [Option<usize>],
    match_r: &mut [Option<usize>],
    dist: &mut [u32],
) -> bool {
    for &r in &adj[l] {
        let advance = match match_r[r] {
            None => true,
            Some(l2) => dist[l2] == dist[l] + 1 && dfs(l2, adj, match_l, match_r, dist),
        };
        if advance {
            match_l[l] = Some(r);
            match_r[r] = Some(l);
            return true;
        }
    }
    dist[l] = u32::MAX;
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matching_size(m: &[Option<usize>]) -> usize {
        m.iter().flatten().count()
    }

    fn assert_valid(m: &[Option<usize>], adj: &[Vec<usize>]) {
        let mut used = std::collections::HashSet::new();
        for (l, r) in m.iter().enumerate() {
            if let Some(r) = r {
                assert!(adj[l].contains(r), "matched pair must be an edge");
                assert!(used.insert(*r), "right vertex matched twice");
            }
        }
    }

    #[test]
    fn perfect_matching_on_cycle() {
        // Even cycle as bipartite graph: perfect matching exists.
        let adj = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 0]];
        let m = hopcroft_karp(4, 4, &adj);
        assert_eq!(matching_size(&m), 4);
        assert_valid(&m, &adj);
    }

    #[test]
    fn saturated_left_vertex() {
        // Two left vertices compete for one right vertex.
        let adj = vec![vec![0], vec![0]];
        let m = hopcroft_karp(2, 1, &adj);
        assert_eq!(matching_size(&m), 1);
        assert_valid(&m, &adj);
    }

    #[test]
    fn empty_graph() {
        let m = hopcroft_karp(3, 3, &[vec![], vec![], vec![]]);
        assert_eq!(matching_size(&m), 0);
    }

    #[test]
    fn augmenting_path_is_found() {
        // Greedy left-to-right would match 0-0 and strand 1; an augmenting
        // path re-routes 0 to 1.
        let adj = vec![vec![0, 1], vec![0]];
        let m = hopcroft_karp(2, 2, &adj);
        assert_eq!(matching_size(&m), 2);
        assert_valid(&m, &adj);
    }

    #[test]
    fn agrees_with_flow_formulation_on_random_graphs() {
        use crate::FlowNetwork;
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for trial in 0..50 {
            let l = 1 + next() % 8;
            let r = 1 + next() % 8;
            let mut adj = vec![Vec::new(); l];
            for (li, nbrs) in adj.iter_mut().enumerate() {
                for ri in 0..r {
                    if (next() + li) % 3 == 0 {
                        nbrs.push(ri);
                    }
                }
            }
            let m = hopcroft_karp(l, r, &adj);
            // Flow formulation.
            let mut net = FlowNetwork::new(l + r + 2);
            let (s, t) = (l + r, l + r + 1);
            for li in 0..l {
                net.add_edge(s, li, 1);
            }
            for ri in 0..r {
                net.add_edge(l + ri, t, 1);
            }
            for (li, nbrs) in adj.iter().enumerate() {
                for &ri in nbrs {
                    net.add_edge(li, l + ri, 1);
                }
            }
            assert_eq!(
                matching_size(&m) as u64,
                net.max_flow(s, t),
                "trial {trial}: matching and flow disagree"
            );
            assert_valid(&m, &adj);
        }
    }
}
