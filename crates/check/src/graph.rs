//! The dependency-graph engine: one adjacency type, one strongly-
//! connected-component search, and the witness-cycle extractor built on
//! it. The conflict-serializability and MVSG checks here and the
//! write-skew tool (`sitm-skew`) all find their cycles through it.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Edge provenance: the conflict kind and the line it arose on.
pub type EdgeInfo = (&'static str, u64);

/// Adjacency of a dependency graph, deterministic iteration order.
pub type Graph = BTreeMap<u64, BTreeMap<u64, EdgeInfo>>;

/// Adds the edge `from -> to`, keeping the first provenance recorded
/// for a repeated edge. Self-edges are dropped: a transaction never
/// depends on itself.
pub fn add_edge(graph: &mut Graph, from: u64, to: u64, kind: &'static str, line: u64) {
    if from != to {
        graph
            .entry(from)
            .or_default()
            .entry(to)
            .or_insert((kind, line));
    }
}

/// Strongly connected components with more than one vertex — the
/// graph's cycles — each sorted ascending, in ascending order.
pub fn sccs(graph: &Graph) -> Vec<Vec<u64>> {
    // Dense indices in ascending vertex order, so index order is
    // vertex order.
    let mut vertices: BTreeSet<u64> = graph.keys().copied().collect();
    vertices.extend(graph.values().flat_map(|succ| succ.keys().copied()));
    let ids: Vec<u64> = vertices.into_iter().collect();
    let dense = |v: &u64| ids.binary_search(v).expect("every endpoint is a vertex");
    let adj: Vec<Vec<usize>> = ids
        .iter()
        .map(|v| {
            graph
                .get(v)
                .map_or_else(Vec::new, |s| s.keys().map(dense).collect())
        })
        .collect();

    // Tarjan's algorithm, iterative.
    let n = ids.len();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<u64>> = Vec::new();

    struct Frame {
        v: usize,
        child: usize,
    }

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call_stack = vec![Frame { v: root, child: 0 }];
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(frame) = call_stack.last_mut() {
            let v = frame.v;
            if frame.child < adj[v].len() {
                let w = adj[v][frame.child];
                frame.child += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push(Frame { v: w, child: 0 });
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                if lowlink[v] == index[v] {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        component.push(ids[w]);
                        if w == v {
                            break;
                        }
                    }
                    if component.len() > 1 {
                        component.sort_unstable();
                        sccs.push(component);
                    }
                }
                let finished = call_stack.pop().expect("frame exists").v;
                if let Some(parent) = call_stack.last() {
                    lowlink[parent.v] = lowlink[parent.v].min(lowlink[finished]);
                }
            }
        }
    }
    sccs.sort();
    sccs
}

/// A witness cycle inside the first non-trivial SCC: the shortest
/// cycle through that component's smallest vertex, as the list of
/// vertices along it (each holding an edge to the next, wrapping
/// around). `None` exactly when the graph is acyclic.
pub fn find_cycle(graph: &Graph) -> Option<Vec<u64>> {
    let start = *sccs(graph).first()?.first()?;
    // Breadth-first from `start` until an edge closes back onto it.
    // Every vertex on a path from `start` back to itself lies in its
    // component, so the search needs no membership filter.
    let mut parent = BTreeMap::from([(start, start)]);
    let mut queue = VecDeque::from([start]);
    while let Some(v) = queue.pop_front() {
        for &w in graph.get(&v).into_iter().flat_map(BTreeMap::keys) {
            if w == start {
                let mut cycle = vec![v];
                while let Some(&p) = cycle.last().filter(|&&u| u != start) {
                    cycle.push(parent[&p]);
                }
                cycle.reverse();
                return Some(cycle);
            }
            if let Entry::Vacant(slot) = parent.entry(w) {
                slot.insert(v);
                queue.push_back(w);
            }
        }
    }
    unreachable!("a vertex of a non-trivial SCC lies on a cycle")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[(u64, u64)]) -> Graph {
        let mut g = Graph::new();
        for &(from, to) in edges {
            add_edge(&mut g, from, to, "rw", 0);
        }
        g
    }

    #[test]
    fn acyclic_graphs_have_no_sccs_or_cycle() {
        let g = graph(&[(0, 1), (1, 2), (0, 2), (3, 3)]);
        assert!(sccs(&g).is_empty());
        assert_eq!(find_cycle(&g), None);
    }

    #[test]
    fn components_are_sorted_and_separate() {
        let g = graph(&[(5, 4), (4, 5), (2, 0), (0, 1), (1, 2), (2, 4)]);
        assert_eq!(sccs(&g), vec![vec![0, 1, 2], vec![4, 5]]);
    }

    #[test]
    fn witness_is_the_shortest_cycle_through_the_smallest_vertex() {
        // 1 -> 2 -> 3 -> 1 and the shortcut 1 -> 3.
        let g = graph(&[(1, 2), (2, 3), (3, 1), (1, 3)]);
        assert_eq!(find_cycle(&g), Some(vec![1, 3]));
        let g = graph(&[(7, 9), (9, 7)]);
        assert_eq!(find_cycle(&g), Some(vec![7, 9]));
    }

    #[test]
    fn every_witness_edge_exists() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 1), (2, 0)]);
        let cycle = find_cycle(&g).expect("cyclic");
        assert_eq!(cycle[0], 0);
        for (i, from) in cycle.iter().enumerate() {
            let to = cycle[(i + 1) % cycle.len()];
            assert!(g[from].contains_key(&to), "{from} -> {to} in {cycle:?}");
        }
    }

    #[test]
    fn deep_chains_do_not_overflow_the_stack() {
        let n = 200_000u64;
        let mut edges: Vec<(u64, u64)> = (0..n).map(|v| (v, v + 1)).collect();
        edges.push((n, 0));
        assert_eq!(sccs(&graph(&edges))[0].len(), n as usize + 1);
    }
}
