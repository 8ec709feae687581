//! The `lasindex`-style quadtree over one file's points.
//!
//! LAStools' `lasindex` builds a shallow quadtree whose leaves reference
//! *intervals of record numbers*; after a `lassort` the points of a leaf
//! are contiguous on disk and a query touches few, large intervals. The
//! tree here stores record ids per leaf and merges them into intervals at
//! query time, so it works (just less efficiently) on unsorted files too —
//! exactly like the real tool.

use lidardb_geom::Envelope;

/// Maximum tree depth (a 2^10 × 2^10 leaf grid at most).
const MAX_DEPTH: usize = 10;

#[derive(Debug, Clone)]
enum Node {
    Leaf(Vec<u32>),
    Inner(Box<[Node; 4]>),
}

/// A quadtree mapping a query window to candidate record-id intervals.
#[derive(Debug, Clone)]
pub struct QuadTree {
    env: Envelope,
    root: Node,
    len: usize,
}

impl QuadTree {
    /// Build over `(x, y)` positions; leaves split at `leaf_cap` entries.
    ///
    /// # Panics
    /// Panics when `leaf_cap == 0`.
    pub fn build(points: &[(f64, f64)], env: Envelope, leaf_cap: usize) -> Self {
        assert!(leaf_cap > 0, "leaf capacity must be positive");
        let all: Vec<u32> = (0..points.len() as u32).collect();
        let root = Self::build_node(points, all, &env, leaf_cap, 0);
        QuadTree {
            env,
            root,
            len: points.len(),
        }
    }

    fn quadrants(env: &Envelope) -> [Envelope; 4] {
        let c = env.center();
        [
            Envelope {
                min_x: env.min_x,
                min_y: env.min_y,
                max_x: c.x,
                max_y: c.y,
            },
            Envelope {
                min_x: c.x,
                min_y: env.min_y,
                max_x: env.max_x,
                max_y: c.y,
            },
            Envelope {
                min_x: env.min_x,
                min_y: c.y,
                max_x: c.x,
                max_y: env.max_y,
            },
            Envelope {
                min_x: c.x,
                min_y: c.y,
                max_x: env.max_x,
                max_y: env.max_y,
            },
        ]
    }

    fn build_node(
        points: &[(f64, f64)],
        ids: Vec<u32>,
        env: &Envelope,
        leaf_cap: usize,
        depth: usize,
    ) -> Node {
        if ids.len() <= leaf_cap || depth >= MAX_DEPTH {
            return Node::Leaf(ids);
        }
        let c = env.center();
        let mut parts: [Vec<u32>; 4] = [vec![], vec![], vec![], vec![]];
        for id in ids {
            let (x, y) = points[id as usize];
            // Clamp out-of-window points into the nearest quadrant (the
            // header bbox is authoritative but floats can sit on edges).
            let qi = usize::from(x >= c.x) + 2 * usize::from(y >= c.y);
            parts[qi].push(id);
        }
        let quads = Self::quadrants(env);
        let children: Vec<Node> = parts
            .into_iter()
            .zip(quads.iter())
            .map(|(ids, qenv)| Self::build_node(points, ids, qenv, leaf_cap, depth + 1))
            .collect();
        let children: [Node; 4] = children.try_into().expect("exactly four quadrants");
        Node::Inner(Box::new(children))
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree indexes no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Candidate record-id intervals `[start, end)` for a query window,
    /// sorted and merged. A superset guarantee: every record inside the
    /// window is covered.
    pub fn query(&self, window: &Envelope) -> Vec<(usize, usize)> {
        let mut ids: Vec<u32> = Vec::new();
        Self::collect(&self.root, &self.env, window, &mut ids);
        ids.sort_unstable();
        ids.dedup();
        let mut out: Vec<(usize, usize)> = Vec::new();
        for id in ids {
            let id = id as usize;
            match out.last_mut() {
                Some(last) if last.1 == id => last.1 = id + 1,
                _ => out.push((id, id + 1)),
            }
        }
        out
    }

    fn collect(node: &Node, env: &Envelope, window: &Envelope, out: &mut Vec<u32>) {
        if !env.intersects(window) {
            return;
        }
        match node {
            Node::Leaf(ids) => out.extend_from_slice(ids),
            Node::Inner(children) => {
                for (child, qenv) in children.iter().zip(Self::quadrants(env).iter()) {
                    Self::collect(child, qenv, window, out);
                }
            }
        }
    }

    /// Number of leaves (index-size accounting).
    pub fn num_leaves(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Inner(c) => c.iter().map(walk).sum(),
            }
        }
        walk(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .flat_map(|y| (0..n).map(move |x| (x as f64, y as f64)))
            .collect()
    }

    fn env(a: f64, b: f64, c: f64, d: f64) -> Envelope {
        Envelope::new(a, b, c, d).unwrap()
    }

    #[test]
    fn query_covers_all_matches() {
        let pts = grid_points(50);
        let tree = QuadTree::build(&pts, env(0.0, 0.0, 49.0, 49.0), 64);
        let window = env(10.0, 12.0, 20.0, 22.0);
        let intervals = tree.query(&window);
        for (i, &(x, y)) in pts.iter().enumerate() {
            if (10.0..=20.0).contains(&x) && (12.0..=22.0).contains(&y) {
                assert!(
                    intervals.iter().any(|&(s, e)| i >= s && i < e),
                    "point {i} at ({x},{y}) missed"
                );
            }
        }
        // And it prunes: far fewer candidates than the whole file.
        let covered: usize = intervals.iter().map(|&(s, e)| e - s).sum();
        assert!(
            covered < pts.len() / 4,
            "covered {covered} of {}",
            pts.len()
        );
    }

    #[test]
    fn sorted_input_gives_few_intervals() {
        // Z-order-sorted points: a window should touch few intervals.
        let mut pts = grid_points(64);
        pts.sort_by_key(|&(x, y)| lidardb_sfc::morton_encode(x as u32, y as u32));
        let tree = QuadTree::build(&pts, env(0.0, 0.0, 63.0, 63.0), 256);
        let unsorted_tree = QuadTree::build(&grid_points(64), env(0.0, 0.0, 63.0, 63.0), 256);
        let window = env(5.0, 5.0, 15.0, 15.0);
        let sorted_iv = tree.query(&window).len();
        let unsorted_iv = unsorted_tree.query(&window).len();
        assert!(
            sorted_iv < unsorted_iv,
            "lassort should reduce interval count: {sorted_iv} vs {unsorted_iv}"
        );
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let tree = QuadTree::build(&[], env(0.0, 0.0, 1.0, 1.0), 16);
        assert!(tree.is_empty());
        assert!(tree.query(&env(0.0, 0.0, 1.0, 1.0)).is_empty());
        let tree = QuadTree::build(&[(0.5, 0.5)], env(0.0, 0.0, 1.0, 1.0), 16);
        assert_eq!(tree.query(&env(0.0, 0.0, 1.0, 1.0)), vec![(0, 1)]);
        assert!(tree.query(&env(2.0, 2.0, 3.0, 3.0)).is_empty());
    }

    #[test]
    fn degenerate_identical_points_respect_max_depth() {
        // 1000 identical points can never split below leaf_cap: the depth
        // bound must stop recursion.
        let pts = vec![(5.0, 5.0); 1000];
        let tree = QuadTree::build(&pts, env(0.0, 0.0, 10.0, 10.0), 4);
        let iv = tree.query(&env(4.0, 4.0, 6.0, 6.0));
        assert_eq!(iv, vec![(0, 1000)]);
        assert!(tree.num_leaves() < 4usize.pow(11));
    }

    #[test]
    fn adjacent_ids_merge_into_intervals() {
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 0.0)).collect();
        let tree = QuadTree::build(&pts, env(0.0, 0.0, 99.0, 1.0), 8);
        let iv = tree.query(&env(0.0, 0.0, 99.0, 1.0));
        let covered: usize = iv.iter().map(|&(s, e)| e - s).sum();
        assert_eq!(covered, 100);
        assert!(iv.len() <= 2, "full-window query merges to ~1 interval");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_leaf_cap_rejected() {
        QuadTree::build(&[], env(0.0, 0.0, 1.0, 1.0), 0);
    }
}
