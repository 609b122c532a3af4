//! Tree-structured CPDs (paper Fig. 2(b)).
//!
//! Interior vertices split on the value of some parent; leaves hold a
//! distribution over the child. Contexts that share a path share
//! parameters, so a tree can represent a CPD with far fewer parameters
//! than the full table when many parent configurations are equivalent.

/// One vertex of a CPD tree; vertices live in the tree's arena and are
/// referenced by index.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeNode {
    /// A leaf distribution over the child's values.
    Leaf(Vec<f64>),
    /// Multiway split: one branch per value of the parent in `slot`.
    SplitPerValue {
        /// Index into the CPD's parent slots.
        slot: usize,
        /// Child node per parent value (length = parent cardinality).
        branches: Vec<usize>,
    },
    /// Ordinal binary split: codes `≤ cut` go to `lo`, the rest to `hi`.
    SplitThreshold {
        /// Index into the CPD's parent slots.
        slot: usize,
        /// Inclusive upper code of the low branch.
        cut: u32,
        /// Node for codes `≤ cut`.
        lo: usize,
        /// Node for codes `> cut`.
        hi: usize,
    },
}

/// A tree CPD `P(child | parents)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeCpd {
    child_card: usize,
    parent_cards: Vec<usize>,
    /// Arena of nodes; index 0 is the root.
    nodes: Vec<TreeNode>,
}

impl TreeCpd {
    /// Creates a tree CPD from an explicit arena (root at index 0).
    /// Panics on malformed trees (bad branch counts, out-of-range indexes,
    /// wrong leaf arity).
    pub fn new(
        child_card: usize,
        parent_cards: Vec<usize>,
        nodes: Vec<TreeNode>,
    ) -> Self {
        assert!(!nodes.is_empty(), "tree needs at least a root leaf");
        for node in &nodes {
            match node {
                TreeNode::Leaf(d) => assert_eq!(d.len(), child_card, "bad leaf arity"),
                TreeNode::SplitPerValue { slot, branches } => {
                    assert_eq!(branches.len(), parent_cards[*slot], "bad branch count");
                    assert!(
                        branches.iter().all(|&b| b < nodes.len()),
                        "branch out of range"
                    );
                }
                TreeNode::SplitThreshold { slot, cut, lo, hi } => {
                    assert!(
                        (*cut as usize) + 1 < parent_cards[*slot],
                        "degenerate threshold"
                    );
                    assert!(
                        *lo < nodes.len() && *hi < nodes.len(),
                        "branch out of range"
                    );
                }
            }
        }
        TreeCpd { child_card, parent_cards, nodes }
    }

    /// A single-leaf tree (no splits).
    pub fn leaf(child_card: usize, parent_cards: Vec<usize>, dist: Vec<f64>) -> Self {
        TreeCpd::new(child_card, parent_cards, vec![TreeNode::Leaf(dist)])
    }

    /// Cardinality of the child.
    pub fn child_card(&self) -> usize {
        self.child_card
    }

    /// Parent cardinalities in slot order.
    pub fn parent_cards(&self) -> &[usize] {
        &self.parent_cards
    }

    /// The node arena (root at index 0).
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// The child distribution for a parent configuration: walk the tree.
    pub fn dist(&self, parent_config: &[u32]) -> &[f64] {
        match &self.nodes[self.leaf_of(parent_config)] {
            TreeNode::Leaf(d) => d,
            _ => unreachable!("leaf_of returns a leaf"),
        }
    }

    /// Arena index of the leaf a parent configuration reaches.
    fn leaf_of(&self, parent_config: &[u32]) -> usize {
        debug_assert_eq!(parent_config.len(), self.parent_cards.len());
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                TreeNode::Leaf(_) => return at,
                TreeNode::SplitPerValue { slot, branches } => {
                    at = branches[parent_config[*slot] as usize];
                }
                TreeNode::SplitThreshold { slot, cut, lo, hi } => {
                    at = if parent_config[*slot] <= *cut { *lo } else { *hi };
                }
            }
        }
    }

    /// The arena index of the leaf every parent configuration reaches,
    /// indexed like a count table's rows (row-major over the parent slots,
    /// last slot fastest). Each node covers a box of configurations — an
    /// inclusive code range per slot — so this fills each leaf's box
    /// directly instead of walking the tree once per configuration.
    pub fn row_leaves(&self) -> Vec<usize> {
        let cards = &self.parent_cards;
        let mut leaves = vec![0usize; cards.iter().product()];
        let root_box: Vec<(u32, u32)> =
            cards.iter().map(|&c| (0, c as u32 - 1)).collect();
        let mut stack = vec![(0usize, root_box)];
        while let Some((at, bounds)) = stack.pop() {
            match &self.nodes[at] {
                TreeNode::Leaf(_) => fill_box(&mut leaves, cards, &bounds, at),
                TreeNode::SplitPerValue { slot, branches } => {
                    let (from, to) = bounds[*slot];
                    for code in from..=to {
                        let mut sub = bounds.clone();
                        sub[*slot] = (code, code);
                        stack.push((branches[code as usize], sub));
                    }
                }
                TreeNode::SplitThreshold { slot, cut, lo, hi } => {
                    let (from, to) = bounds[*slot];
                    if from <= *cut {
                        let mut sub = bounds.clone();
                        sub[*slot] = (from, to.min(*cut));
                        stack.push((*lo, sub));
                    }
                    if to > *cut {
                        let mut sub = bounds;
                        sub[*slot] = (from.max(cut + 1), to);
                        stack.push((*hi, sub));
                    }
                }
            }
        }
        leaves
    }

    /// Free parameters: `(child_card − 1)` per leaf.
    pub fn param_count(&self) -> usize {
        self.leaf_count() * (self.child_card - 1)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, TreeNode::Leaf(_))).count()
    }

    /// Bytes: 4 per free parameter, 4 per interior vertex (split variable +
    /// cut/branch table reference), 2 per scope variable.
    pub fn size_bytes(&self) -> usize {
        let interior = self.nodes.len() - self.leaf_count();
        4 * self.param_count() + 4 * interior + 2 * (1 + self.parent_cards.len())
    }

    /// Re-estimates the leaf distributions from fresh data, keeping the
    /// split structure fixed — the cheap incremental-maintenance path of
    /// the paper's §6 ("adapt the parameters of the PRM over time, keeping
    /// the structure fixed").
    ///
    /// `child_col` and each of `parent_cols` (aligned with the parent
    /// slots) must have equal length. Leaves that receive no rows fall
    /// back to uniform.
    pub fn refit(&self, child_col: &[u32], parent_cols: &[&[u32]]) -> TreeCpd {
        assert_eq!(parent_cols.len(), self.parent_cards.len());
        let mut counts: Vec<Vec<u64>> =
            vec![vec![0u64; self.child_card]; self.nodes.len()];
        let mut config = vec![0u32; self.parent_cards.len()];
        for (row, &child) in child_col.iter().enumerate() {
            for (slot, col) in config.iter_mut().zip(parent_cols) {
                *slot = col[row];
            }
            counts[self.leaf_of(&config)][child as usize] += 1;
        }
        self.with_leaf_counts(&counts)
    }

    /// [`refit`](Self::refit) from an already-aggregated joint count table
    /// `(parents…, child)` (child fastest-varying) instead of raw columns —
    /// the incremental-maintenance path, where sufficient statistics are
    /// kept live and rows are never rescanned. Because the per-leaf counts
    /// are accumulated as the same integers a row scan would produce, the
    /// result is bit-identical to `refit` on equivalent data.
    pub fn refit_from_counts(&self, counts: &reldb::CountTable) -> TreeCpd {
        assert_eq!(
            counts.cards.len(),
            self.parent_cards.len() + 1,
            "count table dims must be (parents…, child)"
        );
        assert_eq!(*counts.cards.last().unwrap(), self.child_card, "child card");
        assert_eq!(&counts.cards[..self.parent_cards.len()], &self.parent_cards[..]);
        let mut leaf_counts: Vec<Vec<u64>> =
            vec![vec![0u64; self.child_card]; self.nodes.len()];
        // The count table's rows are the parent configurations in
        // `row_leaves` order.
        for (cell, &at) in
            counts.counts.chunks_exact(self.child_card).zip(&self.row_leaves())
        {
            for (sum, &c) in leaf_counts[at].iter_mut().zip(cell) {
                *sum += c;
            }
        }
        self.with_leaf_counts(&leaf_counts)
    }

    /// This tree's splits with each leaf's distribution the relative
    /// frequencies of its child counts (`leaf_counts` by arena index);
    /// a leaf with no counts falls back to uniform.
    fn with_leaf_counts(&self, leaf_counts: &[Vec<u64>]) -> TreeCpd {
        let nodes = self
            .nodes
            .iter()
            .zip(leaf_counts)
            .map(|(n, counts)| match n {
                TreeNode::Leaf(_) => {
                    let total: u64 = counts.iter().sum();
                    let dist = if total == 0 {
                        vec![1.0 / self.child_card as f64; self.child_card]
                    } else {
                        counts.iter().map(|&c| c as f64 / total as f64).collect()
                    };
                    TreeNode::Leaf(dist)
                }
                other => other.clone(),
            })
            .collect();
        TreeCpd::new(self.child_card, self.parent_cards.clone(), nodes)
    }
}

/// Sets `leaves[row] = leaf` for every configuration `row` in the box
/// `bounds` (an inclusive code range per slot of `cards`, row-major with
/// the last slot fastest, so each run of last-slot codes is contiguous).
fn fill_box(leaves: &mut [usize], cards: &[usize], bounds: &[(u32, u32)], leaf: usize) {
    let Some((&(first, last), outer)) = bounds.split_last() else {
        leaves[0] = leaf;
        return;
    };
    let inner_card = cards[outer.len()];
    let mut config: Vec<u32> = outer.iter().map(|&(from, _)| from).collect();
    loop {
        let base =
            config.iter().zip(cards).fold(0, |row, (&c, &card)| row * card + c as usize);
        let base = base * inner_card;
        leaves[base + first as usize..=base + last as usize].fill(leaf);
        // Step the outer slots through the box, last slot fastest.
        let mut k = config.len();
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            if config[k] < outer[k].1 {
                config[k] += 1;
                break;
            }
            config[k] = outer[k].0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// P(child | P0, P1) where P0 is a 3-valued ordinal split at ≤1 and the
    /// low branch further splits per value of the binary P1.
    fn sample_tree() -> TreeCpd {
        TreeCpd::new(
            2,
            vec![3, 2],
            vec![
                TreeNode::SplitThreshold { slot: 0, cut: 1, lo: 1, hi: 2 },
                TreeNode::SplitPerValue { slot: 1, branches: vec![3, 4] },
                TreeNode::Leaf(vec![0.9, 0.1]),
                TreeNode::Leaf(vec![0.5, 0.5]),
                TreeNode::Leaf(vec![0.2, 0.8]),
            ],
        )
    }

    #[test]
    fn walks_to_the_right_leaf() {
        let t = sample_tree();
        assert_eq!(t.dist(&[2, 0]), &[0.9, 0.1]); // high branch, P1 ignored
        assert_eq!(t.dist(&[2, 1]), &[0.9, 0.1]);
        assert_eq!(t.dist(&[0, 0]), &[0.5, 0.5]);
        assert_eq!(t.dist(&[1, 1]), &[0.2, 0.8]);
    }

    #[test]
    fn row_leaves_match_a_walk_per_configuration() {
        // Slot 0 is split twice on one path (threshold, then per value),
        // so a leaf's box can be narrower than its parent split's.
        let nested = TreeCpd::new(
            2,
            vec![4, 3],
            vec![
                TreeNode::SplitThreshold { slot: 0, cut: 2, lo: 1, hi: 2 },
                TreeNode::SplitPerValue { slot: 0, branches: vec![3, 4, 5, 3] },
                TreeNode::SplitThreshold { slot: 1, cut: 0, lo: 6, hi: 3 },
                TreeNode::Leaf(vec![0.1, 0.9]),
                TreeNode::Leaf(vec![0.2, 0.8]),
                TreeNode::SplitThreshold { slot: 1, cut: 1, lo: 4, hi: 6 },
                TreeNode::Leaf(vec![0.3, 0.7]),
            ],
        );
        for t in [
            sample_tree(),
            nested,
            TreeCpd::leaf(3, vec![5, 2], vec![0.2, 0.3, 0.5]),
            TreeCpd::leaf(2, vec![], vec![0.5, 0.5]),
        ] {
            let cards = t.parent_cards().to_vec();
            let leaves = t.row_leaves();
            assert_eq!(leaves.len(), cards.iter().product::<usize>());
            let mut config = vec![0u32; cards.len()];
            for (row, &leaf) in leaves.iter().enumerate() {
                let mut rest = row;
                for (code, &card) in config.iter_mut().zip(&cards).rev() {
                    *code = (rest % card) as u32;
                    rest /= card;
                }
                assert_eq!(leaf, t.leaf_of(&config), "row {row} config {config:?}");
            }
        }
    }

    #[test]
    fn parameter_and_byte_accounting() {
        let t = sample_tree();
        assert_eq!(t.leaf_count(), 3);
        assert_eq!(t.param_count(), 3); // (2−1) per leaf
        assert_eq!(t.size_bytes(), 4 * 3 + 4 * 2 + 2 * 3);
    }

    #[test]
    fn leaf_tree_ignores_parents() {
        let t = TreeCpd::leaf(3, vec![5, 5], vec![0.2, 0.3, 0.5]);
        assert_eq!(t.dist(&[4, 0]), &[0.2, 0.3, 0.5]);
        assert_eq!(t.param_count(), 2);
    }

    #[test]
    #[should_panic(expected = "bad branch count")]
    fn malformed_split_rejected() {
        TreeCpd::new(
            2,
            vec![3],
            vec![
                TreeNode::SplitPerValue { slot: 0, branches: vec![1, 2] },
                TreeNode::Leaf(vec![0.5, 0.5]),
                TreeNode::Leaf(vec![0.5, 0.5]),
            ],
        );
    }

    #[test]
    fn refit_reestimates_leaves_with_fixed_structure() {
        let t = sample_tree();
        // Data where high-branch rows (P0 = 2) are all child = 1.
        let p0: Vec<u32> = vec![2, 2, 2, 2, 0, 0, 1, 1];
        let p1: Vec<u32> = vec![0, 1, 0, 1, 0, 0, 1, 1];
        let child: Vec<u32> = vec![1, 1, 1, 1, 0, 1, 0, 0];
        let refit = t.refit(&child, &[&p0, &p1]);
        // Structure unchanged.
        assert_eq!(refit.leaf_count(), t.leaf_count());
        assert_eq!(refit.parent_cards(), t.parent_cards());
        // High branch is now deterministic child=1.
        assert_eq!(refit.dist(&[2, 0]), &[0.0, 1.0]);
        // Low branch, P1=0 saw children {0,1} equally.
        assert_eq!(refit.dist(&[0, 0]), &[0.5, 0.5]);
        // Low branch, P1=1 saw only child 0.
        assert_eq!(refit.dist(&[1, 1]), &[1.0, 0.0]);
    }

    #[test]
    fn refit_with_no_rows_is_uniform() {
        let t = sample_tree();
        let refit = t.refit(&[], &[&[], &[]]);
        assert_eq!(refit.dist(&[2, 0]), &[0.5, 0.5]);
    }

    #[test]
    fn refit_from_counts_matches_refit_bitwise() {
        let t = sample_tree();
        let p0: Vec<u32> = vec![2, 2, 2, 2, 0, 0, 1, 1, 0, 2];
        let p1: Vec<u32> = vec![0, 1, 0, 1, 0, 0, 1, 1, 1, 0];
        let child: Vec<u32> = vec![1, 1, 1, 1, 0, 1, 0, 0, 1, 0];
        // Aggregate the rows into a (P0, P1, child) joint count table,
        // child fastest-varying.
        let cards = vec![3usize, 2, 2];
        let mut counts = vec![0u64; cards.iter().product()];
        for i in 0..child.len() {
            let idx = ((p0[i] as usize * 2) + p1[i] as usize) * 2 + child[i] as usize;
            counts[idx] += 1;
        }
        let table = reldb::CountTable { cards, counts };
        let from_rows = t.refit(&child, &[&p0, &p1]);
        let from_counts = t.refit_from_counts(&table);
        for cfg in [[0u32, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]] {
            let a = from_rows.dist(&cfg);
            let b = from_counts.dist(&cfg);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "cfg {cfg:?}");
            }
        }
        // Empty counts fall back to uniform, like an empty row scan.
        let empty = reldb::CountTable { cards: vec![3, 2, 2], counts: vec![0; 12] };
        assert_eq!(t.refit_from_counts(&empty).dist(&[2, 0]), &[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "degenerate threshold")]
    fn degenerate_threshold_rejected() {
        TreeCpd::new(
            2,
            vec![2],
            vec![
                TreeNode::SplitThreshold { slot: 0, cut: 1, lo: 1, hi: 2 },
                TreeNode::Leaf(vec![0.5, 0.5]),
                TreeNode::Leaf(vec![0.5, 0.5]),
            ],
        );
    }
}
