//! Conditional probability distributions (CPDs).
//!
//! The paper evaluates two CPD representations (§2.2, Fig. 2): full
//! **tables** and **trees** whose interior vertices split on parent values
//! and whose leaves hold distributions over the child. Trees share
//! parameters across parent contexts that induce the same path, which is
//! why they dominate tables at equal storage in Fig. 5.

pub mod table;
pub mod tree;

pub use table::TableCpd;
pub use tree::{TreeCpd, TreeNode};

use crate::factor::Factor;

/// Which CPD representation the learner should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpdKind {
    /// Full conditional probability tables.
    Table,
    /// Decision-tree CPDs (paper Fig. 2(b)).
    Tree,
}

/// A learned CPD for one variable.
#[derive(Debug, Clone, PartialEq)]
pub enum Cpd {
    /// Table representation.
    Table(TableCpd),
    /// Tree representation.
    Tree(TreeCpd),
}

impl Cpd {
    /// Cardinality of the child variable.
    pub fn child_card(&self) -> usize {
        match self {
            Cpd::Table(t) => t.child_card(),
            Cpd::Tree(t) => t.child_card(),
        }
    }

    /// Cardinalities of the parents, in slot order.
    pub fn parent_cards(&self) -> &[usize] {
        match self {
            Cpd::Table(t) => t.parent_cards(),
            Cpd::Tree(t) => t.parent_cards(),
        }
    }

    /// The child distribution for one parent configuration (codes in slot
    /// order).
    pub fn dist(&self, parent_config: &[u32]) -> &[f64] {
        match self {
            Cpd::Table(t) => t.dist(parent_config),
            Cpd::Tree(t) => t.dist(parent_config),
        }
    }

    /// Number of free parameters.
    pub fn param_count(&self) -> usize {
        match self {
            Cpd::Table(t) => t.param_count(),
            Cpd::Tree(t) => t.param_count(),
        }
    }

    /// Storage cost in bytes (see DESIGN.md §5 for the accounting).
    pub fn size_bytes(&self) -> usize {
        match self {
            Cpd::Table(t) => t.size_bytes(),
            Cpd::Tree(t) => t.size_bytes(),
        }
    }

    /// Materializes the CPD as a factor over *slot-local* variable ids
    /// `0..=parents.len()`: axis `i` is parent slot `i`, the last axis is
    /// the child. The data layout is exactly the concatenation of `dist`
    /// rows in parent-config row-major order, so materialization is one
    /// sequential pass (a tree CPD copies each configuration's leaf from
    /// [`TreeCpd::row_leaves`] instead of walking the tree per
    /// configuration). This is the canonical shape the per-model factor cache
    /// stores; [`Factor::relabeled`] instantiates it over the variable ids
    /// of a concrete query-evaluation network.
    pub fn to_local_factor(&self) -> Factor {
        let data = match self {
            Cpd::Table(t) => t.probs().to_vec(),
            Cpd::Tree(t) => {
                let leaves = t.row_leaves();
                let mut data = Vec::with_capacity(leaves.len() * t.child_card());
                for &leaf in &leaves {
                    match &t.nodes()[leaf] {
                        TreeNode::Leaf(dist) => data.extend_from_slice(dist),
                        _ => unreachable!("row_leaves names leaves"),
                    }
                }
                data
            }
        };
        let pcards = self.parent_cards();
        let vars: Vec<usize> = (0..=pcards.len()).collect();
        let mut cards = pcards.to_vec();
        cards.push(self.child_card());
        Factor::new(vars, cards, data)
    }

    /// Expands the CPD into a factor `P(child | parents)` over the given
    /// variable ids (`parent_vars` aligned with the CPD's parent slots).
    pub fn to_factor(&self, child_var: usize, parent_vars: &[usize]) -> Factor {
        assert_eq!(parent_vars.len(), self.parent_cards().len());
        let mut ids = parent_vars.to_vec();
        ids.push(child_var);
        self.to_local_factor().relabeled(&ids)
    }
}

impl From<TableCpd> for Cpd {
    fn from(t: TableCpd) -> Self {
        Cpd::Table(t)
    }
}

impl From<TreeCpd> for Cpd {
    fn from(t: TreeCpd) -> Self {
        Cpd::Tree(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_factor_orders_scope_canonically() {
        // P(X2 | X5, X0): parents slots [X5, X0].
        let cpd: Cpd = TableCpd::new(
            2,
            vec![2, 2],
            // Parent configs row-major over (X5, X0): (0,0),(0,1),(1,0),(1,1)
            vec![0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6],
        )
        .into();
        let f = cpd.to_factor(2, &[5, 0]);
        assert_eq!(f.vars(), &[0, 2, 5]);
        // (x0=1, x2=0, x5=0) → parent config (x5=0, x0=1) → 0.2.
        assert!((f.value_at(&[1, 0, 0]) - 0.2).abs() < 1e-12);
        // (x0=0, x2=1, x5=1) → parent config (1,0) → 0.7.
        assert!((f.value_at(&[0, 1, 1]) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn local_factor_lays_out_dist_rows_in_slot_order() {
        let cpd: Cpd =
            TableCpd::new(2, vec![2, 2], vec![0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6])
                .into();
        let f = cpd.to_local_factor();
        assert_eq!(f.vars(), &[0, 1, 2]);
        assert_eq!(f.cards(), &[2, 2, 2]);
        // Entries are the dist rows verbatim, parent configs row-major.
        assert_eq!(f.data(), &[0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6]);
        // And to_factor is the relabeled local factor.
        let g = cpd.to_factor(2, &[0, 1]);
        assert_eq!(g.data(), f.data());
    }

    #[test]
    fn factor_rows_sum_to_one_per_parent_config() {
        let cpd: Cpd =
            TableCpd::new(3, vec![2], vec![0.2, 0.3, 0.5, 0.6, 0.3, 0.1]).into();
        let f = cpd.to_factor(1, &[0]);
        // Summing out the child leaves all-ones over the parent.
        let m = f.sum_out(1);
        assert!((m.value_at(&[0]) - 1.0).abs() < 1e-12);
        assert!((m.value_at(&[1]) - 1.0).abs() < 1e-12);
    }
}
