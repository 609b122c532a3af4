//! Full-table CPDs.

use reldb::CountTable;

/// A conditional probability table `P(child | parents)`.
///
/// Layout: for each parent configuration (row-major over the parent slots),
/// a distribution of `child_card` probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct TableCpd {
    child_card: usize,
    parent_cards: Vec<usize>,
    probs: Vec<f64>,
}

impl TableCpd {
    /// Creates a table CPD from explicit probabilities.
    /// `probs.len()` must be `child_card · Π parent_cards`.
    pub fn new(child_card: usize, parent_cards: Vec<usize>, probs: Vec<f64>) -> Self {
        let rows: usize = parent_cards.iter().product::<usize>().max(1);
        assert_eq!(probs.len(), rows * child_card, "probability table has wrong size");
        TableCpd { child_card, parent_cards, probs }
    }

    /// Maximum-likelihood CPD from a count table whose **last** column is
    /// the child and whose preceding columns are the parents (paper
    /// Eq. 4: each row is the relative frequency within its parent
    /// population). Parent configurations with zero count get a uniform
    /// distribution.
    pub fn from_counts(counts: &CountTable) -> Self {
        Self::from_counts_with_alpha(counts, 0.0)
    }

    /// Like [`TableCpd::from_counts`] but with Laplace (add-α) smoothing:
    /// `P(x | pa) = (N(x,pa) + α) / (N(pa) + α·|dom(X)|)`. α = 0 recovers
    /// the paper's pure MLE; a small α > 0 avoids hard zeros for
    /// plausible-but-unseen combinations.
    pub fn from_counts_with_alpha(counts: &CountTable, alpha: f64) -> Self {
        let n_cols = counts.cards.len();
        assert!(n_cols >= 1, "count table must include the child column");
        let child_card = counts.cards[n_cols - 1];
        let parent_cards: Vec<usize> = counts.cards[..n_cols - 1].to_vec();
        let rows: usize = parent_cards.iter().product::<usize>().max(1);
        let mut probs = vec![0.0; rows * child_card];
        // The dense count layout already has the child as the fastest-
        // varying column, matching our layout exactly.
        for (row, chunk) in counts.counts.chunks(child_card).enumerate() {
            let total: u64 = chunk.iter().sum();
            let out = &mut probs[row * child_card..(row + 1) * child_card];
            let denom = total as f64 + alpha * child_card as f64;
            if denom == 0.0 {
                out.fill(1.0 / child_card as f64);
            } else {
                for (o, &n) in out.iter_mut().zip(chunk) {
                    *o = (n as f64 + alpha) / denom;
                }
            }
        }
        TableCpd { child_card, parent_cards, probs }
    }

    /// Cardinality of the child.
    pub fn child_card(&self) -> usize {
        self.child_card
    }

    /// Parent cardinalities in slot order.
    pub fn parent_cards(&self) -> &[usize] {
        &self.parent_cards
    }

    /// Every parent configuration's distribution, concatenated in
    /// row-major configuration order (the layout [`TableCpd::new`] takes).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// The child distribution for a parent configuration.
    pub fn dist(&self, parent_config: &[u32]) -> &[f64] {
        debug_assert_eq!(parent_config.len(), self.parent_cards.len());
        let mut row = 0usize;
        for (&c, &card) in parent_config.iter().zip(&self.parent_cards) {
            row = row * card + c as usize;
        }
        &self.probs[row * self.child_card..(row + 1) * self.child_card]
    }

    /// Free parameters: `(child_card − 1)` per parent configuration.
    pub fn param_count(&self) -> usize {
        let rows: usize = self.parent_cards.iter().product::<usize>().max(1);
        rows * (self.child_card - 1)
    }

    /// Bytes: 4 per free parameter + 2 per variable of structure overhead.
    pub fn size_bytes(&self) -> usize {
        4 * self.param_count() + 2 * (1 + self.parent_cards.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_normalizes_each_parent_row() {
        // Parent card 2, child card 2; counts layout (pa, child).
        let counts = CountTable { cards: vec![2, 2], counts: vec![3, 1, 0, 4] };
        let cpd = TableCpd::from_counts(&counts);
        assert_eq!(cpd.dist(&[0]), &[0.75, 0.25]);
        assert_eq!(cpd.dist(&[1]), &[0.0, 1.0]);
    }

    #[test]
    fn laplace_smoothing_lifts_zeros() {
        let counts = CountTable { cards: vec![2], counts: vec![9, 0] };
        let mle = TableCpd::from_counts(&counts);
        assert_eq!(mle.dist(&[])[1], 0.0);
        let smooth = TableCpd::from_counts_with_alpha(&counts, 0.5);
        assert!((smooth.dist(&[])[1] - 0.05).abs() < 1e-12);
        assert!((smooth.dist(&[])[0] + smooth.dist(&[])[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_count_rows_become_uniform() {
        let counts = CountTable { cards: vec![2, 2], counts: vec![0, 0, 2, 2] };
        let cpd = TableCpd::from_counts(&counts);
        assert_eq!(cpd.dist(&[0]), &[0.5, 0.5]);
    }

    #[test]
    fn no_parent_cpd_is_a_marginal() {
        let counts = CountTable { cards: vec![4], counts: vec![1, 1, 1, 1] };
        let cpd = TableCpd::from_counts(&counts);
        assert_eq!(cpd.dist(&[]), &[0.25, 0.25, 0.25, 0.25]);
        assert_eq!(cpd.param_count(), 3);
    }

    #[test]
    fn param_and_byte_accounting() {
        let cpd = TableCpd::new(3, vec![4, 2], vec![1.0 / 3.0; 24]);
        assert_eq!(cpd.param_count(), 8 * 2);
        assert_eq!(cpd.size_bytes(), 4 * 16 + 2 * 3);
    }

    #[test]
    fn dist_indexes_row_major_over_parents() {
        let mut probs = vec![0.0; 2 * 2 * 2];
        // Mark each row with a distinct first entry.
        for row in 0..4 {
            probs[row * 2] = row as f64 / 10.0;
            probs[row * 2 + 1] = 1.0 - row as f64 / 10.0;
        }
        let cpd = TableCpd::new(2, vec![2, 2], probs);
        assert_eq!(cpd.dist(&[1, 0])[0], 0.2);
        assert_eq!(cpd.dist(&[0, 1])[0], 0.1);
    }
}
