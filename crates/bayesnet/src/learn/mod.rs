//! Per-family learning primitives (paper §4).
//!
//! * [`score`] — the log-likelihood score in its mutual-information form
//!   (paper Eq. 3/5) plus the MDL penalty.
//! * [`treecpd`] — greedy induction of tree CPDs.
//!
//! The structure search that combines them — one budgeted hill-climb
//! over every table of a database — lives in `prmsel::learn`.

pub mod score;
pub mod treecpd;
