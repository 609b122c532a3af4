//! Dense factors over discrete variables.
//!
//! A factor is a non-negative function over the joint assignments of a set
//! of variables, stored densely in row-major order with variables kept in
//! strictly increasing id order (canonical form, which makes products and
//! marginalizations simple stride walks). Each factor also carries its
//! scope as a [`VarSet`] bitset so membership tests in the elimination
//! loops are word ops, and the arithmetic loop bodies live in free
//! `*_into` kernels writing into caller-provided buffers — the methods
//! call them with all-[`DENSE`] masks, the compiled plan replay calls the
//! same kernels against arena memory with the masks a query's predicates
//! pin, which is what makes the warm path bit-identical to these methods
//! by construction.

use crate::varset::VarSet;

/// A dense factor φ(vars).
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    vars: Vec<usize>,
    cards: Vec<usize>,
    data: Vec<f64>,
    scope: VarSet,
}

impl Factor {
    /// Creates a factor; `vars` must be strictly increasing and `data` must
    /// have length `Π cards`.
    pub fn new(vars: Vec<usize>, cards: Vec<usize>, data: Vec<f64>) -> Self {
        assert_eq!(vars.len(), cards.len(), "vars/cards length mismatch");
        assert!(vars.windows(2).all(|w| w[0] < w[1]), "vars must be strictly increasing");
        let expect: usize = cards.iter().product::<usize>().max(1);
        assert_eq!(data.len(), expect, "data length must be the product of cards");
        Factor::assemble(vars, cards, data)
    }

    /// Internal constructor for scopes already known to be canonical.
    fn assemble(vars: Vec<usize>, cards: Vec<usize>, data: Vec<f64>) -> Self {
        let scope = VarSet::from_vars(&vars);
        Factor { vars, cards, data, scope }
    }

    /// The constant factor with value `v` (empty scope).
    pub fn scalar(v: f64) -> Self {
        Factor::assemble(vec![], vec![], vec![v])
    }

    /// Uniform factor of 1s over the given scope.
    pub fn ones(vars: Vec<usize>, cards: Vec<usize>) -> Self {
        let len = cards.iter().product::<usize>().max(1);
        Factor::new(vars, cards, vec![1.0; len])
    }

    /// Scope of the factor (variable ids, strictly increasing).
    pub fn vars(&self) -> &[usize] {
        &self.vars
    }

    /// Scope as a bitset.
    pub fn scope(&self) -> &VarSet {
        &self.scope
    }

    /// True if `var` is in the scope (bitset test, no scan).
    #[inline]
    pub fn contains_var(&self, var: usize) -> bool {
        self.scope.contains(var)
    }

    /// Cardinalities aligned with [`Factor::vars`].
    pub fn cards(&self) -> &[usize] {
        &self.cards
    }

    /// Raw table, row-major over `vars`.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the scope is empty (a scalar).
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// The scalar value; panics if the scope is non-empty.
    pub fn scalar_value(&self) -> f64 {
        assert!(self.vars.is_empty(), "factor has non-empty scope");
        self.data[0]
    }

    /// Sum of all entries.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Value at a full assignment (one code per scope variable, in scope
    /// order).
    pub fn value_at(&self, assignment: &[u32]) -> f64 {
        debug_assert_eq!(assignment.len(), self.vars.len());
        let mut idx = 0usize;
        for (&a, &card) in assignment.iter().zip(&self.cards) {
            debug_assert!((a as usize) < card);
            idx = idx * card + a as usize;
        }
        self.data[idx]
    }

    /// Pointwise product ψ = φ₁ · φ₂ over the union of scopes.
    ///
    /// The innermost (last, stride-1 in the result) variable is handled by
    /// a tight strided loop instead of the per-entry odometer, so the
    /// odometer only steps once per `len / card(last)` entries.
    pub fn product(&self, other: &Factor) -> Factor {
        let (vars, cards) = union_scope(self, other);
        // Strides of each result variable within each operand (0 if absent).
        let stride_a = strides_in(&self.vars, &self.cards, &vars);
        let stride_b = strides_in(&other.vars, &other.cards, &vars);
        let len: usize = cards.iter().product::<usize>().max(1);
        let mut data = vec![0.0; len];
        product_into(
            &self.data,
            &other.data,
            &cards,
            &stride_a,
            &stride_b,
            &vec![DENSE; vars.len()],
            &[],
            &mut vec![0usize; 2 * vars.len()],
            &mut data,
        );
        Factor::assemble(vars, cards, data)
    }

    /// Fused `φ₁ · φ₂` followed by summing out `var`: computes
    /// `ψ(U∖var) = Σ_var φ₁ · φ₂` without materializing the product.
    ///
    /// Bit-identical to `self.product(other).sum_out(var)`: every product
    /// term is the same multiplication, and each output cell accumulates
    /// its terms in ascending `var` order — exactly the addition sequence
    /// of the unfused pair.
    pub fn product_sum_out(&self, other: &Factor, var: usize) -> Factor {
        let (uvars, ucards) = union_scope(self, other);
        let Some(pos) = uvars.iter().position(|&v| v == var) else {
            // `var` absent from both scopes: sum_out would be the identity.
            return self.product(other);
        };
        let stride_a = strides_in(&self.vars, &self.cards, &uvars);
        let stride_b = strides_in(&other.vars, &other.cards, &uvars);
        let card_v = ucards[pos];
        let (sav, sbv) = (stride_a[pos], stride_b[pos]);
        let mut vars = uvars;
        let mut cards = ucards;
        vars.remove(pos);
        cards.remove(pos);
        let mut rstride_a = stride_a;
        let mut rstride_b = stride_b;
        rstride_a.remove(pos);
        rstride_b.remove(pos);
        let len: usize = cards.iter().product::<usize>().max(1);
        let mut data = vec![0.0; len];
        product_sum_out_into(
            &self.data,
            &other.data,
            &cards,
            &rstride_a,
            &rstride_b,
            &vec![DENSE; vars.len()],
            &[],
            card_v,
            sav,
            sbv,
            DENSE,
            &mut vec![0usize; 2 * vars.len()],
            &mut data,
        );
        Factor::assemble(vars, cards, data)
    }

    /// Renames axis `i` to `new_vars[i]` and reorders axes so the scope is
    /// strictly increasing again. A pure data permutation: entries are
    /// copied bit-for-bit, no arithmetic.
    ///
    /// This is how a canonical (slot-ordered) cached factor is instantiated
    /// over the variable ids of a concrete query-evaluation network.
    pub fn relabeled(&self, new_vars: &[usize]) -> Factor {
        assert_eq!(new_vars.len(), self.vars.len(), "relabel arity mismatch");
        let mut order: Vec<usize> = (0..new_vars.len()).collect();
        order.sort_by_key(|&i| new_vars[i]);
        let vars: Vec<usize> = order.iter().map(|&i| new_vars[i]).collect();
        assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "relabeled variable ids must be distinct"
        );
        let cards: Vec<usize> = order.iter().map(|&i| self.cards[i]).collect();
        if order.iter().enumerate().all(|(k, &i)| k == i) {
            return Factor::assemble(vars, cards, self.data.clone());
        }
        // Row-major strides of each source axis, then reordered to follow
        // the output's axis order.
        let mut src_stride = vec![0usize; self.vars.len()];
        let mut s = 1usize;
        for i in (0..self.vars.len()).rev() {
            src_stride[i] = s;
            s *= self.cards[i];
        }
        let stride: Vec<usize> = order.iter().map(|&i| src_stride[i]).collect();
        let mut data = vec![0.0; self.data.len()];
        let outer = vars.len() - 1;
        let inner = cards[outer];
        let sl = stride[outer];
        let mut assign = vec![0usize; outer];
        let mut src = 0usize;
        for block in data.chunks_exact_mut(inner) {
            let mut o = src;
            for slot in block.iter_mut() {
                *slot = self.data[o];
                o += sl;
            }
            for k in (0..outer).rev() {
                assign[k] += 1;
                src += stride[k];
                if assign[k] < cards[k] {
                    break;
                }
                assign[k] = 0;
                src -= stride[k] * cards[k];
            }
        }
        Factor::assemble(vars, cards, data)
    }

    /// Marginalizes (sums) out one variable.
    pub fn sum_out(&self, var: usize) -> Factor {
        let Some(pos) = self.vars.iter().position(|&v| v == var) else {
            return self.clone();
        };
        let mut vars = self.vars.clone();
        let mut cards = self.cards.clone();
        let mut stride = strides_in(&self.vars, &self.cards, &self.vars);
        vars.remove(pos);
        let card = cards.remove(pos);
        let sv = stride.remove(pos);
        let len: usize = cards.iter().product::<usize>().max(1);
        let mut data = vec![0.0; len];
        sum_out_into(
            &self.data,
            &cards,
            &stride,
            &vec![DENSE; vars.len()],
            &[],
            card,
            sv,
            DENSE,
            &mut vec![0usize; 2 * vars.len()],
            &mut data,
        );
        Factor::assemble(vars, cards, data)
    }

    /// Zeroes out all entries whose value for `var` is not allowed.
    /// `allowed` is indexed by the variable's codes.
    pub fn reduce(&self, var: usize, allowed: &[bool]) -> Factor {
        let Some(pos) = self.vars.iter().position(|&v| v == var) else {
            return self.clone();
        };
        assert_eq!(allowed.len(), self.cards[pos], "allowed mask has wrong length");
        let inner: usize = self.cards[pos + 1..].iter().product::<usize>().max(1);
        let card = self.cards[pos];
        let mut data = self.data.clone();
        reduce_in_place(&mut data, card, inner, allowed);
        Factor::assemble(self.vars.clone(), self.cards.clone(), data)
    }

    /// Pointwise division `φ / ψ` where ψ's scope must be a subset of φ's.
    /// Division by zero yields zero (the standard convention in clique-tree
    /// calibration, where a zero divisor always divides a zero dividend).
    pub fn divide(&self, other: &Factor) -> Factor {
        assert!(
            other.vars.iter().all(|v| self.vars.contains(v)),
            "divisor scope must be contained in dividend scope"
        );
        let stride_b = strides_in(&other.vars, &other.cards, &self.vars);
        let mut data = vec![0.0; self.data.len()];
        let mut assign = vec![0usize; self.vars.len()];
        let mut ib = 0usize;
        for (i, slot) in data.iter_mut().enumerate() {
            let d = other.data[ib];
            *slot = if d == 0.0 { 0.0 } else { self.data[i] / d };
            for k in (0..self.vars.len()).rev() {
                assign[k] += 1;
                ib += stride_b[k];
                if assign[k] < self.cards[k] {
                    break;
                }
                assign[k] = 0;
                ib -= stride_b[k] * self.cards[k];
            }
        }
        Factor::assemble(self.vars.clone(), self.cards.clone(), data)
    }

    /// Scales all entries so they sum to one. No-op for an all-zero factor.
    pub fn normalize(&mut self) {
        let t = self.total();
        if t > 0.0 {
            for v in &mut self.data {
                *v /= t;
            }
        }
    }
}

/// Merged scope of two factors: sorted union of vars with their cards.
pub fn union_scope(a: &Factor, b: &Factor) -> (Vec<usize>, Vec<usize>) {
    let mut vars = Vec::with_capacity(a.vars.len() + b.vars.len());
    let mut cards = Vec::with_capacity(a.vars.len() + b.vars.len());
    let (mut i, mut j) = (0, 0);
    while i < a.vars.len() || j < b.vars.len() {
        let take_a = j >= b.vars.len() || (i < a.vars.len() && a.vars[i] <= b.vars[j]);
        if take_a {
            if j < b.vars.len() && a.vars[i] == b.vars[j] {
                debug_assert_eq!(a.cards[i], b.cards[j], "cardinality mismatch");
                j += 1;
            }
            vars.push(a.vars[i]);
            cards.push(a.cards[i]);
            i += 1;
        } else {
            vars.push(b.vars[j]);
            cards.push(b.cards[j]);
            j += 1;
        }
    }
    (vars, cards)
}

/// For each variable in `result_vars`, its row-major stride within a factor
/// whose scope is `vars`/`cards` (0 if the variable is absent).
pub fn strides_in(vars: &[usize], cards: &[usize], result_vars: &[usize]) -> Vec<usize> {
    // Row-major: last variable has stride 1.
    let mut stride = vec![0usize; vars.len()];
    let mut s = 1usize;
    for i in (0..vars.len()).rev() {
        stride[i] = s;
        s *= cards[i];
    }
    result_vars
        .iter()
        .map(|rv| vars.iter().position(|v| v == rv).map_or(0, |p| stride[p]))
        .collect()
}

// ---------------------------------------------------------------------------
// Allocation-free kernels.
//
// These free functions hold the single implementation of each factor
// operation's arithmetic loop. Every kernel takes one mask per result
// axis: `masks[k]` is either [`DENSE`] (walk all of `0..cards[k]`) or the
// offset of axis `k`'s ascending allowed-code list in the shared `codes`
// buffer (layout `[len, code_0, code_1, …]`). The `Factor` methods above
// allocate fresh buffers and pass all-`DENSE` masks; the compiled plan
// replay in `prmsel::plan` calls the same kernels with precomputed strides
// against arena memory, masking the axes a query's predicates pin. Both
// paths execute the identical loop bodies — same multiply order, same
// ascending-`var` accumulation — so warm replay is bit-identical to the
// method path by construction.
//
// A masked kernel computes the same result as reduce-then-unmasked — zero
// the disallowed runs of each operand, then run the kernel with all-`DENSE`
// masks — but never touches a disallowed index: the outer axes advance
// through their allowed runs only, so per-cell cost tracks the number of
// *allowed* codes (1 for an equality predicate), not the domain size.
// Bit-identity holds because factor entries are non-negative finite
// probabilities: a disallowed (zeroed) code contributes exactly
// `0.0 × x = +0.0` to a product cell and `acc + 0.0` (bit-preserving on a
// non-negative accumulator) to a sum — so skipping it changes nothing, and
// `fill(0.0)` writes the same `+0.0` the unmasked kernel would have
// computed for every fully-disallowed cell.
//
// Each kernel walks the outer result axes with one allowed-cell odometer
// and handles the innermost axis as a row. When that axis is `DENSE` and
// the operands are contiguous along it, the row is a stride-1 loop the
// compiler vectorizes — the only unmasked-specific code, chosen from the
// masks and strides.
// ---------------------------------------------------------------------------

/// Sentinel in a `masks` slot: the axis is unmasked (iterate all codes).
pub const DENSE: usize = usize::MAX;

/// Allowed-code list for the mask region starting at `off` in the shared
/// `codes` buffer: layout is `[len, code_0, code_1, …]`, codes ascending.
#[inline]
fn code_list(codes: &[usize], off: usize) -> &[usize] {
    &codes[off + 1..off + 1 + codes[off]]
}

/// Calls `f(c)` for every code of an axis of cardinality `card` that
/// `mask` allows, ascending: all of `0..card` for [`DENSE`].
#[inline]
fn for_each_code(card: usize, mask: usize, codes: &[usize], mut f: impl FnMut(usize)) {
    if mask == DENSE {
        (0..card).for_each(f);
    } else {
        code_list(codes, mask).iter().for_each(|&c| f(c));
    }
}

/// Row-major output strides of the result scope, written into `ostride`.
#[inline]
fn out_strides(cards: &[usize], ostride: &mut [usize]) {
    let mut s = 1usize;
    for k in (0..cards.len()).rev() {
        ostride[k] = s;
        s *= cards[k];
    }
}

/// Resets the odometer to the first allowed cell: zeroes `pos` and returns
/// `Some((ia, ib, io))` initial operand/output offsets, or `None` when some
/// mask allows no code at all (the output stays all-zero).
#[inline]
fn first_allowed(
    cards: &[usize],
    stride_a: &[usize],
    stride_b: &[usize],
    ostride: &[usize],
    masks: &[usize],
    codes: &[usize],
    pos: &mut [usize],
) -> Option<(usize, usize, usize)> {
    let (mut ia, mut ib, mut io) = (0usize, 0usize, 0usize);
    for k in 0..cards.len() {
        pos[k] = 0;
        if masks[k] != DENSE {
            let list = code_list(codes, masks[k]);
            let &first = list.first()?;
            ia += first * stride_a[k];
            ib += first * stride_b[k];
            io += first * ostride[k];
        }
    }
    Some((ia, ib, io))
}

/// Advances the allowed-cell odometer by one position. Returns `false` when
/// the walk is complete. `pos[k]` indexes the allowed-code list for masked
/// axes and the raw code for dense axes; offsets move by
/// `(next_code - current_code) · stride`, so disallowed runs are skipped in
/// one step.
#[inline]
#[allow(clippy::too_many_arguments)]
fn advance_allowed(
    cards: &[usize],
    stride_a: &[usize],
    stride_b: &[usize],
    ostride: &[usize],
    masks: &[usize],
    codes: &[usize],
    pos: &mut [usize],
    ia: &mut usize,
    ib: &mut usize,
    io: &mut usize,
) -> bool {
    for k in (0..cards.len()).rev() {
        if masks[k] == DENSE {
            pos[k] += 1;
            *ia += stride_a[k];
            *ib += stride_b[k];
            *io += ostride[k];
            if pos[k] < cards[k] {
                return true;
            }
            pos[k] = 0;
            *ia -= stride_a[k] * cards[k];
            *ib -= stride_b[k] * cards[k];
            *io -= ostride[k] * cards[k];
        } else {
            let list = code_list(codes, masks[k]);
            let cur = list[pos[k]];
            pos[k] += 1;
            if pos[k] < list.len() {
                let d = list[pos[k]] - cur;
                *ia += d * stride_a[k];
                *ib += d * stride_b[k];
                *io += d * ostride[k];
                return true;
            }
            pos[k] = 0;
            let d = cur - list[0];
            *ia -= d * stride_a[k];
            *ib -= d * stride_b[k];
            *io -= d * ostride[k];
        }
    }
    false
}

/// Calls `row(ia, ib, io)` once per allowed cell of the outer result axes
/// (all but the innermost, which `cards` must have), passing the operand
/// and output offsets of that row's code-0 cell. `assign` is scratch of
/// length ≥ `2 · cards.len()`.
#[inline]
fn for_each_row(
    cards: &[usize],
    stride_a: &[usize],
    stride_b: &[usize],
    masks: &[usize],
    codes: &[usize],
    assign: &mut [usize],
    mut row: impl FnMut(usize, usize, usize),
) {
    let n = cards.len();
    let (pos, ostride) = assign[..2 * n].split_at_mut(n);
    out_strides(cards, ostride);
    let k = n - 1;
    let (cards, stride_a, stride_b) = (&cards[..k], &stride_a[..k], &stride_b[..k]);
    let (ostride, masks, pos) = (&ostride[..k], &masks[..k], &mut pos[..k]);
    let Some((mut ia, mut ib, mut io)) =
        first_allowed(cards, stride_a, stride_b, ostride, masks, codes, pos)
    else {
        return;
    };
    loop {
        row(ia, ib, io);
        if !advance_allowed(
            cards, stride_a, stride_b, ostride, masks, codes, pos, &mut ia, &mut ib,
            &mut io,
        ) {
            return;
        }
    }
}

/// `out[·] = a[·] * b[·]` at every result cell allowed by `masks`; every
/// other cell is zero. `cards` describes the result scope, `stride_a` /
/// `stride_b` each result variable's stride in an operand (0 where it is
/// absent). `assign` is scratch of length ≥ `2 · cards.len()`; `out` must
/// have length `Π cards (min 1)`.
#[allow(clippy::too_many_arguments)]
pub fn product_into(
    a: &[f64],
    b: &[f64],
    cards: &[usize],
    stride_a: &[usize],
    stride_b: &[usize],
    masks: &[usize],
    codes: &[usize],
    assign: &mut [usize],
    out: &mut [f64],
) {
    let Some(last) = cards.len().checked_sub(1) else {
        out[0] = a[0] * b[0];
        return;
    };
    if masks.iter().any(|&m| m != DENSE) {
        out.fill(0.0);
    }
    let (inner, sa, sb, lane) =
        (cards[last], stride_a[last], stride_b[last], masks[last]);
    for_each_row(cards, stride_a, stride_b, masks, codes, assign, |ia, ib, io| {
        let row = &mut out[io..io + inner];
        if lane == DENSE && sa == 1 && sb == 1 {
            // Both operands contiguous over the innermost variable.
            let av = &a[ia..ia + inner];
            let bv = &b[ib..ib + inner];
            for (slot, (&x, &y)) in row.iter_mut().zip(av.iter().zip(bv)) {
                *slot = x * y;
            }
        } else {
            for_each_code(inner, lane, codes, |c| {
                row[c] = a[ia + c * sa] * b[ib + c * sb]
            });
        }
    });
}

/// Fused product-then-sum-out: `out = Σ_v a · b` over the summed
/// variable's allowed codes (all of `0..card_v` when `v_mask` is
/// [`DENSE`]), at every result cell allowed by `masks`; every other cell
/// is zero. `cards` / `stride_a` / `stride_b` / `masks` describe the
/// *result* scope (the union with the summed variable removed), and
/// (`card_v`, `sav`, `sbv`) are the summed variable's cardinality and
/// per-operand strides. Each cell accumulates in ascending `v` order — the
/// bit-identity invariant. `assign` is scratch of length
/// ≥ `2 · cards.len()`.
#[allow(clippy::too_many_arguments)]
pub fn product_sum_out_into(
    a: &[f64],
    b: &[f64],
    cards: &[usize],
    stride_a: &[usize],
    stride_b: &[usize],
    masks: &[usize],
    codes: &[usize],
    card_v: usize,
    sav: usize,
    sbv: usize,
    v_mask: usize,
    assign: &mut [usize],
    out: &mut [f64],
) {
    let cell = |ia: usize, ib: usize| -> f64 {
        let mut acc = 0.0;
        for_each_code(card_v, v_mask, codes, |c| {
            acc += a[ia + c * sav] * b[ib + c * sbv]
        });
        acc
    };
    let Some(last) = cards.len().checked_sub(1) else {
        out[0] = cell(0, 0);
        return;
    };
    if masks.iter().any(|&m| m != DENSE) {
        out.fill(0.0);
    }
    let (inner, sa, sb, lane) =
        (cards[last], stride_a[last], stride_b[last], masks[last]);
    for_each_row(cards, stride_a, stride_b, masks, codes, assign, |ia, ib, io| {
        let row = &mut out[io..io + inner];
        if lane == DENSE && sa == 1 && sb == 1 {
            // Contiguous rows: add one whole row per summed code, so every
            // cell still accumulates its terms in ascending `v` order.
            row.fill(0.0);
            for_each_code(card_v, v_mask, codes, |c| {
                let av = &a[ia + c * sav..][..inner];
                let bv = &b[ib + c * sbv..][..inner];
                for (slot, (&x, &y)) in row.iter_mut().zip(av.iter().zip(bv)) {
                    *slot += x * y;
                }
            });
        } else {
            for_each_code(inner, lane, codes, |k| {
                row[k] = cell(ia + k * sa, ib + k * sb)
            });
        }
    });
}

/// Sums out one axis of a general strided source: for every result cell
/// allowed by `masks`, `out[·] = Σ_v src[·]` over the summed axis's
/// allowed codes, ascending (`stride` maps each result axis into `src`;
/// `card_v` / `sv` / `v_mask` describe the summed axis). Every other cell
/// is zero. `assign` is scratch of length ≥ `2 · cards.len()`.
#[allow(clippy::too_many_arguments)]
pub fn sum_out_into(
    src: &[f64],
    cards: &[usize],
    stride: &[usize],
    masks: &[usize],
    codes: &[usize],
    card_v: usize,
    sv: usize,
    v_mask: usize,
    assign: &mut [usize],
    out: &mut [f64],
) {
    let cell = |is: usize| -> f64 {
        let mut acc = 0.0;
        for_each_code(card_v, v_mask, codes, |c| acc += src[is + c * sv]);
        acc
    };
    let Some(last) = cards.len().checked_sub(1) else {
        out[0] = cell(0);
        return;
    };
    if masks.iter().any(|&m| m != DENSE) {
        out.fill(0.0);
    }
    let (inner, s, lane) = (cards[last], stride[last], masks[last]);
    // The odometer's second operand mirrors `src` and goes unused.
    for_each_row(cards, stride, stride, masks, codes, assign, |is, _, io| {
        let row = &mut out[io..io + inner];
        if lane == DENSE && s == 1 {
            row.fill(0.0);
            for_each_code(card_v, v_mask, codes, |c| {
                for (slot, &x) in row.iter_mut().zip(&src[is + c * sv..][..inner]) {
                    *slot += x;
                }
            });
        } else {
            for_each_code(inner, lane, codes, |k| row[k] = cell(is + k * s));
        }
    });
}

/// Zeroes the runs of `data` whose code for the reduced axis (cardinality
/// `card`, run length `inner`) is not allowed. Pure zeroing — no float
/// arithmetic — so applying masks in any order yields identical bits.
pub fn reduce_in_place(data: &mut [f64], card: usize, inner: usize, allowed: &[bool]) {
    let mut base = 0usize;
    while base < data.len() {
        for (c, &ok) in allowed.iter().enumerate().take(card) {
            if !ok {
                let start = base + c * inner;
                data[start..start + inner].fill(0.0);
            }
        }
        base += card * inner;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn scalar_product() {
        let f = Factor::scalar(0.5).product(&Factor::scalar(4.0));
        assert!(close(f.scalar_value(), 2.0));
    }

    #[test]
    fn product_of_disjoint_scopes_is_outer_product() {
        let a = Factor::new(vec![0], vec![2], vec![0.3, 0.7]);
        let b = Factor::new(vec![1], vec![3], vec![0.2, 0.3, 0.5]);
        let p = a.product(&b);
        assert_eq!(p.vars(), &[0, 1]);
        assert!(close(p.value_at(&[0, 0]), 0.06));
        assert!(close(p.value_at(&[1, 2]), 0.35));
        assert!(close(p.total(), 1.0));
    }

    #[test]
    fn product_aligns_shared_variables() {
        // φ1(A,B), φ2(B,C): result over (A,B,C).
        let f1 = Factor::new(vec![0, 1], vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let f2 = Factor::new(vec![1, 2], vec![2, 2], vec![10.0, 20.0, 30.0, 40.0]);
        let p = f1.product(&f2);
        assert_eq!(p.vars(), &[0, 1, 2]);
        // (a=0,b=1,c=0): f1[0,1]=2, f2[1,0]=30 → 60.
        assert!(close(p.value_at(&[0, 1, 0]), 60.0));
        // (a=1,b=0,c=1): f1[1,0]=3, f2[0,1]=20 → 60.
        assert!(close(p.value_at(&[1, 0, 1]), 60.0));
    }

    #[test]
    fn product_is_commutative() {
        let f1 = Factor::new(vec![0, 2], vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let f2 = Factor::new(vec![1, 2], vec![2, 3], vec![6., 5., 4., 3., 2., 1.]);
        let p1 = f1.product(&f2);
        let p2 = f2.product(&f1);
        assert_eq!(p1, p2);
    }

    #[test]
    fn sum_out_middle_variable() {
        let f = Factor::new(
            vec![0, 1, 2],
            vec![2, 2, 2],
            vec![1., 2., 3., 4., 5., 6., 7., 8.],
        );
        let m = f.sum_out(1);
        assert_eq!(m.vars(), &[0, 2]);
        assert!(close(m.value_at(&[0, 0]), 1. + 3.));
        assert!(close(m.value_at(&[0, 1]), 2. + 4.));
        assert!(close(m.value_at(&[1, 0]), 5. + 7.));
        assert!(close(m.value_at(&[1, 1]), 6. + 8.));
    }

    #[test]
    fn sum_out_absent_variable_is_identity() {
        let f = Factor::new(vec![0], vec![2], vec![0.4, 0.6]);
        assert_eq!(f.sum_out(5), f);
    }

    #[test]
    fn sum_out_all_leaves_total_as_scalar() {
        let f = Factor::new(vec![0, 1], vec![2, 2], vec![1., 2., 3., 4.]);
        let s = f.sum_out(0).sum_out(1);
        assert!(close(s.scalar_value(), 10.0));
    }

    #[test]
    fn reduce_zeroes_disallowed_values() {
        let f = Factor::new(vec![0, 1], vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = f.reduce(1, &[false, true, true]);
        assert!(close(r.value_at(&[0, 0]), 0.0));
        assert!(close(r.value_at(&[0, 1]), 2.0));
        assert!(close(r.value_at(&[1, 0]), 0.0));
        assert!(close(r.value_at(&[1, 2]), 6.0));
    }

    #[test]
    fn divide_inverts_product() {
        let a = Factor::new(vec![0, 1], vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Factor::new(vec![1], vec![3], vec![2.0, 4.0, 8.0]);
        let q = a.product(&b).divide(&b);
        for (x, y) in q.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn divide_by_zero_yields_zero() {
        let a = Factor::new(vec![0], vec![2], vec![0.0, 3.0]);
        let b = Factor::new(vec![0], vec![2], vec![0.0, 3.0]);
        let q = a.divide(&b);
        assert_eq!(q.data(), &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "divisor scope")]
    fn divide_requires_scope_containment() {
        let a = Factor::new(vec![0], vec![2], vec![1.0, 1.0]);
        let b = Factor::new(vec![1], vec![2], vec![1.0, 1.0]);
        a.divide(&b);
    }

    #[test]
    fn normalize_scales_to_one() {
        let mut f = Factor::new(vec![0], vec![2], vec![2.0, 6.0]);
        f.normalize();
        assert!(close(f.value_at(&[0]), 0.25));
        assert!(close(f.total(), 1.0));
    }

    /// A deterministic pseudo-random factor (values in (0, 1]).
    fn pseudo_factor(vars: Vec<usize>, cards: Vec<usize>, seed: u64) -> Factor {
        let len = cards.iter().product::<usize>().max(1);
        let mut state = seed | 1;
        let data = (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-3)
            })
            .collect();
        Factor::new(vars, cards, data)
    }

    #[test]
    fn product_sum_out_is_bit_identical_to_unfused_pair() {
        for seed in 1..6u64 {
            let a = pseudo_factor(vec![0, 2, 3], vec![2, 3, 4], seed);
            let b = pseudo_factor(vec![1, 2], vec![5, 3], seed.wrapping_mul(31));
            for var in [0, 1, 2, 3, 9] {
                let fused = a.product_sum_out(&b, var);
                let unfused = a.product(&b).sum_out(var);
                assert_eq!(fused.vars(), unfused.vars(), "var={var}");
                for (x, y) in fused.data().iter().zip(unfused.data()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "var={var}");
                }
            }
        }
    }

    /// Shared codes buffer + per-axis mask offsets from per-axis allowed
    /// bool masks (`None` = dense axis), mirroring what the plan compiler
    /// emits at runtime.
    fn encode_masks(allowed: &[Option<Vec<bool>>]) -> (Vec<usize>, Vec<usize>) {
        let mut codes = Vec::new();
        let mut masks = Vec::new();
        for m in allowed {
            match m {
                None => masks.push(DENSE),
                Some(bools) => {
                    masks.push(codes.len());
                    let list: Vec<usize> = bools
                        .iter()
                        .enumerate()
                        .filter_map(|(c, &b)| b.then_some(c))
                        .collect();
                    codes.push(list.len());
                    codes.extend(list);
                }
            }
        }
        (codes, masks)
    }

    /// Applies every mask that intersects a factor's scope via the dense
    /// `reduce` path — the reference pipeline the masked kernels must match
    /// bit-for-bit.
    fn reduce_all(f: &Factor, vars: &[usize], allowed: &[Option<Vec<bool>>]) -> Factor {
        let mut r = f.clone();
        for (v, m) in vars.iter().zip(allowed) {
            if let Some(bools) = m {
                r = r.reduce(*v, bools);
            }
        }
        r
    }

    #[test]
    fn product_masked_is_bit_identical_to_reduce_then_product() {
        let a = pseudo_factor(vec![0, 2, 3], vec![3, 4, 2], 5);
        let b = pseudo_factor(vec![1, 2], vec![2, 4], 99);
        let (vars, cards) = union_scope(&a, &b);
        let sa = strides_in(a.vars(), a.cards(), &vars);
        let sb = strides_in(b.vars(), b.cards(), &vars);
        let cases: Vec<Vec<Option<Vec<bool>>>> = vec![
            // single-code mask on a shared axis, rest dense
            vec![None, None, Some(vec![false, true, false, false]), None],
            // masks on three axes incl. an all-allowed one
            vec![
                Some(vec![true, false, true]),
                Some(vec![true, true]),
                None,
                Some(vec![false, true]),
            ],
            // all dense (every mask slot DENSE)
            vec![None, None, None, None],
        ];
        for allowed in cases {
            let (codes, masks) = encode_masks(&allowed);
            let mut out = vec![f64::NAN; a.product(&b).len()];
            let mut assign = vec![0usize; 2 * vars.len()];
            product_into(
                a.data(),
                b.data(),
                &cards,
                &sa,
                &sb,
                &masks,
                &codes,
                &mut assign,
                &mut out,
            );
            let dense =
                reduce_all(&a, &vars, &allowed).product(&reduce_all(&b, &vars, &allowed));
            for (x, y) in out.iter().zip(dense.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn product_sum_out_masked_is_bit_identical_to_reduce_then_dense() {
        let a = pseudo_factor(vec![0, 2, 3], vec![3, 4, 2], 13);
        let b = pseudo_factor(vec![1, 2], vec![2, 4], 41);
        let (uvars, ucards) = union_scope(&a, &b);
        let usa = strides_in(a.vars(), a.cards(), &uvars);
        let usb = strides_in(b.vars(), b.cards(), &uvars);
        for var in [0usize, 1, 2, 3] {
            let pos = uvars.iter().position(|&v| v == var).unwrap();
            let (card_v, sav, sbv) = (ucards[pos], usa[pos], usb[pos]);
            let mut vars = uvars.clone();
            let mut cards = ucards.clone();
            let (mut sa, mut sb) = (usa.clone(), usb.clone());
            vars.remove(pos);
            cards.remove(pos);
            sa.remove(pos);
            sb.remove(pos);
            // Mask the summed var to one code and one result axis to two.
            let v_allowed: Vec<bool> = (0..card_v).map(|c| c == card_v - 1).collect();
            let r_allowed: Vec<Option<Vec<bool>>> = vars
                .iter()
                .zip(&cards)
                .map(|(&rv, &rc)| {
                    (rv == 3).then(|| (0..rc).map(|c| c % 2 == 0).collect())
                })
                .collect();
            let mut full = r_allowed.clone();
            full.insert(pos, Some(v_allowed.clone()));
            let (codes, mut masks) = encode_masks(&full);
            let v_mask = masks.remove(pos);
            let len: usize = cards.iter().product::<usize>().max(1);
            let mut out = vec![f64::NAN; len];
            let mut assign = vec![0usize; 2 * cards.len().max(1)];
            product_sum_out_into(
                a.data(),
                b.data(),
                &cards,
                &sa,
                &sb,
                &masks,
                &codes,
                card_v,
                sav,
                sbv,
                v_mask,
                &mut assign,
                &mut out,
            );
            let dense = reduce_all(&a, &uvars, &full)
                .product_sum_out(&reduce_all(&b, &uvars, &full), var);
            for (x, y) in out.iter().zip(dense.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "var={var}");
            }
        }
    }

    #[test]
    fn sum_out_masked_is_bit_identical_to_reduce_then_sum_out() {
        let f = pseudo_factor(vec![0, 1, 2], vec![3, 4, 2], 77);
        for var in [0usize, 1, 2] {
            let pos = f.vars().iter().position(|&v| v == var).unwrap();
            let fstride = strides_in(f.vars(), f.cards(), f.vars());
            let (card_v, sv) = (f.cards()[pos], fstride[pos]);
            let mut cards = f.cards().to_vec();
            let mut stride = fstride.clone();
            cards.remove(pos);
            stride.remove(pos);
            let rvars: Vec<usize> =
                f.vars().iter().copied().filter(|&v| v != var).collect();
            let v_allowed: Vec<bool> = (0..card_v).map(|c| c % 2 == 1).collect();
            let r_allowed: Vec<Option<Vec<bool>>> = rvars
                .iter()
                .zip(&cards)
                .map(|(&rv, &rc)| (rv == 0).then(|| (0..rc).map(|c| c < 2).collect()))
                .collect();
            let mut full = r_allowed.clone();
            full.insert(pos, Some(v_allowed.clone()));
            let (codes, mut masks) = encode_masks(&full);
            let v_mask = masks.remove(pos);
            let len: usize = cards.iter().product::<usize>().max(1);
            let mut out = vec![f64::NAN; len];
            let mut assign = vec![0usize; 2 * cards.len().max(1)];
            sum_out_into(
                f.data(),
                &cards,
                &stride,
                &masks,
                &codes,
                card_v,
                sv,
                v_mask,
                &mut assign,
                &mut out,
            );
            let dense = reduce_all(&f, f.vars(), &full).sum_out(var);
            for (x, y) in out.iter().zip(dense.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "var={var}");
            }
        }
    }

    #[test]
    fn masked_kernels_with_empty_allowed_list_zero_the_output() {
        let a = pseudo_factor(vec![0], vec![3], 3);
        let b = pseudo_factor(vec![1], vec![2], 9);
        let (codes, masks) = encode_masks(&[Some(vec![false, false, false]), None]);
        let (vars, cards) = union_scope(&a, &b);
        let sa = strides_in(a.vars(), a.cards(), &vars);
        let sb = strides_in(b.vars(), b.cards(), &vars);
        let mut out = vec![f64::NAN; 6];
        let mut assign = vec![0usize; 4];
        product_into(
            a.data(),
            b.data(),
            &cards,
            &sa,
            &sb,
            &masks,
            &codes,
            &mut assign,
            &mut out,
        );
        assert!(out.iter().all(|x| x.to_bits() == 0.0f64.to_bits()));
    }

    #[test]
    fn product_sum_out_of_scalars() {
        let f = Factor::scalar(0.5).product_sum_out(&Factor::scalar(4.0), 0);
        assert!(close(f.scalar_value(), 2.0));
        let g = Factor::new(vec![3], vec![2], vec![0.25, 0.75]);
        let s = Factor::scalar(2.0).product_sum_out(&g, 3);
        assert!(close(s.scalar_value(), 2.0));
    }

    #[test]
    fn relabeled_identity_keeps_layout() {
        let f = pseudo_factor(vec![0, 1, 2], vec![2, 3, 2], 7);
        let r = f.relabeled(&[4, 6, 9]);
        assert_eq!(r.vars(), &[4, 6, 9]);
        assert_eq!(r.cards(), f.cards());
        assert_eq!(r.data(), f.data());
    }

    #[test]
    fn relabeled_permutes_axes() {
        // f over axes (A=0 card 2, B=1 card 3); relabel A→5, B→2 swaps axes.
        let f = Factor::new(vec![0, 1], vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = f.relabeled(&[5, 2]);
        assert_eq!(r.vars(), &[2, 5]);
        assert_eq!(r.cards(), &[3, 2]);
        for a in 0..2u32 {
            for b in 0..3u32 {
                assert!(close(r.value_at(&[b, a]), f.value_at(&[a, b])));
            }
        }
    }

    #[test]
    fn relabeled_three_axis_rotation_matches_value_lookup() {
        let f = pseudo_factor(vec![0, 1, 2], vec![2, 3, 4], 11);
        // 0→7, 1→3, 2→5: output order is (1, 2, 0).
        let r = f.relabeled(&[7, 3, 5]);
        assert_eq!(r.vars(), &[3, 5, 7]);
        assert_eq!(r.cards(), &[3, 4, 2]);
        for a in 0..2u32 {
            for b in 0..3u32 {
                for c in 0..4u32 {
                    assert_eq!(
                        r.value_at(&[b, c, a]).to_bits(),
                        f.value_at(&[a, b, c]).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn relabeled_rejects_duplicate_ids() {
        let f = Factor::new(vec![0, 1], vec![2, 2], vec![1.0; 4]);
        f.relabeled(&[3, 3]);
    }

    #[test]
    fn value_at_uses_row_major_order() {
        let f = Factor::new(vec![3, 7], vec![2, 3], (0..6).map(|i| i as f64).collect());
        assert!(close(f.value_at(&[0, 0]), 0.0));
        assert!(close(f.value_at(&[0, 2]), 2.0));
        assert!(close(f.value_at(&[1, 0]), 3.0));
        assert!(close(f.value_at(&[1, 2]), 5.0));
    }
}
