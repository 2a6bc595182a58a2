//! Predicate planning: literal transformation (§5.1) and delayed transformation
//! (§5.2's same-column consolidation).
//!
//! A parsed predicate tree is compiled into a [`PlanNode`] tree whose leaves are
//! *consolidated condition groups*: all conditions on the same column that are
//! directly connected by a single AND or OR collapse into one exact [`RangeSet`]
//! (intersection / union respectively). This is the paper's delayed transformation —
//! the coverage→weighting conversion is deferred until same-column groups have been
//! merged, because conditions on the same column are maximally dependent and the
//! conditional-independence assumption of Eq 25–26 would misfire on them.

use ph_gd::Preprocessor;
use ph_sql::{CmpOp, Condition, Predicate};

use crate::coverage::RangeSet;
use crate::engine::AqpError;

/// A compiled predicate tree with consolidated same-column leaves.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PlanNode {
    /// All (consolidated) conditions on one column, as an exact interval set over the
    /// column's encoded domain.
    Leaf {
        /// Column index.
        col: usize,
        /// Matching values.
        ranges: RangeSet,
        /// `Some(slot)` when this `(column, ranges)` occurs more than once in
        /// the plan: every occurrence carries the same slot, so the evaluator
        /// computes the leaf's probabilities once and finds them again by
        /// index. Assigned by [`compile_predicate`]; `None` everywhere else.
        memo: Option<u32>,
    },
    /// Conjunction across columns / nested groups.
    And(Vec<PlanNode>),
    /// Disjunction across columns / nested groups.
    Or(Vec<PlanNode>),
}

impl PlanNode {
    /// A leaf no other leaf of the plan repeats.
    pub fn leaf(col: usize, ranges: RangeSet) -> Self {
        PlanNode::Leaf { col, ranges, memo: None }
    }

    /// Distinct columns referenced.
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            PlanNode::Leaf { col, .. } => {
                if !out.contains(col) {
                    out.push(*col);
                }
            }
            PlanNode::And(children) | PlanNode::Or(children) => {
                for c in children {
                    c.collect_columns(out);
                }
            }
        }
    }
}

/// Compiles a predicate against the fitted pre-processing transforms,
/// canonicalizes the result (the optimizer pass every query runs through) and
/// gives repeated leaves their memo slots.
pub(crate) fn compile_predicate(
    pred: &Predicate,
    pre: &Preprocessor,
) -> Result<PlanNode, AqpError> {
    let mut plan = canonicalize(compile_predicate_raw(pred, pre)?);
    share_repeated_leaves(&mut plan);
    Ok(plan)
}

/// Numbers the leaves that occur more than once (`OR(AND(a, b), AND(a, c))`
/// evaluates `a` twice): all occurrences of one `(column, ranges)` get the same
/// slot, slots count up from 0, and a leaf that occurs once keeps `memo: None`
/// — so the evaluator never compares range sets, it indexes.
fn share_repeated_leaves(plan: &mut PlanNode) {
    fn visit<'a>(node: &'a PlanNode, seen: &mut Vec<(usize, &'a RangeSet, u32)>) {
        match node {
            PlanNode::Leaf { col, ranges, .. } => {
                match seen.iter_mut().find(|(c, rs, _)| c == col && *rs == ranges) {
                    Some((_, _, n)) => *n += 1,
                    None => seen.push((*col, ranges, 1)),
                }
            }
            PlanNode::And(children) | PlanNode::Or(children) => {
                children.iter().for_each(|c| visit(c, seen));
            }
        }
    }
    fn assign(node: &mut PlanNode, shared: &[(usize, RangeSet)]) {
        match node {
            PlanNode::Leaf { col, ranges, memo } => {
                *memo = shared
                    .iter()
                    .position(|(c, rs)| c == col && rs == ranges)
                    .map(|slot| slot as u32);
            }
            PlanNode::And(children) | PlanNode::Or(children) => {
                children.iter_mut().for_each(|c| assign(c, shared));
            }
        }
    }
    let mut seen = Vec::new();
    visit(plan, &mut seen);
    let shared: Vec<(usize, RangeSet)> = seen
        .into_iter()
        .filter(|&(_, _, n)| n > 1)
        .map(|(col, ranges, _)| (col, ranges.clone()))
        .collect();
    if !shared.is_empty() {
        assign(plan, &shared);
    }
}

/// Literal transformation only: compiles the predicate tree one-to-one, without
/// any consolidation. The canonicalization equivalence tests diff this against
/// the canonical plan.
pub(crate) fn compile_predicate_raw(
    pred: &Predicate,
    pre: &Preprocessor,
) -> Result<PlanNode, AqpError> {
    match pred {
        Predicate::Cond(c) => compile_condition(c, pre),
        Predicate::And(children) => {
            let compiled: Vec<PlanNode> =
                children.iter().map(|p| compile_predicate_raw(p, pre)).collect::<Result<_, _>>()?;
            Ok(PlanNode::And(compiled))
        }
        Predicate::Or(children) => {
            let compiled: Vec<PlanNode> =
                children.iter().map(|p| compile_predicate_raw(p, pre)).collect::<Result<_, _>>()?;
            Ok(PlanNode::Or(compiled))
        }
    }
}

fn compile_condition(c: &Condition, pre: &Preprocessor) -> Result<PlanNode, AqpError> {
    let col =
        pre.column_index(&c.column).ok_or_else(|| AqpError::UnknownColumn(c.column.clone()))?;
    let tr = pre.transform(col);
    if !tr.is_numeric() && !matches!(c.op, CmpOp::Eq | CmpOp::Ne) {
        return Err(AqpError::InvalidPredicate(format!(
            "range operator {} on categorical column '{}'",
            c.op, c.column
        )));
    }
    let lit =
        pre.encode_literal(col, &c.value).map_err(|e| AqpError::InvalidPredicate(e.to_string()))?;
    // The range bound for numeric columns is the encoded domain's
    // representability cap (2^52, see ph_gd's `MAX_ENC`), *not* the fitted
    // `max_enc`: ingested batches legitimately extend a column past its
    // registration-time range (segmented tables build whole segments out
    // there), and clamping literals to the stale fit would silently turn
    // predicates over the extension into empty selections. Categorical ranks
    // stay bounded by the dictionary, whose growth always forces a refit.
    let bound = if tr.is_numeric() { 1u64 << 52 } else { tr.max_enc() };
    Ok(PlanNode::leaf(col, RangeSet::from_condition(c.op, lit, bound)))
}

/// Canonicalizes a plan tree (the paper's delayed-transformation consolidation,
/// §5.2, run as a real optimizer pass over the whole tree):
///
/// 1. nested same-operator nodes are flattened (`AND(AND(a, b), c)` →
///    `AND(a, b, c)`; likewise OR) — exactly probability-preserving, since both
///    combination rules are associative;
/// 2. same-column leaves under one operator merge into a single [`RangeSet`]
///    leaf (intersection under AND, union under OR) — interval algebra is exact,
///    so this sidesteps the conditional-independence approximation that Eq 25–26
///    would otherwise apply to maximally-dependent conditions;
/// 3. empty sets short-circuit: an AND containing an empty leaf *is* the empty
///    selection, and empty branches of an OR contribute nothing;
/// 4. single-child operators unwrap.
///
/// Rules 1, 3 and 4 never change the computed weights; rule 2 strictly
/// sharpens them.
pub(crate) fn canonicalize(node: PlanNode) -> PlanNode {
    match node {
        PlanNode::Leaf { .. } => node,
        PlanNode::And(children) => rebuild(children, true),
        PlanNode::Or(children) => rebuild(children, false),
    }
}

/// Canonicalizes and recombines one operator's children (`intersect = true` for
/// AND, `false` for OR).
fn rebuild(children: Vec<PlanNode>, intersect: bool) -> PlanNode {
    // Recurse, then flatten grandchildren under the same operator.
    let mut flat: Vec<PlanNode> = Vec::with_capacity(children.len());
    for child in children {
        match (canonicalize(child), intersect) {
            (PlanNode::And(gc), true) | (PlanNode::Or(gc), false) => flat.extend(gc),
            (other, _) => flat.push(other),
        }
    }
    // Merge same-column leaves.
    let mut leaves: Vec<(usize, RangeSet)> = Vec::new();
    let mut rest: Vec<PlanNode> = Vec::new();
    for child in flat {
        match child {
            PlanNode::Leaf { col, ranges, .. } => {
                match leaves.iter_mut().find(|(c, _)| *c == col) {
                    Some((_, acc)) => {
                        *acc = if intersect { acc.intersect(&ranges) } else { acc.union(&ranges) }
                    }
                    None => leaves.push((col, ranges)),
                }
            }
            other => rest.push(other),
        }
    }
    // Empty-set simplification.
    let first_col = leaves.first().map(|(c, _)| *c);
    if intersect {
        // AND with a contradictory column selects nothing.
        if let Some(&(col, _)) = leaves.iter().find(|(_, rs)| rs.is_empty()) {
            return PlanNode::leaf(col, RangeSet::empty());
        }
    } else {
        // Empty OR branches contribute nothing (probability 0 with exact
        // (0, 0) bounds, so the complement-product is unchanged).
        leaves.retain(|(_, rs)| !rs.is_empty());
    }
    let mut nodes: Vec<PlanNode> =
        leaves.into_iter().map(|(col, ranges)| PlanNode::leaf(col, ranges)).collect();
    nodes.extend(rest);
    match nodes.len() {
        // OR of only empty branches: preserve an empty leaf so the engine still
        // sees the predicate's column.
        0 => PlanNode::leaf(
            first_col.expect("operator node has at least one child"),
            RangeSet::empty(),
        ),
        1 => nodes.pop().unwrap(),
        _ if intersect => PlanNode::And(nodes),
        _ => PlanNode::Or(nodes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_sql::parse_query;
    use ph_types::{Column, Dataset};

    fn pre() -> Preprocessor {
        let data = Dataset::builder("f")
            .column(Column::from_ints("delay", (0..100).map(Some).collect()))
            .unwrap()
            .column(Column::from_ints("dist", (0..100).map(|i| Some(69 + i * 10)).collect()))
            .unwrap()
            .column(Column::from_floats(
                "air_time",
                (0..100).map(|i| Some(2.5 + i as f64)).collect(),
                1,
            ))
            .unwrap()
            .column(Column::from_strings(
                "carrier",
                (0..100).map(|i| Some(if i % 2 == 0 { "AA" } else { "UA" })).collect(),
            ))
            .unwrap()
            .build();
        Preprocessor::fit(&data)
    }

    fn plan(sql: &str) -> PlanNode {
        let q = parse_query(sql).unwrap();
        compile_predicate(&q.predicate.unwrap(), &pre()).unwrap()
    }

    #[test]
    fn fig7_delayed_transformation() {
        // (dist > 150 AND dist < 300) OR (dist < 450 AND air_time > 90.5):
        // the first AND group consolidates into one dist leaf; P3 stays separate
        // because it combines with P4 first (operator precedence).
        let p = plan(
            "SELECT AVG(delay) FROM f WHERE dist > 150 AND dist < 300 OR dist < 450 AND air_time > 90.5",
        );
        match p {
            PlanNode::Or(children) => {
                assert_eq!(children.len(), 2);
                // First branch fully consolidated into a single dist leaf:
                // dist ∈ (150, 300) -> encoded (81, 231) -> [82, 230].
                match &children[0] {
                    PlanNode::Leaf { col: 1, ranges, .. } => {
                        assert_eq!(ranges.intervals(), &[(82, 230)]);
                    }
                    other => panic!("expected consolidated dist leaf, got {other:?}"),
                }
                // Second branch remains a 2-column AND.
                match &children[1] {
                    PlanNode::And(sub) => assert_eq!(sub.len(), 2),
                    other => panic!("expected AND, got {other:?}"),
                }
            }
            other => panic!("expected OR at root, got {other:?}"),
        }
    }

    #[test]
    fn or_consolidation_unions() {
        let p = plan("SELECT COUNT(delay) FROM f WHERE dist = 69 OR dist = 79");
        match p {
            PlanNode::Leaf { col: 1, ranges, .. } => {
                assert!(ranges.contains(0)); // 69 - 69
                assert!(ranges.contains(10)); // 79 - 69
                assert!(!ranges.contains(5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn contradictory_and_is_empty() {
        let p = plan("SELECT COUNT(delay) FROM f WHERE dist < 100 AND dist > 500");
        match p {
            PlanNode::Leaf { ranges, .. } => assert!(ranges.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn categorical_equality_compiles() {
        let p = plan("SELECT COUNT(delay) FROM f WHERE carrier = 'AA'");
        match p {
            PlanNode::Leaf { col: 3, ranges, .. } => {
                assert_eq!(ranges.intervals().len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn categorical_range_rejected() {
        let q = parse_query("SELECT COUNT(delay) FROM f WHERE carrier > 'AA'").unwrap();
        assert!(matches!(
            compile_predicate(&q.predicate.unwrap(), &pre()),
            Err(AqpError::InvalidPredicate(_))
        ));
    }

    #[test]
    fn unknown_column_rejected() {
        let q = parse_query("SELECT COUNT(delay) FROM f WHERE nope = 1").unwrap();
        assert!(matches!(
            compile_predicate(&q.predicate.unwrap(), &pre()),
            Err(AqpError::UnknownColumn(_))
        ));
    }

    fn leaf(col: usize, lo: u64, hi: u64) -> PlanNode {
        PlanNode::leaf(col, RangeSet::interval(lo, hi))
    }

    #[test]
    fn nested_same_operator_flattens_and_merges() {
        // AND(AND(x ∈ [10,50], y ∈ [0,9]), x ∈ [30,80]) → AND(x ∈ [30,50], y ∈ [0,9]).
        let p = canonicalize(PlanNode::And(vec![
            PlanNode::And(vec![leaf(0, 10, 50), leaf(1, 0, 9)]),
            leaf(0, 30, 80),
        ]));
        match p {
            PlanNode::And(children) => {
                assert_eq!(children.len(), 2);
                assert!(children.contains(&leaf(0, 30, 50)));
                assert!(children.contains(&leaf(1, 0, 9)));
            }
            other => panic!("expected flattened AND, got {other:?}"),
        }
    }

    #[test]
    fn nested_or_flattens_and_unions() {
        let p = canonicalize(PlanNode::Or(vec![
            PlanNode::Or(vec![leaf(0, 0, 3), leaf(0, 10, 12)]),
            leaf(0, 4, 6),
        ]));
        match p {
            PlanNode::Leaf { col: 0, ranges, .. } => {
                assert_eq!(ranges.intervals(), &[(0, 6), (10, 12)]);
            }
            other => panic!("expected single merged leaf, got {other:?}"),
        }
    }

    #[test]
    fn and_with_contradiction_collapses_to_empty_leaf() {
        let p = canonicalize(PlanNode::And(vec![
            leaf(0, 10, 20),
            leaf(1, 0, 5),
            PlanNode::leaf(0, RangeSet::interval(30, 40)),
        ]));
        match p {
            PlanNode::Leaf { col: 0, ranges, .. } => assert!(ranges.is_empty()),
            other => panic!("expected empty leaf, got {other:?}"),
        }
    }

    #[test]
    fn or_drops_empty_branches() {
        let p =
            canonicalize(PlanNode::Or(vec![PlanNode::leaf(0, RangeSet::empty()), leaf(1, 5, 9)]));
        assert_eq!(p, leaf(1, 5, 9));
        // All branches empty: one empty leaf survives as the predicate's anchor.
        let p = canonicalize(PlanNode::Or(vec![
            PlanNode::leaf(2, RangeSet::empty()),
            PlanNode::leaf(3, RangeSet::empty()),
        ]));
        match p {
            PlanNode::Leaf { col: 2, ranges, .. } => assert!(ranges.is_empty()),
            other => panic!("expected empty anchor leaf, got {other:?}"),
        }
    }

    #[test]
    fn mixed_tree_keeps_cross_column_structure() {
        // OR(AND(x, y), AND(x, y)) must not merge across the operator boundary.
        let arm = || PlanNode::And(vec![leaf(0, 0, 9), leaf(1, 0, 9)]);
        let p = canonicalize(PlanNode::Or(vec![arm(), arm()]));
        match p {
            PlanNode::Or(children) => assert_eq!(children.len(), 2),
            other => panic!("expected OR of two ANDs, got {other:?}"),
        }
    }

    #[test]
    fn columns_listed_once() {
        let p = plan("SELECT COUNT(delay) FROM f WHERE dist > 100 AND air_time < 50 OR dist < 600");
        let mut cols = p.columns();
        cols.sort_unstable();
        assert_eq!(cols, vec![1, 2]);
    }
}
