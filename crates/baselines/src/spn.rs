#![allow(clippy::needless_range_loop)] // parallel-array indexing is the clearer idiom here

//! A sum-product network baseline in the style of DeepDB's RSPNs [20].
//!
//! Structure learning follows the standard SPN recipe DeepDB inherits from
//! Molina et al.: try to split **columns** into (nearly) independent groups
//! (product nodes, correlation-threshold partitioning); when no independent split
//! exists, split **rows** by k-means clustering (sum nodes); bottom out in
//! per-column histogram leaves. Queries evaluate bottom-up as expectations:
//! `E[1_P]`, `E[X·1_P]`, `E[X²·1_P]`.
//!
//! Fidelity to the paper's observations about DeepDB (§2, Table 5):
//!
//! * COUNT/SUM/AVG supported; VAR/MIN/MAX/MEDIAN are not (Table 5's dashes);
//! * **OR predicates are rejected** — the paper found DeepDB "does not support OR
//!   relationships between predicates, despite claiming to";
//! * smooth density modelling gives good accuracy on well-behaved (Gaussian-ish)
//!   data and degrades on irregular real-world data — the Fig 10(d) effect.

use rand::seq::index::sample as index_sample;
use rand::{Rng, SeedableRng};

use ph_sql::{AggFunc, CmpOp, Predicate, Query};
use ph_stats::normal_quantile;
use ph_types::{ColumnType, Dataset};

use crate::{AqpBaseline, Estimate, Unsupported};

/// SPN structure-learning parameters.
#[derive(Debug, Clone)]
pub struct SpnConfig {
    /// Sample size used to learn the network.
    pub sample_n: usize,
    /// Minimum rows before a slice stops splitting (DeepDB's `min_instances`).
    pub min_instances: usize,
    /// |Pearson r| above which two columns are considered dependent.
    pub corr_threshold: f64,
    /// Histogram resolution of numeric leaves.
    pub leaf_bins: usize,
    /// Recursion depth cap.
    pub max_depth: u32,
    /// Sampling / clustering seed.
    pub seed: u64,
}

impl Default for SpnConfig {
    fn default() -> Self {
        Self {
            sample_n: 100_000,
            min_instances: 500,
            corr_threshold: 0.3,
            leaf_bins: 64,
            max_depth: 16,
            seed: 0x5350_4e21,
        }
    }
}

/// The learned network plus the schema information needed to route queries.
#[derive(Debug, Clone)]
pub struct SpnAqp {
    root: Node,
    names: Vec<String>,
    types: Vec<ColumnType>,
    dicts: Vec<Option<Vec<String>>>,
    n_total: usize,
    n_sample: usize,
    z: f64,
}

#[derive(Debug, Clone)]
enum Node {
    /// Row-cluster mixture.
    Sum { weights: Vec<f64>, children: Vec<Node> },
    /// Independent column groups.
    Product { children: Vec<Node> },
    /// Single-column histogram.
    Leaf(Leaf),
}

#[derive(Debug, Clone)]
struct Leaf {
    col: usize,
    /// Fraction of slice rows that are null in this column.
    null_frac: f64,
    /// Uniform-width histogram over `[lo, hi]` (numeric) or per-code table
    /// (categorical); probabilities over non-null rows, summing to 1.
    probs: Vec<f64>,
    lo: f64,
    hi: f64,
    categorical: bool,
}

/// Per-column constraint extracted from a conjunctive predicate.
#[derive(Debug, Clone)]
struct Constraint {
    /// Closed real interval for numerics.
    lo: f64,
    hi: f64,
    /// For categoricals: allowed codes (None = unconstrained numerically).
    allowed: Option<Vec<bool>>,
}

impl Constraint {
    fn unconstrained() -> Self {
        Self { lo: f64::NEG_INFINITY, hi: f64::INFINITY, allowed: None }
    }
}

impl SpnAqp {
    /// Learns an SPN from a uniform sample of `data`.
    pub fn build(data: &Dataset, cfg: &SpnConfig) -> Self {
        let sample = data.sample(cfg.sample_n, cfg.seed);
        let d = sample.n_columns();
        // Column-major f64 matrix; NaN marks null; categoricals use their codes.
        let matrix: Vec<Vec<f64>> = (0..d)
            .map(|c| {
                let col = sample.column(c);
                (0..sample.n_rows())
                    .map(|r| {
                        if !col.is_valid(r) {
                            f64::NAN
                        } else {
                            match col.ty() {
                                ColumnType::Categorical => col.code(r).unwrap() as f64,
                                _ => col.numeric(r).unwrap(),
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        let categorical: Vec<bool> =
            (0..d).map(|c| sample.column(c).ty() == ColumnType::Categorical).collect();
        let n_codes: Vec<usize> =
            (0..d).map(|c| sample.column(c).dictionary().map_or(0, |d| d.len())).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xABCD);
        let rows: Vec<u32> = (0..sample.n_rows() as u32).collect();
        let cols: Vec<usize> = (0..d).collect();
        let learner =
            Learner { matrix: &matrix, categorical: &categorical, n_codes: &n_codes, cfg };
        let root = learner.learn(&cols, &rows, 0, &mut rng);
        Self {
            root,
            names: sample.columns().iter().map(|c| c.name().to_string()).collect(),
            types: sample.columns().iter().map(|c| c.ty()).collect(),
            dicts: sample.columns().iter().map(|c| c.dictionary().map(|d| d.to_vec())).collect(),
            n_total: data.n_rows(),
            n_sample: sample.n_rows(),
            z: normal_quantile(0.99),
        }
    }

    /// Number of nodes (diagnostics).
    pub fn n_nodes(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Sum { children, .. } | Node::Product { children } => {
                    1 + children.iter().map(walk).sum::<usize>()
                }
            }
        }
        walk(&self.root)
    }

    /// Resolves a query against the learned network, rejecting every shape DeepDB
    /// cannot answer — the single source of truth for both `AqpEngine::prepare`
    /// and `execute`.
    fn resolve(&self, query: &Query) -> Result<(usize, Vec<Constraint>), Unsupported> {
        if query.group_by.is_some() {
            return Err(Unsupported::Shape("GROUP BY not implemented".into()));
        }
        match query.agg {
            AggFunc::Count | AggFunc::Sum | AggFunc::Avg => {}
            other => return Err(Unsupported::Aggregate(other.name().into())),
        }
        let agg_col = self
            .names
            .iter()
            .position(|n| n == &query.column)
            .ok_or_else(|| Unsupported::Invalid(format!("unknown column {}", query.column)))?;
        if self.types[agg_col] == ColumnType::Categorical && query.agg != AggFunc::Count {
            return Err(Unsupported::Invalid(format!("{} on categorical column", query.agg)));
        }
        let mut cons = vec![Constraint::unconstrained(); self.names.len()];
        if let Some(p) = &query.predicate {
            self.constraints(p, &mut cons)?;
        }
        Ok((agg_col, cons))
    }

    /// The cheap shape check behind `AqpEngine::prepare`.
    fn validate(&self, query: &Query) -> Result<(), Unsupported> {
        self.resolve(query).map(|_| ())
    }

    /// Extracts per-column conjunctive constraints; errors on OR (like DeepDB).
    fn constraints(&self, pred: &Predicate, out: &mut Vec<Constraint>) -> Result<(), Unsupported> {
        match pred {
            Predicate::Or(_) => Err(Unsupported::OrPredicate),
            Predicate::And(children) => {
                for c in children {
                    self.constraints(c, out)?;
                }
                Ok(())
            }
            Predicate::Cond(c) => {
                let col =
                    self.names.iter().position(|n| n == &c.column).ok_or_else(|| {
                        Unsupported::Invalid(format!("unknown column {}", c.column))
                    })?;
                let cons = &mut out[col];
                if self.types[col] == ColumnType::Categorical {
                    let dict = self.dicts[col].as_ref().expect("categorical dictionary");
                    let s = match &c.value {
                        ph_types::Value::Str(s) => s.clone(),
                        v => {
                            return Err(Unsupported::Invalid(format!(
                                "categorical column {} vs {v}",
                                c.column
                            )))
                        }
                    };
                    let code = dict.iter().position(|d| *d == s);
                    let mut mask = match (&cons.allowed, c.op) {
                        (Some(m), _) => m.clone(),
                        (None, _) => vec![true; dict.len()],
                    };
                    match c.op {
                        CmpOp::Eq => {
                            for (i, b) in mask.iter_mut().enumerate() {
                                *b = *b && Some(i) == code;
                            }
                        }
                        CmpOp::Ne => {
                            if let Some(i) = code {
                                mask[i] = false;
                            }
                        }
                        op => {
                            return Err(Unsupported::Invalid(format!(
                                "range op {op} on categorical {}",
                                c.column
                            )))
                        }
                    }
                    cons.allowed = Some(mask);
                } else {
                    let lit = c.value.as_f64().ok_or_else(|| {
                        Unsupported::Invalid(format!("non-numeric literal on {}", c.column))
                    })?;
                    match c.op {
                        CmpOp::Lt => cons.hi = cons.hi.min(lit - 1e-9),
                        CmpOp::Le => cons.hi = cons.hi.min(lit),
                        CmpOp::Gt => cons.lo = cons.lo.max(lit + 1e-9),
                        CmpOp::Ge => cons.lo = cons.lo.max(lit),
                        CmpOp::Eq => {
                            cons.lo = cons.lo.max(lit);
                            cons.hi = cons.hi.min(lit);
                        }
                        CmpOp::Ne => {
                            // Point removal has measure ~zero under a density model;
                            // DeepDB treats it the same way.
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

impl AqpBaseline for SpnAqp {
    fn name(&self) -> &'static str {
        "spn"
    }

    fn execute(&self, query: &Query) -> Result<Estimate, Unsupported> {
        let (agg_col, cons) = self.resolve(query)?;
        let (p, m1, m2) = eval(&self.root, &cons, agg_col);
        let n = self.n_total as f64;
        let ns = self.n_sample as f64;
        let z = self.z;
        Ok(match query.agg {
            AggFunc::Count => {
                let se = (p.clamp(0.0, 1.0) * (1.0 - p.clamp(0.0, 1.0)) / ns).sqrt();
                Estimate::with_bounds(n * p, (n * (p - z * se)).max(0.0), n * (p + z * se))
            }
            AggFunc::Sum => {
                let se = ((m2 - m1 * m1).max(0.0) / ns).sqrt();
                Estimate::with_bounds(n * m1, n * (m1 - z * se), n * (m1 + z * se))
            }
            AggFunc::Avg => {
                if p <= 1e-12 {
                    return Err(Unsupported::Shape("empty selection".into()));
                }
                let avg = m1 / p;
                let var = (m2 / p - avg * avg).max(0.0);
                let se = (var / (ns * p)).sqrt();
                Estimate::with_bounds(avg, avg - z * se, avg + z * se)
            }
            _ => unreachable!(),
        })
    }

    fn size_bytes(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf(l) => 40 + l.probs.len() * 8,
                Node::Sum { weights, children } => {
                    16 + weights.len() * 8 + children.iter().map(walk).sum::<usize>()
                }
                Node::Product { children } => 16 + children.iter().map(walk).sum::<usize>(),
            }
        }
        walk(&self.root)
    }
}

crate::baseline_engine!(SpnAqp);

/// Bottom-up moment evaluation: returns
/// `(E[1_P·v], E[X_a·1_P·v], E[X_a²·1_P·v])` over the node's row slice, where `v`
/// additionally requires the aggregation column to be non-null.
fn eval(node: &Node, cons: &[Constraint], agg_col: usize) -> (f64, f64, f64) {
    match node {
        Node::Sum { weights, children } => {
            let mut acc = (0.0, 0.0, 0.0);
            for (w, ch) in weights.iter().zip(children) {
                let (p, m1, m2) = eval(ch, cons, agg_col);
                acc.0 += w * p;
                acc.1 += w * m1;
                acc.2 += w * m2;
            }
            acc
        }
        Node::Product { children } => {
            // Independence: the aggregation column's moments come from its own
            // subtree; the other subtrees contribute probability factors.
            let mut prob = 1.0;
            let mut moments = (1.0, 1.0, 1.0);
            let mut saw_agg = false;
            for ch in children {
                if subtree_covers(ch, agg_col) {
                    moments = eval(ch, cons, agg_col);
                    saw_agg = true;
                } else {
                    prob *= eval(ch, cons, agg_col).0;
                }
            }
            if saw_agg {
                (prob * moments.0, prob * moments.1, prob * moments.2)
            } else {
                (prob, prob, prob)
            }
        }
        Node::Leaf(l) => leaf_eval(l, cons, agg_col),
    }
}

fn subtree_covers(node: &Node, col: usize) -> bool {
    match node {
        Node::Leaf(l) => l.col == col,
        Node::Sum { children, .. } | Node::Product { children } => {
            children.iter().any(|c| subtree_covers(c, col))
        }
    }
}

fn leaf_eval(l: &Leaf, cons: &[Constraint], agg_col: usize) -> (f64, f64, f64) {
    let c = &cons[l.col];
    let constrained = c.allowed.is_some() || c.lo.is_finite() || c.hi.is_finite();
    let is_agg = l.col == agg_col;
    if !constrained && !is_agg {
        return (1.0, 1.0, 1.0); // unconstrained non-aggregation column: factor 1
    }
    let valid = 1.0 - l.null_frac;
    let mut p = 0.0;
    let mut m1 = 0.0;
    let mut m2 = 0.0;
    if l.categorical {
        for (code, &prob) in l.probs.iter().enumerate() {
            let ok = match &c.allowed {
                Some(mask) => mask.get(code).copied().unwrap_or(false),
                None => true,
            };
            if ok {
                p += prob;
            }
        }
        // Categorical aggregation only occurs under COUNT: moments unused.
        m1 = p;
        m2 = p;
    } else {
        let k = l.probs.len();
        let width = (l.hi - l.lo) / k as f64;
        for (b, &prob) in l.probs.iter().enumerate() {
            let b_lo = l.lo + b as f64 * width;
            let b_hi = b_lo + width;
            let o_lo = b_lo.max(c.lo);
            let o_hi = b_hi.min(c.hi);
            if o_hi <= o_lo && width > 0.0 {
                continue;
            }
            let frac = if width > 0.0 { ((o_hi - o_lo) / width).clamp(0.0, 1.0) } else { 1.0 };
            let centre = if width > 0.0 { 0.5 * (o_lo + o_hi) } else { b_lo };
            p += prob * frac;
            m1 += prob * frac * centre;
            m2 += prob * frac * centre * centre;
        }
    }
    (valid * p, valid * m1, valid * m2)
}

/// Recursive structure learner over a column-major sample matrix.
struct Learner<'a> {
    matrix: &'a [Vec<f64>],
    categorical: &'a [bool],
    n_codes: &'a [usize],
    cfg: &'a SpnConfig,
}

impl Learner<'_> {
    fn learn(
        &self,
        cols: &[usize],
        rows: &[u32],
        depth: u32,
        rng: &mut rand::rngs::StdRng,
    ) -> Node {
        if cols.len() == 1 {
            return Node::Leaf(self.leaf(cols[0], rows));
        }
        if rows.len() < self.cfg.min_instances || depth >= self.cfg.max_depth {
            // Naive factorization: independence assumed below min_instances.
            return Node::Product {
                children: cols.iter().map(|&c| Node::Leaf(self.leaf(c, rows))).collect(),
            };
        }
        // Column split: connected components of the |r| > threshold graph.
        let comps = self.correlation_components(cols, rows, rng);
        if comps.len() > 1 {
            return Node::Product {
                children: comps
                    .into_iter()
                    .map(|group| self.learn(&group, rows, depth + 1, rng))
                    .collect(),
            };
        }
        // Row split: 2-means clustering.
        match self.kmeans_split(cols, rows, rng) {
            Some((a, b)) => {
                let total = rows.len() as f64;
                let wa = a.len() as f64 / total;
                Node::Sum {
                    weights: vec![wa, 1.0 - wa],
                    children: vec![
                        self.learn(cols, &a, depth + 1, rng),
                        self.learn(cols, &b, depth + 1, rng),
                    ],
                }
            }
            None => Node::Product {
                children: cols.iter().map(|&c| Node::Leaf(self.leaf(c, rows))).collect(),
            },
        }
    }

    fn leaf(&self, col: usize, rows: &[u32]) -> Leaf {
        let data = &self.matrix[col];
        let vals: Vec<f64> =
            rows.iter().map(|&r| data[r as usize]).filter(|v| !v.is_nan()).collect();
        let null_frac = 1.0 - vals.len() as f64 / rows.len().max(1) as f64;
        if self.categorical[col] {
            let k = self.n_codes[col].max(1);
            let mut probs = vec![0.0; k];
            for &v in &vals {
                probs[(v as usize).min(k - 1)] += 1.0;
            }
            let total: f64 = probs.iter().sum();
            if total > 0.0 {
                for p in &mut probs {
                    *p /= total;
                }
            }
            return Leaf { col, null_frac, probs, lo: 0.0, hi: k as f64, categorical: true };
        }
        let (lo, hi) =
            vals.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| (a.min(v), b.max(v)));
        let (lo, hi) = if vals.is_empty() { (0.0, 1.0) } else { (lo, hi.max(lo + 1e-9)) };
        let k = self.cfg.leaf_bins;
        let mut probs = vec![0.0; k];
        let width = (hi - lo) / k as f64;
        for &v in &vals {
            let b = (((v - lo) / width) as usize).min(k - 1);
            probs[b] += 1.0;
        }
        let total: f64 = probs.iter().sum();
        if total > 0.0 {
            for p in &mut probs {
                *p /= total;
            }
        }
        Leaf { col, null_frac, probs, lo, hi, categorical: false }
    }

    /// Groups columns into connected components of the dependence graph, estimated
    /// from |Pearson r| on a row subsample.
    fn correlation_components(
        &self,
        cols: &[usize],
        rows: &[u32],
        rng: &mut rand::rngs::StdRng,
    ) -> Vec<Vec<usize>> {
        let probe: Vec<u32> = if rows.len() > 2000 {
            index_sample(rng, rows.len(), 2000).into_iter().map(|i| rows[i]).collect()
        } else {
            rows.to_vec()
        };
        let d = cols.len();
        let mut parent: Vec<usize> = (0..d).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for a in 0..d {
            for b in a + 1..d {
                if self.correlated(cols[a], cols[b], &probe) {
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
        }
        let mut groups: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for i in 0..d {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(cols[i]);
        }
        let mut out: Vec<Vec<usize>> = groups.into_values().collect();
        out.sort();
        out
    }

    fn correlated(&self, a: usize, b: usize, rows: &[u32]) -> bool {
        let (xa, xb) = (&self.matrix[a], &self.matrix[b]);
        let mut n = 0.0;
        let (mut sa, mut sb, mut saa, mut sbb, mut sab) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for &r in rows {
            let (va, vb) = (xa[r as usize], xb[r as usize]);
            if va.is_nan() || vb.is_nan() {
                continue;
            }
            n += 1.0;
            sa += va;
            sb += vb;
            saa += va * va;
            sbb += vb * vb;
            sab += va * vb;
        }
        if n < 30.0 {
            return false;
        }
        let cov = sab / n - (sa / n) * (sb / n);
        let var_a = saa / n - (sa / n) * (sa / n);
        let var_b = sbb / n - (sb / n) * (sb / n);
        if var_a <= 0.0 || var_b <= 0.0 {
            return false;
        }
        (cov / (var_a * var_b).sqrt()).abs() > self.cfg.corr_threshold
    }

    /// 2-means over z-scored values of the slice; `None` if degenerate.
    fn kmeans_split(
        &self,
        cols: &[usize],
        rows: &[u32],
        rng: &mut rand::rngs::StdRng,
    ) -> Option<(Vec<u32>, Vec<u32>)> {
        // Column scaling from slice statistics.
        let stats: Vec<(f64, f64)> = cols
            .iter()
            .map(|&c| {
                let mut w = ph_stats::Welford::new();
                for &r in rows {
                    let v = self.matrix[c][r as usize];
                    if !v.is_nan() {
                        w.push(v);
                    }
                }
                (w.mean().unwrap_or(0.0), w.variance_population().unwrap_or(1.0).sqrt().max(1e-9))
            })
            .collect();
        let feature = |r: u32, ci: usize| -> f64 {
            let v = self.matrix[cols[ci]][r as usize];
            if v.is_nan() {
                0.0
            } else {
                (v - stats[ci].0) / stats[ci].1
            }
        };
        // Initialise centroids from two random rows.
        let i0 = rng.gen_range(0..rows.len());
        let mut i1 = rng.gen_range(0..rows.len());
        if i1 == i0 {
            i1 = (i1 + 1) % rows.len();
        }
        let mut c0: Vec<f64> = (0..cols.len()).map(|ci| feature(rows[i0], ci)).collect();
        let mut c1: Vec<f64> = (0..cols.len()).map(|ci| feature(rows[i1], ci)).collect();
        let mut assign = vec![false; rows.len()];
        for _ in 0..10 {
            let mut changed = false;
            for (idx, &r) in rows.iter().enumerate() {
                let (mut d0, mut d1) = (0.0, 0.0);
                for ci in 0..cols.len() {
                    let f = feature(r, ci);
                    d0 += (f - c0[ci]) * (f - c0[ci]);
                    d1 += (f - c1[ci]) * (f - c1[ci]);
                }
                let a = d1 < d0;
                if a != assign[idx] {
                    assign[idx] = a;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            let mut sum0 = vec![0.0; cols.len()];
            let mut sum1 = vec![0.0; cols.len()];
            let (mut n0, mut n1) = (0.0, 0.0);
            for (idx, &r) in rows.iter().enumerate() {
                let target = if assign[idx] { &mut sum1 } else { &mut sum0 };
                for (ci, t) in target.iter_mut().enumerate() {
                    *t += feature(r, ci);
                }
                if assign[idx] {
                    n1 += 1.0;
                } else {
                    n0 += 1.0;
                }
            }
            if n0 == 0.0 || n1 == 0.0 {
                return None;
            }
            for ci in 0..cols.len() {
                c0[ci] = sum0[ci] / n0;
                c1[ci] = sum1[ci] / n1;
            }
        }
        let a: Vec<u32> = rows.iter().zip(&assign).filter(|(_, &s)| !s).map(|(&r, _)| r).collect();
        let b: Vec<u32> = rows.iter().zip(&assign).filter(|(_, &s)| s).map(|(&r, _)| r).collect();
        // Reject tiny degenerate splits.
        if a.len() < self.cfg.min_instances / 10 || b.len() < self.cfg.min_instances / 10 {
            return None;
        }
        Some((a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_sql::parse_query;
    use ph_types::Column;
    use rand::{Rng, SeedableRng};

    fn bimodal_data(n: usize) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let x: Vec<Option<i64>> = (0..n)
            .map(|_| {
                Some(if rng.gen_bool(0.6) {
                    rng.gen_range(0..200)
                } else {
                    rng.gen_range(700..1000)
                })
            })
            .collect();
        let y: Vec<Option<i64>> =
            x.iter().map(|v| Some(v.unwrap() * 2 + rng.gen_range(0..50))).collect();
        let z: Vec<Option<i64>> = (0..n).map(|_| Some(rng.gen_range(0..100))).collect();
        Dataset::builder("t")
            .column(Column::from_ints("x", x))
            .unwrap()
            .column(Column::from_ints("y", y))
            .unwrap()
            .column(Column::from_ints("z", z))
            .unwrap()
            .build()
    }

    fn build(data: &Dataset) -> SpnAqp {
        SpnAqp::build(
            data,
            &SpnConfig { sample_n: data.n_rows(), min_instances: 300, ..Default::default() },
        )
    }

    #[test]
    fn count_accuracy_on_clustered_data() {
        let d = bimodal_data(20_000);
        let spn = build(&d);
        let q = parse_query("SELECT COUNT(x) FROM t WHERE x < 300").unwrap();
        let a = spn.execute(&q).unwrap();
        let t = ph_exact::evaluate(&q, &d).unwrap().scalar().unwrap();
        let rel = (a.value - t).abs() / t;
        assert!(rel < 0.05, "{} vs {t} ({rel})", a.value);
    }

    #[test]
    fn avg_with_cross_column_predicate() {
        let d = bimodal_data(20_000);
        let spn = build(&d);
        let q = parse_query("SELECT AVG(x) FROM t WHERE y > 1400").unwrap();
        let a = spn.execute(&q).unwrap();
        let t = ph_exact::evaluate(&q, &d).unwrap().scalar().unwrap();
        let rel = (a.value - t).abs() / t;
        // Correlated columns: the SPN's cluster split should capture the bimodal
        // dependence reasonably (not perfectly).
        assert!(rel < 0.15, "{} vs {t} ({rel})", a.value);
    }

    #[test]
    fn or_predicates_rejected_like_deepdb() {
        let d = bimodal_data(2_000);
        let spn = build(&d);
        let q = parse_query("SELECT COUNT(x) FROM t WHERE x < 100 OR x > 900").unwrap();
        assert_eq!(spn.execute(&q), Err(Unsupported::OrPredicate));
    }

    #[test]
    fn order_statistics_rejected_like_deepdb() {
        let d = bimodal_data(2_000);
        let spn = build(&d);
        for sql in [
            "SELECT MIN(x) FROM t",
            "SELECT MAX(x) FROM t",
            "SELECT MEDIAN(x) FROM t",
            "SELECT VAR(x) FROM t",
        ] {
            let q = parse_query(sql).unwrap();
            assert!(
                matches!(spn.execute(&q), Err(Unsupported::Aggregate(_))),
                "{sql} must be unsupported"
            );
        }
    }

    #[test]
    fn network_has_structure() {
        let d = bimodal_data(20_000);
        let spn = build(&d);
        assert!(spn.n_nodes() > 3, "expected a non-trivial network, got {}", spn.n_nodes());
        assert!(spn.size_bytes() > 0);
    }

    #[test]
    fn sum_estimate_scales_with_population() {
        let d = bimodal_data(10_000);
        let spn = SpnAqp::build(
            &d,
            &SpnConfig { sample_n: 2_000, min_instances: 200, ..Default::default() },
        );
        let q = parse_query("SELECT SUM(x) FROM t").unwrap();
        let a = spn.execute(&q).unwrap();
        let t = ph_exact::evaluate(&q, &d).unwrap().scalar().unwrap();
        let rel = (a.value - t).abs() / t;
        assert!(rel < 0.10, "{} vs {t} ({rel})", a.value);
    }
}
