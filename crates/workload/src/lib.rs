//! Seeded random query workloads with selectivity control (paper §6).
//!
//! The paper's evaluation uses randomly generated queries: 100 single-predicate
//! COUNT/SUM/AVG queries per dataset for the initial experiments (minimum
//! selectivity 10⁻⁵), and 445/427 queries with all seven aggregates and 1–5
//! predicate conditions (minimum selectivity 10⁻⁶) for the scaled-up experiments.
//! This crate generates such workloads deterministically: predicate literals are
//! drawn from empirical column quantiles, AND/OR structure is randomised, and a
//! candidate query is accepted only if its selectivity on a verification subsample
//! clears the configured floor.

// Debug/scaffolding egress is banned in library code: a stray println corrupts
// bin protocols (ph-serve speaks HTTP on stdout-adjacent fds) and dbg!/todo!
// are development leftovers. ph-lint R2 bans the panicking macros; these
// clippy denies catch the printing/scaffolding ones.
#![deny(clippy::dbg_macro, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ph_exact::evaluate;
use ph_sql::{AggFunc, CmpOp, Condition, Predicate, Query};
use ph_types::{ColumnType, Dataset, Value};

/// Workload shape parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of queries to produce.
    pub n_queries: usize,
    /// Aggregate functions to draw from.
    pub aggs: Vec<AggFunc>,
    /// Minimum number of predicate conditions per query.
    pub min_predicates: usize,
    /// Maximum number of predicate conditions per query.
    pub max_predicates: usize,
    /// Minimum fraction of rows a query must select.
    pub min_selectivity: f64,
    /// Probability that a connective is OR instead of AND.
    pub or_probability: f64,
    /// Probability of adding GROUP BY on a low-cardinality categorical column.
    pub group_by_probability: f64,
    /// Rows used to verify selectivity (subsample of the dataset).
    pub check_rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            n_queries: 100,
            aggs: vec![AggFunc::Count, AggFunc::Sum, AggFunc::Avg],
            min_predicates: 1,
            max_predicates: 1,
            min_selectivity: 1e-5,
            or_probability: 0.0,
            group_by_probability: 0.0,
            check_rows: 20_000,
            seed: 0x774c_4421,
        }
    }
}

impl WorkloadConfig {
    /// The paper's initial-experiment workload: 100 single-predicate COUNT/SUM/AVG
    /// queries, minimum selectivity 10⁻⁵ (§6.1).
    pub fn initial(seed: u64) -> Self {
        Self { seed, ..Default::default() }
    }

    /// The paper's scaled-up workload: all seven aggregates, 1–5 predicates, OR mix,
    /// minimum selectivity 10⁻⁶ (§6 intro).
    pub fn scaled(n_queries: usize, seed: u64) -> Self {
        Self {
            n_queries,
            aggs: AggFunc::ALL.to_vec(),
            min_predicates: 1,
            max_predicates: 5,
            min_selectivity: 1e-6,
            or_probability: 0.25,
            group_by_probability: 0.0,
            check_rows: 20_000,
            seed,
        }
    }
}

/// Generates a workload against `data`'s schema and value distributions.
pub fn generate(data: &Dataset, cfg: &WorkloadConfig) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let check = data.sample(cfg.check_rows, cfg.seed ^ 0x5eed);
    let gen = Generator::prepare(data, cfg);
    let mut out = Vec::with_capacity(cfg.n_queries);
    let mut attempts = 0usize;
    while out.len() < cfg.n_queries && attempts < cfg.n_queries * 200 {
        attempts += 1;
        let Some(q) = gen.candidate(&mut rng) else { continue };
        if gen.accept(&q, &check) {
            out.push(q);
        }
    }
    out
}

struct Generator<'a> {
    data: &'a Dataset,
    cfg: &'a WorkloadConfig,
    /// Sorted non-null value subsample per numeric column (literal source).
    quantiles: Vec<Option<Vec<f64>>>,
    numeric_cols: Vec<usize>,
    categorical_cols: Vec<usize>,
    group_cols: Vec<usize>,
}

impl<'a> Generator<'a> {
    fn prepare(data: &'a Dataset, cfg: &'a WorkloadConfig) -> Self {
        let probe = data.sample(4_000, cfg.seed ^ 0xdead_beef_u64);
        let mut quantiles = Vec::with_capacity(data.n_columns());
        let mut numeric_cols = Vec::new();
        let mut categorical_cols = Vec::new();
        let mut group_cols = Vec::new();
        for c in 0..data.n_columns() {
            let col = probe.column(c);
            match col.ty() {
                ColumnType::Categorical => {
                    quantiles.push(None);
                    if col.valid_count() > 0 {
                        categorical_cols.push(c);
                        let n_cats = col.dictionary().map_or(0, |d| d.len());
                        if (2..=50).contains(&n_cats) {
                            group_cols.push(c);
                        }
                    }
                }
                _ => {
                    let mut vals: Vec<f64> =
                        (0..probe.n_rows()).filter_map(|r| col.numeric(r)).collect();
                    vals.sort_by(|a, b| a.total_cmp(b));
                    if vals.len() >= 20 && vals[0] < vals[vals.len() - 1] {
                        numeric_cols.push(c);
                        quantiles.push(Some(vals));
                    } else {
                        quantiles.push(None);
                    }
                }
            }
        }
        Self { data, cfg, quantiles, numeric_cols, categorical_cols, group_cols }
    }

    fn candidate(&self, rng: &mut StdRng) -> Option<Query> {
        let agg = self.cfg.aggs[rng.gen_range(0..self.cfg.aggs.len())];
        // Aggregation column: numeric for value aggregates; COUNT may hit anything.
        let agg_col =
            if agg == AggFunc::Count && rng.gen_bool(0.15) && !self.categorical_cols.is_empty() {
                self.categorical_cols[rng.gen_range(0..self.categorical_cols.len())]
            } else {
                *pick(rng, &self.numeric_cols)?
            };

        let n_preds = rng.gen_range(self.cfg.min_predicates..=self.cfg.max_predicates);
        let mut conditions = Vec::with_capacity(n_preds);
        // Distinct predicate columns, chosen from both kinds.
        let mut pool: Vec<usize> =
            self.numeric_cols.iter().chain(self.categorical_cols.iter()).copied().collect();
        for _ in 0..n_preds {
            if pool.is_empty() {
                break;
            }
            let col = pool.swap_remove(rng.gen_range(0..pool.len()));
            conditions.push(self.condition(rng, col)?);
        }
        if conditions.is_empty() {
            return None;
        }

        // Assemble with AND/OR structure (AND binds tighter; we build the tree the
        // parser would produce for a flat infix mix).
        let predicate = self.assemble(rng, conditions);

        let group_by = if rng.gen_bool(self.cfg.group_by_probability) {
            pick(rng, &self.group_cols).map(|&g| self.data.column(g).name().to_string())
        } else {
            None
        };

        Some(Query {
            agg,
            column: self.data.column(agg_col).name().to_string(),
            table: self.data.name().to_string(),
            predicate: Some(predicate),
            group_by,
        })
    }

    fn condition(&self, rng: &mut StdRng, col: usize) -> Option<Condition> {
        let column = self.data.column(col);
        let name = column.name().to_string();
        match &self.quantiles[col] {
            Some(vals) => {
                let op = match rng.gen_range(0..10) {
                    0..=3 => CmpOp::Gt,
                    4..=7 => CmpOp::Lt,
                    8 => CmpOp::Ge,
                    _ => CmpOp::Le,
                };
                // Literal from a central quantile so predicates have usable
                // selectivity before verification.
                let q = rng.gen_range(0.05..0.95);
                let lit = ph_stats::quantile_sorted(vals, q);
                let value = match column.ty() {
                    ColumnType::Float { .. } => Value::Float((lit * 100.0).round() / 100.0),
                    _ => Value::Int(lit.round() as i64),
                };
                Some(Condition { column: name, op, value })
            }
            None => {
                // Categorical equality/inequality on an observed value.
                let dict = column.dictionary()?;
                if dict.is_empty() {
                    return None;
                }
                let r = rng.gen_range(0..self.data.n_rows());
                let value = match column.value(r) {
                    Value::Str(s) => Value::Str(s),
                    _ => Value::Str(dict[rng.gen_range(0..dict.len())].clone()),
                };
                let op = if rng.gen_bool(0.8) { CmpOp::Eq } else { CmpOp::Ne };
                Some(Condition { column: name, op, value })
            }
        }
    }

    /// Builds the predicate tree for conditions joined by a random AND/OR infix
    /// sequence, honouring AND-before-OR precedence.
    fn assemble(&self, rng: &mut StdRng, conditions: Vec<Condition>) -> Predicate {
        let mut or_groups: Vec<Vec<Predicate>> = vec![Vec::new()];
        for (i, c) in conditions.into_iter().enumerate() {
            if i > 0 && rng.gen_bool(self.cfg.or_probability) {
                or_groups.push(Vec::new());
            }
            or_groups.last_mut().unwrap().push(Predicate::Cond(c));
        }
        let mut branches: Vec<Predicate> = or_groups
            .into_iter()
            .map(|g| if g.len() == 1 { g.into_iter().next().unwrap() } else { Predicate::And(g) })
            .collect();
        if branches.len() == 1 {
            branches.pop().unwrap()
        } else {
            Predicate::Or(branches)
        }
    }

    /// Accepts a query when its selectivity on the verification subsample clears
    /// the floor (and the aggregate is defined).
    fn accept(&self, q: &Query, check: &Dataset) -> bool {
        let count_query = Query {
            agg: AggFunc::Count,
            column: q.column.clone(),
            table: q.table.clone(),
            predicate: q.predicate.clone(),
            group_by: None,
        };
        match evaluate(&count_query, check) {
            Ok(ans) => {
                let count = ans.scalar().unwrap_or(0.0);
                let needed = (self.cfg.min_selectivity * check.n_rows() as f64).clamp(1.0, 50.0);
                count >= needed
            }
            Err(_) => false,
        }
    }
}

fn pick<'v, T>(rng: &mut StdRng, v: &'v [T]) -> Option<&'v T> {
    if v.is_empty() {
        None
    } else {
        Some(&v[rng.gen_range(0..v.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_types::Column;

    fn data() -> Dataset {
        let mut rows_x = Vec::new();
        let mut rows_y = Vec::new();
        let mut rows_c = Vec::new();
        for i in 0..20_000i64 {
            rows_x.push(Some((i * i) % 997));
            rows_y.push(Some(i % 500));
            rows_c.push(Some(if i % 7 == 0 { "a" } else { "b" }));
        }
        Dataset::builder("t")
            .column(Column::from_ints("x", rows_x))
            .unwrap()
            .column(Column::from_ints("y", rows_y))
            .unwrap()
            .column(Column::from_strings("c", rows_c))
            .unwrap()
            .build()
    }

    #[test]
    fn generates_requested_count() {
        let d = data();
        let qs = generate(&d, &WorkloadConfig::initial(1));
        assert_eq!(qs.len(), 100);
        for q in &qs {
            assert!(q.predicate.is_some());
            assert_eq!(q.predicate.as_ref().unwrap().n_conditions(), 1);
            assert!(matches!(q.agg, AggFunc::Count | AggFunc::Sum | AggFunc::Avg));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let d = data();
        assert_eq!(
            generate(&d, &WorkloadConfig::initial(5)),
            generate(&d, &WorkloadConfig::initial(5))
        );
        assert_ne!(
            generate(&d, &WorkloadConfig::initial(5)),
            generate(&d, &WorkloadConfig::initial(6))
        );
    }

    #[test]
    fn scaled_workload_has_multi_predicates_and_ors() {
        let d = data();
        let qs = generate(&d, &WorkloadConfig::scaled(150, 2));
        assert_eq!(qs.len(), 150);
        assert!(qs.iter().any(|q| q.predicate.as_ref().unwrap().n_conditions() >= 2));
        assert!(qs.iter().any(|q| q.predicate.as_ref().unwrap().has_or()));
        let aggs: std::collections::HashSet<_> = qs.iter().map(|q| q.agg).collect();
        assert!(aggs.len() >= 5, "should cover most aggregates, got {aggs:?}");
    }

    #[test]
    fn selectivity_floor_respected() {
        let d = data();
        let cfg = WorkloadConfig { min_selectivity: 0.01, ..WorkloadConfig::initial(3) };
        for q in generate(&d, &cfg) {
            let count_q = Query {
                agg: AggFunc::Count,
                column: q.column.clone(),
                table: q.table.clone(),
                predicate: q.predicate.clone(),
                group_by: None,
            };
            let truth = evaluate(&count_q, &d).unwrap().scalar().unwrap();
            assert!(truth / d.n_rows() as f64 >= 0.002, "query {q} selects only {truth} rows");
        }
    }

    #[test]
    fn queries_roundtrip_through_parser() {
        let d = data();
        for q in generate(&d, &WorkloadConfig::scaled(50, 4)) {
            let reparsed = ph_sql::parse_query(&q.to_string()).unwrap();
            assert_eq!(q, reparsed, "workload queries must print as valid SQL");
        }
    }

    #[test]
    fn group_by_generation() {
        let d = data();
        let cfg = WorkloadConfig { group_by_probability: 1.0, ..WorkloadConfig::initial(7) };
        let qs = generate(&d, &cfg);
        assert!(qs.iter().all(|q| q.group_by.as_deref() == Some("c")));
    }
}
