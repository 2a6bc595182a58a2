//! The evaluation harness: the paper's figures and tables as one emitter,
//! [`paper`], over the helpers below that run an engine over a workload and
//! score it against exact answers.
//!
//! ```text
//! cargo run --release -p ph-bench --bin paper -- [--only EXPERIMENT] [--rows N] [--seed S]
//! ```
//!
//! prints one JSON row per measurement; DESIGN.md §6 maps each experiment to
//! its figure or table. Absolute numbers depend on hardware and scale (the
//! paper used a billion-row testbed); the harness is built so the *relative*
//! shapes — who wins, by what factor, where the crossovers are — reproduce.

pub mod paper;

use std::time::Instant;

use ph_baselines::AqpBaseline;
use ph_core::PairwiseHist;
use ph_exact::evaluate;
use ph_sql::Query;
use ph_types::Dataset;

/// Outcome of one engine on one query.
#[derive(Debug, Clone, Copy)]
pub struct QueryOutcome {
    /// Point estimate (None = undefined result on a supported query).
    pub estimate: Option<f64>,
    /// Bounds, when the engine provides them.
    pub bounds: Option<(f64, f64)>,
    /// Execution latency in seconds.
    pub latency: f64,
    /// Whether the engine supports this query at all.
    pub supported: bool,
}

/// Relative error |estimate − truth| / |truth| (paper's error metric); `None` when
/// truth or estimate is undefined. A zero truth with nonzero estimate counts as 100%.
pub fn relative_error(estimate: Option<f64>, truth: Option<f64>) -> Option<f64> {
    match (estimate, truth) {
        (Some(e), Some(t)) => {
            if t.abs() < f64::EPSILON {
                Some(if e.abs() < f64::EPSILON { 0.0 } else { 1.0 })
            } else {
                Some((e - t).abs() / t.abs())
            }
        }
        _ => None,
    }
}

/// Median of a slice (NaN-free); `None` if empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { 0.5 * (v[mid - 1] + v[mid]) })
}

/// Percentile (linear interpolation) of a slice; `None` if empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    Some(ph_stats::quantile_sorted(&v, p.clamp(0.0, 1.0)))
}

/// Computes exact ground truths for a workload (scalar queries), in parallel.
pub fn ground_truths(data: &Dataset, queries: &[Query]) -> Vec<Option<f64>> {
    let mut out = vec![None; queries.len()];
    let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results = std::sync::Mutex::new(&mut out);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(queries.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= queries.len() {
                    break;
                }
                let truth = evaluate(&queries[i], data).ok().and_then(|a| a.scalar());
                results.lock().expect("truth lock")[i] = truth;
            });
        }
    });
    out
}

/// Runs PairwiseHist on a workload, recording per-query latency.
pub fn run_pairwisehist(ph: &PairwiseHist, queries: &[Query]) -> Vec<QueryOutcome> {
    queries
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            let res = ph.execute(q);
            let latency = t0.elapsed().as_secs_f64();
            match res {
                Ok(ans) => match ans.scalar() {
                    Some(e) => QueryOutcome {
                        estimate: Some(e.value),
                        bounds: Some((e.lo, e.hi)),
                        latency,
                        supported: true,
                    },
                    None => QueryOutcome { estimate: None, bounds: None, latency, supported: true },
                },
                Err(_) => QueryOutcome { estimate: None, bounds: None, latency, supported: false },
            }
        })
        .collect()
}

/// Runs a baseline engine on a workload.
pub fn run_baseline<B: AqpBaseline + ?Sized>(engine: &B, queries: &[Query]) -> Vec<QueryOutcome> {
    queries
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            let res = engine.execute(q);
            let latency = t0.elapsed().as_secs_f64();
            match res {
                Ok(a) => QueryOutcome {
                    estimate: Some(a.value),
                    bounds: (a.lo < a.hi).then_some((a.lo, a.hi)),
                    latency,
                    supported: true,
                },
                Err(_) => QueryOutcome { estimate: None, bounds: None, latency, supported: false },
            }
        })
        .collect()
}

/// Error statistics over a workload for one engine.
#[derive(Debug, Clone, Copy)]
pub struct ErrorStats {
    /// Median relative error over supported, defined queries.
    pub median_error: f64,
    /// Queries the engine supports.
    pub supported: usize,
    /// Median latency (seconds) over supported queries.
    pub median_latency: f64,
}

/// Summarises outcomes against ground truths.
pub fn error_stats(outcomes: &[QueryOutcome], truths: &[Option<f64>]) -> ErrorStats {
    let errors: Vec<f64> = outcomes
        .iter()
        .zip(truths)
        .filter(|(o, _)| o.supported)
        .filter_map(|(o, t)| relative_error(o.estimate, *t))
        .collect();
    let latencies: Vec<f64> = outcomes.iter().filter(|o| o.supported).map(|o| o.latency).collect();
    ErrorStats {
        median_error: median(&errors).unwrap_or(f64::NAN),
        supported: outcomes.iter().filter(|o| o.supported).count(),
        median_latency: median(&latencies).unwrap_or(f64::NAN),
    }
}

/// Bounds quality (Table 6 metrics) over supported queries with defined truth.
#[derive(Debug, Clone, Copy)]
pub struct BoundsStats {
    /// Fraction of queries whose bounds contain the truth.
    pub correct_rate: f64,
    /// Median bound width as a fraction of the exact result.
    pub median_width: f64,
    /// Queries considered.
    pub n: usize,
}

/// Computes the Table 6 metrics.
pub fn bounds_stats(outcomes: &[QueryOutcome], truths: &[Option<f64>]) -> BoundsStats {
    let mut correct = 0usize;
    let mut widths = Vec::new();
    let mut n = 0usize;
    for (o, t) in outcomes.iter().zip(truths) {
        let (Some((lo, hi)), Some(t)) = (o.bounds, *t) else { continue };
        n += 1;
        if lo <= t && t <= hi {
            correct += 1;
        }
        if t.abs() > f64::EPSILON {
            widths.push((hi - lo) / t.abs());
        }
    }
    BoundsStats {
        correct_rate: if n > 0 { correct as f64 / n as f64 } else { f64::NAN },
        median_width: median(&widths).unwrap_or(f64::NAN),
        n,
    }
}

/// DBEst-style templates for a workload: `(aggregation column, predicate column)`
/// pairs, as the paper counts them when sizing DBEst++ ("we include all DBEst++
/// models required to support the same queries").
pub fn kde_templates(queries: &[Query]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for q in queries {
        let Some(p) = &q.predicate else { continue };
        let cols = p.columns();
        if cols.len() != 1 {
            continue;
        }
        let pair = (q.column.clone(), cols[0].to_string());
        if !out.contains(&pair) {
            out.push(pair);
        }
    }
    out
}

/// The scaled-up dataset of §6: the named analogue at `seed_rows` rows, grown
/// to `target_rows` with the IDEBench-style generator. A target below
/// `seed_rows` is the analogue generated at the target size.
pub fn scaled_dataset(name: &str, seed_rows: usize, target_rows: usize, seed: u64) -> Dataset {
    let base = ph_datagen::generate(name, seed_rows.min(target_rows), seed).expect("known dataset");
    if target_rows <= seed_rows {
        return base;
    }
    ph_datagen::scale_up(&base, target_rows, seed ^ 0x1de_beec4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_cases() {
        let e = relative_error(Some(110.0), Some(100.0)).unwrap();
        assert!((e - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(Some(0.0), Some(0.0)), Some(0.0));
        assert_eq!(relative_error(Some(5.0), Some(0.0)), Some(1.0));
        assert_eq!(relative_error(None, Some(1.0)), None);
        assert_eq!(relative_error(Some(1.0), None), None);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), Some(3.0));
    }

    #[test]
    fn bounds_stats_counts_containment() {
        let outcomes = vec![
            QueryOutcome {
                estimate: Some(10.0),
                bounds: Some((8.0, 12.0)),
                latency: 0.0,
                supported: true,
            },
            QueryOutcome {
                estimate: Some(10.0),
                bounds: Some((10.5, 12.0)),
                latency: 0.0,
                supported: true,
            },
        ];
        let truths = vec![Some(9.0), Some(10.0)];
        let b = bounds_stats(&outcomes, &truths);
        assert_eq!(b.n, 2);
        assert!((b.correct_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scaled_dataset_has_exactly_the_target_rows() {
        for target in [500, 2_000, 5_000] {
            assert_eq!(scaled_dataset("Power", 2_000, target, 1).n_rows(), target);
        }
    }

    #[test]
    fn kde_templates_deduplicate() {
        use ph_sql::parse_query;
        let qs = vec![
            parse_query("SELECT AVG(a) FROM t WHERE b > 1").unwrap(),
            parse_query("SELECT SUM(a) FROM t WHERE b < 5").unwrap(),
            parse_query("SELECT AVG(a) FROM t WHERE c > 1 AND b > 2").unwrap(),
        ];
        let t = kde_templates(&qs);
        assert_eq!(t, vec![("a".to_string(), "b".to_string())]);
    }
}
