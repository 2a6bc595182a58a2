//! Shared harness for the evaluation binaries (one per paper table/figure).
//!
//! The experiment index in DESIGN.md §5 maps each binary to its table or figure:
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `fig8`   | Fig 8: median error + synopsis size across the 11 datasets |
//! | `fig9`   | Fig 9: parameter sensitivity (`M`, `α`, `Ns`) |
//! | `table5` | Table 5: median error by aggregation function |
//! | `fig10`  | Fig 10: error CDFs + real-vs-IDEBench comparison |
//! | `table6` | Table 6: bounds correct-rate and width |
//! | `fig11`  | Fig 11: synopsis size, total storage, latency, construction time |
//! | `summary`| Fig 1 / Table 1: all-round comparison |
//! | `ablation` | DESIGN.md ablations: split rule, GD seeding, sparse counts |
//!
//! Absolute numbers depend on hardware and default scale factors (the paper used a
//! billion-row testbed); the harness is built so the *relative* shapes — who wins,
//! by what factor, where the crossovers are — reproduce.

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
                    None => {
                        QueryOutcome { estimate: None, bounds: None, latency, supported: true }
                    }
                },
                Err(_) => {
                    QueryOutcome { estimate: None, bounds: None, latency, supported: false }
                }
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
                Err(_) => {
                    QueryOutcome { estimate: None, bounds: None, latency, supported: false }
                }
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
    let latencies: Vec<f64> =
        outcomes.iter().filter(|o| o.supported).map(|o| o.latency).collect();
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

/// Builds the full paper pipeline for a dataset: pre-processing, GreedyGD
/// compression, and the synopsis seeded from GD bases (Fig 2). Returns the pieces
/// plus the wall-clock seconds spent on GD compression and on synopsis construction.
pub fn build_pipeline(
    data: &Dataset,
    cfg: &ph_core::PairwiseHistConfig,
) -> PipelineBuild {
    let t0 = Instant::now();
    let pre = std::sync::Arc::new(ph_gd::Preprocessor::fit(data));
    let encoded = pre.encode(data);
    let store = ph_gd::GdCompressor::new().compress(&encoded);
    let gd_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let ph = PairwiseHist::build_from_gd(&store, pre.clone(), cfg);
    let ph_secs = t1.elapsed().as_secs_f64();
    PipelineBuild { pre, store, ph, gd_secs, ph_secs }
}

/// Output of [`build_pipeline`].
pub struct PipelineBuild {
    /// Fitted pre-processing transforms.
    pub pre: std::sync::Arc<ph_gd::Preprocessor>,
    /// GreedyGD-compressed store.
    pub store: ph_gd::GdStore,
    /// The synopsis.
    pub ph: PairwiseHist,
    /// Seconds spent fitting + compressing.
    pub gd_secs: f64,
    /// Seconds spent building the synopsis.
    pub ph_secs: f64,
}

/// The scaled-up dataset of §6: the named analogue at `seed_rows`, scaled to
/// `target_rows` with the IDEBench-style generator.
pub fn scaled_dataset(name: &str, seed_rows: usize, target_rows: usize, seed: u64) -> Dataset {
    let base = ph_datagen::generate(name, seed_rows, seed).expect("known dataset");
    if target_rows <= seed_rows {
        return base;
    }
    ph_datagen::scale_up(&base, target_rows, seed ^ 0x1de_beec4)
}

/// Tiny fixed-width table printer for experiment output.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Adds one row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with per-column width fitting.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", joined.join("  "));
        };
        line(&self.header);
        println!("  {}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats seconds human-readably (the Fig 11(d) axis style).
pub fn fmt_duration(secs: f64) -> String {
    if secs < 1.0 {
        format!("{:.0} ms", secs * 1e3)
    } else if secs < 120.0 {
        format!("{secs:.1} s")
    } else if secs < 7200.0 {
        format!("{:.1} min", secs / 60.0)
    } else {
        format!("{:.1} h", secs / 3600.0)
    }
}

/// Formats bytes with the units the paper uses.
pub fn fmt_bytes(bytes: usize) -> String {
    let b = bytes as f64;
    if b < 1024.0 {
        format!("{bytes} B")
    } else if b < 1024.0 * 1024.0 {
        format!("{:.1} KB", b / 1024.0)
    } else if b < 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2} MB", b / (1024.0 * 1024.0))
    } else {
        format!("{:.2} GB", b / (1024.0 * 1024.0 * 1024.0))
    }
}

/// Simple `--key value` argument reader shared by the binaries.
pub struct Args {
    args: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn capture() -> Self {
        Self { args: std::env::args().skip(1).collect() }
    }

    /// Reads `--name v` as a parsed value, falling back to `default`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let flag = format!("--{name}");
        self.args
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Whether a bare `--name` flag is present.
    pub fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == &format!("--{name}"))
    }
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
