//! The paper's evaluation (§6) as one emitter.
//!
//! [`experiments`] lists eight experiments, one per figure or table. Each is a
//! function of its datasets, a row count and a seed, and each runs every
//! engine it compares through one path (`Bench::measure`): build the engine
//! at a construction sample size, time the build, run the workload, and score
//! it against the exact answers. Each yields [`Row`]s. Queries, sample sizes
//! and seed derivations are those of the paper's setup (§6 and Table 4).
//!
//! Metrics whose name ends in `_secs` are wall-clock times
//! ([`Row::is_timing`]); every other row is a function of the seed alone.

use std::sync::Arc;
use std::time::Instant;

use ph_baselines::{
    AqpBaseline, KdeAqp, KdeConfig, SamplingAqp, SamplingConfig, SpnAqp, SpnConfig,
};
use ph_core::{PairwiseHist, PairwiseHistConfig, SplitRule};
use ph_gd::{ColumnarStore, GdCompressor, GdStore, Preprocessor};
use ph_server::Json;
use ph_sql::{AggFunc, Query};
use ph_types::Dataset;
use ph_workload::{generate as gen_workload, WorkloadConfig};

use crate::{
    bounds_stats, error_stats, ground_truths, kde_templates, median, percentile, relative_error,
    run_baseline, run_pairwisehist, scaled_dataset, BoundsStats, QueryOutcome,
};

/// Rows of the real analogue that a scaled-up dataset grows from (§6).
const SEED_ROWS: usize = 200_000;

/// One measurement: experiment × dataset × engine × metric → value.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment name, as in [`experiments`].
    pub experiment: &'static str,
    /// Dataset (or dataset variant) the value was measured on.
    pub dataset: String,
    /// Engine and its construction sample size, e.g. `PH 100k`.
    pub engine: String,
    /// What was measured; relative errors and rates are fractions, not percent.
    pub metric: String,
    /// The value; NaN where the metric is undefined (no query qualified).
    pub value: f64,
}

impl Row {
    /// Whether the value is a wall-clock time, which no seed reproduces.
    pub fn is_timing(&self) -> bool {
        self.metric.ends_with("_secs")
    }

    /// The row as one JSON object; a non-finite value is `null`.
    pub fn to_json(&self) -> Json {
        let s = |v: &str| Json::Str(v.to_string());
        Json::Obj(vec![
            ("experiment".into(), s(self.experiment)),
            ("dataset".into(), s(&self.dataset)),
            ("engine".into(), s(&self.engine)),
            ("metric".into(), s(&self.metric)),
            ("value".into(), Json::Num(self.value)),
        ])
    }
}

/// An experiment and the scale it runs at unless told otherwise.
pub struct Experiment {
    /// Name, as `paper --only` takes it.
    pub name: &'static str,
    /// The experiment: datasets, rows, seed → rows.
    pub run: fn(&[&str], usize, u64) -> Vec<Row>,
    /// Default datasets.
    pub datasets: Vec<&'static str>,
    /// Default row count per dataset.
    pub rows: usize,
    /// Default seed.
    pub seed: u64,
}

/// The eight experiments, in the order `paper` runs them.
pub fn experiments() -> Vec<Experiment> {
    let all = ph_datagen::all_specs().iter().map(|s| s.name).collect();
    let power_flights = || vec!["Power", "Flights"];
    let e = |name, run, datasets, rows, seed| Experiment { name, run, datasets, rows, seed };
    vec![
        e("fig8", fig8, all, 200_000, 8),
        e("fig9", fig9, vec!["Flights"], 1_000_000, 9),
        e("table5", table5, power_flights(), 1_000_000, 10),
        e("fig10", fig10, power_flights(), 1_000_000, 11),
        e("table6", table6, power_flights(), 1_000_000, 12),
        e("fig11", fig11, power_flights(), 1_000_000, 13),
        e("summary", summary, vec!["Flights"], 500_000, 14),
        e("ablation", ablation, vec!["Power"], 400_000, 15),
    ]
}

/// Fig 8: median error and synopsis size of PairwiseHist, DeepDB and DBEst++
/// at 100k and 10k construction samples, on each real analogue under 100
/// single-predicate COUNT/SUM/AVG queries (§6.1).
pub fn fig8(datasets: &[&str], rows: usize, seed: u64) -> Vec<Row> {
    let mut out = Emit::new("fig8");
    let specs = ph_datagen::all_specs();
    for &name in datasets {
        let paper_rows = specs.iter().find(|s| s.name == name).map_or(rows, |s| s.paper_rows);
        let data = ph_datagen::generate(name, rows.min(paper_rows), seed).expect("known dataset");
        let workload = WorkloadConfig { n_queries: 100, ..WorkloadConfig::initial(seed ^ 0xF18) };
        let b = Bench::new(&mut out, name, data, &workload, seed);
        for (engine, kind) in [
            ("PH 100k", ph(100_000)),
            ("PH 10k", ph(10_000)),
            ("DeepDB 100k", Kind::Spn(100_000)),
            ("DeepDB 10k", Kind::Spn(10_000)),
            ("DBEst 100k", Kind::Kde(100_000)),
            ("DBEst 10k", Kind::Kde(10_000)),
        ] {
            b.measure(&mut out, engine, kind);
        }
    }
    out.rows
}

/// Fig 9: PairwiseHist's sensitivity to `M`, `α` and `Ns` on scaled-up data.
pub fn fig9(datasets: &[&str], rows: usize, seed: u64) -> Vec<Row> {
    let mut out = Emit::new("fig9");
    for &name in datasets {
        let b =
            Bench::scaled(&mut out, name, rows, WorkloadConfig::scaled(120, seed ^ 0xF19), seed);
        for m in [1_000, 4_000, 7_000, 10_000] {
            for (setting, ns, alpha) in [
                ("1m α=0.01", 1_000_000, 0.01),
                ("100k α=0.001", 100_000, 0.001),
                ("100k α=0.01", 100_000, 0.01),
                ("100k α=0.1", 100_000, 0.1),
            ] {
                let cfg =
                    PairwiseHistConfig { ns, m_absolute: Some(m), alpha, ..Default::default() };
                b.measure(&mut out, &format!("PH {setting} M={m}"), Kind::Ph(cfg));
            }
        }
    }
    out.rows
}

/// Table 5: median relative error by aggregation function on scaled-up data.
/// DBEst++ gets a 100k sample, as in the paper, for its training time.
pub fn table5(datasets: &[&str], rows: usize, seed: u64) -> Vec<Row> {
    let mut out = Emit::new("table5");
    for &name in datasets {
        // The paper's workload sizes: 445 queries on Power, 427 on Flights.
        let n_queries = if name == "Power" { 445 } else { 427 };
        let b = Bench::scaled(
            &mut out,
            name,
            rows,
            WorkloadConfig::scaled(n_queries, seed ^ 0x7ab),
            seed,
        );
        for (engine, kind) in [
            ("PH 1m", ph(1_000_000)),
            ("DeepDB 1m", Kind::Spn(1_000_000)),
            ("DBEst 100k", Kind::Kde(100_000)),
        ] {
            let m = b.measure(&mut out, engine, kind);
            for agg in AggFunc::ALL {
                let errs = errors(&m.outcomes, &b.truths, |i| b.queries[i].agg == agg);
                let metric = format!("median_error_{}", agg.name().to_lowercase());
                out.push(name, engine, &metric, median(&errs).unwrap_or(f64::NAN));
            }
        }
    }
    out.rows
}

/// Fig 10: (a–c) error percentiles over the DBEst++-supported, the
/// DeepDB-supported and all queries, pooled over the datasets; (d) real
/// analogues against their IDEBench-style resynthesis at equal size.
pub fn fig10(datasets: &[&str], rows: usize, seed: u64) -> Vec<Row> {
    let mut out = Emit::new("fig10");
    let engines = [
        ("PH 1m", ph(1_000_000)),
        ("PH 100k", ph(100_000)),
        ("DeepDB 1m", Kind::Spn(1_000_000)),
        ("DBEst 100k", Kind::Kde(100_000)),
    ];
    let subsets = ["dbest_supported", "deepdb_supported", "all"];
    let mut errs = vec![[Vec::new(), Vec::new(), Vec::new()]; engines.len()];
    let mut sizes = [0usize; 3];
    for &name in datasets {
        let b =
            Bench::scaled(&mut out, name, rows, WorkloadConfig::scaled(200, seed ^ 0xF10), seed);
        let runs: Vec<Measured> = engines
            .iter()
            .map(|(engine, kind)| b.measure(&mut out, engine, kind.clone()))
            .collect();
        let supported = |m: &Measured| m.outcomes.iter().map(|o| o.supported).collect();
        let masks: [Vec<bool>; 3] =
            [supported(&runs[3]), supported(&runs[2]), vec![true; b.queries.len()]];
        for (s, mask) in masks.iter().enumerate() {
            sizes[s] += mask.iter().filter(|&&m| m).count();
            for (e, run) in runs.iter().enumerate() {
                errs[e][s].extend(errors(&run.outcomes, &b.truths, |i| mask[i]));
            }
        }
    }
    let pooled = datasets.join("+");
    for (s, subset) in subsets.iter().enumerate() {
        out.push(&pooled, "workload", &format!("{subset}.queries"), sizes[s] as f64);
        for ((engine, _), errs) in engines.iter().zip(&errs) {
            let errs = &errs[s];
            for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
                let metric = format!("{subset}.error_p{:02.0}", p * 100.0);
                out.push(&pooled, engine, &metric, percentile(errs, p).unwrap_or(f64::NAN));
            }
            // The paper's headline: the share of queries under 10 % error.
            let under = errs.iter().filter(|&&e| e < 0.1).count() as f64 / errs.len() as f64;
            out.push(&pooled, engine, &format!("{subset}.under_10pct"), under);
        }
    }
    let seed_rows = SEED_ROWS.min(rows);
    for &name in datasets {
        let real = ph_datagen::generate(name, seed_rows, seed).expect("known dataset");
        let synth = ph_datagen::scale_up(&real, seed_rows, seed ^ 0xD);
        for (variant, data) in [("real", real), ("IDEBench", synth)] {
            let n = data.n_rows();
            let workload = WorkloadConfig::scaled(100, seed ^ 0xF1D);
            let b = Bench::new(&mut out, &format!("{name} ({variant})"), data, &workload, seed);
            b.measure(&mut out, "PH all", ph(n));
            b.measure(&mut out, "DeepDB all", Kind::Spn(n));
        }
    }
    out.rows
}

/// Table 6: bounds correct-rate and relative width of PairwiseHist and DeepDB
/// on original-size and scaled-up data, over the DeepDB-supported queries
/// (DBEst++ gives no bounds).
pub fn table6(datasets: &[&str], rows: usize, seed: u64) -> Vec<Row> {
    let mut out = Emit::new("table6");
    let seed_rows = SEED_ROWS.min(rows);
    for &name in datasets {
        for (variant, target) in [("original", seed_rows), ("scaled", rows)] {
            let label = format!("{name} ({variant})");
            let data = scaled_dataset(name, seed_rows, target, seed);
            let b = Bench::new(
                &mut out,
                &label,
                data,
                &WorkloadConfig::scaled(200, seed ^ 0x7a6),
                seed,
            );
            let spn = b.measure(&mut out, "DeepDB 1m", Kind::Spn(1_000_000));
            let ph_1m = b.measure(&mut out, "PH 1m", ph(1_000_000));
            let mask: Vec<bool> = spn.outcomes.iter().map(|o| o.supported).collect();
            let truths = subset(&b.truths, &mask);
            for (engine, m) in [("PH 1m", &ph_1m), ("DeepDB 1m", &spn)] {
                out.bounds(&label, engine, &bounds_stats(&subset(&m.outcomes, &mask), &truths));
            }
        }
    }
    out.rows
}

/// Fig 11: synopsis size, total storage with and without GD compression,
/// query latency and construction time on scaled-up data.
pub fn fig11(datasets: &[&str], rows: usize, seed: u64) -> Vec<Row> {
    let mut out = Emit::new("fig11");
    for &name in datasets {
        let b =
            Bench::scaled(&mut out, name, rows, WorkloadConfig::scaled(200, seed ^ 0xF11), seed);
        let ph_1m = b.measure(&mut out, "PH 1m", ph(1_000_000));
        for (engine, kind) in [
            ("PH 100k", ph(100_000)),
            ("DeepDB 1m", Kind::Spn(1_000_000)),
            ("DeepDB 100k", Kind::Spn(100_000)),
            ("DBEst 100k", Kind::Kde(100_000)),
            ("DBEst 10k", Kind::Kde(10_000)),
        ] {
            b.measure(&mut out, engine, kind);
        }
        let raw = b.data.heap_size() as f64;
        let stored = (b.gd_bytes() + ph_1m.size) as f64;
        out.push(name, "PH 1m", "stored_bytes", stored);
        out.push(name, "PH 1m", "storage_reduction", raw / stored);
    }
    out.rows
}

/// Fig 1 / Table 1: every engine on one scaled dataset, all key metrics.
pub fn summary(datasets: &[&str], rows: usize, seed: u64) -> Vec<Row> {
    let mut out = Emit::new("summary");
    for &name in datasets {
        let b =
            Bench::scaled(&mut out, name, rows, WorkloadConfig::scaled(250, seed ^ 0x0f1), seed);
        for (engine, kind) in [
            ("PH 100k", ph(100_000)),
            ("DeepDB 100k", Kind::Spn(100_000)),
            ("DBEst 100k", Kind::Kde(100_000)),
            ("Sampling 100k", Kind::Sampling(100_000)),
        ] {
            let m = b.measure(&mut out, engine, kind);
            out.bounds(name, engine, &bounds_stats(&m.outcomes, &b.truths));
        }
    }
    out.rows
}

/// Ablations of DESIGN.md's choices: equal-width vs equal-depth splits (§4.1)
/// and GD-seeded vs min/max initial edges (§3). The size of the dense/sparse
/// count section (§4.3) is the `counts_bytes` every PairwiseHist build emits.
pub fn ablation(datasets: &[&str], rows: usize, seed: u64) -> Vec<Row> {
    let mut out = Emit::new("ablation");
    for &name in datasets {
        let b =
            Bench::scaled(&mut out, name, rows, WorkloadConfig::scaled(150, seed ^ 0xab1), seed);
        let depth = PairwiseHistConfig {
            ns: 100_000,
            split_rule: SplitRule::EqualDepth,
            ..Default::default()
        };
        for (engine, kind) in [
            ("PH 100k", ph(100_000)),
            ("PH 100k equal-depth", Kind::Ph(depth)),
            ("PH 100k from-scratch", Kind::PhScratch(100_000)),
        ] {
            b.measure(&mut out, engine, kind);
        }
    }
    out.rows
}

/// What `Bench::measure` builds, at a construction sample size.
#[derive(Clone)]
enum Kind {
    /// PairwiseHist seeded from the dataset's GreedyGD store (Fig 2).
    Ph(PairwiseHistConfig),
    /// PairwiseHist from min/max initial edges, without GD (§3 stand-alone mode).
    PhScratch(usize),
    /// The DeepDB-like SPN.
    Spn(usize),
    /// The DBEst-like KDE engine, one model per template of the workload.
    Kde(usize),
    /// Uniform sampling.
    Sampling(usize),
}

fn ph(ns: usize) -> Kind {
    Kind::Ph(PairwiseHistConfig { ns, ..Default::default() })
}

enum Built {
    Ph(Box<PairwiseHist>),
    Baseline(Box<dyn AqpBaseline>),
}

/// An engine's answers to a workload, and its synopsis size.
struct Measured {
    outcomes: Vec<QueryOutcome>,
    size: usize,
}

/// One dataset, its workload and the exact answers, and the GreedyGD pipeline
/// (Fig 2) every GD-seeded PairwiseHist on it builds from.
struct Bench {
    name: String,
    data: Dataset,
    queries: Vec<Query>,
    truths: Vec<Option<f64>>,
    seed: u64,
    pre: Arc<Preprocessor>,
    store: GdStore,
}

impl Bench {
    /// Generates the workload and its exact answers, runs the GreedyGD
    /// pipeline, and emits the dataset's raw size and its size compressed by
    /// GreedyGD and by the per-column cascade.
    fn new(
        out: &mut Emit,
        name: &str,
        data: Dataset,
        workload: &WorkloadConfig,
        seed: u64,
    ) -> Self {
        let queries = gen_workload(&data, workload);
        let truths = ground_truths(&data, &queries);
        let t0 = Instant::now();
        let pre = Arc::new(Preprocessor::fit(&data));
        let matrix = pre.encode(&data);
        let store = GdCompressor::new().compress(&matrix);
        let gd_secs = t0.elapsed().as_secs_f64();
        // What a served segment keeps instead: the same rows in the cascade.
        let cascade_bytes = ColumnarStore::encode(&matrix).packed_bytes() + pre.metadata_bytes();
        let b = Self { name: name.to_string(), data, queries, truths, seed, pre, store };
        out.push(name, "GD", "raw_bytes", b.data.heap_size() as f64);
        out.push(name, "GD", "gd_bytes", b.gd_bytes() as f64);
        out.push(name, "GD", "cascade_bytes", cascade_bytes as f64);
        out.push(name, "GD", "gd_secs", gd_secs);
        b
    }

    /// The named analogue scaled up to `rows` (§6).
    fn scaled(
        out: &mut Emit,
        name: &str,
        rows: usize,
        workload: WorkloadConfig,
        seed: u64,
    ) -> Self {
        let data = scaled_dataset(name, SEED_ROWS.min(rows), rows, seed);
        Self::new(out, name, data, &workload, seed)
    }

    /// The GD-compressed store plus the transforms needed to decode it.
    fn gd_bytes(&self) -> usize {
        self.store.packed_bytes() + self.pre.metadata_bytes()
    }

    /// The one path every engine of every experiment takes: build it (timed),
    /// run the workload, and emit its error, support, size and timings.
    fn measure(&self, out: &mut Emit, engine: &str, kind: Kind) -> Measured {
        let seed = self.seed;
        let t0 = Instant::now();
        let built = match kind {
            Kind::Ph(cfg) => Built::Ph(Box::new(PairwiseHist::build_from_gd(
                &self.store,
                self.pre.clone(),
                &PairwiseHistConfig { seed, ..cfg },
            ))),
            Kind::PhScratch(ns) => Built::Ph(Box::new(PairwiseHist::build(
                &self.data,
                &PairwiseHistConfig { ns, seed, ..Default::default() },
            ))),
            Kind::Spn(ns) => Built::Baseline(Box::new(SpnAqp::build(
                &self.data,
                &SpnConfig { sample_n: ns, seed, ..Default::default() },
            ))),
            Kind::Kde(ns) => Built::Baseline(Box::new(KdeAqp::build(
                &self.data,
                &KdeConfig {
                    sample_n: ns,
                    seed,
                    templates: kde_templates(&self.queries),
                    ..Default::default()
                },
            ))),
            Kind::Sampling(ns) => Built::Baseline(Box::new(SamplingAqp::build(
                &self.data,
                &SamplingConfig { sample_n: ns, seed },
            ))),
        };
        let build_secs = t0.elapsed().as_secs_f64();
        let name = &self.name;
        let (outcomes, size) = match &built {
            Built::Ph(ph) => {
                let s = ph.synopsis_size();
                for (metric, value) in [
                    ("bins_1d", ph.total_1d_bins()),
                    ("cells_2d", ph.total_2d_cells()),
                    ("params_bytes", s.params),
                    ("hists_1d_bytes", s.hists_1d),
                    ("hists_2d_bytes", s.hists_2d),
                    ("counts_bytes", s.counts),
                ] {
                    out.push(name, engine, metric, value as f64);
                }
                (run_pairwisehist(ph, &self.queries), s.total)
            }
            Built::Baseline(b) => (run_baseline(b.as_ref(), &self.queries), b.size_bytes()),
        };
        let es = error_stats(&outcomes, &self.truths);
        out.push(name, engine, "median_error", es.median_error);
        out.push(name, engine, "supported", es.supported as f64);
        out.push(name, engine, "synopsis_bytes", size as f64);
        out.push(name, engine, "build_secs", build_secs);
        out.push(name, engine, "query_median_secs", es.median_latency);
        Measured { outcomes, size }
    }
}

/// Relative errors of the supported queries whose index `keep` selects.
fn errors(
    outcomes: &[QueryOutcome],
    truths: &[Option<f64>],
    keep: impl Fn(usize) -> bool,
) -> Vec<f64> {
    (0..outcomes.len())
        .filter(|&i| keep(i) && outcomes[i].supported)
        .filter_map(|i| relative_error(outcomes[i].estimate, truths[i]))
        .collect()
}

/// The entries of `xs` that `mask` marks.
fn subset<T: Copy>(xs: &[T], mask: &[bool]) -> Vec<T> {
    xs.iter().zip(mask).filter(|(_, &m)| m).map(|(x, _)| *x).collect()
}

/// The rows one experiment has emitted so far.
struct Emit {
    experiment: &'static str,
    rows: Vec<Row>,
}

impl Emit {
    fn new(experiment: &'static str) -> Self {
        Self { experiment, rows: Vec::new() }
    }

    fn push(&mut self, dataset: &str, engine: &str, metric: &str, value: f64) {
        self.rows.push(Row {
            experiment: self.experiment,
            dataset: dataset.to_string(),
            engine: engine.to_string(),
            metric: metric.to_string(),
            value,
        });
    }

    fn bounds(&mut self, dataset: &str, engine: &str, b: &BoundsStats) {
        self.push(dataset, engine, "bounds_correct_rate", b.correct_rate);
        self.push(dataset, engine, "bounds_median_width", b.median_width);
        self.push(dataset, engine, "bounds_queries", b.n as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything but a timing is a function of the seed, so two runs diff
    /// clean once rows named as timings are set aside.
    #[test]
    fn seeded_rows_reproduce_and_only_timings_differ() {
        let run = || summary(&["Power"], 3_000, 7);
        let (a, b) = (run(), run());
        assert!(a.iter().any(Row::is_timing) && a.iter().any(|r| !r.is_timing()));
        let seeded = |rows: &[Row]| -> Vec<String> {
            rows.iter().filter(|r| !r.is_timing()).map(|r| r.to_json().to_string()).collect()
        };
        assert_eq!(seeded(&a), seeded(&b));
        let timings = |rows: &[Row]| rows.iter().filter(|r| r.is_timing()).count();
        assert_eq!(timings(&a), timings(&b));
    }
}
