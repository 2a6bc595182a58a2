//! The paper's relative claims at test scale. Claims that rest on an experiment
//! are checked over the rows of the emitter that reproduces the paper's figures
//! (`ph_bench::paper`, DESIGN.md §6), run at each experiment's own seed.

use pairwisehist::baselines::{AqpBaseline, KdeAqp, KdeConfig, SpnAqp, SpnConfig};
use pairwisehist::prelude::*;
use pairwisehist::{datagen, workload};
use ph_bench::paper::{experiments, Row};

/// Rows per dataset for the experiments here. Training DBEst++ dominates each
/// one and grows with the rows: `fig8` on Power at 40 000 rows takes ≈ 12 s in
/// a debug build on a 2-core host, the whole file at this scale ≈ 5 s.
const ROWS: usize = 6_000;

/// Runs experiment `name` on `datasets` at `rows` rows and its default seed.
fn run(name: &str, datasets: &[&str], rows: usize) -> Vec<Row> {
    let e = experiments().into_iter().find(|e| e.name == name).expect("known experiment");
    (e.run)(datasets, rows, e.seed)
}

fn value(rows: &[Row], dataset: &str, engine: &str, metric: &str) -> f64 {
    rows.iter()
        .find(|r| r.dataset == dataset && r.engine == engine && r.metric == metric)
        .unwrap_or_else(|| panic!("no row {dataset} / {engine} / {metric}"))
        .value
}

fn power() -> (Dataset, PairwiseHist) {
    let data = datagen::generate("Power", 40_000, 21).unwrap();
    let ph = PairwiseHist::build(&data, &PairwiseHistConfig { ns: 40_000, ..Default::default() });
    (data, ph)
}

/// Claim (§6.1, Fig 8): PairwiseHist beats the learned baselines on median error
/// for single-predicate COUNT/SUM/AVG workloads over sensor data.
#[test]
fn ph_more_accurate_than_learned_baselines() {
    let rows = run("fig8", &["Power"], ROWS);
    let ph = value(&rows, "Power", "PH 100k", "median_error");
    let spn = value(&rows, "Power", "DeepDB 100k", "median_error");
    assert!(ph < spn, "PH median error {ph:.4} should beat SPN {spn:.4}");
    assert!(ph < 0.01, "PH median error should be sub-1% (paper: 0.28%), got {ph:.4}");
}

/// Claim (§6.5): query latency is orders of magnitude below exact scanning.
#[test]
fn ph_latency_far_below_exact_scan() {
    let (data, ph) = power();
    let q = &workload::generate(
        &data,
        &workload::WorkloadConfig { n_queries: 1, ..workload::WorkloadConfig::initial(22) },
    )[0];
    // Warm up, then time both paths.
    let _ = ph.execute(q).unwrap();
    let t0 = std::time::Instant::now();
    for _ in 0..50 {
        let _ = ph.execute(q).unwrap();
    }
    let ph_time = t0.elapsed().as_secs_f64() / 50.0;
    let t0 = std::time::Instant::now();
    let _ = evaluate(q, &data).unwrap();
    let exact_time = t0.elapsed().as_secs_f64();
    assert!(
        ph_time * 10.0 < exact_time,
        "synopsis ({ph_time:.6}s) should be >=10x faster than a scan ({exact_time:.6}s) \
         even at this tiny scale"
    );
}

/// Claim (Fig 1, §6.4): the synopsis is far smaller than a sampling baseline's
/// sample, and the GD-compressed store shrinks total storage.
#[test]
fn storage_claims() {
    let rows = run("summary", &["Power"], ROWS);
    let synopsis = value(&rows, "Power", "PH 100k", "synopsis_bytes");
    let sample = value(&rows, "Power", "Sampling 100k", "synopsis_bytes");
    assert!(
        synopsis * 10.0 < sample,
        "synopsis ({synopsis} B) should be >=10x below the sample ({sample} B)"
    );
    let raw = value(&rows, "Power", "GD", "raw_bytes");
    let total = value(&rows, "Power", "GD", "gd_bytes") + synopsis;
    assert!(
        total < 0.5 * raw,
        "compressed store + synopsis ({total} B) should halve raw storage ({raw} B)"
    );
}

/// Claim (§2, §6): the baselines really do decline the query shapes the paper says
/// they decline, while PairwiseHist answers everything in the template.
#[test]
fn versatility_matches_table1() {
    let (data, ph) = power();
    let spn = SpnAqp::build(&data, &SpnConfig { sample_n: 10_000, ..Default::default() });
    let kde = KdeAqp::build(
        &data,
        &KdeConfig {
            sample_n: 10_000,
            ..KdeConfig::for_templates(&[("global_active_power", "voltage")])
        },
    );

    let or_query = parse_query(
        "SELECT COUNT(global_active_power) FROM Power WHERE voltage < 235 OR voltage > 245;",
    )
    .unwrap();
    let median_query =
        parse_query("SELECT MEDIAN(global_active_power) FROM Power WHERE voltage > 240;").unwrap();
    let multi_query = parse_query(
        "SELECT AVG(global_active_power) FROM Power \
         WHERE voltage > 238 AND global_intensity < 10 AND sub_metering_3 > 0;",
    )
    .unwrap();

    // PairwiseHist answers all three.
    assert!(ph.execute(&or_query).is_ok());
    assert!(ph.execute(&median_query).is_ok());
    assert!(ph.execute(&multi_query).is_ok());
    // The SPN declines OR and MEDIAN (like DeepDB).
    assert!(AqpBaseline::execute(&spn, &or_query).is_err());
    assert!(AqpBaseline::execute(&spn, &median_query).is_err());
    // The KDE engine declines >2-column queries and MEDIAN (like DBEst++).
    assert!(AqpBaseline::execute(&kde, &multi_query).is_err());
    assert!(AqpBaseline::execute(&kde, &median_query).is_err());
}

/// Claim (Fig 10(d)): Gaussian-synthesised (IDEBench-style) data flatters
/// density-model baselines; PairwiseHist performs consistently on both.
#[test]
fn real_vs_idebench_shape() {
    let rows = run("fig10", &["Furnace"], ROWS);
    let err = |variant: &str, engine: &str| {
        value(&rows, &format!("Furnace ({variant})"), engine, "median_error")
    };
    let (spn_real, spn_synth) = (err("real", "DeepDB all"), err("IDEBench", "DeepDB all"));
    let (ph_real, ph_synth) = (err("real", "PH all"), err("IDEBench", "PH all"));
    // The SPN must do better on the smoothed data than the real bimodal data.
    assert!(
        spn_synth < spn_real,
        "SPN should prefer Gaussian data: real {spn_real:.4} vs synth {spn_synth:.4}"
    );
    // PairwiseHist stays accurate on both.
    assert!(ph_real < 0.02 && ph_synth < 0.02, "PH: real {ph_real:.4}, synth {ph_synth:.4}");
}
