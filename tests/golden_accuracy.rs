//! Golden accuracy regression test: on a seeded dataset, all five `AqpEngine`s
//! answer a fixed 25-query workload, and PairwiseHist's relative error against
//! `ExactEngine` is snapshotted per query with tolerances — so future perf work
//! on the query path cannot silently degrade accuracy. The engines' support
//! counts are snapshotted too (a baseline suddenly answering more or fewer
//! shapes is also a behaviour change worth noticing).
//!
//! Everything here is deterministic: fixed dataset seed, fixed workload seed,
//! serial builds. The tolerances are the observed errors with ~2x headroom
//! (floored at 2%), so legitimate estimator changes have room to wiggle while
//! order-of-magnitude regressions fail loudly.

use pairwisehist::baselines::{KdeAqp, KdeConfig, SamplingAqp, SamplingConfig, SpnAqp, SpnConfig};
use pairwisehist::prelude::*;
use pairwisehist::workload::{self, WorkloadConfig};

const N_ROWS: usize = 30_000;
const N_QUERIES: usize = 25;

/// Per-query upper bound on PairwiseHist's relative error vs the exact engine,
/// in workload order. Regenerate by running this test with
/// `GOLDEN_PRINT=1 cargo test --test golden_accuracy -- --nocapture` and copying
/// the printed array.
const PH_TOLERANCE: [f64; N_QUERIES] = [
    0.02, 0.02, 0.02, 0.02, 0.13, 0.11, 0.05, 0.04, 0.02, 0.30, 0.08, 0.66, 0.02,
    // Query 16's truth is exactly 0 (an empty-ish selection), so its error is
    // the convention "nonzero estimate on zero truth = 1.0"; the bound just
    // requires that convention to keep holding rather than a real percentage.
    0.37, 0.03, 0.03, 1.00, 0.02, 0.29, 0.02, 0.02, 0.02, 0.02, 0.23, 0.02,
];

/// Median of PairwiseHist's relative errors across the workload must stay below
/// this (the paper's headline accuracy metric; observed 0.0132).
const PH_MEDIAN_TOLERANCE: f64 = 0.03;

/// How many of the 25 queries each engine supports: `[exact, pairwisehist,
/// sampling, spn, kde]`. Exact, PairwiseHist and sampling answer everything; the
/// SPN's documented gaps (no OR, COUNT/SUM/AVG only) and the KDE's template
/// coverage (one model per (agg, pred) numeric pair, ≤ 1 predicate) show here.
const SUPPORT_COUNTS: [usize; 5] = [25, 25, 25, 8, 5];

/// Per-query tolerance for the *segmented* run of the same workload: the table
/// ingested in 8 batches, each sealed into its own segment, answers through the
/// estimate-merge path. Snapshotted with the same recipe as the monolithic run
/// (observed error × ~2 headroom, floored at 2%). Several queries come out
/// *tighter* than the monolithic snapshot — the Power rows arrive in timestamp
/// order, so the per-segment synopses partition the time axis and timestamp
/// predicates prune to the segments that matter.
/// Regenerate with `GOLDEN_PRINT=1 cargo test --test golden_accuracy -- --nocapture`.
const PH_SEGMENTED_TOLERANCE: [f64; N_QUERIES] = [
    0.02, 0.02, 0.04, 0.02, 0.13, 0.03, 0.05, 0.04, 0.02, 0.18, 0.08, 0.55, 0.03, 0.03, 0.11, 0.07,
    0.14, 0.02, 0.13, 0.05, 0.03, 0.02, 0.02, 0.02, 0.02,
];

/// Median relative error across the segmented workload (observed 0.0160 —
/// on par with the monolithic 0.0132; same bound as the monolithic run).
const PH_SEGMENTED_MEDIAN_TOLERANCE: f64 = 0.03;

/// Batches the table is ingested in for the segmented run.
const N_BATCHES: usize = 8;

fn workload_queries(data: &Dataset) -> Vec<Query> {
    workload::generate(
        data,
        &WorkloadConfig {
            n_queries: N_QUERIES,
            aggs: AggFunc::ALL.to_vec(),
            min_predicates: 1,
            max_predicates: 3,
            or_probability: 0.2,
            seed: 0x601d_acc0,
            ..Default::default()
        },
    )
}

fn rel_error(estimate: f64, truth: f64) -> f64 {
    if truth.abs() < f64::EPSILON {
        if estimate.abs() < f64::EPSILON {
            0.0
        } else {
            1.0
        }
    } else {
        (estimate - truth).abs() / truth.abs()
    }
}

#[test]
fn five_engines_answer_fixed_workload_and_pairwisehist_errors_stay_snapshotted() {
    let data = pairwisehist::datagen::generate("Power", N_ROWS, 23).expect("dataset");
    let queries = workload_queries(&data);
    assert_eq!(queries.len(), N_QUERIES, "workload generator must fill the quota");

    let exact = ExactEngine::new(data.clone());
    let ph = PairwiseHist::build(&data, &PairwiseHistConfig { ns: N_ROWS, ..Default::default() });
    let sampling = SamplingAqp::build(&data, &SamplingConfig { sample_n: 10_000, seed: 1 });
    let spn = SpnAqp::build(&data, &SpnConfig { sample_n: 10_000, ..Default::default() });
    let kde = KdeAqp::build(&data, &KdeConfig { sample_n: 10_000, ..Default::default() });
    let engines: [(&str, &dyn AqpEngine); 5] = [
        ("exact", &exact),
        ("pairwisehist", &ph),
        ("sampling", &sampling),
        ("spn", &spn),
        ("kde", &kde),
    ];

    // Every engine must cleanly answer every query it claims to support — and
    // the number it claims is itself part of the snapshot.
    let mut support = [0usize; 5];
    for (ei, (name, engine)) in engines.iter().enumerate() {
        for q in &queries {
            if engine.supports(q) {
                support[ei] += 1;
                let prepared = engine
                    .prepare(q)
                    .unwrap_or_else(|e| panic!("{name} supports but cannot prepare {q}: {e}"));
                engine
                    .execute(&prepared)
                    .unwrap_or_else(|e| panic!("{name} supports but cannot execute {q}: {e}"));
            }
        }
    }

    // PairwiseHist per-query accuracy vs exact.
    let mut errors = Vec::with_capacity(N_QUERIES);
    for q in &queries {
        let truth = exact.answer(q).unwrap().scalar().expect("scalar workload").value;
        let est = ph.answer(q).unwrap().scalar().expect("scalar estimate").value;
        errors.push(rel_error(est, truth));
    }

    if std::env::var("GOLDEN_PRINT").is_ok() {
        let fmt: Vec<String> = errors.iter().map(|e| format!("{e:.4}")).collect();
        println!("observed support counts: {support:?}");
        println!("observed ph errors: [{}]", fmt.join(", "));
    }

    assert_eq!(
        support, SUPPORT_COUNTS,
        "an engine's supported-query count changed — update the snapshot only if \
         the support change is intended"
    );
    for (i, (err, tol)) in errors.iter().zip(PH_TOLERANCE).enumerate() {
        assert!(
            err <= &tol,
            "query {i} ({}) drifted: relative error {err:.4} > tolerance {tol:.4}",
            queries[i]
        );
    }
    let mut sorted = errors.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median = sorted[N_QUERIES / 2];
    assert!(
        median <= PH_MEDIAN_TOLERANCE,
        "median relative error {median:.4} > {PH_MEDIAN_TOLERANCE}"
    );
}

/// The same fixed 25-query workload against a **segmented** table: the rows
/// arrive in 8 batches, each sealed into its own segment, so every answer goes
/// through the per-segment fan-out and estimate merge. Per-query relative
/// errors are snapshotted alongside the monolithic run's — the merge path must
/// not silently degrade accuracy as perf work continues.
#[test]
fn segmented_table_errors_stay_snapshotted_on_fixed_workload() {
    let data = pairwisehist::datagen::generate("Power", N_ROWS, 23).expect("dataset");
    let queries = workload_queries(&data);
    let exact = ExactEngine::new(data.clone());

    let session = Session::new();
    session.set_max_staleness(f64::INFINITY); // size-based sealing only
    let batch_rows = N_ROWS / N_BATCHES;
    session.set_seal_threshold(batch_rows); // every ingested batch seals
                                            // Register a first batch whose fitted transforms cover the whole domain:
                                            // the first slice plus, per numeric column, the row holding the dataset
                                            // minimum. A later batch dipping below the fitted minimum (deliberately)
                                            // forces a refit rebuild that collapses the segment list — production
                                            // guidance is to fit transforms over representative data, and this test
                                            // needs the pure seal path to exercise multi-segment answering.
    let mut first = data.slice(0, batch_rows);
    let argmin_rows: Vec<usize> = (0..data.n_columns())
        .filter_map(|c| {
            (0..data.n_rows()).filter(|&i| data.column(c).numeric(i).is_some()).min_by(|&a, &b| {
                data.column(c).numeric(a).unwrap().total_cmp(&data.column(c).numeric(b).unwrap())
            })
        })
        .collect();
    first.append(&data.take(&argmin_rows)).unwrap();
    session.register(first).unwrap();
    for k in 1..N_BATCHES {
        let start = k * batch_rows;
        let len = if k == N_BATCHES - 1 { N_ROWS - start } else { batch_rows };
        session.ingest("Power", &data.slice(start, len)).unwrap();
    }
    assert!(
        session.engine("Power").unwrap().n_segments() >= N_BATCHES,
        "the table must actually be multi-segment: {} segments",
        session.engine("Power").unwrap().n_segments()
    );

    let mut errors = Vec::with_capacity(N_QUERIES);
    for q in &queries {
        let truth = exact.answer(q).unwrap().scalar().expect("scalar workload").value;
        // A segmented table may estimate a very selective query's selection as
        // empty on every segment (`Scalar(None)`) where the monolithic sample
        // still caught a few rows; score that by the same convention as
        // zero-truth mismatches: right about emptiness = 0, wrong = 1.
        let err = match session.sql(&q.to_string()).unwrap().scalar() {
            Some(est) => rel_error(est.value, truth),
            None if truth.abs() < f64::EPSILON => 0.0,
            None => 1.0,
        };
        errors.push(err);
    }

    if std::env::var("GOLDEN_PRINT").is_ok() {
        let fmt: Vec<String> = errors.iter().map(|e| format!("{e:.4}")).collect();
        println!("observed segmented ph errors: [{}]", fmt.join(", "));
    }

    for (i, (err, tol)) in errors.iter().zip(PH_SEGMENTED_TOLERANCE).enumerate() {
        assert!(
            err <= &tol,
            "segmented query {i} ({}) drifted: relative error {err:.4} > tolerance {tol:.4}",
            queries[i]
        );
    }
    let mut sorted = errors.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median = sorted[N_QUERIES / 2];
    assert!(
        median <= PH_SEGMENTED_MEDIAN_TOLERANCE,
        "segmented median relative error {median:.4} > {PH_SEGMENTED_MEDIAN_TOLERANCE}"
    );
}
