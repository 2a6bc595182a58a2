//! The Table 1 versatility matrix as executable assertions: which engine answers
//! which query shape, per the paper's §2 catalogue of baseline limitations.

use pairwisehist::baselines::{
    AqpBaseline, KdeAqp, KdeConfig, SamplingAqp, SamplingConfig, SpnAqp, SpnConfig, Unsupported,
};
use pairwisehist::datagen;
use pairwisehist::exact::ExactEngine;
use pairwisehist::prelude::*;

struct Engines {
    data: Dataset,
    ph: PairwiseHist,
    spn: SpnAqp,
    kde: KdeAqp,
    sampling: SamplingAqp,
}

fn engines() -> Engines {
    let data = datagen::generate("Taxis", 15_000, 9).unwrap();
    Engines {
        ph: PairwiseHist::build(&data, &PairwiseHistConfig { ns: 15_000, ..Default::default() }),
        spn: SpnAqp::build(&data, &SpnConfig { sample_n: 15_000, ..Default::default() }),
        kde: KdeAqp::build(
            &data,
            &KdeConfig {
                sample_n: 15_000,
                ..KdeConfig::for_templates(&[("fare", "trip_miles"), ("tips", "fare")])
            },
        ),
        sampling: SamplingAqp::build(&data, &SamplingConfig { sample_n: 15_000, seed: 1 }),
        data,
    }
}

fn q(sql: &str) -> Query {
    parse_query(sql).unwrap()
}

/// PairwiseHist answers every shape in the paper's template.
#[test]
fn pairwisehist_is_fully_versatile() {
    let e = engines();
    for sql in [
        "SELECT COUNT(fare) FROM Taxis WHERE trip_miles > 3;",
        "SELECT SUM(fare) FROM Taxis WHERE trip_miles > 3 OR trip_seconds < 600;",
        "SELECT AVG(fare) FROM Taxis WHERE trip_miles > 1 AND tips > 0 AND trip_seconds < 3000;",
        "SELECT VAR(fare) FROM Taxis WHERE payment_type = 'Cash';",
        "SELECT MIN(fare) FROM Taxis WHERE fare > 10;",
        "SELECT MAX(trip_miles) FROM Taxis WHERE company <> 'co00';",
        "SELECT MEDIAN(trip_seconds) FROM Taxis WHERE trip_miles >= 2;",
        "SELECT COUNT(fare) FROM Taxis WHERE fare > 20 GROUP BY payment_type;",
    ] {
        assert!(e.ph.execute(&q(sql)).is_ok(), "PairwiseHist must support: {sql}");
    }
}

/// The SPN reproduces DeepDB's documented gaps: no OR, no order statistics, no VAR.
#[test]
fn spn_gaps_match_deepdb() {
    let e = engines();
    assert!(AqpBaseline::execute(
        &e.spn,
        &q("SELECT COUNT(fare) FROM Taxis WHERE trip_miles > 3;")
    )
    .is_ok());
    assert_eq!(
        AqpBaseline::execute(
            &e.spn,
            &q("SELECT COUNT(fare) FROM Taxis WHERE trip_miles > 3 OR fare > 50;")
        ),
        Err(Unsupported::OrPredicate)
    );
    for sql in [
        "SELECT VAR(fare) FROM Taxis WHERE trip_miles > 1;",
        "SELECT MIN(fare) FROM Taxis WHERE trip_miles > 1;",
        "SELECT MAX(fare) FROM Taxis WHERE trip_miles > 1;",
        "SELECT MEDIAN(fare) FROM Taxis WHERE trip_miles > 1;",
    ] {
        assert!(
            matches!(AqpBaseline::execute(&e.spn, &q(sql)), Err(Unsupported::Aggregate(_))),
            "SPN must decline: {sql}"
        );
    }
}

/// The KDE engine reproduces DBEst++'s documented gaps: template-bound, max one
/// predicate column, no OR, no categorical-only queries, no timestamp inequalities.
#[test]
fn kde_gaps_match_dbest() {
    let e = engines();
    // Trained template works.
    assert!(AqpBaseline::execute(&e.kde, &q("SELECT AVG(fare) FROM Taxis WHERE trip_miles > 2;"))
        .is_ok());
    // Untrained template: declined.
    assert!(
        AqpBaseline::execute(&e.kde, &q("SELECT AVG(extras) FROM Taxis WHERE tolls > 1;")).is_err()
    );
    // More than one predicate column.
    assert!(AqpBaseline::execute(
        &e.kde,
        &q("SELECT AVG(fare) FROM Taxis WHERE trip_miles > 2 AND trip_seconds > 60;")
    )
    .is_err());
    // OR.
    assert_eq!(
        AqpBaseline::execute(
            &e.kde,
            &q("SELECT AVG(fare) FROM Taxis WHERE trip_miles > 9 OR trip_miles < 1;")
        ),
        Err(Unsupported::OrPredicate)
    );
    // Categorical-only query.
    assert!(AqpBaseline::execute(
        &e.kde,
        &q("SELECT COUNT(payment_type) FROM Taxis WHERE company = 'co01';")
    )
    .is_err());
    // Inequality on a timestamp column.
    assert!(AqpBaseline::execute(
        &e.kde,
        &q("SELECT AVG(fare) FROM Taxis WHERE trip_start > 1577836800;")
    )
    .is_err());
    // Order statistics.
    assert!(matches!(
        AqpBaseline::execute(&e.kde, &q("SELECT MEDIAN(fare) FROM Taxis WHERE trip_miles > 2;")),
        Err(Unsupported::Aggregate(_))
    ));
}

/// Acceptance: all five engines (PairwiseHist, exact scan, sampling, SPN, KDE)
/// answer the same parsed query through the shared `AqpEngine` trait and return
/// the same `AqpAnswer`/`Estimate` types.
#[test]
fn all_five_engines_speak_the_aqp_engine_trait() {
    let e = engines();
    let exact = ExactEngine::new(e.data.clone());
    let query = q("SELECT AVG(fare) FROM Taxis WHERE trip_miles > 2;");
    let truth = evaluate(&query, &e.data).unwrap().scalar().unwrap();

    let engines: [&dyn AqpEngine; 5] = [&e.ph, &exact, &e.sampling, &e.spn, &e.kde];
    let mut names = Vec::new();
    for engine in engines {
        assert!(engine.supports(&query), "{} must support the probe query", engine.name());
        let prepared = engine.prepare(&query).expect("prepare");
        assert_eq!(prepared.query(), &query);
        let answer = engine.execute(&prepared).expect("execute");
        let est = answer.scalar().expect("scalar answer");
        let rel = (est.value - truth).abs() / truth.abs();
        assert!(rel < 0.25, "{}: {} vs exact {truth}", engine.name(), est.value);
        assert!(est.lo <= est.value && est.value <= est.hi);
        assert!(engine.footprint() > 0, "{} reports a footprint", engine.name());
        names.push(engine.name());
    }
    assert_eq!(names, ["pairwisehist", "exact", "sampling", "spn", "kde"]);

    // Prepared plans are engine-bound: executing one on another engine errors.
    let p = exact.prepare(&query).unwrap();
    assert!(AqpEngine::execute(&e.ph, &p).is_err(), "foreign plans must be rejected");
}

/// Sampling answers everything but provides no usable bounds for extremes.
#[test]
fn sampling_versatile_but_weak_extreme_bounds() {
    let e = engines();
    let min_q = q("SELECT MIN(fare) FROM Taxis WHERE trip_miles > 1;");
    let a = AqpBaseline::execute(&e.sampling, &min_q).unwrap();
    assert_eq!(a.lo, a.hi, "sample MIN carries no spread");
    assert!(AqpBaseline::execute(
        &e.sampling,
        &q("SELECT MEDIAN(fare) FROM Taxis WHERE trip_miles > 2 OR tips > 3;")
    )
    .is_ok());
}
