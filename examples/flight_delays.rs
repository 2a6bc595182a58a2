//! Flight-delay analysis — the workload family the AQP literature (and this
//! paper's Fig 7) uses as its running example: multi-predicate conditions with
//! AND/OR precedence, categorical filters and GROUP BY.
//!
//! ```text
//! cargo run --release --example flight_delays
//! ```

use pairwisehist::prelude::*;

fn main() {
    let data = pairwisehist::datagen::generate("Flights", 300_000, 11).expect("dataset");
    let ph = PairwiseHist::build(&data, &PairwiseHistConfig { ns: 100_000, ..Default::default() });
    println!("{} rows, 32 columns -> synopsis {} bytes\n", data.n_rows(), ph.synopsis_size().total);

    // The Fig 7 query shape: same-column AND group, OR with operator precedence,
    // float literal on a different column.
    let fig7 = "SELECT AVG(departure_delay) FROM Flights \
                WHERE distance > 150 AND distance < 300 OR distance < 450 AND air_time > 90.5;";
    report(&ph, &data, fig7);

    // Long-haul delay profile.
    report(&ph, &data, "SELECT MEDIAN(arrival_delay) FROM Flights WHERE distance > 2000;");
    report(
        &ph,
        &data,
        "SELECT VAR(departure_delay) FROM Flights WHERE distance > 1000 AND air_time > 100;",
    );
    report(&ph, &data, "SELECT MAX(taxi_out) FROM Flights WHERE origin_airport = 'AP000';");

    // Per-airline counts of significantly delayed flights.
    let q = parse_query(
        "SELECT COUNT(arrival_delay) FROM Flights WHERE arrival_delay > 30 GROUP BY airline;",
    )
    .unwrap();
    println!("{q}");
    let approx = ph.execute(&q).unwrap();
    let exact = evaluate(&q, &data).unwrap();
    if let (AqpAnswer::Groups(est), ExactAnswer::Groups(truth)) = (&approx, &exact) {
        let mut rows: Vec<_> = est.iter().collect();
        rows.sort_by(|a, b| b.1.value.total_cmp(&a.1.value));
        for (airline, e) in rows.into_iter().take(6) {
            let t = truth.get(airline).copied().flatten().unwrap_or(0.0);
            println!("  {airline}: estimate {:>8.0}  exact {:>8.0}", e.value, t);
        }
    }
}

fn report(ph: &PairwiseHist, data: &Dataset, sql: &str) {
    let query = parse_query(sql).expect("valid query");
    let approx = ph.execute(&query).expect("supported").scalar();
    let truth = evaluate(&query, data).expect("exact").scalar();
    match (approx, truth) {
        (Some(e), Some(t)) => println!(
            "{sql}\n  estimate {:.2} in [{:.2}, {:.2}]   exact {:.2}\n",
            e.value, e.lo, e.hi, t
        ),
        (a, t) => println!("{sql}\n  approx = {a:?}, exact = {t:?}\n"),
    }
}
