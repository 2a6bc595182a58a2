//! The full AQP-with-compression framework of the paper's Fig 2: pre-process,
//! compress with GreedyGD, build the synopsis on top of the compressed data
//! (bases seed the bin edges), query, serialize, and ingest new rows.
//!
//! ```text
//! cargo run --release --example compression_pipeline
//! ```

use std::sync::Arc;

use pairwisehist::prelude::*;

fn main() {
    // --- Ingestion: pre-process + compress (black arrows in Fig 2) ---
    let data = pairwisehist::datagen::generate("Taxis", 150_000, 7).expect("dataset");
    let raw_bytes = data.heap_size();
    println!("ingesting {} rows of {}", data.n_rows(), data.name());

    let pre = Arc::new(Preprocessor::fit(&data));
    let encoded = pre.encode(&data);
    let store = GdCompressor::new().compress(&encoded);
    let gd_bytes = store.packed_bytes();
    println!(
        "GreedyGD: {} bases for {} rows; {} bytes ({:.1}x smaller than the {} raw in-memory bytes)",
        store.n_bases(),
        store.n_rows(),
        gd_bytes,
        raw_bytes as f64 / gd_bytes as f64,
        raw_bytes,
    );

    // --- Synopsis construction on compressed data ---
    let cfg = PairwiseHistConfig { ns: 100_000, ..Default::default() };
    let ph = PairwiseHist::build_from_gd(&store, pre.clone(), &cfg);
    let size = ph.synopsis_size();
    println!(
        "synopsis: {} bytes total (params {} + 1-d {} + 2-d {} + counts {})\n",
        size.total, size.params, size.hists_1d, size.hists_2d, size.counts
    );

    // --- Query execution (blue arrows) ---
    for sql in [
        "SELECT AVG(fare) FROM Taxis WHERE trip_miles > 5;",
        "SELECT COUNT(tips) FROM Taxis WHERE payment_type = 'Credit Card' AND fare > 20;",
        "SELECT MEDIAN(trip_seconds) FROM Taxis WHERE trip_miles > 1 AND trip_miles < 10;",
    ] {
        let query = parse_query(sql).unwrap();
        let approx = ph.execute(&query).unwrap().scalar().unwrap();
        let truth = evaluate(&query, &data).unwrap().scalar().unwrap();
        println!("{sql}\n  estimate {:.2} in [{:.2}, {:.2}], exact {:.2}", approx.value, approx.lo, approx.hi, truth);
    }

    // --- Synopsis persistence: ship the sub-MB synopsis to the edge ---
    let bytes = ph.to_bytes();
    let restored = PairwiseHist::from_bytes(&bytes, pre.clone()).expect("round-trip");
    let q = parse_query("SELECT AVG(fare) FROM Taxis WHERE trip_miles > 5;").unwrap();
    assert_eq!(ph.execute(&q).unwrap(), restored.execute(&q).unwrap());
    println!("\nserialized synopsis: {} bytes; restored copy answers identically", bytes.len());

    // --- Data updates (red arrows): new rows join the compressed store, and the
    // synopsis ingests them incrementally without a rebuild (the §7 future-work
    // extension; see ph-core::update).
    let fresh = pairwisehist::datagen::generate("Taxis", 10_000, 99).expect("dataset");
    let encoded_fresh = pre.encode(&fresh);
    let mut store = store;
    store.append(&encoded_fresh);
    let mut ph = ph;
    ph.ingest(&encoded_fresh);
    println!(
        "
after appending 10k rows: store {} rows / {} bases; synopsis N = {}, staleness {:.1}%",
        store.n_rows(),
        store.n_bases(),
        ph.params().n_total,
        ph.staleness() * 100.0
    );
    let q = parse_query("SELECT COUNT(fare) FROM Taxis WHERE trip_miles > 5;").unwrap();
    println!(
        "updated COUNT(fare | trip_miles > 5): {:.0}",
        ph.execute(&q).unwrap().scalar().unwrap().value
    );
    // Once staleness crosses a policy threshold, rebuild from the updated store.
    let ph2 = PairwiseHist::build_from_gd(&store, pre, &cfg);
    println!("full rebuild over updated store: {} bytes", ph2.synopsis_size().total);
}
