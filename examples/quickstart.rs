//! Quickstart: register a table with a [`Session`], then speak SQL — bounded
//! approximate answers in microseconds, with prepared-plan caching on repeats —
//! and compare against exact answers. The tail of the example walks the
//! segment lifecycle: batches land in the delta in O(batch), seal into
//! immutable GD-compressed segments at the threshold, and compact back into
//! one — no full-table rebuild anywhere on the ingest path.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! To put the same session on a socket — HTTP server, admission control,
//! metrics, query log — see `examples/serve.rs` and the `ph-serve` binary.

use pairwisehist::prelude::*;

fn main() {
    // A synthetic analogue of the paper's Power dataset: ~200k rows of correlated
    // household electricity measurements.
    let data = pairwisehist::datagen::generate("Power", 200_000, 42).expect("dataset");
    println!("dataset: {} ({} rows x {} columns)", data.name(), data.n_rows(), data.n_columns());

    // The exact engine keeps the raw rows for ground-truth comparison.
    let exact = ExactEngine::new(data.clone());

    // Register the table: the session builds its synopsis (the paper's default
    // setup: Ns = 100k sample, M = 1% of Ns, alpha = 0.001) and owns it from here.
    let t0 = std::time::Instant::now();
    let session = Session::new();
    session.register(data).expect("register table");
    let ph = session.engine("Power").expect("registered engine");
    println!(
        "synopsis built in {:.0} ms -> {} bytes ({} 1-d bins, {} 2-d cells)\n",
        t0.elapsed().as_secs_f64() * 1e3,
        ph.synopsis_size().total,
        ph.total_1d_bins(),
        ph.total_2d_cells(),
    );

    let queries = [
        "SELECT COUNT(global_active_power) FROM Power WHERE voltage < 238;",
        "SELECT AVG(global_active_power) FROM Power WHERE voltage < 238 AND global_intensity > 5;",
        "SELECT SUM(sub_metering_3) FROM Power WHERE global_active_power > 1.5;",
        "SELECT MEDIAN(voltage) FROM Power WHERE global_active_power > 2;",
        "SELECT MAX(global_intensity) FROM Power WHERE voltage >= 240;",
        "SELECT VAR(voltage) FROM Power WHERE weekday = 3;",
    ];

    for sql in queries {
        let t0 = std::time::Instant::now();
        let approx = session.sql(sql).expect("supported query");
        let micros = t0.elapsed().as_secs_f64() * 1e6;
        let query = parse_query(sql).expect("valid query");
        let truth = exact.answer(&query).expect("exact").scalar().map(|e| e.value);
        match (approx.scalar(), truth) {
            (Some(est), Some(truth)) => {
                println!("{sql}");
                println!(
                    "  estimate {:>12.3}   bounds [{:.3}, {:.3}]   exact {:>12.3}   \
                     err {:.3}%   {:.0} us",
                    est.value,
                    est.lo,
                    est.hi,
                    truth,
                    (est.value - truth).abs() / truth.abs().max(1e-12) * 100.0,
                    micros,
                );
            }
            (a, t) => println!("{sql}\n  approx = {a:?}, exact = {t:?}"),
        }
    }

    // Repeated templates skip parsing and planning entirely: run the whole set
    // again and show the plan cache doing its job.
    let t0 = std::time::Instant::now();
    for sql in queries {
        session.sql(sql).expect("cached query");
    }
    let stats = session.cache_stats();
    println!(
        "\nsecond pass over {} templates: {:.0} us total, plan cache {} hits / {} misses",
        queries.len(),
        t0.elapsed().as_secs_f64() * 1e6,
        stats.hits,
        stats.misses,
    );

    // Segmented ingest: batches fold into the table's *delta* in O(batch).
    // Crossing the seal threshold freezes the delta into an immutable segment —
    // its rows GD-compressed, a fresh synopsis refined over them — in
    // O(threshold), no matter how large the table already is. Queries fan out
    // across segments and merge the per-segment estimates.
    session.set_seal_threshold(10_000);
    for k in 0..4 {
        let batch = pairwisehist::datagen::generate("Power", 5_000, 100 + k).expect("batch");
        let r = session.ingest("Power", &batch).expect("ingest");
        if r.sealed_segments > 0 {
            println!(
                "batch {k}: sealed {} segment(s), staleness {:.2}",
                r.sealed_segments, r.staleness
            );
        }
    }
    let fp = session.footprint_report("Power").expect("footprint");
    println!(
        "resident: {} B synopsis + {} B compressed rows + {} B delta across {} segments",
        fp.synopsis_bytes, fp.row_store_bytes, fp.delta_bytes, fp.segments,
    );
    // Accumulated small segments merge back into one on demand; held plans
    // stay valid (the shared transforms don't change). "Small" is judged
    // against the current threshold, so raising it widens what compacts.
    session.set_seal_threshold(50_000);
    let compacted = session.compact("Power").expect("compact");
    println!(
        "compact: {} -> {} segments ({} rows rebuilt)",
        compacted.segments_before, compacted.segments_after, compacted.rows_compacted,
    );

    // The session is Send + Sync with &self methods throughout: share it across
    // threads as-is. Readers query immutable snapshots while a writer ingests —
    // each ingest builds the replacement synopsis off to the side and swaps it
    // in atomically, so nobody blocks and nobody sees a half-applied batch.
    let t0 = std::time::Instant::now();
    let served: usize = std::thread::scope(|scope| {
        let session = &session;
        scope.spawn(move || {
            let batch = pairwisehist::datagen::generate("Power", 5_000, 43).expect("batch");
            session.ingest("Power", &batch).expect("concurrent ingest");
        });
        let readers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || (0..200).filter(|_| session.sql(queries[0]).is_ok()).count())
            })
            .collect();
        readers.into_iter().map(|h| h.join().expect("reader")).sum()
    });
    println!(
        "4 reader threads answered {served} queries while a writer ingested 5k rows \
         ({:.0} ms wall)",
        t0.elapsed().as_secs_f64() * 1e3,
    );
}
