//! Edge analytics scenario from the paper's introduction: a resource-constrained
//! device holds only the sub-megabyte synopsis catalog, answers local analytics
//! queries in microseconds, and syncs nothing but the catalog directory from the
//! cloud.
//!
//! The whole flow goes through the [`Session`] facade: the cloud side registers
//! the table and persists the catalog with `save_dir`; the edge side reopens it
//! cold with `open_dir` — synopsis plus preprocessing transforms travel together,
//! no raw rows cross the network.
//!
//! ```text
//! cargo run --release --example edge_analytics
//! ```

use pairwisehist::prelude::*;

fn main() {
    // --- Cloud side: ten million IoT temperature readings (scaled down here) ---
    let cloud_data = pairwisehist::datagen::generate("Temp", 500_000, 3).expect("dataset");
    let n_rows = cloud_data.n_rows();
    let exact = ExactEngine::new(cloud_data.clone());

    let cloud = Session::with_config(PairwiseHistConfig::default());
    cloud.register(cloud_data).expect("register table");

    let dir = std::env::temp_dir().join("pairwisehist_edge_catalog");
    let n_tables = cloud.save_dir(&dir).expect("persist catalog");
    let wire_bytes: u64 = std::fs::read_dir(&dir)
        .expect("catalog dir")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    println!(
        "cloud: {n_rows} rows registered; catalog to ship: {n_tables} table(s), {wire_bytes} bytes at {}",
        dir.display()
    );

    // --- Edge side: only the catalog directory crossed the network ---
    let edge = Session::open_dir(&dir).expect("catalog reopens cold");
    println!(
        "edge: catalog loaded, tables: {:?}, {} bytes resident\n",
        edge.tables(),
        edge.footprint()
    );

    let questions = [
        (
            "how many readings above 25C?",
            "SELECT COUNT(temperature) FROM Temp WHERE temperature > 25;",
        ),
        ("average humidity when warm", "SELECT AVG(humidity) FROM Temp WHERE temperature > 20;"),
        (
            "median temperature on sensor0",
            "SELECT MEDIAN(temperature) FROM Temp WHERE device = 'sensor0';",
        ),
        ("worst-case battery under load", "SELECT MIN(battery) FROM Temp WHERE temperature > 22;"),
        (
            "per-device hot readings",
            "SELECT COUNT(temperature) FROM Temp WHERE temperature > 25 GROUP BY device;",
        ),
    ];
    for (label, sql) in questions {
        let t0 = std::time::Instant::now();
        let answer = edge.sql(sql).expect("supported query");
        let micros = t0.elapsed().as_secs_f64() * 1e6;
        match answer {
            AqpAnswer::Scalar(Some(e)) => {
                println!("{label}: {:.2} in [{:.2}, {:.2}]  ({micros:.0} us)", e.value, e.lo, e.hi)
            }
            AqpAnswer::Scalar(None) => println!("{label}: no matching data ({micros:.0} us)"),
            AqpAnswer::Groups(groups) => {
                println!("{label} ({micros:.0} us):");
                for (device, e) in groups {
                    println!("    {device}: {:.0} in [{:.0}, {:.0}]", e.value, e.lo, e.hi);
                }
            }
        }
    }

    // Sanity: the edge answers agree with exact evaluation on the cloud data.
    let sql = "SELECT AVG(humidity) FROM Temp WHERE temperature > 20;";
    let est = edge.sql(sql).unwrap().scalar().unwrap();
    let query = parse_query(sql).unwrap();
    let truth = exact.answer(&query).unwrap().scalar().unwrap().value;
    println!(
        "\ncheck vs cloud ground truth: estimate {:.3} vs exact {:.3} ({:.2}% error)",
        est.value,
        truth,
        (est.value - truth).abs() / truth * 100.0
    );

    let _ = std::fs::remove_dir_all(&dir);
}
