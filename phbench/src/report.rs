//! The metric catalogue — the names every later issue must use — plus the
//! result line a run prints, the file `phbench run` writes, and
//! `phbench compare`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use ph_server::Json;

use crate::stats::{best_of, Better};
use Better::{Higher, Lower};

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "embedded_hot",
        why: "Pinned in-process Session::sql over 4 sealed Power segments, every query a plan-cache hit: the kernel, segment fan-out and merge do all the work and the server none.",
    },
    WorkloadDef {
        name: "served_hot",
        why: "The same table and query pool through Server::bind and one keep-alive Client connection: identical engine work, so the gap to embedded_hot is the socket, HTTP, JSON and executor hand-off.",
    },
    WorkloadDef {
        name: "ingest_stream",
        why: "2000-row batches with the WAL on, 16 never-seen queries after each, then a crash-style reopen: GreedyGD, cascade, synopsis build and WAL dominate, and no query finds a cached plan.",
    },
    WorkloadDef {
        name: "cold_build",
        why: "Flights (32 columns, up to 496 pairs, categorical-heavy): register from scratch, save, reopen cold, then GROUP-BY-rich queries on one wide segment: construction time and synopsis size.",
    },
];

/// One metric of the catalogue.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// before a change is a regression; 0 for per-layer metrics.
    pub bound: f64,
    /// Whether the inputs alone decide the value: the same seed then gives
    /// the same number to the last digit, and [`compare`] asks for that.
    pub seeded: bool,
    /// The workloads an end-to-end metric is of record on, as ISSUE 11
    /// assigns them. Every workload reports every metric (the benchmark
    /// contract asks for that); on the others the reading is incidental —
    /// set-up batches, a register of the base — and [`compare`] prints it
    /// without gating on it.
    pub of_record: &'static [&'static str],
}

const ALL: &[&str] = &["embedded_hot", "served_hot", "ingest_stream", "cold_build"];
const QUERY_LOOPS: &[&str] = &["embedded_hot", "served_hot", "cold_build"];
const STREAM: &[&str] = &["ingest_stream"];
const COLD: &[&str] = &["cold_build"];
/// Where the engine's answers and synopsis are the workload's subject.
const ENGINE: &[&str] = &["embedded_hot", "cold_build"];
/// `served_hot` holds `embedded_hot`'s table: the same bytes a second time.
const OWN_TABLE: &[&str] = &["embedded_hot", "ingest_stream", "cold_build"];

const fn timed(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    of_record: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        seeded: false,
        of_record,
    }
}

/// The bound of a seeded metric is for comparisons across seeds, where the
/// data itself differs.
const fn seeded(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    of_record: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        seeded: true,
        of_record,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    timed(name, unit, better, 0.0, &[])
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 13] = [
    timed("setup_s", "s", Lower, 0.25, ALL),
    timed("query_p50_us", "us", Lower, 0.25, ALL),
    timed("query_p99_us", "us", Lower, 0.25, ALL),
    timed("query_per_s", "1/s", Higher, 0.25, QUERY_LOOPS),
    timed("ingest_p50_us", "us", Lower, 0.25, STREAM),
    timed("ingest_rows_per_s", "rows/s", Higher, 0.25, STREAM),
    timed("build_rows_per_s", "rows/s", Higher, 0.25, COLD),
    timed("recover_s", "s", Lower, 0.25, STREAM),
    seeded("within_5pct_pct", "%", Higher, 0.2, ENGINE),
    seeded("bound_cover_pct", "%", Higher, 0.2, ENGINE),
    seeded("resident_bytes_per_raw_byte", "B/B", Lower, 0.05, OWN_TABLE),
    seeded("synopsis_bytes_per_raw_byte", "B/B", Lower, 0.25, ENGINE),
    timed("peak_rss_mib", "MiB", Lower, 0.1, ALL),
];

/// Single layers, measured from outside at their public functions in the
/// traced run. No bounds: they explain an end-to-end change, they do not gate.
pub const PER_LAYER: [MetricDef; 73] = [
    layer("sql.parse_us", "us", Lower),
    layer("core.run_plan_us", "us", Lower),
    layer("core.session_execute_us", "us", Lower),
    layer("core.session_sql_hit_us", "us", Lower),
    layer("core.batch_sql_us", "us", Lower),
    layer("core.merge_overhead_us", "us", Lower),
    layer("core.groupby_us", "us", Lower),
    layer("core.prepare_us", "us", Lower),
    layer("core.plan_cache_hit_ratio", "ratio", Higher),
    layer("core.segments", "count", Lower),
    layer("server.healthz_rtt_us", "us", Lower),
    layer("server.http_parse_us", "us", Lower),
    layer("server.json_encode_us", "us", Lower),
    layer("server.response_frame_us", "us", Lower),
    layer("server.client_decode_us", "us", Lower),
    layer("server.query_rtt_us", "us", Lower),
    layer("server.overhead_us", "us", Lower),
    layer("server.unattributed_pct", "%", Lower),
    layer("server.rtt_inline_us", "us", Lower),
    layer("server.rtt_workers1_us", "us", Lower),
    layer("server.pipelined8_per_query_us", "us", Lower),
    layer("server.ingest_csv_rows_per_s", "rows/s", Higher),
    layer("server.rejected_503", "count", Lower),
    layer("obs.stage_http_read_mean_us", "us", Lower),
    layer("obs.stage_queue_wait_mean_us", "us", Lower),
    layer("obs.stage_parse_mean_us", "us", Lower),
    layer("obs.stage_execute_mean_us", "us", Lower),
    layer("obs.stage_serialize_mean_us", "us", Lower),
    layer("obs.tracing_cost_pct", "%", Lower),
    layer("gd.preprocess_fit_ms", "ms", Lower),
    layer("gd.preprocess_encode_ms", "ms", Lower),
    layer("gd.greedy_compress_ms", "ms", Lower),
    layer("gd.columnar_encode_ms", "ms", Lower),
    layer("core.build_from_gd_ms", "ms", Lower),
    layer("gd.decompress_ms", "ms", Lower),
    layer("gd.count_matching_us", "us", Lower),
    layer("gd.greedy_bytes", "B", Lower),
    layer("gd.columnar_bytes", "B", Lower),
    layer("core.plain_batch_us", "us", Lower),
    layer("core.seal_batch_ms", "ms", Lower),
    layer("core.refit_batch_ms", "ms", Lower),
    layer("core.ingest_max_ms", "ms", Lower),
    layer("core.seal_unattributed_pct", "%", Lower),
    layer("core.seals", "count", Lower),
    layer("core.refits", "count", Lower),
    layer("core.wal_batch_overhead_us", "us", Lower),
    layer("core.wal_bytes_per_raw_byte", "B/B", Lower),
    layer("core.durable_ops_per_batch", "count", Lower),
    layer("core.save_dir_ms", "ms", Lower),
    layer("core.open_dir_ms", "ms", Lower),
    layer("core.wal_replay_rows_per_s", "rows/s", Higher),
    layer("core.to_bytes_ms", "ms", Lower),
    layer("core.from_bytes_ms", "ms", Lower),
    layer("core.synopsis_bytes", "B", Lower),
    layer("core.row_store_bytes", "B", Lower),
    layer("core.disk_bytes", "B", Lower),
    layer("core.rel_error_median_pct", "%", Lower),
    layer("core.bound_miss_pct", "%", Lower),
    layer("bench.datagen_s", "s", Lower),
    layer("bench.workload_gen_s", "s", Lower),
    layer("bench.truth_s", "s", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.pinned", "count", Higher),
    layer("bench.spans", "count", Higher),
    layer("bench.spans_dropped", "count", Lower),
    layer("bench.span_bytes_per_span", "B", Lower),
    layer("bench.driver_self_pct", "%", Lower),
    layer("bench.spread_pct.query_p50_us", "%", Lower),
    layer("bench.spread_pct.query_p99_us", "%", Lower),
    layer("bench.spread_pct.query_per_s", "%", Lower),
    layer("bench.spread_pct.ingest_p50_us", "%", Lower),
    layer("bench.spread_pct.ingest_rows_per_s", "%", Lower),
    layer("bench.spread_pct.build_rows_per_s", "%", Lower),
];

/// What one run of one workload found.
#[derive(Default)]
pub struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    /// Operations issued to the program plus correctness checks made.
    pub attempted: u64,
    /// Of those, the ones that failed or failed their check.
    pub failed: u64,
    /// First few failures, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records a metric of the catalogue. Setting one twice, or one the
    /// catalogue does not have, is a driver bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name);
        let def = def.unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(
            self.metrics.insert(def.name, value).is_none(),
            "metric {name} set twice"
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Counts `n` operations as attempted.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation or failed check.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    /// A correctness gate: one attempted check, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// The result line: every metric of `defs`, each a finite number.
    pub fn result_line(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, def) in defs.iter().enumerate() {
            let value = self
                .get(def.name)
                .ok_or(format!("metric {} was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", def.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        line.push_str("}}");
        Ok(line)
    }
}

/// Verdict of [`compare`] for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    /// The runs of one side disagree by more than the bound and the two
    /// sides overlap: the data cannot tell.
    Unresolved,
}

/// Nearest-rank median and `(max − min) / median` of a side's (non-empty) runs.
fn median_and_spread(runs: &[f64], better: Better) -> (f64, f64) {
    let all = best_of(runs, better).expect("a side has at least one run");
    (all.median, all.spread_pct / 100.0)
}

/// Judges side B against side A on one metric. With the spread inside the
/// bound the medians decide; with a wider spread only a clean separation —
/// every run of one side better than every run of the other — counts.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (mid_a, spread_a) = median_and_spread(a, better);
    let (mid_b, spread_b) = median_and_spread(b, better);
    if spread_a.max(spread_b) > bound {
        let all = |x: &[f64], y: &[f64]| x.iter().all(|&u| y.iter().all(|&v| better.beats(u, v)));
        return if all(b, a) {
            Verdict::Better
        } else if all(a, b) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let limit = bound * mid_a.abs();
    let gain = match better {
        Lower => mid_a - mid_b,
        Higher => mid_b - mid_a,
    };
    if gain < -limit {
        Verdict::Worse
    } else if gain > limit {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// One side of a comparison: the files of `phbench run` named, taken together.
struct Side {
    /// The seeds the files were run at.
    seeds: BTreeSet<u64>,
    /// `workload → metric → one value per file`.
    workloads: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

/// Reads one side: `paths` is one file or several separated by commas, their
/// runs pooled (so the two sides can be measured alternately). Anything that
/// would let a comparison pass without comparing is an error: a traced file
/// (it has no end-to-end metrics), a workload with a failed operation or
/// gate, a missing end-to-end metric, files that cover different workloads.
fn read_side(paths: &str) -> Result<Side, String> {
    let mut side = Side {
        seeds: BTreeSet::new(),
        workloads: BTreeMap::new(),
    };
    for (nth, path) in paths.split(',').enumerate() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if doc.get("traced") != Some(&Json::Bool(false)) {
            return Err(format!(
                "{path}: not an end-to-end run (\"traced\" is not false)"
            ));
        }
        let seed = doc.get("seed").and_then(Json::as_f64);
        side.seeds
            .insert(seed.ok_or(format!("{path}: no \"seed\""))? as u64);
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or(format!("{path}: no \"workloads\" object"))?;
        let names: BTreeSet<&String> = workloads.iter().map(|(name, _)| name).collect();
        if nth > 0 && !names.iter().copied().eq(side.workloads.keys()) {
            return Err(format!(
                "{path}: holds {names:?}, the files before it {:?}",
                side.workloads.keys().collect::<Vec<_>>()
            ));
        }
        for (workload, body) in workloads {
            let failed = body.get("failed").and_then(Json::as_f64);
            if failed != Some(0.0) || body.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!(
                    "{path}: {workload} is not a correct run (failed: {failed:?})"
                ));
            }
            let per_metric = side.workloads.entry(workload.clone()).or_default();
            for def in &END_TO_END {
                let value = body
                    .get("metrics")
                    .and_then(|m| m.get(def.name)?.get("value")?.as_f64())
                    .ok_or(format!("{path}: {workload} has no {}", def.name))?;
                per_metric.entry(def.name.into()).or_default().push(value);
            }
        }
    }
    Ok(side)
}

/// `phbench compare A.json[,A2.json…] B.json[,B2.json…]`: per workload ×
/// end-to-end metric, A's and B's medians, the bound, and the verdict.
///
/// With both sides run at one and the same seed, a seeded metric is held to
/// bound 0: any difference is `better` or `worse`. Across seeds the
/// catalogue's bound applies. A verdict in parentheses is a reading
/// incidental to its workload (see [`MetricDef::of_record`]): printed, not
/// gated on. `Ok(true)` when nothing of record is worse.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (read_side(path_a)?, read_side(path_b)?);
    if !a.workloads.keys().eq(b.workloads.keys()) {
        return Err(format!(
            "A holds {:?}, B holds {:?}",
            a.workloads.keys().collect::<Vec<_>>(),
            b.workloads.keys().collect::<Vec<_>>()
        ));
    }
    let same_seed = a.seeds.len() == 1 && a.seeds == b.seeds;
    let mut clean = true;
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>6} {:>6}  verdict",
        "workload", "metric", "A", "B", "better", "bound"
    );
    for w in WORKLOADS
        .iter()
        .filter(|w| a.workloads.contains_key(w.name))
    {
        for def in &END_TO_END {
            let (ra, rb) = (
                &a.workloads[w.name][def.name],
                &b.workloads[w.name][def.name],
            );
            let bound = if def.seeded && same_seed {
                0.0
            } else {
                def.bound
            };
            let v = verdict(ra, rb, def.better, bound);
            let of_record = def.of_record.contains(&w.name);
            clean &= !(of_record && v == Verdict::Worse);
            let label = format!("{v:?}").to_lowercase();
            println!(
                "{:<14} {:<28} {:>14.4} {:>14.4} {:>6} {:>5.0}%  {}",
                w.name,
                def.name,
                median_and_spread(ra, def.better).0,
                median_and_spread(rb, def.better).0,
                def.better.label(),
                bound * 100.0,
                if of_record {
                    label
                } else {
                    format!("({label})")
                }
            );
        }
    }
    Ok(clean)
}

/// The body of a `phbench run` file: for every workload, the result line its
/// child process printed.
pub fn run_file(seed: u64, seconds: u64, traced: bool, results: &[(&str, Json)]) -> String {
    let mut out = format!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"traced\": {traced},\n  \"workloads\": {{\n"
    );
    for (wi, (workload, result)) in results.iter().enumerate() {
        let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let _ = write!(
            out,
            "    \"{workload}\": {{\n      \"correct\": {}, \"attempted\": {}, \"failed\": {},\n      \"metrics\": {{\n",
            result.get("correct") == Some(&Json::Bool(true)),
            count("attempted"),
            count("failed")
        );
        let metrics = result.get("metrics").and_then(Json::as_obj);
        let metrics = metrics.unwrap_or_default();
        for (mi, (name, m)) in metrics.iter().enumerate() {
            let _ = writeln!(
                out,
                "        \"{name}\": {m}{}",
                if mi + 1 < metrics.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            out,
            "      }}\n    }}{}",
            if wi + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_verdicts() {
        use Verdict::*;
        // Tight runs: the medians decide against the bound.
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[104.0, 105.0, 103.0], Lower, 0.1),
            Within
        );
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[115.0, 116.0, 114.0], Lower, 0.1),
            Worse
        );
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[85.0, 86.0, 84.0], Lower, 0.1),
            Better
        );
        // Direction flips for throughput.
        assert_eq!(verdict(&[100.0], &[115.0], Higher, 0.1), Better);
        assert_eq!(verdict(&[100.0], &[85.0], Higher, 0.1), Worse);
        assert_eq!(verdict(&[100.0], &[100.0], Higher, 0.0), Within);
        // Spread wider than the bound and the sides overlap: cannot tell,
        // even though B's median is 20 % worse.
        assert_eq!(
            verdict(&[100.0, 140.0, 90.0], &[120.0, 95.0, 150.0], Lower, 0.1),
            Unresolved
        );
        // Wide spread but cleanly separated: every B run beats every A run.
        assert_eq!(
            verdict(&[100.0, 140.0, 110.0], &[60.0, 90.0, 70.0], Lower, 0.1),
            Better
        );
        assert_eq!(
            verdict(&[60.0, 90.0, 70.0], &[100.0, 140.0, 110.0], Lower, 0.1),
            Worse
        );
        // Seeded metrics at one seed use bound 0: any change is a verdict.
        assert_eq!(verdict(&[0.5, 0.5], &[0.5, 0.5], Lower, 0.0), Within);
        assert_eq!(verdict(&[0.5, 0.5], &[0.501, 0.501], Lower, 0.0), Worse);
        assert_eq!(verdict(&[0.5, 0.5], &[0.499, 0.499], Lower, 0.0), Better);
        assert_eq!(verdict(&[0.5, 0.5], &[0.5, 0.501], Lower, 0.0), Unresolved);
    }

    #[test]
    fn outcome_counts_and_prints() {
        let mut out = Outcome::default();
        out.attempt(10);
        out.check(true, || unreachable!());
        assert_eq!((out.attempted, out.failed), (11, 0));
        for def in &END_TO_END {
            out.set(def.name, 1.25);
        }
        let line = out.result_line(&END_TO_END).unwrap();
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            doc.get("metrics").and_then(Json::as_obj).unwrap().len(),
            END_TO_END.len()
        );
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        out.check(false, || "gate".into());
        assert!(out
            .result_line(&END_TO_END)
            .unwrap()
            .starts_with("{\"correct\": false"));
        // A per-layer line needs per-layer metrics.
        assert!(out.result_line(&PER_LAYER).is_err());
    }

    /// A `phbench run` file of one workload whose every metric reads `v`.
    fn file_of(dir: &std::path::Path, name: &str, workload: &'static str, v: f64) -> String {
        let mut out = Outcome::default();
        out.check(true, || unreachable!());
        for def in &END_TO_END {
            out.set(def.name, v);
        }
        let line = Json::parse(&out.result_line(&END_TO_END).unwrap()).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, run_file(1, 10, false, &[(workload, line)])).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("phbench_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn run_files_feed_compare() {
        let dir = scratch("cmp");
        let a: Vec<String> = [10.0, 10.1, 9.9]
            .iter()
            .enumerate()
            .map(|(i, v)| file_of(&dir, &format!("a{i}.json"), "embedded_hot", *v))
            .collect();
        // Several files on one side pool their runs.
        let side = read_side(&a.join(",")).unwrap();
        assert_eq!(
            side.workloads["embedded_hot"]["query_p50_us"],
            vec![10.0, 10.1, 9.9]
        );
        assert_eq!(side.seeds.into_iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(compare(&a.join(","), &a.join(",")), Ok(true));
        // 30 % higher reads worse on every lower-is-better metric.
        let slow = file_of(&dir, "slow.json", "embedded_hot", 13.0);
        assert_eq!(compare(&a[0], &slow), Ok(false));
        // At one seed a seeded metric is held to the last digit: 0.1 % off is
        // inside every timing bound and still a verdict.
        let off = file_of(&dir, "off.json", "embedded_hot", 10.01);
        assert_eq!(compare(&a[0], &off), Ok(false));
        // On served_hot every metric that 0.1 % moves is incidental or timed.
        let served = file_of(&dir, "s.json", "served_hot", 10.0);
        let served_off = file_of(&dir, "s_off.json", "served_hot", 10.01);
        assert_eq!(compare(&served, &served_off), Ok(true));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compare_refuses_what_it_cannot_compare() {
        let dir = scratch("refuse");
        let good = file_of(&dir, "good.json", "embedded_hot", 10.0);
        let text = std::fs::read_to_string(&good).unwrap();
        let write = |name: &str, text: String| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            path.to_string_lossy().into_owned()
        };
        // A traced file has no end-to-end metrics to compare.
        let traced = write(
            "traced.json",
            text.replace("\"traced\": false", "\"traced\": true"),
        );
        // A run with a failed gate is not a measurement.
        let failed = write(
            "failed.json",
            text.replace(
                "\"correct\": true, \"attempted\": 1, \"failed\": 0",
                "\"correct\": false, \"attempted\": 1, \"failed\": 1",
            ),
        );
        // A missing metric, a workload only one side has.
        let partial = write("partial.json", text.replace("\"recover_s\"", "\"x\""));
        let other = file_of(&dir, "other.json", "cold_build", 10.0);
        for bad in [&traced, &failed, &partial, &other] {
            assert!(compare(&good, bad).is_err(), "{bad} as B");
            assert!(compare(bad, &good).is_err(), "{bad} as A");
        }
        assert!(compare(&good, &format!("{good},{other}")).is_err());
        assert_eq!(compare(&good, &good), Ok(true));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `BENCHMARK.json` at the repository root must describe exactly this
    /// catalogue; on a mismatch the expected text is in the failure message.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let mut want = String::from("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"phbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"phbench\"],\n  \"run_seconds\": 10,\n  \"workloads\": [\n");
        for (i, w) in WORKLOADS.iter().enumerate() {
            let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
            let _ = writeln!(
                want,
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
                w.name, w.why
            );
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        want.push_str("  ],\n  \"end_to_end\": [\n");
        for (i, m) in END_TO_END.iter().enumerate() {
            let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
            let _ = writeln!(
                want,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
                m.name, m.unit, m.better.label(), m.bound
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(!m.of_record.is_empty(), "{} gates nowhere", m.name);
            for w in m.of_record {
                assert!(WORKLOADS.iter().any(|d| d.name == *w), "{w}?");
            }
        }
        want.push_str("  ],\n  \"per_layer\": [\n");
        for (i, m) in PER_LAYER.iter().enumerate() {
            let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
            let _ = writeln!(
                want,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
                m.name,
                m.unit,
                m.better.label()
            );
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
        }
        want.push_str("  ]\n}\n");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let have = std::fs::read_to_string(path).unwrap_or_default();
        assert!(
            have == want,
            "BENCHMARK.json is out of date; it should read:\n{want}"
        );
    }
}
