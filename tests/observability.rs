//! End-to-end acceptance of the observability surface (`ph_obs` through the
//! server):
//!
//! 1. **/metrics** renders Prometheus text that parses line by line, carries
//!    the CI-required families, and its counters advance as traffic flows.
//! 2. **/debug/slow** shows the last slow queries with a ≥6-stage breakdown,
//!    identified by SQL fingerprint — never raw query text.
//! 3. **/healthz** reports version + uptime; **/stats** serves registry-backed
//!    p50/p90/p99 from the log₂ histograms.
//! 4. **`Session::trace_report`** returns the same staged story without a
//!    server in the loop, and inline mode (`workers: 0`) traces identically.

use std::collections::BTreeSet;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use pairwisehist::prelude::*;
use pairwisehist::server::{Json, Server};

fn dataset(n: usize) -> Dataset {
    let x: Vec<Option<i64>> = (0..n).map(|i| Some((i as i64 * 13) % 1000)).collect();
    let y: Vec<Option<i64>> = (0..n).map(|i| Some((i as i64 * 7) % 5000)).collect();
    Dataset::builder("obs")
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_ints("y", y))
        .unwrap()
        .build()
}

/// Raw HTTP GET: returns (status line, body) once the server closes the
/// connection.
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(conn, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut bytes = Vec::new();
    std::io::Read::read_to_end(&mut conn, &mut bytes).unwrap();
    let text = String::from_utf8(bytes).expect("response is UTF-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("has a blank line");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// Parses one exposition sample line into (metric name, value).
fn sample(line: &str) -> (String, f64) {
    let (head, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value: {line:?}"));
    let value: f64 = value.parse().unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"));
    let name = head.split_once('{').map_or(head, |(n, _)| n);
    (name.to_string(), value)
}

/// Every sample in the body, validating the whole text line by line.
fn parse_exposition(body: &str) -> Vec<(String, f64)> {
    let mut families = BTreeSet::new();
    let mut samples = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (family, help) = rest.split_once(' ').unwrap_or_else(|| panic!("{line:?}"));
            assert!(!help.trim().is_empty(), "family {family} has empty help");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, kind) = rest.split_once(' ').unwrap_or_else(|| panic!("{line:?}"));
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "{line:?}");
            families.insert(family.to_string());
        } else if !line.is_empty() {
            let (name, value) = sample(line);
            assert!(!value.is_nan(), "NaN sample: {line:?}");
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|sfx| name.strip_suffix(sfx).filter(|f| families.contains(*f)))
                .unwrap_or(&name);
            assert!(families.contains(family), "sample without # TYPE: {line:?}");
            samples.push((name, value));
        }
    }
    samples
}

fn value_of(samples: &[(String, f64)], name: &str) -> f64 {
    samples
        .iter()
        .filter(|(n, _)| n == name)
        .map(|(_, v)| v)
        .sum()
}

#[test]
fn metrics_scrape_parses_and_advances_with_traffic() {
    let session = Arc::new(Session::new());
    session.register(dataset(8_000)).unwrap();
    let server = Server::bind(
        session,
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let (status, body) = http_get(&addr, "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    let before = parse_exposition(&body);

    // The CI-gated families are present from the first scrape, before any
    // query traffic (zero-valued, not absent).
    for family in [
        "ph_queries_total",
        "ph_query_stage_seconds",
        "ph_ingest_batches_total",
        "ph_connections_open",
        "ph_http_requests_total",
        "ph_uptime_seconds",
        "ph_table_bytes",
        "ph_plan_cache_hits_total",
    ] {
        assert!(
            before.iter().any(|(n, _)| n.starts_with(family)),
            "family {family} missing from first scrape"
        );
    }

    let mut client = Client::new(addr.clone());
    for _ in 0..5 {
        client.query("SELECT AVG(y) FROM obs WHERE x > 500;").unwrap();
    }
    client.ingest_rows(
        "obs",
        (0..50)
            .map(|i| {
                Json::Obj(vec![
                    ("x".into(), Json::Num(f64::from(i))),
                    ("y".into(), Json::Num(f64::from(i * 3))),
                ])
            })
            .collect(),
    )
    .unwrap();

    let (_, body) = http_get(&addr, "/metrics");
    let after = parse_exposition(&body);
    assert_eq!(value_of(&after, "ph_queries_total") as u64, 5);
    assert_eq!(value_of(&after, "ph_ingest_batches_total") as u64, 1);
    assert!(
        value_of(&after, "ph_query_stage_seconds_count")
            > value_of(&before, "ph_query_stage_seconds_count"),
        "stage histograms did not advance with traffic"
    );
    // Plan cache: 5 identical templates = 1 miss + 4 hits, visible at scrape.
    assert_eq!(value_of(&after, "ph_plan_cache_hits_total") as u64, 4);
    server.shutdown();
}

#[test]
fn debug_slow_breaks_queries_into_stages_without_leaking_sql() {
    let session = Arc::new(Session::new());
    session.register(dataset(8_000)).unwrap();
    let server = Server::bind(
        session,
        "127.0.0.1:0",
        // Threshold 0: every query is "slow", so forensics fill immediately.
        ServerConfig { workers: 2, slow_query_threshold_us: 0, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // Literals no microsecond timing or 16-hex fingerprint can spell by chance.
    let secret = "SELECT SUM(y) FROM obs WHERE x > -918273645 AND x < 918273699;";
    let mut client = Client::new(addr.clone());
    client.query(secret).unwrap();
    client.query(secret).unwrap();

    let (status, body) = http_get(&addr, "/debug/slow");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    // The forensics surface must never carry query text or literals.
    let leaked = ["SELECT", "918273645", "918273699"].iter().any(|s| body.contains(s));
    assert!(!leaked, "raw SQL leaked: {body}");

    let report = Json::parse(&body).unwrap();
    let entries = report.get("slow").and_then(Json::as_arr).unwrap();
    assert_eq!(entries.len(), 2, "{body}");
    let mut fingerprints = BTreeSet::new();
    for entry in entries {
        let fp = entry.get("fingerprint").and_then(Json::as_str).unwrap();
        assert_eq!(fp.len(), 16, "fingerprint not 16-hex: {fp}");
        assert!(fp.chars().all(|c| c.is_ascii_hexdigit()), "{fp}");
        fingerprints.insert(fp.to_string());
        assert_eq!(entry.get("status").and_then(Json::as_f64), Some(200.0));

        let spans = entry.get("spans").and_then(Json::as_arr).unwrap();
        let stages: BTreeSet<&str> =
            spans.iter().filter_map(|s| s.get("stage").and_then(Json::as_str)).collect();
        assert!(
            stages.len() >= 6,
            "expected a >=6-stage breakdown, got {stages:?} in {body}"
        );
        for required in ["http_read", "admission", "query", "execute", "serialize"] {
            assert!(stages.contains(required), "stage {required} missing: {stages:?}");
        }
        // One of the plan-cache markers fires on every query.
        assert!(
            stages.contains("plan_cache_hit") || stages.contains("plan_cache_miss"),
            "{stages:?}"
        );
    }
    // Same template twice → same canonical fingerprint.
    assert_eq!(fingerprints.len(), 1, "{fingerprints:?}");
    server.shutdown();
}

#[test]
fn healthz_and_stats_expose_version_uptime_and_quantiles() {
    let session = Arc::new(Session::new());
    session.register(dataset(6_000)).unwrap();
    let server = Server::bind(
        session,
        "127.0.0.1:0",
        ServerConfig { workers: 2, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let mut client = Client::new(addr.clone());
    for _ in 0..4 {
        client.query("SELECT COUNT(y) FROM obs WHERE x > 100;").unwrap();
    }

    let health = client.healthz().unwrap();
    assert_eq!(
        health.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION")),
        "{health}"
    );
    assert!(health.get("uptime_seconds").and_then(Json::as_f64).unwrap() >= 0.0);

    let stats = client.stats().unwrap();
    let endpoints = stats
        .get("server")
        .and_then(|s| s.get("endpoints"))
        .expect("server.endpoints in /stats");
    let query_ep = endpoints.get("query").unwrap_or_else(|| panic!("{stats}"));
    assert_eq!(query_ep.get("requests").and_then(Json::as_f64), Some(4.0));
    for q in ["p50_us", "p90_us", "p99_us"] {
        let v = query_ep.get(q).and_then(Json::as_f64).unwrap_or_else(|| panic!("{stats}"));
        assert!(v.is_finite() && v >= 0.0, "{q} = {v}");
    }
    server.shutdown();
}

#[test]
fn inline_mode_traces_queries_identically() {
    let session = Arc::new(Session::new());
    session.register(dataset(4_000)).unwrap();
    let server = Server::bind(
        session,
        "127.0.0.1:0",
        // workers: 0 executes on the event loop — no QueueWait, but the rest
        // of the staged story must be intact.
        ServerConfig { workers: 0, slow_query_threshold_us: 0, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::new(addr.clone());
    client.query("SELECT AVG(y) FROM obs WHERE x > 250;").unwrap();

    let (_, body) = http_get(&addr, "/debug/slow");
    let report = Json::parse(&body).unwrap();
    let entries = report.get("slow").and_then(Json::as_arr).unwrap();
    assert_eq!(entries.len(), 1, "{body}");
    let stages: BTreeSet<&str> = entries[0]
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|s| s.get("stage").and_then(Json::as_str))
        .collect();
    assert!(stages.len() >= 6, "inline trace too thin: {stages:?}");
    for required in ["http_read", "admission", "query", "execute", "serialize"] {
        assert!(stages.contains(required), "stage {required} missing: {stages:?}");
    }
    server.shutdown();
}

#[test]
fn trace_report_tells_the_same_story_without_a_server() {
    let session = Session::new();
    session.register(dataset(6_000)).unwrap();
    let (answer, spans) =
        session.trace_report("SELECT AVG(y) FROM obs WHERE x > 500;").unwrap();
    assert_eq!(answer, session.sql("SELECT AVG(y) FROM obs WHERE x > 500;").unwrap());

    let stages: BTreeSet<&str> = spans.iter().map(|s| s.stage.name()).collect();
    assert!(stages.len() >= 5, "trace_report too thin: {stages:?}");
    for required in ["parse", "plan", "execute", "estimate"] {
        assert!(stages.contains(required), "stage {required} missing: {stages:?}");
    }
    // Spans are well-formed: unique IDs, parents precede children.
    let mut ids: Vec<u32> = spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), spans.len(), "duplicate span IDs");
    for s in &spans {
        assert!(s.parent < s.id, "parent {} !< id {}", s.parent, s.id);
    }
}

/// A fan-out says which segments it skipped: under `execute`, one child per
/// engine in segment order — a `prune` marker for each one a range cannot
/// reach, an `estimate` span for each one folded — then the `merge`; and the
/// table's running totals count the same two kinds.
#[test]
fn execute_span_marks_pruned_segments_beside_estimated_ones() {
    use pairwisehist::core::obs::Stage;

    // Four time-sliced segments: `t` ascends across them (row 0 of each repeats
    // the minimum, so no slice forces a refit).
    let slice = |k: i64| {
        let mut t: Vec<Option<i64>> = (0..2_000).map(|i| Some(5_000 + k * 2_000 + i)).collect();
        t[0] = Some(0);
        let v: Vec<Option<i64>> = (0..2_000).map(|i| Some((i * 37 + k) % 900)).collect();
        Dataset::builder("obs")
            .column(Column::from_ints("t", t))
            .unwrap()
            .column(Column::from_ints("v", v))
            .unwrap()
            .build()
    };
    let session = Session::new();
    session.set_max_staleness(f64::INFINITY);
    session.set_seal_threshold(2_000);
    session.register(slice(0)).unwrap();
    for k in 1..4 {
        session.ingest("obs", &slice(k)).unwrap();
    }
    assert_eq!(session.table_stats("obs").unwrap().segments, 4);

    // Reaches the last two slices only.
    let sql = "SELECT SUM(v) FROM obs WHERE t > 9100 AND v < 600;";
    let (answer, spans) = session.trace_report(sql).unwrap();
    let execute = spans.iter().find(|s| s.stage == Stage::Execute).expect("an execute span");
    let mut children: Vec<_> = spans.iter().filter(|s| s.parent == execute.id).collect();
    children.sort_by_key(|s| s.id);
    let stages: Vec<Stage> = children.iter().map(|s| s.stage).collect();
    assert_eq!(
        stages,
        [Stage::Prune, Stage::Prune, Stage::Estimate, Stage::Estimate, Stage::Merge]
    );

    let stats = session.table_stats("obs").unwrap();
    assert_eq!((stats.segments_consulted, stats.segments_pruned), (2, 2));
    // Untraced, the same plan answers the same and counts the same way.
    assert_eq!(session.sql(sql).unwrap(), answer);
    let stats = session.table_stats("obs").unwrap();
    assert_eq!((stats.segments_consulted, stats.segments_pruned), (4, 4));
}

/// A seal explains itself the way a query does: under the `seal` span sit the
/// synopsis refinement and the codec cascade, in that order, and together
/// they account for most of it.
#[test]
fn seal_span_breaks_down_into_synopsis_and_codec() {
    use pairwisehist::core::obs::{trace, Stage, Trace};

    let session = Session::new();
    session.set_seal_threshold(2_000);
    session.register(dataset(2_000)).unwrap();
    trace::install(Trace::new());
    let report = session.ingest("obs", &dataset(2_500)).unwrap();
    let spans = trace::take().map(Trace::into_spans).unwrap_or_default();
    assert!(report.sealed_segments > 0, "the batch was meant to seal: {report:?}");

    let seals: Vec<_> = spans.iter().filter(|s| s.stage == Stage::Seal).collect();
    assert_eq!(seals.len(), report.sealed_segments, "one seal span per sealed segment");
    for seal in seals {
        let children: Vec<_> = spans.iter().filter(|s| s.parent == seal.id).collect();
        let stages: Vec<Stage> = children.iter().map(|s| s.stage).collect();
        assert_eq!(stages, [Stage::Synopsis, Stage::Codec]);
        let covered: u64 = children.iter().map(|s| s.dur_ns).sum();
        assert!(covered <= seal.dur_ns, "children outlast their parent");
        // Only the encode of the sealed rows runs outside the two children.
        assert!(
            covered * 2 >= seal.dur_ns,
            "{covered} of {} ns attributed: the seal's anatomy has a hole",
            seal.dur_ns
        );
    }
}

/// A plain journaled batch explains itself too: admission (schema check and
/// categorical resolution), the journal append and its fsync, then the fold,
/// in that order — so the step that once dominated a wide table's appends
/// would show if it came back.
#[test]
fn plain_ingest_breaks_down_into_admit_wal_and_fold() {
    use pairwisehist::core::obs::{trace, Stage, Trace};

    let dir = std::env::temp_dir().join(format!("ph_obs_admit_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let session = Session::new();
    session.register(dataset(4_000)).unwrap();
    session.enable_wal(&dir).unwrap();
    session.ingest("obs", &dataset(100)).unwrap();
    trace::install(Trace::new());
    let report = session.ingest("obs", &dataset(100)).unwrap();
    let spans = trace::take().map(Trace::into_spans).unwrap_or_default();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!report.rebuilt, "the batch was meant to fold: {report:?}");
    let stages: Vec<Stage> = spans.iter().filter(|s| s.parent == 0).map(|s| s.stage).collect();
    assert_eq!(stages, [Stage::Admit, Stage::WalAppend, Stage::WalFsync, Stage::Fold]);
}

/// Under a WAL home a seal is a checkpoint, and the trace says so: after the
/// journal append and the `seal` spans comes one `checkpoint` span, their
/// sibling, last; a `compact` commits its merged segment under one too. The
/// table's counters agree, and nothing is left for a restart to replay.
#[test]
fn seal_and_compact_under_a_wal_end_in_a_checkpoint_span() {
    use pairwisehist::core::obs::{trace, Stage, Trace};

    let dir = std::env::temp_dir().join(format!("ph_obs_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = Session::new();
    session.set_seal_threshold(2_000);
    session.enable_wal(&dir).unwrap();
    session.register(dataset(2_000)).unwrap();
    let roots = |work: &dyn Fn()| -> Vec<Stage> {
        trace::install(Trace::new());
        work();
        let spans = trace::take().map(Trace::into_spans).unwrap_or_default();
        spans.iter().filter(|s| s.parent == 0).map(|s| s.stage).collect()
    };

    let sealing = roots(&|| assert_eq!(session.ingest("obs", &dataset(2_500)).unwrap().sealed_segments, 2));
    assert_eq!(
        sealing,
        [Stage::Admit, Stage::WalAppend, Stage::WalFsync, Stage::Seal, Stage::Seal, Stage::Checkpoint]
    );
    session.set_seal_threshold(5_000); // every segment is small now
    let compacting = roots(&|| assert_eq!(session.compact("obs").unwrap().segments_after, 1));
    assert_eq!(compacting.iter().filter(|s| **s == Stage::Checkpoint).count(), 1);
    assert_eq!(compacting.last(), Some(&Stage::Checkpoint), "{compacting:?}");

    // Registration, the seal, the policy change and the compaction.
    let stats = session.table_stats("obs").unwrap();
    assert_eq!((stats.checkpoints, stats.checkpoint_failures, stats.wal_records), (4, 0, 0));
    std::fs::remove_dir_all(&dir).unwrap();
}
