//! Pins the *shape* of every read-only endpoint: the sorted key-paths of the
//! JSON documents and the sorted `# TYPE` lines of the Prometheus exposition,
//! after one registered table, one query and one ingest. Values are free to
//! move; a key or metric family that disappears, is renamed or changes kind
//! is a wire break for dashboards and scrapers and fails here.

use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use ph_core::Session;
use ph_server::http::HttpConn;
use ph_server::{Client, Json, Server, ServerConfig};
use ph_types::{Column, Dataset};

/// One GET on a fresh connection; returns the response body.
fn get(addr: SocketAddr, path: &str) -> String {
    let mut conn = HttpConn::new(TcpStream::connect(addr).unwrap());
    conn.write_request("GET", path, "text/plain", b"").unwrap();
    let (status, _, body) = conn.read_response(1 << 20).unwrap();
    assert_eq!(status, 200, "{path}");
    String::from_utf8(body).unwrap()
}

/// Collects `a.b`, `a[]`, `a[].c` … for every member reachable from `doc`.
/// `codec_mix` is a leaf: its keys are codec names chosen from the data, not
/// part of the document's shape.
fn key_paths(doc: &Json, prefix: &str, out: &mut BTreeSet<String>) {
    match doc {
        Json::Obj(members) => {
            for (k, v) in members {
                let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                out.insert(path.clone());
                if k != "codec_mix" {
                    key_paths(v, &path, out);
                }
            }
        }
        Json::Arr(items) => {
            let path = format!("{prefix}[]");
            for item in items {
                key_paths(item, &path, out);
            }
        }
        _ => {}
    }
}

fn paths_of(body: &str) -> Vec<String> {
    let doc = Json::parse(body).expect("endpoint answers JSON");
    let mut out = BTreeSet::new();
    key_paths(&doc, "", &mut out);
    out.into_iter().collect()
}

fn endpoint_paths() -> Vec<String> {
    let mut out = Vec::new();
    for e in ["debug", "healthz", "ingest", "metrics", "other", "query", "stats", "tables"] {
        out.push(format!("server.endpoints.{e}"));
        for k in ["p50_us", "p90_us", "p99_us", "requests", "status_4xx", "status_5xx"] {
            out.push(format!("server.endpoints.{e}.{k}"));
        }
    }
    out
}

#[test]
fn read_only_endpoints_keep_their_keys_and_metric_families() {
    let n = 4_000;
    let data = Dataset::builder("demo")
        .column(Column::from_ints("x", (0..n).map(|i| Some((i * 7) % 1000)).collect()))
        .unwrap()
        .column(Column::from_ints("y", (0..n).map(|i| Some((i * 13) % 500)).collect()))
        .unwrap()
        .build();
    let session = Arc::new(Session::new());
    session.register(data).unwrap();
    // Threshold 0: the one query lands in the slow ring, so its entry's keys
    // are pinned too.
    let cfg = ServerConfig { slow_query_threshold_us: 0, ..Default::default() };
    let server = Server::bind(session, "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let mut client = Client::new(addr.to_string());
    client.query("SELECT COUNT(y) FROM demo WHERE x > 500;").unwrap();
    client.ingest_csv("demo", "x,y\n1,2\n3,4\n").unwrap();

    let mut stats: Vec<String> = [
        "plan_cache",
        "plan_cache.entries",
        "plan_cache.hits",
        "plan_cache.misses",
        "quarantined",
        "server",
        "server.connections",
        "server.connections.accepted",
        "server.connections.executor_queue_hwm",
        "server.connections.open",
        "server.connections.pipelined_requests",
        "server.connections.queries_on_loop",
        "server.connections.rejected",
        "server.endpoints",
        "server.max_connections",
        "server.queue_depth",
        "server.rejected_503",
        "server.workers",
        "tables",
        "tables[].checkpoint_failures",
        "tables[].checkpoints",
        "tables[].codec_mix",
        "tables[].delta_rows",
        "tables[].epoch",
        "tables[].footprint",
        "tables[].footprint.delta_bytes",
        "tables[].footprint.row_store_bytes",
        "tables[].footprint.synopsis_bytes",
        "tables[].footprint.total_bytes",
        "tables[].name",
        "tables[].sealed_rows",
        "tables[].segments",
        "tables[].segments_consulted",
        "tables[].segments_pruned",
        "tables[].staleness",
        "tables[].wal_records",
        "uptime_seconds",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain(endpoint_paths())
    .collect();
    stats.sort();
    assert_eq!(paths_of(&get(addr, "/stats")), stats, "GET /stats");

    assert_eq!(
        paths_of(&get(addr, "/tables")),
        [
            "tables",
            "tables[].delta_rows",
            "tables[].epoch",
            "tables[].name",
            "tables[].sealed_rows",
            "tables[].segments",
            "tables[].staleness",
        ],
        "GET /tables"
    );

    assert_eq!(
        paths_of(&get(addr, "/healthz")),
        ["status", "tables", "uptime_seconds", "version"],
        "GET /healthz"
    );

    // With tracing compiled out nothing reaches the slow ring, so only the
    // envelope is there to pin.
    let slow: Vec<&str> = [
        "cap",
        "count",
        "slow",
        "slow[].fingerprint",
        "slow[].spans",
        "slow[].spans[].dur_us",
        "slow[].spans[].id",
        "slow[].spans[].parent",
        "slow[].spans[].stage",
        "slow[].spans[].start_us",
        "slow[].status",
        "slow[].total_us",
        "slow[].unix_ms",
        "threshold_us",
    ]
    .into_iter()
    .filter(|p| !(cfg!(feature = "obs-off") && p.starts_with("slow[]")))
    .collect();
    assert_eq!(paths_of(&get(addr, "/debug/slow")), slow, "GET /debug/slow");

    let metrics = get(addr, "/metrics");
    let mut families: Vec<&str> =
        metrics.lines().filter_map(|l| l.strip_prefix("# TYPE ")).collect();
    families.sort_unstable();
    assert_eq!(
        families,
        [
            "ph_checkpoints_total counter",
            "ph_connections_accepted_total counter",
            "ph_connections_open gauge",
            "ph_exec_batch_size histogram",
            "ph_executor_queue_hwm gauge",
            "ph_http_errors_total counter",
            "ph_http_request_seconds histogram",
            "ph_http_requests_total counter",
            "ph_ingest_batches_total counter",
            "ph_loop_events_per_wake histogram",
            "ph_loop_poll_wait_seconds histogram",
            "ph_pipelined_requests_total counter",
            "ph_plan_cache_hits_total counter",
            "ph_plan_cache_misses_total counter",
            "ph_queries_on_loop_total counter",
            "ph_queries_total counter",
            "ph_query_stage_seconds histogram",
            "ph_requests_rejected_total counter",
            "ph_segments_consulted_total counter",
            "ph_segments_pruned_total counter",
            "ph_slow_queries_retained gauge",
            "ph_span_ring_spans gauge",
            "ph_table_bytes gauge",
            "ph_table_rows gauge",
            "ph_timer_wheel_fired_total counter",
            "ph_uptime_seconds gauge",
            "ph_wal_records gauge",
        ],
        "GET /metrics families"
    );
    server.shutdown();
}
