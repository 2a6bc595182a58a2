//! Integration tests of the serving layer over real loopback sockets: answer
//! fidelity vs the in-process `Session`, the `PhError` → HTTP status contract,
//! ingest through both body formats, the ingest error regression (unknown
//! table / mismatched schema must be clean 4xx, and must not poison the
//! server), and the query log.

use std::sync::Arc;

use ph_core::Session;
use ph_server::{read_query_log, Client, ClientError, Json, Server, ServerConfig};
use ph_types::{Column, Dataset, PhError};

fn demo_dataset(name: &str, n: usize) -> Dataset {
    // Deterministic, mixed-type, with anchored minima so in-distribution
    // ingest batches stay on the edge-free path.
    let x: Vec<Option<i64>> = (0..n).map(|i| Some((i as i64 * 7) % 1000)).collect();
    let y: Vec<Option<f64>> =
        (0..n).map(|i| if i % 29 == 0 { None } else { Some(((i as i64 * 13) % 500) as f64 / 10.0) }).collect();
    let c: Vec<Option<&str>> = (0..n).map(|i| Some(["a", "b", "c", "d"][i % 4])).collect();
    Dataset::builder(name)
        .column(Column::from_ints("x", x))
        .unwrap()
        .column(Column::from_floats("y", y, 1))
        .unwrap()
        .column(Column::from_strings("c", c))
        .unwrap()
        .build()
}

fn serve(session: Arc<Session>, cfg: ServerConfig) -> (Server, Client) {
    let server = Server::bind(session, "127.0.0.1:0", cfg).expect("bind ephemeral port");
    let client = Client::new(server.local_addr().to_string());
    (server, client)
}

#[test]
fn query_answers_match_direct_session_bit_identically() {
    let session = Arc::new(Session::new());
    session.register(demo_dataset("demo", 9_000)).unwrap();
    let (server, mut client) = serve(session.clone(), ServerConfig::default());
    for sql in [
        "SELECT COUNT(y) FROM demo WHERE x > 500;",
        "SELECT AVG(y) FROM demo WHERE x > 100 AND x < 900;",
        "SELECT SUM(y) FROM demo WHERE x <= 250 OR c = 'b';",
        "SELECT VAR(y) FROM demo WHERE x > 10;",
        "SELECT MEDIAN(y) FROM demo WHERE x > 10;",
        "SELECT COUNT(y) FROM demo WHERE x > 500 GROUP BY c;",
        // Empty selection → SQL NULL for AVG.
        "SELECT AVG(y) FROM demo WHERE x > 100000;",
    ] {
        let via_server = client.query(sql).expect(sql);
        let direct = session.sql(sql).expect(sql);
        assert_eq!(via_server, direct, "wire round trip must be bit-identical for {sql}");
    }
    server.shutdown();
}

#[test]
fn error_statuses_follow_the_mapping() {
    let session = Arc::new(Session::new());
    session.register(demo_dataset("demo", 2_000)).unwrap();
    let (server, mut client) = serve(session, ServerConfig::default());

    // Parse error: 400 with the byte offset recovered.
    match client.query("SELEC nope") {
        Err(ClientError::Server { status: 400, kind, position, .. }) => {
            assert_eq!(kind, "parse");
            assert_eq!(position, Some(0));
        }
        other => panic!("expected a 400 parse error, got {other:?}"),
    }
    // Unknown table: 404.
    match client.query("SELECT COUNT(x) FROM missing;") {
        Err(ClientError::Server { status: 404, kind, .. }) => assert_eq!(kind, "unknown_table"),
        other => panic!("expected a 404, got {other:?}"),
    }
    // Unknown column: 400.
    match client.query("SELECT COUNT(nope) FROM demo;") {
        Err(ClientError::Server { status: 400, kind, .. }) => assert_eq!(kind, "unknown_column"),
        other => panic!("expected a 400, got {other:?}"),
    }
    // Ill-typed query: 400.
    match client.query("SELECT SUM(c) FROM demo;") {
        Err(ClientError::Server { status: 400, kind, .. }) => assert_eq!(kind, "invalid_query"),
        other => panic!("expected a 400, got {other:?}"),
    }
    server.shutdown();
}

/// The regression the issue calls out: `/ingest` against an unknown table or
/// with a mismatched schema must produce a *structured error*, not a panic or
/// an empty response — and the server must keep serving afterwards.
#[test]
fn ingest_unknown_table_and_schema_mismatch_are_clean_errors() {
    let session = Arc::new(Session::new());
    session.register(demo_dataset("demo", 2_000)).unwrap();
    let (server, mut client) = serve(session.clone(), ServerConfig::default());

    let row = |x: f64| {
        Json::Obj(vec![
            ("x".into(), Json::Num(x)),
            ("y".into(), Json::Num(1.5)),
            ("c".into(), Json::Str("a".into())),
        ])
    };

    // Unknown table → 404 unknown_table.
    match client.ingest_rows("nosuch", vec![row(1.0)]) {
        Err(ClientError::Server { status: 404, kind, .. }) => assert_eq!(kind, "unknown_table"),
        other => panic!("expected 404, got {other:?}"),
    }
    // Unknown column → 422 schema, naming the offender.
    let bad = Json::Obj(vec![("bogus".into(), Json::Num(1.0))]);
    match client.ingest_rows("demo", vec![bad]) {
        Err(ClientError::Server { status: 422, kind, message, .. }) => {
            assert_eq!(kind, "schema");
            assert!(message.contains("bogus"), "{message}");
        }
        other => panic!("expected 422, got {other:?}"),
    }
    // Type mismatch (string into the numeric column) → 422 schema.
    let bad = Json::Obj(vec![("x".into(), Json::Str("not a number".into()))]);
    match client.ingest_rows("demo", vec![bad]) {
        Err(ClientError::Server { status: 422, kind, .. }) => assert_eq!(kind, "schema"),
        other => panic!("expected 422, got {other:?}"),
    }
    // Non-integer into the integer column → 422 schema.
    let bad = Json::Obj(vec![("x".into(), Json::Num(1.5))]);
    match client.ingest_rows("demo", vec![bad]) {
        Err(ClientError::Server { status: 422, kind, .. }) => assert_eq!(kind, "schema"),
        other => panic!("expected 422, got {other:?}"),
    }
    // Malformed JSON body and a rows-less body → 4xx, not a hang or empty reply.
    match client.ingest_rows("demo", vec![Json::Num(3.0)]) {
        Err(ClientError::Server { status: 422, .. }) => {}
        other => panic!("expected 422, got {other:?}"),
    }

    // Nothing above may have changed the table or wedged the server.
    let stats = session.table_stats("demo").unwrap();
    assert_eq!(stats.sealed_rows, 2_000);
    assert_eq!(stats.delta_rows, 0);
    assert!(client.healthz().is_ok(), "server keeps serving after bad ingests");
    assert!(client.query("SELECT COUNT(y) FROM demo WHERE x > 10;").is_ok());
    server.shutdown();
}

#[test]
fn ingest_lands_rows_via_json_and_csv() {
    let session = Arc::new(Session::new());
    session.register(demo_dataset("demo", 4_000)).unwrap();
    let (server, mut client) = serve(session.clone(), ServerConfig::default());

    // JSON rows, including a NULL (missing member) and an explicit null.
    let rows: Vec<Json> = (0..50)
        .map(|i| {
            let mut members = vec![
                ("x".to_string(), Json::Num(f64::from(i % 100))),
                ("c".to_string(), Json::Str(["a", "b"][i as usize % 2].into())),
            ];
            if i % 5 != 0 {
                members.push(("y".to_string(), Json::Num(f64::from(i) / 10.0)));
            } else {
                members.push(("y".to_string(), Json::Null));
            }
            Json::Obj(members)
        })
        .collect();
    let report = client.ingest_rows("demo", rows).expect("json ingest");
    assert_eq!(report.get("rows").and_then(Json::as_f64), Some(50.0));

    // CSV with quoting, an unquoted empty (NULL) and \r\n endings.
    let csv = "x,y,c\r\n1,2.5,\"a\"\r\n2,,b\r\n3,7.5,\"c,with comma\"\r\n";
    let report = client.ingest_csv("demo", csv).expect("csv ingest");
    assert_eq!(report.get("rows").and_then(Json::as_f64), Some(3.0));

    let stats = session.table_stats("demo").unwrap();
    assert_eq!(stats.delta_rows + stats.sealed_rows, 4_000 + 50 + 3);
    // The quoted comma became one categorical value.
    let via = client.query("SELECT COUNT(x) FROM demo WHERE c = 'c,with comma';").unwrap();
    let direct = session.sql("SELECT COUNT(x) FROM demo WHERE c = 'c,with comma';").unwrap();
    assert_eq!(via, direct);
    server.shutdown();
}

/// `"rows": []` is a valid batch with nothing in it: 200 with `rows: 0`, and
/// the table's log and delta stay exactly as they were.
#[test]
fn empty_ingest_journals_and_publishes_nothing() {
    let dir = std::env::temp_dir().join(format!("ph_server_empty_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = Arc::new(Session::new());
    session.register(demo_dataset("demo", 2_000)).unwrap();
    session.enable_wal(&dir).unwrap();
    let (server, mut client) = serve(session, ServerConfig::default());
    let row = Json::Obj(vec![
        ("x".into(), Json::Num(5.0)),
        ("y".into(), Json::Num(1.5)),
        ("c".into(), Json::Str("a".into())),
    ]);
    client.ingest_rows("demo", vec![row]).unwrap();
    let log_and_delta = |client: &mut Client| {
        let stats = client.stats().unwrap();
        let table = &stats.get("tables").and_then(Json::as_arr).unwrap()[0];
        ["wal_records", "delta_rows"].map(|k| table.get(k).and_then(Json::as_f64).unwrap())
    };
    let before = log_and_delta(&mut client);
    assert_eq!(before, [1.0, 1.0], "one journaled row in the delta");
    let report = client.ingest_rows("demo", Vec::new()).expect("an empty batch is valid");
    assert_eq!(report.get("rows").and_then(Json::as_f64), Some(0.0));
    assert_eq!(log_and_delta(&mut client), before);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A served ingest that seals under a WAL home lands each of its spans in its
/// own `ph_query_stage_seconds` child: one `seal` and one `synopsis` per
/// sealed segment, one `checkpoint`, and one `admit` for the one batch.
#[test]
fn traced_seal_counts_under_its_own_stage_labels() {
    let dir = std::env::temp_dir().join(format!("ph_server_stages_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = Arc::new(Session::new());
    session.set_seal_threshold(2_000);
    session.enable_wal(&dir).unwrap();
    session.register(demo_dataset("demo", 2_000)).unwrap();
    let (server, mut client) = serve(session, ServerConfig::default());
    let mut csv = String::from("x,y,c\n");
    for i in 0..2_500 {
        csv.push_str(&format!("{},{}.5,{}\n", (i * 7) % 1000, i % 50, ["a", "b", "c", "d"][i % 4]));
    }
    let report = client.ingest_csv("demo", &csv).unwrap();
    let sealed = report.get("sealed_segments").and_then(Json::as_f64).unwrap();
    assert!(sealed >= 1.0, "the batch was meant to seal: {report:?}");

    let text = client.metrics().unwrap();
    let count = |stage: &str| -> f64 {
        let prefix = format!("ph_query_stage_seconds_count{{stage=\"{stage}\"}} ");
        let line = text.lines().find_map(|l| l.strip_prefix(prefix.as_str()));
        line.and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("no count for stage {stage}"))
    };
    assert_eq!(count("admit"), 1.0);
    assert_eq!(count("seal"), sealed);
    assert_eq!(count("synopsis"), sealed);
    assert_eq!(count("codec"), sealed);
    assert_eq!(count("checkpoint"), 1.0);
    assert_eq!(count("prune"), 0.0);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn endpoints_and_methods_are_routed() {
    let session = Arc::new(Session::new());
    session.register(demo_dataset("demo", 1_000)).unwrap();
    let (server, mut client) = serve(session, ServerConfig::default());

    let health = client.healthz().unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("tables").and_then(Json::as_f64), Some(1.0));

    assert_eq!(client.tables().unwrap(), vec!["demo".to_string()]);

    client.query("SELECT COUNT(y) FROM demo WHERE x > 10;").unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.get("plan_cache").is_some());
    // Every registered table reports the row-store codec mix the seal-time
    // cascade picked; the column counts must cover the table's four columns.
    let tables = match stats.get("tables") {
        Some(Json::Arr(tables)) => tables,
        other => panic!("tables should be an array, got {other:?}"),
    };
    let mix = tables[0].get("codec_mix").unwrap();
    let total: f64 = match mix {
        Json::Obj(entries) => entries.iter().filter_map(|(_, v)| v.as_f64()).sum(),
        other => panic!("codec_mix should be an object, got {other:?}"),
    };
    assert!(total > 0.0, "codec mix covers at least one column: {mix:?}");
    let endpoints = stats.get("server").and_then(|s| s.get("endpoints")).unwrap();
    let q = endpoints.get("query").unwrap();
    assert_eq!(q.get("requests").and_then(Json::as_f64), Some(1.0));
    assert!(q.get("p50_us").and_then(Json::as_f64).unwrap() > 0.0);

    // Connection-level serving counters: this client's keep-alive socket is
    // open and counted, nothing has been rejected, and the advertised cap
    // matches the config derivation.
    let srv = stats.get("server").unwrap();
    assert!(srv.get("max_connections").and_then(Json::as_f64).unwrap() >= 1.0);
    let conns = srv.get("connections").expect("server.connections object");
    assert_eq!(conns.get("open").and_then(Json::as_f64), Some(1.0), "this keep-alive socket");
    assert!(conns.get("accepted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(conns.get("rejected").and_then(Json::as_f64), Some(0.0));
    assert!(conns.get("pipelined_requests").and_then(Json::as_f64).is_some());
    assert!(conns.get("executor_queue_hwm").and_then(Json::as_f64).is_some());
    // The typed ServerStats mirror agrees with the wire document.
    let typed = server.stats();
    assert_eq!(typed.open_connections, 1);
    assert_eq!(typed.rejected_503, 0);
    assert_eq!(
        typed.accepted_connections as f64,
        conns.get("accepted").and_then(Json::as_f64).unwrap()
    );

    server.shutdown();
}

#[test]
fn query_log_records_served_queries_and_replays() {
    let dir = std::env::temp_dir().join(format!("ph_server_qlog_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("served.phqlog");
    let session = Arc::new(Session::new());
    session.register(demo_dataset("demo", 6_000)).unwrap();
    let cfg = ServerConfig { query_log: Some(log_path.clone()), ..Default::default() };
    let (server, mut client) = serve(session.clone(), cfg);

    let good = [
        "SELECT COUNT(y) FROM demo WHERE x > 500;",
        "SELECT AVG(y) FROM demo WHERE x > 100 AND x < 900;",
    ];
    let mut served = Vec::new();
    for sql in good {
        served.push(client.query(sql).unwrap());
    }
    let _ = client.query("SELEC broken"); // logged with its 400
    server.shutdown();

    let records = read_query_log(&log_path).expect("log decodes");
    assert_eq!(records.len(), 3);
    assert!(records.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
    assert_eq!(records[2].status, 400);
    assert_eq!(records[2].sql, "SELEC broken");
    // Replaying the 200s against the same catalog reproduces the answers.
    for (rec, expected) in records.iter().filter(|r| r.status == 200).zip(&served) {
        assert_eq!(&session.sql(&rec.sql).unwrap(), expected, "replay of {}", rec.sql);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_shutdown_answers_in_flight_then_stops() {
    let session = Arc::new(Session::new());
    session.register(demo_dataset("demo", 2_000)).unwrap();
    let (server, mut client) = serve(session, ServerConfig::default());
    client.query("SELECT COUNT(y) FROM demo WHERE x > 10;").unwrap();
    let addr = server.local_addr();
    server.shutdown();
    // After shutdown the port no longer answers.
    let mut dead = Client::new(addr.to_string());
    assert!(matches!(
        dead.query("SELECT COUNT(y) FROM demo WHERE x > 10;"),
        Err(ClientError::Transport(_))
    ));
}

#[test]
fn ingest_error_is_pherror_shaped_at_the_session_layer_too() {
    // Belt and braces for the regression: the Session itself (not just the
    // HTTP layer) must reject these, so nothing depends on transport checks.
    let session = Session::new();
    session.register(demo_dataset("demo", 1_000)).unwrap();
    let bad_schema = Dataset::builder("demo")
        .column(Column::from_ints("wrong", vec![Some(1)]))
        .unwrap()
        .build();
    assert!(matches!(session.ingest("demo", &bad_schema), Err(PhError::Schema(_))));
    assert!(matches!(
        session.ingest("nosuch", &demo_dataset("nosuch", 10)),
        Err(PhError::UnknownTable(_))
    ));
}
