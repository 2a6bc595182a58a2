//! The per-layer probes of a traced run: every layer timed from outside, at
//! its public functions, on the workload's own table and query pool.
//!
//! Where a layer is opaque from outside, the **boundary ladder** stands in:
//! the same SQL issued at `PairwiseHist` → `Session::execute` → `Session::sql`
//! → `BatchSession::sql` → `Client::query`, each boundary's cost being its
//! median minus the one below. The ladder telescopes by construction; the
//! checks that can fail are independent of it: the separately timed server
//! parts must explain `server.overhead_us`, and the seal anatomy must explain
//! `core.seal_batch_ms`, each reported as an `unattributed_pct`.

use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ph_core::{AqpEngine, PairwiseHist, PairwiseHistConfig, Session};
use ph_gd::{EncodedPred, GdCompressor, Preprocessor};
use ph_server::http::{self, HttpConn};
use ph_server::{answer_from_json, answer_to_json, Client, Json, Server, ServerConfig};
use ph_types::faultfs::{self, FaultKind, FaultPlan};
use ph_types::{Dataset, Value};

use crate::affinity;
use crate::inputs;
use crate::report::Outcome;
use crate::spans::Name;
use crate::stats::median;
use crate::workloads::{same_bits, BatchKind, IngestLog, Run};

/// What the probes measure: a loaded table, its session, and its pool.
pub struct Subject<'a> {
    pub data: &'a Dataset,
    pub session: &'a Arc<Session>,
    pub table: &'a str,
    pub pool: &'a [String],
    /// Rows per sealed segment in this workload: the seal anatomy builds one
    /// segment of this size so its parts add up to the workload's own seals.
    pub seal_rows: usize,
}

pub fn run(run: &mut Run, sub: &Subject) {
    let budget = run.scale.probe_s();
    // The query path is probed on one CPU in every workload, for the reason
    // the hot workloads run on one: an unpinned loopback round trip is two
    // cross-core wake-ups whose cost changes from process to process. The
    // write-path probes below get back whatever CPUs the workload had.
    let pin = affinity::pin_to_one_cpu();
    served(run, sub, 0.3 * budget);
    server_parts(run, sub, 0.1 * budget);
    server_shapes(run, sub, 0.15 * budget);
    cold_prepare(run, sub);
    switches(run, sub, 0.15 * budget);
    drop(pin);
    seal_anatomy(run, sub);
    wal(run, sub);
    persistence(run, sub);
}

/// Calls a probe makes at most: plenty for a median, and it keeps a
/// sub-microsecond probe from filling the span buffer on its own.
const MAX_SAMPLES: usize = 20_000;

/// Calls `f(i)` with `i` cycling over `0..n` until `secs` have passed (or
/// [`MAX_SAMPLES`] calls), after one untimed pass; returns the per-call µs.
fn sample(
    run: &mut Run,
    span: Name,
    secs: f64,
    n: usize,
    mut f: impl FnMut(usize) -> bool,
) -> Vec<f64> {
    (0..n).for_each(|i| {
        f(i);
    });
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while i < MAX_SAMPLES && start.elapsed().as_secs_f64() < secs {
        let (ok, us) = run.rec.time(span, || f(i % n));
        samples.push(us);
        run.out.attempt(1);
        if !ok {
            run.out.fail(|| format!("probe call {} failed", i % n));
        }
        i += 1;
    }
    samples
}

fn bind(session: &Arc<Session>, cfg: ServerConfig) -> (Server, Client) {
    let server = Server::bind(session.clone(), "127.0.0.1:0", cfg).expect("bind loopback");
    let client = Client::new(server.local_addr().to_string());
    (server, client)
}

/// Gate and metric: requests any probe server turned away.
fn stop(run: &mut Run, server: Server, rejected: &mut u64) {
    let n = server.rejected();
    run.out
        .check(n == 0, || format!("{n} requests answered 503"));
    *rejected += n;
    server.shutdown();
}

/// The boundary ladder and everything else that needs the default server:
/// `healthz`, pipelining, CSV ingest, and the program's own stage histograms.
fn served(run: &mut Run, sub: &Subject, secs: f64) {
    let Subject { session, pool, .. } = *sub;
    let queries = inputs::parse_all(pool);
    let snapshot = session.engine(sub.table).expect("table is registered");
    let segment: &PairwiseHist = snapshot.segments()[0];
    let engines = snapshot.n_segments() + usize::from(snapshot.delta().is_some());
    let kernel_plans: Vec<_> = queries
        .iter()
        .map(|q| AqpEngine::prepare(segment, q))
        .collect();
    let session_plans: Vec<_> = pool.iter().map(|sql| session.prepare(sql)).collect();
    let (server, mut client) = bind(session, ServerConfig::default());
    let mut batch = session.batch();

    // One rung at a time over the whole pool, the rungs taking turns pass
    // after pass: each is measured in its own steady state (interleaved query
    // by query, the first rung to touch all segments pays the cache misses for
    // the ones above it), and drift in the host hits every rung alike. A pass
    // of one rung is one op; its calls are the op's children.
    let names = [
        "sql.parse_query",
        "core.run_plan",
        "core.session_execute",
        "core.session_sql",
        "core.batch_sql",
        "server.client_query",
    ];
    let spans = names.map(|n| run.rec.name(n));
    let ladder = run.rec.name("bench.ladder_pass");
    let mut rungs: [Vec<f64>; 6] = Default::default();
    let mut grouped_us = Vec::new();
    let start = Instant::now();
    let mut first_pass = true;
    while first_pass || start.elapsed().as_secs_f64() < 0.6 * secs {
        for (rung, span) in spans.iter().enumerate() {
            let open = run.rec.enter(ladder);
            for (k, sql) in pool.iter().enumerate() {
                let (ok, us) = match rung {
                    0 => run.rec.time(*span, || ph_sql::parse_query(sql).is_ok()),
                    1 => run.rec.time(*span, || {
                        kernel_plans[k]
                            .as_ref()
                            .is_ok_and(|p| AqpEngine::execute(segment, p).is_ok())
                    }),
                    2 => run.rec.time(*span, || {
                        session_plans[k]
                            .as_ref()
                            .is_ok_and(|p| session.execute(p).is_ok())
                    }),
                    3 => run.rec.time(*span, || session.sql(sql).is_ok()),
                    4 => run.rec.time(*span, || batch.sql(sql).is_ok()),
                    _ => run.rec.time(*span, || client.query(sql).is_ok()),
                };
                run.out
                    .check(ok, || format!("{} failed: {sql}", names[rung]));
                rungs[rung].push(us);
                if rung == 3 && queries[k].group_by.is_some() {
                    grouped_us.push(us);
                }
            }
            run.rec.exit(open);
        }
        first_pass = false;
    }
    // Gate: every boundary gives the bits `Session::sql` gives.
    for sql in pool {
        match (session.sql(sql), batch.sql(sql), client.query(sql)) {
            (Ok(d), Ok(b), Ok(h)) => run.out.check(same_bits(&d, &b) && same_bits(&d, &h), || {
                format!("boundaries disagree on {sql}")
            }),
            _ => run
                .out
                .check(false, || format!("a boundary failed on {sql}")),
        }
    }
    drop(batch);
    let [parse_us, kernel_us, execute_us, sql_us, batch_us, rtt_us] =
        rungs.each_mut().map(|r| median(r));
    let out = &mut run.out;
    out.set("sql.parse_us", parse_us);
    out.set("core.run_plan_us", kernel_us);
    out.set("core.session_execute_us", execute_us);
    out.set("core.session_sql_hit_us", sql_us);
    out.set("core.batch_sql_us", batch_us);
    out.set("server.query_rtt_us", rtt_us);
    out.set(
        "core.merge_overhead_us",
        execute_us - engines as f64 * kernel_us,
    );
    // 0 when the pool has no GROUP BY (Power without its `day` column has no
    // categorical column to group on).
    out.set(
        "core.groupby_us",
        if grouped_us.is_empty() {
            0.0
        } else {
            median(&mut grouped_us)
        },
    );
    out.set("core.segments", snapshot.n_segments() as f64);
    out.set("server.overhead_us", rtt_us - sql_us);

    // The program's own account of the same requests, for cross-checking.
    let metrics = client.metrics().unwrap_or_default();
    for (stage, name) in [
        ("http_read", "obs.stage_http_read_mean_us"),
        ("queue_wait", "obs.stage_queue_wait_mean_us"),
        ("parse", "obs.stage_parse_mean_us"),
        ("execute", "obs.stage_execute_mean_us"),
        ("serialize", "obs.stage_serialize_mean_us"),
    ] {
        let read = |suffix: &str| {
            let key = format!("ph_query_stage_seconds_{suffix}{{stage=\"{stage}\"}} ");
            metrics
                .lines()
                .find_map(|l| l.strip_prefix(&key)?.trim().parse::<f64>().ok())
        };
        let mean_us = match (read("sum"), read("count")) {
            (Some(sum), Some(count)) if count > 0.0 => sum / count * 1e6,
            _ => 0.0,
        };
        run.out.set(name, mean_us);
    }

    // The socket-and-loop floor: a request that does no query work.
    let span = run.rec.name("server.client_healthz");
    let mut floor = sample(run, span, 0.15 * secs, 1, |_| client.healthz().is_ok());
    run.out.set("server.healthz_rtt_us", median(&mut floor));

    // Eight queries written back to back before the first response is read.
    let span = run.rec.name("server.client_query_pipelined8");
    let eights: Vec<Vec<&str>> = pool
        .chunks_exact(8)
        .map(|c| c.iter().map(String::as_str).collect())
        .collect();
    let mut piped = sample(run, span, 0.15 * secs, eights.len(), |i| {
        client
            .query_pipelined(&eights[i])
            .is_ok_and(|answers| answers.iter().all(Result::is_ok))
    });
    run.out
        .set("server.pipelined8_per_query_us", median(&mut piped) / 8.0);

    csv_ingest(run, sub, &mut client);
    let mut rejected = 0;
    stop(run, server, &mut rejected);
    run.out.set("server.rejected_503", rejected as f64);
}

/// `POST /ingest` with CSV bodies into a throw-away table: 20 000 rows
/// registered, then twenty 1 000-row bodies of re-sent rows — enough to stay
/// under every seal trigger, so the reading is parse + assemble + fold.
fn csv_ingest(run: &mut Run, sub: &Subject, client: &mut Client) {
    const TABLE: &str = "phbench_csv";
    let mut base = sub.data.slice(0, 20_000.min(sub.data.n_rows()));
    base.rename(TABLE);
    let bodies: Vec<String> = (0..20)
        .map(|k| csv_of(&base.slice(k * 1_000 % base.n_rows(), 1_000)))
        .collect();
    let registered = sub.session.register(base);
    run.out.check(registered.is_ok(), || {
        format!("register failed: {registered:?}")
    });
    let span = run.rec.name("server.client_ingest_csv");
    let mut total_s = 0.0;
    for body in &bodies {
        let (reply, us) = run.rec.time(span, || client.ingest_csv(TABLE, body));
        run.out
            .check(reply.is_ok(), || format!("CSV ingest failed: {reply:?}"));
        total_s += us / 1e6;
    }
    run.out
        .set("server.ingest_csv_rows_per_s", 20_000.0 / total_s);
    let dropped = sub.session.drop_table(TABLE);
    run.out.check(dropped.is_ok(), || {
        format!("drop_table failed: {dropped:?}")
    });
}

/// `data` as the CSV the server's ingest endpoint reads: header line, NULL as
/// an empty unquoted field, strings quoted.
fn csv_of(data: &Dataset) -> String {
    let mut out: String = data
        .columns()
        .iter()
        .map(|c| c.name())
        .collect::<Vec<_>>()
        .join(",");
    out.push('\n');
    for row in 0..data.n_rows() {
        for (c, col) in data.columns().iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            match col.value(row) {
                Value::Null => {}
                Value::Str(s) => {
                    out.push('"');
                    out.push_str(&s.replace('"', "\"\""));
                    out.push('"');
                }
                other => out.push_str(&other.to_string()),
            }
        }
        out.push('\n');
    }
    out
}

/// The pieces of a served query that can be called on their own: request
/// parsing, answer encoding, response framing, and the client's decoding.
/// Together with the `healthz` floor and the batch-session step they should
/// add up to `server.overhead_us`; what they miss is `server.unattributed_pct`.
fn server_parts(run: &mut Run, sub: &Subject, secs: f64) {
    const MAX_BODY: usize = 8 * 1024 * 1024;
    let Subject { session, pool, .. } = *sub;
    let requests: Vec<Vec<u8>> = pool
        .iter()
        .map(|sql| {
            let body = ph_server::json::obj(vec![("sql", Json::Str(sql.clone()))]).to_string();
            let mut conn = HttpConn::new(Cursor::new(Vec::new()));
            conn.write_request("POST", "/query", "application/json", body.as_bytes())
                .expect("in-memory write");
            conn.stream().get_ref().clone()
        })
        .collect();
    let answers: Vec<_> = pool
        .iter()
        .map(|sql| session.sql(sql).expect("pool query answers"))
        .collect();
    let bodies: Vec<String> = answers
        .iter()
        .map(|a| answer_to_json(a).to_string())
        .collect();
    let responses: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| http::response_bytes(200, b, true))
        .collect();
    let n = pool.len();
    let each = secs / 4.0;

    let span = run.rec.name("server.try_parse_request");
    let mut scratch = Vec::new();
    let mut parse = sample(run, span, each, n, |i| {
        scratch.clone_from(&requests[i]);
        matches!(http::try_parse_request(&mut scratch, MAX_BODY), Ok(Some(_)))
    });
    let span = run.rec.name("server.answer_to_json");
    let mut encode = sample(run, span, each, n, |i| {
        !answer_to_json(&answers[i]).to_string().is_empty()
    });
    let span = run.rec.name("server.response_bytes");
    let mut frame = sample(run, span, each, n, |i| {
        !http::response_bytes(200, &bodies[i], true).is_empty()
    });
    let span = run.rec.name("server.client_decode");
    let mut decode = sample(run, span, each, n, |i| {
        let mut conn = HttpConn::new(Cursor::new(responses[i].clone()));
        let Ok((200, _, body)) = conn.read_response(MAX_BODY) else {
            return false;
        };
        let Ok(doc) = std::str::from_utf8(&body)
            .map_err(drop)
            .and_then(|t| Json::parse(t).map_err(drop))
        else {
            return false;
        };
        answer_from_json(&doc).is_ok_and(|a| same_bits(&a, &answers[i]))
    });
    // The few-hundred-byte copies `http_parse` and `client_decode` make of
    // their input before each call are timed with it; noise beside the parse.
    let parts = [
        median(&mut parse),
        median(&mut encode),
        median(&mut frame),
        median(&mut decode),
    ];
    let out = &mut run.out;
    out.set("server.http_parse_us", parts[0]);
    out.set("server.json_encode_us", parts[1]);
    out.set("server.response_frame_us", parts[2]);
    out.set("server.client_decode_us", parts[3]);
    let get = |name: &str| out.get(name).expect("the ladder ran first");
    let overhead = get("server.overhead_us");
    let explained = parts.iter().sum::<f64>()
        + get("server.healthz_rtt_us")
        + (get("core.batch_sql_us") - get("core.session_sql_hit_us"));
    out.set(
        "server.unattributed_pct",
        (overhead - explained) / overhead * 100.0,
    );
}

/// The two server shapes ROADMAP wants decided by measurement: the event loop
/// executing queries itself (`workers: 0`) against one executor thread.
fn server_shapes(run: &mut Run, sub: &Subject, secs: f64) {
    let mut rejected = run.out.get("server.rejected_503").unwrap_or(0.0) as u64;
    for (workers, metric, span) in [
        (0, "server.rtt_inline_us", "server.client_query_inline"),
        (1, "server.rtt_workers1_us", "server.client_query_workers1"),
    ] {
        let (server, mut client) = bind(
            sub.session,
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        );
        let span = run.rec.name(span);
        let mut rtt = sample(run, span, secs / 2.0, sub.pool.len(), |i| {
            client.query(&sub.pool[i]).is_ok()
        });
        run.out.set(metric, median(&mut rtt));
        stop(run, server, &mut rejected);
    }
    run.out.check(rejected == 0, || {
        format!("{rejected} requests answered 503 across the probe servers")
    });
}

/// `Session::prepare` on SQL the session has never seen: parse + plan + cache
/// insert, one call per fresh query.
fn cold_prepare(run: &mut Run, sub: &Subject) {
    let fresh = inputs::query_pool(sub.data, 128, 0.0, run.seed ^ 0xC01D);
    let span = run.rec.name("core.session_prepare");
    let mut us: Vec<f64> = fresh
        .iter()
        .map(|sql| {
            let (plan, us) = run.rec.time(span, || sub.session.prepare(sql));
            run.out
                .check(plan.is_ok(), || format!("prepare failed: {sql}"));
            us
        })
        .collect();
    run.out.set("core.prepare_us", median(&mut us));
}

/// What two switches cost a hot `Session::sql`: the program's own tracing
/// (`ph_obs::set_tracing`) and this benchmark's span recorder. Blocks
/// alternate off / on so drift in the host hits both sides alike, and each
/// side is read off its best block, as the query loops are.
fn switches(run: &mut Run, sub: &Subject, secs: f64) {
    let span = run.rec.name("core.session_sql");
    let n = sub.pool.len();
    let block = secs / 16.0;
    let cost_pct = |run: &mut Run, flip: &dyn Fn(&mut Run, bool)| {
        let mut best = [f64::INFINITY; 2];
        for _ in 0..4 {
            for on in [false, true] {
                flip(run, on);
                let mut us = sample(run, span, block, n, |i| {
                    sub.session.sql(&sub.pool[i]).is_ok()
                });
                best[usize::from(on)] = best[usize::from(on)].min(median(&mut us));
            }
        }
        (best[1] - best[0]) / best[0] * 100.0
    };
    let tracing = cost_pct(run, &|_, on| ph_core::obs::set_tracing(on));
    run.out.set("obs.tracing_cost_pct", tracing);
    let recorder = cost_pct(run, &|run, on| run.rec.set_enabled(on));
    run.out.set("bench.trace_overhead_pct", recorder);
}

/// One seal, step by step, through the public builders `seal_segment`
/// composes: encode → GreedyGD → synopsis from the GD bases → store choice
/// (which encodes the per-column cascade). `fit` is timed too — a refit and a
/// registration pay it, a seal does not.
fn seal_anatomy(run: &mut Run, sub: &Subject) {
    // The second slice of the table where there is one: the rows of the
    // workload's first seal, not of its registration.
    let n = sub.seal_rows.min(sub.data.n_rows());
    let rows = sub
        .data
        .slice(if sub.data.n_rows() >= 2 * n { n } else { 0 }, n);
    let names = [
        "bench.seal_anatomy",
        "gd.preprocess_fit",
        "gd.preprocess_encode",
        "gd.greedy_compress",
        "core.build_from_gd",
        "gd.choose_store",
        "gd.decompress",
        "gd.count_matching",
    ];
    let [anatomy, fit, encode, compress, build, choose, decompress, count] =
        names.map(|n| run.rec.name(n));
    let open = run.rec.enter(anatomy);
    let (pre, fit_us) = run.rec.time(fit, || Arc::new(Preprocessor::fit(&rows)));
    let (matrix, encode_us) = run.rec.time(encode, || pre.encode(&rows));
    let (gd, compress_us) = run
        .rec
        .time(compress, || GdCompressor::new().compress(&matrix));
    let (synopsis, build_us) = run.rec.time(build, || {
        PairwiseHist::build_from_gd(&gd, pre.clone(), &PairwiseHistConfig::default())
    });
    let greedy_bytes = gd.packed_bytes();
    let (store, choose_us) = run.rec.time(choose, || ph_gd::choose_store(&matrix, gd));
    run.rec.exit(open);
    drop(synopsis);
    let (decoded, decompress_us) = run.rec.time(decompress, || store.decompress());
    run.out.check(decoded.columns == matrix.columns, || {
        "row store does not decompress to what was encoded".into()
    });
    // Predicate pushdown on the encoded store: the lower half of each column.
    let mut count_us = Vec::new();
    for (c, col) in matrix.columns.iter().enumerate() {
        let hi = col.iter().copied().max().unwrap_or(0) / 2;
        let pred = EncodedPred::Range {
            lo: None,
            hi: Some(hi),
        };
        let (n, us) = run.rec.time(count, || store.count_matching(c, &pred));
        let exact = col.iter().filter(|v| **v <= hi).count() as u64;
        run.out.check(n == Some(exact), || {
            format!("count_matching on column {c}: {n:?}, scan says {exact}")
        });
        count_us.push(us);
    }
    let out = &mut run.out;
    out.set("gd.preprocess_fit_ms", fit_us / 1e3);
    out.set("gd.preprocess_encode_ms", encode_us / 1e3);
    out.set("gd.greedy_compress_ms", compress_us / 1e3);
    out.set("core.build_from_gd_ms", build_us / 1e3);
    out.set("gd.columnar_encode_ms", choose_us / 1e3);
    out.set("gd.decompress_ms", decompress_us / 1e3);
    out.set("gd.count_matching_us", median(&mut count_us));
    out.set("gd.greedy_bytes", greedy_bytes as f64);
    out.set(
        "gd.columnar_bytes",
        ph_gd::ColumnarStore::encode(&matrix).packed_bytes() as f64,
    );
}

/// Batches by kind, as `IngestReport` classified them, from the workload's
/// own ingest script. 0 where the script had no batch of that kind.
pub fn report_batches(out: &mut Outcome, log: &IngestLog) {
    let ms = |kind| match log.of_kind(kind) {
        v if v.is_empty() => 0.0,
        mut v => median(&mut v) / 1e3,
    };
    out.set("core.plain_batch_us", ms(BatchKind::Plain) * 1e3);
    out.set("core.seal_batch_ms", ms(BatchKind::Seal));
    out.set("core.refit_batch_ms", ms(BatchKind::Refit));
    out.set(
        "core.ingest_max_ms",
        log.batch_us.iter().copied().fold(0.0, f64::max) / 1e3,
    );
    out.set("core.seals", log.count(BatchKind::Seal) as f64);
    out.set("core.refits", log.count(BatchKind::Refit) as f64);
}

/// Share of a sealing batch the anatomy's parts do not explain: the batch
/// minus a plain batch's cost (journal, append, seal decision) minus encode,
/// GreedyGD, synopsis build and store choice. 0 for a workload without seals.
pub fn report_seal_unattributed(out: &mut Outcome) {
    let get = |name: &str| out.get(name).expect("the anatomy and the script ran first");
    let seal_ms = get("core.seal_batch_ms");
    let parts_ms = get("core.plain_batch_us") / 1e3
        + get("gd.preprocess_encode_ms")
        + get("gd.greedy_compress_ms")
        + get("core.build_from_gd_ms")
        + get("gd.columnar_encode_ms");
    out.set(
        "core.seal_unattributed_pct",
        if seal_ms > 0.0 {
            (seal_ms - parts_ms) / seal_ms * 100.0
        } else {
            0.0
        },
    );
}

/// What the WAL costs a plain batch, on a throw-away copy of the table's
/// first rows: forty 250-row batches of re-sent rows with and without the
/// journal, the durable operations each journaled batch makes, the journal's
/// size, and the rate a reopen replays it at.
fn wal(run: &mut Run, sub: &Subject) {
    const TABLE: &str = "phbench_wal";
    let mut base = sub.data.slice(0, 20_000.min(sub.data.n_rows()));
    base.rename(TABLE);
    let batches = inputs::batches(&base.slice(0, 10_000.min(base.n_rows())), 250);
    let raw_bytes: usize = batches.iter().map(Dataset::heap_size).sum();
    let span = run.rec.name("core.ingest");
    let ingest_all = |run: &mut Run, session: &Session| -> Vec<f64> {
        batches
            .iter()
            .map(|b| {
                let (report, us) = run.rec.time(span, || session.ingest(TABLE, b));
                run.out.check(report.is_ok_and(|r| !r.rebuilt), || {
                    "a WAL-probe batch sealed or failed".into()
                });
                us
            })
            .collect()
    };

    let plain = Session::new();
    plain.register(base.clone()).expect("register probe table");
    let mut without = ingest_all(run, &plain);
    drop(plain);

    let dir = run.tmp.join("wal_probe");
    let _ = std::fs::remove_dir_all(&dir);
    let journaled = Session::new();
    journaled.register(base).expect("register probe table");
    journaled
        .save_dir(&dir)
        .and_then(|_| journaled.enable_wal(&dir))
        .expect("save and journal probe table");
    // Armed with a trigger it never reaches, faultfs just counts the durable
    // operations this thread makes.
    faultfs::arm(FaultPlan {
        trigger_at_op: usize::MAX,
        kind: FaultKind::Enospc,
    });
    let mut with = ingest_all(run, &journaled);
    let ops = faultfs::disarm();
    drop(journaled);
    let wal_bytes: u64 = files(&dir)
        .filter(|p| p.extension().is_some_and(|e| e == "phwal"))
        .map(|p| len(&p))
        .sum();
    let span = run.rec.name("core.open_dir");
    let (reopened, us) = run.rec.time(span, || Session::open_dir(&dir));
    let replayed = reopened
        .ok()
        .and_then(|s| s.table_stats(TABLE).ok())
        .map_or(0, |t| t.sealed_rows + t.delta_rows);
    run.out.check(replayed == 30_000, || {
        format!("{replayed} rows after replay, 30000 acknowledged")
    });

    let out = &mut run.out;
    out.set(
        "core.wal_batch_overhead_us",
        median(&mut with) - median(&mut without),
    );
    out.set(
        "core.wal_bytes_per_raw_byte",
        wal_bytes as f64 / raw_bytes as f64,
    );
    out.set(
        "core.durable_ops_per_batch",
        ops as f64 / batches.len() as f64,
    );
    out.set("core.wal_replay_rows_per_s", 10_000.0 / (us / 1e6));
}

fn files(dir: &Path) -> impl Iterator<Item = std::path::PathBuf> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
}

fn len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Saving and reopening the workload's table, and the synopsis codec on its
/// own: one segment's `to_bytes` / `from_bytes`.
fn persistence(run: &mut Run, sub: &Subject) {
    let dir = run.tmp.join("persist_probe");
    let (save, open) = (run.rec.name("core.save_dir"), run.rec.name("core.open_dir"));
    let (mut save_ms, mut open_ms) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let _ = std::fs::remove_dir_all(&dir);
        let (saved, us) = run.rec.time(save, || sub.session.save_dir(&dir));
        run.out
            .check(saved.is_ok(), || format!("save_dir failed: {saved:?}"));
        save_ms.push(us / 1e3);
        let (reopened, us) = run.rec.time(open, || Session::open_dir(&dir));
        run.out.check(reopened.is_ok(), || "open_dir failed".into());
        open_ms.push(us / 1e3);
    }
    let disk_bytes: u64 = files(&dir).map(|p| len(&p)).sum();

    let snapshot = sub.session.engine(sub.table).expect("table is registered");
    let segment: &PairwiseHist = snapshot.segments()[0];
    let (to, from) = (
        run.rec.name("core.to_bytes"),
        run.rec.name("core.from_bytes"),
    );
    let (mut to_ms, mut from_ms) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (bytes, us) = run.rec.time(to, || segment.to_bytes());
        to_ms.push(us / 1e3);
        let (back, us) = run.rec.time(from, || {
            PairwiseHist::from_bytes(&bytes, segment.preprocessor().clone())
        });
        run.out
            .check(back.is_some_and(|b| b.to_bytes() == bytes), || {
                "synopsis does not round-trip".into()
            });
        from_ms.push(us / 1e3);
    }
    let report = sub
        .session
        .footprint_report(sub.table)
        .expect("table is registered");
    let out = &mut run.out;
    out.set("core.save_dir_ms", median(&mut save_ms));
    out.set("core.open_dir_ms", median(&mut open_ms));
    out.set("core.disk_bytes", disk_bytes as f64);
    out.set("core.to_bytes_ms", median(&mut to_ms));
    out.set("core.from_bytes_ms", median(&mut from_ms));
    out.set("core.synopsis_bytes", report.synopsis_bytes as f64);
    out.set("core.row_store_bytes", report.row_store_bytes as f64);
}

/// The recorder's account of itself, once everything is recorded.
pub fn report_spans(run: &mut Run) -> Vec<u8> {
    let encoded = run.rec.encode();
    let spans = run.rec.spans();
    let own = crate::spans::self_times_ns(spans);
    // Spans with children are the ops the driver composes itself; their self
    // time is the driver's own bookkeeping between the calls it times.
    let mut parents = vec![false; spans.len()];
    for s in spans {
        if s.parent != 0 {
            parents[s.parent as usize - 1] = true;
        }
    }
    let (mut total, mut own_total) = (0u64, 0u64);
    for ((s, own), _) in spans.iter().zip(&own).zip(&parents).filter(|(_, p)| **p) {
        total += s.end_ns - s.start_ns;
        own_total += own;
    }
    let n = spans.len();
    let dropped = run.rec.dropped;
    let out = &mut run.out;
    out.set("bench.spans", n as f64);
    out.set("bench.spans_dropped", dropped as f64);
    out.set(
        "bench.span_bytes_per_span",
        encoded.len() as f64 / n.max(1) as f64,
    );
    out.set(
        "bench.driver_self_pct",
        if total > 0 {
            own_total as f64 / total as f64 * 100.0
        } else {
            0.0
        },
    );
    encoded
}
