//! The four workloads. Each is a closed loop with one client — a caller that
//! waits for its reply, as a dashboard or an embedding process does — built
//! from the same few pieces: a seeded table, a query pool, a timed ingest
//! script, a save / reopen, and a sliced query loop.
//!
//! The 10 s run `BENCHMARK.json` asks for repeats the whole workload, set-up
//! included, three or four times on fresh state (a shorter run fewer times in
//! proportion) and reports each timing metric's **best** repetition
//! or slice: the host this runs on drifts between a fast and a ~40 % slower
//! regime for 5–30 s at a time, interference only ever adds time, and
//! repetitions spread over the run are what gives one of them a chance to
//! land in the fast regime. `setup_s` is the median of the repetitions.
//!
//! Every workload reports every end-to-end metric; the README says which
//! phase of which workload each reading comes from, and which workload is the
//! one to look at for each.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ph_core::{AqpAnswer, CacheStats, IngestReport, Session};
use ph_server::{Client, Server, ServerConfig};
use ph_types::Dataset;

use crate::affinity;
use crate::inputs;
use crate::probes;
use crate::report::Outcome;
use crate::spans::{Name, Recorder};
use crate::stats::{best_of, median, percentile, percentile_sorted, supported_tail, Better};

/// How much a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace 1`: spans on, one repetition, a shorter timed part, then the
    /// per-layer probes.
    pub traced: bool,
}

impl Scale {
    /// Repetitions of a workload that repeats `full` times in the 10 s run
    /// `BENCHMARK.json` asks for: in proportion for a shorter run, never more
    /// for a longer one (its loops and scripts grow instead), once if traced.
    fn reps(self, full: usize) -> usize {
        if self.traced {
            1
        } else {
            ((self.seconds * full as f64 / 10.0) as usize).clamp(1, full)
        }
    }

    /// Seconds the workload's own timed parts share; a traced run keeps the
    /// larger share for the probes.
    fn measured_s(self) -> f64 {
        if self.traced {
            0.3 * self.seconds
        } else {
            self.seconds
        }
    }

    /// Seconds the per-layer probes share in a traced run.
    pub fn probe_s(self) -> f64 {
        0.7 * self.seconds
    }

    /// Batches in one repetition of `ingest_stream`'s script: 10 per measured
    /// second, so the 10 s run sees four seals fall due in each repetition
    /// (after batches 21, 46, 71 and 96). Never under 75: the traced and the
    /// smoke run then see three of them — a seal, the planted refit (see
    /// [`STREAM_REFIT_BATCH`]) and a seal again — so they too time a seal,
    /// end on a table of more than one segment, and ask p99 of 1 200 reads.
    fn script_batches(self) -> usize {
        ((10.0 * self.measured_s()) as usize).max(75)
    }
}

/// Everything a workload needs besides its inputs.
pub struct Run {
    pub seed: u64,
    pub scale: Scale,
    pub rec: Recorder,
    pub out: Outcome,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub tmp: PathBuf,
}

/// Runs the named workload; `false` if there is none of that name.
pub fn run(name: &str, run: &mut Run) -> bool {
    match name {
        "embedded_hot" => hot(run, false),
        "served_hot" => hot(run, true),
        "ingest_stream" => ingest_stream(run),
        "cold_build" => cold_build(run),
        _ => return false,
    }
    run.out.set("peak_rss_mib", peak_rss_mib());
    true
}

/// `VmHWM` of this process: the workload's peak resident set.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(f64::NAN, |k| k / 1024.0)
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// A fresh, empty directory under the run's scratch directory.
fn fresh_dir(tmp: &Path, name: &str) -> PathBuf {
    let dir = tmp.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

// ---------------------------------------------------------------------------
// Readings: what the repetitions of a workload measured
// ---------------------------------------------------------------------------

/// One slice of a query loop (or one repetition's interleaved reads).
struct Slice {
    p50: f64,
    p99: f64,
    per_s: f64,
}

impl Slice {
    /// Summarises per-call µs samples taken over `wall_s` seconds of calls.
    fn of(samples: &mut [f64], wall_s: f64) -> Slice {
        let p50 = percentile(samples, 0.5);
        Slice {
            p50,
            p99: percentile_sorted(samples, 0.99),
            per_s: samples.len() as f64 / wall_s,
        }
    }
}

/// Everything timed, one entry per repetition or slice.
#[derive(Default)]
struct Readings {
    setup_s: Vec<f64>,
    datagen_s: f64,
    poolgen_s: f64,
    build_rows_per_s: Vec<f64>,
    recover_s: Vec<f64>,
    query: Vec<Slice>,
    ingest: Vec<IngestLog>,
    /// Plan-cache counters summed over the repetitions' timed reads.
    cache_hits: u64,
    cache_misses: u64,
    /// Per repetition, the quantities that depend on the inputs alone.
    fixed: Vec<Vec<u64>>,
}

/// Sets a timing metric to the best of `items`' readings and records their
/// spread under `bench.spread_pct.<metric>`.
fn set_best<T>(
    out: &mut Outcome,
    metric: &str,
    items: &[T],
    reading: impl Fn(&T) -> f64,
    better: Better,
) {
    let readings: Vec<f64> = items.iter().map(reading).collect();
    let best = best_of(&readings, better).expect("at least one reading");
    out.set(metric, best.value);
    out.set(&format!("bench.spread_pct.{metric}"), best.spread_pct);
}

impl Readings {
    fn count_cache(&mut self, before: CacheStats, after: CacheStats) {
        self.cache_hits += after.hits - before.hits;
        self.cache_misses += after.misses - before.misses;
    }

    /// Reports every timing metric, and gates on the fixed quantities having
    /// come out the same in every repetition.
    fn report(mut self, run: &mut Run) {
        let out = &mut run.out;
        out.set("setup_s", median(&mut self.setup_s));
        out.set("bench.datagen_s", self.datagen_s);
        out.set("bench.workload_gen_s", self.poolgen_s);
        set_best(
            out,
            "build_rows_per_s",
            &self.build_rows_per_s,
            |r| *r,
            Better::Higher,
        );
        out.set(
            "recover_s",
            self.recover_s.iter().copied().fold(f64::INFINITY, f64::min),
        );
        let reads = (self.cache_hits + self.cache_misses).max(1);
        out.set(
            "core.plan_cache_hit_ratio",
            self.cache_hits as f64 / reads as f64,
        );

        set_best(out, "query_p50_us", &self.query, |s| s.p50, Better::Lower);
        set_best(out, "query_p99_us", &self.query, |s| s.p99, Better::Lower);
        set_best(out, "query_per_s", &self.query, |s| s.per_s, Better::Higher);

        for log in &self.ingest {
            let n = log.batch_us.len();
            out.check(supported_tail(n).is_some(), || {
                format!("{n} batches cannot support a median")
            });
        }
        set_best(
            out,
            "ingest_p50_us",
            &self.ingest,
            IngestLog::p50,
            Better::Lower,
        );
        set_best(
            out,
            "ingest_rows_per_s",
            &self.ingest,
            IngestLog::rows_per_s,
            Better::Higher,
        );
        probes::report_batches(out, &self.ingest[0]);

        let fixed = &self.fixed;
        out.check(fixed.windows(2).all(|w| w[0] == w[1]), || {
            format!("input-determined quantities differ between repetitions: {fixed:?}")
        });
    }
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// Answers `pool` once, in order. A failed query counts as failed and stands
/// in as SQL NULL so positions keep lining up.
fn answers<E: std::fmt::Display>(
    out: &mut Outcome,
    pool: &[String],
    mut exec: impl FnMut(&str) -> Result<AqpAnswer, E>,
) -> Vec<AqpAnswer> {
    out.attempt(pool.len() as u64);
    pool.iter()
        .map(|sql| {
            exec(sql).unwrap_or_else(|e| {
                out.fail(|| format!("query failed: {e}: {sql}"));
                AqpAnswer::Scalar(None)
            })
        })
        .collect()
}

fn bits(e: &ph_core::Estimate) -> [u64; 3] {
    [e.value.to_bits(), e.lo.to_bits(), e.hi.to_bits()]
}

/// Whether two answers carry bit-identical `value`, `lo` and `hi`.
pub fn same_bits(a: &AqpAnswer, b: &AqpAnswer) -> bool {
    match (a, b) {
        (AqpAnswer::Scalar(x), AqpAnswer::Scalar(y)) => x.map(|e| bits(&e)) == y.map(|e| bits(&e)),
        (AqpAnswer::Groups(x), AqpAnswer::Groups(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, ea), (kb, eb))| ka == kb && bits(ea) == bits(eb))
        }
        _ => false,
    }
}

/// Gate: `got` is bit-identical to `want`, query by query.
fn check_same_answers(out: &mut Outcome, what: &str, want: &[AqpAnswer], got: &[AqpAnswer]) {
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        out.check(same_bits(w, g), || {
            format!("{what}: query {i} differs: {w:?} vs {g:?}")
        });
    }
}

/// Length of one slice of a query loop: long enough for 1 000 calls of the
/// slowest loop (p99 with ten beyond), short enough that a repetition has
/// several chances to miss a slow stretch of the host.
const SLICE_S: f64 = 0.5;

/// The closed query loop: cycles `pool` through `exec`, a warm-up then equal
/// slices filling `seconds`, each slice summarised on its own.
fn query_loop<E: std::fmt::Display>(
    run: &mut Run,
    span: Name,
    pool: &[String],
    seconds: f64,
    mut exec: impl FnMut(&str) -> Result<AqpAnswer, E>,
) -> Vec<Slice> {
    let warm_s = 0.1 * seconds;
    let n_slices = (((seconds - warm_s) / SLICE_S) as usize).max(2);
    let mut samples: Vec<f64> = Vec::with_capacity(1 << 17);
    let mut next = 0usize;
    // Cycles the pool for `length` seconds; returns the wall time it took.
    let mut spin = |run: &mut Run, length: f64, samples: &mut Vec<f64>| {
        samples.clear();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < length {
            let sql = &pool[next % pool.len()];
            next += 1;
            let (answer, us) = run.rec.time(span, || exec(sql));
            samples.push(us);
            if let Err(e) = answer {
                run.out.fail(|| format!("query failed: {e}: {sql}"));
            }
        }
        start.elapsed().as_secs_f64()
    };
    // The warm-up is the same loop, neither recorded nor reported.
    let recording = run.rec.enabled();
    run.rec.set_enabled(false);
    spin(run, warm_s, &mut samples);
    run.rec.set_enabled(recording);
    (0..n_slices)
        .map(|_| {
            let wall = spin(run, SLICE_S, &mut samples);
            let n = samples.len();
            run.out.attempt(n as u64);
            run.out.check(supported_tail(n) >= Some(0.99), || {
                format!("{n} samples in a slice cannot support p99")
            });
            Slice::of(&mut samples, wall)
        })
        .collect()
}

/// What an ingest call did, as its `IngestReport` tells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    /// Folded into the delta: the O(batch) path.
    Plain,
    /// Sealed the delta into segments.
    Seal,
    /// Refit the whole table (a value the fitted transforms cannot encode).
    Refit,
}

fn kind_of(r: &IngestReport) -> BatchKind {
    match (r.rebuilt, r.sealed_segments) {
        (false, _) => BatchKind::Plain,
        (true, 0) => BatchKind::Refit,
        (true, _) => BatchKind::Seal,
    }
}

/// Per-call record of one ingest script.
#[derive(Default)]
pub struct IngestLog {
    pub batch_us: Vec<f64>,
    pub kinds: Vec<BatchKind>,
    pub read_us: Vec<f64>,
    pub rows: usize,
}

impl IngestLog {
    pub fn count(&self, kind: BatchKind) -> usize {
        self.kinds.iter().filter(|k| **k == kind).count()
    }

    /// Latencies of the batches of one kind.
    pub fn of_kind(&self, kind: BatchKind) -> Vec<f64> {
        self.batch_us
            .iter()
            .zip(&self.kinds)
            .filter(|(_, k)| **k == kind)
            .map(|(us, _)| *us)
            .collect()
    }

    fn p50(&self) -> f64 {
        median(&mut self.batch_us.clone())
    }

    /// Rows per second over the summed ingest time (reads excluded).
    fn rows_per_s(&self) -> f64 {
        self.rows as f64 / (self.batch_us.iter().sum::<f64>() / 1e6)
    }
}

/// Feeds `batches` to `Session::ingest` one call at a time on this thread,
/// with `reads_per_batch` queries taken in order from `reads` after each
/// batch. A step is one span with the ingest and its reads as children.
fn ingest_script(
    run: &mut Run,
    session: &Session,
    table: &str,
    batches: &[Dataset],
    reads: &[String],
    reads_per_batch: usize,
) -> IngestLog {
    let (step, ingest, read) = (
        run.rec.name("bench.ingest_step"),
        run.rec.name("core.ingest"),
        run.rec.name("core.session_sql"),
    );
    let mut log = IngestLog::default();
    let mut reads = reads.iter();
    for batch in batches {
        let open = run.rec.enter(step);
        let (report, us) = run.rec.time(ingest, || session.ingest(table, batch));
        run.out.attempt(1);
        match report {
            Ok(r) => {
                log.batch_us.push(us);
                log.kinds.push(kind_of(&r));
                log.rows += r.rows;
            }
            Err(e) => run.out.fail(|| format!("ingest failed: {e}")),
        }
        for sql in reads.by_ref().take(reads_per_batch) {
            let (answer, us) = run.rec.time(read, || session.sql(sql));
            run.out.attempt(1);
            log.read_us.push(us);
            if let Err(e) = answer {
                run.out.fail(|| format!("query failed: {e}: {sql}"));
            }
        }
        run.rec.exit(open);
    }
    log
}

/// Registers `data` on `session`, timed; returns rows per second. The clone
/// the session takes ownership of is made before the clock starts.
fn timed_register(run: &mut Run, session: &Session, data: &Dataset) -> f64 {
    let span = run.rec.name("core.register");
    let owned = data.clone();
    let (result, us) = run.rec.time(span, || session.register(owned));
    run.out
        .check(result.is_ok(), || format!("register failed: {result:?}"));
    data.n_rows() as f64 / (us / 1e6)
}

/// `Session::open_dir`, timed.
fn timed_open(run: &mut Run, dir: &Path) -> (Option<Session>, f64) {
    let span = run.rec.name("core.open_dir");
    let (opened, us) = run.rec.time(span, || Session::open_dir(dir));
    run.out.check(opened.is_ok(), || {
        format!("open_dir failed: {:?}", opened.as_ref().err())
    });
    (opened.ok(), us / 1e6)
}

/// A snapshot-only reopen takes some 25 ms, so it is cheap to take five
/// times: one reading that short is whatever the host was doing just then.
/// Returns the last session opened; every reading goes to `recover_s`.
fn timed_open_x5(run: &mut Run, dir: &Path, recover_s: &mut Vec<f64>) -> Option<Session> {
    let mut last = None;
    for _ in 0..5 {
        let (opened, s) = timed_open(run, dir);
        recover_s.push(s);
        last = opened;
    }
    last
}

/// Bytes held per byte of raw rows, and rows accounted for.
struct Footprint {
    report: ph_core::FootprintReport,
    raw_bytes: usize,
    rows: u64,
}

impl Footprint {
    fn of(session: &Session, table: &str, raw: &Dataset) -> Footprint {
        let stats = session.table_stats(table).expect("table is registered");
        Footprint {
            report: session
                .footprint_report(table)
                .expect("table is registered"),
            raw_bytes: raw.heap_size(),
            rows: stats.sealed_rows + stats.delta_rows,
        }
    }

    fn report(&self, out: &mut Outcome) {
        out.set(
            "resident_bytes_per_raw_byte",
            self.report.total as f64 / self.raw_bytes as f64,
        );
        out.set(
            "synopsis_bytes_per_raw_byte",
            self.report.synopsis_bytes as f64 / self.raw_bytes as f64,
        );
    }
}

/// Exact answers on every allowed CPU (restoring affinity first is the
/// caller's job), then the accuracy metrics.
fn report_accuracy(run: &mut Run, data: &Dataset, pool: &[String], got: &[AqpAnswer]) {
    let queries = inputs::parse_all(pool);
    let (truths, truth_s) = secs(|| ph_bench::ground_truths(data, &queries));
    let acc = inputs::accuracy(got, &truths);
    run.out.check(acc.scored * 2 >= pool.len(), || {
        format!("only {} of {} answers scored", acc.scored, pool.len())
    });
    run.out.set("within_5pct_pct", acc.within_5pct_pct);
    run.out.set("bound_cover_pct", acc.bound_cover_pct);
    run.out
        .set("core.rel_error_median_pct", acc.rel_error_median_pct);
    run.out
        .set("core.bound_miss_pct", 100.0 - acc.bound_cover_pct);
    run.out.set("bench.truth_s", truth_s);
}

// ---------------------------------------------------------------------------
// embedded_hot and served_hot
// ---------------------------------------------------------------------------

const HOT_ROWS: usize = 200_000;
const HOT_BASE_ROWS: usize = 50_000;
const HOT_BATCH_ROWS: usize = 500;
/// Queries in the pool: about a hundred of them GROUP BYs, so p99 — which
/// sits inside the GROUP BY mode — is read off ten queries' worth of calls,
/// not the two or three heaviest of a smaller pool (whose pick changes with
/// the seed). Still a quarter of the plan cache's 4096.
const HOT_POOL: usize = 1024;
/// The first queries of the pool are the ones scored against exact answers
/// (an exact answer costs 5 ms on this table).
const HOT_SCORED: usize = 256;

/// One loaded hot table, ready to be queried.
struct HotTable {
    data: Dataset,
    pool: Vec<String>,
    session: Arc<Session>,
    served: Option<(Server, Client)>,
    /// `Session::sql` answers to the pool, in order.
    direct: Vec<AqpAnswer>,
    footprint: Footprint,
}

impl HotTable {
    /// Gate: the server turned nothing away. Then stops it and joins its threads.
    fn stop_server(&mut self, out: &mut Outcome) {
        if let Some((server, _)) = self.served.take() {
            let rejected = server.rejected();
            out.check(rejected == 0, || {
                format!("{rejected} requests answered 503")
            });
            server.shutdown();
        }
    }
}

/// Set-up of the two hot workloads: inputs from the seed, a 50 000-row base
/// that no later batch can force a refit against, the other 150 000 rows
/// ingested 500 at a time at seal threshold 50 000 (three seals → four
/// segments, empty delta), a save and a cold reopen, and — served — the
/// server and one keep-alive client.
fn hot_setup(run: &mut Run, serve: bool, readings: &mut Readings) -> HotTable {
    let (data, datagen_s) = secs(|| inputs::power_with_day(HOT_ROWS, run.seed));
    let (pool, poolgen_s) = secs(|| inputs::query_pool(&data, HOT_POOL, 0.1, run.seed));
    (readings.datagen_s, readings.poolgen_s) = (datagen_s, poolgen_s);
    let (base, rest) = inputs::split_base(&data, HOT_BASE_ROWS);
    let session = Arc::new(Session::new());
    session.set_seal_threshold(HOT_BASE_ROWS);
    readings
        .build_rows_per_s
        .push(timed_register(run, &session, &base));
    let log = ingest_script(
        run,
        &session,
        "Power",
        &inputs::batches(&rest, HOT_BATCH_ROWS),
        &[],
        0,
    );
    run.out.check(log.count(BatchKind::Refit) == 0, || {
        "a hot-table batch forced a refit".into()
    });

    let direct = answers(&mut run.out, &pool, |sql| session.sql(sql));
    let dir = fresh_dir(&run.tmp, "hot");
    let saved = session.save_dir(&dir);
    run.out
        .check(saved.is_ok(), || format!("save_dir failed: {saved:?}"));
    if let Some(cold) = timed_open_x5(run, &dir, &mut readings.recover_s) {
        let again = answers(&mut run.out, &pool, |sql| cold.sql(sql));
        check_same_answers(&mut run.out, "reopened session", &direct, &again);
    }

    let served = serve.then(|| {
        let server = Server::bind(session.clone(), "127.0.0.1:0", ServerConfig::default())
            .expect("bind loopback");
        let mut client = Client::new(server.local_addr().to_string());
        let over_http = answers(&mut run.out, &pool, |sql| client.query(sql));
        check_same_answers(&mut run.out, "served answer", &direct, &over_http);
        (server, client)
    });
    let footprint = Footprint::of(&session, "Power", &data);
    let f = &footprint.report;
    readings.fixed.push(vec![
        f.total as u64,
        f.synopsis_bytes as u64,
        log.count(BatchKind::Seal) as u64,
    ]);
    readings.ingest.push(log);
    HotTable {
        data,
        pool,
        session,
        served,
        direct,
        footprint,
    }
}

fn hot(run: &mut Run, serve: bool) {
    // Pinned before anything is spawned, so the server's threads inherit it.
    let pin = affinity::pin_to_one_cpu();
    run.out
        .set("bench.pinned", f64::from(u8::from(pin.is_some())));
    let span = run.rec.name(if serve {
        "server.client_query"
    } else {
        "core.session_sql"
    });
    let reps = run.scale.reps(3);
    let seconds = run.scale.measured_s() / reps as f64;

    let mut readings = Readings::default();
    let mut table: Option<HotTable> = None;
    for _ in 0..reps {
        // One table resident at a time: the previous repetition's goes
        // before the next one is timed.
        drop(table.take());
        let (mut hot, setup_s) = secs(|| hot_setup(run, serve, &mut readings));
        readings.setup_s.push(setup_s);

        // The timed loop: every query a plan-cache hit.
        let before = hot.session.cache_stats();
        let session = hot.session.clone();
        let slices = match hot.served.as_mut() {
            Some((_, client)) => query_loop(run, span, &hot.pool, seconds, |sql| client.query(sql)),
            None => query_loop(run, span, &hot.pool, seconds, |sql| session.sql(sql)),
        };
        readings.query.extend(slices);
        readings.count_cache(before, hot.session.cache_stats());
        hot.stop_server(&mut run.out);
        table = Some(hot);
    }
    let hot = table.expect("one repetition");
    let misses = readings.cache_misses;
    run.out.check(misses == 0, || {
        format!("{misses} plan-cache misses in the hot loops")
    });
    readings.report(run);

    let f = &hot.footprint;
    f.report(&mut run.out);
    run.out.check(f.report.segments == 4, || {
        format!("{} sealed segments, expected 4", f.report.segments)
    });
    run.out.check(
        f.rows == HOT_ROWS as u64 && f.report.delta_bytes == 0,
        || {
            format!(
                "{} rows with {} delta bytes, expected {HOT_ROWS} rows all sealed",
                f.rows, f.report.delta_bytes
            )
        },
    );
    if run.scale.traced {
        probes::run(
            run,
            &probes::Subject {
                data: &hot.data,
                session: &hot.session,
                table: "Power",
                pool: &hot.pool,
                seal_rows: HOT_BASE_ROWS,
            },
        );
    }
    drop(pin);
    report_accuracy(
        run,
        &hot.data,
        &hot.pool[..HOT_SCORED],
        &hot.direct[..HOT_SCORED],
    );
}

// ---------------------------------------------------------------------------
// ingest_stream
// ---------------------------------------------------------------------------

const STREAM_BASE_ROWS: usize = 40_000;
const STREAM_BATCH_ROWS: usize = 2_000;
/// The shipped seal threshold. It is left alone here because it is a setting
/// of the live session that `save_dir` does not persist: `open_dir` replays
/// the WAL under the default, so a table ingested under any other threshold
/// comes back segmented differently and answers differently.
const STREAM_SEAL_ROWS: usize = 50_000;
const STREAM_READS_PER_BATCH: usize = 16;
/// The batch that carries one reading below the fitted minimum: after the
/// first seal has fallen due (batch 21) and before the second (batch 46),
/// which therefore refits the whole table. Planted that early, even the
/// shortest script has timed one real seal before the refit and has another
/// after it.
const STREAM_REFIT_BATCH: usize = 30;
/// The last reads are asked again after the last batch, and again of the
/// recovered session, and scored against exact answers.
const STREAM_SCORED: usize = 256;

/// What the last repetition leaves for the probes and the accuracy check.
struct Streamed {
    data: Dataset,
    scored: Vec<String>,
    live: Vec<AqpAnswer>,
    recovered: Option<Session>,
    held: Footprint,
}

/// One repetition. Set-up: Power from the seed, one never-repeated query per
/// read, a 40 000-row base that holds every column's minimum (so no seal
/// refits by accident: where accidental refits fall changes with the seed,
/// and with them the segment count every later read pays for), registered,
/// saved, and the directory reopened — the shape a durable deployment runs
/// in: `open_dir` switches the WAL on, and it is the only way to a live
/// session that a later recovery can reproduce (see `STREAM_SEAL_ROWS`; the
/// build configuration, too, comes back from a snapshot changed, so a table
/// that was never reopened seals differently from its own recovery).
///
/// Then the script — 2 000-row batches in stream order, each journaled and
/// fsynced as shipped, 16 reads after every batch, none repeating an earlier
/// one and every seal emptying the plan cache besides. Batch 30 carries one
/// reading below the fitted minimum, so of the four seals that fall due in
/// 100 batches (after batches 21, 46, 71 and 96) the second is a whole-table
/// refit. And then the crash: the session is dropped unsaved and the
/// directory reopened, replaying the whole WAL.
fn stream_rep(run: &mut Run, readings: &mut Readings) -> Streamed {
    let setup = Instant::now();
    let n_batches = run.scale.script_batches();
    let (generated, datagen_s) = secs(|| {
        ph_datagen::generate(
            "Power",
            STREAM_BASE_ROWS + n_batches * STREAM_BATCH_ROWS,
            run.seed,
        )
        .expect("Power is bundled")
    });
    let (reads, poolgen_s) = secs(|| {
        inputs::query_pool(
            &generated,
            n_batches * STREAM_READS_PER_BATCH,
            0.0,
            run.seed,
        )
    });
    (readings.datagen_s, readings.poolgen_s) = (datagen_s, poolgen_s);
    let (base, rest) = inputs::split_base(&generated, STREAM_BASE_ROWS);
    let mut batches = inputs::batches(&rest, STREAM_BATCH_ROWS);
    batches[STREAM_REFIT_BATCH] = inputs::plant_below_min(&batches[STREAM_REFIT_BATCH], &generated);
    // The rows as ingested, for the exact answers.
    let mut data = base.clone();
    for batch in &batches {
        data.append(batch).expect("same schema");
    }
    let fresh = Session::new();
    readings
        .build_rows_per_s
        .push(timed_register(run, &fresh, &base));
    let dir = fresh_dir(&run.tmp, "stream");
    let saved = fresh.save_dir(&dir);
    run.out
        .check(saved.is_ok(), || format!("save_dir failed: {saved:?}"));
    drop(fresh);
    let session = Session::open_dir(&dir).expect("reopen the saved base");
    run.out
        .check(session.wal_enabled(), || "open_dir left the WAL off".into());
    readings.setup_s.push(setup.elapsed().as_secs_f64());

    let before = session.cache_stats();
    let mut log = ingest_script(
        run,
        &session,
        "Power",
        &batches,
        &reads,
        STREAM_READS_PER_BATCH,
    );
    readings.count_cache(before, session.cache_stats());
    let n = log.read_us.len();
    run.out.check(supported_tail(n) >= Some(0.99), || {
        format!("{n} reads cannot support p99")
    });
    let read_s = log.read_us.iter().sum::<f64>() / 1e6;
    readings.query.push(Slice::of(&mut log.read_us, read_s));

    // Every acknowledged row is there, before the crash and after it.
    let scored = reads[reads.len().saturating_sub(STREAM_SCORED)..].to_vec();
    let live = answers(&mut run.out, &scored, |sql| session.sql(sql));
    let held = Footprint::of(&session, "Power", &data);
    run.out.check(held.rows == data.n_rows() as u64, || {
        format!("{} rows held, {} acknowledged", held.rows, data.n_rows())
    });
    drop(session);
    let (recovered, recover_s) = timed_open(run, &dir);
    readings.recover_s.push(recover_s);
    if let Some(recovered) = &recovered {
        let again = answers(&mut run.out, &scored, |sql| recovered.sql(sql));
        check_same_answers(&mut run.out, "recovered session", &live, &again);
        let rows = Footprint::of(recovered, "Power", &data).rows;
        run.out.check(rows == data.n_rows() as u64, || {
            format!("{rows} rows recovered, {} acknowledged", data.n_rows())
        });
    }
    // The script did what the workload exists to time, in every mode: real
    // seals on both sides of exactly one refit, and a table left in several
    // segments for the reads (and the traced run's probes) to fan out over.
    let f = &held.report;
    let (seals, refits) = (log.count(BatchKind::Seal), log.count(BatchKind::Refit));
    run.out
        .check(seals >= 2 && refits == 1 && f.segments >= 2, || {
            format!(
                "{seals} seals, {refits} refits, {} segments: expected seals around one refit",
                f.segments
            )
        });
    readings.fixed.push(vec![
        f.total as u64,
        f.synopsis_bytes as u64,
        f.segments as u64,
        seals as u64,
    ]);
    readings.ingest.push(log);
    Streamed {
        data,
        scored,
        live,
        recovered,
        held,
    }
}

fn ingest_stream(run: &mut Run) {
    // Unpinned: the program's build threads may use every core it is given.
    run.out.set("bench.pinned", 0.0);
    let mut readings = Readings::default();
    let mut last = None;
    for _ in 0..run.scale.reps(4) {
        drop(last.take());
        last = Some(stream_rep(run, &mut readings));
    }
    let Streamed {
        data,
        scored,
        live,
        recovered,
        held,
    } = last.expect("one repetition");
    readings.report(run);
    held.report(&mut run.out);
    if let (true, Some(recovered)) = (run.scale.traced, recovered) {
        let session = Arc::new(recovered);
        probes::run(
            run,
            &probes::Subject {
                data: &data,
                session: &session,
                table: "Power",
                pool: &scored,
                seal_rows: STREAM_SEAL_ROWS,
            },
        );
    }
    report_accuracy(run, &data, &scored, &live);
}

// ---------------------------------------------------------------------------
// cold_build
// ---------------------------------------------------------------------------

const COLD_ROWS: usize = 100_000;
/// As `HOT_POOL`: 800 queries at GROUP BY probability 0.2 put 160 in the tail.
const COLD_POOL: usize = 800;
const COLD_SCORED: usize = 200;
/// Rows per append to the reopened wide table, and appends per repetition:
/// an append costs 28 ms here whatever its size, and thirty give the median
/// ten samples on either side.
const COLD_APPEND_ROWS: usize = 50;
const COLD_APPENDS: usize = 30;

/// What a repetition leaves for the probes and the accuracy check.
struct Built {
    data: Dataset,
    pool: Vec<String>,
    warm: Vec<AqpAnswer>,
    cold: Arc<Session>,
    held: Footprint,
}

/// One repetition up to the query loop. Set-up is the inputs alone:
/// everything the program does here is what the workload measures. Register
/// on a fresh session, answer the pool, save, drop, reopen cold, answer the
/// pool again, and loop over it.
fn cold_rep(run: &mut Run, readings: &mut Readings, loop_s: f64) -> Option<Built> {
    let setup = Instant::now();
    let (data, datagen_s) =
        secs(|| ph_datagen::generate("Flights", COLD_ROWS, run.seed).expect("Flights is bundled"));
    let (pool, poolgen_s) = secs(|| inputs::query_pool(&data, COLD_POOL, 0.2, run.seed));
    (readings.datagen_s, readings.poolgen_s) = (datagen_s, poolgen_s);
    readings.setup_s.push(setup.elapsed().as_secs_f64());

    let session = Session::new();
    readings
        .build_rows_per_s
        .push(timed_register(run, &session, &data));
    let held = Footprint::of(&session, "Flights", &data);
    run.out.check(
        held.report.segments == 1 && held.rows == COLD_ROWS as u64,
        || {
            format!(
                "{} segments holding {} rows, expected one wide segment",
                held.report.segments, held.rows
            )
        },
    );
    readings.fixed.push(vec![
        held.report.total as u64,
        held.report.synopsis_bytes as u64,
    ]);
    let warm = answers(&mut run.out, &pool, |sql| session.sql(sql));
    let dir = fresh_dir(&run.tmp, "cold");
    let saved = session.save_dir(&dir);
    run.out
        .check(saved.is_ok(), || format!("save_dir failed: {saved:?}"));
    drop(session);
    let cold = Arc::new(timed_open_x5(run, &dir, &mut readings.recover_s)?);
    let again = answers(&mut run.out, &pool, |sql| cold.sql(sql));
    check_same_answers(&mut run.out, "reopened session", &warm, &again);

    // The loop alone runs on one CPU, as the hot workloads' loops do: left
    // to migrate between cores, a 9 µs call reads up to a quarter slower.
    let span = run.rec.name("core.session_sql");
    let before = cold.cache_stats();
    let reader = cold.clone();
    let pin = affinity::pin_to_one_cpu();
    readings
        .query
        .extend(query_loop(run, span, &pool, loop_s, |sql| reader.sql(sql)));
    drop(pin);
    readings.count_cache(before, cold.cache_stats());
    Some(Built {
        data,
        pool,
        warm,
        cold,
        held,
    })
}

/// Last, small appends to the reopened table (journaled: `open_dir` switches
/// the WAL on). The rows are re-sent copies of rows the table holds — an
/// at-least-once producer — so none can force a refit, and there are too few
/// of them to seal.
fn cold_appends(run: &mut Run, readings: &mut Readings, built: &Built) {
    let appends: Vec<Dataset> = (0..COLD_APPENDS)
        .map(|k| built.data.slice(k * COLD_APPEND_ROWS, COLD_APPEND_ROWS))
        .collect();
    let log = ingest_script(run, &built.cold, "Flights", &appends, &[], 0);
    run.out
        .check(log.count(BatchKind::Plain) == log.kinds.len(), || {
            "an append sealed or refit the wide table".into()
        });
    readings.ingest.push(log);
}

fn cold_build(run: &mut Run) {
    run.out.set("bench.pinned", 0.0);
    let reps = run.scale.reps(4);
    let loop_s = 0.3 * run.scale.measured_s() / reps as f64;
    let mut readings = Readings::default();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let Some(built) = cold_rep(run, &mut readings, loop_s) else {
            return;
        };
        if run.scale.traced {
            // The probes see the table as the loop saw it: one sealed segment.
            probes::run(
                run,
                &probes::Subject {
                    data: &built.data,
                    session: &built.cold,
                    table: "Flights",
                    pool: &built.pool,
                    seal_rows: COLD_ROWS,
                },
            );
        }
        cold_appends(run, &mut readings, &built);
        last = Some(built);
    }
    let Built {
        data,
        pool,
        warm,
        held,
        ..
    } = last.expect("one repetition");
    readings.report(run);
    held.report(&mut run.out);
    report_accuracy(run, &data, &pool[..COLD_SCORED], &warm[..COLD_SCORED]);
}
