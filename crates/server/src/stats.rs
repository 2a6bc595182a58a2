//! What the server counts and how it reports it: the [`Metrics`] registry
//! handles, the typed [`ServerStats`], and the encoders behind `GET /stats`,
//! `/tables`, `/debug/slow` (JSON) and `/metrics` (Prometheus text).

use std::sync::Arc;

use ph_core::TableStats;
use ph_obs::{push_header, push_sample, Counter, Gauge, Histogram, Kind, Registry, Stage};

use crate::json::{obj, Json};
use crate::server::Shared;

/// Endpoints with their own metrics slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    Query,
    Ingest,
    Tables,
    Stats,
    Healthz,
    Metrics,
    Debug,
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 8] = [
        Endpoint::Query,
        Endpoint::Ingest,
        Endpoint::Tables,
        Endpoint::Stats,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Debug,
        Endpoint::Other,
    ];

    fn idx(self) -> usize {
        match self {
            Endpoint::Query => 0,
            Endpoint::Ingest => 1,
            Endpoint::Tables => 2,
            Endpoint::Stats => 3,
            Endpoint::Healthz => 4,
            Endpoint::Metrics => 5,
            Endpoint::Debug => 6,
            Endpoint::Other => 7,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Endpoint::Query => "query",
            Endpoint::Ingest => "ingest",
            Endpoint::Tables => "tables",
            Endpoint::Stats => "stats",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Debug => "debug",
            Endpoint::Other => "other",
        }
    }
}

/// One endpoint's registry handles: request/error counters plus the log₂
/// latency histogram that `/stats` quantiles and `/metrics` buckets both read.
pub(crate) struct EndpointMetrics {
    requests: Arc<Counter>,
    status_4xx: Arc<Counter>,
    status_5xx: Arc<Counter>,
    latency: Arc<Histogram>,
}

impl EndpointMetrics {
    fn new(registry: &Registry, name: &'static str) -> Self {
        let ep: &[(&str, &str)] = &[("endpoint", name)];
        Self {
            requests: registry.counter("ph_http_requests_total", "Requests served, by endpoint.", ep),
            status_4xx: registry.counter(
                "ph_http_errors_total",
                "Error responses, by endpoint and status class.",
                &[("endpoint", name), ("class", "4xx")],
            ),
            status_5xx: registry.counter(
                "ph_http_errors_total",
                "Error responses, by endpoint and status class.",
                &[("endpoint", name), ("class", "5xx")],
            ),
            latency: registry.histogram(
                "ph_http_request_seconds",
                "End-to-end request latency, by endpoint.",
                1e-6,
                ep,
            ),
        }
    }

    pub(crate) fn record(&self, status: u16, micros: u64) {
        self.requests.inc();
        if (400..500).contains(&status) {
            self.status_4xx.inc();
        } else if status >= 500 {
            self.status_5xx.inc();
        }
        self.latency.observe(micros);
    }
}

/// Every serving metric, backed by one [`Registry`] so `GET /metrics` renders
/// the lot without bespoke glue. Handles are relaxed atomics; the registry
/// mutex is touched only here (startup) and at scrape.
pub(crate) struct Metrics {
    registry: Registry,
    endpoints: [EndpointMetrics; 8],
    /// Admission `503`s: connections shed at the door plus requests shed at
    /// the executor queue.
    pub(crate) rejected: Arc<Counter>,
    /// Connections admitted past the cap since start.
    pub(crate) accepted: Arc<Counter>,
    /// Currently open connections.
    pub(crate) open: Arc<Gauge>,
    /// Requests parsed while an earlier request on the same connection was
    /// still unanswered — the pipelining win counter.
    pub(crate) pipelined: Arc<Counter>,
    /// `/query` requests executed (any status).
    pub(crate) queries: Arc<Counter>,
    /// The part of `queries` the event loop ran itself instead of a worker.
    pub(crate) queries_on_loop: Arc<Counter>,
    /// `/ingest` batches applied successfully.
    pub(crate) ingest_batches: Arc<Counter>,
    /// Per-stage time from finished traces, in `ALL_STAGES` order.
    stages: Vec<Arc<Histogram>>,
    /// Jobs drained per executor wakeup — one connection's snapshot-sharing run.
    pub(crate) exec_batch: Arc<Histogram>,
    /// Time the event loop spent blocked in the poller per iteration.
    pub(crate) poll_wait: Arc<Histogram>,
    /// Readiness events delivered per wakeup.
    pub(crate) wake_events: Arc<Histogram>,
    /// Timer-wheel entries fired (before lazy re-validation).
    pub(crate) timer_fired: Arc<Counter>,
}

impl Metrics {
    pub(crate) fn new() -> Self {
        let registry = Registry::new();
        let endpoints = Endpoint::ALL.map(|e| EndpointMetrics::new(&registry, e.name()));
        let stages = ph_obs::trace::ALL_STAGES
            .iter()
            .map(|s| {
                registry.histogram(
                    "ph_query_stage_seconds",
                    "Time spent per pipeline stage, from request traces.",
                    1e-9,
                    &[("stage", s.name())],
                )
            })
            .collect();
        Self {
            endpoints,
            rejected: registry.counter(
                "ph_requests_rejected_total",
                "Admission 503s: connections shed at the door plus requests shed at the executor queue.",
                &[],
            ),
            accepted: registry.counter(
                "ph_connections_accepted_total",
                "Connections admitted past the cap since start.",
                &[],
            ),
            open: registry.gauge("ph_connections_open", "Currently open connections.", &[]),
            pipelined: registry.counter(
                "ph_pipelined_requests_total",
                "Requests parsed behind an unanswered request on the same connection.",
                &[],
            ),
            queries: registry.counter("ph_queries_total", "Queries executed (any status).", &[]),
            queries_on_loop: registry.counter(
                "ph_queries_on_loop_total",
                "Queries the event loop ran itself instead of handing them to a worker.",
                &[],
            ),
            ingest_batches: registry.counter(
                "ph_ingest_batches_total",
                "Ingest batches applied successfully.",
                &[],
            ),
            stages,
            exec_batch: registry.histogram(
                "ph_exec_batch_size",
                "Jobs drained per executor wakeup (one connection's run, one session snapshot).",
                1.0,
                &[],
            ),
            poll_wait: registry.histogram(
                "ph_loop_poll_wait_seconds",
                "Time the event loop spent blocked in the poller per iteration.",
                1e-6,
                &[],
            ),
            wake_events: registry.histogram(
                "ph_loop_events_per_wake",
                "Readiness events delivered per event-loop wakeup.",
                1.0,
                &[],
            ),
            timer_fired: registry.counter(
                "ph_timer_wheel_fired_total",
                "Timer-wheel entries fired, before lazy re-validation.",
                &[],
            ),
            registry,
        }
    }

    pub(crate) fn endpoint(&self, e: Endpoint) -> &EndpointMetrics {
        // ph-lint: allow(no-panic-serving) — idx() enumerates Endpoint::ALL, 0..8
        &self.endpoints[e.idx()]
    }

    /// The per-stage histogram for `stage`, if registered.
    pub(crate) fn stage(&self, stage: Stage) -> Option<&Histogram> {
        // By list position, not by code: a retired code leaves a gap.
        let at = ph_obs::trace::ALL_STAGES.iter().position(|&s| s == stage)?;
        self.stages.get(at).map(Arc::as_ref)
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            Endpoint::ALL
                .iter()
                .map(|e| {
                    let m = self.endpoint(*e);
                    (
                        e.name().to_string(),
                        obj(vec![
                            ("requests", Json::Num(m.requests.get() as f64)),
                            ("status_4xx", Json::Num(m.status_4xx.get() as f64)),
                            ("status_5xx", Json::Num(m.status_5xx.get() as f64)),
                            ("p50_us", Json::Num(m.latency.quantile(0.50))),
                            ("p90_us", Json::Num(m.latency.quantile(0.90))),
                            ("p99_us", Json::Num(m.latency.quantile(0.99))),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Connection-, queue- and routing-level serving counters, as reported under
/// `server.connections` in `GET /stats` and by [`Server::stats`](crate::Server::stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Currently open connections.
    pub open_connections: u64,
    /// Connections admitted since start.
    pub accepted_connections: u64,
    /// Admission `503`s (door + executor queue).
    pub rejected_503: u64,
    /// Requests parsed behind an unanswered request on the same connection.
    pub pipelined_requests: u64,
    /// High-water mark of the executor queue depth.
    pub executor_queue_hwm: u64,
    /// Queries the event loop ran itself rather than handing them to an
    /// executor worker.
    pub queries_on_loop: u64,
}

/// The `GET /debug/slow` body: ring configuration plus the retained slow
/// queries, most recent last, each with its full stage breakdown. Queries are
/// identified by fingerprint — raw SQL never appears here.
pub(crate) fn slow_json(shared: &Shared) -> Json {
    let entries = shared
        .slow
        .snapshot()
        .into_iter()
        .map(|q| {
            let spans = q
                .spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("stage", Json::Str(s.stage.name().into())),
                        ("id", Json::Num(f64::from(s.id))),
                        ("parent", Json::Num(f64::from(s.parent))),
                        ("start_us", Json::Num(s.start_ns as f64 / 1_000.0)),
                        ("dur_us", Json::Num(s.dur_ns as f64 / 1_000.0)),
                    ])
                })
                .collect();
            obj(vec![
                ("fingerprint", Json::Str(format!("{:016x}", q.fingerprint))),
                ("total_us", Json::Num(q.total_us as f64)),
                ("status", Json::Num(f64::from(q.status))),
                ("unix_ms", Json::Num(q.unix_ms as f64)),
                ("spans", Json::Arr(spans)),
            ])
        })
        .collect();
    obj(vec![
        ("threshold_us", Json::Num(shared.slow.threshold_us() as f64)),
        ("cap", Json::Num(shared.slow.cap() as f64)),
        ("count", Json::Num(shared.slow.len() as f64)),
        ("slow", Json::Arr(entries)),
    ])
}

/// The `GET /metrics` body: every registered family, then dynamic families
/// computed at scrape time (uptime, queue high-water mark, plan cache, ring
/// occupancy, per-table footprint). Table footprints read the snapshot cache
/// on [`ph_core::FootprintReport`]'s side, so a 1 Hz scraper never recomputes
/// synopsis sizes and cannot perturb serving.
pub(crate) fn metrics_text(shared: &Shared) -> String {
    let mut out = shared.metrics.registry.render();
    push_header(&mut out, "ph_uptime_seconds", "Seconds since the server started.", Kind::Gauge);
    push_sample(&mut out, "ph_uptime_seconds", &[], shared.started.elapsed().as_secs_f64());
    push_header(
        &mut out,
        "ph_executor_queue_hwm",
        "Deepest the executor queue has been since start.",
        Kind::Gauge,
    );
    push_sample(
        &mut out,
        "ph_executor_queue_hwm",
        &[],
        shared.connection_stats().executor_queue_hwm as f64,
    );
    push_header(
        &mut out,
        "ph_span_ring_spans",
        "Spans currently retained by the trace flight recorder.",
        Kind::Gauge,
    );
    push_sample(&mut out, "ph_span_ring_spans", &[], shared.span_ring.len() as f64);
    push_header(
        &mut out,
        "ph_slow_queries_retained",
        "Slow queries currently retained by the forensics ring.",
        Kind::Gauge,
    );
    push_sample(&mut out, "ph_slow_queries_retained", &[], shared.slow.len() as f64);
    let stats = shared.session.stats();
    push_header(
        &mut out,
        "ph_plan_cache_hits_total",
        "Plan-cache hits since start.",
        Kind::Counter,
    );
    push_sample(&mut out, "ph_plan_cache_hits_total", &[], stats.cache.hits as f64);
    push_header(
        &mut out,
        "ph_plan_cache_misses_total",
        "Plan-cache misses since start.",
        Kind::Counter,
    );
    push_sample(&mut out, "ph_plan_cache_misses_total", &[], stats.cache.misses as f64);
    push_header(
        &mut out,
        "ph_table_bytes",
        "Per-table storage footprint by component, from the snapshot cache.",
        Kind::Gauge,
    );
    for t in &stats.tables {
        if let Ok(f) = shared.session.footprint_report(&t.name) {
            let table = t.name.as_str();
            push_sample(
                &mut out,
                "ph_table_bytes",
                &[("table", table), ("component", "synopsis")],
                f.synopsis_bytes as f64,
            );
            push_sample(
                &mut out,
                "ph_table_bytes",
                &[("table", table), ("component", "row_store")],
                f.row_store_bytes as f64,
            );
            push_sample(
                &mut out,
                "ph_table_bytes",
                &[("table", table), ("component", "delta")],
                f.delta_bytes as f64,
            );
        }
    }
    push_header(&mut out, "ph_table_rows", "Per-table row counts by tier.", Kind::Gauge);
    for t in &stats.tables {
        let table = t.name.as_str();
        push_sample(
            &mut out,
            "ph_table_rows",
            &[("table", table), ("tier", "sealed")],
            t.sealed_rows as f64,
        );
        push_sample(
            &mut out,
            "ph_table_rows",
            &[("table", table), ("tier", "delta")],
            t.delta_rows as f64,
        );
    }
    push_header(
        &mut out,
        "ph_segments_consulted_total",
        "Segment (or delta) synopses a query's plan was evaluated on.",
        Kind::Counter,
    );
    for t in &stats.tables {
        let labels = [("table", t.name.as_str())];
        push_sample(&mut out, "ph_segments_consulted_total", &labels, t.segments_consulted as f64);
    }
    push_header(
        &mut out,
        "ph_segments_pruned_total",
        "Segment (or delta) synopses skipped: a conjunct of the plan misses their value range.",
        Kind::Counter,
    );
    for t in &stats.tables {
        let labels = [("table", t.name.as_str())];
        push_sample(&mut out, "ph_segments_pruned_total", &labels, t.segments_pruned as f64);
    }
    push_header(
        &mut out,
        "ph_wal_records",
        "Journaled batches a restart would replay: the log past the last checkpoint.",
        Kind::Gauge,
    );
    for t in &stats.tables {
        let labels = [("table", t.name.as_str())];
        push_sample(&mut out, "ph_wal_records", &labels, t.wal_records as f64);
    }
    push_header(
        &mut out,
        "ph_checkpoints_total",
        "Checkpoints committed into the WAL home (seal, refit, compaction, registration).",
        Kind::Counter,
    );
    for t in &stats.tables {
        let labels = [("table", t.name.as_str())];
        push_sample(&mut out, "ph_checkpoints_total", &labels, t.checkpoints as f64);
    }
    out
}

/// The per-table members `/tables` lists; `/stats` reports the same six and
/// appends the fan-out totals, the checkpoint state, the codec mix and the
/// footprint.
fn table_members(t: &TableStats) -> Vec<(&'static str, Json)> {
    vec![
        ("name", Json::Str(t.name.clone())),
        ("epoch", Json::Num(t.epoch as f64)),
        ("segments", Json::Num(t.segments as f64)),
        ("sealed_rows", Json::Num(t.sealed_rows as f64)),
        ("delta_rows", Json::Num(t.delta_rows as f64)),
        ("staleness", Json::Num(t.staleness)),
    ]
}

pub(crate) fn tables_json(shared: &Shared) -> Json {
    let tables = shared.session.stats().tables.iter().map(|t| obj(table_members(t))).collect();
    obj(vec![("tables", Json::Arr(tables))])
}

pub(crate) fn stats_json(shared: &Shared) -> Json {
    let stats = shared.session.stats();
    let tables = stats
        .tables
        .iter()
        .map(|t| {
            let footprint = shared
                .session
                .footprint_report(&t.name)
                .map(|f| {
                    obj(vec![
                        ("synopsis_bytes", Json::Num(f.synopsis_bytes as f64)),
                        ("row_store_bytes", Json::Num(f.row_store_bytes as f64)),
                        ("delta_bytes", Json::Num(f.delta_bytes as f64)),
                        ("total_bytes", Json::Num(f.total as f64)),
                    ])
                })
                .unwrap_or(Json::Null);
            // Codec mix of the sealed row stores: column counts keyed by the
            // winning codec, so operators can see what the cascade picked.
            let codec_mix = Json::Obj(
                t.codec_mix
                    .iter()
                    .map(|(name, cols)| (name.clone(), Json::Num(*cols as f64)))
                    .collect(),
            );
            let mut members = table_members(t);
            members.push(("segments_consulted", Json::Num(t.segments_consulted as f64)));
            members.push(("segments_pruned", Json::Num(t.segments_pruned as f64)));
            members.push(("wal_records", Json::Num(t.wal_records as f64)));
            members.push(("checkpoints", Json::Num(t.checkpoints as f64)));
            members.push(("checkpoint_failures", Json::Num(t.checkpoint_failures as f64)));
            members.push(("codec_mix", codec_mix));
            members.push(("footprint", footprint));
            obj(members)
        })
        .collect();
    // Quarantined tables: present in the persisted catalog but isolated after
    // failing open-time verification. Operators watch this array — a non-empty
    // value means durable state needs attention even though serving is up.
    let quarantined = shared
        .session
        .quarantined()
        .into_iter()
        .map(|(table, reason)| {
            obj(vec![("table", Json::Str(table)), ("reason", Json::Str(reason))])
        })
        .collect();
    let conns = shared.connection_stats();
    obj(vec![
        ("uptime_seconds", Json::Num(shared.started.elapsed().as_secs_f64())),
        (
            "plan_cache",
            obj(vec![
                ("hits", Json::Num(stats.cache.hits as f64)),
                ("misses", Json::Num(stats.cache.misses as f64)),
                ("entries", Json::Num(stats.cache.entries as f64)),
            ]),
        ),
        ("tables", Json::Arr(tables)),
        ("quarantined", Json::Arr(quarantined)),
        (
            "server",
            obj(vec![
                ("workers", Json::Num(shared.cfg.workers as f64)),
                ("queue_depth", Json::Num(shared.cfg.queue_depth as f64)),
                ("max_connections", Json::Num(shared.cfg.max_connections as f64)),
                ("rejected_503", Json::Num(conns.rejected_503 as f64)),
                (
                    "connections",
                    obj(vec![
                        ("open", Json::Num(conns.open_connections as f64)),
                        ("accepted", Json::Num(conns.accepted_connections as f64)),
                        ("rejected", Json::Num(conns.rejected_503 as f64)),
                        ("pipelined_requests", Json::Num(conns.pipelined_requests as f64)),
                        ("executor_queue_hwm", Json::Num(conns.executor_queue_hwm as f64)),
                        ("queries_on_loop", Json::Num(conns.queries_on_loop as f64)),
                    ]),
                ),
                ("endpoints", shared.metrics.to_json()),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Latency buckets clamp: the u64 extremes land in the last bucket rather
    /// than out of bounds, and quantiles stay finite. (The histogram itself
    /// lives in ph_obs now; this pins the serving-side contract.)
    #[test]
    fn latency_hist_extremes_are_clamped() {
        let m = Metrics::new();
        let ep = m.endpoint(Endpoint::Query);
        ep.record(200, 0);
        ep.record(404, 1);
        ep.record(500, u64::MAX);
        assert_eq!(ep.latency.count(), 3, "every sample landed in some bucket");
        assert_eq!(ep.requests.get(), 3);
        assert_eq!(ep.status_4xx.get(), 1);
        assert_eq!(ep.status_5xx.get(), 1);
        assert!(ep.latency.quantile(0.99).is_finite());
    }

    /// The registry behind `/metrics` carries every family CI greps for, with
    /// headers present even before the first increment.
    #[test]
    fn required_metric_families_render_from_start() {
        let m = Metrics::new();
        let text = m.registry.render();
        for family in [
            "ph_queries_total",
            "ph_queries_on_loop_total",
            "ph_query_stage_seconds",
            "ph_ingest_batches_total",
            "ph_connections_open",
            "ph_http_requests_total",
            "ph_http_request_seconds",
        ] {
            assert!(text.contains(&format!("# TYPE {family}")), "missing family {family}");
        }
        // Every stage has a labeled histogram child.
        for s in ph_obs::trace::ALL_STAGES {
            assert!(
                text.contains(&format!("stage=\"{}\"", s.name())),
                "missing stage label {}",
                s.name()
            );
        }
    }

    /// Each stage finds the histogram that carries its own label, also past
    /// a gap in the stage codes: stage *i* of `ALL_STAGES`, observed *i* + 1
    /// times, renders a count of *i* + 1 under its name.
    #[test]
    fn every_stage_records_under_its_own_label() {
        let m = Metrics::new();
        for (i, &s) in ph_obs::trace::ALL_STAGES.iter().enumerate() {
            let h = m.stage(s).expect("every stage is registered");
            (0..=i).for_each(|_| h.observe(1));
        }
        let text = m.registry.render();
        for (i, s) in ph_obs::trace::ALL_STAGES.iter().enumerate() {
            let line = format!("ph_query_stage_seconds_count{{stage=\"{}\"}} {}\n", s.name(), i + 1);
            assert!(text.contains(&line), "{} did not record under its own label", s.name());
        }
    }
}
