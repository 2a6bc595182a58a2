//! The query path and the plan cache: [`Session::sql`], [`BatchSession::sql`]
//! and [`Session::prepare`] all run one private path (`Session::run`) — the
//! text index, or parse → fingerprint → plan against the pinned table
//! version — which is the one place a stale plan is retried.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use ph_obs::{span, Stage};
use ph_sql::parse_query;
use ph_types::PhError;

use crate::engine::AqpAnswer;
use crate::prepared::Prepared;
use crate::segment::TableState;

use super::Session;

/// Plan-cache capacity across all shards. Caching is keyed by full query
/// fingerprint (structure and literals), so adversarially unique literals could
/// grow the map without bound; past this many distinct templates a shard is
/// simply cleared — correct, and cheap relative to the cost of tracking recency.
const PLAN_CACHE_CAP: usize = 4096;

/// Number of plan-cache shards. Hits on different templates land on different
/// locks with high probability; 16 is plenty for the core counts this serves.
const PLAN_CACHE_SHARDS: usize = 16;

/// How many times the query path (`Session::run`) replans after a
/// [`PhError::StalePlan`] before giving up. A retry re-pins the table and
/// plans against the version it pinned, so it only goes stale again if a
/// racing planner re-caches a plan from another epoch in between — `N`
/// consecutive failures need `N` such races back to back.
const STALE_RETRIES: usize = 4;

/// A short-lived executor for one drained batch of queries, created by
/// [`Session::batch`]: every query in the batch against the same table shares
/// **one** pinned snapshot (one read-lock acquisition and `Arc` bump per table
/// per batch) instead of one per request. Built for batched serving loops that
/// drain many parsed queries at once — the per-request snapshot cost was pure
/// overhead when the whole batch answers from the same version anyway.
///
/// Answers are bit-identical to [`Session::sql`] against the version pinned
/// when the table was first touched by this batch: both run the session's one
/// query path, this one with the batch's pins. A cached plan from another
/// epoch than the pin surfaces as [`PhError::StalePlan`] exactly as it does
/// there, and the path re-pins the table and replans under the same
/// bounded-retry contract. Dropping the batch releases its pinned snapshots.
pub struct BatchSession<'a> {
    session: &'a Session,
    pins: Pins,
}

impl BatchSession<'_> {
    /// Parses, plans (through the session's shared plan cache) and executes
    /// one query against this batch's pinned snapshot of its table.
    pub fn sql(&mut self, sql: &str) -> Result<AqpAnswer, PhError> {
        self.session.run(sql, Some(&mut self.pins), |state, plan| state.execute_prepared(plan))
    }

    /// Whether this exact spelling of `sql` has a plan in the session's text
    /// index: one read-only probe that pins nothing and counts nothing. A plan
    /// evicted or invalidated between the probe and [`BatchSession::sql`] is
    /// planned again there.
    pub fn is_cached(&self, sql: &str) -> bool {
        self.session.cache.has_text(sql)
    }
}

/// The table versions a [`BatchSession`] has pinned, one per table, each at
/// first touch. Batches are small and almost always single-table, so a linear
/// scan beats a map.
type Pins = Vec<(String, Arc<TableState>)>;

/// One plan-cache shard: template plans by fingerprint, plus a text index that
/// lets byte-identical SQL resolve in a single probe without parsing. Both maps
/// hold the plan `Arc` directly, so the two indexes need no cross-shard
/// consistency.
#[derive(Default)]
struct CacheShard {
    by_fingerprint: HashMap<u64, Arc<Prepared>>,
    by_text: HashMap<String, Arc<Prepared>>,
}

/// The sharded plan cache. Shard choice is by fingerprint for the canonical
/// index and by text hash for the spelling index; hit/miss counters are
/// [`ph_obs::Counter`] handles (lock-free) so the hot path never takes a lock
/// for bookkeeping and a scraper reads the same counters `/metrics` exposes.
pub(super) struct PlanCache {
    shards: Vec<RwLock<CacheShard>>,
    hits: ph_obs::Counter,
    misses: ph_obs::Counter,
}

impl PlanCache {
    pub(super) fn new() -> Self {
        Self {
            shards: (0..PLAN_CACHE_SHARDS).map(|_| RwLock::new(CacheShard::default())).collect(),
            hits: ph_obs::Counter::new(),
            misses: ph_obs::Counter::new(),
        }
    }

    fn shard_for_fp(&self, fp: u64) -> &RwLock<CacheShard> {
        // ph-lint: allow(no-panic-serving) — index is % len: new() builds exactly PLAN_CACHE_SHARDS shards
        &self.shards[(fp as usize) % PLAN_CACHE_SHARDS]
    }

    fn shard_for_text(&self, sql: &str) -> &RwLock<CacheShard> {
        // ph-lint: allow(no-panic-serving) — index is % len: new() builds exactly PLAN_CACHE_SHARDS shards
        &self.shards[(ph_types::fnv1a(sql.as_bytes()) as usize) % PLAN_CACHE_SHARDS]
    }

    fn get_by_text(&self, sql: &str) -> Option<Arc<Prepared>> {
        self.shard_for_text(sql)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .by_text
            .get(sql)
            .cloned()
    }

    fn has_text(&self, sql: &str) -> bool {
        self.shard_for_text(sql)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .by_text
            .contains_key(sql)
    }

    fn get_by_fp(&self, fp: u64) -> Option<Arc<Prepared>> {
        self.shard_for_fp(fp)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .by_fingerprint
            .get(&fp)
            .cloned()
    }

    /// Records a plan under its fingerprint and the spelling that produced it.
    /// Each shard is capped (see [`PLAN_CACHE_CAP`]); distinct re-spellings of
    /// cached templates (whitespace/case variants) must not grow memory without
    /// limit in a long-lived serving process, so the text index has its own cap.
    fn insert(&self, sql: &str, plan: &Arc<Prepared>) {
        let per_shard = (PLAN_CACHE_CAP / PLAN_CACHE_SHARDS).max(1);
        {
            let mut shard = self
                .shard_for_fp(plan.fingerprint())
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            if shard.by_fingerprint.len() >= per_shard {
                shard.by_fingerprint.clear();
            }
            shard.by_fingerprint.insert(plan.fingerprint(), plan.clone());
        }
        let mut shard = self.shard_for_text(sql).write().unwrap_or_else(PoisonError::into_inner);
        if shard.by_text.len() >= per_shard * 4 {
            shard.by_text.clear();
        }
        shard.by_text.insert(sql.to_string(), plan.clone());
    }

    /// Drops every cached plan for `table` (its serving state changed epoch, or
    /// the table was dropped).
    pub(super) fn invalidate_table(&self, table: &str) {
        for shard in &self.shards {
            let mut s = shard.write().unwrap_or_else(PoisonError::into_inner);
            s.by_fingerprint.retain(|_, p| p.query().table != table);
            s.by_text.retain(|_, p| p.query().table != table);
        }
    }

    fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).by_fingerprint.len())
            .sum()
    }
}

/// Running totals of the plan cache, for observability and the latency benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from a cached plan.
    pub hits: u64,
    /// Queries that had to be planned.
    pub misses: u64,
    /// Distinct templates currently cached.
    pub entries: usize,
}

impl Session {
    /// Parses, routes and executes one query, going through the plan cache.
    ///
    /// Byte-identical SQL skips parsing entirely; a re-formatted spelling of a
    /// cached template still skips planning (fingerprints are canonical). A
    /// cached plan invalidated by a concurrent seal or rebuild
    /// ([`PhError::StalePlan`]) is replanned transparently, with bounded
    /// retries (see `Session::run`).
    pub fn sql(&self, sql: &str) -> Result<AqpAnswer, PhError> {
        self.run(sql, None, |state, plan| state.execute_prepared(plan))
    }

    /// The one query path, behind [`Session::sql`] (`pins` = `None`: a fresh
    /// pin per lookup), [`BatchSession::sql`] (the batch's pins) and
    /// [`Session::prepare`]. A byte-identical spelling resolves through the
    /// text index; anything else is parsed, then found by fingerprint or
    /// planned against the pinned version. `finish` then runs on that version.
    ///
    /// Staleness is decided here and only here: a cached plan from another
    /// epoch than the pinned version fails `finish` with
    /// [`PhError::StalePlan`], and the path drops the table's cached plans and
    /// its pin, re-pins and replans — at most [`STALE_RETRIES`] times.
    /// Nothing is pre-validated, so a hit costs one text probe and one pin.
    fn run<T>(
        &self,
        sql: &str,
        mut pins: Option<&mut Pins>,
        finish: impl Fn(&TableState, &Arc<Prepared>) -> Result<T, PhError>,
    ) -> Result<T, PhError> {
        let mut retries = 0;
        loop {
            let (state, plan, hit) = match self.cache.get_by_text(sql) {
                Some(plan) => (self.pin(&plan.query().table, pins.as_deref_mut())?, plan, true),
                None => {
                    let query = {
                        let _parse = span(Stage::Parse);
                        parse_query(sql)?
                    };
                    let state = self.pin(&query.table, pins.as_deref_mut())?;
                    let (plan, hit) = match self.cache.get_by_fp(query.fingerprint()) {
                        Some(plan) => (plan, true),
                        None => {
                            let _miss = span(Stage::PlanCacheMiss);
                            let _plan = span(Stage::Plan);
                            let plan = Arc::new(state.prepare(&query)?.with_session(self.id));
                            self.cache.misses.inc();
                            (plan, false)
                        }
                    };
                    self.cache.insert(sql, &plan);
                    (state, plan, hit)
                }
            };
            if hit {
                // Zero-duration marker: which of hit/miss appears in a trace is
                // the signal; the real time lives in the parse/plan spans.
                drop(span(Stage::PlanCacheHit));
            }
            match finish(&state, &plan) {
                Err(PhError::StalePlan(_)) if retries < STALE_RETRIES => {
                    // A seal or rebuild came between the plan and the pin:
                    // every cached plan of the table is from a dead epoch (or
                    // soon will be), and so may the pin be.
                    let table = &plan.query().table;
                    self.cache.invalidate_table(table);
                    if let Some(pins) = pins.as_deref_mut() {
                        pins.retain(|(name, _)| name != table);
                    }
                    retries += 1;
                }
                done => {
                    if hit {
                        self.cache.hits.inc();
                    }
                    return done;
                }
            }
        }
    }

    /// The version of `table` a query reads: the batch's pin, pinning the live
    /// version at first touch; the live version when there is no batch.
    fn pin(&self, table: &str, pins: Option<&mut Pins>) -> Result<Arc<TableState>, PhError> {
        let Some(pins) = pins else { return Ok(self.cell(table)?.snapshot()) };
        if let Some((_, state)) = pins.iter().find(|(name, _)| name == table) {
            return Ok(state.clone());
        }
        let state = self.cell(table)?.snapshot();
        pins.push((table.to_string(), state.clone()));
        Ok(state)
    }

    /// Runs one query with tracing enabled and returns the answer plus the
    /// full stage breakdown (parse, plan-cache hit/miss, per-segment
    /// estimates, merge …) — the in-process counterpart of the server's
    /// `/debug/slow`. Span offsets are nanoseconds from the call's start.
    ///
    /// Installs a fresh trace on the calling thread for the duration (any
    /// trace already installed is replaced). With tracing disabled
    /// ([`ph_obs::set_tracing`]) or compiled out (`obs-off`), the answer is
    /// returned with an empty breakdown.
    pub fn trace_report(&self, sql: &str) -> Result<(AqpAnswer, Vec<ph_obs::SpanRec>), PhError> {
        ph_obs::trace::install(ph_obs::Trace::new());
        let result = {
            let _root = span(Stage::Query);
            self.sql(sql)
        };
        let spans = ph_obs::trace::take().map(ph_obs::Trace::into_spans).unwrap_or_default();
        Ok((result?, spans))
    }

    /// Starts a batch: returns a [`BatchSession`] whose queries share one
    /// pinned snapshot per table for the lifetime of the batch. Serving loops
    /// that drain N parsed queries at once pay one read-lock + `Arc` bump per
    /// table instead of N.
    pub fn batch(&self) -> BatchSession<'_> {
        BatchSession { session: self, pins: Vec::new() }
    }

    /// Parses and plans one query, returning the cached plan handle. Repeated calls
    /// with the same template return the same `Arc` without re-planning; pair with
    /// [`Session::execute`] for parse-once/execute-many loops. A handle held
    /// across a seal or rebuild of its table fails [`Session::execute`] with
    /// [`PhError::StalePlan`]; re-`prepare` to get a live one.
    ///
    /// The handle is valid for the live version when it is returned: a stale
    /// survivor in the cache (a plan a racing planner re-inserted after a
    /// seal's invalidation sweep) is purged and replanned, so a caller
    /// following the re-`prepare` recipe never loops on a dead handle.
    pub fn prepare(&self, sql: &str) -> Result<Arc<Prepared>, PhError> {
        self.run(sql, None, |state, plan| {
            state.primary().checked_plan(plan)?;
            Ok(plan.clone())
        })
    }

    /// Executes a plan from [`Session::prepare`], routing by its `FROM` table:
    /// the plan runs against every sealed segment (and the delta) of the current
    /// state, and the per-segment estimates are merged.
    ///
    /// Two guards protect against handle misuse: a plan prepared by a *different
    /// session* is rejected by identity (sharing a table name does not make two
    /// catalogs interchangeable), and a plan prepared before its table was
    /// sealed or rebuilt fails with [`PhError::StalePlan`] via the engines'
    /// epoch check.
    pub fn execute(&self, prepared: &Prepared) -> Result<AqpAnswer, PhError> {
        if prepared.session() != 0 && prepared.session() != self.id {
            return Err(PhError::InvalidQuery(format!(
                "plan for '{}' was prepared by a different session; a table of the \
                 same name in another catalog is not the same table — re-prepare \
                 on this session",
                prepared.query()
            )));
        }
        let state = self.cell(&prepared.query().table)?.snapshot();
        state.execute_prepared(prepared)
    }

    /// Plan-cache totals since the session was created.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache.hits.get(),
            misses: self.cache.misses.get(),
            entries: self.cache.entries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::AqpEngine;
    use crate::session::tests::{dataset, session_with};

    /// The one query path, three ways in: `sql`, `batch().sql` and `prepare` +
    /// `execute` walk one sequence — a text hit, a re-spelled fingerprint hit,
    /// a new-literal miss, then a text hit on a plan from before a seal (what a
    /// planner racing the seal's invalidation sweep leaves behind), which goes
    /// stale, re-pins and replans — with equal answers and equal counters.
    #[test]
    fn sql_batch_and_prepare_walk_one_query_path() {
        const Q: &str = "SELECT AVG(y) FROM t WHERE x > 300 AND x < 700";
        let steps = [
            Q,
            "select avg(y) from t where x > 300 and x < 700 ;",
            "SELECT AVG(y) FROM t WHERE x > 301 AND x < 700",
        ];
        fn answer(path: usize, s: &Session, batch: &mut BatchSession<'_>, sql: &str) -> AqpAnswer {
            match path {
                0 => s.sql(sql),
                1 => batch.sql(sql),
                _ => s.prepare(sql).and_then(|p| s.execute(&p)),
            }
            .unwrap()
        }
        let walks: Vec<(Vec<AqpAnswer>, CacheStats)> = (0..3)
            .map(|path| {
                let s = session_with("t", 8_000, 5);
                s.set_max_staleness(0.3);
                s.sql(Q).unwrap();
                let mut batch = s.batch();
                let mut answers: Vec<AqpAnswer> =
                    steps.iter().map(|sql| answer(path, &s, &mut batch, sql)).collect();
                assert_eq!(s.cache_stats(), CacheStats { hits: 2, misses: 2, entries: 2 });
                let old = s.cache.get_by_text(Q).unwrap();
                assert!(s.ingest("t", &dataset("t", 8_000, 6)).unwrap().rebuilt);
                assert!(matches!(s.execute(&old), Err(PhError::StalePlan(_))));
                s.cache.insert(Q, &old);
                let mut batch = s.batch();
                answers.push(answer(path, &s, &mut batch, Q));
                assert_ne!(s.cache.get_by_text(Q).unwrap().token(), old.token(), "path {path}");
                (answers, s.cache_stats())
            })
            .collect();
        assert_eq!(walks[0].0[0], walks[0].0[1], "one template, one answer");
        assert_eq!(walks[0].1, CacheStats { hits: 2, misses: 3, entries: 1 });
        assert!(walks.iter().all(|walk| *walk == walks[0]), "{walks:?}");
    }

    /// The probe a server routes by: true exactly for a spelling the text
    /// index holds, false again once a rebuild drops the table's plans, and it
    /// moves no counter.
    #[test]
    fn is_cached_probes_the_text_index_without_counting() {
        const Q: &str = "SELECT COUNT(y) FROM t WHERE x > 300";
        let s = session_with("t", 8_000, 5);
        s.set_max_staleness(0.3);
        let batch = s.batch();
        assert!(!batch.is_cached(Q));
        s.sql(Q).unwrap();
        assert!(batch.is_cached(Q));
        assert!(!batch.is_cached("select count(y) from t where x > 300"), "never spelled so");
        assert_eq!(s.cache_stats(), CacheStats { hits: 0, misses: 1, entries: 1 });
        assert!(s.ingest("t", &dataset("t", 8_000, 6)).unwrap().rebuilt);
        assert!(!batch.is_cached(Q), "a rebuild drops the table's plans");
    }

    #[test]
    fn prepared_execute_matches_direct_execution() {
        let s = session_with("t", 10_000, 6);
        for sql in [
            "SELECT COUNT(y) FROM t WHERE x > 500",
            "SELECT SUM(x) FROM t WHERE y > 400 OR x < 100",
            "SELECT MEDIAN(x) FROM t WHERE c = 'a'",
            "SELECT COUNT(x) FROM t WHERE y > 200 GROUP BY c",
        ] {
            let p = s.prepare(sql).unwrap();
            let via_prepared = s.execute(&p).unwrap();
            let direct =
                s.engine("t").unwrap().execute(&ph_sql::parse_query(sql).unwrap()).unwrap();
            assert_eq!(via_prepared, direct, "{sql}");
        }
    }

    #[test]
    fn parse_errors_surface_as_ph_error() {
        let s = session_with("t", 1_000, 7);
        assert!(matches!(s.sql("SELECT COUNT(x FROM t"), Err(PhError::Parse(_))));
        assert!(matches!(s.sql("SELECT SUM(c) FROM t"), Err(PhError::InvalidQuery(_))));
        assert!(matches!(s.sql("SELECT COUNT(zzz) FROM t"), Err(PhError::UnknownColumn(_))));
    }

    /// Regression (satellite fix): a `Prepared` from a *different session* whose
    /// table shares the name must be rejected by session identity — with an error
    /// that names the real mistake — not merely by the engine's epoch token.
    #[test]
    fn prepared_from_other_session_rejected_by_identity() {
        let s1 = session_with("t", 3_000, 40);
        let s2 = session_with("t", 3_000, 40); // same name, same rows, other catalog
        let p1 = s1.prepare("SELECT COUNT(x) FROM t WHERE x > 100").unwrap();
        assert!(s1.execute(&p1).is_ok());
        let err = s2.execute(&p1).unwrap_err();
        assert!(
            matches!(&err, PhError::InvalidQuery(m) if m.contains("different session")),
            "cross-session plans must fail the identity check, got: {err:?}"
        );
        // A plan prepared straight on an engine (never session-bound) still
        // passes routing — only the epoch token applies to it.
        let q = ph_sql::parse_query("SELECT COUNT(x) FROM t").unwrap();
        let raw = s2.engine("t").unwrap().prepare(&q).unwrap();
        assert!(s2.execute(&raw).is_ok());
    }
}
