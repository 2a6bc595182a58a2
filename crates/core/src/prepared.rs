//! The engine-agnostic AQP interface: [`AqpEngine`] and [`Prepared`] queries.
//!
//! The paper frames PairwiseHist as one interchangeable AQP engine among several
//! (exact scan, uniform sampling, DeepDB-style SPN, DBEst-style KDE). This module
//! is that frame made concrete: every engine in the workspace answers the same
//! parsed [`Query`] through the same two-phase protocol —
//!
//! 1. **prepare** — resolve names against the schema, type-check the predicate,
//!    and run whatever per-query planning the engine needs (for PairwiseHist,
//!    the §5.1 literal transformation and §5.2 plan canonicalization). The result
//!    is a [`Prepared`] handle that can be executed any number of times.
//! 2. **execute** — run the prepared plan, returning the shared
//!    [`AqpAnswer`](crate::AqpAnswer) type (bounded [`Estimate`](crate::Estimate)s).
//!
//! Splitting the phases is what makes a serving catalog fast: a repeated query
//! template pays for parsing and planning once, and the hot path is a hash lookup
//! plus the engine's estimator kernel.

use std::any::Any;

use ph_sql::Query;
use ph_types::PhError;

use crate::engine::AqpAnswer;

/// A query prepared by one engine: the parsed query, its cache fingerprint, and an
/// opaque engine-specific plan payload.
///
/// `Prepared` values are engine-bound — executing one against a different engine
/// (or an engine of the same type over a different schema) is an error the engine
/// detects, not undefined behaviour.
pub struct Prepared {
    query: Query,
    fingerprint: u64,
    engine: &'static str,
    /// Engine-instance binding (see [`Prepared::with_token`]); 0 = unbound.
    token: u64,
    /// Session-identity binding (see [`Prepared::with_session`]); 0 = unbound.
    session: u64,
    payload: Box<dyn Any + Send + Sync>,
}

impl Prepared {
    /// Wraps an engine's plan payload. `engine` must be the preparing engine's
    /// [`AqpEngine::name`].
    pub fn new(engine: &'static str, query: Query, payload: Box<dyn Any + Send + Sync>) -> Self {
        let fingerprint = query.fingerprint();
        Self { query, fingerprint, engine, token: 0, session: 0, payload }
    }

    /// Binds this plan to a specific engine *instance* (or schema epoch). An
    /// engine whose plans embed instance-specific state (resolved column indices,
    /// encoded-domain literals) sets a token at prepare time and refuses plans
    /// whose token no longer matches — e.g. after a synopsis rebuild refits the
    /// preprocessor, stale handles fail loudly instead of answering wrongly.
    pub fn with_token(mut self, token: u64) -> Self {
        self.token = token;
        self
    }

    /// The instance token set by [`Prepared::with_token`] (0 when unbound).
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Checks the engine-instance token against the executing instance's current
    /// one, the standard epoch-validation guard: a plan prepared before a rebuild
    /// (or against a different instance entirely) fails with
    /// [`PhError::StalePlan`] instead of silently answering over a synopsis whose
    /// encoded domain it was never compiled for. An unbound plan (`token == 0`)
    /// is the engine's own declaration that its plans carry no instance state and
    /// passes unconditionally.
    pub fn check_token(&self, current: u64) -> Result<(), PhError> {
        if self.token == 0 || self.token == current {
            Ok(())
        } else {
            Err(PhError::StalePlan(format!(
                "plan for '{}' was prepared against engine instance epoch {}, the \
                 serving instance is at epoch {current}; re-prepare the query",
                self.query, self.token
            )))
        }
    }

    /// Binds this plan to the `Session` that created it (see
    /// `Session::execute`'s identity check). Engine instances already refuse
    /// foreign plans through the epoch token; the session binding exists so the
    /// refusal names the real mistake — a plan carried across catalogs that
    /// happen to share a table name — rather than a generic staleness.
    pub fn with_session(mut self, session: u64) -> Self {
        self.session = session;
        self
    }

    /// The session id set by [`Prepared::with_session`] (0 when unbound).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The parsed query this plan answers.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Cache key: [`Query::fingerprint`] of the prepared query.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Name of the engine that prepared this query.
    pub fn engine(&self) -> &'static str {
        self.engine
    }

    /// Downcasts the plan payload. Engines use this in `execute`; a `None` means
    /// the `Prepared` came from a different engine type.
    pub fn payload<T: 'static>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }

    /// Checks this plan was prepared by `engine`, the standard guard at the top of
    /// every [`AqpEngine::execute`] implementation.
    pub fn check_engine(&self, engine: &'static str) -> Result<(), PhError> {
        if self.engine == engine {
            Ok(())
        } else {
            Err(PhError::InvalidQuery(format!(
                "plan was prepared by engine '{}', executed on '{engine}'",
                self.engine
            )))
        }
    }
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("engine", &self.engine)
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .field("query", &self.query.to_string())
            .finish()
    }
}

/// One interchangeable AQP engine: anything that can plan and answer queries of
/// the paper's template over a fixed table.
///
/// Implemented by `PairwiseHist` (this crate), `ph_exact::ExactEngine`, and the
/// three baselines (`SamplingAqp`, `SpnAqp`, `KdeAqp`), so harnesses, the
/// `Session` catalog, and applications can treat engines uniformly and every
/// engine returns the same [`AqpAnswer`]/[`Estimate`](crate::Estimate) types.
///
/// `Send + Sync` is a supertrait: engines are immutable once built (updates go
/// through out-of-place replacement, never in-place mutation of a serving
/// instance), so any engine can serve concurrent readers behind an `Arc` — the
/// contract the thread-safe `Session` catalog is built on. An engine that needs
/// interior mutability must make it thread-safe to implement the trait at all.
pub trait AqpEngine: Send + Sync {
    /// Engine name for routing, experiment tables and error messages.
    fn name(&self) -> &'static str;

    /// Serialized model/synopsis size in bytes (the paper's storage metric).
    fn footprint(&self) -> usize;

    /// Plans a parsed query: name resolution, type checks, and engine-specific
    /// compilation. Fails with the engine's reason when the shape is unsupported.
    fn prepare(&self, query: &Query) -> Result<Prepared, PhError>;

    /// Executes a previously prepared query.
    fn execute(&self, prepared: &Prepared) -> Result<AqpAnswer, PhError>;

    /// Whether the engine can answer this query shape (the Table 1 versatility
    /// matrix as a predicate). Default: try to prepare.
    fn supports(&self, query: &Query) -> bool {
        self.prepare(query).is_ok()
    }

    /// Prepare-and-execute in one call, for one-shot queries.
    fn answer(&self, query: &Query) -> Result<AqpAnswer, PhError> {
        let p = self.prepare(query)?;
        self.execute(&p)
    }
}
