//! Baseline AQP engines the paper evaluates PairwiseHist against.
//!
//! Three families, each reproducing the *defining behaviour* of its published
//! counterpart (full fidelity notes in DESIGN.md §2):
//!
//! * [`SamplingAqp`] — classical uniform-sampling AQP with CLT confidence bounds,
//!   the reference point behind BlinkDB/VerdictDB-style systems (Table 1 context);
//! * [`SpnAqp`] — a sum-product network in the style of DeepDB's RSPNs \[20\]:
//!   k-means row clustering at sum nodes, correlation-partitioned column groups at
//!   product nodes, per-column histogram leaves. Like DeepDB it supports
//!   COUNT/SUM/AVG and **rejects OR predicates** (§2 of the paper documents that
//!   DeepDB does not support OR despite claiming to);
//! * [`KdeAqp`] — DBEst-style per-query-template models \[21, 40\]: kernel density
//!   estimator for the predicate column plus piecewise regression of the aggregate
//!   column, with DBEst's structural limits (one model per template, ≤ 2 columns,
//!   no OR, no MIN/MAX/MEDIAN).
//!
//! All three expose [`AqpBaseline`] (the scalar-only baseline interface the bench
//! harness drives) **and** the workspace-wide [`ph_core::AqpEngine`] trait, so any
//! engine in the workspace — PairwiseHist, the exact scan, or a baseline — answers
//! the same parsed queries and returns the same [`Estimate`]/`AqpAnswer` types.

// Debug/scaffolding egress is banned in library code: a stray println corrupts
// bin protocols (ph-serve speaks HTTP on stdout-adjacent fds) and dbg!/todo!
// are development leftovers. ph-lint R2 bans the panicking macros; these
// clippy denies catch the printing/scaffolding ones.
#![deny(clippy::dbg_macro, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
mod kde;
mod sampling;
mod spn;

pub use kde::{KdeAqp, KdeConfig};
pub use sampling::{SamplingAqp, SamplingConfig};
pub use spn::{SpnAqp, SpnConfig};

/// The shared bounded-estimate type all engines answer with.
pub use ph_core::Estimate;

/// Why a baseline declined a query — the paper's §2/§6 catalogue of unsupported
/// query shapes drives workload support accounting.
#[derive(Debug, Clone, PartialEq)]
pub enum Unsupported {
    /// OR connectives (DeepDB, DBEst++).
    OrPredicate,
    /// Aggregate function outside the engine's repertoire.
    Aggregate(String),
    /// Too many / wrong-column predicates for the model.
    Shape(String),
    /// Malformed query for this schema.
    Invalid(String),
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unsupported::OrPredicate => write!(f, "OR predicates not supported"),
            Unsupported::Aggregate(a) => write!(f, "aggregate {a} not supported"),
            Unsupported::Shape(s) => write!(f, "unsupported query shape: {s}"),
            Unsupported::Invalid(s) => write!(f, "invalid query: {s}"),
        }
    }
}

impl std::error::Error for Unsupported {}

impl From<Unsupported> for ph_types::PhError {
    fn from(e: Unsupported) -> Self {
        match e {
            Unsupported::Invalid(s) => ph_types::PhError::InvalidQuery(s),
            other => ph_types::PhError::Unsupported(other.to_string()),
        }
    }
}

/// Common baseline interface: answer a parsed query approximately, or say why not.
pub trait AqpBaseline {
    /// Engine name for experiment tables.
    fn name(&self) -> &'static str;

    /// Executes a (scalar) query.
    fn execute(&self, query: &ph_sql::Query) -> Result<Estimate, Unsupported>;

    /// Serialized model size in bytes (the paper's synopsis-size metric).
    fn size_bytes(&self) -> usize;
}

/// Implements [`ph_core::AqpEngine`] for a baseline on top of [`AqpBaseline`] plus
/// a per-engine `validate(&self, &Query) -> Result<(), Unsupported>` method (the
/// cheap shape check `prepare` runs instead of a full execution).
macro_rules! baseline_engine {
    ($ty:ty) => {
        impl ph_core::AqpEngine for $ty {
            fn name(&self) -> &'static str {
                crate::AqpBaseline::name(self)
            }

            fn footprint(&self) -> usize {
                self.size_bytes()
            }

            fn prepare(
                &self,
                query: &ph_sql::Query,
            ) -> Result<ph_core::Prepared, ph_types::PhError> {
                self.validate(query)?;
                Ok(ph_core::Prepared::new(
                    crate::AqpBaseline::name(self),
                    query.clone(),
                    Box::new(()),
                ))
            }

            fn execute(
                &self,
                prepared: &ph_core::Prepared,
            ) -> Result<ph_core::AqpAnswer, ph_types::PhError> {
                prepared.check_engine(crate::AqpBaseline::name(self))?;
                let est = crate::AqpBaseline::execute(self, prepared.query())?;
                Ok(ph_core::AqpAnswer::Scalar(Some(est)))
            }
        }
    };
}
pub(crate) use baseline_engine;

#[cfg(test)]
mod tests {
    use super::*;

    /// `ph_core::AqpEngine` carries `Send + Sync` as a supertrait: every baseline
    /// must stay shareable across reader threads (no interior mutability). This
    /// pins that at compile time for all three engines.
    #[test]
    fn baselines_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SamplingAqp>();
        assert_send_sync::<SpnAqp>();
        assert_send_sync::<KdeAqp>();
        assert_send_sync::<Box<dyn ph_core::AqpEngine>>();
    }
}
