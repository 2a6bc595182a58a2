//! The wire format shared by server and client: answers and errors as JSON,
//! and the [`PhError`] → HTTP status mapping.
//!
//! The serialization is **lossless for `f64`** (shortest-round-trip float
//! formatting on both sides), so an [`AqpAnswer`] that crosses the wire and
//! comes back compares `==` to the original — the bit-identity contract the
//! end-to-end tests pin down.

use std::collections::BTreeMap;

use ph_core::{AqpAnswer, Estimate};
use ph_types::PhError;

use crate::json::{obj, Json};

/// The HTTP status a [`PhError`] surfaces as.
///
/// 4xx = the request is at fault and retrying it unchanged cannot help
/// (malformed SQL, names that don't resolve, a schema the table rejects).
/// `503` = transient serving condition (a plan raced a seal — the retry the
/// session already does internally almost always absorbs this — or the table
/// is quarantined after failing open-time verification: unavailable until an
/// operator re-registers or drops it, while the rest of the catalog serves).
/// `500` = the server's own storage failed.
pub fn status_for(e: &PhError) -> u16 {
    match e {
        PhError::Parse(_) | PhError::UnknownColumn(_) | PhError::InvalidQuery(_) => 400,
        PhError::UnknownTable(_) => 404,
        PhError::Unsupported(_) | PhError::Schema(_) => 422,
        PhError::StalePlan(_) | PhError::Quarantined(_) => 503,
        PhError::Io(_) | PhError::Corrupt(_) => 500,
    }
}

/// The structured error body:
/// `{"error":{"kind":…,"status":…,"message":…[,"position":…]}}`.
/// `position` is the byte offset into the SQL text, when known (parse errors).
pub fn error_body(status: u16, kind: &str, message: &str, position: Option<usize>) -> Json {
    let mut members = vec![
        ("kind", Json::Str(kind.to_owned())),
        ("status", Json::Num(f64::from(status))),
        ("message", Json::Str(message.to_owned())),
    ];
    if let Some(at) = position {
        members.push(("position", Json::Num(at as f64)));
    }
    obj(vec![("error", obj(members))])
}

fn estimate_to_json(e: &Estimate) -> Json {
    obj(vec![
        ("value", Json::Num(e.value)),
        ("lo", Json::Num(e.lo)),
        ("hi", Json::Num(e.hi)),
        ("support", Json::Num(e.support)),
        ("mean", Json::Num(e.mean)),
    ])
}

fn estimate_from_json(v: &Json) -> Result<Estimate, String> {
    let field = |name: &str| -> Result<f64, String> {
        match v.get(name) {
            Some(Json::Num(x)) => Ok(*x),
            Some(Json::Null) | None => Err(format!("estimate is missing {name:?}")),
            Some(other) => Err(format!("estimate member {name:?} is not a number: {other:?}")),
        }
    };
    Ok(Estimate {
        value: field("value")?,
        lo: field("lo")?,
        hi: field("hi")?,
        support: field("support")?,
        mean: field("mean")?,
    })
}

/// `{"kind":"scalar","estimate":{…}|null}` or `{"kind":"groups","groups":{…}}`.
pub fn answer_to_json(answer: &AqpAnswer) -> Json {
    match answer {
        AqpAnswer::Scalar(e) => obj(vec![
            ("kind", Json::Str("scalar".into())),
            ("estimate", e.as_ref().map_or(Json::Null, estimate_to_json)),
        ]),
        AqpAnswer::Groups(groups) => obj(vec![
            ("kind", Json::Str("groups".into())),
            (
                "groups",
                Json::Obj(groups.iter().map(|(g, e)| (g.clone(), estimate_to_json(e))).collect()),
            ),
        ]),
    }
}

/// Parses an answer produced by [`answer_to_json`]. A document that does not
/// have an answer's shape is [`PhError::Corrupt`] — the bytes claim to be an
/// answer and don't decode as one.
pub fn answer_from_json(doc: &Json) -> Result<AqpAnswer, PhError> {
    answer_from_json_inner(doc).map_err(PhError::Corrupt)
}

fn answer_from_json_inner(doc: &Json) -> Result<AqpAnswer, String> {
    match doc.get("kind").and_then(Json::as_str) {
        Some("scalar") => match doc.get("estimate") {
            Some(Json::Null) => Ok(AqpAnswer::Scalar(None)),
            Some(e) => Ok(AqpAnswer::Scalar(Some(estimate_from_json(e)?))),
            None => Err("scalar answer without an \"estimate\" member".into()),
        },
        Some("groups") => {
            let members = doc
                .get("groups")
                .and_then(Json::as_obj)
                .ok_or("groups answer without a \"groups\" object")?;
            let mut groups = BTreeMap::new();
            for (g, e) in members {
                groups.insert(g.clone(), estimate_from_json(e)?);
            }
            Ok(AqpAnswer::Groups(groups))
        }
        other => Err(format!("unknown answer kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_roundtrip_bit_identically() {
        let scalar = AqpAnswer::Scalar(Some(Estimate {
            value: 1.0 / 3.0,
            lo: 0.1,
            hi: 123456.789e-3,
            support: 42.0,
            mean: -0.0,
        }));
        let null = AqpAnswer::Scalar(None);
        let mut m = BTreeMap::new();
        m.insert(
            "a b\"c".to_string(),
            Estimate { value: 2.5, lo: 2.0, hi: 3.0, support: 7.0, mean: 2.5 },
        );
        m.insert(
            "é☃".to_string(),
            Estimate {
                value: f64::MAX,
                lo: f64::MIN_POSITIVE,
                hi: f64::MAX,
                support: 0.0,
                mean: 0.0,
            },
        );
        let groups = AqpAnswer::Groups(m);
        for answer in [scalar, null, groups] {
            let json = answer_to_json(&answer).to_string();
            let back = answer_from_json(&Json::parse(&json).unwrap()).unwrap();
            assert_eq!(back, answer, "through {json}");
        }
    }

    #[test]
    fn status_mapping_covers_every_variant() {
        assert_eq!(status_for(&PhError::Parse("x".into())), 400);
        assert_eq!(status_for(&PhError::UnknownColumn("c".into())), 400);
        assert_eq!(status_for(&PhError::InvalidQuery("q".into())), 400);
        assert_eq!(status_for(&PhError::UnknownTable("t".into())), 404);
        assert_eq!(status_for(&PhError::Unsupported("u".into())), 422);
        assert_eq!(status_for(&PhError::Schema("s".into())), 422);
        assert_eq!(status_for(&PhError::StalePlan("p".into())), 503);
        assert_eq!(status_for(&PhError::Io("i".into())), 500);
        assert_eq!(status_for(&PhError::Corrupt("c".into())), 500);
        assert_eq!(status_for(&PhError::Quarantined("q".into())), 503);
    }
}
