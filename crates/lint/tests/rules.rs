//! Fixture tests: each rule must fire on its `_bad` fixture, stay quiet on its
//! `_good` fixture (which also exercises the justified-allow escape), and the
//! allow auditor must reject the malformed directives in `bad_allow.rs`.
//!
//! Fixtures are lexed from `tests/fixtures/` but linted *as if* they lived at
//! a product path — the rel path passed to `lint_source` is what scopes each
//! rule, and the fixtures directory itself is excluded from workspace scans.

use ph_lint::{lint_source, WsCtx};

/// Reads a fixture and lints it under the given pretend path.
fn lint_fixture(name: &str, pretend_rel: &str, ws: &WsCtx) -> Vec<ph_lint::Diagnostic> {
    let src = read_fixture(name);
    lint_source(pretend_rel, &src, ws)
}

fn read_fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The WsCtx a real scan would build over these fixtures: the good
/// error-convention fixture declares `impl From<GdError> for PhError`.
fn fixture_ws() -> WsCtx {
    let mut ws = WsCtx::default();
    ws.absorb(&ph_lint::FileCtx::new(
        "crates/encoding/src/frame.rs",
        &read_fixture("error_convention_good.rs"),
    ));
    assert!(ws.pherror_froms.iter().any(|f| f == "GdError"), "pre-pass missed the From impl");
    ws
}

fn rules_fired(diags: &[ph_lint::Diagnostic]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = diags.iter().map(|d| d.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn durable_io_fires_on_bad_and_not_on_good() {
    let ws = WsCtx::default();
    let bad = lint_fixture("durable_io_bad.rs", "crates/core/src/ingest.rs", &ws);
    assert_eq!(rules_fired(&bad), ["durable-io"], "{bad:?}");
    assert_eq!(bad.len(), 3, "{bad:?}");
    assert_eq!(bad.iter().map(|d| d.line).collect::<Vec<_>>(), [3, 4, 5]);

    let good = lint_fixture("durable_io_good.rs", "crates/core/src/ingest.rs", &ws);
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn durable_io_is_exempt_in_faultfs_shims_and_tests() {
    let ws = WsCtx::default();
    let src = read_fixture("durable_io_bad.rs");
    for rel in [
        "crates/types/src/faultfs.rs",
        "shims/rand/src/lib.rs",
        "crates/core/tests/persistence.rs",
        "crates/bench/src/lib.rs",
    ] {
        let d = lint_source(rel, &src, &ws);
        assert!(!d.iter().any(|d| d.rule == "durable-io"), "{rel}: {d:?}");
    }
}

#[test]
fn no_panic_fires_on_bad_and_not_on_good() {
    let ws = WsCtx::default();
    let bad = lint_fixture("no_panic_bad.rs", "crates/server/src/handler.rs", &ws);
    assert_eq!(rules_fired(&bad), ["no-panic-serving"], "{bad:?}");
    assert_eq!(bad.iter().map(|d| d.line).collect::<Vec<_>>(), [3, 4, 6, 8, 11], "{bad:?}");

    let good = lint_fixture("no_panic_good.rs", "crates/server/src/handler.rs", &ws);
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn no_panic_scope_is_serving_path_only() {
    let ws = WsCtx::default();
    let src = read_fixture("no_panic_bad.rs");
    // Same code in a non-serving crate: the rule stays quiet (other rules may
    // still apply, so filter).
    for rel in ["crates/datagen/src/lib.rs", "crates/server/src/bin/ph_server.rs"] {
        let d = lint_source(rel, &src, &ws);
        assert!(!d.iter().any(|d| d.rule == "no-panic-serving"), "{rel}: {d:?}");
    }
    // And the three hardened core files are in scope.
    let d = lint_source("crates/core/src/wal.rs", &src, &ws);
    assert!(d.iter().any(|d| d.rule == "no-panic-serving"), "{d:?}");
}

/// The session module is split across files; every one of them — the three
/// the split made and any added since — is serving path, held to R2.
#[test]
fn no_panic_covers_every_file_of_the_session_module() {
    let ws = WsCtx::default();
    let src = read_fixture("no_panic_bad.rs");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src/session");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, ["ingest.rs", "mod.rs", "query.rs"], "update this list with the module");
    for file in files {
        let rel = format!("crates/core/src/session/{file}");
        let d = lint_source(&rel, &src, &ws);
        assert!(d.iter().any(|d| d.rule == "no-panic-serving"), "{rel} is out of scope: {d:?}");
    }
}

#[test]
fn one_parallelism_rule_fires_on_bad_and_not_on_good() {
    let ws = WsCtx::default();
    let bad = lint_fixture("one_parallelism_rule_bad.rs", "crates/core/src/build.rs", &ws);
    assert_eq!(rules_fired(&bad), ["one-parallelism-rule"], "{bad:?}");
    assert_eq!(bad.iter().map(|d| d.line).collect::<Vec<_>>(), [6, 13], "{bad:?}");

    let good = lint_fixture("one_parallelism_rule_good.rs", "crates/core/src/build.rs", &ws);
    assert!(good.is_empty(), "{good:?}");
}

/// `workers_for` is the home only in `build.rs`; outside `ph_core` the rule
/// does not look.
#[test]
fn one_parallelism_rule_home_is_build_rs_in_ph_core() {
    let ws = WsCtx::default();
    let src = read_fixture("one_parallelism_rule_good.rs");
    let d = lint_source("crates/core/src/session/query.rs", &src, &ws);
    assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), [5], "{d:?}");
    let d = lint_source(
        "crates/server/src/executor.rs",
        &read_fixture("one_parallelism_rule_bad.rs"),
        &ws,
    );
    assert!(d.iter().all(|d| d.rule != "one-parallelism-rule"), "{d:?}");
}

#[test]
fn bounded_reserve_fires_on_bad_and_not_on_good() {
    let ws = WsCtx::default();
    let bad = lint_fixture("bounded_reserve_bad.rs", "crates/gd/src/codec/dict.rs", &ws);
    assert_eq!(rules_fired(&bad), ["bounded-reserve"], "{bad:?}");
    assert_eq!(bad.iter().map(|d| d.line).collect::<Vec<_>>(), [5, 7, 8, 15, 18], "{bad:?}");

    let good = lint_fixture("bounded_reserve_good.rs", "crates/gd/src/codec/dict.rs", &ws);
    assert!(good.is_empty(), "{good:?}");
}

/// The decoders of ph_core, ph_gd and ph_encoding are in scope; other crates
/// are not.
#[test]
fn bounded_reserve_covers_the_three_decoding_crates() {
    let ws = WsCtx::default();
    let src = read_fixture("bounded_reserve_bad.rs");
    for rel in ["crates/core/src/wal.rs", "crates/encoding/src/qlog.rs", "crates/gd/src/store.rs"] {
        let d = lint_source(rel, &src, &ws);
        assert!(d.iter().any(|d| d.rule == "bounded-reserve"), "{rel} is out of scope: {d:?}");
    }
    for rel in ["crates/server/src/http.rs", "crates/obs/src/ring.rs", "phbench/src/spans.rs"] {
        let d = lint_source(rel, &src, &ws);
        assert!(d.iter().all(|d| d.rule != "bounded-reserve"), "{rel}: {d:?}");
    }
}

#[test]
fn one_bit_plane_fires_on_bad_and_not_on_good() {
    let ws = WsCtx::default();
    let bad = lint_fixture("one_bit_plane_bad.rs", "crates/gd/src/codec/bitpack.rs", &ws);
    assert_eq!(rules_fired(&bad), ["one-bit-plane"], "{bad:?}");
    assert_eq!(bad.iter().map(|d| d.line).collect::<Vec<_>>(), [5, 12], "{bad:?}");

    let good = lint_fixture("one_bit_plane_good.rs", "crates/gd/src/codec/bitpack.rs", &ws);
    assert!(good.is_empty(), "{good:?}");
    // The bit reader and writer themselves live outside the codec layer.
    let d = lint_source("crates/encoding/src/bitio.rs", &read_fixture("one_bit_plane_bad.rs"), &ws);
    assert!(d.iter().all(|d| d.rule != "one-bit-plane"), "{d:?}");
}

#[test]
fn file_size_cap_fires_on_bad_and_not_on_good() {
    let ws = WsCtx::default();
    let bad = lint_fixture("file_size_cap_bad.rs", "crates/core/src/engine.rs", &ws);
    assert_eq!(rules_fired(&bad), ["file-size-cap"], "{bad:?}");
    assert_eq!(bad.iter().map(|d| d.line).collect::<Vec<_>>(), [1201], "{bad:?}");

    let good = lint_fixture("file_size_cap_good.rs", "crates/core/src/engine.rs", &ws);
    assert!(good.is_empty(), "{good:?}");
    // Exactly at the cap is within it, and only crate sources are capped.
    let src = read_fixture("file_size_cap_bad.rs");
    let at_cap = &src[..src.len() - 1];
    assert!(lint_source("crates/core/src/engine.rs", at_cap, &ws).is_empty());
    for rel in ["tests/corruption.rs", "crates/lint/tests/rules.rs", "phbench/src/main.rs"] {
        assert!(lint_source(rel, &src, &ws).is_empty(), "{rel}");
    }
}

#[test]
fn lock_across_io_fires_on_bad_and_not_on_good() {
    let ws = WsCtx::default();
    let bad = lint_fixture("lock_across_io_bad.rs", "crates/core/src/flush.rs", &ws);
    assert_eq!(rules_fired(&bad), ["lock-across-io"], "{bad:?}");
    assert_eq!(bad.iter().map(|d| d.line).collect::<Vec<_>>(), [4, 10], "{bad:?}");

    let good = lint_fixture("lock_across_io_good.rs", "crates/core/src/flush.rs", &ws);
    assert!(good.is_empty(), "{good:?}");
}

/// Event-loop serving code is double-covered: R2 catches the panicking slab
/// idioms, R3 catches poll-shim I/O (including the self-pipe `notify()`)
/// performed while a queue/slab guard is live. The good fixture shows the
/// sanctioned shapes: `get_mut` slab access, scoped guards, notify-after-drop,
/// and condvar signalling (which R3 must NOT confuse with the poller wakeup).
#[test]
fn event_loop_fixtures_cover_no_panic_and_lock_across_io() {
    let ws = WsCtx::default();
    let bad = lint_fixture("event_loop_bad.rs", "crates/server/src/server.rs", &ws);
    let r2_lines: Vec<u32> =
        bad.iter().filter(|d| d.rule == "no-panic-serving").map(|d| d.line).collect();
    assert_eq!(r2_lines, [5, 5], "indexing + unwrap on the slab line: {bad:?}");
    let r3: Vec<_> = bad.iter().filter(|d| d.rule == "lock-across-io").collect();
    assert_eq!(r3.iter().map(|d| d.line).collect::<Vec<_>>(), [12, 17], "{bad:?}");
    assert!(r3[0].message.contains("self-pipe"), "{bad:?}");
    assert!(r3[1].message.contains("poll-shim"), "{bad:?}");

    let good = lint_fixture("event_loop_good.rs", "crates/server/src/server.rs", &ws);
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn error_convention_fires_on_bad_and_not_on_good() {
    let ws = fixture_ws();
    let bad = lint_fixture("error_convention_bad.rs", "crates/encoding/src/frame.rs", &ws);
    assert_eq!(rules_fired(&bad), ["error-convention"], "{bad:?}");
    assert_eq!(bad.len(), 2, "{bad:?}");
    assert!(bad[0].message.contains("String"), "{bad:?}");
    assert!(bad[1].message.contains("ParseFailure"), "{bad:?}");

    let good = lint_fixture("error_convention_good.rs", "crates/encoding/src/frame.rs", &ws);
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn wire_float_fires_on_bad_and_not_on_good() {
    let ws = WsCtx::default();
    let bad = lint_fixture("wire_float_bad.rs", "crates/server/src/wire.rs", &ws);
    assert_eq!(rules_fired(&bad), ["wire-float-hygiene"], "{bad:?}");
    assert_eq!(bad.iter().map(|d| d.line).collect::<Vec<_>>(), [3, 4, 5, 6], "{bad:?}");

    let good = lint_fixture("wire_float_good.rs", "crates/server/src/wire.rs", &ws);
    assert!(good.is_empty(), "{good:?}");

    // The same stringification outside a wire-format file is not this rule's
    // business.
    let src = read_fixture("wire_float_bad.rs");
    let d = lint_source("crates/server/src/metrics.rs", &src, &ws);
    assert!(!d.iter().any(|d| d.rule == "wire-float-hygiene"), "{d:?}");
}

#[test]
fn safety_comment_fires_on_bad_and_not_on_good() {
    let ws = WsCtx::default();
    let bad = lint_fixture("safety_comment_bad.rs", "crates/encoding/src/bitio.rs", &ws);
    assert_eq!(rules_fired(&bad), ["safety-comment"], "{bad:?}");
    assert_eq!(bad.iter().map(|d| d.line).collect::<Vec<_>>(), [3, 6], "{bad:?}");

    let good = lint_fixture("safety_comment_good.rs", "crates/encoding/src/bitio.rs", &ws);
    assert!(good.is_empty(), "{good:?}");
}

/// `ph_obs` is serving-path code: spans and ring pushes run inside query
/// execution, so R2 holds it to the same panic-freedom as `ph_server`.
#[test]
fn no_panic_covers_the_obs_crate() {
    let ws = WsCtx::default();
    let bad = lint_fixture("obs_ring_bad.rs", "crates/obs/src/ring.rs", &ws);
    let r2_lines: Vec<u32> =
        bad.iter().filter(|d| d.rule == "no-panic-serving").map(|d| d.line).collect();
    assert_eq!(r2_lines, [5, 6], "lock unwrap + slice index: {bad:?}");

    let good = lint_fixture("obs_ring_good.rs", "crates/obs/src/ring.rs", &ws);
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn metric_help_fires_on_bad_and_not_on_good() {
    let ws = WsCtx::default();
    let bad = lint_fixture("metric_help_bad.rs", "crates/server/src/server.rs", &ws);
    let fired: Vec<u32> = bad.iter().filter(|d| d.rule == "metric-help").map(|d| d.line).collect();
    assert_eq!(fired, [3, 4, 5, 6], "{bad:?}");

    let good = lint_fixture("metric_help_good.rs", "crates/server/src/server.rs", &ws);
    assert!(!good.iter().any(|d| d.rule == "metric-help"), "{good:?}");

    // Registrations in tests are out of scope.
    let src = read_fixture("metric_help_bad.rs");
    let d = lint_source("crates/obs/tests/registry.rs", &src, &ws);
    assert!(!d.iter().any(|d| d.rule == "metric-help"), "{d:?}");
}

#[test]
fn bad_allow_audit_catches_all_three_failure_modes() {
    let ws = WsCtx::default();
    let d = lint_fixture("bad_allow.rs", "crates/core/src/ingest.rs", &ws);
    let bad_allows: Vec<_> = d.iter().filter(|d| d.rule == "bad-allow").collect();
    assert_eq!(bad_allows.len(), 3, "{d:?}");
    assert!(bad_allows.iter().any(|d| d.message.contains("justification")), "{d:?}");
    assert!(bad_allows.iter().any(|d| d.message.contains("no-such-rule")), "{d:?}");
    assert!(bad_allows.iter().any(|d| d.message.contains("malformed")), "{d:?}");
    // The unjustified allow suppressed nothing.
    assert!(d.iter().any(|d| d.rule == "durable-io" && d.line == 4), "{d:?}");
}

#[test]
fn the_workspace_itself_is_clean() {
    // The gate's own acceptance criterion: `ph-lint` exits 0 on this repo.
    // Running it here too means `cargo test` alone catches a regression even
    // if someone skips the CI lint job locally.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint has a workspace two levels up");
    let ws = ph_lint::Workspace::scan(root).expect("scan workspace");
    assert!(ws.file_count() > 50, "scan found only {} files — walk is broken", ws.file_count());
    let diags = ws.lint();
    assert!(
        diags.is_empty(),
        "workspace has {} lint violations:\n{}",
        diags.len(),
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// The segment load and the refit's decode are serving path: an ingest that
/// forces a refit decodes every stored column under the writer lock.
#[test]
fn no_panic_covers_the_segment_decode() {
    let ws = WsCtx::default();
    let bad = lint_fixture("no_panic_segment_bad.rs", "crates/core/src/segment.rs", &ws);
    assert_eq!(rules_fired(&bad), ["no-panic-serving"], "{bad:?}");
    assert_eq!(bad.iter().map(|d| d.line).collect::<Vec<_>>(), [5, 6], "{bad:?}");

    let good = lint_fixture("no_panic_segment_good.rs", "crates/core/src/segment.rs", &ws);
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn one_wire_layer_fires_on_bad_and_not_on_good() {
    let ws = WsCtx::default();
    let bad = lint_fixture("one_wire_layer_bad.rs", "crates/core/src/storage.rs", &ws);
    assert_eq!(rules_fired(&bad), ["one-wire-layer"], "{bad:?}");
    assert_eq!(bad.iter().map(|d| d.line).collect::<Vec<_>>(), [4, 5, 6], "{bad:?}");

    let good = lint_fixture("one_wire_layer_good.rs", "crates/core/src/storage.rs", &ws);
    assert!(good.is_empty(), "{good:?}");
}

/// `ph_core` and `ph_gd` are in scope; the writer itself, the GreedyGD store,
/// the in-memory span ring and the benchmark are not.
#[test]
fn one_wire_layer_scope_is_the_durable_formats() {
    let ws = WsCtx::default();
    let src = read_fixture("one_wire_layer_bad.rs");
    let fires = |rel: &str| lint_source(rel, &src, &ws).iter().any(|d| d.rule == "one-wire-layer");
    for rel in
        ["crates/core/src/wal.rs", "crates/gd/src/codec/dict.rs", "crates/gd/src/preprocess.rs"]
    {
        assert!(fires(rel), "{rel} is out of scope");
    }
    for rel in [
        "crates/encoding/src/bytes.rs",
        "crates/gd/src/store.rs",
        "crates/obs/src/ring.rs",
        "phbench/src/spans.rs",
        "crates/core/tests/persistence.rs",
    ] {
        assert!(!fires(rel), "{rel} is in scope");
    }
}
