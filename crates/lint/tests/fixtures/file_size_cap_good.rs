// Fixture (linted as crates/core/src/engine.rs): a module well under the cap.
pub fn f() -> u32 {
    1
}
