// Fixture (linted as crates/core/src/build.rs): the core count is read in
// `workers_for` alone; a mention in a comment or a string is not a read.
pub(crate) fn workers_for(units: usize) -> usize {
    let read = |n: std::num::NonZeroUsize| n.get();
    std::thread::available_parallelism().map_or(1, read).min(units).max(1)
}
fn group_workers(groups: [u32; 4]) -> usize {
    // Not std::thread::available_parallelism() again: one rule.
    workers_for(groups.len())
}
const WHY: &str = "available_parallelism is read once";
