// Fixture (linted as crates/core/src/build.rs): only `workers_for` may read the core count.
pub(crate) fn workers_for(units: usize) -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get()).min(units).max(1)
}
fn group_workers(groups: [u32; 4]) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    cores.min(groups.len())
}
#[cfg(test)]
mod tests {
    #[test]
    fn workers_never_exceed_the_cores() {
        let cores = std::thread::available_parallelism().unwrap().get();
        assert!(super::workers_for(usize::MAX) <= cores);
    }
}
