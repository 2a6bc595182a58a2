//! Fault-injecting filesystem shim for crash-safety tests.
//!
//! Every durability-critical filesystem operation in the workspace (WAL
//! appends, snapshot writes, renames, fsyncs, sweeps) goes through the thin
//! wrappers in this module instead of calling `std::fs` directly. In
//! production the wrappers are pass-throughs: one thread-local borrow and a
//! branch. Under test, a [`FaultPlan`] armed on the current thread makes the
//! `k`-th operation fail in a controlled way, so a crash-matrix test can kill
//! the process's durability state machine at *every* step and assert that
//! reopening the catalog recovers all acknowledged rows.
//!
//! The plan is thread-local on purpose: all durability I/O in `ph_core` runs
//! on the thread that called `ingest`/`save_dir`/`open_dir`, and thread-local
//! state keeps parallel tests from injecting faults into each other.
//!
//! Fault semantics (see [`FaultKind`]):
//!
//! * Crash-flavoured faults ([`FaultKind::ShortWrite`],
//!   [`FaultKind::TornRename`]) model `kill -9`: the triggering operation is
//!   torn or skipped, and every subsequent operation on the thread fails until
//!   [`disarm`] — the "process" is dead, only the bytes already on disk
//!   survive.
//! * [`FaultKind::Enospc`] models a full disk: the triggering mutation fails
//!   with an `ENOSPC`-style error but the process lives on, so callers must
//!   propagate the error and leave the previous on-disk state intact.
//! * [`FaultKind::ReadCorruption`] models bit-rot: the first read at or after
//!   the trigger point returns its bytes with one bit flipped.

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};

/// What goes wrong at the trigger point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A file write persists only a prefix of its bytes, then the process
    /// "dies". On a non-write operation this degrades to a plain crash (the
    /// operation does not execute).
    ShortWrite,
    /// A mutating operation fails with an ENOSPC-style error; the process
    /// keeps running and later operations succeed.
    Enospc,
    /// A rename is lost — neither executed nor durable — then the process
    /// "dies". On a non-rename operation this degrades to a plain crash.
    TornRename,
    /// The first read at or after the trigger point returns corrupted bytes
    /// (one bit flipped); the process keeps running.
    ReadCorruption,
}

/// A fault armed on the current thread: `kind` fires at the
/// `trigger_at_op`-th wrapped operation (0-based). Use
/// `trigger_at_op == usize::MAX` for a pure counting run.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// 0-based index of the operation that triggers the fault.
    pub trigger_at_op: usize,
    /// Failure mode at the trigger point.
    pub kind: FaultKind,
}

#[derive(Default)]
struct FaultState {
    plan: Option<FaultPlan>,
    ops: usize,
    crashed: bool,
    fired: bool,
}

thread_local! {
    static STATE: RefCell<FaultState> = RefCell::new(FaultState::default());
}

/// Arms `plan` on the current thread and resets the operation counter.
pub fn arm(plan: FaultPlan) {
    STATE.with(|s| *s.borrow_mut() = FaultState { plan: Some(plan), ..Default::default() });
}

/// Disarms any fault plan, "reviving" a crashed thread. Returns the number of
/// wrapped operations observed since [`arm`].
pub fn disarm() -> usize {
    STATE.with(|s| {
        let ops = s.borrow().ops;
        *s.borrow_mut() = FaultState::default();
        ops
    })
}

/// Operations observed on this thread since the last [`arm`].
pub fn ops_so_far() -> usize {
    STATE.with(|s| s.borrow().ops)
}

/// Whether the armed fault has fired yet.
pub fn fault_fired() -> bool {
    STATE.with(|s| s.borrow().fired)
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Write,
    Read,
    Rename,
    Other,
}

fn dead() -> io::Error {
    io::Error::other("faultfs: process crashed at injection point")
}

fn enospc() -> io::Error {
    io::Error::other("faultfs: No space left on device (ENOSPC)")
}

/// Counts the operation and decides its fate: `Ok(None)` = run normally,
/// `Ok(Some(kind))` = this op triggers `kind`, `Err` = thread already crashed.
fn check_op(op: Op) -> io::Result<Option<FaultKind>> {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let Some(plan) = st.plan else { return Ok(None) };
        if st.crashed {
            return Err(dead());
        }
        let idx = st.ops;
        st.ops += 1;
        if st.fired || idx < plan.trigger_at_op {
            return Ok(None);
        }
        // ReadCorruption waits for a read; everything else fires exactly at
        // the trigger index.
        if plan.kind == FaultKind::ReadCorruption {
            if op != Op::Read {
                return Ok(None);
            }
            st.fired = true;
            return Ok(Some(FaultKind::ReadCorruption));
        }
        if idx > plan.trigger_at_op {
            return Ok(None);
        }
        st.fired = true;
        match plan.kind {
            FaultKind::ShortWrite | FaultKind::TornRename => st.crashed = true,
            FaultKind::Enospc | FaultKind::ReadCorruption => {}
        }
        Ok(Some(plan.kind))
    })
}

/// Whole-file write (`std::fs::write`).
pub fn write(path: &Path, data: &[u8]) -> io::Result<()> {
    match check_op(Op::Write)? {
        None => std::fs::write(path, data),
        Some(FaultKind::ShortWrite) => {
            // Persist a prefix, then die: the torn file is what a crash
            // mid-write leaves behind.
            std::fs::write(path, &data[..data.len() / 2])?;
            Err(dead())
        }
        Some(FaultKind::Enospc) => Err(enospc()),
        Some(_) => Err(dead()),
    }
}

/// Appends `data` to `path`, creating the file if needed.
pub fn append(path: &Path, data: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    let fate = check_op(Op::Write)?;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    match fate {
        None => f.write_all(data),
        Some(FaultKind::ShortWrite) => {
            f.write_all(&data[..data.len() / 2])?;
            Err(dead())
        }
        Some(FaultKind::Enospc) => Err(enospc()),
        Some(_) => Err(dead()),
    }
}

/// Whole-file read (`std::fs::read`).
pub fn read(path: &Path) -> io::Result<Vec<u8>> {
    match check_op(Op::Read)? {
        None => std::fs::read(path),
        Some(FaultKind::ReadCorruption) => {
            let mut data = std::fs::read(path)?;
            if !data.is_empty() {
                let mid = data.len() / 2;
                data[mid] ^= 0x40;
            }
            Ok(data)
        }
        Some(FaultKind::Enospc) => std::fs::read(path),
        Some(_) => Err(dead()),
    }
}

/// Atomic rename (`std::fs::rename`).
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    match check_op(Op::Rename)? {
        None => std::fs::rename(from, to),
        // The rename is simply lost: source stays, destination keeps its old
        // content — the post-reboot state when the dir entry was never synced.
        Some(FaultKind::TornRename) => Err(dead()),
        Some(FaultKind::Enospc) => Err(enospc()),
        Some(_) => Err(dead()),
    }
}

/// Flushes file contents + metadata to disk (`File::sync_all`).
pub fn fsync_file(path: &Path) -> io::Result<()> {
    match check_op(Op::Other)? {
        None => std::fs::OpenOptions::new().read(true).open(path)?.sync_all(),
        Some(FaultKind::Enospc) => Err(enospc()),
        Some(_) => Err(dead()),
    }
}

/// Flushes a directory's entry table so renames/creates in it are durable.
/// A no-op on platforms where directories cannot be opened for sync.
pub fn fsync_dir(path: &Path) -> io::Result<()> {
    match check_op(Op::Other)? {
        None => {
            #[cfg(unix)]
            {
                std::fs::File::open(path)?.sync_all()
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Ok(())
            }
        }
        Some(FaultKind::Enospc) => Err(enospc()),
        Some(_) => Err(dead()),
    }
}

/// Recursive directory creation (`std::fs::create_dir_all`).
pub fn create_dir_all(path: &Path) -> io::Result<()> {
    match check_op(Op::Other)? {
        None => std::fs::create_dir_all(path),
        Some(FaultKind::Enospc) => Err(enospc()),
        Some(_) => Err(dead()),
    }
}

/// Truncates `path` to `len` bytes (`File::set_len`) and fsyncs — how a torn
/// WAL tail is amputated so later appends land after the intact prefix.
pub fn truncate(path: &Path, len: u64) -> io::Result<()> {
    match check_op(Op::Write)? {
        None => {
            let f = std::fs::OpenOptions::new().write(true).open(path)?;
            f.set_len(len)?;
            f.sync_all()
        }
        Some(FaultKind::Enospc) => Err(enospc()),
        Some(_) => Err(dead()),
    }
}

/// File length in bytes (`std::fs::metadata`), faultable only as a crash
/// point — a metadata probe never lies about a file it can see.
pub fn file_len(path: &Path) -> io::Result<u64> {
    match check_op(Op::Other)? {
        Some(FaultKind::ShortWrite) | Some(FaultKind::TornRename) => Err(dead()),
        _ => Ok(std::fs::metadata(path)?.len()),
    }
}

/// File deletion (`std::fs::remove_file`).
pub fn remove_file(path: &Path) -> io::Result<()> {
    match check_op(Op::Other)? {
        None => std::fs::remove_file(path),
        Some(FaultKind::Enospc) => Err(enospc()),
        Some(_) => Err(dead()),
    }
}

/// Directory listing, faultable only as a crash point (listing never lies).
pub fn read_dir_paths(path: &Path) -> io::Result<Vec<PathBuf>> {
    match check_op(Op::Other)? {
        Some(FaultKind::ShortWrite) | Some(FaultKind::TornRename) => Err(dead()),
        _ => {
            let mut out = Vec::new();
            for entry in std::fs::read_dir(path)? {
                out.push(entry?.path());
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ph_faultfs_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn passthrough_when_disarmed() {
        let dir = tmp("pass");
        let p = dir.join("a.bin");
        write(&p, b"hello").unwrap();
        assert_eq!(read(&p).unwrap(), b"hello");
        assert_eq!(ops_so_far(), 0, "counter only runs while armed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_tears_then_kills() {
        let dir = tmp("short");
        let p = dir.join("a.bin");
        arm(FaultPlan { trigger_at_op: 0, kind: FaultKind::ShortWrite });
        assert!(write(&p, b"abcdef").is_err());
        // Later ops on the "dead" thread fail too.
        assert!(write(&dir.join("b.bin"), b"x").is_err());
        assert!(read(&p).is_err());
        disarm();
        assert_eq!(read(&p).unwrap(), b"abc", "half the bytes persisted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_is_survivable() {
        let dir = tmp("enospc");
        let p = dir.join("a.bin");
        arm(FaultPlan { trigger_at_op: 0, kind: FaultKind::Enospc });
        let err = write(&p, b"abc").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"));
        // The very next op succeeds: disk-full is transient, not fatal.
        write(&p, b"abc").unwrap();
        assert_eq!(disarm(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_rename_preserves_both_sides() {
        let dir = tmp("rename");
        let src = dir.join("src");
        let dst = dir.join("dst");
        std::fs::write(&src, b"new").unwrap();
        std::fs::write(&dst, b"old").unwrap();
        arm(FaultPlan { trigger_at_op: 0, kind: FaultKind::TornRename });
        assert!(rename(&src, &dst).is_err());
        disarm();
        assert_eq!(std::fs::read(&dst).unwrap(), b"old");
        assert_eq!(std::fs::read(&src).unwrap(), b"new");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_corruption_defers_to_first_read() {
        let dir = tmp("corrupt");
        let p = dir.join("a.bin");
        arm(FaultPlan { trigger_at_op: 0, kind: FaultKind::ReadCorruption });
        write(&p, b"abcdef").unwrap(); // op 0 is a write: fault waits
        let got = read(&p).unwrap();
        assert_ne!(got, b"abcdef", "one bit flipped");
        assert_eq!(got.len(), 6);
        assert!(fault_fired());
        assert_eq!(read(&p).unwrap(), b"abcdef", "corruption fires once");
        disarm();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trigger_indexes_are_deterministic() {
        let dir = tmp("det");
        let p = dir.join("a.bin");
        arm(FaultPlan { trigger_at_op: usize::MAX, kind: FaultKind::ShortWrite });
        write(&p, b"one").unwrap();
        fsync_file(&p).unwrap();
        rename(&p, &dir.join("b.bin")).unwrap();
        let total = disarm();
        assert_eq!(total, 3);
        // Re-running the same sequence with the fault at op 1 kills the fsync.
        arm(FaultPlan { trigger_at_op: 1, kind: FaultKind::ShortWrite });
        write(&p, b"one").unwrap();
        assert!(fsync_file(&p).is_err());
        disarm();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
