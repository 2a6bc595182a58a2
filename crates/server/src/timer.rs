//! The hashed timer wheel behind the event loop's per-connection read, write
//! and idle deadlines (and its accept back-off).

use std::time::{Duration, Instant};

/// Timer-wheel granularity. Deadlines fire within one tick of their instant.
const WHEEL_TICK: Duration = Duration::from_millis(25);

/// Timer-wheel slots. Deadlines further out than `WHEEL_TICK × SLOTS` wrap
/// and fire early; the lazy re-validation on fire reschedules them, so a
/// small table stays correct for arbitrarily long deadlines.
const WHEEL_SLOTS: usize = 256;

/// Hashed timer wheel with lazy re-validation: entries are `(key, gen)`
/// hints, not authoritative deadlines. On fire the loop re-reads the
/// connection's *current* deadlines — an entry for a dead connection (gen
/// mismatch) is dropped, one for a moved deadline reschedules itself. So
/// arming is O(1), cancellation is free, and deadlines past one wheel
/// rotation merely fire a few cheap revalidations early.
pub(crate) struct TimerWheel {
    slots: Vec<Vec<(usize, u64)>>,
    origin: Instant,
    /// Ticks fully drained so far.
    cursor: u64,
}

impl TimerWheel {
    pub(crate) fn new(origin: Instant) -> Self {
        Self { slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(), origin, cursor: 0 }
    }

    fn tick_of(&self, t: Instant) -> u64 {
        (t.saturating_duration_since(self.origin).as_millis() / WHEEL_TICK.as_millis().max(1))
            as u64
    }

    pub(crate) fn schedule(&mut self, key: usize, gen: u64, deadline: Instant) {
        // +1 so the entry fires at-or-after the deadline, never a tick short;
        // never behind the cursor or it would sit un-drained for a rotation.
        let tick = (self.tick_of(deadline) + 1).max(self.cursor + 1);
        if let Some(slot) = self.slots.get_mut((tick % WHEEL_SLOTS as u64) as usize) {
            slot.push((key, gen));
        }
    }

    /// All entries whose tick has passed. Bounded: a loop stalled longer than
    /// one rotation drains every slot exactly once.
    pub(crate) fn drain_expired(&mut self, now: Instant) -> Vec<(usize, u64)> {
        let target = self.tick_of(now);
        if target <= self.cursor {
            return Vec::new();
        }
        let steps = (target - self.cursor).min(WHEEL_SLOTS as u64);
        let mut out = Vec::new();
        for _ in 0..steps {
            self.cursor += 1;
            if let Some(slot) = self.slots.get_mut((self.cursor % WHEEL_SLOTS as u64) as usize) {
                out.append(slot);
            }
        }
        self.cursor = target;
        out
    }

    /// Time until the next non-empty slot fires, if any entry is armed.
    pub(crate) fn next_wakeup(&self, now: Instant) -> Option<Duration> {
        let mut nearest: Option<u64> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.is_empty() {
                continue;
            }
            // The slot's next firing tick at or after cursor+1.
            let base = self.cursor + 1;
            let phase =
                (i as u64 + WHEEL_SLOTS as u64 - base % WHEEL_SLOTS as u64) % WHEEL_SLOTS as u64;
            let tick = base + phase;
            nearest = Some(nearest.map_or(tick, |n| n.min(tick)));
        }
        let tick = nearest?;
        let due = self.origin + WHEEL_TICK.saturating_mul(tick as u32).max(WHEEL_TICK);
        Some(due.saturating_duration_since(now).max(Duration::from_millis(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wheel entries fire at-or-after their deadline, stale generations are
    /// the caller's problem (the wheel just hands back hints), and deadlines
    /// beyond one rotation still fire (early, via wrap) rather than never.
    #[test]
    fn timer_wheel_fires_at_or_after_deadline() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.schedule(7, 1, t0 + Duration::from_millis(60));
        assert!(wheel.drain_expired(t0 + Duration::from_millis(10)).is_empty());
        assert!(wheel.next_wakeup(t0 + Duration::from_millis(10)).is_some());
        let fired = wheel.drain_expired(t0 + Duration::from_millis(200));
        assert_eq!(fired, vec![(7, 1)]);
        assert!(wheel.next_wakeup(t0 + Duration::from_millis(200)).is_none());
        // Far beyond one rotation: wraps, fires early at some point ≤ deadline.
        let far = t0 + WHEEL_TICK.saturating_mul(WHEEL_SLOTS as u32 * 3);
        wheel.schedule(9, 2, far);
        let fired = wheel.drain_expired(far);
        assert!(fired.contains(&(9, 2)), "wrapped entry eventually drains");
    }
}
