//! The paper's connection-attempt cadence.
//!
//! Figs 2–4 share a peculiar loop: the discovery radius cycles
//! `NHOPS_INITIAL, +2, ..., MAXNHOPS, 0, NHOPS_INITIAL, ...` via
//! `nhops = (nhops + 2) mod (MAXNHOPS + 2)`, the node waits `timer` between
//! attempts, and every time the cycle passes the `0` slot (a full sweep
//! failed) the timer doubles up to `MAXTIMER`. A successful connection
//! resets the timer to `TIMER_INITIAL` — "this new connection may be a
//! signal of a better network configuration".
//!
//! [`ProbeCycle`] encapsulates exactly that. The Hybrid algorithm's initial
//! state needs to *observe* the `0` slot (it is its become-master trigger),
//! so [`ProbeCycle::poll_raw`] exposes it; [`ProbeCycle::poll`] skips it for
//! Regular/Random, which only double the timer there.

use manet_des::{SimDuration, SimTime};

use crate::params::OverlayParams;

/// Attempt scheduler implementing the paper's nhops/timer cycle.
#[derive(Clone, Debug)]
pub struct ProbeCycle {
    nhops_initial: u8,
    max_nhops: u8,
    timer_initial: SimDuration,
    max_timer: SimDuration,
    /// Current discovery radius; `0` is the backoff slot.
    nhops: u8,
    /// Current wait between attempts.
    timer: SimDuration,
    /// Next instant an attempt may fire.
    next_attempt: SimTime,
}

impl ProbeCycle {
    /// A cycle starting immediately at `now` with the paper's parameters.
    pub fn new(params: &OverlayParams, now: SimTime) -> Self {
        ProbeCycle {
            nhops_initial: params.nhops_initial,
            max_nhops: params.max_nhops,
            timer_initial: params.timer_initial,
            max_timer: params.max_timer,
            nhops: params.nhops_initial,
            timer: params.timer_initial,
            next_attempt: now,
        }
    }

    /// Current backoff value (diagnostics/tests).
    pub fn timer(&self) -> SimDuration {
        self.timer
    }

    /// When the next attempt may fire.
    pub fn next_attempt(&self) -> SimTime {
        self.next_attempt
    }

    /// If an attempt is due, consume it and return its `nhops` radius,
    /// which may be `0` (the backoff slot, where the timer has just been
    /// doubled). Advances the cycle and re-arms the wait.
    pub fn poll_raw(&mut self, now: SimTime) -> Option<u8> {
        if now < self.next_attempt {
            return None;
        }
        let slot = self.nhops;
        if slot == 0 {
            self.timer = (self.timer * 2).min(self.max_timer);
            // The paper's pseudo-code does not wait on the 0 branch; the
            // next (real) attempt happens after the freshly doubled timer
            // only through its own "wait timer" step. We arm the wait here
            // so the doubled timer takes effect immediately, which matches
            // the prose ("while waiting for a longer interval the network
            // can change").
        }
        self.nhops = (self.nhops + 2) % (self.max_nhops + 2);
        self.next_attempt = now + self.timer;
        Some(slot)
    }

    /// Like [`poll_raw`](Self::poll_raw) but never hands out the `0` slot:
    /// it is consumed internally (doubling the timer) and the following
    /// radius is returned in the same call if its wait has already passed.
    pub fn poll(&mut self, now: SimTime) -> Option<u8> {
        match self.poll_raw(now) {
            Some(0) => {
                // The 0 slot armed a wait; the caller's next due attempt
                // will return a real radius.
                None
            }
            other => other,
        }
    }

    /// A connection was established: reset the backoff ("a signal of a
    /// better network configuration").
    pub fn on_connected(&mut self) {
        self.timer = self.timer_initial;
    }

    /// Restart the cycle from scratch at `now` (hybrid state transitions).
    pub fn reset(&mut self, now: SimTime) {
        self.nhops = self.nhops_initial;
        self.timer = self.timer_initial;
        self.next_attempt = now;
    }

    /// Restart the radius sweep but *keep* the current backoff, arming the
    /// next attempt one timer away. Used when a hybrid peer falls back to
    /// the initial state after a failed enrollment: an immediate re-flood
    /// would just hit the same full master again (and storms the network).
    pub fn rearm(&mut self, now: SimTime) {
        self.nhops = self.nhops_initial;
        self.next_attempt = now + self.timer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle() -> ProbeCycle {
        ProbeCycle::new(&OverlayParams::default(), SimTime::ZERO)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn radii_cycle_2_4_6_0() {
        let mut c = cycle();
        let mut seen = Vec::new();
        for _ in 0..8 {
            let now = c.next_attempt();
            seen.push(c.poll_raw(now).unwrap());
        }
        assert_eq!(seen, vec![2, 4, 6, 0, 2, 4, 6, 0]);
    }

    #[test]
    fn not_due_returns_none() {
        let mut c = cycle();
        assert_eq!(c.poll_raw(SimTime::ZERO), Some(2));
        assert_eq!(c.poll_raw(SimTime::ZERO), None, "wait armed");
        assert_eq!(c.poll_raw(t(4)), None, "timer_initial is 5 s");
        assert_eq!(c.poll_raw(t(5)), Some(4));
    }

    #[test]
    fn timer_doubles_on_zero_slot_up_to_max() {
        let p = OverlayParams::default();
        let mut c = cycle();
        let mut timers = Vec::new();
        for _ in 0..30 {
            let now = c.next_attempt();
            let _ = c.poll_raw(now);
            timers.push(c.timer());
        }
        // After each full sweep (4 slots) the timer doubles: 5,10,20,40,80,80...
        assert_eq!(timers[2], p.timer_initial); // before first 0 slot
        assert_eq!(timers[3], p.timer_initial * 2);
        assert_eq!(timers[7], p.timer_initial * 4);
        assert_eq!(timers[11], p.timer_initial * 8);
        assert_eq!(timers[15], p.timer_initial * 16); // 80 s = MAXTIMER
        assert_eq!(timers[19], p.max_timer, "capped at MAXTIMER");
    }

    #[test]
    fn poll_hides_zero_slot() {
        let mut c = cycle();
        let mut radii = Vec::new();
        let mut polls = 0;
        let mut now = SimTime::ZERO;
        while radii.len() < 6 {
            now = c.next_attempt().max(now);
            if let Some(r) = c.poll(now) {
                radii.push(r);
            }
            polls += 1;
            assert!(polls < 100);
        }
        assert_eq!(radii, vec![2, 4, 6, 2, 4, 6]);
    }

    #[test]
    fn connection_resets_backoff() {
        let p = OverlayParams::default();
        let mut c = cycle();
        for _ in 0..8 {
            let now = c.next_attempt();
            let _ = c.poll_raw(now);
        }
        assert!(c.timer() > p.timer_initial);
        c.on_connected();
        assert_eq!(c.timer(), p.timer_initial);
    }

    #[test]
    fn reset_restarts_everything() {
        let p = OverlayParams::default();
        let mut c = cycle();
        for _ in 0..5 {
            let now = c.next_attempt();
            let _ = c.poll_raw(now);
        }
        c.reset(t(100));
        assert_eq!(c.timer(), p.timer_initial);
        assert_eq!(c.next_attempt(), t(100));
        assert_eq!(c.poll_raw(t(100)), Some(p.nhops_initial));
    }
}
