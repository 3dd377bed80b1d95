//! The DES host of the protocol stack.
//!
//! Every node's stack above the phy layer is a [`StackMachine`] — the same
//! composition `manet-rt` hosts on a UDP socket. The world keeps the
//! machines beside its core and runs each one with the core as its
//! [`StackHost`]: frames go onto the modelled radio and the future-event
//! list ([`phy`]), deliveries feed the figure counters, completed queries
//! the distance metrics, and timer requests become `NodeTimer` events.
//!
//! ```text
//!   StackMachine  AODV → Reconfigurator + QueryEngine   (p2p-stack)
//!      ↑ FrameUp              ↓ SendDown
//!   phy           radio stats + energy meter            (stack::phy)
//! ```
//!
//! The core holds no machine, so a cascade touches its own node's
//! protocol state and the medium only. Per-node [`PhyLayer`] state lives
//! in the core, not in the machines, because a broadcast updates the
//! receivers' stats in the middle of the sender's cascade.

pub(crate) mod phy;

use manet_aodv::Msg;
use manet_des::{NodeId, Rng, SimTime};
use manet_obs::{CausalKind, Severity};
use manet_radio::{EnergyMeter, PhyStats};
use p2p_content::CompletedQuery;
use p2p_core::build_algo;
use p2p_stack::{AppMsg, SendDown, StackHost, StackMachine, TimerReq, TraceLog};

use crate::engine::Event;
use crate::world::WorldCore;

/// Physical layer: radio accounting and the energy budget. Radio on/off
/// lives in [`WorldCore::hot_up`].
pub(crate) struct PhyLayer {
    pub(crate) stats: PhyStats,
    pub(crate) energy: EnergyMeter,
}

impl StackHost for WorldCore {
    fn send(&mut self, now: SimTime, from: NodeId, frame: SendDown) -> Option<Msg<AppMsg>> {
        match frame {
            SendDown::Broadcast(msg) => {
                phy::broadcast(self, now, from, msg);
                None
            }
            SendDown::Unicast { to, msg } => phy::unicast(self, now, from, to, msg),
        }
    }

    fn delivered(&mut self, at: NodeId, payload: &AppMsg, hops: u8) {
        self.counters.record(at, payload.kind());
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.registry.observe(obs.h_hops, hops as u64);
        }
    }

    fn query_completed(&mut self, requirer: NodeId, done: &CompletedQuery) {
        self.record_completed_query(requirer, done);
    }

    /// Schedule a `NodeTimer` unless the node is down, an earlier (or
    /// equal) timer is already pending, or the wake lies past the horizon.
    fn arm_timer(&mut self, now: SimTime, id: NodeId, req: TimerReq) {
        let TimerReq { at: wake, ctx } = req;
        if !self.hot_up[id.index()] || wake >= self.timer_at[id.index()] || wake > self.horizon() {
            return;
        }
        let at = wake.max(now);
        self.engine.schedule(at, Event::NodeTimer(id));
        self.timer_at[id.index()] = at;
        self.trace
            .child(now, id, ctx, || CausalKind::TimerArm { at: at.ticks() });
    }

    fn trace(&mut self) -> &mut TraceLog {
        &mut self.trace
    }
}

/// The node's combined protocol timer fired: run the machine's tick
/// unless the radio is off.
pub(crate) fn node_timer(core: &mut WorldCore, stack: &mut StackMachine, now: SimTime) {
    let id = stack.id().index();
    core.timer_at[id] = SimTime::MAX;
    if core.hot_up[id] {
        stack.tick(core, now);
    }
}

/// A member's staggered join fired.
pub(crate) fn join(core: &mut WorldCore, stack: &mut StackMachine, now: SimTime) {
    let id = stack.id();
    if !core.hot_up[id.index()] || !stack.is_member() {
        return;
    }
    core.obs_record(now, Severity::Info, "join", || {
        format!("{id} joined the overlay")
    });
    stack.join(core, now);
}

/// The node's radio switches off (churn, crash): the overlay presence
/// dies with it. Peers discover via failed pings.
pub(crate) fn power_off(core: &mut WorldCore, stack: &mut StackMachine) {
    core.hot_up[stack.id().index()] = false;
    stack.power_off();
}

/// The node's radio comes back (churn recovery, crash restart): a member
/// restarts with an algorithm rebuilt from its stable seed — same
/// identity and files, blank protocol state — and rejoins at once. The
/// caller re-arms the timer.
pub(crate) fn power_on(core: &mut WorldCore, stack: &mut StackMachine, now: SimTime) {
    let id = stack.id();
    core.hot_up[id.index()] = true;
    if let Some(&(seed, qualifier)) = core.algo_seeds.get(id.index()) {
        let algo = build_algo(
            core.scenario.algo,
            id,
            core.scenario.overlay,
            qualifier,
            Rng::new(seed),
        );
        stack.restart(core, now, algo);
    }
}
