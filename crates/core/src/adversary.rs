//! Adversarial node roles — the misbehaviour contract.
//!
//! A deployed overlay must tolerate nodes that do not follow protocol. This
//! module names the misbehaviours the simulator and test harnesses model;
//! the *mechanics* live in the layer each role subverts (inside
//! `p2p-stack`'s protocol machine, which both substrates host, or
//! [`crate::testkit::MiniNet`] for conformance tests). Keeping the contract here lets scenarios, conformance tests and
//! the scenario DSL all speak the same vocabulary.
//!
//! All roles are deterministic: grey-holes drop every n-th forwarded frame
//! by counter, not by coin flip, so an adversarial run is as reproducible
//! as an honest one and never perturbs the RNG streams of honest nodes.

use manet_des::SimDuration;

/// A node's adversarial behaviour. Honest nodes carry no role at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdversaryRole {
    /// Participates in routing but silently discards every frame it would
    /// forward on behalf of others (routed data and overlay floods). Its
    /// own traffic still flows, so it keeps attracting routes.
    BlackHole,
    /// A selective black-hole: drops every `drop_nth`-th forwarded frame
    /// (counter-based, deterministic). `drop_nth = 2` drops half the
    /// traffic, `drop_nth = 4` a quarter. Must be at least 2 — a grey-hole
    /// that drops everything is a [`AdversaryRole::BlackHole`].
    GreyHole {
        /// Drop one frame out of every `drop_nth` forwarded.
        drop_nth: u32,
    },
    /// Rebroadcasts every route-request it forwards `factor` times instead
    /// of once, amplifying discovery floods into a bandwidth/energy attack
    /// on its neighbourhood.
    RreqAmplifier {
        /// Total copies sent per RREQ (2..=8).
        factor: u8,
    },
    /// A joined member that injects a synthetic content query to each of
    /// its overlay neighbours every `period`, regardless of what it owns
    /// or wants — a query-flooding denial of service at the p2p layer.
    QueryFlooder {
        /// Interval between injection bursts.
        period: SimDuration,
    },
    /// A free-rider: issues queries and fetches files like any member but
    /// never serves — incoming queries and fetch requests are consumed
    /// without response.
    Selfish,
}

impl AdversaryRole {
    /// Stable lower-case name, as used by the scenario DSL.
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryRole::BlackHole => "black-hole",
            AdversaryRole::GreyHole { .. } => "grey-hole",
            AdversaryRole::RreqAmplifier { .. } => "rreq-amplifier",
            AdversaryRole::QueryFlooder { .. } => "query-flooder",
            AdversaryRole::Selfish => "selfish",
        }
    }

    /// Whether this role only makes sense on a p2p *member* (it acts at the
    /// overlay/content layer), as opposed to any relay node.
    pub fn requires_membership(&self) -> bool {
        matches!(
            self,
            AdversaryRole::QueryFlooder { .. } | AdversaryRole::Selfish
        )
    }
}

impl std::fmt::Display for AdversaryRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(AdversaryRole::BlackHole.name(), "black-hole");
        assert_eq!(AdversaryRole::GreyHole { drop_nth: 2 }.name(), "grey-hole");
        assert_eq!(
            AdversaryRole::RreqAmplifier { factor: 3 }.to_string(),
            "rreq-amplifier"
        );
        assert_eq!(
            AdversaryRole::QueryFlooder {
                period: SimDuration::from_secs(5)
            }
            .name(),
            "query-flooder"
        );
        assert_eq!(AdversaryRole::Selfish.name(), "selfish");
    }

    #[test]
    fn membership_requirement_tracks_layer() {
        assert!(!AdversaryRole::BlackHole.requires_membership());
        assert!(!AdversaryRole::GreyHole { drop_nth: 2 }.requires_membership());
        assert!(!AdversaryRole::RreqAmplifier { factor: 2 }.requires_membership());
        assert!(AdversaryRole::QueryFlooder {
            period: SimDuration::from_secs(1)
        }
        .requires_membership());
        assert!(AdversaryRole::Selfish.requires_membership());
    }
}
