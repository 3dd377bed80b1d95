//! # manet-rt — the real-time substrate
//!
//! Where `manet-sim` hosts the protocol stack against a virtual clock and
//! a modelled radio, this crate hosts the *identical* stack
//! ([`p2p_stack::StackMachine`], through its [`StackHost`] trait) against
//! the wall clock and real UDP sockets, with zero external dependencies:
//!
//! * [`clock`] — maps elapsed wall microseconds onto the [`SimTime`]
//!   axis (one tick = one microsecond on both substrates) and turns
//!   protocol deadlines back into poll timeouts;
//! * [`epoll`] — the readiness poller: a blocking peek-with-timeout on
//!   the socket, in safe `std` on every platform;
//! * [`node`] — [`RtNode`], the event loop hosting one machine per OS
//!   process, with optional observability; the `swarm` binary forks N of
//!   them on loopback.
//!
//! [`SimTime`]: manet_des::SimTime
//! [`StackHost`]: p2p_stack::StackHost

pub mod clock;
pub mod epoll;
pub mod node;
mod obs;

pub use clock::Clock;
pub use epoll::Poller;
pub use node::{RtNode, RtReport};
