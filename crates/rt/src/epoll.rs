//! Readiness polling with zero external dependencies and no `unsafe`.
//!
//! The event loop only ever watches a single UDP socket, so the full mio
//! machinery (tokens, interest sets, reregistration) collapses to "is the
//! socket readable before my next timer deadline" — which is exactly the
//! [`Poller::wait`] contract. `std` meets it on every platform with a
//! blocking one-byte `peek_from` under a read timeout; the socket is
//! flipped back to non-blocking before returning, so the caller's drain
//! loop always sees a non-blocking socket.

use std::io;
use std::net::UdpSocket;
use std::time::Duration;

/// Waits for one UDP socket to become readable, bounded by a deadline.
pub struct Poller(());

impl Poller {
    /// A poller watching `socket` for readability. The socket is put in
    /// non-blocking mode — the event loop drains it with `recv_from`
    /// until `WouldBlock` after every readiness signal.
    pub fn new(socket: &UdpSocket) -> io::Result<Poller> {
        socket.set_nonblocking(true)?;
        Ok(Poller(()))
    }

    /// Block until `socket` is readable or `timeout` elapses; `None`
    /// sleeps until readable. Returns whether the socket is readable.
    /// A zero timeout probes without sleeping.
    pub fn wait(&self, socket: &UdpSocket, timeout: Option<Duration>) -> io::Result<bool> {
        let sleeps = timeout != Some(Duration::ZERO);
        if sleeps {
            socket.set_nonblocking(false)?;
            // A zero read timeout means "no timeout" to the OS; clamp up.
            socket.set_read_timeout(timeout.map(|t| t.max(Duration::from_millis(1))))?;
        }
        let readable = loop {
            match socket.peek_from(&mut [0u8; 1]) {
                Ok(_) => break Ok(true),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    break Ok(false)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        if sleeps {
            socket.set_nonblocking(true)?;
        }
        readable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").expect("bind a");
        let b = UdpSocket::bind("127.0.0.1:0").expect("bind b");
        (a, b)
    }

    #[test]
    fn timeout_expires_without_traffic() {
        let (a, _b) = pair();
        let poller = Poller::new(&a).expect("poller");
        let t0 = Instant::now();
        let readable = poller
            .wait(&a, Some(Duration::from_millis(30)))
            .expect("wait");
        assert!(!readable, "no datagram was sent");
        assert!(t0.elapsed() >= Duration::from_millis(25), "slept the bound");
    }

    #[test]
    fn readiness_reports_pending_datagram() {
        let (a, b) = pair();
        let poller = Poller::new(&a).expect("poller");
        b.send_to(b"ping", a.local_addr().unwrap()).expect("send");
        let readable = poller
            .wait(&a, Some(Duration::from_millis(500)))
            .expect("wait");
        assert!(readable, "datagram is pending");
        let mut buf = [0u8; 16];
        let (n, _) = a.recv_from(&mut buf).expect("recv");
        assert_eq!(&buf[..n], b"ping");
    }

    #[test]
    fn zero_timeout_is_a_nonblocking_probe() {
        let (a, _b) = pair();
        let poller = Poller::new(&a).expect("poller");
        let t0 = Instant::now();
        let readable = poller.wait(&a, Some(Duration::ZERO)).expect("wait");
        assert!(!readable);
        assert!(t0.elapsed() < Duration::from_millis(50), "did not sleep");
    }
}
