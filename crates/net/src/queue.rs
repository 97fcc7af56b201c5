//! Frame queues behind endpoint receives, and the per-shard routing that
//! fills them. A queue holds frames still encoded; the receiver decodes
//! them zero-copy. A routed endpoint ([`RoutedEndpoint`](crate::RoutedEndpoint))
//! keeps one queue per shard and steers each frame by its wire header's
//! log hint (`docs/PROTOCOL.md`, §Logical logs & sharding).

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::wire::{NodeAddr, Packet};

/// One receiver's frame queue, with its own lock and condvar so a push
/// wakes exactly the destination thread — never the whole cluster. On a
/// loaded box the difference between `notify_one` on the target and a
/// global `notify_all` is the difference between one context switch per
/// packet and N.
pub(crate) struct EndpointQueue {
    inbox: Mutex<Inbox>,
    cv: Condvar,
}

/// The queue plus a count of receivers blocked on the condvar, guarded
/// by the same mutex: a sender that sees `sleepers == 0` skips the
/// notify syscall entirely (the receiver is running, or spin-polling,
/// and will find the packet itself), and the shared lock makes the
/// check race-free — a receiver increments before releasing the lock to
/// sleep, so a sender can never observe stale zero.
#[derive(Default)]
struct Inbox {
    q: VecDeque<(NodeAddr, Arc<Vec<u8>>)>,
    sleepers: u32,
    /// Set when the queue's feed died (the UDP router's socket failed):
    /// once the queue drains, receives return this error.
    failed: Option<(io::ErrorKind, String)>,
}

/// Yields a receiver burns on an empty queue before paying the futex
/// sleep. On an oversubscribed box the sender is usually runnable:
/// `yield_now` lets it push and the next poll finds the packet, saving
/// the sleep/wake syscall pair on both sides of every round trip.
const SPIN_YIELDS: u32 = 64;

impl EndpointQueue {
    pub(crate) fn new() -> Arc<EndpointQueue> {
        Arc::new(EndpointQueue {
            inbox: Mutex::new(Inbox::default()),
            cv: Condvar::new(),
        })
    }

    /// Push one frame and wake a sleeping receiver (skipping the notify
    /// syscall entirely when the receiver is running or spin-polling).
    pub(crate) fn push(&self, from: NodeAddr, bytes: Arc<Vec<u8>>) {
        let mut b = self.inbox.lock();
        b.q.push_back((from, bytes));
        let wake = b.sleepers > 0;
        drop(b);
        if wake {
            self.cv.notify_one();
        }
    }

    /// Drop everything in flight (node marked down).
    pub(crate) fn clear(&self) {
        self.inbox.lock().q.clear();
    }

    /// Record that nothing more will be pushed because the feed failed
    /// with `err`, and wake every receiver to report it.
    pub(crate) fn fail(&self, err: &io::Error) {
        self.inbox.lock().failed = Some((err.kind(), err.to_string()));
        self.cv.notify_all();
    }

    /// Pop one frame within `timeout` and decode it zero-copy: payloads
    /// are views into the pooled buffer; dropping the handle leaves the
    /// buffer parked in the pool until those views are released. A
    /// corrupt datagram is dropped (`None`), as a NIC would.
    /// `Duration::ZERO` polls without blocking.
    ///
    /// # Errors
    /// The feed's failure, once the queue has drained.
    pub(crate) fn recv(&self, timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        let deadline = Instant::now() + timeout;
        let mut spins = 0u32;
        loop {
            {
                let mut b = self.inbox.lock();
                loop {
                    if let Some((from, bytes)) = b.q.pop_front() {
                        drop(b);
                        return Ok(Packet::decode_shared(&bytes).ok().map(|p| (from, p)));
                    }
                    if let Some((kind, msg)) = &b.failed {
                        return Err(io::Error::new(*kind, msg.clone()));
                    }
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                    if spins < SPIN_YIELDS {
                        // Cooperative poll: release the lock and cede the
                        // CPU below so the sender can run, then re-check —
                        // cheaper than a futex sleep when the packet is
                        // about to arrive anyway.
                        break;
                    }
                    b.sleepers += 1;
                    self.cv.wait_until(&mut b, deadline);
                    b.sleepers -= 1;
                }
            }
            spins += 1;
            std::thread::yield_now();
        }
    }
}

/// Steer one encoded frame into one of `queues` by its wire header's log
/// hint, or into every queue when the hint is zero. Returns true when
/// the hint steered it to a single queue.
pub(crate) fn steer(queues: &[Arc<EndpointQueue>], from: NodeAddr, bytes: &Arc<Vec<u8>>) -> bool {
    match Packet::peek_route_hint(bytes) {
        Some(id) => {
            if let Some(q) = queues.get(id.shard(queues.len())) {
                q.push(from, Arc::clone(bytes));
            }
            true
        }
        None => {
            for q in queues {
                q.push(from, Arc::clone(bytes));
            }
            false
        }
    }
}

/// One shard's receive handle on a [`RoutedEndpoint`](crate::RoutedEndpoint):
/// a cached reference to that shard's queue, so receiving never touches
/// the endpoint. Handles go stale when the endpoint is split again or
/// its node reboots, matching a socket closed on crash.
pub struct ShardRx(pub(crate) Arc<EndpointQueue>);

impl ShardRx {
    /// Receive the next packet routed to this shard, waiting up to
    /// `timeout`. `Duration::ZERO` polls without blocking.
    ///
    /// # Errors
    /// The transport's receive failure (the UDP router's socket error);
    /// a timeout yields `Ok(None)`.
    pub fn recv(&self, timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        self.0.recv(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Message;
    use dlog_types::{ClientId, Lsn};

    #[test]
    fn failure_is_reported_once_drained() {
        let q = EndpointQueue::new();
        let pkt = Packet::bare(Message::NewHighLsn {
            client: ClientId(1),
            lsn: Lsn(1),
        });
        q.push(NodeAddr(7), Arc::new(pkt.encode()));
        q.fail(&io::Error::new(
            io::ErrorKind::ConnectionReset,
            "socket gone",
        ));
        let rx = ShardRx(Arc::clone(&q));
        assert_eq!(rx.recv(Duration::ZERO).unwrap(), Some((NodeAddr(7), pkt)));
        let err = rx.recv(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(err.to_string(), "socket gone");
    }
}
