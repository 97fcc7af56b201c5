//! The protocol over real UDP sockets.
//!
//! §4.2 argues the log service should be implemented on "specialized
//! protocols, rather than being layered on top of expensive general
//! purpose protocols", exploiting "the inherent reliability of local area
//! networks" with end-to-end error detection. UDP datagrams on a LAN (or
//! loopback) are exactly that substrate: unordered, unacknowledged,
//! occasionally lost — and the logging protocol above supplies the
//! end-to-end recovery.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use crate::pool::BufPool;
use crate::queue::{steer, EndpointQueue, ShardRx};
use crate::wire::{NodeAddr, Packet, MAX_PACKET_BYTES};
use crate::{Endpoint, RoutedEndpoint};

/// How long the router's socket read blocks before it re-checks its
/// stop flag: the bound on how long dropping a split endpoint waits.
const ROUTER_WAIT: Duration = Duration::from_millis(20);

/// A UDP endpoint with a logical-address directory.
pub struct UdpEndpoint {
    sock: Arc<Socket>,
    addr: NodeAddr,
    obs: dlog_obs::Obs,
    /// The thread feeding the shard queues once [`RoutedEndpoint::shard_rx`]
    /// split the receive side.
    router: Mutex<Option<Router>>,
}

/// The socket and everything a receive needs, shared with the router
/// thread.
struct Socket {
    socket: UdpSocket,
    /// Reusable send/receive buffers: sends encode single-pass into a
    /// pooled buffer, receives decode zero-copy payload views out of one.
    pool: BufPool,
    /// Logical → socket address directory.
    directory: RwLock<HashMap<NodeAddr, SocketAddr>>,
    /// Reverse map for attributing received datagrams.
    reverse: RwLock<HashMap<SocketAddr, NodeAddr>>,
    /// Accept datagrams from unknown sources by auto-registering them
    /// under a synthetic logical address (server deployments, where
    /// client ports are ephemeral).
    promiscuous: AtomicBool,
    /// The socket's blocking flag and read timeout as last set.
    mode: Mutex<RecvMode>,
}

/// A receive sets the socket non-blocking for a zero timeout and blocking
/// with a read timeout otherwise, issuing the syscall only on a change:
/// a run of zero-timeout polls costs one `recv_from` each. The setting
/// belongs to the socket, so concurrent receivers would disturb each
/// other's waits; one thread receives per endpoint.
#[derive(Clone, Copy, Default)]
struct RecvMode {
    nonblocking: bool,
    timeout: Option<Duration>,
}

/// The router thread, stopped and joined when dropped.
struct Router {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl UdpEndpoint {
    /// Bind a socket for logical address `addr` at `bind_to` (use port 0
    /// for an ephemeral port; read it back with
    /// [`UdpEndpoint::socket_addr`]).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn bind(addr: NodeAddr, bind_to: SocketAddr) -> io::Result<UdpEndpoint> {
        let socket = UdpSocket::bind(bind_to)?;
        Ok(UdpEndpoint {
            sock: Arc::new(Socket {
                socket,
                pool: BufPool::for_packets(),
                directory: RwLock::new(HashMap::new()),
                reverse: RwLock::new(HashMap::new()),
                promiscuous: AtomicBool::new(false),
                mode: Mutex::new(RecvMode::default()),
            }),
            addr,
            obs: dlog_obs::Obs::off(),
            router: Mutex::new(None),
        })
    }

    /// Attach an observability handle; subsequent sends emit
    /// `PacketSend` trace events and latency samples.
    pub fn set_obs(&mut self, obs: dlog_obs::Obs) {
        self.obs = obs;
    }

    /// Accept datagrams from unregistered sources, auto-registering each
    /// under a synthetic logical address so replies route back. Servers
    /// turn this on; clients keep the explicit directory.
    pub fn set_promiscuous(&self, on: bool) {
        self.sock.promiscuous.store(on, Ordering::Relaxed);
    }

    /// The socket address actually bound.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn socket_addr(&self) -> io::Result<SocketAddr> {
        self.sock.socket.local_addr()
    }

    /// Register a peer's socket address under its logical address.
    pub fn add_peer(&self, peer: NodeAddr, at: SocketAddr) {
        self.sock.directory.write().insert(peer, at);
        self.sock.reverse.write().insert(at, peer);
    }

    /// Encode `packet` once (replication fans the same packet out), then
    /// one `send_to` syscall per destination on the same pooled buffer.
    fn fan_out(&self, tos: &[NodeAddr], packet: &Packet) -> io::Result<()> {
        let pool = &self.sock.pool;
        let mut bytes = pool.checkout();
        packet.encode_into(Arc::make_mut(&mut bytes));
        if bytes.len() > MAX_PACKET_BYTES {
            pool.give_back(bytes);
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "packet exceeds MTU",
            ));
        }
        let span = self.obs.start();
        let mut result = Ok(());
        for &to in tos {
            let Some(dest) = self.sock.directory.read().get(&to).copied() else {
                result = Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("unknown peer {to}"),
                ));
                break;
            };
            if let Err(e) = self.sock.send_to(&bytes, dest) {
                result = Err(e);
                break;
            }
            self.obs
                .event(dlog_obs::Stage::PacketSend, packet.lsn_hint(), to.0);
        }
        pool.give_back(bytes);
        result?;
        self.obs.sample_since(dlog_obs::Stage::PacketSend, span);
        Ok(())
    }
}

impl Socket {
    /// Read one datagram into a pooled buffer within `timeout` and
    /// attribute its sender. Datagrams from unknown parties are dropped
    /// (`None`) unless the endpoint is promiscuous.
    fn recv_frame(&self, timeout: Duration) -> io::Result<Option<(NodeAddr, Arc<Vec<u8>>)>> {
        // Pooled receive buffer: after the first few packets the resize
        // is a no-op (capacity is retained) and the datagram is read into
        // reused memory.
        let mut arc = self.pool.checkout();
        let buf = Arc::make_mut(&mut arc);
        buf.resize(MAX_PACKET_BYTES + 64, 0);
        let got = self.read(buf, timeout).map(|read| {
            read.and_then(|(n, from)| {
                buf.truncate(n);
                self.peer(from)
            })
        });
        match got {
            Ok(Some(peer)) => Ok(Some((peer, arc))),
            other => {
                self.pool.give_back(arc);
                other.map(|_| None)
            }
        }
    }

    /// One `recv_from`, non-blocking for a zero `timeout`.
    fn read(&self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<(usize, SocketAddr)>> {
        {
            let mut mode = self.mode.lock();
            if timeout.is_zero() {
                if !mode.nonblocking {
                    self.socket.set_nonblocking(true)?;
                    mode.nonblocking = true;
                }
            } else {
                if mode.timeout != Some(timeout) {
                    self.socket.set_read_timeout(Some(timeout))?;
                    mode.timeout = Some(timeout);
                }
                if mode.nonblocking {
                    self.socket.set_nonblocking(false)?;
                    mode.nonblocking = false;
                }
            }
        }
        match self.socket.recv_from(buf) {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            got => got.map(Some),
        }
    }

    /// The logical address of a datagram's sender, registering a
    /// synthetic one for an unknown sender when promiscuous.
    fn peer(&self, from: SocketAddr) -> Option<NodeAddr> {
        if let Some(p) = self.reverse.read().get(&from).copied() {
            return Some(p);
        }
        if !self.promiscuous.load(Ordering::Relaxed) {
            return None;
        }
        // Synthesize a stable logical address from the socket address and
        // register both directions.
        let mut h = DefaultHasher::new();
        from.hash(&mut h);
        let peer = NodeAddr(0x8000_0000_0000_0000 | (h.finish() >> 1));
        self.directory.write().insert(peer, from);
        self.reverse.write().insert(from, peer);
        Some(peer)
    }

    /// One `send_to`. A zero-timeout poll may have left the shared socket
    /// non-blocking; a send that then finds the send buffer full waits
    /// for room, as on a blocking socket, instead of failing with
    /// `WouldBlock`.
    fn send_to(&self, bytes: &[u8], dest: SocketAddr) -> io::Result<()> {
        loop {
            match self.socket.send_to(bytes, dest) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                sent => return sent.map(drop),
            }
        }
    }
}

impl Endpoint for UdpEndpoint {
    fn local_addr(&self) -> NodeAddr {
        self.addr
    }

    fn send(&self, to: NodeAddr, packet: &Packet) -> io::Result<()> {
        self.fan_out(std::slice::from_ref(&to), packet)
    }

    fn send_many(&self, tos: &[NodeAddr], packet: &Packet) -> io::Result<()> {
        self.fan_out(tos, packet)
    }

    fn recv(&self, timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        let Some((peer, bytes)) = self.sock.recv_frame(timeout)? else {
            return Ok(None);
        };
        // Zero-copy decode: payloads are views into the pooled buffer; it
        // is reissued once they drop. A corrupt datagram is dropped.
        let decoded = Packet::decode_shared(&bytes);
        self.sock.pool.give_back(bytes);
        Ok(decoded.ok().map(|p| (peer, p)))
    }
}

impl RoutedEndpoint for UdpEndpoint {
    /// Start a router thread that owns the socket's receive side: it
    /// reads each datagram, attributes its sender as [`Endpoint::recv`]
    /// does, and steers the still-encoded frame into the shard queues.
    /// If the socket fails, or the thread cannot start, every queue
    /// reports the error once drained.
    fn shard_rx(&self, shards: usize) -> Vec<ShardRx> {
        let queues: Arc<[Arc<EndpointQueue>]> =
            (0..shards.max(1)).map(|_| EndpointQueue::new()).collect();
        let rxs = queues.iter().map(|q| ShardRx(Arc::clone(q))).collect();
        let stop = Arc::new(AtomicBool::new(false));
        let (sock, halt, feed) = (
            Arc::clone(&self.sock),
            Arc::clone(&stop),
            Arc::clone(&queues),
        );
        let spawned = std::thread::Builder::new()
            .name(format!("udp-router-{}", self.addr.0))
            .spawn(move || route_datagrams(&sock, &feed, &halt));
        match spawned {
            Ok(handle) => {
                let handle = Some(handle);
                // A second split replaces the first router, which is
                // stopped and joined here, after the lock is released.
                let old = self.router.lock().replace(Router { stop, handle });
                drop(old);
            }
            Err(e) => {
                for q in queues.iter() {
                    q.fail(&e);
                }
            }
        }
        rxs
    }
}

/// The router thread's loop: read, attribute, steer, until stopped or
/// the socket fails.
fn route_datagrams(sock: &Socket, queues: &[Arc<EndpointQueue>], stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        match sock.recv_frame(ROUTER_WAIT) {
            Ok(Some((from, bytes))) => {
                steer(queues, from, &bytes);
                sock.pool.give_back(bytes);
            }
            Ok(None) => {}
            Err(e) => {
                for q in queues {
                    q.fail(&e);
                }
                return;
            }
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // The router neither panics nor holds the endpoint, so the join
        // returns within one ROUTER_WAIT.
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Message;
    use dlog_types::{ClientId, Epoch, LogData, Lsn};

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    #[test]
    fn udp_roundtrip() {
        let a = UdpEndpoint::bind(NodeAddr(1), loopback()).unwrap();
        let b = UdpEndpoint::bind(NodeAddr(2), loopback()).unwrap();
        a.add_peer(NodeAddr(2), b.socket_addr().unwrap());
        b.add_peer(NodeAddr(1), a.socket_addr().unwrap());

        let msg = Message::ForceLog {
            client: ClientId(9),
            epoch: Epoch(2),
            records: vec![(Lsn(1), LogData::from(vec![0xAA; 700]))],
        };
        a.send(NodeAddr(2), &Packet::bare(msg.clone())).unwrap();
        let (from, p) = b.recv(Duration::from_secs(2)).unwrap().unwrap();
        assert_eq!(from, NodeAddr(1));
        assert_eq!(p.msg, msg);
    }

    #[test]
    fn recv_times_out() {
        let a = UdpEndpoint::bind(NodeAddr(1), loopback()).unwrap();
        assert!(a.recv(Duration::from_millis(20)).unwrap().is_none());
    }

    #[test]
    fn zero_timeout_polls_without_blocking() {
        let a = UdpEndpoint::bind(NodeAddr(1), loopback()).unwrap();
        let b = UdpEndpoint::bind(NodeAddr(2), loopback()).unwrap();
        a.add_peer(NodeAddr(2), b.socket_addr().unwrap());
        b.add_peer(NodeAddr(1), a.socket_addr().unwrap());

        // An empty socket: 100 polls must not each wait out a timer (polls
        // that slept 1 ms each would take at least 100 ms).
        let t0 = std::time::Instant::now();
        for _ in 0..100 {
            assert!(b.recv(Duration::ZERO).unwrap().is_none());
        }
        let polled = t0.elapsed();
        assert!(
            polled < Duration::from_millis(50),
            "100 polls took {polled:?}"
        );

        // A datagram already queued is returned by a poll.
        let p = Packet::bare(Message::NewHighLsn {
            client: ClientId(1),
            lsn: Lsn(7),
        });
        a.send(NodeAddr(2), &p).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let got = b.recv(Duration::ZERO).unwrap().expect("queued datagram");
        assert_eq!(got, (NodeAddr(1), p.clone()));

        // Polling left the socket non-blocking; sends and timed receives
        // on it still behave as on a blocking socket.
        b.send(NodeAddr(1), &p).unwrap();
        assert_eq!(
            a.recv(Duration::from_secs(2)).unwrap(),
            Some((NodeAddr(2), p))
        );
        assert!(b.recv(Duration::from_millis(20)).unwrap().is_none());
    }

    #[test]
    fn unknown_peer_rejected_on_send() {
        let a = UdpEndpoint::bind(NodeAddr(1), loopback()).unwrap();
        let p = Packet::bare(Message::NewHighLsn {
            client: ClientId(1),
            lsn: Lsn(1),
        });
        assert!(a.send(NodeAddr(42), &p).is_err());
    }

    #[test]
    fn unknown_sender_dropped_on_recv() {
        let a = UdpEndpoint::bind(NodeAddr(1), loopback()).unwrap();
        let stranger = UdpSocket::bind(loopback()).unwrap();
        let p = Packet::bare(Message::NewHighLsn {
            client: ClientId(1),
            lsn: Lsn(1),
        });
        stranger
            .send_to(&p.encode(), a.socket_addr().unwrap())
            .unwrap();
        assert!(a.recv(Duration::from_millis(100)).unwrap().is_none());
    }
}
