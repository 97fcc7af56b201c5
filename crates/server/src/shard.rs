//! Shard supervisor: N per-shard event loops behind one endpoint.
//!
//! The paper's log server is one sequential loop; a sharded server runs
//! N of them, each a [`ServerRunner`] owning a private [`LogServer`]
//! (and therefore a private `LogStore`, obligation table, and
//! group-commit window). The endpoint's transport routes the frames
//! ([`RoutedEndpoint::shard_rx`]): it steers each still-encoded frame to
//! the queue of the shard its wire header's log hint hashes to, and
//! broadcasts zero-hint frames, which every shard but the log's owner
//! drops ([`LogServer::handle_into`]'s ownership guard). Shard-agnostic
//! control traffic (handshake, `Status`, `Stats`) is answered by every
//! shard with its own `shard` / `shards` gauges, so a collector can
//! merge the rows. A one-shard server receives straight from the
//! endpoint: no router and no queue hop.
//!
//! Replies go out through the same shared endpoint from every shard
//! (`Endpoint` sends are `&self`); the transports are `Sync`.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use dlog_net::wire::{NodeAddr, Packet};
use dlog_net::{Endpoint, RoutedEndpoint, ShardRx};

use crate::runner::ServerRunner;
use crate::LogServer;

/// How often [`ShardSupervisor::wait`] checks whether a loop has ended.
const WAIT_POLL: Duration = Duration::from_millis(100);

/// Shard `shard`'s storage root under a server directory `dir`: `dir`
/// itself on a one-shard server, `dir/shard-{shard}` otherwise. Each
/// shard recovers its own root independently; a server's archive roots
/// follow the same rule.
#[must_use]
pub fn shard_root(dir: impl AsRef<Path>, shard: u64, shards: u64) -> PathBuf {
    let dir = dir.as_ref();
    if shards <= 1 {
        dir.to_path_buf()
    } else {
        dir.join(format!("shard-{shard}"))
    }
}

/// Handle to a running server: one event loop per shard.
pub struct ShardSupervisor {
    runners: Vec<ServerRunner>,
}

impl ShardSupervisor {
    /// Spawn one event loop per element of `servers` (shard k serves
    /// `servers[k]`; the caller stamps each config with
    /// [`crate::ServerConfig::for_shard`] and opens per-shard storage
    /// roots). With one server the loop receives from `endpoint`
    /// directly; with more, from the endpoint's shard queues.
    ///
    /// # Panics
    /// Panics when `servers` is empty or a thread fails to spawn.
    #[must_use]
    pub fn spawn<E>(servers: Vec<LogServer>, endpoint: E) -> ShardSupervisor
    where
        E: RoutedEndpoint + Sync + 'static,
    {
        assert!(!servers.is_empty(), "a server needs >= 1 shard");
        let runners = match <[LogServer; 1]>::try_from(servers) {
            Ok([only]) => vec![ServerRunner::spawn(only, endpoint)],
            Err(servers) => {
                let shared = Arc::new(endpoint);
                let rxs = shared.shard_rx(servers.len());
                servers
                    .into_iter()
                    .zip(rxs)
                    .map(|(server, rx)| {
                        let ep = ShardEndpoint {
                            shared: Arc::clone(&shared),
                            rx,
                        };
                        ServerRunner::spawn(server, ep)
                    })
                    .collect()
            }
        };
        ShardSupervisor { runners }
    }

    /// Stop every loop gracefully and recover the per-shard servers, in
    /// shard order. Each shard finishes its pending group commit and
    /// syncs its store.
    #[must_use]
    pub fn stop(mut self) -> Vec<LogServer> {
        self.signal_stop();
        std::mem::take(&mut self.runners)
            .into_iter()
            .map(ServerRunner::stop)
            .collect()
    }

    /// Simulate a hard crash of the whole process: every shard stops
    /// where it stands (no extra syncing beyond what already happened)
    /// and its store is dropped. Returns each shard's durable stream end
    /// at the moment of the crash, in shard order — per-shard recovery
    /// replays each shard's own storage root independently.
    pub fn crash(mut self) -> Vec<u64> {
        self.signal_stop();
        std::mem::take(&mut self.runners)
            .into_iter()
            .map(ServerRunner::crash)
            .collect()
    }

    /// Block until a loop ends by itself, then stop the others and return
    /// the endpoint failure that ended it. Loops end by themselves only
    /// when their transport fails, so a healthy server blocks here for
    /// good; a server process runs this on its main thread.
    ///
    /// # Panics
    /// Re-raises a shard's panic (the ingest path's fail-stop) once the
    /// other shards have stopped.
    pub fn wait(mut self) -> io::Error {
        while !self.runners.iter().any(ServerRunner::is_finished) {
            std::thread::sleep(WAIT_POLL);
        }
        self.signal_stop();
        let mut failure = None;
        let mut panicked = None;
        for mut runner in std::mem::take(&mut self.runners) {
            match runner.join_thread() {
                Some(Ok((_, e))) => failure = failure.or(e),
                Some(Err(payload)) => panicked = panicked.or(Some(payload)),
                None => {}
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        failure.unwrap_or_else(|| io::Error::other("server loop ended"))
    }

    fn signal_stop(&self) {
        for r in &self.runners {
            r.signal_stop();
        }
    }
}

impl Drop for ShardSupervisor {
    fn drop(&mut self) {
        // Stop every shard at once; each runner's own drop then joins.
        self.signal_stop();
    }
}

/// One shard's endpoint: receives what the transport routed to the
/// shard, sends through the endpoint every shard shares.
struct ShardEndpoint<E> {
    shared: Arc<E>,
    rx: ShardRx,
}

impl<E: Endpoint + Sync> Endpoint for ShardEndpoint<E> {
    fn local_addr(&self) -> NodeAddr {
        self.shared.local_addr()
    }

    fn send(&self, to: NodeAddr, packet: &Packet) -> io::Result<()> {
        self.shared.send(to, packet)
    }

    fn recv(&self, timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        self.rx.recv(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;
    use dlog_net::udp::UdpEndpoint;
    use dlog_net::wire::{Message, Request, Response};
    use dlog_net::{FaultPlan, MemNetwork};
    use dlog_storage::{NvramDevice, StoreOptions};
    use dlog_types::{ClientId, Epoch, LogData, LogId, Lsn, ServerId};

    fn shard_server(root: &Path, shard: u64, shards: u64) -> LogServer {
        let opts = StoreOptions {
            fsync: false,
            ..StoreOptions::default()
        };
        LogServer::open(
            shard_root(root, shard, shards),
            ServerConfig::new(ServerId(1)).for_shard(shard, shards),
            opts,
            NvramDevice::new(1 << 20),
        )
        .unwrap()
    }

    fn loopback() -> std::net::SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    fn tmproot(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join("dlog-shard-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn force_pkt(client: u64, lo: u64, hi: u64) -> Packet {
        let records: Vec<(Lsn, LogData)> = (lo..=hi)
            .map(|i| (Lsn(i), LogData::from(vec![i as u8; 10])))
            .collect();
        Packet::routed(
            LogId::for_client(ClientId(client)),
            Message::ForceLog {
                client: ClientId(client),
                epoch: Epoch(1),
                records,
            },
        )
    }

    #[test]
    fn routes_clients_to_distinct_shards_and_acks() {
        let root = tmproot("route");
        let servers = vec![shard_server(&root, 0, 2), shard_server(&root, 1, 2)];
        let net = MemNetwork::new(FaultPlan::reliable());
        let sup = ShardSupervisor::spawn(servers, net.endpoint(NodeAddr(1)));

        // Find two clients that hash to different shards.
        let c0 = 1u64;
        let c1 = (2..64)
            .find(|&c| LogId(c).shard(2) != LogId(c0).shard(2))
            .expect("some client maps to the other shard");

        let ep = net.endpoint(NodeAddr(100));
        ep.send(NodeAddr(1), &force_pkt(c0, 1, 3)).unwrap();
        ep.send(NodeAddr(1), &force_pkt(c1, 1, 5)).unwrap();
        let mut acks = std::collections::HashMap::new();
        for _ in 0..2 {
            let (_, pkt) = ep.recv(Duration::from_secs(5)).unwrap().expect("ack");
            if let Message::NewHighLsn { client, lsn } = pkt.msg {
                acks.insert(client.0, lsn.0);
            }
        }
        assert_eq!(acks.get(&c0), Some(&3));
        assert_eq!(acks.get(&c1), Some(&5));

        // Graceful stop: each shard holds exactly its own client's log,
        // under its own storage root.
        let recovered = sup.stop();
        assert_eq!(recovered.len(), 2);
        let total: u64 = recovered.iter().map(|s| s.stats().records_stored).sum();
        assert_eq!(total, 8);
        let per_shard: Vec<u64> = recovered.iter().map(|s| s.stats().records_stored).collect();
        assert!(
            per_shard.iter().all(|&n| n > 0),
            "both shards must have ingested: {per_shard:?}"
        );
    }

    /// Threads of this process whose name is `name`.
    fn threads_named(name: &str) -> usize {
        std::fs::read_dir("/proc/self/task")
            .map(|tasks| {
                tasks
                    .filter_map(Result::ok)
                    .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
                    .filter(|comm| comm.trim_end() == name)
                    .count()
            })
            .unwrap_or(0)
    }

    #[test]
    fn routed_endpoint_path_matches_dispatcher_semantics() {
        // Four shards over UDP: the endpoint's router thread steers each
        // datagram by its wire header, as the in-memory transport does on
        // the sending thread, so acks, the zero-hint broadcast and the
        // per-shard placement come out as with any other transport.
        let root = tmproot("udp4");
        let servers = (0..4).map(|k| shard_server(&root, k, 4)).collect();
        let server_ep = UdpEndpoint::bind(NodeAddr(4242), loopback()).unwrap();
        server_ep.set_promiscuous(true);
        let at = server_ep.socket_addr().unwrap();
        let sup = ShardSupervisor::spawn(servers, server_ep);
        // A new thread names itself once it runs.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while threads_named("udp-router-4242") != 1 {
            assert!(std::time::Instant::now() < deadline, "no router thread");
            std::thread::sleep(Duration::from_millis(1));
        }

        let ep = UdpEndpoint::bind(NodeAddr(100), loopback()).unwrap();
        ep.add_peer(NodeAddr(1), at);
        let clients: Vec<u64> = (1..64)
            .scan(std::collections::BTreeSet::new(), |seen, c| {
                Some(seen.insert(LogId(c).shard(4)).then_some(c))
            })
            .flatten()
            .collect();
        assert_eq!(clients.len(), 4, "one client per shard");
        for &c in &clients {
            ep.send(NodeAddr(1), &force_pkt(c, 1, 3)).unwrap();
        }
        let mut acks = std::collections::HashMap::new();
        while acks.len() < clients.len() {
            let (_, pkt) = ep.recv(Duration::from_secs(5)).unwrap().expect("ack");
            if let Message::NewHighLsn { client, lsn } = pkt.msg {
                acks.insert(client.0, lsn.0);
            }
        }
        assert!(clients.iter().all(|c| acks.get(c) == Some(&3)));

        // A bare (zero-hint) IntervalList RPC reaches every shard; only
        // the owner answers.
        ep.send(
            NodeAddr(1),
            &Packet::bare(Message::Request {
                id: 12,
                body: Request::IntervalList {
                    client: ClientId(clients[2]),
                },
            }),
        )
        .unwrap();
        let (_, pkt) = ep.recv(Duration::from_secs(5)).unwrap().expect("reply");
        match pkt.msg {
            Message::Response {
                id: 12,
                body: Response::Intervals { intervals },
            } => assert_eq!(intervals.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(ep.recv(Duration::from_millis(100)).unwrap().is_none());

        // A shard-agnostic Status request fans out to every shard.
        ep.send(
            NodeAddr(1),
            &Packet::bare(Message::Request {
                id: 11,
                body: Request::Status,
            }),
        )
        .unwrap();
        let mut rows = std::collections::BTreeSet::new();
        for _ in 0..4 {
            let (_, pkt) = ep.recv(Duration::from_secs(5)).unwrap().expect("row");
            if let Message::Response {
                id: 11,
                body: Response::Status { shard, shards, .. },
            } = pkt.msg
            {
                assert_eq!(shards, 4);
                rows.insert(shard);
            }
        }
        assert_eq!(rows, (0u64..4).collect());

        let recovered = sup.stop();
        let per_shard: Vec<u64> = recovered.iter().map(|s| s.stats().records_stored).collect();
        assert_eq!(per_shard, vec![3; 4]);
        assert_eq!(threads_named("udp-router-4242"), 0, "router outlived stop");
    }

    #[test]
    fn status_broadcast_returns_one_row_per_shard() {
        let root = tmproot("status");
        let servers = vec![
            shard_server(&root, 0, 3),
            shard_server(&root, 1, 3),
            shard_server(&root, 2, 3),
        ];
        let net = MemNetwork::new(FaultPlan::reliable());
        let sup = ShardSupervisor::spawn(servers, net.endpoint(NodeAddr(1)));

        let ep = net.endpoint(NodeAddr(100));
        ep.send(
            NodeAddr(1),
            &Packet::bare(Message::Request {
                id: 7,
                body: Request::Status,
            }),
        )
        .unwrap();
        let mut rows = std::collections::BTreeSet::new();
        for _ in 0..3 {
            let (_, pkt) = ep.recv(Duration::from_secs(5)).unwrap().expect("row");
            match pkt.msg {
                Message::Response {
                    id: 7,
                    body: Response::Status { shard, shards, .. },
                } => {
                    assert_eq!(shards, 3);
                    rows.insert(shard);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(rows, [0u64, 1, 2].into_iter().collect());
        drop(sup);
    }

    #[test]
    fn crash_and_per_shard_recovery_keep_forced_records() {
        let root = tmproot("crash");
        let servers = vec![shard_server(&root, 0, 2), shard_server(&root, 1, 2)];
        let net = MemNetwork::new(FaultPlan::reliable());
        let sup = ShardSupervisor::spawn(servers, net.endpoint(NodeAddr(1)));
        let ep = net.endpoint(NodeAddr(100));
        ep.send(NodeAddr(1), &force_pkt(1, 1, 4)).unwrap();
        let _ = ep.recv(Duration::from_secs(5)).unwrap().expect("ack");
        let ends = sup.crash();
        assert_eq!(ends.len(), 2);

        // Reboot: each shard recovers from its own root; the forced
        // records are there.
        let servers = vec![shard_server(&root, 0, 2), shard_server(&root, 1, 2)];
        let net = MemNetwork::new(FaultPlan::reliable());
        let sup = ShardSupervisor::spawn(servers, net.endpoint(NodeAddr(1)));
        let ep = net.endpoint(NodeAddr(100));
        ep.send(
            NodeAddr(1),
            &Packet::routed(
                LogId::for_client(ClientId(1)),
                Message::Request {
                    id: 9,
                    body: Request::ReadLogForward {
                        client: ClientId(1),
                        lsn: Lsn(1),
                        max_records: 16,
                    },
                },
            ),
        )
        .unwrap();
        let (_, pkt) = ep.recv(Duration::from_secs(5)).unwrap().expect("resp");
        match pkt.msg {
            Message::Response {
                id: 9,
                body: Response::Records { records },
            } => assert_eq!(records.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
        drop(sup);
    }

    #[test]
    fn wait_returns_the_endpoint_failure() {
        let root = tmproot("wait");
        let net = MemNetwork::new(FaultPlan::reliable());
        let sup =
            ShardSupervisor::spawn(vec![shard_server(&root, 0, 1)], net.endpoint(NodeAddr(1)));
        // Split the address behind the loop's back: its endpoint's
        // receive now fails, which ends the loop, and wait reports why.
        let _rxs = net.endpoint(NodeAddr(1)).shard_rx(2);
        let err = sup.wait();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
}
