//! The shipped `dlog-server` binary on UDP loopback, at one and at four
//! shards: ET1-shaped forces from real clients, a bare RPC answered once,
//! a Status row per shard, and every forced record read back byte for
//! byte after the process is killed and restarted on the same port.
//!
//! The simulated NVRAM lives inside the server process, so a killed
//! process loses whatever sat in it. The server runs with `--track-kb 0`
//! (a track per record): every record reaches the stream before its
//! force is acked, and the kill tests recovery from the stream alone.

use std::net::{SocketAddr, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dlog_cli::udp_client;
use dlog_net::udp::UdpEndpoint;
use dlog_net::wire::{Message, NodeAddr, Packet, Request, Response};
use dlog_net::Endpoint;
use dlog_types::{ClientId, Lsn};
use dlog_workload::et1::profile;

/// A running server process, killed and reaped on drop.
struct Server(Child);

impl Server {
    fn start(dir: &Path, at: SocketAddr, shards: u64) -> Server {
        let child = Command::new(env!("CARGO_BIN_EXE_dlog-server"))
            .args(["--dir", &dir.display().to_string()])
            .args(["--listen", &at.to_string(), "--id", "1"])
            .args(["--shards", &shards.to_string()])
            .args(["--track-kb", "0", "--no-fsync", "true"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("start dlog-server");
        Server(child)
    }

    fn kill(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A raw endpoint for bare RPCs to the server.
fn probe(at: SocketAddr) -> UdpEndpoint {
    let ep = UdpEndpoint::bind(NodeAddr(100), "127.0.0.1:0".parse().unwrap()).unwrap();
    ep.add_peer(NodeAddr(1), at);
    ep
}

/// Send `body` unrouted (zero log hint) and collect every response with
/// its id until `quiet` passes with nothing more.
fn rpc(ep: &UdpEndpoint, id: u64, body: Request, quiet: Duration) -> Vec<Response> {
    ep.send(NodeAddr(1), &Packet::bare(Message::Request { id, body }))
        .unwrap();
    let mut out = Vec::new();
    while let Some((_, pkt)) = ep.recv(quiet).unwrap() {
        if let Message::Response { id: got, body } = pkt.msg {
            if got == id {
                out.push(body);
            }
        }
    }
    out
}

/// Poll Status until the server answers with a row from every shard.
fn wait_ready(server: &mut Server, ep: &UdpEndpoint, shards: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    for id in 1.. {
        if let Some(status) = server.0.try_wait().unwrap() {
            panic!("dlog-server exited early: {status}");
        }
        if rpc(ep, id, Request::Status, Duration::from_millis(50)).len() as u64 == shards {
            return;
        }
        assert!(Instant::now() < deadline, "dlog-server not ready");
    }
}

/// The six data records and the commit record of one ET1 transaction,
/// each filled with a byte unique to (client, transaction, record).
fn et1_txn(client: u64, txn: u64) -> Vec<Vec<u8>> {
    let sizes = profile::DATA_PAYLOADS
        .iter()
        .map(|p| profile::REDO_OVERHEAD + p)
        .chain([profile::COMMIT_BYTES]);
    sizes
        .enumerate()
        .map(|(i, len)| vec![(client * 64 + txn * 8 + i as u64) as u8; len])
        .collect()
}

fn shipped_server_recovers_forced_records(shards: u64) {
    let root: PathBuf =
        std::env::temp_dir().join(format!("dlog-shipped-{shards}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let at = UdpSocket::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let mut server = Server::start(&root, at, shards);
    let ep = probe(at);
    wait_ready(&mut server, &ep, shards);

    // Three clients, so four shards see more than one log.
    let clients = [1u64, 2, 3];
    let mut forced: Vec<(u64, Lsn, Vec<u8>)> = Vec::new();
    for &c in &clients {
        let mut log = udp_client(c, &[at], 1, 8).unwrap();
        log.initialize().unwrap();
        for txn in 0..4 {
            let mut lsns = Vec::new();
            for rec in et1_txn(c, txn) {
                lsns.push((log.write(rec.clone()).unwrap(), rec));
            }
            let high = log.force().unwrap();
            assert_eq!(Some(high), lsns.last().map(|(l, _)| *l));
            forced.extend(lsns.into_iter().map(|(l, r)| (c, l, r)));
        }
    }

    // A bare IntervalList carries no log hint; at four shards it reaches
    // every shard and only the owner answers.
    let replies = rpc(
        &ep,
        9_001,
        Request::IntervalList {
            client: ClientId(2),
        },
        Duration::from_millis(200),
    );
    assert_eq!(replies.len(), 1, "replies: {replies:?}");
    assert!(matches!(&replies[0], Response::Intervals { intervals } if !intervals.is_empty()));

    let rows = rpc(&ep, 9_002, Request::Status, Duration::from_millis(200));
    let mut seen: Vec<u64> = rows
        .iter()
        .map(|r| match r {
            Response::Status {
                shard, shards: n, ..
            } => {
                assert_eq!(*n, shards);
                *shard
            }
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..shards).collect::<Vec<_>>());

    server.kill();
    let mut server = Server::start(&root, at, shards);
    wait_ready(&mut server, &ep, shards);
    for &c in &clients {
        let mut log = udp_client(c, &[at], 1, 8).unwrap();
        log.initialize().unwrap();
        for (_, lsn, rec) in forced.iter().filter(|(owner, _, _)| *owner == c) {
            let got = log.read(*lsn).unwrap();
            assert_eq!(got.as_ref(), rec.as_slice(), "client {c} {lsn}");
        }
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shipped_server_one_shard() {
    shipped_server_recovers_forced_records(1);
}

#[test]
fn shipped_server_four_shards() {
    shipped_server_recovers_forced_records(4);
}
