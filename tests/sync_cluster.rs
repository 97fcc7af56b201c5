//! Deterministic protocol tests: the client runs against *synchronous*
//! sans-I/O log servers (the `dlog_mc::harness` world: no threads, no
//! timing), with scripted fault switches — pinpointing the NAK/resend/switch logic that the threaded
//! integration tests exercise under real concurrency.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dlog_core::assign::AssignStrategy;
use dlog_core::client::{ClientOptions, ReplicatedLog};
use dlog_core::net::ClientNet;
use dlog_mc::harness::{build_world, SyncEndpoint, SyncWorld, SyncWorldOptions};
use dlog_net::wire::{Message, NodeAddr, Packet};
use dlog_net::{Endpoint, FaultPlan};
use dlog_server::{LogServer, ServerStats};
use dlog_types::{ClientId, DlogError, Epoch, Lsn, ReplicationConfig, ServerId};

type World = Arc<Mutex<SyncWorld>>;

/// The world's storage directory, removed when the test ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A reliable synchronous world of `m` servers (server `i` at
/// `NodeAddr(i)`).
fn start(tag: &str, m: u64) -> (Scratch, World) {
    let dir = std::env::temp_dir()
        .join("dlog-sync-cluster")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SyncWorldOptions::shared(m, FaultPlan::reliable(), dlog_obs::Obs::off());
    let (world, _) = build_world(&dir, opts).expect("build world");
    (Scratch(dir), world)
}

fn client(world: &World, n: usize, delta: u64) -> ReplicatedLog<SyncEndpoint> {
    let m = world.lock().unwrap().servers.len() as u64;
    let ids: Vec<ServerId> = (1..=m).map(ServerId).collect();
    let addrs: HashMap<ServerId, NodeAddr> = ids.iter().map(|&s| (s, NodeAddr(s.0))).collect();
    let ep = SyncEndpoint::new(NodeAddr(1000), Arc::clone(world));
    let mut net = ClientNet::new(ep, addrs);
    // Everything is synchronous: zero waiting.
    net.rpc_timeout = Duration::from_millis(1);
    net.rpc_retries = 1;
    let config = ReplicationConfig::new(ids, n, delta).unwrap();
    let mut opts = ClientOptions::new(config);
    opts.strategy = AssignStrategy::Fixed;
    opts.ack_timeout = Duration::from_millis(1);
    opts.force_retries = 1;
    ReplicatedLog::new(ClientId(1), opts, net)
}

/// Take server `s` out of the world: every packet to it is lost until
/// [`unmute`] puts it back.
fn mute(world: &World, s: ServerId) -> LogServer {
    world
        .lock()
        .unwrap()
        .servers
        .remove(&NodeAddr(s.0))
        .unwrap()
}

fn unmute(world: &World, s: ServerId, server: LogServer) {
    world.lock().unwrap().servers.insert(NodeAddr(s.0), server);
}

fn server_stats(world: &World, s: ServerId) -> ServerStats {
    world.lock().unwrap().servers[&NodeAddr(s.0)].stats()
}

#[test]
fn deterministic_roundtrip() {
    let (_dir, world) = start("roundtrip", 3);
    let mut log = client(&world, 2, 4);
    log.initialize().unwrap();
    for i in 1..=10u64 {
        log.write(vec![i as u8; 30]).unwrap();
    }
    assert_eq!(log.force().unwrap(), Lsn(10));
    for i in 1..=10u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            vec![i as u8; 30].as_slice()
        );
    }
}

#[test]
fn lost_batch_is_naked_and_resent() {
    let (_dir, world) = start("nak", 3);
    let mut log = client(&world, 2, 4);
    log.initialize().unwrap();
    log.write(vec![1u8; 20]).unwrap();
    log.force().unwrap();

    // Lose the next batch to BOTH targets, then the following force
    // triggers the gap NAK path on the servers.
    world.lock().unwrap().plan.loss = 1.0;
    log.write(vec![2u8; 20]).unwrap();
    log.flush().unwrap(); // silently lost
    world.lock().unwrap().plan.loss = 0.0;
    log.write(vec![3u8; 20]).unwrap();
    log.force().unwrap(); // servers see a gap, NAK, client resends

    let naks =
        server_stats(&world, ServerId(1)).naks_sent + server_stats(&world, ServerId(2)).naks_sent;
    assert!(naks >= 1, "servers must NAK the gap");
    assert!(log.stats().resends >= 1, "client must resend");
    for i in 1..=3u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            vec![i as u8; 20].as_slice()
        );
    }
}

#[test]
fn silent_server_causes_switch_with_new_interval() {
    let (_dir, world) = start("switch", 3);
    let mut log = client(&world, 2, 4);
    log.initialize().unwrap();
    log.write(vec![1u8; 20]).unwrap();
    log.force().unwrap();
    let victim = log.targets()[1];

    let muted = mute(&world, victim);
    log.write(vec![2u8; 20]).unwrap();
    log.force().unwrap();
    assert!(log.stats().switches >= 1);
    assert!(!log.targets().contains(&victim));
    // The replacement (server 3) holds a fresh interval (NewInterval path).
    let s3 = ServerId(3);
    assert!(log.targets().contains(&s3));
    assert!(server_stats(&world, s3).records_stored >= 1);

    unmute(&world, victim, muted);
    for i in 1..=2u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            vec![i as u8; 20].as_slice()
        );
    }
}

#[test]
fn duplicate_force_is_idempotent() {
    let (_dir, world) = start("dupforce", 3);
    let mut log = client(&world, 2, 4);
    log.initialize().unwrap();
    log.write(vec![1u8; 20]).unwrap();
    log.force().unwrap();
    log.force().unwrap(); // nothing new: no-op
    log.force().unwrap();
    let stored = server_stats(&world, ServerId(1)).records_stored
        + server_stats(&world, ServerId(2)).records_stored;
    assert_eq!(stored, 2, "one record on two servers, no duplicates");
}

#[test]
fn below_write_quorum_errors_cleanly() {
    let (_dir, world) = start("noquorum", 3);
    let mut log = client(&world, 2, 4);
    log.initialize().unwrap();
    log.write(vec![1u8; 20]).unwrap();
    log.force().unwrap();

    // Mute two servers: only one remains — below N = 2.
    let s2 = mute(&world, ServerId(2));
    let s3 = mute(&world, ServerId(3));
    log.write(vec![2u8; 20]).unwrap();
    match log.force() {
        Err(DlogError::QuorumUnavailable { .. }) => {}
        other => panic!("expected quorum failure, got {other:?}"),
    }

    // Healing lets a later force complete (the record is still queued).
    unmute(&world, ServerId(2), s2);
    unmute(&world, ServerId(3), s3);
    log.force().unwrap();
    assert_eq!(
        log.read(Lsn(2)).unwrap().as_bytes(),
        vec![2u8; 20].as_slice()
    );
}

#[test]
fn send_to_a_muted_server_is_lost() {
    let (_dir, world) = start("lost", 1);
    let _muted = mute(&world, ServerId(1));
    let ep = SyncEndpoint::new(NodeAddr(1000), Arc::clone(&world));
    let force = Message::ForceLog {
        client: ClientId(1),
        epoch: Epoch(1),
        records: Vec::new(),
    };
    ep.send(NodeAddr(1), &Packet::bare(force)).unwrap();
    assert!(world.lock().unwrap().inbox.is_empty());
}
