//! The full stack over a real network: three log servers and a client
//! exchanging the §4.2 protocol over UDP datagrams on loopback — the
//! transport a 1987 LAN-based log service would actually resemble
//! (unreliable datagrams + end-to-end recovery).
//!
//! Run with: `cargo run -p dlog-bench --example udp_cluster`

use dlog_bench::{Cluster, ClusterOptions};
use dlog_types::Lsn;

fn main() {
    // Three log servers, each on its own promiscuous UDP socket, as
    // `dlog-server` runs them.
    let mut cluster = Cluster::start_udp("udp-example", ClusterOptions::new(3));
    let sockets: Vec<_> = cluster
        .servers
        .iter()
        .filter_map(|&sid| cluster.net.server_socket(sid))
        .collect();
    println!("three log servers listening on UDP: {sockets:?}");

    // A replicated log over UDP: the client binds its own socket and
    // registers every server's address.
    let mut log = cluster.client(1, 2, 8);
    log.initialize().expect("initialize over UDP");
    println!(
        "client initialized over UDP: epoch {}, targets {:?}",
        log.epoch(),
        log.targets()
    );

    for i in 1..=50u64 {
        log.write(format!("udp record {i}").into_bytes()).unwrap();
        if i % 10 == 0 {
            log.force().unwrap();
        }
    }
    log.force().unwrap();
    let d = log.read(Lsn(37)).unwrap();
    assert_eq!(d.as_bytes(), b"udp record 37");
    println!(
        "wrote and forced 50 records; read LSN 37 back: {:?}",
        String::from_utf8_lossy(d.as_bytes())
    );

    for (sid, stats, _) in cluster.stop_all() {
        println!(
            "server {sid} stored {} records ({} packets in)",
            stats.records_stored, stats.packets_in
        );
    }
}
