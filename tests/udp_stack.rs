//! The full stack over real UDP loopback sockets: initialization, writes,
//! forces, reads, and crash recovery across actual datagrams.

use dlog_bench::{payload, Cluster, ClusterOptions};
use dlog_types::Lsn;

#[test]
fn udp_write_force_read() {
    let cluster = Cluster::start_udp("wfr", ClusterOptions::new(3));
    let mut log = cluster.client(1, 2, 8);
    log.initialize().unwrap();
    for i in 1..=30u64 {
        log.write(vec![i as u8; 120]).unwrap();
    }
    assert_eq!(log.force().unwrap(), Lsn(30));
    for i in 1..=30u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            vec![i as u8; 120].as_slice()
        );
    }
}

#[test]
fn udp_restart_recovers() {
    // Two sockets for the same logical client: its pre- and post-crash
    // incarnations. The log identity is the ClientId, not the transport
    // address.
    let cluster = Cluster::start_udp("restart", ClusterOptions::new(3));
    {
        let mut log = cluster.client(2, 2, 4);
        log.initialize().unwrap();
        for i in 1..=12u64 {
            log.write(vec![i as u8; 80]).unwrap();
        }
        log.force().unwrap();
        // crash
    }
    let mut log = cluster.client(2, 2, 4);
    log.initialize().unwrap();
    assert!(log.end_of_log().unwrap() >= Lsn(12));
    for i in 1..=12u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            vec![i as u8; 80].as_slice()
        );
    }
}

#[test]
fn udp_server_restart_keeps_forced_records() {
    let mut cluster = Cluster::start_udp("srvrestart", ClusterOptions::new(3));
    let (t0, t1) = {
        let mut log = cluster.client(1, 2, 4);
        log.initialize().unwrap();
        for i in 1..=20u64 {
            log.write(payload(i, 100)).unwrap();
        }
        assert_eq!(log.force().unwrap(), Lsn(20));
        (log.targets()[0], log.targets()[1])
        // The client crashes here too.
    };

    // Crash a target and boot it again on the same port.
    let port = cluster.net.server_socket(t0);
    cluster.kill_server(t0);
    cluster.boot_server(t0);
    assert_eq!(cluster.net.server_socket(t0), port);
    // With the other holder down, the restarted server serves every read.
    cluster.kill_server(t1);

    let mut log = cluster.client(1, 2, 4);
    log.initialize().unwrap();
    for i in 1..=20u64 {
        assert_eq!(
            log.read(Lsn(i)).unwrap().as_bytes(),
            payload(i, 100).as_slice(),
            "lsn {i}"
        );
    }
    let lsn = log.write(payload(99, 40)).unwrap();
    log.force().unwrap();
    assert_eq!(
        log.read(lsn).unwrap().as_bytes(),
        payload(99, 40).as_slice()
    );
}
