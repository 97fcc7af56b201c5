//! The two ways a workload's servers run: an in-process cluster over the
//! in-memory transport, and three `dlog-server` processes on UDP
//! loopback. Both hand out clients whose endpoints are wrapped in
//! [`Timed`], and both answer the Status/Stats/IntervalList RPCs through
//! a probe connection.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlog_core::client::{ClientOptions, ReplicatedLog};
use dlog_core::net::ClientNet;
use dlog_net::udp::UdpEndpoint;
use dlog_net::wire::{NodeAddr, Request, Response};
use dlog_net::{Endpoint, FaultPlan, MemEndpoint, MemNetwork};
use dlog_server::gen::GenStore;
use dlog_server::runner::ServerRunner;
use dlog_server::{LogServer, ServerConfig};
use dlog_storage::frame::Frame;
use dlog_storage::store::Durability;
use dlog_storage::{LogStore, NvramDevice, StoreOptions};
use dlog_types::{ClientId, Epoch, IntervalList, LogRecord, ReplicationConfig, ServerId};

use crate::endpoint::{EpSnap, EpStats, Role, Timed};
use crate::trace;

/// Servers per workload (M), replication degree (N) and in-flight bound (δ).
pub const M: u64 = 3;
pub const N: usize = 2;
pub const DELTA: u64 = 8;

/// Gauges of one server's Status row.
#[derive(Clone, Copy, Debug, Default)]
pub struct Status {
    pub duplicates_ignored: u64,
    pub naks_sent: u64,
    pub writes_shed: u64,
    pub forces_acked: u64,
    pub on_disk_bytes: u64,
    pub tracks_flushed: u64,
}

impl Status {
    pub fn add(&mut self, o: &Status) {
        self.duplicates_ignored += o.duplicates_ignored;
        self.naks_sent += o.naks_sent;
        self.writes_shed += o.writes_shed;
        self.forces_acked += o.forces_acked;
        self.on_disk_bytes += o.on_disk_bytes;
        self.tracks_flushed += o.tracks_flushed;
    }

    pub fn since(&self, e: &Status) -> Status {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Status {
            duplicates_ignored: d(self.duplicates_ignored, e.duplicates_ignored),
            naks_sent: d(self.naks_sent, e.naks_sent),
            writes_shed: d(self.writes_shed, e.writes_shed),
            forces_acked: d(self.forces_acked, e.forces_acked),
            on_disk_bytes: d(self.on_disk_bytes, e.on_disk_bytes),
            tracks_flushed: d(self.tracks_flushed, e.tracks_flushed),
        }
    }
}

/// Server-side gauges of the Stats RPC.
#[derive(Clone, Copy, Debug, Default)]
pub struct SrvStats {
    pub ingest_allocs: u64,
    pub ingest_records: u64,
    /// Mean of the `ServerIngest` stage histogram (bucket ceilings), ns;
    /// 0 when the server runs with observability off.
    pub ingest_mean_ns: f64,
    pub ingest_count: u64,
}

/// A raw RPC connection to every server, used for gauges and readiness.
pub struct Probe<E: Endpoint> {
    net: ClientNet<Timed<E>>,
}

impl<E: Endpoint> Probe<E> {
    fn new(ep: E, addrs: HashMap<ServerId, NodeAddr>) -> Self {
        let mut net = ClientNet::new(Timed::new(ep, Role::Client), addrs);
        net.rpc_timeout = Duration::from_millis(50);
        net.rpc_retries = 2;
        Probe { net }
    }

    pub fn status(&mut self, sid: ServerId) -> Result<Status, String> {
        match self
            .net
            .rpc(sid, Request::Status)
            .map_err(|e| e.to_string())?
        {
            Response::Status {
                duplicates_ignored,
                naks_sent,
                writes_shed,
                forces_acked,
                on_disk_bytes,
                tracks_flushed,
                ..
            } => Ok(Status {
                duplicates_ignored,
                naks_sent,
                writes_shed,
                forces_acked,
                on_disk_bytes,
                tracks_flushed,
            }),
            other => Err(format!("Status: unexpected {other:?}")),
        }
    }

    /// Sum of every server's Status row.
    pub fn status_all(&mut self) -> Result<Status, String> {
        let mut s = Status::default();
        for sid in servers() {
            s.add(&self.status(sid)?);
        }
        Ok(s)
    }

    pub fn stats_all(&mut self) -> Result<SrvStats, String> {
        let mut out = SrvStats::default();
        let mut weighted = 0.0;
        for sid in servers() {
            match self
                .net
                .rpc(sid, Request::Stats)
                .map_err(|e| e.to_string())?
            {
                Response::Stats {
                    stages,
                    ingest_allocs,
                    ingest_records,
                    ..
                } => {
                    out.ingest_allocs += ingest_allocs;
                    out.ingest_records += ingest_records;
                    let tag = dlog_obs::Stage::ServerIngest.as_u8();
                    for st in stages.iter().filter(|s| s.stage == tag) {
                        for &(b, c) in &st.buckets {
                            weighted +=
                                dlog_obs::hist::bucket_ceiling(b as usize) as f64 * c as f64;
                            out.ingest_count += c;
                        }
                    }
                }
                other => return Err(format!("Stats: unexpected {other:?}")),
            }
        }
        if out.ingest_count > 0 {
            out.ingest_mean_ns = weighted / out.ingest_count as f64;
        }
        Ok(out)
    }

    pub fn intervals(&mut self, sid: ServerId, client: ClientId) -> Result<IntervalList, String> {
        match self
            .net
            .rpc(sid, Request::IntervalList { client })
            .map_err(|e| e.to_string())?
        {
            Response::Intervals { intervals } => Ok(intervals),
            other => Err(format!("IntervalList: unexpected {other:?}")),
        }
    }

    /// Poll `sid` with Status until it answers.
    fn wait_ready(&mut self, sid: ServerId, limit: Duration) -> Result<(), String> {
        let t0 = Instant::now();
        while self.status(sid).is_err() {
            if t0.elapsed() > limit {
                return Err(format!("server {sid} not ready after {limit:?}"));
            }
        }
        Ok(())
    }
}

pub fn servers() -> Vec<ServerId> {
    (1..=M).map(ServerId).collect()
}

/// What a workload needs from its servers.
pub trait Backend {
    type Ep: Endpoint + 'static;

    /// A fresh client incarnation `id` (uninitialized) and its endpoint
    /// counters.
    fn client(&mut self, id: u64) -> (ReplicatedLog<Timed<Self::Ep>>, Arc<EpStats>);
    fn probe(&mut self) -> &mut Probe<Self::Ep>;
    /// Crash server `sid` hard.
    fn crash(&mut self, sid: ServerId) -> Result<(), String>;
    /// Boot a crashed server again from its storage.
    fn boot(&mut self, sid: ServerId) -> Result<(), String>;
    /// Wait until a booted server answers Status.
    fn wait_ready(&mut self, sid: ServerId) -> Result<(), String>;
    /// Packets the transport lost.
    fn dropped_packets(&self) -> u64;
    /// CPU time (ns) of server processes other than this one.
    fn child_cpu_ns(&self) -> u64;
    /// Peak resident set of server processes other than this one, KiB.
    fn child_peak_rss_kb(&mut self) -> u64;
    /// Endpoint counters of every in-process server incarnation.
    fn server_ep(&self) -> EpSnap;
    /// Live `LogStore::open` timings (ns) and records each recovered.
    fn opens(&self) -> (&[u64], &[u64]);
    /// Stop every server gracefully and pass each record each server
    /// holds installed to `f`, with the server's id: plain record frames,
    /// and `CopyLog` copies once their Install frame follows (copies never
    /// installed are not passed). Returns false when the stores cannot be
    /// reached from this process.
    fn stop_and_scan(&mut self, f: &mut ScanFn<'_>) -> Result<bool, String>;
    /// Stop everything; in-process servers check their traces for
    /// force-before-ack with no dropped events.
    fn finish(self) -> Result<(), String>;
}

/// What [`Backend::stop_and_scan`] hands each installed record to.
pub type ScanFn<'a> = dyn FnMut(ServerId, ClientId, &LogRecord) -> Result<(), String> + 'a;

/// Store options shared by every workload: the shipped defaults with the
/// workload's durability and fsync setting.
pub fn store_options(durability: Durability, fsync: bool) -> StoreOptions {
    StoreOptions {
        durability,
        fsync,
        ..StoreOptions::default()
    }
}

fn client_options(ack_timeout: Option<Duration>) -> ClientOptions {
    let config = ReplicationConfig::new(servers(), N, DELTA).expect("valid replication config");
    let mut opts = ClientOptions::new(config);
    if let Some(t) = ack_timeout {
        opts.ack_timeout = t;
    }
    opts
}

// ---------------------------------------------------------------------
// In-process cluster.

/// Three `LogServer`s on `ServerRunner` threads over the in-memory
/// transport, each endpoint wrapped in [`Timed`].
pub struct MemCluster {
    net: MemNetwork,
    root: PathBuf,
    opts: StoreOptions,
    nvrams: HashMap<ServerId, NvramDevice>,
    runners: HashMap<ServerId, ServerRunner>,
    obs: HashMap<ServerId, dlog_obs::Obs>,
    obs_opts: dlog_obs::ObsOptions,
    eps: Vec<Arc<EpStats>>,
    probe: Probe<MemEndpoint>,
    open_ns: Vec<u64>,
    recovered: Vec<u64>,
}

fn server_addr(s: ServerId) -> NodeAddr {
    NodeAddr(s.0)
}

impl MemCluster {
    /// Start the cluster under `root` (emptied first). With `trace_events`
    /// > 0 every server keeps a trace ring of that many events.
    pub fn start(root: &Path, opts: StoreOptions, trace_events: usize) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(root);
        std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
        let net = MemNetwork::new(FaultPlan::reliable());
        let addrs: HashMap<ServerId, NodeAddr> =
            servers().into_iter().map(|s| (s, server_addr(s))).collect();
        let probe = Probe::new(net.endpoint(NodeAddr(999)), addrs);
        let obs_opts = if trace_events > 0 {
            dlog_obs::ObsOptions::on().with_trace_capacity(trace_events)
        } else {
            dlog_obs::ObsOptions::off()
        };
        let mut c = MemCluster {
            net,
            root: root.to_path_buf(),
            opts,
            nvrams: HashMap::new(),
            runners: HashMap::new(),
            obs: HashMap::new(),
            obs_opts,
            eps: Vec::new(),
            probe,
            open_ns: Vec::new(),
            recovered: Vec::new(),
        };
        for sid in servers() {
            c.boot(sid)?;
        }
        for sid in servers() {
            c.wait_ready(sid)?;
        }
        Ok(c)
    }
}

impl Backend for MemCluster {
    type Ep = MemEndpoint;

    fn client(&mut self, id: u64) -> (ReplicatedLog<Timed<MemEndpoint>>, Arc<EpStats>) {
        let ep = Timed::new(self.net.endpoint(NodeAddr(1000 + id)), Role::Client);
        let stats = ep.stats();
        let addrs = servers().into_iter().map(|s| (s, server_addr(s))).collect();
        let log = ReplicatedLog::new(
            ClientId(id),
            client_options(None),
            ClientNet::new(ep, addrs),
        );
        (log, stats)
    }

    fn probe(&mut self) -> &mut Probe<MemEndpoint> {
        &mut self.probe
    }

    fn crash(&mut self, sid: ServerId) -> Result<(), String> {
        self.net.set_down(server_addr(sid), true);
        let r = self
            .runners
            .remove(&sid)
            .ok_or_else(|| format!("server {sid} is not running"))?;
        r.crash();
        Ok(())
    }

    fn boot(&mut self, sid: ServerId) -> Result<(), String> {
        let dir = self.root.join(format!("server-{}", sid.0));
        let nvram = self
            .nvrams
            .entry(sid)
            .or_insert_with(|| NvramDevice::new(1 << 20))
            .clone();
        let o = trace::open("storage.open", 0);
        let t0 = Instant::now();
        let store = LogStore::open(&dir, self.opts.clone(), nvram)
            .map_err(|e| format!("open store {}: {e}", dir.display()))?;
        self.open_ns
            .push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        trace::close(o);
        self.recovered.push(store.stats().recovered_records);
        let gens = GenStore::open(dir.join("gens")).map_err(|e| format!("open gens: {e}"))?;
        let mut server = LogServer::new(ServerConfig::new(sid), store, gens)
            .map_err(|e| format!("construct server {sid}: {e}"))?;
        let obs = self
            .obs
            .entry(sid)
            .or_insert_with(|| dlog_obs::Obs::new(&self.obs_opts))
            .clone();
        server.set_obs(obs);
        let ep = Timed::new(self.net.endpoint(server_addr(sid)), Role::Server);
        self.eps.push(ep.stats());
        self.net.set_down(server_addr(sid), false);
        self.runners.insert(sid, ServerRunner::spawn(server, ep));
        Ok(())
    }

    fn wait_ready(&mut self, sid: ServerId) -> Result<(), String> {
        self.probe.wait_ready(sid, Duration::from_secs(10))
    }

    fn dropped_packets(&self) -> u64 {
        self.net.stats().dropped
    }

    fn child_cpu_ns(&self) -> u64 {
        0
    }

    fn child_peak_rss_kb(&mut self) -> u64 {
        0
    }

    fn server_ep(&self) -> EpSnap {
        let mut s = EpSnap::default();
        for e in &self.eps {
            s.add(&e.snap());
        }
        s
    }

    fn opens(&self) -> (&[u64], &[u64]) {
        (&self.open_ns, &self.recovered)
    }

    fn stop_and_scan(&mut self, f: &mut ScanFn<'_>) -> Result<bool, String> {
        let mut sids: Vec<ServerId> = self.runners.keys().copied().collect();
        sids.sort_unstable();
        for sid in sids {
            let Some(r) = self.runners.remove(&sid) else {
                continue;
            };
            // A graceful stop syncs the NVRAM track into the stream.
            let mut server = r.stop();
            let store = server.store_mut();
            // Staged copies per client and epoch, as the store's own
            // recovery keeps them: a later copy of an LSN replaces an
            // earlier one, and an Install frame makes them all count.
            let mut staged: HashMap<(ClientId, Epoch), Vec<LogRecord>> = HashMap::new();
            let mut err = Ok(());
            store
                .scan_stream(store.stream_start(), |_, frame| {
                    if err.is_err() {
                        return;
                    }
                    match frame {
                        Frame::Record {
                            client,
                            record,
                            staged: false,
                        } => err = f(sid, client, &record),
                        Frame::Record {
                            client,
                            record,
                            staged: true,
                        } => {
                            let slot = staged.entry((client, record.epoch)).or_default();
                            slot.retain(|r| r.lsn != record.lsn);
                            slot.push(record);
                        }
                        Frame::Install { client, epoch } => {
                            for record in staged.remove(&(client, epoch)).unwrap_or_default() {
                                if err.is_ok() {
                                    err = f(sid, client, &record);
                                }
                            }
                        }
                        Frame::Checkpoint(_) => {}
                    }
                })
                .map_err(|e| format!("scan server {sid}: {e}"))?;
            err.map_err(|e| format!("server {sid}: {e}"))?;
        }
        Ok(true)
    }

    fn finish(mut self) -> Result<(), String> {
        for (_, r) in self.runners.drain() {
            drop(r.stop());
        }
        let mut result = Ok(());
        for (sid, obs) in &self.obs {
            let Some(snap) = obs.snapshot() else { continue };
            if snap.trace_dropped > 0 {
                result = Err(format!(
                    "server {sid}: {} of {} trace events dropped",
                    snap.trace_dropped, snap.trace_events
                ));
            } else if let Err(e) = dlog_obs::trace::check_force_before_ack(&snap.trace) {
                result = Err(format!("server {sid}: {e}"));
            }
        }
        result
    }
}

impl Drop for MemCluster {
    fn drop(&mut self) {
        for (_, r) in self.runners.drain() {
            drop(r);
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

// ---------------------------------------------------------------------
// Shipped server processes on UDP loopback.

/// Three `dlog-server` processes started with their default flags.
/// Dropping the cluster kills and reaps every child, also on panic.
pub struct UdpCluster {
    bin: PathBuf,
    root: PathBuf,
    procs: HashMap<ServerId, Child>,
    /// Server addresses, fixed for the cluster's life (reboots reuse them).
    listen: HashMap<ServerId, SocketAddr>,
    /// CPU time (ns) of children that already exited.
    dead_ns: u64,
    /// Peak resident set (KiB) per server slot over its incarnations.
    peak_rss_kb: HashMap<ServerId, u64>,
    probe: Probe<UdpEndpoint>,
    snmp_base: u64,
}

/// A free loopback port for a server. It comes from below the kernel's
/// ephemeral port range: a port the kernel handed out for port 0 could
/// be handed out again, to the probe's or a client's socket, between
/// this check and the server's bind.
fn free_port() -> Result<SocketAddr, String> {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let low = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u32>().ok())
        .unwrap_or(32_768);
    let span = low.saturating_sub(1024).min(10_000);
    for _ in 0..span {
        let k = NEXT
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_add(std::process::id());
        let Ok(port) = u16::try_from(low - 1 - k % span) else {
            continue;
        };
        if let Ok(s) = UdpSocket::bind(("127.0.0.1", port)) {
            return s.local_addr().map_err(|e| e.to_string());
        }
    }
    Err(format!("no free UDP port below {low}"))
}

/// A UDP client endpoint built the way `dlog_cli::udp_client` builds it.
fn udp_endpoint(listen: &HashMap<ServerId, SocketAddr>) -> Result<UdpEndpoint, String> {
    let ep = UdpEndpoint::bind(
        NodeAddr(u64::MAX),
        "0.0.0.0:0".parse().expect("literal socket address"),
    )
    .map_err(|e| format!("bind client socket: {e}"))?;
    for (sid, at) in listen {
        ep.add_peer(NodeAddr(sid.0), *at);
    }
    Ok(ep)
}

/// Whether a UDP socket of this network namespace is bound to `port`
/// (`/proc/net/udp`).
fn udp_port_bound(port: u16) -> bool {
    let Ok(s) = std::fs::read_to_string("/proc/net/udp") else {
        return false;
    };
    let want = format!(":{port:04X}");
    s.lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().nth(1))
        .any(|local| local.ends_with(&want))
}

/// UDP receive errors of this network namespace (`/proc/net/snmp`).
pub fn udp_in_errors() -> u64 {
    let Ok(s) = std::fs::read_to_string("/proc/net/snmp") else {
        return 0;
    };
    let mut lines = s.lines().filter(|l| l.starts_with("Udp:"));
    let (Some(head), Some(vals)) = (lines.next(), lines.next()) else {
        return 0;
    };
    head.split_whitespace()
        .zip(vals.split_whitespace())
        .filter(|(k, _)| *k == "InErrors")
        .filter_map(|(_, v)| v.parse::<u64>().ok())
        .sum()
}

/// CPU time in nanoseconds of one task, from its `schedstat` file. The
/// clock-tick figures of `/proc/<pid>/stat` would round each process's
/// share of a run to 10 ms.
fn schedstat_ns(path: &Path) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU time (ns) of the live threads of a process.
pub fn proc_cpu_ns(pid: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .map(|t| schedstat_ns(&t.path().join("schedstat")))
        .sum()
}

/// CPU time (ns) of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns(Path::new("/proc/thread-self/schedstat"))
}

/// Peak resident set (`VmHWM`) of a process, KiB.
pub fn proc_peak_rss_kb(pid: &str) -> u64 {
    let Ok(s) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0;
    };
    s.lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

impl UdpCluster {
    pub fn start(bin: &Path, root: &Path) -> Result<Self, String> {
        if !bin.is_file() {
            return Err(format!("server binary {} not found", bin.display()));
        }
        let _ = std::fs::remove_dir_all(root);
        std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
        let mut listen = HashMap::new();
        for sid in servers() {
            listen.insert(sid, free_port()?);
        }
        let addrs = servers().into_iter().map(|s| (s, NodeAddr(s.0))).collect();
        let probe = Probe::new(udp_endpoint(&listen)?, addrs);
        let mut c = UdpCluster {
            bin: bin.to_path_buf(),
            root: root.to_path_buf(),
            procs: HashMap::new(),
            listen,
            dead_ns: 0,
            peak_rss_kb: HashMap::new(),
            probe,
            snmp_base: udp_in_errors(),
        };
        for sid in servers() {
            c.boot(sid)?;
        }
        for sid in servers() {
            c.wait_ready(sid)?;
        }
        Ok(c)
    }

    fn note_rss(&mut self) {
        for (sid, child) in &self.procs {
            let kb = proc_peak_rss_kb(&child.id().to_string());
            let e = self.peak_rss_kb.entry(*sid).or_default();
            *e = (*e).max(kb);
        }
    }

    fn reap(&mut self, sid: ServerId) {
        self.note_rss();
        if let Some(mut child) = self.procs.remove(&sid) {
            self.dead_ns += proc_cpu_ns(&child.id().to_string());
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Backend for UdpCluster {
    type Ep = UdpEndpoint;

    fn client(&mut self, id: u64) -> (ReplicatedLog<Timed<UdpEndpoint>>, Arc<EpStats>) {
        let ep = Timed::new(
            udp_endpoint(&self.listen).expect("bind UDP client socket"),
            Role::Client,
        );
        let stats = ep.stats();
        let addrs = servers().into_iter().map(|s| (s, NodeAddr(s.0))).collect();
        let log = ReplicatedLog::new(
            ClientId(id),
            client_options(Some(Duration::from_millis(300))),
            ClientNet::new(ep, addrs),
        );
        (log, stats)
    }

    fn probe(&mut self) -> &mut Probe<UdpEndpoint> {
        &mut self.probe
    }

    fn crash(&mut self, sid: ServerId) -> Result<(), String> {
        if !self.procs.contains_key(&sid) {
            return Err(format!("server {sid} is not running"));
        }
        self.reap(sid);
        Ok(())
    }

    fn boot(&mut self, sid: ServerId) -> Result<(), String> {
        let listen = self.listen[&sid];
        let dir = self.root.join(format!("server-{}", sid.0));
        let log = std::fs::File::create(self.root.join(format!("server-{}.log", sid.0)))
            .map_err(|e| format!("server log: {e}"))?;
        let child = Command::new(&self.bin)
            .arg("--dir")
            .arg(&dir)
            .arg("--listen")
            .arg(listen.to_string())
            .arg("--id")
            .arg(sid.0.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.bin.display()))?;
        self.procs.insert(sid, child);
        Ok(())
    }

    /// A Status request that reaches a starting server before it has
    /// bound its socket is lost, and the probe then waits out its RPC
    /// timeout: wait for the socket to appear first, so that set-up and
    /// restart times are the server's and not the timeout's.
    fn wait_ready(&mut self, sid: ServerId) -> Result<(), String> {
        let limit = Duration::from_secs(20);
        let t0 = Instant::now();
        while !udp_port_bound(self.listen[&sid].port()) {
            if let Some(Ok(Some(st))) = self.procs.get_mut(&sid).map(Child::try_wait) {
                return Err(format!("server {sid} exited before binding: {st}"));
            }
            if t0.elapsed() > limit {
                return Err(format!("server {sid} did not bind after {limit:?}"));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        self.probe.wait_ready(sid, limit)
    }

    fn dropped_packets(&self) -> u64 {
        udp_in_errors().saturating_sub(self.snmp_base)
    }

    fn child_cpu_ns(&self) -> u64 {
        self.dead_ns
            + self
                .procs
                .values()
                .map(|c| proc_cpu_ns(&c.id().to_string()))
                .sum::<u64>()
    }

    fn child_peak_rss_kb(&mut self) -> u64 {
        self.note_rss();
        self.peak_rss_kb.values().sum()
    }

    fn server_ep(&self) -> EpSnap {
        EpSnap::default()
    }

    fn opens(&self) -> (&[u64], &[u64]) {
        (&[], &[])
    }

    fn stop_and_scan(&mut self, _f: &mut ScanFn<'_>) -> Result<bool, String> {
        Ok(false)
    }

    fn finish(mut self) -> Result<(), String> {
        for sid in servers() {
            self.reap(sid);
        }
        Ok(())
    }
}

impl Drop for UdpCluster {
    fn drop(&mut self) {
        for (_, mut child) in self.procs.drain() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
