//! In-process cluster harness: real log servers (threaded,
//! storage-backed) behind one [`Transport`] — the fault-injectable
//! in-memory network ([`Cluster::start`]) or UDP loopback sockets
//! ([`Cluster::start_udp`]).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dlog_core::assign::AssignStrategy;
use dlog_core::client::{ClientOptions, ReplicatedLog};
use dlog_core::net::ClientNet;
use dlog_net::udp::UdpEndpoint;
use dlog_net::wire::NodeAddr;
use dlog_net::{FaultPlan, MemNetwork, RoutedEndpoint};
use dlog_server::shard::{shard_root, ShardSupervisor};
use dlog_server::{LogServer, ServerConfig, ServerStats};
use dlog_storage::{NvramDevice, StoreOptions, StoreStats};
use dlog_types::{ClientId, ReplicationConfig, ServerId};

static CASE: AtomicU64 = AtomicU64::new(0);

/// NVRAM device capacity per server shard.
const NVRAM_BYTES: usize = 1 << 20;

/// Server addresses are their ids; clients live at 1000 + id.
#[must_use]
pub fn server_addr(s: ServerId) -> NodeAddr {
    NodeAddr(s.0)
}

/// Client node address.
#[must_use]
pub fn client_addr(c: ClientId) -> NodeAddr {
    NodeAddr(1000 + c.0)
}

/// Cluster construction knobs.
#[derive(Clone, Debug)]
pub struct ClusterOptions {
    /// Log servers to start.
    pub servers: u64,
    /// Network fault plan (in-memory network only).
    pub plan: FaultPlan,
    /// `fsync` server segment files (on for durability benchmarks, off
    /// for protocol tests on tmp dirs).
    pub fsync: bool,
    /// Track size (NVRAM flush threshold).
    pub track_bytes: usize,
    /// Segment size override (`None`: the store default).
    pub segment_bytes: Option<u64>,
    /// Attach an archive tier (a local-directory object store per
    /// server) to every server.
    pub archive: bool,
    /// Observability: when enabled, every server (and every client built
    /// by [`Cluster::client`]) gets a tracing/histogram handle.
    pub obs: dlog_obs::ObsOptions,
    /// Group-commit coalescing window for every server (`ZERO`: the
    /// synchronous force-per-message path).
    pub coalesce_window: std::time::Duration,
    /// Shard event loops per server.
    /// Defaults to `DLOG_TEST_SHARDS` from the environment so the whole
    /// test suite can be re-run against a sharded topology unchanged.
    pub shards: u64,
    /// Where to place server directories (`None`: a temp dir).
    pub root: Option<PathBuf>,
}

impl ClusterOptions {
    /// Defaults: reliable network, no fsync, `DLOG_TEST_SHARDS` shards
    /// (1 when unset). Forces are durable in NVRAM.
    #[must_use]
    pub fn new(servers: u64) -> Self {
        ClusterOptions {
            servers,
            plan: FaultPlan::reliable(),
            fsync: false,
            track_bytes: 64 * 1024,
            segment_bytes: None,
            archive: false,
            obs: dlog_obs::ObsOptions::off(),
            coalesce_window: std::time::Duration::ZERO,
            shards: test_shards(),
            root: None,
        }
    }
}

/// The suite-wide shard count: `DLOG_TEST_SHARDS` (CI runs the whole
/// workspace at 1 and at 4), clamped to at least 1.
#[must_use]
pub fn test_shards() -> u64 {
    std::env::var("DLOG_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(1, |v| v.max(1))
}

/// How a [`Cluster`]'s servers and clients reach each other.
pub trait Transport {
    /// The endpoint type of servers and clients alike.
    type Endpoint: RoutedEndpoint + Sync + 'static;

    /// Bring up server `sid`'s endpoint, at the same address on every
    /// boot.
    fn server_endpoint(&mut self, sid: ServerId, obs: dlog_obs::Obs) -> Self::Endpoint;

    /// Cut server `sid` off before its event loops stop (a no-op where
    /// stopping the loops closes the endpoint).
    fn server_down(&mut self, _sid: ServerId) {}

    /// An endpoint for client `cid` that reaches every server.
    fn client_endpoint(&self, cid: ClientId, obs: dlog_obs::Obs) -> Self::Endpoint;
}

/// The in-memory network: partitions and the [`FaultPlan`] live here.
impl Transport for MemNetwork {
    type Endpoint = dlog_net::MemEndpoint;

    fn server_endpoint(&mut self, sid: ServerId, obs: dlog_obs::Obs) -> Self::Endpoint {
        let mut ep = self.endpoint(server_addr(sid));
        ep.set_obs(obs);
        self.set_down(server_addr(sid), false);
        ep
    }

    fn server_down(&mut self, sid: ServerId) {
        self.set_down(server_addr(sid), true);
    }

    fn client_endpoint(&self, cid: ClientId, obs: dlog_obs::Obs) -> Self::Endpoint {
        let mut ep = self.endpoint(client_addr(cid));
        ep.set_obs(obs);
        ep
    }
}

/// UDP loopback, as `dlog-server` runs: each server binds a promiscuous
/// `127.0.0.1` socket, and a crashed server's socket closes with its
/// event loops. Clients bind their own sockets and register every
/// server's address.
#[derive(Debug, Default)]
pub struct UdpNet {
    addrs: HashMap<ServerId, SocketAddr>,
}

impl UdpNet {
    /// The socket address server `sid` is bound to (`None` before its
    /// first boot).
    #[must_use]
    pub fn server_socket(&self, sid: ServerId) -> Option<SocketAddr> {
        self.addrs.get(&sid).copied()
    }
}

impl Transport for UdpNet {
    type Endpoint = UdpEndpoint;

    /// The first boot binds an ephemeral port; a reboot rebinds that
    /// same port.
    ///
    /// # Panics
    /// Panics, naming the address, when the bind fails.
    fn server_endpoint(&mut self, sid: ServerId, obs: dlog_obs::Obs) -> Self::Endpoint {
        let at = self.server_socket(sid).unwrap_or_else(loopback);
        let mut ep = UdpEndpoint::bind(server_addr(sid), at)
            .unwrap_or_else(|e| panic!("bind server {sid} at {at}: {e}"));
        let bound = ep.socket_addr().expect("bound server socket");
        self.addrs.insert(sid, bound);
        ep.set_promiscuous(true);
        ep.set_obs(obs);
        ep
    }

    fn client_endpoint(&self, cid: ClientId, obs: dlog_obs::Obs) -> Self::Endpoint {
        let mut ep = UdpEndpoint::bind(client_addr(cid), loopback()).expect("bind client socket");
        for (&sid, &at) in &self.addrs {
            ep.add_peer(server_addr(sid), at);
        }
        ep.set_obs(obs);
        ep
    }
}

/// An ephemeral `127.0.0.1` port.
fn loopback() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

/// A running in-process cluster over transport `T`.
pub struct Cluster<T: Transport = MemNetwork> {
    /// The network (partition / down control lives here on the
    /// in-memory network).
    pub net: T,
    /// The servers' ids.
    pub servers: Vec<ServerId>,
    opts: ClusterOptions,
    /// Each running server's event loops, one per shard.
    running: HashMap<ServerId, ShardSupervisor>,
    nvrams: HashMap<(ServerId, u64), NvramDevice>,
    /// One observability handle per server *shard*, registered on the
    /// server's first boot; they survive kills and reboots so a
    /// scenario's trace spans the server's incarnations, and sharded
    /// stats never double-count.
    server_obs: HashMap<ServerId, Vec<dlog_obs::Obs>>,
    /// One handle shared by every client this cluster builds.
    client_obs: dlog_obs::Obs,
    root: PathBuf,
    cleanup: bool,
}

impl Cluster {
    /// Start a cluster on the in-memory network (with `opts.plan`).
    #[must_use]
    pub fn start(tag: &str, opts: ClusterOptions) -> Cluster {
        let net = MemNetwork::new(opts.plan);
        Cluster::boot(tag, opts, net)
    }
}

impl Cluster<UdpNet> {
    /// Start a cluster on UDP loopback. `opts.plan` does not apply:
    /// loopback injects no faults.
    #[must_use]
    pub fn start_udp(tag: &str, opts: ClusterOptions) -> Cluster<UdpNet> {
        Cluster::boot(tag, opts, UdpNet::default())
    }
}

impl<T: Transport> Cluster<T> {
    fn boot(tag: &str, opts: ClusterOptions, net: T) -> Cluster<T> {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let (root, cleanup) = match &opts.root {
            Some(r) => (r.clone(), false),
            None => (
                std::env::temp_dir()
                    .join("dlog-bench")
                    .join(format!("{tag}-{}-{case}", std::process::id())),
                true,
            ),
        };
        let _ = std::fs::remove_dir_all(&root);
        let client_obs = dlog_obs::Obs::new(&opts.obs);
        let mut cluster = Cluster {
            net,
            servers: (1..=opts.servers).map(ServerId).collect(),
            opts,
            running: HashMap::new(),
            nvrams: HashMap::new(),
            server_obs: HashMap::new(),
            client_obs,
            root,
            cleanup,
        };
        for sid in cluster.servers.clone() {
            cluster.boot_server(sid);
        }
        cluster
    }

    fn server_dir(&self, sid: ServerId) -> PathBuf {
        self.root.join(format!("server-{}", sid.0))
    }

    /// Each server's archive tier lives beside its data directory.
    #[must_use]
    pub fn archive_dir(&self, sid: ServerId) -> PathBuf {
        self.root.join(format!("archive-{}", sid.0))
    }

    /// (Re)start a server from its on-disk + NVRAM state — every shard,
    /// each recovering from its own storage root.
    pub fn boot_server(&mut self, sid: ServerId) {
        let shards = self.opts.shards.max(1);
        // An obs handle registered before this boot means the server ran
        // earlier in this cluster's life — this boot is a recovery, and
        // the surviving handles get a `Stage::Recover` marker so the
        // trace reads crash → recover in one timeline.
        let rebooting = self.server_obs.contains_key(&sid);
        let obs_list: Vec<dlog_obs::Obs> = self
            .server_obs
            .entry(sid)
            .or_insert_with(|| {
                (0..shards)
                    .map(|_| dlog_obs::Obs::new(&self.opts.obs))
                    .collect()
            })
            .clone();
        let mut servers = Vec::with_capacity(shards as usize);
        for k in 0..shards {
            let mut store_opts = StoreOptions {
                fsync: self.opts.fsync,
                track_bytes: self.opts.track_bytes,
                checkpoint_every: 0,
                ..StoreOptions::default()
            };
            if let Some(sb) = self.opts.segment_bytes {
                store_opts.segment_bytes = sb;
            }
            let nvram = self
                .nvrams
                .entry((sid, k))
                .or_insert_with(|| NvramDevice::new(NVRAM_BYTES))
                .clone();
            let mut config = ServerConfig::new(sid).for_shard(k, shards);
            config.coalesce_window = self.opts.coalesce_window;
            let dir = shard_root(self.server_dir(sid), k, shards);
            let mut server = LogServer::open(dir, config, store_opts, nvram).expect("open server");
            if self.opts.archive {
                let archive_dir = shard_root(self.archive_dir(sid), k, shards);
                let objects =
                    dlog_archive::LocalDirStore::open(archive_dir).expect("open archive dir");
                server
                    .attach_archive(
                        std::sync::Arc::new(objects),
                        std::time::Duration::from_millis(10),
                    )
                    .expect("attach archive");
            }
            let obs = obs_list.get(k as usize).cloned().unwrap_or_default();
            server.set_obs(obs.clone());
            if rebooting {
                obs.event(
                    dlog_obs::Stage::Recover,
                    server.store_mut().stream_end(),
                    sid.0,
                );
            }
            servers.push(server);
        }
        let ep = self
            .net
            .server_endpoint(sid, obs_list.first().cloned().unwrap_or_default());
        self.running
            .insert(sid, ShardSupervisor::spawn(servers, ep));
    }

    /// The server's observability handle — shard 0's on a sharded
    /// server (disabled unless [`ClusterOptions::obs`] enabled it); use
    /// [`Cluster::server_shard_obs`] for every shard's handle.
    #[must_use]
    pub fn server_obs(&self, sid: ServerId) -> dlog_obs::Obs {
        self.server_obs
            .get(&sid)
            .and_then(|v| v.first().cloned())
            .unwrap_or_default()
    }

    /// Every shard's observability handle for `sid` (one entry on an
    /// unsharded server).
    #[must_use]
    pub fn server_shard_obs(&self, sid: ServerId) -> Vec<dlog_obs::Obs> {
        self.server_obs.get(&sid).cloned().unwrap_or_default()
    }

    /// The handle shared by every client this cluster builds.
    #[must_use]
    pub fn client_obs(&self) -> dlog_obs::Obs {
        self.client_obs.clone()
    }

    /// Replace a server's NVRAM devices (every shard's) with fresh
    /// (empty) ones — models battery loss or a board swap alongside
    /// media events.
    pub fn nvram_reset(&mut self, sid: ServerId) {
        for k in 0..self.opts.shards.max(1) {
            self.nvrams.insert((sid, k), NvramDevice::new(NVRAM_BYTES));
        }
    }

    /// Take a server down hard, stamping a `Stage::Crash` marker (with
    /// the durable stream end) into each shard's trace so crash
    /// schedules are legible in observability dumps.
    pub fn kill_server(&mut self, sid: ServerId) {
        self.net.server_down(sid);
        let Some(server) = self.running.remove(&sid) else {
            return;
        };
        let ends = server.crash();
        if let Some(obs_list) = self.server_obs.get(&sid) {
            for (obs, end) in obs_list.iter().zip(ends) {
                obs.event(dlog_obs::Stage::Crash, end, sid.0);
            }
        }
    }

    /// Stop a server gracefully and return its per-shard servers in
    /// shard order (a single element on an unsharded server; empty when
    /// the server is not running).
    pub fn stop_server(&mut self, sid: ServerId) -> Vec<LogServer> {
        self.net.server_down(sid);
        self.running
            .remove(&sid)
            .map_or_else(Vec::new, ShardSupervisor::stop)
    }

    /// Stop every server and collect `(protocol stats, storage stats)`
    /// — one entry per shard on a sharded cluster.
    pub fn stop_all(&mut self) -> Vec<(ServerId, ServerStats, StoreStats)> {
        let mut out = Vec::new();
        for sid in self.servers.clone() {
            for server in self.stop_server(sid) {
                out.push((sid, server.stats(), server.store_stats()));
            }
        }
        out
    }

    /// Build a replicated-log client over this cluster.
    #[must_use]
    pub fn client(&self, id: u64, n: usize, delta: u64) -> ReplicatedLog<T::Endpoint> {
        self.client_with(id, n, delta, AssignStrategy::Striped)
    }

    /// Build a client with an explicit assignment strategy.
    #[must_use]
    pub fn client_with(
        &self,
        id: u64,
        n: usize,
        delta: u64,
        strategy: AssignStrategy,
    ) -> ReplicatedLog<T::Endpoint> {
        let cid = ClientId(id);
        let ep = self.net.client_endpoint(cid, self.client_obs.clone());
        let addrs: HashMap<ServerId, NodeAddr> =
            self.servers.iter().map(|&s| (s, server_addr(s))).collect();
        let net = ClientNet::new(ep, addrs);
        let config = ReplicationConfig::new(self.servers.clone(), n, delta).expect("config");
        let mut copts = ClientOptions::new(config);
        copts.strategy = strategy;
        let mut log = ReplicatedLog::new(cid, copts, net);
        log.set_obs(self.client_obs.clone());
        log
    }
}

impl<T: Transport> Drop for Cluster<T> {
    fn drop(&mut self) {
        self.running.clear();
        if self.cleanup {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

/// A recognizable payload per LSN.
#[must_use]
pub fn payload(i: u64, len: usize) -> Vec<u8> {
    let mut v = vec![(i % 251) as u8; len];
    if let Some(first) = v.first_mut() {
        *first = (i % 127) as u8;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlog_obs::{ObsOptions, Stage};

    /// Each shard's `Crash` / `Recover` markers, in trace order.
    fn markers(cluster: &Cluster, sid: ServerId) -> Vec<Vec<Stage>> {
        cluster
            .server_shard_obs(sid)
            .iter()
            .map(|obs| {
                let snap = obs.snapshot().expect("obs on");
                snap.trace
                    .iter()
                    .map(|e| e.stage)
                    .filter(|s| matches!(s, Stage::Crash | Stage::Recover))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn only_a_reboot_is_marked_as_recovery() {
        let opts = ClusterOptions {
            obs: ObsOptions::on(),
            ..ClusterOptions::new(3)
        };
        let mut cluster = Cluster::start("recover-marker", opts);
        for &sid in &cluster.servers {
            for shard in markers(&cluster, sid) {
                assert!(shard.is_empty(), "fresh server {sid} traced {shard:?}");
            }
        }

        let victim = ServerId(2);
        cluster.kill_server(victim);
        cluster.boot_server(victim);
        let shards = markers(&cluster, victim);
        assert_eq!(shards.len() as u64, test_shards());
        for shard in shards {
            assert_eq!(shard, [Stage::Crash, Stage::Recover]);
        }
    }
}
