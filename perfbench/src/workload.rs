//! The two workloads. Each pass sets up its servers and clients several
//! times (the last set-up is kept), warms up, runs its timed section,
//! then probes restart and read paths and reads every forced record
//! back.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlog_core::client::{ClientStats, ReplicatedLog};
use dlog_core::net::NetClientStats;
use dlog_net::Endpoint;
use dlog_storage::store::Durability;
use dlog_types::{DlogError, Lsn, ServerId};
use dlog_workload::et1::profile;

use crate::backend::{
    self, proc_cpu_ns, proc_peak_rss_kb, thread_cpu_ns, Backend, MemCluster, SrvStats, Status,
    UdpCluster, DELTA, M, N,
};
use crate::endpoint::{EpSnap, EpStats, Timed};
use crate::stats::{Samples, Tally};
use crate::trace;

/// How long a run keeps setting up; `setup_s` is the median set-up.
/// A set-up is a few milliseconds of round trips to idle servers (and,
/// on `et1_udp`, process spawns), so it follows the host's scheduling,
/// which drifts over seconds: sampling a stretch of time rather than a
/// few set-ups keeps one run's figure steadier.
const SETUP_TIME: Duration = Duration::from_millis(1500);
/// Load before the timed section starts.
const WARMUP: Duration = Duration::from_millis(300);
/// Client threads.
pub const CLIENTS: u64 = 2;
/// Records read backward after `initialize`: the recovery tail.
pub const TAIL: u32 = 64;
/// Probes after the timed section.
pub const PROBE_RESTARTS: usize = 100;
pub const PROBE_READS: usize = 2000;
pub const PROBE_SERVER_RESTARTS: u64 = 6;

/// The workloads, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Et1Mem,
    Et1Udp,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "et1_mem" => Some(Workload::Et1Mem),
            "et1_udp" => Some(Workload::Et1Udp),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Et1Mem => "et1_mem",
            Workload::Et1Udp => "et1_udp",
        }
    }

    pub fn in_process(self) -> bool {
        self == Workload::Et1Mem
    }

    /// Durability and fsync of the workload's stores.
    pub fn storage(self) -> (Durability, bool) {
        match self {
            Workload::Et1Mem => (Durability::Nvram, false),
            // The shipped binary's defaults.
            Workload::Et1Udp => (Durability::Nvram, true),
        }
    }

    /// The configuration line of the run metadata.
    pub fn config_json(self, seed: u64) -> String {
        let (durability, fsync) = self.storage();
        let (transport, servers) = match self {
            Workload::Et1Mem => ("mem", "in-process ServerRunner threads"),
            Workload::Et1Udp => ("udp-loopback", "dlog-server processes, default flags"),
        };
        format!(
            "{{\"workload\": \"{}\", \"M\": {M}, \"N\": {N}, \"delta\": {DELTA}, \
             \"durability\": \"{durability:?}\", \"fsync\": {fsync}, \"transport\": \"{transport}\", \
             \"servers\": \"{servers}\", \"shards\": 1, \"client_threads\": {CLIENTS}, \
             \"loop\": \"closed\", \"rate\": \"none\", \"seed\": {seed}, \"record_shape\": {:?}, \
             \"records_per_txn\": {}, \"bytes_per_txn\": {}, \"forces_per_txn\": {}, \
             \"network\": \"reliable\"}}",
            self.name(),
            SHAPE,
            profile::RECORDS_PER_TXN,
            profile::BYTES_PER_TXN,
            profile::FORCES_PER_TXN,
        )
    }
}

/// Record lengths of one ET1 transaction: six redo records and the
/// commit record, 700 bytes in all (`dlog_workload::et1::profile`).
pub const SHAPE: [usize; profile::RECORDS_PER_TXN] = [
    profile::DATA_PAYLOADS[0] + profile::REDO_OVERHEAD,
    profile::DATA_PAYLOADS[1] + profile::REDO_OVERHEAD,
    profile::DATA_PAYLOADS[2] + profile::REDO_OVERHEAD,
    profile::DATA_PAYLOADS[3] + profile::REDO_OVERHEAD,
    profile::DATA_PAYLOADS[4] + profile::REDO_OVERHEAD,
    profile::DATA_PAYLOADS[5] + profile::REDO_OVERHEAD,
    profile::COMMIT_BYTES,
];

/// Settings of one run.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub server_bin: PathBuf,
    pub data: PathBuf,
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The payload of record `kind` (1-based) at `lsn` for `client`.
pub fn payload(seed: u64, client: u64, lsn: u64, kind: u8) -> Vec<u8> {
    let len = SHAPE[usize::from(kind - 1)];
    let mut st = seed ^ (client << 48) ^ lsn.wrapping_mul(0x2545_F491_4F6C_DD1D);
    let mut v = Vec::with_capacity(len);
    while v.len() < len {
        let w = splitmix(&mut st).to_le_bytes();
        let take = (len - v.len()).min(8);
        v.extend_from_slice(&w[..take]);
    }
    v
}

/// What each LSN of a client's log must read back as.
#[derive(Clone, Debug, Default)]
pub struct Expect {
    /// Per LSN: 0 never written (masked), 1..=7 the forced record's kind,
    /// [`UNKNOWN`] written by a transaction whose force failed.
    kinds: Vec<u8>,
}

pub const UNKNOWN: u8 = 0xFF;

impl Expect {
    fn set(&mut self, lsn: u64, kind: u8) {
        let i = lsn as usize;
        if self.kinds.len() <= i {
            self.kinds.resize(i + 1, 0);
        }
        self.kinds[i] = kind;
    }

    pub fn kind(&self, lsn: u64) -> u8 {
        self.kinds.get(lsn as usize).copied().unwrap_or(0)
    }
}

/// One client: its current incarnation plus the counters of the ones it
/// replaced.
pub struct Worker<E: Endpoint> {
    pub id: u64,
    pub log: ReplicatedLog<Timed<E>>,
    eps: Arc<EpStats>,
    past_ep: EpSnap,
    past_cs: ClientStats,
    past_ns: NetClientStats,
    /// Packets captured by earlier incarnations' endpoints.
    past_captured: Vec<dlog_net::Packet>,
    pub exp: Expect,
    seed: u64,
    txns: u64,
    pub user_bytes: u64,
}

fn add_cs(a: &mut ClientStats, b: &ClientStats) {
    a.records_written += b.records_written;
    a.bytes_written += b.bytes_written;
    a.forces += b.forces;
    a.resends += b.resends;
    a.switches += b.switches;
    a.reads += b.reads;
    a.read_cache_hits += b.read_cache_hits;
    a.initializations += b.initializations;
    a.recovery_copies += b.recovery_copies;
    a.window_stalls += b.window_stalls;
}

fn add_ns(a: &mut NetClientStats, b: &NetClientStats) {
    a.packets_out += b.packets_out;
    a.packets_in += b.packets_in;
    a.rpc_retries += b.rpc_retries;
    a.rpc_failures += b.rpc_failures;
    a.naks_in += b.naks_in;
    a.acks_in += b.acks_in;
}

/// Counters of every client over every incarnation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientTotals {
    pub ep: EpSnap,
    pub cs: ClientStats,
    pub ns: NetClientStats,
}

impl<E: Endpoint + 'static> Worker<E> {
    pub fn new<B: Backend<Ep = E>>(b: &mut B, id: u64, seed: u64) -> Self {
        let (log, eps) = b.client(id);
        Worker {
            id,
            log,
            eps,
            past_ep: EpSnap::default(),
            past_cs: ClientStats::default(),
            past_ns: NetClientStats::default(),
            past_captured: Vec::new(),
            exp: Expect::default(),
            seed,
            txns: 0,
            user_bytes: 0,
        }
    }

    pub fn totals(&self) -> ClientTotals {
        let mut t = ClientTotals {
            ep: self.past_ep,
            cs: self.past_cs,
            ns: self.past_ns,
        };
        t.ep.add(&self.eps.snap());
        add_cs(&mut t.cs, &self.log.stats());
        add_ns(&mut t.ns, &self.log.net_stats());
        t
    }

    /// Crash this client: drop the incarnation and build a fresh one.
    pub fn crash<B: Backend<Ep = E>>(&mut self, b: &mut B) {
        self.past_ep.add(&self.eps.snap());
        add_cs(&mut self.past_cs, &self.log.stats());
        add_ns(&mut self.past_ns, &self.log.net_stats());
        self.past_captured
            .append(&mut self.eps.captured.lock().expect("capture poisoned"));
        let (log, eps) = b.client(self.id);
        self.log = log;
        self.eps = eps;
    }

    /// `initialize` then the backward scan of the recovery tail.
    pub fn restart_scan(&mut self) -> Result<(), DlogError> {
        trace::span("core.initialize", 0, || self.log.initialize())?;
        let end = self.log.end_of_log()?;
        if end.0 > 0 {
            let recs = trace::span("core.read_backward", 0, || {
                self.log.read_backward(end, TAIL)
            })?;
            if recs.is_empty() {
                return Err(DlogError::NoSuchRecord { lsn: end });
            }
        }
        Ok(())
    }

    /// The seven payloads of the next transaction, made before timing.
    pub fn next_payloads(&self) -> Result<(u64, Vec<Vec<u8>>), DlogError> {
        let first = self.log.end_of_log()?.0 + 1;
        let p = (0..SHAPE.len() as u64)
            .map(|k| payload(self.seed, self.id, first + k, k as u8 + 1))
            .collect();
        Ok((first, p))
    }

    /// One ET1 transaction: seven writes and a force of the last.
    pub fn commit(&mut self, first: u64, payloads: Vec<Vec<u8>>) -> Result<(), DlogError> {
        self.txns += 1;
        let key = (self.id << 40) | self.txns;
        let o = trace::open("txn", key);
        let r = self.commit_inner(first, payloads);
        trace::close(o);
        r
    }

    fn commit_inner(&mut self, first: u64, payloads: Vec<Vec<u8>>) -> Result<(), DlogError> {
        for k in 0..SHAPE.len() as u64 {
            self.exp.set(first + k, UNKNOWN);
        }
        for (k, p) in payloads.into_iter().enumerate() {
            let want = first + k as u64;
            self.user_bytes += p.len() as u64;
            let lsn = trace::span("core.write", 0, || self.log.write(p))?;
            if lsn.0 != want {
                return Err(DlogError::Protocol(format!(
                    "write got LSN {} where {want} was next",
                    lsn.0
                )));
            }
        }
        trace::span("core.force", 0, || self.log.force())?;
        for k in 0..SHAPE.len() as u64 {
            self.exp.set(first + k, k as u8 + 1);
        }
        Ok(())
    }

    /// Read `lsn` and check it; Ok(false) on a wrong answer.
    pub fn read_check(&mut self, lsn: u64) -> Result<bool, DlogError> {
        let kind = self.exp.kind(lsn);
        let r = trace::span("core.read", 0, || self.log.read(Lsn(lsn)));
        match (kind, r) {
            (UNKNOWN, Ok(_) | Err(DlogError::NotPresent { .. })) => Ok(true),
            (0, Err(DlogError::NotPresent { .. })) => Ok(true),
            (0, Ok(_)) => Ok(false),
            (k, Ok(d)) => Ok(d.as_ref() == payload(self.seed, self.id, lsn, k).as_slice()),
            (_, Err(DlogError::NotPresent { .. })) => Ok(false),
            (_, Err(e)) => Err(e),
        }
    }

    /// Restart until an incarnation initializes (after a failed restart).
    pub fn ensure_initialized<B: Backend<Ep = E>>(&mut self, b: &mut B) -> Result<(), String> {
        let mut tries = 0;
        while self.log.end_of_log().is_err() {
            self.crash(b);
            if let Err(e) = self.restart_scan() {
                tries += 1;
                if tries > 10 {
                    return Err(format!("client {}: restart: {e}", self.id));
                }
            }
        }
        Ok(())
    }

    /// Read the whole log back from its end and compare every record.
    pub fn verify(&mut self) -> Result<(), String> {
        let end = self.log.end_of_log().map_err(|e| e.to_string())?.0;
        let mut cursor = end;
        while cursor >= 1 {
            let recs = self
                .log
                .read_backward(Lsn(cursor), 4096)
                .map_err(|e| format!("client {}: read back from {cursor}: {e}", self.id))?;
            if recs.is_empty() {
                break;
            }
            for r in &recs {
                if r.lsn.0 != cursor {
                    return Err(format!(
                        "client {}: read back LSN {} where {cursor} was due",
                        self.id, r.lsn.0
                    ));
                }
                match self.exp.kind(cursor) {
                    UNKNOWN => {}
                    0 if r.present => {
                        return Err(format!(
                            "client {}: LSN {cursor} was never forced but reads present",
                            self.id
                        ))
                    }
                    0 => {}
                    k => {
                        if !r.present
                            || r.data.as_ref() != payload(self.seed, self.id, cursor, k).as_slice()
                        {
                            return Err(format!(
                                "client {}: forced LSN {cursor} reads back different bytes",
                                self.id
                            ));
                        }
                    }
                }
                cursor -= 1;
            }
        }
        // Anything below where the scan stopped must never have been forced.
        for lsn in 1..=cursor {
            let k = self.exp.kind(lsn);
            if k != 0 && k != UNKNOWN {
                return Err(format!(
                    "client {}: forced LSN {lsn} missing from the read-back",
                    self.id
                ));
            }
        }
        Ok(())
    }
}

/// Gauges taken at the start and end of the timed section.
#[derive(Clone, Copy, Debug)]
pub struct Snap {
    pub at: Instant,
    pub status: Status,
    pub srv: SrvStats,
    pub clients: ClientTotals,
    pub server_ep: EpSnap,
    pub allocs: u64,
    /// CPU time (ns) of this process's live threads and of the server
    /// processes.
    pub cpu_self: u64,
    pub cpu_children: u64,
    pub dropped: u64,
}

fn totals<E: Endpoint + 'static>(ws: &[Worker<E>]) -> ClientTotals {
    let mut clients = ClientTotals::default();
    for w in ws {
        let t = w.totals();
        clients.ep.add(&t.ep);
        add_cs(&mut clients.cs, &t.cs);
        add_ns(&mut clients.ns, &t.ns);
    }
    clients
}

fn snap<B: Backend>(b: &mut B, ws: &[Worker<B::Ep>]) -> Result<Snap, String> {
    let clients = totals(ws);
    let allocs = dlog_obs::gauge::process_allocs();
    let cpu_self = proc_cpu_ns("self");
    let cpu_children = b.child_cpu_ns();
    let server_ep = b.server_ep();
    let dropped = b.dropped_packets();
    let at = Instant::now();
    let status = b.probe().status_all()?;
    let srv = b.probe().stats_all()?;
    Ok(Snap {
        at,
        status,
        srv,
        clients,
        server_ep,
        allocs,
        cpu_self,
        cpu_children,
        dropped,
    })
}

/// Everything a pass measured.
#[derive(Debug, Default)]
pub struct PassResult {
    pub setup: Samples,
    pub commit: Samples,
    pub restart: Samples,
    pub server_restart: Samples,
    pub read: Samples,
    pub tally: Tally,
    pub commits: u64,
    /// CPU time of the client threads over the timed section; they end
    /// before the closing snapshot reads the process's threads.
    pub load_cpu_ns: u64,
    pub records: u64,
    pub elapsed: Duration,
    /// Stamps (`stats::now_ns`) bounding the timed section.
    pub from: u64,
    pub to: u64,
    pub before: Option<Snap>,
    pub after: Option<Snap>,
    pub user_bytes_total: u64,
    pub stored_bytes_total: u64,
    pub peak_rss_kb: u64,
    /// Records in the clients' logs at the end of the pass.
    pub log_records: u64,
    pub error: Option<String>,
    /// Packets the clients sent, kept for the layer replay.
    pub captured: Vec<Vec<dlog_net::Packet>>,
    /// Interval lists the servers hold for client 1 at the end.
    pub lists: Vec<(ServerId, dlog_types::IntervalList)>,
    pub open_ns: Vec<u64>,
    pub recovered: Vec<u64>,
    /// Client counters after the probes that follow the timed section.
    pub end_clients: Option<ClientTotals>,
    /// The first failed operation's error, for the log.
    pub first_failure: Option<String>,
}

impl PassResult {
    /// Remember a failed operation's error (the first one is kept).
    pub fn note(&mut self, e: String) {
        self.first_failure.get_or_insert(e);
    }
}

/// Run one pass of `cfg`'s workload.
pub fn run(cfg: &Cfg, traced: bool) -> PassResult {
    let name = cfg.workload.name();
    let root = |i: usize| cfg.data.join(format!("{name}-{}-{i}", std::process::id()));
    let (durability, fsync) = cfg.workload.storage();
    let opts = backend::store_options(durability, fsync);
    // Per-server trace ring for the traced pass: sized for the pass's
    // ingest, force and ack events so none is dropped.
    let ring = if traced {
        ((cfg.seconds + 10.0) * 150_000.0) as usize
    } else {
        0
    };
    match cfg.workload {
        Workload::Et1Udp => {
            let bin = cfg.server_bin.clone();
            run_with(cfg, traced, |i| UdpCluster::start(&bin, &root(i)))
        }
        Workload::Et1Mem => run_with(cfg, traced, |i| {
            MemCluster::start(&root(i), opts.clone(), ring)
        }),
    }
}

fn run_with<B: Backend>(
    cfg: &Cfg,
    traced: bool,
    start: impl Fn(usize) -> Result<B, String>,
) -> PassResult
where
    B::Ep: Send,
{
    let mut res = PassResult::default();
    trace::set_enabled(false);
    trace::reset();
    // Set up again and again; keep the last.
    let mut kept: Option<Setup<B>> = None;
    let began = Instant::now();
    let mut i = 0;
    while i == 0 || began.elapsed() < SETUP_TIME {
        drop(kept.take());
        let t0 = Instant::now();
        match setup(cfg, &start, i) {
            Ok(k) => {
                res.setup.push_dur(t0.elapsed());
                kept = Some(k);
            }
            Err(e) => {
                res.error = Some(format!("set-up: {e}"));
                return res;
            }
        }
        i += 1;
    }
    let Some((mut b, mut ws)) = kept else {
        res.error = Some("no set-up".into());
        return res;
    };
    let r = body(cfg, traced, &mut b, &mut ws, &mut res);
    trace::set_enabled(false);
    if let Err(e) = r {
        res.error = Some(e);
    }
    res.peak_rss_kb = proc_peak_rss_kb("self") + b.child_peak_rss_kb();
    let (opens, recovered) = b.opens();
    res.open_ns = opens.to_vec();
    res.recovered = recovered.to_vec();
    res.user_bytes_total = ws.iter().map(|w| w.user_bytes).sum();
    res.log_records = ws
        .iter()
        .map(|w| w.exp.kinds.len().saturating_sub(1) as u64)
        .sum();
    for w in &ws {
        let mut c = w.past_captured.clone();
        c.extend(
            w.eps
                .captured
                .lock()
                .expect("capture poisoned")
                .iter()
                .cloned(),
        );
        res.captured.push(c);
    }
    drop(ws);
    if let Err(e) = b.finish() {
        res.error.get_or_insert(format!("server trace check: {e}"));
    }
    res
}

/// A set-up's servers and initialized clients.
type Setup<B> = (B, Vec<Worker<<B as Backend>::Ep>>);

fn setup<B: Backend>(
    cfg: &Cfg,
    start: &impl Fn(usize) -> Result<B, String>,
    i: usize,
) -> Result<Setup<B>, String> {
    let mut b = start(i)?;
    let mut ws = Vec::new();
    for id in 1..=CLIENTS {
        let mut w = Worker::new(&mut b, id, cfg.seed);
        w.log
            .initialize()
            .map_err(|e| format!("client {id} initialize: {e}"))?;
        ws.push(w);
    }
    Ok((b, ws))
}

/// Per-thread results of the load.
#[derive(Default)]
struct LoadOut {
    commit: Samples,
    tally: Tally,
    commits: u64,
    cpu_ns: u64,
    first_error: Option<String>,
}

/// Drive one client in a closed loop until `until`.
fn load<E: Endpoint + 'static>(w: &mut Worker<E>, until: Instant) -> LoadOut {
    let mut out = LoadOut::default();
    let cpu0 = thread_cpu_ns();
    while Instant::now() < until {
        let payloads = w.next_payloads();
        let t0 = Instant::now();
        let r = payloads.and_then(|(first, p)| w.commit(first, p));
        let done = Instant::now();
        match r {
            Ok(()) => {
                out.tally.ok();
                out.commits += 1;
                out.commit.push_dur(done - t0);
            }
            Err(e) => {
                out.first_error.get_or_insert(format!("commit: {e}"));
                out.tally.fail();
                out.commit.push_failed();
                // Re-initialize before the next transaction; a failure
                // there counts too.
                if w.log.initialize().is_err() {
                    out.tally.fail();
                    std::thread::sleep(Duration::from_millis(10));
                } else {
                    out.tally.ok();
                }
            }
        }
    }
    trace::flush_thread();
    out.cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
    out
}

fn load_all<E: Endpoint + Send + 'static>(ws: &mut [Worker<E>], dur: Duration) -> Vec<LoadOut> {
    let until = Instant::now() + dur;
    std::thread::scope(|s| {
        let hs: Vec<_> = ws
            .iter_mut()
            .map(|w| s.spawn(move || load(w, until)))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

fn body<B: Backend>(
    cfg: &Cfg,
    traced: bool,
    b: &mut B,
    ws: &mut [Worker<B::Ep>],
    res: &mut PassResult,
) -> Result<(), String>
where
    B::Ep: Send,
{
    let warm = load_all(ws, WARMUP);
    for o in &warm {
        res.tally.add(o.tally);
    }
    trace::set_enabled(traced);
    let before = snap(b, ws)?;
    res.from = crate::stats::now_ns();
    let outs = load_all(ws, Duration::from_secs_f64(cfg.seconds));
    res.to = crate::stats::now_ns();
    let after = snap(b, ws)?;
    res.elapsed = after.at - before.at;
    for o in outs.iter().chain(&warm) {
        if let Some(e) = &o.first_error {
            res.note(e.clone());
        }
    }
    for o in &outs {
        res.commit.extend(&o.commit);
        res.tally.add(o.tally);
        res.commits += o.commits;
        res.load_cpu_ns += o.cpu_ns;
    }
    res.records = res.commits * SHAPE.len() as u64;
    res.before = Some(before);
    res.after = Some(after);

    // Restart and read probes, alternating clients. Each restart empties
    // the client's read cache, so the reads after it miss about as often
    // whatever the log's size.
    let mut rng = cfg.seed ^ 0x5EED_0F12_EAD5;
    for i in 0..PROBE_RESTARTS {
        let w = &mut ws[i % ws.len()];
        w.crash(b);
        let t0 = Instant::now();
        match w.restart_scan() {
            Ok(()) => {
                res.restart.push_dur(t0.elapsed());
                res.tally.ok();
            }
            Err(e) => {
                res.note(format!("client restart: {e}"));
                res.restart.push_failed();
                res.tally.fail();
                continue;
            }
        }
        for _ in 0..PROBE_READS / PROBE_RESTARTS {
            read_once(w, &mut rng, res)?;
        }
    }
    res.end_clients = Some(totals(ws));
    trace::set_enabled(false);
    res.lists = lists(b)?;
    res.stored_bytes_total = b.probe().status_all()?.on_disk_bytes;
    // The shipped binary keeps its NVRAM track in process memory, so a
    // killed server loses the unflushed tail: read back through the
    // clients before its restarts.
    if !cfg.workload.in_process() {
        verify_all(b, ws)?;
    }
    for k in 0..PROBE_SERVER_RESTARTS {
        let sid = ServerId(1 + k % M);
        res.server_restart.push_dur(restart_server(b, sid)?);
    }
    if cfg.workload.in_process() {
        scan_verify(b, ws)?;
    }
    Ok(())
}

fn read_once<E: Endpoint + 'static>(
    w: &mut Worker<E>,
    rng: &mut u64,
    res: &mut PassResult,
) -> Result<(), String> {
    let end = w.log.end_of_log().map_err(|e| e.to_string())?.0;
    if end == 0 {
        return Ok(());
    }
    let lsn = 1 + splitmix(rng) % end;
    let t0 = Instant::now();
    match w.read_check(lsn) {
        Ok(true) => {
            res.read.push_dur(t0.elapsed());
            res.tally.ok();
            Ok(())
        }
        Ok(false) => Err(format!("client {}: LSN {lsn} read back wrong", w.id)),
        Err(e) => {
            res.note(format!("read: {e}"));
            res.read.push_failed();
            res.tally.fail();
            Ok(())
        }
    }
}

/// Crash `sid`, boot it, and time from the boot until it answers.
fn restart_server<B: Backend>(b: &mut B, sid: ServerId) -> Result<Duration, String> {
    b.crash(sid)?;
    let t0 = Instant::now();
    b.boot(sid)?;
    b.wait_ready(sid)?;
    Ok(t0.elapsed())
}

/// Read every client's log back (restarting any whose last restart
/// failed first).
fn verify_all<B: Backend>(b: &mut B, ws: &mut [Worker<B::Ep>]) -> Result<(), String> {
    for w in ws.iter_mut() {
        w.ensure_initialized(b)?;
        w.verify()?;
    }
    Ok(())
}

/// Stop the servers and check every record they hold installed against
/// what the clients forced: each forced record is stored present, with
/// its bytes, on at least N distinct servers, and no LSN that was never
/// written is stored present.
fn scan_verify<B: Backend>(b: &mut B, ws: &[Worker<B::Ep>]) -> Result<(), String> {
    // Per client and LSN, a bit per server holding the forced record.
    let mut held: Vec<Vec<u8>> = ws.iter().map(|w| vec![0u8; w.exp.kinds.len()]).collect();
    let scanned = b.stop_and_scan(&mut |sid, client, rec| {
        let i = usize::try_from(client.0)
            .unwrap_or(usize::MAX)
            .wrapping_sub(1);
        let (Some(w), Some(held)) = (ws.get(i), held.get_mut(i)) else {
            return Err(format!("record of unknown client {client}"));
        };
        let lsn = rec.lsn.0;
        match w.exp.kind(lsn) {
            UNKNOWN => Ok(()),
            0 if rec.present => Err(format!("{client} LSN {lsn} never written, stored present")),
            0 => Ok(()),
            _ if !rec.present => Err(format!("{client} forced LSN {lsn} stored not present")),
            k if rec.data.as_ref() != payload(w.seed, w.id, lsn, k).as_slice() => Err(format!(
                "{client} forced LSN {lsn} stored with different bytes"
            )),
            _ => {
                if let Some(bits) = held.get_mut(lsn as usize) {
                    *bits |= server_bit(sid)?;
                }
                Ok(())
            }
        }
    })?;
    if !scanned {
        return Err("server stores are not reachable from this process".into());
    }
    for (w, held) in ws.iter().zip(&held) {
        for (lsn, &k) in w.exp.kinds.iter().enumerate() {
            let on = held[lsn].count_ones() as usize;
            if k != 0 && k != UNKNOWN && on < N {
                return Err(format!(
                    "client {}: forced LSN {lsn} held by {on} servers, fewer than N = {N}",
                    w.id
                ));
            }
        }
    }
    Ok(())
}

/// The bit of server `sid` in a per-LSN holder mask.
fn server_bit(sid: ServerId) -> Result<u8, String> {
    match sid.0 {
        1..=8 => Ok(1 << (sid.0 - 1)),
        _ => Err(format!("server {sid} outside the holder mask")),
    }
}

fn lists<B: Backend>(b: &mut B) -> Result<Vec<(ServerId, dlog_types::IntervalList)>, String> {
    let mut out = Vec::new();
    for sid in backend::servers() {
        out.push((sid, b.probe().intervals(sid, dlog_types::ClientId(1))?));
    }
    Ok(out)
}
