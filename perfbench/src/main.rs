//! `perfbench` — dlog's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload et1_mem|et1_udp --seed N
//!           --seconds S --trace 0|1 --server-bin PATH [--rev R] [--rustc V]
//! ```
//!
//! Prints one metadata line and then, as the last line, the result
//! object. `perfbench/run.py` builds the program and passes the server
//! binary, revision and compiler version. See `perfbench/README.md`.

mod backend;
mod endpoint;
mod replay;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;

use dlog_net::wire::{Message, Packet, Response};

use stats::{json_str, ns_to, Report, Samples, Tally};
use workload::{Cfg, PassResult, Workload, SHAPE};

struct Args {
    cfg: Cfg,
    trace: bool,
    rev: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut m: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?
            .to_string();
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        m.insert(key, v);
    }
    let get = |k: &str| {
        m.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = get("workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = get("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        cfg: Cfg {
            workload,
            seed,
            seconds,
            server_bin: PathBuf::from(get("server-bin")?),
            data: PathBuf::from(
                m.get("data")
                    .cloned()
                    .unwrap_or_else(|| ".perfbench".into()),
            ),
        },
        trace,
        rev: m.get("rev").cloned().unwrap_or_else(|| "unknown".into()),
        rustc: m.get("rustc").cloned().unwrap_or_else(|| "unknown".into()),
    })
}

/// Filesystem type of the mount holding `p`.
fn fs_type(p: &Path) -> String {
    let abs = std::fs::canonicalize(p).unwrap_or_else(|_| p.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let (Some(mp), Some(ty)) = (f.get(1), f.get(2)) else {
            continue;
        };
        if abs.starts_with(mp) && best.as_ref().is_none_or(|(l, _)| mp.len() > *l) {
            best = Some((mp.len(), (*ty).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

fn meta_line(a: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"meta\": {{\"nproc\": {nproc}, \"rev\": {}, \"rustc\": {}, \"kernel\": {}, \
         \"data_fs\": {}, \"seconds\": {}, \"trace\": {}, \"config\": {}}}}}",
        json_str(&a.rev),
        json_str(&a.rustc),
        json_str(&kernel),
        json_str(&fs_type(&a.cfg.data)),
        a.cfg.seconds,
        a.trace,
        a.cfg.workload.config_json(a.cfg.seed)
    )
}

/// Samples a window needs so that percentile `want` has ten beyond it.
fn need(want: f64) -> usize {
    (10.0 / (1.0 - want / 100.0)).ceil() as usize
}

/// Percentile `want` in `per_unit` ns: the median over windows (see
/// `Samples::windowed`), lowered by the ten-beyond rule when the
/// samples cannot fill two windows.
fn tail(s: &Samples, want: f64, per_unit: f64) -> f64 {
    s.windowed(want, need(want))
        .map_or(0.0, |ns| ns_to(ns, per_unit))
}

fn describe(name: &str, s: &Samples, want: f64) {
    eprintln!(
        "perfbench: {name}: {} samples, {} failed, p{want} reported as p{} over {} window(s)",
        s.len(),
        s.failed(),
        s.windowed_percentile(want, need(want)),
        (s.len() / need(want)).clamp(1, stats::MAX_WINDOWS)
    );
}

fn end_to_end(p: &PassResult, r: &mut Report) {
    describe("set-up", &p.setup, 50.0);
    describe("commit", &p.commit, 99.0);
    describe("client restart", &p.restart, 90.0);
    describe("read", &p.read, 99.0);
    describe("server restart", &p.server_restart, 50.0);
    r.set("setup_s", tail(&p.setup, 50.0, 1e9), "s");
    r.set("commits_per_s", p.commit.rate(p.from, p.to), "txn/s");
    r.set("commit_p50_us", tail(&p.commit, 50.0, 1e3), "us");
    let (b, a) = (p.before.expect("timed"), p.after.expect("timed"));
    let allocs = a.allocs.wrapping_sub(b.allocs);
    r.set(
        "allocs_per_record",
        allocs as f64 / p.records.max(1) as f64,
        "1",
    );
    r.set(
        "stored_bytes_per_user_byte",
        p.stored_bytes_total as f64 / p.user_bytes_total.max(1) as f64,
        "1",
    );
    // Peak resident memory grows with the records the servers hold, so
    // per record it does not follow the run's throughput.
    r.set(
        "rss_bytes_per_record",
        p.peak_rss_kb as f64 * 1024.0 / p.log_records.max(1) as f64,
        "B",
    );
}

/// CPU time (user + system) of this process and the server processes
/// over the timed section, per commit.
fn cpu_us_per_commit(p: &PassResult) -> f64 {
    let (b, a) = (p.before.expect("timed"), p.after.expect("timed"));
    // No thread of this process other than the client threads starts or
    // ends inside the timed section.
    let ns = a.cpu_self.saturating_sub(b.cpu_self)
        + a.cpu_children.saturating_sub(b.cpu_children)
        + p.load_cpu_ns;
    ns as f64 / 1e3 / p.commits.max(1) as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn mean_ns(tt: &BTreeMap<&'static str, trace::Agg>, name: &str) -> (f64, f64) {
    tt.get(name).map_or((0.0, 0.0), |a| {
        (ratio(a.total_ns, a.count), ratio(a.self_ns, a.count))
    })
}

#[allow(clippy::too_many_lines)]
fn per_layer(
    w: Workload,
    u: &PassResult,
    t: &PassResult,
    tt: &BTreeMap<&'static str, trace::Agg>,
    l: &replay::Layers,
    r: &mut Report,
) {
    let (b, a) = (t.before.expect("timed"), t.after.expect("timed"));
    let c = t.commits.max(1);
    let cf = c as f64;
    let cl = a.clients.ep.since(&b.clients.ep);
    let end = t.end_clients.unwrap_or(a.clients);
    let cs = |f: fn(&dlog_core::ClientStats) -> u64| f(&a.clients.cs) - f(&b.clients.cs);
    let st = a.status.since(&b.status);
    let sv = a.server_ep.since(&b.server_ep);

    // Bench harness.
    let rate = |p: &PassResult| p.commits as f64 / p.elapsed.as_secs_f64().max(1e-9);
    r.set("trace.overhead_ratio", rate(t) / rate(u).max(1e-9), "1");
    r.set("proc.cpu_us_per_commit", cpu_us_per_commit(u), "us");
    // Figures of the untraced pass whose run-to-run spread on a 2-vCPU
    // virtual machine is too wide to gate (see the README).
    r.set("peak_rss_mb", u.peak_rss_kb as f64 / 1024.0, "MiB");
    r.set("commit_p99_us", tail(&u.commit, 99.0, 1e3), "us");
    r.set("client_restart_p50_ms", tail(&u.restart, 50.0, 1e6), "ms");
    r.set("client_restart_p90_ms", tail(&u.restart, 90.0, 1e6), "ms");
    r.set(
        "server_restart_p50_ms",
        tail(&u.server_restart, 50.0, 1e6),
        "ms",
    );
    r.set("read_p50_us", tail(&u.read, 50.0, 1e3), "us");
    r.set("read_p99_us", tail(&u.read, 99.0, 1e3), "us");
    r.set(
        "failed_op_ratio",
        {
            let mut all = Tally::default();
            all.add(u.tally);
            all.add(t.tally);
            all.ratio()
        },
        "1",
    );

    // dlog-core.
    let (write_ns, _) = mean_ns(tt, "core.write");
    let (force_ns, force_self_ns) = mean_ns(tt, "core.force");
    r.set("core.write_ns", write_ns, "ns");
    r.set("core.force_ns", force_ns, "ns");
    r.set("core.force_self_ns", force_self_ns, "ns");
    r.set(
        "core.window_stalls_per_commit",
        cs(|s| s.window_stalls) as f64 / cf,
        "1",
    );
    r.set(
        "core.packets_out_per_commit",
        (a.clients.ns.packets_out - b.clients.ns.packets_out) as f64 / cf,
        "1",
    );
    r.set(
        "core.resends_per_commit",
        cs(|s| s.resends) as f64 / cf,
        "1",
    );
    r.set(
        "core.initialize_ms",
        mean_ns(tt, "core.initialize").0 / 1e6,
        "ms",
    );
    r.set(
        "core.read_backward_ms",
        mean_ns(tt, "core.read_backward").0 / 1e6,
        "ms",
    );
    let restarts = tt.get("core.initialize").map_or(0, |x| x.count);
    r.set(
        "core.rpc_retries_per_restart",
        ratio(end.ns.rpc_retries - b.clients.ns.rpc_retries, restarts),
        "1",
    );
    let whole = end.ep.since(&b.clients.ep);
    r.set(
        "core.read_ahead_use_ratio",
        ratio(
            end.cs.read_cache_hits - b.clients.cs.read_cache_hits,
            whole.records_in,
        ),
        "1",
    );

    // dlog-types.
    r.set("types.view_merge_us", l.view_merge_us, "us");
    let reply_bytes = t
        .lists
        .iter()
        .map(|(_, intervals)| {
            Packet::bare(Message::Response {
                id: 0,
                body: Response::Intervals {
                    intervals: intervals.clone(),
                },
            })
            .encoded_len()
        })
        .max()
        .unwrap_or(0);
    r.set("types.interval_list_bytes", reply_bytes as f64, "B");

    // dlog-net.
    r.set("net.encode_ns_per_packet", l.encode_ns_per_packet, "ns");
    r.set("net.decode_ns_per_packet", l.decode_ns_per_packet, "ns");
    r.set(
        "net.wire_bytes_per_commit",
        (cl.bytes_out + cl.bytes_in) as f64 / cf,
        "B",
    );
    r.set("net.send_ns", ratio(cl.send_ns, cl.send_calls), "ns");
    r.set(
        "net.recv_wait_us_per_commit",
        cl.recv_ns as f64 / 1e3 / cf,
        "us",
    );
    r.set(
        "net.empty_recv_wait_us_per_commit",
        cl.recv_empty_ns as f64 / 1e3 / cf,
        "us",
    );
    r.set(
        "net.empty_recv_per_commit",
        (cl.recv_calls - cl.recv_hits) as f64 / cf,
        "1",
    );
    r.set(
        "net.recv_hit_ratio",
        ratio(cl.recv_hits, cl.recv_calls),
        "1",
    );
    r.set(
        "net.dropped_packets",
        a.dropped.saturating_sub(b.dropped) as f64,
        "count",
    );

    // dlog-server.
    let busy = if w.in_process() {
        ratio(sv.busy_ns, sv.busy_count)
    } else {
        // The shipped binary's endpoint cannot be wrapped from outside:
        // its own ServerIngest histogram (Stats RPC) stands in.
        a.srv.ingest_mean_ns
    };
    r.set("server.busy_ns_per_packet", busy, "ns");
    let packets_in = if w.in_process() {
        sv.recv_hits
    } else {
        cl.packets_out
    };
    r.set("server.packets_in_per_commit", packets_in as f64 / cf, "1");
    r.set(
        "server.forces_acked_per_commit",
        st.forces_acked as f64 / cf,
        "1",
    );
    r.set("server.naks_per_commit", st.naks_sent as f64 / cf, "1");
    r.set(
        "server.duplicates_per_commit",
        st.duplicates_ignored as f64 / cf,
        "1",
    );
    r.set("server.writes_shed", st.writes_shed as f64, "count");
    r.set(
        "server.ingest_allocs_per_write",
        ratio(
            a.srv.ingest_allocs - b.srv.ingest_allocs,
            a.srv.ingest_records - b.srv.ingest_records,
        ),
        "1",
    );

    // dlog-storage.
    r.set("storage.write_ns_per_record", l.store_write_ns, "ns");
    r.set("storage.nvram_insert_ns", l.nvram_insert_ns, "ns");
    r.set("storage.crc_ns_per_record", l.crc_ns_per_record, "ns");
    r.set("storage.track_flush_us", l.track_flush_us, "us");
    r.set(
        "storage.tracks_per_mb",
        st.tracks_flushed as f64 / (cf * SHAPE.iter().sum::<usize>() as f64 / 1e6),
        "1/MB",
    );
    r.set("storage.force_us", l.force_us, "us");
    r.set("storage.fsyncs_per_commit", l.fsyncs_per_commit, "1");
    r.set("storage.bytes_per_user_byte", l.bytes_per_user_byte, "1");
    // Live reboots of in-process servers (the first M opens are the
    // cluster's first boot); the replay's reopen otherwise.
    let first = backend::M as usize;
    if w.in_process() && t.open_ns.len() > first {
        let opens = &t.open_ns[first..];
        r.set(
            "storage.open_ms",
            opens.iter().sum::<u64>() as f64 / opens.len() as f64 / 1e6,
            "ms",
        );
        let rec = &t.recovered[first..];
        r.set(
            "storage.recovered_records_per_restart",
            rec.iter().sum::<u64>() as f64 / rec.len() as f64,
            "1",
        );
    } else {
        r.set("storage.open_ms", l.open_ms, "ms");
        r.set(
            "storage.recovered_records_per_restart",
            l.recovered_records,
            "1",
        );
    }
    r.set("storage.read_us", l.read_us, "us");
    r.set(
        "storage.reads_per_remote_read",
        ratio(whole.records_in, whole.record_replies),
        "1",
    );

    // append-forest.
    r.set("forest.append_ns", l.forest_append_ns, "ns");
    r.set("forest.lookup_ns", l.forest_lookup_ns, "ns");

    // Budget: the untraced mean commit latency per record against the
    // self times of the layers on a commit's blocking path. Each packet
    // is served by N replicas in parallel, so one replica's share of the
    // server time lies on the path.
    let e2e = u.commit.mean_ok() / SHAPE.len() as f64;
    let n = backend::N as f64;
    let path_per_commit = write_ns * SHAPE.len() as f64
        + force_self_ns
        + cl.send_ns as f64 / cf
        + (sv.busy_ns as f64 + sv.send_ns as f64) / n / cf;
    let layer_sum = path_per_commit / SHAPE.len() as f64;
    r.set("budget.e2e_ns_per_record", e2e, "ns");
    r.set("budget.layer_sum_ns_per_record", layer_sum, "ns");
    r.set("budget.residual_ns_per_record", e2e - layer_sum, "ns");
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.cfg.data) {
        eprintln!("perfbench: create {}: {e}", a.cfg.data.display());
        exit(1);
    }
    println!("{}", meta_line(&a));
    let mut report = Report::default();
    let u = workload::run(&a.cfg, false);
    report.tally.add(u.tally);
    if let Some(e) = &u.first_failure {
        eprintln!("perfbench: first failed operation: {e}");
    }
    if let Some(e) = &u.error {
        eprintln!("perfbench: {}: {e}", a.cfg.workload.name());
        exit(1);
    }
    if a.trace {
        let t = workload::run(&a.cfg, true);
        report.tally.add(t.tally);
        if let Some(e) = &t.error {
            eprintln!("perfbench: traced {}: {e}", a.cfg.workload.name());
            exit(1);
        }
        let tt = trace::totals();
        let spans = a.cfg.data.join(format!(
            "spans-{}-{}.tsv",
            a.cfg.workload.name(),
            a.cfg.seed
        ));
        match trace::write_spans(&spans) {
            Ok((kept, not_kept)) => eprintln!(
                "perfbench: {kept} spans written to {} ({not_kept} more counted, not kept)",
                spans.display()
            ),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
        let (durability, fsync) = a.cfg.workload.storage();
        let dir = a.cfg.data.join(format!("replay-{}", std::process::id()));
        let layers = match replay::run(&dir, &t.captured, &t.lists, durability, fsync, a.cfg.seed) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("perfbench: {e}");
                exit(1);
            }
        };
        per_layer(a.cfg.workload, &u, &t, &tt, &layers, &mut report);
    } else {
        end_to_end(&u, &mut report);
    }
    report.correct = true;
    println!("{}", report.to_json());
}
