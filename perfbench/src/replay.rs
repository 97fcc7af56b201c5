//! The layer replay: feeds the packets, records, LSNs and interval lists
//! captured from a traced pass back through each layer's public
//! functions, on the same filesystem and with the same durability, and
//! times each call.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use append_forest::LsnIndex;
use dlog_net::wire::{Message, Packet};
use dlog_storage::store::Durability;
use dlog_storage::{LogStore, NvramDevice, StoreOptions};
use dlog_types::interval::MergedView;
use dlog_types::{ClientId, Epoch, IntervalList, LogRecord, Lsn, ServerId};

use crate::stats::Samples;

/// Per-call costs measured by the replay.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub encode_ns_per_packet: f64,
    pub decode_ns_per_packet: f64,
    pub crc_ns_per_record: f64,
    pub nvram_insert_ns: f64,
    pub store_write_ns: f64,
    pub track_flush_us: f64,
    pub force_us: f64,
    pub fsyncs_per_commit: f64,
    pub bytes_per_user_byte: f64,
    pub open_ms: f64,
    pub recovered_records: f64,
    pub read_us: f64,
    pub forest_append_ns: f64,
    pub forest_lookup_ns: f64,
    pub view_merge_us: f64,
}

fn per(ns: u128, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

/// Records of the captured `WriteLog`/`ForceLog` packets in send order,
/// one list per client, with resends dropped.
fn records(captured: &[Vec<Packet>]) -> Vec<Vec<LogRecord>> {
    captured
        .iter()
        .map(|pkts| {
            let mut out: Vec<LogRecord> = Vec::new();
            for p in pkts {
                if let Message::WriteLog { epoch, records, .. }
                | Message::ForceLog { epoch, records, .. } = &p.msg
                {
                    for (lsn, data) in records {
                        if out.last().is_none_or(|r| r.lsn < *lsn) {
                            out.push(LogRecord::present(*lsn, *epoch, data.clone()));
                        }
                    }
                }
            }
            out
        })
        .collect()
}

/// Run the replay under `dir` (emptied first, removed after).
pub fn run(
    dir: &Path,
    captured: &[Vec<Packet>],
    lists: &[(ServerId, IntervalList)],
    durability: Durability,
    fsync: bool,
    seed: u64,
) -> Result<Layers, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("replay dir: {e}"))?;
    let r = run_in(dir, captured, lists, durability, fsync, seed);
    let _ = std::fs::remove_dir_all(dir);
    r
}

fn run_in(
    dir: &Path,
    captured: &[Vec<Packet>],
    lists: &[(ServerId, IntervalList)],
    durability: Durability,
    fsync: bool,
    seed: u64,
) -> Result<Layers, String> {
    let mut l = Layers::default();
    let packets: Vec<&Packet> = captured.iter().flatten().collect();
    if packets.is_empty() {
        return Err("replay: no packets were captured".into());
    }

    // Wire: encode_into and decode_shared of every captured packet.
    let rounds = (20_000 / packets.len()).max(1);
    let mut buf = Vec::new();
    let t0 = Instant::now();
    for _ in 0..rounds {
        for p in &packets {
            p.encode_into(&mut buf);
            black_box(&buf);
        }
    }
    l.encode_ns_per_packet = per(t0.elapsed().as_nanos(), rounds * packets.len());
    let frames: Vec<Arc<Vec<u8>>> = packets.iter().map(|p| Arc::new(p.encode())).collect();
    let t0 = Instant::now();
    for _ in 0..rounds {
        for f in &frames {
            black_box(Packet::decode_shared(f).map_err(|e| format!("replay decode: {e:?}"))?);
        }
    }
    l.decode_ns_per_packet = per(t0.elapsed().as_nanos(), rounds * frames.len());

    let recs = records(captured);
    let all: Vec<&LogRecord> = recs.iter().flatten().collect();
    if all.is_empty() {
        return Err("replay: captured packets carry no records".into());
    }

    // CRC and NVRAM insert over the record payloads.
    let t0 = Instant::now();
    for r in &all {
        black_box(dlog_storage::crc::crc32(r.data.as_ref()));
    }
    l.crc_ns_per_record = per(t0.elapsed().as_nanos(), all.len());
    let nv = NvramDevice::new(1 << 20);
    let mut ins = 0u128;
    for r in &all {
        if nv.available() < r.data.len() {
            nv.retire(nv.pending_len());
        }
        let t = Instant::now();
        black_box(nv.insert(r.data.as_ref()).is_ok());
        ins += t.elapsed().as_nanos();
    }
    l.nvram_insert_ns = per(ins, all.len());

    // Store: write each transaction's records and force, as the server
    // does, into a store with the workload's options, until many tracks
    // have filled.
    let opts = StoreOptions {
        durability,
        fsync,
        ..StoreOptions::default()
    };
    let store_dir = dir.join("store");
    let nvram = NvramDevice::new(1 << 20);
    let mut store = LogStore::open(&store_dir, opts.clone(), nvram.clone())
        .map_err(|e| format!("replay open: {e}"))?;
    let target_records = 70_000;
    let mut write = Samples::default();
    let mut flush = Samples::default();
    let mut force = Samples::default();
    let mut written = 0usize;
    let mut user = 0u64;
    let mut lsns: Vec<(ClientId, Lsn)> = Vec::new();
    let mut round = 0u64;
    'outer: while written < target_records {
        for (c, list) in recs.iter().enumerate() {
            let client = ClientId(c as u64 + 1);
            let shift = round * list.last().map_or(0, |r| r.lsn.0);
            for chunk in list.chunks(7) {
                for r in chunk {
                    // One epoch for the whole replay: captured records span
                    // several client incarnations, and later rounds reuse
                    // their epochs at higher LSNs.
                    let rec = LogRecord::present(Lsn(r.lsn.0 + shift), Epoch(1), r.data.clone());
                    let before = store.stats().tracks_flushed;
                    let t = Instant::now();
                    store
                        .write(client, &rec)
                        .map_err(|e| format!("replay write: {e}"))?;
                    let d = t.elapsed();
                    if store.stats().tracks_flushed > before {
                        flush.push_dur(d);
                    } else {
                        write.push_dur(d);
                    }
                    user += rec.data.len() as u64;
                    lsns.push((client, rec.lsn));
                    written += 1;
                }
                let t = Instant::now();
                store
                    .force(client)
                    .map_err(|e| format!("replay force: {e}"))?;
                force.push_dur(t.elapsed());
                if written >= target_records {
                    break 'outer;
                }
            }
        }
        round += 1;
    }
    let st = store.stats();
    l.store_write_ns = write.mean_ok();
    l.track_flush_us = flush.mean_ok() / 1e3;
    l.force_us = force.mean_ok() / 1e3;
    l.fsyncs_per_commit = st.fsyncs as f64 / force.len().max(1) as f64;

    // Reads at seeded random LSNs.
    let mut x = seed | 1;
    let mut read = Samples::default();
    for _ in 0..2000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (client, lsn) = lsns[(x % lsns.len() as u64) as usize];
        let t = Instant::now();
        let got = store
            .read(client, lsn)
            .map_err(|e| format!("replay read: {e}"))?;
        read.push_dur(t.elapsed());
        if got.is_none() {
            return Err(format!("replay: {client} LSN {} not found", lsn.0));
        }
    }
    l.read_us = read.mean_ok() / 1e3;

    store.sync().map_err(|e| format!("replay sync: {e}"))?;
    l.bytes_per_user_byte = store.on_disk_bytes() as f64 / user.max(1) as f64;
    drop(store);
    let t = Instant::now();
    let reopened =
        LogStore::open(&store_dir, opts, nvram).map_err(|e| format!("replay reopen: {e}"))?;
    l.open_ms = t.elapsed().as_secs_f64() * 1e3;
    l.recovered_records = reopened.stats().recovered_records as f64;
    drop(reopened);

    // Append forest: the LSN index every store keeps per client.
    let n = 200_000u64;
    let mut idx = LsnIndex::new(dlog_storage::intervals::INDEX_FANOUT);
    let t = Instant::now();
    for i in 1..=n {
        idx.append(Lsn(i), i * 128)
            .map_err(|l| format!("forest append {l:?}"))?;
    }
    l.forest_append_ns = per(t.elapsed().as_nanos(), n as usize);
    let t = Instant::now();
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        black_box(idx.lookup(Lsn(1 + x % n)));
    }
    l.forest_lookup_ns = per(t.elapsed().as_nanos(), n as usize);

    // Interval-list merge over the lists the servers hold.
    let reps = 200;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(MergedView::merge(lists));
    }
    l.view_merge_us = per(t.elapsed().as_nanos(), reps) / 1e3;
    Ok(l)
}
