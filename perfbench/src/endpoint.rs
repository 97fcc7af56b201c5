//! A timing [`Endpoint`] wrapper handed to clients and in-process
//! servers. With tracing off it only forwards. With tracing on it records
//! `send` time, `recv` wait and empty polls, the server thread's busy
//! time (from a packet leaving `recv` to the thread's next endpoint
//! call), wire bytes, and a sample of the packets sent for the layer
//! replay.

use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dlog_net::wire::{Message, NodeAddr, Packet, Response};
use dlog_net::Endpoint;

use crate::trace;

/// Packets kept for the replay, per endpoint.
const CAPTURE: usize = 4096;

/// Which side of the protocol an endpoint serves; picks span names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Client,
    Server,
}

/// Counters shared between an endpoint and the benchmark thread that
/// reads them. One thread writes each set; reads are statistics only.
#[derive(Debug, Default)]
pub struct EpStats {
    pub send_calls: AtomicU64,
    pub send_ns: AtomicU64,
    pub packets_out: AtomicU64,
    pub bytes_out: AtomicU64,
    pub recv_calls: AtomicU64,
    pub recv_hits: AtomicU64,
    pub recv_ns: AtomicU64,
    /// Time in `recv` calls that returned no packet.
    pub recv_empty_ns: AtomicU64,
    pub bytes_in: AtomicU64,
    pub busy_ns: AtomicU64,
    pub busy_count: AtomicU64,
    /// `Records` responses received and the records they carried.
    pub record_replies: AtomicU64,
    pub records_in: AtomicU64,
    pub captured: Mutex<Vec<Packet>>,
}

/// A snapshot of [`EpStats`] (captured packets excluded).
#[derive(Clone, Copy, Debug, Default)]
pub struct EpSnap {
    pub send_calls: u64,
    pub send_ns: u64,
    pub packets_out: u64,
    pub bytes_out: u64,
    pub recv_calls: u64,
    pub recv_hits: u64,
    pub recv_ns: u64,
    pub recv_empty_ns: u64,
    pub bytes_in: u64,
    pub busy_ns: u64,
    pub busy_count: u64,
    pub record_replies: u64,
    pub records_in: u64,
}

impl EpStats {
    pub fn snap(&self) -> EpSnap {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        EpSnap {
            send_calls: g(&self.send_calls),
            send_ns: g(&self.send_ns),
            packets_out: g(&self.packets_out),
            bytes_out: g(&self.bytes_out),
            recv_calls: g(&self.recv_calls),
            recv_hits: g(&self.recv_hits),
            recv_ns: g(&self.recv_ns),
            recv_empty_ns: g(&self.recv_empty_ns),
            bytes_in: g(&self.bytes_in),
            busy_ns: g(&self.busy_ns),
            busy_count: g(&self.busy_count),
            record_replies: g(&self.record_replies),
            records_in: g(&self.records_in),
        }
    }
}

impl EpSnap {
    /// Field-wise `self - earlier`.
    pub fn since(&self, e: &EpSnap) -> EpSnap {
        EpSnap {
            send_calls: self.send_calls - e.send_calls,
            send_ns: self.send_ns - e.send_ns,
            packets_out: self.packets_out - e.packets_out,
            bytes_out: self.bytes_out - e.bytes_out,
            recv_calls: self.recv_calls - e.recv_calls,
            recv_hits: self.recv_hits - e.recv_hits,
            recv_ns: self.recv_ns - e.recv_ns,
            recv_empty_ns: self.recv_empty_ns - e.recv_empty_ns,
            bytes_in: self.bytes_in - e.bytes_in,
            busy_ns: self.busy_ns - e.busy_ns,
            busy_count: self.busy_count - e.busy_count,
            record_replies: self.record_replies - e.record_replies,
            records_in: self.records_in - e.records_in,
        }
    }

    pub fn add(&mut self, o: &EpSnap) {
        self.send_calls += o.send_calls;
        self.send_ns += o.send_ns;
        self.packets_out += o.packets_out;
        self.bytes_out += o.bytes_out;
        self.recv_calls += o.recv_calls;
        self.recv_hits += o.recv_hits;
        self.recv_ns += o.recv_ns;
        self.recv_empty_ns += o.recv_empty_ns;
        self.bytes_in += o.bytes_in;
        self.busy_ns += o.busy_ns;
        self.busy_count += o.busy_count;
        self.record_replies += o.record_replies;
        self.records_in += o.records_in;
    }
}

/// The timing wrapper.
pub struct Timed<E: Endpoint> {
    inner: E,
    role: Role,
    stats: Arc<EpStats>,
    /// When the last packet left `recv` (server busy-time start).
    busy_since: Cell<Option<Instant>>,
}

impl<E: Endpoint> Timed<E> {
    pub fn new(inner: E, role: Role) -> Self {
        Timed {
            inner,
            role,
            stats: Arc::new(EpStats::default()),
            busy_since: Cell::new(None),
        }
    }

    pub fn stats(&self) -> Arc<EpStats> {
        self.stats.clone()
    }

    fn names(&self) -> (&'static str, &'static str) {
        match self.role {
            Role::Client => ("client.net.send", "client.net.recv"),
            Role::Server => ("server.net.send", "server.net.recv"),
        }
    }

    /// Close the server's busy span at its next endpoint call.
    fn end_busy(&self, now: Instant) {
        if let Some(t) = self.busy_since.take() {
            let ns = u64::try_from(now.duration_since(t).as_nanos()).unwrap_or(0);
            self.stats.busy_ns.fetch_add(ns, Ordering::Relaxed);
            self.stats.busy_count.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn count_send(&self, packet: &Packet, copies: u64, t0: Instant) {
        let now = Instant::now();
        let s = &self.stats;
        s.send_calls.fetch_add(1, Ordering::Relaxed);
        s.send_ns.fetch_add(
            u64::try_from(now.duration_since(t0).as_nanos()).unwrap_or(0),
            Ordering::Relaxed,
        );
        s.packets_out.fetch_add(copies, Ordering::Relaxed);
        s.bytes_out
            .fetch_add(copies * packet.encoded_len() as u64, Ordering::Relaxed);
        if matches!(
            packet.msg,
            Message::WriteLog { .. } | Message::ForceLog { .. }
        ) {
            let mut cap = s.captured.lock().expect("capture poisoned");
            if cap.len() < CAPTURE {
                cap.push(packet.clone());
            }
        }
    }
}

impl<E: Endpoint> Endpoint for Timed<E> {
    fn local_addr(&self) -> NodeAddr {
        self.inner.local_addr()
    }

    fn send(&self, to: NodeAddr, packet: &Packet) -> io::Result<()> {
        if !trace::enabled() {
            return self.inner.send(to, packet);
        }
        let t0 = Instant::now();
        self.end_busy(t0);
        let o = trace::open(self.names().0, 0);
        let r = self.inner.send(to, packet);
        trace::close(o);
        self.count_send(packet, 1, t0);
        r
    }

    fn send_many(&self, tos: &[NodeAddr], packet: &Packet) -> io::Result<()> {
        if !trace::enabled() {
            return self.inner.send_many(tos, packet);
        }
        let t0 = Instant::now();
        self.end_busy(t0);
        let o = trace::open(self.names().0, 0);
        let r = self.inner.send_many(tos, packet);
        trace::close(o);
        self.count_send(packet, tos.len() as u64, t0);
        r
    }

    fn recv(&self, timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        if !trace::enabled() {
            return self.inner.recv(timeout);
        }
        let t0 = Instant::now();
        self.end_busy(t0);
        let o = trace::open(self.names().1, 0);
        let r = self.inner.recv(timeout);
        trace::close(o);
        let waited = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(0);
        let s = &self.stats;
        s.recv_calls.fetch_add(1, Ordering::Relaxed);
        s.recv_ns.fetch_add(waited, Ordering::Relaxed);
        if !matches!(&r, Ok(Some(_))) {
            s.recv_empty_ns.fetch_add(waited, Ordering::Relaxed);
        }
        if let Ok(Some((_, p))) = &r {
            s.recv_hits.fetch_add(1, Ordering::Relaxed);
            s.bytes_in
                .fetch_add(p.encoded_len() as u64, Ordering::Relaxed);
            if let Message::Response {
                body: Response::Records { records },
                ..
            } = &p.msg
            {
                s.record_replies.fetch_add(1, Ordering::Relaxed);
                s.records_in
                    .fetch_add(records.len() as u64, Ordering::Relaxed);
            }
            if self.role == Role::Server {
                self.busy_since.set(Some(Instant::now()));
            }
        }
        r
    }
}

impl<E: Endpoint> Drop for Timed<E> {
    fn drop(&mut self) {
        // A server thread drops its endpoint as it exits: hand its spans
        // to the collector from that thread.
        if self.role == Role::Server {
            trace::flush_thread();
        }
    }
}
