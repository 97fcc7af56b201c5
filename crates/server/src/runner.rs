//! The log server's event loop and the thread that runs it.
//!
//! `event_loop` is the one loop that drives [`LogServer::handle_into`] from
//! an endpoint; [`ServerRunner`] runs it on a thread. Every server
//! configuration is built from those two: a plain server is one runner
//! over its endpoint, a sharded one ([`crate::shard::ShardSupervisor`])
//! is one runner per shard over a routed endpoint's shard queues, and the
//! `dlog-server` binary runs the supervisor.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dlog_net::Endpoint;

use crate::LogServer;

/// How many queued packets one poll may ingest before replies are
/// flushed. Bounds the extra latency a burst can impose on the first
/// sender's ack while still amortizing per-packet overhead.
const INGEST_BATCH: usize = 32;

/// How long an idle loop blocks in `recv` before it re-checks its stop
/// flag and gives the archive tier a turn.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// What a loop's thread hands back: the server (with its store) and the
/// endpoint failure that ended the loop, if one did.
type Served = (LogServer, Option<io::Error>);

/// Handle to a running server thread.
pub struct ServerRunner {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Served>>,
}

impl ServerRunner {
    /// Spawn a thread that receives packets from `endpoint`, feeds them to
    /// `server`, and transmits its replies, until stopped or until the
    /// endpoint fails.
    #[must_use]
    pub fn spawn<E: Endpoint + 'static>(server: LogServer, endpoint: E) -> ServerRunner {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name(format!("log-server-{}", server.id()))
            .spawn(move || event_loop(server, &stop2, &endpoint))
            .expect("spawn server thread");
        ServerRunner {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the thread and recover the server (with its store).
    #[must_use]
    pub fn stop(mut self) -> LogServer {
        self.join_thread()
            .expect("not yet stopped")
            .expect("server thread panicked")
            .0
    }

    /// Simulate a hard crash: the thread stops without syncing anything
    /// beyond what already happened; the store is dropped where it stands.
    /// Returns the durable stream end at the moment of the crash, so
    /// harnesses can stamp a `Stage::Crash` trace event with it.
    pub fn crash(mut self) -> u64 {
        let (mut server, _) = self
            .join_thread()
            .expect("not yet stopped")
            .expect("server thread panicked");
        let end = server.store_mut().stream_end();
        // Drop without further syncing. (The graceful-path sync in the
        // thread already ran; true torn-write crashes are exercised at
        // the storage layer, where the disk state can be manipulated
        // directly.)
        drop(server);
        end
    }

    /// Ask the loop to stop at its next turn, without waiting for it.
    pub(crate) fn signal_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// True once the loop has ended: stopped, failed or panicked.
    pub(crate) fn is_finished(&self) -> bool {
        self.handle.as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// Stop the loop and wait for its thread (`None` once joined).
    pub(crate) fn join_thread(&mut self) -> Option<std::thread::Result<Served>> {
        self.signal_stop();
        self.handle.take().map(JoinHandle::join)
    }
}

impl Drop for ServerRunner {
    fn drop(&mut self) {
        let _ = self.join_thread();
    }
}

/// The log server's event loop (§4.2): receive from `endpoint`, hand each
/// packet to [`LogServer::handle_into`], transmit the replies, until
/// `stop` is set or the endpoint fails. Returns the server, and the
/// endpoint failure if that is what ended the loop.
fn event_loop<E: Endpoint>(mut server: LogServer, stop: &AtomicBool, endpoint: &E) -> Served {
    // One reply buffer for the life of the thread: handle_into appends
    // into it, so after warm-up the steady-state loop issues no
    // per-packet Vec allocations for replies.
    let mut replies = Vec::with_capacity(64);
    let mut failure = None;
    while !stop.load(Ordering::Relaxed) {
        // With forces waiting on a group commit, poll rather than block:
        // the batch must flush the moment the inbox drains, so the
        // coalescing window only adds latency while more work is
        // actually arriving.
        let timeout = if server.has_pending_forces() {
            Duration::ZERO
        } else {
            IDLE_WAIT
        };
        match endpoint.recv(timeout) {
            Ok(Some((from, pkt))) => {
                // Batch ingest: after the first packet, drain whatever
                // else is already queued (up to a cap that keeps force
                // acks prompt) before sending replies, amortizing the
                // send/recv syscall boundary across the burst.
                replies.clear();
                server.handle_into(from, &pkt, &mut replies);
                for _ in 0..INGEST_BATCH - 1 {
                    match endpoint.recv(Duration::ZERO) {
                        Ok(Some((from, pkt))) => {
                            server.handle_into(from, &pkt, &mut replies);
                        }
                        _ => break,
                    }
                }
                for (to, reply) in replies.drain(..) {
                    // Send failures are network loss — the protocol
                    // recovers end to end.
                    let _ = endpoint.send(to, &reply);
                }
                for (to, reply) in server.force_tick() {
                    let _ = endpoint.send(to, &reply);
                }
            }
            Ok(None) => {
                if server.has_pending_forces() {
                    // Inbox drained: commit the group now.
                    for (to, reply) in server.flush_pending_forces() {
                        let _ = endpoint.send(to, &reply);
                    }
                } else if let Err(e) = server.archive_tick() {
                    // Idle: let the archive tier make progress. A failed
                    // round is retried next interval; the watermark holds
                    // retention back until the upload goes through.
                    eprintln!("dlog-server {}: archive round failed: {e}", server.id().0);
                }
            }
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    // Never strand queued force obligations at shutdown: the graceful
    // path finishes the round and even tries to get the acks out before
    // the endpoint goes away.
    for (to, reply) in server.flush_pending_forces() {
        let _ = endpoint.send(to, &reply);
    }
    // Leave storage clean on graceful shutdown.
    let _ = server.store_mut().sync();
    (server, failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;
    use dlog_net::wire::{Message, NodeAddr, Packet, Request, Response};
    use dlog_net::{FaultPlan, MemNetwork};
    use dlog_storage::{NvramDevice, StoreOptions};
    use dlog_types::{ClientId, Epoch, LogData, Lsn, ServerId};

    #[test]
    fn runner_serves_over_mem_network() {
        let dir = std::env::temp_dir()
            .join("dlog-runner-tests")
            .join(format!("serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions {
            fsync: false,
            ..StoreOptions::default()
        };
        let server = LogServer::open(
            &dir,
            ServerConfig::new(ServerId(1)),
            opts,
            NvramDevice::new(1 << 20),
        )
        .unwrap();

        let net = MemNetwork::new(FaultPlan::reliable());
        let server_ep = net.endpoint(NodeAddr(1));
        let client_ep = net.endpoint(NodeAddr(100));
        let runner = ServerRunner::spawn(server, server_ep);

        // Force three records and await the ack.
        let records: Vec<(Lsn, LogData)> = (1..=3)
            .map(|i| (Lsn(i), LogData::from(vec![i as u8; 10])))
            .collect();
        client_ep
            .send(
                NodeAddr(1),
                &Packet::bare(Message::ForceLog {
                    client: ClientId(9),
                    epoch: Epoch(1),
                    records,
                }),
            )
            .unwrap();
        let (_, pkt) = client_ep
            .recv(Duration::from_secs(2))
            .unwrap()
            .expect("ack");
        assert_eq!(
            pkt.msg,
            Message::NewHighLsn {
                client: ClientId(9),
                lsn: Lsn(3)
            }
        );

        // RPC round trip.
        client_ep
            .send(
                NodeAddr(1),
                &Packet::bare(Message::Request {
                    id: 77,
                    body: Request::IntervalList {
                        client: ClientId(9),
                    },
                }),
            )
            .unwrap();
        let (_, pkt) = client_ep
            .recv(Duration::from_secs(2))
            .unwrap()
            .expect("resp");
        match pkt.msg {
            Message::Response {
                id: 77,
                body: Response::Intervals { intervals },
            } => {
                assert_eq!(intervals.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }

        let server = runner.stop();
        assert_eq!(server.stats().records_stored, 3);
    }
}
