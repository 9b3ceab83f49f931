//! The stream server: one writer thread owning the store, any number of
//! connection threads serving clients over the snapshot slot.
//!
//! # Architecture
//!
//! ```text
//!  client conns ──frames──▶ connection threads
//!       │                        │        ╲
//!       │   INGEST/SUBSCRIBE     │ QUERY   ╲ (clone)
//!       ▼                        ▼          ▼
//!   mpsc::Sender<Cmd> ───▶ writer thread   snapshot slot
//!                          (group commit)  Arc<Mutex<StoreSnapshot>>
//!                          owns the store ──publishes──▲
//! ```
//!
//! * **Writer thread** — sole owner of the
//!   [`StreamSession`]. It drains the command channel
//!   with a group-commit tick: the first `INGEST` opens a window of
//!   [`ServerConfig::tick`]; every write arriving inside the window is
//!   coalesced (all deletes, then all inserts) into **one** pipelined
//!   [`apply`](se_stream::ShardedHybridStore::apply). After the apply it
//!   publishes a fresh [`StoreSnapshot`], acks every coalesced request
//!   with the tick's aggregate report, and pushes each continuous-query
//!   answer to its subscriber.
//! * **Connection threads** — one per client. Point queries clone the
//!   published snapshot (an `Arc` bump) and execute on the connection
//!   thread: readers never enter the writer's queue and are never blocked
//!   by ingest or compaction. Responses and pushes to one client are
//!   serialized through a shared sink lock.

use crate::protocol::{
    self as proto, read_frame, write_frame, FixedLayout, IngestAck, ServerStats,
};
use se_sds::{ReadBin, WriteBin};
use se_sparql::{PlanCache, QueryOptions};
use se_stream::{ShardedHybridStore, StoreSnapshot, StreamError, StreamSession};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A client's write half, shared between its connection thread
/// (request replies) and the writer thread (subscription pushes).
pub(crate) type ClientSink = Arc<Mutex<TcpStream>>;

/// How often an idle connection thread wakes to check the stop flag.
/// Bounded so `SHUTDOWN` never hangs on a quiet subscriber whose
/// connection thread would otherwise block in a read forever.
pub(crate) const CONN_POLL: Duration = Duration::from_millis(50);

/// One active subscription as the writer sees it.
pub(crate) struct Sub {
    pub(crate) sink: ClientSink,
    /// Whether the subscriber has received its initial full frame.
    /// Until then every tick pushes the whole answer set; afterwards
    /// only changed ticks push, and they push just the changes.
    pub(crate) primed: bool,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Group-commit window: how long the writer keeps coalescing after
    /// the first write of a tick before applying. Zero degenerates to
    /// one apply per request.
    pub tick: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            tick: Duration::from_millis(2),
        }
    }
}

/// Commands the connection threads hand to the writer (and, on a
/// [`Replica`](crate::replica::Replica), to the feed thread).
/// Each carries the sender its answer goes back on.
pub(crate) enum Cmd {
    Ingest {
        inserts: se_rdf::Graph,
        deletes: se_rdf::Graph,
        done: Done<IngestAck>,
    },
    Subscribe {
        id: String,
        text: String,
        options: QueryOptions,
        sink: ClientSink,
        done: Done<()>,
    },
    Stats {
        done: Done<ServerStats>,
    },
    Replicate {
        from_epoch: u64,
        sink: ClientSink,
        done: Done<()>,
    },
    Shutdown,
}

/// Where a command's answer goes: the value, or the message of an `ERR`.
pub(crate) type Done<T> = mpsc::Sender<Result<T, String>>;

/// A running server: its bound address plus the threads to join.
pub struct Server {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `store`. The store moves into the writer thread; all
    /// further access goes through client connections.
    pub fn start(
        store: ShardedHybridStore,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let slot = Arc::new(Mutex::new(store.snapshot()));
        let (tx, rx) = mpsc::channel::<Cmd>();
        let stop = Arc::new(AtomicBool::new(false));
        // One compiled-plan cache for the whole server: QUERY frames on
        // every connection thread and continuous-query (re)seeding on
        // the writer share its shape-level plans, so a repeated query
        // text executes with zero parsing wherever it arrives.
        let plan_cache = Arc::new(PlanCache::new());

        let writer = {
            let slot = Arc::clone(&slot);
            let cache = Arc::clone(&plan_cache);
            thread::Builder::new()
                .name("se-server-writer".into())
                .spawn(move || writer_loop(serving_session(store, cache), rx, slot, config.tick))?
        };

        let accept = {
            let stop = Arc::clone(&stop);
            let tx = tx.clone();
            let slot = Arc::clone(&slot);
            thread::Builder::new()
                .name("se-server-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        let tx = tx.clone();
                        let slot = Arc::clone(&slot);
                        let stop = Arc::clone(&stop);
                        let cache = Arc::clone(&plan_cache);
                        let addr = local;
                        // Connection threads are detached: they exit when
                        // their client hangs up or the writer goes away.
                        let _ =
                            thread::Builder::new()
                                .name("se-server-conn".into())
                                .spawn(move || {
                                    let _ = serve_connection(stream, tx, slot, stop, cache, addr);
                                });
                    }
                })?
        };

        Ok(Server {
            addr: local,
            accept: Some(accept),
            writer: Some(writer),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to stop (a client sent `SHUTDOWN`).
    pub fn join(mut self) {
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
    }
}

// --------------------------------------------------------------- writer

/// A session set up the way the server's writer and a replica's feed
/// thread serve it: the shared plan cache installed, and full answer
/// sets left out of delta-path results. Initial frames always come from
/// a seeding (or fallback) evaluation, which carries the full answer set
/// regardless — so the steady-state delta path never materializes one.
pub(crate) fn serving_session(store: ShardedHybridStore, cache: Arc<PlanCache>) -> StreamSession {
    let mut session = StreamSession::new(store);
    session.registry_mut().set_plan_cache(cache);
    session.registry_mut().set_emit_full(false);
    session
}

/// An ingest rider waiting in the tick window: inserts, deletes, ack.
type PendingIngest = (se_rdf::Graph, se_rdf::Graph, Done<IngestAck>);

/// Everything the writer thread owns besides its command channel.
struct Writer {
    session: StreamSession,
    /// Active subscriptions: registry id → sink + primed flag.
    subs: HashMap<String, Sub>,
    /// Attached replication feeds: every tick's WAL record goes to each.
    replicas: Vec<ClientSink>,
    /// The replication counters (`repl_*`) this thread keeps; [`stats`]
    /// reads every other field at its source.
    counters: ServerStats,
}

fn writer_loop(
    session: StreamSession,
    rx: mpsc::Receiver<Cmd>,
    slot: Arc<Mutex<StoreSnapshot>>,
    tick: Duration,
) {
    let mut writer = Writer {
        session,
        subs: HashMap::new(),
        replicas: Vec::new(),
        counters: ServerStats::default(),
    };
    loop {
        let Ok(first) = rx.recv() else { break };
        let mut pending: Vec<PendingIngest> = Vec::new();
        if writer.handle(first, &mut pending) {
            break;
        }
        if pending.is_empty() {
            continue;
        }
        // Group-commit window: coalesce every write that arrives within
        // `tick` of the first one.
        let mut shutdown = false;
        let deadline = Instant::now() + tick;
        while !shutdown {
            let left = deadline.saturating_duration_since(Instant::now());
            shutdown = match rx.recv_timeout(left) {
                Ok(cmd) => writer.handle(cmd, &mut pending),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => true,
            };
        }
        if !writer.commit(pending, &slot) || shutdown {
            break;
        }
    }
    // Graceful exit: drain any WAL appends still buffered under a
    // relaxed sync policy, so every acked batch is durable before the
    // server reports itself stopped. With `SyncPolicy::EveryBatch` this
    // is a no-op — acks are already durable when they are sent.
    let _ = writer.session.store().wal_flush();
}

impl Writer {
    /// Handles one command. An ingest joins `pending`; everything else
    /// is answered at once, so a stats probe can't extend a tick window.
    /// Returns `true` on shutdown.
    fn handle(&mut self, cmd: Cmd, pending: &mut Vec<PendingIngest>) -> bool {
        match cmd {
            Cmd::Ingest {
                inserts,
                deletes,
                done,
            } => pending.push((inserts, deletes, done)),
            Cmd::Subscribe {
                id,
                text,
                options,
                sink,
                done,
            } => subscribe(
                &mut self.session,
                &mut self.subs,
                id,
                text,
                options,
                sink,
                done,
            ),
            Cmd::Stats { done } => {
                let counters = ServerStats {
                    replicas: self.replicas.len() as u64,
                    ..self.counters
                };
                let _ = done.send(Ok(stats(&self.session, self.subs.len(), counters)));
            }
            Cmd::Replicate {
                from_epoch,
                sink,
                done,
            } => self.attach_replica(from_epoch, sink, done),
            Cmd::Shutdown => return true,
        }
        false
    }

    /// Applies one tick as one batch — all deletes, then all inserts —
    /// publishes the new snapshot, acks every rider, pushes subscription
    /// changes and ships the tick's WAL record. Returns `false` once the
    /// store has failed for good.
    fn commit(&mut self, pending: Vec<PendingIngest>, slot: &Mutex<StoreSnapshot>) -> bool {
        let coalesced = pending.len() as u32;
        let mut inserts = se_rdf::Graph::new();
        let mut deletes = se_rdf::Graph::new();
        for (ins, del, _) in &pending {
            for t in del.iter() {
                deletes.insert(t.clone());
            }
            for t in ins.iter() {
                inserts.insert(t.clone());
            }
        }
        match self.session.apply_batch(&inserts, &deletes) {
            Ok(outcome) => {
                let snap = self.session.store().snapshot();
                let ack = IngestAck {
                    epoch: snap.epoch(),
                    inserted: outcome.report.inserted as u64,
                    deleted: outcome.report.deleted as u64,
                    noops: outcome.report.noops as u64,
                    coalesced,
                    compacted: outcome.report.compacted,
                };
                *slot.lock().expect("snapshot slot poisoned") = snap;
                for (_, _, done) in &pending {
                    let _ = done.send(Ok(ack));
                }
                push_results(
                    &mut self.session,
                    &mut self.subs,
                    outcome.results,
                    ack.epoch,
                );
                // Ship this tick's WAL record to every attached feed.
                // Even an all-noop tick ships: the epoch advanced, and a
                // follower's consecutive-epoch invariant needs the gap
                // filled. A dead feed is dropped; when the last one goes
                // the forced delta capture is released.
                if !self.replicas.is_empty() {
                    let delta = outcome.report.delta.unwrap_or_default();
                    let payload = se_stream::encode_record_payload(ack.epoch, &delta);
                    self.replicas.retain(|sink| {
                        let mut sink = sink.lock().expect("replica sink poisoned");
                        write_frame(&mut *sink, proto::resp::REPL_RECORD, &payload).is_ok()
                    });
                    self.counters.repl_records_shipped += self.replicas.len() as u64;
                    if self.replicas.is_empty() {
                        self.session.set_force_delta_capture(false);
                    }
                }
                true
            }
            Err(e) => {
                // A poisoned store stays poisoned; a validation error is
                // per-tick. Either way every rider learns what happened.
                let msg = e.to_string();
                for (_, _, done) in &pending {
                    let _ = done.send(Err(msg.clone()));
                }
                !matches!(e, StreamError::Worker(_))
            }
        }
    }

    /// Catches a follower up to the current epoch — WAL-tail records
    /// when the log still covers `(from_epoch, current]`, a full snapshot
    /// otherwise — then registers its sink for live per-tick records.
    fn attach_replica(&mut self, from_epoch: u64, sink: ClientSink, done: Done<()>) {
        let session = &mut self.session;
        let current = session.store().epoch();
        if from_epoch > current {
            let _ = done.send(Err(format!(
                "follower epoch {from_epoch} is ahead of leader epoch {current}"
            )));
            return;
        }
        if from_epoch < current {
            // Drain buffered appends first so the tail scan sees
            // everything this store has acked, then prefer shipping
            // records: a follower replays them in O(delta) instead of
            // rebuilding from scratch. The writer thread is the sole
            // appender and it is parked here, so the read-only scan
            // cannot race an in-flight append.
            let tail = session
                .store()
                .wal_flush()
                .ok()
                .and_then(|()| session.store().wal_dir())
                .and_then(|dir| se_stream::read_tail(&dir, from_epoch).ok().flatten())
                .filter(|recs| recs.last().map(|r| r.epoch) == Some(current));
            let sent = match tail {
                Some(records) => {
                    self.counters.repl_records_shipped += records.len() as u64;
                    records.iter().try_for_each(|rec| {
                        let payload = se_stream::encode_record_payload(rec.epoch, &rec.delta);
                        reply(&sink, proto::resp::REPL_RECORD, &payload)
                    })
                }
                None => {
                    self.counters.repl_snapshots_served += 1;
                    let graph = session.store().materialize();
                    let mut payload = Vec::new();
                    payload
                        .write_u64(current)
                        .and_then(|()| proto::write_graph(&mut payload, &graph))
                        .and_then(|()| reply(&sink, proto::resp::REPL_SNAPSHOT, &payload))
                }
            };
            if sent.is_err() {
                let _ = done.send(Err("replication feed write failed during catch-up".into()));
                return;
            }
        }
        self.replicas.push(sink);
        session.set_force_delta_capture(true);
        let _ = done.send(Ok(()));
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn subscribe(
    session: &mut StreamSession,
    subs: &mut HashMap<String, Sub>,
    id: String,
    text: String,
    options: QueryOptions,
    sink: ClientSink,
    done: Done<()>,
) {
    match session.register_query(id.clone(), &text, options) {
        Ok(()) => {
            // Re-subscribing an id replaces the query, so the sink must
            // be re-primed with a fresh full frame.
            subs.insert(
                id,
                Sub {
                    sink,
                    primed: false,
                },
            );
            let _ = done.send(Ok(()));
        }
        Err(e) => {
            let _ = done.send(Err(e.to_string()));
        }
    }
}

/// Pushes each continuous answer to its subscriber: the whole set once
/// (the initial frame), then only the per-tick changes — and nothing at
/// all on ticks that left the answer set untouched. A dead sink retires
/// the subscription. Shared by the leader's writer and a replica's feed
/// thread.
pub(crate) fn push_results(
    session: &mut StreamSession,
    subs: &mut HashMap<String, Sub>,
    results: Vec<se_stream::ContinuousResult>,
    epoch: u64,
) {
    for result in results {
        let Some(sub) = subs.get_mut(&result.id) else {
            continue;
        };
        if sub.primed && result.unchanged() {
            continue;
        }
        let mut payload = Vec::new();
        let encoded = payload
            .write_str(&result.id)
            .and_then(|()| payload.write_u64(epoch))
            .and_then(|()| {
                if sub.primed {
                    payload.write_u8(proto::PUSH_CHANGES)?;
                    proto::write_result_set(&mut payload, &result.added)?;
                    proto::write_result_set(&mut payload, &result.removed)
                } else {
                    payload.write_u8(proto::PUSH_FULL)?;
                    proto::write_result_set(&mut payload, &result.results)
                }
            })
            .is_ok();
        let ok = encoded && {
            let mut sink = sub.sink.lock().expect("client sink poisoned");
            write_frame(&mut *sink, proto::resp::PUSH, &payload).is_ok()
        };
        if ok {
            sub.primed = true;
        } else {
            subs.remove(&result.id);
            session.registry_mut().deregister(&result.id);
        }
    }
}

/// The STATS answer: every counter read at its source — store, session,
/// plan cache, WAL — except the replication counters (`replicas`,
/// `repl_*`), which the calling thread keeps in `counters`.
pub(crate) fn stats(
    session: &StreamSession,
    subscriptions: usize,
    counters: ServerStats,
) -> ServerStats {
    let store = session.store().stats();
    let cq = session.stream_stats();
    let plan = session
        .registry()
        .plan_cache()
        .map(|cache| cache.stats())
        .unwrap_or_default();
    let wal = session.store().wal_health();
    ServerStats {
        epoch: store.epoch,
        triples: se_core::TripleSource::len(session.store()) as u64,
        live_pins: store.live_pins as u64,
        snapshots: store.snapshots as u64,
        compactions: store.compactions as u64,
        subscriptions: subscriptions as u64,
        incremental_evals: cq.incremental_evals,
        full_evals: cq.full_evals,
        delta_added: cq.delta_added,
        delta_removed: cq.delta_removed,
        plan_hits: plan.hits,
        plan_misses: plan.misses,
        plan_compiles: plan.compiles,
        plan_evictions: plan.evictions,
        plan_recosts: plan.recosts,
        wal_poisoned: wal.poisoned as u64,
        wal_appends_failed: wal.appends_failed,
        ..counters
    }
}

// ---------------------------------------------------------- connections

pub(crate) fn serve_connection(
    stream: TcpStream,
    tx: mpsc::Sender<Cmd>,
    slot: Arc<Mutex<StoreSnapshot>>,
    stop: Arc<AtomicBool>,
    plan_cache: Arc<PlanCache>,
    server_addr: SocketAddr,
) -> io::Result<()> {
    let mut reader = stream.try_clone()?;
    let sink: ClientSink = Arc::new(Mutex::new(stream));
    loop {
        // Wait for the next frame with a bounded peek so the thread can
        // observe the stop flag between frames. The peek consumes
        // nothing; once a byte is visible the timeout is cleared and the
        // frame is read blocking, so a frame can never be torn in half
        // by the poll interval.
        reader.set_read_timeout(Some(CONN_POLL))?;
        let mut probe = [0u8; 1];
        match reader.peek(&mut probe) {
            Ok(0) => return Ok(()), // client hung up
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) {
                    return Ok(());
                }
                continue;
            }
            Err(_) => return Ok(()),
        }
        reader.set_read_timeout(None)?;
        let (kind, payload) = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(_) => return Ok(()), // client hung up
        };
        if kind == proto::req::SHUTDOWN {
            stop.store(true, Ordering::Release);
            let _ = tx.send(Cmd::Shutdown);
            // Wake the accept loop so it observes the stop flag.
            let _ = TcpStream::connect(server_addr);
            reply(&sink, proto::resp::OK, &[])?;
            return Ok(());
        }
        match answer(kind, &payload, &tx, &slot, &plan_cache, &sink) {
            Ok(Some((kind, out))) => reply(&sink, kind, &out)?,
            Ok(None) => {}
            Err(e) => reply_err(&sink, &e.to_string())?,
        }
    }
}

/// Answers one request frame other than `SHUTDOWN`: `Ok(Some(frame))` is
/// the reply, `Ok(None)` means none is due, and an error's message goes
/// back in an `ERR` frame.
fn answer(
    kind: u8,
    mut p: &[u8],
    tx: &mpsc::Sender<Cmd>,
    slot: &Mutex<StoreSnapshot>,
    plan_cache: &PlanCache,
    sink: &ClientSink,
) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut out = Vec::new();
    let kind = match kind {
        proto::req::INGEST => {
            let inserts = proto::read_graph(&mut p)?;
            let deletes = proto::read_graph(&mut p)?;
            ask(tx, |done| Cmd::Ingest {
                inserts,
                deletes,
                done,
            })?
            .write(&mut out)?;
            proto::resp::INGEST
        }
        proto::req::QUERY => {
            let text = p.read_str()?;
            let options = proto::read_options(&mut p)?;
            // Clone the latest snapshot (an Arc bump) and evaluate here —
            // the writer is never involved. The shared plan cache makes a
            // repeated query text a pure bind-and-execute: no parsing, no
            // optimizing on the hot path.
            let snap = slot.lock().expect("snapshot slot poisoned").clone();
            let rows = plan_cache
                .execute_text(&snap, &text, &options)
                .map_err(|e| io::Error::other(e.to_string()))?;
            out.write_u64(snap.epoch())?;
            proto::write_result_set(&mut out, &rows)?;
            proto::resp::ROWS
        }
        proto::req::SUBSCRIBE => {
            let id = p.read_str()?;
            let text = p.read_str()?;
            let options = proto::read_options(&mut p)?;
            ask(tx, |done| Cmd::Subscribe {
                id,
                text,
                options,
                sink: Arc::clone(sink),
                done,
            })?;
            proto::resp::OK
        }
        proto::req::STATS => {
            ask(tx, |done| Cmd::Stats { done })?.write(&mut out)?;
            proto::resp::STATS
        }
        proto::req::REPLICATE => {
            let from_epoch = p.read_u64()?;
            ask(tx, |done| Cmd::Replicate {
                from_epoch,
                sink: Arc::clone(sink),
                done,
            })?;
            // The catch-up frames (and every later live record) already
            // flow from the writer; the connection is a feed now, and the
            // client sends nothing further. Only failures get a reply.
            return Ok(None);
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown request kind {other:#04x}"),
            ))
        }
    };
    Ok(Some((kind, out)))
}

/// Hands one command to the writer and waits for its answer; an `Err`
/// answer becomes the error. A writer that has stopped answers "server
/// is shutting down".
fn ask<T>(tx: &mpsc::Sender<Cmd>, cmd: impl FnOnce(Done<T>) -> Cmd) -> io::Result<T> {
    let (done, answer) = mpsc::channel();
    let answered = tx.send(cmd(done)).ok().and_then(|()| answer.recv().ok());
    answered
        .unwrap_or_else(|| Err("server is shutting down".into()))
        .map_err(io::Error::other)
}

pub(crate) fn reply(sink: &ClientSink, kind: u8, payload: &[u8]) -> io::Result<()> {
    let mut sink = sink.lock().expect("client sink poisoned");
    write_frame(&mut *sink, kind, payload)
}

pub(crate) fn reply_err(sink: &ClientSink, msg: &str) -> io::Result<()> {
    let mut payload = Vec::new();
    payload.write_str(msg)?;
    reply(sink, proto::resp::ERR, &payload)
}
