//! What `serve_query` and `stream_follow` share: the seeded water-sensor
//! stream, the leader's set-up (4-shard store, preload, WAL, `Server`),
//! the in-process mirror the oracle replays, and bounded client
//! connections.

use crate::stats::SplitMix;
use se_datagen::water::{generate_stream, StreamBatch, WaterConfig};
use se_ontology::Ontology;
use se_rdf::Graph;
use se_server::{Client, IngestAck, Server, ServerConfig};
use se_stream::{ShardedHybridStore, SyncPolicy, WalConfig};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Stations of the §2 two-profile topology.
pub const STATIONS: usize = 24;
pub const LEADER_SHARDS: usize = 4;
/// Measurement rounds applied before the server starts; with the
/// retention window equal to it, the `sosa:observes` scan answers
/// 16 rounds × 48 sensors = 768 rows.
pub const PRELOAD_BATCHES: usize = 16;
pub const RETAIN_ROUNDS: usize = 16;
pub const ANOMALY_RATE: f64 = 0.15;
/// Full set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Every client read gives up after this long: a stalled server turns
/// into counted failures instead of a hung run.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// The one flush policy every commit runs under.
pub const SYNC: SyncPolicy = SyncPolicy::EveryBatch;

pub struct Input {
    pub onto: Ontology,
    pub preload: Vec<StreamBatch>,
    /// Batches ingested while the server runs, in order.
    pub run: Vec<StreamBatch>,
}

pub fn input(seed: u64, run_batches: usize) -> Input {
    let cfg = WaterConfig {
        stations: STATIONS,
        rounds: 1,
        anomaly_rate: ANOMALY_RATE,
        seed,
    };
    let mut preload = generate_stream(&cfg, PRELOAD_BATCHES + run_batches, RETAIN_ROUNDS);
    let run = preload.split_off(PRELOAD_BATCHES);
    Input {
        onto: se_ontology::water_ontology(),
        preload,
        run,
    }
}

/// Operations a batch sends (inserts plus deletes).
pub fn ops(b: &StreamBatch) -> usize {
    b.inserts.len() + b.deletes.len()
}

/// The leader's store before the server starts: built empty, preloaded.
/// The mirror starts from the same state.
pub fn preloaded_store(input: &Input) -> ShardedHybridStore {
    let mut store = ShardedHybridStore::build(&input.onto, &Graph::new(), LEADER_SHARDS)
        .expect("empty water store builds");
    for b in &input.preload {
        store
            .apply(&b.inserts, &b.deletes)
            .expect("generated preload applies");
    }
    store
}

pub fn wal_config() -> WalConfig {
    WalConfig {
        sync: SYNC,
        ..WalConfig::default()
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig::default()
}

/// A running leader.
pub struct Leader {
    pub server: Server,
    pub addr: SocketAddr,
}

/// Store build, preload, WAL attach (which checkpoints the preloaded
/// store into `wal_dir`) and `Server::start` on an ephemeral loopback
/// port.
pub fn start_leader(input: &Input, wal_dir: &Path) -> io::Result<Leader> {
    let _ = std::fs::remove_dir_all(wal_dir);
    std::fs::create_dir_all(wal_dir)?;
    let mut store = preloaded_store(input);
    store
        .attach_wal(wal_dir, wal_config())
        .map_err(|e| io::Error::other(e.to_string()))?;
    let server = Server::start(store, "127.0.0.1:0", server_config())?;
    let addr = server.addr();
    Ok(Leader { server, addr })
}

/// A client whose every read is bounded by [`READ_TIMEOUT`].
pub fn connect(addr: SocketAddr) -> io::Result<Client> {
    let mut c = Client::connect(addr)?;
    c.set_read_timeout(Some(READ_TIMEOUT));
    Ok(c)
}

/// Asks the node behind `client` to stop and, if it acknowledged, waits
/// for its threads. A node that does not answer is left to process exit
/// rather than joined, so a stall cannot hang the run.
pub fn shutdown(client: Option<Client>, addr: SocketAddr, join: impl FnOnce()) -> bool {
    let acked = client
        .map_or_else(|| connect(addr), Ok)
        .and_then(|mut c| c.shutdown())
        .is_ok();
    if acked {
        join();
    }
    acked
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                dir_bytes(&p)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(root: &Path, workload: &str) -> Self {
        let dir = root
            .join(".bench_work")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("work directory can be created");
        Self(dir)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One scheduled ingest of the open-loop generator.
pub struct Ingest {
    /// Index into [`Input::run`].
    pub k: usize,
    /// When the batch was due; latency counts from here.
    pub due: Instant,
    /// When the request actually went out (late if the previous ack
    /// arrived after this batch was due).
    pub sent: Instant,
    /// When the ack arrived.
    pub at: Instant,
    pub ack: Option<IngestAck>,
}

/// Open loop from `run[first]` on, at `rate` batches/s on average: the
/// gap to the next batch is drawn (seeded) uniformly from half to one and
/// a half mean gaps, so arrivals do not stay in step with the server's
/// tick or the kernel's delayed-ACK timers for a whole run. Batches due
/// at or after `deadline` are not sent. A failed request is recorded with
/// no ack and the connection is re-made with `connect` (which may also
/// re-subscribe) for the next batch.
#[allow(clippy::too_many_arguments)]
pub fn ingest_loop(
    client: &mut Option<Client>,
    mut connect: impl FnMut() -> io::Result<Client>,
    run: &[StreamBatch],
    first: usize,
    rate: f64,
    seed: u64,
    start: Instant,
    deadline: Instant,
) -> Vec<Ingest> {
    let mut rng = SplitMix::new(seed);
    let mut offset = 0.0;
    let mut out = Vec::new();
    for (i, b) in run.iter().enumerate().skip(first) {
        let due = start + Duration::from_secs_f64(offset);
        offset += (0.5 + rng.unit()) / rate;
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        if client.is_none() {
            *client = connect().ok();
        }
        let ack = client
            .as_mut()
            .and_then(|c| c.ingest(&b.inserts, &b.deletes).ok());
        if ack.is_none() {
            *client = None;
        }
        out.push(Ingest {
            k: i,
            due,
            sent,
            at: Instant::now(),
            ack,
        });
    }
    out
}
