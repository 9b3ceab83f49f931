//! Write-path benchmarks for the incremental ingestion subsystem:
//! batch ingestion throughput and continuous-query latency on the hybrid
//! view, against the paper's original rebuild-per-instance model — plus
//! the sharded write path (pooled parallel ingest, background compaction)
//! against the single-overlay store, with per-batch apply-latency
//! percentiles and a small-batch break-even sweep of the persistent
//! worker pool against the legacy per-batch scoped spawns.
//!
//! Besides the criterion timings this bench emits a machine-readable
//! `BENCH_stream_ingest.json` (throughput + rank-interpolated p50/p99
//! apply latency per engine, pooled/inline batch counts, the sweep, and
//! the v02 persistence trajectory: O(delta) save vs compact-then-dump,
//! with 4x-overlay / 4x-baseline cells pinning what the save time scales
//! with, the continuous-query trajectory: {4,16} registered queries ×
//! {small,heavy} store, differential delta evaluation vs forced full
//! re-evaluation over the same small-batch stream, and the se-server
//! trajectory: group-commit ingest for 16 concurrent TCP writers vs
//! per-client serial applies, plus snapshot-read QPS at 1/4/16 readers,
//! and the replication trajectory: WAL-tail catch-up for a fresh
//! follower vs the same records replayed in-process, plus live
//! commit-to-visible staleness percentiles) so the perf trajectory can
//! be tracked across commits — CI gates on the
//! `sharded_background_compaction`,
//! `continuous_incremental_16q_heavy_store`,
//! `server_group_commit_16_writers` and `replication_catchup` entries.

use criterion::{criterion_group, criterion_main, Criterion};
use se_core::SuccinctEdgeStore;
use se_datagen::water::{generate_stream, StreamBatch, WaterConfig};
use se_datagen::workload::water_anomaly_query;
use se_ontology::water_ontology;
use se_ontology::Ontology;
use se_rdf::{Graph, Term, Triple};
use se_sparql::QueryOptions;
use se_stream::{
    CompactionPolicy, HybridStore, IngestMode, ShardedHybridStore, StreamSession, SyncPolicy,
    WalConfig,
};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const BATCHES: usize = 32;
/// The heavier multi-shard workload: more stations → more observation
/// subgraphs per batch spread across the predicate groups.
const LAT_STATIONS: usize = 24;
/// Criterion iterates the whole stream per sample — keep it short.
const CRIT_BATCHES: usize = 48;
/// The latency trajectory needs a real tail: ≥200 batches so p99 is an
/// interpolated rank statistic, not the sample maximum.
const LAT_BATCHES: usize = 240;
const SHARDS: usize = 4;
/// Small-batch sweep: ops per batch across the spawn/pool break-even.
const SWEEP_SIZES: [usize; 3] = [32, 256, 2048];
const SWEEP_BATCHES: usize = 64;

fn stream_ingest(c: &mut Criterion) {
    let onto = water_ontology();
    let cfg = WaterConfig {
        stations: 4,
        rounds: 1,
        anomaly_rate: 0.15,
        seed: 21,
    };
    let batches = generate_stream(&cfg, BATCHES, 4);
    let query = water_anomaly_query();

    let mut group = c.benchmark_group("stream_ingest");
    group.sample_size(10);

    // One long-lived hybrid session: ingest + continuous query per batch,
    // overlay compacting under a realistic policy.
    group.bench_function("hybrid_ingest_and_query_32_batches", |b| {
        b.iter(|| {
            let store = HybridStore::build(&onto, &Graph::new())
                .unwrap()
                .with_policy(CompactionPolicy { max_overlay: 1024 });
            let mut session = StreamSession::new(store);
            session
                .register_query("anomaly", &query, QueryOptions::default())
                .unwrap();
            let mut alerts = 0usize;
            for batch in &batches {
                let out = session.apply_batch(&batch.inserts, &batch.deletes).unwrap();
                alerts += out.results[0].results.len();
            }
            alerts
        })
    });

    // The paper's execution model: rebuild the whole store per batch.
    group.bench_function("full_rebuild_and_query_32_batches", |b| {
        b.iter(|| {
            let mut reference: BTreeSet<Triple> = BTreeSet::new();
            let mut alerts = 0usize;
            for batch in &batches {
                for t in &batch.deletes {
                    reference.remove(t);
                }
                for t in &batch.inserts {
                    reference.insert(t.clone());
                }
                let store = SuccinctEdgeStore::build(
                    &onto,
                    &Graph::from_triples(reference.iter().cloned()),
                )
                .unwrap();
                alerts += se_sparql::execute_query(&store, &query, &QueryOptions::default())
                    .unwrap()
                    .len();
            }
            alerts
        })
    });

    // Continuous-query latency on a view with a dirty (uncompacted)
    // overlay — the steady-state read cost between compactions.
    let mut dirty = HybridStore::build(&onto, &Graph::new())
        .unwrap()
        .with_policy(CompactionPolicy {
            max_overlay: usize::MAX,
        });
    for batch in &batches {
        dirty.apply(&batch.inserts, &batch.deletes).unwrap();
    }
    let parsed = se_sparql::parse_query(&query).unwrap();
    let opts = QueryOptions::default();
    group.bench_function("continuous_query_on_dirty_overlay", |b| {
        b.iter(|| {
            se_sparql::exec::execute(&dirty, &parsed, &opts)
                .unwrap()
                .len()
        })
    });

    // Compaction cost: fold the accumulated overlay into the baseline.
    group.bench_function("compaction_of_32_batch_overlay", |b| {
        b.iter(|| {
            let mut h = dirty.clone();
            h.compact().unwrap();
            h.baseline().len()
        })
    });

    // ---- sharded vs single: multi-shard ingest throughput -----------------
    let heavy_cfg = WaterConfig {
        stations: LAT_STATIONS,
        rounds: 1,
        anomaly_rate: 0.15,
        seed: 77,
    };
    let heavy = generate_stream(&heavy_cfg, CRIT_BATCHES, 6);
    let policy = CompactionPolicy { max_overlay: 2048 };

    group.bench_function("single_hybrid_ingest_heavy_stream", |b| {
        b.iter(|| {
            let mut h = HybridStore::build(&onto, &Graph::new())
                .unwrap()
                .with_policy(policy);
            for batch in &heavy {
                h.apply(&batch.inserts, &batch.deletes).unwrap();
            }
            se_core::TripleSource::len(&h)
        })
    });
    group.bench_function("sharded_ingest_heavy_stream_4_shards", |b| {
        b.iter(|| {
            let mut h = ShardedHybridStore::build(&onto, &Graph::new(), SHARDS)
                .unwrap()
                .with_policy(policy)
                .with_background_compaction(true);
            for batch in &heavy {
                h.apply(&batch.inserts, &batch.deletes).unwrap();
            }
            h.flush_compactions();
            se_core::TripleSource::len(&h)
        })
    });

    group.finish();

    // ---- apply-latency percentiles + machine-readable trajectory ---------
    // A longer stream than the criterion benches: p99 over 240 batches is
    // a real (interpolated) tail statistic instead of the sample max.
    let heavy_long = generate_stream(&heavy_cfg, LAT_BATCHES, 6);
    emit_latency_report(&heavy_long);
}

/// Per-batch wall-clock `apply` latencies of one engine over a stream.
struct LatencyRun {
    label: String,
    per_batch: Vec<Duration>,
    total: Duration,
    compactions: usize,
    final_len: usize,
    /// How the batches were applied (from `ShardedStats`; the single
    /// store is all-inline by construction).
    pooled_batches: usize,
    inline_batches: usize,
    scoped_batches: usize,
}

/// Rank-interpolated percentile: the q-quantile of n samples sits at
/// rank `q·(n-1)`; interpolating linearly between the bracketing order
/// statistics makes p99 a genuine tail estimate instead of collapsing to
/// the maximum (which it did with 48 samples, where `round(0.99·47)` is
/// the last index).
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let a = sorted[lo].as_secs_f64();
    let b = sorted[hi].as_secs_f64();
    Duration::from_secs_f64(a + (b - a) * (rank - lo as f64))
}

fn run_latency<B, F>(label: &str, batches: &[B], mut apply: F) -> LatencyRun
where
    F: FnMut(&B),
{
    let t0 = Instant::now();
    let mut per_batch = Vec::with_capacity(batches.len());
    for batch in batches {
        let t = Instant::now();
        apply(batch);
        per_batch.push(t.elapsed());
    }
    let total = t0.elapsed();
    LatencyRun {
        label: label.to_string(),
        per_batch,
        total,
        compactions: 0,
        final_len: 0,
        pooled_batches: 0,
        inline_batches: 0,
        scoped_batches: 0,
    }
}

impl LatencyRun {
    fn take_sharded_stats(&mut self, store: &ShardedHybridStore) {
        let stats = store.stats();
        self.compactions = stats.compactions;
        self.pooled_batches = stats.pooled_batches;
        self.inline_batches = stats.inline_batches;
        self.scoped_batches = stats.scoped_batches;
        self.final_len = se_core::TripleSource::len(store);
    }

    fn json(&self) -> String {
        let mut sorted = self.per_batch.clone();
        sorted.sort_unstable();
        format!(
            "{{\"label\":\"{}\",\"batches\":{},\"total_ms\":{:.3},\"p50_us\":{:.1},\"p99_us\":{:.1},\"max_us\":{:.1},\"compactions\":{},\"final_triples\":{},\"pooled_batches\":{},\"inline_batches\":{},\"scoped_batches\":{}}}",
            self.label,
            self.per_batch.len(),
            self.total.as_secs_f64() * 1e3,
            percentile(&sorted, 0.50).as_secs_f64() * 1e6,
            percentile(&sorted, 0.99).as_secs_f64() * 1e6,
            sorted.last().copied().unwrap_or_default().as_secs_f64() * 1e6,
            self.compactions,
            self.final_len,
            self.pooled_batches,
            self.inline_batches,
            self.scoped_batches,
        )
    }
}

/// Synthetic uniform batches for the break-even sweep: `size` object
/// triples per batch over 8 predicates (spread across the shards by the
/// round-robin policy), fresh subjects every batch so every op is an
/// effective insert.
fn sweep_ontology() -> Ontology {
    let mut o = Ontology::new();
    for p in 0..8 {
        o.add_object_property(&format!("http://sweep.example/p{p}"));
    }
    o
}

fn sweep_stream(size: usize, batches: usize) -> Vec<StreamBatch> {
    (0..batches)
        .map(|b| StreamBatch {
            inserts: Graph::from_triples((0..size).map(|i| {
                Triple::new(
                    Term::iri(format!("http://sweep.example/s{b}_{i}")),
                    Term::iri(format!("http://sweep.example/p{}", i % 8)),
                    Term::iri(format!("http://sweep.example/o{}", i % 16)),
                )
            })),
            deletes: Graph::new(),
        })
        .collect()
}

/// Persistence trajectory: the v02 delta-aware save against the legacy
/// compact-then-dump shutdown, on a dirty store. Three v02 cells pin the
/// O(delta) claim: 4x the overlay must move the save time, 4x the
/// *baseline* must not (the baseline layer file is reused, not
/// rewritten). Every cell measures the steady state (the cold save that
/// writes the baseline file runs once, untimed).
#[allow(deprecated)] // the v01 compact-then-dump comparator
fn persistence_runs(onto: &Ontology) -> Vec<LatencyRun> {
    const SAVE_ITERS: usize = 12;
    const DUMP_ITERS: usize = 3;
    let root = std::env::temp_dir().join(format!("se-bench-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Accumulated insert-only water graphs: the 1x and 4x baselines.
    let graph_of = |batches: usize| {
        let cfg = WaterConfig {
            stations: LAT_STATIONS,
            rounds: 1,
            anomaly_rate: 0.1,
            seed: 5,
        };
        let mut g = Graph::new();
        for b in generate_stream(&cfg, batches, batches) {
            for t in &b.inserts {
                g.insert(t.clone());
            }
        }
        g
    };
    // A dirty store: `ops` synthetic overlay inserts, compaction off.
    let build_dirty = |base: &Graph, ops: usize| {
        let mut h = HybridStore::build(onto, base)
            .unwrap()
            .with_policy(CompactionPolicy {
                max_overlay: usize::MAX,
            });
        for b in sweep_stream(ops, 1) {
            h.apply(&b.inserts, &b.deletes).unwrap();
        }
        h
    };

    let mut runs = Vec::new();
    let base1 = graph_of(40);
    let base4 = graph_of(160);
    let iters: Vec<usize> = (0..SAVE_ITERS).collect();
    for (label, base, ops) in [
        ("persist_v02_save_dirty", &base1, 512usize),
        ("persist_v02_save_4x_overlay", &base1, 2048),
        ("persist_v02_save_4x_baseline", &base4, 512),
    ] {
        let h = build_dirty(base, ops);
        let dir = root.join(label);
        h.save(&dir).unwrap(); // cold save writes the baseline file once
        let mut run = run_latency(label, &iters, |_| {
            let report = h.save(&dir).unwrap();
            assert_eq!(report.baseline_files_written, 0, "steady state");
        });
        run.final_len = se_core::TripleSource::len(&h);
        runs.push(run);
    }

    // The legacy shutdown: compact (full rebuild) + dump v01.
    {
        let h = build_dirty(&base1, 512);
        let path = root.join("legacy.v01");
        let iters: Vec<usize> = (0..DUMP_ITERS).collect();
        let mut run = run_latency("persist_v01_compact_then_dump", &iters, |_| {
            let mut doomed = h.clone();
            doomed.save_to_file(&path).unwrap();
        });
        run.final_len = se_core::TripleSource::len(&h);
        runs.push(run);
    }

    // Sharded manifest: steady-state save and a full load.
    {
        let mut h = ShardedHybridStore::build(onto, &base1, SHARDS)
            .unwrap()
            .with_policy(CompactionPolicy {
                max_overlay: usize::MAX,
            });
        for b in sweep_stream(512, 1) {
            h.apply(&b.inserts, &b.deletes).unwrap();
        }
        let dir = root.join("sharded");
        h.save(&dir).unwrap();
        let mut run = run_latency("persist_v02_sharded_save", &iters, |_| {
            h.save(&dir).unwrap();
        });
        run.take_sharded_stats(&h);
        runs.push(run);
        let load_iters: Vec<usize> = (0..4).collect();
        let mut run = run_latency("persist_v02_sharded_load", &load_iters, |_| {
            let back = ShardedHybridStore::load(&dir, onto).unwrap();
            std::hint::black_box(se_core::TripleSource::len(&back));
        });
        run.final_len = se_core::TripleSource::len(&h);
        runs.push(run);
    }

    // The headline claim, asserted: an O(delta) shutdown beats the
    // O(rebuild) one outright (the gap is orders of magnitude; equality
    // here would mean the baseline skip regressed).
    let per_save = |label: &str| {
        let r = runs.iter().find(|r| r.label == label).unwrap();
        r.total.as_secs_f64() / r.per_batch.len() as f64
    };
    assert!(
        per_save("persist_v02_save_dirty") < per_save("persist_v01_compact_then_dump"),
        "v02 O(delta) save must beat compact-then-dump"
    );

    let _ = std::fs::remove_dir_all(&root);
    runs
}

/// WAL sync-policy sweep: per-batch `apply` latency with a write-ahead
/// log attached under each [`SyncPolicy`], against the same stream with
/// no log at all. The spread is the durability price list — per-batch
/// fsync (an ack is durable) down to OS-buffered (fastest, crash loss
/// up to the flush interval) — to weigh against `persist_v02_save_dirty`,
/// the checkpoint-granular alternative the WAL rides on top of.
fn wal_runs(onto: &Ontology) -> Vec<LatencyRun> {
    const WAL_BATCH_OPS: usize = 64;
    const WAL_BATCHES: usize = 48;
    let root = std::env::temp_dir().join(format!("se-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let batches = sweep_stream(WAL_BATCH_OPS, WAL_BATCHES);

    let cells: [(&str, Option<SyncPolicy>); 4] = [
        ("wal_append_off", None),
        ("wal_append_every_batch", Some(SyncPolicy::EveryBatch)),
        ("wal_append_every_8", Some(SyncPolicy::EveryN(8))),
        ("wal_append_os_buffered", Some(SyncPolicy::OsBuffered)),
    ];
    let mut runs = Vec::new();
    for (label, sync) in cells {
        let mut h = HybridStore::build(onto, &Graph::new())
            .unwrap()
            .with_policy(CompactionPolicy {
                max_overlay: usize::MAX,
            });
        if let Some(sync) = sync {
            let dir = root.join(label);
            h.attach_wal(
                &dir,
                WalConfig {
                    sync,
                    ..WalConfig::default()
                },
            )
            .unwrap();
        }
        let mut run = run_latency(label, &batches, |b| {
            h.apply(&b.inserts, &b.deletes).unwrap();
        });
        run.final_len = se_core::TripleSource::len(&h);
        run.inline_batches = batches.len();
        runs.push(run);
    }
    let _ = std::fs::remove_dir_all(&root);
    runs
}

/// One sweep cell: the given ingest mode over `size`-op batches, no
/// compaction (isolates routing + overlay insertion + hand-off cost).
fn sweep_run(onto: &Ontology, mode: IngestMode, mode_name: &str, size: usize) -> LatencyRun {
    let batches = sweep_stream(size, SWEEP_BATCHES);
    let mut store = ShardedHybridStore::build(onto, &Graph::new(), SHARDS)
        .unwrap()
        .with_policy(CompactionPolicy {
            max_overlay: usize::MAX,
        })
        .with_ingest_mode(mode);
    let mut run = run_latency(&format!("sweep_{mode_name}_{size}"), &batches, |b| {
        store.apply(&b.inserts, &b.deletes).unwrap();
    });
    run.take_sharded_stats(&store);
    run
}

/// The continuous-query section: registered queries × store size,
/// differential delta evaluation against full re-evaluation.
const CQ_LIVE_BATCHES: usize = 24;
const CQ_PRELOAD_BATCHES: usize = 48;

/// `n` incremental-eligible continuous queries (pure constant-predicate
/// BGPs) over the water vocabulary, cycling 8 distinct shapes — single
/// scans, two-pattern joins, and a DISTINCT projection.
fn continuous_queries(n: usize) -> Vec<String> {
    const SHAPES: [&str; 8] = [
        "SELECT ?s ?o WHERE { ?s sosa:observes ?o }",
        "SELECT ?s ?o WHERE { ?s sosa:hosts ?o }",
        "SELECT ?o ?r WHERE { ?o sosa:hasResult ?r }",
        "SELECT ?o ?t WHERE { ?o sosa:resultTime ?t }",
        "SELECT ?st ?obs WHERE { ?st sosa:hosts ?sen . ?sen sosa:observes ?obs }",
        "SELECT ?sen ?res WHERE { ?sen sosa:observes ?obs . ?obs sosa:hasResult ?res }",
        "SELECT ?obs ?t WHERE { ?obs sosa:hasResult ?res . ?obs sosa:resultTime ?t }",
        "SELECT DISTINCT ?sen WHERE { ?sen sosa:observes ?obs }",
    ];
    (0..n)
        .map(|i| {
            format!(
                "PREFIX sosa: <http://www.w3.org/ns/sosa/> {}",
                SHAPES[i % SHAPES.len()]
            )
        })
        .collect()
}

/// One continuous-query cell: `nq` registered queries riding `live`
/// small batches on top of a `preload`ed store. `incremental` keeps the
/// registry's differential strategy; otherwise every query is demoted to
/// full re-evaluation (`force_full`) — the per-batch O(store) model the
/// delta path replaces. Seeding runs untimed, so the timed region is
/// the steady state. Eval counters ride the JSON's pooled/inline slots.
fn continuous_run(
    onto: &Ontology,
    label: &str,
    preload: &[StreamBatch],
    live: &[StreamBatch],
    nq: usize,
    incremental: bool,
) -> LatencyRun {
    let store = ShardedHybridStore::build(onto, &Graph::new(), SHARDS)
        .unwrap()
        .with_policy(CompactionPolicy { max_overlay: 4096 });
    let mut session = StreamSession::new(store);
    for b in preload {
        session.apply_batch(&b.inserts, &b.deletes).unwrap();
    }
    for (i, q) in continuous_queries(nq).iter().enumerate() {
        let id = format!("q{i}");
        session
            .register_query(&id, q, QueryOptions::default())
            .unwrap();
        if !incremental {
            assert!(session.registry_mut().force_full(&id));
        }
    }
    // Steady state pushes changes, not full sets — don't bill the delta
    // path for materializing answers nobody asked for.
    session.registry_mut().set_emit_full(false);
    let (seed, steady) = live.split_first().unwrap();
    session.apply_batch(&seed.inserts, &seed.deletes).unwrap();
    let mut run = run_latency(label, steady, |b| {
        session.apply_batch(&b.inserts, &b.deletes).unwrap();
    });
    let stats = session.stream_stats();
    run.pooled_batches = stats.incremental_evals as usize;
    run.inline_batches = stats.full_evals as usize;
    run.compactions = session.store().stats().compactions;
    run.final_len = se_core::TripleSource::len(session.store());
    run
}

/// The continuous-query trajectory: {4, 16} queries × {small, heavy}
/// store, incremental vs forced-full, over the same live stream of
/// small batches. Asserts the headline claim: at 16 queries on the
/// heavy store, differential evaluation beats per-batch full
/// re-evaluation by at least 5x.
fn continuous_runs(onto: &Ontology) -> Vec<LatencyRun> {
    let preload_cfg = WaterConfig {
        stations: LAT_STATIONS,
        rounds: 1,
        anomaly_rate: 0.15,
        seed: 33,
    };
    // Wide retention: the preload is insert-only bulk, so the heavy
    // store dwarfs each live batch and O(store) vs O(delta) separates.
    let preload = generate_stream(&preload_cfg, CQ_PRELOAD_BATCHES, CQ_PRELOAD_BATCHES);
    let live_cfg = WaterConfig {
        stations: 2,
        rounds: 1,
        anomaly_rate: 0.15,
        seed: 41,
    };
    // A short retention window keeps expiry deletions in the deltas.
    let live = generate_stream(&live_cfg, CQ_LIVE_BATCHES, 3);

    let mut runs = Vec::new();
    for (store_label, preload) in [("small_store", &[][..]), ("heavy_store", &preload[..])] {
        for nq in [4usize, 16] {
            for (mode, incremental) in [("incremental", true), ("full", false)] {
                runs.push(continuous_run(
                    onto,
                    &format!("continuous_{mode}_{nq}q_{store_label}"),
                    preload,
                    &live,
                    nq,
                    incremental,
                ));
            }
        }
    }

    let total = |label: &str| {
        runs.iter()
            .find(|r| r.label == label)
            .unwrap()
            .total
            .as_secs_f64()
    };
    let win =
        total("continuous_full_16q_heavy_store") / total("continuous_incremental_16q_heavy_store");
    assert!(
        win >= 5.0,
        "differential evaluation must beat full re-evaluation by >=5x \
         at 16 queries on the heavy store (got {win:.2}x)"
    );
    runs
}

/// The server section: 16 concurrent TCP writers (group commit) against
/// 16 clients' worth of serial single-client applies.
const SRV_WRITERS: usize = 16;
const SRV_ROUNDS: usize = 16;
const SRV_OPS: usize = 8;
const SRV_READER_QUERIES: usize = 200;

/// Writer `k`'s round-`r` batch: disjoint per-writer IRIs, so concurrent
/// group commit and the serial replay converge on the same store.
fn server_batch(k: usize, r: usize) -> Graph {
    Graph::from_triples((0..SRV_OPS).map(|i| {
        Triple::new(
            Term::iri(format!("http://srv.example/w{k}_s{r}_{i}")),
            Term::iri(format!("http://srv.example/p{}", i % 8)),
            Term::iri(format!("http://srv.example/o{}", i % 16)),
        )
    }))
}

/// A sharded store preloaded with enough water data that the registered
/// anomaly query has real per-batch re-evaluation cost — the cost group
/// commit amortizes across coalesced writers.
fn server_preloaded_store(onto: &Ontology) -> ShardedHybridStore {
    let cfg = WaterConfig {
        stations: LAT_STATIONS,
        rounds: 1,
        anomaly_rate: 0.15,
        seed: 9,
    };
    let mut store = ShardedHybridStore::build(onto, &Graph::new(), SHARDS)
        .unwrap()
        .with_policy(CompactionPolicy { max_overlay: 4096 });
    for b in generate_stream(&cfg, 16, 16) {
        store.apply(&b.inserts, &b.deletes).unwrap();
    }
    store
}

/// The se-server trajectory: group-commit ingest latency for 16
/// concurrent TCP writers vs the same 256 writes as per-client serial
/// applies (each paying its own continuous-query re-evaluation — the
/// regime the group-commit tick exists to amortize), plus snapshot-read
/// QPS at 1/4/16 concurrent readers while a writer keeps ingesting.
/// Asserts the headline claim: coalescing beats serial outright.
fn server_runs(onto: &Ontology) -> Vec<LatencyRun> {
    use se_server::{Client, Server, ServerConfig};

    let query = water_anomaly_query();
    let opts = QueryOptions::default();
    let mut runs = Vec::new();

    // ---- serial comparator: one apply (+ query re-eval) per client write.
    let mut session = StreamSession::new(server_preloaded_store(onto));
    session
        .register_query("anomaly", &query, opts.clone())
        .unwrap();
    let serial_batches: Vec<Graph> = (0..SRV_ROUNDS)
        .flat_map(|r| (0..SRV_WRITERS).map(move |k| server_batch(k, r)))
        .collect();
    let mut serial = run_latency("server_serial_16_clients", &serial_batches, |g| {
        session.apply_batch(g, &Graph::new()).unwrap();
    });
    serial.final_len = se_core::TripleSource::len(session.store());

    // ---- group commit: the same 256 writes from 16 concurrent clients.
    let server = Server::start(
        server_preloaded_store(onto),
        "127.0.0.1:0",
        ServerConfig {
            tick: Duration::from_millis(1),
        },
    )
    .unwrap();
    let addr = server.addr();
    let mut sub = Client::connect(addr).unwrap();
    sub.subscribe("anomaly", &query, &opts).unwrap();
    // Drain pushes so the subscriber's socket never backpressures the
    // writer; detached — it ends when the process does.
    std::thread::spawn(move || while sub.next_push().is_ok() {});

    let t0 = Instant::now();
    let handles: Vec<_> = (0..SRV_WRITERS)
        .map(|k| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut lats = Vec::with_capacity(SRV_ROUNDS);
                let mut max_coalesced = 0u32;
                for r in 0..SRV_ROUNDS {
                    let t = Instant::now();
                    let ack = c.ingest(&server_batch(k, r), &Graph::new()).unwrap();
                    lats.push(t.elapsed());
                    max_coalesced = max_coalesced.max(ack.coalesced);
                }
                (lats, max_coalesced)
            })
        })
        .collect();
    let mut per_batch = Vec::with_capacity(SRV_WRITERS * SRV_ROUNDS);
    let mut max_coalesced = 0u32;
    for h in handles {
        let (lats, mc) = h.join().unwrap();
        per_batch.extend(lats);
        max_coalesced = max_coalesced.max(mc);
    }
    let mut group_commit = LatencyRun {
        label: "server_group_commit_16_writers".into(),
        per_batch,
        total: t0.elapsed(),
        compactions: 0,
        final_len: serial.final_len,
        pooled_batches: 0,
        inline_batches: 0,
        scoped_batches: 0,
    };
    // Stash how hard the tick actually coalesced where the JSON has a
    // free slot (documented in docs/server.md).
    group_commit.pooled_batches = max_coalesced as usize;
    assert!(
        max_coalesced >= 2,
        "16 concurrent writers must coalesce at least once"
    );
    assert!(
        group_commit.total < serial.total,
        "group-commit coalescing ({:.1} ms) must beat {} serial single-client applies ({:.1} ms)",
        group_commit.total.as_secs_f64() * 1e3,
        SRV_WRITERS * SRV_ROUNDS,
        serial.total.as_secs_f64() * 1e3,
    );
    runs.push(serial);
    runs.push(group_commit);

    // ---- snapshot-read QPS at 1/4/16 readers during ingest.
    let read_query = "PREFIX sosa: <http://www.w3.org/ns/sosa/> \
                      SELECT ?s ?o WHERE { ?s sosa:observes ?o }";
    for readers in [1usize, 4, 16] {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let ingest_stop = std::sync::Arc::clone(&stop);
        let feeder = std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut r = SRV_ROUNDS; // fresh subjects beyond the commit phase
            while !ingest_stop.load(std::sync::atomic::Ordering::Acquire) {
                c.ingest(&server_batch(0, r), &Graph::new()).unwrap();
                r += 1;
            }
        });
        let t0 = Instant::now();
        let reader_handles: Vec<_> = (0..readers)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let mut lats = Vec::with_capacity(SRV_READER_QUERIES);
                    for _ in 0..SRV_READER_QUERIES {
                        let t = Instant::now();
                        c.query(read_query, &QueryOptions::default()).unwrap();
                        lats.push(t.elapsed());
                    }
                    lats
                })
            })
            .collect();
        let per_batch: Vec<Duration> = reader_handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let total = t0.elapsed();
        stop.store(true, std::sync::atomic::Ordering::Release);
        feeder.join().unwrap();
        runs.push(LatencyRun {
            label: format!("server_read_qps_{readers}_readers"),
            per_batch,
            total,
            compactions: 0,
            final_len: 0,
            pooled_batches: 0,
            inline_batches: 0,
            scoped_batches: 0,
        });
    }

    let mut closer = Client::connect(addr).unwrap();
    closer.shutdown().unwrap();
    server.join();
    runs
}

/// Replication section: epochs in the leader's WAL when a fresh
/// follower attaches (all served as records — the leader checkpoints at
/// epoch 0, before the first apply, so the log covers the full history).
const REPL_EPOCHS: usize = 256;
/// Fresh catch-ups per cell; each `per_batch` sample is one full
/// bootstrap-to-caught-up wall time over `REPL_EPOCHS` records.
const REPL_TRIALS: usize = 3;
/// Live ticks measured for the staleness cell.
const REPL_LIVE_ROUNDS: usize = 120;

/// The replication trajectory: a fresh follower replaying the leader's
/// full WAL tail over TCP (`replication_catchup` — records/s is
/// `pooled_batches / per-trial time`), against the same records applied
/// straight into a local session (`replication_local_replay`, the
/// comparator that cancels machine speed), plus `replication_staleness`:
/// commit-to-visible lag per leader tick, measured from the leader's
/// ingest ack until a STATS poll sees the follower at that epoch.
fn replication_runs(onto: &Ontology) -> Vec<LatencyRun> {
    use se_server::{Client, Replica, ReplicaConfig, Server, ServerConfig};

    let dir = std::env::temp_dir().join(format!("se_bench_repl_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let batches: Vec<Graph> = (0..REPL_EPOCHS)
        .map(|e| server_batch(e % SRV_WRITERS, e / SRV_WRITERS))
        .collect();

    // ---- comparator: the same records applied in-process — what
    // catch-up would cost with the frame shipping removed.
    let mut local_trials = Vec::with_capacity(REPL_TRIALS);
    let mut local_len = 0;
    for _ in 0..REPL_TRIALS {
        let store = ShardedHybridStore::build(onto, &Graph::new(), 2).unwrap();
        let mut session = StreamSession::new(store);
        let t = Instant::now();
        for b in &batches {
            session.apply_batch(b, &Graph::new()).unwrap();
        }
        local_trials.push(t.elapsed());
        local_len = se_core::TripleSource::len(session.store());
    }

    // ---- leader: WAL attached at epoch 0 (checkpointing the empty
    // store), then every epoch applied before the server starts — the
    // log covers the full history, so catch-up is pure record replay,
    // never a snapshot bootstrap.
    let mut store = ShardedHybridStore::build(onto, &Graph::new(), SHARDS).unwrap();
    store.attach_wal(&dir, WalConfig::default()).unwrap();
    for b in &batches {
        store.apply(b, &Graph::new()).unwrap();
    }
    let server = Server::start(
        store,
        "127.0.0.1:0",
        ServerConfig {
            tick: Duration::from_millis(1),
        },
    )
    .unwrap();
    let addr = server.addr();
    let mut leader = Client::connect(addr).unwrap();
    let target = leader.stats().unwrap().epoch;
    assert_eq!(target, REPL_EPOCHS as u64);

    // ---- catch-up: fresh followers, each bootstrapping from epoch 0.
    // The last one stays attached and feeds the staleness cell.
    let mut catchup_trials = Vec::with_capacity(REPL_TRIALS);
    let mut follower_len = 0u64;
    let mut live: Option<(Replica, Client)> = None;
    for trial in 0..REPL_TRIALS {
        let t = Instant::now();
        let replica = Replica::start(
            onto.clone(),
            addr,
            "127.0.0.1:0",
            ReplicaConfig {
                shards: 2,
                reconnect: Duration::from_millis(50),
            },
        )
        .unwrap();
        let mut follower = Client::connect(replica.addr()).unwrap();
        while follower.stats().unwrap().epoch < target {
            std::thread::yield_now();
        }
        catchup_trials.push(t.elapsed());
        follower_len = follower.stats().unwrap().triples;
        if trial + 1 == REPL_TRIALS {
            live = Some((replica, follower));
        } else {
            follower.shutdown().unwrap();
            replica.join();
        }
    }
    assert_eq!(
        follower_len as usize, local_len,
        "caught-up follower must converge on the local replay"
    );
    let ls = leader.stats().unwrap();
    assert_eq!(
        ls.repl_snapshots_served, 0,
        "a WAL covering epoch 0 must serve catch-up as records, not snapshots"
    );

    // ---- live staleness: one batch per round; the lag clock starts at
    // the leader's durable ack and stops when the follower's published
    // epoch covers it (each poll is a full STATS round trip, so the
    // samples include the cost a real monitor would pay to observe it).
    let (replica, mut follower) = live.expect("last catch-up trial keeps its follower");
    let mut lags = Vec::with_capacity(REPL_LIVE_ROUNDS);
    let t0 = Instant::now();
    for r in 0..REPL_LIVE_ROUNDS {
        let ack = leader
            .ingest(
                &server_batch(r % SRV_WRITERS, 100 + r / SRV_WRITERS),
                &Graph::new(),
            )
            .unwrap();
        let t = Instant::now();
        while follower.stats().unwrap().epoch < ack.epoch {
            std::thread::yield_now();
        }
        lags.push(t.elapsed());
    }
    let live_total = t0.elapsed();

    follower.shutdown().unwrap();
    replica.join();
    leader.shutdown().unwrap();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);

    vec![
        LatencyRun {
            label: "replication_local_replay".to_string(),
            per_batch: local_trials.clone(),
            total: local_trials.iter().sum(),
            compactions: 0,
            final_len: local_len,
            pooled_batches: REPL_EPOCHS,
            inline_batches: 0,
            scoped_batches: 0,
        },
        LatencyRun {
            label: "replication_catchup".to_string(),
            per_batch: catchup_trials.clone(),
            total: catchup_trials.iter().sum(),
            compactions: 0,
            final_len: follower_len as usize,
            pooled_batches: REPL_EPOCHS,
            inline_batches: 0,
            scoped_batches: 0,
        },
        LatencyRun {
            label: "replication_staleness".to_string(),
            per_batch: lags,
            total: live_total,
            compactions: 0,
            final_len: 0,
            pooled_batches: REPL_LIVE_ROUNDS,
            inline_batches: 0,
            scoped_batches: 0,
        },
    ]
}

/// Iterations per plan-cache cell: enough that the per-iteration µs
/// costs average cleanly, short enough to stay a footnote in the run.
const PLAN_ITERS: usize = 2000;

/// The plan-cache trajectory: the same point query executed cold
/// (parse + optimize + execute, every iteration) vs through a warmed
/// shared [`se_sparql::PlanCache`] (hash lookup + constant bind +
/// execute — zero parsing), plus the miss path on a fresh cache per
/// iteration (`plan_compile_vs_bind`: its gap to the cached cell is the
/// compile-vs-bind cost). Asserts the headline claim inline: cached
/// throughput ≥ 3x cold — machine-independent, both cells run the same
/// store on the same thread.
fn plan_cache_runs(onto: &Ontology) -> Vec<LatencyRun> {
    use se_sparql::PlanCache;

    let cfg = WaterConfig {
        stations: 2,
        rounds: 1,
        anomaly_rate: 0.15,
        seed: 7,
    };
    let mut store = HybridStore::build(onto, &Graph::new()).unwrap();
    // Two batches keep the answer set small: a serving-style point query
    // spends its time in parse + optimize + join ordering, not in the
    // scan — exactly the costs a cache hit skips.
    for b in generate_stream(&cfg, 2, 8) {
        store.apply(&b.inserts, &b.deletes).unwrap();
    }
    // A five-pattern chain off a bound subject, with two type checks.
    // Both paths run the same plan, starting from the bound subject's
    // probe; the cold path re-parses and re-compiles it per call.
    let text = "PREFIX sosa: <http://www.w3.org/ns/sosa/> \
                SELECT ?sensor ?obs ?r WHERE { \
                <http://engie.example/station/1> sosa:hosts ?sensor . \
                ?sensor a sosa:Sensor . \
                ?sensor sosa:observes ?obs . \
                ?obs a sosa:Observation . \
                ?obs sosa:hasResult ?r }";
    let opts = QueryOptions::default();
    let iters = vec![(); PLAN_ITERS];

    let rows = se_sparql::execute_query(&store, text, &opts).unwrap().len();
    assert!(rows > 0, "the point query must have answers");

    let mut cold = run_latency("point_query_cold_qps", &iters, |_| {
        se_sparql::execute_query(&store, text, &opts).unwrap();
    });
    cold.final_len = rows;

    let cache = PlanCache::new();
    cache.execute_text(&store, text, &opts).unwrap(); // warm
    let mut cached = run_latency("point_query_cached_qps", &iters, |_| {
        cache.execute_text(&store, text, &opts).unwrap();
    });
    cached.final_len = rows;
    let stats = cache.stats();
    assert_eq!(stats.hits, PLAN_ITERS as u64, "every timed run must hit");
    assert_eq!(stats.misses, 1, "only the warm-up parsed");

    // Miss path, isolated: a fresh cache per iteration pays parse +
    // compile + insert on top of the same execution.
    let mut compile = run_latency("plan_compile_vs_bind", &iters, |_| {
        let fresh = PlanCache::new();
        fresh.execute_text(&store, text, &opts).unwrap();
    });
    compile.final_len = rows;

    // Compare medians, not totals: a single descheduling blip in one
    // cell (tens of a 2000-iteration run's total) would swing a total
    // ratio, while the median is immune to tail outliers.
    let median = |r: &LatencyRun| {
        let mut sorted = r.per_batch.clone();
        sorted.sort_unstable();
        percentile(&sorted, 0.5)
    };
    let (cold_med, cached_med) = (median(&cold), median(&cached));
    assert!(
        cold_med >= cached_med * 3,
        "cold parse+optimize+execute (median {:.2} us) must be >= 3x cached \
         plan execution (median {:.2} us)",
        cold_med.as_secs_f64() * 1e6,
        cached_med.as_secs_f64() * 1e6,
    );
    vec![cold, cached, compile]
}

/// Runs the heavy stream through (a) the single store with inline
/// compaction and (b) the sharded store with background compaction, under
/// a deliberately tight compaction policy so several rebuilds land inside
/// the run — the off-hot-path win shows up as the p99 gap — plus the
/// small-batch sweep (scoped-spawn vs persistent pool at 32/256/2048 ops
/// per batch) demonstrating the break-even shift. Results go to stdout
/// and `BENCH_stream_ingest.json`.
fn emit_latency_report(heavy: &[StreamBatch]) {
    let onto = water_ontology();
    let tight = CompactionPolicy { max_overlay: 768 };

    let mut single = HybridStore::build(&onto, &Graph::new())
        .unwrap()
        .with_policy(tight);
    let mut single_run = run_latency("single_inline_compaction", heavy, |b| {
        single.apply(&b.inserts, &b.deletes).unwrap();
    });
    single_run.compactions = single.stats().compactions;
    single_run.final_len = se_core::TripleSource::len(&single);
    single_run.inline_batches = heavy.len();

    let mut sharded = ShardedHybridStore::build(&onto, &Graph::new(), SHARDS)
        .unwrap()
        .with_policy(tight)
        .with_background_compaction(true);
    let mut sharded_run = run_latency("sharded_background_compaction", heavy, |b| {
        sharded.apply(&b.inserts, &b.deletes).unwrap();
    });
    sharded.flush_compactions();
    sharded_run.take_sharded_stats(&sharded);

    assert_eq!(
        single_run.final_len, sharded_run.final_len,
        "engines must agree on the final store"
    );

    // The break-even sweep: per size, per-batch scoped spawns (what the
    // legacy parallel path cost whenever it engaged), the single-threaded
    // inline path (what the legacy adaptive gate actually ran below
    // PARALLEL_MIN_OPS), and the persistent pool.
    let sweep_onto = sweep_ontology();
    let mut runs = vec![single_run, sharded_run];
    for size in SWEEP_SIZES {
        runs.push(sweep_run(&sweep_onto, IngestMode::Scoped, "scoped", size));
        runs.push(sweep_run(&sweep_onto, IngestMode::Inline, "inline", size));
        runs.push(sweep_run(&sweep_onto, IngestMode::Pooled, "pooled", size));
    }
    runs.extend(continuous_runs(&onto));
    runs.extend(persistence_runs(&onto));
    runs.extend(wal_runs(&sweep_onto));
    runs.extend(server_runs(&onto));
    runs.extend(replication_runs(&onto));
    runs.extend(plan_cache_runs(&onto));

    let entries: Vec<String> = runs.iter().map(LatencyRun::json).collect();
    let json = format!(
        "{{\"bench\":\"stream_ingest\",\"batches\":{},\"stations\":{},\"shards\":{},\"sweep_batches\":{},\"runs\":[{}]}}\n",
        heavy.len(),
        LAT_STATIONS,
        SHARDS,
        SWEEP_BATCHES,
        entries.join(","),
    );
    println!("{json}");
    // Anchor at the workspace root regardless of the harness CWD.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_stream_ingest.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("note: could not write {}: {e}", path.display());
    }
}

criterion_group!(benches, stream_ingest);
criterion_main!(benches);
