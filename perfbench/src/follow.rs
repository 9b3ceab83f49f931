//! `stream_follow`: the `serve_query` leader plus a 2-shard `Replica`
//! attached to it. Connection A subscribes the anomaly query on the
//! leader and ingests water batches open-loop at one fixed rate;
//! connection B subscribes the same query on the follower. An operation
//! is one batch, from its due time until the follower pushes its epoch:
//! overlay apply, WAL append and fsync, delta capture, differential
//! evaluation, record shipping, replica replay and push encoding all sit
//! on that path, and compactions recur during the run.

use crate::stats::{fingerprint, median, ms, tail, us, Fingerprint};
use crate::water::{self, Leader, WorkDir};
use crate::Report;
use se_core::SuccinctEdgeStore;
use se_datagen::workload::water_anomaly_query;
use se_server::protocol::write_graph;
use se_server::{Client, Replica, ReplicaConfig};
use se_sparql::{execute_query, PlanCache, QueryOptions};
use se_stream::{ShardedHybridStore, StreamSession};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ingest rate (batches/s). Every batch costs tens of ms of CPU on both
/// leader and follower, so on two shared cores the rate sets how much
/// host CPU steal a run attracts and with it how far p50 moves between
/// runs: interleaved 8-seed runs spread p50 by 0.37 (IQR / median) at
/// 4/s against 0.22 at 3/s, and 6-seed runs by 0.15 at 3/s against 0.04
/// at 2/s. At 2/s one batch's follower replay rarely overlaps the next
/// batch, and the ack tail stays far under the 500 ms mean gap.
const INGEST_PER_S: f64 = 2.0;
const FOLLOWER_SHARDS: usize = 2;
const SUB: &str = "anomaly";
/// How long the follower may take to catch up before the run counts it
/// as stalled.
const CATCH_UP: Duration = Duration::from_secs(10);

struct Push {
    epoch: u64,
    at: Instant,
    fp: Fingerprint,
}

/// The leader, its follower and both client connections, subscribed and
/// primed.
struct Stack {
    leader: Leader,
    replica: Replica,
    a: Client,
    b: Client,
    /// Pushes seen while priming (checked by the oracle).
    primed: Vec<Push>,
}

/// Leader set-up, follower start and catch-up, both subscriptions, and
/// one warm-up batch (`input.run[0]`) whose initial full pushes prime
/// both subscribers.
fn start(input: &water::Input, wal_dir: &Path) -> Result<Stack, String> {
    let leader = water::start_leader(input, wal_dir).map_err(|e| e.to_string())?;
    let replica = Replica::start(
        input.onto.clone(),
        leader.addr,
        "127.0.0.1:0",
        ReplicaConfig {
            shards: FOLLOWER_SHARDS,
            ..ReplicaConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut a = water::connect(leader.addr).map_err(|e| e.to_string())?;
    let mut b = water::connect(replica.addr()).map_err(|e| e.to_string())?;
    let target = a.stats().map_err(|e| e.to_string())?.epoch;
    let until = Instant::now() + CATCH_UP;
    while b.stats().map_err(|e| e.to_string())?.epoch < target {
        if Instant::now() > until {
            return Err("follower did not catch up".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let q = water_anomaly_query();
    let opts = QueryOptions::default();
    a.subscribe(SUB, &q, &opts).map_err(|e| e.to_string())?;
    b.subscribe(SUB, &q, &opts).map_err(|e| e.to_string())?;
    let warm = &input.run[0];
    a.ingest(&warm.inserts, &warm.deletes)
        .map_err(|e| e.to_string())?;
    let mut primed = Vec::new();
    for c in [&mut a, &mut b] {
        let p = c.next_push().map_err(|e| e.to_string())?;
        primed.push(Push {
            epoch: p.epoch,
            at: Instant::now(),
            fp: fingerprint(&p.results),
        });
    }
    Ok(Stack {
        leader,
        replica,
        a,
        b,
        primed,
    })
}

/// Stops the follower, then the leader.
fn stop(a: Option<Client>, b: Option<Client>, leader: Leader, replica: Replica) -> bool {
    let raddr = replica.addr();
    let follower = water::shutdown(b, raddr, move || replica.join());
    let Leader { server, addr } = leader;
    let leader = water::shutdown(a, addr, move || server.join());
    follower && leader
}

/// Connection B's reader: every push with its arrival time, until the run
/// is over and the follower has reached `target` (or stalls).
fn follow_pushes(b: &mut Client, stop: &AtomicBool, target: &AtomicU64) -> (Vec<Push>, bool) {
    let mut pushes = Vec::new();
    b.set_read_timeout(Some(Duration::from_millis(200)));
    let mut stop_seen: Option<Instant> = None;
    loop {
        match b.next_push() {
            Ok(p) => pushes.push(Push {
                epoch: p.epoch,
                at: Instant::now(),
                fp: fingerprint(&p.results),
            }),
            Err(e) if Client::is_timeout(&e) => {}
            Err(_) => return (pushes, false),
        }
        if !stop.load(Ordering::Acquire) {
            continue;
        }
        let since = *stop_seen.get_or_insert_with(Instant::now);
        // The follower answers STATS on the thread that writes its
        // pushes, so once it reports the final epoch every push up to
        // it is already queued on this connection.
        let reached = b
            .stats()
            .is_ok_and(|s| s.epoch >= target.load(Ordering::Acquire));
        if reached {
            while let Ok(p) = b.next_push() {
                pushes.push(Push {
                    epoch: p.epoch,
                    at: Instant::now(),
                    fp: fingerprint(&p.results),
                });
            }
            b.set_read_timeout(Some(water::READ_TIMEOUT));
            return (pushes, true);
        }
        if since.elapsed() > CATCH_UP {
            return (pushes, false);
        }
    }
}

pub fn run(root: &Path, seed: u64, seconds: f64, traced: bool) -> Report {
    // Gaps average 1 / rate but may be as short as half of that.
    let batches = (2.0 * seconds * INGEST_PER_S).ceil() as usize + 1;
    let input = water::input(seed, batches + 1);
    let work = WorkDir::new(root, "stream_follow");
    let wal_dir = work.path("wal");
    let mut r = Report::new("stream_follow");
    let query = water_anomaly_query();
    let opts = QueryOptions::default();

    let mut setups = Vec::new();
    let mut stack = None;
    for rep in 0..water::SETUP_REPS {
        let t = Instant::now();
        let s = start(&input, &wal_dir).unwrap_or_else(|e| panic!("stream_follow set-up: {e}"));
        setups.push(t.elapsed().as_secs_f64());
        if rep + 1 < water::SETUP_REPS {
            let ok = stop(Some(s.a), Some(s.b), s.leader, s.replica);
            r.check(ok, "a set-up repetition's nodes stop");
        } else {
            stack = Some(s);
        }
    }
    let Stack {
        leader,
        replica,
        a,
        mut b,
        primed,
    } = stack.expect("at least one set-up");
    let laddr = leader.addr;

    let wal_before = water::dir_bytes(&wal_dir);
    let stop_flag = AtomicBool::new(false);
    let target = AtomicU64::new(u64::MAX);
    let start_at = Instant::now();
    let deadline = start_at + Duration::from_secs_f64(seconds);
    let mut a = Some(a);
    let resubscribe = || -> std::io::Result<Client> {
        let mut c = water::connect(laddr)?;
        c.subscribe(SUB, &query, &opts)?;
        Ok(c)
    };
    let (ingests, (follower_pushes, follower_done)) = std::thread::scope(|s| {
        let reader = s.spawn(|| follow_pushes(&mut b, &stop_flag, &target));
        let ingests = water::ingest_loop(
            &mut a,
            resubscribe,
            &input.run,
            1,
            INGEST_PER_S,
            seed,
            start_at,
            deadline,
        );
        let last = ingests.iter().filter_map(|g| g.ack.map(|k| k.epoch)).max();
        target.store(last.unwrap_or(0), Ordering::Release);
        stop_flag.store(true, Ordering::Release);
        (ingests, reader.join().expect("follower reader completes"))
    });
    let wal_growth = water::dir_bytes(&wal_dir).saturating_sub(wal_before);
    r.check(
        follower_done,
        "the follower reaches the leader's final epoch",
    );

    // Leader pushes queued on A while it waited for acks.
    let mut leader_pushes = Vec::new();
    if let Some(c) = a.as_mut() {
        c.set_read_timeout(Some(Duration::from_millis(200)));
        while let Ok(p) = c.next_push() {
            leader_pushes.push(Push {
                epoch: p.epoch,
                at: Instant::now(),
                fp: fingerprint(&p.results),
            });
        }
        c.set_read_timeout(Some(water::READ_TIMEOUT));
    }

    // ---- oracle: the mirror replays every batch; the anomaly answer at
    // each epoch is what every push for that epoch must carry.
    let mut mirror = water::preloaded_store(&input);
    let base = mirror.epoch();
    let sent = ingests.last().map_or(1, |g| g.k + 1);
    let mut expected = BTreeMap::new();
    let mut apply_ms = Vec::new();
    for b in &input.run[..sent] {
        let t = Instant::now();
        mirror
            .apply(&b.inserts, &b.deletes)
            .expect("mirror applies the batch");
        apply_ms.push(ms(t.elapsed()));
        let fp = execute_query(&mirror, &query, &opts)
            .map(|rs| fingerprint(&rs))
            .unwrap_or_default();
        expected.insert(mirror.epoch(), fp);
    }
    let mut ingested_ops = 0usize;
    let mut acks = Vec::new();
    let mut lateness = Vec::new();
    let mut visible = Vec::new();
    let mut lag = Vec::new();
    let mut uncovered = 0usize;
    let mut max_coalesced = 0u32;
    for g in &ingests {
        r.attempted += 1;
        lateness.push(ms(g.sent - g.due));
        let epoch = base + g.k as u64 + 1;
        let Some(ack) = g.ack.filter(|ack| ack.epoch == epoch) else {
            r.failed += 1;
            continue;
        };
        ingested_ops += water::ops(&input.run[g.k]);
        max_coalesced = max_coalesced.max(ack.coalesced);
        acks.push(ms(g.at - g.due));
        // The follower pushes only when the answer changes, so the
        // batch is visible with the first push at or after its epoch.
        match follower_pushes.iter().find(|p| p.epoch >= epoch) {
            Some(p) => {
                visible.push(ms(p.at - g.due));
                lag.push(ms(p.at.saturating_duration_since(g.at)));
            }
            None if follower_done => uncovered += 1,
            None => r.failed += 1,
        }
    }
    // The priming batch counts as one more operation: its pushes are
    // checked below like every other.
    r.attempted += 1;
    for p in primed.iter().chain(&leader_pushes).chain(&follower_pushes) {
        if expected.get(&p.epoch) != Some(&p.fp) {
            eprintln!("push at epoch {} does not match the mirror", p.epoch);
            r.failed += 1;
        }
    }
    let rebuilt = SuccinctEdgeStore::build(&input.onto, &mirror.materialize())
        .expect("mirror contents rebuild")
        .len();
    let follower_stats = b.stats().ok();
    r.check(
        follower_stats.is_some_and(|s| s.triples as usize == rebuilt),
        "follower triple count equals a from-scratch rebuild",
    );

    let (vis_tail, vis_pct) = tail(&visible);
    let (ack_tail, ack_pct) = tail(&acks);
    let wal_per_triple = wal_growth as f64 / ingested_ops.max(1) as f64;
    r.e2e("setup_s", median(&setups));
    r.e2e("p50_ms", median(&visible));
    r.layer("op.tail_ms", vis_tail);
    r.e2e("bytes_per_triple", wal_per_triple);
    r.named("visible_p50_ms", median(&visible), "ms");
    r.named("visible_tail_ms", vis_tail, "ms");
    r.named("ack_p50_ms", median(&acks), "ms");
    r.named("ack_tail_ms", ack_tail, "ms");
    r.named("wal_bytes_per_triple", wal_per_triple, "B/triple");
    r.info_num("samples", visible.len() as f64);
    r.info_num("tail_percentile", vis_pct);
    r.info_num("ack_tail_percentile", ack_pct);
    r.info_num("uncovered_batches", uncovered as f64);
    r.info_num("ingest_per_s", INGEST_PER_S);
    r.info_num("client_connections", 2.0);
    r.info_num("threads", 2.0);
    r.info_num("leader_shards", water::LEADER_SHARDS as f64);
    r.info_num("follower_shards", FOLLOWER_SHARDS as f64);
    r.info_num("tick_ms", ms(water::server_config().tick));
    r.info_str("sync_policy", &format!("{:?}", water::SYNC));
    r.info_num(
        "gen_late_max_ms",
        lateness.iter().copied().fold(0.0, f64::max),
    );

    if traced {
        r.layer("server.ack_p50_ms", median(&acks));
        r.layer("server.ack_tail_ms", ack_tail);
        r.layer("repl.lag_ms", median(&lag));
        r.layer("server.max_coalesced", f64::from(max_coalesced));
        r.layer("gen.late_p50_ms", median(&lateness));
        r.layer(
            "gen.late_max_ms",
            lateness.iter().copied().fold(0.0, f64::max),
        );
        let leader_stats = a.as_mut().and_then(|c| c.stats().ok());
        match (leader_stats, follower_stats) {
            (Some(l), Some(f)) => {
                r.layer(
                    "stream.incremental_evals",
                    (l.incremental_evals + f.incremental_evals) as f64,
                );
                r.layer("stream.full_evals", (l.full_evals + f.full_evals) as f64);
                r.layer("repl.records_shipped", l.repl_records_shipped as f64);
                r.layer("repl.snapshots_served", l.repl_snapshots_served as f64);
                r.layer("repl.resyncs", f.repl_resyncs as f64);
            }
            _ => r.check(false, "leader and follower answer STATS"),
        }
        mirror_layers(&mut r, &input, sent, &work, &apply_ms, median(&acks));
        r.layer("trace.overhead_pct", 0.0);
    }
    let ok = stop(a, Some(b), leader, replica);
    r.check(ok, "follower and leader stop on request");
    r
}

/// The identical batch sequence replayed in-process three times — plain
/// apply, apply with the WAL, and the server's session with the query
/// registered — so each stage's cost is the difference between two.
fn mirror_layers(
    r: &mut Report,
    input: &water::Input,
    sent: usize,
    work: &WorkDir,
    apply_ms: &[f64],
    ack_p50: f64,
) {
    let batches = &input.run[..sent];
    let wal_dir = work.path("mirror_wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut walled = water::preloaded_store(input);
    walled
        .attach_wal(&wal_dir, water::wal_config())
        .expect("mirror WAL attaches");
    let mut wal_ms = Vec::new();
    for b in batches {
        let t = Instant::now();
        walled
            .apply(&b.inserts, &b.deletes)
            .expect("mirror applies");
        wal_ms.push(ms(t.elapsed()));
    }
    drop(walled);

    let cq_dir = work.path("mirror_cq");
    let _ = std::fs::remove_dir_all(&cq_dir);
    let mut store: ShardedHybridStore = water::preloaded_store(input);
    store
        .attach_wal(&cq_dir, water::wal_config())
        .expect("mirror WAL attaches");
    // Configured as the leader's writer configures its session: shared
    // plan cache, change-only results, delta capture kept on for the
    // attached follower.
    let mut session = StreamSession::new(store);
    session
        .registry_mut()
        .set_plan_cache(Arc::new(PlanCache::new()));
    session.registry_mut().set_emit_full(false);
    session.set_force_delta_capture(true);
    session
        .register_query(SUB, &water_anomaly_query(), QueryOptions::default())
        .expect("anomaly query registers");
    let mut cq_ms = Vec::new();
    let mut encode_us = Vec::new();
    for b in batches {
        let t = Instant::now();
        session
            .apply_batch(&b.inserts, &b.deletes)
            .expect("mirror session applies");
        cq_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let mut buf = Vec::new();
        write_graph(&mut buf, &b.inserts).expect("batch encodes");
        write_graph(&mut buf, &b.deletes).expect("batch encodes");
        encode_us.push(us(t.elapsed()));
        std::hint::black_box(buf);
    }
    let st = session.store().stats();
    // Each stage is the median of per-batch differences between two
    // replays of the same batch, which cancels the batch's own size.
    let diff = |a: &[f64], b: &[f64]| -> f64 {
        median(&a.iter().zip(b).map(|(x, y)| x - y).collect::<Vec<_>>())
    };
    r.layer("stream.apply_ms", median(apply_ms));
    r.layer("stream.wal_ms", diff(&wal_ms, apply_ms));
    r.layer("stream.cq_eval_ms", diff(&cq_ms, &wal_ms));
    r.layer("stream.compactions", st.compactions as f64);
    r.layer("stream.compaction_ms_total", ms(st.total_compaction));
    r.layer("stream.swap_ms_total", ms(st.total_swap));
    r.layer("stream.pooled_batches", st.pooled_batches as f64);
    r.layer("stream.inline_batches", st.inline_batches as f64);
    r.layer("proto.encode_batch_us", median(&encode_us));
    r.layer(
        "server.ack_residual_ms",
        ack_p50 - median(&cq_ms) - median(&encode_us) / 1e3,
    );
}
