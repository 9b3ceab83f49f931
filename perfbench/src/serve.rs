//! `serve_query`: a `Server` on loopback serves the 4-shard water store
//! (preloaded, WAL attached). One client runs a closed loop of a seeded
//! three-class query mix; a second connection ingests at a low fixed rate
//! so the snapshot and the plan-cache epoch keep advancing. Reads beside
//! writes through `protocol`, the shared `PlanCache` and snapshot
//! execution.

use crate::stats::{fingerprint, median, ms, ns_per, tail, Fingerprint, SplitMix};
use crate::water::{self, Ingest, Leader, WorkDir};
use crate::Report;
use se_server::protocol::{read_result_set, write_result_set};
use se_server::{Client, PreparedQuery};
use se_sparql::{execute_query, PlanCache, QueryOptions};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Background ingest rate (batches/s): low, so reads dominate.
const INGEST_PER_S: f64 = 2.0;

/// Query classes and their share of the mix, in percent. The weights put
/// the median inside the point-chain cluster and the tail inside the
/// anomaly cluster, away from the boundary between two clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    /// Bound-station chain `<station> hosts ?s . ?s observes ?o . ?o
    /// resultTime ?t`, its constant varied across the stations.
    Point,
    /// `?s sosa:observes ?o`: every retained observation (~770 rows).
    Scan,
    /// The §2 anomaly query: reasoning, FILTER, BIND and regex.
    Anomaly,
}

const MIX: [(Class, u64); 3] = [(Class::Point, 70), (Class::Scan, 20), (Class::Anomaly, 10)];

const PREFIXES: &str = "PREFIX sosa: <http://www.w3.org/ns/sosa/>\n";

/// Every distinct query text: scan, anomaly, then one point chain per
/// station.
fn queries() -> Vec<(Class, String)> {
    let mut out = vec![
        (
            Class::Scan,
            format!("{PREFIXES}SELECT ?s ?o WHERE {{ ?s sosa:observes ?o }}"),
        ),
        (Class::Anomaly, se_datagen::workload::water_anomaly_query()),
    ];
    for st in 1..=water::STATIONS {
        out.push((
            Class::Point,
            format!(
                "{PREFIXES}SELECT ?s ?o ?t WHERE {{ <http://engie.example/station/{st}> \
                 sosa:hosts ?s . ?s sosa:observes ?o . ?o sosa:resultTime ?t }}"
            ),
        ));
    }
    out
}

/// Draws the next query of the mix: an index into [`queries`].
fn pick(rng: &mut SplitMix) -> usize {
    let mut roll = rng.below(100);
    for (class, weight) in MIX {
        if roll < weight {
            return match class {
                Class::Scan => 0,
                Class::Anomaly => 1,
                Class::Point => 2 + rng.below(water::STATIONS as u64) as usize,
            };
        }
        roll -= weight;
    }
    unreachable!("mix weights sum to 100")
}

/// One query reply: which text, the epoch it saw, its answer.
struct Reply {
    idx: usize,
    epoch: u64,
    fp: Fingerprint,
}

struct Sample {
    idx: usize,
    ms: f64,
    reply: Option<Reply>,
}

fn query_once(
    client: &mut Option<Client>,
    addr: SocketAddr,
    q: &PreparedQuery,
    idx: usize,
) -> Sample {
    if client.is_none() {
        *client = water::connect(addr).ok();
    }
    let t = Instant::now();
    let res = client.as_mut().map(|c| c.query_prepared(q));
    let dt = ms(t.elapsed());
    let reply = match res {
        Some(Ok(rows)) => Some(Reply {
            idx,
            epoch: rows.epoch,
            fp: fingerprint(&rows.results),
        }),
        _ => {
            *client = None;
            // Back off briefly so a dead server yields counted failures,
            // not a spin.
            std::thread::sleep(Duration::from_millis(10));
            None
        }
    };
    Sample { idx, ms: dt, reply }
}

pub fn run(root: &Path, seed: u64, seconds: f64, traced: bool) -> Report {
    // Gaps average 1 / rate but may be as short as half of that.
    let input = water::input(seed, (2.0 * seconds * INGEST_PER_S).ceil() as usize + 1);
    let work = WorkDir::new(root, "serve_query");
    let wal_dir = work.path("wal");
    let texts = queries();
    let opts = QueryOptions::default();
    let prepared: Vec<PreparedQuery> = texts
        .iter()
        .map(|(_, t)| Client::prepare(t, &opts).expect("query frame encodes"))
        .collect();
    let mut r = Report::new("serve_query");

    let mut setups = Vec::new();
    let mut leader = None;
    for rep in 0..water::SETUP_REPS {
        let t = Instant::now();
        let l = water::start_leader(&input, &wal_dir).expect("leader starts");
        setups.push(t.elapsed().as_secs_f64());
        if rep + 1 < water::SETUP_REPS {
            let Leader { server, addr } = l;
            let stopped = water::shutdown(None, addr, move || server.join());
            r.check(stopped, "a set-up repetition's server stops");
        } else {
            leader = Some(l);
        }
    }
    let Leader { server, addr } = leader.expect("at least one set-up");

    // Warm-up: every text once, so the plan cache holds each before
    // timing. Replies are checked like any other.
    let mut client = None;
    let mut replies = Vec::new();
    for (idx, q) in prepared.iter().enumerate() {
        let s = query_once(&mut client, addr, q, idx);
        r.attempted += 1;
        match s.reply {
            Some(reply) => replies.push(reply),
            None => r.failed += 1,
        }
    }

    let wal_before = water::dir_bytes(&wal_dir);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (samples, ingests) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut c = None;
            water::ingest_loop(
                &mut c,
                || water::connect(addr),
                &input.run,
                0,
                INGEST_PER_S,
                seed,
                start,
                deadline,
            )
        });
        let mut rng = SplitMix::new(seed);
        let mut samples = Vec::new();
        while Instant::now() < deadline {
            let idx = pick(&mut rng);
            samples.push(query_once(&mut client, addr, &prepared[idx], idx));
        }
        (samples, writer.join().expect("ingest thread completes"))
    });
    let wal_growth = water::dir_bytes(&wal_dir).saturating_sub(wal_before);

    // ---- oracle: replay the mirror to each reply's epoch.
    let mut mirror = water::preloaded_store(&input);
    let base = mirror.epoch();
    let mut ingested_ops = 0usize;
    for g in &ingests {
        r.attempted += 1;
        match g.ack {
            Some(ack) if ack.epoch == base + g.k as u64 + 1 => {
                ingested_ops += water::ops(&input.run[g.k])
            }
            _ => r.failed += 1,
        }
    }
    let mut lat = Vec::new();
    let mut by_class: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in samples {
        r.attempted += 1;
        match s.reply {
            Some(reply) => {
                lat.push(s.ms);
                by_class
                    .entry(class_name(texts[s.idx].0))
                    .or_default()
                    .push(s.ms);
                replies.push(reply);
            }
            None => r.failed += 1,
        }
    }
    replies.sort_by_key(|rep| rep.epoch);
    let mut applied = 0usize;
    let mut expected: HashMap<(u64, usize), Fingerprint> = HashMap::new();
    for rep in &replies {
        while mirror.epoch() < rep.epoch && applied < input.run.len() {
            let b = &input.run[applied];
            mirror
                .apply(&b.inserts, &b.deletes)
                .expect("mirror applies the batch");
            applied += 1;
        }
        let ok = mirror.epoch() == rep.epoch && {
            let want = *expected.entry((rep.epoch, rep.idx)).or_insert_with(|| {
                execute_query(&mirror, &texts[rep.idx].1, &opts)
                    .map(|rs| fingerprint(&rs))
                    .unwrap_or_default()
            });
            want == rep.fp
        };
        r.failed += u64::from(!ok);
    }

    let (tail_ms, tail_pct) = tail(&lat);
    let p50 = median(&lat);
    let wal_per_triple = wal_growth as f64 / ingested_ops.max(1) as f64;
    r.e2e("setup_s", median(&setups));
    r.e2e("p50_ms", p50);
    r.layer("op.tail_ms", tail_ms);
    r.e2e("bytes_per_triple", wal_per_triple);
    r.named("query_p50_ms", p50, "ms");
    r.named("query_tail_ms", tail_ms, "ms");
    r.named("wal_bytes_per_triple", wal_per_triple, "B/triple");
    r.info_num("samples", lat.len() as f64);
    r.info_num("tail_percentile", tail_pct);
    r.info_num("ingest_per_s", INGEST_PER_S);
    r.info_num("ingested_batches", ingests.len() as f64);
    r.info_num("client_connections", 2.0);
    r.info_num("threads", 2.0);
    r.info_num("leader_shards", water::LEADER_SHARDS as f64);
    r.info_num("tick_ms", ms(water::server_config().tick));
    r.info_str("sync_policy", &format!("{:?}", water::SYNC));
    r.info_str("mix", "point 70 / scan 20 / anomaly 10");
    for (name, xs) in &by_class {
        r.info_num(&format!("{name}_p50_ms"), median(xs));
        r.info_num(&format!("{name}_samples"), xs.len() as f64);
    }

    if traced {
        layers(
            &mut r,
            &mut client,
            addr,
            &mut mirror,
            &input,
            applied,
            &texts,
            p50,
            &ingests,
        );
    }
    let stopped = water::shutdown(client, addr, move || server.join());
    r.check(stopped, "the leader stops on request");
    r
}

fn class_name(c: Class) -> &'static str {
    match c {
        Class::Point => "point",
        Class::Scan => "scan",
        Class::Anomaly => "anomaly",
    }
}

/// Per-layer metrics: executor, plan cache and protocol codecs timed
/// in-process on the mirror's snapshot; the server's own counters from
/// `STATS`; the residual is what the socket path adds.
#[allow(clippy::too_many_arguments)]
fn layers(
    r: &mut Report,
    client: &mut Option<Client>,
    addr: SocketAddr,
    mirror: &mut se_stream::ShardedHybridStore,
    input: &water::Input,
    mut applied: usize,
    texts: &[(Class, String)],
    query_p50: f64,
    ingests: &[Ingest],
) {
    // Bring the mirror to the leader's final epoch.
    let acked = ingests.iter().filter(|g| g.ack.is_some()).count();
    while applied < acked {
        let b = &input.run[applied];
        mirror
            .apply(&b.inserts, &b.deletes)
            .expect("mirror applies the batch");
        applied += 1;
    }
    let snap = mirror.snapshot();
    let cache = PlanCache::new();
    let opts = QueryOptions::default();
    let mut exec_us = HashMap::new();
    let mut enc_us = HashMap::new();
    let mut dec_us = HashMap::new();
    for (class, _) in MIX {
        let idxs: Vec<usize> = (0..texts.len()).filter(|&i| texts[i].0 == class).collect();
        for &i in &idxs {
            black_box(cache.execute_text(&snap, &texts[i].1, &opts).ok());
        }
        let exec = ns_per(|| {
            for &i in &idxs {
                black_box(cache.execute_text(&snap, &texts[i].1, &opts).ok());
            }
            idxs.len()
        });
        let rs = cache
            .execute_text(&snap, &texts[idxs[0]].1, &opts)
            .expect("mirror answers");
        let mut buf = Vec::new();
        let enc = ns_per(|| {
            buf.clear();
            write_result_set(&mut buf, &rs).expect("rows encode");
            1
        });
        let dec = ns_per(|| {
            black_box(read_result_set(&mut buf.as_slice()).ok());
            1
        });
        exec_us.insert(class, exec / 1e3);
        enc_us.insert(class, enc / 1e3);
        dec_us.insert(class, dec / 1e3);
    }
    let weighted = |m: &HashMap<Class, f64>| -> f64 {
        MIX.iter().map(|(c, w)| m[c] * *w as f64 / 100.0).sum()
    };
    r.layer("sparql.cached_exec_point_us", exec_us[&Class::Point]);
    r.layer("sparql.cached_exec_scan_us", exec_us[&Class::Scan]);
    r.layer("sparql.cached_exec_anomaly_us", exec_us[&Class::Anomaly]);
    r.layer("proto.encode_rows_us", weighted(&enc_us));
    r.layer("proto.decode_rows_us", weighted(&dec_us));
    // The median falls in the point cluster, so the residual subtracts
    // that class's in-process costs.
    let point = exec_us[&Class::Point] + enc_us[&Class::Point] + dec_us[&Class::Point];
    r.layer("server.query_residual_ms", query_p50 - point / 1e3);

    let acks: Vec<f64> = ingests
        .iter()
        .filter(|g| g.ack.is_some())
        .map(|g| ms(g.at - g.due))
        .collect();
    r.layer("server.bg_ack_p50_ms", median(&acks));
    if client.is_none() {
        *client = water::connect(addr).ok();
    }
    match client.as_mut().map(|c| c.stats()) {
        Some(Ok(s)) => {
            let lookups = (s.plan_hits + s.plan_misses).max(1);
            r.layer("server.plan_hit_ratio", s.plan_hits as f64 / lookups as f64);
            r.layer("server.plan_recosts", s.plan_recosts as f64);
            r.layer("server.snapshots", s.snapshots as f64);
        }
        _ => r.check(false, "the leader answers STATS"),
    }
    // The served loop itself is untraced: every span above is taken
    // in-process after it, so tracing adds nothing to it.
    r.layer("trace.overhead_pct", 0.0);
}
