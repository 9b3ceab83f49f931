//! `lubm_embedded`: the paper's 26-query LUBM workload (S1–S15, M1–M5,
//! R1–R6) on a static `SuccinctEdgeStore`, one closed-loop thread, one
//! operation = one pass over the 26 queries through
//! `se_sparql::execute_query`. No socket, stream, WAL or plan cache: the
//! SDS, `TripleSource` and executor layers do all of the work.

use crate::probe::{Kind, Tally, Timed};
use crate::stats::{fingerprint, median, ms, ns_per, tail, us, Fingerprint};
use crate::Report;
use se_baselines::{rewrite_with_ontology, MultiIndexStore};
use se_core::{SuccinctEdgeStore, Value};
use se_datagen::lubm;
use se_datagen::workload::{full_workload, WorkloadQuery, PO_TARGETS, SPO_TARGETS};
use se_rdf::{Graph, Term, Triple};
use se_sds::{RsBitVec, WaveletTree};
use se_sparql::ast::TermPattern;
use se_sparql::{execute_query, ir, parse_query, PlanTrace, QueryOptions, ResultSet};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Store builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Upper bound on the comparator's timed passes.
const BASELINE_PASSES: usize = 5;

/// The workload for `graph`: `full_workload`, with the S1–S10 constants
/// re-picked by the same rule (answer count closest to the paper's
/// target) but with ties broken by term order. `full_workload` picks them
/// by iterating a `HashMap`, so its ties break differently on every call
/// and a seed would not fix the queries.
pub fn workload(graph: &Graph) -> Vec<WorkloadQuery> {
    let mut queries = full_workload(graph);
    let prefix = {
        let text = &queries[0].text;
        text[..text.find("SELECT").expect("workload queries are SELECTs")].to_string()
    };
    let pick = |key: &dyn Fn(&Triple) -> Option<(Term, Term)>, target: usize| {
        let mut counts: BTreeMap<(Term, Term), usize> = BTreeMap::new();
        for t in graph.iter().filter_map(key) {
            *counts.entry(t).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .min_by_key(|(_, c)| c.abs_diff(target))
            .map(|(k, _)| k)
            .expect("graph has candidate triples")
    };
    let spo = |t: &Triple| (!t.is_type_triple()).then(|| (t.subject.clone(), t.predicate.clone()));
    let po = |t: &Triple| {
        (!t.is_type_triple() && t.object.is_resource())
            .then(|| (t.predicate.clone(), t.object.clone()))
    };
    for q in queries.iter_mut() {
        let Some(n) = s_number(&q.id) else {
            continue;
        };
        if (1..=5).contains(&n) {
            let (s, p) = pick(&spo, SPO_TARGETS[n - 1]);
            q.text = format!("{prefix}SELECT ?X WHERE {{ {s} {p} ?X }}");
        } else if (6..=10).contains(&n) {
            let (p, o) = pick(&po, PO_TARGETS[n - 6]);
            q.text = format!("{prefix}SELECT ?X WHERE {{ ?X {p} {o} }}");
        }
    }
    queries
}

fn options(q: &WorkloadQuery) -> QueryOptions {
    if q.reasoning {
        QueryOptions::default()
    } else {
        QueryOptions::without_reasoning()
    }
}

/// Expected answers from the paper's comparator: `MultiIndexStore`, with
/// UNION rewriting for the reasoning queries. Also returns the
/// comparator's queries, parsed once, for the baseline pass.
fn oracle(
    mem: &MultiIndexStore,
    queries: &[WorkloadQuery],
    onto: &se_ontology::Ontology,
) -> (Vec<se_sparql::Query>, Vec<Fingerprint>) {
    let dicts = onto.encode().expect("LUBM ontology encodes");
    let rewritten: Vec<se_sparql::Query> = queries
        .iter()
        .map(|q| {
            let parsed = parse_query(&q.text).expect("workload query parses");
            if q.reasoning {
                rewrite_with_ontology(&parsed, &dicts)
                    .expect("UNION rewriting stays bounded")
                    .0
            } else {
                parsed
            }
        })
        .collect();
    let expected = rewritten
        .iter()
        .map(|q| fingerprint(&mem.query(q).expect("comparator answers")))
        .collect();
    (rewritten, expected)
}

/// One pass: runs every query, returns the wall time and the answers
/// (checked by the caller, outside the timed region). Each query's own
/// time goes to `per_query`; the two clock reads per query are
/// nanoseconds against a pass of hundreds of milliseconds.
fn pass(
    store: &SuccinctEdgeStore,
    queries: &[WorkloadQuery],
    opts: &[QueryOptions],
    per_query: &mut [Vec<f64>],
) -> (Duration, Vec<Option<ResultSet>>) {
    let mut out = Vec::with_capacity(queries.len());
    let t0 = Instant::now();
    for ((q, o), slot) in queries.iter().zip(opts).zip(per_query.iter_mut()) {
        let t = Instant::now();
        out.push(execute_query(store, &q.text, o).ok());
        slot.push(ms(t.elapsed()));
    }
    (t0.elapsed(), out)
}

/// Counts answers that miss the oracle (an error counts as a miss).
fn misses(answers: &[Option<ResultSet>], expected: &[Fingerprint]) -> usize {
    answers
        .iter()
        .zip(expected)
        .filter(|(a, e)| a.as_ref().map(fingerprint).as_ref() != Some(*e))
        .count()
}

/// The paper's largest LUBM dataset (§7.2), in triples. One generated
/// university varies by ±15% in size across seeds, and pass latency with
/// it; two universities cut to this size give every seed the same input
/// size, so seeds vary the data but not the amount of work.
const TRIPLES: usize = lubm::PAPER_SIZES[lubm::PAPER_SIZES.len() - 1];

/// The seeded LUBM input: two generated universities, truncated to
/// [`TRIPLES`].
pub fn graph(seed: u64) -> Graph {
    let mut g = lubm::generate(2, seed);
    g.truncate(TRIPLES);
    g
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let graph = graph(seed);
    let queries = workload(&graph);
    let opts: Vec<QueryOptions> = queries.iter().map(options).collect();
    let onto = se_ontology::lubm_ontology();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = SuccinctEdgeStore::build(&onto, &graph).expect("LUBM store builds");
        setups.push(t.elapsed().as_secs_f64());
        built = Some(s);
    }
    let store = built.expect("at least one setup");

    let mem = MultiIndexStore::build(&graph);
    let (baseline_queries, expected) = oracle(&mem, &queries, &onto);

    let mut r = Report::new("lubm_embedded");
    r.info_num("queries", queries.len() as f64);
    r.info_num("triples", store.len() as f64);
    r.info_num("threads", 1.0);

    // Warm-up pass: lazy allocations and caches settle before timing.
    let (_, answers) = pass(
        &store,
        &queries,
        &opts,
        &mut vec![Vec::new(); queries.len()],
    );
    r.attempted += 1;
    r.failed += u64::from(misses(&answers, &expected) > 0);

    let phase = if traced { seconds / 2.0 } else { seconds };
    let mut per_query = vec![Vec::new(); queries.len()];
    let mut passes = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(phase);
    while Instant::now() < deadline {
        let (dt, answers) = pass(&store, &queries, &opts, &mut per_query);
        passes.push(ms(dt));
        r.attempted += 1;
        r.failed += u64::from(misses(&answers, &expected) > 0);
    }

    let (tail_ms, tail_pct) = tail(&passes);
    let bytes_per_triple = store.memory_footprint() as f64 / store.len() as f64;
    r.e2e("setup_s", median(&setups));
    r.e2e("p50_ms", median(&passes));
    r.layer("op.tail_ms", tail_ms);
    r.e2e("bytes_per_triple", bytes_per_triple);
    r.info_num("samples", passes.len() as f64);
    r.info_num("tail_percentile", tail_pct);
    r.named("pass_p50_ms", median(&passes), "ms");
    r.named("pass_tail_ms", tail_ms, "ms");
    r.named("store_bytes_per_triple", bytes_per_triple, "B/triple");

    if traced {
        for (q, times) in queries.iter().zip(&per_query) {
            r.layer(&format!("lubm.{}_ms", q.id), median(times));
        }
        let untraced_p50 = median(&passes);
        let traced_p50 = traced_phase(&mut r, &store, &queries, &opts, &expected, phase);
        r.layer(
            "trace.overhead_pct",
            100.0 * (traced_p50 / untraced_p50 - 1.0),
        );
        sds_probes(&mut r, &store, &queries);
        baseline(&mut r, &mem, &baseline_queries);
    }
    r
}

/// Probe kinds with a per-answer cost, and the single-pattern queries it
/// is taken on: there one probe returns the whole answer, so the cost is
/// not diluted by per-call overheads of join probes. S1–S5 are Table 1's
/// `(s, p, ?o)`, S6–S10 Table 2's `(?s, p, o)`, S11–S15 Fig. 12's scans;
/// no query is a lone `rdf:type` pattern, so type probes count over the
/// whole pass.
const PER_ANSWER: [(Kind, Option<std::ops::RangeInclusive<usize>>); 4] = [
    (Kind::Subjects, Some(6..=10)),
    (Kind::Objects, Some(1..=5)),
    (Kind::Scan, Some(11..=15)),
    (Kind::Type, None),
];

/// The number of an S-query id (`"S7"` → 7).
fn s_number(id: &str) -> Option<usize> {
    id.strip_prefix('S').and_then(|n| n.parse().ok())
}

/// The traced pass: parse, compile and execute called one by one, the
/// store wrapped in the timing adapter. Returns the traced pass p50.
fn traced_phase(
    r: &mut Report,
    store: &SuccinctEdgeStore,
    queries: &[WorkloadQuery],
    opts: &[QueryOptions],
    expected: &[Fingerprint],
    seconds: f64,
) -> f64 {
    let mut pass_ms = Vec::new();
    let mut parse_us = Vec::new();
    let mut compile_us = Vec::new();
    let mut self_ms = Vec::new();
    let mut probe_ms = Vec::new();
    let mut decode_us = Vec::new();
    let (mut probe_calls, mut decode_calls, mut examined_ratio) = (0.0, 0.0, 0.0);
    let mut kinds = [Tally::default(); 4];

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while pass_ms.is_empty() || Instant::now() < deadline {
        let timed = Timed::new(store);
        let (mut parse, mut compile, mut exec_io) = (Duration::ZERO, Duration::ZERO, 0u64);
        let (mut examined, mut rows) = (0usize, 0usize);
        let mut answers = Vec::with_capacity(queries.len());
        let t0 = Instant::now();
        for (q, o) in queries.iter().zip(opts) {
            let t = Instant::now();
            let parsed = parse_query(&q.text);
            parse += t.elapsed();
            let Ok(parsed) = parsed else {
                answers.push(None);
                continue;
            };
            let t = Instant::now();
            let plan = ir::compile(&parsed, &timed, o, 0);
            let (_, consts) = ir::normalize(&parsed);
            compile += t.elapsed();
            let before = timed.counters.probes().ns + timed.counters.get(Kind::Decode).ns;
            let kinds_before = PER_ANSWER.map(|(k, _)| timed.counters.get(k));
            let mut trace = PlanTrace::default();
            let rs = ir::execute_plan_traced(&timed, &plan, &consts, o, &mut trace).ok();
            exec_io += timed.counters.probes().ns + timed.counters.get(Kind::Decode).ns - before;
            for ((acc, (k, s_range)), b) in kinds.iter_mut().zip(PER_ANSWER).zip(kinds_before) {
                if s_range.is_none_or(|range| s_number(&q.id).is_some_and(|n| range.contains(&n))) {
                    let t = timed.counters.get(k);
                    acc.calls += t.calls - b.calls;
                    acc.ns += t.ns - b.ns;
                    acc.answers += t.answers - b.answers;
                }
            }
            examined += trace.steps_examined();
            rows += rs.as_ref().map_or(0, ResultSet::len);
            answers.push(rs);
        }
        let total = t0.elapsed();
        r.attempted += 1;
        r.failed += u64::from(misses(&answers, expected) > 0);

        let probes = timed.counters.probes();
        let decode = timed.counters.get(Kind::Decode);
        pass_ms.push(ms(total));
        parse_us.push(us(parse));
        compile_us.push(us(compile));
        self_ms.push(ms(total - parse - compile) - exec_io as f64 / 1e6);
        probe_ms.push(probes.ns as f64 / 1e6);
        decode_us.push(decode.ns as f64 / 1e3);
        probe_calls = probes.calls as f64;
        decode_calls = decode.calls as f64;
        examined_ratio = examined as f64 / rows.max(1) as f64;
    }
    r.layer("sparql.parse_us", median(&parse_us));
    r.layer("sparql.compile_us", median(&compile_us));
    r.layer("sparql.exec_self_ms", median(&self_ms));
    r.layer("sparql.rows_examined_per_result", examined_ratio);
    r.layer("core.probe_calls", probe_calls);
    r.layer("core.probe_ms", median(&probe_ms));
    let names = [
        "core.subjects_us_per_answer",
        "core.objects_us_per_answer",
        "core.scan_us_per_answer",
        "core.type_us_per_answer",
    ];
    for (name, t) in names.iter().zip(&kinds) {
        r.layer(name, t.ns as f64 / 1e3 / t.answers.max(1) as f64);
    }
    r.layer("litemat.decode_calls", decode_calls);
    r.layer("litemat.decode_us", median(&decode_us));
    median(&pass_ms)
}

/// One predicate's `[start, end)` in the wavelet sequence and in the bit
/// vector.
type Spans = ((usize, usize), (usize, usize));

/// The PSO subject column as the object layer lays it out: one wavelet
/// symbol per `(p, s)` run and one bit per triple marking where a run
/// starts. Rebuilt from `scan_predicate`, so the probes run on the
/// store's own sequence without reaching into its private fields.
struct SubjectColumn {
    wt: WaveletTree,
    bits: RsBitVec,
    /// Predicate id → its spans.
    ranges: BTreeMap<u64, Spans>,
}

fn subject_column(store: &SuccinctEdgeStore) -> SubjectColumn {
    let layer = store.object_layer();
    let (mut seq, mut bits, mut ranges) = (Vec::new(), Vec::new(), BTreeMap::new());
    for k in 0..layer.predicate_count() {
        let p = layer.predicate_at(k);
        let (a, pa) = (seq.len(), bits.len());
        let mut last = None;
        for (s, o) in store.scan_predicate(p) {
            if !matches!(o, Value::Instance(_)) {
                continue;
            }
            bits.push(last != Some(s));
            if last != Some(s) {
                seq.push(s);
                last = Some(s);
            }
        }
        ranges.insert(p, ((a, seq.len()), (pa, bits.len())));
    }
    SubjectColumn {
        wt: WaveletTree::new(&seq),
        bits: RsBitVec::from_bits(bits),
        ranges,
    }
}

/// SDS primitives on the store's own PSO subject sequence, probed with
/// the S6–S10 arguments (`(?s, p, o)`: the predicate's range, and the
/// subjects that answer the query).
fn sds_probes(r: &mut Report, store: &SuccinctEdgeStore, queries: &[WorkloadQuery]) {
    let col = subject_column(store);
    let mut probes = Vec::new();
    for q in queries {
        let Some(n) = s_number(&q.id) else {
            continue;
        };
        if !(6..=10).contains(&n) {
            continue;
        }
        let parsed = parse_query(&q.text).expect("workload query parses");
        let tp = &parsed.groups[0].patterns[0];
        let (TermPattern::Term(p), TermPattern::Term(o)) = (&tp.predicate, &tp.object) else {
            continue;
        };
        let (Some(p), Some(o)) = (
            p.as_iri().and_then(|iri| store.property_id(iri)),
            store.instance_id(o),
        ) else {
            continue;
        };
        let Some(&(wr, br)) = col.ranges.get(&p) else {
            continue;
        };
        probes.push((wr, br, store.subjects(p, &Value::Instance(o))));
    }
    let (wt, bits) = (&col.wt, &col.bits);
    let access = ns_per(|| {
        let mut n = 0;
        for ((a, b), _, _) in &probes {
            for i in *a..*b {
                black_box(wt.access(i));
            }
            n += b - a;
        }
        n
    });
    let rank = ns_per(|| {
        let mut n = 0;
        for ((_, b), _, subjects) in &probes {
            for &s in subjects {
                black_box(wt.rank(*b, s));
            }
            n += subjects.len();
        }
        n
    });
    let select_args: Vec<(usize, u64)> = probes
        .iter()
        .flat_map(|((a, _), _, subjects)| subjects.iter().map(|&s| (wt.rank(*a, s) + 1, s)))
        .collect();
    let select = ns_per(|| {
        for &(k, s) in &select_args {
            black_box(wt.select(k, s));
        }
        select_args.len()
    });
    let range_search = ns_per(|| {
        let mut hits = 0;
        for ((a, b), _, subjects) in &probes {
            for &s in subjects {
                hits += black_box(wt.range_search(*a, *b, s)).len();
            }
        }
        hits
    });
    let rank1 = ns_per(|| {
        let mut n = 0;
        for (_, (a, b), _) in &probes {
            for j in *a..*b {
                black_box(bits.rank1(j + 1));
            }
            n += b - a;
        }
        n
    });
    let select1 = ns_per(|| {
        let mut n = 0;
        for (_, (a, b), _) in &probes {
            let (lo, hi) = (bits.rank1(*a), bits.rank1(*b));
            for k in lo + 1..=hi {
                black_box(bits.select1(k));
            }
            n += hi - lo;
        }
        n
    });
    r.layer("sds.wt_access_ns", access);
    r.layer("sds.wt_rank_ns", rank);
    r.layer("sds.wt_select_ns", select);
    r.layer("sds.wt_range_search_ns_per_hit", range_search);
    r.layer("sds.rs_rank1_ns", rank1);
    r.layer("sds.rs_select1_ns", select1);
}

/// The same pass on the paper's comparator (`MultiIndexStore`, UNION
/// rewriting): a machine-speed reference for the pass latency.
fn baseline(r: &mut Report, mem: &MultiIndexStore, queries: &[se_sparql::Query]) {
    let mut times = Vec::new();
    let budget = Instant::now() + Duration::from_secs(4);
    while times.len() < BASELINE_PASSES && (times.is_empty() || Instant::now() < budget) {
        let t = Instant::now();
        for q in queries {
            black_box(mem.query(q).ok());
        }
        times.push(ms(t.elapsed()));
    }
    r.layer("baseline.multiindex_pass_ms", median(&times));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_adapter_returns_the_bare_store_answers() {
        let graph = graph(42);
        let queries = workload(&graph);
        assert_eq!(queries.len(), 26);
        let store = SuccinctEdgeStore::build(&se_ontology::lubm_ontology(), &graph).unwrap();
        let timed = Timed::new(&store);
        for q in &queries {
            let o = options(q);
            let bare = execute_query(&store, &q.text, &o).unwrap();
            let wrapped = execute_query(&timed, &q.text, &o).unwrap();
            assert_eq!(bare, wrapped, "{}: wrapped answers differ", q.id);
        }
        assert!(timed.counters.probes().calls > 0);
        assert!(timed.counters.get(Kind::Decode).calls > 0);
    }

    #[test]
    fn a_seed_fixes_the_queries() {
        let graph = graph(7);
        let a: Vec<String> = workload(&graph).into_iter().map(|q| q.text).collect();
        let b: Vec<String> = workload(&graph).into_iter().map(|q| q.text).collect();
        assert_eq!(a, b);
    }
}
