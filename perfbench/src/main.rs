//! The repository's benchmark: three workloads, every answer checked,
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! separate traced run. Each layer is measured from outside, by timing
//! the calls this benchmark makes into that layer's public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lubm_embedded|serve_query|stream_follow|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the run's provenance and the workload's metrics under their
//! workload-specific names. `--workload all` runs the three workloads in
//! turn and prints that pair of lines for each.

mod follow;
mod lubm;
mod probe;
mod serve;
mod stats;
mod water;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Wall-clock cap on one workload's run: past it the process reports
/// nothing more and exits non-zero, so a stall can never hang the caller.
const RUN_CAP: Duration = Duration::from_secs(170);

/// End-to-end metrics, reported by every untraced run. What an operation
/// is depends on the workload: one 26-query pass (`lubm_embedded`), one
/// served query (`serve_query`), or one ingest batch from its due time
/// until the follower pushes its epoch (`stream_follow`). The tail of the
/// same operations is `op.tail_ms` among the per-layer metrics: on a
/// shared two-core host it follows the CPU time other guests steal more
/// closely than any bound an end-to-end metric may have.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("bytes_per_triple", "B/triple"),
];

/// Per-layer metrics, reported by every traced run. A workload reports 0
/// for the metrics of layers its traced run does not measure.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("op.tail_ms", "ms"),
    ("lubm.S1_ms", "ms"),
    ("lubm.S2_ms", "ms"),
    ("lubm.S3_ms", "ms"),
    ("lubm.S4_ms", "ms"),
    ("lubm.S5_ms", "ms"),
    ("lubm.S6_ms", "ms"),
    ("lubm.S7_ms", "ms"),
    ("lubm.S8_ms", "ms"),
    ("lubm.S9_ms", "ms"),
    ("lubm.S10_ms", "ms"),
    ("lubm.S11_ms", "ms"),
    ("lubm.S12_ms", "ms"),
    ("lubm.S13_ms", "ms"),
    ("lubm.S14_ms", "ms"),
    ("lubm.S15_ms", "ms"),
    ("lubm.M1_ms", "ms"),
    ("lubm.M2_ms", "ms"),
    ("lubm.M3_ms", "ms"),
    ("lubm.M4_ms", "ms"),
    ("lubm.M5_ms", "ms"),
    ("lubm.R1_ms", "ms"),
    ("lubm.R2_ms", "ms"),
    ("lubm.R3_ms", "ms"),
    ("lubm.R4_ms", "ms"),
    ("lubm.R5_ms", "ms"),
    ("lubm.R6_ms", "ms"),
    ("sparql.parse_us", "us"),
    ("sparql.compile_us", "us"),
    ("sparql.exec_self_ms", "ms"),
    ("sparql.rows_examined_per_result", "ratio"),
    ("core.probe_calls", "count"),
    ("core.probe_ms", "ms"),
    ("core.subjects_us_per_answer", "us"),
    ("core.objects_us_per_answer", "us"),
    ("core.scan_us_per_answer", "us"),
    ("core.type_us_per_answer", "us"),
    ("litemat.decode_calls", "count"),
    ("litemat.decode_us", "us"),
    ("sds.wt_access_ns", "ns"),
    ("sds.wt_rank_ns", "ns"),
    ("sds.wt_select_ns", "ns"),
    ("sds.wt_range_search_ns_per_hit", "ns"),
    ("sds.rs_rank1_ns", "ns"),
    ("sds.rs_select1_ns", "ns"),
    ("baseline.multiindex_pass_ms", "ms"),
    ("sparql.cached_exec_point_us", "us"),
    ("sparql.cached_exec_scan_us", "us"),
    ("sparql.cached_exec_anomaly_us", "us"),
    ("proto.encode_rows_us", "us"),
    ("proto.decode_rows_us", "us"),
    ("server.query_residual_ms", "ms"),
    ("server.plan_hit_ratio", "ratio"),
    ("server.plan_recosts", "count"),
    ("server.snapshots", "count"),
    ("server.bg_ack_p50_ms", "ms"),
    ("server.ack_p50_ms", "ms"),
    ("server.ack_tail_ms", "ms"),
    ("stream.apply_ms", "ms"),
    ("stream.wal_ms", "ms"),
    ("stream.cq_eval_ms", "ms"),
    ("stream.compactions", "count"),
    ("stream.compaction_ms_total", "ms"),
    ("stream.swap_ms_total", "ms"),
    ("stream.pooled_batches", "count"),
    ("stream.inline_batches", "count"),
    ("stream.incremental_evals", "count"),
    ("stream.full_evals", "count"),
    ("proto.encode_batch_us", "us"),
    ("server.ack_residual_ms", "ms"),
    ("repl.lag_ms", "ms"),
    ("repl.records_shipped", "count"),
    ("repl.snapshots_served", "count"),
    ("repl.resyncs", "count"),
    ("server.max_coalesced", "count"),
    ("gen.late_p50_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What one run measured.
pub struct Report {
    workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Whole-run checks beyond the per-operation ones (e.g. the final
    /// follower triple count); a failed check makes `correct` false.
    pub checks_ok: bool,
    e2e: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
    /// Provenance and workload-specific values, as JSON fragments.
    info: BTreeMap<String, String>,
    named: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            checks_ok: true,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            info: BTreeMap::new(),
            named: BTreeMap::new(),
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.e2e.insert(name.to_string(), value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.layers.insert(name.to_string(), value);
    }

    /// A workload metric under the name the workload gives it (e.g.
    /// `pass_p50_ms`), printed on the provenance line.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.insert(name.to_string(), (value, unit));
    }

    pub fn info_num(&mut self, key: &str, value: f64) {
        self.info.insert(key.to_string(), num(value));
    }

    pub fn info_str(&mut self, key: &str, value: &str) {
        self.info
            .insert(key.to_string(), format!("\"{}\"", escape(value)));
    }

    /// Counts a failed whole-run check.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("check failed: {what}");
            self.checks_ok = false;
        }
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// A JSON number with all its digits (`{}` prints the shortest exact
/// representation). Non-finite values cannot be reported.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

fn metric_json(
    entries: &[(&str, &str)],
    values: &BTreeMap<String, f64>,
    default: Option<f64>,
) -> String {
    let fields: Vec<String> = entries
        .iter()
        .map(|(name, unit)| {
            let value = values
                .get(*name)
                .copied()
                .or(default)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?
            .to_string();
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key, v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    })
}

/// FNV-1a over every source and manifest file of the workspace crates,
/// in path order: identifies the code under test when the checkout is
/// not a git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// First line of a command's standard output, or "unknown".
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host CPU time stolen by other guests so far, in clock ticks (the
/// `steal` field of `/proc/stat`); `None` where the host does not say.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.split_whitespace().collect::<Vec<_>>();
    (cpu.first() == Some(&"cpu")).then(|| cpu.get(8)?.parse().ok())?
}

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["lubm_embedded", "serve_query", "stream_follow"];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w if WORKLOADS.contains(&w) => vec![w],
        w => {
            eprintln!("perfbench: unknown workload {w} (one of {WORKLOADS:?} or all)");
            std::process::exit(2);
        }
    };
    // Watchdog: detached on purpose — it only ever ends the process.
    let cap = RUN_CAP * workloads.len() as u32;
    std::thread::spawn(move || {
        std::thread::sleep(cap);
        eprintln!("perfbench: run exceeded {cap:?}; aborting without a result");
        std::process::exit(3);
    });
    let root = std::env::current_dir().expect("current directory is readable");
    for w in workloads {
        let started = Instant::now();
        let steal_at_start = steal_ticks();
        let mut r = match w {
            "lubm_embedded" => lubm::run(args.seed, args.seconds, args.trace),
            "serve_query" => serve::run(&root, args.seed, args.seconds, args.trace),
            _ => follow::run(&root, args.seed, args.seconds, args.trace),
        };
        provenance(&mut r, &args, &root, started, steal_at_start);
        print(&r, args.trace);
    }
}

/// Records how, where and on what the run was made.
fn provenance(r: &mut Report, args: &Args, root: &Path, started: Instant, steal: Option<u64>) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    r.info_str("workload", r.workload);
    r.info_num("seed", args.seed as f64);
    r.info_num("seconds", args.seconds);
    r.info_num("trace", f64::from(u8::from(args.trace)));
    r.info_num("nproc", nproc as f64);
    // Only the checkout's own history names the commit; a checkout
    // exported without `.git` is identified by `source_digest` alone.
    let commit = if root.join(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    r.info_str("commit", &commit);
    r.info_str("source_digest", &source_digest(root));
    r.info_str("rustc", &command_line("rustc", &["--version"]));
    let wall = started.elapsed().as_secs_f64();
    r.info_num("wall_s", wall);
    if let (Some(a), Some(b)) = (steal, steal_ticks()) {
        // USER_HZ is 100 on Linux: a tick is 10 ms of one CPU.
        let stolen = (b.saturating_sub(a)) as f64 / 100.0;
        r.info_num("host_steal_pct", 100.0 * stolen / (wall * nproc as f64));
    }
    let failed_ratio = r.failed as f64 / r.attempted.max(1) as f64;
    r.named("failed_ratio", failed_ratio, "ratio");
    r.named("setup_s", r.e2e.get("setup_s").copied().unwrap_or(0.0), "s");
}

/// The provenance line, then the result line.
fn print(r: &Report, trace: bool) {
    let named: Vec<String> = r
        .named
        .iter()
        .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    let info: Vec<String> = r
        .info
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"provenance\": {{{}}}, \"workload_metrics\": {{{}}}}}",
        info.join(", "),
        named.join(", ")
    );
    let metrics = if trace {
        metric_json(PER_LAYER, &r.layers, Some(0.0))
    } else {
        metric_json(END_TO_END, &r.e2e, None)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failed == 0 && r.checks_ok && r.attempted > 0,
        r.attempted.max(1),
        r.failed,
        metrics
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(rel: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// BENCHMARK.json declares exactly the metrics the runs report, with
    /// the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let json = read("../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares metrics no run reports"
        );
    }

    /// Every per-layer metric names the end-to-end metric it moves.
    #[test]
    fn layer_map_covers_every_per_layer_metric() {
        let map = read("layers.json");
        for (name, _) in PER_LAYER {
            assert!(
                map.contains(&format!("\"layer\": \"{name}\"")),
                "layers.json lacks {name}"
            );
        }
        assert_eq!(map.matches("\"layer\":").count(), PER_LAYER.len());
    }
}
