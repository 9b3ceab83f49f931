#!/usr/bin/env python3
"""Gates a fresh stream_ingest bench run against the committed one.

    python3 crates/bench/gate.py FRESH.json COMMITTED.json

Both files are BENCH_stream_ingest.json documents (see
crates/bench/benches/stream_ingest.rs). Every gate is one row of GATES:

    (cell, comparator, bound, kind)

kind is one of

* "regression" -- the cell's per-batch time may not worsen by more than
  `bound` on BOTH signals at once: absolutely versus the committed cell,
  and normalized by the comparator (fresh cell/comparator ratio over the
  committed ratio). The committed file was measured on other hardware,
  so the absolute signal alone would gate on machine speed, and the
  normalized one alone would trip when the comparator merely got faster.
* "speedup" / "speedup_p50" -- a machine-independent invariant on the
  fresh run alone: the comparator's per-batch time (median per-iteration
  time for _p50) is at least `bound` times the cell's.
* "faster" / "faster_total" -- the fresh cell's per-batch time (total
  time for _total) is strictly below `bound` times the comparator's.

The script prints one line per gate and exits non-zero if any fails.
"""

import json
import sys

GATES = [
    # Sharded ingest against the single-shard store.
    ("sharded_background_compaction", "single_inline_compaction", 1.25, "regression"),
    # Differential evaluation must beat forced full re-evaluation >=5x at
    # 16 queries on the heavy store (the bench asserts the same bound).
    ("continuous_incremental_16q_heavy_store", "continuous_full_16q_heavy_store", 5, "speedup"),
    ("continuous_incremental_16q_heavy_store", "continuous_full_16q_heavy_store", 1.25, "regression"),
    # Group-commit coalescing must beat the same writes applied serially,
    # one per client request.
    ("server_group_commit_16_writers", "server_serial_16_clients", 1, "faster_total"),
    ("server_group_commit_16_writers", "server_serial_16_clients", 1.25, "regression"),
    # Appending one delta record must cost less than a full v02
    # checkpoint, or attaching a WAL would be pointless. v02 save never
    # fsyncs (atomic rename only), so the fair comparison is the unsynced
    # OsBuffered cell: the fsynced cell would gate on the runner's disk.
    ("wal_append_os_buffered", "persist_v02_save_dirty", 1, "faster"),
    ("wal_append_every_batch", "wal_append_off", 1.25, "regression"),
    # A text-level plan-cache hit must beat cold parse+optimize+execute
    # >=3x. Same query, store and thread, so the ratio cancels machine
    # speed; medians, so one descheduling blip cannot swing it.
    ("point_query_cached_qps", "point_query_cold_qps", 3, "speedup_p50"),
    ("point_query_cached_qps", "point_query_cold_qps", 1.25, "regression"),
    # Fresh-follower catch-up, normalized by the in-process replay of the
    # same records. per-batch time here is one whole bootstrap.
    ("replication_catchup", "replication_local_replay", 1.25, "regression"),
]


def load(path):
    doc = json.load(open(path))
    return doc, {run["label"]: run for run in doc["runs"]}


def cell(bench, path, label):
    doc, runs = bench
    if label not in runs:
        raise SystemExit(f"{path}: no '{label}' entry")
    run = runs[label]
    return {
        "per_batch": run["total_ms"] / run.get("batches", doc.get("batches", 1)),
        "total": run["total_ms"],
        "p50": run.get("p50_us"),
    }


def check(gate, fresh, committed):
    """Returns (passed, report line) for one row of GATES."""
    label, comp, bound, kind = gate
    f, fc = fresh(label), fresh(comp)
    if kind == "regression":
        c, cc = committed(label), committed(comp)
        absolute = f["per_batch"] / c["per_batch"]
        norm = (f["per_batch"] / fc["per_batch"]) / (c["per_batch"] / cc["per_batch"])
        line = (f"{label}: {c['per_batch']:.3f} -> {f['per_batch']:.3f} ms/batch "
                f"({absolute:.2f}x absolute, {norm:.2f}x normalized by {comp}; "
                f"limit {bound}x on both)")
        return not (norm > bound and absolute > bound), line
    metric = {"speedup": "per_batch", "speedup_p50": "p50",
              "faster": "per_batch", "faster_total": "total"}[kind]
    unit = "us" if metric == "p50" else "ms"
    mine, theirs = f[metric], fc[metric]
    line = (f"{label} {metric} {mine:.3f} {unit} vs {comp} {theirs:.3f} {unit} "
            f"({theirs / mine:.2f}x; ")
    if kind.startswith("speedup"):
        return theirs >= bound * mine, line + f"must be >= {bound}x)"
    return mine < bound * theirs, line + f"must be > {1 / bound:g}x)"


def main(fresh_path, committed_path):
    fresh_doc, committed_doc = load(fresh_path), load(committed_path)
    fresh = lambda label: cell(fresh_doc, fresh_path, label)
    committed = lambda label: cell(committed_doc, committed_path, label)
    failed = 0
    for gate in GATES:
        ok, line = check(gate, fresh, committed)
        print(("ok   " if ok else "FAIL ") + line)
        failed += not ok
    # Reported for the trajectory, not gated: the staleness clock (a
    # STATS round trip per sample) is too environment-bound.
    _, runs = fresh_doc
    catchup = fresh("replication_catchup")["per_batch"]
    records = runs["replication_catchup"]["pooled_batches"]
    stale = runs["replication_staleness"]
    print(f"replication_catchup: {records / catchup * 1000:.0f} records/s; "
          f"staleness p50 {stale['p50_us'] / 1000:.2f} ms, "
          f"p99 {stale['p99_us'] / 1000:.2f} ms")
    if failed:
        raise SystemExit(f"{failed} bench gate(s) failed versus {committed_path}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    main(sys.argv[1], sys.argv[2])
