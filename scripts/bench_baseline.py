#!/usr/bin/env python3
"""Record / check the bench perf baseline (BENCH_baseline.json).

Every series below is *virtual* (model) time or a pure count, so the values
are bit-reproducible across machines: the committed baseline is exact, and
the regression tolerance guards against model/algorithm changes, not
machine noise.

Usage:
  scripts/bench_baseline.py record [--build-dir build] [--out BENCH_baseline.json]
  scripts/bench_baseline.py check  [--build-dir build] [--baseline BENCH_baseline.json]
                                   [--tolerance 0.15] [--keep-metrics DIR]
  scripts/bench_baseline.py diff   A B

`record` runs the smoke benches and pins the current values; `check` reruns
them and exits 1 if any pinned series regressed by more than the tolerance
(TEPS/qps/speedup: lower is a regression; time/bytes: higher is one).
`diff` compares every gauge and counter of two --keep-metrics directories
(e.g. from two builds that must be bit-identical), prints each added,
deleted and changed key with its exact values, and exits 1 on any
difference.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

SCHEMA = "numabfs.bench_baseline.v1"

# (label, binary, smoke flags) — small shapes so the gate runs in seconds.
BENCHES = [
    ("fig09", "bench_fig09_overview",
     ["--scale=13", "--roots=1", "--nodes=2"]),
    ("query_engine", "bench_query_engine",
     ["--scale=12", "--nodes=2", "--ppn=2", "--batch=4", "--queries=8"]),
    ("ablation", "bench_ablation_compression",
     ["--scale=13", "--roots=1", "--nodes=4", "--ppn=2", "--weak=0"]),
    ("failover", "bench_failover", ["--soak-short"]),
    ("dynamic", "bench_dynamic_graph",
     ["--scale=12", "--nodes=2", "--ppn=2", "--batch=4", "--queries=6",
      "--ops=400", "--ingest-gap-us=200"]),
    # The 2-D crossover sweep runs to 256 nodes so the gate pins the scale
    # ceiling itself, not a small-shape proxy (~40 s of virtual-cluster
    # time; every value is still bit-reproducible).
    ("ablation2d", "bench_ablation_2d",
     ["--base-scale=11", "--roots=1", "--max-nodes=256", "--ppn=4"]),
    ("autotune", "bench_autotune",
     ["--scale=13", "--nodes=2", "--ppn=2", "--roots=1",
      "--engine-scale=12", "--queries=8", "--rounds=2"]),
    ("vertexprog", "bench_vertex_programs",
     ["--scale=12", "--nodes=2", "--ppn=2", "--queries=8"]),
]

# Pinned series: (metric key, direction). "up" = bigger is better (a drop
# beyond tolerance fails); "down" = smaller is better (a rise fails).
SERIES = [
    ("fig09.original_ppn1.harmonic_teps", "up"),
    ("fig09.granularity.harmonic_teps", "up"),
    ("fig09.granularity.mean_time_ns", "down"),
    ("fig09.granularity.bytes_inter_node", "down"),
    ("qe.one_wave.total_ns", "down"),
    ("qe.one_wave.qps", "up"),
    ("qe.amortization.speedup", "up"),
    ("qe.sweep.b4.gap1000us.p95_latency_ns", "down"),
    ("ablation.codec_gate_k_4.harmonic_teps", "up"),
    ("ablation.codec_gate_k_4.bytes_inter_node", "down"),
    ("ablation.granularity_raw_wire.harmonic_teps", "up"),
    ("failover.clean.total_ns", "down"),
    ("failover.chaos.full.p99_ns", "down"),
    ("failover.chaos.full.attainment", "up"),
    ("failover.chaos.failover_blip_ns", "down"),
    ("failover.chaos.shed_rate", "down"),
    # Dynamic graph layer: serving latency with and without live ingest,
    # the merged-view read amplification, validated throughput under the
    # heaviest ingest cell, and the bit-identity gate itself (every query
    # must keep validating against the rebuilt CSR at its pinned epoch).
    ("dyn.i0.g250us.p99_latency_ns", "down"),
    ("dyn.i1600.g250us.p99_latency_ns", "down"),
    ("dyn.i1600.g250us.read_amp", "down"),
    ("dyn.i1600.g250us.teps", "up"),
    ("dyn.i1600.g250us.valid", "up"),
    ("dyn.i1600.g2000us.compactions", "up"),
    # 2-D weak scaling past the 1-D ceiling: hier-collective TEPS at the
    # three largest sizes, the 1-D reference it must beat at 256 nodes, and
    # the codec's wire-byte reduction against the codec-off 2-D run.
    ("ablation2d.n64.twod_hier.harmonic_teps", "up"),
    ("ablation2d.n144.twod_hier.harmonic_teps", "up"),
    ("ablation2d.n256.twod_hier.harmonic_teps", "up"),
    ("ablation2d.n256.oned_gran.harmonic_teps", "up"),
    ("ablation2d.n256.twod_hier_codec.wire_bytes", "down"),
    # Self-tuning layer: the offline search must never lose to the best
    # hand-picked configuration (gain >= 1 by construction — a drop means
    # the search or the seeding broke), and the tuned absolute numbers are
    # pinned on both objectives.
    ("autotune.weak.hand_best.harmonic_teps", "up"),
    ("autotune.weak.tuned.harmonic_teps", "up"),
    ("autotune.weak.gain", "up"),
    ("autotune.engine.tuned.qps", "up"),
    ("autotune.engine.gain", "up"),
    # Frontier programs: per-workload serving throughput (every answer is
    # validated against its single-rank reference before it counts — the
    # bench exits nonzero otherwise, so `valid` doubles as a correctness
    # gate), plus the blended wave+program serving rate.
    ("vertexprog.sssp.teps", "up"),
    ("vertexprog.pagerank.teps", "up"),
    ("vertexprog.components.teps", "up"),
    ("vertexprog.triangles.total_ns", "down"),
    ("vertexprog.valid", "up"),
    ("vertexprog.mixed.qps", "up"),
]


def run_benches(build_dir, metrics_dir):
    """Run each smoke bench with --metrics, return merged {key: value}."""
    merged = {}
    for label, binary, flags in BENCHES:
        exe = os.path.join(build_dir, "bench", binary)
        if not os.path.exists(exe):
            sys.exit(f"error: {exe} not found (build the bench targets first)")
        path = os.path.join(metrics_dir, f"{label}.json")
        cmd = [exe, *flags, f"--metrics={path}"]
        print(f"[bench_baseline] running {label}: {' '.join(cmd)}")
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            print(res.stdout)
            sys.exit(f"error: {binary} exited {res.returncode}")
        with open(path) as f:
            m = json.load(f)
        if m.get("schema") != "numabfs.metrics.v1":
            sys.exit(f"error: {path} has unexpected schema {m.get('schema')}")
        for section in ("gauges", "counters"):
            for k, v in m.get(section, {}).items():
                merged[k] = float(v)
    return merged


def record(args):
    with tempfile.TemporaryDirectory() as tmp:
        merged = run_benches(args.build_dir, args.keep_metrics or tmp)
        missing = [k for k, _ in SERIES if k not in merged]
        if missing:
            sys.exit(f"error: pinned series missing from metrics: {missing}")
        doc = {
            "schema": SCHEMA,
            "tolerance": args.tolerance,
            "benches": [{"label": l, "binary": b, "flags": f}
                        for l, b, f in BENCHES],
            "series": {k: {"value": merged[k], "direction": d}
                       for k, d in SERIES},
        }
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"[bench_baseline] recorded {len(SERIES)} series -> {args.out}")


def check(args):
    with open(args.baseline) as f:
        base = json.load(f)
    if base.get("schema") != SCHEMA:
        sys.exit(f"error: {args.baseline} has schema {base.get('schema')}, "
                 f"expected {SCHEMA}")
    tol = args.tolerance if args.tolerance is not None \
        else float(base.get("tolerance", 0.15))
    with tempfile.TemporaryDirectory() as tmp:
        merged = run_benches(args.build_dir, args.keep_metrics or tmp)

    failures, rows = [], []
    for key, pin in sorted(base["series"].items()):
        ref, direction = float(pin["value"]), pin["direction"]
        cur = merged.get(key)
        if cur is None:
            failures.append(f"{key}: series missing from current metrics")
            continue
        if ref == 0:
            delta = 0.0 if cur == 0 else float("inf")
        else:
            delta = (cur - ref) / abs(ref)
        regressed = delta < -tol if direction == "up" else delta > tol
        status = "FAIL" if regressed else "ok"
        rows.append(f"  [{status:4}] {key}: {ref:.6g} -> {cur:.6g} "
                    f"({delta:+.1%}, {direction})")
        if regressed:
            failures.append(f"{key}: {ref:.6g} -> {cur:.6g} ({delta:+.1%}) "
                            f"exceeds {tol:.0%} ({direction}-series)")
    print(f"[bench_baseline] checked {len(base['series'])} series "
          f"(tolerance {tol:.0%}):")
    print("\n".join(rows))
    if failures:
        print(f"\n[bench_baseline] PERF REGRESSION ({len(failures)}):")
        for f_ in failures:
            print(f"  - {f_}")
        sys.exit(1)
    print("[bench_baseline] all series within tolerance")


def load_metrics_dir(path):
    """Every gauge and counter of the metric files in `path`, keyed by
    "<file>:<section>.<key>", with the values exactly as written."""
    out = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(path, name)) as f:
            m = json.load(f)
        for section in ("gauges", "counters"):
            for k, v in m.get(section, {}).items():
                out[f"{name}:{section}.{k}"] = v
    return out


def diff(args):
    a, b = load_metrics_dir(args.a), load_metrics_dir(args.b)
    added = sorted(b.keys() - a.keys())
    deleted = sorted(a.keys() - b.keys())
    changed = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
    for k in added:
        print(f"+ {k}: {b[k]!r}")
    for k in deleted:
        print(f"- {k}: {a[k]!r}")
    for k in changed:
        print(f"~ {k}: {a[k]!r} -> {b[k]!r}")
    print(f"[bench_baseline] {len(a)} vs {len(b)} keys: {len(added)} added, "
          f"{len(deleted)} deleted, {len(changed)} changed")
    if added or deleted or changed:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="pin current values as the baseline")
    rec.add_argument("--out", default="BENCH_baseline.json")
    rec.add_argument("--tolerance", type=float, default=0.15)
    chk = sub.add_parser("check", help="fail on >tolerance regression")
    chk.add_argument("--baseline", default="BENCH_baseline.json")
    chk.add_argument("--tolerance", type=float, default=None,
                     help="override the baseline's recorded tolerance")
    for p in (rec, chk):
        p.add_argument("--build-dir", default="build")
        p.add_argument("--keep-metrics", default=None,
                       help="write per-bench metrics JSON here (e.g. for CI "
                            "artifacts) instead of a temp dir")
    dif = sub.add_parser("diff", help="compare two --keep-metrics dirs "
                                      "key by key; exit 1 on any difference")
    dif.add_argument("a", help="metrics directory of the reference run")
    dif.add_argument("b", help="metrics directory of the run to compare")
    args = ap.parse_args()
    if args.mode == "diff":
        diff(args)
        return
    if args.keep_metrics:
        os.makedirs(args.keep_metrics, exist_ok=True)
    record(args) if args.mode == "record" else check(args)


if __name__ == "__main__":
    main()
