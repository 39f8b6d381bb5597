#!/usr/bin/env python3
"""Build and run the two-clock end-to-end benchmark (README.md).

    python3 bench/e2e/run.py --workload g500_1d --seed 20120924 --seconds 10 --trace 0
    python3 bench/e2e/run.py --seed=7                # all four workloads
    python3 bench/e2e/run.py --workload weak_2d --smoke

Builds bench/e2e as a standalone CMake project (RelWithDebInfo, into
bench/e2e/build-e2e/), runs each workload in its own e2e_bench process,
and writes one run record per run under bench/e2e/out/ (or --out-dir).

With --workload, the last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} holding
BENCHMARK.json's end_to_end metrics (--trace 0) or its per_layer metrics
(--trace 1). The exit status is 0 only when every answer validated.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = HERE / "build-e2e"
WORKLOADS = ["g500_1d", "weak_2d", "serve_mixed", "serve_ingest"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[e2e] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build e2e_bench; returns its path. Serialized with a
    lock so concurrent runs in one checkout do not race on the tree."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no numabfs sources at {ROOT / 'src'}")
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configure every time: cheap with a cache, and it picks up a build
        # tree left by an older version of this project.
        steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                  "-j", jobs]]
        # Compiler temporaries stay inside the checkout too.
        tmp = BUILD / "tmp"
        tmp.mkdir(exist_ok=True)
        env = dict(os.environ, TMPDIR=str(tmp))
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True, env=env)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                raise RuntimeError("build failed: " + " ".join(cmd))
    return BUILD / "e2e_bench"


def source_hash():
    """Identity of the code under test: the library sources plus the
    benchmark program. Lets compare.py refuse to mix builds when git is
    absent."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt")
                   and BUILD not in p.parents)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def run_one(program, args, workload, ident):
    """One e2e_bench process; returns the parsed run record."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = (f"{workload}-s{args.seed}-t{args.trace}"
            f"-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    record = out_dir / f"{stem}.json"
    cmd = [str(program), f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--out={record}",
           f"--commit={ident[0]}", f"--source-hash={ident[1]}"]
    if args.trace:
        cmd += ["--trace", f"--trace-out={out_dir / (stem + '.trace.json')}"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1) or not record.is_file():
        raise RuntimeError(f"e2e_bench exited {proc.returncode}")
    with open(record) as f:
        return json.load(f)


def contract_line(rec):
    """The final JSON line: BENCHMARK.json's metrics for this mode."""
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    section = "per_layer" if rec["trace"] else "end_to_end"
    metrics = {}
    for m in bench[section]:
        got = rec[section].get(m["name"])
        if got is None or got["value"] is None:
            raise RuntimeError(f"run record lacks metric {m['name']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(rec["correct"]), "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all four, one process each)")
    ap.add_argument("--seed", type=int, default=20120924)
    ap.add_argument("--seconds", type=float, default=10,
                    help="measurement budget per run (passes continue until "
                         "it is spent; at least 4)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="scale <= 13, <= 64 queries, 1 pass")
    ap.add_argument("--out-dir", default=str(HERE / "out"))
    args = ap.parse_args()

    try:
        program = build()
        ident = (git_commit(), source_hash())
        if args.workload:
            rec = run_one(program, args, args.workload, ident)
            line = contract_line(rec)
            print(json.dumps(line), flush=True)
            return 0 if line["correct"] else 1
        ok = True
        for w in WORKLOADS:
            rec = run_one(program, args, w, ident)
            ok = ok and rec["correct"]
            e2e = rec["end_to_end"]
            log(f"{w}: correct={rec['correct']} " + ", ".join(
                f"{k}={v['value']:.6g} {v['unit']}" for k, v in sorted(e2e.items())
                if v["value"] is not None))
        return 0 if ok else 1
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
