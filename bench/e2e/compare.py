#!/usr/bin/env python3
"""Compare two sets of e2e run records (README.md, "Comparing").

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--layers]

Each side is a directory of run records written by run.py (run.py
--out-dir). For every (workload, metric) the table gives each side's median and
quartiles, the fraction of seed-paired runs the change wins, and a verdict
under the bound BENCHMARK.json fixes for the metric:

  regression  the change's median is worse than the parent's by more than
              the bound;
  unresolved  a side's own quartile spread exceeds the bound, so the data
              cannot tell a regression from noise -- unless every run of the
              change beats every run of the parent;
  unchanged   otherwise.

Virtual metrics are exact for a seed, so when both sides ran the same seeds
they are judged on the seed-paired changes instead: "regression" when the
median paired change is worse than the bound, "unchanged" otherwise.

Workload-specific metrics that BENCHMARK.json cannot list (it needs every
end-to-end metric on every workload) use the bounds in EXTRA below. With
--layers, per-layer metrics of traced runs are listed too, without a bound.

Records within one side must come from one build (source hash, build type,
compiler) and one size; the script refuses to mix them. Exit status 1 when
any verdict is "regression", 2 on unusable input.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

# name -> (better, bound). fail_frac may not rise at all.
EXTRA = {
    "max_kqps_at_slo": ("higher", 0.005),
    "analytics_p50_ms": ("lower", 0.005),
    "fail_frac": ("lower", 0.0),
}


def load(directory):
    recs = []
    for f in sorted(Path(directory).glob("*.json")):
        if f.name.endswith(".trace.json"):
            continue
        with open(f) as fh:
            rec = json.load(fh)
        if rec.get("schema") == "numabfs.e2e.run.v1":
            recs.append(rec)
    return recs


def build_id(rec):
    p = rec["provenance"]
    return (p["source_hash"], p["build_type"], p["compiler"], rec["smoke"],
            rec["seconds"])


def check_one_build(recs, side):
    ids = {build_id(r) for r in recs}
    if len(ids) > 1:
        raise SystemExit(f"compare.py: {side} mixes builds or sizes: "
                         + "; ".join(str(i) for i in sorted(ids)))


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(parent, change, better):
    """Relative amount by which `change` is worse than `parent` (<0: better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    d = (change - parent) / abs(parent)
    return d if better == "lower" else -d


def verdict(pa, ch, better, bound):
    sign = 1 if better == "lower" else -1
    all_better = max(sign * x for x in ch) < min(sign * x for x in pa)
    if (spread(pa) > bound or spread(ch) > bound) and not all_better:
        return "unresolved"
    if worse_by(statistics.median(pa), statistics.median(ch), better) > bound:
        return "regression"
    return "unchanged"


def pair_by_seed(pa_runs, ch_runs):
    """(parent, change) value pairs of runs with the same seed, in run order
    within a seed."""
    by_seed = {}
    for side, runs in ((0, pa_runs), (1, ch_runs)):
        for seed, v in runs:
            by_seed.setdefault(seed, ([], []))[side].append(v)
    return [p for a, b in by_seed.values() for p in zip(a, b)]


def win_fraction(pairs, better):
    """Fraction of pairs the change wins, ties counting for neither."""
    wins = sum((y < x) if better == "lower" else (y > x) for x, y in pairs)
    return wins / len(pairs) if pairs else float("nan")


def rows_for(pa, ch, bench, layers):
    e2e = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    layer_better = {m["name"]: m["better"] for m in bench["per_layer"]}
    rows = []
    for w in sorted({r["workload"] for r in pa} & {r["workload"] for r in ch}):
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            if traced and not layers:
                continue
            a = [r for r in pa if r["workload"] == w and r["trace"] == traced]
            b = [r for r in ch if r["workload"] == w and r["trace"] == traced]
            if not a or not b:
                continue
            names = sorted(set(a[0][section]) & set(b[0][section]))
            for name in names:
                if section == "end_to_end":
                    better, bound = e2e.get(name) or EXTRA.get(name, (None, None))
                else:
                    better, bound = layer_better.get(name, "lower"), None
                if better is None:
                    continue
                ra = [(r["seed"], r[section][name]["value"]) for r in a
                      if r[section][name]["value"] is not None]
                rb = [(r["seed"], r[section][name]["value"]) for r in b
                      if r[section][name]["value"] is not None]
                if not ra or not rb:
                    continue
                va, vb = [v for _, v in ra], [v for _, v in rb]
                pairs = pair_by_seed(ra, rb)
                if bound is None:
                    verdict_ = "-"
                elif a[0][section][name]["clock"] == "virtual" and pairs:
                    worse = statistics.median(
                        worse_by(x, y, better) for x, y in pairs)
                    verdict_ = "regression" if worse > bound else "unchanged"
                else:
                    verdict_ = verdict(va, vb, better, bound)
                rows.append({
                    "workload": w, "metric": name,
                    "unit": a[0][section][name]["unit"],
                    "parent": quartiles(va), "change": quartiles(vb),
                    "n": (len(va), len(vb)),
                    "wins": win_fraction(pairs, better), "pairs": len(pairs),
                    "bound": bound, "verdict": verdict_,
                })
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent", help="directory of the parent's run records")
    ap.add_argument("change", help="directory of the change's run records")
    ap.add_argument("--layers", action="store_true",
                    help="also list per-layer metrics of traced runs")
    args = ap.parse_args()

    pa, ch = load(args.parent), load(args.change)
    if not pa or not ch:
        print("compare.py: no run records on one side", file=sys.stderr)
        return 2
    check_one_build(pa, "parent")
    check_one_build(ch, "change")
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)

    rows = rows_for(pa, ch, bench, args.layers)
    fmt = "{:<13} {:<26} {:>30} {:>30} {:>9} {:>6} {}"
    print(fmt.format("workload", "metric", "parent q1/median/q3",
                     "change q1/median/q3", "wins", "bound", "verdict"))
    for r in rows:
        q = lambda t: "/".join(f"{x:.4g}" for x in t)
        bound = "-" if r["bound"] is None else f"{r['bound']:.3g}"
        print(fmt.format(r["workload"], f"{r['metric']} [{r['unit']}]",
                         f"{q(r['parent'])} n={r['n'][0]}",
                         f"{q(r['change'])} n={r['n'][1]}",
                         f"{r['wins']:.2f}/{r['pairs']}", bound, r["verdict"]))
    bad = [r for r in rows if r["verdict"] == "regression"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"\n{len(rows)} rows: {len(bad)} regression, "
          f"{len(unresolved)} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
