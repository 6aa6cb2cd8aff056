#!/usr/bin/env python3
"""Compare benchmark runs of two commits against the bounds in BENCHMARK.json.

    benchmark/compare.py BASE_DIR... -- CHANGE_DIR...

Each DIR is one run's --out directory of benchmark/run.sh, holding one
<workload>.json per workload and, from a traced run, <workload>.traced.json.
Run the two sides alternately, the same number of times; run i of the base
is paired with run i of the change.  Only full-length runs compare: a result
from a smoke run, or from a run whose --seconds differs from run_seconds in
BENCHMARK.json, is refused.

For every (workload, end-to-end metric) it prints each side's median and
quartiles, the share of pairs the change wins (ties count for neither), and
a verdict:

  gain          the change wins >= 9/10 of the pairs and its median beats
                the base median by more than the base's interquartile range
  unresolved    a side's spread (IQR / median) is wider than the bound, and
                not every change run beats every base run
  regression    the change's median is worse than the base's by more than
                the bound
  within bound  otherwise

Where both sides have traced results, it then prints every per-layer
metric's median on each side, with the end-to-end metrics benchmark/
layers.json says a change to that layer should move on that workload
("none: bypassed" where the workload bypasses the layer, so its end-to-end
metrics should not move; "-" where the map says nothing).  Per-layer
metrics have no bounds and no verdict.

Exits 1 if any verdict is a regression.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    """BENCHMARK.json and the layer map, checked against each other."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)["per_layer"]
    names = [m["name"] for m in spec["per_layer"]]
    if sorted(layers) != sorted(names):
        sys.exit("layers.json does not map exactly the per_layer metrics of "
                 "BENCHMARK.json")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for name, entry in layers.items():
        named = set(entry["unchanged_on"])
        for metric, on in entry["moves"].items():
            if metric not in end_to_end:
                sys.exit(f"layers.json: {name} moves unknown metric {metric}")
            named.update(on)
        if not named <= workloads:
            sys.exit(f"layers.json: {name} names an unknown workload")
    return spec, layers


def load_runs(dirs, run_seconds):
    """({workload: {metric: [value per run]}} untraced, the same traced)."""
    runs, traced = {}, {}
    for d in dirs:
        for name in sorted(os.listdir(d)):
            parts = name.split(".")
            if parts[-1] != "json" or len(parts) not in (2, 3):
                continue
            if len(parts) == 3 and parts[1] != "traced":
                continue  # the Chrome traces
            path = os.path.join(d, name)
            with open(path) as f:
                result = json.load(f)
            env = result["env"]
            if env["smoke"] or env["seconds"] != run_seconds:
                sys.exit(f"{path}: a {env['seconds']} s{' smoke' * env['smoke']}"
                         f" run; only {run_seconds} s runs compare")
            target = traced if len(parts) == 3 else runs
            metrics = target.setdefault(result["workload"], {})
            for metric, m in result["metrics"].items():
                metrics.setdefault(metric, []).append(m["value"])
    return runs, traced


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound):
    """The verdict and the change's share of pair wins."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0) / len(pairs)
    b_med, c_med = statistics.median(base), statistics.median(change)
    b_q1, b_q3 = quartiles(base)
    c_q1, c_q3 = quartiles(change)
    spread = max(b_q3 - b_q1, c_q3 - c_q1) / abs(b_med) if b_med else 0.0
    worse = -sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if wins >= 0.9 and sign * (c_med - b_med) > b_q3 - b_q1:
        return "gain", wins
    if spread > bound and not all_better:
        return "unresolved", wins
    if worse > bound:
        return "regression", wins
    return "within bound", wins


def compare_end_to_end(spec, base, change):
    """Print the end-to-end table; return the number of regressions."""
    print(f"{'workload':12} {'metric':18} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>5}  verdict")
    regressions = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in change:
            print(f"{workload:12} (missing on one side)")
            continue
        for m in spec["end_to_end"]:
            b, c = base[workload].get(m["name"]), change[workload].get(m["name"])
            if not b or not c:
                print(f"{workload:12} {m['name']:18} (missing on one side)")
                continue
            v, wins = verdict(b, c, m["better"], m["bound"])
            regressions += v == "regression"
            cells = []
            for values in (b, c):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.6g} "
                             f"[{q1:.6g}, {q3:.6g}]")
            print(f"{workload:12} {m['name']:18} {cells[0]:>34} {cells[1]:>34} "
                  f"{wins:5.0%}  {v}")
    return regressions


def compare_per_layer(spec, layers, base, change):
    workloads = [w["name"] for w in spec["workloads"]
                 if w["name"] in base and w["name"] in change]
    if not workloads:
        return
    print(f"\n{'workload':12} {'per-layer metric':34} {'base median':>14} "
          f"{'change median':>14}  should move")
    for workload in workloads:
        for m in spec["per_layer"]:
            b = base[workload].get(m["name"])
            c = change[workload].get(m["name"])
            if not b or not c:
                continue
            entry = layers[m["name"]]
            moves = [e for e, on in entry["moves"].items() if workload in on]
            if workload in entry["unchanged_on"]:
                moves = ["none: bypassed"]
            print(f"{workload:12} {m['name']:34} {statistics.median(b):14.6g} "
                  f"{statistics.median(c):14.6g}  {', '.join(moves) or '-'}")


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    base_dirs, change_dirs = argv[:split], argv[split + 1:]
    if not base_dirs or not change_dirs:
        sys.exit(__doc__)
    spec, layers = load_spec()
    base, base_traced = load_runs(base_dirs, spec["run_seconds"])
    change, change_traced = load_runs(change_dirs, spec["run_seconds"])
    regressions = compare_end_to_end(spec, base, change)
    compare_per_layer(spec, layers, base_traced, change_traced)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
