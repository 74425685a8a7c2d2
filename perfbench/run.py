"""tropcover benchmark: one client, closed loop, seeded towers.

    python3 perfbench/run.py --workload prym_ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Set-up runs three times, each in
a fresh interpreter, and writes the towers under `.perfbench/`.  Then
passes over the workload's ladder run, each pass in a fresh interpreter
(so the `vectors_with_norm` memo starts empty) on towers no earlier pass
used, until the next pass would end after `--seconds`.  Every item goes
through the gate in `workloads.gate`.

Every time metric is in reference seconds (see `speed.py`): each worker
runs a small fixed probe from a timer, and a span's wall time, less the
probes in it, is divided by how much slower than its reference time the
probe ran around that span.  That takes most of the shared host's speed
drift out of the figures.  Wall seconds are printed next to them.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` each pass runs untraced and then traced, each time in a fresh
interpreter; the last line reports the per-layer metrics summed over the
traced passes, and the tracing overhead.
Per-item rows (id, kind, rank or N, reference and wall seconds, status)
are printed before it.
Worker processes run with PYTHONHASHSEED=0, so a tower's work does not
depend on set iteration order.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speed import reference_seconds  # noqa: E402  (none imports tropcover at module level)
from tracer import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170


def worker(*args) -> dict:
    """Run worker.py in a fresh interpreter and read its result.

    Every span it reports (the set-up, a pass, an item) gets its wall
    seconds in "raw_s" and its reference seconds in "seconds".
    """
    # a fixed hash seed keeps set iteration order, and so the work done on a
    # tower, the same in every process
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} failed with exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    probes = result.pop("probes")
    for span in [result, *result.get("items", ())]:
        span["raw_s"] = span["end"] - span["start"]
        span["seconds"] = reference_seconds(probes, span["start"], span["end"])
    result["probe_s"] = statistics.median(seconds for _, seconds in probes)
    return result


def run_setups(workload: str, seed: int, workdir: str) -> tuple:
    """Median set-up seconds and the items; the repeats must write identical files."""
    runs = [worker("setup", workload, seed, workdir, WORKLOADS[workload].max_passes)
            for _ in range(SETUP_REPEATS)]
    if len({r["digest"] for r in runs}) != 1:
        raise SystemExit("set-up is not deterministic: tower files differ between repeats")
    return statistics.median(r["seconds"] for r in runs), runs[-1]["passes"]


def run_pass(workdir: str, index: int, items: list, spans_out=None) -> dict:
    path = os.path.join(workdir, f"pass{index}.items.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(items, fh)
    return worker("pass", path, *([spans_out] if spans_out else []))


def run_passes(workdir: str, passes: list, seconds: float, traced: bool) -> tuple:
    """Passes in order until the next one would end after `seconds`.

    With `traced`, each pass runs untraced and then traced, back to back, so
    both see the same machine conditions.  Returns (untraced, traced) results.
    """
    plain, spans = [], []
    start = time.perf_counter()
    for index, items in enumerate(passes):
        elapsed = time.perf_counter() - start
        if plain and elapsed + elapsed / len(plain) > seconds:
            break
        plain.append(run_pass(workdir, index, items))
        if traced:
            spans.append(run_pass(workdir, index, items,
                                  os.path.join(workdir, f"spans-p{index}.jsonl")))
    return plain, spans


def layer_metrics(plain: list, traced: list) -> dict:
    """Per-layer metrics summed over the traced passes, and the tracing overhead."""
    layers = {}
    for res in traced:
        # self times into reference seconds, at the pass's own slow-down
        scale = res["seconds"] / res["raw_s"]
        for name, value in res["layers"].items():
            if name.endswith("_s"):
                value *= scale
            layers[name] = layers.get(name, 0) + value
    candidates = layers["intlinalg.isometry_candidates"]
    layers["tori.iso_accept_ratio"] = (layers["tori.iso_accepted"] / candidates
                                       if candidates else 0.0)
    layers["trace.wall_s"] = sum(res["seconds"] for res in traced)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - sum(res["seconds"] for res in plain)
    return {name: (layers[name], metric_unit(name)) for name in metric_names()}


def metric_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1].rsplit("_", 1)[-1]
    return "s" if last == "s" else last if last in ("bytes", "ratio") else "count"


def print_rows(results: list):
    for res in results:
        for row in res["items"]:
            cause = f"  ({row['cause']})" if row["cause"] else ""
            print(f"{row['id']:<34} {row['kind']:<9} {row['size']:>4} "
                  f"{row['seconds']:9.3f} s  (wall {row['raw_s']:7.3f} s)  {row['status']}{cause}")


def end_to_end(results: list, setup_s: float) -> dict:
    rows = [row for res in results for row in res["items"]]
    passed = sum(row["status"] == "ok" for row in rows)
    return {
        "wall_s": (statistics.median(res["seconds"] for res in results), "s"),
        "item_p50_s": (statistics.median(row["seconds"] for row in rows), "s"),
        "item_max_s": (statistics.median(max(row["seconds"] for row in res["items"])
                                         for res in results), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(res["peak_rss_mb"] for res in results), "MB"),
        "pass_frac": (passed / len(rows), "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tropcover", "cli.py")):
        print(f"no tropcover source under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench", args.workload, f"seed-{args.seed}")
    setup_s, passes = run_setups(args.workload, args.seed, workdir)

    plain, traced = run_passes(workdir, passes, args.seconds, bool(args.trace))
    results = plain + traced
    metrics = layer_metrics(plain, traced) if args.trace else end_to_end(plain, setup_s)

    print_rows(results)
    rows = [row for res in results for row in res["items"]]
    failed = [row for row in rows if row["status"] != "ok"]
    causes = sorted({row["cause"] for row in failed})
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} wall seconds: pass median "
          f"{statistics.median(res['raw_s'] for res in plain):.6g} s, item median "
          f"{statistics.median(row['raw_s'] for res in plain for row in res['items']):.6g} s, "
          f"probe median {statistics.median(res['probe_s'] for res in plain) * 1e6:.0f} us")
    print(f"{args.workload} fail_frac = {len(failed)}/{len(rows)}"
          + (f"  causes: {', '.join(causes)}" if causes else ""))
    print(json.dumps({
        "correct": not any(row["status"] == "wrong" for row in rows),
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
