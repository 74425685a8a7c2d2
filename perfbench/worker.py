"""Benchmark worker, started in a fresh interpreter for each set-up or pass.

    python3 perfbench/worker.py setup WORKLOAD SEED WORKDIR PASSES
    python3 perfbench/worker.py pass ITEMS_JSON [SPANS_OUT]

`setup` times import, tower generation and file writing.  `pass` runs the
items one after another through `tropcover.cli.main(argv)` in this
process, with stdout captured, and applies the gate to each.  With
SPANS_OUT it installs the tracer first and writes the spans there.
Both modes run the host-speed probe of `speed.py` throughout, and report
the `time.perf_counter()` stamps at which the set-up, the pass and each
item started and ended, with the probe samples, so that the parent can
give every span in reference seconds.
Either mode prints one JSON object as its last line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from speed import Probe  # noqa: E402  (imports no tropcover module)


def setup(workload: str, seed: int, workdir: str, passes: int) -> dict:
    probe = Probe()
    probe.start()
    start = time.perf_counter()
    import workloads  # imports tropcover lazily, inside the timed region
    passes_items = workloads.generate(workload, seed, workdir, passes)
    end = time.perf_counter()
    probe.stop()
    digest = hashlib.sha256()
    for items in passes_items:
        for item in items:
            with open(item["tower"], "rb") as fh:
                digest.update(fh.read())
    return {"start": start, "end": end, "probes": probe.samples,
            "digest": digest.hexdigest(), "passes": passes_items}


def run_pass(items: list, spans_out=None) -> dict:
    import workloads
    import tropcover.cli
    from tropcover import intlinalg
    ids = [item["id"] for item in items]
    if len(set(ids)) != len(ids):
        raise SystemExit("a pass may not run the same item twice")
    # the module-level memo that `vectors_with_norm` keeps in its `_cache={}` default
    memo = intlinalg.vectors_with_norm.__defaults__[0]
    memo_at_start = len(memo)
    if memo_at_start:
        raise SystemExit(f"vectors_with_norm memo is not empty at start ({memo_at_start})")
    tracer = None
    if spans_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    main = tropcover.cli.main  # looked up after install, so it is the traced one
    results = []
    probe = Probe()
    probe.start()
    wall_start = time.perf_counter()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        outputs, cause = [], None
        start = time.perf_counter()
        for argv in item["steps"]:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
            except Exception as exc:  # a crash is a failed item, never the end of the run
                cause = f"{argv[0]}: {type(exc).__name__}"
                break
            outputs.append((code, buf.getvalue()))
            if code != 0:
                break
        end = time.perf_counter()
        if cause is not None:
            status = "error"
        else:
            cause = workloads.gate(item, outputs)
            status = "ok" if cause is None else "wrong"
        results.append({"id": item["id"], "kind": item["kind"], "size": item["size"],
                        "start": start, "end": end, "status": status, "cause": cause})
    wall_end = time.perf_counter()
    probe.stop()
    out = {"start": wall_start, "end": wall_end, "probes": probe.samples, "items": results,
           "memo_at_start": memo_at_start, "memo_at_end": len(memo),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write(spans_out)
    return out


def main(argv) -> int:
    if argv[0] == "setup":
        result = setup(argv[1], int(argv[2]), argv[3], int(argv[4]))
    else:
        with open(argv[1], encoding="utf-8") as fh:
            items = json.load(fh)
        result = run_pass(items, argv[2] if len(argv) > 2 else None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
