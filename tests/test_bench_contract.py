"""The benchmark's contract with the package, as a smoke test.

`perfbench/worker.py pass` reads the module-level memo of
`intlinalg.vectors_with_norm` through its `_cache` default, and with a
spans file it installs the tracer, which wraps the public functions of
every traced module and the methods named in its `METHODS` (such as
`IntegralTorus.__post_init__`, `Polarization.gram` and
`DoubleCover.from_harmonic`).  A change to any of these makes the worker
raise and the benchmark run fail.  This test runs one untraced and one
traced pass of a trigonal and a bigonal check on the shipped towers, in
fresh interpreters, as the benchmark does; it adds nothing under
perfbench/.

The benchmark run also fails when a set-up worker exits non-zero (an
import of `random_tower`, `genus`, `dilation_data`, `save` or
`tower_to_doc` gone, say) or writes different files on a repeat.  So for
each workload, the end-to-end test runs `worker.py setup WORKLOAD 1 DIR 1`
twice, compares the digests of the files written, and runs the items of
that pass untraced and traced: every worker must exit 0 and every item
must come out `ok`.  On the workloads that construct, the traced pass
must also time `ngonal.construct_s` and count `ngonal.points` above 0:
the tracer finds `ngonal_construct`, `trigonal` and `bigonal` and reads
`vertex_info` and `half_edge_info` of the construction by name, and a
name gone from there makes these layers read 0 without failing the run.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")


def _worker(*args):
    """The last line of a worker run in a fresh interpreter, as JSON, after
    asserting exit 0; the benchmark runs every worker this way."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, WORKER, *map(str, args)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _items():
    return [{"id": f"smoke-{kind}", "kind": kind, "size": 0, "tower": path,
             "steps": [["check", path, "--theorem", kind]]}
            for kind, path in (("trigonal", os.path.join(ROOT, "data", "trigonal_tower.json")),
                               ("bigonal", os.path.join(ROOT, "data", "bigonal_tower.json")))]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_worker_pass_runs_every_item_ok(tmp_path, traced):
    items = tmp_path / "items.json"
    items.write_text(json.dumps(_items()), encoding="utf-8")
    spans = [str(tmp_path / "spans.jsonl")] if traced else []
    result = _worker("pass", items, *spans)
    assert [(r["id"], r["status"]) for r in result["items"]] == \
        [("smoke-trigonal", "ok"), ("smoke-bigonal", "ok")]
    assert ("layers" in result) == traced


@pytest.mark.parametrize("workload", ["prym_ladder", "theorem_checks", "construct_roundtrip"])
def test_workload_set_up_and_pass_run_ok(tmp_path, workload):
    setups = [_worker("setup", workload, 1, tmp_path / f"setup{i}", 1) for i in range(2)]
    assert setups[0]["digest"] == setups[1]["digest"]
    items = setups[0]["passes"][0]
    path = tmp_path / "items.json"
    path.write_text(json.dumps(items), encoding="utf-8")
    for spans in ([], [str(tmp_path / "spans.jsonl")]):
        result = _worker("pass", path, *spans)
        assert [(r["id"], r["status"]) for r in result["items"]] == \
            [(item["id"], "ok") for item in items]
        assert ("layers" in result) == bool(spans)
        if spans and workload != "prym_ladder":
            # the tracer reads these by name; a moved construction would read 0
            assert result["layers"]["ngonal.construct_s"] > 0
            assert result["layers"]["ngonal.points"] > 0
