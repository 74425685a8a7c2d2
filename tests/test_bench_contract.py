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
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")


def _items():
    return [{"id": f"smoke-{kind}", "kind": kind, "size": 0, "tower": path,
             "steps": [["check", path, "--theorem", kind]]}
            for kind, path in (("trigonal", os.path.join(ROOT, "data", "trigonal_tower.json")),
                               ("bigonal", os.path.join(ROOT, "data", "bigonal_tower.json")))]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_worker_pass_runs_every_item_ok(tmp_path, traced):
    items = tmp_path / "items.json"
    items.write_text(json.dumps(_items()), encoding="utf-8")
    argv = [sys.executable, WORKER, "pass", str(items)]
    if traced:
        argv.append(str(tmp_path / "spans.jsonl"))
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert [(r["id"], r["status"]) for r in result["items"]] == \
        [("smoke-trigonal", "ok"), ("smoke-bigonal", "ok")]
    assert ("layers" in result) == traced
