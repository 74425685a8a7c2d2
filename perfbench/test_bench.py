"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def worker(*args) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
                          cwd=os.path.dirname(HERE), capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tower_bytes(passes) -> list:
    out = []
    for items in passes:
        for item in items:
            with open(item["tower"], "rb") as fh:
                out.append(fh.read())
    return out


def without_meta(data: bytes) -> dict:
    doc = json.loads(data)
    doc.pop("meta")
    return doc


def test_same_seed_same_files_other_seed_other_towers(tmp_path):
    first = worker("setup", "theorem_checks", 5, tmp_path / "a", 1)
    again = worker("setup", "theorem_checks", 5, tmp_path / "b", 1)
    other = worker("setup", "theorem_checks", 6, tmp_path / "c", 1)
    assert tower_bytes(first["passes"]) == tower_bytes(again["passes"])
    assert first["digest"] == again["digest"]
    a, c = tower_bytes(first["passes"]), tower_bytes(other["passes"])
    assert all(without_meta(x) != without_meta(y) for x, y in zip(a, c))


def small_pass(tmp_path) -> str:
    passes = worker("setup", "theorem_checks", 3, tmp_path / "towers", 1)["passes"]
    items = [item for item in passes[0] if item["size"] == 7]
    path = tmp_path / "items.json"
    path.write_text(json.dumps(items))
    return str(path)


def test_memo_is_empty_when_each_timed_pass_starts(tmp_path):
    items = small_pass(tmp_path)
    for _ in range(2):
        result = worker("pass", items)
        assert result["memo_at_start"] == 0
        assert result["memo_at_end"] > 0  # the checks did fill it
        assert [row["status"] for row in result["items"]] == ["ok", "ok"]


def test_traced_pass_reports_every_layer_metric(tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = worker("pass", small_pass(tmp_path), spans)
    combined = ("tori.iso_accept_ratio", "trace.wall_s", "trace.overhead_s")
    expected = [n for n in tracer.metric_names() if n not in combined]
    assert sorted(result["layers"]) == sorted(expected)
    assert result["layers"]["intlinalg.vectors_enumerated"] > 0
    assert result["layers"]["tori.hom_checks"] > 0
    with open(spans, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == result["layers"]["trace.spans"]
    roots = [r for r in rows if r[4] == -1]
    assert [r[1] for r in roots] == ["cli.main", "cli.main"]
    assert {r[0] for r in roots} == {0, 1}


def test_gate_rejects_wrong_outputs():
    prym = {"kind": "prym", "steps": [["prym", "t.json"]],
            "expect": {"rank": 3, "type": [1, 2, 2]}}
    assert workloads.gate(prym, [(0, "rank 3; polarization type (1, 2, 2)\n")]) is None
    assert workloads.gate(prym, [(0, "rank 4; polarization type (1, 2, 2, 2)\n")])
    assert workloads.gate(prym, [(0, "rank 3; polarization type (2, 2, 2)\n")])
    check = {"kind": "trigonal", "steps": [["check", "t.json"]]}
    assert workloads.gate(check, [(0, "Prym principal Gram:\nPASS\n")]) is None
    assert workloads.gate(check, [(1, "FAIL: no isometry found\n")])
    trip = {"kind": "roundtrip", "steps": [["compare", "a", "b"]]}
    assert workloads.gate(trip, [(0, "isomorphic\n")]) is None
    assert workloads.gate(trip, [(0, "not isomorphic\n")])


def test_reference_seconds_take_out_probes_and_slowdown():
    ref = speed.REFERENCE_PROBE_S
    # probes twice as slow as the reference every 0.1 s over [0, 1): the host
    # runs at half speed, and the probes took 10 * 2 * ref of the second
    samples = [(k / 10, 2 * ref) for k in range(10)]
    assert math.isclose(speed.reference_seconds(samples, 0.0, 1.0), (1.0 - 20 * ref) / 2)
    # a span with no probe inside is scaled by the probes around it
    assert math.isclose(speed.reference_seconds(samples, 0.55, 0.58), 0.03 / 2)


def test_probe_samples_while_work_runs():
    probe = speed.Probe()
    probe.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(i * i for i in range(1000))
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert all(seconds > 0 for _, seconds in probe.samples)
