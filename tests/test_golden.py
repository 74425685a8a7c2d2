"""The golden corpus: every output of the runs `golden.py` lists is
byte-identical to the committed table, also under another hash seed."""

import json
import os
import subprocess
import sys

import golden


def test_outputs_match_the_golden_table():
    table = golden.load_table()
    # a slice reruns in a fresh interpreter under a fixed non-zero hash
    # seed, beside the in-process corpus
    env = dict(os.environ, PYTHONHASHSEED="12345")
    with subprocess.Popen([sys.executable, golden.__file__, "--slice"], env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            changed = golden.changed_keys(table, golden.digests())
            out, _ = proc.communicate(timeout=120)
        finally:
            proc.kill()
    assert not changed, f"{len(changed)} outputs changed: {changed}"
    assert proc.returncode == 0
    sliced = json.loads(out)
    assert len(sliced) > 50
    assert not golden.changed_keys({k: table.get(k) for k in sliced}, sliced)


def test_changed_keys_names_every_difference():
    expected = {"a": "1", "b": "2", "c": "3"}
    assert golden.changed_keys(expected, dict(expected)) == []
    assert golden.changed_keys(expected, {"a": "1", "b": "9", "d": "4"}) == ["b", "c", "d"]
