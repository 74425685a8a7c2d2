"""Workload definitions: seeded tower generation and the per-item correctness gate.

A workload is a ladder of rungs.  One pass runs every rung once, each on a
tower of its own; a run makes several passes, each on fresh towers, so no
item is ever run twice.  Towers come from `tropcover.randgen.random_tower`
with sub-seeds derived from the workload seed, and are written as canonical
tower files during set-up.  Only the generated files reach the program.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Rung:
    kind: str    # "prym", "trigonal", "bigonal" or "roundtrip"
    cover: str   # "free" (degree 3, free double cover) or "dilated" (degree 2)
    size: int    # Prym rank, or base vertices N for a round trip
    base: int    # base tree vertices N; chosen so that `size` is a likely rank


@dataclass(frozen=True)
class Workload:
    rungs: tuple
    max_passes: int


WORKLOADS = {
    "prym_ladder": Workload((
        Rung("prym", "free", 8, 12), Rung("prym", "free", 16, 25),
        Rung("prym", "dilated", 27, 36)), max_passes=12),
    "theorem_checks": Workload((
        Rung("trigonal", "free", 7, 13), Rung("bigonal", "dilated", 7, 13),
        Rung("trigonal", "free", 8, 13)), max_passes=36),
    "construct_roundtrip": Workload(tuple(
        Rung("roundtrip", "free", n, n) for n in (50, 100, 200)), max_passes=5),
}


def sub_seed(*parts) -> int:
    """Stable 48-bit seed from the workload seed and an item's coordinates."""
    text = "/".join(str(p) for p in parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


def prym_rank(tower) -> int:
    from tropcover.graphs import genus
    return genus(tower.top) - genus(tower.mid)


def tower_for(rung: Rung, *parts):
    """Deterministic tower over a base tree of `rung.base` vertices; for a
    Prym rung, the first sample whose Prym rank is `rung.size`."""
    from tropcover.randgen import random_tower
    degree, free = (3, True) if rung.cover == "free" else (2, False)
    for attempt in range(1000):
        gen = random_tower(sub_seed(*parts, attempt), n=degree, tree_size=(rung.base, rung.base),
                           pi_free=free, generic=rung.kind == "bigonal")
        if rung.kind == "roundtrip" or prym_rank(gen.tower) == rung.size:
            return gen
    raise RuntimeError(f"no tower of Prym rank {rung.size} for {parts}")


def generate(name: str, seed: int, workdir: str, passes: int) -> list:
    """Write the tower files of `passes` passes; return their items.

    An item is a JSON-ready dict: id, kind, size, tower file, the CLI argv
    of each step, and what the prym gate expects.
    """
    from tropcover.graphs import dilation_data
    from tropcover.towerio import save, tower_to_doc

    os.makedirs(workdir, exist_ok=True)
    out = []
    for p in range(passes):
        items = []
        for i, rung in enumerate(WORKLOADS[name].rungs):
            label = f"p{p}-{i}-{rung.kind}-{rung.cover}-{rung.size}"
            gen = tower_for(rung, name, seed, p, i, rung.kind, rung.cover, rung.size)
            path = os.path.join(workdir, label + ".json")
            save(path, tower_to_doc(gen.tower, gen.base_metric,
                                    meta={"workload": name, "seed": seed, "item": label}))
            item = {"id": label, "kind": rung.kind, "size": rung.size, "tower": path}
            if rung.kind == "prym":
                dil = dilation_data(gen.tower.pi)
                item["steps"] = [["prym", path]]
                item["expect"] = {"rank": prym_rank(gen.tower),
                                  "type": list((1,) * dil.B + (2,) * dil.A)}
            elif rung.kind in ("trigonal", "bigonal"):
                item["steps"] = [["check", path, "--theorem", rung.kind]]
            else:
                quartic = os.path.join(workdir, label + ".quartic.json")
                back = os.path.join(workdir, label + ".back.json")
                item["steps"] = [["construct", path, "--op", "trigonal", "--out", quartic],
                                 ["construct", quartic, "--op", "recillas", "--out", back],
                                 ["compare", path, back]]
            items.append(item)
        out.append(items)
    return out


_PRYM_HEAD = re.compile(r"rank (\d+); polarization type \(([\d, ]*)\)")


def gate(item: dict, outputs: list):
    """None if the outputs of all steps are right, else the reason.

    `outputs` holds (exit code, stdout) per step.  The checks do not depend
    on a choice of basis: Prym rank and polarization type against genus and
    dilation counts, PASS of a theorem check, `isomorphic` after a round trip.
    """
    code, text = outputs[-1]
    if code != 0:
        return f"{item['steps'][len(outputs) - 1][0]}: exit {code}"
    lines = text.splitlines()
    if item["kind"] == "prym":
        m = _PRYM_HEAD.match(lines[0]) if lines else None
        if m is None:
            return "prym: no rank line"
        rank = int(m.group(1))
        ptype = [int(x) for x in m.group(2).replace(" ", "").split(",") if x]
        if rank != item["expect"]["rank"]:
            return f"prym: rank {rank} != genus difference {item['expect']['rank']}"
        if ptype != item["expect"]["type"]:
            return "prym: polarization type differs from (1^B, 2^A)"
        return None
    if item["kind"] in ("trigonal", "bigonal"):
        return None if "PASS" in lines else "check: no PASS line"
    return None if "isomorphic" in lines else "compare: not isomorphic"
