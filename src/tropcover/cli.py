"""Command line interface.

Subcommands: validate, construct, classify, jacobian, prym, check,
random, export-dot, compare.  Every command reads tower files through one
checking loader, ``towerio.load``, so a file that the loader rejects is
rejected by all of them, the same way.  Exit codes:

- 0: pass.
- 1, issue report on stdout: the file breaks the graph, metric or
  harmonicity axioms on some level, or it has 2 levels and the top one is
  not a double cover; one line per issue, as ``validate`` prints it.
- 1, ``error: tower file: ...`` on stderr: the file is malformed (a
  missing field, a wrong JSON type, a non-integer key).  Other errors,
  failed checks and violated preconditions also exit 1.
- 2: usage error, including ``random`` arguments out of range.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from math import gcd

# kept at module level: importing cli loads every module, before any command is timed
from .graphs import (GraphError, PreconditionError, covers_isomorphic_over_base, is_tree,
                     towers_isomorphic)
from .jacprym import check_bigonal_duality, check_trigonal_prym, jacobian, prym
from .metrics import format_length, induce_metric
from .ngonal import (bigonal, classify_bigonal_point, classify_tetragonal_point,
                     ngonal_construct, recillas, tetragonal_split, trigonal)
from .randgen import GenerationError, random_tower
from .towerio import (InvalidTowerFile, file_to_doc, load, provenance_meta, save,
                      tower_to_doc)


def _format_matrix(rows, d=1) -> str:
    """The matrix of integer rows / d, each entry in lowest terms."""
    if not rows:
        return "  (empty)"

    def cell(x):
        g = gcd(x, d)
        return str(x // g) if g == d else f"{x // g}/{d // g}"
    cells = [[cell(x) for x in row] for row in rows]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  [ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells)


def cmd_validate(args) -> int:
    loaded = load(args.path)
    print(f"OK: base tree={is_tree(loaded.base)}, levels={len(loaded.levels)}, "
          f"degrees={[f.global_degree() for f in loaded.levels]}")
    return 0


def cmd_construct(args) -> int:
    loaded = load(args.path)
    out = args.out or (args.path + f".{args.op}.json")
    if args.op == "bigonal":
        result = bigonal(loaded.tower())
        doc = tower_to_doc(result.tower, loaded.base_metric,
                           meta={"construction": "bigonal",
                                 "points": provenance_meta(result.construction)})
        save(out, doc)
    elif args.op == "trigonal":
        result = trigonal(loaded.tower())
        doc = file_to_doc(loaded.base_metric, [result.quartic],
                          meta={"construction": "trigonal"})
        save(out, doc)
    elif args.op == "recillas":
        # the bottom level: a quartic file's one level, or the degree-4
        # level of a (2,4) tower, as classify reads it
        result = recillas(loaded.level(0))
        doc = tower_to_doc(result.tower, loaded.base_metric, meta={"construction": "recillas"})
        save(out, doc)
    elif args.op == "tetragonal-split":
        result = tetragonal_split(loaded.tower())
        for i, tower in enumerate(result.towers, start=1):
            # number the .json suffix only, not a .json elsewhere in the path
            path = out.removesuffix(".json") + f".{i}.json" if out.endswith(".json") \
                else f"{out}.{i}"
            save(path, tower_to_doc(tower, loaded.base_metric,
                                    meta={"construction": f"tetragonal-split {i}"}))
            print(f"wrote {path}")
        return 0
    else:  # ngonal
        cons = ngonal_construct(loaded.tower(), args.n)
        doc = file_to_doc(loaded.base_metric, [cons.cover_to_base],
                          meta={"construction": f"ngonal n={args.n}",
                                "points": provenance_meta(cons)})
        save(out, doc)
    print(f"wrote {out}")
    return 0


def cmd_classify(args) -> int:
    loaded = load(args.path)
    if len(loaded.levels) == 2 and loaded.levels[0].global_degree() == 2:
        tower = loaded.tower()
        print("point\ttype (hyperelliptic tower: I-V)")
        for p in loaded.base.points():
            print(f"{p}\t{classify_bigonal_point(tower, p)}")
        return 0
    if not loaded.levels or loaded.levels[0].global_degree() != 4:
        raise PreconditionError(
            "degree", "classification needs a (2,2) tower or a degree-4 bottom level")
    quartic = loaded.levels[0]
    # the whole table first: a non-generic point prints no partial table
    rows = [f"{p}\t{classify_tetragonal_point(quartic, p)}" for p in loaded.base.points()]
    print("point\ttype (quartic cover: A-C)")
    print("\n".join(rows))
    return 0


def cmd_jacobian(args) -> int:
    loaded = load(args.path)
    metric = loaded.base_metric
    for level in loaded.levels:
        metric = induce_metric(level, metric)
    jac = jacobian(metric)
    print(f"genus {jac.basis.rank}; Gram matrix of the top curve's Jacobian:")
    d, gram = jac.polarization.torus.form
    print(_format_matrix(gram, d))
    return 0


def cmd_prym(args) -> int:
    loaded = load(args.path)
    tower = loaded.tower()
    data = prym(tower.pi, induce_metric(tower.f, loaded.base_metric))
    print(f"rank {data.rank}; polarization type {data.type}")
    print("pairing [(beta, alpha+) x (beta, alpha+ - alpha-)]:")
    d, pairing = data.polarization.torus.form
    print(_format_matrix(pairing, d))
    print("principal model Gram:")
    d, gram = data.principal.polarized.gram()
    print(_format_matrix(gram, d))
    return 0


def cmd_check(args) -> int:
    loaded = load(args.path)
    tower = loaded.tower()
    if args.theorem == "bigonal":
        result = check_bigonal_duality(tower, loaded.base_metric)
        tables = (("pairing table (input tower):", "pairing"),
                  ("dual pairing table (constructed tower):", "dual_pairing"))
    else:
        result = check_trigonal_prym(tower, loaded.base_metric)
        tables = (("Prym principal Gram:", "prym_gram"),
                  ("Jacobian Gram of the constructed quartic curve:", "jacobian_gram"))
    for title, name in tables:
        # (D, integer rows); a FAIL on polarization types carries no tables
        d, rows = result.details.get(name, (1, ()))
        print(title)
        print(_format_matrix(rows, d))
    if result.passed:
        a, b = result.witness
        print("witness (pull):")
        print(_format_matrix(a))
        print("witness (push):")
        print(_format_matrix(b))
        print("PASS")
        return 0
    print(f"FAIL: {result.details.get('reason', 'no isometry found')}")
    return 1


def cmd_random(args) -> int:
    pi_free = True if args.pi_free else (False if args.pi_dilated else None)
    gen = random_tower(args.seed, n=args.n, tree_size=args.tree_size,
                       dilation_probability=args.dilation,
                       length_range=args.length_range, pi_free=pi_free,
                       generic=args.generic, connected=not args.allow_disconnected)
    save(args.out, tower_to_doc(gen.tower, gen.base_metric,
                                meta={"seed": args.seed, "n": args.n}))
    print(f"wrote {args.out}")
    return 0


def cmd_export_dot(args) -> int:
    loaded = load(args.path)
    lines = ["digraph tower {", "  edge [dir=none];"]
    lines.append("  subgraph cluster_base {")
    lines.append('    label="base";')
    for v in loaded.base.vertices:
        lines.append(f'    base_{v} [label="{v}"];')
    for k in loaded.base.edge_keys():
        u, v = loaded.base.edge_ends(k)
        length = format_length(loaded.base_metric.length[k])
        lines.append(f'    base_{u} -> base_{v} [label="len {length}"];')
    lines.append("  }")
    prefix = "base"
    metric = loaded.base_metric
    for i, level in enumerate(loaded.levels):
        metric = induce_metric(level, metric)
        name = f"level{i}"
        lines.append(f"  subgraph cluster_{name} {{")
        lines.append(f'    label="{name} (degree {level.global_degree()})";')
        for v in level.source.vertices:
            d = level.vertex_degree[v]
            shape = ", penwidth=2" if d > 1 else ""
            lines.append(f'    {name}_{v} [label="{v} (d={d})"{shape}];')
        for k in level.source.edge_keys():
            u, v = level.source.edge_ends(k)
            d = level.half_edge_degree[k]
            length = format_length(metric.length[k])
            pen = ", penwidth=2" if d > 1 else ""
            lines.append(f'    {name}_{u} -> {name}_{v} [label="d={d}, len {length}"{pen}];')
        lines.append("  }")
        for v in sorted(level.source.vertices):
            lines.append(f"  {name}_{v} -> {prefix}_{level.v(v)} [style=dashed, dir=forward, constraint=false];")
        prefix = name
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_compare(args) -> int:
    first, second = load(args.path), load(args.other)
    if first.base == second.base and first.base_metric.length != second.base_metric.length:
        raise GraphError("compare requires identical base lengths")
    if len(first.levels) == 2 and len(second.levels) == 2:
        found = towers_isomorphic(first.tower(), second.tower())
    else:
        found = covers_isomorphic_over_base(first.level(-1), second.level(-1))
    if found is not None:
        print("isomorphic")
        return 0
    print("not isomorphic")
    return 1


def _int_range(least: int):
    """argparse type of "lo,hi": integers with least <= lo <= hi."""
    def parse(text: str) -> tuple:
        try:
            lo, hi = (int(x) for x in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not lo,hi") from None
        if not least <= lo <= hi:
            raise argparse.ArgumentTypeError(f"{text!r} needs {least} <= lo <= hi")
        return lo, hi
    return parse


def _probability(text: str) -> Fraction:
    """argparse type of a fraction p with 0 <= p <= 1."""
    try:
        p = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a fraction") from None
    if not 0 <= p <= 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not in [0, 1]")
    return p


_COMMANDS = ("validate", "construct", "classify", "jacobian", "prym", "check", "random",
             "export-dot", "compare")


class _FullParserNeeded(Exception):
    pass


class _OneCommandParser(argparse.ArgumentParser):
    """A parser holding one subcommand.  Its usage does not list the other
    commands, so on any error it hands over to the full parser, which
    parses the same arguments again and reports the error."""

    def error(self, message):
        raise _FullParserNeeded


def _parser(names, parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The command line parser with the subcommands in `names` registered."""
    parser = parser_class(
        prog="tropcover",
        description="Exact constructions on harmonic covers of metric graphs: "
                    "degree-n section covers, Jacobians, norm-kernel tori and "
                    "their duality/isomorphism checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    if "validate" in names:
        p = sub.add_parser("validate", help="validate a tower file")
        p.add_argument("path")
        p.set_defaults(func=cmd_validate)

    if "construct" in names:
        p = sub.add_parser("construct", help="run a construction on a tower file")
        p.add_argument("path")
        p.add_argument("--op", required=True,
                       choices=["bigonal", "trigonal", "recillas", "tetragonal-split", "ngonal"])
        p.add_argument("--n", type=int, default=2, help="degree for --op ngonal")
        p.add_argument("--out")
        p.set_defaults(func=cmd_construct)

    if "classify" in names:
        p = sub.add_parser("classify", help="per-point fiber type table")
        p.add_argument("path")
        p.set_defaults(func=cmd_classify)

    if "jacobian" in names:
        p = sub.add_parser("jacobian", help="Gram matrix of the top curve's Jacobian")
        p.add_argument("path")
        p.set_defaults(func=cmd_jacobian)

    if "prym" in names:
        p = sub.add_parser("prym", help="norm-kernel pairing and polarization type")
        p.add_argument("path")
        p.set_defaults(func=cmd_prym)

    if "check" in names:
        p = sub.add_parser("check", help="run a duality/isomorphism theorem check")
        p.add_argument("path")
        p.add_argument("--theorem", required=True, choices=["bigonal", "trigonal"])
        p.set_defaults(func=cmd_check)

    if "random" in names:
        p = sub.add_parser("random", help="generate a seeded random tower")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--n", type=int, required=True, choices=[2, 3, 4])
        p.add_argument("--out", required=True)
        # a one-vertex base has no edge to carry a cover's degrees
        p.add_argument("--tree-size", type=_int_range(2), default="2,5", help="lo,hi base vertices")
        p.add_argument("--dilation", type=_probability, default="1/3")
        p.add_argument("--length-range", type=_int_range(1), default="1,6", help="lo,hi edge lengths")
        pi = p.add_mutually_exclusive_group()
        pi.add_argument("--pi-free", action="store_true")
        pi.add_argument("--pi-dilated", action="store_true")
        p.add_argument("--generic", action="store_true")
        p.add_argument("--allow-disconnected", action="store_true")
        p.set_defaults(func=cmd_random)

    if "export-dot" in names:
        p = sub.add_parser("export-dot", help="DOT rendering with dilation as edge labels")
        p.add_argument("path")
        p.add_argument("--out")
        p.set_defaults(func=cmd_export_dot)

    if "compare" in names:
        p = sub.add_parser("compare", help="isomorphism of two files over the same base")
        p.add_argument("path")
        p.add_argument("other")
        p.set_defaults(func=cmd_compare)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    return _parser(_COMMANDS)


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """A parser with subcommand `name` only, built once per process."""
    return _parser((name,), _OneCommandParser)


def main(argv=None) -> int:
    """Run one command.  Only the subcommand that argv[0] names is
    registered; `-h`, a missing or unknown command and any usage error go
    to the full parser, so help, usage and error text are its own."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if not argv or argv[0] not in _COMMANDS:
            raise _FullParserNeeded
        args = _command_parser(argv[0]).parse_args(argv)
    except _FullParserNeeded:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidTowerFile as exc:
        print("\n".join(exc.issues))
        return 1
    except PreconditionError as exc:
        print(f"precondition violated [{exc.condition}]: {exc.message}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
