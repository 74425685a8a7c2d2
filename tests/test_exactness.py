"""Static guards on the package source: the no-floats rule (no float
literal, no use of the name `float`, no floating-point math call), no
bare `assert`, which `python -O` strips, so that every self-check stays on,
a floor on the number of those self-checks (`raise AssertionError`), so
that making them cheaper never removes one, and no Smith normal form
(`snf`, `SNF`): every polarization the package builds is in adapted form,
and the Smith form lives in tests/oracles.py.  The Prym and torus modules
also take no Fraction route: `jacprym.py` and `tori.py` call neither
`inverse` nor `to_fractions`, and carry (D, integer rows) instead, and
`intlinalg.py` and `tori.py` neither import nor name `Fraction` or the
`fractions` module.  The package has one matrix product, `int_matmul`,
and one unimodularity test, `unimodular_inverse`: it neither defines nor
names the Fraction-aware `matmul`, the determinant `det`,
`is_unimodular`, `mat_equal` or `matvec`, which live in tests/oracles.py
where tests use them.  Chains move along
maps in one place: `jacprym.py` reads no `half_edge_info` of a
construction, and names `edge_key` only in `chain_image`, the one signed
edge-key loop, and in `_adapted_tree`, which reads tree edges.  Fibers
are read once: in `ngonal.py`, `tower_fiber` is named only by
`ngonal_construct`, which keeps the fibers on its result, and by
`classify_bigonal_point`, and `bigonal` names `classify_bigonal_point`
once, for the self-check of its type map on the output.  The metric of a
cover's source is induced from its target, never passed in: no public
function takes a `source_metric`, and `jacprym.py` and `cli.py` do not
name `validate_metric_harmonic`, nor `tower_metrics` outside its
definition, since `prym` induces the top metric itself.  A harmonic
morphism is one value holding its maps and degrees: the package neither
defines, imports nor names a `GraphMorphism`, and reads no
`.morphism.vmap`, `.morphism.hmap`, `.morphism.source` or
`.morphism.target` chain.  A double cover is one too: `DoubleCover`
subclasses `HarmonicMorphism` and has no `cover` member, the package
neither defines nor names `BuiltDoubleCover` or `InvolutionQuotient`, and
reads no `.pi.cover` or `.cover.cover` chain.  Each lattice value has one
home: the package neither defines nor names `DualPolarization` (the dual
is a `Polarization`), and no record in `COPIED_FIELDS` keeps a field that
copied a value another record holds.  Every module of the package
is reached from `cli.py` through package-relative imports, so a module that
only tests import lives in tests/, and so is every top-level function and
class, by name from `cli.main`, so a definition only tests call lives
there too.  Every option is used: each optional parameter of a package
function is passed by some call in the package, and each default of a
`_`-prefixed function is relied on by some call, calls matched by name,
save the exemptions `DEAD_OPTION_EXEMPT` gives reasons for.  The shape
table is the one model of multisections: the package neither defines
nor names the tuple model (`Multisection`,
`_canonical`, `multisection_degree`, `multisection_sign`,
`swap_multisection`), defines no top-level `multisections` and no
`FiberDatum.part`; the model lives in tests/oracles.py.  The Recillas
construction reads the section construction's tables: the package
neither defines nor names the four-slot model (`_SLOT_PAIRS`,
`_SlotClasses`, `_slot_classes`, `_carried_classes`), which lives in
tests/oracles.py, and `recillas` reaches `_shape_table` and `_glue_table`
through the functions it names."""

import ast
import dataclasses
import importlib
import math
import os

from tropcover.graphs import DoubleCover, HarmonicMorphism
from tropcover.ngonal import FiberDatum

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tropcover")
FLOAT_MATH = {"sqrt", "log", "exp"}


def forbidden_uses(tree):
    """(line, description) of each floating-point construct and bare assert in the tree."""
    math_names = {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "math"
                  for alias in node.names if alias.name in FLOAT_MATH}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and (node.id == "float" or node.id in math_names):
            yield node.lineno, f"name {node.id}"
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.Assert):
            yield node.lineno, "bare assert"


def name_uses(tree, names):
    """(line, description) of each definition of, reference to or import of
    one of `names`, read off the AST, so docstrings and comments are free."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name in names:
            yield node.lineno, f"defines {node.name}"
        elif isinstance(node, ast.Name) and node.id in names:
            yield node.lineno, f"name {node.id}"
        elif isinstance(node, ast.Attribute) and node.attr in names:
            yield node.lineno, f"attribute {node.attr}"
        elif isinstance(node, ast.alias) and (node.name in names or node.asname in names):
            yield node.lineno, f"imports {node.name}"


SMITH = {"snf", "SNF"}


def smith_form_uses(tree):
    """(line, description) of each definition of or reference to snf or SNF."""
    return name_uses(tree, SMITH)


REPLACED_HELPERS = {"matmul", "det", "is_unimodular", "mat_equal", "matvec"}


FRACTION_ROUTE = {"inverse", "to_fractions"}
INTEGER_FORM_MODULES = ("jacprym.py", "tori.py")


def fraction_route_uses(tree):
    """(line, description) of each reference to `inverse` or `to_fractions`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in FRACTION_ROUTE:
            yield node.lineno, f"name {node.id}"
        elif isinstance(node, ast.Attribute) and node.attr in FRACTION_ROUTE:
            yield node.lineno, f"attribute {node.attr}"
        elif isinstance(node, ast.alias) and node.name in FRACTION_ROUTE:
            yield node.lineno, f"imports {node.name}"


# `raise AssertionError` statements in the package source when the floor
# was last raised (63, less the mid-basis determinant check, which one
# sparse inverse of diag(T, mid) then shared with the top basis, plus the
# M M^-1 == I certificate of `intlinalg.unimodular_inverse` and the
# K^T G K == diag(type) R^T G K certificate of `jacprym.prym`); it may
# rise, but a self-check is made cheaper, never removed.  The four checks
# of the collapsed-model basis builder left with it and were replaced by
# four checks of the facts the lifted-tree construction relies on
SELF_CHECK_FLOOR = 64


def self_checks(tree):
    """Line of each `raise AssertionError` statement, with or without a message."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


def package_trees():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=name)


def test_guard_catches_each_construct():
    source = ("import math\nfrom math import exp as e\n"
              "x = 0.5\ny = float(1)\nz = math.sqrt(2) + math.log(3)\nw = e(1)\n")
    found = [what for _, what in forbidden_uses(ast.parse(source))]
    assert sorted(found) == sorted(["float literal 0.5", "name float", "math.sqrt",
                                    "math.log", "name e"])


def test_guard_catches_bare_assert():
    source = "def check(x):\n    assert x > 0, 'positive'\n    if x > 9:\n        raise AssertionError\n"
    assert list(forbidden_uses(ast.parse(source))) == [(2, "bare assert")]


def test_guard_catches_smith_form():
    source = ("from .intlinalg import snf as smith\nfrom . import intlinalg as la\n"
              "class SNF:\n    pass\ndef snf(m):\n    return la.snf(m)\n"
              "def f(m):\n    return snf(m)\n")
    assert sorted(smith_form_uses(ast.parse(source))) == [
        (1, "imports snf"), (3, "defines SNF"), (5, "defines snf"),
        (6, "attribute snf"), (8, "name snf")]


def test_self_check_counter_on_synthetic_source():
    source = ("def f(x):\n    if x:\n        raise AssertionError\n"
              "    raise AssertionError('message') from None\n"
              "def g(x):\n    assert x\n    raise ValueError('other')\n"
              "def h():\n    try:\n        pass\n    except AssertionError:\n        raise\n"
              "    error = AssertionError('built, not raised')\n    raise error\n")
    assert sorted(self_checks(ast.parse(source))) == [3, 4]


def test_package_keeps_its_self_checks():
    count = sum(1 for _, tree in package_trees() for _ in self_checks(tree))
    assert count >= SELF_CHECK_FLOOR


def test_package_source_has_no_floats():
    offenders = [f"{name}:{line}: {what}" for name, tree in package_trees()
                 for line, what in forbidden_uses(tree)]
    assert offenders == []


def test_package_source_has_no_smith_form():
    offenders = [f"{name}:{line}: {what}" for name, tree in package_trees()
                 for line, what in smith_form_uses(tree)]
    assert offenders == []


def test_guard_catches_the_fraction_route():
    source = ("from .intlinalg import inverse as inv, integral_inverse\n"
              "from . import intlinalg as la\n"
              "def f(m):\n    return la.to_fractions(la.inverse(m)), la.integral_inverse(m)\n"
              "def g(m):\n    return inverse(m), la.scaled_inverse(m)\n")
    assert sorted(fraction_route_uses(ast.parse(source))) == [
        (1, "imports inverse"), (4, "attribute inverse"), (4, "attribute to_fractions"),
        (6, "name inverse")]


def test_prym_and_tori_take_no_fraction_route():
    trees = dict(package_trees())
    offenders = [f"{name}:{line}: {what}" for name in INTEGER_FORM_MODULES
                 for line, what in fraction_route_uses(trees[name])]
    assert offenders == []


FRACTION_FREE_MODULES = ("intlinalg.py", "tori.py")


def fraction_uses(tree):
    """(line, description) of each use or import of `Fraction` or of the
    `fractions` module."""
    yield from name_uses(tree, {"Fraction", "fractions"})
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            yield node.lineno, "imports from fractions"


def test_guard_catches_fractions():
    source = ('"""A Fraction matrix in a docstring is free."""\n'
              "from fractions import Fraction as F\nimport fractions\n"
              "def f(m, d):\n    return fractions.Fraction(m, d), Fraction(d)\n")
    assert sorted(fraction_uses(ast.parse(source))) == [
        (2, "imports Fraction"), (2, "imports from fractions"), (3, "imports fractions"),
        (5, "attribute Fraction"), (5, "name Fraction"), (5, "name fractions")]


def test_lattice_modules_have_no_fractions():
    # a pairing or Gram is (D, integer rows) and a polarization a positive
    # integer diagonal; the Fraction forms live in tests/oracles.py
    trees = dict(package_trees())
    offenders = [f"{name}:{line}: {what}" for name in FRACTION_FREE_MODULES
                 for line, what in fraction_uses(trees[name])]
    assert offenders == []


def test_guard_catches_the_replaced_helpers():
    source = ('"""The det of M; matmul and is_unimodular in a docstring are free."""\n'
              "from .intlinalg import det as d, int_matmul\n"
              "from . import intlinalg as la\n"
              "def matvec(a, v):\n    return la.matmul(a, v)\n"
              "def f(m, a, b):\n    # is_unimodular(m) in a comment is free too\n"
              "    return is_unimodular(m), la.mat_equal(a, b), int_matmul(a, b)\n")
    assert sorted(name_uses(ast.parse(source), REPLACED_HELPERS)) == [
        (2, "imports det"), (4, "defines matvec"), (5, "attribute matmul"),
        (8, "attribute mat_equal"), (8, "name is_unimodular")]


CHAIN_MAP_OWNERS = {"chain_image", "_adapted_tree"}


def chain_map_reads(tree, owners=CHAIN_MAP_OWNERS):
    """(line, description) of each reference to `half_edge_info`, and of
    each reference to `edge_key` outside the top-level definitions named in
    `owners`."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else None
            if name == "half_edge_info" or (name == "edge_key" and owner not in owners):
                yield node.lineno, f"{name} in {owner}"


def test_guard_catches_chain_maps_outside_chain_image():
    source = ('"""edge_key and half_edge_info in a docstring are free."""\n'
              "def chain_image(g, h):\n    edge_key = g.edge_key\n    return edge_key(h)\n"
              "def push(g, h, cons):\n    return g.edge_key(h), cons.half_edge_info[h]\n"
              "class Basis:\n    def f(self, g, h):\n        key = g.edge_key\n"
              "        return key(h), g.edge_keys()\n"
              "def _adapted_tree(g, cons):\n    return g.edge_key(0), cons.half_edge_info\n"
              "edge_key = min\n")
    assert sorted(chain_map_reads(ast.parse(source))) == [
        (6, "edge_key in push"), (6, "half_edge_info in push"), (9, "edge_key in Basis"),
        (12, "half_edge_info in _adapted_tree"), (13, "edge_key in None")]


def test_jacprym_moves_chains_in_chain_image_only():
    trees = dict(package_trees())
    assert [f"jacprym.py:{line}: {what}" for line, what in chain_map_reads(trees["jacprym.py"])] == []


FIBER_READERS = {"ngonal_construct", "classify_bigonal_point"}


def fiber_reads(tree):
    """(line, description) of each reference to `tower_fiber` outside the
    top-level definitions named in FIBER_READERS, and of `bigonal` unless it
    names `classify_bigonal_point` exactly once."""
    in_bigonal = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else None
            if name == "tower_fiber" and owner not in FIBER_READERS:
                yield node.lineno, f"tower_fiber in {owner}"
            elif name == "classify_bigonal_point" and owner == "bigonal":
                in_bigonal.append(node.lineno)
    if len(in_bigonal) != 1:
        yield max(in_bigonal, default=0), f"bigonal names classify_bigonal_point {len(in_bigonal)}x"


def test_guard_catches_a_second_fiber_read():
    source = ('"""tower_fiber in a docstring is free."""\n'
              "def ngonal_construct(t):\n    return {p: tower_fiber(t, p) for p in t}\n"
              "def classify_bigonal_point(t, p):\n    return _type(tower_fiber(t, p), p)\n"
              "def bigonal(t, out):\n    types = {p: classify_bigonal_point(t, p) for p in t}\n"
              "    return types, [classify_bigonal_point(out, p) for p in t]\n"
              "class Split:\n    def f(self, t, p):\n        return ngonal.tower_fiber(t, p)\n")
    assert sorted(fiber_reads(ast.parse(source))) == [
        (8, "bigonal names classify_bigonal_point 2x"), (11, "tower_fiber in Split")]
    once = source.replace("types = {p: classify_bigonal_point(t, p) for p in t}", "types = {}")
    assert sorted(fiber_reads(ast.parse(once))) == [(11, "tower_fiber in Split")]
    assert list(fiber_reads(ast.parse("def bigonal(t):\n    return t\n"))) == [
        (0, "bigonal names classify_bigonal_point 0x")]


def test_ngonal_reads_each_fiber_once():
    trees = dict(package_trees())
    assert [f"ngonal.py:{line}: {what}" for line, what in fiber_reads(trees["ngonal.py"])] == []


def test_package_has_one_product_and_one_unimodularity_test():
    offenders = [f"{name}:{line}: {what}" for name, tree in package_trees()
                 for line, what in name_uses(tree, REPLACED_HELPERS)]
    assert offenders == []


METRIC_MODULES = ("jacprym.py", "cli.py")


def source_metric_inputs(tree, metric_module=True):
    """(line, description) of each public function with a `source_metric`
    parameter and, in a module of METRIC_MODULES, of each use of
    `validate_metric_harmonic` and each use of `tower_metrics` but its
    definition."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and not node.name.startswith("_"):
            args = node.args
            if "source_metric" in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
                yield node.lineno, f"{node.name} takes source_metric"
    if metric_module:
        for line, what in name_uses(tree, {"validate_metric_harmonic", "tower_metrics"}):
            if what != "defines tower_metrics":
                yield line, what


def test_guard_catches_a_source_metric_input():
    source = ('"""prym(cover, source_metric, target_metric) in a docstring is free."""\n'
              "from .metrics import induce_metric, validate_metric_harmonic as check\n"
              "def prym(cover, source_metric, target_metric):\n    return cover\n"
              "def _helper(source_metric):\n    return source_metric\n"
              "class Torus:\n    def hom(self, *, source_metric=None):\n        return self\n"
              "def tower_metrics(tower, base_metric):\n    return base_metric\n"
              "def check(tower, base_metric):\n"
              "    return tower_metrics(tower, base_metric), metrics.validate_metric_harmonic\n")
    assert sorted(source_metric_inputs(ast.parse(source))) == [
        (2, "imports validate_metric_harmonic"), (3, "prym takes source_metric"),
        (8, "hom takes source_metric"), (13, "attribute validate_metric_harmonic"),
        (13, "name tower_metrics")]
    assert sorted(source_metric_inputs(ast.parse(source), metric_module=False)) == [
        (3, "prym takes source_metric"), (8, "hom takes source_metric")]


def test_the_source_metric_is_induced_not_passed():
    offenders = [f"{name}:{line}: {what}" for name, tree in package_trees()
                 for line, what in source_metric_inputs(tree, name in METRIC_MODULES)]
    assert offenders == []


MORPHISM_FIELDS = {"vmap", "hmap", "source", "target"}


def morphism_wrapper_uses(tree):
    """(line, description) of each use of `GraphMorphism` and of each
    attribute chain `.morphism.<field>` with field in MORPHISM_FIELDS."""
    yield from name_uses(tree, {"GraphMorphism"})
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in MORPHISM_FIELDS \
                and isinstance(node.value, ast.Attribute) and node.value.attr == "morphism":
            yield node.lineno, f"reads .morphism.{node.attr}"


def test_guard_catches_the_morphism_wrapper():
    source = ('"""GraphMorphism and f.morphism.vmap in a docstring are free."""\n'
              "from .graphs import GraphMorphism as GM\n"
              "class GraphMorphism:\n    pass\n"
              "def build(f, graphs):\n"
              "    return graphs.GraphMorphism(f.morphism.source, f.morphism.target, {}, {})\n"
              "def read(c):\n"
              "    return c.morphism.vmap[0], c.cover.morphism.hmap, c.morphism.vertex_degree\n")
    assert sorted(morphism_wrapper_uses(ast.parse(source))) == [
        (2, "imports GraphMorphism"), (3, "defines GraphMorphism"),
        (6, "attribute GraphMorphism"), (6, "reads .morphism.source"),
        (6, "reads .morphism.target"), (8, "reads .morphism.hmap"), (8, "reads .morphism.vmap")]


def test_a_harmonic_morphism_is_one_value():
    offenders = [f"{name}:{line}: {what}" for name, tree in package_trees()
                 for line, what in morphism_wrapper_uses(tree)]
    assert offenders == []


DOUBLE_COVER_WRAPPERS = {"BuiltDoubleCover", "InvolutionQuotient"}


def _is_harmonic_morphism(base) -> bool:
    return getattr(base, "id", None) == "HarmonicMorphism" \
        or getattr(base, "attr", None) == "HarmonicMorphism"


def double_cover_wrapper_uses(tree):
    """(line, description) of each use of `BuiltDoubleCover` or
    `InvolutionQuotient`, of each `.pi.cover` or `.cover.cover` chain, and of
    a `DoubleCover` class that does not subclass `HarmonicMorphism` or that
    has a `cover` field or method."""
    yield from name_uses(tree, DOUBLE_COVER_WRAPPERS)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "cover" \
                and isinstance(node.value, ast.Attribute) and node.value.attr in ("pi", "cover"):
            yield node.lineno, f"reads .{node.value.attr}.cover"
        elif isinstance(node, ast.ClassDef) and node.name == "DoubleCover":
            if not any(map(_is_harmonic_morphism, node.bases)):
                yield node.lineno, "DoubleCover does not subclass HarmonicMorphism"
            for item in node.body:
                target = getattr(item, "target", None)
                if getattr(item, "name", None) == "cover" or getattr(target, "id", None) == "cover":
                    yield item.lineno, "DoubleCover has a cover member"


def test_guard_catches_the_double_cover_wrappers():
    source = ('"""BuiltDoubleCover and t.pi.cover in a docstring are free."""\n'
              "from .graphs import InvolutionQuotient\n"
              "class DoubleCover:\n    cover: object\n"
              "class BuiltDoubleCover(DoubleCover):\n    pass\n"
              "def read(t, c, prym_data):\n"
              "    return t.pi.cover.h, c.cover.cover, prym_data.cover.source\n")
    assert sorted(double_cover_wrapper_uses(ast.parse(source))) == [
        (2, "imports InvolutionQuotient"), (3, "DoubleCover does not subclass HarmonicMorphism"),
        (4, "DoubleCover has a cover member"), (5, "defines BuiltDoubleCover"),
        (8, "reads .cover.cover"), (8, "reads .pi.cover")]
    folded = ("class DoubleCover(graphs.HarmonicMorphism):\n    vertex_invol: dict\n"
              "    @property\n    def cover(self):\n        return self\n")
    assert list(double_cover_wrapper_uses(ast.parse(folded))) == [
        (4, "DoubleCover has a cover member")]
    assert list(double_cover_wrapper_uses(ast.parse(folded.replace("cover(", "free(")))) == []


def test_a_double_cover_is_a_harmonic_morphism():
    assert issubclass(DoubleCover, HarmonicMorphism)
    assert not hasattr(DoubleCover, "cover")
    assert "cover" not in {f.name for f in dataclasses.fields(DoubleCover)}
    offenders = [f"{name}:{line}: {what}" for name, tree in package_trees()
                 for line, what in double_cover_wrapper_uses(tree)]
    assert offenders == []


def package_imports(tree) -> set:
    """The package modules a module imports: x of each `from .x import ...`
    and each name of `from . import x, ...`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module.split(".")[0]] if node.module
                       else (alias.name for alias in node.names))
    return out


def reached_from(trees: dict, start: str) -> set:
    """The modules of `trees` (module name -> AST) that `start` reaches
    through package-relative imports, itself included."""
    seen, todo = {start}, [start]
    while todo:
        new = package_imports(trees[todo.pop()]) & trees.keys() - seen
        seen |= new
        todo += new
    return seen


def test_guard_follows_both_import_forms():
    trees = {name: ast.parse(source) for name, source in {
        "cli": '"""from .gallery import x in a docstring is free."""\nfrom .a import f\n',
        "a": "from . import b as la, c\nimport d\n", "b": "from .e.sub import g\n",
        "c": "", "d": "", "e": "", "gallery": "from .a import f\n"}.items()}
    assert reached_from(trees, "cli") == {"cli", "a", "b", "c", "e"}


def test_every_module_is_reached_from_the_cli():
    # a module only tests import, such as the reference towers, lives in tests/
    trees = {name[:-3]: tree for name, tree in package_trees()}
    modules = reached_from(trees, "cli")
    assert set(trees) - {"__init__"} - modules == set()
    # so does a function or class: the roots are `cli.main`, what the reached
    # modules (and the package, which the import protocol runs) do at import
    # time, and the package's `__getattr__` and `__dir__`, which it calls
    assert unreached_definitions(trees, modules | {"__init__"}) == []


def unreached_definitions(trees: dict, modules: set) -> list:
    """module.name of each top-level function and class of `trees` that
    `cli.main` does not reach by name, with the module-level statements of
    `modules` as further roots."""
    package = ast.Module([node for tree in trees.values() for node in tree.body], [])
    roots = [node for module in modules for node in trees[module].body
             if not isinstance(node, DEFINITIONS + (ast.Import, ast.ImportFrom))]
    reached = functions_reached(package, "main", "__getattr__", "__dir__", roots=roots)
    return sorted(f"{module}.{node.name}" for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, DEFINITIONS) and node.name not in reached)


def test_guard_names_each_unreached_definition():
    trees = {name: ast.parse(source) for name, source in {
        "__init__": "import importlib\ndef __getattr__(name):\n    return _load(name)\n"
                    "def _load(name):\n    return importlib.import_module(name)\n",
        "cli": "from .a import f\nfrom .b import Unused\ndef main():\n    return f.run(A)\n",
        "a": "TABLE = {1: helper}\nclass A:\n    def method(self):\n        return B()\n"
             "def f():\n    pass\ndef run():\n    pass\ndef helper():\n    pass\n"
             "class B:\n    pass\ndef test_only():\n    return run()\n",
        "b": "class Unused:\n    pass\n"}.items()}
    assert unreached_definitions(trees, {"__init__", "cli", "a", "b"}) == \
        ["a.test_only", "b.Unused"]
    # a module-level statement of a module the CLI does not reach is no root
    assert unreached_definitions(trees, {"__init__", "cli", "b"}) == \
        ["a.helper", "a.test_only", "b.Unused"]


# Optional parameters that no call in the package sets, or defaults that no
# call relies on, each with its reason for staying
DEAD_OPTION_EXEMPT = {
    "main.argv": "the console entry point calls main() without it; tests pass argv",
    "vectors_with_norm._cache": "the memo, passed by no call: perfbench/worker.py reads it "
                                "as `vectors_with_norm.__defaults__[0]`",
}


def optional_parameters(tree):
    """(function name, parameter, positional index or None) of each parameter
    with a default, of every function and method in the tree; a method's
    index skips its `self` or `cls`."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and "staticmethod" not in names_in(node.decorator_list)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        positional = node.args.posonlyargs + node.args.args
        skip = 1 if id(node) in methods else 0
        first = len(positional) - len(node.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield node.name, arg.arg, i - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def calls_by_name(tree) -> dict:
    """name -> (positional count, keyword names) of each call `name(...)` or
    `x.name(...)`; a starred argument counts as every position, `**` as
    every keyword (None)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            out.setdefault(name, []).append(
                (math.inf if starred else len(node.args), {k.arg for k in node.keywords}))
    return out


def dead_options(tree, exempt=DEAD_OPTION_EXEMPT) -> list:
    """function.parameter of each optional parameter that no call of the
    function's name passes, and, for a `_`-prefixed function, of each one
    that every such call passes, so its default is never used."""
    calls = calls_by_name(tree)
    dead = []
    for function, param, index in optional_parameters(tree):
        passes = [(index is not None and index < count) or param in keywords or None in keywords
                  for count, keywords in calls.get(function, ())]
        key = f"{function}.{param}"
        if key not in exempt and (not any(passes) or function.startswith("_") and all(passes)):
            dead.append(key)
    return sorted(dead)


def test_guard_names_each_dead_option():
    source = ("def f(x, y=1, *, z=2):\n    return g(x) + _h(x, 1) + _h(x, 2, k=2)\n"
              "def g(x, w=0, v=0):\n    return _h(x, 0, 0)\n"
              "def _h(x, y=0, k=0):\n    return x\n"
              "class C:\n    def m(self, a=0):\n        return a\n    def n(self, b=0):\n"
              "        return self.m(1) + f(*b) + self.n()\n"
              "def main(argv=None):\n    return g(1, **argv)\n"
              "if __name__ == '__main__':\n    main()\n")
    # f's y is passed by the starred call and g's w and v by `**`, but no
    # call passes f's z or n's b, and every call passes _h's y
    assert dead_options(ast.parse(source), exempt={"main.argv": ""}) == ["_h.y", "f.z", "n.b"]


def test_package_has_no_dead_options():
    package = ast.Module([node for _, tree in package_trees() for node in tree.body], [])
    assert dead_options(package) == []


# (home module, record) -> the fields it dropped, each a copy of a value it
# reads elsewhere: the kernel torus, projection and kernel columns are its
# inclusion's source, pull and push; a Prym's and a Jacobian's torus is their
# polarization's; the transfer maps are the norm's pull and push; the rest
# derive from other fields.  The seeded quartic covers are a test builder's.
COPIED_FIELDS = {
    ("tropcover.tori", "KernelTorus"): {"torus", "projection", "kernel_columns"},
    ("tropcover.jacprym", "PrymData"): {"torus", "maps"},
    ("tropcover.jacprym", "Jacobian"): {"torus"},
    ("tropcover.ngonal", "NgonalConstruction"): {"n"},
    ("tropcover.ngonal", "BigonalResult"): {"generic_input", "generic_output"},
    ("tropcover.randgen", "GeneratedTower"): {"seed"},
    ("gallery", "GeneratedCover"): {"seed"},
}


def test_each_lattice_value_has_one_home():
    offenders = [f"{name}:{line}: {what}" for name, tree in package_trees()
                 for line, what in name_uses(tree, {"DualPolarization"})]
    assert offenders == []
    for (module, record), copied in COPIED_FIELDS.items():
        fields = {f.name for f in dataclasses.fields(
            getattr(importlib.import_module(module), record))}
        assert not fields & copied, (record, fields & copied)


SLOT_MODEL = {"_SLOT_PAIRS", "_SlotClasses", "_slot_classes", "_carried_classes"}


DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def functions_reached(tree, *starts, roots=()):
    """The top-level functions and classes of the tree that `starts` and the
    statements `roots` reach by naming them, as a name or an attribute,
    directly or through one another, `starts` included."""
    defs = {}
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            defs.setdefault(node.name, []).append(node)
    seen, todo = set(), [*starts, *names_in(roots)]
    while todo:
        name = todo.pop()
        if name in defs and name not in seen:
            seen.add(name)
            todo += names_in(defs[name])
    return seen


def names_in(nodes) -> list:
    """Every name and attribute named in the nodes."""
    return [node.id if isinstance(node, ast.Name) else node.attr
            for top in nodes for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))]


def test_guard_follows_the_functions_named():
    source = ('def a(x):\n    """c in a docstring is free."""\n    return b(x)\n'
              "def b(x):\n    return map(d, x)\ndef c():\n    pass\ndef d(y):\n    return y\n")
    assert functions_reached(ast.parse(source), "a") == {"a", "b", "d"}


TUPLE_MODEL = {"Multisection", "_canonical", "multisection_degree", "multisection_sign",
               "swap_multisection"}


def test_the_shape_table_is_the_only_multisection_model():
    # the tuple model is the oracle in tests/oracles.py; `_ShapeTable.multisections`
    # labels a fiber's points from the table
    trees = dict(package_trees())
    offenders = [f"{name}:{line}: {what}" for name, tree in trees.items()
                 for line, what in name_uses(tree, TUPLE_MODEL)]
    offenders += [f"{name}:{node.lineno}: defines {node.name}" for name, tree in trees.items()
                  for node in tree.body if getattr(node, "name", None) == "multisections"]
    assert offenders == []
    assert not hasattr(FiberDatum, "part")


def test_recillas_reads_the_section_construction_tables():
    trees = dict(package_trees())
    offenders = [f"{name}:{line}: {what}" for name, tree in trees.items()
                 for line, what in name_uses(tree, SLOT_MODEL)]
    assert offenders == []
    assert {"_shape_table", "_glue_table"} <= functions_reached(trees["ngonal.py"], "recillas")
