"""Static guards on the package source: the no-floats rule (no float
literal, no use of the name `float`, no floating-point math call), and no
bare `assert`, which `python -O` strips, so that every self-check stays on."""

import ast
import os

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


def test_guard_catches_each_construct():
    source = ("import math\nfrom math import exp as e\n"
              "x = 0.5\ny = float(1)\nz = math.sqrt(2) + math.log(3)\nw = e(1)\n")
    found = [what for _, what in forbidden_uses(ast.parse(source))]
    assert sorted(found) == sorted(["float literal 0.5", "name float", "math.sqrt",
                                    "math.log", "name e"])


def test_guard_catches_bare_assert():
    source = "def check(x):\n    assert x > 0, 'positive'\n    if x > 9:\n        raise AssertionError\n"
    assert list(forbidden_uses(ast.parse(source))) == [(2, "bare assert")]


def test_package_source_has_no_floats():
    offenders = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            offenders += [f"{name}:{line}: {what}" for line, what in forbidden_uses(tree)]
    assert offenders == []
