"""Reach of the golden corpus: every statement of `src/` that no golden run
executes.

    python tests/reach.py

runs every command of `tests/golden.py` under a `sys.settrace` line trace
(about five times slower than untraced) and prints each statement of the
package that none of them ran, skipping `raise` statements and `except`
blocks, grouped as

- validation: the statement, or one beside it in its block, makes a
  `ValidationIssue`, or it returns a non-zero exit code or the issues
  found so far;
- FAIL path: its block reports a failed check (`CheckResult(False`, a
  `FAIL` line), or runs when a witness is None;
- other: everything else.

A compound statement counts as run when its header runs; a simple one
when any of its lines does.  Pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.normpath(os.path.join(HERE, os.pardir, "src", "tropcover"))
GROUPS = ("validation", "FAIL path", "other")


def statements(tree):
    """(statement, its block, the node whose field the block is) of every
    statement but `raise` statements and docstrings; `except` blocks are
    not entered."""
    def walk(body, parent):
        for i, node in enumerate(body):
            docstring = i == 0 and isinstance(node, ast.Expr) and \
                isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
            if not (docstring or isinstance(node, ast.Raise)):
                yield node, body, parent
            for name in ("body", "orelse", "finalbody"):
                inner = getattr(node, name, None)
                if isinstance(inner, list) and inner and isinstance(inner[0], ast.stmt):
                    yield from walk(inner, node)
    yield from walk(tree.body, tree)


def lines(node) -> range:
    """The lines whose execution counts as running the statement."""
    inner = getattr(node, "body", None)
    if isinstance(inner, list) and inner and isinstance(inner[0], ast.stmt):
        return range(node.lineno, max(node.lineno, inner[0].lineno - 1) + 1)
    return range(node.lineno, node.end_lineno + 1)


def _calls(node, name: str) -> bool:
    return any(isinstance(x, ast.Call) and getattr(x.func, "id", getattr(x.func, "attr", None))
               == name for x in ast.walk(node))


def group(node, block, parent, source: str) -> str:
    text = "\n".join(ast.get_source_segment(source, x) or "" for x in block)
    if "CheckResult(False" in text or "FAIL" in text:
        return "FAIL path"
    if isinstance(parent, ast.If) and parent.body is block and \
            ast.unparse(parent.test) == "witness is None":
        return "FAIL path"
    if any(_calls(x, "ValidationIssue") for x in block):
        return "validation"
    if isinstance(node, ast.Return) and node.value is not None and (
            ast.unparse(node.value) == "issues" or isinstance(node.value, ast.Constant)
            and type(node.value.value) is int and node.value.value != 0):
        return "validation"
    return "other"


def unrun(executed: dict) -> dict:
    """{group: [(module file, line, statement text)]} of every statement
    whose lines `executed` (file -> set of lines) never saw."""
    out = {g: [] for g in GROUPS}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        seen = executed.get(path, set())
        for node, block, parent in statements(ast.parse(source)):
            if seen.isdisjoint(lines(node)):
                text = ast.get_source_segment(source, node).splitlines()[0]
                out[group(node, block, parent, source)].append((name, node.lineno, text))
    return out


def trace_corpus() -> dict:
    """file -> lines of the package executed by the golden corpus, the
    package's import included."""
    executed, paths = {}, {}

    def local(frame, event, arg):
        if event == "line":
            executed[paths[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:
            paths[name] = os.path.abspath(name)
        if not paths[name].startswith(PACKAGE):
            return None
        executed.setdefault(paths[name], set())
        return local

    sys.path.insert(0, HERE)
    sys.settrace(on_call)
    try:
        import golden
        golden.digests()
    finally:
        sys.settrace(None)
    return executed


def main() -> int:
    found = unrun(trace_corpus())
    for name in GROUPS:
        print(f"{name}: {len(found[name])}")
        for module, line, text in found[name]:
            print(f"  {module}:{line}: {text.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
