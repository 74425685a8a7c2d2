"""README's quick computation session runs as written, and each line it
prints is what the comment on its `print` says, so a change to the records
it reads cannot leave the README stale."""

import contextlib
import io
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def quick_session() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("A quick computation session:")
    return re.search(r"```python\n(.*?)```", text[start:], re.S).group(1)


def test_quick_session_prints_what_its_comments_say(monkeypatch):
    code = quick_session()
    comments = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    monkeypatch.chdir(ROOT)  # the session reads data/ relative to the repository
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 4
    for line, comment in zip(printed, comments):
        # a comment may explain its value after a colon
        assert comment == line or comment.startswith(line + ": "), (line, comment)
