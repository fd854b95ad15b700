"""List the statements of src/matball that no command reaches.

Runs every argv of tests/golden/cases.json and ``verify-all --extended``
through ``matball.cli.main`` under ``sys.settrace`` and prints, per module,
each statement of ``src/matball`` whose lines never ran, then a summary
line with the count and the package's total line count.  ``raise``
statements are left out: they are the argument checks and numerical
guards, which the goldens reach only in part.  A statement inside one that
never ran is not listed again.

    python tools/unreached.py

The CSVs go to a temporary directory; the commands' stdout and stderr are
discarded.  The process pins itself to one CPU before it imports matball,
so that ``verify-all`` forks no workers: ``sys.settrace`` sees only this
process, and the statements only a worker runs are listed as unreached.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "matball"
CASES = ROOT / "tests" / "golden" / "cases.json"


def run_commands(argvs) -> dict:
    """Lines run in each file of the package, as {path: set of line numbers},
    over all argvs.  Tracing starts before the package is imported, so its
    module-level statements count."""
    prefix = str(PACKAGE) + "/"
    seen: dict = {}

    def local(frame, event, _):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, _):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.settrace(global_)
    try:
        from matball.cli import main
        with tempfile.TemporaryDirectory() as tmp:
            for argv in argvs:
                out = ["--out", str(Path(tmp) / "out.csv")]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        main(list(argv) + out)
                    except SystemExit:
                        pass
    finally:
        sys.settrace(None)
    return seen


def executable_lines(code) -> set:
    """Line numbers that carry bytecode in a code object and those nested
    in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def own_lines(node: ast.stmt) -> range:
    """The lines of a statement without the statements nested in it."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return range(node.lineno, body[0].lineno)
    return range(node.lineno, node.end_lineno + 1)


def unreached(path: Path, ran: set) -> list:
    """(line, source) of each statement of one file whose bytecode lines all
    stayed unrun, outermost only, raise statements left out."""
    source = path.read_text()
    code_lines = executable_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    out = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                visit(child)
                continue
            lines = code_lines.intersection(own_lines(child))
            if (lines and not lines & ran
                    and not isinstance(child, ast.Raise)):
                out.append((child.lineno, text[child.lineno - 1].strip()))
                continue
            visit(child)

    visit(ast.parse(source))
    return out


def main() -> int:
    argvs = [case["argv"] for case in json.loads(CASES.read_text())]
    argvs.append(["verify-all", "--extended"])
    seen = run_commands(argvs)
    total = lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in unreached(path, seen.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
            total += 1
        lines += len(path.read_text().splitlines())
    print(f"{total} unreached statements ({len(argvs)} commands); "
          f"src/matball/*.py has {lines:,} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
