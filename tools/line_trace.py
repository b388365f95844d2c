"""List the statements of src/nflab that the tier-1 tests never run.

Usage: python tools/line_trace.py

Runs the tier-1 suite (pytest on tests/) in this process under
sys.settrace and threading.settrace, recording the lines executed in
src/nflab, then prints every statement none of whose header lines ran:
first the `raise` statements (input guards), then the rest, as
`path:line: source`, followed by the counts, and ends with the line
count of each module of src/nflab and of them all.  A compound statement (if,
for, def, ...) counts as run when a line of its header ran.  Docstrings
are not statements.  The tests run at a fraction of their usual speed.
Exit status is pytest's.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "nflab"


def statements(path: Path):
    """(first line, header line range, is_raise) of every statement of a source file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        body = [c for f in ("body", "orelse", "finalbody", "handlers")
                for c in getattr(node, f, []) if hasattr(c, "lineno")]
        last = min(c.lineno for c in body) - 1 if body else node.end_lineno
        out.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1),
                    isinstance(node, ast.Raise)))
    return sorted(out)


def main() -> int:
    import pytest

    hits = {}
    prefix = str(PKG) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return local

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = {True: [], False: []}
    sizes = {}
    for path in sorted(PKG.glob("*.py")):
        ran = hits.get(str(path), set())
        lines = path.read_text().splitlines()
        sizes[path.name] = len(lines)
        for lineno, header, is_raise in statements(path):
            if not ran.intersection(header):
                rel = path.relative_to(ROOT)
                unrun[is_raise].append(f"{rel}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"\npytest exit status {int(code)}")
    for is_raise, title in ((True, "raise guards"), (False, "other statements")):
        print(f"\nunrun {title} ({len(unrun[is_raise])}):")
        print("\n".join(unrun[is_raise]))
    print(f"\nunrun: {len(unrun[True])} raise guards, {len(unrun[False])} other statements")
    print("\nlines of src/nflab: " + ", ".join(f"{name} {k}" for name, k in sizes.items())
          + f"; total {sum(sizes.values())}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
