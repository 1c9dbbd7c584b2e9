"""Print the lines of each `src/jno` module that the tier-1 tests leave
unexecuted.

Runs pytest in this process under a `sys.settrace` line tracer, with the
tier-1 warning flags, then lists per module the lines that hold code but
raised no line event.  Tests that start a fresh interpreter are not traced
inside it.  From the repository root (extra arguments go to pytest):

    python tools/unexecuted_lines.py
"""

import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = {str(p): set() for p in sorted((SRC / "jno").glob("*.py"))}


def _line(frame, event, arg):
    if event == "line":
        MODULES[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename in MODULES else None


def code_lines(code):
    """The line numbers of `code` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def spans(lines):
    """'3-5, 9' for [3, 4, 5, 9]."""
    out = []
    for n in lines:
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


if __name__ == "__main__":
    import pytest

    # jno imports from this absolute path, so its code objects carry the
    # file names in MODULES
    sys.path.insert(0, str(SRC))
    threading.settrace(_call)
    sys.settrace(_call)
    status = pytest.main(
        ["-q", "-W", "error", "-W",
         "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning",
         "--continue-on-collection-errors", *sys.argv[1:]])
    sys.settrace(None)
    threading.settrace(None)
    for path, hit in MODULES.items():
        code = compile(Path(path).read_text(encoding="utf-8"), path, "exec")
        missed = sorted(code_lines(code) - hit)
        print(f"{Path(path).name}: {len(missed)} unexecuted: {spans(missed)}")
    sys.exit(status)
