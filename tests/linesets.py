"""The package lines that the suite runs, by a `sys.settrace` pytest plugin, since `coverage` need
not be installed: `python tests/linesets.py [pytest args]` prints each src/ghzsdc line run as
`path:line`, each function-body line not run as `unrun path:line: code`, and both counts. It exits
with pytest's status when pytest fails, else with 1 when a function-body line is unrun, else with
0."""

import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ghzsdc"


class LineTracer:
    """Records (file, line) of every package line run from session start."""
    def __init__(self):
        self.ran = set()

    def pytest_sessionstart(self):
        sys.settrace(lambda frame, event, arg: self.line if frame.f_code.co_filename.startswith(str(PACKAGE)) else None)

    def line(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self.line


def body_lines(path):  # the lines of `path` that hold code of a function body
    codes, lines = [compile(path.read_text(), str(path), "exec")], set()
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            lines |= {(str(path), line) for _, _, line in code.co_lines() if line and line != code.co_firstlineno}
    return lines


if __name__ == "__main__":
    sys.path.insert(0, str(PACKAGE.parent))
    tracer = LineTracer()
    status = pytest.main(sys.argv[1:] or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], plugins=[tracer])
    sys.settrace(None)
    unrun = set().union(*map(body_lines, PACKAGE.glob("*.py"))) - tracer.ran
    print(*(f"{Path(name).relative_to(ROOT)}:{line}" for name, line in sorted(tracer.ran)), sep="\n")
    for name, line in sorted(unrun):
        print(f"unrun {Path(name).relative_to(ROOT)}:{line}: {Path(name).read_text().splitlines()[line - 1].strip()}")
    print(f"{len(tracer.ran)} package lines run; {len(unrun)} function-body lines unrun")
    sys.exit(int(status) or int(bool(unrun)))
