"""Run Tier-1 under a line tracer and list each `src/neutrocalc` line it never ran.

    PYTHONPATH=src python tests/line_recorder.py [pytest arguments]

Run it from the repository root.  The tracer is set, for this thread and
for threads started later, before anything imports neutrocalc, so module
bodies count too.  Every line in `co_lines()` of a module's code object and
of the code objects nested in it is executable, except line 0.

Exits 1 and prints `file:line` for each executable line that never ran,
else 0.  It reports coverage only: under the tracer the timed criteria
exceed their budgets, so pytest's own outcome is printed but does not set
the exit status.  pytest does not collect this file, whose name does not
start with `test_`.
"""

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "neutrocalc"

_ran: set[tuple[str, int]] = set()  # (code file name, line)
_ours: dict[str, bool] = {}  # code file name -> whether it lies in SRC


def _lines(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = os.path.realpath(name).startswith(str(SRC) + os.sep)
    return _lines if ours else None


def executable_lines(path: Path) -> set[int]:
    """The lines of path's module code and its nested code objects."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    import pytest  # here, so that `src_lines.py` reads this module with the stdlib alone

    if "neutrocalc" in sys.modules:
        sys.exit("neutrocalc was imported before the tracer was set")
    sys.settrace(_calls)
    threading.settrace(_calls)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    package = sys.modules.get("neutrocalc")
    if package is None or Path(package.__file__).resolve().parent != SRC:
        sys.exit(f"the tests did not import neutrocalc from {SRC}")
    ran = {(os.path.realpath(name), line) for name, line in _ran}
    lines = {path: executable_lines(path) for path in sorted(SRC.rglob("*.py"))}
    unrun = [
        (path, line) for path, found in lines.items() for line in sorted(found)
        if (str(path), line) not in ran
    ]
    for path, line in unrun:
        print(f"{path.relative_to(ROOT)}:{line}: never ran")
    total = sum(map(len, lines.values()))
    print(f"{total - len(unrun)} of {total} executable lines ran; pytest exit status {status}")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
