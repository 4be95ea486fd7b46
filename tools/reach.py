"""List the lines of the library that tier-1 never runs, and fail when
there are more of them than ``CEILING``.

    python tools/reach.py [extra pytest arguments]

Run from anywhere; the tests run from the repository root. Tier-1 runs in
this process under a line tracer, set with ``sys.settrace`` for this thread
and ``threading.settrace`` for the threads the tests start, with
``--hypothesis-seed=0``, no example database and no deadlines, so that two
runs generate the same examples and the result repeats. Only the standard
library is used. It takes about four times as long as tier-1.

A line is executable when the code objects compiled from its file, nested
ones included, map an instruction to it (``co_lines()``); it is reached
when the tracer saw it run. The unreached lines of ``src/wordweight`` are
printed as ``path:line: source``, then their count. The exit status is 1
when the count is above ``CEILING``, pytest's own status when a test
fails, and 0 otherwise.

Code run in subprocesses, such as the CLI and import tests that start a
new interpreter, is not seen: a line that only a subprocess runs counts
as unreached.

Three lines stay unreached, and each is meant to stay:

* ``cli.py``'s ``sys.exit(main())`` under ``__main__``, which only the
  subprocess tests run;
* two raises that detect a fault their docstrings argue cannot happen,
  so no test reaches them without breaking the code they guard:
  ``sandwich_decay_bound``'s re-check of its rearranged witness, and
  ``pool_bound``'s when no pool row reaches the closed-form bound.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

#: Most unreached lines allowed; lower it when tests reach more.
CEILING = 3

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "wordweight"


def executable_lines(path: Path) -> set[int]:
    """The lines to which the code compiled from ``path`` maps an instruction."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's first instruction is put at line 0, which no source line is
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class RepeatableExamples:
    """A pytest plugin: Hypothesis keeps no example database and sets no
    deadline, which a traced example could overrun."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("reach", database=None, deadline=None)
        settings.load_profile("reach")


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status, and the lines of each library file that ran."""
    import pytest

    reached: dict[str, set[int]] = {str(p): set() for p in LIBRARY.glob("*.py")}

    def on_line(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename in reached else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *args],
            plugins=[RepeatableExamples()],
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), reached


def main(args: list[str]) -> int:
    os.chdir(ROOT)
    status, reached = run_traced(args)
    if status:
        return status
    if not any(reached.values()):
        raise SystemExit(f"no line of {LIBRARY} was traced: is it the copy imported?")
    missed = 0
    for name in sorted(reached):
        path = Path(name)
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - reached[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of src/wordweight not reached, ceiling {CEILING}")
    return 1 if missed > CEILING else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
