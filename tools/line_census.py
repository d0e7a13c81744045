"""Line census: the executable lines of ``src/repro`` one tier-1 run
never reaches.

Usage (from anywhere; extra arguments go to pytest)::

    python tools/line_census.py
    python tools/line_census.py tests/test_api.py

Standard library only.  ``sys.settrace`` and ``threading.settrace`` are
installed before :mod:`repro` is imported, and record the lines run in
``src/repro`` frames only; tier-1 then runs in this process through
``pytest.main``.  The denominator is every line of each module's code
objects (``co_lines()``, recursively through nested functions and
classes).  Code that only runs in a subprocess (``perf/`` workloads) is
not counted.

The report lists the unreached lines per file and every unreached block
of three or more executable lines (executable lines with no reached one
between them).  It is a report, not a gate: the tracer makes tier-1
about twice as slow (2 min against 1 min on a 2-core box), so a test
with a wall-clock bound may fail under it, and the census still prints.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
BLOCK_LINES = 3

_reached: dict[str, set[int]] = defaultdict(set)
_traced: dict[str, bool] = {}
_PREFIX = str(PACKAGE) + os.sep


def _in_package(filename: str) -> bool:
    inside = _traced.get(filename)
    if inside is None:
        inside = os.path.abspath(filename).startswith(_PREFIX)
        _traced[filename] = inside
    return inside


def _trace_lines(frame, event, arg):
    if event == "line":
        _reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    if not _in_package(filename):
        return None
    # a call (or a generator's resumption) runs the line it starts on
    _reached[filename].add(frame.f_lineno)
    return _trace_lines


def executable_lines(code: CodeType) -> set[int]:
    """Every line ``code`` and the code objects nested in it run."""
    lines = {line for _start, _end, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def unreached_blocks(executable: set[int], reached: set[int]) -> list:
    """Runs of unreached executable lines, as ``(first, last, count)``."""
    blocks, run = [], []
    for line in sorted(executable):
        if line in reached:
            if run:
                blocks.append(run)
            run = []
        else:
            run.append(line)
    if run:
        blocks.append(run)
    return [(run[0], run[-1], len(run)) for run in blocks]


def _ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``"3-5, 9"``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(
        str(first) if first == last else f"{first}-{last}"
        for first, last in spans
    )


def report() -> None:
    """Print the census of the lines traced so far."""
    reached: dict[str, set[int]] = defaultdict(set)
    for filename, lines in _reached.items():
        reached[os.path.abspath(filename)] |= lines
    rows, blocks = [], []
    total = missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        executable = executable_lines(compile(source, str(path), "exec"))
        hit = reached[str(path)]
        unreached = executable - hit
        total += len(executable)
        missed += len(unreached)
        name = path.relative_to(ROOT / "src").as_posix()
        if unreached:
            rows.append((len(unreached), len(executable), name,
                         _ranges(sorted(unreached))))
        blocks += [
            (name, first, last, count)
            for first, last, count in unreached_blocks(executable, hit)
            if count >= BLOCK_LINES
        ]
    print(f"\n== unreached lines by file ({len(rows)} files) ==")
    for count, executable, name, lines in sorted(
        rows, key=lambda row: (-row[0], row[2])
    ):
        print(f"{count:6d} / {executable:5d}  {name}: {lines}")
    print(f"\n== unreached blocks of {BLOCK_LINES}+ executable lines "
          f"({len(blocks)}) ==")
    for name, first, last, count in blocks:
        print(f"{name}:{first}-{last}  ({count} lines)")
    share = missed / total if total else 0.0
    print(f"\n{missed} of {total} executable lines unreached ({share:.1%})")


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)
    import pytest  # after the tracer: repro is imported by the tests

    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report()
    print(f"pytest exit status {int(status)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
