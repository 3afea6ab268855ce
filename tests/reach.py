"""Reach guard: the lines of ``src/curalg`` that no run reaches, per function.

Traces, line by line (``sys.settrace``), a fixed set of runs: ``report.run``
of A1-A5, D4, D5, E6 and E7 at 8 samples, the A4 module configuration,
and eight ``curalg`` commands.  For each function defined at module or
class level (nested functions, lambdas and comprehensions count toward
the function that holds them; module and class bodies are not counted) it
counts the executable lines that never ran, and compares each count with
its entry in ``tests/reach_allowed.txt``.  An entry reads

    file::function count  reason

with ``file`` relative to ``src/curalg`` and ``reason`` one of ``oracle``
(kept as an independent reference that tests compare the run against),
``input guard`` (refuses or handles input that no run passes) or
``rejection path`` (what a run does when a check fails or a point is
rejected).  The guard fails when a function has more unreached lines than
its entry allows, and names stale entries (fewer unreached lines than
listed, or a function that no longer exists) without failing on them.

    PYTHONPATH=src python tests/reach.py

Standard library only; pytest does not collect this file.  The counts
are calibrated for CPython 3.11, the version CI runs: other versions
emit different line events, so the guard refuses to run on them.
"""

from __future__ import annotations

import contextlib
import dis
import inspect
import io
import os
import sys
import tempfile
import types
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "curalg"
ALLOWED = Path(__file__).resolve().parent / "reach_allowed.txt"
REASONS = ("oracle", "input guard", "rejection path")


def function_lines(path: Path) -> dict[str, set[int]]:
    """{qualname: executable lines} of each function at module or class level
    of one source file, its nested code included; definitions that share a
    qualname (a property's getter and setter, say) count together.  A
    function's prologue (up to its ``RESUME``, at the ``def`` or first
    decorator line) emits no line event, so it is not executable here."""
    out: dict[str, set[int]] = {}

    def lines(co: types.CodeType) -> set[int]:
        ins = list(dis.get_instructions(co))
        start = next(k for k, i in enumerate(ins) if i.opname == "RESUME") + 1
        return {i.positions.lineno for i in ins[start:] if i.positions.lineno}

    def walk(co: types.CodeType, owner: str | None) -> None:
        for c in co.co_consts:
            if not isinstance(c, types.CodeType):
                continue
            if owner is not None:
                out[owner] |= lines(c)
                walk(c, owner)
            elif c.co_flags & inspect.CO_OPTIMIZED:   # a function, not a class body
                out.setdefault(c.co_qualname, set()).update(lines(c))
                walk(c, c.co_qualname)
            else:
                walk(c, None)

    walk(compile(path.read_text(), str(path), "exec"), None)
    return out


def trace_runs() -> dict[str, set[int]]:
    """{file: reached lines} over the run set, files relative to the package."""
    reached: dict[str, set[int]] = {}
    tracers = {}   # file name -> the line tracer of its frames
    prefix = str(PACKAGE) + os.sep

    def tracer(hits: set[int]):
        def local(frame, event, _arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local
        return local

    def on_call(frame, _event, _arg):
        name = frame.f_code.co_filename
        local = tracers.get(name)
        if local is None and name.startswith(prefix):
            local = tracers[name] = tracer(
                reached.setdefault(os.path.relpath(name, PACKAGE), set()))
        return local

    sys.settrace(on_call)
    try:
        _run_set()
    finally:
        sys.settrace(None)
    return reached


def _run_set() -> None:
    from curalg import cli, report

    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("ignore")
        for alg in ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6", "E7"):
            report.report_json(report.run(report.RunConfig(algebra=alg, samples=8)))
        report.report_json(report.run(report.RunConfig(
            algebra="A4", samples=8, hopf_parts=("axioms",),
            suites=("trigcalc", "structfn", "evalrep", "hopf", "intertwine"))))
        commands = (
            ["verify-all", "--config", str(ROOT / "default.cfg"), "--out", f"{tmp}/report.json"],
            ["verify-evalrep"],
            ["verify-boson", "--pairs", "E1:F2"],
            ["verify-hopf", "--axioms"],
            ["verify-hopf", "--homomorphism"],
            ["verify-intertwine", "--variant", "printed"],
            ["export-catalog"],
            ["export-catalog", "--variant", "printed"],
        )
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            if status != 0:
                raise SystemExit(f"curalg {' '.join(argv)} exited {status}")


def unreached(reached: dict[str, set[int]]) -> dict[str, list[int]]:
    """{file::function: unreached lines}, every function with at least one."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        hits = reached.get(rel, set())
        for name, lines in function_lines(path).items():
            missed = sorted(lines - hits)
            if missed:
                out[f"{rel}::{name}"] = missed
    return out


def read_allowed(path: Path = ALLOWED) -> dict[str, int]:
    """The allowlist, {file::function: count}; a bad line raises ValueError."""
    out = {}
    for ln, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) != 3 or not parts[1].isdigit() or parts[2] not in REASONS:
            raise ValueError(f"{path.name}:{ln}: expected 'file::function count  reason', "
                             f"reason one of {REASONS}")
        if parts[0] in out:
            raise ValueError(f"{path.name}:{ln}: {parts[0]} listed twice")
        out[parts[0]] = int(parts[1])
    return out


def compare(missed: dict[str, list[int]], allowed: dict[str, int]) -> tuple[list[str], list[str]]:
    """(failures, stale entries) as printable lines."""
    failures = [f"{key}: {len(lines)} unreached, {allowed.get(key, 0)} allowed: lines "
                + ", ".join(map(str, lines))
                for key, lines in missed.items() if len(lines) > allowed.get(key, 0)]
    stale = [f"{key}: {len(missed.get(key, ()))} unreached, {count} allowed"
             for key, count in allowed.items() if len(missed.get(key, ())) < count]
    return failures, stale


def main() -> int:
    if sys.version_info[:2] != (3, 11):
        print("tests/reach.py: the allowlist counts are calibrated for CPython 3.11; "
              f"this is {sys.version.split()[0]}")
        return 2
    missed = unreached(trace_runs())
    total = sum(map(len, missed.values()))
    failures, stale = compare(missed, read_allowed())
    for line in stale:
        print(f"stale entry: {line}")
    for line in failures:
        print(f"UNREACHED: {line}")
    print(f"{total} unreached lines in {len(missed)} functions; "
          f"{len(failures)} over their entry, {len(stale)} stale entries")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
