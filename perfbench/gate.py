"""Correctness gate: the benchmark only counts runs whose verdict holds.

A verification fails as a whole (every expected record counted failed)
when it raised, when its JSON does not parse, when its ordered
record-id list differs from the workload's expected list, or when its
report bytes differ from the first verification of the same seed in
this benchmark run.  Otherwise each record with ``pass`` not true counts
as one failure.  Pure functions of the report text; no curalg import.
"""

from __future__ import annotations

import hashlib
import json


def records(report: dict) -> list[tuple[str, bool]]:
    """Ordered ``(suite/id, passed)`` for every check of a report."""
    return [(f"{suite['suite']}/{check.get('id')}", check.get("pass") is True)
            for suite in report["suites"] for check in suite["checks"]]


def samples_accepted(report: dict) -> int:
    """Sum of the records' ``samples`` fields (sample points actually used)."""
    return sum(check["samples"] for suite in report["suites"] for check in suite["checks"]
               if type(check.get("samples")) is int)


class Gate:
    """Judges the verifications of one benchmark run, all with one seed."""

    def __init__(self, expected_ids: list[str]):
        self.expected = list(expected_ids)
        self.reference_sha: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems

    def check(self, text: str | None, error: str | None = None) -> int:
        """Judge one verification; returns the records it failed."""
        n = len(self.expected)
        self.attempted += n
        failed = self._judge(text, error)
        self.failed += failed
        return failed

    def _judge(self, text: str | None, error: str | None) -> int:
        n = len(self.expected)
        if error is not None or text is None:
            self.problems.append(f"verification raised: {error}")
            return n
        sha = hashlib.sha256(text.encode()).hexdigest()
        if self.reference_sha is None:
            self.reference_sha = sha
        try:
            report = json.loads(text)
            recs = records(report)
        except (ValueError, KeyError, TypeError) as exc:
            self.problems.append(f"unreadable report: {exc!r}")
            return n
        ids = [rid for rid, _ in recs]
        if ids != self.expected:
            got, want = set(ids), set(self.expected)
            missing = [i for i in self.expected if i not in got]
            extra = [i for i in ids if i not in want]
            self.problems.append(f"record ids differ from the expected list: "
                                 f"missing {missing[:5]}, extra {extra[:5]}, "
                                 f"{len(ids)} records for {n} expected")
            return n
        if sha != self.reference_sha:
            self.problems.append(f"report sha256 {sha[:12]} differs from "
                                 f"{self.reference_sha[:12]} of the same seed")
            return n
        bad = [rid for rid, ok in recs if not ok]
        if bad:
            self.problems.append(f"{len(bad)} records failed: {bad[:5]}")
        elif report.get("pass") is not True:
            self.problems.append("every record passed but the report's overall pass is not true")
            return n
        return len(bad)
