"""The benchmark's own tests: the correctness gate and its negative controls,
the tracer's bookkeeping, and BENCHMARK.json against what run.py prints.

    PYTHONPATH=src python3 -m pytest -q perfbench

curalg's source is never touched; the crash control replaces
``report.run`` in this process only.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import Workload  # noqa: E402

from curalg import report  # noqa: E402

SMALL = report.RunConfig(suites=("liealg", "params", "trigcalc", "structfn"), samples=5)


@pytest.fixture(scope="module")
def clean() -> tuple[str, list[str]]:
    text = report.report_json(report.run(SMALL))
    return text, [rid for rid, _ in gate.records(json.loads(text))]


def _doctor(text: str, edit) -> str:
    rep = json.loads(text)
    edit(rep)
    return report.report_json(rep)


def test_clean_reports_pass(clean):
    text, ids = clean
    g = gate.Gate(ids)
    assert g.check(text) == 0 and g.check(text) == 0
    assert g.correct and g.attempted == 2 * len(ids)


def test_flipped_record_is_caught(clean):
    text, ids = clean

    def flip(rep):
        rep["suites"][2]["checks"][0]["pass"] = False

    g = gate.Gate(ids)
    assert g.check(_doctor(text, flip)) == 1
    assert not g.correct


def test_dropped_id_is_caught(clean):
    text, ids = clean

    def drop(rep):
        del rep["suites"][3]["checks"][1]

    g = gate.Gate(ids)
    assert g.check(_doctor(text, drop)) == len(ids)
    assert not g.correct and "missing" in g.problems[0]


def test_changed_byte_is_caught(clean):
    text, ids = clean
    at = text.index('"max_residual": ') + len('"max_residual": ')
    changed = text[:at] + ("9" if text[at] != "9" else "8") + text[at + 1:]
    assert len(changed) == len(text) and json.loads(changed)
    g = gate.Gate(ids)
    assert g.check(text) == 0
    assert g.check(changed) == len(ids)
    assert not g.correct and "sha256" in g.problems[0]


def test_crash_in_run_is_a_failed_verification(clean, monkeypatch):
    _, ids = clean

    def boom(cfg):
        raise ZeroDivisionError("a check blew up")

    wl = Workload("module", 0)
    wl.setup()
    monkeypatch.setattr(report, "run", boom)
    out = worker.verify(wl)
    assert out["report"] is None and "ZeroDivisionError" in out["error"]
    g = gate.Gate(ids)
    assert g.check(out["report"], out["error"]) == len(ids)
    assert not g.correct


def test_tracing_partitions_the_run_and_keeps_the_bytes(clean):
    text, _ = clean
    t = tracer.Tracer()
    restore = tracer.instrument(t)
    try:
        traced = report.report_json(t.span("verify", report.run, SMALL))
    finally:
        restore()
    assert traced == text
    assert report.report_json(report.run(SMALL)) == text   # restore left no wrapper behind
    spans = t.stats()
    root = spans["verify"]
    layer_self = sum(s["self_s"] for n, s in spans.items() if n != "verify")
    assert layer_self + root["self_s"] == pytest.approx(root["total_s"], rel=1e-9)
    assert spans["trigcalc.DistExpr.__init__"]["n"] > 0
    assert spans["report.suite.trigcalc"]["n"] == 1


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.workloads.NAMES)
    spans = {"verify": {"n": 1, "self_s": 0.0, "total_s": 1.0}}
    untraced = {"cpu_s": 1.0, "verify_s": 1.0, "slowdown": 1.0,
                "report": json.dumps({"suites": []})}
    g = gate.Gate(["x"])
    g.check(None, "stub")
    names = list(run.layer_metrics(spans, {"verify_s": 1.0, "slowdown": 1.0}, untraced, g))
    assert [m["name"] for m in bench["per_layer"]] == names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])


def test_speed_probe_reports_a_slowdown():
    probe = worker.SpeedProbe()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        assert len(probe.times) >= 3
        assert probe.lap() > 0 and probe.times == []
        assert probe.lap() > 0   # probes once itself when no tick came
    finally:
        probe.stop()
