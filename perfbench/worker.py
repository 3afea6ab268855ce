"""One benchmark worker: a fresh interpreter that sets up and verifies once.

Protocol on stdout: a line ``ready <slowdown>`` as soon as set-up is
done (the parent times set-up from process start to this line), then
one JSON line with the verification's measurements and report text.
With ``--setup-only`` it exits after ``ready``.  An exception out of the
verification is caught and returned as ``error`` so the parent can
count the run as failed instead of crashing.

``slowdown`` says how much slower than the reference speed the host ran
while set-up or the verification ran: the mean time of a fixed
pure-Python loop, run every 20 ms from a ``SIGALRM`` handler in this
process, over that loop's time at the reference speed (``REF_PROBE_S``).
The parent divides wall times by it.  In a traced worker the probe's
time counts in whichever span it interrupts, the same ~0.5% of the run
that it adds to an untraced one.

    PYTHONPATH=src python3 perfbench/worker.py --workload module --seed 0 [--trace PATH]
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback

from workloads import Workload

PROBE_LOOP = 2000      # iterations of the probe loop
PROBE_EVERY_S = 0.02   # interval between probes
REF_PROBE_S = 1e-4     # the probe loop's time at the reference speed


class SpeedProbe:
    """Times ``PROBE_LOOP`` additions every ``PROBE_EVERY_S`` while alive."""

    def __init__(self):
        self.times: list[float] = []
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOP):
            x += i
        self.times.append(time.perf_counter() - t0)

    def lap(self) -> float:
        """The slowdown since the last lap (mean probe time / ``REF_PROBE_S``)."""
        if not self.times:
            self._probe()
        times, self.times = self.times, []
        return statistics.fmean(times) / REF_PROBE_S

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def verify(wl: Workload, tracer=None, probe: SpeedProbe | None = None) -> dict:
    """Run the timed call once; measurements plus the report text or error."""
    out: dict = {"error": None, "report": None}
    if probe is not None:
        probe.lap()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = wl.verify() if tracer is None else tracer.span("verify", wl.verify)
    except Exception:  # noqa: BLE001 -- a crashed run is a failed result, not a crash
        result = None
        out["error"] = traceback.format_exc(limit=8)
    out["verify_s"] = time.perf_counter() - t0
    out["cpu_s"] = time.process_time() - cpu0
    if probe is not None:
        out["slowdown"] = probe.lap()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if result is not None:
        t1 = time.perf_counter()
        out["report"] = wl.report_text(result)
        out["text_s"] = time.perf_counter() - t1
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="PATH", help="trace the verification, spans to PATH")
    args = ap.parse_args(argv)

    probe = SpeedProbe()
    wl = Workload(args.workload, args.seed)
    wl.setup()
    sys.stdout.write(f"ready {probe.lap()!r}\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    out = verify(wl, tracer, probe)
    probe.stop()
    if tracer is not None and out["error"] is None:
        out["spans"] = tracer.stats()
        tracer.dump(args.trace)
    import numpy
    import scipy

    out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
