"""Time-to-verdict benchmark for curalg.

    python3 perfbench/run.py --workload {freefield,module,default} --seed N --seconds S --trace {0,1}

Run from the repository root.  Every verification runs in a fresh worker
interpreter (``perfbench/worker.py``), one at a time.  The worker's
set-up (interpreter start, curalg import, config, Cartan data and tower
validated) is timed from process start to its ``ready`` line.

``--trace 0`` measures end to end with tracing off: cycles of one
set-up-only worker and one whole verification while the next cycle is
expected to end within ``--seconds`` (at least one; the reports of one
seed must be byte-identical).  ``verify_s`` and ``setup_s`` are wall
times divided by the host's slowdown that the worker measured while
they ran (``worker.SpeedProbe``): seconds at the reference speed.  Each
metric is the median over the run; the wall times are in the full result.
``--trace 1`` runs one untraced and one traced verification and reports
the per-layer table (calls and self times at each layer boundary) and
the tracing overhead.

Every verification passes the correctness gate (``gate.py``) or the run
reports ``correct: false`` and exits 1.  The last stdout line is the
result JSON; the full result, with every sample, the machine facts and
the seed's reach, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads  # noqa: E402

SCRATCH = workloads.SCRATCH
RUN_LIMIT_S = 170.0       # the whole run, workers included, ends within this

END_TO_END = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# the raw figures behind verify_s and setup_s, kept in the full result
WALL = ("verify_wall_s", "verify_slowdown", "setup_wall_s", "setup_slowdown")
# curalg.report.SUITES and the traced layers, spelled out so this parent
# process never imports curalg (and with it numpy and scipy)
SUITES = ("liealg", "params", "trigcalc", "structfn", "evalrep", "boson", "hopf", "intertwine")
LAYERS = ("report", "boson", "trigcalc", "structfn", "evalrep", "hopf", "intertwine")

# span name(s) -> metric prefix; ``_n`` is calls, ``_s`` self time
_COUNTED = {
    "boson.product_exponent": ("boson.contraction.product_exponent",),
    "boson.exp_value": ("boson.ClosedForm.exp_value",),
    "boson.quadrature": ("boson.master.master_integral_quadrature", "boson.master.i0_quadrature"),
    "trigcalc.build": ("trigcalc.DistExpr.__init__",),
    "trigcalc.eval": ("trigcalc.DistExpr.eval",),
    "structfn.ratio": ("structfn.ratio",),
    "structfn.eval": ("structfn.StructureRatio.eval",),
}


class Worker:
    """One worker interpreter; ``setup_s`` and its result line."""

    def __init__(self, workload: str, seed: int, deadline: float, extra: tuple = ()):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath("src"), HERE, env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), *extra]
        self.setup_only = "--setup-only" in extra
        self.setup_s = None        # wall seconds
        self.setup_slowdown = None
        self.result: dict | None = None
        self.error: str | None = None
        err_path = os.path.join(SCRATCH, "worker-stderr.txt")
        t0 = time.perf_counter()
        with open(err_path, "w+") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, env=env)
            try:
                self._talk(proc, t0, deadline)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
            if self.error is not None:
                err.seek(0)
                self.error += "\n" + err.read()[-2000:]

    def _talk(self, proc: subprocess.Popen, t0: float, deadline: float) -> None:
        # select() on the pipe bounds the wait for ``ready`` by the deadline
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(1.0, deadline - time.perf_counter())):
                self.error = "worker timed out before set-up finished"
                return
        line = proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        words = line.split()
        if len(words) != 2 or words[0] != "ready":
            self.error = f"worker failed in set-up (exit {proc.wait()})"
            return
        self.setup_slowdown = float(words[1])
        if self.setup_only:
            return
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.error = "worker timed out in verification"
            return
        if proc.returncode != 0 or not out.strip():
            self.error = f"worker exited {proc.returncode} without a result"
            return
        self.result = json.loads(out.strip().splitlines()[-1])
        self.error = self.result.get("error")


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def machine_facts(versions: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    # the ceiling keeps git from reporting a repository outside this checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        proc = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], capture_output=True,
                              text=True, timeout=10, env=env)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            **versions, "git_commit": commit, "loadavg": list(os.getloadavg())}


def layer_unit(name: str) -> str:
    return "count" if name.endswith("_n") else "1" if name.endswith(("_ratio", "_frac")) else "s"


def layer_metrics(spans: dict, traced: dict, untraced: dict, g: gate.Gate) -> dict:
    """The per-layer table from one traced and one untraced verification."""
    def agg(*names, key="self_s"):
        return sum(spans.get(n, {}).get(key, 0) for n in names)

    m: dict[str, float] = {}
    for prefix, names in _COUNTED.items():
        m[prefix + "_n"] = agg(*names, key="n")
        m[prefix + "_s"] = agg(*names)
    pair = spans.get("boson.checks.pair_exponent", {"n": 0, "distinct": 0})
    m["boson.pair_exponent_n"] = pair["n"]
    m["boson.pair_distinct_n"] = pair["distinct"]
    m["boson.pair_reuse_ratio"] = pair["distinct"] / pair["n"] if pair["n"] else 0.0
    m["boson.residue_s"] = agg("boson.ClosedForm.residue_at")
    m["trigcalc.eval_reject_n"] = agg("trigcalc.DistExpr.eval", key="rejects")
    m["intertwine.verify_consistency_n"] = agg("intertwine.verify_consistency", key="n")
    m["evalrep.verify_relation_n"] = agg("evalrep.verify_relation", key="n")
    m["hopf.level_k_currents_s"] = agg("hopf.level_k_currents")
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(s["self_s"] for n, s in spans.items()
                                   if n.startswith(layer + "."))
    for suite in SUITES:
        m["report.suite_s." + suite] = agg("report.suite." + suite, key="total_s")
    m["report.json_s"] = agg("report.report_json", key="total_s") + traced.get("text_s", 0.0)
    m["report.cpu_s"] = untraced["cpu_s"]
    m["verify_wall_s"] = untraced["verify_s"]
    m["host_slowdown_ratio"] = untraced["slowdown"]
    m["report.samples_accepted_n"] = gate.samples_accepted(json.loads(untraced["report"]))
    m["unattributed_s"] = spans["verify"]["self_s"]
    m["trace.verify_s"] = spans["verify"]["total_s"]
    # traced minus untraced verify_s, both in seconds at the reference speed
    m["trace.overhead_s"] = (traced["verify_s"] / traced["slowdown"]
                             - untraced["verify_s"] / untraced["slowdown"])
    m["trace.spans_n"] = sum(s["n"] for n, s in spans.items() if n != "verify")
    m["checks_failed_frac"] = g.failed / g.attempted
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="curalg time-to-verdict benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "curalg", "__init__.py")):
        sys.stderr.write("perfbench: no curalg source at ./src/curalg; run from the repo root\n")
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(HERE, "expected_ids.json")) as fh:
        g = gate.Gate(json.load(fh)["ids"][args.workload])

    begin = time.perf_counter()
    deadline = begin + RUN_LIMIT_S

    def spawn(*extra) -> Worker:
        w = Worker(args.workload, args.seed, deadline, extra)
        if w.setup_s is not None:
            print(f"  worker {' '.join(extra) or 'verify'}: setup {w.setup_s:.4f} s"
                  + (f" (slowdown {w.setup_slowdown:.3f})" if w.setup_slowdown else "")
                  + (f", verify {w.result['verify_s']:.4f} s"
                     f" (slowdown {w.result['slowdown']:.3f})" if w.result else "")
                  + (" ERROR" if w.error else ""), flush=True)
        return w

    def judged(w: Worker) -> Worker:
        failed = g.check(w.result["report"] if w.result else None, w.error)
        if failed:
            print(f"  gate: {failed} records failed: {g.problems[-1][:500]}", flush=True)
        return w

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{workloads.WHY[args.workload]}", flush=True)
    spawn("--setup-only")   # fills the bytecode and file caches; not counted
    samples: dict[str, list[float]] = {k: [] for k in (*END_TO_END, *WALL)}

    def sample_setup(w: Worker) -> None:
        if w.error is None:
            samples["setup_wall_s"].append(w.setup_s)
            samples["setup_slowdown"].append(w.setup_slowdown)
            samples["setup_s"].append(w.setup_s / w.setup_slowdown)

    verifications: list[Worker] = []
    if args.trace:
        spans_path = os.path.join(SCRATCH, f"spans-{args.workload}-seed{args.seed}.npz")
        verifications.append(judged(spawn()))
        if g.correct:
            verifications.append(judged(spawn("--trace", spans_path)))
    else:
        # a cycle is one set-up-only worker and one verification; none starts that
        # would end past --seconds, judged by the mean cycle so far
        first = time.perf_counter()
        while g.correct or not g.attempted:
            now = time.perf_counter()
            if verifications and now - begin + (now - first) / len(verifications) > args.seconds:
                break
            sample_setup(spawn("--setup-only"))
            verifications.append(judged(spawn()))
    for w in verifications[:1] if args.trace else verifications:   # tracing slows the other
        if w.result is not None and w.error is None:
            sample_setup(w)
            samples["verify_wall_s"].append(w.result["verify_s"])
            samples["verify_slowdown"].append(w.result["slowdown"])
            samples["verify_s"].append(w.result["verify_s"] / w.result["slowdown"])
            samples["peak_rss_mb"].append(w.result["peak_rss_mb"])

    correct = g.correct
    if args.trace:
        metrics = (layer_metrics(verifications[1].result["spans"], verifications[1].result,
                                 verifications[0].result, g)
                   if correct else {})
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {k: statistics.median(samples[k]) for k in END_TO_END if samples[k]}
        units = END_TO_END
    summary = {k: quartiles(v) for k, v in samples.items() if v}
    versions = next((w.result["versions"] for w in verifications if w.result), {})
    full = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "why": workloads.WHY[args.workload],
        "seed_reach": workloads.SEED_REACH[args.workload],
        "machine": machine_facts(versions), "correct": correct, "problems": g.problems,
        "report_sha256": g.reference_sha,
        "samples": samples, "summary": summary, "metrics": metrics,
        "wall_s": time.perf_counter() - begin,
    }
    with open(os.path.join(SCRATCH, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(full, fh, indent=2)
    for k, s in summary.items():
        print(f"  {k}: median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
              f"n {s['n']}", flush=True)
    print("machine " + json.dumps(full["machine"]), flush=True)
    print(json.dumps({
        "correct": correct, "attempted": g.attempted, "failed": g.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
