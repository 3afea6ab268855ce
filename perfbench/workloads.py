"""The benchmark's workloads: fixed ``report.run`` configurations.

Each workload is one verification run in one process, one closed-loop
caller, no threads.  ``setup`` is everything before the timed call
(imports, config, Cartan data and tower validated); ``verify`` is the
timed call and returns the report's JSON text.  curalg is imported
lazily so the parent process never loads numpy or scipy.
"""

from __future__ import annotations

import contextlib
import io
import os
import warnings

# Why each workload exists, and which layer it loads.  The ROADMAP's
# contraction cache (item 2) does most of its work on ``freefield`` and
# none on ``module``; the batched sampler (item 3) is the reverse.
WHY = {
    "freefield": "D4 level-1 free field and level-2 coproduct images: contraction "
                 "reduction dominates, no level-0 module",
    "module": "A4 level-0 module side only: DistExpr build and eval under the "
              "intertwiner triples, zero contraction calls",
    "default": "the shipped first run (verify-all --config default.cfg, A2) incl. JSON "
               "write: small batches, fixed costs weigh most",
}

# Parts of a run that ``--seed`` does not reach: they draw from a fixed
# seed or from none, so a fresh seed resamples only the rest of the run.
SEED_REACH = {
    "freefield": "not reached: hopf.verify_serre_level2 (fixed seed 43, report passes no rng), "
                 "boson.checks.ef_delta_check (no sampling) and its merged_exponent_matches "
                 "(fixed seed 5)",
    "module": "not reached: evalrep.degeneration_report (fixed seed 3), "
              "intertwine.degeneration_report (fixed seed 41), evalrep serre relations "
              "(no sampling)",
    "default": "not reached: all parts listed for freefield and module, since A2 runs both sides",
}

NAMES = tuple(WHY)

SCRATCH = ".perfbench_out"   # the benchmark's output directory, relative to the repo root

MODULE_SUITES = ("trigcalc", "structfn", "evalrep", "hopf", "intertwine")


class Workload:
    """One configured run: ``setup()`` once, then ``verify()`` once."""

    def __init__(self, name: str, seed: int):
        if name not in WHY:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed

    def setup(self) -> None:
        from curalg import cli, report

        self.cli, self.report = cli, report
        if self.name == "freefield":
            cfg = report.RunConfig(algebra="D4", samples=50, seed=self.seed)
        elif self.name == "module":
            cfg = report.RunConfig(algebra="A4", samples=50, seed=self.seed,
                                   suites=MODULE_SUITES, hopf_parts=("axioms",))
        else:
            cfg = report.config_from_sources(report.parse_config_file("default.cfg"),
                                             {"seed": self.seed})
        cfg.cartan()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg.tower()
        self.cfg = cfg

    def verify(self):
        """The timed call: ``report.run`` (its report dict), or ``cli.main``
        for ``default`` (the JSON text it wrote)."""
        if self.name != "default":
            return self.report.run(self.cfg)
        out = os.path.join(SCRATCH, f"report-{os.getpid()}.json")
        argv = ["verify-all", "--config", "default.cfg", "--seed", str(self.seed), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        try:
            with open(out) as fh:
                text = fh.read()
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)
        if code not in (0, 1):
            raise RuntimeError(f"curalg verify-all exited with code {code}")
        return text

    def report_text(self, result) -> str:
        """The report's JSON bytes as curalg writes them (outside the timing)."""
        return result if isinstance(result, str) else self.report.report_json(result)
