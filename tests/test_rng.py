"""The runs' random streams, the numpy path of the sampler, and a run without numpy."""

import os
import random
import subprocess
import sys

import pytest

from curalg.rng import default_rng
from curalg.trigcalc import sample_max


def test_a_generator_is_passed_through_and_numpys_samples_alike():
    np = pytest.importorskip("numpy")
    for gen in (random.Random(9), np.random.default_rng(9)):
        assert default_rng(gen) is gen
    # every try draws u (real, imaginary), then z (real): one row of numpy's
    # broadcast uniform per try, rejected tries included
    windows = {"u": ((-2.0, 2.0), (-0.3, 0.3)), "z": ((-1.0, 1.0), None)}
    seen = []

    def residual(pt):
        seen.append(pt)
        if pt["u"].real > 1.0:
            return None
        if pt["z"].real < -0.8:
            raise ZeroDivisionError
        return abs(pt["u"] - pt["z"])

    worst, done = sample_max(residual, windows, 20, np.random.default_rng(4), retries=5)
    rows = np.random.default_rng(4).uniform([-2.0, -0.3, -1.0], [2.0, 0.3, 1.0],
                                            size=(len(seen), 3)).tolist()
    assert seen == [{"u": complex(a, b), "z": complex(c, 0.0)} for a, b, c in rows]
    accepted = [abs(complex(a, b) - c) for a, b, c in rows if a <= 1.0 and c >= -0.8]
    assert 20 < len(seen) <= 25 and len(accepted) < len(seen)
    assert (worst, done) == (max(accepted), len(accepted))


def test_a_run_imports_no_numpy():
    code = ("import sys\n"
            "import curalg.report, curalg.cli\n"
            "from curalg import report\n"
            "assert report.run(report.RunConfig(algebra='A1', samples=4))['pass']\n"
            "sys.exit('numpy' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
