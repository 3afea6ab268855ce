"""The standard-library random stream against numpy's, and a run without numpy."""

import os
import subprocess
import sys

import pytest

from curalg import rng as pure
from curalg.trigcalc import sample_max

# run seeds, small and past one 32-bit word, whose children seed the suites
RUN_SEEDS = (0, 1, 3, 12345, 2 ** 40 + 7)
# the default seed of every sampled check called alone
DEFAULT_SEEDS = (3, 5, 7, 11, 17, 23, 29, 31, 37, 41, 43)
LOW = (-2.0, -0.35, -1.0, 0.0, -3.0, -0.05, 0.5, -0.2)
HIGH = (2.0, 0.35, 1.0, 0.2, 3.0, 0.05, 2.5, 0.2)


@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


def _same_draws(want, got):
    for rows in (1, 7, 50):
        for width in range(1, 9):
            lo, hi = LOW[:width], HIGH[:width]
            assert got.uniform(lo, hi, size=(rows, width)) == \
                want.uniform(lo, hi, size=(rows, width)).tolist(), (rows, width)


@pytest.mark.parametrize("seed", RUN_SEEDS)
def test_a_seed_and_its_eight_children_draw_numpys_doubles(np, seed):
    want, got = np.random.SeedSequence(seed), pure.SeedSequence(seed)
    assert got.pool == want.pool.tolist()
    pairs = [(want, got)] + list(zip(want.spawn(8), got.spawn(8)))
    # a second spawn continues the children's count
    pairs += list(zip(want.spawn(1), got.spawn(1)))
    for w, g in pairs:
        assert g.spawn_key == w.spawn_key
        _same_draws(np.random.default_rng(w), pure.default_rng(g))


@pytest.mark.parametrize("seed", DEFAULT_SEEDS)
def test_every_default_seed_draws_numpys_doubles(np, seed):
    _same_draws(np.random.default_rng(seed), pure.default_rng(seed))


def test_a_seed_past_two_words_and_a_spawn_key_past_one(np):
    # entropy longer than the pool, and a spawn key word that needs two words
    for seed in (2 ** 200 + 12345, 2 ** 64):
        want, got = np.random.SeedSequence(seed), pure.SeedSequence(seed)
        assert got.pool == want.pool.tolist()
        w = np.random.SeedSequence(seed, spawn_key=(2 ** 33 + 1,))
        g = pure.SeedSequence(seed, spawn_key=(2 ** 33 + 1,))
        assert g.pool == w.pool.tolist()
        _same_draws(np.random.default_rng(w), pure.default_rng(g))


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        pure.SeedSequence(-1)


def test_a_generator_is_passed_through_and_numpys_samples_alike(np):
    gen = pure.default_rng(9)
    assert pure.default_rng(gen) is gen
    windows = {"u": ((-2.0, 2.0), (-0.3, 0.3)), "z": ((-1.0, 1.0), None)}
    seen = {"pure": [], "numpy": []}

    def residual_into(points):
        def residual(pt):
            points.append(pt)
            return None if pt["u"].real > 1.0 else abs(pt["u"] - pt["z"])
        return residual

    got = sample_max(residual_into(seen["pure"]), windows, 20, pure.default_rng(4))
    want = sample_max(residual_into(seen["numpy"]), windows, 20, np.random.default_rng(4))
    assert got == want and seen["pure"] == seen["numpy"]


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
