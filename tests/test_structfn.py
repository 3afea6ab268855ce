import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from curalg import evalrep, structfn
from curalg.liealg import cartan
from curalg.params import ParamTower
from curalg.trigcalc import DistExpr, Term, var


@pytest.fixture(scope="module")
def params():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ParamTower(0.1, 1.0, (1.0,))


@pytest.fixture(scope="module")
def params0():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ParamTower(0.1, 1.0, (0.0,))


def test_ee_same_node_matches_display(params):
    # sh(pi eta (w - i hbar)) / sh(pi eta (w + i hbar)) since B_11 = 1
    cd = cartan("A", 1)
    sr = structfn.ratio("EE", 1, 1, cd, c=1)
    for w in (0.4, -1.3 + 0.2j, 2.0 - 0.1j):
        want = cmath.sinh(math.pi * (w - 0.1j)) / cmath.sinh(math.pi * (w + 0.1j))
        assert abs(sr.eval(w, params) - want) < 1e-13


def test_ee_disconnected_is_one(params):
    cd = cartan("A", 3)
    sr = structfn.ratio("EE", 1, 3, cd, c=1)
    assert sr.num == () and sr.den == ()
    assert sr.eval(0.7, params) == 1.0


def test_hh_pm_level0_identity(params0):
    cd = cartan("A", 2)
    rng = np.random.default_rng(0)
    sr = structfn.ratio("HH_pm", 1, 2, cd, c=0)
    for _ in range(20):
        w = complex(rng.uniform(-2, 2), rng.uniform(-0.2, 0.2))
        assert abs(sr.eval(w, params0) - 1.0) < 1e-12


def test_hh_pm_level1_matches_display(params):
    # four-factor form with the +-c/2 shifts, B_11 = 1, c = 1
    cd = cartan("A", 1)
    sr = structfn.ratio("HH_pm", 1, 1, cd, c=1)
    eta, etap, h = params.eta, params.eta_prime, params.hbar
    for w in (0.9, -0.6 + 0.15j):
        want = (cmath.sinh(math.pi * eta * (w - 1j * h / 2))
                / cmath.sinh(math.pi * eta * (w + 3j * h / 2))
                * cmath.sinh(math.pi * etap * (w + 1j * h / 2))
                / cmath.sinh(math.pi * etap * (w - 3j * h / 2)))
        assert abs(sr.eval(w, params) - want) < 1e-13


def test_he_hf_signs(params):
    cd = cartan("A", 1)
    eta, etap, h = params.eta, params.eta_prime, params.hbar
    w = 0.8 - 0.05j
    he = structfn.ratio("HE", 1, 1, cd, c=1, sign=+1)
    want = cmath.sinh(math.pi * eta * (w - 0.75j * h)) / cmath.sinh(math.pi * eta * (w + 1.25j * h))
    assert abs(he.eval(w, params) - want) < 1e-13
    hf = structfn.ratio("HF", 1, 1, cd, c=1, sign=+1)
    want = cmath.sinh(math.pi * etap * (w + 0.75j * h)) / cmath.sinh(math.pi * etap * (w - 1.25j * h))
    assert abs(hf.eval(w, params) - want) < 1e-13


def test_inversion_property(params):
    cd = cartan("A", 2)
    rng = np.random.default_rng(5)
    for rel in ("EE", "FF", "HH_same"):
        for i in (1, 2):
            for j in (1, 2):
                rij = structfn.ratio(rel, i, j, cd, Fraction(1))
                rji = structfn.ratio(rel, j, i, cd, Fraction(1))
                for _ in range(10):
                    w = complex(rng.uniform(-2, 2), rng.uniform(-0.2, 0.2))
                    try:
                        val = rij.eval(w, params) * rji.eval(-w, params)
                    except ArithmeticError:
                        continue
                    assert abs(val - 1.0) < 1e-10


def test_serre_coefficient(params0, params):
    # eta -> 0 direction: 2 cos -> 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tiny = ParamTower(0.1, 1e-6, (0.0,))
    assert abs(structfn.serre_coefficient(tiny, "E") - 2.0) < 1e-10
    got = structfn.serre_coefficient(params, "E")
    assert abs(got - 2.0 * math.cos(0.1 * math.pi)) < 1e-14
    assert abs(got - 1.9021130325903071) < 1e-12
    # F side coincides with E side at level 0
    assert abs(structfn.serre_coefficient(params0, "F")
               - structfn.serre_coefficient(params0, "E")) < 1e-14
    # and differs at level 1
    assert structfn.serre_coefficient(params, "F") != got


def test_degeneration_to_rational(params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        small = ParamTower(0.1, 1e-4, (1.0,))
    cd = cartan("A", 2)
    rng = np.random.default_rng(9)
    for rel in ("EE", "HE", "FF", "HF"):
        sr = structfn.ratio(rel, 1, 2, cd, c=1)
        for _ in range(10):
            w = complex(rng.uniform(-2, 2), rng.uniform(-0.05, 0.05))
            try:
                trig = sr.eval(w, small)
            except ArithmeticError:
                continue
            assert abs(trig - sr.rational_eval(w, small)) < 1e-3


def test_b_zero_cancellation_structural():
    cd = cartan("A", 3)
    for rel in ("HH_pm", "HH_same", "HE", "HF", "EE", "FF"):
        sr = structfn.ratio(rel, 1, 3, cd, c=0)
        assert sr.num == () and sr.den == ()


def test_unknown_relation():
    with pytest.raises(ValueError):
        structfn.ratio("XX", 1, 1, cartan("A", 1))


def test_ratio_expression_built_once(params):
    sr = structfn.ratio("HE", 1, 2, cartan("A", 2), c=1)
    assert sr.ratio is sr.ratio
    assert sr.eval(0.3 + 0.1j, params) == sr.ratio.eval({"w": 0.3 + 0.1j}, params)
    # B_12 = B_21 on A2, and B_12 = B_23 on A3: one expression for all three
    assert structfn.ratio("HE", 2, 1, cartan("A", 2), c=1).ratio is sr.ratio
    assert structfn.ratio("HE", 2, 3, cartan("A", 3), c=1).ratio is sr.ratio


def _exprs(sr):
    """The terms of the ratio in w and of the cleared pair in u - v of
    ``sr``, as (scalar, factors, deltas) (no term has a matrix)."""
    return [_terms(e) for e in (sr.ratio, *evalrep._rel_vars_ratio(sr.num, sr.den))]


def _terms(expr):
    return [(t.scalar, t.factors, t.deltas) for t in expr.terms]


def _fields(sr):
    return (sr.relation, sr.i, sr.j, sr.c, sr.num, sr.den)


@pytest.mark.parametrize("label", ["D4", "A4"])
def test_ratio_matches_a_cold_build(label, cold_memos):
    # the factors, the ratio and the cleared pair are shared by every node
    # pair with the same B_ij; each warm one must equal, term for term, one
    # built on cleared memos, with its own nodes
    cd = cartan(label[0], int(label[1:]))
    cases = [(rel, i, j, sign, c, prime) for rel in structfn.RELATIONS
             for i in cd.nodes() for j in cd.nodes() for sign in (+1, -1)
             for c in (0, 1, Fraction(1, 2)) for prime in (1, 2)]
    warm = [structfn.ratio(rel, i, j, cd, c, sign, prime)
            for rel, i, j, sign, c, prime in cases]
    warm_exprs = [_exprs(sr) for sr in warm]
    w_sub = var("u") - var("v")
    for (rel, i, j, sign, c, prime), got, got_exprs in zip(cases, warm, warm_exprs):
        for memo in (structfn._factors, structfn._ratio, evalrep._rel_vars_ratio):
            memo.cache_clear()
        cold = structfn.ratio(rel, i, j, cd, c, sign, prime)
        assert _fields(got) == _fields(cold)
        assert (got.i, got.j) == (i, j)
        cold_exprs = _exprs(cold)
        assert got_exprs == cold_exprs
        # the cleared pair substitutes factor by factor, as substituting
        # into the built numerator and denominator does
        assert cold_exprs[1:] == [_terms(DistExpr((Term(1.0, fs),)).subs("w", w_sub))
                                  for fs in (cold.num, cold.den)]


def test_exchange_table_covers_every_delta_free_pair():
    kinds = ("E", "F", "H+", "H-")
    for xk in kinds:
        for yk in kinds:
            found = structfn.exchange_relation(xk, yk) or structfn.exchange_relation(yk, xk)
            assert (found is None) == ({xk, yk} == {"E", "F"}), (xk, yk)
    assert [structfn.exchange_kinds(rel) for rel in structfn.RELATIONS] == [
        ("H+", "H-"), ("H+", "H+"), ("H+", "E"), ("H+", "F"), ("E", "E"), ("F", "F")]
    assert structfn.exchange_kinds("HE", -1) == ("H-", "E")
    assert structfn.exchange_kinds("EE", -1) == ("E", "E")   # the sign selects only H^-
