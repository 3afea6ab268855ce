import cmath
import math
import warnings
from fractions import Fraction
from itertools import permutations

import mpmath as mp
import numpy as np
import pytest

from curalg import hopf, report, structfn
from curalg.boson import checks, contraction, master
from curalg.boson.atoms import ExponentFn, ParamLin
from curalg.boson.contraction import product_exponent, quadrature_exponent
from curalg.boson.currents import (
    BosonCurrent,
    current,
    phi_value,
    word_phase,
)
from curalg.boson.kernel import kernel, kernel_value
from curalg.evalplan import worst_of
from curalg.liealg import cartan, from_label
from curalg.params import ParamTower
from curalg.trigcalc import ShiftExpr


def tower(*levels):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ParamTower(0.1, 1.0, levels or (1.0, 1.0))


@pytest.fixture(scope="module")
def params():
    return tower(1.0, 1.0)


@pytest.fixture(scope="module")
def a2():
    return cartan("A", 2)


# ---------------------------------------------------------------------------
# Master primitives
# ---------------------------------------------------------------------------


def test_master_closed_vs_quadrature(params):
    for k in range(20):
        ex = 0.2 + (3.0 - 0.2) * k / 19.0
        x = ex / params.eta
        closed = master.master_integral(x, params.eta)
        quad = master.master_integral_quadrature(x, params.eta)
        assert abs(closed - quad) < 1e-6


def test_master_special_points(params):
    # ln Gamma(1) = 0: value reduces to (1/2)(gamma - ln eta) - ln(2 pi)/2
    eta = 0.8
    want = 0.5 * (master.EULER_GAMMA - math.log(eta)) - 0.5 * math.log(2 * math.pi)
    assert abs(master.master_integral(1.0 / eta, eta) - want) < 1e-14
    # eta*x = 1/2 brings in ln Gamma(1/2) = ln(pi)/2
    want = 0.5 * math.log(math.pi) - 0.5 * math.log(2 * math.pi)
    assert abs(master.master_integral(0.5 / eta, eta) - want) < 1e-14


def test_master_reflection_pairing():
    # master(x) + master(xbar) with eta*xbar = 1 - eta*x collapses through
    # the Gamma reflection to -ln(2 sin(pi eta x)); linear terms cancel.
    eta = 1.3
    for ex in (0.2, 0.35, 0.7):
        lhs = master.master_integral(ex / eta, eta) + master.master_integral((1 - ex) / eta, eta)
        rhs = -cmath.log(2.0 * math.sin(math.pi * ex))
        assert abs(lhs - rhs) < 1e-12


def test_gamma_reflection_grid():
    # the report's grid: x = 3.0 (k = 19) is a pole of Gamma(1 - x) and is left out
    worst = worst_of(*(master.gamma_reflection_defect(0.2 + 2.8 * k / 19.0) for k in range(19)))
    assert worst < 1e-10


def test_gamma_is_nan_at_its_poles():
    for n in range(7):
        assert cmath.isnan(master.gamma(-float(n)))
        assert cmath.isnan(master.exp_master(-float(n), 1.0))
        assert math.isnan(master.gamma_reflection_defect(-float(n)))
        assert math.isnan(master.gamma_reflection_defect(n + 1.0))  # a pole of Gamma(1 - x)
    # the last point of the report's 20-point grid, which the acceptance gate folds with max
    assert math.isnan(master.gamma_reflection_defect(3.0))
    assert master.gamma_reflection_defect(2.999) < 1e-10


def test_gamma_and_exp_master_match_mpmath():
    rng = np.random.default_rng(2024)
    pts = rng.uniform((-6.0, -3.0), (6.0, 3.0), size=(3000, 2)).tolist()
    eta = 1.0 / 1.1
    c = mp.euler - mp.log(mp.mpf(eta))
    worst_g = worst_m = 0.0
    for re, im in pts:
        z, zz = complex(re, im), mp.mpc(re, im)
        ref = mp.gamma(zz)
        worst_g = max(worst_g, abs(master.gamma(z) - complex(ref)) / abs(complex(ref)))
        want = complex(ref * mp.exp((zz - 0.5) * c) / mp.sqrt(2 * mp.pi))
        worst_m = max(worst_m, abs(master.exp_master(z / eta, eta) - want) / abs(want))
    assert worst_g < 2e-14
    assert worst_m < 2e-14


def test_master_integral_matches_mpmath_loggamma():
    # the principal log of the Lanczos sum jumps by 2*pi*i, e.g. at
    # eta*x = 0.059 + 2.82i; lnGamma must follow mpmath's continuous branch
    rng = np.random.default_rng(7)
    pts = [(0.059, 2.82)] + rng.uniform((0.0, -25.0), (8.0, 25.0), size=(2000, 2)).tolist()
    eta = 1.3
    c = mp.euler - mp.log(mp.mpf(eta))
    worst = 0.0
    for re, im in pts:
        if re == 0.0:
            continue
        zz = mp.mpc(re, im)
        want = complex(mp.loggamma(zz) + (zz - 0.5) * c - mp.log(2 * mp.pi) / 2)
        got = master.master_integral(complex(re, im) / eta, eta)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst < 2e-14


def test_leg_integral_matches_mpmath_quad():
    x = 0.7 - 0.4j

    def g(lam):
        return cmath.exp(-x * lam) / (lam * (1.0 - cmath.exp(-lam)))

    with mp.workdps(30):
        want = complex(mp.quad(lambda t: mp.exp(-x * t) / (t * (1 - mp.exp(-t))),
                               [0.5, 2, 8, 30, 60 / x.real]))
    got = master._leg_integral(g, 0.5, 60 / x.real)
    assert abs(got - want) < 1e-14 * abs(want)


@pytest.mark.parametrize("n", [24, 240])
def test_leggauss_is_the_gauss_legendre_rule(n):
    nodes, weights = master._leggauss(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert np.abs(nodes - ref_nodes).max() < 1e-15
    assert np.abs(weights / ref_weights - 1.0).max() < 1e-10
    # exact for every polynomial of degree below 2n
    for k in (0, 2, n, 2 * n - 2):
        assert abs(np.dot(weights, nodes ** k) - 2.0 / (k + 1)) < 1e-14


def test_a_perturbed_lanczos_coefficient_fails_the_reflection_record(monkeypatch):
    def reflection_record():
        cfg = report.RunConfig(algebra="A1", samples=2, seed=0, suites=("boson",), pairs="E1:E1")
        checks_ = report.run(cfg)["suites"][0]["checks"]
        return next(c for c in checks_ if c["id"] == "gamma_reflection")

    assert reflection_record()["pass"] is True
    coeffs = list(master._LANCZOS)
    coeffs[3] *= 1.0 + 1e-9
    monkeypatch.setattr(master, "_LANCZOS", tuple(coeffs))
    rec = reflection_record()
    assert rec["pass"] is False and rec["max_residual"] > 1e-10


def test_closed_form_plan_follows_the_tower(a2):
    p1, p2 = tower(1.0, 1.0), ParamTower(0.13, 0.8, (1.0, 1.0))
    x, y = current("E", 1, "u"), current("E", 1, "v")

    def form():
        return product_exponent(kernel(a2, 1, 1, p1), x.g(p1), y.g(p1), p1)

    pt = {"u": 0.3 + 0.2j, "v": -0.4 + 0.1j}
    used = form()
    assert any(p.beta is not None for p in used.primitives)
    assert used.exp_value(pt, p1) == form().exp_value(pt, p1)
    assert used.exp_value(pt, p2) == form().exp_value(pt, p2)
    assert used.exp_value(pt, p2) != used.exp_value(pt, p1)


def test_i0_validated_against_quadrature():
    for x in (0.4, 1.1, 2.7):
        assert abs(master.i0_closed(x) - master.i0_quadrature(x)) < 1e-8
        assert abs(master.i0_closed(x) + master.EULER_GAMMA + math.log(x)) < 1e-15


def test_branch_errors():
    with pytest.raises(master.BranchError):
        master.master_integral(-0.3, 1.0)
    with pytest.raises(master.BranchError):
        master.i0_closed(-1.0)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


def test_kernel_antisymmetry_and_symmetry(params, a2):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        lam = complex(rng.uniform(-3, 3), rng.uniform(-0.5, 0.5))
        if abs(lam) < 0.05:
            continue
        for i in (1, 2):
            for j in (1, 2):
                worst = max(worst,
                            abs(kernel_value(a2, i, j, lam, params)
                                + kernel_value(a2, i, j, -lam, params)),
                            abs(kernel_value(a2, i, j, lam, params)
                                - kernel_value(a2, j, i, lam, params)))
    assert worst < 1e-12


def test_kernel_regular_at_zero(params, a2):
    # the kernel is odd, so it vanishes linearly at 0; the normalized
    # limit alpha(lambda)/lambda -> 2 hbar^2 B_ij eta'/eta is finite
    h = params.hbar
    lam = 1e-5
    for i, j in ((1, 1), (1, 2)):
        b = float(a2.b_entry(i, j))
        want = 2.0 * h * h * b * params.eta_prime / params.eta
        got = kernel_value(a2, i, j, lam, params) / lam
        assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_kernel_atoms_match_pointwise(a2):
    # a non-unit rational level: slot 1 needs 1/eta^(1), 1/eta^(2) resolved exactly
    t = tower(1.0, 0.5, 1.0)
    lam = 0.9 - 0.3j
    for slot in (0, 1):
        ker = kernel(a2, 1, 2, t, slot)
        val = ker.coeff * lam ** ker.lambda_power
        for a in ker.num_sh:
            val *= cmath.sinh(a.value(t) * lam)
        for b in ker.den_sh:
            val /= cmath.sinh(b.value(t) * lam)
        assert abs(val - kernel_value(a2, 1, 2, lam, t, slot=slot)) < 1e-13


# ---------------------------------------------------------------------------
# Mode coefficient functions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["E", "F", "H+", "H-"])
def test_g_functions_match_pointwise(kind):
    # a non-unit rational level: slot 1 needs 1/eta^(1), 1/eta^(2) resolved exactly
    t = tower(1.0, 0.5, 1.0)
    for slot in (0, 1):
        g = current(kind, 1, "u", slot=slot).g(t)
        rng = np.random.default_rng(3)
        for _ in range(25):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-0.4, 0.4))
            if abs(lam) < 0.1:
                continue
            u = complex(rng.uniform(-1, 1), rng.uniform(-0.1, 0.1))
            want = phi_value(kind, 1, lam, u, t, slot=slot)
            got = g.eval_at(lam, {"u": u}, t)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_param_lin_is_resolved_when_built():
    t = tower(1.0, 0.5, 1.0)
    # 1/eta^(2) = 1/eta + hbar*(c_0 + c_1)
    a = ParamLin.inv_eta(2, t)
    b = ParamLin.inv_eta(0, t) + ParamLin.hbar(Fraction(3, 2))
    assert a == b and hash(a) == hash(b)
    assert abs(a.value(t) - t.inv_eta_at(2)) < 1e-15
    assert str(ParamLin.inv_eta(1, t, Fraction(-1, 2))) == "-1/2/eta0 + -1/2*h"
    assert str(ParamLin.hbar(Fraction(1, 2))) == "1/2*h" and str(ParamLin()) == "0"
    # one base with both coordinates, one with 1/eta only
    for base in (ParamLin.inv_eta(1, t, Fraction(1, 3)), ParamLin.inv_eta(0, t, 2)):
        for m in range(1, 9):
            assert (base * m).integer_ratio(base) == m
        for q in (9, Fraction(3, 2), -1):
            assert (base * q).integer_ratio(base) is None
    # the hbar coordinates are in ratio 2, the 1/eta coordinates are not
    assert (ParamLin.hbar(2) + ParamLin.inv_eta(0, t)).integer_ratio(
        ParamLin.hbar(1) + ParamLin.inv_eta(0, t)) is None
    with pytest.raises(ValueError, match="not exactly rational"):
        current("E", 1, "u").g(tower(math.sqrt(2.0), 1.0))


def test_rational_levels_are_fixed_once_per_tower(monkeypatch):
    t = tower(1.0, 0.5, math.sqrt(2.0))
    calls = []
    real = Fraction.limit_denominator

    def counted(self, max_denominator=1000000):
        calls.append(self)
        return real(self, max_denominator)

    monkeypatch.setattr(Fraction, "limit_denominator", counted)
    for _ in range(3):
        assert ParamLin.inv_eta(2, t) == ParamLin(Fraction(3, 2), Fraction(1))
    assert len(calls) == 3
    assert t.rational_levels == (Fraction(1), Fraction(1, 2), None)
    with pytest.raises(ValueError, match="c_2 = 1.414"):
        ParamLin.inv_eta(3, t)


def test_g_negated_lambda(params):
    g = current("H+", 1, "u").g(params)
    gn = g.negated_lambda()
    lam = 1.1 + 0.2j
    assert abs(gn.eval_at(lam, {"u": 0.3}, params)
               - g.eval_at(-lam, {"u": 0.3}, params)) < 1e-12


# ---------------------------------------------------------------------------
# Word phases
# ---------------------------------------------------------------------------


def test_combined_exchange_phase_is_b_weighted(a2):
    # the combined reorder phase must be e^{2 pi i q q' B_ij}; on the
    # disconnected nodes 1, 3 of A3 both parts are 1 and the currents commute
    a3 = cartan("A", 3)
    for (cd, xk, i, yk, j, want) in ((a2, "E", 1, "E", 2, -1.0), (a2, "E", 1, "F", 2, -1.0),
                                     (a2, "F", 1, "F", 2, -1.0), (a3, "E", 1, "E", 3, 1.0)):
        x = current(xk, i, "u")
        y = current(yk, j, "v")
        ratio = word_phase((x, y), cd) / word_phase((y, x), cd)
        qx = 1 if xk == "E" else -1
        qy = 1 if yk == "E" else -1
        expect = cmath.exp(2j * math.pi * qx * qy * float(cd.b_entry(i, j)))
        assert abs(ratio - expect) < 1e-12
        assert abs(expect - want) < 1e-12


def test_word_phase_absolute_values():
    # exchange ratios cancel the B part (B is symmetric, so it is the same
    # for every order of a word's letters); these values pin it and the
    # Klein sign: exp(2 pi i F) * s, compared bit for bit
    cases = (
        ("A3", "E1 E2", Fraction(-1, 2), -1),
        ("A3", "E2 E1", Fraction(-1, 2), 1),
        ("A3", "E1 F2 E3", Fraction(1), 1),
        ("A3", "F3 H+2 E2 F1", Fraction(1), 1),
        ("D4", "E2 E3 E4", Fraction(-1), 1),
        ("D4", "F4 E2 F3 E1", Fraction(1, 2), -1),
    )
    for label, word, exponent, sign in cases:
        letters = tuple(current(w[:-1], int(w[-1]), f"u{k}") for k, w in enumerate(word.split()))
        got = word_phase(letters, from_label(label))
        assert got == cmath.exp(2j * math.pi * float(exponent)) * sign, (label, word, got)


# ---------------------------------------------------------------------------
# Contraction engine
# ---------------------------------------------------------------------------


def test_empty_contraction(params, a2):
    g0 = ExponentFn(weight=0.0)
    ker = kernel(a2, 1, 1, params)
    cf = product_exponent(ker, g0, g0, params)
    assert cf.primitives == ()
    assert cf.exp_value({}, params) == 1.0


def test_closed_form_vs_direct_quadrature(params, a2):
    # convergent sample point: Im(u - v) well above every shift
    pt = {"u": 0.3 + 2.2j, "v": -0.1 - 0.4j}
    for xk, yk in (("E", "E"), ("H+", "F"), ("H+", "E"), ("F", "F"), ("H-", "H+")):
        x, y = current(xk, 1, "u"), current(yk, 1, "v")
        ker = kernel(a2, 1, 1, params)
        cf = product_exponent(ker, x.g(params), y.g(params), params)
        closed = cf.value(pt, params)
        quad = quadrature_exponent(ker, x.g(params), y.g(params), pt, params)
        assert abs(closed - quad) < 1e-9


def test_ef_contraction_factor_closed_form(params, a2):
    # exp(C_EF) = -e^{-2 gamma} / ((w - i hbar/2)(w + i hbar/2))
    x, y = current("E", 1, "u"), current("F", 1, "v")
    cf = checks.pair_exponent(x, y, a2, params)
    h = params.hbar
    for w in (0.8, -0.9 + 0.3j):
        got = cf.exp_value({"u": w, "v": 0.0}, params)
        want = -math.exp(-2 * master.EULER_GAMMA) / ((w - 0.5j * h) * (w + 0.5j * h))
        assert abs(got - want) < 1e-12 * abs(want)


def test_pair_cache_relabels_to_the_callers_names(params, a2, monkeypatch):
    monkeypatch.setattr(checks, "_PAIR_CACHE", {})
    # the second naming sorts the other way round, so every primitive's vars re-sort
    for xk, yk in (("E", "F"), ("H+", "E"), ("H-", "F")):
        for names in (("u", "v"), ("z", "a")):
            x = current(xk, 1, names[0], Fraction(1, 2))
            y = current(yk, 2 if xk == "E" else 1, names[1])
            got = checks.pair_exponent(x, y, a2, params)
            want = product_exponent(kernel(a2, x.j, y.j, params), x.g(params), y.g(params),
                                    params)
            assert got.primitives and got.primitives == want.primitives
            assert all(p.vars == tuple(sorted(p.vars)) for p in got.primitives)
    assert len(checks._PAIR_CACHE) == 3


def test_pair_cache_is_keyed_on_the_tower(a2, monkeypatch):
    monkeypatch.setattr(checks, "_PAIR_CACHE", {})
    x, y = current("E", 1, "u", slot=1), current("E", 1, "v", slot=1)
    forms = []
    for t in (tower(1.0, 1.0), tower(1.0, 2.0)):
        forms.append(checks.pair_exponent(x, y, a2, t))
        assert forms[-1] == product_exponent(kernel(a2, 1, 1, t, 1), x.g(t), y.g(t), t)
    assert forms[0] != forms[1]
    assert len(checks._PAIR_CACHE) == 2


def test_pair_cache_reduces_each_pair_once(params, a2, monkeypatch):
    monkeypatch.setattr(checks, "_PAIR_CACHE", {})
    calls = []
    reduce = checks.product_exponent

    def counted(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(checks, "product_exponent", counted)
    for u, v in (("u", "v"), ("u", "v"), ("a", "b"), ("v", "u")):
        checks.pair_exponent(current("H+", 1, u), current("F", 2, v), a2, params)
    assert len(calls) == 1


# (x argument, y argument): distinct variables with shifts in hbar units and
# on the eta lattice, and same-variable pairs as in the level-2 images
_PAIR_ARGS = (
    (ShiftExpr.of_var("u"), ShiftExpr.of_var("v")),
    (ShiftExpr.of_var("u") + ShiftExpr.hbar_units(Fraction(1, 4)), ShiftExpr.of_var("v")),
    (ShiftExpr.of_var("z"), ShiftExpr.of_var("a") + ShiftExpr.hbar_units(Fraction(-1, 2))),
    (ShiftExpr.of_var("u") + ShiftExpr.hbar_units(Fraction(1, 2)),
     ShiftExpr.of_var("v") + ShiftExpr.hbar_units(Fraction(-1, 4))),
    (ShiftExpr.of_var("u") + ShiftExpr.lattice_units(1),
     ShiftExpr.of_var("v") + ShiftExpr.lattice_units(0, -1)),
    (ShiftExpr.of_var("u") + ShiftExpr.hbar_units(Fraction(1, 2)), ShiftExpr.of_var("u")),
    (ShiftExpr.of_var("v") + ShiftExpr.lattice_units(2, 1),
     ShiftExpr.of_var("v") + ShiftExpr.hbar_units(Fraction(1, 4))),
)


@pytest.mark.parametrize("label", ["A2", "D4"])
def test_pair_forms_match_a_fresh_reduction(label, params, monkeypatch):
    # the caller's form is the shared reduction moved by s_x - s_y: it must be
    # the reduction of the caller's own currents, primitive for primitive
    monkeypatch.setattr(checks, "_PAIR_CACHE", {})
    cd = from_label(label)
    kinds = ("E", "F", "H+", "H-")
    case = 0
    nonempty = same_var = 0
    for slot in (0, 1):
        for xk in kinds:
            for yk in kinds:
                for i in cd.nodes():
                    for j in cd.nodes():
                        for ax, ay in (_PAIR_ARGS[case % 5], _PAIR_ARGS[5 + case % 2]):
                            x, y = BosonCurrent(xk, i, ax, slot), BosonCurrent(yk, j, ay, slot)
                            got = checks.pair_exponent(x, y, cd, params)
                            want = product_exponent(kernel(cd, i, j, params, slot),
                                                    x.g(params), y.g(params), params)
                            assert got.primitives == want.primitives, (x, y)
                            nonempty += bool(got.primitives)
                            same_var += bool(got.primitives) and not got.primitives[0].vars
                        case += 1
    assert nonempty and same_var
    b_values = {cd.b_entry(i, j) for i in cd.nodes() for j in cd.nodes()}
    assert len(checks._PAIR_CACHE) == 2 * 16 * len(b_values)


def test_the_pair_cache_holds_only_reductions(monkeypatch):
    monkeypatch.setattr(checks, "_PAIR_CACHE", {})
    rep = report.run(report.RunConfig(algebra="D4", samples=2, seed=0))
    assert rep["pass"]
    assert len(checks._PAIR_CACHE) == 75
    assert all(not p.vars for form in checks._PAIR_CACHE.values() for p in form.primitives)


def test_the_pair_cache_is_the_same_size_for_every_algebra(monkeypatch):
    # a reduction sees its nodes only through B_ij in {1, -1/2, 0}: at most
    # 2 slots x 16 kind pairs x 3 entries, however many nodes the algebra has
    keys = {}
    for label in ("A2", "D4", "E7"):
        monkeypatch.setattr(checks, "_PAIR_CACHE", {})
        assert report.run(report.RunConfig(algebra=label, samples=2, seed=0))["pass"]
        keys[label] = set(checks._PAIR_CACHE)
        assert len(keys[label]) <= 96
    assert keys["D4"] == keys["E7"]
    assert len(set().union(*keys.values())) <= 96


def test_a_report_does_not_depend_on_the_algebras_run_before(monkeypatch):
    # the pair cache is shared across algebras: D4 after A2 and E6 in one
    # process must write the bytes of D4 on a cleared cache
    monkeypatch.setattr(checks, "_PAIR_CACHE", {})
    d4 = report.RunConfig(algebra="D4", samples=2, seed=0)
    for label in ("A2", "E6"):
        report.run(report.RunConfig(algebra=label, samples=2, seed=0))
    warm = report.report_json(report.run(d4))
    checks._PAIR_CACHE.clear()
    assert report.report_json(report.run(d4)) == warm


def _fresh_values(entries, cd, params, pt):
    """Each entry's value from freshly built words: phase times exp_value per slot."""
    out = []
    for c, cs in entries:
        val = 1.0 + 0.0j
        for slot in sorted({sl for sl, _ in cs}):
            word = [x for sl, x in cs if sl == slot]
            val *= word_phase(word, cd)
            val *= checks.word_exponent(word, cd, params).exp_value(pt, params)
        out.append(c * val)
    return out


def test_memoized_values_are_bit_identical(params, a2):
    # the A2 level-2 exchange images and the level-1 cubic words of E_1, E_1, E_2
    word_sets = []
    for rel in structfn.RELATIONS:
        kx, ky = structfn.exchange_kinds(rel)
        xs = hopf._level2_slot_words(kx, 1, "u", params)
        ys = hopf._level2_slot_words(ky, 2, "v", params)
        word_sets.append([(cx * cy, wx + wy) for cx, wx in xs for cy, wy in ys]
                         + [(cy * cx, wy + wx) for cy, wy in ys for cx, wx in xs])
    letters = [current("E", 1, "u1"), current("E", 1, "u2"), current("E", 2, "v")]
    word_sets.append([(1.0, [(0, c) for c in perm]) for perm in permutations(letters)])
    rng = np.random.default_rng(20)
    shared = 0
    for terms in word_sets:
        groups = checks.monomial_groups(terms)
        forms = checks.group_forms(groups, a2, params, {})
        for _ in range(20):
            pt = {n: complex(rng.uniform(-2, 2), rng.uniform(-0.15, 0.15))
                  for n in ("u", "v", "u1", "u2")}
            memo = {}
            for sig, entries in forms.items():
                got = checks.group_values(entries, params, pt, memo)
                assert got == _fresh_values(groups[sig], a2, params, pt)
            evaluated = sum(len(form.primitives) for entries in forms.values()
                            for _c, slot_forms in entries for _ph, form in slot_forms)
            shared += evaluated - len(memo)
    assert shared > 0


def test_a_slot_without_a_pair_is_not_evaluated(monkeypatch):
    # one-letter level-2 slot words have the exponent 0: exp_value is not called on them
    calls = []
    real = contraction.ClosedForm.exp_value

    def counted(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(contraction.ClosedForm, "exp_value", counted)
    assert report.run(report.RunConfig(algebra="D4", samples=50, seed=0))["pass"]
    # each free-field node class is evaluated once per run (liealg.node_class)
    assert len(calls) == 4140
    assert all(form.primitives for form in calls)


def test_unbuildable_serre_words_fail_the_record(params, a2, monkeypatch):
    def unsupported(*_args):
        raise contraction.UnsupportedPairError("no closed form")

    monkeypatch.setattr(checks, "word_exponent", unsupported)
    tries = []
    sample_max = checks.sample_max

    def counted(residual, windows, samples, rng, retries=200):
        def tried(pt):
            tries.append(pt)
            return residual(pt)

        return sample_max(tried, windows, samples, rng, retries=retries)

    monkeypatch.setattr(checks, "sample_max", counted)
    rec = checks.serre_check(1, 2, a2, params, samples=5)
    assert rec["samples"] == 0 and not rec["pass"]
    assert len(tries) == 5 + 300  # the level-1 check's own retry budget


@pytest.mark.parametrize("rel,xk,yk,i,j,sign", [
    ("EE", "E", "E", 1, 1, +1),
    ("EE", "E", "E", 1, 2, +1),
    ("FF", "F", "F", 1, 1, +1),
    ("FF", "F", "F", 2, 1, +1),
    ("HE", "H+", "E", 1, 1, +1),
    ("HE", "H-", "E", 1, 2, -1),
    ("HF", "H+", "F", 1, 2, +1),
    ("HF", "H-", "F", 1, 1, -1),
    ("HH_pm", "H+", "H-", 1, 1, +1),
    ("HH_pm", "H+", "H-", 1, 2, +1),
    ("HH_same", "H+", "H+", 1, 2, +1),
    ("HH_same", "H-", "H-", 1, 1, +1),
])
def test_exchange_relations(params, a2, rel, xk, yk, i, j, sign):
    x, y = current(xk, i, "u"), current(yk, j, "v")
    sr = structfn.ratio(rel, i, j, a2, c=1, sign=sign)
    rep = checks.exchange_check(x, y, sr, a2, params, samples=30, tol=1e-8)
    assert rep["pass"], rep


def test_a_nan_structure_function_fails_the_exchange_record(params, a2, monkeypatch):
    monkeypatch.setattr(structfn.StructureRatio, "eval", lambda self, w, p: complex("nan"))
    sr = structfn.ratio("EE", 1, 2, a2, c=1)
    rec = checks.exchange_check(current("E", 1, "u"), current("E", 2, "v"), sr, a2, params,
                                samples=5)
    assert (rec["samples"], rec["max_residual"], rec["pass"]) == (5, math.inf, False)


def test_disconnected_ef_pair_commutes(params):
    a3 = cartan("A", 3)
    t3 = tower(1.0, 1.0)
    x, y = current("E", 1, "u"), current("F", 3, "v")
    sr = structfn.StructureRatio("one", 1, 3, Fraction(1), (), ())
    rep = checks.exchange_check(x, y, sr, a3, t3, samples=20, tol=1e-10)
    assert rep["pass"]
    assert abs(word_phase((x, y), a3) / word_phase((y, x), a3) - 1.0) < 1e-14


def test_ef_delta_audit(params, a2):
    for i in (1, 2):
        rep = checks.ef_delta_check(i, a2, params, tol=1e-8)
        assert rep["pass"], rep
        assert sorted(rep["poles"]) == ["-1/2*h", "1/2*h"]


def test_ef_delta_pole_mismatch_fails_the_record(params, a2, monkeypatch):
    double = [(ParamLin.hbar(Fraction(1, 2)), 2, None)]
    monkeypatch.setattr(contraction.ClosedForm, "pole_catalog", lambda self, *args: double)
    rep = checks.ef_delta_check(1, a2, params)
    assert rep["pass"] is False and rep["max_residual"] == float("inf")
    assert rep["poles"] == ["1/2*h"] and "pole structure mismatch" in rep["error"]


def test_pole_catalog_raises_on_an_m_primitive(params, a2):
    # an E-F form is pure I0 (its sh factors cancel to sh(hbar)/sh(hbar/2));
    # a Gamma-pole ladder of an M primitive has no catalog and raises
    cform = checks.word_exponent((current("E", 1, "u"), current("F", 1, "v")), a2, params)
    assert cform.primitives and all(p.beta is None for p in cform.primitives)
    assert len(checks.strip_poles(cform, params)) == 2
    ladder = contraction.Primitive(1, cform.primitives[0].vars, ParamLin(), ParamLin.hbar(1))
    with pytest.raises(ValueError, match="M primitive"):
        checks.strip_poles(contraction.ClosedForm(cform.primitives + (ladder,)), params)


def _ef_delta_check_a2(params):
    return checks.ef_delta_check(1, cartan("A", 2), params)


def _ef_pole_audit_level2_a2(params):
    return hopf.ef_pole_audit_level2(cartan("A", 2), params, 1)


@pytest.mark.parametrize("audit", [_ef_delta_check_a2, _ef_pole_audit_level2_a2])
def test_a_nan_delta_coefficient_fails_the_audit(params, audit, monkeypatch):
    # NaN on the support below the real axis only: -i*hbar/2 at level 1, -i*hbar at level 2
    true_coefficient = checks.delta_coefficient
    monkeypatch.setattr(checks, "delta_coefficient", lambda cform, phase, w0, p: (
        complex("nan") if w0.imag < 0 else true_coefficient(cform, phase, w0, p)))
    rec = audit(params)
    assert (rec["max_residual"], rec["pass"]) == (math.inf, False)


def test_ef_delta_payload_without_accepted_points_fails(params, a2, monkeypatch):
    monkeypatch.setattr(checks, "sample_max", lambda *args, **kwargs: (0.0, 0))
    rec = checks.ef_delta_check(1, a2, params)
    assert (rec["max_residual"], rec["pass"]) == (math.inf, False)
    assert rec["payload_H+"] == rec["payload_H-"] == math.inf


def test_h_merge_identities(params, a2):
    # :E(u + ih/4) F(u - ih/4): carries exactly the H+ mode function
    for sgn, hk in ((+1, "H+"), (-1, "H-")):
        rep = checks.merged_exponent_matches(
            (current("E", 1, "u"), current("F", 1, "u", Fraction(-sgn, 2))),
            current(hk, 1, "u", Fraction(-sgn, 4)), params)
        assert rep["pass"], rep


def test_serre_combination_vanishes(params, a2):
    for i, j in ((1, 2), (2, 1)):
        rep = checks.serre_check(i, j, a2, params, samples=15, tol=1e-7)
        assert rep["pass"], rep


def test_cubic_engine_judges_every_monomial(params, a2):
    # E_2(v) in a second tensor slot is a monomial of its own, where the
    # three orderings add up to (2 - 2cos(pi*eta*hbar)) times one value and
    # so cannot cancel; the all-slot-0 monomial cancels.  The check must
    # fail with that monomial first or last.
    def term(slot, node, name):
        return (1.0, [(slot, current("E", node, name))])

    u1, u2 = [term(0, 1, "u1")], [term(0, 1, "u2")]
    for v in ([term(0, 2, "v"), term(1, 2, "v")], [term(1, 2, "v"), term(0, 2, "v")]):
        worst, done, monomials = checks.cubic_residual(
            u1, u2, v, a2, params, 0.15, 5, np.random.default_rng(1))
        assert (monomials, done) == (2, 5) and worst > 1e-3, (v, worst)
    worst, _, monomials = checks.cubic_residual(
        u1, u2, [term(0, 2, "v")], a2, params, 0.15, 5, np.random.default_rng(1))
    assert monomials == 1 and worst < 1e-7


def test_serre_needs_adjacency(params):
    a3 = cartan("A", 3)
    with pytest.raises(ValueError):
        checks.serre_check(1, 3, a3, tower(1.0, 1.0))


def test_exchange_invariant_a3():
    # module invariant: every delta-free pair also at rank 3
    a3 = cartan("A", 3)
    t3 = tower(1.0, 1.0)
    from curalg.report import _boson_pair_catalog
    rng = np.random.default_rng(77)
    for (xk, xi), (yk, yj), (rel, sign) in _boson_pair_catalog(a3):
        if rel == "one":
            sr = structfn.StructureRatio("one", xi, yj, Fraction(1), (), ())
        else:
            sr = structfn.ratio(rel, xi, yj, a3, c=1, sign=sign)
        rec = checks.exchange_check(current(xk, xi, "u"), current(yk, yj, "v"),
                                    sr, a3, t3, samples=8, tol=1e-8, rng=rng)
        assert rec["pass"], rec


def test_uncatalogued_pair_raises_unsupported():
    """A contrived two-Bose integrand with no matching sh numerator has no
    closed form; the quadrature oracle still integrates it."""
    from curalg.boson.contraction import UnsupportedPairError
    from curalg.boson.kernel import Kernel

    params = tower(1.0, 1.0)
    ker = Kernel(coeff=1.0, num_sh=(), den_sh=())
    g1 = ExponentFn(weight=1.0, vars=(("u", 1),), bose=(ParamLin.inv_eta(0, params),))
    g2 = ExponentFn(weight=1.0, vars=(("v", 1),),
                    bose=(ParamLin.inv_eta(0, params, Fraction(5, 7)),))
    with pytest.raises(UnsupportedPairError):
        product_exponent(ker, g1, g2, params)
    pt = {"u": 0.2 + 2.8j, "v": 0.0}
    assert cmath.isfinite(quadrature_exponent(ker, g1, g2, pt, params))


def test_exchange_d_series_fork_node():
    # adjacency through the D4 fork behaves like any simply-laced edge
    d4 = cartan("D", 4)
    t = tower(1.0, 1.0)
    rng = np.random.default_rng(13)
    for i, j in ((2, 4), (1, 2), (1, 3)):
        sr = structfn.ratio("EE", i, j, d4, c=1)
        rec = checks.exchange_check(current("E", i, "u"), current("E", j, "v"),
                                    sr, d4, t, samples=10, tol=1e-8, rng=rng)
        assert rec["pass"], rec
    rec = checks.serre_check(2, 4, d4, t, samples=8, tol=1e-7, rng=rng)
    assert rec["pass"], rec


def test_exchange_e6_smoke():
    # the exceptional series enters only through its Cartan matrix
    e6 = cartan("E", 6)
    t = tower(1.0)
    rng = np.random.default_rng(19)
    for i, j in ((2, 4), (1, 3), (1, 2)):  # edge, edge, non-edge
        sr = structfn.ratio("EE", i, j, e6, c=1)
        rec = checks.exchange_check(current("E", i, "u"), current("E", j, "v"),
                                    sr, e6, t, samples=6, tol=1e-8, rng=rng)
        assert rec["pass"], rec
