import cmath
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curalg import evalrep, hopf, intertwine, report, trigcalc
from curalg.evalplan import (
    DeltaPresentError,
    Plan,
    PoleProximityError,
    relative_residual,
    worst_of,
)
from curalg.params import ParamTower
from curalg.trigcalc import (
    DeltaAtom,
    DistExpr,
    ReductionError,
    ShiftExpr,
    Term,
    TrigFactor,
    _canonical_shape,
    equal_numeric,
    judged,
    sample_max,
    var,
)


@pytest.fixture(scope="module")
def params():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ParamTower(0.1, 1.0, (0.0,))


# ---------------------------------------------------------------------------
# ShiftExpr
# ---------------------------------------------------------------------------


shift_strategy = st.builds(
    lambda cu, cv, qn, qd, l0: (
        ShiftExpr(q=Fraction(qn, qd))
        + ShiftExpr.of_var("u", cu) + ShiftExpr.of_var("v", cv)
        + ShiftExpr.lattice_units(0, l0)
    ),
    st.integers(-3, 3), st.integers(-3, 3),
    st.integers(-6, 6), st.integers(1, 4),
    st.integers(-2, 2),
)


@given(shift_strategy, shift_strategy, shift_strategy)
@settings(max_examples=60, deadline=None)
def test_shift_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(shift_strategy)
@settings(max_examples=60, deadline=None)
def test_shift_negation(a):
    assert (a + (-a)).is_zero()


def test_shift_eval(params):
    e = var("u") - var("v") + ShiftExpr.hbar_units(Fraction(3, 2)) \
        + ShiftExpr.lattice_units(0, -1)
    val = e.eval({"u": 1.0, "v": 0.25}, params)
    assert abs(val - (0.75 + 1j * (0.15 - 1.0))) < 1e-15


def test_solve_for():
    e = var("u") - var("z") - ShiftExpr.hbar_units(Fraction(1, 2))
    sol = e.solve_for("u")
    assert sol == var("z") + ShiftExpr.hbar_units(Fraction(1, 2))


# ---------------------------------------------------------------------------
# Factors and evaluation
# ---------------------------------------------------------------------------


def test_identical_factors_cancel(params):
    f = TrigFactor(0, var("u") - var("v"), 1)
    g = TrigFactor(0, var("u") - var("v"), -1)
    expr = DistExpr((Term(1.0, (f, g)),))
    # cancelled exactly at canonicalization
    assert expr.terms[0].factors == ()
    assert expr.eval({"u": 0.31, "v": -1.2}, params) == 1.0


def test_reciprocal_factor_value(params):
    # direct complex sh evaluation as the independent oracle
    f = TrigFactor(0, var("u") - var("v") - ShiftExpr.hbar_units(1), -1)
    got = f.eval({"u": 0.5, "v": 0.0}, params)
    want = 1.0 / cmath.sinh(math.pi * (0.5 - 0.1j))
    assert abs(got - want) < 1e-14


def test_half_period_flip(params):
    f = TrigFactor(0, var("u"), 1)
    g = TrigFactor(0, var("u") - ShiftExpr.lattice_units(0, 1), 1)
    for u in (0.3, 1.1 - 0.2j, -0.7 + 0.1j):
        assert abs(f.eval({"u": u}, params) + g.eval({"u": u}, params)) < 1e-12
    # canonical form makes the flip structural
    sign, canon = g.canonical()
    assert sign == -1 and canon.arg == var("u")


def test_flip_equal_numeric(params):
    a = DistExpr.from_factors(1.0, (TrigFactor(0, var("u") - ShiftExpr.lattice_units(0, 1), 1),))
    b = DistExpr.from_factors(-1.0, (TrigFactor(0, var("u"), 1),))
    rep = equal_numeric(a, b, params, samples=25, tol=1e-12)
    assert rep["pass"]


def test_pole_proximity_guard(params):
    f = TrigFactor(0, var("u"), -1)
    with pytest.raises(PoleProximityError):
        f.eval({"u": 1e-9}, params)


def test_eval_rejects_deltas(params):
    expr = DistExpr.from_factors(1.0, (), (DeltaAtom(var("u")),))
    with pytest.raises(DeltaPresentError):
        expr.eval({"u": 0.4}, params)


def test_product_eval_property(params):
    rng = np.random.default_rng(2)
    a = DistExpr.from_factors(1.7, (TrigFactor(0, var("u") - var("v"), 1),))
    b = DistExpr.from_factors(0.3, (TrigFactor(0, var("v"), -1),))
    prod = a * b
    for _ in range(20):
        pt = {"u": complex(rng.uniform(-2, 2), 0.2), "v": complex(rng.uniform(-2, 2), 0.1)}
        assert abs(prod.eval(pt, params)
                   - a.eval(pt, params) * b.eval(pt, params)) < 1e-12


# ---------------------------------------------------------------------------
# Evaluation plan: DistExpr.eval against the per-factor reference
# ---------------------------------------------------------------------------


def _reference_eval(expr, pt, params):
    """Term by term, the product of ``TrigFactor.eval`` over the factors."""
    shape = None
    for t in expr.terms:
        if t.mat is not None:
            shape = t.mat.shape
    acc_mat = np.zeros(shape, dtype=complex) if shape else None
    acc_sc = 0.0 + 0.0j
    for t in expr.terms:
        val = t.scalar
        for f in t.factors:
            val *= f.eval(pt, params)
        if t.mat is not None:
            acc_mat += val * t.mat
        elif acc_mat is not None:
            acc_mat += val * np.eye(shape[0], dtype=complex)
        else:
            acc_sc += val
    return acc_mat if acc_mat is not None else acc_sc


def _bits(value) -> bytes:
    return np.asarray(value, dtype=complex).tobytes()


def _assert_plan_matches_reference(expr, pt, params):
    try:
        want = _reference_eval(expr, pt, params)
    except PoleProximityError:
        with pytest.raises(PoleProximityError):
            expr.eval(pt, params)
        return
    for _ in range(2):   # the first call builds the plan, the second reuses it
        got = expr.eval(pt, params)
        assert isinstance(got, np.ndarray) == isinstance(want, np.ndarray)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want
        assert _bits(got) == _bits(want)


def _tower(levels=(0.5,)):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ParamTower(0.1, 1.0, levels)


factor_strategy = st.builds(TrigFactor, st.integers(0, 1), shift_strategy,
                            st.sampled_from((1, -1)))
term_strategy = st.builds(
    lambda re, im, fs, mat: Term(complex(re, im), tuple(fs), (),
                                 None if mat is None else np.array(mat, dtype=complex)),
    st.floats(-3, 3), st.floats(-3, 3),
    st.lists(factor_strategy, max_size=3),
    st.none() | st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                         min_size=2, max_size=2),
)
point_strategy = st.builds(
    lambda ur, ui, vr, vi: {"u": complex(ur, ui), "v": complex(vr, vi)},
    st.floats(-2, 2), st.floats(-0.3, 0.3), st.floats(-2, 2), st.floats(-0.3, 0.3),
)


@given(st.lists(term_strategy, min_size=1, max_size=3), point_strategy)
@settings(max_examples=150, deadline=None)
def test_eval_plan_bitwise_equals_reference(terms, pt):
    _assert_plan_matches_reference(DistExpr(terms), pt, _tower())


flat_shift = st.builds(
    lambda cu, cv, qn, qd, l0, l1: (
        ShiftExpr.of_var("u", cu) + ShiftExpr.of_var("v", cv) + ShiftExpr.hbar_units(
            Fraction(qn, qd)) + ShiftExpr.lattice_units(0, l0) + ShiftExpr.lattice_units(1, l1)
    ),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-6, 6), st.integers(1, 4),
    st.integers(-2, 2), st.integers(-2, 2),
).filter(lambda s: s.vars)
odd_factor = st.tuples(st.integers(0, 1), flat_shift, st.sampled_from((1, -1)))


@given(st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0),
       st.lists(odd_factor, min_size=1, max_size=4), st.lists(odd_factor, max_size=2),
       st.sampled_from(("none", "scalar", "exponent")), st.data(), point_strategy)
@settings(max_examples=200, deadline=None)
def test_equal_odd_normal_forms_evaluate_equal(scalar, factors, pairs, broken, data, pt):
    # b rewrites a: each factor negated (sh(-x) = -sh(x)) or moved by
    # own-period lattice units (sh(x + i*pi) = -sh(x)) with its sign in the
    # scalar, cancelling pairs sh(y)^e sh(+-y)^-e added, the factors
    # permuted; ``broken`` leaves the scalar sign or one exponent wrong
    a = DistExpr.from_factors(scalar, [TrigFactor(p, arg, e) for p, arg, e in factors])
    sb, fb = scalar, []
    for p, arg, e in factors:
        if data.draw(st.booleans()):
            arg, sb = -arg, -sb
        k = data.draw(st.integers(-2, 2))
        fb.append(TrigFactor(p, arg + ShiftExpr.lattice_units(p, k), e))
        sb *= (-1) ** k
    for p, arg, e in pairs:
        flip = data.draw(st.booleans())
        fb += [TrigFactor(p, arg, e), TrigFactor(p, -arg if flip else arg, -e)]
        sb *= -1 if flip else 1
    fb = [fb[i] for i in data.draw(st.permutations(range(len(fb))))]
    if broken == "scalar":
        sb = -sb
    elif broken == "exponent":
        fb[0] = TrigFactor(fb[0].period, fb[0].arg, -fb[0].exponent)
    b = DistExpr.from_factors(sb, fb)
    form = a.odd_normal_form()
    assert form is not None and (form == b.odd_normal_form()) == (broken == "none")
    if broken == "none":
        params = _tower()
        try:
            va, vb = a.eval(pt, params), b.eval(pt, params)
        except PoleProximityError:
            return
        assert abs(va - vb) <= 1e-12 * max(abs(va), abs(vb))


def test_odd_normal_form_is_none_off_its_domain():
    f = TrigFactor(0, var("u") - ShiftExpr.hbar_units(1), -1)
    mat = np.eye(2, dtype=complex)
    assert DistExpr.from_factors(2.0, (f,)).odd_normal_form() is not None
    for expr in (DistExpr.zero(), DistExpr.from_factors(1.0, (f,)) + DistExpr.scalar(1.0),
                 DistExpr.from_factors(1.0, (f,), mat=mat),
                 DistExpr.from_factors(1.0, (f,), (DeltaAtom(var("u") - var("v")),))):
        assert expr.odd_normal_form() is None


def test_eval_plan_scalar_matrix_and_mixed():
    params = _tower()
    f = TrigFactor(1, var("u") - ShiftExpr.hbar_units(Fraction(1, 2)), -1)
    g = TrigFactor(0, var("v") + ShiftExpr.lattice_units(1, 1), 1)
    mat = np.array([[1, 2j], [0, -1]], dtype=complex)
    scalar = DistExpr((Term(0.5 - 1j, (f, g)), Term(2.0, (g,))))
    matrix = DistExpr.from_factors(1.5, (f,), mat=mat)
    mixed = scalar + matrix
    assert {t.mat is None for t in mixed.terms} == {True, False}
    pt = {"u": 0.4 + 0.1j, "v": -1.3 + 0.05j}
    for expr in (scalar, matrix, mixed):
        _assert_plan_matches_reference(expr, pt, params)
    assert isinstance(mixed.eval(pt, params), np.ndarray)


def test_an_entry_of_both_parts_takes_numpys_product():
    # merging a number term into a matrix term over the same factors gives
    # diagonal entries of both parts, whose numpy product may be fused (FMA)
    params = _tower()
    f = TrigFactor(0, var("u") + var("v") + ShiftExpr.hbar_units(1), -1)
    e11 = np.diag([0.0, 1.0]).astype(complex)
    merged = DistExpr((Term(1 + 0.5j, (f,)), Term(1j, (f,), (), e11)))
    assert len(merged.terms) == 1
    assert all(z.real and z.imag for z in np.diag(merged.terms[0].mat))
    other = DistExpr.from_factors(1.0, (f,), mat=e11)
    for pt in [{"u": 0j, "v": 0j}] + _pair_points():
        _assert_plan_matches_reference(merged, pt, params)
        _assert_pair_matches_reference(merged, other, pt, params)


def test_eval_plan_pole_and_unassigned_variable():
    params = _tower()
    expr = DistExpr.from_factors(1.0, (TrigFactor(0, var("u"), 1), TrigFactor(0, var("v"), -1)))
    with pytest.raises(PoleProximityError):
        expr.eval({"u": 0.3, "v": 1e-9}, params)
    with pytest.raises(KeyError, match="unassigned variable 'v'"):
        expr.eval({"u": 0.3}, params)
    # a failed evaluation leaves the plan usable
    _assert_plan_matches_reference(expr, {"u": 0.3, "v": 0.7}, params)


def test_eval_plan_is_keyed_on_the_tower():
    expr = DistExpr.from_factors(1.0, (TrigFactor(1, var("u") + ShiftExpr.hbar_units(1), 1),))
    pt = {"u": 0.25 + 0.1j}
    low, high = _tower(levels=(0.5,)), _tower(levels=(2.0,))
    a, b = expr.eval(pt, low), expr.eval(pt, high)
    assert a != b
    assert a == _reference_eval(expr, pt, low)
    assert b == _reference_eval(expr, pt, high)
    assert expr.eval(pt, low) == a
    # an equal tower built separately reuses the plan and gives the same value
    assert expr.eval(pt, _tower(levels=(2.0,))) == b


# ---------------------------------------------------------------------------
# Pair plans: equal_numeric's residual against the per-factor reference
# ---------------------------------------------------------------------------


def _reference_residual(a, b):
    """The relative residual by three reductions: |a|, |b| and |a - b|,
    each a dense ``np.abs(...).max()``; a number's modulus is Python's
    ``abs`` and the number stands for that multiple of the identity."""
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return worst_of(abs(a - b) / max(1.0, abs(a), abs(b)))

    def modulus(v):
        return float(np.abs(v).max()) if isinstance(v, np.ndarray) else abs(v)

    scale = max(1.0, modulus(a), modulus(b))
    if not isinstance(a, np.ndarray):
        a = a * np.eye(b.shape[0], dtype=complex)
    if not isinstance(b, np.ndarray):
        b = b * np.eye(a.shape[0], dtype=complex)
    return worst_of(modulus(a - b) / scale)


class _ReferencePlan:
    """``evalplan.Plan`` of a pair by the reference: each side by
    ``_reference_eval``, the residual by ``_reference_residual``."""

    def __init__(self, exprs, params):
        self.exprs, self.params = exprs, params

    def residual(self, pt):
        return _reference_residual(*(_reference_eval(e, pt, self.params) for e in self.exprs))


def _reference_equal_numeric(*args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trigcalc, "Plan", _ReferencePlan)
        return equal_numeric(*args, **kwargs)


def _assert_pair_matches_reference(a, b, pt, params):
    try:
        want = _ReferencePlan((a, b), params).residual(pt)
    except PoleProximityError:
        with pytest.raises(PoleProximityError):
            Plan((a, b), params).residual(pt)
        return
    got = Plan((a, b), params).residual(pt)
    assert _bits(got) == _bits(want)


def _pair_points(n=20):
    rng = np.random.default_rng(3)
    return [{"u": complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3)),
             "v": complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3))} for _ in range(n)]


def test_a_matrix_pair_sharing_factors_matches_the_reference():
    params = _tower()
    f = TrigFactor(0, var("u") - var("v") + ShiftExpr.hbar_units(1), 1)
    g = TrigFactor(1, var("u") - ShiftExpr.hbar_units(Fraction(1, 2)), -1)
    f_inv = TrigFactor(f.period, f.arg, -1)
    e01, e11 = np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex)
    e01[0, 1], e11[1, 1] = 1.0, -0.5j
    # f is sh on one side and 1/sh on the other; g is shared as 1/sh
    a = DistExpr((Term(2.0, (f, g), (), e01), Term(1.5j, (g,), (), e11), Term(0.25, (f,))))
    b = DistExpr((Term(-1.0, (f_inv,), (), e01), Term(0.5, (g,), (), e11 + e01)))
    plan = Plan((a, b), params)
    assert len(plan.factors) == 2     # f and g, each valued once per point
    for pt in _pair_points():
        _assert_pair_matches_reference(a, b, pt, params)
        _assert_pair_matches_reference(a, a.scaled(1.0 + 1e-12), pt, params)
    # the sampled record is the reference's, draw for draw
    rec = equal_numeric(a, b, params, samples=30, rng=5)
    assert _reference_equal_numeric(a, b, params, samples=30, rng=5) == rec


def test_a_number_against_a_matrix_keeps_pythons_abs_in_the_scale():
    params = _tower()
    f = TrigFactor(0, var("u") + ShiftExpr.hbar_units(2), 1)
    number = DistExpr.from_factors(3.0 - 1.0j, (f,))
    matrix = DistExpr.from_factors(0.5, (TrigFactor(0, var("v"), 1),), mat=np.diag([1.0, -2.0]))
    values = []
    for pt in _pair_points():
        _assert_pair_matches_reference(number, matrix, pt, params)
        _assert_pair_matches_reference(matrix, number, pt, params)
        _assert_pair_matches_reference(matrix, DistExpr.zero(), pt, params)
        values.append(number.eval(pt, params))
    # the points reach numbers whose Python abs and numpy abs differ
    assert any(abs(v) != float(np.abs(v)) and abs(v) > 1.0 for v in values)


def test_a_pair_rejects_a_point_only_where_a_reciprocal_use_is_near_its_pole():
    params = _tower()
    m = np.diag([1.0, 2.0]).astype(complex)
    sh_u = DistExpr.from_factors(1.0, (TrigFactor(0, var("u"), 1),), mat=m)
    inv_u = DistExpr.from_factors(1.0, (TrigFactor(0, var("u"), -1),
                                        TrigFactor(0, var("v"), 1)), mat=m)
    sh_v = DistExpr.from_factors(1.0, (TrigFactor(0, var("v"), 1),), mat=m)
    near = {"u": 1e-9 + 0j, "v": 0.3 + 0j}
    # sh(pi*u) used as sh only is a value at u = 1e-9 ...
    _assert_pair_matches_reference(sh_u, sh_v, near, params)
    assert Plan((sh_u, sh_v), params).residual(near) > 0.0
    # ... and its 1/sh use on the other side rejects the point, as the reference does
    with pytest.raises(PoleProximityError):
        _reference_eval(inv_u, near, params)
    with pytest.raises(PoleProximityError):
        Plan((sh_u, inv_u), params).residual(near)
    _assert_pair_matches_reference(sh_u, inv_u, {"u": 0.2 + 0j, "v": 0.3 + 0j}, params)


pool_strategy = st.lists(factor_strategy, min_size=1, max_size=3)


@given(pool_strategy, st.data(), point_strategy)
@settings(max_examples=150, deadline=None)
def test_a_pair_plan_bitwise_equals_reference(pool, data, pt):
    # two sides whose terms draw their factors, with either exponent, from one pool
    def side():
        factor = st.builds(lambda i, e: TrigFactor(pool[i].period, pool[i].arg, e),
                           st.integers(0, len(pool) - 1), st.sampled_from((1, -1)))
        term = st.builds(lambda t, fs: Term(t.scalar, tuple(fs), (), t.mat),
                         term_strategy, st.lists(factor, max_size=3))
        return DistExpr(data.draw(st.lists(term, max_size=3)))

    _assert_pair_matches_reference(side(), side(), pt, _tower())


def test_the_a2_report_is_the_references(monkeypatch):
    cfg = report.RunConfig(algebra="A2", samples=50, seed=0)
    want = report.report_json(report.run(cfg))
    for module in (evalrep, hopf):
        monkeypatch.setattr(module, "equal_numeric", _reference_equal_numeric)
    assert report.report_json(report.run(cfg)) == want


def test_every_compiled_matrix_entry_is_real_or_imaginary(monkeypatch):
    # the plan's Python product with an entry is numpy's only for such entries
    entries = []

    class Recording(Plan):
        __slots__ = ()

        def __init__(self, exprs, params):
            super().__init__(exprs, params)
            entries.extend(z for _, terms in self.exprs for t in terms for _, z in t[2])

    monkeypatch.setattr(trigcalc, "Plan", Recording)
    report.run(report.RunConfig(algebra="A2", samples=5, seed=0))
    assert entries and not any(z.real and z.imag for z in entries)


def test_the_module_run_values_each_factor_once_per_point(monkeypatch):
    # one sh value per distinct factor of a compared pair per point: the
    # per-term evaluation made 55,699 calls on this run
    calls = [0]
    real = cmath.sinh

    def counted(x):
        calls[0] += 1
        return real(x)

    monkeypatch.setattr(cmath, "sinh", counted)
    cfg = report.RunConfig(algebra="A4", samples=50, seed=0,
                           suites=("trigcalc", "structfn", "evalrep", "hopf", "intertwine"),
                           hopf_parts=("axioms",))
    assert report.run(cfg)["pass"]
    assert calls[0] <= 25_099


def test_reciprocal_flips_every_factor(params):
    f = TrigFactor(0, var("u") - ShiftExpr.hbar_units(1), 1)
    g = TrigFactor(0, var("u") + ShiftExpr.hbar_units(1), -1)
    expr = DistExpr.from_factors(0.5 + 0.25j, (f, g))
    inv = expr.reciprocal()
    assert inv.terms[0].scalar == 1.0 / expr.terms[0].scalar
    assert (sorted((str(h.arg), h.exponent) for h in inv.terms[0].factors)
            == sorted((str(h.arg), -h.exponent) for h in expr.terms[0].factors))
    pt = {"u": 0.3 + 0.05j}
    assert abs(expr.eval(pt, params) * inv.eval(pt, params) - 1.0) < 1e-12
    # diagonal matrix units invert entrywise
    diag = DistExpr((Term(2.0, (f,), (), np.diag([1, 0]).astype(complex)),
                     Term(-4.0, (g,), (), np.diag([0, 1]).astype(complex))))
    prod = diag * diag.reciprocal()
    assert np.allclose(prod.eval(pt, params), np.eye(2))


# ---------------------------------------------------------------------------
# Plemelj reduction
# ---------------------------------------------------------------------------


def _pole(period=0):
    return DistExpr.from_factors(1.0, (TrigFactor(period, var("w"), -1),))


def test_plemelj_principal(params):
    red = _pole().plemelj_reduce("w", params)
    assert len(red.terms) == 1
    t = red.terms[0]
    assert t.deltas and t.deltas[0].arg == var("w")
    assert abs(t.scalar - 2j / params.eta) < 1e-14


def test_plemelj_against_smeared_oracle(params):
    """Sokhotski-Plemelj: integrate both sides against a Gaussian.

    The boundary-value difference just inside each strip edge is
    integrated numerically; the even-order error in the displacement is
    removed by Richardson extrapolation and must reproduce the delta
    pairing (2i/eta) * phi(0).
    """
    eta = params.eta

    def smear(eps):
        xs = np.linspace(-8.0, 8.0, 320001)
        phi = np.exp(-xs ** 2)
        vals = 1.0 / np.sinh(math.pi * eta * (xs - 1j * eps)) \
            - 1.0 / np.sinh(math.pi * eta * (xs + 1j * eps))
        return np.trapezoid(vals * phi, xs)

    level = [smear(0.05 / 2 ** k) for k in range(4)]
    for m in range(1, 4):  # remove the eps, eps^2, eps^3 error terms in turn
        level = [(2 ** m * level[k + 1] - level[k]) / (2 ** m - 1)
                 for k in range(len(level) - 1)]
    want = (2j / eta) * 1.0  # phi(0) = 1
    assert abs(level[0] - want) < 1e-6

    red = _pole().plemelj_reduce("w", params)
    assert abs(red.terms[0].scalar - want) < 1e-14


def test_plemelj_without_a_pole_factor_raises(params):
    # sh(w) and 1/sh(u) do not jump across a pole line in w
    expr = DistExpr.from_factors(1.0, (TrigFactor(0, var("w"), 1), TrigFactor(0, var("u"), -1)))
    with pytest.raises(ReductionError, match="nothing jumps"):
        expr.plemelj_reduce("w", params)


def test_plemelj_two_pole_factors_in_one_term_raise(params):
    expr = DistExpr.from_factors(1.0, (TrigFactor(0, var("w"), -1),
                                       TrigFactor(0, var("w") - var("v"), -1)))
    with pytest.raises(ReductionError, match="two 1/sh factors"):
        expr.plemelj_reduce("w", params)


def test_plemelj_keeps_the_matrix_and_the_earlier_deltas(params):
    mat = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
    earlier = DeltaAtom(var("u") - var("v"))
    cof = TrigFactor(0, var("w") - var("v") - ShiftExpr.hbar_units(1), 1)
    expr = DistExpr((
        Term(0.5, (TrigFactor(0, var("w") - var("u"), -1), cof), (earlier,), mat),
        Term(3.0, (cof,), (), mat),   # no pole in w: drops out
    ))
    red = expr.plemelj_reduce("w", params)
    assert len(red.terms) == 1
    t = red.terms[0]
    assert np.array_equal(t.mat, mat)
    assert abs(t.scalar - 0.5 * 2j / params.eta) < 1e-14
    # both deltas kept; the cofactor is frozen on the support w = u = v
    assert len(t.deltas) == 2
    assert set().union(*(d.arg.free_vars() for d in t.deltas)) == {"u", "v", "w"}
    assert [f.arg for f in t.factors] == [-ShiftExpr.hbar_units(1)]


# ---------------------------------------------------------------------------
# Residues
# ---------------------------------------------------------------------------


def test_residue_simple_zero(params):
    expr = DistExpr.from_factors(1.0, (TrigFactor(0, var("u") - var("z"), -1),))
    res = expr.residue("u", var("z"), params)
    assert len(res.terms) == 1
    assert abs(res.terms[0].scalar - 1.0 / (math.pi * params.eta)) < 1e-15


def test_residue_vs_contour_integral(params):
    # f(u)/sh(pi eta (u - z)) with factorized regular f
    expr = DistExpr.from_factors(2.0, (
        TrigFactor(0, var("u") - var("z"), -1),
        TrigFactor(0, var("u") + var("z") - ShiftExpr.hbar_units(1), 1),
    ))
    z0 = 0.4 + 0.03j
    sym = expr.residue("u", var("z"), params).eval({"z": z0}, params)
    npts, rad = 512, 0.02
    acc = 0.0 + 0.0j
    for k in range(npts):
        th = 2 * math.pi * k / npts
        u = z0 + rad * cmath.exp(1j * th)
        acc += expr.eval({"u": u, "z": z0}, params) * rad * cmath.exp(1j * th)
    acc /= npts
    assert abs(acc - sym) < 1e-8


def test_residue_not_a_pole(params):
    expr = DistExpr.from_factors(1.0, (TrigFactor(0, var("u") - var("z"), 1),))
    with pytest.raises(ReductionError):
        expr.residue("u", var("z"), params)


def test_residue_higher_order_rejected(params):
    expr = DistExpr.from_factors(1.0, (
        TrigFactor(0, var("u") - var("z"), -1),
        TrigFactor(1, var("u") - var("z"), -1),
    ))
    with pytest.raises(ReductionError):
        expr.residue("u", var("z"), params)


# ---------------------------------------------------------------------------
# Delta normal form, serialization
# ---------------------------------------------------------------------------


def test_delta_resolution_normal_form():
    d1 = DeltaAtom(var("u") - var("v"))
    d2 = DeltaAtom(var("v") - var("z"))
    expr = DistExpr((Term(1.0, (TrigFactor(0, var("u"), 1),), (d1, d2)),))
    t = expr.terms[0]
    args = sorted(str(d.arg) for d in t.deltas)
    assert args == ["u + -1*z", "v + -1*z"]
    # the cofactor is frozen on the support
    assert t.factors[0].arg == var("z")


def test_chained_deltas_pin_each_variable_once():
    """Each pinned variable survives only in its own delta, and a factor's
    own-period lattice units after substitution leave the sign (-1)^k."""
    h, lat = ShiftExpr.hbar_units, ShiftExpr.lattice_units
    deltas = (DeltaAtom(var("w") - var("z") + h(Fraction(1, 2))),
              DeltaAtom(var("u") - var("v") + lat(0, 1)),
              DeltaAtom(var("v") - var("w") - h(Fraction(1, 4)) + lat(0, 2)))
    factors = (TrigFactor(0, var("u")),                      # u = z - h/4 - 3 lattice units
               TrigFactor(0, var("v") + var("w"), -1),       # 2z - 3h/4 - 2 lattice units
               TrigFactor(1, var("w") + lat(0, 1)))          # not its own period: stays
    t = DistExpr((Term(2.0, factors, deltas),)).terms[0]
    pinned = [sorted(d.arg.free_vars() - {"z"}) for d in t.deltas]
    assert pinned == [["u"], ["v"], ["w"]]
    assert all(f.arg.free_vars() == {"z"} for f in t.factors)
    assert all(f.arg.lattice_coeff(f.period) == 0 for f in t.factors)
    assert [str(d.arg) for d in t.deltas] == ["u + -1*z + 1/4*ih + 3*i/eta0",
                                              "v + -1*z + 1/4*ih + 2*i/eta0",
                                              "w + -1*z + 1/2*ih"]
    assert sorted(str(f.arg) for f in t.factors) == ["2*z + -3/4*ih", "z + -1/2*ih + 1*i/eta0",
                                                     "z + -1/4*ih"]
    assert t.scalar == -2.0


def _same_terms(a, b) -> bool:
    return len(a) == len(b) and all(
        x.scalar == y.scalar and x.factors == y.factors and x.deltas == y.deltas
        and (x.mat is None and y.mat is None
             or x.mat is not None and y.mat is not None and np.array_equal(x.mat, y.mat))
        for x, y in zip(a, b))


def test_every_evalrep_expression_rebuilds_cold_to_the_same_terms(params, monkeypatch):
    built = []
    real_init = DistExpr.__init__

    def recording(self, terms=(), *, _canonical=False):
        terms = tuple(terms)
        real_init(self, terms, _canonical=_canonical)
        if not _canonical:
            built.append((terms, self.terms))

    monkeypatch.setattr(DistExpr, "__init__", recording)
    evalrep.verify_all(evalrep.build(2, params), samples=3)
    monkeypatch.undo()
    assert len(built) > 100 and _canonical_shape.cache_info().hits > 0
    for terms, warm in built:
        _canonical_shape.cache_clear()
        assert _same_terms(DistExpr(terms).terms, warm)


def test_one_shape_signs_each_scalar(cold_memos):
    # own-period lattice units: sh(x + 3i/eta_0) = -sh(x), whatever the scalar
    fs = (TrigFactor(0, var("u") + ShiftExpr.lattice_units(0, 3), -1),
          TrigFactor(1, var("v") + ShiftExpr.lattice_units(1, 2)))
    cold = DistExpr((Term(2.0, fs),)).terms
    warm = DistExpr((Term(0.5 - 3j, fs),)).terms
    assert _canonical_shape.cache_info()[:2] == (1, 1)
    want = (TrigFactor(0, var("u"), -1), TrigFactor(1, var("v")))
    assert [(t.scalar, t.factors) for t in cold + warm] == [(-2.0, want), (-0.5 + 3j, want)]


def test_a_delta_of_a_nonzero_constant_vanishes_cold_and_warm(cold_memos):
    # the second delta becomes i*hbar/2 on the first one's support
    deltas = (DeltaAtom(var("u") - var("v")),
              DeltaAtom(var("u") - var("v") + ShiftExpr.hbar_units(Fraction(1, 2))))
    for _ in range(2):
        assert DistExpr((Term(1.0, (TrigFactor(0, var("u")),), deltas),)).terms == ()
    assert _canonical_shape.cache_info()[:2] == (1, 1)
    # a delta that turns zero is delta(0): no value, so the build raises
    with pytest.raises(ReductionError):
        DistExpr((Term(1.0, (), deltas[:1] * 2),))


def test_a_delta_with_no_unit_coefficient_raises():
    # delta(2u - 2v) has no variable to pin
    arg = ShiftExpr.of_var("u", 2) - ShiftExpr.of_var("v", 2)
    with pytest.raises(ReductionError):
        DistExpr.from_factors(1.0, (TrigFactor(0, var("u"), 1),), (DeltaAtom(arg),))


def _pinned_at_v():
    return DistExpr.from_factors(1.0, (TrigFactor(0, var("u")),),
                                 (DeltaAtom(var("u") - var("v")),))


def test_a_substitution_that_makes_a_delta_a_nonzero_constant_drops_its_term():
    expr = _pinned_at_v() + DistExpr.scalar(2.0)
    got = expr.subs("v", var("u") + ShiftExpr.hbar_units(Fraction(1, 2)))
    assert [(t.scalar, t.factors, t.deltas) for t in got.terms] == [(2.0, (), ())]


def test_a_substitution_that_makes_a_delta_zero_raises():
    with pytest.raises(ReductionError):
        _pinned_at_v().subs("v", var("u"))


def test_the_module_run_canonicalizes_each_shape_once(cold_memos):
    cfg = report.RunConfig(algebra="A4", samples=50, seed=0,
                           suites=("trigcalc", "structfn", "evalrep", "hopf", "intertwine"),
                           hopf_parts=("axioms",))
    assert report.run(cfg)["pass"]
    info = _canonical_shape.cache_info()
    assert (info.hits + info.misses, info.currsize) == (2856, 606)


def test_a_warm_cache_gives_the_cold_report(cold_memos):
    cfg = report.RunConfig(algebra="A2", samples=50, seed=0)
    cold = report.report_json(report.run(cfg))
    assert _canonical_shape.cache_info().currsize > 0
    assert report.report_json(report.run(cfg)) == cold


def test_relative_residual_of_numbers_and_matrices():
    m = np.array([[2.0, 0.5j], [0.0, -3.0]], dtype=complex)
    assert relative_residual(4.0, 2.0) == 0.5
    assert relative_residual(0.25, 0.0) == 0.25          # scale at least 1
    assert relative_residual(m, m) == 0.0
    assert relative_residual(m, m - np.diag([0.0, 1.5])) == 1.5 / 4.5
    # a number against a matrix stands for that multiple of the identity
    d = np.diag([2.0, 2.5]).astype(complex)
    assert relative_residual(2.0, d) == relative_residual(d, 2.0) == 0.5 / 2.5
    assert relative_residual(complex("nan"), 1.0) == relative_residual(m, m * np.nan) == math.inf


@pytest.mark.parametrize("residuals,worst", [
    ((1e-12, 3e-10), 3e-10),
    ((1e-12, float("nan"), 2e-12), math.inf),   # a NaN is inf
    ((math.inf, 1.0), math.inf),
    ((), 0.0),                                  # the empty fold
])
def test_worst_of(residuals, worst):
    assert worst_of(*residuals) == worst


@pytest.mark.parametrize("worst,done,verdict", [
    (3e-10, 1, (3e-10, True)),
    (2e-9, 4, (2e-9, False)),
    (float("nan"), 1, (math.inf, False)),
    (math.inf, 1, (math.inf, False)),
    (1e-12, 0, (math.inf, False)),              # no accepted point
])
def test_judged(worst, done, verdict):
    assert judged(worst, 1e-9, done) == {"max_residual": verdict[0], "pass": verdict[1],
                                         "tol": 1e-9}


def test_two_exact_zeros_are_equal(params):
    e = DistExpr.from_factors(2.0, (TrigFactor(0, var("u"), 1),))
    rec = equal_numeric(e - e, DistExpr.zero(), params)
    assert (rec["groups"], rec["max_residual"], rec["pass"]) == ([], 0.0, True)


def test_structural_equality_of_delta_groups(params):
    a = DistExpr((Term(2.0, (), (DeltaAtom(var("u") - var("v")),
                                 DeltaAtom(var("v") - var("z")))),))
    b = DistExpr((Term(2.0, (), (DeltaAtom(var("u") - var("z")),
                                 DeltaAtom(var("v") - var("z")))),))
    rep = equal_numeric(a, b, params, samples=5, tol=1e-12)
    assert rep["pass"]


def test_extended_precision_pass(params):
    """Near a strip edge the double result is validated at 40 digits."""
    from curalg.trigcalc import eval_extended

    expr = DistExpr.from_factors(1.0, (
        TrigFactor(0, var("u") - ShiftExpr.hbar_units(Fraction(1, 2)), -1),
        TrigFactor(0, var("u") + ShiftExpr.hbar_units(Fraction(3, 2)), 1),
    ))
    # imaginary part close to the strip edge at -1/eta
    pt = {"u": 0.8 - 0.98j / params.eta}
    fast = expr.eval(pt, params)
    slow = eval_extended(expr, pt, params)
    assert abs(fast - slow) < 1e-10 * max(1.0, abs(slow))


# ---------------------------------------------------------------------------
# The sampler
# ---------------------------------------------------------------------------


def _scalar_sample_max(residual, windows, samples, rng, retries):
    """Reference loop: one scalar uniform per coordinate per try."""
    worst, done, tries = 0.0, 0, 0
    while done < samples and tries < samples + retries:
        tries += 1
        pt = {}
        for name, (re_range, im_range) in windows.items():
            x = rng.uniform(*re_range)
            pt[name] = complex(x, 0.0 if im_range is None else rng.uniform(*im_range))
        try:
            r = residual(pt)
        except ArithmeticError:
            continue
        if r is None:
            continue
        worst = max(worst, r)
        done += 1
    return worst, done


def _rejecting_residual(seen):
    """Records each point; rejects about half of them, both ways."""
    def residual(pt):
        seen.append(dict(pt))
        if pt["u"].real > 0.5:
            return None
        if pt["z"].real < -0.5:
            raise PoleProximityError("near a pole")
        return abs(pt["u"] * pt["v"] + pt["z"])
    return residual


# mixed ranges, a real-only variable, not in sorted order
_WINDOWS = {"u": ((-2.0, 2.0), (-0.3, 0.3)), "z": ((-1.0, 1.0), None),
            "v": ((-3.0, 3.0), (-0.05, 0.05))}


@pytest.mark.parametrize("samples,retries", [(20, 200), (300, 200), (40, 0), (5, 3)])
def test_sampler_matches_the_scalar_loop(samples, retries):
    # samples=300 exhausts its samples + retries tries before its count
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    seen_a, seen_b = [], []
    got = sample_max(_rejecting_residual(seen_a), _WINDOWS, samples, rng_a, retries)
    want = _scalar_sample_max(_rejecting_residual(seen_b), _WINDOWS, samples, rng_b, retries)
    assert got == want and seen_a == seen_b
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert all(p["z"].imag == 0.0 for p in seen_a)
    # the count is reached, or else every allowed try was made
    assert 0 < got[1] <= samples
    assert got[1] == samples or len(seen_a) == samples + retries
    assert (samples == 300) <= (got[1] < samples)


def test_sampler_without_retries_makes_exactly_samples_tries():
    seen = []
    worst, done = sample_max(lambda pt: seen.append(pt), _WINDOWS, 7, np.random.default_rng(0),
                             retries=0)
    assert (worst, done, len(seen)) == (0.0, 0, 7)
    # no variable: the empty point is valued once and counts for every try
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    seen = []
    assert sample_max(lambda pt: seen.append(pt) or 0.5, {}, 4, rng) == (0.5, 4)
    assert seen == [{}] and rng.bit_generator.state == state


@pytest.mark.parametrize("samples,outcome,want", [
    (0, 0.5, (0.0, 0)),
    (5, 0.25, (0.25, 5)),
    (5, None, (0.0, 0)),
    (5, PoleProximityError, (0.0, 0)),
    (5, float("nan"), (math.inf, 5)),
])
def test_a_residual_with_no_variable_is_valued_once(samples, outcome, want):
    def residual_into(calls):
        def residual(pt):
            calls.append(pt)
            if outcome is PoleProximityError:
                raise PoleProximityError("on a pole")
            return outcome
        return residual

    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    calls, ref_calls = [], []
    got = sample_max(residual_into(calls), {}, samples, rng, retries=3)
    ref = _scalar_sample_max(residual_into(ref_calls), {}, samples, np.random.default_rng(0), 3)
    assert got == want and calls == [{}] * min(samples, 1)
    assert rng.bit_generator.state == state
    # the reference loop's count, and its worst where it has no NaN to miss
    assert got[1] == ref[1] and ref_calls == [{}] * len(ref_calls)
    if want[0] != math.inf:
        assert got == ref


def test_a_nan_residual_is_an_accepted_point_at_inf():
    rng = np.random.default_rng(0)
    assert sample_max(lambda pt: float("nan"), _WINDOWS, 3, rng) == (math.inf, 3)
    values = iter([1e-3, float("nan"), 2e-3])
    assert sample_max(lambda pt: next(values), _WINDOWS, 3, rng) == (math.inf, 3)


def test_sampler_propagates_other_errors():
    def residual(pt):
        return pt["missing"]

    with pytest.raises(KeyError):
        sample_max(residual, _WINDOWS, 3, np.random.default_rng(0))


def test_atoms_hash_and_print_once(monkeypatch):
    arg = var("u") - ShiftExpr.hbar_units(Fraction(3, 4)) + ShiftExpr.lattice_units(1, 2)
    f = TrigFactor(1, arg, -1)
    # the dataclasses' field hashes, so set and dict orders stay as they were
    assert [fl.name for fl in dataclasses.fields(ShiftExpr)] == ["vars", "q", "lattice"]
    want = (hash((arg.vars, arg.q, arg.lattice)),
            hash((f.period, arg, f.exponent)), "u + -3/4*ih + 2*i/eta1")
    assert (hash(arg), hash(f), str(arg)) == want

    def recomputed(self):
        raise AssertionError("Fraction hashed or printed again")

    monkeypatch.setattr(Fraction, "__hash__", recomputed)
    monkeypatch.setattr(Fraction, "__str__", recomputed)
    assert (hash(arg), hash(f), str(arg)) == want


def _reject_every_point(*_args, **_kwargs):
    raise PoleProximityError("every point rejected")


def test_records_fail_when_every_point_is_rejected(monkeypatch, sign_flipped_exchange):
    cfg = report.RunConfig(algebra="A2", samples=10, pairs="E1:E2")
    rng = np.random.default_rng(0)
    monkeypatch.setattr(TrigFactor, "eval", _reject_every_point)
    shared = report._Shared(cfg)
    failed = {r["id"]: r for r in report._suite_trigcalc(cfg, rng, shared) if not r["pass"]}
    # a record with no accepted point shows an infinite residual
    assert list(failed) == ["half_period_flip"]
    assert failed["half_period_flip"]["max_residual"] == math.inf
    monkeypatch.setattr(report, "kernel_value", _reject_every_point)
    assert report._suite_boson(cfg, rng, shared)[0] == {
        "id": "kernel_symmetries", "pass": False, "max_residual": math.inf, "tol": 1e-12}
    monkeypatch.setattr(Plan, "values", _reject_every_point)
    failed = [r["id"] for r in report._suite_structfn(cfg, rng, shared) if not r["pass"]]
    assert failed == ["inversion", "hh_pm_level0_trivial", "degeneration"]
    for deg in (evalrep.degeneration_report(2), intertwine.degeneration_report(2)):
        assert deg["pass"] is False and deg["max_residual"] == math.inf
    cd = cfg.cartan()
    triples = [r for r in intertwine.consistency_suite(cd, cfg.tower(), samples=2)
               if not r["skipped"]]
    # the flipped exchange's triples are sampled, and every point is rejected
    sampled = [r for r in triples if not r["proven"]]
    assert sampled and all((r["x"], r["y"]) == sign_flipped_exchange for r in sampled)
    assert all((r["samples"], r["max_residual"], r["pass"]) == (0, math.inf, False)
               for r in sampled)
    # a proven triple evaluates no point: its two paths have one normal form
    for r in triples:
        if r["proven"]:
            fam, a = r["family"], r["component"]
            (xk, xi), (yk, yi) = ((k, int(i)) for k, i in (c.rsplit("_", 1)
                                                          for c in (r["x"], r["y"])))
            cx = intertwine.vertex_move_coeff(fam, a, xk, xi, cd.rank, "u")
            cy = intertwine.vertex_move_coeff(fam, a, yk, yi, cd.rank, "v")
            rxy = intertwine.exchange_fn(xk, xi, yk, yi, cd, "u", "v")
            ryx = intertwine.exchange_fn(yk, yi, xk, xi, cd, "v", "u")
            assert (cx * cy).odd_normal_form() == (rxy * cy * cx * ryx).odd_normal_form()
            assert r["pass"]
