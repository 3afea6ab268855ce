import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from curalg import evalrep, hopf, report, structfn
from curalg.liealg import adjacent_pairs
from curalg.params import ParamTower
from curalg.trigcalc import DistExpr, ShiftExpr, TrigFactor, var


@pytest.fixture(scope="module")
def params():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ParamTower(0.1, 1.0, (0.0,))


@pytest.fixture(scope="module")
def rep2(params):
    return evalrep.build(2, params)


def sh(z):
    return cmath.sinh(z)


def test_rank1_e_plus_entry(params):
    # coefficient -sh(i pi eta hbar)/sh(pi eta (u - z)) on v_1 -> v_0
    rep = evalrep.build(1, params)
    u, z = 0.73, 0.11
    mat = rep.op("e+", 1).eval({"u": u, "z": z}, params)
    want = -sh(1j * math.pi * 0.1) / sh(math.pi * (u - z))
    assert mat.keys() == {(0, 1)}
    assert abs(mat[0, 1] - want) < 1e-14


def test_rank2_h_plus_eigenvalues(rep2, params):
    # l = 1, j = 1: sh(pi eta (u - z + i hbar/2)) / sh(pi eta (u - z - i hbar/2))
    u, z = 0.42, -0.3
    mat = rep2.op("H+", 1).eval({"u": u, "z": z}, params)
    w = u - z
    want = sh(math.pi * (w + 0.05j)) / sh(math.pi * (w - 0.05j))
    assert abs(mat[1, 1] - want) < 1e-13
    # j = l - 1 = 0 uses the (r - l + 2)/2 numerator
    want0 = sh(math.pi * (w - 0.15j)) / sh(math.pi * (w - 0.05j))
    assert abs(mat[0, 0] - want0) < 1e-13
    # any j outside {l, l-1}: eigenvalue exactly 1
    assert mat[2, 2] == 1.0


def test_shape_law(rep2):
    for l in (1, 2):
        assert rep2.op("e+", l).terms[0].mat == (((l - 1, l), 1.0),)
        assert rep2.op("f+", l).terms[0].mat == (((l, l - 1), 1.0),)
        for t in rep2.op("H+", l).terms:
            assert all(i == j for (i, j), _ in t.mat)


def test_negative_halves_equal_positive_pointwise(rep2, params):
    # e- = -e+(u - i/eta); the half-period flip makes them coincide
    rng = np.random.default_rng(4)
    for l in (1, 2):
        for _ in range(10):
            pt = {"u": complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3)),
                  "z": complex(rng.uniform(-1, 1), 0.0)}
            try:
                a = rep2.op("e-", l).eval(pt, params)
                b = rep2.op("e+", l).eval(pt, params)
                fa = rep2.op("f-", l).eval(pt, params)
                fb = rep2.op("f+", l).eval(pt, params)
            except ArithmeticError:
                continue
            assert a.keys() == b.keys() == {(l - 1, l)} and fa.keys() == fb.keys() == {(l, l - 1)}
            for x, y in ((a[l - 1, l], b[l - 1, l]), (fa[l, l - 1], fb[l, l - 1])):
                assert abs(x - y) <= 1e-12 + 1e-5 * abs(y)   # np.allclose's bound


def test_h_minus_structurally_equal(rep2):
    # each minus half current has its plus half's canonical terms, so a
    # total current is the plus half's jump alone (``op("jump e+", l)``)
    for kind in ("e", "f", "H"):
        for l in (1, 2):
            minus, plus = rep2.op(kind + "-", l), rep2.op(kind + "+", l)
            assert len(minus.terms) == len(plus.terms)
            for tm, tp in zip(minus.terms, plus.terms):
                # == on the scalar: a real part may differ by the sign of zero
                assert (tm.factors, tm.deltas, tm.scalar) == (tp.factors, tp.deltas, tp.scalar)
                assert tm.mat == tp.mat


def test_build_enters_the_plus_halves_and_a_minus_half_is_derived_on_first_read(
        params, monkeypatch):
    calls = []
    subs = DistExpr.subs

    def counted(self, name, repl):
        calls.append(name)
        return subs(self, name, repl)

    monkeypatch.setattr(DistExpr, "subs", counted)
    rep = evalrep.build(3, params)
    assert calls == []
    shift_down = var("u") + ShiftExpr.lattice_units(0, -1)
    for l in (1, 2, 3):
        minus = rep.op("e-", l)
        assert rep.op("e-", l) is minus
        plus = rep.op("e+", l, shift_down)
        assert len(minus.terms) == len(plus.terms)
        for tm, tp in zip(minus.terms, plus.terms):
            assert (tm.factors, tm.deltas, tm.scalar) == (tp.factors, tp.deltas, -tp.scalar)
            assert tm.mat == tp.mat


def test_total_current_single_delta(rep2, params):
    for l in (1, 2):
        tot = rep2.op("jump e+", l)
        assert len(tot.terms) == 1
        t = tot.terms[0]
        assert len(t.deltas) == 1
        assert not t.factors  # delta-free part is exactly zero
        sol = t.deltas[0].arg.solve_for("u")
        assert sol.var_coeff("z") == 1
        assert sol.q == rep2.beta(l)
        # coefficient (2i/eta)(-sh(i pi eta hbar)) before normalization
        coef = t.scalar
        want_c = (2j / params.eta) * (-sh(1j * math.pi * params.eta * params.hbar))
        assert abs(coef - want_c) < 1e-13
        # F sits at the same height
        totf = rep2.op("jump f+", l)
        assert totf.terms[0].deltas[0].arg == t.deltas[0].arg
        # the normalized total currents are the jumps times nu, bit for bit
        nu = evalrep.ef_normalization(params)
        for kind, jump in (("E", tot), ("F", totf)):
            (got,) = rep2.op(kind, l).terms
            assert (got.scalar, got.deltas) == (jump.terms[0].scalar * nu, jump.terms[0].deltas)


def test_total_current_consistent_with_half_current_transform(rep2, params):
    """The half current must be the sh-kernel transform of the total.

    With E(v) = A delta(v - z - i beta), the contour transform gives
    e+(u) = (pi eta / 2 pi i) A / sh(pi eta (u - z - i beta)); solving
    for A from the known e+ entry is an independent derivation of the
    delta coefficient.
    """
    l = 1
    a_coef = rep2.op("jump e+", l).terms[0].scalar
    s = -sh(1j * math.pi * params.eta * params.hbar)  # e+ numerator
    a_from_transform = s * 2j / params.eta
    assert abs(a_coef - a_from_transform) < 1e-14


@pytest.mark.parametrize("rel", ["HH_pm", "HH_same", "HE", "HF", "EE", "FF"])
def test_multiplicative_relations_r2(rep2, rel):
    rng = np.random.default_rng(11)
    for i in (1, 2):
        for j in (1, 2):
            for sign in ((+1, -1) if rel in ("HE", "HF") else (+1,)):
                rec = evalrep.verify_relation(rep2, rel, i, j, samples=25,
                                              tol=1e-9, rng=rng, sign=sign)
                assert rec["pass"], rec


def test_ef_relation(rep2):
    rec = evalrep.verify_relation(rep2, "EF", 1, 1, samples=10)
    assert rec["pass"], rec
    # the verbatim matrices miss the commutator scale by this exact factor
    p = rep2.params
    want = p.hbar * math.sin(math.pi * p.eta * p.hbar) / (math.pi * p.eta)
    assert abs(rec["raw_coefficient_ratio"] - want) < 1e-10
    rec = evalrep.verify_relation(rep2, "EF", 1, 2, samples=10)
    assert rec["pass"], rec


def test_serre_trivially_zero(rep2):
    for i, j in adjacent_pairs(rep2.cartan):
        rec = evalrep.verify_relation(rep2, "serre", i, j)
        assert rec["pass"] and rec["max_residual"] == 0.0


@pytest.mark.parametrize("r", [1, 2, 3])
def test_verify_all(params, r):
    rep = evalrep.build(r, params)
    out = evalrep.verify_all(rep, samples=25, tol=1e-9, seed=1)
    assert all(rec["pass"] for rec in out)


@pytest.mark.parametrize("r,records,failed", [(2, 32, 20), (4, 128, 52)])
def test_a_swapped_exchange_ratio_fails_the_multiplicative_records(params, monkeypatch,
                                                                   r, records, failed):
    # with num and den swapped, den*X(u)Y(v) == num*Y(v)X(u) holds only where
    # the ratio is +-1 or both orders vanish; E-F and Serre do not read it
    real = evalrep._rel_vars_ratio
    monkeypatch.setattr(evalrep, "_rel_vars_ratio", lambda num, den: real(num, den)[::-1])
    out = evalrep.verify_all(evalrep.build(r, params), samples=50, seed=0)
    mult = [rec for rec in out if rec["relation"] in structfn.RELATIONS]
    assert (len(mult), sum(not rec["pass"] for rec in mult)) == (records, failed)
    assert all(rec["pass"] for rec in out if rec["relation"] not in structfn.RELATIONS)


def test_pole_inventory(rep2):
    inv = evalrep.pole_inventory(rep2)
    assert inv and all(not p["strictly_inside_shifted_strip"] for p in inv)
    # after canonicalization every reciprocal factor sits at its own
    # shifted position with no stray lattice offsets
    assert all(p["lattice"] == {} for p in inv)


def test_pole_inside_the_shifted_strip_fails_the_record(monkeypatch):
    # every pole moved down by hbar/2, into the open strip (beta - 1/eta, beta)
    pole = evalrep._pole_factor
    monkeypatch.setattr(evalrep, "_pole_factor", lambda r, l: TrigFactor(
        0, pole(r, l).arg + ShiftExpr.hbar_units(Fraction(1, 2)), -1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = evalrep.build(2, ParamTower(0.1, 1.0, (0.0,)))
    inv = evalrep.pole_inventory(rep)
    assert inv and all(p["strictly_inside_shifted_strip"] for p in inv)
    cfg = report.RunConfig(algebra="A1", suites=("evalrep",), samples=10)
    checks = {c["id"]: c for c in report.run(cfg)["suites"][0]["checks"]}
    assert checks["pole_inventory"]["pass"] is False
    monkeypatch.undo()
    checks = {c["id"]: c for c in report.run(cfg)["suites"][0]["checks"]}
    assert checks["pole_inventory"]["pass"] is True


def test_h_asymptotics(rep2, params):
    # sh-ratio tends to a unit-modulus constant e^{+-i pi eta hbar (..)};
    # the distance to the identity is bounded by the shift scale
    big = 40.0
    mat = rep2.op("H+", 1).eval({"u": big, "z": 0.0}, params)
    assert mat.keys() == {(0, 0), (1, 1), (2, 2)}
    assert max(abs(abs(z) - 1.0) for z in mat.values()) < 1e-12
    assert max(abs(z - 1.0) for z in mat.values()) < 2 * math.sin(math.pi * params.eta * params.hbar)


def test_degeneration():
    rec = evalrep.degeneration_report(2)
    assert rec["pass"] and rec["max_residual"] < 1e-3


@pytest.mark.parametrize("at", range(3))
def test_a_nan_entry_anywhere_is_an_infinite_degeneration_residual(at):
    want = {(k, k): 1 + 0j for k in range(3)}
    got = dict(want)
    got[at, at] = complex(math.nan, 0.0)
    assert evalrep._entries_off(got, want) == math.inf
    assert evalrep._entries_off({(0, 0): 3 + 0j}, want) == 2.0   # the scale is at least 1


def test_a_nan_matrix_entry_fails_the_degeneration_record(monkeypatch):
    # one diagonal entry of H+, not the first, evaluates to NaN
    real = DistExpr.eval

    def nan_entry(self, assignment, params):
        val = real(self, assignment, params)
        if isinstance(val, dict) and len(val) > 1:
            val[max(val)] = complex(math.nan, 0.0)
        return val

    monkeypatch.setattr(DistExpr, "eval", nan_entry)
    rec = evalrep.degeneration_report(2)
    assert rec["max_residual"] == math.inf and rec["pass"] is False


def test_build_requires_level_zero(params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bad = ParamTower(0.1, 1.0, (1.0,))
    with pytest.raises(ValueError):
        evalrep.build(2, bad)
    with pytest.raises(ValueError):
        evalrep.build(0, params)


def test_smeared_total_current_slow_oracle(params):
    """Gaussian smearing of the boundary-value difference reproduces the
    delta coefficient (rank 2, first component; the slow oracle)."""
    rep = evalrep.build(2, params)
    rec = evalrep.smeared_total_current_check(rep, 1, n_grid=48001)
    assert rec["pass"], rec


def test_each_total_current_is_built_once_per_module(monkeypatch):
    # the A4 module run: every relation and every axiom of the run reads
    # the same 3r jumps of e+, f+ and H+ of one module, the normalized and
    # the raw E-F comparisons alike
    built = []
    jump = DistExpr.plemelj_reduce

    def counted(self, name, params):
        built.append((self, name, params))
        return jump(self, name, params)

    monkeypatch.setattr(DistExpr, "plemelj_reduce", counted)
    cfg = report.RunConfig(algebra="A4", samples=8, suites=("evalrep", "hopf"),
                           hopf_parts=("axioms",))
    assert report.run(cfg)["pass"]
    assert len({id(params) for _, _, params in built}) == 1
    assert len(built) == len({id(half) for half, _, _ in built}) == 3 * 4


def _module_letter_args(r, params):
    """Every spectral argument a letter of the axiom sides carries."""
    gens = [("c", 0)] + [(k, i) for k in hopf.GEN_KINDS for i in range(1, r + 1)]
    return {l.arg for kind, i in gens
            for _name, lhs, rhs in hopf._axiom_sides(kind, i, 0, params)
            for x in (lhs, rhs) for w in x.words for slot in w.slots
            for l in slot if l.arg is not None}


def test_an_operator_at_an_argument_is_built_once_and_equals_its_substitution(params):
    rep = evalrep.build(3, params)
    letters = _module_letter_args(3, params)
    assert letters   # at level 0 the coproduct shifts vanish: every letter is at u
    kinds = ("e+", "f+", "H+", "e-", "f-", "H-", "E", "F", "H+inv", "H-inv")
    for at in sorted({var("v"), var("u1"), var("u2")} | letters, key=str):
        for kind in kinds:
            for l in rep.cartan.nodes():
                got = rep.op(kind, l, at)
                assert rep.op(kind, l, at) is got
                fresh = rep.op(kind, l).subs(evalrep.U, at)
                assert len(got.terms) == len(fresh.terms), (kind, l, at)
                for a, b in zip(got.terms, fresh.terms):
                    assert (a.factors, a.deltas, a.scalar) == (b.factors, b.deltas, b.scalar)
                    assert repr(a.mat) == repr(b.mat)   # repr shows the sign of a zero part


def test_the_module_run_substitutes_each_operator_once(monkeypatch, cold_memos):
    # each operator at an argument is built once per module, an operator
    # at u is the operator itself, a minus half is built only when read,
    # and a cleared ratio substitutes its factors: 144 substitutions where
    # rebuilding them took 718, and 137 once a translation class reads
    # only its first pair
    calls = []
    subs = DistExpr.subs

    def counted(self, name, repl):
        calls.append(name)
        return subs(self, name, repl)

    monkeypatch.setattr(DistExpr, "subs", counted)
    cfg = report.RunConfig(algebra="A4", samples=50, seed=0,
                           suites=("trigcalc", "structfn", "evalrep", "hopf", "intertwine"),
                           hopf_parts=("axioms",))
    assert report.run(cfg)["pass"]
    assert len(calls) == 137
