import warnings
from fractions import Fraction

import pytest

from curalg import evalrep, hopf, report, structfn, trigcalc
from curalg.boson import checks
from curalg.boson.contraction import UnsupportedPairError
from curalg.boson.currents import current
from curalg.hopf import (
    CurrentExpr,
    Letter,
    Word,
    antipode,
    coproduct_minus,
    coproduct_plus,
    counit,
    level_k_currents,
)
from curalg.liealg import cartan
from curalg.params import ParamTower
from curalg.trigcalc import ShiftExpr, var


def tower(*levels, hbar=0.1, eta=1.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ParamTower(hbar, eta, levels)


@pytest.fixture(scope="module")
def params():
    return tower(1.0, 1.0, 1.0)


def _single_letters(x: CurrentExpr):
    return [
        tuple((l.kind, l.i, None if l.arg is None else str(l.arg), l.tag)
              for slot in w.slots for l in slot)
        for w in x.words
    ]


def test_coproduct_central_element(params):
    img = coproduct_plus(CurrentExpr.generator("c", 0, 0), params)
    kinds = sorted(tuple(l.kind for slot in w.slots for l in slot) for w in img.words)
    assert kinds == [("c", "one"), ("one", "c")]
    img = coproduct_minus(CurrentExpr.generator("c", 0, 0), params)
    assert len(img.words) == 2


def test_coproduct_h_plus_shifts(params):
    # H+(u + i hbar c_{n+1}/4) (x) H+(u - i hbar c_n/4)
    img = coproduct_plus(CurrentExpr.generator("H+", 1, 0), params)
    assert len(img.words) == 1
    (s0,), (s1,) = img.words[0].slots
    assert s0.arg == var("u") + ShiftExpr.hbar_units(Fraction(1, 4))
    assert s1.arg == var("u") + ShiftExpr.hbar_units(Fraction(-1, 4))
    assert (s0.tag, s1.tag) == (0, 1)


def test_coproduct_f_displayed(params):
    # 1 (x) F + F(u + i hbar c_{n+1}/2) (x) H+(u + i hbar c_{n+1}/4)
    img = coproduct_plus(CurrentExpr.generator("F", 1, 0), params)
    words = _single_letters(img)
    assert (("one", 0, None, 0), ("F", 1, "u", 1)) in words
    assert (("F", 1, "u + 1/2*ih", 0), ("H+", 1, "u + 1/4*ih", 1)) in words


def test_coproduct_minus_e_displayed(params):
    # E(u; n-1) (x) 1 + H-(u + i hbar c_{n-1}/4; n-1) (x) E(u + i hbar c_{n-1}/2; n)
    img = coproduct_minus(CurrentExpr.generator("E", 1, 1), params)
    words = _single_letters(img)
    assert (("E", 1, "u", 0), ("one", 0, None, 1)) in words
    assert (("H-", 1, "u + 1/4*ih", 0), ("E", 1, "u + 1/2*ih", 1)) in words


def test_counit_table(params):
    assert counit(CurrentExpr.generator("E", 1, 0)) == 0
    assert counit(CurrentExpr.generator("F", 1, 0)) == 0
    assert counit(CurrentExpr.generator("H+", 1, 0)) == 1
    assert counit(CurrentExpr.generator("c", 0, 0)) == 0
    assert counit(CurrentExpr.generator("one", 0, 0)) == 1
    # morphism extension: product of values
    w = CurrentExpr((Word(2.0, ((Letter("H+", 1, var("u"), 0),
                                 Letter("H-", 1, var("u"), 0)),)),))
    assert counit(w) == 2.0


def test_antipode_images(params):
    img = antipode(CurrentExpr.generator("H+", 1, 0), params, +1)
    assert _single_letters(img) == [(("H+inv", 1, "u", 1),)]
    img = antipode(CurrentExpr.generator("c", 0, 0), params, +1)
    assert img.words[0].coeff == -1.0
    img = antipode(CurrentExpr.generator("E", 1, 0), params, -1)
    letters = _single_letters(img)[0]
    assert letters[0][0] == "H-inv" and letters[1][0] == "E"
    assert img.words[0].coeff == -1.0
    # anti-morphism on a two-letter word: S(xy) = S(y) S(x)
    xy = CurrentExpr((Word(1.0, ((Letter("H+", 1, var("u"), 0),
                                  Letter("E", 2, var("u"), 0)),)),))
    img = antipode(xy, params, +1)
    kinds = [l[0] for l in _single_letters(img)[0]]
    assert kinds == ["H-inv", "E", "H+inv"]  # S(E) letters first, then S(H+)


@pytest.mark.parametrize("r", [1, 2])
def test_axioms_in_level0_backend(r):
    params0 = tower(0.0)
    rep = evalrep.build(r, params0)
    out = hopf.verify_axioms(rep, params0, samples=20, tol=1e-9)
    assert out and all(rec["pass"] for rec in out)
    assert max(rec["max_residual"] for rec in out) < 1e-9


def test_axiom_records_count_accepted_points(monkeypatch):
    # every other try rejected, no retries: a sampled axiom states the half
    # it accepted; a constant one is valued once and states every sample;
    # one whose sides are both zero draws nothing and states 0
    sample_max = trigcalc.sample_max

    def reject_every_other(residual, windows, samples, rng, retries=200):
        if not windows:   # no variable: one value, no other try to reject
            return sample_max(residual, windows, samples, rng, retries=0)
        tries = []

        def half(pt):
            tries.append(pt)
            return None if len(tries) % 2 else residual(pt)

        return sample_max(half, windows, samples, rng, retries=0)

    monkeypatch.setattr(trigcalc, "sample_max", reject_every_other)
    params0 = tower(0.0)
    out = hopf.verify_axioms(evalrep.build(1, params0), params0, samples=6)
    counts = {(r["axiom"], r["generator"]): r["samples"] for r in out}
    assert counts[("counit_plus", "c")] == 0 and counts[("counit_plus", "E_1")] == 6
    assert set(counts.values()) == {0, 3, 6} and all(r["pass"] for r in out)


def test_minus_equals_shifted_plus(params):
    rec = hopf.minus_equals_shifted_plus(params, rank=2)
    assert rec["pass"], rec


def test_shift_free_collapse():
    rec = hopf.shift_free_collapse(2)
    assert rec["pass"], rec


def test_level2_images_displayed(params):
    img = level_k_currents("H+", 1, 2, params)
    assert len(img.words) == 1
    (s0,), (s1,) = img.words[0].slots
    assert s0.arg.q == Fraction(1, 4) and s1.arg.q == Fraction(-1, 4)
    img = level_k_currents("E", 1, 2, params)
    assert len(img.words) == 2


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_homomorphism_level2(label, params):
    cd = cartan(label[0], int(label[1]))
    out = hopf.verify_homomorphism(cd, params, samples=10, tol=1e-7)
    assert out and all(rec["pass"] for rec in out)


def test_level3_iteration_orders_compared(params):
    rec = hopf.iteration_order_report("E", 1, params)
    assert rec["left_words"] == 3 and rec["right_words"] == 3
    # no coassociativity claim: the difference is reported, not asserted
    assert rec["identical"] is False
    # H+ image: single product either way, different tags/shifts
    rec = hopf.iteration_order_report("H+", 1, params)
    assert rec["left_words"] == rec["right_words"] == 1


def test_ef_pole_audit_level2(params):
    cd = cartan("A", 2)
    for i in (1, 2):
        rec = hopf.ef_pole_audit_level2(cd, params, i)
        assert rec["pass"], rec
        assert rec["pole_heights_ihbar"] == [-1.0, 0.0, 1.0]


def test_backend_h_inverse(params):
    params0 = tower(0.0)
    rep = evalrep.build(1, params0)
    x = Letter("H+inv", 1, var("u"), 0)
    y = Letter("H+", 1, var("u"), 0)
    prod = hopf.module_expr(rep, CurrentExpr((Word(1.0, ((x, y),)),)))
    val = prod.eval({"u": 0.37 + 0.11j, "z": 0.0}, params0)
    assert val.keys() == {(0, 0), (1, 1)}
    assert all(abs(z - 1.0) <= 1e-12 for z in val.values())


def test_level_k_requires_tower(params):
    with pytest.raises(ValueError):
        level_k_currents("E", 1, 5, tower(1.0))
    with pytest.raises(ValueError):
        level_k_currents("E", 1, 1, params)


def test_coproduct_unit(params):
    # identity on 1: Delta(1) = 1 (x) 1, both directions
    for fn in (coproduct_plus, coproduct_minus):
        img = fn(CurrentExpr.generator("one", 0, 0), params)
        assert len(img.words) == 1
        (s0,), (s1,) = img.words[0].slots
        assert (s0.kind, s1.kind) == ("one", "one")


def test_coproduct_minus_central_tags(params):
    # Delta^-_n c_n = c_{n-1} + c_n, with the family tags as displayed
    img = coproduct_minus(CurrentExpr.generator("c", 0, 1), params)
    tags = sorted(l.tag for w in img.words for slot in w.slots for l in slot
                  if l.kind == "c")
    assert tags == [0, 1]


def test_homomorphism_level2_d_series(params):
    # the free-field route is series-generic: D4 at a couple of node pairs
    cd = cartan("D", 4)
    out = hopf.verify_homomorphism(cd, params, samples=5, tol=1e-7,
                                   relations=("HE", "EE"))
    assert out and all(rec["pass"] for rec in out)


def test_serre_level2(params):
    cd = cartan("A", 2)
    for i, j in ((1, 2), (2, 1)):
        rec = hopf.verify_serre_level2(cd, params, i, j, samples=6, tol=1e-7)
        assert rec["pass"], rec
        assert rec["signatures"] == 8  # 48 words collapse onto 8 monomials
    with pytest.raises(ValueError):
        hopf.verify_serre_level2(cartan("A", 3), params, 1, 3)


def test_unbuildable_level2_words_fail_the_record(params, monkeypatch):
    def unsupported(*_args):
        raise UnsupportedPairError("no closed form")

    monkeypatch.setattr(checks, "word_exponent", unsupported)
    cd = cartan("A", 2)
    rec = hopf.verify_serre_level2(cd, params, 1, 2, samples=4)
    assert rec["samples"] == 0 and not rec["pass"]
    out = hopf.verify_homomorphism(cd, params, samples=4, relations=("EE",))
    assert out and all(r["max_residual"] == float("inf") and not r["pass"] for r in out)


def test_each_level2_image_is_built_once(params, monkeypatch):
    built = []
    real = hopf.level_k_currents

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(hopf, "level_k_currents", counted)
    relations = ("EE", "HE")
    out = hopf.verify_homomorphism(cartan("A", 2), params, samples=2, relations=relations)
    images = {(kind, i, name) for rel in relations
              for kind, name in zip(structfn.exchange_kinds(rel), "uv") for i in (1, 2)}
    assert len(out) == 8 and len(built) == len(images)


def test_wrong_cubic_coefficient_fails_both_levels(params, monkeypatch):
    true_coefficient = structfn.serre_coefficient
    monkeypatch.setattr(structfn, "serre_coefficient",
                        lambda p, side: true_coefficient(p, side) + 1e-3)
    cd = cartan("A", 2)
    level1 = checks.serre_check(1, 2, cd, params, samples=6)
    level2 = hopf.verify_serre_level2(cd, params, 1, 2, samples=6)
    for rec in (level1, level2):
        assert rec["samples"] == 6 and not rec["pass"], rec
        assert rec["max_residual"] > 1e-6, rec


def test_swapped_exchange_ratio_fails_both_levels(params, monkeypatch):
    true_ratio = structfn.ratio

    def swapped(relation, *args, **kwargs):
        sr = true_ratio(relation, *args, **kwargs)
        if relation != "EE":
            return sr
        return structfn.StructureRatio(sr.relation, sr.i, sr.j, sr.c, sr.den, sr.num)

    monkeypatch.setattr(structfn, "ratio", swapped)
    cd = cartan("A", 2)
    level1 = checks.exchange_check(current("E", 1, "u"), current("E", 2, "v"),
                                   structfn.ratio("EE", 1, 2, cd, c=1), cd, params, samples=6)
    level2 = hopf.verify_homomorphism(cd, params, samples=6, relations=("EE",))
    assert len(level2) == 4
    for rec in [level1] + level2:
        assert rec["samples"] == 6 and not rec["pass"], rec
        assert rec["max_residual"] > 1e-6, rec


def test_hom_k2_records_count_accepted_points(monkeypatch):
    sample_max = checks.sample_max

    def reject_every_other(residual, windows, samples, rng, retries=200):
        tries = []

        def half(pt):
            tries.append(pt)
            return None if len(tries) % 2 else residual(pt)

        return sample_max(half, windows, samples, rng, retries=0)

    monkeypatch.setattr(checks, "sample_max", reject_every_other)
    recs = hopf.verify_homomorphism(cartan("A", 1), tower(1.0, 1.0, 1.0), samples=6,
                                    relations=("EE", "HE"))
    assert [r["samples"] for r in recs] == [3, 3]
    assert all(r["pass"] for r in recs)


def _halved_second_word_shift(kind: str):
    """``hopf.coproduct_letter`` with the half shift of ``kind``'s letter in
    its second coproduct word (c_hi/2 for F, c_lo/2 for E) halved."""
    true_letter = hopf.coproduct_letter

    def letter(l, params, direction):
        words = true_letter(l, params, direction)
        if l.kind != kind:
            return words
        tag = l.tag + (direction == +1) if kind == "F" else l.tag - (direction == -1)
        level = hopf._c(params, tag)
        second = tuple(
            tuple(Letter(x.kind, x.i, l.arg + hopf._q(level / 4), x.tag)
                  if x.kind == kind else x for x in slot)
            for slot in words[1].slots)
        return [words[0], Word(words[1].coeff, second)]

    return letter


@pytest.mark.parametrize("algebra", ["A2", "D4"])
@pytest.mark.parametrize("kind", ["E", "F"])
def test_a_planted_coproduct_shift_fails_every_level2_ef_audit(algebra, kind, monkeypatch):
    cfg = report.RunConfig(algebra=algebra, suites=("hopf",), hopf_parts=("audit",))
    audits = report.run(cfg)["suites"][0]["checks"]
    assert len(audits) == cfg.cartan().rank and all(c["pass"] for c in audits)
    monkeypatch.setattr(hopf, "coproduct_letter", _halved_second_word_shift(kind))
    audits = report.run(cfg)["suites"][0]["checks"]
    assert [c["id"] for c in audits] == [f"ef_pole_audit_k2_{i}" for i in cfg.cartan().nodes()]
    assert not any(c["pass"] for c in audits), audits
