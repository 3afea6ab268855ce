import cmath
import gc
import json
import math
import pathlib
import warnings
from fractions import Fraction

import numpy as np
import pytest

from curalg import intertwine, report, structfn
from curalg.intertwine import (
    DeltaBearingMove,
    InterRelation,
    catalog,
    catalog_counts,
    consistency_suite,
    exchange_fn,
    export_catalog,
    period_discipline,
    variant_report,
    verify_consistency,
    vertex_move_coeff,
)
from curalg.evalplan import Plan, relative_residual
from curalg.liealg import cartan
from curalg.params import ParamTower
from curalg.rng import default_rng
from curalg.trigcalc import DistExpr, Term, TrigFactor, sample_max

GOLDEN = pathlib.Path(__file__).parent / "golden" / "catalog_A2.json"


def tower():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ParamTower(0.1, 1.0, (1.0,))


@pytest.fixture(scope="module")
def params():
    return tower()


@pytest.fixture(scope="module")
def cat2(params):
    return catalog(2, params)


def test_catalog_counts(cat2):
    counts = catalog_counts(cat2)
    assert set(counts) == {"Phi", "PhiStar", "PsiStar", "Psi"}
    for fam, c in counts.items():
        assert c == {"ratio_cases": 9, "commutators": 1, "embedded_deltas": 1}, fam
    assert len(cat2) == 40


def test_period_discipline(cat2):
    assert period_discipline(cat2, 2)
    # type-I pair on eta' (period 1), type-II pair on eta (period 0)
    for rec in cat2:
        assert rec.period == (1 if rec.vertex in ("Phi", "PhiStar") else 0)


def test_phi_hplus_coefficient_display(params):
    # sh(pi eta'(u - z - (r-j-2)/2 ih - 3/4 ih)) / sh(pi eta'(u - z - (r-j)/2 ih - 3/4 ih))
    r, j = 2, 1
    rec = next(x for x in catalog(r, params)
               if x.rid == "Phi.H+.j")
    expr = rec.coeff(r, j)
    etap, h = params.eta_prime, params.hbar
    for u, z in ((0.62, 0.1), (-0.4, 0.35)):
        got = expr.eval({"u": u, "z": z}, params)
        want = cmath.sinh(math.pi * etap * (u - z + 0.5j * h - 0.75j * h)) \
            / cmath.sinh(math.pi * etap * (u - z - 0.5j * h - 0.75j * h))
        assert abs(got - want) < 1e-13


def test_psi_f_commutator_record(params):
    # (sh i pi eta hbar)/(pi eta) delta(u - z - (r-l)/2 ih) H+_l(u + ih/4) Psi_{l-1}
    rec = next(x for x in catalog(2, params) if x.rid == "Psi.F.commutator")
    want = cmath.sinh(1j * math.pi * params.eta * params.hbar) / (math.pi * params.eta)
    assert abs(rec.delta_scalar - want) < 1e-15
    assert rec.kron == "j==l"
    assert "H+_l(u+ih/4)" in rec.delta_payload
    sup = rec.delta_support_normalized(2, 1)
    assert sup.q == Fraction(-1, 2)  # (r - l)/2 at r=2, l=1


def test_otherwise_cases_are_unit(params, cat2):
    for rec in cat2:
        if rec.vertex_case == "other":
            expr = rec.coeff(2, 1)
            assert expr.eval({"u": 0.3, "z": 0.1}, params) == 1.0


def test_embedded_delta_transcription(cat2):
    flagged = [r.rid for r in cat2 if r.has_embedded_delta]
    assert sorted(flagged) == ["Phi.F.j", "PhiStar.F.j-1", "Psi.E.j-1", "PsiStar.E.j"]
    for rec in cat2:
        if rec.has_embedded_delta:
            assert "l unbound" in rec.delta_support_printed


def test_variant_report(params):
    rep = variant_report(2, params)
    assert len(rep) == 4
    for key, entry in rep.items():
        assert entry["self_consistent_variant"] == "normalized"
        assert all(case["normalized_on_denominator_zero"]
                   for case in entry["cases"].values())
    # deterministic output
    assert json.dumps(rep, sort_keys=True) == json.dumps(variant_report(2, params),
                                                         sort_keys=True)


def test_triple_two_h_moves(params):
    # both orders: product of the two vertex coefficients times the
    # exchange function; residual at numerical zero
    cd = cartan("A", 2)
    rec = verify_consistency("Phi", 1, "H+", 1, "H+", 1, cd, params, samples=20)
    assert not rec["skipped"] and rec["pass"] and rec["max_residual"] < 1e-10


def test_triple_delta_bearing_skip(params):
    # Phi_{j-1} against E_j hits the commutator delta: skipped with reason
    cd = cartan("A", 2)
    rec = verify_consistency("Phi", 1, "H+", 2, "E", 2, cd, params)
    assert rec["skipped"] and "delta" in rec["reason"]


def test_triple_disconnected_trivial(params):
    # disconnected currents and a far component: every coefficient 1
    cd = cartan("A", 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p4 = ParamTower(0.1, 1.0, (1.0,))
    rec = verify_consistency("Psi", 2, "E", 1, "E", 4, cd, p4, samples=10)
    assert not rec["skipped"]
    assert rec["max_residual"] == 0.0


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_consistency_suite(label, params):
    cd = cartan(label[0], int(label[1]))
    out = list(consistency_suite(cd, params, samples=12, tol=1e-9))
    ran = [r for r in out if not r.get("skipped")]
    assert ran, "no admissible triples found"
    assert all(r["pass"] for r in ran)
    assert max(r["max_residual"] for r in ran) < 1e-9
    skipped = [r for r in out if r.get("skipped")]
    assert all(r["reason"] for r in skipped)


def _folded(records, tol=1e-9):
    """The ``consistency_triples`` fields of a suite's records, tallied
    one record at a time, with the ``tol`` the summary judges at."""
    run = proven = skipped = 0
    worst, fails = 0.0, []
    for rec in records:
        if rec["skipped"]:
            skipped += 1
            continue
        run += 1
        proven += rec["proven"]
        worst = max(worst, rec["max_residual"])
        if not rec["pass"]:
            fails.append(rec["triple"])
    return {"pass": run > 0 and not fails, "run": run, "proven": proven,
            "skipped": skipped, "max_residual": worst, "failures": fails, "tol": tol}


@pytest.mark.parametrize("flipped", [False, True])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_the_summary_is_the_fold_of_the_suite_records(rank, flipped, params, request):
    # with the flipped exchange the oracle samples, fails and draws, so the
    # failures, the worst residual and the generator states must agree too
    if flipped:
        request.getfixturevalue("sign_flipped_exchange")
    cd = cartan("A", rank)
    rng_a, rng_b = default_rng(9), default_rng(9)
    got = intertwine.consistency_summary(cd, params, samples=5, rng=rng_a)
    assert got == _folded(consistency_suite(cd, params, samples=5, rng=rng_b))
    assert rng_a.getstate() == rng_b.getstate()
    assert got["run"] + got["skipped"] == 4 * (rank + 1) * (4 * rank) ** 2
    assert (got["pass"], bool(got["failures"]), got["max_residual"] > 0) == (
        not flipped, flipped, flipped)


def test_the_report_decides_each_vertex_move_once(params, monkeypatch, cold_memos):
    # A4: one move verdict per (family, a, current), 4 * 5 * 16, not two
    # per triple (10,240); one exchange inversion per (kinds, class) that
    # inverts, or per pair that does not; and no per-triple record on the
    # report's path
    calls = dict.fromkeys(("_move_case", "_exchange_inverts", "_settled"), 0)
    for name in calls:
        def counted(*args, real=getattr(intertwine, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(intertwine, name, counted)
    cfg = report.RunConfig(algebra="A4", suites=("intertwine",), samples=30)
    rec = next(c for c in report.run(cfg)["suites"][0]["checks"]
               if c["id"] == "consistency_triples")
    assert (rec["pass"], rec["run"], rec["proven"], rec["skipped"]) == (True, 4056, 4056, 1064)
    assert calls == {"_move_case": 320, "_exchange_inverts": 70, "_settled": 0}


def _triples(cd):
    currents = [(k, i) for k in ("H+", "H-", "E", "F") for i in cd.nodes()]
    for fam in intertwine.VERTEX_KINDS:
        for a in range(0, cd.rank + 1):
            for xk, xi in currents:
                for yk, yi in currents:
                    yield fam, a, xk, xi, yk, yi


@pytest.mark.parametrize("rank,samples", [(2, 10), (3, 4)])
def test_suite_memo_gives_the_records_of_fresh_triples(rank, samples, params):
    cd = cartan("A", rank)
    got = list(consistency_suite(cd, params, samples=samples, rng=11))
    rng = np.random.default_rng(11)
    want = []
    for fam, a, xk, xi, yk, yi in _triples(cd):
        rec = verify_consistency(fam, a, xk, xi, yk, yi, cd, params, samples, 1e-9, rng)
        rec.update({"family": fam, "component": a, "x": f"{xk}_{xi}", "y": f"{yk}_{yi}"})
        want.append(rec)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
        if not g["skipped"]:
            assert (g["samples"], g["max_residual"]) == (w["samples"], w["max_residual"])


def _scalar_point(rng):
    """One try's point, one scalar uniform per coordinate."""
    return {n: complex(rng.uniform(-2, 2), rng.uniform(-0.2, 0.2)) for n in ("u", "v", "z")}


def _scalar_draw_residual(path_a, path_b, params, samples, rng):
    """Both paths at every try, one scalar uniform per coordinate."""
    worst = 0.0
    done = tries = 0
    while done < samples and tries < samples + 200:
        tries += 1
        pt = _scalar_point(rng)
        try:
            va = path_a.eval(pt, params)
            vb = path_b.eval(pt, params)
        except ArithmeticError:
            continue
        worst = max(worst, abs(va - vb) / max(1.0, abs(va), abs(vb)))
        done += 1
    return done, worst


def _paths(cd, fam, a, xk, xi, yk, yi, memo=None):
    """Both path products of a triple, built through the module's current
    ``exchange_fn``, each coefficient once per ``memo``; raises
    DeltaBearingMove in the order cx, cy, rxy, ryx."""
    memo = {} if memo is None else memo

    def coeff(build, *args):
        if args not in memo:
            memo[args] = build(*args)
        return memo[args]

    cx = coeff(vertex_move_coeff, fam, a, xk, xi, cd.rank, "u")
    cy = coeff(vertex_move_coeff, fam, a, yk, yi, cd.rank, "v")
    rxy = coeff(intertwine.exchange_fn, xk, xi, yk, yi, cd, "u", "v")
    ryx = coeff(intertwine.exchange_fn, yk, yi, xk, xi, cd, "v", "u")
    return cx * cy, rxy * cy * cx * ryx


def _triple_of(rec):
    (xk, xi), (yk, yi) = (c.rsplit("_", 1) for c in (rec["x"], rec["y"]))
    return rec["family"], rec["component"], xk, int(xi), yk, int(yi)


def test_triples_match_evaluating_both_paths_with_scalar_draws(params,
                                                                sign_flipped_exchange):
    # the flipped exchange leaves its triples to the sampled branch
    cd = cartan("A", 2)
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    sampled = 0
    for fam, a, xk, xi, yk, yi in _triples(cd):
        rec = verify_consistency(fam, a, xk, xi, yk, yi, cd, params, 6, 1e-9, rng_a)
        try:
            path_a, path_b = _paths(cd, fam, a, xk, xi, yk, yi)
        except DeltaBearingMove as exc:
            assert rec["skipped"] and rec["reason"] == str(exc)
            continue
        # proven exactly when both paths have one odd-sh normal form; a
        # proven triple evaluates and draws nothing
        form = path_a.odd_normal_form()
        assert rec["proven"] == (form is not None and form == path_b.odd_normal_form())
        if rec["proven"]:
            assert (rec["samples"], rec["max_residual"], rec["pass"]) == (0, 0.0, True)
            continue
        sampled += 1
        done, worst = _scalar_draw_residual(path_a, path_b, params, 6, rng_b)
        assert (rec["samples"], rec["max_residual"]) == (done, worst)
    assert sampled
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def _suite_evals(cd, params, monkeypatch):
    """The suite's records, the points it evaluated, and per
    ``verify_consistency`` call the record and the points inside it."""
    evals, calls = [0], []
    real_values, real_verify = Plan.values, intertwine.verify_consistency

    def counted_values(self, pt):
        evals[0] += 1
        return real_values(self, pt)

    def verify(*args):
        before = evals[0]
        rec = real_verify(*args)
        calls.append((rec, evals[0] - before))
        return rec

    monkeypatch.setattr(Plan, "values", counted_values)
    monkeypatch.setattr(intertwine, "verify_consistency", verify)
    out = list(consistency_suite(cd, params, samples=2))
    monkeypatch.undo()
    return out, evals[0], calls


def test_proven_triples_evaluate_no_point(params, monkeypatch, request):
    # A4: all 4,056 unskipped triples are proven, and the suite evaluates
    # no point and calls the oracle for none
    out, evals, calls = _suite_evals(cartan("A", 4), params, monkeypatch)
    ran = [r for r in out if not r["skipped"]]
    assert (len(out), len(ran), evals, calls) == (5120, 4056, 0, [])
    assert all(r["proven"] and r["pass"] for r in ran)
    # with one exchange flipped, points are evaluated only inside the
    # oracle calls of its triples, and each of those triples fails
    flipped = request.getfixturevalue("sign_flipped_exchange")
    out, evals, calls = _suite_evals(cartan("A", 4), params, monkeypatch)
    ran = [r for r in out if not r["skipped"]]
    hit = [r for r in ran if (r["x"], r["y"]) == flipped]
    assert len(ran) == 4056 and hit and [rec for rec, _ in calls] == hit
    assert evals == sum(n for _, n in calls) and all(n for _, n in calls)
    assert all(not r["proven"] and not r["pass"] for r in hit)
    assert all(r["proven"] and r["pass"] for r in ran if (r["x"], r["y"]) != flipped)


def test_a_flipped_exchange_fails_exactly_its_triples(params, sign_flipped_exchange):
    ran = [r for r in consistency_suite(cartan("A", 2), params, samples=5)
           if not r["skipped"]]
    hit = [r["triple"] for r in ran if (r["x"], r["y"]) == sign_flipped_exchange]
    assert hit
    for r in ran:
        assert r["proven"] == r["pass"] == (r["triple"] not in hit), r
    cfg = report.RunConfig(algebra="A2", suites=("intertwine",), samples=30)
    rec = next(c for c in report.run(cfg)["suites"][0]["checks"]
               if c["id"] == "consistency_triples")
    assert (rec["pass"], rec["run"], rec["proven"], rec["failures"]) == (
        False, len(ran), len(ran) - len(hit), hit)


@pytest.mark.parametrize("rank,run,differing", [
    (1, 72, 24), (2, 520, 144), (3, 1720, 360), (4, 4056, 672), (5, 7912, 1080)])
def test_every_run_triple_is_proven(rank, run, differing, params):
    # ``differing`` triples have paths whose terms differ; their normal
    # forms agree through sh(-x) = -sh(x)
    cd = cartan("A", rank)
    ran = [r for r in consistency_suite(cd, params, samples=1) if not r["skipped"]]
    assert len(ran) == sum(r["proven"] and r["pass"] for r in ran) == run
    terms, memo = [], {}
    for r in ran:
        (path_a,), (path_b,) = (p.terms for p in _paths(cd, *_triple_of(r), memo))
        terms.append((path_a.scalar, path_a.factors) != (path_b.scalar, path_b.factors))
    assert sum(terms) == differing


def test_proven_triples_agree_at_sampled_points(params):
    # the sampled oracle on every proven triple of A2
    cd = cartan("A", 2)
    rng = np.random.default_rng(7)
    for r in consistency_suite(cd, params, samples=1):
        if r["skipped"]:
            continue
        assert r["proven"]
        path_a, path_b = _paths(cd, *_triple_of(r))
        worst, done = sample_max(
            lambda pt: relative_residual(path_a.eval(pt, params), path_b.eval(pt, params)),
            intertwine._DIAMOND_WINDOWS, 5, rng)
        assert done == 5 and worst < 1e-12, r["triple"]


def test_a_proven_triple_draws_nothing(params):
    cd = cartan("A", 2)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    proven = 0
    for fam, a, xk, xi, yk, yi in _triples(cd):
        rec = verify_consistency(fam, a, xk, xi, yk, yi, cd, params, 10, 1e-9, rng)
        proven += rec.get("proven", False)
        assert rng.bit_generator.state == state, rec["triple"]
    assert proven == 520


@pytest.mark.parametrize("offset,samples", [(0.0, 20), (1e-3, 20), (0.0, 300)])
def test_batched_draws_follow_the_scalar_stream_through_rejections(offset, samples, params,
                                                                   monkeypatch):
    # the oracle samples H+_1 H+_1 on A1, with its reverse exchange scaled
    # by 1 + offset and no normal form; every point with Re u > 0 is
    # rejected, about half, and samples=300 exhausts the samples + 200
    # tries before reaching its count
    real_fn, real_values = intertwine.exchange_fn, Plan.values

    def scaled(*args):
        expr = real_fn(*args)
        return expr.scaled(1.0 + offset) if args[5] == "v" else expr

    def rejecting(self, pt):
        if pt["u"].real > 0:
            raise ArithmeticError("rejected")
        return real_values(self, pt)

    monkeypatch.setattr(intertwine, "exchange_fn", scaled)
    monkeypatch.setattr(DistExpr, "odd_normal_form", lambda self: None)
    monkeypatch.setattr(Plan, "values", rejecting)
    cd, triple = cartan("A", 1), ("Phi", 0, "H+", 1, "H+", 1)
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    rec = verify_consistency(*triple, cd, params, samples, 1e-9, rng_a)
    done, worst = _scalar_draw_residual(*_paths(cd, *triple), params, samples, rng_b)
    assert (rec["samples"], rec["max_residual"]) == (done, worst)
    assert 0 < done <= samples and (done < samples) == (samples == 300)
    assert not rec["proven"] and rec["pass"] == (offset == 0.0)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_diamonds_are_blind_to_the_vertex_coefficients(params, monkeypatch, request):
    # every coefficient is a commuting scalar function, so path B is path
    # A times rxy ryx and the vertex costs cancel: moving the catalog's
    # shift offsets and one quarter-shift changes no record
    cd = cartan("A", 2)
    want = list(consistency_suite(cd, params, samples=5))
    before = vertex_move_coeff("Phi", 1, "H+", 1, 2, "u").to_json()
    monkeypatch.setattr(intertwine, "_CASE_OFFSETS", {"j": -3, "j-1": +5, "other": 0})
    monkeypatch.setitem(intertwine.EXTRAS["Phi"], "H+", Fraction(7, 5))
    assert vertex_move_coeff("Phi", 1, "H+", 1, 2, "u").to_json() != before
    assert list(consistency_suite(cd, params, samples=5)) == want
    # the exchanges are what the suite tests: a flipped one still fails
    # exactly its triples
    flipped = request.getfixturevalue("sign_flipped_exchange")
    ran = [r for r in consistency_suite(cd, params, samples=5) if not r["skipped"]]
    assert {r["triple"] for r in ran if not r["pass"]} == {
        r["triple"] for r in ran if (r["x"], r["y"]) == flipped} != set()


def test_memo_builds_each_exchange_once(params, monkeypatch):
    calls = []
    real = intertwine.exchange_fn

    def counted(*args):
        calls.append(args[:4] + args[5:])
        return real(*args)

    monkeypatch.setattr(intertwine, "exchange_fn", counted)
    out = list(consistency_suite(cartan("A", 2), params, samples=2))
    assert len(calls) == len(set(calls))
    assert any(r["skipped"] for r in out) and all(r["pass"] for r in out)


def test_each_ratio_expression_is_built_once_per_factor_pair(params, monkeypatch,
                                                              cold_memos):
    # a pair and its reverse, and every node pair with the same B_ij, read
    # one printed ratio expression: an A4 suite asks for 112 ratios of 40
    # distinct (relation, i, j, sign), which have 17 distinct (num, den)
    asked = []
    real = structfn.ratio

    def recorded(*args, **kwargs):
        sr = real(*args, **kwargs)
        asked.append((args[:3] + (kwargs["sign"],), (sr.num, sr.den), sr.ratio))
        return sr

    monkeypatch.setattr(structfn, "ratio", recorded)
    cd = cartan("A", 4)
    out = list(consistency_suite(cd, params, samples=2))
    shared = {key: {id(expr) for _, k, expr in asked if k == key} for _, key, _ in asked}
    assert (len(asked), len({a for a, _, _ in asked}), len(shared)) == (112, 40, 17)
    assert all(len(ids) == 1 for ids in shared.values())
    assert structfn._ratio.cache_info().misses == 17
    # a second suite builds none and gives the same records
    assert list(consistency_suite(cd, params, samples=2)) == out
    assert structfn._ratio.cache_info().misses == 17


def test_suite_catches_an_unflipped_reverse_exchange(params, monkeypatch):
    real = intertwine.exchange_fn

    def one_factor_unflipped(xk, xi, yk, yi, cd, u_name, v_name):
        expr = real(xk, xi, yk, yi, cd, u_name, v_name)
        if structfn.exchange_relation(xk, yk) is not None or not expr.terms[0].factors:
            return expr   # printed orientation, or a trivial exchange
        (t,) = expr.terms
        f = t.factors[0]
        return DistExpr((Term(t.scalar, (TrigFactor(f.period, f.arg, -f.exponent),)
                              + t.factors[1:]),))

    monkeypatch.setattr(intertwine, "exchange_fn", one_factor_unflipped)
    ran = [r for r in consistency_suite(cartan("A", 2), params, samples=5)
           if not r["skipped"]]
    assert any(not r["pass"] for r in ran)


def test_variant_report_fails_off_the_pole(params, monkeypatch):
    # the Phi/F embedded delta moved a quarter period off its denominator zero
    monkeypatch.setitem(intertwine.EXTRAS["Phi"], "F", Fraction(1, 4))
    rep = variant_report(2, params)
    entry = rep["Phi.F.j"]
    assert entry["self_consistent_variant"] is None
    assert not any(c["normalized_on_denominator_zero"] for c in entry["cases"].values())
    assert rep["Psi.E.j-1"]["self_consistent_variant"] == "normalized"
    cfg = report.RunConfig(algebra="A1", suites=("intertwine",), samples=30)
    checks = {c["id"]: c for c in report.run(cfg)["suites"][0]["checks"]}
    assert checks["variant_report"]["pass"] is False
    monkeypatch.undo()
    checks = {c["id"]: c for c in report.run(cfg)["suites"][0]["checks"]}
    assert checks["variant_report"]["pass"] is True


def test_the_variant_report_keys_each_embedded_delta_where_the_catalog_puts_it(
        params, monkeypatch):
    # the Phi/F embedded delta moved from the j case to the j-1 case
    build = intertwine.catalog
    delta = ("has_embedded_delta", "delta_scalar", "delta_support_printed", "delta_payload")

    def moved(r, p):
        recs = {rec.rid: rec for rec in build(r, p)}
        src = recs["Phi.F.j"]
        recs["Phi.F.j"] = InterRelation(**{**vars(src), **{k: None for k in delta[1:]},
                                           "has_embedded_delta": False})
        recs["Phi.F.j-1"] = InterRelation(**{**vars(recs["Phi.F.j-1"]),
                                             **{k: getattr(src, k) for k in delta}})
        return list(recs.values())

    monkeypatch.setattr(intertwine, "catalog", moved)
    rep = variant_report(2, params)
    assert "Phi.F.j" not in rep and "Phi.F.j-1" in rep
    assert len(rep) == 4 and len(rep["Phi.F.j-1"]["cases"]) == 2


def test_printed_support_in_j_fails_the_record(params, monkeypatch):
    # the Phi/F embedded delta transcribed in the bound index j instead of l
    build = intertwine.catalog

    def rewritten(r, p):
        return [InterRelation(**{**vars(rec),
                                 "delta_support_printed": "u - z - (r-j)/2*ih - 1/2*ih"})
                if rec.rid == "Phi.F.j" else rec for rec in build(r, p)]

    monkeypatch.setattr(intertwine, "catalog", rewritten)
    rep = variant_report(2, params)
    assert not any(c["printed_l_unbound"] for c in rep["Phi.F.j"]["cases"].values())
    assert all(c["printed_l_unbound"] for c in rep["Psi.E.j-1"]["cases"].values())
    cfg = report.RunConfig(algebra="A1", suites=("intertwine",), samples=30)
    checks = {c["id"]: c for c in report.run(cfg)["suites"][0]["checks"]}
    assert checks["variant_report"]["pass"] is False
    monkeypatch.undo()
    checks = {c["id"]: c for c in report.run(cfg)["suites"][0]["checks"]}
    assert checks["variant_report"]["pass"] is True


def test_exchange_fn_delta_pair_raises(params):
    cd = cartan("A", 2)
    with pytest.raises(DeltaBearingMove):
        exchange_fn("E", 1, "F", 1, cd, "u", "v")


def test_vertex_move_inverts_for_current_left_families(params):
    cd = cartan("A", 2)
    a = vertex_move_coeff("Phi", 1, "H+", 1, 2, "u")
    b = vertex_move_coeff("PhiStar", 1, "H+", 1, 2, "u")
    pt = {"u": 0.7, "z": 0.2}
    assert abs(a.eval(pt, params) * b.eval(pt, params) - 1.0) < 1e-12


def test_degeneration():
    rec = intertwine.degeneration_report(2)
    assert rec["pass"]


def test_catalog_golden_file(params, cat2):
    got = json.dumps({"records": export_catalog(cat2, 2)}, sort_keys=True, indent=2)
    want = GOLDEN.read_text()
    assert got.strip() == want.strip()


def test_a_suite_leaves_no_reference_cycle(params):
    # a kept DeltaBearingMove verdict carries no traceback: its frames would
    # hold the suite's records in a cycle until the next garbage collection
    gc.collect()
    gc.disable()
    try:
        out = list(consistency_suite(cartan("A", 3), params, samples=2))
        assert any(r["skipped"] for r in out)
        del out
        assert gc.collect() == 0
    finally:
        gc.enable()
