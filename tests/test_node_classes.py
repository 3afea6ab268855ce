"""Each free-field record sees its nodes only through their class, and
each level-0 record only through its translation class.

``report.run`` and ``hopf.verify_homomorphism`` evaluate one record per
node class (``liealg.node_class``) and copy it to the class's other
records.  These tests run every record of a class on its own, each from
the same seed, and check that the results agree bit for bit; a structure
function that reads the nodes beyond the class must break that.

``evalrep.verify_all`` and ``hopf.verify_axioms`` sample one pair or
generator per translation class of the level-0 module, where the exact
step check ``EvalRep.steps`` holds.  The tests below evaluate each pair
and generator on its own, and plant node-reading defects that the step
check must catch.
"""

import functools
import warnings
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from curalg import evalrep, hopf, intertwine, report, structfn
from curalg.boson import checks
from curalg.liealg import adjacent_pairs, cartan, node_class
from curalg.params import ParamTower
from curalg.trigcalc import ShiftExpr, TrigFactor, equal_numeric

NODE_FIELDS = ("pair", "i", "j")


@pytest.fixture
def params():
    return ParamTower(0.1, 1.0, (1.0, 1.0, 1.0))


def _content(rec: dict) -> dict:
    return {k: v for k, v in rec.items() if k not in NODE_FIELDS}


def _classes(cd, params, seed=3):
    """Per record family, {class key: [each record's content]}, every record
    evaluated alone on a fresh stream of ``seed``."""
    rng = functools.partial(np.random.default_rng, seed)
    out = defaultdict(lambda: defaultdict(list))
    for (xk, xi), (yk, yj), (rel, sign) in report._boson_pair_catalog(cd):
        rec = report._exchange_record(xk, xi, yk, yj, rel, sign, cd, params, 4, 1e-8, rng())
        out["exchange"][(xk, yk, rel, sign, node_class(cd, xi, yj))].append(_content(rec))

    @functools.cache
    def image(kind, node, name):
        return hopf._level2_slot_words(kind, node, name, params)

    for rel in structfn.RELATIONS:
        for i in cd.nodes():
            for j in cd.nodes():
                rec = hopf._homomorphism_record(rel, i, j, cd, params, image, 3, 1e-7, rng())
                out["hom_k2"][(rel, node_class(cd, i, j))].append(_content(rec))
    for i, j in adjacent_pairs(cd):
        key = node_class(cd, i, j)
        out["serre"][key].append(_content(checks.serre_check(i, j, cd, params, 3,
                                                             rng=rng())))
        out["hom_k2_serre"][key].append(_content(hopf.verify_serre_level2(
            cd, params, i, j, 3, rng=rng())))
    for i in cd.nodes():
        key = node_class(cd, i, i)
        out["ef_delta"][key].append(_content(checks.ef_delta_check(i, cd, params, rng=rng())))
        out["ef_pole_audit_k2"][key].append(_content(hopf.ef_pole_audit_level2(cd, params, i)))
    return out


def _non_uniform(classes: dict) -> list:
    """The class keys whose records do not all carry one content."""
    return [key for key, recs in classes.items() if any(r != recs[0] for r in recs)]


@pytest.mark.parametrize("label,exchanges", [("D4", 156), ("E6", 354)])
def test_records_of_one_node_class_agree_bit_for_bit(label, exchanges, params):
    cd = cartan(label[0], int(label[1:]))
    got = _classes(cd, params)
    assert sum(map(len, got["exchange"].values())) == exchanges
    # 9 exchanges x 4 classes (2, 0, -1 with i < j, -1 with i > j), and E-F off the diagonal
    assert (len(got["exchange"]), len(got["hom_k2"])) == (39, 24)
    assert len(got["serre"]) == len(got["hom_k2_serre"]) == 2
    assert len(got["ef_delta"]) == len(got["ef_pole_audit_k2"]) == 1
    for family, classes in got.items():
        assert _non_uniform(classes) == [], family
    # the records are sampled, and the residuals are those of passing records
    rec = got["exchange"][("E", "E", "EE", 1, (-1, True))][0]
    assert rec["samples"] == 4 and rec["pass"] and 0.0 < rec["max_residual"] < 1e-8


def test_a_ratio_that_reads_the_nodes_breaks_uniformity(params, monkeypatch):
    # the negative control: a structure function with a factor 1 + 1e-6*i
    real = structfn.ratio

    class NodeReading(structfn.StructureRatio):
        def eval(self, w, p):
            return super().eval(w, p) * (1.0 + 1e-6 * self.i)

    def reading(*args, **kwargs):
        sr = real(*args, **kwargs)
        return NodeReading(sr.relation, sr.i, sr.j, sr.c, sr.num, sr.den)

    monkeypatch.setattr(structfn, "ratio", reading)
    got = _classes(cartan("D", 4), params)
    # every class with more than one first node, E-F (no ratio) aside
    assert len(_non_uniform(got["exchange"])) == 36
    assert len(_non_uniform(got["hom_k2"])) == 24
    assert _non_uniform(got["serre"]) == []


def _exchange_classes(cd):
    """Per (kinds, node class), each ordered pair's two exchanges as JSON,
    or the type of what it raised."""
    currents = [(k, i) for k in ("H+", "H-", "E", "F") for i in cd.nodes()]
    out = defaultdict(list)
    for xk, xi in currents:
        for yk, yi in currents:
            try:
                got = tuple(intertwine.exchange_fn(*x, *y, cd, *names).to_json()
                            for x, y, names in (((xk, xi), (yk, yi), "uv"),
                                                ((yk, yi), (xk, xi), "vu")))
            except intertwine.DeltaBearingMove as exc:
                got = type(exc)
            out[(xk, yk, node_class(cd, xi, yi))].append(got)
    return out


def test_intertwiner_exchanges_are_uniform_per_node_class(params, request):
    got = _exchange_classes(cartan("A", 4))
    assert sum(map(len, got.values())) == 256 and len(got) == 64
    assert _non_uniform(got) == []
    # the negative control: one exchange of E_1 E_1 flipped
    request.getfixturevalue("sign_flipped_exchange")
    assert _non_uniform(_exchange_classes(cartan("A", 4))) == [("E", "E", (2,))]


def test_a_class_copy_names_its_own_nodes():
    rep = report.run(report.RunConfig(algebra="D4", samples=2, seed=0))
    checks_ = [c for s in rep["suites"] if s["suite"] in ("boson", "hopf")
               for c in s["checks"]]
    named = 0
    for c in checks_:
        cid = c["id"]
        if cid.startswith("exchange_"):
            x, y = cid.split("_")[1:]
            assert c["pair"] == f"{x[:-1]}_{x[-1]}|{y[:-1]}_{y[-1]}", c
        elif cid.startswith(("serre_", "hom_k2_serre_")):
            assert tuple(c["pair"]) == tuple(int(n) for n in cid[-2:]), c
        elif cid.startswith("hom_k2_"):
            assert (c["i"], c["j"]) == (int(cid[-2]), int(cid[-1])), c
        elif cid.startswith(("ef_delta_", "ef_pole_audit_k2_")):
            assert c["i"] == int(cid[-1]), c
        else:
            continue
        named += 1
    assert named == 156 + 4 + 6 + 96 + 6 + 4


def test_a_report_does_not_depend_on_the_runs_before_it():
    # every class memo lasts one run: E6 after D4 in one process gives E6's bytes
    e6 = report.RunConfig(algebra="E6", seed=0)
    before = report.report_json(report.run(e6))
    assert report.run(report.RunConfig(algebra="D4", seed=0))["pass"]
    assert report.report_json(report.run(e6)) == before


def test_node_class_keys():
    a3, d4 = cartan("A", 3), cartan("D", 4)
    assert [node_class(a3, 2, j) for j in (1, 2, 3)] == [(-1, False), (2,), (-1, True)]
    assert node_class(a3, 1, 3) == node_class(a3, 3, 1) == (0,)
    assert {node_class(d4, 2, j) for j in (1, 3, 4)} == {(-1, False), (-1, True)}


# ---------------------------------------------------------------------------
# Level 0: translation classes of the evaluation module
# ---------------------------------------------------------------------------


def _module(r, hbar=0.1, eta=1.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return evalrep.build(r, ParamTower(hbar, eta, (0.0,)))


def _last_node_defect(monkeypatch):
    """H+ at the last node only: its numerator factors moved by i*hbar/100."""
    real = evalrep._num_factor

    def planted(r, l, offset):
        f = real(r, l, offset)
        if l != r:
            return f
        return TrigFactor(f.period, f.arg - ShiftExpr.hbar_units(Fraction(1, 100)), f.exponent)

    monkeypatch.setattr(evalrep, "_num_factor", planted)


def _relations_alone(rep, samples=8):
    """Per ``verify_all`` record, (the record, the record of its pair
    evaluated on its own from a fresh stream)."""
    return [(rec, evalrep.verify_relation(rep, rec["relation"], rec["i"], rec["j"],
                                          samples=samples, rng=3, sign=rec.get("sign", 1)))
            for rec in evalrep.verify_all(rep, samples=samples, seed=0)]


def _axioms_alone(rep, samples=8):
    """Per ``verify_axioms`` record, (the record, its generator's axiom
    evaluated on its own from a fresh stream)."""
    out = []
    for rec in hopf.verify_axioms(rep, rep.params, samples=samples):
        kind, _, node = rec["generator"].partition("_")
        sides = {name: (lhs, rhs) for name, lhs, rhs
                 in hopf._axiom_sides(kind, int(node or 0), 0, rep.params)}
        lhs, rhs = sides[rec["axiom"]]
        out.append((rec, equal_numeric(hopf.module_expr(rep, lhs), hopf.module_expr(rep, rhs),
                                       rep.params, samples=samples, rng=3)))
    return out


def _supports(rec):
    return [g["support"] for g in rec.get("groups", ())]


@pytest.mark.parametrize("hbar,eta", [(0.1, 1.0), (0.13, 1.9)])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_every_node_step_of_the_module_is_exactly_covariant(r, hbar, eta):
    rep = _module(r, hbar, eta)
    assert rep.steps == set(range(1, r))
    # the step compares the memoized operators themselves
    assert all((kind, l, None) in rep._ops for kind in evalrep.READ_KINDS for l in range(1, r + 1))


def test_a_step_reads_z_moved_down_and_the_cyclic_index_shift():
    rep = _module(4)
    for kind in evalrep.READ_KINDS:
        assert evalrep._translates(rep.op(kind, 2), rep.op(kind, 3), rep.dim), kind
        assert not evalrep._translates(rep.op(kind, 3), rep.op(kind, 2), rep.dim), kind
    # H+'s identity part holds v_r at node 1 and v_0 at node 2: only a
    # cyclic shift carries the one to the other
    assert dict(rep.op("H+", 1).terms[-1].mat).keys() == {(2, 2), (3, 3), (4, 4)}
    assert dict(rep.op("H+", 2).terms[-1].mat).keys() == {(0, 0), (3, 3), (4, 4)}


@pytest.mark.parametrize("hbar,eta", [(0.1, 1.0), (0.13, 1.9)])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_a_class_copy_carries_what_its_own_evaluation_gives(r, hbar, eta):
    rep = _module(r, hbar, eta)
    relations = _relations_alone(rep)
    assert len(relations) == 9 * r * r + 2 * (r - 1)
    for rec, alone in relations:
        assert rec["pass"] and alone["pass"], (rec, alone)
        assert _supports(rec) == _supports(alone), (rec, alone)
    # the E-F delta supports move with the pair: u = z + (r - i)/2 * i*hbar
    ef = {(rec["i"], rec["j"]): _supports(rec) for rec, _ in relations if rec["relation"] == "EF"}
    q = f"{Fraction(1 - r, 2)}*ih"
    assert ef[1, 1] == [[f"u + -1*z + {q}", f"v + -1*z + {q}"]] and ef[r, r] == [["u + -1*z", "v + -1*z"]]
    for rec, alone in _axioms_alone(rep):
        assert rec["pass"] and alone["pass"], (rec, alone)


def test_a_last_node_defect_breaks_the_steps_into_it(monkeypatch):
    _last_node_defect(monkeypatch)
    rep = _module(4)
    assert rep.steps == {1, 2}
    relations = _relations_alone(rep, samples=20)
    failed = {(rec["relation"], rec.get("sign"), rec["i"], rec["j"]) for rec, _ in relations
              if not rec["pass"]}
    alone = {(rec["relation"], rec.get("sign"), rec["i"], rec["j"]) for rec, own in relations
             if not own["pass"]}
    # the records that fail when every pair is sampled: E-F at (4, 4), and
    # the exchanges of H at node 4 with E or F at nodes 3 and 4
    want = {("EF", None, 4, 4)} | {(rel, sign, 4, j) for rel in ("HE", "HF")
                                   for sign in (1, -1) for j in (3, 4)}
    assert failed == alone == want
    assert all(rec["pass"] == own["pass"] for rec, own in _axioms_alone(rep))
    # the report fails them too, with the degeneration record, which reads H+
    cfg = report.RunConfig(algebra="A4", suites=("evalrep",), seed=0)
    failed_ids = {c["id"] for c in report.run(cfg)["suites"][0]["checks"] if not c["pass"]}
    assert failed_ids == {"degeneration"} | {
        f"{rel}_{i}{j}" + (f"_s{sign}" if sign else "") for rel, sign, i, j in want}


def test_a_node_reading_pole_breaks_every_step(monkeypatch):
    # each pole moved by l/100 * i*hbar: no node is its neighbour translated
    real = evalrep._pole_factor
    monkeypatch.setattr(evalrep, "_pole_factor", lambda r, l: TrigFactor(
        0, real(r, l).arg - ShiftExpr.hbar_units(Fraction(l, 100)), -1))
    rep = _module(3)
    assert rep.steps == set()
    relations = _relations_alone(rep)
    assert all(rec["pass"] == own["pass"] and _supports(rec) == _supports(own)
               for rec, own in relations)


@pytest.mark.parametrize("r,relations,axioms", [(2, 27, 20), (4, 63, 20), (5, 81, 20)])
def test_each_translation_class_is_sampled_once(monkeypatch, r, relations, axioms):
    # every pair and every generator sampled: 36, 144 and 225 relation
    # comparisons, 36, 68 and 84 axiom comparisons
    calls = defaultdict(int)
    for module in (evalrep, hopf):
        real = module.equal_numeric

        def counted(*args, _real=real, _name=module.__name__, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "equal_numeric", counted)
    rep = _module(r)
    assert len(evalrep.verify_all(rep, samples=4)) == 9 * r * r + 2 * (r - 1)
    assert len(hopf.verify_axioms(rep, rep.params, samples=4)) == 4 * (1 + 4 * r)
    assert dict(calls) == {"curalg.evalrep": relations, "curalg.hopf": axioms}
