"""Each free-field record sees its nodes only through their class.

``report.run`` and ``hopf.verify_homomorphism`` evaluate one record per
node class (``liealg.node_class``) and copy it to the class's other
records.  These tests run every record of a class on its own, each from
the same seed, and check that the results agree bit for bit; a structure
function that reads the nodes beyond the class must break that.
"""

import functools
from collections import defaultdict

import numpy as np
import pytest

from curalg import hopf, intertwine, report, structfn
from curalg.boson import checks
from curalg.liealg import adjacent_pairs, cartan, node_class
from curalg.params import ParamTower

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
