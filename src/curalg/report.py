"""Run configuration, suite orchestration and machine-readable reports.

A run is fully determined by (algebra, hbar, eta, levels, samples,
tolerances, seed): fixed seed means byte-identical JSON output.  Suites
execute in dependency order; the report carries one record per check
with its residual and pass flag, plus a text summary.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from fractions import Fraction
from functools import cached_property

from . import evalrep, hopf, intertwine, structfn
from .boson import checks as bchecks
from .boson import master
from .boson.currents import current as bcur
from .boson.kernel import kernel_value
from .evalplan import worst_of
from .liealg import CartanData, adjacent_pairs, from_label, node_class
from .params import ParamTower, check_genericity
from .rng import Generator, SeedSequence, default_rng
from .trigcalc import DistExpr, ShiftExpr, TrigFactor, judged, sample_max, var

SUITES = ("liealg", "params", "trigcalc", "structfn", "evalrep", "boson",
          "hopf", "intertwine")
HOPF_PARTS = ("axioms", "structural", "homomorphism", "audit")


class RunConfig:
    def __init__(self, algebra: str = "A2", hbar: float = 0.1, eta: float = 1.0,
                 levels: tuple[float, ...] = (1.0, 1.0, 1.0), suites: tuple[str, ...] = SUITES,
                 samples: int = 50, tol: float = 1e-8, tol_quadrature: float = 1e-6,
                 seed: int = 0, out: str | None = None, variant: str = "normalized",
                 pairs: str = "all", hopf_parts: tuple[str, ...] = HOPF_PARTS) -> None:
        self.algebra = algebra
        self.hbar = hbar
        self.eta = eta
        self.levels = levels
        self.suites = suites
        self.samples = samples
        self.tol = tol                  # delta-free comparisons
        self.tol_quadrature = tol_quadrature
        self.seed = seed
        self.out = out
        self.variant = variant
        self.pairs = pairs              # boson exchange filter: all | X1:Y2,...
        self.hopf_parts = hopf_parts
        for name, least in (("seed", 0), ("samples", 1)):
            x = getattr(self, name)
            if type(x) is not int or x < least:
                raise ValueError(f"{name} {x!r}: expected an int of at least {least}")
        for name in ("tol", "tol_quadrature"):
            x = getattr(self, name)
            if not x >= 0:   # negative or NaN
                raise ValueError(f"{name} {x!r}: expected a number of at least 0")
        if self.variant not in ("printed", "normalized"):
            raise ValueError(f"variant {self.variant!r}: expected 'printed' or 'normalized'")
        for name, known in (("suites", SUITES), ("hopf_parts", HOPF_PARTS)):
            unknown = [x for x in getattr(self, name) if x not in known]
            if unknown:
                raise ValueError(f"{name} {unknown}: expected some of {known}")
        if self.pairs != "all":
            known = {_pair_id(x, y) for x, y, _rel in _boson_pair_catalog(self.cartan())}
            unknown = [p for p in self.pairs.split(",") if p not in known]
            if unknown:
                raise ValueError(f"pairs {','.join(unknown)}: no exchange pair of {self.algebra}")

    def cartan(self) -> CartanData:
        return from_label(self.algebra)

    def tower(self) -> ParamTower:
        return ParamTower(self.hbar, self.eta, tuple(self.levels))

    def tower_level0(self) -> ParamTower:
        return ParamTower(self.hbar, self.eta, (0.0,))


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; values in JSON syntax; a '#' comment on
    a line of its own or after a value (a '#' inside a JSON string is the
    string's).  A key may be set once."""
    decode = json.JSONDecoder().raw_decode
    out: dict = {}
    key_lines: dict[str, int] = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            key = key.strip()
            if not eq or "#" in key:
                raise ValueError(f"{path}:{ln}: expected 'key = value'")
            first = key_lines.setdefault(key, ln)
            if first != ln:
                raise ValueError(f"{path}:{ln}: {key!r} is already set on line {first}")
            val = val.strip()
            out[key], end = decode(val)
            rest = val[end:].lstrip()
            if rest and not rest.startswith("#"):
                raise ValueError(f"{path}:{ln}: {rest!r} after the value; expected a '#' comment")
    return out


def config_from_sources(file_vals: dict | None, overrides: dict) -> RunConfig:
    vals: dict = {}
    if file_vals:
        vals.update(file_vals)
    vals.update({k: v for k, v in overrides.items() if v is not None})
    if "levels" in vals:
        vals["levels"] = tuple(float(x) for x in vals["levels"])
    if "suites" in vals:
        vals["suites"] = tuple(vals["suites"])
    if "hopf_parts" in vals:
        vals["hopf_parts"] = tuple(vals["hopf_parts"])
    return RunConfig(**vals)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


class _Shared:
    """What more than one suite of a run reads, each built at first use."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    @cached_property
    def tower(self) -> ParamTower:
        """The run's tower: one object, so the caches keyed on a tower
        find it by identity rather than by comparing fields."""
        return self.cfg.tower()

    @cached_property
    def tower0(self) -> ParamTower:
        """The level-0 tower of the evaluation module."""
        return self.cfg.tower_level0()

    @cached_property
    def module0(self) -> evalrep.EvalRep:
        """The level-0 evaluation module (A series), built once per run."""
        return evalrep.build(self.cfg.cartan().rank, self.tower0)


def _suite_liealg(cfg: RunConfig, rng, shared: _Shared) -> list[dict]:
    cd = cfg.cartan()
    sym = all(cd.a_entry(i, j) == cd.a_entry(j, i)
              for i in cd.nodes() for j in cd.nodes())
    half = all(2 * cd.b_entry(i, j) == cd.a_entry(i, j)
               for i in cd.nodes() for j in cd.nodes())
    pairs = len(adjacent_pairs(cd))
    return [
        {"id": "cartan_symmetric", "pass": sym, "max_residual": 0.0},
        {"id": "half_matrix_exact", "pass": half, "max_residual": 0.0},
        # a simply-laced Dynkin diagram is a tree: rank - 1 edges, each in both orientations
        {"id": "adjacent_pairs", "pass": pairs == 2 * (cd.rank - 1),
         "value": pairs, "max_residual": 0.0},
    ]


def _suite_params(cfg: RunConfig, rng, shared: _Shared) -> list[dict]:
    tower = shared.tower
    worst = worst_of(*(abs(1.0 / tower.eta_at(n + 1) - 1.0 / tower.eta_at(n)
                           - cfg.hbar * level) for n, level in enumerate(cfg.levels)))
    return [
        {"id": "tower_recursion", **judged(worst, 1e-12)},
        {"id": "genericity", "pass": True, "generic": bool(check_genericity(cfg.hbar, cfg.eta)),
         "max_residual": 0.0},
    ]


def _suite_trigcalc(cfg: RunConfig, rng, shared: _Shared) -> list[dict]:
    params = shared.tower
    out = []
    window = ((-2.0, 2.0), (-0.3, 0.3))
    # half-period flip identity, sampled
    f = TrigFactor(0, var("u"), 1)
    g = TrigFactor(0, var("u") - ShiftExpr.lattice_units(0, 1), 1)

    def flip_residual(pt):
        a = f.eval(pt, params)
        return abs(a + g.eval(pt, params)) / max(1.0, abs(a))

    worst, done = sample_max(flip_residual, {"u": window}, cfg.samples, rng, retries=0)
    out.append({"id": "half_period_flip", **judged(worst, cfg.tol, done)})
    # product evaluation property
    ea = DistExpr.from_factors(2.0, (TrigFactor(0, var("u") - var("v"), 1),))
    eb = DistExpr.from_factors(1.5, (TrigFactor(0, var("u"), -1),))
    prod = ea * eb

    def product_residual(pt):
        lhs = prod.eval(pt, params)
        rhs = ea.eval(pt, params) * eb.eval(pt, params)
        return abs(lhs - rhs) / max(1.0, abs(rhs))

    worst, done = sample_max(product_residual, {"u": window, "v": window}, cfg.samples, rng)
    out.append({"id": "product_eval", **judged(worst, cfg.tol, done)})
    # residue against a numeric contour integral
    expr = DistExpr.from_factors(1.0, (
        TrigFactor(0, var("u") - var("z"), -1),
        TrigFactor(0, var("u") + var("z"), 1),
    ))
    res_sym = expr.residue("u", var("z"), params)
    z0 = 0.37 + 0.05j
    circ = 0.0 + 0.0j
    npts = 256
    rad = 0.05
    for k in range(npts):
        th = 2 * math.pi * k / npts
        u = z0 + rad * complex(math.cos(th), math.sin(th))
        circ += expr.eval({"u": u, "z": z0}, params) * rad * complex(math.cos(th), math.sin(th))
    circ /= npts
    want = res_sym.eval({"z": z0}, params)
    out.append({"id": "residue_contour",
                **judged(abs(circ - want) / max(1.0, abs(want)), 1e-8)})
    return out


def _suite_structfn(cfg: RunConfig, rng, shared: _Shared) -> list[dict]:
    params = shared.tower
    cd = cfg.cartan()
    out = []
    c1 = Fraction(1)
    w_window = {"w": ((-2.0, 2.0), (-0.2, 0.2))}

    def sampled(residual, windows, tries, worst, done):
        """(worst, done) so far, extended by ``tries`` fixed draws."""
        w, d = sample_max(residual, windows, tries, rng, retries=0)
        return max(worst, w), done + d

    worst, done = 0.0, 0
    for rel in ("EE", "FF", "HH_same"):
        for i in cd.nodes():
            for j in cd.nodes():
                # R_ij(w) R_ji(-w): the exchange applied twice must give 1
                rij = structfn.ratio(rel, i, j, cd, c1)
                rji = structfn.ratio(rel, j, i, cd, c1)
                worst, done = sampled(
                    lambda pt: abs(rij.eval(pt["w"], params) * rji.eval(-pt["w"], params) - 1.0),
                    w_window, 8, worst, done)
    out.append({"id": "inversion", **judged(worst, cfg.tol, done)})
    # level-0 H+H- ratio is identically 1
    tower0 = shared.tower0
    worst, done = 0.0, 0
    for i in cd.nodes():
        sr = structfn.ratio("HH_pm", i, i, cd, c=0)
        worst, done = sampled(lambda pt: abs(sr.eval(pt["w"], tower0) - 1.0),
                              w_window, 20, worst, done)
    out.append({"id": "hh_pm_level0_trivial", **judged(worst, cfg.tol, done)})
    # eta -> 0 degeneration toward rational ratios
    small = ParamTower(cfg.hbar, 1e-4, (1.0,))
    worst, done = 0.0, 0
    for rel in ("EE", "HE"):
        sr = structfn.ratio(rel, 1, 1, cd, c=1)
        worst, done = sampled(
            lambda pt: abs(sr.eval(pt["w"], small) - sr.rational_eval(pt["w"], small)),
            {"w": ((-2.0, 2.0), (-0.05, 0.05))}, 20, worst, done)
    out.append({"id": "degeneration", **judged(worst, 1e-3, done)})
    coefE = structfn.serre_coefficient(tower0, "E")
    coefF = structfn.serre_coefficient(tower0, "F")
    out.append({"id": "serre_coefficient_level0", **judged(abs(coefE - coefF), 1e-14)})
    return out


def _suite_evalrep(cfg: RunConfig, rng, shared: _Shared) -> list[dict]:
    cd = cfg.cartan()
    if cd.series != "A":
        return [{"id": "skipped_non_A_series", "pass": True, "max_residual": 0.0,
                 "note": "finite-dimensional module exists for the A series only"}]
    rep = shared.module0
    out = []
    recs = evalrep.verify_all(rep, samples=cfg.samples, tol=1e-9, seed=rng)
    for rec in recs:
        rec["id"] = f"{rec['relation']}_{rec['i']}{rec['j']}" + \
            (f"_s{rec['sign']}" if "sign" in rec else "")
        out.append(rec)
    deg = evalrep.degeneration_report(cd.rank, hbar=cfg.hbar, rng=rng)
    deg["id"] = "degeneration"
    out.append(deg)
    inv = evalrep.pole_inventory(rep)
    out.append({"id": "pole_inventory",
                "pass": not any(p["strictly_inside_shifted_strip"] for p in inv),
                "poles": len(inv), "max_residual": 0.0})
    return out


def _boson_pair_catalog(cd: CartanData):
    pairs = []
    for i in cd.nodes():
        for j in cd.nodes():
            for xk, yk, rel, sign in structfn.EXCHANGES:
                pairs.append(((xk, i), (yk, j), (rel, sign)))
            if i != j:
                pairs.append((("E", i), ("F", j), ("one", +1)))
    return pairs


def _pair_id(x: tuple[str, int], y: tuple[str, int]) -> str:
    """A catalog pair as the ``pairs`` filter names it, e.g. ``H+1:F2``."""
    return f"{x[0]}{x[1]}:{y[0]}{y[1]}"


def _per_class(memo: dict, key, evaluate, **own) -> dict:
    """The record of the node class ``key`` (``liealg.node_class``, with
    what else the identity reads), evaluated once per ``memo`` by
    ``evaluate`` and carrying the record's ``own`` id and node fields.
    ``memo`` lasts one loop of one run."""
    if key not in memo:
        memo[key] = evaluate()
    return {**memo[key], **own}


def _exchange_record(xk: str, xi: int, yk: str, yj: int, rel: str, sign: int,
                     cd: CartanData, params: ParamTower, samples: int, tol: float,
                     rng: Generator) -> dict:
    """The ``exchange_*`` record of X_xi(u) Y_yj(v), ``rel`` "one" for E-F."""
    x = bcur(xk, xi, "u")
    y = bcur(yk, yj, "v")
    if rel == "one":
        sr = structfn.StructureRatio("one", xi, yj, Fraction(1), (), ())
    else:
        sr = structfn.ratio(rel, xi, yj, cd, c=1, sign=sign)
    rec = bchecks.exchange_check(x, y, sr, cd, params, samples=samples, tol=tol, rng=rng)
    rec["closed_form"] = bchecks.word_exponent((x, y), cd, params).describe()
    return rec


def _suite_boson(cfg: RunConfig, rng, shared: _Shared) -> list[dict]:
    params = shared.tower
    cd = cfg.cartan()
    if params.max_level() < 1 or params.c_at(0) != 1.0:
        return [{"id": "config_error", "pass": False, "max_residual": float("inf"),
                 "note": "the free-field realization is level 1: set levels[0] = 1"}]
    out = []
    # kernel antisymmetry and index symmetry
    def kernel_residual(pt):
        lam = pt["lam"]
        if abs(lam) < 0.1:
            return None
        residuals = []
        for i in cd.nodes():
            for j in cd.nodes():
                a = kernel_value(cd, i, j, lam, params)
                b = kernel_value(cd, i, j, -lam, params)
                c = kernel_value(cd, j, i, lam, params)
                residuals += (abs(a + b), abs(a - c))
        return worst_of(*residuals)

    worst, done = sample_max(kernel_residual, {"lam": ((-3.0, 3.0), (-0.5, 0.5))}, 100, rng,
                             retries=0)
    out.append({"id": "kernel_symmetries", **judged(worst, 1e-12, done)})
    # master formula against contour quadrature
    xs = [(0.2 + (3.0 - 0.2) * k / 19.0) / params.eta for k in range(20)]
    worst = worst_of(*(abs(master.master_integral(x, params.eta)
                           - master.master_integral_quadrature(x, params.eta)) for x in xs))
    out.append({"id": "master_vs_quadrature", **judged(worst, cfg.tol_quadrature)})
    # k = 19 would be x = 3.0, a pole of Gamma(1 - x), where the identity has no value
    worst = worst_of(*(master.gamma_reflection_defect(0.2 + 2.8 * k / 19.0) for k in range(19)))
    out.append({"id": "gamma_reflection", **judged(worst, 1e-10)})
    # exchange relations for every delta-free ordered pair; a record sees
    # its nodes only through their class, evaluated at its first record
    exchanges: dict = {}
    for (xk, xi), (yk, yj), (rel, sign) in _boson_pair_catalog(cd):
        if cfg.pairs != "all" and _pair_id((xk, xi), (yk, yj)) not in cfg.pairs.split(","):
            continue
        out.append(_per_class(
            exchanges, (xk, yk, rel, sign, node_class(cd, xi, yj)),
            lambda: _exchange_record(xk, xi, yk, yj, rel, sign, cd, params,
                                       max(30, cfg.samples // 2), cfg.tol, rng),
            id=f"exchange_{xk}{xi}_{yk}{yj}", pair=f"{xk}_{xi}|{yk}_{yj}"))
    ef_deltas: dict = {}
    for i in cd.nodes():
        out.append(_per_class(
            ef_deltas, node_class(cd, i, i),
            lambda: bchecks.ef_delta_check(i, cd, params, tol=cfg.tol, rng=rng),
            id=f"ef_delta_{i}", i=i))
    serres: dict = {}
    for i, j in adjacent_pairs(cd):
        out.append(_per_class(
            serres, node_class(cd, i, j),
            lambda: bchecks.serre_check(i, j, cd, params, samples=max(10, cfg.samples // 3),
                                        tol=1e-7, rng=rng),
            id=f"serre_{i}{j}", pair=(i, j)))
    return out


def _suite_hopf(cfg: RunConfig, rng, shared: _Shared) -> list[dict]:
    cd = cfg.cartan()
    out = []
    parts = cfg.hopf_parts
    if "axioms" in parts and cd.series == "A":
        rep = shared.module0
        for rec in hopf.verify_axioms(rep, rep.params, samples=max(20, cfg.samples // 2),
                                      tol=1e-9, rng=rng):
            rec["id"] = f"axiom_{rec['axiom']}_{rec['generator']}"
            out.append(rec)
    tower = shared.tower
    if "structural" in parts:
        rec = hopf.minus_equals_shifted_plus(tower, cd.rank)
        rec.update({"id": "minus_equals_shifted_plus", "max_residual": 0.0})
        out.append(rec)
        rec = hopf.shift_free_collapse(cd.rank, cfg.hbar, cfg.eta)
        rec.update({"id": "shift_free_collapse", "max_residual": 0.0})
        out.append(rec)
        accord = [hopf.iteration_order_report(k, 1, tower) for k in ("E", "F", "H+")]
        out.append({
            "id": "iteration_order_k3",
            "pass": True,  # measured, not asserted
            "identical": [r["identical"] for r in accord],
            "max_residual": 0.0,
        })
    level2_ok = tower.max_level() >= 2 and cfg.levels[0] == 1.0 and cfg.levels[1] == 1.0
    if ("homomorphism" in parts or "audit" in parts) and not level2_ok:
        out.append({"id": "config_error", "pass": False, "max_residual": float("inf"),
                    "note": "level-2 images need levels starting (1, 1, ...)"})
        return out
    if "homomorphism" in parts:
        for hrec in hopf.verify_homomorphism(cd, tower, samples=max(8, cfg.samples // 6),
                                             tol=1e-7, rng=rng):
            hrec["id"] = f"hom_k2_{hrec['relation']}_{hrec['i']}{hrec['j']}"
            out.append(hrec)
        serres: dict = {}
        for i, j in adjacent_pairs(cd):
            out.append(_per_class(
                serres, node_class(cd, i, j),
                lambda: hopf.verify_serre_level2(cd, tower, i, j,
                                                 samples=max(6, cfg.samples // 8), tol=1e-7,
                                                 rng=rng),
                id=f"hom_k2_serre_{i}{j}", pair=(i, j)))
    if "audit" in parts:
        audits: dict = {}
        for i in cd.nodes():
            out.append(_per_class(audits, node_class(cd, i, i),
                                  lambda: hopf.ef_pole_audit_level2(cd, tower, i),
                                  id=f"ef_pole_audit_k2_{i}", i=i))
    return out


def _suite_intertwine(cfg: RunConfig, rng, shared: _Shared) -> list[dict]:
    cd = cfg.cartan()
    if cd.series != "A":
        return [{"id": "skipped_non_A_series", "pass": True, "max_residual": 0.0,
                 "note": "vertex operators intertwine with the A-series module only"}]
    params = shared.tower
    cat = intertwine.catalog(cd.rank, params)
    out = []
    counts = intertwine.catalog_counts(cat)
    counts_ok = all(
        v == {"ratio_cases": 9, "commutators": 1, "embedded_deltas": 1}
        for v in counts.values()
    ) and len(counts) == 4
    out.append({"id": "catalog_counts", "pass": counts_ok, "counts": counts,
                "max_residual": 0.0})
    out.append({"id": "period_discipline",
                "pass": intertwine.period_discipline(cat, cd.rank),
                "max_residual": 0.0})
    diamonds = intertwine.consistency_summary(cd, params, samples=max(10, cfg.samples // 3),
                                              tol=1e-9, rng=rng)
    out.append({"id": "consistency_triples", **diamonds})
    variants = intertwine.variant_report(cd.rank, params)
    ok = all(case["normalized_on_denominator_zero"] and case["printed_l_unbound"]
             for entry in variants.values() for case in entry["cases"].values())
    out.append({"id": "variant_report", "pass": ok, "max_residual": 0.0,
                "report": variants})
    deg = intertwine.degeneration_report(cd.rank, hbar=cfg.hbar, rng=rng)
    deg["id"] = "degeneration"
    out.append(deg)
    return out


_SUITE_FNS = {
    "liealg": _suite_liealg,
    "params": _suite_params,
    "trigcalc": _suite_trigcalc,
    "structfn": _suite_structfn,
    "evalrep": _suite_evalrep,
    "boson": _suite_boson,
    "hopf": _suite_hopf,
    "intertwine": _suite_intertwine,
}


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, complex):
        return [x.real, x.imag]
    return x


def _suite_error(exc: Exception) -> dict:
    """The record of a suite that raised: the error and the innermost frame."""
    import traceback   # only a suite that raised needs it

    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return {"id": "suite_error", "pass": False, "max_residual": float("inf"),
            "error": f"{type(exc).__name__}: {exc}",
            "where": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"}


def run(cfg: RunConfig) -> dict:
    """Execute the selected suites in dependency order."""
    children = SeedSequence(cfg.seed).spawn(len(SUITES))
    shared = _Shared(cfg)
    suites_out = []
    overall = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for idx, name in enumerate(SUITES):
            if name not in cfg.suites:
                continue
            rng = default_rng(children[idx])
            try:
                checks = _SUITE_FNS[name](cfg, rng, shared)
            except Exception as exc:   # one failing record; the later suites still run
                checks = [_suite_error(exc)]
            if not checks:   # a suite that checked nothing has not passed
                checks = [{"id": "no_checks", "pass": False, "max_residual": float("inf"),
                           "note": "the suite ran no check"}]
            ok = all(c.get("pass", False) for c in checks)
            overall = overall and ok
            suites_out.append({"suite": name, "pass": ok, "checks": _jsonable(checks)})
    cfg_echo = dict(vars(cfg))
    cfg_echo.pop("out", None)  # the output channel is not part of the run identity
    report = {
        "config": _jsonable(cfg_echo),
        "suites": suites_out,
        "pass": overall,
    }
    return report


def render_text(report: dict) -> str:
    lines = []
    cfg = report["config"]
    lines.append(f"algebra {cfg['algebra']}  hbar {cfg['hbar']}  eta {cfg['eta']}  "
                 f"levels {cfg['levels']}  seed {cfg['seed']}")
    for suite in report["suites"]:
        mark = "PASS" if suite["pass"] else "FAIL"
        lines.append(f"[{mark}] suite {suite['suite']} ({len(suite['checks'])} checks)")
        for c in suite["checks"]:
            if not c.get("pass", False):
                lines.append(f"    FAIL {c.get('id')}: residual {c.get('max_residual')}")
    lines.append("overall: " + ("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines)


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
