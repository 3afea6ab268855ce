"""Machine-readable catalog of the vertex-operator commutation relations.

Four families of vertex operators intertwine the level-1 module with the
(r+1)-dimensional evaluation module (the primed scale here is the level-1
one, 1/eta' = 1/eta + hbar).  The type-I pair carries coefficient
functions built on eta' only, the type-II pair on eta only.  Each family
has, against every current it mixes with: a j-component case, a (j-1)
case and a trivial "otherwise" case, plus exactly one pure delta
commutator; one ratio case per family carries an embedded delta term.

Relations are data, not code: a record stores the exact shift pattern
(numerator offset and quarter-shift) and builds its coefficient as a
serialized factor expression, diffable against a golden file.  The
printed delta supports that use the letter l inside j-indexed equations
are transcribed verbatim (``as_printed``, unbound index recorded) next
to the l -> j reading (``normalized``); the variant report states which
one places the delta on the zero of the accompanying ratio denominator,
the only position a boundary-value pinch can produce it at.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from functools import cache
from random import Random
from typing import Iterator, Optional

from . import structfn
from .liealg import CartanData, node_class
from .params import ParamTower
from .evalplan import Plan, worst_of
from .rng import default_rng
from .trigcalc import DistExpr, ShiftExpr, Term, TrigFactor, judged, sample_max, var

VERTEX_KINDS = ("Phi", "PhiStar", "PsiStar", "Psi")

# family -> (vertex on the left in the printed relations, period index)
FAMILY = {
    "Phi": (True, 1),
    "PhiStar": (False, 1),
    "PsiStar": (False, 0),
    "Psi": (True, 0),
}

# family -> {current: quarter-shift ("extra") in the sh arguments}
EXTRAS = {
    "Phi": {"H+": Fraction(3, 4), "H-": Fraction(1, 4), "F": Fraction(1, 2)},
    "PhiStar": {"H+": Fraction(3, 4), "H-": Fraction(1, 4), "F": Fraction(1, 2)},
    "PsiStar": {"H+": Fraction(1, 4), "H-": Fraction(3, 4), "E": Fraction(1, 2)},
    "Psi": {"H+": Fraction(1, 4), "H-": Fraction(3, 4), "E": Fraction(1, 2)},
}

# family -> (current with the pure delta commutator, component constraint,
#            payload word)
COMMUTATOR = {
    "Phi": ("E", "j==l-1", "H-_l(u+ih/4) Phi_l(z)"),
    "PhiStar": ("E", "j==l", "PhiStar_{l-1}(z) H-_l(u+ih/4)"),
    "PsiStar": ("F", "j==l-1", "PsiStar_l(z) H+_l(u+ih/4)"),
    "Psi": ("F", "j==l", "H+_l(u+ih/4) Psi_{l-1}(z)"),
}

# family -> (ratio case carrying the embedded delta, payload component)
EMBEDDED_DELTA = {
    "Phi": ("j", "Phi_{j-1}(z)"),
    "PhiStar": ("j-1", "PhiStar_j(z)"),
    "PsiStar": ("j", "PsiStar_{j-1}(z)"),
    "Psi": ("j-1", "Psi_j(z)"),
}

_CASE_OFFSETS = {"j": -2, "j-1": +2, "other": 0}


class InterRelation:
    def __init__(self, rid: str, vertex: str, vertex_case: str, current: str,
                 vertex_left: bool, period: int, num_off: Optional[int],
                 extra: Optional[Fraction], has_embedded_delta: bool = False,
                 delta_scalar: Optional[complex] = None,
                 delta_support_printed: Optional[str] = None,
                 delta_payload: Optional[str] = None, kron: Optional[str] = None) -> None:
        self.rid = rid
        self.vertex = vertex
        self.vertex_case = vertex_case      # 'j', 'j-1', 'other' or 'commutator'
        self.current = current
        self.vertex_left = vertex_left
        self.period = period
        self.num_off = num_off              # numerator shift offset; None for commutators
        self.extra = extra
        self.has_embedded_delta = has_embedded_delta
        self.delta_scalar = delta_scalar
        self.delta_support_printed = delta_support_printed  # verbatim; may carry unbound l
        self.delta_payload = delta_payload
        self.kron = kron

    def coeff(self, r: int, j: int) -> DistExpr:
        """Concrete exchange coefficient for current node j at rank r."""
        if self.vertex_case == "commutator":
            raise ValueError("pure commutator relations have no ratio coefficient")
        if self.vertex_case == "other":
            return DistExpr.scalar(1.0)
        return _ratio_expr(self.period, r, j, self.num_off, self.extra)

    def delta_support_normalized(self, r: int, j: int) -> Optional[ShiftExpr]:
        if self.delta_scalar is None:
            return None
        base = var("u") - var("z") - ShiftExpr.hbar_units(Fraction(r - j, 2))
        if self.vertex_case == "commutator":
            return base
        return base - ShiftExpr.hbar_units(Fraction(1, 2))


@cache
def _ratio_expr(period: int, r: int, j: int, num_off: int, extra: Fraction) -> DistExpr:
    """The printed coefficient sh(base - (r-j+num_off)/2 ih) / sh(base -
    (r-j)/2 ih), base = u - z - extra ih: exact, so built once per process
    for all its readers (``period_discipline``, ``variant_report``, the
    degeneration report)."""
    base = var("u") - var("z") - ShiftExpr.hbar_units(extra)
    num = TrigFactor(period, base - ShiftExpr.hbar_units(Fraction(r - j + num_off, 2)), 1)
    den = TrigFactor(period, base - ShiftExpr.hbar_units(Fraction(r - j, 2)), -1)
    return DistExpr((Term(1.0, (num, den)),))


def _delta_scalar(period: int, params: ParamTower) -> complex:
    eta_f = params.eta_at(period)
    return cmath.sinh(1j * math.pi * eta_f * params.hbar) / (math.pi * eta_f)


def catalog(r: int, params: ParamTower) -> list[InterRelation]:
    """The full transcribed catalog (one record per printed case)."""
    out: list[InterRelation] = []
    for fam in VERTEX_KINDS:
        vertex_left, period = FAMILY[fam]
        dcase, dpayload = EMBEDDED_DELTA[fam]
        for cur, extra in EXTRAS[fam].items():
            for case in ("j", "j-1", "other"):
                embedded = cur in ("E", "F") and case == dcase
                out.append(InterRelation(
                    rid=f"{fam}.{cur}.{case}",
                    vertex=fam, vertex_case=case, current=cur,
                    vertex_left=vertex_left, period=period,
                    num_off=_CASE_OFFSETS[case] if case != "other" else None,
                    extra=extra if case != "other" else None,
                    has_embedded_delta=embedded,
                    delta_scalar=_delta_scalar(period, params) if embedded else None,
                    delta_support_printed=(
                        "u - z - (r-l)/2*ih - 1/2*ih  [l unbound in the j-indexed relation]"
                        if embedded else None),
                    delta_payload=dpayload if embedded else None,
                ))
        cur, kron, payload = COMMUTATOR[fam]
        out.append(InterRelation(
            rid=f"{fam}.{cur}.commutator",
            vertex=fam, vertex_case="commutator", current=cur,
            vertex_left=vertex_left, period=period,
            num_off=None, extra=None,
            delta_scalar=_delta_scalar(period, params),
            delta_support_printed="u - z - (r-l)/2*ih",
            delta_payload=payload, kron=kron,
        ))
    return out


def catalog_counts(cat: list[InterRelation]) -> dict:
    counts: dict = {}
    for rec in cat:
        slot = counts.setdefault(rec.vertex, {"ratio_cases": 0, "commutators": 0,
                                              "embedded_deltas": 0})
        if rec.vertex_case == "commutator":
            slot["commutators"] += 1
        else:
            slot["ratio_cases"] += 1
            if rec.has_embedded_delta:
                slot["embedded_deltas"] += 1
    return counts


def period_discipline(cat: list[InterRelation], r: int) -> bool:
    """Type-I coefficients reference eta' only, type-II eta only."""
    for rec in cat:
        want = FAMILY[rec.vertex][1]
        if rec.period != want:
            return False
        if rec.vertex_case in ("j", "j-1"):
            for j in range(1, r + 1):
                for t in rec.coeff(r, j).terms:
                    if any(f.period != want for f in t.factors):
                        return False
    return True


# ---------------------------------------------------------------------------
# Consistency engine
# ---------------------------------------------------------------------------


class DeltaBearingMove(Exception):
    """The requested reorder hits a relation with a delta term."""


def _move_case(fam: str, a: int, cur: str, i: int) -> Optional[str]:
    """The printed case ('j' or 'j-1') that moving vertex component a past
    current i pays, None when it pays 1; raises DeltaBearingMove when that
    printed relation carries a delta."""
    com_cur, kron, _pl = COMMUTATOR[fam]
    if cur == com_cur:
        if (a == i - 1) if kron == "j==l-1" else (a == i):
            raise DeltaBearingMove(f"{fam}_{a} against {cur}_{i} (commutator delta)")
        return None
    if cur not in EXTRAS[fam] or a not in (i, i - 1):
        return None
    case = "j" if a == i else "j-1"
    if cur in ("E", "F") and case == EMBEDDED_DELTA[fam][0]:
        raise DeltaBearingMove(f"{fam}_{a} against {cur}_{i} (embedded delta)")
    return case


def vertex_move_coeff(fam: str, a: int, cur: str, i: int, r: int,
                      u_name: str) -> DistExpr:
    """Cost of moving vertex component a rightward past current i.

    Vertex-left families pay the printed ratio; current-left families
    its reciprocal.  Index combinations whose printed relation carries a
    delta raise DeltaBearingMove.
    """
    case = _move_case(fam, a, cur, i)
    if case is None:
        return DistExpr.scalar(1.0)
    expr = _ratio_expr(FAMILY[fam][1], r, i, _CASE_OFFSETS[case], EXTRAS[fam][cur])
    if u_name != "u":
        expr = expr.subs("u", var(u_name))
    return expr if FAMILY[fam][0] else expr.reciprocal()


def exchange_fn(xk: str, xi: int, yk: str, yi: int, cartan: CartanData,
                u_name: str, v_name: str) -> DistExpr:
    """R with X(u) Y(v) = R * Y(v) X(u) at level 1; raises on delta pairs."""
    w_fwd = var(u_name) - var(v_name)
    if {xk, yk} == {"E", "F"}:
        if xi == yi:
            raise DeltaBearingMove(f"{xk}_{xi} against {yk}_{yi}")
        return DistExpr.scalar(1.0)
    forward = structfn.exchange_relation(xk, yk)
    if forward is not None:
        rel, sign = forward
        return structfn.ratio(rel, xi, yi, cartan, c=1, sign=sign).ratio.subs("w", w_fwd)
    backward = structfn.exchange_relation(yk, xk)
    if backward is not None:
        # printed orientation is Y X; invert it at the swapped argument
        rel, sign = backward
        return structfn.ratio(rel, yi, xi, cartan, c=1, sign=sign).ratio.subs(
            "w", -w_fwd).reciprocal()
    raise DeltaBearingMove(f"no delta-free exchange for {xk},{yk}")


# u, v and z, in the order each try draws them
_DIAMOND_WINDOWS = {n: ((-2.0, 2.0), (-0.2, 0.2)) for n in ("u", "v", "z")}


def _settled(triple: str, skip: Optional[DeltaBearingMove] = None) -> dict:
    """The record of a triple skipped by ``skip``, else of a proven one."""
    if skip is not None:
        return {"triple": triple, "skipped": True, "reason": str(skip), "pass": True}
    return {"triple": triple, "skipped": False, "proven": True, "samples": 0,
            "max_residual": 0.0, "pass": True}


def verify_consistency(fam: str, a: int, xk: str, xi: int, yk: str, yi: int,
                       cartan: CartanData, params: ParamTower,
                       samples: int = 30, tol: float = 1e-9,
                       rng: int | Random = 31) -> dict:
    """Diamond check on the word V_a(z) X(u) Y(v).

    Path A moves the vertex straight through both currents (cx cy); path
    B exchanges the currents first, moves the vertex, then exchanges back
    through the printed reverse relation (rxy cy cx ryx).  The first
    DeltaBearingMove, in the order cx, cy, rxy, ryx, skips the triple.
    When the two paths have one odd-sh normal form
    (``DistExpr.odd_normal_form``) the triple is proven: no point is
    evaluated or drawn, and the record has ``proven: True``, ``samples:
    0`` and residual 0.0.  Otherwise both paths are sampled, through one
    ``evalplan.Plan``, at points drawn from ``rng``, a seed or a generator.
    """
    rng = default_rng(rng)
    triple = f"{fam}_{a} | {xk}_{xi}(u) | {yk}_{yi}(v)"
    try:
        cx = vertex_move_coeff(fam, a, xk, xi, cartan.rank, "u")
        cy = vertex_move_coeff(fam, a, yk, yi, cartan.rank, "v")
        rxy = exchange_fn(xk, xi, yk, yi, cartan, "u", "v")
        ryx = exchange_fn(yk, yi, xk, xi, cartan, "v", "u")
    except DeltaBearingMove as exc:
        return _settled(triple, exc)
    path_a, path_b = cx * cy, rxy * cy * cx * ryx
    form = path_a.odd_normal_form()
    if form is not None and form == path_b.odd_normal_form():   # the diamond holds exactly
        return _settled(triple)
    worst, done = sample_max(Plan((path_a, path_b), params).residual, _DIAMOND_WINDOWS,
                             samples, rng)
    return {"triple": triple, "skipped": False, "proven": False, "samples": done,
            **judged(worst, tol, done)}


def _exchange_inverts(xk: str, xi: int, yk: str, yi: int,
                      cartan: CartanData) -> bool | DeltaBearingMove:
    """Whether R_XY(u-v) R_YX(v-u) has the odd-sh normal form 1, or the
    DeltaBearingMove of the first exchange that raises one."""
    try:
        rxy = exchange_fn(xk, xi, yk, yi, cartan, "u", "v")
        ryx = exchange_fn(yk, yi, xk, xi, cartan, "v", "u")
    except DeltaBearingMove as exc:
        # kept without its traceback, whose frames would hold the suite's
        # records in a reference cycle until the next garbage collection
        return exc.with_traceback(None)
    return (rxy * ryx).odd_normal_form() == (1.0, frozenset())


def _move_verdict(fam: str, a: int, cur: str, i: int) -> Optional[DeltaBearingMove]:
    """The DeltaBearingMove of moving vertex component a past current i,
    None when that move bears no delta."""
    try:
        _move_case(fam, a, cur, i)
    except DeltaBearingMove as exc:
        return exc.with_traceback(None)   # as in _exchange_inverts
    return None


def _triple_verdicts(cartan: CartanData) -> Iterator[tuple]:
    """(family, a, (xk, xi), (yk, yi), verdict) per triple V_a(z) X(u)
    Y(v), families in ``VERTEX_KINDS`` order, then a, then X and Y over
    the currents.  The verdict is True for a proven triple, False for one
    the oracle must judge, else the DeltaBearingMove that skips it: the
    move past X, else the move past Y, else the pair's exchange (the
    order ``verify_consistency`` meets them in).

    Every coefficient is a commuting scalar function, so path B is path A
    times rxy ryx: the vertex costs cancel, and a diamond holds exactly
    when its current pair's exchange inverts.  That is decided once per
    (kinds, node class) while it holds, else per ordered pair; a vertex
    move is decided once per (family, a, current), and only whether it
    bears a delta.
    """
    currents = [(k, i) for k in ("H+", "H-", "E", "F") for i in cartan.nodes()]
    # a pair's exchanges see its nodes only through their class
    # (liealg.node_class): once a class has a pair that inverts, its later
    # pairs do too; any other verdict is the pair's own
    inverting: set = set()
    inverts = []
    for xk, xi in currents:
        row = []
        for yk, yi in currents:
            key = (xk, yk, node_class(cartan, xi, yi))
            verdict = key in inverting or _exchange_inverts(xk, xi, yk, yi, cartan)
            if verdict is True:
                inverting.add(key)
            row.append(verdict)
        inverts.append(row)
    for fam in VERTEX_KINDS:
        for a in range(0, cartan.rank + 1):
            moves = [_move_verdict(fam, a, k, i) for k, i in currents]
            for x, x_move, row in zip(currents, moves, inverts):
                for y, y_move, verdict in zip(currents, moves, row):
                    # a DeltaBearingMove is true, a move without delta None
                    yield fam, a, x, y, x_move or y_move or verdict


def consistency_summary(cartan: CartanData, params: ParamTower, samples: int = 20,
                        tol: float = 1e-9, rng: int | Random = 37) -> dict:
    """The ``consistency_triples`` record's fields, folded from the verdict
    stream (``_triple_verdicts``) without a record per settled triple.

    The oracle ``verify_consistency`` judges each open triple, in triple
    order on one stream ``rng`` (a seed or a generator), so the counts,
    draws, worst residual and failures are those of the records of
    ``consistency_suite``; a proven triple's residual, 0.0, moves no maximum.
    ``trigcalc.judged`` judges the run triples: with none, the record fails.
    """
    rng = default_rng(rng)
    proven = skipped = 0
    oracle = []   # the records of the open triples, in triple order
    for fam, a, (xk, xi), (yk, yi), verdict in _triple_verdicts(cartan):
        if verdict is True:
            proven += 1
        elif verdict is False:
            oracle.append(verify_consistency(fam, a, xk, xi, yk, yi, cartan, params,
                                             samples, tol, rng))
        else:
            skipped += 1
    run = proven + len(oracle)
    return {"run": run, "proven": proven + sum(rec["proven"] for rec in oracle),
            "skipped": skipped, "failures": [rec["triple"] for rec in oracle if not rec["pass"]],
            **judged(worst_of(*(rec["max_residual"] for rec in oracle)), tol, run)}


def consistency_suite(cartan: CartanData, params: ParamTower, samples: int = 20,
                      tol: float = 1e-9,
                      rng: int | Random = 37) -> Iterator[dict]:
    """All triples over the generator set; delta-bearing ones are skipped.

    The per-triple view of the verdict stream that ``consistency_summary``
    folds: yields, per triple in order, the record ``verify_consistency``
    gives it, on one stream ``rng`` (a seed or a generator), a settled
    triple's built from its verdict without the oracle.
    """
    rng = default_rng(rng)
    for fam, a, (xk, xi), (yk, yi), verdict in _triple_verdicts(cartan):
        if verdict is False:
            rec = verify_consistency(fam, a, xk, xi, yk, yi, cartan, params, samples, tol, rng)
        else:
            rec = _settled(f"{fam}_{a} | {xk}_{xi}(u) | {yk}_{yi}(v)",
                           None if verdict is True else verdict)
        rec.update({"family": fam, "component": a, "x": f"{xk}_{xi}", "y": f"{yk}_{yi}"})
        yield rec


def variant_report(r: int, params: ParamTower) -> dict:
    """Which delta-index reading is self-consistent, per embedded delta.

    An embedded delta can only arise from the pole of the accompanying
    exchange ratio; the report checks whether each variant's support
    sits on the zero of that ratio's denominator, and whether the
    catalog's printed support (its bracketed note aside) names the index
    l, which the j-indexed relation leaves unbound.
    """
    out = {}
    for rec in catalog(r, params):
        if not rec.has_embedded_delta:
            continue
        l_unbound = re.search(r"\bl\b", rec.delta_support_printed.split("[")[0]) is not None
        checks = {}
        for j in range(1, r + 1):
            support = rec.delta_support_normalized(r, j)
            on_pole = any((f.arg - support).is_zero() for t in rec.coeff(r, j).terms
                          for f in t.factors if f.exponent == -1)
            checks[f"j={j}"] = {
                "normalized_on_denominator_zero": on_pole,
                "printed_l_unbound": l_unbound,
            }
        on_every_pole = all(c["normalized_on_denominator_zero"] for c in checks.values())
        out[rec.rid] = {
            "self_consistent_variant": "normalized" if on_every_pole else None,
            "cases": checks,
        }
    return out


def degeneration_report(r: int, hbar: float = 0.1, eta_small: float = 1e-4,
                        points: int = 20, tol: float = 1e-3,
                        rng: int | Random = 41) -> dict:
    """eta -> 0: coefficient ratios approach their rational limits."""
    rng = default_rng(rng)
    params = ParamTower(hbar, eta_small, (1.0,))
    cat = catalog(r, params)

    def residual(expr, pt):
        trig = expr.eval(pt, params)
        rational = 1.0 + 0.0j
        for t in expr.terms:
            for f in t.factors:
                rational *= f.arg.eval(pt, params) ** f.exponent
        return abs(trig - rational) / max(1.0, abs(rational))

    windows = {"u": ((-2.0, 2.0), None), "z": ((-2.0, 2.0), None)}
    worst, done = 0.0, 0
    for rec in cat:
        if rec.vertex_case not in ("j", "j-1"):
            continue
        for j in range(1, r + 1):
            expr = rec.coeff(r, j)
            w, d = sample_max(lambda pt: residual(expr, pt), windows, points // 4 + 1, rng,
                              retries=0)
            worst, done = max(worst, w), done + d
    return judged(worst, tol, done)


def export_catalog(cat: list[InterRelation], r: int,
                   variant: str = "normalized") -> list[dict]:
    """JSON-serializable catalog for golden-file diffs and the CLI.

    ``variant='printed'`` keeps only the verbatim delta transcription;
    ``'normalized'`` adds the resolved l -> j supports per node.
    """
    out = []
    for rec in cat:
        entry = dict(vars(rec))
        if rec.extra is not None:
            entry["extra"] = [rec.extra.numerator, rec.extra.denominator]
        if rec.delta_scalar is not None:
            entry["delta_scalar"] = [rec.delta_scalar.real, rec.delta_scalar.imag]
        if rec.vertex_case in ("j", "j-1"):
            entry["coeff_per_node"] = {
                str(j): rec.coeff(r, j).to_json_dict() for j in range(1, r + 1)
            }
            if variant == "normalized":
                entry["delta_support_normalized"] = {
                    str(j): (None if rec.delta_support_normalized(r, j) is None
                             else str(rec.delta_support_normalized(r, j)))
                    for j in range(1, r + 1)
                }
        out.append(entry)
    return out
