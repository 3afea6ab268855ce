"""Finite-dimensional spectral-parameter representation at level 0.

For the A-series algebra of rank r the currents act on an (r+1)-dim
space with basis v_0 .. v_r:

* e+_l(u) sends v_l to v_{l-1} with coefficient
  -sh(i*pi*eta*hbar) / sh(pi*eta*(u - z - (r-l)/2 * i*hbar)),
* f+_l(u) is its transpose pattern,
* H+_l(u) is diagonal with the two sh-ratio eigenvalues on v_l, v_{l-1}
  and 1 elsewhere.

The negative half currents are the -i/eta'' translates (eta'' = eta at
level 0), derived on first read; by the half-period flip they coincide
pointwise with the positive ones.  So a total current e+(u - i0) -
e-(u + i0) is the jump of e+ alone across its pole line, a pure delta
atom supported on u = z + (r-l)/2 * i*hbar (the operator "jump e+"), and
H+(u - i0) - H-(u + i0) is the jump of H+.

Normalization: the homogeneous exchange relations fix e, f and H only up
to separate scalings.  The inhomogeneous E-F commutation relation pins
the product of the E and F scales; with the matrices above taken
verbatim it closes only after rescaling both total currents by

    nu = sqrt(pi*eta / (hbar * sin(pi*eta*hbar))),

the unique positive constant doing so (nu -> 1/hbar in the rational
limit).  The total currents E and F are the jumps times nu, and the
verification report carries the raw mismatch ratio alongside.

Each module's operators are memoized on its ``EvalRep``, since they
carry the tower's floats; the cleared exchange ratios are exact and are
built once per process.

Translation: node l + 1 is node l with z moved to z - i*hbar/2 and each
basis index k to (k + 1) mod (r + 1).  ``EvalRep.steps`` checks this
exactly on the memoized operators, and ``verify_all`` samples a relation
only at the first pair of each translation class, (i, j) joining the
class of (i - 1, j - 1) when both steps hold.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cache, cached_property
from random import Random

from . import structfn
from .liealg import CartanData, adjacent_pairs, cartan, node_class
from .evalplan import worst_of
from .params import ParamTower
from .rng import default_rng
from .trigcalc import (
    DeltaAtom,
    DistExpr,
    Mat,
    ShiftExpr,
    Term,
    TrigFactor,
    _delta_sort_key,
    _factor_sort_key,
    equal_numeric,
    judged,
    sample_max,
    var,
)

U = "u"
Z = "z"
# every operator kind a relation or an axiom record reads
READ_KINDS = ("e+", "f+", "H+", "H-", "E", "F", "jump e+", "jump f+", "jump H+",
              "H+inv", "H-inv")


def matrix_unit(i: int, j: int) -> Mat:
    """The matrix unit E_ij, its one entry."""
    return (((i, j), 1 + 0j),)


def ef_normalization(params: ParamTower) -> float:
    s = math.sin(math.pi * params.eta * params.hbar)
    if s <= 0:
        raise ValueError("sin(pi*eta*hbar) <= 0; E-F normalization undefined")
    return math.sqrt(math.pi * params.eta / (params.hbar * s))


class EvalRep:
    """Half currents of the rank-r module, as matrix-valued DistExpr in u:
    ``build`` enters e+, f+ and H+, and ``op`` derives every other kind."""

    def __init__(self, r: int, params: ParamTower) -> None:
        self.r = r
        self.params = params
        self._ops: dict[tuple, DistExpr] = {}

    @property
    def dim(self) -> int:
        return self.r + 1

    @property
    def cartan(self) -> CartanData:
        return cartan("A", self.r)

    def beta(self, l: int) -> Fraction:
        return Fraction(self.r - l, 2)

    def op(self, kind: str, l: int, at: ShiftExpr | None = None) -> DistExpr:
        """The operator of ``kind`` at node l, in u or, given ``at``, with
        ``at`` substituted for u; each (kind, l, at) is built once.

        Kinds: the half currents e+, f+, H+, e-, f-, H- (H+ and H- are
        also the total Cartan currents); a plus half's jump across its
        pole line, "jump e+", "jump f+" and "jump H+" (``plemelj_reduce``);
        the normalized total currents E and F, the jumps of e+ and f+
        times ``ef_normalization``; and the reciprocals H+inv and H-inv.
        A minus half is the -i/eta'' translate of its plus half (eta'' =
        eta at level 0: one lattice unit of period 0), e- and f- with the
        sign flipped.
        """
        if at == var(U):
            at = None   # u for u leaves the operator as it is
        key = (kind, l, at)
        if key not in self._ops:
            if at is not None:
                self._ops[key] = self.op(kind, l).subs(U, at)
            elif kind.startswith("jump "):
                self._ops[key] = self.op(kind[5:], l).plemelj_reduce(U, self.params)
            elif kind in ("E", "F"):
                self._ops[key] = self.op(f"jump {kind.lower()}+", l).scaled(
                    ef_normalization(self.params))
            elif kind in ("H+inv", "H-inv"):
                self._ops[key] = self.op(kind[:2], l).reciprocal()
            else:   # a KeyError for an unknown kind or node
                minus = self._ops[(kind[0] + "+", l, None)].subs(
                    U, var(U) + ShiftExpr.lattice_units(0, -1))
                self._ops[key] = minus if kind == "H-" else minus.scaled(-1.0)
        return self._ops[key]

    @cached_property
    def steps(self) -> frozenset[int]:
        """The nodes l < r whose step to l + 1 is exactly covariant: every
        kind in ``READ_KINDS`` at node l + 1 is its node-l operator with z
        moved to z - i*hbar/2 and each matrix index k to (k + 1) mod (r + 1),
        term for term, scalars and entries equal as numbers."""
        return frozenset(l for l in range(1, self.r) if all(
            _translates(self.op(kind, l), self.op(kind, l + 1), self.dim)
            for kind in READ_KINDS))


def _translates(a: DistExpr, b: DistExpr, n: int) -> bool:
    """Whether the terms of ``b`` are those of ``a`` with z -> z - i*hbar/2
    and each matrix index k -> (k + 1) mod n, in canonical order."""
    z = var(Z) - ShiftExpr.hbar_units(Fraction(1, 2))
    return len(a.terms) == len(b.terms) and all(
        s.scalar == t.scalar
        and sorted((f.subs(Z, z) for f in s.factors), key=_factor_sort_key) == list(t.factors)
        and sorted((DeltaAtom(d.arg.subs(Z, z)) for d in s.deltas),
                   key=_delta_sort_key) == list(t.deltas)
        and sorted((((i + 1) % n, (j + 1) % n), x) for (i, j), x in s.mat) == list(t.mat)
        for s, t in zip(a.terms, b.terms))


def _pole_factor(r: int, l: int) -> TrigFactor:
    arg = var(U) - var(Z) - ShiftExpr.hbar_units(Fraction(r - l, 2))
    return TrigFactor(0, arg, -1)


def _num_factor(r: int, l: int, offset: int) -> TrigFactor:
    # offset = -2 for the v_l eigenvalue, +2 for the v_{l-1} one
    arg = var(U) - var(Z) - ShiftExpr.hbar_units(Fraction(r - l + offset, 2))
    return TrigFactor(0, arg, 1)


def build(r: int, params: ParamTower) -> EvalRep:
    """Construct the positive half currents (level 0 only)."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    if params.max_level() < 1 or params.c_at(0) != 0:
        raise ValueError("level-0 module needs a tower materialized with c_0 = 0")
    s_coef = -cmath.sinh(1j * math.pi * params.eta * params.hbar)
    rep = EvalRep(r=r, params=params)
    for l in range(1, r + 1):
        pole = _pole_factor(r, l)
        rest = tuple(((k, k), 1 + 0j) for k in range(r + 1) if k not in (l - 1, l))
        rep._ops.update({
            ("e+", l, None): DistExpr((Term(s_coef, (pole,), (), matrix_unit(l - 1, l)),)),
            ("f+", l, None): DistExpr((Term(s_coef, (pole,), (), matrix_unit(l, l - 1)),)),
            ("H+", l, None): DistExpr((
                Term(1.0, (_num_factor(r, l, -2), pole), (), matrix_unit(l, l)),
                Term(1.0, (_num_factor(r, l, +2), pole), (), matrix_unit(l - 1, l - 1)),
                Term(1.0, (), (), rest),
            )),
        })
    return rep


def pole_inventory(rep: EvalRep) -> list[dict]:
    """Exact pole positions of every reciprocal factor, per current.

    Each pole ladder is reported relative to the current's own i*hbar
    offset beta; the assertion backing strip analyticity is that ladders
    sit exactly on {beta, beta - 1/eta} + (1/eta)Z, never strictly
    inside the open shifted strip (beta - 1/eta, beta).  The pole's
    offset from beta is exact; it is floated only for that comparison.
    """
    params = rep.params
    inv_eta = 1.0 / params.eta_at(0)
    out = []
    for kind in ("e+", "f+", "H+"):
        for l in range(1, rep.r + 1):
            expr = rep.op(kind, l)
            beta = ShiftExpr.hbar_units(rep.beta(l))
            for t in expr.terms:
                for f in t.factors:
                    if f.exponent != -1:
                        continue
                    shift = f.arg - var(U) + var(Z)   # the pole sits at u - z = -shift
                    offset = (-shift - beta).imag_shift(params)
                    out.append({
                        "current": kind,
                        "l": l,
                        "pole_ihbar_units": str(-shift.q),
                        "lattice": dict(shift.lattice),
                        "strictly_inside_shifted_strip": -inv_eta < offset < 0.0,
                    })
    return out


@cache
def _rel_vars_ratio(num: tuple[TrigFactor, ...],
                    den: tuple[TrigFactor, ...]) -> tuple[DistExpr, DistExpr]:
    """An exchange ratio's numerator and denominator with u - v for w,
    substituted factor by factor and built once per process for each
    factor pair: at level 0 once per (relation, B_ij, sign)."""
    w_sub = var(U) - var("v")
    return tuple(DistExpr((Term(1.0, tuple(f.subs("w", w_sub) for f in fs)),))
                 for fs in (num, den))


def verify_relation(rep: EvalRep, relation: str, i: int, j: int,
                    samples: int = 50, tol: float = 1e-9,
                    rng: int | Random = 7,
                    sign: int = +1) -> dict:
    """Check one defining relation in the module; returns a residual report.

    Multiplicative relations are verified in cleared form
    den*X(u)Y(v) == num*Y(v)X(u) so that delta supports sitting on zeros
    of the exchange function stay finite.  The E-F relation is reduced to
    delta normal form on both sides.  Points come from ``rng``, a seed or
    a generator.
    """
    rng = default_rng(rng)
    params = rep.params
    cd = rep.cartan
    report: dict = {"relation": relation, "i": i, "j": j}

    if relation in structfn.RELATIONS:
        kx, ky = structfn.exchange_kinds(relation, sign)
        x = rep.op(kx, i)
        y = rep.op(ky, j, var("v"))
        sr = structfn.ratio(relation, i, j, cd, c=0, sign=sign)
        num, den = _rel_vars_ratio(sr.num, sr.den)
        lhs = den * (x * y)
        rhs = num * (y * x)
        rep_cmp = equal_numeric(lhs, rhs, params, samples=samples, tol=tol, rng=rng)
        report.update(rep_cmp)
        return report

    if relation == "EF":
        e_tot = rep.op("E", i)
        f_tot = rep.op("F", j, var("v"))
        lhs = e_tot * f_tot - f_tot * e_tot
        if i != j:
            rep_cmp = equal_numeric(lhs, DistExpr.zero(), params, samples=samples,
                                    tol=tol, rng=rng)
            report.update(rep_cmp)
            return report
        dd = DistExpr.from_factors(2.0 * math.pi / params.hbar, (),
                                   (_delta_uv(),))
        rhs = dd * rep.op("jump H+", i)
        rep_cmp = equal_numeric(lhs, rhs, params, samples=samples, tol=tol, rng=rng)
        report.update(rep_cmp)
        report["ef_normalization"] = ef_normalization(params)
        report["raw_coefficient_ratio"] = _raw_ef_ratio(rep, i, rhs)
        return report

    if relation == "serre":
        report.update(verify_serre(rep, i, j, tol=tol))
        return report

    raise ValueError(f"unknown relation {relation!r}")


def _delta_uv():
    return DeltaAtom(var(U) - var("v"))


def _raw_ef_ratio(rep: EvalRep, l: int, rhs: DistExpr) -> complex:
    """Measured LHS/RHS delta-coefficient ratio of the E-F relation at
    node l with the verbatim (un-normalized) matrices, against that
    relation's ``rhs``; analytically hbar*sin(pi*eta*hbar)/(pi*eta)."""
    p = rep.params
    e_tot = rep.op("jump e+", l)
    f_tot = rep.op("jump f+", l, var("v"))
    lhs = e_tot * f_tot - f_tot * e_tot
    gl = lhs.delta_groups()
    gr = rhs.delta_groups()
    key = next(iter(gl))
    ml = gl[key].eval({}, p)
    mr = gr[key].eval({}, p)
    return complex(ml[l - 1, l - 1] / mr[l - 1, l - 1])


def verify_serre(rep: EvalRep, i: int, j: int, tol: float = 1e-9) -> dict:
    """Cubic relation for an adjacent pair; identically zero here because
    every ordering contains the square of a rank-one matrix unit."""
    if rep.cartan.a_entry(i, j) != -1:
        raise ValueError("serre relation only applies to adjacent pairs")
    coef = structfn.serre_coefficient(rep.params, "E")
    e_i1 = rep.op("E", i, var("u1"))
    e_i2 = rep.op("E", i, var("u2"))
    e_j = rep.op("E", j, var("v"))
    total = DistExpr.zero()
    for a, b in ((e_i1, e_i2), (e_i2, e_i1)):
        total = total + (a * b * e_j) - (a * e_j * b).scaled(coef) + (e_j * a * b)
    residual = worst_of(*(abs(t.scalar) * worst_of(*(abs(z) for _, z in t.mat))
                          for t in total.terms))
    return {**judged(residual, tol), "samples": 1}


def verify_all(rep: EvalRep, samples: int = 50, tol: float = 1e-9,
               seed: int | Random = 0) -> list[dict]:
    """Every defining relation over all index pairs, plus the cubic ones,
    all drawing from one stream: ``seed``, a seed or a generator.

    A pair (i, j) is the pair (i - 1, j - 1) translated when both node
    steps are exactly covariant (``EvalRep.steps``) and the two pairs share
    their ``node_class``; it then carries the record of (i - 1, j - 1) with
    its own nodes and its delta supports moved along (``_moved``).  So each
    relation, sign and translation class is sampled once, at its first pair.
    """
    rng = default_rng(seed)
    cd = rep.cartan
    jobs = [(rel, i, j, sign) for rel in structfn.RELATIONS for i in cd.nodes()
            for j in cd.nodes() for sign in ((+1, -1) if rel in ("HE", "HF") else (+1,))]
    jobs += [("EF", i, j, +1) for i in cd.nodes() for j in cd.nodes()]
    jobs += [("serre", i, j, +1) for i, j in adjacent_pairs(cd)]
    firsts: dict = {}   # (relation, sign, i, j) -> (its class's first record, steps from it)
    out = []
    for rel, i, j, sign in jobs:
        back = (rel, sign, i - 1, j - 1)
        if (back in firsts and {i - 1, j - 1} <= rep.steps
                and node_class(cd, i, j) == node_class(cd, i - 1, j - 1)):
            first, m = firsts[back]
            m += 1
        else:
            first, m = verify_relation(rep, rel, i, j, samples=samples, tol=tol,
                                       rng=rng, sign=sign), 0
            if rel in structfn.RELATIONS:
                first["sign"] = sign
        firsts[rel, sign, i, j] = first, m
        out.append(_moved(first, m) | {"i": i, "j": j})
    return out


def _moved(rec: dict, m: int) -> dict:
    """``rec`` for the pair m nodes on: its delta supports with z moved to
    z - m*i*hbar/2, re-sorted as ``equal_numeric`` sorts them."""
    if not m or "groups" not in rec:
        return rec
    z = var(Z) - ShiftExpr.hbar_units(Fraction(m, 2))
    groups = [{**g, "support": sorted(str(ShiftExpr.parse(s).subs(Z, z)) for s in g["support"])}
              for g in rec["groups"]]
    return {**rec, "groups": sorted(groups, key=lambda g: g["support"])}


def smeared_total_current_check(rep: EvalRep, l: int, n_grid: int = 200001) -> dict:
    """Slow oracle: the total-current delta coefficient by Gaussian smearing.

    Integrates the boundary-value difference of the half currents along
    lines displaced by +-eps into the two strips against a Gaussian test
    function centered on the support, then Richardson-extrapolates in
    eps = 0.05, 0.025, 0.0125, 0.00625.  Rank-independent: the
    integration line runs at the height of the current's own pole ladder.
    Compares against the delta normal form of the jump
    (``plemelj_reduce``).
    """
    params = rep.params
    beta = float(rep.beta(l)) * params.hbar
    z0 = 0.3
    xs = [z0 - 8.0 + 16.0 * k / (n_grid - 1) for k in range(n_grid)]
    e_plus, e_minus = rep.op("e+", l), rep.op("e-", l)

    def smear(eps: float) -> complex:
        acc: dict[tuple[int, int], complex] = {}
        for x in xs:
            weight = math.exp(-((x - z0) ** 2))
            lo = e_plus.eval({U: complex(x, beta - eps), Z: z0}, params)
            hi = e_minus.eval({U: complex(x, beta + eps), Z: z0}, params)
            for ij in lo.keys() | hi.keys():
                acc[ij] = acc.get(ij, 0j) + (lo.get(ij, 0j) - hi.get(ij, 0j)) * weight
        return max(acc.values(), key=abs) * (xs[1] - xs[0])

    level = [smear(0.05 / 2 ** k) for k in range(4)]
    for m in range(1, 4):
        level = [(2 ** m * level[k + 1] - level[k]) / (2 ** m - 1)
                 for k in range(len(level) - 1)]
    smeared = level[0]

    t = rep.op("jump e+", l).terms[0]
    want = t.scalar * max(abs(z) for _, z in t.mat)  # phi(support) = 1 on line
    resid = abs(smeared - want) / abs(want)
    return {"l": l, "smeared": smeared, "delta_coefficient": want,
            "max_residual": resid, "pass": bool(resid < 1e-6)}


def _entries_off(got: dict, want: dict) -> float:
    """The largest entry modulus of got - want (a NaN is inf) over that of
    want, at least 1; an entry missing on one side is 0."""
    diff = worst_of(*(abs(got.get(ij, 0j) - want.get(ij, 0j)) for ij in got.keys() | want.keys()))
    return diff / max(1.0, *map(abs, want.values()))


def degeneration_report(r: int, hbar: float = 0.1, eta_small: float = 1e-4,
                        points: int = 20, tol: float = 1e-3,
                        rng: int | Random = 3) -> dict:
    """eta -> 0 check: matrix entries against their rational-limit forms."""
    rng = default_rng(rng)
    params = ParamTower(hbar, eta_small, (0.0,))
    rep = build(r, params)

    def residual(l, pt):
        # the imaginary window is [-0.2, 0.2) in units of hbar
        u = complex(pt[U].real, pt[U].imag * hbar)
        z = pt[Z]
        beta = float(rep.beta(l)) * hbar
        trig = rep.op("e+", l).eval({U: u, Z: z}, params)
        rational = {(l - 1, l): -1j * hbar / (u - z - 1j * beta)}
        hr = {(k, k): 1 + 0j for k in range(r + 1)}
        hr[l, l] = (u - z - 1j * (float(rep.beta(l)) - 1.0) * hbar) / (u - z - 1j * beta)
        hr[l - 1, l - 1] = (u - z - 1j * (float(rep.beta(l)) + 1.0) * hbar) / (u - z - 1j * beta)
        return worst_of(_entries_off(trig, rational),
                        _entries_off(rep.op("H+", l).eval({U: u, Z: z}, params), hr))

    windows = {U: ((-2.0, 2.0), (-0.2, 0.2)), Z: ((-2.0, 2.0), None)}
    worst, done = 0.0, 0
    for l in range(1, r + 1):
        w, d = sample_max(lambda pt: residual(l, pt), windows, points, rng, retries=0)
        worst, done = max(worst, w), done + d
    return judged(worst, tol, done)
