"""Numeric verification of the level-1 free-field realization.

Every delta-free exchange relation is checked per normal-ordered
monomial: the word value of X(u)Y(v), (zero-mode/Klein phase) *
exp(C_XY(u,v)), against the structure function times that of Y(v)X(u);
the E-F relation is checked through the pole/residue structure of its
contraction factor; the cubic relations by symmetrized cancellation of
full word coefficients.  The exchange, cubic and E-F delta engines take
images as (coefficient, slot word) lists, so the level-2 coproduct
images of ``hopf`` run through the same code as single currents.  All closed
forms evaluate through the meromorphic Gamma continuation, so sample
points are unconstrained up to poles.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from random import Random
from typing import Iterable, Optional, Sequence

from .. import structfn
from ..evalplan import relative_residual, worst_of
from ..liealg import CartanData
from ..params import ParamTower
from ..rng import default_rng
from ..structfn import StructureRatio
from ..trigcalc import ShiftExpr, judged, sample_max
from .atoms import ParamLin, spectral_exponent
from .contraction import ClosedForm, Primitive, product_exponent
from .currents import BosonCurrent, current, word_phase
from .kernel import kernel
from .master import EULER_GAMMA


# (tower, kind_x, kind_y, B_ij, slot) -> the reduction of the pair at zero
# arguments.  The kernel alpha_ij sees the nodes only through B_ij, and the
# modes g do not see them at all, so one reduction serves every node pair
# with that entry, in every algebra.  A pair's form depends on its currents'
# arguments only through the merged variable part, which every primitive
# carries unchanged, and the relative shift s_x - s_y, which moves every
# primitive's s; so one reduction serves every naming and shift of the pair.
_PAIR_CACHE: dict[tuple, ClosedForm] = {}


def pair_exponent(x: BosonCurrent, y: BosonCurrent, cartan: CartanData,
                  params: ParamTower, pairs: Optional[dict] = None) -> ClosedForm:
    """Contraction exponent of the ordered pair X(arg_x) Y(arg_y).

    The pair is reduced once per (tower, kinds, B_ij, slot), whatever its
    nodes and algebra; the caller's form is that reduction with the
    caller's merged variables and every ``s`` moved by s_x - s_y,
    primitive for primitive in the reduction's order.  ``pairs`` (a dict
    kept for one check) holds the caller's forms by (x, y), so a repeated
    pair returns one shared form.
    """
    if x.slot != y.slot:
        return ClosedForm(())  # independent mode copies never contract
    if pairs is not None and (x, y) in pairs:
        return pairs[(x, y)]
    key = (params, x.kind, y.kind, cartan.b_entry(x.j, y.j), x.slot)
    base = _PAIR_CACHE.get(key)
    if base is None:
        bx = BosonCurrent(x.kind, x.j, ShiftExpr(), x.slot)
        by = BosonCurrent(y.kind, y.j, ShiftExpr(), y.slot)
        base = product_exponent(kernel(cartan, x.j, y.j, params, x.slot), bx.g(params),
                                by.g(params), params)
        _PAIR_CACHE[key] = base
    vx, sx = spectral_exponent(x.arg, params)
    vy, sy = spectral_exponent(y.arg, params)
    merged = dict(vx)
    for n, c in vy:
        merged[n] = merged.get(n, 0) - c
    vars_ = tuple(sorted((n, c) for n, c in merged.items() if c))
    moved = sx != sy
    shift = sx - sy if moved else None
    form = ClosedForm(tuple(Primitive(p.coeff, vars_, p.s + shift if moved else p.s, p.beta)
                            for p in base.primitives))
    if pairs is not None:
        pairs[(x, y)] = form
    return form


def word_exponent(word: Sequence[BosonCurrent], cartan: CartanData,
                  params: ParamTower, pairs: Optional[dict] = None) -> ClosedForm:
    """Sum of pairwise contraction exponents of an ordered word: the pairs'
    primitives in pair order, the shared objects of ``pairs`` included."""
    return ClosedForm(tuple(
        p for a in range(len(word)) for b in range(a + 1, len(word))
        for p in pair_exponent(word[a], word[b], cartan, params, pairs).primitives))


# A slot word is a word's currents, each tagged with its tensor slot;
# an image is a list of (coefficient, slot word) terms.
SlotWord = list[tuple[int, BosonCurrent]]


def _signature(cs: SlotWord) -> tuple:
    """The normal-ordered monomial of a slot word: its letters, unordered."""
    return tuple(sorted(
        (slot, c.kind, c.j, str(c.arg), c.slot) for slot, c in cs
    ))


def monomial_groups(terms: Iterable[tuple[complex, SlotWord]]) -> dict:
    """(coefficient, slot word) terms grouped by normal-ordered monomial."""
    groups: dict = {}
    for coeff, cs in terms:
        groups.setdefault(_signature(cs), []).append((coeff, cs))
    return groups


def _by_slot(cs: SlotWord) -> list[list[BosonCurrent]]:
    """Each tensor slot's word, slot by slot."""
    return [[c for sl, c in cs if sl == s] for s in sorted({s for s, _ in cs})]


def _word_forms(cs: SlotWord, cartan: CartanData, params: ParamTower,
                pairs: dict) -> list[tuple[complex, ClosedForm]]:
    """(phase, contraction exponent) of each tensor slot's word, slot by slot."""
    return [(word_phase(word, cartan), word_exponent(word, cartan, params, pairs))
            for word in _by_slot(cs)]


def group_forms(groups: dict, cartan: CartanData, params: ParamTower,
                pairs: dict) -> Optional[dict]:
    """Each monomial's (coefficient, slot forms) list, or None when a form
    cannot be built: then no sample point can be evaluated.  ``pairs`` is
    the check's dict of pair forms (``pair_exponent``), so every word with
    a given pair shares that pair's primitives."""
    try:
        return {sig: [(c, _word_forms(cs, cartan, params, pairs)) for c, cs in entries]
                for sig, entries in groups.items()}
    except (ArithmeticError, OverflowError, ValueError):
        return None


def group_values(entries: list, params: ParamTower, pt,
                 memo: Optional[dict] = None) -> list[complex]:
    """Value at ``pt`` of each (coefficient, slot forms) entry of one monomial;
    ``memo`` holds the point's primitive factors (``ClosedForm.exp_value``)."""
    out = []
    for c, forms in entries:
        val = 1.0 + 0.0j
        for phase, form in forms:
            val *= phase
            if form.primitives:   # an empty exponent (no contracting pair) is exp(0) = 1
                val *= form.exp_value(pt, params, memo)
        out.append(c * val)
    return out


def cubic_residual(u1: list, u2: list, v: list, cartan: CartanData,
                   params: ParamTower, imag_window: float, samples: int,
                   rng: Random, retries: int = 200) -> tuple[float, int, int]:
    """Sampled cubic relation of the images of E_i(u1), E_i(u2), E_j(v).

    Each image is a list of (coefficient, slot word) terms in its own
    variable u1, u2 or v.  The symmetrized orderings, weighted 1,
    -2cos(pi*eta*hbar), 1, expand into words grouped by normal-ordered
    monomial, and every monomial's coefficient must vanish.  A point with
    a non-finite word value is rejected.  Returns (worst residual,
    accepted points, monomials).
    """
    coef = structfn.serre_coefficient(params, "E")
    images = {"u1": u1, "u2": u2, "v": v}

    def orderings(a, b):
        return [((a, b, "v"), 1.0), ((a, "v", b), -coef), (("v", a, b), 1.0)]

    groups = monomial_groups(
        (weight * c1 * c2 * c3, cs1 + cs2 + cs3)
        for (n1, n2, n3), weight in orderings("u1", "u2") + orderings("u2", "u1")
        for c1, cs1 in images[n1] for c2, cs2 in images[n2] for c3, cs3 in images[n3])
    forms = group_forms(groups, cartan, params, {})

    def residual(pt):
        if forms is None:
            return None
        res_here, memo = 0.0, {}
        try:
            for entries in forms.values():
                vals = group_values(entries, params, pt, memo)
                if not all(math.isfinite(abs(x)) for x in vals):
                    return None
                scale = max(1.0, max(abs(x) for x in vals))
                res_here = max(res_here, abs(sum(vals)) / scale)
        except ValueError:
            return None
        return res_here

    window = ((-2.0, 2.0), (-imag_window, imag_window))
    worst, done = sample_max(residual, {n: window for n in images}, samples, rng,
                             retries=retries)
    return worst, done, len(groups)


def exchange_residual(xs: list, ys: list, expected: StructureRatio, cartan: CartanData,
                      params: ParamTower, imag_window: float, samples: int,
                      rng: Random) -> tuple[float, int]:
    """Sampled exchange relation X(u) Y(v) = R(u - v) Y(v) X(u) of two images.

    Each image is a list of (coefficient, slot word) terms, ``xs`` in u and
    ``ys`` in v.  Both orderings expand into words grouped by normal-ordered
    monomial (the same monomials, as a monomial's letters are unordered),
    and every monomial's coefficients must satisfy lhs = R * rhs, judged by
    ``relative_residual``.  A point where a monomial's coefficient is not
    finite is rejected.  Returns (worst residual, accepted points).
    """
    pairs: dict = {}
    lhs = group_forms(monomial_groups(
        (cx * cy, csx + csy) for cx, csx in xs for cy, csy in ys), cartan, params, pairs)
    rhs = group_forms(monomial_groups(
        (cy * cx, csy + csx) for cy, csy in ys for cx, csx in xs), cartan, params, pairs)

    def residual(pt):
        if lhs is None or rhs is None:
            return None
        try:
            ratio = expected.eval(pt["u"] - pt["v"], params)
            res_here, memo = 0.0, {}
            for sig, entries in lhs.items():
                lv = sum(group_values(entries, params, pt, memo))
                rv = sum(group_values(rhs[sig], params, pt, memo))
                if not (cmath.isfinite(lv) and cmath.isfinite(rv)):
                    return None
                res_here = max(res_here, relative_residual(lv, ratio * rv))
        except ValueError:
            return None
        return res_here

    window = ((-2.0, 2.0), (-imag_window, imag_window))
    return sample_max(residual, {"u": window, "v": window}, samples, rng)


def exchange_check(x: BosonCurrent, y: BosonCurrent, expected: StructureRatio,
                   cartan: CartanData, params: ParamTower,
                   samples: int = 30, tol: float = 1e-8,
                   rng: int | Random = 11,
                   imag_window: float = 0.2) -> dict:
    """Exchange relation of the currents X(u) and Y(v) against ``expected``,
    at points drawn from ``rng``, a seed or a generator."""
    rng = default_rng(rng)
    if {x.kind, y.kind} == {"E", "F"} and x.j == y.j:
        raise ValueError("the E-F pair at equal nodes is delta-bearing; use ef_delta_check")
    max_res, done = exchange_residual([(1.0, [(0, x)])], [(1.0, [(0, y)])], expected,
                                      cartan, params, imag_window, samples, rng)
    return {
        "pair": f"{x.kind}_{x.j}|{y.kind}_{y.j}",
        "relation": expected.relation,
        "samples": done,
        **judged(max_res, tol, done),
    }


def merged_exponent_matches(pair: tuple[BosonCurrent, BosonCurrent],
                            target: BosonCurrent, params: ParamTower,
                            rng: int | Random = 5) -> dict:
    """Pointwise check that g_X + g_Y equals g_target as mode functions,
    at 40 (lambda, vars) points drawn from ``rng`` (a seed or a
    generator), to 1e-9."""
    rng = default_rng(rng)
    gx, gy, gt = pair[0].g(params), pair[1].g(params), target.g(params)
    names = sorted({n for g in (gx, gy, gt) for n, _ in g.vars})

    def residual(pt):
        lam = pt["lambda"]
        if abs(lam) < 0.2:
            return None
        merged = gx.eval_at(lam, pt, params) + gy.eval_at(lam, pt, params)
        tgt = gt.eval_at(lam, pt, params)
        return abs(merged - tgt) / max(1.0, abs(tgt))

    windows = {"lambda": ((-3.0, 3.0), (-0.4, 0.4))}
    windows.update((n, ((-1.0, 1.0), None)) for n in names)
    worst, done = sample_max(residual, windows, 40, rng)
    return {"samples": done, **judged(worst, 1e-9, done)}


def strip_poles(cform: ClosedForm, params: ParamTower) -> list[tuple[ParamLin, int, float]]:
    """(position, order, height) of each pole of exp(cform) in w = u - v
    with |Im w| <= 0.45/eta."""
    return [p for p in cform.pole_catalog("u", "v", params, 0.45 / params.eta) if p[1] > 0]


def delta_coefficient(cform: ClosedForm, phase: complex, w0: complex,
                      params: ParamTower) -> complex:
    """Commutator delta coefficient at the simple pole w = w0 of an E-F word:
    -2*pi*i * residue (radius hbar/8) * e^{2 gamma} (e^gamma from each of
    E and F) * the word's phase."""
    res = cform.residue_at(w0, params, "u", "v", radius=params.hbar / 8.0)
    return -2j * math.pi * res * math.exp(2.0 * EULER_GAMMA) * phase


def ef_delta_supports(e_image: list, f_image: list, cartan: CartanData,
                      params: ParamTower) -> dict[ParamLin, list[tuple[int, Optional[complex]]]]:
    """Delta parts of the product of two images, E's in u and F's in v.

    Each image is a list of (coefficient, slot word) terms.  In every
    product word, a tensor slot that holds an E and an F has one part at
    each of its ``strip_poles``: the pole's order and, at a simple pole,
    the word's coefficient times the slot's ``delta_coefficient`` (else
    None).  Returns the parts by pole position, in product order.
    """
    parts: dict[ParamLin, list[tuple[int, Optional[complex]]]] = {}
    for ce, cse in e_image:
        for cf, csf in f_image:
            for word in _by_slot(cse + csf):
                if {"E", "F"} <= {c.kind for c in word}:
                    cform, phase = word_exponent(word, cartan, params), word_phase(word, cartan)
                    for pos, order, height in strip_poles(cform, params):
                        coeff = (ce * cf * delta_coefficient(cform, phase, 1j * height, params)
                                 if order == 1 else None)
                        parts.setdefault(pos, []).append((order, coeff))
    return parts


def ef_delta_residuals(parts: dict, level: int,
                       params: ParamTower) -> Optional[tuple[float, float]]:
    """(support residual, cancellation residual) of ``ef_delta_supports``'
    parts at ``level``, or None when a pole is not simple or a support has
    no part.  The parts at w = +-i*hbar*level/2 sum to +-2*pi/hbar, judged
    |c -+ t|/t; those at any other position cancel, judged |sum| / max(1,
    |first part|)."""
    target = 2.0 * math.pi / params.hbar
    supports = {ParamLin.hbar(Fraction(sgn * level, 2)): sgn * target for sgn in (+1, -1)}
    if any(o != 1 for ps in parts.values() for o, _ in ps) or not supports.keys() <= parts.keys():
        return None
    sums = {pos: (sum(c for _, c in ps), ps[0][1]) for pos, ps in parts.items()}
    return (worst_of(*(abs(sums[pos][0] - t) / abs(t) for pos, t in supports.items())),
            worst_of(*(abs(total) / max(1.0, abs(first))
                       for pos, (total, first) in sums.items() if pos not in supports)))


def ef_delta_check(i: int, cartan: CartanData, params: ParamTower,
                   tol: float = 1e-8, rng: int | Random = 5) -> dict:
    """Pole/residue audit of E_i(u) F_i(v) against the H payloads.

    Checks, in order: the contraction factor's poles in the fundamental
    strip are simple, with the commutator delta coefficients (-2*pi*i *
    residue, times the e^{2 gamma} prefactor of the two currents)
    +-2*pi/hbar at w = +-i*hbar/2 and cancelling anywhere else
    (``ef_delta_residuals`` at level 1); and the merged mode function on
    each support equals the corresponding H coefficient function with
    the quarter-shifted argument.  A pole that is not simple, or a
    missing support, gives a failing record that carries the pole
    inventory under ``error``.  Both payload checks draw from ``rng``,
    passed on as given: a generator is one stream for both, a seed gives
    each a fresh stream of that seed.  The record is judged at the
    smaller of their accepted counts.
    """
    parts = ef_delta_supports([(1.0, [(0, current("E", i, "u"))])],
                              [(1.0, [(0, current("F", i, "v"))])], cartan, params)
    delta = ef_delta_residuals(parts, 1, params)
    report: dict = {"i": i, "poles": [str(p) for p in parts]}
    if delta is None:
        report.update({
            # node-free, as the record of one node serves its whole class
            "error": "E F contraction at equal nodes, pole structure mismatch: "
                     f"{[(str(p), o) for p, ps in parts.items() for o, _ in ps]}",
            **judged(math.inf, tol)})
        return report
    residuals, accepted = list(delta), []
    for sgn, hkind in ((+1, "H+"), (-1, "H-")):
        h_cur = current(hkind, i, "u", Fraction(-sgn, 4))
        f_shift = current("F", i, "u", Fraction(-sgn, 2))
        payload = merged_exponent_matches((current("E", i, "u"), f_shift),
                                          h_cur, params, rng)
        residuals.append(payload["max_residual"])
        accepted.append(payload["samples"])
        report[f"payload_{hkind}"] = payload["max_residual"]
    report.update(judged(worst_of(*residuals), tol, min(accepted)))
    return report


def serre_check(i: int, j: int, cartan: CartanData, params: ParamTower,
                samples: int = 20, tol: float = 1e-7,
                rng: int | Random = 23) -> dict:
    """Symmetrized cubic combination of full word coefficients vanishes,
    at points drawn from ``rng``, a seed or a generator."""
    if cartan.a_entry(i, j) != -1:
        raise ValueError("cubic relation applies to adjacent pairs only")
    rng = default_rng(rng)

    def image(node: int, name: str) -> list:
        return [(1.0, [(0, current("E", node, name))])]

    worst, done, _ = cubic_residual(image(i, "u1"), image(i, "u2"), image(j, "v"),
                                    cartan, params, 0.15, samples, rng, retries=300)
    return {
        "pair": (i, j),
        "samples": done,
        **judged(worst, tol, done),
    }
