"""The Z-indexed coproduct family: formal words, coproducts, counits,
antipodes, axiom verification and higher-level realizations.

Expressions are formal sums of tensor words; each letter carries its
generator kind, node, spectral argument (exact shifts) and the family
tag n saying which member algebra it belongs to.  Coproducts map tag n
into tags (n, n+1) (plus direction) or (n-1, n) (minus), with the
displayed quarter- and half-shifts i*hbar*c_n/4, i*hbar*c_n/2 resolved
exactly from the parameter tower.

No coassociativity is assumed anywhere: the level-k construction fixes
left iteration (applying the coproduct to slot 0) as canonical and the
difference to right iteration is reported, not asserted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
import numpy.random

from . import evalrep, structfn
from .boson import checks as bchecks
from .boson.currents import BosonCurrent, word_phase
from .boson.currents import current as bcur
from .evalplan import worst_of
from .liealg import CartanData, node_class
from .params import ParamTower
from .trigcalc import DistExpr, ShiftExpr, equal_numeric, judged, var

GEN_KINDS = ("E", "F", "H+", "H-")


@dataclass(frozen=True)
class Letter:
    kind: str
    i: int                    # node; 0 for 'one'/'c'
    arg: Optional[ShiftExpr]  # spectral argument; None for 'one'/'c'
    tag: int                  # family index n


@dataclass(frozen=True)
class Word:
    """coeff * (slot_0 letters) (x) (slot_1 letters) (x) ..."""

    coeff: complex
    slots: tuple[tuple[Letter, ...], ...]


class CurrentExpr:
    """Formal sum of tensor words; letters reorder only through relations."""

    def __init__(self, words: Sequence[Word]):
        self.words = tuple(w for w in words if w.coeff != 0)

    @staticmethod
    def generator(kind: str, i: int, tag: int) -> "CurrentExpr":
        """The generator letter at argument u (no argument for 'one'/'c')."""
        arg = None if kind in ("one", "c") else ShiftExpr.of_var("u")
        return CurrentExpr((Word(1.0, ((Letter(kind, i, arg, tag),),)),))

    def scaled(self, c: complex) -> "CurrentExpr":
        return CurrentExpr(tuple(Word(w.coeff * c, w.slots) for w in self.words))

    def degree(self) -> int:
        return len(self.words[0].slots) if self.words else 1


def _c(params: ParamTower, n: int) -> Fraction:
    """Exact level c_n of the tower (0 outside the materialized range)."""
    if 0 <= n < params.max_level():
        return params.rational_level(n)
    return Fraction(0)


def _q(f: Fraction) -> ShiftExpr:
    return ShiftExpr.hbar_units(f)


def coproduct_letter(letter: Letter, params: ParamTower, direction: int) -> list[Word]:
    """Displayed coproduct of one generator letter (two tensor slots)."""
    n = letter.tag
    # c_lo / c_hi are the levels of the two target slots: (c_n, c_{n+1})
    # for the plus direction, (c_{n-1}, c_n) for the minus one.
    if direction == +1:
        lo, hi = n, n + 1
    else:
        lo, hi = n - 1, n
    c_lo, c_hi = _c(params, lo), _c(params, hi)
    k, i, a = letter.kind, letter.i, letter.arg
    one_lo = Letter("one", 0, None, lo)
    one_hi = Letter("one", 0, None, hi)

    def L(kind, shift_q, tag):
        return Letter(kind, i, a + _q(shift_q), tag)

    if k == "one":
        return [Word(1.0, ((one_lo,), (one_hi,)))]
    if k == "c":
        return [
            Word(1.0, ((Letter("c", 0, None, lo),), (one_hi,))),
            Word(1.0, ((one_lo,), (Letter("c", 0, None, hi),))),
        ]
    if k == "H+":
        return [Word(1.0, ((L("H+", c_hi / 4, lo),), (L("H+", -c_lo / 4, hi),)))]
    if k == "H-":
        return [Word(1.0, ((L("H-", -c_hi / 4, lo),), (L("H-", c_lo / 4, hi),)))]
    if k == "E":
        return [
            Word(1.0, ((L("E", Fraction(0), lo),), (one_hi,))),
            Word(1.0, ((L("H-", c_lo / 4, lo),), (L("E", c_lo / 2, hi),))),
        ]
    if k == "F":
        return [
            Word(1.0, ((one_lo,), (L("F", Fraction(0), hi),))),
            Word(1.0, ((L("F", c_hi / 2, lo),), (L("H+", c_hi / 4, hi),))),
        ]
    raise ValueError(f"no coproduct for letter kind {k!r}")


def _single_slot(x: CurrentExpr, what: str) -> CurrentExpr:
    if any(len(w.slots) != 1 for w in x.words):
        raise ValueError(f"{what} acts on single-slot expressions")
    return x


def coproduct_plus(x: CurrentExpr, params: ParamTower) -> CurrentExpr:
    """Delta_n^+ extended multiplicatively to words (slot count 1 -> 2)."""
    return coproduct_slot(_single_slot(x, "coproduct"), params, 0)


def coproduct_minus(x: CurrentExpr, params: ParamTower) -> CurrentExpr:
    return coproduct_slot(_single_slot(x, "coproduct"), params, 0, direction=-1)


def coproduct_slot(x: CurrentExpr, params: ParamTower, slot: int,
                   direction: int = +1) -> CurrentExpr:
    """Apply Delta^+ (or Delta^-) to one tensor slot of every word."""
    out: list[Word] = []
    for w in x.words:
        expansion: list[Word] = [Word(w.coeff, ((), ()))]
        for letter in w.slots[slot]:
            images = coproduct_letter(letter, params, direction)
            expansion = [
                Word(e.coeff * im.coeff,
                     (e.slots[0] + im.slots[0], e.slots[1] + im.slots[1]))
                for e in expansion for im in images
            ]
        out.extend(
            Word(e.coeff, w.slots[:slot] + e.slots + w.slots[slot + 1:])
            for e in expansion
        )
    return CurrentExpr(out)


def counit_letter(letter: Letter) -> complex:
    if letter.kind in ("H+", "H-", "H+inv", "H-inv", "one"):
        return 1.0
    if letter.kind in ("E", "F", "c"):
        return 0.0
    raise ValueError(letter.kind)


def _counit_product(letters: Iterable[Letter]) -> complex:
    val = 1.0 + 0.0j
    for letter in letters:
        val *= counit_letter(letter)
    return val


def counit(x: CurrentExpr) -> complex:
    """Morphism extension of the counit table to sums of words."""
    return sum((w.coeff * _counit_product(l for slot in w.slots for l in slot)
                for w in x.words), 0.0 + 0.0j)


def antipode_letter(letter: Letter, params: ParamTower, sign: int) -> list[Letter]:
    """S^+- on one letter; the result lives at tag n +- 1."""
    n2 = letter.tag + sign
    c2 = _c(params, n2)
    k = letter.kind
    if k == "one":
        return [Letter("one", 0, None, n2)]
    if k == "c":
        # -c_{n+-1}: carried as a scalar -1 on the relabeled letter
        return [Letter("c", 0, None, n2)]
    if k in ("H+", "H-"):
        return [Letter(k + "inv", letter.i, letter.arg, n2)]
    if k == "E":
        return [
            Letter("H-inv", letter.i, letter.arg + _q(-c2 / 4), n2),
            Letter("E", letter.i, letter.arg + _q(-c2 / 2), n2),
        ]
    if k == "F":
        return [
            Letter("F", letter.i, letter.arg + _q(-c2 / 2), n2),
            Letter("H+inv", letter.i, letter.arg + _q(-c2 / 4), n2),
        ]
    raise ValueError(k)


_ANTIPODE_SIGNS = {"c": -1.0, "E": -1.0, "F": -1.0}


def antipode(x: CurrentExpr, params: ParamTower, sign: int) -> CurrentExpr:
    """Anti-morphism extension: S(xy) = S(y) S(x)."""
    out = []
    for w in _single_slot(x, "antipode").words:
        coeff = w.coeff
        letters: list[Letter] = []
        for letter in reversed(w.slots[0]):
            coeff *= _ANTIPODE_SIGNS.get(letter.kind, 1.0)
            letters.extend(antipode_letter(letter, params, sign))
        out.append(Word(coeff, (tuple(letters),)))
    return CurrentExpr(out)


def multiply_slots(x: CurrentExpr) -> CurrentExpr:
    """m: concatenate the two tensor slots of every word."""
    out = []
    for w in x.words:
        merged = tuple(l for slot in w.slots for l in slot)
        out.append(Word(w.coeff, (merged,)))
    return CurrentExpr(out)


def map_slot(x: CurrentExpr, slot: int, fn: Callable[[CurrentExpr], CurrentExpr]) -> CurrentExpr:
    """Apply fn (a single-slot map) inside one tensor slot."""
    out = []
    for w in x.words:
        sub = CurrentExpr((Word(1.0, (w.slots[slot],)),))
        img = fn(sub)
        for wi in img.words:
            if len(wi.slots) != 1:
                raise ValueError("slot map must preserve slot count")
            out.append(Word(w.coeff * wi.coeff,
                            w.slots[:slot] + (wi.slots[0],) + w.slots[slot + 1:]))
    return CurrentExpr(out)


def counit_slot(x: CurrentExpr, slot: int) -> CurrentExpr:
    """(.. (x) eps (x) ..): evaluate the counit on one slot."""
    return CurrentExpr(tuple(
        Word(w.coeff * _counit_product(w.slots[slot]), w.slots[:slot] + w.slots[slot + 1:])
        for w in x.words))


# ---------------------------------------------------------------------------
# Backend: level-0 module evaluation
# ---------------------------------------------------------------------------


def module_expr(rep: evalrep.EvalRep, x: CurrentExpr) -> DistExpr:
    """A single-slot expression in the level-0 module (all tags equal):
    each word is the product of its letters' operators."""
    one = DistExpr.matrix(np.eye(rep.dim, dtype=complex))
    acc = DistExpr.zero()
    for w in _single_slot(x, "the level-0 module").words:
        term = one.scaled(w.coeff)
        for l in w.slots[0]:
            if l.kind == "one":
                term = term * one
            elif l.kind == "c":
                term = term * DistExpr.zero()  # the central element acts by 0 at level 0
            else:
                term = term * rep.op(l.kind, l.i, l.arg)
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# Axiom suite
# ---------------------------------------------------------------------------


def _axiom_sides(kind: str, i: int, tag: int, params: ParamTower):
    """The four axiom (lhs, rhs) pairs as single-slot CurrentExpr."""
    x = CurrentExpr.generator(kind, i, tag)
    # the identity side is x itself, retagged to the neighbouring member
    ident = {s: CurrentExpr.generator(kind, i, tag + s) for s in (+1, -1)}
    eps_value = counit(x)
    one = {s: CurrentExpr.generator("one", 0, tag + s).scaled(eps_value) for s in (+1, -1)}
    dplus = coproduct_plus(x, params)
    dminus = coproduct_minus(x, params)
    return [
        ("counit_plus", counit_slot(dplus, 0), ident[+1]),
        ("counit_minus", counit_slot(dminus, 1), ident[-1]),
        ("antipode_plus",
         multiply_slots(map_slot(dplus, 0, lambda s: antipode(s, params, +1))),
         one[+1]),
        ("antipode_minus",
         multiply_slots(map_slot(dminus, 1, lambda s: antipode(s, params, -1))),
         one[-1]),
    ]


def verify_axioms(rep: evalrep.EvalRep, params: ParamTower, samples: int = 30,
                  tol: float = 1e-9, rng: int | np.random.Generator = 17) -> list[dict]:
    """All four axioms on every generator, in the level-0 backend, on one
    stream ``rng`` (a seed or a generator); ``samples`` is the accepted
    count of a record's groups, 0 for two exactly zero sides."""
    rng = np.random.default_rng(rng)
    out = []
    gens = [("c", 0)] + [(k, i) for k in GEN_KINDS for i in range(1, rep.r + 1)]
    for kind, i in gens:
        for name, lhs, rhs in _axiom_sides(kind, i, tag=0, params=params):
            cmp = equal_numeric(module_expr(rep, lhs), module_expr(rep, rhs), params,
                                samples=samples, tol=tol, rng=rng)
            groups = cmp.pop("groups")
            out.append({
                "axiom": name, "generator": f"{kind}_{i}" if i else kind, **cmp,
                "samples": min((g["samples"] for g in groups), default=0),
            })
    return out


# ---------------------------------------------------------------------------
# Structural identities
# ---------------------------------------------------------------------------


def minus_equals_shifted_plus(params: ParamTower, rank: int) -> dict:
    """Delta^-_1 on member 1 versus Delta^+_0 on member 0.

    The two maps must produce identical letter lists once the n-th
    generators are identified with their (n-1)-family namesakes.
    """
    mism = []
    for kind in GEN_KINDS + ("c", "one"):
        for i in ([1] if kind in ("c", "one") else range(1, rank + 1)):
            xm = CurrentExpr.generator(kind, i, 1)
            xp = CurrentExpr.generator(kind, i, 0)
            a = coproduct_minus(xm, params)
            b = coproduct_plus(xp, params)
            if _words_key(a) != _words_key(b):
                mism.append(f"{kind}_{i}")
    return {"pass": not mism, "mismatches": mism}


def _words_key(x: CurrentExpr):
    def letter_key(l: Letter):
        return (l.kind, l.i, None if l.arg is None else str(l.arg), l.tag)

    return sorted(
        (w.coeff, tuple(tuple(letter_key(l) for l in slot) for slot in w.slots))
        for w in x.words
    )


def shift_free_collapse(rank: int, hbar: float = 0.1, eta: float = 1.0) -> dict:
    """With every c_n = 0 the coproducts must lose all argument shifts."""
    params = ParamTower(hbar, eta, (0.0, 0.0, 0.0))
    shifted = []
    for kind in GEN_KINDS:
        for i in range(1, rank + 1):
            img = coproduct_plus(CurrentExpr.generator(kind, i, 0), params)
            for w in img.words:
                for slot in w.slots:
                    for l in slot:
                        if l.arg is not None and l.arg != ShiftExpr.of_var("u"):
                            shifted.append(f"{kind}_{i}")
    return {"pass": not shifted, "offenders": sorted(set(shifted))}


# ---------------------------------------------------------------------------
# Level-k realization on the free-field backend
# ---------------------------------------------------------------------------


def level_k_currents(kind: str, i: int, k: int, params: ParamTower,
                     iteration: str = "left") -> CurrentExpr:
    """Iterated coproduct image of a level-1 generator on k tensor slots.

    ``left`` (canonical) re-expands slot 0 at each step; ``right``
    re-expands the last slot.  For k = 2 they coincide.
    """
    if k < 2:
        raise ValueError("k >= 2")
    if params.max_level() < k:
        raise ValueError("tower too short for the requested level")
    x = coproduct_plus(CurrentExpr.generator(kind, i, 0), params)
    for _step in range(k - 2):
        slot = 0 if iteration == "left" else x.degree() - 1
        x = coproduct_slot(x, params, slot)
    return x


def iteration_order_report(kind: str, i: int, params: ParamTower) -> dict:
    """Structural difference of the two k = 3 iteration orders."""
    left = level_k_currents(kind, i, 3, params, "left")
    right = level_k_currents(kind, i, 3, params, "right")
    same = _words_key(left) == _words_key(right)
    return {
        "generator": f"{kind}_{i}",
        "identical": same,
        "left_words": len(left.words),
        "right_words": len(right.words),
    }


def _slot_words(x: CurrentExpr, name: str) -> list[tuple[complex, bchecks.SlotWord]]:
    """Each tensor word as (coefficient, its letters as slot-tagged
    free-field currents), with the variable ``name`` in place of u."""
    out = []
    for w in x.words:
        cs = []
        for slot_idx, slot in enumerate(w.slots):
            for l in slot:
                if l.kind == "one":
                    continue
                if l.kind not in GEN_KINDS:
                    raise ValueError(f"free-field backend cannot realize {l.kind}")
                cs.append((slot_idx, BosonCurrent(l.kind, l.i, l.arg.subs("u", var(name)),
                                                  slot=l.tag)))
        out.append((w.coeff, cs))
    return out


def verify_homomorphism(cartan: CartanData, params: ParamTower,
                        samples: int = 12, tol: float = 1e-7,
                        rng: int | np.random.Generator = 29,
                        relations: Optional[Sequence[str]] = None) -> list[dict]:
    """Level-2 images satisfy the defining relations at total level 2.

    For each delta-free relation the two ordered products of coproduct
    images are expanded into slot-tagged normal-ordered monomials; the
    per-monomial coefficient functions must match across the exchange,
    with the level-2 structure function as the ratio.  A record sees its
    nodes only through their class (``liealg.node_class``): each (relation,
    class) is sampled at its first node pair, and the class's other
    records carry that result.  Every relation draws from one stream
    ``rng``, a seed or a generator.
    """
    rng = np.random.default_rng(rng)
    if relations is None:
        relations = structfn.RELATIONS

    @functools.cache
    def image(kind: str, node: int, name: str) -> list:
        return _level2_slot_words(kind, node, name, params)

    out = []
    for rel in relations:
        classes: dict = {}
        for i in cartan.nodes():
            for j in cartan.nodes():
                key = node_class(cartan, i, j)
                if key not in classes:
                    classes[key] = _homomorphism_record(rel, i, j, cartan, params, image,
                                                        samples, tol, rng)
                out.append({**classes[key], "i": i, "j": j})
    return out


def _homomorphism_record(rel: str, i: int, j: int, cartan: CartanData, params: ParamTower,
                         image: Callable[[str, int, str], list], samples: int, tol: float,
                         rng: np.random.Generator) -> dict:
    """The level-2 exchange ``rel`` of the images ``image(kind, node, name)``
    of X_i(u) and Y_j(v), sampled at ``samples`` points drawn from ``rng``."""
    kx, ky = structfn.exchange_kinds(rel)
    # total level 2: the primed scale of the image algebra is
    # eta^(2) (1/eta^(2) - 1/eta^(0) = 2*hbar for unit levels)
    sr = structfn.ratio(rel, i, j, cartan, c=2, prime_period=2)
    res, done = bchecks.exchange_residual(image(kx, i, "u"), image(ky, j, "v"), sr,
                                          cartan, params, 0.15, samples, rng)
    return {"relation": rel, "i": i, "j": j, "k": 2, "samples": done, **judged(res, tol, done)}


def _level2_slot_words(kind: str, node: int, name: str,
                       params: ParamTower) -> list[tuple[complex, bchecks.SlotWord]]:
    """Slot words of the level-2 image of the generator kind_node(name)."""
    return _slot_words(level_k_currents(kind, node, 2, params), name)


def verify_serre_level2(cartan: CartanData, params: ParamTower, i: int, j: int,
                        samples: int = 8, tol: float = 1e-7,
                        rng: int | np.random.Generator = 43) -> dict:
    """Cubic relation for the level-2 images of an adjacent pair.

    The symmetrized combination of the three orderings of
    Delta+E_i(u1), Delta+E_i(u2), Delta+E_j(v) (with the level-2
    algebra's own 2cos coefficient, which lives at the unshifted scale)
    must vanish per normal-ordered monomial signature.
    """
    if cartan.a_entry(i, j) != -1:
        raise ValueError("cubic relation applies to adjacent pairs only")
    rng = np.random.default_rng(rng)
    u1, u2, v = (_level2_slot_words("E", node, name, params)
                 for name, node in (("u1", i), ("u2", i), ("v", j)))
    worst, done, signatures = bchecks.cubic_residual(u1, u2, v, cartan, params, 0.1,
                                                     samples, rng)
    return {"pair": (i, j), "k": 2, "signatures": signatures, "samples": done,
            **judged(worst, tol, done)}


def ef_pole_audit_level2(cartan: CartanData, params: ParamTower, i: int) -> dict:
    """Pole/residue audit of the level-2 commutator of E_i(u), F_i(v).

    Only the two monomials with an E-F pair inside one slot produce
    commutator deltas.  Their cross-contraction factors have poles at
    w in {i*hbar, 0} and {0, -i*hbar}; the audit verifies that pole
    inventory, that the two w = 0 residues cancel each other (their
    normal-ordered payloads coincide, both being the mixed H- (x) H+
    word), and that the surviving supports are exactly w = +-i*hbar with
    delta coefficients +-2*pi/hbar.
    """
    h = params.hbar
    # monomial A: (E(u) (x) 1) * (F(v + ih c1/2) (x) H+(v + ih c1/4)), slots (0, 1)
    word_a = [bcur("E", i, "u", 0, slot=0), bcur("F", i, "v", Fraction(1, 2), slot=0)]
    # monomial B: (H-(u + ih c0/4) (x) E(u + ih c0/2)) * (1 (x) F(v)), slot 1 pair
    word_b = [bcur("E", i, "u", Fraction(1, 2), slot=1), bcur("F", i, "v", 0, slot=1)]
    cform_a = bchecks.word_exponent(word_a, cartan, params)
    cform_b = bchecks.word_exponent(word_b, cartan, params)
    poles_a = sorted(hh for _p, _o, hh in bchecks.strip_poles(cform_a, params))
    poles_b = sorted(hh for _p, _o, hh in bchecks.strip_poles(cform_b, params))
    inventory_ok = (
        [round(x / h, 9) for x in poles_a] == [0.0, 1.0]
        and [round(x / h, 9) for x in poles_b] == [-1.0, 0.0]
    )
    ph_a = word_phase(word_a, cartan)
    ph_b = word_phase(word_b, cartan)
    # w = 0: the two monomials share the H-(x)H+ payload; residues cancel.
    c0a = bchecks.delta_coefficient(cform_a, ph_a, 0.0 + 0.0j, params)
    c0b = bchecks.delta_coefficient(cform_b, ph_b, 0.0 + 0.0j, params)
    cancel_res = abs(c0a + c0b) / max(1.0, abs(c0a))
    # surviving supports: +-i*hbar with coefficients +-2*pi/hbar
    cp = bchecks.delta_coefficient(cform_a, ph_a, 1j * h, params)
    cm = bchecks.delta_coefficient(cform_b, ph_b, -1j * h, params)
    target = 2.0 * math.pi / h
    surv_res = worst_of(abs(cp - target), abs(cm + target)) / target
    return {
        "i": i,
        "pole_heights_ihbar": sorted({round(x / h, 9) for x in poles_a + poles_b}),
        "inventory_ok": bool(inventory_ok),
        "zero_support_cancellation": cancel_res,
        "surviving_coefficient_residual": surv_res,
        # a wrong pole inventory fails the record at residual inf
        **judged(worst_of(cancel_res, surv_res) if inventory_ok else math.inf, 1e-8),
    }
