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

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import evalrep, structfn
from .boson.atoms import _rational_level
from .boson.checks import word_exponent, word_phase
from .boson.contraction import ClosedForm
from .boson.currents import BosonCurrent
from .liealg import CartanData
from .params import ParamTower
from .trigcalc import DistExpr, ShiftExpr, equal_numeric, sample_max, var

GEN_KINDS = ("E", "F", "H+", "H-")
LETTER_KINDS = GEN_KINDS + ("H+inv", "H-inv", "one", "c")


@dataclass(frozen=True)
class Letter:
    kind: str
    i: int                    # node; 0 for 'one'/'c'
    arg: Optional[ShiftExpr]  # spectral argument; None for 'one'/'c'
    tag: int                  # family index n

    def retagged(self, tag: int) -> "Letter":
        return replace(self, tag=tag)


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
        return _rational_level(params, n)
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


def coproduct_plus(x: CurrentExpr, params: ParamTower) -> CurrentExpr:
    """Delta_n^+ extended multiplicatively to words (slot count 1 -> 2)."""
    return _coproduct(x, params, +1)


def coproduct_minus(x: CurrentExpr, params: ParamTower) -> CurrentExpr:
    return _coproduct(x, params, -1)


def _coproduct(x: CurrentExpr, params: ParamTower, direction: int) -> CurrentExpr:
    out: list[Word] = []
    for w in x.words:
        if len(w.slots) != 1:
            raise ValueError("coproduct acts on single-slot expressions")
        expansion: list[Word] = [Word(w.coeff, ((), ()))]
        for letter in w.slots[0]:
            images = coproduct_letter(letter, params, direction)
            expansion = [
                Word(e.coeff * im.coeff,
                     (e.slots[0] + im.slots[0], e.slots[1] + im.slots[1]))
                for e in expansion for im in images
            ]
        out.extend(expansion)
    return CurrentExpr(out)


def coproduct_slot(x: CurrentExpr, params: ParamTower, slot: int) -> CurrentExpr:
    """Apply Delta^+ to one tensor slot of a multi-slot expression."""
    out: list[Word] = []
    for w in x.words:
        expansion: list[Word] = [Word(w.coeff, ((), ()))]
        for letter in w.slots[slot]:
            images = coproduct_letter(letter, params, +1)
            expansion = [
                Word(e.coeff * im.coeff,
                     (e.slots[0] + im.slots[0], e.slots[1] + im.slots[1]))
                for e in expansion for im in images
            ]
        out.extend(
            Word(e.coeff, w.slots[:slot] + (e.slots[0], e.slots[1]) + w.slots[slot + 1:])
            for e in expansion
        )
    return CurrentExpr(out)


def counit_letter(letter: Letter) -> complex:
    if letter.kind in ("H+", "H-", "H+inv", "H-inv", "one"):
        return 1.0
    if letter.kind in ("E", "F", "c"):
        return 0.0
    raise ValueError(letter.kind)


def counit(x: CurrentExpr) -> complex:
    """Morphism extension of the counit table to sums of words."""
    total = 0.0 + 0.0j
    for w in x.words:
        val = w.coeff
        for slot in w.slots:
            for letter in slot:
                val *= counit_letter(letter)
        total += val
    return total


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
    for w in x.words:
        if len(w.slots) != 1:
            raise ValueError("antipode acts on single-slot expressions")
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
    out = []
    for w in x.words:
        val = 1.0 + 0.0j
        for letter in w.slots[slot]:
            val *= counit_letter(letter)
        out.append(Word(w.coeff * val, w.slots[:slot] + w.slots[slot + 1:]))
    return CurrentExpr(out)


# ---------------------------------------------------------------------------
# Backend: level-0 module evaluation
# ---------------------------------------------------------------------------


class EvalBackend:
    """Evaluate single-slot words in the level-0 module (all tags equal)."""

    def __init__(self, rep: evalrep.EvalRep):
        self.rep = rep
        self._hinv_plus: dict[int, DistExpr] = {}
        self._hinv_minus: dict[int, DistExpr] = {}
        for l in range(1, rep.r + 1):
            self._hinv_plus[l] = rep.h_plus[l].reciprocal()
            self._hinv_minus[l] = rep.h_minus[l].reciprocal()

    def letter_expr(self, letter: Letter) -> DistExpr:
        rep = self.rep
        k = letter.kind
        if k == "one":
            return DistExpr.matrix(np.eye(rep.dim, dtype=complex))
        if k == "c":
            return DistExpr.zero()  # the central element acts by 0 at level 0
        table = {
            "H+": rep.h_plus, "H-": rep.h_minus,
            "H+inv": self._hinv_plus, "H-inv": self._hinv_minus,
        }
        if k in table:
            base = table[k][letter.i]
        elif k == "E":
            base = evalrep.total_current(rep, "E", letter.i)
        elif k == "F":
            base = evalrep.total_current(rep, "F", letter.i)
        else:
            raise ValueError(k)
        return base.subs(evalrep.U, letter.arg)

    def word_expr(self, w: Word) -> DistExpr:
        if len(w.slots) != 1:
            raise ValueError("backend evaluates single-slot words")
        acc = DistExpr.matrix(np.eye(self.rep.dim, dtype=complex)).scaled(w.coeff)
        for letter in w.slots[0]:
            acc = acc * self.letter_expr(letter)
        return acc

    def expr(self, x: CurrentExpr) -> DistExpr:
        acc = DistExpr.zero()
        for w in x.words:
            acc = acc + self.word_expr(w)
        return acc


# ---------------------------------------------------------------------------
# Axiom suite
# ---------------------------------------------------------------------------


def _axiom_sides(kind: str, i: int, tag: int, params: ParamTower):
    """The four axiom (lhs, rhs) pairs as single-slot CurrentExpr."""
    x = CurrentExpr.generator(kind, i, tag)
    ident_plus = CurrentExpr(tuple(
        Word(w.coeff, ((tuple(l.retagged(tag + 1) for l in w.slots[0]),)))
        for w in x.words))
    ident_minus = CurrentExpr(tuple(
        Word(w.coeff, ((tuple(l.retagged(tag - 1) for l in w.slots[0]),)))
        for w in x.words))
    eps_value = counit(x)
    one_plus = CurrentExpr.generator("one", 0, tag + 1).scaled(eps_value)
    one_minus = CurrentExpr.generator("one", 0, tag - 1).scaled(eps_value)

    dplus = coproduct_plus(x, params)
    dminus = coproduct_minus(x, params)
    return [
        ("counit_plus", counit_slot(dplus, 0), ident_plus),
        ("counit_minus", counit_slot(dminus, 1), ident_minus),
        ("antipode_plus",
         multiply_slots(map_slot(dplus, 0, lambda s: antipode(s, params, +1))),
         one_plus),
        ("antipode_minus",
         multiply_slots(map_slot(dminus, 1, lambda s: antipode(s, params, -1))),
         one_minus),
    ]


def verify_axioms(rep: evalrep.EvalRep, params: ParamTower, samples: int = 30,
                  tol: float = 1e-9, seed: int = 17) -> list[dict]:
    """All four axioms on every generator, in the level-0 backend."""
    backend = EvalBackend(rep)
    rng = np.random.default_rng(seed)
    out = []
    gens = [("c", 0)] + [(k, i) for k in GEN_KINDS for i in range(1, rep.r + 1)]
    for kind, i in gens:
        for name, lhs, rhs in _axiom_sides(kind, i, tag=0, params=params):
            le = backend.expr(lhs)
            re_ = backend.expr(rhs)
            cmp = equal_numeric(le, re_, params, samples=samples, tol=tol, rng=rng)
            out.append({
                "axiom": name, "generator": f"{kind}_{i}" if i else kind,
                "max_residual": cmp["max_residual"], "pass": cmp["pass"],
                "samples": samples,
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
        "left": _pretty_words(left),
        "right": _pretty_words(right),
    }


def _pretty_words(x: CurrentExpr) -> list[str]:
    out = []
    for w in x.words:
        slots = []
        for slot in w.slots:
            slots.append("*".join(
                f"{l.kind}{l.i}[{l.arg}]@{l.tag}" if l.arg is not None else f"{l.kind}@{l.tag}"
                for l in slot) or "1")
        out.append(" (x) ".join(slots))
    return sorted(out)


def _word_to_boson(w: Word) -> list[tuple[int, BosonCurrent]]:
    """Letters of a tensor word as slot-tagged free-field currents."""
    out = []
    for slot_idx, slot in enumerate(w.slots):
        for l in slot:
            if l.kind == "one":
                continue
            if l.kind not in GEN_KINDS:
                raise ValueError(f"free-field backend cannot realize {l.kind}")
            out.append((slot_idx, BosonCurrent(l.kind, l.i, l.arg, slot=l.tag)))
    return out


def _signature(cs: list[tuple[int, BosonCurrent]]):
    return tuple(sorted(
        (slot, c.kind, c.j, str(c.arg), c.slot) for slot, c in cs
    ))


def _word_forms(cs: list[tuple[int, BosonCurrent]], cartan: CartanData,
                params: ParamTower) -> list[tuple[complex, ClosedForm]]:
    """(phase, contraction exponent) of each tensor slot's word, slot by slot."""
    out = []
    for s in sorted({s for s, _ in cs}):
        word = [c for sl, c in cs if sl == s]
        out.append((word_phase(word, cartan), word_exponent(word, cartan, params)))
    return out


def _word_value(forms: list[tuple[complex, ClosedForm]], params: ParamTower,
                pt) -> complex:
    val = 1.0 + 0.0j
    for phase, form in forms:
        val *= phase
        val *= form.exp_value(pt, params)
    return val


def _signature_forms(groups: dict, cartan: CartanData,
                     params: ParamTower) -> Optional[dict]:
    """Each signature's (coefficient, slot forms) list, or None when a form
    cannot be built: then no sample point can be evaluated."""
    try:
        return {sig: [(c, _word_forms(cs, cartan, params)) for c, cs in entries]
                for sig, entries in groups.items()}
    except (ArithmeticError, OverflowError, ValueError):
        return None


def verify_homomorphism(cartan: CartanData, params: ParamTower,
                        samples: int = 12, tol: float = 1e-7,
                        seed: int = 29, relations: Optional[Sequence[str]] = None) -> list[dict]:
    """Level-2 images satisfy the defining relations at total level 2.

    For each delta-free relation the two ordered products of coproduct
    images are expanded into slot-tagged normal-ordered monomials; the
    per-monomial coefficient functions must match across the exchange,
    with the level-2 structure function as the ratio.
    """
    rng = np.random.default_rng(seed)
    if relations is None:
        relations = structfn.RELATIONS
    out = []
    for rel in relations:
        kx, ky = structfn.exchange_kinds(rel)
        for i in cartan.nodes():
            for j in cartan.nodes():
                x2 = level_k_currents(kx, i, 2, params)
                y2 = level_k_currents(ky, j, 2, params)
                x2 = _rename_var(x2, "u")
                y2 = _rename_var(y2, "v")
                # total level 2: the primed scale of the image algebra is
                # eta^(2) (1/eta^(2) - 1/eta^(0) = 2*hbar for unit levels)
                sr = structfn.ratio(rel, i, j, cartan, c=2, prime_period=2)
                res, done = _exchange_residual(x2, y2, sr, cartan, params, samples, rng)
                out.append({
                    "relation": rel, "i": i, "j": j, "k": 2,
                    "max_residual": res, "pass": bool(res < tol),
                    "samples": done,
                })
    return out


def _rename_var(x: CurrentExpr, name: str) -> CurrentExpr:
    out = []
    for w in x.words:
        slots = []
        for slot in w.slots:
            slots.append(tuple(
                l if l.arg is None else replace(l, arg=l.arg.subs("u", var(name)))
                for l in slot))
        out.append(Word(w.coeff, tuple(slots)))
    return CurrentExpr(out)


def _exchange_residual(x2: CurrentExpr, y2: CurrentExpr, sr: structfn.StructureRatio,
                       cartan: CartanData, params: ParamTower,
                       samples: int, rng: np.random.Generator) -> tuple[float, int]:
    """(worst residual, accepted points); inf when no point was accepted."""
    lhs_words: dict = {}
    rhs_words: dict = {}
    for wx in x2.words:
        for wy in y2.words:
            cs = _word_to_boson(wx) + _word_to_boson(wy)
            lhs_words.setdefault(_signature(cs), []).append((wx.coeff * wy.coeff, cs))
    for wy in y2.words:
        for wx in x2.words:
            cs = _word_to_boson(wy) + _word_to_boson(wx)
            rhs_words.setdefault(_signature(cs), []).append((wy.coeff * wx.coeff, cs))
    if set(lhs_words) != set(rhs_words):
        return float("inf"), 0
    lhs_forms = _signature_forms(lhs_words, cartan, params)
    rhs_forms = _signature_forms(rhs_words, cartan, params)

    def residual(pt):
        if lhs_forms is None or rhs_forms is None:
            return None
        try:
            ratio_val = sr.eval(pt["u"] - pt["v"], params)
            res_here = 0.0
            for sig in lhs_forms:
                lv = sum(c * _word_value(fs, params, pt) for c, fs in lhs_forms[sig])
                rv = sum(c * _word_value(fs, params, pt) for c, fs in rhs_forms[sig])
                scale = max(1.0, abs(lv), abs(ratio_val * rv))
                res_here = max(res_here, abs(lv - ratio_val * rv) / scale)
        except ValueError:
            return None
        return res_here

    window = ((-2.0, 2.0), (-0.15, 0.15))
    worst, done = sample_max(residual, {"u": window, "v": window}, samples, rng)
    return (worst if done else float("inf")), done


def verify_serre_level2(cartan: CartanData, params: ParamTower, i: int, j: int,
                        samples: int = 8, tol: float = 1e-7,
                        rng: Optional[np.random.Generator] = None) -> dict:
    """Cubic relation for the level-2 images of an adjacent pair.

    The symmetrized combination of the three orderings of
    Delta+E_i(u1), Delta+E_i(u2), Delta+E_j(v) (with the level-2
    algebra's own 2cos coefficient, which lives at the unshifted scale)
    must vanish per normal-ordered monomial signature.
    """
    if cartan.a_entry(i, j) != -1:
        raise ValueError("cubic relation applies to adjacent pairs only")
    if rng is None:
        rng = np.random.default_rng(43)
    coef = structfn.serre_coefficient(params, "E")
    imgs = {
        name: _rename_var(level_k_currents("E", node, 2, params), name)
        for name, node in (("u1", i), ("u2", i), ("v", j))
    }

    def orderings(a, b):
        return [((a, b, "v"), 1.0), ((a, "v", b), -coef), (("v", a, b), 1.0)]

    groups: dict = {}
    for names, weight in orderings("u1", "u2") + orderings("u2", "u1"):
        for w1 in imgs[names[0]].words:
            for w2 in imgs[names[1]].words:
                for w3 in imgs[names[2]].words:
                    cs = _word_to_boson(w1) + _word_to_boson(w2) + _word_to_boson(w3)
                    coeff = weight * w1.coeff * w2.coeff * w3.coeff
                    groups.setdefault(_signature(cs), []).append((coeff, cs))
    forms = _signature_forms(groups, cartan, params)

    def residual(pt):
        if forms is None:
            return None
        try:
            res_here = 0.0
            for entries in forms.values():
                vals = [c * _word_value(fs, params, pt) for c, fs in entries]
                scale = max(1.0, max(abs(v) for v in vals))
                res_here = max(res_here, abs(sum(vals)) / scale)
        except ValueError:
            return None
        return res_here

    window = ((-2.0, 2.0), (-0.1, 0.1))
    worst, done = sample_max(residual, {n: window for n in ("u1", "u2", "v")}, samples, rng)
    return {"pair": (i, j), "k": 2, "signatures": len(groups), "samples": done,
            "max_residual": worst, "tol": tol,
            "pass": bool(done > 0 and worst < tol)}


def ef_pole_audit_level2(cartan: CartanData, params: ParamTower, i: int,
                         tol: float = 1e-8) -> dict:
    """Pole/residue audit of the level-2 commutator of E_i(u), F_i(v).

    Only the two monomials with an E-F pair inside one slot produce
    commutator deltas.  Their cross-contraction factors have poles at
    w in {i*hbar, 0} and {0, -i*hbar}; the audit verifies that pole
    inventory, that the two w = 0 residues cancel each other (their
    normal-ordered payloads coincide, both being the mixed H- (x) H+
    word), and that the surviving supports are exactly w = +-i*hbar with
    delta coefficients +-2*pi/hbar.
    """
    from .boson.currents import current as bcur
    from .boson.master import EULER_GAMMA
    import math

    h = params.hbar
    # monomial A: (E(u) (x) 1) * (F(v + ih c1/2) (x) H+(v + ih c1/4)), slots (0, 1)
    word_a = [bcur("E", i, "u", 0, slot=0), bcur("F", i, "v", Fraction(1, 2), slot=0)]
    # monomial B: (H-(u + ih c0/4) (x) E(u + ih c0/2)) * (1 (x) F(v)), slot 1 pair
    word_b = [bcur("E", i, "u", Fraction(1, 2), slot=1), bcur("F", i, "v", 0, slot=1)]
    cform_a = word_exponent(word_a, cartan, params)
    cform_b = word_exponent(word_b, cartan, params)
    strip_bound = 0.45 / params.eta
    poles_a = sorted(hh for _p, o, hh in cform_a.pole_catalog("u", "v", params, strip_bound) if o > 0)
    poles_b = sorted(hh for _p, o, hh in cform_b.pole_catalog("u", "v", params, strip_bound) if o > 0)
    inventory_ok = (
        [round(x / h, 9) for x in poles_a] == [0.0, 1.0]
        and [round(x / h, 9) for x in poles_b] == [-1.0, 0.0]
    )
    gamma_pref = math.exp(2.0 * EULER_GAMMA)
    ph_a = word_phase(word_a, cartan)
    ph_b = word_phase(word_b, cartan)
    radius = h / 8.0

    def delta_coeff(cform, phase, w0):
        res = cform.residue_at(w0, params, "u", "v", radius=radius)
        return -2j * math.pi * res * gamma_pref * phase

    # w = 0: the two monomials share the H-(x)H+ payload; residues cancel.
    c0a = delta_coeff(cform_a, ph_a, 0.0 + 0.0j)
    c0b = delta_coeff(cform_b, ph_b, 0.0 + 0.0j)
    cancel_res = abs(c0a + c0b) / max(1.0, abs(c0a))
    # surviving supports: +-i*hbar with coefficients +-2*pi/hbar
    cp = delta_coeff(cform_a, ph_a, 1j * h)
    cm = delta_coeff(cform_b, ph_b, -1j * h)
    target = 2.0 * math.pi / h
    surv_res = max(abs(cp - target), abs(cm + target)) / target
    worst = max(cancel_res, surv_res)
    return {
        "i": i,
        "pole_heights_ihbar": sorted({round(x / h, 9) for x in poles_a + poles_b}),
        "inventory_ok": bool(inventory_ok),
        "zero_support_cancellation": cancel_res,
        "surviving_coefficient_residual": surv_res,
        "max_residual": worst,
        "pass": bool(inventory_ok and worst < tol),
    }
