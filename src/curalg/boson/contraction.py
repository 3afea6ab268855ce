"""Reduction of contraction integrands to master-formula primitives.

The normal-ordering exponent of a pair of free-field exponentials is the
log-weighted contour integral of kernel(lambda) * g1(lambda) *
g2(-lambda); after the sh products are cancelled and resummed the
integrand always lands on the finite catalog

    coeff * e^{i*lambda*vars + s*lambda} / lambda              -> I0
    coeff * e^{...} / (lambda * (1 - e^{-beta*lambda}))        -> M_{1/beta}

Reduction rules (coefficients stay integers by construction):

* sh cancellation:  identical num/den arguments drop.
* integer ratio:    sh(m*b)/sh(b) = sum_j e^{(m-1-2j)*b*lambda}.
* den -> Bose:      1/sh(b) = 2 e^{-b} / (1 - e^{-2b}),  b > 0.
* sh vs Bose:       sh(a) * Bose(2a) = e^{a*lambda}/2.
* two Bose scales:  with d = beta2 - beta1 > 0 and sh(d/2) available,
  Bose(beta1)*Bose(beta2) = (e^{(beta1+beta2)/2}/2) * [Bose(beta1) -
  Bose(beta2)] after absorbing sh(d/2); this is what untangles the
  H-current pairs whose two Bose scales differ by the level shift.

Anything that fails to land on the catalog raises ``UnsupportedPairError``;
``quadrature_exponent`` integrates the undecomposed integrand directly and
is the oracle the closed forms are validated against.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from ..params import ParamTower
from .atoms import ExponentFn, ParamLin
from .kernel import Kernel
from .master import (
    EULER_GAMMA,
    _contour_quadrature,
    _gamma_scaled,
    exp_i0,
    i0_closed,
    master_integral,
)


class UnsupportedPairError(ValueError):
    """Integrand neither decomposes nor admits convergent quadrature."""


class Primitive:
    """coeff * primitive(x(w)), x = -i*vars - s; Bose scale beta or None."""

    def __init__(self, coeff: int, vars: tuple[tuple[str, int], ...], s: ParamLin,
                 beta: Optional[ParamLin]) -> None:
        self.coeff = coeff
        self.vars = vars
        self.s = s
        self.beta = beta


class _Work:
    def __init__(self, coeff: complex, vars: tuple[tuple[str, int], ...], rshift: ParamLin,
                 num_sh: list[ParamLin], den_sh: list[ParamLin], bose: list[ParamLin]) -> None:
        self.coeff = coeff
        self.vars = vars
        self.rshift = rshift
        self.num_sh = num_sh
        self.den_sh = den_sh
        self.bose = bose


def _normalize_sh_list(args: Sequence[ParamLin], params: ParamTower) -> tuple[int, list[ParamLin]]:
    sign = 1
    out = []
    for a in args:
        v = a.value(params)
        if v == 0:
            raise UnsupportedPairError("sh argument degenerates to zero")
        if v < 0:
            sign = -sign
            a = -a
        out.append(a)
    return sign, out


def _reduce(work: _Work, params: ParamTower) -> list[_Work]:
    """Apply one reduction step; returns replacement works (may branch)."""
    # identical num/den cancellation
    for a in list(work.num_sh):
        for b in list(work.den_sh):
            if a == b:
                work.num_sh.remove(a)
                work.den_sh.remove(b)
                return [work]
    # integer-multiple resummation sh(m b)/sh(b)
    for b in list(work.den_sh):
        for a in list(work.num_sh):
            m = a.integer_ratio(b)
            if m is None:
                continue
            work.num_sh.remove(a)
            work.den_sh.remove(b)
            outs = []
            for jj in range(m):
                w2 = _clone(work)
                w2.rshift = work.rshift + b * Fraction(m - 1 - 2 * jj)
                outs.append(w2)
            return outs
    # sh(a) against Bose(2a)
    for a in list(work.num_sh):
        for beta in list(work.bose):
            if beta == a * 2:
                work.num_sh.remove(a)
                work.bose.remove(beta)
                work.coeff *= 0.5
                work.rshift = work.rshift + a
                return [work]
    # remaining 1/sh -> Bose
    if work.den_sh:
        b = work.den_sh.pop()
        work.coeff *= 2.0
        work.rshift = work.rshift - b
        work.bose.append(b * 2)
        return [work]
    # two distinct Bose scales, difference matched by an sh numerator
    if len(work.bose) >= 2:
        bs = sorted(work.bose, key=lambda b: b.value(params))
        b1, b2 = bs[0], bs[1]
        if b1 == b2:
            raise UnsupportedPairError("repeated Bose scale without matching sh")
        d = b2 - b1
        half = d * Fraction(1, 2)
        match = next((a for a in work.num_sh if a == half), None)
        if match is None:
            raise UnsupportedPairError(
                f"Bose scales {b1}, {b2} differ by {d} with no sh({half}) numerator")
        work.num_sh.remove(match)
        work.bose.remove(b1)
        work.bose.remove(b2)
        work.coeff *= 0.5
        work.rshift = work.rshift + (b1 + b2) * Fraction(1, 2)
        wa = _clone(work)
        wa.bose = work.bose + [b1]
        wb = _clone(work)
        wb.coeff = -wb.coeff
        wb.bose = work.bose + [b2]
        return [wa, wb]
    # expand leftover sh numerators
    if work.num_sh:
        a = work.num_sh.pop()
        work.coeff *= 0.5
        wa = _clone(work)
        wa.rshift = work.rshift + a
        wb = _clone(work)
        wb.coeff = -wb.coeff
        wb.rshift = work.rshift - a
        return [wa, wb]
    return []


def _clone(w: _Work) -> _Work:
    return _Work(w.coeff, w.vars, w.rshift, list(w.num_sh), list(w.den_sh), list(w.bose))


def _x_value(vars_: tuple[tuple[str, int], ...], s: float,
             assignment: Mapping[str, complex]) -> complex:
    """A primitive's argument x = -i*vars - s at ``assignment``."""
    z = 0.0 + 0.0j
    for n, c in vars_:
        z += c * complex(assignment[n])
    return -1j * z - s


class ClosedForm:
    """Finite sum of primitives; the exponent C of one contraction factor."""

    def __init__(self, primitives: tuple[Primitive, ...]) -> None:
        self.primitives = primitives
        # (tower, float plan) of the last tower evaluated under; see _float_plan
        self._plan: tuple = (None, ())

    def _float_plan(self, params: ParamTower) -> tuple:
        """Per primitive (id, coeff, vars, s, eta_p, gamma - ln eta_p) in floats,
        eta_p = 1/beta, or (id, coeff, vars, s, None, None) for I0; built at
        the first evaluation under a tower and kept until one under another."""
        tower, plan = self._plan
        if tower is None or (tower is not params and tower != params):
            plan = []
            for p in self.primitives:
                s = p.s.value(params)
                if p.beta is None:
                    plan.append((id(p), p.coeff, p.vars, s, None, None))
                else:
                    eta_p = 1.0 / p.beta.value(params)
                    plan.append((id(p), p.coeff, p.vars, s, eta_p,
                                 EULER_GAMMA - math.log(eta_p)))
            plan = tuple(plan)
            self._plan = (params, plan)
        return plan

    def value(self, assignment: Mapping[str, complex], params: ParamTower) -> complex:
        """The exponent itself (principal branches; may raise off-domain)."""
        total = 0j
        for _, coeff, vars_, s, eta_p, _ in self._float_plan(params):
            x = _x_value(vars_, s, assignment)
            total += coeff * (i0_closed(x) if eta_p is None else master_integral(x, eta_p))
        return total

    def exp_value(self, assignment: Mapping[str, complex], params: ParamTower,
                  memo: Optional[dict] = None) -> complex:
        """exp(C), single-valued meromorphic continuation.

        ``memo`` (one dict per ``assignment``) keeps each primitive object's
        powered factor, so forms that share primitives compute each once.
        The factors multiply in primitive order whether or not they were
        memoized, so the value is bit for bit the same.
        """
        out = 1.0
        if memo is None:
            memo = {}
        for key, coeff, vars_, s, eta_p, c in self._float_plan(params):
            f = memo.get(key)
            if f is None:
                # _x_value inlined: the call cost about 8% of this loop on D4
                z = 0.0 + 0.0j
                for n, k in vars_:
                    z += k * complex(assignment[n])
                x = -1j * z - s
                f = memo[key] = (exp_i0(x) if eta_p is None
                                 else _gamma_scaled(eta_p * x, c)) ** coeff
            out *= f
        return out

    def describe(self) -> list[str]:
        """Audit strings, one per primitive: coeff * kind(x = -i*w - s)."""
        out = []
        for p in self.primitives:
            wpart = "".join(
                ("+" if c > 0 else "-") + (f"{abs(c)}*" if abs(c) != 1 else "") + n
                for n, c in p.vars)
            kind = "I0" if p.beta is None else f"M[beta={p.beta}]"
            out.append(f"{p.coeff:+d} * {kind}(x = -i*({wpart.lstrip('+')}) - ({p.s}))")
        return sorted(out)

    # -- pole bookkeeping ---------------------------------------------------

    def pole_catalog(self, wvar_plus: str, wvar_minus: str, params: ParamTower,
                     imag_bound: float) -> list[tuple[ParamLin, int, float]]:
        """Zeros/poles of exp(C) in w = (+var) - (-var), |Im w| <= bound.

        Every primitive must be an I0 primitive in exactly the pair
        (wvar_plus, +1), (wvar_minus, -1).  The E-F forms this is asked
        about are: their sh factors cancel to sh(hbar)/sh(hbar/2) for any
        parameters.  An M primitive, whose Gamma poles form a ladder,
        raises.  Returns (position p [w = i*p], order, numeric height);
        order > 0 means pole.
        """
        expect = tuple(sorted(((wvar_plus, 1), (wvar_minus, -1))))
        ladder: dict[ParamLin, int] = {}
        for p in self.primitives:
            if tuple(sorted(p.vars)) != expect:
                raise ValueError("pole catalog needs primitives in one difference variable")
            if p.beta is not None:
                raise ValueError("pole catalog of an M primitive (a Gamma-pole ladder)")
            # (e^{-gamma}/x)^c: x = 0 at w = i*s
            if abs(p.s.value(params)) <= imag_bound + 1e-12:
                ladder[p.s] = ladder.get(p.s, 0) + p.coeff
        out = [(pos, order, pos.value(params)) for pos, order in ladder.items() if order != 0]
        out.sort(key=lambda rec: rec[2])
        return out

    def residue_at(self, w0: complex, params: ParamTower, var_plus: str,
                   var_minus: str, radius: float) -> complex:
        """Numeric residue of exp(C) at w = w0 (simple pole), 64-point circle rule."""
        npts = 64
        acc = 0.0 + 0.0j
        for k in range(npts):
            th = 2.0 * math.pi * k / npts
            w = w0 + radius * cmath.exp(1j * th)
            val = self.exp_value({var_plus: w, var_minus: 0.0}, params)
            acc += val * radius * cmath.exp(1j * th)
        return acc / npts


def product_exponent(kernel: Kernel, g1: ExponentFn, g2: ExponentFn,
                     params: ParamTower) -> ClosedForm:
    """Decompose kernel * g1(lambda) * g2(-lambda) (kernel carries 1/lambda)."""
    g2n = g2.negated_lambda()
    coeff = kernel.coeff * g1.weight * g2n.weight
    if coeff == 0:
        return ClosedForm(())
    sign_n, num = _normalize_sh_list(kernel.num_sh + g1.num_sh + g2n.num_sh, params)
    sign_d, den = _normalize_sh_list(kernel.den_sh + g1.den_sh + g2n.den_sh, params)
    v = dict(g1.vars)
    for n, c in g2n.vars:
        v[n] = v.get(n, 0) + c
    work = _Work(
        coeff=coeff * sign_n * sign_d,
        vars=tuple(sorted((n, c) for n, c in v.items() if c)),
        rshift=g1.rshift + g2n.rshift,
        num_sh=num,
        den_sh=den,
        bose=list(g1.bose + g2n.bose),
    )
    queue = [work]
    prims: list[Primitive] = []
    while queue:
        w = queue.pop()
        nxt = _reduce(w, params)
        if not nxt:
            c = w.coeff
            ci = round(c.real) if isinstance(c, complex) else round(c)
            if abs(c - ci) > 1e-9:
                raise UnsupportedPairError(f"non-integer primitive coefficient {c}")
            if ci == 0:
                continue
            # e^{(i*vars + rshift)*lambda} = e^{-x*lambda} with x = -i*vars - rshift
            prims.append(Primitive(int(ci), w.vars, w.rshift, w.bose[0] if w.bose else None))
        else:
            queue.extend(nxt)
    merged: dict[tuple, int] = {}
    for p in prims:
        key = (p.vars, p.s, p.beta)
        merged[key] = merged.get(key, 0) + p.coeff
    return ClosedForm(tuple(Primitive(c, *key) for key, c in merged.items() if c != 0))


def quadrature_exponent(kernel: Kernel, g1: ExponentFn, g2: ExponentFn,
                        assignment: Mapping[str, complex], params: ParamTower) -> complex:
    """Direct keyhole quadrature of the undecomposed integrand (circle
    radius 0.3, legs cut at 400).

    Only converges when the spectral arguments keep every exponential
    decaying along the positive axis; used as the oracle for the closed
    forms.
    """
    lam_max = 400.0
    g2n = g2.negated_lambda()

    def f(lam: complex) -> complex:
        val = kernel.value(lam, params)
        val *= g1.eval_at(lam, assignment, params)
        val *= g2n.eval_at(lam, assignment, params)
        return val

    tail = abs(f(complex(lam_max, 0.0)))
    if not (tail < 1e-10):
        raise UnsupportedPairError("quadrature divergent along the contour")
    return _contour_quadrature(f, 0.3, lam_max)
