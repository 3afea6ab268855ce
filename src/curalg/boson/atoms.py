"""Exact mode-coefficient functions g(lambda) of the free-field currents.

A coefficient function is a finite product of atoms

    weight * e^{i*lambda*(vars)} * e^{s*lambda}
           * prod sh(a_k lambda)^{+-1} * prod (1 - e^{-beta_m lambda})^{-1}

where the scales a_k, beta_m, s live on the exact two-parameter lattice
Q*hbar + sum_n Q*(1/eta^(n)) (``ParamLin``).  Keeping them exact is what
lets the contraction engine recognize integer-ratio sh cancellations and
matching Bose denominators without any numeric tolerance.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from ..params import ParamTower
from ..trigcalc import ShiftExpr

_H = ("h",)


def _eta_key(n: int) -> tuple:
    return ("e", n)


def _rational_level(params: ParamTower, m: int) -> Fraction:
    c = params.c_at(m)
    frac = Fraction(c).limit_denominator(64)
    if abs(float(frac) - c) > 1e-12:
        raise ValueError(
            f"tower level c_{m} = {c} is not exactly rational; "
            "the contraction calculus needs rational levels")
    return frac


@dataclass(frozen=True)
class ParamLin:
    """Exact scalar p*hbar + sum_n q_n/eta^(n)."""

    entries: tuple[tuple[tuple, Fraction], ...] = ()

    @staticmethod
    def hbar(q: Fraction | int = 1) -> "ParamLin":
        return ParamLin._make({_H: Fraction(q)})

    @staticmethod
    def inv_eta(n: int, q: Fraction | int = 1) -> "ParamLin":
        return ParamLin._make({_eta_key(n): Fraction(q)})

    @staticmethod
    def _make(d: Mapping[tuple, Fraction]) -> "ParamLin":
        return ParamLin(tuple(sorted((k, v) for k, v in d.items() if v != 0)))

    def _d(self) -> dict[tuple, Fraction]:
        return dict(self.entries)

    def __add__(self, other: "ParamLin") -> "ParamLin":
        d = self._d()
        for k, v in other.entries:
            d[k] = d.get(k, Fraction(0)) + v
        return ParamLin._make(d)

    def __sub__(self, other: "ParamLin") -> "ParamLin":
        return self + (-other)

    def __neg__(self) -> "ParamLin":
        return ParamLin(tuple((k, -v) for k, v in self.entries))

    def __mul__(self, c: Fraction | int) -> "ParamLin":
        c = Fraction(c)
        return ParamLin._make({k: v * c for k, v in self.entries})

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.entries

    def value(self, params: ParamTower) -> float:
        out = 0.0
        for k, v in self.entries:
            if k == _H:
                out += float(v) * params.hbar
            else:
                out += float(v) * params.inv_eta_at(k[1])
        return out

    def integer_ratio(self, other: "ParamLin") -> int | None:
        """m in 1..8 with self == m * other exactly, if any."""
        for m in range(1, 9):
            if (self - other * m).is_zero():
                return m
        return None

    def resolved(self, params: ParamTower) -> "ParamLin":
        """Rewrite every 1/eta^(n) as 1/eta^(0) + hbar*sum_{m<n} c_m.

        The tower recursion makes the scales linearly dependent; the
        contraction engine needs that dependence resolved so that exact
        matching happens in the two-dimensional (hbar, 1/eta) basis.
        Requires every traversed level to be exactly rational.
        """
        d: dict[tuple, Fraction] = {}
        for k, v in self.entries:
            if k == _H:
                d[_H] = d.get(_H, Fraction(0)) + v
                continue
            n = k[1]
            base = _eta_key(0)
            d[base] = d.get(base, Fraction(0)) + v
            acc = Fraction(0)
            for m in range(n):
                acc += _rational_level(params, m)
            if acc:
                d[_H] = d.get(_H, Fraction(0)) + v * acc
        return ParamLin._make(d)

    def __str__(self) -> str:
        bits = []
        for k, v in self.entries:
            bits.append(f"{v}*h" if k == _H else f"{v}/eta{k[1]}")
        return " + ".join(bits) if bits else "0"


@dataclass(frozen=True)
class ExponentFn:
    """weight * e^{i*lambda*vars + s*lambda} * prod sh^{+-1} * prod Bose^{-1}.

    ``num_sh`` / ``den_sh`` arguments and Bose scales ``bose`` are kept
    sign-normalized positive (positivity judged at the working parameter
    point); sign flips from sh oddness are folded into ``weight``.
    """

    weight: complex = 1.0
    vars: tuple[tuple[str, int], ...] = ()
    rshift: ParamLin = ParamLin()
    num_sh: tuple[ParamLin, ...] = ()
    den_sh: tuple[ParamLin, ...] = ()
    bose: tuple[ParamLin, ...] = ()

    def is_zero(self) -> bool:
        return self.weight == 0

    def negated_lambda(self, params: ParamTower) -> "ExponentFn":
        """g(-lambda), renormalized back to the canonical atom forms."""
        w = self.weight
        # sh(-x) = -sh(x) for every sh atom (arguments stay canonical).
        if (len(self.num_sh) + len(self.den_sh)) % 2:
            w = -w
        rs = -self.rshift
        bose = []
        for beta in self.bose:
            # (1 - e^{+beta*lambda})^{-1} = -e^{-beta*lambda} (1 - e^{-beta*lambda})^{-1}
            w = -w
            rs = rs - beta
            bose.append(beta)
        return ExponentFn(w, tuple((n, -c) for n, c in self.vars), rs,
                          self.num_sh, self.den_sh, tuple(bose))

    def eval_at(self, lam: complex, assignment: Mapping[str, complex],
                params: ParamTower) -> complex:
        z = 0.0 + 0.0j
        for n, c in self.vars:
            z += c * complex(assignment[n])
        out = self.weight * cmath.exp(1j * lam * z + self.rshift.value(params) * lam)
        for a in self.num_sh:
            out *= cmath.sinh(a.value(params) * lam)
        for b in self.den_sh:
            out /= cmath.sinh(b.value(params) * lam)
        for beta in self.bose:
            out /= 1.0 - cmath.exp(-beta.value(params) * lam)
        return out


def spectral_exponent(arg: ShiftExpr) -> tuple[tuple[tuple[str, int], ...], ParamLin]:
    """Split e^{i*lambda*arg} into variable part and exact real shift.

    arg = vars + i*(q*hbar + sum n_p/eta_p) turns into e^{i*lambda*vars}
    times e^{-(q*hbar + sum n_p/eta_p)*lambda}; a nonzero real offset t
    has no exact slot here and is rejected.
    """
    if arg.t != 0.0:
        raise ValueError("spectral arguments with float offsets are not supported")
    shift = ParamLin.hbar(-arg.q)
    for p, n in arg.lattice:
        shift = shift + ParamLin.inv_eta(p, -n)
    return arg.vars, shift
