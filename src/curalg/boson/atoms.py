"""Exact mode-coefficient functions g(lambda) of the free-field currents.

A coefficient function is a finite product of atoms

    weight * e^{i*lambda*(vars)} * e^{s*lambda}
           * prod sh(a_k lambda)^{+-1} * prod (1 - e^{-beta_m lambda})^{-1}

where the scales a_k, beta_m, s live on the exact two-parameter lattice
Q*hbar + Q*(1/eta) (``ParamLin``).  The tower recursion 1/eta^(n+1) =
1/eta^(n) + hbar*c_n puts every 1/eta^(n) on that lattice once the levels
are rational, so a scale is resolved into (hbar, 1/eta) coordinates when
it is built.  Keeping the coordinates exact is what lets the contraction
engine recognize integer-ratio sh cancellations and matching Bose
denominators by plain equality, without any numeric tolerance.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Mapping

from ..params import ParamTower
from ..trigcalc import ShiftExpr


_ZERO = Fraction(0)


@dataclass(frozen=True)
class ParamLin:
    """Exact scalar h*hbar + e/eta, with eta = eta^(0) of the tower.

    Two scalars are equal exactly when both coordinates are; every
    1/eta^(n) is resolved into these coordinates by ``inv_eta``.
    """

    h: Fraction = _ZERO
    e: Fraction = _ZERO

    @staticmethod
    def hbar(q: Fraction | int = 1) -> "ParamLin":
        return ParamLin(Fraction(q), _ZERO)

    @staticmethod
    def inv_eta(n: int, params: ParamTower, q: Fraction | int = 1) -> "ParamLin":
        """q/eta^(n) = q/eta + q*hbar*(c_0 + ... + c_{n-1}).

        Raises ValueError when a traversed level is not exactly rational.
        """
        q = Fraction(q)
        return ParamLin(q * sum((params.rational_level(m) for m in range(n)), _ZERO), q)

    def __add__(self, other: "ParamLin") -> "ParamLin":
        return ParamLin(self.h + other.h, self.e + other.e)

    def __sub__(self, other: "ParamLin") -> "ParamLin":
        return ParamLin(self.h - other.h, self.e - other.e)

    def __neg__(self) -> "ParamLin":
        return ParamLin(-self.h, -self.e)

    def __mul__(self, c: Fraction | int) -> "ParamLin":
        return ParamLin(self.h * c, self.e * c)

    __rmul__ = __mul__

    @cached_property
    def _floats(self) -> tuple[float, float]:
        return float(self.e), float(self.h)

    def value(self, params: ParamTower) -> float:
        """The float value, 1/eta term first: every residual the reports
        print depends on these bits."""
        e, h = self._floats
        return e * params.inv_eta_at(0) + h * params.hbar

    def integer_ratio(self, other: "ParamLin") -> int | None:
        """m in 1..8 with self == m * other exactly, if any; ``other`` is
        nonzero (``contraction._normalize_sh_list`` refuses a zero scale)."""
        m = self.h / other.h if other.h else self.e / other.e
        if m.denominator == 1 and 1 <= m <= 8 and self == other * m:
            return int(m)
        return None

    def __str__(self) -> str:
        """The reports' text for a scale; zero coordinates are omitted."""
        bits = ([f"{self.e}/eta0"] if self.e else []) + ([f"{self.h}*h"] if self.h else [])
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

    def negated_lambda(self) -> "ExponentFn":
        """g(-lambda), renormalized back to the canonical atom forms."""
        w = self.weight
        # sh(-x) = -sh(x) for every sh atom (arguments stay canonical).
        if (len(self.num_sh) + len(self.den_sh)) % 2:
            w = -w
        rs = -self.rshift
        for beta in self.bose:
            # (1 - e^{+beta*lambda})^{-1} = -e^{-beta*lambda} (1 - e^{-beta*lambda})^{-1}
            w = -w
            rs = rs - beta
        return ExponentFn(w, tuple((n, -c) for n, c in self.vars), rs,
                          self.num_sh, self.den_sh, self.bose)

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


@cache
def spectral_exponent(arg: ShiftExpr,
                      params: ParamTower) -> tuple[tuple[tuple[str, int], ...], ParamLin]:
    """Split e^{i*lambda*arg} into variable part and exact real shift.

    arg = vars + i*(q*hbar + sum n_p/eta_p) turns into e^{i*lambda*vars}
    times e^{-(q*hbar + sum n_p/eta_p)*lambda}, the shift exact.  Cached:
    every pair form of a current splits its argument again.
    """
    shift = ParamLin.hbar(-arg.q)
    for p, n in arg.lattice:
        shift = shift + ParamLin.inv_eta(p, params, -n)
    return arg.vars, shift
