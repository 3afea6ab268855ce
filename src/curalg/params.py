"""Deformation-parameter tower shared by the whole family of algebras.

The member algebras are indexed by n with deformation scales eta^(n)
obeying the exact telescoping recursion

    1/eta^(n+1) - 1/eta^(n) = hbar * c_n,        eta^(0) = eta,

so eta^(1) is the primed scale attached to level c when c_0 = c.  The
recursion is kept in inverse form (the inverses are the quantities that
add) and only materialized levels may be queried.

The second derived scale eta'', which sets the shift relating the two
half currents, is taken as eta'' = eta at c = 0, the only case any
verification uses.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .value import Value


class ParameterRangeError(ValueError):
    """The recursion left the admissible (positive) parameter range."""


class GenericityWarning(UserWarning):
    """hbar close to a small rational multiple of 1/eta."""


def check_genericity(hbar: float, eta: float) -> bool:
    """Warn when hbar*eta is within 1e-9 of a rational p/q with q <= 12.

    Returns True when the pair looks generic.  Non-generic pairs make the
    sh-ratio structure functions degenerate (zeros colliding with poles),
    so they are flagged but not rejected.
    """
    x = hbar * eta
    frac = Fraction(x).limit_denominator(12)
    if abs(x - float(frac)) < 1e-9:
        warnings.warn(
            f"hbar*eta = {x!r} is within 1e-09 of {frac}; "
            "deformation parameters are not generic",
            GenericityWarning,
            stacklevel=2,
        )
        return False
    return True


class ParamTower(Value):
    """(hbar, eta^(0), c_0, c_1, ...) with cached eta^(n) values.

    ``levels`` holds c_n for n = 0, 1, ...; only this many steps of the
    tower can be materialized.  Immutable; safe to share.
    """

    def __init__(self, hbar: float, eta: float, levels: tuple[float, ...] = ()) -> None:
        if not all(map(math.isfinite, (hbar, eta, *levels))):
            raise ParameterRangeError("hbar, eta and every level must be finite")
        if hbar <= 0 or eta <= 0:
            raise ParameterRangeError("hbar and eta must be positive")
        inv = [1.0 / eta]
        for n, c in enumerate(levels):
            nxt = inv[-1] + hbar * c
            if nxt <= 0:
                raise ParameterRangeError(
                    f"1/eta^({n + 1}) = {nxt} <= 0; tower leaves parameter range"
                )
            inv.append(nxt)
        _set = object.__setattr__
        _set(self, "hbar", hbar)
        _set(self, "eta", eta)
        _set(self, "levels", levels)
        _set(self, "_inv_etas", tuple(inv))
        check_genericity(hbar, eta)

    def _fields(self) -> tuple:
        return (self.hbar, self.eta, self.levels, self._inv_etas)

    @property
    def eta_prime(self) -> float:
        return self.eta_at(1)

    def max_level(self) -> int:
        return len(self.levels)

    def c_at(self, n: int) -> float:
        if not 0 <= n < len(self.levels):
            raise ParameterRangeError(f"c_{n} not materialized (levels={self.levels})")
        return self.levels[n]

    @cached_property
    def rational_levels(self) -> tuple[Optional[Fraction], ...]:
        """Each c_n as a Fraction with denominator at most 64, or None where
        c_n is not one to 1e-12; computed once per tower."""
        out = []
        for c in self.levels:
            frac = Fraction(c).limit_denominator(64)
            exact = abs(float(frac) - c) <= 1e-12
            out.append(frac if exact else None)
        return tuple(out)

    def rational_level(self, n: int) -> Fraction:
        """c_n exactly; raises ValueError when it is not exactly rational."""
        c = self.c_at(n)
        frac = self.rational_levels[n]
        if frac is None:
            raise ValueError(
                f"tower level c_{n} = {c} is not exactly rational; "
                "the contraction calculus needs rational levels")
        return frac

    def inv_eta_at(self, n: int) -> float:
        if not 0 <= n < len(self._inv_etas):
            raise ParameterRangeError(
                f"eta^({n}) not materialized; extend levels (have {len(self.levels)})"
            )
        return self._inv_etas[n]

    def eta_at(self, n: int) -> float:
        """eta^(n) from the exact telescoped recursion; idempotent."""
        return 1.0 / self.inv_eta_at(n)

