"""Structure functions of the defining exchange relations.

Each relation X(u)Y(v) = R(u-v) Y(v)X(u) carries a ratio R of sh factors
with arguments shifted by exact rational multiples of i*hbar.  This
module builds those ratios in canonical factored form over the single
variable w = u - v, with period 0 (eta) and period 1 (eta') entering
exactly as in the relations: the E-side exchange and H-E mixing use eta
only, the F-side and H-F mixing use eta' only, and the H-H relations mix
both.

Sign convention note: the H-F mixing ratio is built with the shift signs
opposite to the H-E one (numerator +i*hbar*(B - c/4) for H^+ instead of
-i*hbar*(B - c/4)).  Both the finite-dimensional representation and the
level-1 free-field realization force this orientation; see the F-F
relation, which mirrors E-E the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .liealg import CartanData
from .params import ParamTower
from .trigcalc import DistExpr, ShiftExpr, Term, TrigFactor

RELATIONS = ("HH_pm", "HH_same", "HE", "HF", "EE", "FF")

# (x kind, y kind, relation, sign) of each delta-free exchange
# X_i(u) Y_j(v) = R_ij(u - v) Y_j(v) X_i(u), in report order; the sign
# picks H^+ (+1) or H^- (-1) in the HE and HF rows, as ``ratio`` does.
EXCHANGES = (
    ("E", "E", "EE", +1),
    ("F", "F", "FF", +1),
    ("H+", "E", "HE", +1),
    ("H-", "E", "HE", -1),
    ("H+", "F", "HF", +1),
    ("H-", "F", "HF", -1),
    ("H+", "H-", "HH_pm", +1),
    ("H+", "H+", "HH_same", +1),
    ("H-", "H-", "HH_same", +1),
)


def exchange_kinds(relation: str, sign: int = +1) -> tuple[str, str]:
    """(x kind, y kind) of the first ``EXCHANGES`` row of ``relation`` with
    ``sign``, or of its first row when the relation has no such sign."""
    rows = [row for row in EXCHANGES if row[2] == relation]
    if not rows:
        raise ValueError(f"unknown relation {relation!r}; expected one of {RELATIONS}")
    xk, yk, _rel, _sign = next((row for row in rows if row[3] == sign), rows[0])
    return xk, yk


def exchange_relation(xk: str, yk: str) -> tuple[str, int] | None:
    """(relation, sign) of the printed exchange X Y, None when not in ``EXCHANGES``."""
    return next(((rel, sign) for x, y, rel, sign in EXCHANGES if (x, y) == (xk, yk)), None)

ETA = 0        # period index of eta
ETA_PRIME = 1  # period index of eta'


@dataclass(frozen=True)
class StructureRatio:
    """Exchange function in w = u - v, as numerator/denominator factor lists."""

    relation: str
    i: int
    j: int
    c: Fraction
    num: tuple[TrigFactor, ...]
    den: tuple[TrigFactor, ...]

    @property
    def ratio(self) -> DistExpr:
        """num / den as one DistExpr, shared by every ratio with these factors."""
        return _ratio(self.num, self.den)

    def eval(self, w: complex, params: ParamTower) -> complex:
        return self.ratio.eval({"w": w}, params)

    def rational_eval(self, w: complex, params: ParamTower) -> complex:
        """eta -> 0 degeneration: each sh(pi*eta_p*(w - s)) replaced by (w - s)."""
        val = 1.0 + 0.0j
        for f in self.num:
            val *= f.arg.eval({"w": w}, params)
        for f in self.den:
            val /= f.arg.eval({"w": w}, params)
        return val


def _sh(period: int, q_shift: Fraction) -> TrigFactor:
    return TrigFactor(period, ShiftExpr.of_var("w") + ShiftExpr.hbar_units(q_shift))


def _build(relation: str, b: Fraction, c: Fraction,
           prime: int) -> tuple[list[TrigFactor], list[TrigFactor]]:
    if relation == "HH_pm":
        num = [_sh(ETA, -(b - c / 2)), _sh(prime, b - c / 2)]
        den = [_sh(ETA, b + c / 2), _sh(prime, -(b + c / 2))]
    elif relation == "HH_same":
        num = [_sh(ETA, -b), _sh(prime, b)]
        den = [_sh(ETA, b), _sh(prime, -b)]
    elif relation == "HE":
        num = [_sh(ETA, -(b - c / 4))]
        den = [_sh(ETA, b + c / 4)]
    elif relation == "HF":
        # Orientation opposite to HE; forced by both realizations.
        num = [_sh(prime, b - c / 4)]
        den = [_sh(prime, -(b + c / 4))]
    elif relation == "EE":
        num = [_sh(ETA, -b)]
        den = [_sh(ETA, b)]
    elif relation == "FF":
        num = [_sh(prime, b)]
        den = [_sh(prime, -b)]
    else:
        raise ValueError(f"unknown relation {relation!r}; expected one of {RELATIONS}")
    return num, den


def ratio(relation: str, i: int, j: int, cartan: CartanData,
          c: Fraction | int = 0, sign: int = +1,
          prime_period: int = ETA_PRIME) -> StructureRatio:
    """Exchange function for the given relation and node pair.

    ``sign`` selects H^+ (+1) or H^- (-1) in the HE/HF relations; the
    HH and EE/FF relations ignore it.  ``c`` is the level, kept rational
    so every shift stays on the exact i*hbar lattice.  ``prime_period``
    is the tower index whose scale satisfies 1/eta' - 1/eta = hbar*c
    (index 1 for a level-c member, index 2 for the level-2 images built
    from two level-1 slots, and so on).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +-1")
    c = Fraction(c)
    num, den = _factors(relation, cartan.b_entry(i, j), c, sign, prime_period)
    return StructureRatio(relation, i, j, c, num, den)


@cache
def _factors(relation: str, b: Fraction, c: Fraction, sign: int,
             prime: int) -> tuple[tuple[TrigFactor, ...], tuple[TrigFactor, ...]]:
    """(num, den) of ``ratio``: they see the nodes only through B_ij, so
    each is built once per (relation, B_ij, c, sign, prime period)."""
    num, den = _build(relation, b, -c if sign == -1 and relation in ("HE", "HF") else c,
                      prime)
    # Structural cancellation (B_ij = 0 makes every ratio identically 1,
    # and partial collisions can occur at special c).
    for f in list(num):
        for g in list(den):
            if f.period == g.period and f.arg == g.arg:
                num.remove(f)
                den.remove(g)
                break
    return tuple(num), tuple(den)


@cache
def _ratio(num: tuple[TrigFactor, ...], den: tuple[TrigFactor, ...]) -> DistExpr:
    """num / den in w, built once per process for each factor pair."""
    inv = tuple(TrigFactor(f.period, f.arg, -1) for f in den)
    return DistExpr((Term(1.0, num + inv),))


def serre_coefficient(params: ParamTower, side: str) -> float:
    """The middle coefficient 2*cos(pi*eta*hbar) of the cubic relations.

    E-side uses eta, F-side the primed scale.
    """
    if side == "E":
        return 2.0 * math.cos(math.pi * params.eta * params.hbar)
    if side == "F":
        return 2.0 * math.cos(math.pi * params.eta_prime * params.hbar)
    raise ValueError("side must be 'E' or 'F'")

