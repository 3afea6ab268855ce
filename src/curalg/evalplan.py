"""Float evaluation of delta-free ``trigcalc.DistExpr``s from compiled plans.

A ``Plan`` compiles one or two expressions under one ParamTower and
evaluates a matrix only at the entries its terms have.
``DistExpr.eval`` is its one-expression case; ``trigcalc.equal_numeric``
compares the two sides of a record through one plan, so the sides share
each factor's value at a point.  ``relative_residual`` and ``worst_of``
are the residual and the fold of every sampled check.  A plan reads only
an expression's terms, so this module imports nothing of ``trigcalc``
and ``trigcalc`` imports it.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, Mapping, Sequence

from .params import ParamTower

if TYPE_CHECKING:
    from .trigcalc import DistExpr

# |sh| below which evaluating a reciprocal factor raises PoleProximityError
EPS_POLE = 1e-6


class PoleProximityError(ArithmeticError):
    """Evaluation point too close to a pole of a reciprocal sh factor."""


class DeltaPresentError(ValueError):
    """Pointwise evaluation requested for an expression with delta atoms."""


def worst_of(*residuals: float) -> float:
    """The largest residual, a NaN counting as inf; 0.0 when there is none."""
    if any(map(math.isnan, residuals)):
        return math.inf
    return max(residuals, default=0.0)


def relative_residual(a: complex, b: complex) -> float:
    """|a - b| / max(1, |a|, |b|) of two complex numbers; a NaN difference
    is an infinite residual (``worst_of``)."""
    return worst_of(abs(a - b) / max(1.0, abs(a), abs(b)))


class Plan:
    """Delta-free DistExprs compiled for evaluation under one tower.

    ``factors`` holds each distinct (period, arg) of the expressions once,
    with the constants ``ShiftExpr.eval`` and ``TrigFactor.eval`` float and
    whether a term uses its 1/sh: (pi*eta_p, vars, i*imag_shift, 1/sh
    used).  Per expression, ``exprs`` holds, per term, its scalar, the
    slots of its factor values (``values``) in term order and its matrix's
    entries as (position, entry).  A position indexes ``entries``, the
    matrix positions (row, col) that some term reaches, which is None for
    a plan of numbers.  A plan holds numbers or matrices, not both; an
    expression with no term is either.  A period the tower does not
    materialize raises here.

    Every float operation is the reference's: per-factor evaluation, then
    Python products summed entry by entry.
    """

    __slots__ = ("params", "factors", "exprs", "entries")

    def __init__(self, exprs: Sequence[DistExpr], params: ParamTower):
        self.params = params
        mats = [t.mat is not None for expr in exprs for t in expr.terms]
        if any(mats) and not all(mats):
            raise ValueError("a plan of numbers and matrices")
        rows: dict[tuple, list] = {}   # (period, arg) -> its row index, then its ``factors`` row
        compiled = []   # as ``exprs``, with matrix positions in place of their indices
        for expr in exprs:
            terms = []
            for t in expr.terms:
                if t.deltas:
                    raise DeltaPresentError("use residue/delta APIs for delta terms")
                slots = []
                for f in t.factors:
                    row = rows.get((f.period, f.arg))
                    if row is None:
                        row = rows[f.period, f.arg] = [
                            len(rows), math.pi * params.eta_at(f.period), f.arg.vars,
                            1j * f.arg.imag_shift(params), False]
                    row[4] = row[4] or f.exponent == -1
                    slots.append(2 * row[0] + (f.exponent == -1))
                terms.append((t.scalar, tuple(slots), t.mat or ()))
            compiled.append(terms)
        self.factors = tuple(tuple(row[1:]) for row in rows.values())
        self.entries = sorted({ij for terms in compiled for *_, mat in terms
                               for ij, _ in mat}) if any(mats) else None
        index = {ij: p for p, ij in enumerate(self.entries or ())}
        self.exprs = tuple(tuple((scalar, slots, tuple((index[ij], z) for ij, z in mat))
                                 for scalar, slots, mat in terms) for terms in compiled)

    def values(self, assignment: Mapping[str, complex]) -> list:
        """Each factor's sh and, where a term uses it, 1/sh at the point:
        the slots 2*row and 2*row + 1."""
        vals = []
        for scale, vars_, shift, inv in self.factors:
            arg = 0j
            for name, c in vars_:
                try:
                    z = assignment[name]
                except KeyError:
                    raise KeyError(f"unassigned variable {name!r}") from None
                arg += c * complex(z)
            x = scale * (arg + shift)
            s = cmath.sinh(x)
            if inv and abs(s) < EPS_POLE:
                raise PoleProximityError(f"sh({x}) = {s} too close to zero")
            vals += (s, 1.0 / s if inv else None)
        return vals

    def _sum(self, i: int, vals: list):
        """Expression ``i``: a number, or its matrix's values at ``entries``."""
        acc = 0j if self.entries is None else [0j] * len(self.entries)
        for val, slots, mat in self.exprs[i]:
            for k in slots:
                val *= vals[k]
            if self.entries is None:
                acc += val
            for p, m in mat:
                acc[p] += val * m
        return acc

    def value(self, assignment: Mapping[str, complex]):
        """The first expression at the point, as ``DistExpr.eval`` gives it."""
        acc = self._sum(0, self.values(assignment))
        return acc if self.entries is None else dict(zip(self.entries, acc))

    def residual(self, assignment: Mapping[str, complex]) -> float:
        """``relative_residual`` of the first expression against the second
        at the point; for matrices, the largest entry modulus of their
        difference at ``entries`` (the other entries are zero in both; a NaN
        anywhere is inf, by ``worst_of``) over the largest of either, at
        least 1."""
        vals = self.values(assignment)
        a, b = self._sum(0, vals), self._sum(1, vals)
        if self.entries is None:
            return relative_residual(a, b)
        md = worst_of(*[abs(x - y) for x, y in zip(a, b)])
        return worst_of(md / max(1.0, *map(abs, a), *map(abs, b)))
