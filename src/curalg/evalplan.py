"""Float evaluation of delta-free ``trigcalc.DistExpr``s from compiled plans.

A ``Plan`` compiles one or two expressions under one ParamTower.
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

import numpy as np

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


def _modulus(v) -> float:
    """|v|, or the largest entry modulus of a matrix."""
    return float(np.abs(v).max()) if isinstance(v, np.ndarray) else abs(v)


def relative_residual(a, b) -> float:
    """|a - b| / max(1, |a|, |b|) of two complex numbers or matrices; a
    number compared with a matrix stands for that multiple of the identity.
    A NaN difference is an infinite residual (``worst_of``)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        scale = max(1.0, _modulus(a), _modulus(b))
        if not isinstance(a, np.ndarray):
            a = a * np.eye(b.shape[0], dtype=complex)
        if not isinstance(b, np.ndarray):
            b = b * np.eye(a.shape[0], dtype=complex)
        return worst_of(_modulus(a - b) / scale)
    return worst_of(abs(a - b) / max(1.0, abs(a), abs(b)))


class Plan:
    """Delta-free DistExprs compiled for evaluation under one tower.

    ``factors`` holds each distinct (period, arg) of the expressions once,
    with the constants ``ShiftExpr.eval`` and ``TrigFactor.eval`` float and
    whether a term uses its 1/sh: (pi*eta_p, vars, i*imag_shift, 1/sh
    used).  Per expression, ``exprs`` holds whether it is a matrix and, per
    term, its scalar, the slots of its factor values (``values``) in term
    order and its matrix's nonzero entries as (position, entry), a scalar
    term's being the identity's.  A position indexes ``flat``, the flat
    matrix indices that some term reaches.  A period the tower does not
    materialize raises here.

    Every float operation is the reference's: per-factor evaluation, then
    dense numpy accumulation.  An entry's product is Python's, which is
    numpy's where the entry is real or imaginary, as every module matrix's
    is.  ``DistExpr`` makes an entry of both parts where it merges a number
    term into a matrix term over the same factors; a term with such an
    entry keeps its entries as an array too and takes numpy's product,
    which numpy may fuse on FMA hardware.
    """

    __slots__ = ("params", "factors", "exprs", "shape", "flat")

    def __init__(self, exprs: Sequence[DistExpr], params: ParamTower):
        self.params = params
        shapes = [t.mat.shape for expr in exprs for t in expr.terms if t.mat is not None]
        self.shape = shape = shapes[0] if shapes else None
        rows: dict[tuple, list] = {}   # (period, arg) -> its row index, then its ``factors`` row
        compiled = []   # as ``exprs``, with flat indices in place of positions
        for expr in exprs:
            is_matrix = any(t.mat is not None for t in expr.terms)
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
                mat = np.eye(shape[0], dtype=complex) if is_matrix and t.mat is None else t.mat
                terms.append((t.scalar, tuple(slots), () if mat is None else
                              [(k, z) for k, z in enumerate(mat.ravel().tolist()) if z]))
            compiled.append((is_matrix, terms))
        self.factors = tuple(tuple(row[1:]) for row in rows.values())
        flat = sorted({k for _, terms in compiled for *_, nz in terms for k, _ in nz})
        position = {k: p for p, k in enumerate(flat)}
        self.flat = np.array(flat, dtype=np.intp)
        self.exprs = tuple((is_matrix, tuple(
            (scalar, slots, tuple((position[k], z) for k, z in nz),
             np.array([z for _, z in nz]) if any(z.real and z.imag for _, z in nz) else None)
            for scalar, slots, nz in terms)) for is_matrix, terms in compiled)

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
        """Expression ``i``: a number, or its matrix's entries at ``flat``."""
        is_matrix, terms = self.exprs[i]
        acc = [0.0 + 0.0j] * len(self.flat) if is_matrix else 0.0 + 0.0j
        for val, slots, nz, fused in terms:
            for k in slots:
                val *= vals[k]
            if not is_matrix:
                acc += val
            elif fused is None:
                for p, m in nz:
                    acc[p] += val * m
            else:
                for (p, _), z in zip(nz, (val * fused).tolist()):
                    acc[p] += z
        return acc

    def _array(self, v):
        if not isinstance(v, list):
            return v
        out = np.zeros(self.shape[0] * self.shape[1], dtype=complex)
        out[self.flat] = v
        return out.reshape(self.shape)

    def value(self, assignment: Mapping[str, complex]):
        """The first expression at the point, as ``DistExpr.eval`` gives it."""
        return self._array(self._sum(0, self.values(assignment)))

    def residual(self, assignment: Mapping[str, complex]) -> float:
        """``relative_residual`` of the first expression against the second
        at the point; for two matrices, one ``np.abs`` over both and their
        difference at the reached entries (the others are zero in both)."""
        vals = self.values(assignment)
        a, b = self._sum(0, vals), self._sum(1, vals)
        if not (isinstance(a, list) and isinstance(b, list)):
            return relative_residual(self._array(a), self._array(b))
        ma, mb, md = np.abs(np.array((a, b, [x - y for x, y in zip(a, b)]))).max(axis=1).tolist()
        return worst_of(md / max(1.0, ma, mb))
