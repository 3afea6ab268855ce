"""Exact calculus of trigonometric factors, their jumps and deltas.

Everything downstream (structure functions, the finite-dimensional
representation, the intertwiner catalog) evaluates through the objects
defined here:

* ``ShiftExpr`` -- an exact point  sum_k n_k*var_k + i*(q*hbar + sum_p
  m_p/eta_p) with rational q and integer lattice coefficients m_p.
  This is the lattice all poles, zeros and delta supports live on, so it
  is kept exact (Fractions and ints), never floated until evaluation.
* ``TrigFactor`` -- sh(pi*eta_p * arg)^(+-1).
* ``DistExpr`` -- finite sums  scalar * prod(TrigFactor) * prod(delta)
  * (matrix coefficient), closed under sum, product and commutator.

Conventions fixed here and relied on by every verification module:

* Half-period flip: sh(x - i*pi) = -sh(x), so a factor whose argument
  carries k units of its own period lattice reduces to the unshifted
  factor times (-1)^k.  Canonicalization always performs this reduction.
* Plemelj: 1/(x - i0) - 1/(x + i0) = 2*pi*i*delta(x); for the simple
  zero of sh(pi*eta_p*arg) the jump of a 1/sh factor across its pole
  line, limit from below minus limit from above, is (2i/eta_p) *
  delta(arg) times the cofactor frozen on the support.  Only the delta
  of the canonical (pinched) zero is kept.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np
import numpy.random

from .evalplan import EPS_POLE, DeltaPresentError, Plan, PoleProximityError, worst_of
from .params import ParamTower

class ReductionError(ValueError):
    """plemelj_reduce / residue precondition failed."""


# ---------------------------------------------------------------------------
# ShiftExpr
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftExpr:
    """var part + i*(q*hbar + sum_p lattice_p / eta_p), all exact: every
    shift of the relations is a rational multiple of i*hbar or of some
    i/eta^(p), so a point has no real offset."""

    vars: tuple[tuple[str, int], ...] = ()
    q: Fraction = Fraction(0)
    lattice: tuple[tuple[int, int], ...] = ()
    # not a field: the real offset is always zero; the constant stays only
    # because perfbench/tracer.py:pair_key still reads ``arg.t``
    t = 0.0

    @staticmethod
    def of_var(name: str, coeff: int = 1) -> "ShiftExpr":
        return ShiftExpr(vars=((name, coeff),))

    @staticmethod
    def hbar_units(q: Fraction | int) -> "ShiftExpr":
        """The point i*hbar*q."""
        return ShiftExpr(q=Fraction(q))

    @staticmethod
    def lattice_units(period: int, n: int = 1) -> "ShiftExpr":
        """The point i*n/eta_period."""
        return ShiftExpr(lattice=((period, n),))

    def _vdict(self) -> dict[str, int]:
        return dict(self.vars)

    def _ldict(self) -> dict[int, int]:
        return dict(self.lattice)

    def __add__(self, other: "ShiftExpr") -> "ShiftExpr":
        v = self._vdict()
        for name, c in other.vars:
            v[name] = v.get(name, 0) + c
        l = self._ldict()
        for p, n in other.lattice:
            l[p] = l.get(p, 0) + n
        return _mk_shift(v, self.q + other.q, l)

    def __neg__(self) -> "ShiftExpr":
        return _mk_shift({k: -c for k, c in self.vars}, -self.q,
                         {p: -n for p, n in self.lattice})

    def __sub__(self, other: "ShiftExpr") -> "ShiftExpr":
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.vars and self.q == 0 and not self.lattice

    def var_coeff(self, name: str) -> int:
        return self._vdict().get(name, 0)

    def lattice_coeff(self, period: int) -> int:
        return self._ldict().get(period, 0)

    def without_lattice(self, period: int) -> "ShiftExpr":
        l = self._ldict()
        l.pop(period, None)
        return _mk_shift(self._vdict(), self.q, l)

    def subs(self, name: str, repl: "ShiftExpr") -> "ShiftExpr":
        c = self.var_coeff(name)
        if c == 0:
            return self
        v = self._vdict()
        del v[name]
        base = _mk_shift(v, self.q, self._ldict())
        scaled = repl
        if c != 1:
            scaled = _scale_int(repl, c)
        return base + scaled

    def solve_for(self, name: str) -> "ShiftExpr":
        """The point where this expression vanishes, solved for ``name``.

        Requires the coefficient of ``name`` to be +-1 (all supports in
        this artifact are of that form).
        """
        c = self.var_coeff(name)
        if c not in (1, -1):
            raise ReductionError(f"cannot solve for {name}: coefficient {c}")
        rest = self.subs(name, ShiftExpr())
        return -rest if c == 1 else rest

    def imag_shift(self, params: ParamTower) -> float:
        """Imaginary offset q*hbar + sum_p n_p/eta_p (vars taken real)."""
        val = float(self.q) * params.hbar
        for p, n in self.lattice:
            val += n / params.eta_at(p)
        return val

    def eval(self, assignment: Mapping[str, complex], params: ParamTower) -> complex:
        val = 0j
        for name, c in self.vars:
            if name not in assignment:
                raise KeyError(f"unassigned variable {name!r}")
            val += c * complex(assignment[name])
        val += 1j * self.imag_shift(params)
        return val

    def free_vars(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.vars)

    # Every term bucket and sort key reads these, so each instance computes
    # them once; the hash is the dataclass's own field hash.
    @cached_property
    def _hash(self) -> int:
        return hash((self.vars, self.q, self.lattice))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _text(self) -> str:
        bits = []
        for name, c in self.vars:
            bits.append(name if c == 1 else f"{c}*{name}")
        if self.q:
            bits.append(f"{self.q}*ih")
        for p, n in self.lattice:
            bits.append(f"{n}*i/eta{p}")
        return " + ".join(bits) if bits else "0"

    def __str__(self) -> str:
        return self._text


def _mk_shift(v: Mapping[str, int], q: Fraction, l: Mapping[int, int]) -> ShiftExpr:
    vs = tuple(sorted((k, c) for k, c in v.items() if c != 0))
    ls = tuple(sorted((p, n) for p, n in l.items() if n != 0))
    return ShiftExpr(vars=vs, q=q, lattice=ls)


def _scale_int(e: ShiftExpr, c: int) -> ShiftExpr:
    return _mk_shift({k: c * v for k, v in e.vars}, c * e.q,
                     {p: c * n for p, n in e.lattice})


def var(name: str) -> ShiftExpr:
    return ShiftExpr.of_var(name)


# ---------------------------------------------------------------------------
# TrigFactor / DeltaAtom
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrigFactor:
    """sh(pi * eta_period * arg)^exponent."""

    period: int
    arg: ShiftExpr
    exponent: int = 1

    def __post_init__(self) -> None:
        if self.exponent not in (1, -1):
            raise ValueError("exponent must be +-1")

    def canonical(self) -> tuple[int, "TrigFactor"]:
        """Strip own-period lattice units; returns (sign, reduced factor)."""
        k = self.arg.lattice_coeff(self.period)
        if k == 0:
            return 1, self
        sign = -1 if k % 2 else 1
        return sign, TrigFactor(self.period, self.arg.without_lattice(self.period),
                                self.exponent)

    @cached_property
    def _hash(self) -> int:
        return hash((self.period, self.arg, self.exponent))

    def __hash__(self) -> int:
        return self._hash

    def subs(self, name: str, repl: ShiftExpr) -> "TrigFactor":
        return TrigFactor(self.period, self.arg.subs(name, repl), self.exponent)

    def eval(self, assignment: Mapping[str, complex], params: ParamTower) -> complex:
        x = math.pi * params.eta_at(self.period) * self.arg.eval(assignment, params)
        s = cmath.sinh(x)
        if self.exponent == 1:
            return s
        if abs(s) < EPS_POLE:
            raise PoleProximityError(f"sh({x}) = {s} too close to zero")
        return 1.0 / s


@dataclass(frozen=True)
class DeltaAtom:
    """delta(arg); arg must involve at least one formal variable."""

    arg: ShiftExpr

    def __post_init__(self) -> None:
        if not self.arg.vars:
            raise ValueError("delta atom needs at least one variable")

    def canonical(self) -> "DeltaAtom":
        name, c = self.arg.vars[0]
        if c < 0:
            return DeltaAtom(-self.arg)
        return self


# ---------------------------------------------------------------------------
# Terms and DistExpr
# ---------------------------------------------------------------------------


def _mat_tuple(mat: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if mat is None:
        return None
    arr = np.asarray(mat, dtype=complex)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Term:
    scalar: complex
    factors: tuple[TrigFactor, ...] = ()
    deltas: tuple[DeltaAtom, ...] = ()
    mat: Optional[np.ndarray] = None

    def signature(self) -> tuple:
        return (self.factors, self.deltas)

    def free_vars(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for f in self.factors:
            out |= f.arg.free_vars()
        for d in self.deltas:
            out |= d.arg.free_vars()
        return out


def _factor_sort_key(f: TrigFactor):
    return (f.period, f.exponent, str(f.arg))


def _delta_sort_key(d: DeltaAtom):
    return str(d.arg)


@cache
def _canonical_shape(factors: tuple[TrigFactor, ...], deltas: tuple[DeltaAtom, ...]
                     ) -> Optional[tuple[int, tuple[TrigFactor, ...], tuple[DeltaAtom, ...]]]:
    """(sign, factors, deltas) of every term with these factors and deltas,
    or None when the term vanishes: delta resolution, half-period reduction,
    deterministic ordering.  None of it reads the scalar or the matrix, so
    each shape is canonicalized once per process."""
    fs = list(factors)

    # Triangular delta resolution: repeatedly solve the delta whose
    # alphabetically-smallest variable is globally smallest, pin that
    # variable and substitute everywhere else: into the deltas still
    # pending (kept as bare arguments, which may turn constant), the
    # factors and the solutions found so far, so every solution is free
    # of every pinned variable.
    pending = [d.canonical().arg for d in deltas]
    resolved: list[tuple[str, ShiftExpr]] = []
    while pending:
        pending.sort(key=str)
        arg = pending.pop(0)
        names = sorted(arg.free_vars())
        if not names:
            if arg.is_zero():
                raise ReductionError("delta(0): two deltas share one support")
            return None  # delta of a nonzero constant: term vanishes
        target = next((nm for nm in names if arg.var_coeff(nm) in (1, -1)), names[0])
        sol = arg.solve_for(target)  # ReductionError when no coefficient is +-1
        resolved.append((target, sol))
        pending = [p.subs(target, sol) for p in pending]
        fs = [f.subs(target, sol) for f in fs]
        resolved = [
            (nm, s.subs(target, sol) if nm != target else s) for nm, s in resolved
        ]

    new_deltas = [DeltaAtom(ShiftExpr.of_var(nm) - s).canonical() for nm, s in resolved]

    # Half-period reduction: each factor's own-period lattice units leave
    # the sign (-1)^k; the shape's sign is their product.
    sign = 1
    fs2: list[TrigFactor] = []
    for f in fs:
        flip, g = f.canonical()
        sign *= flip
        fs2.append(g)
    # sh(x)^{+1} * sh(x)^{-1} == 1 exactly (removable at the common zero);
    # cancelling here keeps delta-pinned cofactors evaluable on support.
    fs3: list[TrigFactor] = []
    for f in fs2:
        partner = next((g for g in fs3 if g.period == f.period
                        and g.arg == f.arg and g.exponent == -f.exponent), None)
        if partner is not None:
            fs3.remove(partner)
            continue
        fs3.append(f)
    return (sign, tuple(sorted(fs3, key=_factor_sort_key)),
            tuple(sorted(new_deltas, key=_delta_sort_key)))


def _canonical_term(scalar: complex, factors: Iterable[TrigFactor],
                    deltas: Iterable[DeltaAtom], mat: Optional[np.ndarray]) -> Optional[Term]:
    """The term with its shape canonicalized (``_canonical_shape``) and its
    scalar multiplied by the shape's sign."""
    shape = _canonical_shape(tuple(factors), tuple(deltas))
    if shape is None:
        return None
    sign, fs, ds = shape
    return Term(scalar=complex(scalar) * sign, factors=fs, deltas=ds, mat=_mat_tuple(mat))


class DistExpr:
    """Finite sum of trig-factor/delta/matrix terms, canonical on build.

    ``eval`` runs from a ``Plan`` compiled at the first evaluation under a
    ParamTower and kept (in ``_plan``) until an evaluation under another
    tower.
    """

    __slots__ = ("terms", "_plan")

    def __init__(self, terms: Sequence[Term] = (), *, _canonical: bool = False):
        self._plan: Optional[Plan] = None
        if _canonical:
            self.terms: tuple[Term, ...] = tuple(terms)
            return
        buckets: dict[tuple, Term] = {}
        for t in terms:
            ct = _canonical_term(t.scalar, t.factors, t.deltas, t.mat)
            if ct is None or ct.scalar == 0:
                continue
            if ct.mat is not None and not ct.mat.any():
                continue
            key = ct.signature()
            if key in buckets:
                old = buckets[key]
                merged = _merge_terms(old, ct)
                if merged is None:
                    del buckets[key]
                else:
                    buckets[key] = merged
            else:
                buckets[key] = ct
        self.terms = tuple(buckets.values())

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "DistExpr":
        return DistExpr(())

    @staticmethod
    def scalar(value: complex) -> "DistExpr":
        return DistExpr((Term(scalar=value),))

    @staticmethod
    def from_factors(scalar: complex, factors: Sequence[TrigFactor],
                     deltas: Sequence[DeltaAtom] = (), mat=None) -> "DistExpr":
        return DistExpr((Term(scalar, tuple(factors), tuple(deltas), _mat_tuple(mat)),))

    @staticmethod
    def matrix(mat: np.ndarray) -> "DistExpr":
        return DistExpr((Term(1.0, (), (), _mat_tuple(mat)),))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "DistExpr") -> "DistExpr":
        return DistExpr(self.terms + other.terms)

    def __sub__(self, other: "DistExpr") -> "DistExpr":
        return self + other.scaled(-1.0)

    def scaled(self, c: complex) -> "DistExpr":
        if c == 0:
            return DistExpr.zero()
        return DistExpr(
            tuple(Term(t.scalar * c, t.factors, t.deltas, t.mat) for t in self.terms),
            _canonical=True,
        )

    def __mul__(self, other: "DistExpr") -> "DistExpr":
        out: list[Term] = []
        for a in self.terms:
            for b in other.terms:
                mat = _mat_mul(a.mat, b.mat)
                out.append(Term(a.scalar * b.scalar, a.factors + b.factors,
                                a.deltas + b.deltas, mat))
        return DistExpr(out)

    def subs(self, name: str, repl: ShiftExpr) -> "DistExpr":
        """Substitute ``repl`` for ``name``.  A delta whose argument turns
        constant is resolved as in ``_canonical_shape``: a nonzero constant
        drops its term, and delta(0) raises ``ReductionError``."""
        out = []
        for t in self.terms:
            args = [d.arg.subs(name, repl) for d in t.deltas]
            constant = [a for a in args if not a.vars]
            if any(a.is_zero() for a in constant):
                raise ReductionError("delta(0) after substitution")
            if constant:
                continue  # delta of a nonzero constant: the term vanishes
            out.append(Term(t.scalar, tuple(f.subs(name, repl) for f in t.factors),
                            tuple(DeltaAtom(a) for a in args), t.mat))
        return DistExpr(tuple(out))

    def free_vars(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for t in self.terms:
            out |= t.free_vars()
        return out

    def delta_groups(self) -> dict[tuple[DeltaAtom, ...], "DistExpr"]:
        """Group terms by their (canonical) delta support; '' key = delta-free."""
        groups: dict[tuple[DeltaAtom, ...], list[Term]] = {}
        for t in self.terms:
            groups.setdefault(t.deltas, []).append(
                Term(t.scalar, t.factors, (), t.mat)
            )
        return {k: DistExpr(tuple(v), _canonical=True) for k, v in groups.items()}

    # -- evaluation --------------------------------------------------------

    def eval(self, assignment: Mapping[str, complex], params: ParamTower):
        """Numeric value; complex scalar, or complex matrix if any term has one.

        The one-expression case of ``Plan``: bitwise the values of
        ``ShiftExpr.eval`` and ``TrigFactor.eval`` (the references),
        multiplied term by term and summed entry by entry.
        """
        plan = self._plan
        if plan is None or (plan.params is not params and plan.params != params):
            plan = self._plan = Plan((self,), params)
        return plan.value(assignment)

    def odd_normal_form(self) -> Optional[tuple]:
        """(scalar, frozenset of ((period, arg), exponent)) of one term
        with no delta or matrix, else None.  Each
        factor whose leading variable has a negative coefficient is flipped
        by sh(-x) = -sh(x), exponents are summed per (period, arg) and zero
        sums dropped.  Equal normal forms are equal functions."""
        if len(self.terms) != 1 or self.terms[0].deltas or self.terms[0].mat is not None:
            return None
        scalar, exps = self.terms[0].scalar, {}
        for f in self.terms[0].factors:
            arg = f.arg
            if arg.vars and arg.vars[0][1] < 0:
                arg, scalar = -arg, -scalar
            exps[f.period, arg] = exps.get((f.period, arg), 0) + f.exponent
        return scalar, frozenset((base, e) for base, e in exps.items() if e)

    def reciprocal(self) -> "DistExpr":
        """Every term's 1/scalar with each factor exponent flipped.

        The reciprocal of a single term, or of a sum whose matrices are
        distinct diagonal matrix units (the H currents of the evaluation
        module).
        """
        return DistExpr(tuple(
            Term(1.0 / t.scalar,
                 tuple(TrigFactor(f.period, f.arg, -f.exponent) for f in t.factors),
                 t.deltas, t.mat)
            for t in self.terms
        ))

    # -- reductions --------------------------------------------------------

    def plemelj_reduce(self, name: str, params: ParamTower) -> "DistExpr":
        """The jump across the pole line in ``name``: the limit from below
        minus the limit from above, in delta normal form.

        A term with one 1/sh factor f in ``name`` jumps by (2i/eta_p) *
        delta(f.arg) times its other factors; the constructor's delta
        resolution freezes them on the support.  Only the canonical pinched
        zero (lattice k=0) is kept.  A term with no such factor does not
        jump and drops out.  ``name`` must have coefficient +-1 in f.arg.
        """
        out = []
        for t in self.terms:
            hits = [i for i, f in enumerate(t.factors)
                    if f.exponent == -1 and f.arg.var_coeff(name) != 0]
            if not hits:
                continue
            if len(hits) > 1:
                raise ReductionError(f"two 1/sh factors in {name} in one term")
            i = hits[0]
            f = t.factors[i]
            f.arg.solve_for(name)  # ReductionError unless the coefficient is +-1
            out.append(Term(t.scalar * 2j / params.eta_at(f.period),
                            t.factors[:i] + t.factors[i + 1:],
                            t.deltas + (DeltaAtom(f.arg),), t.mat))
        if not out:
            raise ReductionError(f"nothing jumps across a pole line in {name}")
        return DistExpr(out)

    def residue(self, name: str, at: ShiftExpr, params: ParamTower) -> "DistExpr":
        """Residue in ``name`` at the simple pole ``name = at``."""
        out: list[Term] = []
        n_poles_seen = 0
        for t in self.terms:
            for d in t.deltas:
                if d.arg.var_coeff(name) != 0:
                    raise ReductionError("residue through a delta atom is undefined")
            vanish_m = []
            vanish_p = 0
            rest: list[TrigFactor] = []
            for f in t.factors:
                if f.arg.var_coeff(name) != 0 and f.arg.subs(name, at).is_zero():
                    if f.exponent == -1:
                        vanish_m.append(f)
                    else:
                        vanish_p += 1
                else:
                    rest.append(f)
            order = len(vanish_m) - vanish_p
            if len(vanish_m) >= 2:
                raise ReductionError("higher-order pole (multiple vanishing 1/sh factors)")
            if order <= 0:
                continue
            n_poles_seen += 1
            f = vanish_m[0]
            c_var = f.arg.var_coeff(name)
            scale = 1.0 / (math.pi * params.eta_at(f.period) * c_var)
            cof = tuple(g.subs(name, at) for g in rest)
            out.append(Term(t.scalar * scale, cof, t.deltas, t.mat))
        if n_poles_seen == 0:
            raise ReductionError(f"{name} = {at} is not a pole of the expression")
        return DistExpr(out)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        def shift_d(e: ShiftExpr) -> dict:
            return {
                "vars": [[n, c] for n, c in e.vars],
                "q": [e.q.numerator, e.q.denominator],
                "lattice": [[p, n] for p, n in e.lattice],
                "t": 0.0,
            }

        # every point writes "t": 0.0 and every factor "bv": 0, fixed
        # fields of the exported catalog format (tests/golden/catalog_A2.json)
        terms = []
        for t in self.terms:
            terms.append({
                "scalar": [t.scalar.real, t.scalar.imag],
                "factors": [
                    {"period": f.period, "arg": shift_d(f.arg),
                     "exp": f.exponent, "bv": 0}
                    for f in t.factors
                ],
                "deltas": [shift_d(d.arg) for d in t.deltas],
                "mat": None if t.mat is None else
                       [[[z.real, z.imag] for z in row] for row in t.mat.tolist()],
            })
        return {"terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _merge_terms(a: Term, b: Term) -> Optional[Term]:
    if a.mat is None and b.mat is None:
        s = a.scalar + b.scalar
        if abs(s) < 1e-300:
            return None
        return Term(s, a.factors, a.deltas, None)
    ma = a.mat if a.mat is not None else np.eye(b.mat.shape[0], dtype=complex)
    mb = b.mat if b.mat is not None else np.eye(a.mat.shape[0], dtype=complex)
    m = a.scalar * ma + b.scalar * mb
    if np.max(np.abs(m)) < 1e-300:
        return None
    return Term(1.0 + 0j, a.factors, a.deltas, _mat_tuple(m))


def _mat_mul(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if a is None:
        return b
    if b is None:
        return a
    return a @ b


# ---------------------------------------------------------------------------
# Numeric comparison
# ---------------------------------------------------------------------------


def eval_extended(expr: DistExpr, assignment: Mapping[str, complex], params: ParamTower):
    """Optional extended-precision evaluation pass (mpmath backend).

    Used to validate double-precision results near strip edges, where
    the sh factors are badly conditioned; matrix terms are accumulated
    entrywise at 40 decimal digits and returned as a complex (array)
    rounded back to double.
    """
    import mpmath as mp

    with mp.workdps(40):
        shape = None
        for t in expr.terms:
            if t.deltas:
                raise DeltaPresentError("use residue/delta APIs for delta terms")
            if t.mat is not None:
                shape = t.mat.shape
        acc_mat = [[mp.mpc(0)] * shape[1] for _ in range(shape[0])] if shape else None
        acc_sc = mp.mpc(0)
        for t in expr.terms:
            val = mp.mpc(t.scalar)
            for f in t.factors:
                arg = mp.mpc(0)
                for name, c in f.arg.vars:
                    arg += c * mp.mpc(assignment[name])
                arg += mp.mpc(0, 1) * (mp.mpf(float(f.arg.q)) * params.hbar
                                       + sum(n / params.eta_at(p) for p, n in f.arg.lattice))
                s = mp.sinh(mp.pi * params.eta_at(f.period) * arg)
                val = val * s if f.exponent == 1 else val / s
            if t.mat is not None:
                for a in range(shape[0]):
                    for b in range(shape[1]):
                        acc_mat[a][b] += val * t.mat[a, b]
            elif acc_mat is not None:
                for a in range(shape[0]):
                    acc_mat[a][a] += val
            else:
                acc_sc += val
        if acc_mat is not None:
            return np.array([[complex(z) for z in row] for row in acc_mat])
        return complex(acc_sc)


def judged(worst: float, tol: float, done: int = 1) -> dict:
    """The verdict of a record judged at ``done`` accepted points, with the
    ``tol`` it was judged against.

    With no accepted point the record shows ``max_residual`` inf and
    fails; otherwise it passes only if ``worst < tol`` (a NaN is inf).
    """
    worst = worst_of(worst) if done else math.inf
    return {"max_residual": worst, "pass": bool(worst < tol), "tol": tol}


Window = tuple[tuple[float, float], Optional[tuple[float, float]]]


def sample_max(residual: Callable[[dict[str, complex]], Optional[float]],
               windows: Mapping[str, Window], samples: int,
               rng: np.random.Generator, retries: int = 200) -> tuple[float, int]:
    """Largest residual over up to ``samples`` accepted random points.

    ``windows`` maps each variable, in draw order, to its (real range,
    imaginary range); an imaginary range of None draws a real point.  A
    try draws every variable, real part then imaginary part, and all the
    tries of a batch come from one broadcast ``rng.uniform(lo, hi,
    size=(n, width))`` call, one row per try: the same doubles as one
    scalar call per coordinate.  A try whose ``residual`` returns None or
    raises ArithmeticError is rejected; at most ``samples + retries``
    tries are made.  A NaN residual is an accepted point with residual
    inf (``worst_of``), so it fails the record.  Returns (worst, accepted
    count).

    With no variable every try is the empty point, which draws nothing, so
    for ``samples > 0`` the residual is valued once: accepted, it counts
    for all ``samples`` points; rejected, for none.
    """
    if not windows:
        try:
            r = residual({}) if samples > 0 else None
        except ArithmeticError:
            r = None
        return (0.0, 0) if r is None else (worst_of(r), samples)
    lo: list[float] = []
    hi: list[float] = []
    slots = []   # (name, offset of the real part, offset of the imaginary part or None)
    for name, (re_range, im_range) in windows.items():
        slots.append((name, len(lo), None if im_range is None else len(lo) + 1))
        for lo_hi in (re_range,) if im_range is None else (re_range, im_range):
            lo.append(lo_hi[0])
            hi.append(lo_hi[1])
    width = len(lo)
    lo_arr, hi_arr = np.array(lo), np.array(hi)
    accepted: list[float] = []
    tries = 0
    while len(accepted) < samples and tries < samples + retries:
        # the tries left if none is rejected
        n = min(samples - len(accepted), samples + retries - tries)
        for row in rng.uniform(lo_arr, hi_arr, size=(n, width)).tolist():
            tries += 1
            pt = {name: complex(row[re], 0.0 if im is None else row[im])
                  for name, re, im in slots}
            try:
                r = residual(pt)
            except ArithmeticError:
                continue
            if r is not None:
                accepted.append(r)
    return worst_of(*accepted), len(accepted)


def equal_numeric(a: DistExpr, b: DistExpr, params: ParamTower,
                  samples: int = 50, tol: float = 1e-9,
                  rng: int | np.random.Generator = 0) -> dict:
    """Delta-aware structural + sampled equality report.

    Delta-free parts are compared pointwise, by ``evalplan.relative_residual`` from
    one ``Plan`` of the pair (so the two sides share each factor's value),
    at points drawn from ``rng`` (a seed or a generator) with every variable
    in [-2, 2] + i[-0.35/eta, 0.35/eta]; delta parts are grouped by
    canonical support and their coefficient expressions compared the same
    way, the groups in turn on one stream.  A group with no variable is a
    constant: it is valued once and draws nothing (``sample_max``), and
    counts ``samples`` accepted points if that value is accepted.  The
    record is judged at the smallest accepted count of its groups; two
    sides that are both exactly zero have no group and pass as an exact
    identity.
    """
    rng = np.random.default_rng(rng)
    w = 0.35 / params.eta
    ga = a.delta_groups()
    gb = b.delta_groups()
    pieces = []
    for key in sorted(set(ga) | set(gb), key=lambda k: [str(d.arg) for d in k]):
        ca = ga.get(key, DistExpr.zero())
        cb = gb.get(key, DistExpr.zero())
        windows = {n: ((-2.0, 2.0), (-w, w)) for n in sorted(ca.free_vars() | cb.free_vars())}
        worst, done = sample_max(Plan((ca, cb), params).residual, windows, samples, rng)
        pieces.append({"support": [str(d.arg) for d in key], "max_residual": worst,
                       "samples": done})
    return {
        **judged(worst_of(*(p["max_residual"] for p in pieces)), tol,
                 min((p["samples"] for p in pieces), default=1)),
        "groups": pieces,
    }
