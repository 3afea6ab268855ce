"""Free-field currents: word phases and mode coefficients.

The level-1 currents are

    E_j(u) = e^gamma  exp(2*pi*i*Q_j) exp(P_j)  :exp( phi'_j(u)/2):
    F_j(u) = e^gamma  exp(-2*pi*i*Q_j) exp(-P_j) :exp(-phi_j(u)/2):
    H+-_j(u) = :exp(-+ int e^{i*lambda*u} e^{-+hbar*lambda/4}
                    / (1 - e^{+-lambda/eta}) a_j(lambda)):

with [P_i, Q_j] = B_ij.  Reordering exp(P_i) past exp(2*pi*i*Q_j) costs
exp(2*pi*i*B_ij); for adjacent nodes that half-integer phase enters both
orders of a product symmetrically and cancels in the exchange ratio, so
the E/F words additionally carry standard multiplicative Klein factors
with epsilon(xi, xi') = (-1)^(sum_{a<b} xi_a xi'_b A_ab) on the charge
lattice (E_j carries +e_j, F_j carries -e_j).  The combined reordering
phase of two currents is then exp(2*pi*i*q*q'*B_ij), which is what the
exchange relations require.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable

from ..liealg import CartanData
from ..params import ParamTower
from ..trigcalc import ShiftExpr
from ..value import Value
from .atoms import ExponentFn, ParamLin, spectral_exponent

KINDS = ("E", "F", "H+", "H-")
# Charge of each kind on the zero-mode lattice, in units of e_j.
CHARGE = {"E": 1, "F": -1, "H+": 0, "H-": 0}


# ---------------------------------------------------------------------------
# Currents
# ---------------------------------------------------------------------------


class BosonCurrent(Value):
    """One current letter: kind, node, spectral argument, family slot.

    ``slot`` selects the Heisenberg copy: the mode kernel of slot m uses
    the scales (eta^(m), eta^(m+1)); level-1 words live entirely in
    slot 0.
    """

    def __init__(self, kind: str, j: int, arg: ShiftExpr, slot: int = 0) -> None:
        _set = object.__setattr__
        _set(self, "kind", kind)
        _set(self, "j", j)
        _set(self, "arg", arg)
        _set(self, "slot", slot)

    def _fields(self) -> tuple:
        return (self.kind, self.j, self.arg, self.slot)

    def g(self, params: ParamTower) -> ExponentFn:
        """The mode coefficient function g(lambda) of this letter, its
        scales resolved on ``params``."""
        vars_, shift = spectral_exponent(self.arg, params)
        m = self.slot
        if self.kind == "E":
            return ExponentFn(
                weight=0.5, vars=vars_, rshift=shift,
                num_sh=(ParamLin.inv_eta(m + 1, params, Fraction(1, 2)),),
                den_sh=(ParamLin.inv_eta(m, params, Fraction(1, 2)),
                        ParamLin.hbar(Fraction(1, 2))),
            )
        if self.kind == "F":
            return ExponentFn(
                weight=-0.5, vars=vars_, rshift=shift,
                den_sh=(ParamLin.hbar(Fraction(1, 2)),),
            )
        beta = ParamLin.inv_eta(m, params)
        if self.kind == "H+":
            # -e^{-hbar/4} / (1 - e^{+lambda/eta}) = +e^{-hbar/4 - 1/eta} Bose
            return ExponentFn(
                weight=1.0, vars=vars_,
                rshift=shift + ParamLin.hbar(Fraction(-1, 4)) - beta,
                bose=(beta,),
            )
        if self.kind == "H-":
            return ExponentFn(
                weight=1.0, vars=vars_,
                rshift=shift + ParamLin.hbar(Fraction(1, 4)),
                bose=(beta,),
            )
        raise ValueError(f"unknown current kind {self.kind!r}")


def current(kind: str, j: int, var_name: str, q_shift: Fraction | int = 0,
            slot: int = 0) -> BosonCurrent:
    arg = ShiftExpr.of_var(var_name) + ShiftExpr.hbar_units(Fraction(q_shift))
    return BosonCurrent(kind, j, arg, slot)


def phi_value(kind: str, j: int, lam: complex, u: complex,
              params: ParamTower, slot: int = 0) -> complex:
    """Pointwise g(lambda) evaluation (oracle for the atom bookkeeping)."""
    eta = params.eta_at(slot)
    eta_p = params.eta_at(slot + 1)
    h = params.hbar
    e_iu = cmath.exp(1j * lam * u)
    if kind == "E":
        return 0.5 * e_iu * cmath.sinh(lam / (2 * eta_p)) / (
            cmath.sinh(lam / (2 * eta)) * cmath.sinh(h * lam / 2))
    if kind == "F":
        return -0.5 * e_iu / cmath.sinh(h * lam / 2)
    if kind == "H+":
        return -e_iu * cmath.exp(-h * lam / 4) / (1 - cmath.exp(lam / eta))
    if kind == "H-":
        return e_iu * cmath.exp(h * lam / 4) / (1 - cmath.exp(-lam / eta))
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# Ordered products of currents
# ---------------------------------------------------------------------------


# (cartan, ((kind, node), ...)) -> the phase of a word with those letters
_PHASES: dict[tuple, complex] = {}


def word_phase(currents: Iterable[BosonCurrent], cartan: CartanData) -> complex:
    """Scalar accumulated when normal-ordering the zero-mode/Klein part.

    For every ordered pair a < b of the word, with charges q (+1 for E,
    -1 for F, 0 for H+-) on nodes j: exp(2*pi*i*q_a*q_b*B_{j_a j_b}) from
    moving exp(P_{j_a}) past exp(2*pi*i*q_b*Q_{j_b}), times the Klein sign
    (-1)^(q_a*q_b*A_{j_a j_b}) when j_a < j_b.  Both depend only on the
    letters' kinds and nodes, so the phase is computed once per (Cartan
    data, kinds and nodes).
    """
    cs = list(currents)
    key = (cartan, tuple((c.kind, c.j) for c in cs))
    if key not in _PHASES:
        exponent = Fraction(0)  # in units of 2*pi*i
        klein = 1
        for a in range(len(cs)):
            for b in range(a + 1, len(cs)):
                qq = CHARGE[cs[a].kind] * CHARGE[cs[b].kind]
                ja, jb = cs[a].j, cs[b].j
                exponent += qq * cartan.b_entry(ja, jb)
                if ja < jb and qq * cartan.a_entry(ja, jb) % 2:
                    klein = -klein
        _PHASES[key] = cmath.exp(2j * math.pi * float(exponent)) * klein
    return _PHASES[key]
