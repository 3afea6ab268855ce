"""The deformed mode-commutator kernel and its symmetries.

The modes a_i(lambda) commute to alpha_ij(lambda) * delta(lambda + mu)
with

    alpha_ij(lambda) = (4/lambda) sh(hbar*lambda/2) sh(hbar*B_ij*lambda)
                       * sh(lambda/(2*eta)) / sh(lambda/(2*eta')),

antisymmetric in lambda and symmetric in (i, j) -- the latter is exactly
why only symmetric Cartan matrices are admissible.  At a family slot m
the two scales are eta^(m), eta^(m+1).
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from ..liealg import CartanData
from ..params import ParamTower
from .atoms import ParamLin


class Kernel:
    """coeff * lambda^lambda_power * prod sh(num)/prod sh(den)."""

    def __init__(self, coeff: complex, num_sh: tuple[ParamLin, ...],
                 den_sh: tuple[ParamLin, ...], lambda_power: int = -1) -> None:
        self.coeff = coeff
        self.num_sh = num_sh
        self.den_sh = den_sh
        self.lambda_power = lambda_power


def kernel(cartan: CartanData, i: int, j: int, params: ParamTower, slot: int = 0) -> Kernel:
    """alpha_ij atoms at family slot ``slot``, resolved on ``params``; zero
    kernel for B_ij = 0."""
    b = cartan.b_entry(i, j)
    if b == 0:
        return Kernel(0.0, (), ())
    return Kernel(
        coeff=4.0,
        num_sh=(
            ParamLin.hbar(Fraction(1, 2)),
            ParamLin.hbar(b),
            ParamLin.inv_eta(slot, params, Fraction(1, 2)),
        ),
        den_sh=(ParamLin.inv_eta(slot + 1, params, Fraction(1, 2)),),
    )


def kernel_value(cartan: CartanData, i: int, j: int, lam: complex,
                 params: ParamTower, slot: int = 0) -> complex:
    """Pointwise alpha_ij(lambda) for symmetry tests and quadrature."""
    b = float(cartan.b_entry(i, j))
    if b == 0.0:
        return 0.0
    eta = params.eta_at(slot)
    eta_p = params.eta_at(slot + 1)
    return (4.0 / lam) * cmath.sinh(params.hbar * lam / 2.0) \
        * cmath.sinh(params.hbar * b * lam) \
        * cmath.sinh(lam / (2.0 * eta)) / cmath.sinh(lam / (2.0 * eta_p))
