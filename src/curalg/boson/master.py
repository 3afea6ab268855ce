"""The regularized contour primitives behind every contraction integral.

All contraction exponents reduce to the two families

    M_eta(x)  =  lnGamma(eta*x) + (eta*x - 1/2)(gamma - ln eta) - ln(2pi)/2
    I0(x)     =  -(gamma + ln x)

which are the log-weighted contour integrals of e^{-x*lambda} /
(lambda * (1 - e^{-lambda/eta})) and e^{-x*lambda}/lambda.  The closed
forms are taken as the definition; the quadrature oracle below exists
solely to validate them (and the frozen contour/branch conventions).

Gamma is computed here, on the standard library alone.  For Re w >= 1/2
it is Lanczos' approximation with g = 7 and nine coefficients, in the
form Gamma(w)/sqrt(2pi) = t^{w-1/2} e^{-t} A(w), t = w + 6.5, so that
exp(M_eta) takes one complex log and one complex exp, the sqrt(2pi)
cancelling.  For Re z < 1/2 it recurs upward, Gamma(z) = Gamma(z+n) /
(z (z+1) ... (z+n-1)), and never uses the reflection formula, so the
report's reflection check compares two independent evaluations.  Every
non-positive integer is a pole and gives NaN.  Against mpmath this Gamma
and exp(M_eta) agree to within 8e-15 relative over |Re z| <= 6,
|Im z| <= 3.  lnGamma (Re z > 0 only) recurs upward to |w| >= 10, takes
seven Stirling terms there and subtracts the principal logs of z, z+1,
..., w-1; each has Re > 0, so the sum stays on the branch continuous
from the positive axis (the principal log of the Lanczos sum does not).
It agrees with mpmath.loggamma to 8e-15 * max(1, |lnGamma|) over
0 < Re z <= 8, |Im z| <= 25.

Contour convention (frozen by validation against the closed forms): the
keyhole comes in from +infinity above the positive real axis where
ln(-lambda) = ln|lambda| - i*pi, crosses the negative axis region where
the principal ln(-lambda) is real, circles the origin counterclockwise
with ln(-lambda) = ln(rho) + i*(theta - pi), and leaves below the axis
at ln|lambda| + i*pi.  The two straight legs then contribute exactly
+ integral_rho^Lambda g(t) dt and the circle supplies the finite part of
the 1/lambda^2-type singularity at the origin.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable

import numpy as np

EULER_GAMMA = float(np.euler_gamma)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2k / (2k (2k - 1)), k = 1..7: Stirling's series for lnGamma
_STIRLING = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
# Lanczos' coefficients for g = 7: A(w) = p0 + sum_k p_k / (w + k - 1)
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


class BranchError(ValueError):
    """Argument outside the principal domain Re(eta*x) > 0."""


def _gamma_scaled(z: complex, c: float) -> complex:
    """Gamma(z) * e^{(z - 1/2) c} / sqrt(2pi); NaN at z = 0, -1, -2, ..."""
    w = z
    div = 1.0
    if z.real < 0.5:
        if z.imag == 0.0 and z.real.is_integer():
            return complex(math.nan, math.nan)
        for _ in range(math.ceil(0.5 - z.real)):
            div *= w
            w += 1.0
    p0, p1, p2, p3, p4, p5, p6, p7, p8 = _LANCZOS
    a = (p0 + p1 / w + p2 / (w + 1.0) + p3 / (w + 2.0) + p4 / (w + 3.0) + p5 / (w + 4.0)
         + p6 / (w + 5.0) + p7 / (w + 6.0) + p8 / (w + 7.0))
    t = w + 6.5
    return cmath.exp((w - 0.5) * cmath.log(t) - t + (z - 0.5) * c) * (a / div)


def gamma(z: complex) -> complex:
    """Complex Gamma; NaN at every non-positive integer."""
    return _SQRT_2PI * _gamma_scaled(complex(z), 0.0)


def _loggamma(z: complex) -> complex:
    """lnGamma(z) for Re z > 0, continuous from the positive axis."""
    w = z
    logs = 0.0
    while abs(w) < 10.0:
        logs += cmath.log(w)
        w += 1.0
    r = 1.0 / w
    r2 = r * r
    series = 0.0
    for b in _STIRLING:
        series = series * r2 + b
    return (w - 0.5) * cmath.log(w) - w + _HALF_LN_2PI + series * r - logs


def master_integral(x: complex, eta_p: float) -> complex:
    """Closed form, principal domain Re(eta_p * x) > 0."""
    z = eta_p * complex(x)
    if z.real <= 0:
        raise BranchError(f"Re(eta*x) = {z.real} <= 0")
    return _loggamma(z) + (z - 0.5) * (EULER_GAMMA - math.log(eta_p)) - _HALF_LN_2PI


def i0_closed(x: complex) -> complex:
    if complex(x).real <= 0:
        raise BranchError(f"Re(x) = {complex(x).real} <= 0")
    return -(EULER_GAMMA + cmath.log(x))


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x), |x| < 1, by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@functools.lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only,
    once per n: Newton's method on the recurrence from Tricomi's guesses.
    numpy's leggauss goes through a LAPACK eigensolver, whose first call
    took up to 0.4 s in a fresh process with multi-threaded OpenBLAS on
    two vCPUs; its n = 240 weights were off by up to 4e-11 relative
    against mpmath, these by under 1e-12."""
    x = -np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(10):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.abs(step).max() < 1e-15:
            break
    dp = _legendre(n, x)[1]
    weights = 2.0 / ((1.0 - x * x) * dp * dp)
    # exact symmetry about 0, as the rule has
    nodes, weights = (x - x[::-1]) / 2.0, (weights + weights[::-1]) / 2.0
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


_PANELS = 12


def _leg_integral(g: Callable[[complex], complex], a: float, b: float) -> complex:
    """integral_a^b g(t) dt, 0 < a < b: 12 geometric panels of 24
    Gauss-Legendre nodes each, the nodes as Python floats."""
    nodes, weights = (arr.tolist() for arr in _leggauss(24))
    edges = [a * (b / a) ** (k / _PANELS) for k in range(_PANELS + 1)]
    total = 0j
    for lo, hi in zip(edges, edges[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        total += half * sum(w * g(complex(mid + half * t, 0.0)) for t, w in zip(nodes, weights))
    return total


def _contour_quadrature(g: Callable[[complex], complex], rho: float,
                        lam_max: float) -> complex:
    """Keyhole quadrature of ln(-lambda)/(2*pi*i) * g(lambda): legs on
    [rho, lam_max] by ``_leg_integral``, 240 Gauss-Legendre nodes on the
    circle of radius rho."""
    legs = _leg_integral(g, rho, lam_max)

    # The ln weight jumps by 2*pi*i across theta = 0, so the circle
    # integrand is smooth but not periodic: Gauss-Legendre, not trapezoid.
    nodes, weights = _leggauss(240)
    theta = math.pi * (nodes + 1.0)
    wq = math.pi * weights
    lam = rho * np.exp(1j * theta)
    lnweight = math.log(rho) + 1j * (theta - math.pi)
    vals = np.array([g(l) for l in lam])
    dlam = 1j * lam
    circle = np.sum(wq * lnweight * vals * dlam) / (2j * math.pi)
    return legs + complex(circle)


def master_integral_quadrature(x: complex, eta_p: float) -> complex:
    """Oracle for master_integral; agreement ~1e-7 on the principal domain."""
    xr = complex(x).real
    if eta_p * xr <= 0:
        raise BranchError("quadrature oracle needs Re(eta*x) > 0")

    def g(lam: complex) -> complex:
        return cmath.exp(-x * lam) / (lam * (1.0 - cmath.exp(-lam / eta_p)))

    return _contour_quadrature(g, 0.5 * min(1.0, math.pi * eta_p), 60.0 / xr)


def i0_quadrature(x: complex) -> complex:
    xr = complex(x).real
    if xr <= 0:
        raise BranchError("quadrature oracle needs Re(x) > 0")

    def g(lam: complex) -> complex:
        return cmath.exp(-x * lam) / lam

    return _contour_quadrature(g, 0.5, 60.0 / xr)


def gamma_reflection_defect(x: float) -> float:
    """|Gamma(x)Gamma(1-x) sin(pi x)/pi - 1|; identically 0 analytically,
    NaN at the poles x = 1, 2, ... of Gamma(1 - x) and x = 0, -1, ... of Gamma(x)."""
    val = gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) / math.pi
    return abs(val - 1.0)


def exp_master(x: complex, eta_p: float) -> complex:
    """exp(M_eta(x)) continued to the whole plane via Gamma."""
    return _gamma_scaled(eta_p * complex(x), EULER_GAMMA - math.log(eta_p))


def exp_i0(x: complex) -> complex:
    """exp(I0(x)) = e^{-gamma}/x, continued to the whole plane."""
    return math.exp(-EULER_GAMMA) / complex(x)
