"""The regularized contour primitives behind every contraction integral.

All contraction exponents reduce to the two families

    M_eta(x)  =  lnGamma(eta*x) + (eta*x - 1/2)(gamma - ln eta) - ln(2pi)/2
    I0(x)     =  -(gamma + ln x)

which are the log-weighted contour integrals of e^{-x*lambda} /
(lambda * (1 - e^{-lambda/eta})) and e^{-x*lambda}/lambda.  The closed
forms are taken as the definition; the quadrature oracle below exists
solely to validate them (and the frozen contour/branch conventions).

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
from scipy import integrate, special

EULER_GAMMA = float(np.euler_gamma)


class BranchError(ValueError):
    """Argument outside the principal domain Re(eta*x) > 0."""


def master_integral(x: complex, eta_p: float) -> complex:
    """Closed form, principal domain Re(eta_p * x) > 0."""
    z = eta_p * complex(x)
    if z.real <= 0:
        raise BranchError(f"Re(eta*x) = {z.real} <= 0")
    return (special.loggamma(z) + (z - 0.5) * (EULER_GAMMA - math.log(eta_p))
            - 0.5 * math.log(2.0 * math.pi))


def i0_closed(x: complex) -> complex:
    if complex(x).real <= 0:
        raise BranchError(f"Re(x) = {complex(x).real} <= 0")
    return -(EULER_GAMMA + cmath.log(x))


@functools.lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, once per n."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _contour_quadrature(g: Callable[[complex], complex], rho: float,
                        lam_max: float) -> complex:
    """Keyhole quadrature of ln(-lambda)/(2*pi*i) * g(lambda): adaptive legs
    on [rho, lam_max], 240 Gauss-Legendre nodes on the circle of radius rho."""
    def g_real(t: float) -> complex:
        return g(complex(t, 0.0))

    re = integrate.quad(lambda t: g_real(t).real, rho, lam_max, limit=400)[0]
    im = integrate.quad(lambda t: g_real(t).imag, rho, lam_max, limit=400)[0]
    legs = complex(re, im)

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
    """|Gamma(x)Gamma(1-x) sin(pi x)/pi - 1|; identically 0 analytically."""
    val = special.gamma(x) * special.gamma(1.0 - x) * math.sin(math.pi * x) / math.pi
    return abs(val - 1.0)


def exp_master(x: complex, eta_p: float) -> complex:
    """exp(M_eta(x)) continued to the whole plane via Gamma."""
    z = eta_p * complex(x)
    return (special.gamma(z)
            * cmath.exp((z - 0.5) * (EULER_GAMMA - math.log(eta_p)))
            / math.sqrt(2.0 * math.pi))


def exp_i0(x: complex) -> complex:
    """exp(I0(x)) = e^{-gamma}/x, continued to the whole plane."""
    return math.exp(-EULER_GAMMA) / complex(x)
