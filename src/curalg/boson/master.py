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

EULER_GAMMA = 0.5772156649015329
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


@functools.cache
def _leggauss(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] of the
    n-point rule, n = 24 or 240, from the table of its non-negative half
    (``_GAUSS_LEGENDRE_HALF``)."""
    nodes, weights = _GAUSS_LEGENDRE_HALF[n]
    return tuple(-x for x in reversed(nodes)) + nodes, weights[::-1] + weights


_PANELS = 12


def _leg_integral(g: Callable[[complex], complex], a: float, b: float) -> complex:
    """integral_a^b g(t) dt, 0 < a < b: 12 geometric panels of 24
    Gauss-Legendre nodes each."""
    nodes, weights = _leggauss(24)
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
    circle = 0j
    for lam, a, b in _circle(rho):
        circle += a * g(lam) * b
    return legs + circle / (2j * math.pi)


@functools.cache
def _circle(rho: float) -> tuple[tuple[complex, complex, complex], ...]:
    """(lambda, pi*w*ln(-lambda), i*lambda) at the 240 Gauss-Legendre nodes
    of the circle of radius rho, built once per radius: the circle term of
    ``_contour_quadrature`` is the sum of a * g(lambda) * b over them.

    The ln weight jumps by 2*pi*i across theta = 0, so the circle
    integrand is smooth but not periodic: Gauss-Legendre, not trapezoid.
    """
    out = []
    for t, w in zip(*_leggauss(240)):
        theta = math.pi * (t + 1.0)
        lam = rho * cmath.exp(1j * theta)
        lnweight = math.log(rho) + 1j * (theta - math.pi)
        out.append((lam, math.pi * w * lnweight, 1j * lam))
    return tuple(out)


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


# The non-negative half of the 24- and 240-point Gauss-Legendre rules,
# nodes ascending and their weights: Newton's method on the three-term
# recurrence from Tricomi's guesses, the rule symmetrized about 0
# (tests/test_boson.py regenerates it bit for bit).  Against mpmath the
# 240-point weights are within 1e-12 relative; numpy's leggauss, through
# a LAPACK eigensolver, is off by up to 4e-11.
_GAUSS_LEGENDRE_HALF = {
    24: (
        (
            0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
            0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
            0.7401241915785544, 0.820001985973903, 0.8864155270044011,
            0.9382745520027328, 0.9747285559713095, 0.9951872199970213,
        ),
        (
            0.12793819534675224, 0.12583745634682839, 0.12167047292780335,
            0.11550566805372561, 0.10744427011596562, 0.0976186521041139,
            0.08619016153195322, 0.07334648141108027, 0.05929858491543666,
            0.044277438817419676, 0.028531388628933813, 0.012341229799987334,
        ),
    ),
    240: (
        (
            0.006531317106544312, 0.019592836860420928, 0.03265101342682519,
            0.0457036186479554, 0.05874842531666601, 0.07178320755650308,
            0.0848057412015125, 0.09781380417575654, 0.11080517687247357,
            0.12377764253281662, 0.13672898762410587, 0.14965700221753075,
            0.16255948036523707, 0.17543422047673476, 0.18827902569456234,
            0.2010917042691434, 0.21387006993277208, 0.22661194227266243,
            0.2393151471029994, 0.25197751683592684, 0.26459689085141,
            0.27717111586590887, 0.28969804629979956, 0.3021755446434816,
            0.3146014818221078, 0.32697373755887493, 0.3392902007368134,
            0.3515487697590136, 0.36374735290722826, 0.3758838686987886,
            0.3879562462417745, 0.39996242558837736, 0.41190035808639536,
            0.4237680067288013, 0.43556334650132394, 0.44728436472798216,
            0.45892906141451445, 0.4704954495896441, 0.48198155564412254,
            0.4933854196674922, 0.5047050957825125, 0.5159386524771911,
            0.5270841729343634, 0.5381397553587655, 0.5491035133015434,
            0.5599735759821438, 0.5707480886075313, 0.5814252126886774,
            0.5920031263542677, 0.6024800246615736, 0.6128541199044356,
            0.6231236419183052, 0.6332868383822929, 0.6433419751181737,
            0.6532873363862937, 0.6631212251783337, 0.6728419635068742,
            0.6824478926917159, 0.6919373736429056, 0.7013087871404194,
            0.7105605341104552, 0.7196910358982875, 0.728698734537639,
            0.7375820930165203, 0.7463395955394961, 0.7549697477863297,
            0.7634710771669636, 0.7718421330727925, 0.7800814871241849,
            0.7881877334142124, 0.7961594887485445, 0.8039953928814663,
            0.8116941087479828, 0.8192543226919662, 0.8266747446903093,
            0.8339541085730464, 0.8410911722394042, 0.8480847178697455,
            0.8549335521333699, 0.8616365063921358, 0.8681924368998697,
            0.8746002249975267, 0.8808587773040724, 0.8869670259030499,
            0.8929239285248028, 0.8987284687243222, 0.9043796560546862,
            0.9098765262360652, 0.9152181413202611, 0.9204035898507551,
            0.9254319870182341, 0.9303024748115726, 0.9350142221642409,
            0.9395664250961188, 0.9439583068506868, 0.9481891180275754,
            0.9522581367104486, 0.9561646685902004, 0.9599080470834469,
            0.9634876334462923, 0.9669028168833548, 0.9701530146520364,
            0.9732376721620261, 0.976156263070027, 0.9789082893697086,
            0.9814932814768915, 0.9839107983099926, 0.9861604273657861,
            0.9882417847905959, 0.990154515447143, 0.9918982929774995,
            0.9934728198631012, 0.9948778274839281, 0.9961130761819419,
            0.9971783553422673, 0.9980734835327119, 0.9987983088461845,
            0.9993527100985639, 0.9997366031376504, 0.9999500077416257,
        ),
        (
            0.013062448466717162, 0.013060219579987644, 0.013055762186850518,
            0.013049077047884928, 0.013040165303797074, 0.013029028475225983,
            0.013015668462483771, 0.01300008754523156, 0.012982288382090288,
            0.012962274010187293, 0.012940047844637852, 0.012915613677962618,
            0.012888975679440463, 0.012860138394396935, 0.01282910674342889,
            0.012795886021564687, 0.012760481897360683, 0.012722900411934213,
            0.01268314797793251, 0.012641231378438622, 0.012597157765813936,
            0.01255093466047784, 0.012502569949624473, 0.01245207188587677,
            0.012399449085878474, 0.012344710528823645, 0.012287865554924832,
            0.01222892386381895, 0.0121678955129125, 0.012104790915665267,
            0.012039620839813414, 0.011972396405532392, 0.011903129083539169,
            0.011831830693135134, 0.011758513400189333, 0.011683189715062341,
            0.011605872490471963, 0.011526574919299785, 0.011445310532340271,
            0.011362093195991718, 0.011276937109890466, 0.011189856804487816,
            0.011100867138570704, 0.011009983296726129, 0.01091722078675043,
            0.010822595437002928, 0.010726123393705381, 0.010627821118186312,
            0.010527705384072918, 0.010425793274428245, 0.010322102178836856,
            0.010216649790437122, 0.010109454102902354, 0.010000533407370595,
            0.009889906289323389, 0.009777591625414627, 0.009663608580249262,
            0.009547976603113762, 0.009430715424656743, 0.009311845053522835,
            0.009191385772938102, 0.009069358137249486, 0.00894578296841725,
            0.008820681352462011, 0.008694074635867084, 0.008565984421935891,
            0.008436432567105601, 0.008305441177217949, 0.00817303260374714,
            0.00803922943998592, 0.007904054517190447, 0.007767530900684715,
            0.007629681885924385, 0.00749053099452245, 0.007350101970235203,
            0.00720841877491103, 0.007065505584401667, 0.006921386784437098,
            0.006776086966464544, 0.006629630923452374, 0.006482043645659696,
            0.006333350316372345, 0.0061835763076057175, 0.006032747175775743,
            0.005880888657338028, 0.005728026664396862, 0.005574187280283803,
            0.005419396755106993, 0.005263681501272948, 0.005107068088979682,
            0.004949583241683856, 0.004791253831541106, 0.0046321068748222585,
            0.004472169527304348, 0.004311469079638632, 0.004150032952695997,
            0.0039878886928910815, 0.0038250639674858367, 0.003661586559874071,
            0.003497484364848453, 0.0033327853838516722, 0.003167517720214322,
            0.0030017095743831, 0.002835389239143978, 0.0026685850948486504,
            0.0025013256046575224, 0.0023336393098209647, 0.0021655548250402116,
            0.0019971008339856387, 0.0018283060851246368, 0.0016591993881852297,
            0.0014898096119842026, 0.0013201656853863964, 0.001150296606088287,
            0.0009802314711599449, 0.000809999577139229, 0.000639630788269075,
            0.00046915725669827206, 0.00029862558290970364, 0.00012829520998629463,
        ),
    ),
}
