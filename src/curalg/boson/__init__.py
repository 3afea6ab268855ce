"""Level-1 free-field realization and its contraction calculus."""

from .atoms import ExponentFn, ParamLin  # noqa: F401
from .currents import BosonCurrent, current  # noqa: F401
from .kernel import Kernel, kernel_value  # noqa: F401
from .master import i0_closed, i0_quadrature, master_integral, master_integral_quadrature  # noqa: F401
from .contraction import ClosedForm, UnsupportedPairError, product_exponent  # noqa: F401
from .checks import ef_delta_check, exchange_check, serre_check  # noqa: F401
