import pytest

from curalg import intertwine
from curalg.trigcalc import DistExpr, ShiftExpr, Term, TrigFactor


@pytest.fixture
def sign_flipped_exchange(monkeypatch):
    """Flip the sign of one exchange: ``intertwine.exchange_fn`` for E_1(u)
    E_1(v) gets one own-period lattice unit on its first factor, and
    sh(x + i*pi) = -sh(x).  Returns the (x, y) labels of the triples whose
    path B uses it."""
    real = intertwine.exchange_fn

    def flipped(xk, xi, yk, yi, cd, u_name, v_name):
        expr = real(xk, xi, yk, yi, cd, u_name, v_name)
        if (xk, xi, yk, yi, u_name) != ("E", 1, "E", 1, "u"):
            return expr
        (t,) = expr.terms
        f = t.factors[0]
        moved = TrigFactor(f.period, f.arg + ShiftExpr.lattice_units(f.period), f.exponent)
        return DistExpr((Term(t.scalar, (moved,) + t.factors[1:]),))

    monkeypatch.setattr(intertwine, "exchange_fn", flipped)
    return "E_1", "E_1"
