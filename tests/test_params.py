import warnings

import pytest

from curalg.params import (
    GenericityWarning,
    ParameterRangeError,
    ParamTower,
    check_genericity,
)


def quiet_tower(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ParamTower(*args, **kwargs)


def test_one_step_solves_linear_relation():
    # 1/eta' = 1/eta + hbar*c, solved independently here
    tower = quiet_tower(0.1, 1.0, (1.0,))
    expected = 1.0 / (1.0 / 1.0 + 0.1 * 1.0)
    assert abs(tower.eta_at(1) - expected) < 1e-15
    assert abs(tower.eta_at(1) - 1 / 1.1) < 1e-15


def test_zero_increment():
    tower = quiet_tower(0.3, 0.7, (0.0,))
    assert tower.eta_at(1) == tower.eta_at(0)


def test_two_step_recursion():
    tower = quiet_tower(0.1, 1.0, (1.0, 1.0))
    assert abs(tower.eta_at(2) - 1 / 1.2) < 1e-15


def test_telescoping():
    levels = (1.0, 2.0, 0.0, 3.0)
    tower = quiet_tower(0.07, 1.3, levels)
    for n in range(1, len(levels) + 1):
        lhs = 1.0 / tower.eta_at(n) - 1.0 / tower.eta_at(0)
        assert abs(lhs - 0.07 * sum(levels[:n])) < 1e-12


def test_range_exhausted():
    with pytest.raises(ParameterRangeError):
        quiet_tower(1.0, 1.0, (-2.0,))


def test_unmaterialized_level():
    tower = quiet_tower(0.1, 1.0, (1.0,))
    with pytest.raises(ParameterRangeError):
        tower.eta_at(2)


def test_genericity_guard_warns():
    with pytest.warns(GenericityWarning):
        check_genericity(0.1, 1.0)  # 1/10 with denominator <= 12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_genericity(0.1007919199, 1.0)
