from fractions import Fraction

import pytest
from hypothesis import given, settings

from gwone.laurent import LaurentPoly
from gwone.rings import RingSpec
from gwone.series import QSeries

from strategies import fractions, q_series

SPEC = RingSpec.absolute(2)


def scalar_series(order, values):
    return QSeries.from_scalars(SPEC, order, values)


def test_exp_of_zero_is_one():
    assert QSeries.zero(SPEC, 4).exp() == QSeries.one(SPEC, 4)


def test_exp_of_q_taylor():
    f = scalar_series(2, {1: 1})
    assert f.exp() == scalar_series(2, {0: 1, 1: 1, 2: Fraction(1, 2)})


def test_exp_log_of_one_minus_q():
    one_minus_q = scalar_series(5, {0: 1, 1: -1})
    assert one_minus_q.log().exp() == one_minus_q


def test_log_of_one_minus_q_coefficients():
    one_minus_q = scalar_series(5, {0: 1, 1: -1})
    expected = scalar_series(5, {k: Fraction(-1, k) for k in range(1, 6)})
    assert one_minus_q.log() == expected


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        QSeries.one(SPEC, 3).exp()


def test_log_requires_unit_constant_term():
    with pytest.raises(ValueError):
        QSeries.zero(SPEC, 3).log()


def test_substitute_with_zero_is_identity():
    p = scalar_series(4, {0: 3, 2: Fraction(5, 7), 4: -2})
    assert p.substitute(QSeries.zero(SPEC, 4)) == p


def test_substitute_into_constant():
    one = QSeries.one(SPEC, 4)
    f = scalar_series(4, {1: Fraction(2, 3)})
    assert one.substitute(f) == one


@given(fractions)
def test_substitute_q_into_q_times_exp(a):
    # q evaluated at q*e^{a q} is q + a q^2 + a^2/2 q^3 modulo q^4
    p = scalar_series(3, {1: 1})
    f = scalar_series(3, {1: a})
    expected = scalar_series(3, {1: 1, 2: a, 3: a * a / 2})
    assert p.substitute(f) == expected


def test_substitute_requires_zero_constant_term():
    p = scalar_series(3, {1: 1})
    with pytest.raises(ValueError):
        p.substitute(QSeries.one(SPEC, 3))


@settings(max_examples=40)
@given(q_series(zero_constant=True), q_series(zero_constant=True))
def test_exp_is_a_homomorphism(f, g):
    assert (f + g).exp() == f.exp() * g.exp()


@settings(max_examples=40)
@given(q_series(), q_series(), q_series(zero_constant=True))
def test_substitution_is_multiplicative(p, q, f):
    assert (p * q).substitute(f) == p.substitute(f) * q.substitute(f)


def test_truncation_orders_must_match():
    with pytest.raises(ValueError):
        QSeries.one(SPEC, 3) + QSeries.one(SPEC, 4)


def test_shift():
    p = scalar_series(4, {0: 1, 1: 2, 3: 4})
    shifted = p.shift(2)
    assert shifted == scalar_series(4, {2: 1, 3: 2})


def test_scale_by_laurent():
    p = scalar_series(2, {0: 1, 1: 1})
    t_inverse = LaurentPoly.single(SPEC, -1, 1)
    scaled = p.scale(t_inverse)
    assert scaled.coefficient(0) == t_inverse
    assert scaled.coefficient(1) == t_inverse
