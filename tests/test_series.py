from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwone import rings
from gwone.laurent import LaurentPoly
from gwone.relative import relative_ring
from gwone.rings import CohClass, RingSpec, SpecMismatchError, _power_sum
from gwone.series import QSeries

from strategies import fractions, q_series
from test_ring_oracle import SlotPoly, poly_add, poly_mul, poly_slots

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


@given(q_series(zero_constant=True), q_series(zero_constant=True))
def test_exp_is_a_homomorphism(f, g):
    assert (f + g).exp() == f.exp() * g.exp()


@given(q_series(), q_series(), q_series(zero_constant=True))
def test_substitution_is_multiplicative(p, q, f):
    assert (p * q).substitute(f) == p.substitute(f) * q.substitute(f)


def test_truncation_orders_must_match():
    with pytest.raises(ValueError):
        QSeries.one(SPEC, 3) + QSeries.one(SPEC, 4)


def test_constructor_drops_degrees_above_the_order():
    one = LaurentPoly.one(SPEC)
    p = QSeries(SPEC, 2, {1: one, 3: one, 7: one})
    assert p == QSeries(SPEC, 2, {1: one})
    assert [p.coefficient(d) for d in range(3)] == [LaurentPoly.zero(SPEC), one, LaurentPoly.zero(SPEC)]


def test_constructor_rejects_a_negative_degree():
    with pytest.raises(ValueError, match="negative q-degree -1"):
        QSeries(SPEC, 2, {-1: LaurentPoly.one(SPEC), 0: LaurentPoly.one(SPEC)})


def test_constructor_rejects_a_coefficient_from_another_ring():
    other = LaurentPoly.one(RingSpec.absolute(3))
    for d in (0, 5):
        with pytest.raises(SpecMismatchError):
            QSeries(SPEC, 2, {d: other})


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


# -- the loops the shared power sum replaced, kept as oracles ------------------
#
# Each is the former method body, on the former pairwise product, so the
# properties below compare the new code with loops that use neither
# ``_power_sum`` nor the one-pass product.  The pairwise product multiplies
# with ``test_ring_oracle``'s slot-dict arithmetic, not with the ring kernel,
# so a fault in the kernel cannot pass it.


def pairwise_mul(a, b):
    """The former ``QSeries.__mul__``: each pair of coefficients added in turn,
    each product and sum formed by the slot-dict ``poly_mul`` and ``poly_add``."""
    spec = a.spec
    out: dict[int, SlotPoly] = {d: {} for d in range(a.order + 1)}
    for i in range(a.order + 1):
        x = poly_slots(a.coefficient(i))
        if not x:
            continue
        for j in range(a.order - i + 1):
            y = poly_slots(b.coefficient(j))
            if y:
                out[i + j] = poly_add(spec, out[i + j], poly_mul(spec, x, y))
    return QSeries(spec, a.order, {d: slot_poly_value(spec, p) for d, p in out.items()})


def slot_poly_value(spec, p: SlotPoly) -> LaurentPoly:
    """The polynomial whose nonzero t-coefficients are the slot classes ``p``."""
    return LaurentPoly(spec, {
        e: CohClass(spec, {(k, mono): c for k, part in enumerate(cls) for mono, c in part.items()})
        for e, cls in p.items()
    })


def taylor_exp(f):
    """The former ``QSeries.exp``: term_k = term_{k-1} * f / k."""
    out = QSeries.one(f.spec, f.order)
    term = QSeries.one(f.spec, f.order)
    for k in range(1, f.order + 1):
        term = pairwise_mul(term, f) * Fraction(1, k)
        if term.is_zero():
            break
        out = out + term
    return out


def taylor_log(f):
    """The former ``QSeries.log``: sum_k (-1)^{k+1} u^k / k with u = f - 1."""
    u = f - QSeries.one(f.spec, f.order)
    out = QSeries.zero(f.spec, f.order)
    power = u
    for k in range(1, f.order + 1):
        if power.is_zero():
            break
        out = out + power * Fraction((-1) ** (k + 1), k)
        power = pairwise_mul(power, u)
    return out


def dense_substitute(p, inner):
    """The former ``QSeries.substitute``: sum_d c_d * q^d * growth^d, each power of
    growth = e^{inner} formed in full before it is shifted."""
    growth = taylor_exp(inner)
    out = QSeries(p.spec, p.order, {0: p.coefficient(0)})
    power = QSeries.one(p.spec, p.order)
    for d in range(1, p.order + 1):
        power = pairwise_mul(power, growth)
        out = out + power.shift(d).scale(p.coefficient(d))
    return out


ORACLE_SPECS = [SPEC, relative_ring(2, 2)]


def spec_id(spec):
    return f"n{spec.n}-cutoff{spec.base_cutoff}"


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_id)
@given(st.data())
def test_product_matches_the_pairwise_oracle(spec, data):
    p = data.draw(q_series(spec))
    q = data.draw(q_series(spec))
    assert p * q == pairwise_mul(p, q)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_id)
@given(st.data())
def test_exp_matches_the_taylor_oracle(spec, data):
    f = data.draw(q_series(spec, zero_constant=True))
    assert f.exp() == taylor_exp(f)


@pytest.mark.parametrize("order", range(1, 10))
def test_exp_makes_at_most_order_times_order_plus_one_over_two_products(order, monkeypatch):
    # The Taylor sum of the powers of f took O(order^3) products, 56 at order 7.
    spec = RingSpec.absolute(4)
    f = QSeries(spec, order, {
        j: LaurentPoly.linear(spec, j, Fraction(1, j)).shift_t(-1) for j in range(1, order + 1)
    })
    products = []
    convolve = rings._convolve

    def counting(*args):
        products.append(None)
        return convolve(*args)

    monkeypatch.setattr(rings, "_convolve", counting)
    exp = f.exp()
    assert len(products) <= order * (order + 1) // 2
    monkeypatch.undo()
    assert exp == taylor_exp(f)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_id)
@given(st.data())
def test_log_matches_the_taylor_oracle(spec, data):
    f = QSeries.one(spec, 4) + data.draw(q_series(spec, zero_constant=True))
    assert f.log() == taylor_log(f)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=spec_id)
@given(st.data())
def test_substitute_matches_the_dense_oracle(spec, data):
    p = data.draw(q_series(spec))
    inner = data.draw(q_series(spec, zero_constant=True))
    assert p.substitute(inner) == dense_substitute(p, inner)


def test_power_sum_stops_at_the_first_vanishing_power(monkeypatch):
    spec = RingSpec.absolute(3)
    h = CohClass.h_power(spec, 1)
    products = []
    multiply = CohClass.__mul__

    def counted(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(CohClass, "__mul__", counted)
    total, power = _power_sum(CohClass.one(spec), h, [1, 1, 2, 0, 5, 7])
    # x^1 is x itself; x^2, x^3 and x^4 = 0 take one product each, and the
    # coefficient 2 one more; 1 is not multiplied by, 0 is skipped, and
    # nothing after x^4 is formed.
    assert len(products) == 4
    assert power.is_zero()
    assert total == multiply(h, h) * 2 + h + CohClass.one(spec)
    products.clear()
    total, power = _power_sum(CohClass.one(spec), h, [1, 1])
    assert len(products) == 1
    assert total == h + CohClass.one(spec) and power == multiply(h, h)


def test_power_sum_skips_a_zero_polynomial_coefficient():
    q = scalar_series(3, {1: 1})
    coefficients = [LaurentPoly.zero(SPEC), LaurentPoly.single(SPEC, -1, 2)]
    total, power = _power_sum(QSeries.one(SPEC, 3), q, coefficients)
    assert total == scalar_series(3, {1: 1}).scale(LaurentPoly.single(SPEC, -1, 2))
    assert power == scalar_series(3, {2: 1})
