import copy
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwone.laurent import LaurentPoly, _form_product, _form_sum, _linear_power_list, _reduced
from gwone.laurent import _tooth_pass
from gwone.rings import CohClass, NotInvertibleError, RingSpec, SpecMismatchError

from strategies import (
    CANONICAL_SPECS,
    RELATIVE_N0,
    SPECS,
    coh_classes,
    coh_units,
    fractions,
    int_forms,
    laurent_polys,
    laurent_triples,
    laurent_units,
    raw_terms,
    strip_scalar,
)


def t_power(spec, exp, coeff=1):
    return LaurentPoly.single(spec, exp, coeff)


def h_class(spec, k=1):
    return CohClass.h_power(spec, k)


def test_invert_t():
    spec = RingSpec.absolute(2)
    t = t_power(spec, 1)
    assert t.inverse() == t_power(spec, -1)


def test_invert_h_plus_t_is_geometric_series():
    spec = RingSpec.absolute(3)
    p = LaurentPoly(spec, {0: h_class(spec), 1: CohClass.one(spec)})
    expected = LaurentPoly(
        spec,
        {-1 - k: h_class(spec, k) * Fraction((-1) ** k) for k in range(4)},
    )
    assert p.inverse() == expected
    assert p * expected == LaurentPoly.one(spec)


def test_invert_h_plus_2t():
    spec = RingSpec.absolute(1)
    p = LaurentPoly(spec, {0: h_class(spec), 1: CohClass.scalar(spec, 2)})
    expected = LaurentPoly(
        spec,
        {-1: CohClass.scalar(spec, Fraction(1, 2)), -2: h_class(spec) * Fraction(-1, 4)},
    )
    assert p.inverse() == expected


def test_invert_rejects_non_unit_leading_coefficient():
    spec = RingSpec.absolute(2)
    with pytest.raises(NotInvertibleError):
        LaurentPoly.single(spec, 0, h_class(spec)).inverse()
    with pytest.raises(NotInvertibleError):
        LaurentPoly.zero(spec).inverse()


def test_invert_rejects_non_nilpotent_lower_terms():
    spec = RingSpec.absolute(2)
    # 1*t + 1: the lower term has a scalar part, so the remainder never dies
    p = LaurentPoly(spec, {1: CohClass.one(spec), 0: CohClass.one(spec)})
    with pytest.raises(NotInvertibleError, match="lower-order terms are not nilpotent"):
        p.inverse()
    with pytest.raises(NotInvertibleError):
        geometric_inverse(p, LaurentPoly.single(spec, -1, 1))


@given(laurent_units())
def test_unit_times_inverse_is_one(unit):
    assert unit * unit.inverse() == LaurentPoly.one(unit.spec)


def geometric_inverse(value, seed):
    """The former ``_Value._inverse_from`` loop: (1 + x + x^2 + ...) * seed with
    x = 1 - value * seed, stopped at the first power of x that vanishes."""
    one = value.one(value.spec)
    x = one - value * seed
    acc, power = one, x
    for _ in range(value.spec.n + value.spec.base_cutoff + 1):
        if power.is_zero():
            break
        acc = acc + power
        power = power * x
    if not power.is_zero():
        raise NotInvertibleError("not nilpotent")
    return acc * seed


@given(coh_units())
def test_class_inverse_matches_the_geometric_oracle(unit):
    assert unit.inverse() == geometric_inverse(unit, 1 / unit.scalar_part)


@given(laurent_units())
def test_inverse_matches_the_geometric_oracle(unit):
    top = unit.t_max()
    lead = unit.coefficient(top)
    seed = LaurentPoly.single(unit.spec, -top, geometric_inverse(lead, 1 / lead.scalar_part))
    assert unit.inverse() == geometric_inverse(unit, seed)


@given(laurent_triples())
def test_ring_axioms(triple):
    p, q, r = triple
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_shift_and_coefficient():
    spec = RingSpec.absolute(2)
    p = LaurentPoly(spec, {0: h_class(spec), 3: CohClass.one(spec)})
    shifted = p.shift_t(-2)
    assert shifted.coefficient(-2) == h_class(spec)
    assert shifted.coefficient(1) == CohClass.one(spec)
    assert shifted.coefficient(5).is_zero()
    assert shifted.support() == [-2, 1] and shifted.t_max() == 1


@pytest.mark.parametrize("spec", CANONICAL_SPECS, ids=str)
@given(st.data())
def test_above_keeps_exactly_the_items_at_and_above_the_exponent(spec, data):
    p = data.draw(laurent_polys(spec, -4, 4, 5))
    e = data.draw(st.integers(-5, 5))
    assert list(p.above(e).items()) == [(x, c) for x, c in p.items() if x >= e]


@pytest.mark.parametrize("spec", CANONICAL_SPECS, ids=str)
def test_t_max_of_zero_is_a_clear_value_error(spec):
    with pytest.raises(ValueError, match="zero polynomial has no highest power of t"):
        LaurentPoly.zero(spec).t_max()
    assert LaurentPoly.single(spec, -3, 1).t_max() == -3


def test_class_plus_or_times_polynomial_is_a_polynomial():
    # With the class on the left, the polynomial's t-keys must not be read as basis
    # keys above h^n (which gives the class 2*h + h^7 for h + p).
    spec = RingSpec.absolute(3)
    h, p = h_class(spec), LaurentPoly.linear(spec, 1, 1)
    for left, right, text in ((h + p, p + h, "t + 2*h"), (h * p, p * h, "h*t + h^2")):
        assert type(left) is LaurentPoly and type(right) is LaurentPoly
        assert left == right and str(left) == text
    assert h - p == -(p - h) == LaurentPoly.single(spec, 1, -1)


@pytest.mark.parametrize("spec", CANONICAL_SPECS)
@given(st.data())
def test_mixed_class_and_polynomial_arithmetic_commutes(spec, data):
    a, p = data.draw(coh_classes(spec)), data.draw(laurent_polys(spec))
    for left, right in ((a + p, p + a), (a * p, p * a)):
        assert type(left) is LaurentPoly and type(right) is LaurentPoly
        assert left == right
        assert_canonical(left)
    assert a + p == LaurentPoly.single(spec, 0, a) + p
    assert a * p == LaurentPoly.single(spec, 0, a) * p


def test_homogeneity_check():
    spec = RingSpec.absolute(3)
    p = LaurentPoly(spec, {0: h_class(spec, 2), 1: h_class(spec)})
    assert p.is_homogeneous(2)
    assert not p.is_homogeneous(3)


def test_pow_matches_repeated_multiplication():
    spec = RingSpec.absolute(2)
    p = LaurentPoly(spec, {0: h_class(spec), 1: CohClass.one(spec)})
    assert p**3 == p * p * p
    assert p**0 == LaurentPoly.one(spec)


def test_str_rendering():
    spec = RingSpec.absolute(4)
    p = LaurentPoly(spec, {0: h_class(spec)})
    assert str(p) == "h"
    q = LaurentPoly(
        spec,
        {-2: h_class(spec, 3) * 2875, -3: h_class(spec, 4) * -5750},
    )
    assert str(q) == "2875*h^3*t^-2 - 5750*h^4*t^-3"


def assert_canonical(value: CohClass | LaurentPoly):
    """Int numerators by int key over one positive int denominator, in lowest terms.

    A polynomial's key is e*stride + key with a basis key below top; a
    class stores basis keys below top alone.  No stored numerator is zero,
    so zero is ({}, 1) and equal values store equal data.
    """
    num, den, basis = value._num, value._den, value.spec.basis
    assert type(den) is int and den > 0
    for c, v in num.items():
        assert type(c) is int and c % basis.stride < basis.top
        assert type(v) is int and v != 0
    if isinstance(value, CohClass):
        assert all(0 <= c < basis.top for c in num)
    assert gcd(den, *num.values()) == 1
    if not num:
        assert den == 1


scalars = st.one_of(fractions, st.integers(-3, 3))


@pytest.mark.parametrize("spec", CANONICAL_SPECS)
@given(st.data())
def test_every_operation_stores_canonical_numerators(spec, data):
    p, q = data.draw(laurent_polys(spec)), data.draw(laurent_polys(spec))
    a, b = data.draw(coh_classes(spec)), data.draw(coh_classes(spec))
    c, d, k = data.draw(scalars), data.draw(scalars), data.draw(st.integers(-3, 3))
    coh_unit = CohClass.scalar(spec, c or 1) + strip_scalar(b)
    unit = LaurentPoly.single(spec, k, coh_unit) + LaurentPoly.single(spec, k - 1, strip_scalar(a))
    linear = LaurentPoly.linear(spec, c, d)
    built = [
        CohClass(spec, data.draw(raw_terms(spec))),
        CohClass(spec, {(j, ()): d if j % 2 else c for j in range(2 * spec.n + 2)}),
        CohClass.h_power(spec, 2 * spec.n + 1),
        CohClass.scalar(spec, c),
        CohClass.zero(spec),
        CohClass.one(spec),
        *(CohClass.generator(spec, i) for i in range(len(spec.base))),
    ]
    classes = [a, b, a + b, a - b, -a, a * b, a * a, a * c, c * a, coh_unit.inverse(), *built]
    classes += [p.coefficient(e) for e in range(-5, 6)] + [cls for _, cls in p.items()]
    if spec.is_relative:
        classes.append(a.integrate())
    polys = [p, p + q, p - q, -p, p * q, p * p, p * a, p * c, c * p, p.shift_t(k)]
    polys += [unit, unit.inverse(), linear, linear * p, LaurentPoly.single(spec, k, a)]
    polys += [LaurentPoly.single(spec, k, c), LaurentPoly.zero(spec), LaurentPoly.one(spec)]
    polys += [LaurentPoly.sum(spec, [p, q, -p]), LaurentPoly.sum(spec, [p, -p]), p.above(k)]
    for value in classes + polys:
        assert_canonical(value)


@pytest.mark.parametrize("spec", CANONICAL_SPECS)
@given(h_coeff=scalars, t_coeff=scalars)
def test_linear_matches_the_general_constructor(spec, h_coeff, t_coeff):
    expected = LaurentPoly(
        spec,
        {0: CohClass(spec, {(1, ()): h_coeff}), 1: CohClass.scalar(spec, t_coeff)},
    )
    assert LaurentPoly.linear(spec, h_coeff, t_coeff) == expected


def test_linear_rewrites_h_when_n_is_zero():
    assert LaurentPoly.linear(RingSpec.absolute(0), 1, 2) == t_power(RingSpec.absolute(0), 1, 2)
    # h = 3u/2 there, so 2h = 3u.
    three_u = CohClass.generator(RELATIVE_N0, 0) * 3
    assert LaurentPoly.linear(RELATIVE_N0, 2, 0) == LaurentPoly.single(RELATIVE_N0, 0, three_u)


def _stored(polys):
    return [(copy.deepcopy(p._num), p._den) for p in polys]


@pytest.mark.parametrize("spec", SPECS)
@given(st.data())
def test_sum_matches_a_left_fold_of_add(spec, data):
    polys = data.draw(st.lists(laurent_polys(spec), max_size=6))
    zero = LaurentPoly.zero(spec)
    expected = reduce(add, polys, zero)
    if data.draw(st.booleans()):
        # the last summand cancels all the others
        polys.append(-expected)
        expected = zero
    before = _stored(polys)
    assert LaurentPoly.sum(spec, polys) == expected
    assert LaurentPoly.sum(spec, (p for p in polys)) == expected
    assert _stored(polys) == before


def test_sum_of_nothing_is_zero():
    spec = RingSpec.absolute(2)
    assert LaurentPoly.sum(spec, []) == LaurentPoly.zero(spec)
    assert LaurentPoly.sum(spec, iter(())) == LaurentPoly.zero(spec)


def test_sum_rescales_only_its_own_running_total():
    spec = RingSpec.absolute(3)
    # Denominators 2, 4, 3, 5: the running lcm grows at the third and fourth summand.
    polys = [
        LaurentPoly.single(spec, 0, Fraction(1, 2)),
        LaurentPoly.single(spec, 0, Fraction(1, 4)) + t_power(spec, -1, Fraction(3, 4)),
        LaurentPoly.single(spec, 1, h_class(spec) * Fraction(2, 3)),
        LaurentPoly.single(spec, 0, Fraction(-3, 4)) + t_power(spec, -1, Fraction(1, 5)),
    ]
    before = _stored(polys)
    total = LaurentPoly.sum(spec, iter(polys))
    assert total == reduce(add, polys)
    h_term = t_power(spec, 1, h_class(spec) * Fraction(2, 3))
    assert total == t_power(spec, -1, Fraction(19, 20)) + h_term
    assert _stored(polys) == before
    # A lone summand is copied, not shared, and cancelling summands store nothing.
    assert LaurentPoly.sum(spec, polys[1:2])._num is not polys[1]._num
    assert LaurentPoly.sum(spec, [polys[1], -polys[1]]).support() == []


def test_sum_rejects_a_summand_from_another_ring():
    p, q = t_power(RingSpec.absolute(2), 1), t_power(RingSpec.absolute(3), 1)
    with pytest.raises(SpecMismatchError):
        LaurentPoly.sum(RingSpec.absolute(2), [p, q])


# The int forms behind phi, the index-one sum and the mirror's comb form: each
# helper's result, built by ``LaurentPoly._form``, against ring arithmetic.


def form_oracle(spec, form):
    """sum_j c_j * h^j * t^{degree-j} / den, each power of h by ring products."""
    degree, coeffs, den = form
    h, out = h_class(spec), LaurentPoly.zero(spec)
    for j, c in enumerate(coeffs):
        out = out + LaurentPoly.single(spec, degree - j, h**j * Fraction(c, den))
    return out


def top(spec):
    """The highest power of h a form keeps: every higher one vanishes by degree."""
    return spec.n + spec.base_cutoff


@pytest.mark.parametrize("spec", CANONICAL_SPECS, ids=str)
@given(k=st.integers(-4, 4), p=st.integers(-4, 5))
def test_linear_power_form_is_the_ring_power(spec, k, p):
    if p < 0 and not k:
        with pytest.raises(NotInvertibleError):
            _linear_power_list(k, p, top(spec))
        return
    base = LaurentPoly.linear(spec, 1, k)
    expected = base**p if p >= 0 else base.inverse() ** -p
    degree, coeffs, den = form = _linear_power_list(k, p, top(spec))
    assert LaurentPoly._form(spec, *form) == expected
    assert degree == p and den > 0 and len(coeffs) <= top(spec) + 1


@pytest.mark.parametrize("spec", CANONICAL_SPECS, ids=str)
@given(st.data())
def test_form_product_is_the_ring_product(spec, data):
    a, b = data.draw(int_forms(top(spec))), data.draw(int_forms(top(spec)))
    product = _form_product(a, b, top(spec))
    assert LaurentPoly._form(spec, *product) == form_oracle(spec, a) * form_oracle(spec, b)
    assert len(product[1]) == min(len(a[1]) + len(b[1]) - 1, top(spec) + 1)


@pytest.mark.parametrize("spec", CANONICAL_SPECS, ids=str)
@given(st.data(), st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 12))
def test_tooth_pass_is_the_ring_product_with_the_tooth(spec, data, const, a, den):
    # A full list: the pass drops only h^(top+1), which vanishes by degree.
    form = data.draw(int_forms(top(spec), full=True))
    tooth = LaurentPoly.linear(spec, Fraction(a, den), Fraction(const, den)).shift_t(-1)
    product = _tooth_pass(form, (const, a, den))
    assert LaurentPoly._form(spec, *product) == form_oracle(spec, form) * tooth
    assert product[0] == form[0] and len(product[1]) == len(form[1])


@pytest.mark.parametrize("spec", CANONICAL_SPECS, ids=str)
@given(st.data(), st.integers(-3, 3))
def test_form_sum_is_the_ring_sum_of_its_weighted_terms(spec, data, degree):
    # Each term is read at ``degree``: f / t^(deg f - degree), as the index-one sum's
    # phi_{d-r} / t^r are.
    term = st.tuples(st.integers(-9, 9), int_forms(top(spec)), st.integers(1, 12))
    terms = data.draw(st.lists(term, min_size=1, max_size=5))
    expected = LaurentPoly.zero(spec)
    for w, f, s in terms:
        expected = expected + (form_oracle(spec, f) * Fraction(w, s)).shift_t(degree - f[0])
    total = _form_sum(degree, terms)
    assert LaurentPoly._form(spec, *total) == expected
    assert total[0] == degree and total[2] == lcm(*(f[2] * s for _, f, s in terms))


@pytest.mark.parametrize("spec", CANONICAL_SPECS, ids=str)
@given(st.data(), st.integers(1, 30))
def test_reduced_form_is_the_same_value_in_lowest_terms(spec, data, scale):
    form = data.draw(int_forms(top(spec)))
    scaled = form[0], [c * scale for c in form[1]], form[2] * scale
    degree, coeffs, den = reduced = _reduced(scaled)
    assert LaurentPoly._form(spec, *reduced) == form_oracle(spec, form)
    assert degree == form[0] and type(coeffs) is tuple and len(coeffs) == len(form[1])
    assert den > 0 and gcd(den, *coeffs) == 1
