import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwone.laurent import LaurentPoly
from gwone.relative import relative_ring
from gwone.rings import Basis, CohClass, NotInvertibleError, RingSpec, SpecMismatchError

from strategies import (
    CANONICAL_SPECS,
    coh_classes,
    coh_triples,
    coh_units,
    coh_units_for,
    fractions,
    raw_terms,
    specs,
)

N4 = RingSpec.absolute(4)


def h(spec, k=1):
    return CohClass.h_power(spec, k)


def test_a_tail_builds_only_the_tails_it_reaches():
    # h^2 = -u*h over one base generator u of degree 1, so h^3 = -u*h^2 = u^2*h:
    # the normal form of h^3 reads that of u*h^2 and nothing else above h^1.
    spec = RingSpec.relative(1, (("u", 1),), 3, [(1, (1,), -1)])
    basis = spec.basis
    assert basis.tail(3 * basis.size) == {basis.size + basis.index[(2,)]: 1}
    assert len(basis._tails) == 2
    assert h(spec, 3) == CohClass(spec, {(1, (2,)): 1})
    assert len(basis._tails) == 2


def test_truncation_kills_h_top():
    assert (h(N4, 4) * h(N4)).is_zero()


def test_multiplicative_identity():
    c = CohClass(N4, {(2, ()): Fraction(7, 3), (0, ()): 1})
    assert CohClass.one(N4) * c == c


def test_geometric_series_is_inverse_of_one_plus_h():
    geometric = CohClass(N4, {(k, ()): Fraction((-1) ** k) for k in range(5)})
    one_plus_h = CohClass.one(N4) + h(N4)
    assert one_plus_h * geometric == CohClass.one(N4)
    assert one_plus_h.inverse() == geometric


def test_integrate_picks_top_h_coefficient():
    assert h(N4, 4).integrate() == 1
    assert h(N4, 3).integrate() == 0
    mixed = h(N4, 4) * 2875 + h(N4, 3) * 7
    assert mixed.integrate() == 2875


def test_integrate_relative_returns_base_class():
    from gwone.relative import relative_ring

    spec = relative_ring(2, 2)
    s1 = CohClass.generator(spec, 0)
    value = (s1 * h(spec, 2)).integrate()
    assert isinstance(value, CohClass)
    assert value == s1


def test_h_rule_rewrites_top_power():
    from gwone.relative import relative_ring

    spec = relative_ring(2, 2)
    s1 = CohClass.generator(spec, 0)
    s2 = CohClass.generator(spec, 1)
    # h^3 = -c_1 h^2 - c_2 h with c_1 = -s_1, c_2 = s_1^2 - s_2
    expected = s1 * h(spec, 2) + (s2 - s1 * s1) * h(spec)
    assert CohClass.h_power(spec, 3) == expected


def test_spec_mismatch_raises():
    a = CohClass.one(N4)
    b = CohClass.one(RingSpec.absolute(3))
    with pytest.raises(SpecMismatchError):
        a + b
    with pytest.raises(SpecMismatchError):
        a * b


def test_zero_coefficients_are_not_stored():
    c = CohClass(N4, {(1, ()): Fraction(0)})
    assert c.is_zero()
    assert (c - c).is_zero()


def test_non_unit_has_no_inverse():
    with pytest.raises(NotInvertibleError):
        h(N4).inverse()


@given(coh_triples())
def test_mul_commutative(triple):
    a, b, _ = triple
    assert a * b == b * a


@given(coh_triples())
def test_mul_associative(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@given(coh_triples())
def test_mul_distributive(triple):
    a, b, c = triple
    assert a * (b + c) == a * b + a * c


@given(coh_units())
def test_unit_inverse(unit):
    assert unit * unit.inverse() == CohClass.one(unit.spec)


@given(specs)
def test_scalar_arithmetic(spec):
    two = CohClass.scalar(spec, 2)
    assert 3 * two == CohClass.scalar(spec, 6)
    assert two * Fraction(1, 2) == CohClass.one(spec)
    assert (two - two).is_zero()
    assert (-two) + two == CohClass.zero(spec)


def test_str_rendering():
    c = h(N4) * Fraction(-770) + CohClass.scalar(N4, Fraction(1, 2))
    assert str(c) == "1/2 - 770*h"
    assert str(CohClass.zero(N4)) == "0"


# -- normal form --------------------------------------------------------------

UV = RingSpec.relative(2, (("u", 1), ("v", 2)), 3)


def assert_normal_form(value):
    """n+1 h-slots, stripped monomials, nonzero Fractions, degree <= cutoff."""
    spec = value.spec
    for k, mono, c in value.terms():
        assert 0 <= k <= spec.n
        assert not mono or mono[-1] != 0
        assert type(c) is Fraction and c != 0
        assert spec.mono_degree(mono) <= spec.base_cutoff


@given(st.data())
def test_every_result_is_in_normal_form(data):
    spec = data.draw(specs)
    a = data.draw(coh_classes(spec))
    b = data.draw(coh_classes(spec))
    c = data.draw(fractions)
    unit = data.draw(coh_units_for(spec))
    results = [
        a + b,
        a - b,
        -a,
        a * c,
        c * a,
        a * b,
        unit.inverse(),
        CohClass(spec, data.draw(raw_terms(spec))),
    ]
    for value in results:
        assert_normal_form(value)


def test_constructor_sums_monomials_that_strip_alike():
    value = CohClass(UV, {(0, (1, 0)): 1, (0, (1,)): 2})
    assert value == CohClass.generator(UV, 0) * 3


def test_constructor_drops_monomials_above_the_cutoff():
    assert CohClass(UV, {(0, (0, 2)): 1}).is_zero()


def test_constructor_rewrites_extra_h_slots():
    for spec in CANONICAL_SPECS:
        for k in range(spec.n + 1, 2 * spec.n + 2):
            assert CohClass(spec, {(k, ()): 1}) == CohClass.h_power(spec, 1) ** k


def test_constructor_rejects_a_negative_h_exponent():
    with pytest.raises(ValueError, match="negative h-exponent"):
        CohClass(N4, {(-1, ()): 1})


@pytest.mark.parametrize(
    "spec, mono",
    [(N4, (-1,)), (N4, (1,)), (N4, (0, 2)), (UV, (0, -1)), (UV, (1, 0, 1)), (UV, (-1, 1, 0))],
)
def test_malformed_monomials_are_rejected(spec, mono):
    with pytest.raises(ValueError, match=re.escape(repr(mono))):
        CohClass(spec, {(1, mono): 1})
    with pytest.raises(ValueError, match=re.escape(repr(mono))):
        CohClass.one(spec).coefficient(0, mono)


def test_trailing_zero_exponents_are_not_malformed():
    assert CohClass(N4, {(0, (0, 0)): 3}) == CohClass.scalar(N4, 3)
    assert CohClass(UV, {(0, (1, 0, 0)): 1}) == CohClass.generator(UV, 0)
    assert CohClass.generator(UV, 0).coefficient(0, (1, 0, 0)) == 1


@given(st.data())
def test_equal_but_distinct_specs_mix(data):
    spec = data.draw(specs)
    twin = RingSpec(spec.n, spec.base, spec.base_cutoff, spec.h_rule)
    assert twin == spec and twin is not spec
    terms_a, terms_b = data.draw(raw_terms(spec)), data.draw(raw_terms(spec))
    a, b = CohClass(spec, terms_a), CohClass(spec, terms_b)
    a2, b2 = CohClass(twin, terms_a), CohClass(twin, terms_b)
    assert a2 == a and b2 == b
    assert a + b2 == a2 + b == a + b
    assert a * b2 == a2 * b == a * b
    assert a2 - b == a - b


def test_h_rule_monomial_with_a_negative_exponent_is_rejected():
    with pytest.raises(ValueError, match="negative exponent"):
        RingSpec.relative(2, (("u", 1),), 3, [(0, (-1,), Fraction(1))])


def test_h_rule_that_is_not_degree_homogeneous_is_rejected():
    # h^3 = u/2 would leave 1 + h without an inverse: h^12 = 0, but not within
    # the n + base_cutoff + 1 = 6 powers the geometric series takes
    message = "h_rule term (0, (1,), 1/2) is not degree-homogeneous"
    with pytest.raises(ValueError, match=re.escape(message)):
        RingSpec.relative(2, (("u", 1),), 3, [(0, (1,), Fraction(1, 2))])


# -- kernel boundaries -----------------------------------------------------


@given(coh_classes(N4), coh_classes(N4))
def test_absolute_products_never_rewrite_through_the_h_rule(a, b):
    """With an empty h-rule every key >= top vanishes, so a product stops at the truncation."""
    calls = []
    original = Basis.tail

    def counted(self, key):
        calls.append(key)
        return original(self, key)

    p = LaurentPoly(N4, {0: a, 1: b, -1: a * b})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Basis, "tail", counted)
        a * b
        b * a
        a * a
        p * p
        p * a
        (h(N4, 2) * h(N4, 3)).is_zero()
    assert calls == []


@given(coh_classes(RingSpec.relative(2, (("u", 1),), 3, [(2, (1,), Fraction(1, 2))])))
def test_coefficients_leave_a_class_as_fractions(a):
    spec = a.spec
    values = [a.scalar_part, a.coefficient(1), a.coefficient(2, (1,)), a.coefficient(9)]
    values += [c for _, _, c in a.terms()]
    values += [c for _, _, c in (a.integrate() * 2).terms()]
    values += [CohClass.one(spec).scalar_part, CohClass.scalar(spec, 3).coefficient(0)]
    values += [(h(N4, 4) * 5).integrate(), CohClass.zero(N4).integrate(), h(N4).integrate()]
    assert all(type(c) is Fraction for c in values)


def test_integral_rule_products_build_no_fraction():
    """An integral h-rule keeps the kernel on ints: no Fraction between operands and result."""
    spec = relative_ring(2, 2)
    a = CohClass(spec, {(2, ()): Fraction(1, 3), (1, (1,)): 2, (0, (2,)): 5})
    b = CohClass(spec, {(2, (1,)): 7, (1, ()): Fraction(-1, 2)})
    expected = a * b
    calls = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", staticmethod(counted))
        product = a * b
        p = LaurentPoly.single(spec, 1, a)
        square = (p + LaurentPoly.single(spec, -1, b)) * p
        assert calls == []
        a.scalar_part  # the boundary does build one, so the count is live
    assert len(calls) == 1
    assert product == expected
    assert square.coefficient(2) == a * a
