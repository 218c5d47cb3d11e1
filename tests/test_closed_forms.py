"""The closed-form products of phi against the linear-factor products they replaced.

The oracles below are the former ``correlators.phi_numerator`` and
``correlators.euler_class``: every linear form is built by
``LaurentPoly.linear`` and multiplied in one ring product at a time, and
each power (h + k*t)^p, ``LaurentPoly.linear_power`` in closed form, is p
repeated products.  They use no Stirling or
binomial coefficients, so the closed forms must agree with them exactly, in
absolute rings and through the h-rule of relative ones.  ``pn_one_point``
(tested in ``test_correlators``) stays the independent route for phi of P^n.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwone.correlators import classify, euler_class, phi_numerator
from gwone.laurent import LaurentPoly
from gwone.rings import RingSpec

from strategies import CANONICAL_SPECS, coh_classes

# CANONICAL_SPECS holds absolute(0), (2) and (4); these fill in absolute n <= 6.
FORM_SPECS = [*CANONICAL_SPECS, *(RingSpec.absolute(n) for n in (1, 3, 5, 6))]


def numerator_oracle(spec: RingSpec, degrees: tuple[int, ...], d: int) -> LaurentPoly:
    """prod_i prod_{k=0}^{d*l_i} (l_i*h + k*t), one linear factor per product."""
    out = LaurentPoly.one(spec)
    for l in degrees:
        for k in range(d * l + 1):
            out = out * LaurentPoly.linear(spec, l, k)
    return out


def euler_oracle(spec: RingSpec, chern, d: int) -> LaurentPoly:
    """prod_{k=1}^d sum_j c_j * (h + k*t)^{n+1-j}, each power by repeated products."""
    out, top = LaurentPoly.one(spec), spec.n + 1
    for k in range(1, d + 1):
        base, powers = LaurentPoly.linear(spec, 1, k), [LaurentPoly.one(spec)]
        for _ in range(top):
            powers.append(powers[-1] * base)
        factor = powers[top]
        for j, cj in enumerate(chern, start=1):
            if not cj.is_zero():
                factor = factor + powers[top - j] * cj
        out = out * factor
    return out


@given(st.sampled_from(FORM_SPECS), st.integers(1, 6), st.data())
def test_numerator_factor_matches_linear_products(spec, l, data):
    # one factor prod_{k=0}^{D} (l*h + k*t) for D = d*l in 0..24
    d = data.draw(st.integers(0, 24 // l), label="d")
    assert phi_numerator(spec, (l,), d) == numerator_oracle(spec, (l,), d)


@given(st.sampled_from(FORM_SPECS), st.lists(st.integers(1, 6), max_size=3), st.integers(0, 3))
def test_numerator_matches_linear_products(spec, degrees, d):
    degrees = tuple(degrees)
    assert phi_numerator(spec, degrees, d) == numerator_oracle(spec, degrees, d)


@given(st.sampled_from(FORM_SPECS), st.data(), st.integers(0, 4))
def test_euler_class_matches_repeated_products(spec, data, d):
    # random Chern tuples c_1..c_j, j <= n + 1, with zero classes among them
    size = data.draw(st.integers(0, spec.n + 1), label="size")
    chern = tuple(data.draw(coh_classes(spec, 2), label="c") for _ in range(size))
    assert euler_class(spec, chern, d) == euler_oracle(spec, chern, d)


@given(st.sampled_from(FORM_SPECS), st.integers(-4, 6), st.integers(0, 12))
def test_linear_power_matches_repeated_products(spec, k, p):
    # (h + k*t)^p, the power behind euler_class, relative._unit_factors and SchubertInput
    expected = LaurentPoly.one(spec)
    for _ in range(p):
        expected = expected * LaurentPoly.linear(spec, 1, k)
    assert LaurentPoly.linear_power(spec, k, p) == expected


@pytest.mark.parametrize("spec", FORM_SPECS, ids=str)
def test_negative_degree_is_rejected(spec):
    with pytest.raises(ValueError, match="degree must be >= 0"):
        phi_numerator(spec, (1, 2), -1)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        euler_class(spec, (), -1)


def test_absolute_ring_is_one_instance_per_n():
    for n in range(7):
        assert RingSpec.absolute(n) is RingSpec.absolute(n)
    assert classify(3, (3,)).spec is classify(3, ()).spec is RingSpec.absolute(3)
    assert RingSpec.absolute(3).basis is classify(3, (1, 1)).spec.basis
