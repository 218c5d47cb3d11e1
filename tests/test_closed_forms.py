"""The closed-form products of phi against the linear-factor products they replaced.

The oracles below are the former numerator of phi and
``correlators.euler_class``: every linear form is built by
``LaurentPoly.linear`` and multiplied in one ring product at a time, and
each power (h + k*t)^p, ``LaurentPoly.linear_power`` in closed form, is p
repeated products.  They use no Stirling or
binomial coefficients, so the closed forms must agree with them exactly, in
absolute rings and through the h-rule of relative ones.  ``pn_one_point``
(tested in ``test_correlators``) stays the independent route for phi of P^n.

Negative powers (h + k*t)^{-p} and the inverse Euler classes built from them
are checked against ``LaurentPoly.inverse`` and against the Euler classes they
invert.

The one-pass builds of relative mode are checked against the ring-product
chains they replaced: the numerator's one form (each degree's
``_numerator_factor`` joined by ``_form_product``, the step of phi's prefix
chain) against each factor's closed form joined by ring products; ``linear_power_sum``
(behind the unit factors and ``relative_schubert_leading``) against the sum
of ``LaurentPoly.linear_power`` times each sigma_l, and one row of it (the
``t_exp`` that ``porteous_lines`` asks for) against the full sum's row, on
rows inside and outside its support; each inverse Euler factor, as
(h + k*t)^{-(n+1)} times its unit factor, against that sum; the chain of unit
factors ``correlators._unit`` against prod_{k<=e} (h+kt)^{n+1}, one
``linear_power`` product per degree, times the bundle's phi, and h^{n+1}
times each unit against the linear Calabi-Yau's ``relative_phi`` for every
n <= 4, cutoff <= 7 and degree <= 7; and the Schubert term against
``SchubertInput.evaluate`` times the bundle's degree-1 phi.  Each runs over the shared ``strategies.SPECS`` and random bundles with
n <= 4 and base cutoff <= 8.

The linear-CY recurrences are checked against the series algebra they
replaced: ``linear_cy_series`` against the multiplier (1 - q) * exp((s_1/t)
log(1 - q)) built by ``QSeries.log`` and ``QSeries.exp``, and
``derive_linear_cy_lambdas`` against the matching that multiplies the whole
series u(q), the full unit factors of the chain oracle, by exp(lambda_e q^e / t)
after each degree.  The per-model cached series coefficients behind
``linear_cy_series`` are also checked against the route they replaced, the
phi series times the multiplier series in one ``QSeries`` product per call,
with truncations requested in random order from cold caches; and
pushforwards d = 1..6 are counted to share them, each product of a cached
phi_e = h^{n+1} * u_e made once.

``fano_index1_correlator``, one pass over the cached phi's numerators, is
checked against the per-term route it replaced (``shift_t``, a ``Fraction``
scalar product per term, ``LaurentPoly.sum``) on every index-one model with
n <= 6 and d <= 4, and the cached Stirling rows behind ``_numerator_factor``
against prod_{k=0}^{D} (x + k) built one linear factor at a time, requested
in random order from a cold cache.

phi's chained form (``_phi_form``, each degree vector's form its prefix's
times one numerator factor) times the unit factor u_d is checked against the
route it replaced, the numerator oracle times the inverse Euler class: on P^n
``pn_one_point`` for every degree vector, in every order, with sum <= n + 1,
n <= 6 and d <= 4, and on random bundles ``euler_class`` inverted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwone import correlators, relative
from gwone.correlators import (
    _numerator_factor,
    _phi_form,
    _stirling_row,
    _unit,
    classify,
    degree_vectors,
    euler_class,
    fano_index1_correlator,
    linear_power_sum,
    phi,
    pn_one_point,
)
from gwone.laurent import LaurentPoly, _form_product
from gwone.relative import (
    RelativeModel,
    SchubertInput,
    _euler_sigma,
    derive_linear_cy_lambdas,
    linear_cy_model,
    linear_cy_pushforward,
    linear_cy_series,
    relative_euler,
    relative_phi,
    relative_ring,
    relative_schubert_leading,
)
from gwone.rings import CohClass, NotInvertibleError, RingSpec
from gwone.series import QSeries

from strategies import CANONICAL_SPECS, SPECS, coh_classes, fractions

# CANONICAL_SPECS holds absolute(0), (2) and (4); these fill in absolute n <= 6.
FORM_SPECS = [*CANONICAL_SPECS, *(RingSpec.absolute(n) for n in (1, 3, 5, 6))]

# The shared specs and random projective bundles, n <= 4 and base cutoff <= 8.
bundles = st.builds(RelativeModel, n=st.integers(1, 4), base_cutoff=st.integers(0, 8))
spec_or_bundle = st.one_of(st.sampled_from(SPECS), bundles.map(lambda bundle: bundle.spec))
# k = 0 (h alone), both signs and a larger |k|
ks = st.sampled_from([0, 1, -1, 2, -2, 5])


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


def numerator_form(spec: RingSpec, degrees: tuple[int, ...], d: int) -> LaurentPoly:
    """The numerator of phi from the factor forms phi's chain multiplies in
    (``_numerator_factor``), joined by ``_form_product`` cut at h^{n + cutoff}."""
    top = spec.n + spec.base_cutoff
    form = (0, [1], 1)
    for l in degrees:
        form = _form_product(form, _numerator_factor(l, d, top), top)
    return LaurentPoly._form(spec, *form)


def per_factor_numerator_oracle(spec: RingSpec, degrees: tuple[int, ...], d: int) -> LaurentPoly:
    """The former numerator of phi: each factor prod_{k=0}^{d*l} (l*h + k*t) one
    form from its Stirling row, the factors joined by ring products."""
    top = spec.n + spec.base_cutoff
    out = LaurentPoly.one(spec)
    for l in degrees:
        row = [1] + [0] * top
        for k in range(d * l + 1):
            row = [k * row[0]] + [k * row[j] + row[j - 1] for j in range(1, top + 1)]
        out = out * LaurentPoly._form(spec, d * l + 1, [c * l**j for j, c in enumerate(row)])
    return out


def linear_power_sum_oracle(spec, sigma, k, p, s=0) -> LaurentPoly:
    """sum_l h^s * (h + k*t)^{p-l} * sigma_l, one ``linear_power`` and ring products per l."""
    h_s = LaurentPoly.single(spec, 0, CohClass.h_power(spec, s))
    terms = [h_s * LaurentPoly.linear_power(spec, k, p)]
    for l, sigma_l in enumerate(sigma, start=1):
        if not sigma_l.is_zero():
            terms.append(h_s * LaurentPoly.linear_power(spec, k, p - l) * sigma_l)
    return LaurentPoly.sum(spec, terms)


def unit_factors_oracle(model: RelativeModel, order: int) -> list[LaurentPoly]:
    """The former ``_unit_factors``: prod_{k<=e} (h+kt)^{n+1} by one ``linear_power``
    product per degree, times the bundle's phi."""
    spec, bundle = model.spec, RelativeModel(model.n, base_cutoff=model.base_cutoff)
    absolute_part, values = LaurentPoly.one(spec), []
    for e in range(order + 1):
        if e:
            absolute_part = absolute_part * LaurentPoly.linear_power(spec, e, model.n + 1)
        values.append(absolute_part * relative_phi(bundle, e))
    return values


@given(spec_or_bundle, st.lists(st.integers(1, 4), max_size=3), st.integers(0, 3))
def test_numerator_matches_its_factors_joined_by_ring_products(spec, degrees, d):
    degrees = tuple(degrees)
    assert numerator_form(spec, degrees, d) == per_factor_numerator_oracle(spec, degrees, d)


@given(spec_or_bundle, ks, st.integers(-6, 6), st.data())
def test_linear_power_sum_matches_linear_powers_times_sigma(spec, k, p, data):
    # random classes sigma_1..sigma_r, zero ones among them, and shifts h^s up to 2n + 1
    size = data.draw(st.integers(0, 4), label="size")
    sigma = tuple(data.draw(coh_classes(spec, 3), label="sigma") for _ in range(size))
    s = data.draw(st.integers(0, 2 * spec.n + 1), label="s")
    try:
        expected = linear_power_sum_oracle(spec, sigma, k, p, s)
    except NotInvertibleError:
        with pytest.raises(NotInvertibleError, match="nilpotent"):
            linear_power_sum(spec, sigma, k, p, s)
    else:
        assert linear_power_sum(spec, sigma, k, p, s) == expected


@given(spec_or_bundle, ks, st.integers(-6, 6), st.data())
def test_one_row_of_linear_power_sum_is_the_full_sums_row(spec, k, p, data):
    # rows t^r over the sum's support t^{p-size-n-cutoff}..t^p and one row past
    # each end, where the row is zero
    size = data.draw(st.integers(0, 4), label="size")
    sigma = tuple(data.draw(coh_classes(spec, 3), label="sigma") for _ in range(size))
    s = data.draw(st.integers(0, 2 * spec.n + 1), label="s")
    r = data.draw(st.integers(p - size - spec.n - spec.base_cutoff - 1, p + 1), label="r")
    try:
        full = linear_power_sum(spec, sigma, k, p, s)
    except NotInvertibleError:
        with pytest.raises(NotInvertibleError, match="nilpotent"):
            linear_power_sum(spec, sigma, k, p, s, t_exp=r)
    else:
        row = linear_power_sum(spec, sigma, k, p, s, t_exp=r)
        assert row == LaurentPoly.single(spec, r, full.coefficient(r))


@given(bundles, ks)
def test_inverse_euler_factor_matches_linear_powers_times_sigma(bundle, k):
    # the factoring phi relies on: sum_l sigma_l * x^{-(n+1)-l} = x^{-(n+1)} * f_k,
    # with f_k = sum_l sigma_l * x^{-l} the unit factor and x = h + k*t
    spec, sigma, top = bundle.spec, _euler_sigma(bundle.n, bundle.base_cutoff), bundle.n + 1
    if not k:
        with pytest.raises(NotInvertibleError, match="nilpotent"):
            LaurentPoly.linear_power(spec, k, -top)
        return
    expected = linear_power_sum_oracle(spec, sigma, k, -top)
    assert LaurentPoly.linear_power(spec, k, -top) * linear_power_sum(spec, sigma, k, 0) == expected


@given(bundles, st.integers(0, 5))
def test_unit_factors_match_the_linear_power_products(bundle, order):
    # the whole chain of unit factors, every row, from cold caches
    correlators._unit.cache_clear()
    key = (bundle.n, bundle.base_cutoff)
    assert [_unit(key, e) for e in range(order + 1)] == unit_factors_oracle(bundle, order)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_h_power_times_the_unit_is_the_linear_cy_phi(n):
    # phi_e = h^{n+1} * u_e, against phi's numerator form times the inverse of
    # prod_k (h + k*t)^{n+1} times u_e, for every cutoff 0..7 and degree 0..7
    for cutoff in range(8):
        model = linear_cy_model(n, cutoff)
        top = CohClass.h_power(model.spec, n + 1)
        for e in range(8):
            assert _unit((n, cutoff), e) * top == relative_phi(model, e), (cutoff, e)


@st.composite
def schubert_inputs(draw, top: int):
    """Random symmetric polynomials in q_1, q_2 with exponents up to ``top``."""
    exponents = st.integers(0, top)
    pairs = st.tuples(exponents, exponents).map(lambda pair: tuple(sorted(pair)))
    halves = draw(st.dictionaries(pairs, fractions, max_size=4))
    return SchubertInput.from_monomials({**halves, **{(j, i): c for (i, j), c in halves.items()}})


@given(bundles, st.data())
def test_schubert_leading_matches_evaluate_times_the_inverse_euler_class(bundle, data):
    sigma = data.draw(schubert_inputs(bundle.n + 2), label="sigma")
    degrees = (1,) * data.draw(st.integers(0, 2))
    model = RelativeModel(bundle.n, degrees, base_cutoff=bundle.base_cutoff)
    expected = sigma.evaluate(bundle.spec) * relative_phi(bundle, 1)
    assert relative_schubert_leading(model, sigma) == expected


@given(st.sampled_from(FORM_SPECS), st.integers(1, 6), st.data())
def test_numerator_factor_matches_linear_products(spec, l, data):
    # one factor prod_{k=0}^{D} (l*h + k*t) for D = d*l in 0..24
    d = data.draw(st.integers(0, 24 // l), label="d")
    assert numerator_form(spec, (l,), d) == numerator_oracle(spec, (l,), d)


@given(st.sampled_from(FORM_SPECS), st.lists(st.integers(1, 6), max_size=3), st.integers(0, 3))
def test_numerator_matches_linear_products(spec, degrees, d):
    degrees = tuple(degrees)
    assert numerator_form(spec, degrees, d) == numerator_oracle(spec, degrees, d)


@given(st.sampled_from(FORM_SPECS), st.data(), st.integers(0, 4))
def test_euler_class_matches_repeated_products(spec, data, d):
    # random Chern tuples c_1..c_j, j <= n + 1, with zero classes among them
    size = data.draw(st.integers(0, spec.n + 1), label="size")
    chern = tuple(data.draw(coh_classes(spec, 2), label="c") for _ in range(size))
    assert euler_class(spec, chern, d) == euler_oracle(spec, chern, d)


@given(st.sampled_from(FORM_SPECS), st.integers(-4, 6), st.integers(0, 12))
def test_linear_power_matches_repeated_products(spec, k, p):
    # (h + k*t)^p, the power behind euler_class, the unit factors' oracle and SchubertInput
    expected = LaurentPoly.one(spec)
    for _ in range(p):
        expected = expected * LaurentPoly.linear(spec, 1, k)
    assert LaurentPoly.linear_power(spec, k, p) == expected


nonzero_k = st.integers(-4, 6).filter(bool)


@given(st.sampled_from(SPECS), nonzero_k, st.integers(0, 12))
def test_negative_linear_power_inverts_the_positive_one(spec, k, p):
    product = LaurentPoly.linear_power(spec, k, p) * LaurentPoly.linear_power(spec, k, -p)
    assert product == LaurentPoly.one(spec)


@given(st.sampled_from(SPECS), nonzero_k, st.integers(1, 6))
def test_negative_linear_power_is_a_power_of_the_inverse(spec, k, p):
    expected = LaurentPoly.linear(spec, 1, k).inverse() ** p
    assert LaurentPoly.linear_power(spec, k, -p) == expected


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_negative_power_of_h_alone_is_rejected(spec):
    assert LaurentPoly.linear_power(spec, 0, 2) == LaurentPoly.single(spec, 0, CohClass.h_power(spec, 2))
    with pytest.raises(NotInvertibleError, match="nilpotent"):
        LaurentPoly.linear_power(spec, 0, -1)


@given(st.integers(1, 4), st.integers(0, 8), st.integers(0, 4))
def test_section_free_relative_phi_inverts_the_euler_class(n, cutoff, d):
    # the chained closed-form factors, against the expanded Euler class itself
    bundle = RelativeModel(n=n, base_cutoff=cutoff)
    assert relative_phi(bundle, d) * relative_euler(bundle, d) == LaurentPoly.one(bundle.spec)


@pytest.mark.parametrize("spec", FORM_SPECS, ids=str)
def test_negative_degree_is_rejected(spec):
    # phi's chain raises before it makes a prefix or inverse Euler entry
    _phi_form.cache_clear()
    correlators._pn_inverse_euler.cache_clear()
    with pytest.raises(ValueError, match="degree must be >= 0"):
        _phi_form((spec.n, spec.n + spec.base_cutoff), (1, 2), -1)
    entries = _phi_form.cache_info().currsize + correlators._pn_inverse_euler.cache_info().currsize
    assert entries == 0
    with pytest.raises(ValueError, match="degree must be >= 0"):
        euler_class(spec, (), -1)


@pytest.mark.parametrize("n", range(1, 7))
def test_chained_phi_form_is_the_numerator_over_the_euler_class(n):
    # cold caches; every degree vector with sum <= n + 1 (Fano and Calabi-Yau), in
    # every order, so unsorted prefixes such as (2,) of (2, 1) are built too
    _phi_form.cache_clear()
    correlators._pn_inverse_euler.cache_clear()
    spec, key = RingSpec.absolute(n), (n, n)
    for sorted_degrees in degree_vectors(n + 1):
        for d in range(5):
            expected = numerator_oracle(spec, sorted_degrees, d) * pn_one_point(n, d)
            for degrees in sorted(set(permutations(sorted_degrees))):
                chained = LaurentPoly._form(spec, *_phi_form(key, degrees, d)) * _unit((n, 0), d)
                assert chained == expected, (degrees, d)


@given(bundles, st.lists(st.integers(1, 3), max_size=3), st.integers(0, 3))
def test_chained_bundle_phi_form_times_the_unit_inverts_the_euler_class(bundle, degrees, d):
    n, cutoff, spec = bundle.n, bundle.base_cutoff, bundle.spec
    chained = LaurentPoly._form(spec, *_phi_form((n, n + cutoff), tuple(degrees), d))
    expected = numerator_oracle(spec, tuple(degrees), d) * relative_euler(bundle, d).inverse()
    assert chained * _unit((n, cutoff), d) == expected


def test_absolute_ring_is_one_instance_per_n():
    for n in range(7):
        assert RingSpec.absolute(n) is RingSpec.absolute(n)
    assert classify(3, (3,)).spec is classify(3, ()).spec is RingSpec.absolute(3)
    assert RingSpec.absolute(3).basis is classify(3, (1, 1)).spec.basis


def linear_cy_series_oracle(model: RelativeModel, order: int) -> QSeries:
    """(sum_e q^e phi_e) * (1 - q) * exp((s_1/t) log(1 - q)), by series log and exp."""
    spec = model.spec
    phis = QSeries(spec, order, {e: relative_phi(model, e) for e in range(order + 1)})
    one_minus_q = QSeries.from_scalars(spec, order, {0: 1, 1: -1})
    s1_over_t = LaurentPoly.single(spec, -1, model.segre_class(1))
    return phis * (one_minus_q * one_minus_q.log().scale(s1_over_t).exp())


def derive_lambdas_oracle(model: RelativeModel, max_degree: int) -> list:
    """(a_e, b_e) read off the q^e row of u(q) * prod_{j<e} exp(lambda_j q^j / t),
    with the whole series multiplied by exp(lambda_e q^e / t) after each degree."""
    spec = model.spec
    known = QSeries(spec, max_degree, dict(enumerate(unit_factors_oracle(model, max_degree))))
    out = []
    for e in range(1, max_degree + 1):
        row = known.coefficient(e)
        a_e, b_e = -row.coefficient(0).scalar_part, -row.coefficient(-1)
        lam_over_t = LaurentPoly(spec, {0: CohClass.scalar(spec, a_e), -1: b_e})
        known = known * QSeries(spec, max_degree, {e: lam_over_t}).exp()
        out.append((a_e, b_e))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_linear_cy_recurrences_match_the_series_algebra(n):
    # cutoffs 0, 1, n + 1 (where sigma is the Segre series), 6 and 8; orders 0..7
    for cutoff in sorted({0, 1, n + 1, 6, 8}):
        model = linear_cy_model(n, cutoff)
        for order in range(8):
            assert linear_cy_series(model, order) == linear_cy_series_oracle(model, order)
            assert derive_linear_cy_lambdas(model, order) == derive_lambdas_oracle(model, order)


@lru_cache(maxsize=None)
def series_product_oracle(model: RelativeModel, order: int) -> QSeries:
    """The former ``linear_cy_series``: (sum_e q^e phi_e) times the multiplier series
    sum_k M_k q^k, M_k = M_{k-1} * (k - 2 - s_1/t)/k, in one ``QSeries`` product."""
    spec, s1 = model.spec, model.segre_class(1)
    multiplier = {0: LaurentPoly.one(spec)}
    for k in range(1, order + 1):
        step = {0: CohClass.scalar(spec, Fraction(k - 2, k)), -1: s1 * Fraction(-1, k)}
        multiplier[k] = multiplier[k - 1] * LaurentPoly(spec, step)
    phis = QSeries(spec, order, {e: relative_phi(model, e) for e in range(order + 1)})
    return phis * QSeries(spec, order, multiplier)


def clear_series_caches() -> None:
    relative._series_coefficient.cache_clear()
    relative._multiplier.cache_clear()
    relative._unit_phi.cache_clear()
    correlators._unit.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@given(st.permutations(range(8)))
def test_cached_series_matches_the_series_product_in_any_order(n, orders):
    # cold series caches, then truncations 0..7 in random order, so no value may
    # depend on which degree was asked for first
    clear_series_caches()
    for cutoff in sorted({0, 1, n + 1, 6}):
        model = linear_cy_model(n, cutoff)
        for order in orders:
            assert linear_cy_series(model, order) == series_product_oracle(model, order)


def test_pushforwards_share_the_series_coefficients(monkeypatch):
    # each phi_e * M_{k-e} once for k <= 6, phi_e = h^{n+1} * u_e the cached unit phi:
    # sum_{k<=6} (k + 1) = 28 products, where one series product per pushforward, over
    # relative_phi, makes sum_{d<=6} (d + 1)(d + 2)/2 = 83
    model = linear_cy_model(2, 6)
    relative_phi.cache_clear()
    clear_series_caches()
    series_product_oracle.cache_clear()
    left_operands = []
    mul = LaurentPoly.__mul__

    def recording_mul(self, other):
        left_operands.append(self)
        return mul(self, other)

    def products_of(phis) -> int:
        count = sum(any(x is p for p in phis) for x in left_operands)
        left_operands.clear()
        return count

    monkeypatch.setattr(LaurentPoly, "__mul__", recording_mul)
    for d in range(1, 7):
        linear_cy_pushforward(model, d)
    assert products_of([relative._unit_phi(model, e) for e in range(7)]) == 28
    for d in range(1, 7):
        series_product_oracle(model, d)
    assert products_of([relative_phi(model, e) for e in range(7)]) == 83


@pytest.mark.parametrize("n", [1, 2, 3])
def test_linear_cy_pushforward_does_not_depend_on_the_truncation(n):
    for cutoff in (0, n + 1, 6):
        model = linear_cy_model(n, cutoff)
        for d in range(1, 5):
            values = [linear_cy_pushforward(model, d, order) for order in (d, d + 1, d + 3)]
            assert values[0] == values[1] == values[2] == linear_cy_pushforward(model, d)


def index1_oracle(model, d: int) -> LaurentPoly:
    """The former ``fano_index1_correlator``: each term phi_{d-r} shifted by t^{-r}
    and times the ``Fraction`` (-prod l_i!)^r / r!, the terms added by ``LaurentPoly.sum``."""
    sign = -model.factorial_product
    terms = (phi(model, d - r).shift_t(-r) * Fraction(sign**r, factorial(r)) for r in range(d + 1))
    return LaurentPoly.sum(model.spec, terms)


INDEX_ONE_MODELS = [
    classify(n, degrees)
    for n in range(1, 7)
    for degrees in degree_vectors(n)
    if sum(degrees) == n
]


@pytest.mark.parametrize("model", INDEX_ONE_MODELS, ids=str)
def test_index1_correlator_matches_the_per_term_sum(model):
    for d in range(6):
        assert fano_index1_correlator(model, d) == index1_oracle(model, d)


def linear_factor_product(D: int, top: int) -> list[int]:
    """prod_{k=0}^{D} (x + k) cut at x^top, as a coefficient list of length top + 1,
    one linear factor [k, 1] multiplied in at a time."""
    out = [1] + [0] * top
    for k in range(D + 1):
        times_x = [0] + out[:top]
        out = [k * a + b for a, b in zip(out, times_x)]
    return out


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 10)), min_size=1, max_size=12))
def test_stirling_row_is_the_cut_linear_factor_product(requests):
    # a cold cache, then rows requested in random order, some twice
    _stirling_row.cache_clear()
    for D, top in requests + requests[::-1]:
        assert _stirling_row(D, top) == tuple(linear_factor_product(D, top))
