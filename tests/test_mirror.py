from fractions import Fraction
from itertools import combinations, pairwise
from math import factorial

import pytest
from hypothesis import given, strategies as st

from gwone import calabi_yau, mirror as mirror_module, rings
from gwone.calabi_yau import _lambdas_and_correlators, enumerate_combs, solve_lambdas_up_to
from gwone.correlators import CIModel, ClassificationError, classify, phi
from gwone.laurent import LaurentPoly
from gwone.mirror import (
    corollary_transform,
    double_comb_series,
    mirror_coefficients,
    mirror_comb_correlator,
    verify_mirror_identity,
)
from gwone.rings import CohClass, RingSpec
from gwone.series import QSeries

from strategies import fractions

QUINTIC = classify(4, (5,))
SCALARS = RingSpec.absolute(0)


def test_mirror_coefficients_name_a_missing_lambda():
    from gwone.calabi_yau import LambdaForm

    with pytest.raises(ValueError, match="missing lambda for degree 2"):
        mirror_coefficients({1: LambdaForm(Fraction(1), Fraction(1))}, 3)


def test_a_negative_order_is_rejected():
    with pytest.raises(ValueError, match="truncation order must be >= 0"):
        mirror_coefficients({}, -1)
    with pytest.raises(ValueError, match="truncation order must be >= 0"):
        corollary_transform({}, {}, -1)
    with pytest.raises(ValueError, match="truncation order must be >= 0"):
        double_comb_series({}, {}, -1)
    with pytest.raises(ValueError, match="truncation order must be >= 0"):
        verify_mirror_identity(QUINTIC, -1)
    # The comb form reads phi_0's form first, so it checks the order before any work.
    data = mirror_coefficients(solve_lambdas_up_to(QUINTIC, 2))
    with pytest.raises(ValueError, match="truncation order must be >= 0"):
        mirror_comb_correlator(QUINTIC, -1, data)


def test_transform_degree_one_is_identity():
    x = {1: Fraction(3)}
    y = {1: Fraction(7, 2)}
    assert corollary_transform(x, y, 1) == {1: Fraction(7, 2)}


def test_transform_degree_two_formula():
    x = {1: Fraction(2), 2: Fraction(5)}
    y = {1: Fraction(3), 2: Fraction(11)}
    out = corollary_transform(x, y, 2)
    assert out[2] == y[2] + y[1] * x[1] / 2


def test_transform_kills_zero_y():
    x = {e: Fraction(e) for e in range(1, 5)}
    y = {e: Fraction(0) for e in range(1, 5)}
    assert all(v == 0 for v in corollary_transform(x, y, 4).values())


def test_transform_rejects_ring_valued_y():
    # The transform is linear in y, so a class-valued y transforms one component at a time.
    spec = RingSpec.absolute(3)
    x = {1: Fraction(2), 2: Fraction(1)}
    y = {1: CohClass.h_power(spec, 1), 2: CohClass.h_power(spec, 2)}
    with pytest.raises(TypeError):
        corollary_transform(x, y, 2)


def test_mirror_coefficients_quintic():
    lambdas = solve_lambdas_up_to(QUINTIC, 2)
    data = mirror_coefficients(lambdas)
    assert data.a[1] == Fraction(-770) and data.b[1] == Fraction(-120)
    assert data.a[2] == Fraction(-124925) and data.b[2] == Fraction(-13800)


def test_mirror_coefficients_of_zero_lambdas():
    from gwone.calabi_yau import LambdaForm

    zero = {e: LambdaForm(Fraction(0), Fraction(0)) for e in (1, 2, 3)}
    data = mirror_coefficients(zero)
    assert all(v == 0 for v in data.a.values())
    assert all(v == 0 for v in data.b.values())


def test_f_series_has_zero_constant_term():
    lambdas = solve_lambdas_up_to(QUINTIC, 2)
    data = mirror_coefficients(lambdas)
    assert data.f_series(QUINTIC.spec).coefficient(0).is_zero()
    assert data.g_series(QUINTIC.spec).coefficient(0).is_zero()


small_maps = st.fixed_dictionaries({e: fractions for e in range(1, 5)})


def test_double_comb_series_with_zero_y_is_one():
    x = {e: Fraction(1) for e in range(1, 5)}
    y = {e: Fraction(0) for e in range(1, 5)}
    assert double_comb_series(x, y, 4) == QSeries.one(SCALARS, 4)


@given(small_maps, small_maps, small_maps, fractions, fractions)
def test_log_of_double_comb_series_is_linear_in_y(x, y1, y2, c1, c2):
    order = 4
    mixed = {e: c1 * y1[e] + c2 * y2[e] for e in y1}
    lhs = double_comb_series(x, mixed, order).log()
    rhs = double_comb_series(x, y1, order).log() * c1 + double_comb_series(
        x, y2, order
    ).log() * c2
    assert lhs == rhs


def _chains(d):
    """Every chain 0 < d_1 < ... < d_r = d as (d_1, ..., d_r), by subset enumeration."""
    for k in range(d):
        for inner in combinations(range(1, d), k):
            yield inner + (d,)


def _brute_force_transform(x, y, d):
    total = Fraction(0)
    for chain in _chains(d):
        term = y[chain[0]] / factorial(len(chain))
        for prev, nxt in pairwise(chain):
            term *= x[nxt - prev] * prev
        total += term
    return total


def _brute_force_double_comb(x, y, d):
    total = Fraction(0)
    for chain in _chains(d):
        term = Fraction(1, factorial(len(chain)))
        for prev, nxt in pairwise((0,) + chain):
            term *= y[nxt - prev] + x[nxt - prev] * prev
        total += term
    return total


oracle_maps = st.fixed_dictionaries({e: fractions for e in range(1, 8)})


@given(oracle_maps, oracle_maps, st.integers(1, 7))
def test_chain_sums_match_brute_force(x, y, order):
    expected = {d: _brute_force_transform(x, y, d) for d in range(1, order + 1)}
    assert corollary_transform(x, y, order) == expected
    values = {d: _brute_force_double_comb(x, y, d) for d in range(1, order + 1)}
    expected_series = QSeries.from_scalars(SCALARS, order, {0: 1, **values})
    assert double_comb_series(x, y, order) == expected_series


class _CountingMap(dict):
    lookups = 0

    def __getitem__(self, key):
        _CountingMap.lookups += 1
        return super().__getitem__(key)


def test_chain_recursion_evaluates_each_weight_once():
    # one lookup per (delta, start) pair: sum_{q <= 10} q = 55, not one per comb tooth
    x = _CountingMap({e: Fraction(e, 3) for e in range(1, 11)})
    y = _CountingMap({e: Fraction(2, e) for e in range(1, 11)})
    _CountingMap.lookups = 0
    transformed = corollary_transform(x, y, 10)
    assert _CountingMap.lookups <= 55
    assert transformed[10] == _brute_force_transform(dict(x), dict(y), 10)


@given(small_maps, small_maps)
def test_transform_exponentiates_to_double_comb_series(x, y):
    order = 4
    transformed = corollary_transform(x, y, order)
    rebuilt = QSeries.from_scalars(SCALARS, order, transformed).exp()
    assert rebuilt == double_comb_series(x, y, order)


def test_mirror_comb_correlator_degree_zero():
    lambdas = solve_lambdas_up_to(QUINTIC, 1)
    data = mirror_coefficients(lambdas)
    assert mirror_comb_correlator(QUINTIC, 0, data).coefficient(0) == phi(QUINTIC, 0)


@pytest.mark.parametrize(
    "n, degrees",
    [(4, (5,)), (5, (3, 3)), (5, (2, 4)), (6, (2, 2, 3)), (7, (2, 2, 2, 2))],
    ids=["quintic", "3,3", "2,4", "2,2,3", "2,2,2,2"],
)
def test_mirror_comb_correlator_matches_per_comb_sum(n, degrees):
    # oracle: one product per comb, each tooth a_e * (d_1 + h/t) + b_e
    model = classify(n, degrees)
    spec = model.spec
    data = mirror_coefficients(solve_lambdas_up_to(model, 5))
    comb_form = mirror_comb_correlator(model, 5, data)
    for d in range(1, 6):
        brute = LaurentPoly.zero(spec)
        for ends in enumerate_combs(d):
            d1 = ends[0]
            term = phi(model, d1)
            for lo, hi in pairwise(ends):
                a, b = data.a[hi - lo], data.b[hi - lo]
                term = term * LaurentPoly.linear(spec, a, a * d1 + b).shift_t(-1)
            brute = brute + term * Fraction(1, factorial(len(ends) - 1))
        assert comb_form.coefficient(d) == brute, (degrees, d)


def test_mirror_verifier_runs_int_tooth_passes_and_no_ring_product_in_the_comb_form(
    monkeypatch,
):
    # Every chain sum is one calabi_yau._chain_sums call: one per transform and
    # one per start d_1 of the comb form.  A chain sum to q^N makes
    # sum_{q <= N} (1 + q(q-1)/2) = (N^3 + 5N)/6 tooth passes: 63 per transform
    # (N = 7) and 154 over the comb form's N = 7 - d_1.
    model = classify(5, (3, 3))
    calls, passes = [], []
    chain_sums, tooth_pass = mirror_module._chain_sums, calabi_yau._tooth_pass

    def counting_chain_sums(*args):
        calls.append(None)
        return chain_sums(*args)

    def counting_tooth_pass(*args):
        passes.append(None)
        return tooth_pass(*args)

    monkeypatch.setattr(mirror_module, "_chain_sums", counting_chain_sums)
    monkeypatch.setattr(calabi_yau, "_tooth_pass", counting_tooth_pass)
    report = verify_mirror_identity(model, 7)
    assert report.holds
    assert (len(calls), len(passes)) == (9, 2 * 63 + 154)
    # The comb form alone: no ring product and no phi.
    convolves = []
    convolve = rings._convolve

    def counting_convolve(*args):
        convolves.append(None)
        return convolve(*args)

    def refused(*args):
        raise AssertionError("the comb form called a ring-valued helper")

    monkeypatch.setattr(rings, "_convolve", counting_convolve)
    monkeypatch.setattr(mirror_module, "phi", refused)
    comb_form = mirror_comb_correlator(model, 7, report.mirror)
    assert convolves == [] and len(passes) == 2 * 63 + 2 * 154
    monkeypatch.undo()
    correlators = _lambdas_and_correlators(model, 7)[1]
    assert all(comb_form.coefficient(d) == correlators[d] for d in range(8))


@pytest.mark.parametrize(
    "model",
    [CIModel(4, (5,), base_cutoff=2), classify(4, (4,)), classify(4, (6,))],
    ids=["bundle", "fano", "general-type"],
)
def test_mirror_comb_correlator_rejects_a_model_that_is_not_calabi_yau(model, monkeypatch):
    # It once ran on a bundle through ring products and returned a series.
    data = mirror_coefficients(solve_lambdas_up_to(QUINTIC, 2))

    def no_work(*args):
        raise AssertionError("the comb form started")

    monkeypatch.setattr(mirror_module, "_phi_list", no_work)
    with pytest.raises(ClassificationError):
        mirror_comb_correlator(model, 2, data)


def test_verifying_a_solved_table_costs_no_more_products_than_the_verifier_alone(monkeypatch):
    # The solve empties the comb-term table when it returns, so the verifier
    # given its table builds each comb term once, degree by degree, as the
    # verifier's own solve-and-sum pipeline does.
    model = classify(5, (3, 3))
    assert verify_mirror_identity(model, 7).holds  # phi and the other caches warm
    calls = []
    convolve = rings._convolve

    def counting(*args):
        calls.append(None)
        return convolve(*args)

    monkeypatch.setattr(rings, "_convolve", counting)
    assert verify_mirror_identity(model, 7).holds
    alone = len(calls)
    lambdas = solve_lambdas_up_to(model, 7)
    assert calabi_yau._table.terms == {}
    del calls[:]
    assert verify_mirror_identity(model, 7, lambdas).holds
    assert len(calls) <= alone


def test_verifier_given_a_table_empties_the_comb_terms():
    # it held 247 terms for (3,3) to q^7; emptied on an error too (lambda_8 missing)
    model = classify(5, (3, 3))
    lambdas = solve_lambdas_up_to(model, 7)
    assert verify_mirror_identity(model, 7, lambdas).holds
    assert (calabi_yau._table.model, calabi_yau._table.terms) == (None, {})
    with pytest.raises(ValueError, match="missing lambda for tooth degree 8"):
        verify_mirror_identity(model, 8, lambdas)
    assert (calabi_yau._table.model, calabi_yau._table.terms) == (None, {})


def test_mirror_comb_correlator_names_both_orders_when_the_data_are_short():
    # before: a bare KeyError: 3
    data = mirror_coefficients(solve_lambdas_up_to(QUINTIC, 2), 2)
    with pytest.raises(ValueError, match=r"mirror data reach q\^2, below the requested order 3"):
        mirror_comb_correlator(QUINTIC, 3, data)


def test_mirror_identity_quintic_low_order():
    report = verify_mirror_identity(QUINTIC, 2)
    assert report.holds
    assert report.first_failing_degree is None


def test_mirror_identity_degree_zero_is_trivial():
    report = verify_mirror_identity(QUINTIC, 0)
    assert report.holds


def test_mirror_identity_other_threefolds():
    for degrees in ((3, 3), (2, 4)):
        report = verify_mirror_identity(classify(5, degrees), 2)
        assert report.holds, degrees


def test_mirror_identity_rejects_fano():
    with pytest.raises(ClassificationError):
        verify_mirror_identity(classify(4, (1, 1)), 2)


def test_mirror_comparison_is_sensitive():
    from gwone.calabi_yau import cy_correlator
    from gwone.mirror import MirrorData

    lambdas = solve_lambdas_up_to(QUINTIC, 2)
    data = mirror_coefficients(lambdas)
    broken = MirrorData(
        a=dict(data.a), b={**data.b, 2: data.b[2] + 1}, order=data.order
    )
    assert mirror_comb_correlator(QUINTIC, 2, broken).coefficient(2) != cy_correlator(
        QUINTIC, 2, lambdas
    )
