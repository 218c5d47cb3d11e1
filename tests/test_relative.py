import re
from fractions import Fraction
from math import factorial

import pytest

import gwone
from gwone import correlators, relative
from gwone.correlators import classify, phi, pn_one_point
from gwone.laurent import LaurentPoly
from gwone.relative import (
    RelativeModel,
    SchubertInput,
    derive_linear_cy_lambdas,
    linear_cy_expected,
    linear_cy_lambda,
    linear_cy_model,
    linear_cy_pushforward,
    linear_cy_series,
    porteous_expected,
    porteous_lines,
    relative_euler,
    relative_phi,
    relative_ring,
    relative_schubert_leading,
)
from gwone.rings import CohClass, RingSpec
from gwone.series import QSeries

from test_closed_forms import numerator_oracle


def harmonic(d):
    return sum((Fraction(1, k) for k in range(1, d + 1)), Fraction(0))


def test_segre_chern_duality():
    model = RelativeModel(n=2, base_cutoff=4, degrees=())
    total_s = sum(
        (model.segre_class(k) for k in range(1, 5)), CohClass.one(model.spec)
    )
    total_c = sum(
        (model.chern_class(k) for k in range(1, 5)), CohClass.one(model.spec)
    )
    assert total_s * total_c == CohClass.one(model.spec)


def test_trivial_bundle_ring_is_absolute():
    assert relative_ring(3, 0) == RingSpec.absolute(3)


def test_relative_euler_trivial_bundle():
    model = RelativeModel(n=3, base_cutoff=0, degrees=())
    spec = model.spec
    expected = LaurentPoly.one(spec)
    for k in (1, 2):
        factor = LaurentPoly(
            spec, {0: CohClass.h_power(spec, 1), 1: CohClass.scalar(spec, k)}
        )
        expected = expected * factor**4
    assert relative_euler(model, 2) == expected


def test_relative_euler_homogeneity():
    model = RelativeModel(n=2, base_cutoff=3, degrees=())
    for d in (1, 2):
        assert relative_euler(model, d).is_homogeneous(d * (model.n + 1))


def test_relative_euler_degree_one_inverse_via_segre_expansion():
    model = RelativeModel(n=2, base_cutoff=3, degrees=())
    spec = model.spec
    h_plus_t = LaurentPoly(
        spec, {0: CohClass.h_power(spec, 1), 1: CohClass.one(spec)}
    )
    inv = h_plus_t.inverse()
    expansion = LaurentPoly.zero(spec)
    for k in range(model.base_cutoff + 1):
        expansion = expansion + inv**k * model.segre_class(k)
    assert relative_euler(model, 1).inverse() == inv ** (model.n + 1) * expansion


def test_relative_phi_trivial_bundle_matches_absolute():
    model = RelativeModel(n=4, base_cutoff=0, degrees=(2,))
    absolute = classify(4, (2,))
    for d in (0, 1, 2):
        assert relative_phi(model, d) == phi(absolute, d)
        assert phi(model, d) == relative_phi(model, d)


def test_phi_of_a_bundle_model_divides_by_the_bundle_euler_class():
    # P^n's Euler class would give a t^-3 coefficient of -2*h^2; the bundle's
    # gives h*s1 - 2*h^2, and phi and relative_phi are one function of the model
    model = RelativeModel(n=2, base_cutoff=3, degrees=(1,))
    spec = model.spec
    h, s1 = CohClass.h_power(spec, 1), model.segre_class(1)
    assert phi(model, 1).coefficient(-3) == h * s1 - h * h * 2
    for d in range(4):
        assert phi(model, d) == relative_phi(model, d)


def test_a_bundle_model_is_a_ci_model_with_a_keyword_only_cutoff():
    assert gwone.RelativeModel is gwone.CIModel is RelativeModel
    assert RelativeModel(n=3, base_cutoff=0, degrees=(2,)) == classify(3, (2,))
    # P^n is the bundle over a point: its ring is the one absolute instance
    for n in range(1, 5):
        assert relative_ring(n, 0) is RingSpec.absolute(n)
        assert RelativeModel(n=n, base_cutoff=0).spec is RingSpec.absolute(n)
    # a positional cutoff would be read as the degrees, so it fails loudly
    with pytest.raises(TypeError):
        RelativeModel(2, 3, (1, 1))
    with pytest.raises(TypeError):
        RelativeModel(2, 3)
    bundle = RelativeModel(n=2, base_cutoff=3, degrees=(1, 1))
    assert str(bundle) == "(1,1) in P^2-bundle (base cutoff 3)"


def test_a_bundle_model_from_a_list_of_degrees_is_the_model_from_the_tuple():
    from_list = RelativeModel(n=2, base_cutoff=3, degrees=[1, 1])
    from_tuple = RelativeModel(n=2, base_cutoff=3, degrees=(1, 1))
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert from_list.degrees == (1, 1)
    assert relative_phi(from_list, 1) == relative_phi(from_tuple, 1)
    with pytest.raises(ValueError, match="all degrees must be >= 1"):
        RelativeModel(n=2, base_cutoff=3, degrees=[1, 0])
    with pytest.raises(ValueError, match=r"degree 1\.5 is not an integer"):
        RelativeModel(n=2, base_cutoff=3, degrees=[1, 1.5])


@pytest.mark.parametrize(
    "model",
    [
        linear_cy_model(2, 4),
        RelativeModel(n=3, base_cutoff=6, degrees=(1,) * 4),
        RelativeModel(n=2, base_cutoff=3, degrees=(2,)),
        RelativeModel(n=2, base_cutoff=0, degrees=(1, 1)),
        RelativeModel(n=2, base_cutoff=3, degrees=()),
        # base_cutoff > n + 1: sigma_4 is not the Segre class s_4
        RelativeModel(n=2, base_cutoff=6, degrees=()),
        RelativeModel(n=3, base_cutoff=5, degrees=(2, 3)),
    ],
    ids=["linear-cy", "porteous", "quadric", "trivial-bundle", "section-free", "deep-base", "two-three"],
)
def test_relative_phi_matches_numerator_over_euler_inverse(model):
    # oracle: each model inverts its own Euler class, with no bundle sharing
    for d in range(7):
        numerator = numerator_oracle(model.spec, model.degrees, d)
        expected = numerator if d == 0 else numerator * relative_euler(model, d).inverse()
        assert relative_phi(model, d) == expected, d


def test_linear_cy_pipeline_inverts_each_euler_class_once(monkeypatch):
    # the bundle's Euler factors E_1..E_4 enter only through the unit factors
    # f_k = (h + k*t)^{n+1} / E_k, each built once in closed form and shared by both
    # routes: no Laurent inverse, no int list of prod_k (h + k*t)^{-(n+1)} and no phi
    model = linear_cy_model(2, 4)
    relative_phi.cache_clear()
    relative_euler.cache_clear()
    relative._series_coefficient.cache_clear()
    relative._multiplier.cache_clear()
    relative._unit_phi.cache_clear()
    phi.cache_clear()
    correlators._unit.cache_clear()
    correlators._pn_inverse_euler.cache_clear()
    inverses, unit_degrees = 0, []
    inverse, power_sum = LaurentPoly.inverse, correlators.linear_power_sum

    def counting_inverse(self):
        nonlocal inverses
        inverses += 1
        return inverse(self)

    def recording_power_sum(spec, sigma, k, p, *rest):
        unit_degrees.append(k)
        return power_sum(spec, sigma, k, p, *rest)

    monkeypatch.setattr(LaurentPoly, "inverse", counting_inverse)
    monkeypatch.setattr(correlators, "linear_power_sum", recording_power_sum)
    derive_linear_cy_lambdas(model, 4)
    linear_cy_series(model, 4)
    pn_inverse_lists = correlators._pn_inverse_euler.cache_info().currsize
    assert (inverses, pn_inverse_lists, sorted(unit_degrees)) == (0, 0, [1, 2, 3, 4])
    assert relative_phi.cache_info().currsize == phi.cache_info().currsize == 0


def test_cold_bundle_phi_calls_phi_once(monkeypatch):
    # phi is one body: a bundle's phi reads its int form and the unit chain, never
    # the phi of another model or of a lower degree
    original, calls = correlators.phi, []

    def counting_phi(model, d):
        calls.append((model, d))
        return original(model, d)

    monkeypatch.setattr(correlators, "phi", counting_phi)
    for bundle in (RelativeModel(n=3, base_cutoff=5, degrees=(2, 3)), RelativeModel(n=2, base_cutoff=4)):
        for cache in (original, correlators._phi_form, correlators._pn_inverse_euler, correlators._unit):
            cache.cache_clear()
        calls.clear()
        correlators.phi(bundle, 5)
        assert calls == [(bundle, 5)]


def test_section_free_phi_rejects_a_negative_degree():
    for model in (RelativeModel(n=2, base_cutoff=3), linear_cy_model(2, 3)):
        with pytest.raises(ValueError, match="degree must be >= 0"):
            relative_phi(model, -1)


def test_section_free_phi_chain_is_not_one_recursion_per_degree():
    # cold caches: the chains from degree d - 1 must not recurse d levels deep
    relative_phi.cache_clear()
    for cache in (phi, correlators._unit, correlators._pn_inverse_euler, correlators._phi_form):
        cache.cache_clear()
    bundle = RelativeModel(n=1, base_cutoff=1)
    top = relative_phi(bundle, 2000)
    assert top.t_max() == -4000
    assert top.coefficient(-4000) == CohClass.scalar(bundle.spec, Fraction(1, factorial(2000) ** 2))


def test_series_multiplier_chain_is_not_one_recursion_per_degree():
    # cold cache: with s_1^2 = 0, M_k = (-1)^k C(1 + s_1/t, k) is s_1 t^{-1} / (k(k-1)) for k >= 2
    relative._multiplier.cache_clear()
    model = linear_cy_model(1, 1)
    expected = LaurentPoly.single(model.spec, -1, model.segre_class(1) * Fraction(1, 2000 * 1999))
    assert relative._multiplier(model, 2000) == expected


def test_linear_cy_phi_rows():
    model = linear_cy_model(2, 3)
    spec = model.spec
    top = CohClass(spec, {(model.n + 1, ()): 1})
    s1 = model.segre_class(1)
    s2 = model.segre_class(2)
    h = CohClass.h_power(spec, 1)
    for d in (1, 2, 3):
        value = relative_phi(model, d)
        assert value.coefficient(0) == top
        assert value.coefficient(-1) == top * s1 * harmonic(d)
        pairs = sum(
            (
                Fraction(1, j * k)
                for j in range(1, d + 1)
                for k in range(j + 1, d + 1)
            ),
            Fraction(0),
        )
        squares = sum((Fraction(1, k * k) for k in range(1, d + 1)), Fraction(0))
        expected = top * (s1 * s1 * pairs + (s2 - s1 * h) * squares)
        assert value.coefficient(-2) == expected


def test_schubert_input_validates_symmetry():
    with pytest.raises(ValueError):
        SchubertInput.from_monomials({(1, 0): Fraction(1)})
    SchubertInput.from_monomials({(1, 0): Fraction(2), (0, 1): Fraction(2)})


def test_schubert_leading_with_unit_sigma():
    model = RelativeModel(n=2, base_cutoff=2, degrees=())
    sigma = SchubertInput.from_monomials({(0, 0): Fraction(1)})
    assert relative_schubert_leading(model, sigma) == relative_euler(model, 1).inverse()


def test_schubert_leading_trivial_bundle_matches_projective_space():
    model = RelativeModel(n=3, base_cutoff=0, degrees=())
    sigma = SchubertInput.from_monomials({(0, 0): Fraction(1)})
    assert relative_schubert_leading(model, sigma) == pn_one_point(3, 1)


def test_porteous_main_term_t_minus_2_row():
    n, m = 2, 3
    model = RelativeModel(n=n, base_cutoff=4, degrees=(1,) * m)
    spec = model.spec
    main = relative_schubert_leading(model, SchubertInput.product_power(m))
    h_m = CohClass.h_power(spec, m)
    h = CohClass.h_power(spec, 1)
    expected = h_m * (model.segre_class(m - n + 1) - model.segre_class(m - n) * h)
    assert main.coefficient(-2) == expected


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_porteous_lines_formula(n, m):
    model = RelativeModel(n=n, base_cutoff=4, degrees=(1,) * m)
    assert porteous_lines(model) == porteous_expected(model)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_porteous_lines_match_the_reference_on_a_grid(n):
    for cutoff in range(7):
        for m in range(1, n + 2):
            model = RelativeModel(n=n, base_cutoff=cutoff, degrees=(1,) * m)
            assert porteous_lines(model) == porteous_expected(model), (cutoff, m)


@pytest.mark.parametrize("cutoff", [4, 6, 8])
def test_porteous_on_a_p1_bundle_is_c2_to_the_m(cutoff):
    # the fiber is the only line: the locus is the zero locus of m sections of V^*,
    # c_2(V)^m, not the formula's s_2^2 - s_1*s_3, which needs c_3 = 0 at m = 2
    one = RelativeModel(n=1, base_cutoff=cutoff, degrees=(1,))
    two = RelativeModel(n=1, base_cutoff=cutoff, degrees=(1, 1))
    c2 = two.chern_class(2)
    assert str(c2) == "-s2 + s1^2"
    assert porteous_expected(one) == porteous_lines(one) == c2
    assert porteous_expected(two) == porteous_lines(two) == c2 * c2
    assert str(porteous_expected(two)) == "s2^2 - 2*s1^2*s2 + s1^4"
    s = two.segre_class
    assert porteous_expected(two) != s(2) * s(2) - s(1) * s(3)


def test_porteous_trivial_bundle_vanishes():
    model = RelativeModel(n=2, base_cutoff=0, degrees=(1, 1))
    assert porteous_lines(model).is_zero()


def test_porteous_rejects_bad_model():
    with pytest.raises(ValueError):
        porteous_lines(RelativeModel(n=2, base_cutoff=2, degrees=(2,)))
    with pytest.raises(ValueError):
        porteous_lines(RelativeModel(n=2, base_cutoff=2, degrees=(1,) * 4))


def test_linear_cy_lambda_closed_form():
    model = linear_cy_model(2, 2)
    for e in (1, 3, 5):
        a, b = linear_cy_lambda(model, e)
        assert a == Fraction(-1, e)
        assert b == model.segre_class(1) * Fraction(-1, e)


def test_linear_cy_a_series_is_log_one_minus_q():
    model = linear_cy_model(2, 2)
    spec = model.spec
    a_series = QSeries.from_scalars(
        spec, 5, {e: linear_cy_lambda(model, e)[0] for e in range(1, 6)}
    )
    one_minus_q = QSeries.from_scalars(spec, 5, {0: 1, 1: -1})
    assert a_series == one_minus_q.log()


def test_derive_linear_cy_lambdas_matches_closed_form():
    model = linear_cy_model(2, 3)
    derived = derive_linear_cy_lambdas(model, 4)
    for e, pair in enumerate(derived, start=1):
        assert pair == linear_cy_lambda(model, e)


def test_derive_rejects_non_linear_model():
    with pytest.raises(ValueError):
        derive_linear_cy_lambdas(RelativeModel(n=2, base_cutoff=2, degrees=(3,)), 2)


def test_derive_rejects_a_negative_max_degree():
    with pytest.raises(ValueError, match="max_degree must be >= 0"):
        derive_linear_cy_lambdas(linear_cy_model(2, 3), -1)
    assert derive_linear_cy_lambdas(linear_cy_model(2, 3), 0) == []


@pytest.mark.parametrize("wrong", [3, 4])
def test_derive_raises_when_the_closed_form_disagrees(monkeypatch, wrong):
    # the closed form is only the check: the rows read the derived lambdas, so a
    # closed form wrong from degree ``wrong`` on fails there and nowhere earlier
    model = linear_cy_model(2, 4)
    closed_form = relative.linear_cy_lambda

    def off_by_s1(model, e):
        a, b = closed_form(model, e)
        return (a, b + model.segre_class(1)) if e >= wrong else (a, b)

    monkeypatch.setattr(relative, "linear_cy_lambda", off_by_s1)
    with pytest.raises(ArithmeticError, match=f"derived lambda at degree {wrong} "):
        derive_linear_cy_lambdas(model, 5)


def test_linear_cy_series_rows_vanish():
    model = linear_cy_model(2, 3)
    series = linear_cy_series(model, 4)
    for d in range(1, 5):
        assert series.coefficient(d).coefficient(0).is_zero()
        assert series.coefficient(d).coefficient(-1).is_zero()


def test_linear_cy_pushforward_scaling():
    model = linear_cy_model(2, 5)
    base = linear_cy_pushforward(model, 1, 4)
    assert base == linear_cy_expected(model, 1)
    assert not base.is_zero()
    for d in (2, 3, 4):
        value = linear_cy_pushforward(model, d, 4)
        assert value == linear_cy_expected(model, d)
        assert value * Fraction(d * d) == base


def test_linear_cy_expected_truncates_to_zero_at_low_cutoff():
    model = linear_cy_model(2, 3)
    assert linear_cy_expected(model, 1).is_zero()
    assert linear_cy_pushforward(model, 1, 2).is_zero()


def test_linear_cy_pushforward_validates_arguments():
    model = linear_cy_model(2, 2)
    with pytest.raises(ValueError):
        linear_cy_pushforward(model, 0)
    with pytest.raises(ValueError):
        linear_cy_pushforward(model, 3, 2)


@pytest.mark.parametrize("bad", [2.5, 3.0, "3", Fraction(3)])
def test_bundle_dimensions_that_are_not_integers_are_rejected(bad):
    # before: the model was built and relative_phi failed later with an unrelated TypeError
    with pytest.raises(ValueError, match=re.escape(f"ambient dimension {bad!r} is not an integer")):
        RelativeModel(n=bad, base_cutoff=3)
    with pytest.raises(ValueError, match=re.escape(f"base cutoff {bad!r} is not an integer")):
        RelativeModel(n=2, base_cutoff=bad)
    coerced = RelativeModel(n=True, base_cutoff=False)
    assert (type(coerced.n), type(coerced.base_cutoff)) == (int, int)


def test_relative_model_validation():
    with pytest.raises(ValueError):
        RelativeModel(n=0, base_cutoff=2, degrees=())
    with pytest.raises(ValueError):
        RelativeModel(n=2, base_cutoff=-1, degrees=())
    with pytest.raises(ValueError):
        RelativeModel(n=2, base_cutoff=2, degrees=(0,))
