import re
from fractions import Fraction
from math import comb, factorial

import pytest

from gwone import correlators, rings
from gwone.calabi_yau import correlator
from gwone.correlators import (
    CIModel,
    Classification,
    ClassificationError,
    classify,
    degree_vectors,
    fano_ge2_correlator,
    fano_index1_correlator,
    one_point_invariant,
    phi,
    pn_one_point,
)
from gwone.laurent import LaurentPoly
from gwone.rings import CohClass, RingSpec

from test_closed_forms import numerator_oracle

QUINTIC = classify(4, (5,))


def h_class(spec, k=1):
    return CohClass.h_power(spec, k)


def test_classification():
    assert QUINTIC.classification is Classification.CALABI_YAU
    assert classify(3, (3,)).classification is Classification.FANO_INDEX_ONE
    assert classify(4, (1, 1)).classification is Classification.FANO_INDEX_GE2
    assert classify(4, (6,)).classification is Classification.GENERAL_TYPE
    assert classify(3, ()).classification is Classification.FANO_INDEX_GE2


def test_classify_validates_input():
    with pytest.raises(ValueError):
        classify(0, (1,))
    with pytest.raises(ValueError):
        classify(3, (0,))


def test_the_model_constructor_rejects_p0():
    # before: CIModel(0, ()) built "P^0" while classify(0) raised
    for build in (lambda: CIModel(0, ()), lambda: CIModel(0), lambda: classify(0)):
        with pytest.raises(ValueError, match="ambient dimension must be >= 1"):
            build()
    with pytest.raises(ValueError, match="base cutoff must be >= 0"):
        CIModel(2, base_cutoff=-1)


@pytest.mark.parametrize(
    "correlator_of, degrees",
    [(fano_ge2_correlator, (2,)), (fano_index1_correlator, (4,))],
    ids=["index-ge2", "index-one"],
)
def test_the_fano_correlators_reject_a_bundle_model(correlator_of, degrees):
    bundle = CIModel(4, degrees, base_cutoff=2)
    with pytest.raises(ClassificationError, match="base cutoff 0"):
        correlator_of(bundle, 1)
    assert correlator_of(CIModel(4, degrees), 1) == correlator(classify(4, degrees), 1)


def test_a_model_from_a_list_of_degrees_is_the_model_from_the_tuple():
    from_list, from_tuple = CIModel(3, [1]), CIModel(3, (1,))
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert from_list.degrees == (1,)
    assert phi(from_list, 1) == phi(from_tuple, 1)
    assert classify(5, [2, 3]) == CIModel(5, (2, 3))


def test_model_validates_its_degrees():
    with pytest.raises(ValueError, match="all degrees must be >= 1"):
        CIModel(3, [0])
    with pytest.raises(ValueError, match="all degrees must be >= 1"):
        classify(3, [2, -1])


def test_a_positional_cutoff_is_rejected_with_a_message_naming_the_degrees():
    # before: CIModel(2, 3) raised "'int' object is not iterable"
    message = "degrees must be an iterable of integers, not 3; base_cutoff is keyword-only"
    with pytest.raises(TypeError, match=re.escape(message)):
        CIModel(2, 3)


@pytest.mark.parametrize("bad", [2.5, 2.0, "2", Fraction(2)])
def test_a_degree_that_is_not_an_integer_is_rejected(bad):
    message = f"degree {bad!r} is not an integer"
    for build in (lambda: classify(3, [bad]), lambda: CIModel(3, (1, bad))):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


@pytest.mark.parametrize("bad", [2.5, 2.0, "2", Fraction(2)])
def test_an_ambient_dimension_that_is_not_an_integer_is_rejected(bad):
    # before: the model was built and phi failed later with an unrelated TypeError
    message = f"ambient dimension {bad!r} is not an integer"
    for build in (lambda: classify(bad), lambda: classify(bad, (1,)), lambda: CIModel(bad, ())):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
    assert CIModel(True, ()).n == 1 and type(CIModel(True, ()).n) is int


def test_phi_degree_zero_is_class_of_target():
    spec = QUINTIC.spec
    assert phi(QUINTIC, 0) == LaurentPoly.single(spec, 0, h_class(spec) * 5)
    model = classify(5, (2, 3))
    assert phi(model, 0) == LaurentPoly.single(model.spec, 0, h_class(model.spec, 2) * 6)


def test_phi_hyperplane_in_p3():
    model = classify(3, (1,))
    spec = model.spec
    expected = LaurentPoly(
        spec,
        {
            -3: h_class(spec),
            -4: h_class(spec, 2) * -3,
            -5: h_class(spec, 3) * 6,
        },
    )
    assert phi(model, 1) == expected


def test_phi_quintic_top_row():
    value = phi(QUINTIC, 1)
    assert value.coefficient(0) == h_class(QUINTIC.spec) * 600
    assert value.t_max() == 0


def test_pn_one_point_p1():
    spec = RingSpec.absolute(1)
    expected = LaurentPoly(spec, {-2: CohClass.one(spec), -3: h_class(spec) * -2})
    assert pn_one_point(1, 1) == expected


def test_pn_one_point_matches_phi_with_no_degrees():
    for n in (1, 2, 3, 4):
        model = classify(n, ())
        for d in (1, 2):
            assert pn_one_point(n, d) == phi(model, d)


def test_pn_one_point_rejects_a_negative_degree():
    pn_one_point.cache_clear()
    with pytest.raises(ValueError, match="degree must be >= 0"):
        pn_one_point(3, -1)
    assert pn_one_point.cache_info().currsize == 0


def test_pn_one_point_p4_has_no_t_minus_2_term():
    assert pn_one_point(4, 1).coefficient(-2).is_zero()
    assert pn_one_point(4, 1).t_max() == -5


def test_fano_ge2_equals_phi():
    model = classify(5, (1, 2))
    assert fano_ge2_correlator(model, 2) == phi(model, 2)


def test_fano_ge2_two_hyperplanes_in_p4():
    # phi_1 simplifies to h^2 / (h+t)^3; expand by the binomial series
    model = classify(4, (1, 1))
    spec = model.spec
    expected = LaurentPoly.zero(spec)
    for j in range(3):
        coeff = Fraction((-1) ** j * comb(j + 2, 2))
        expected = expected + LaurentPoly.single(spec, -3 - j, h_class(spec, 2 + j) * coeff)
    assert fano_ge2_correlator(model, 1) == expected


def test_fano_ge2_rejects_other_classes():
    with pytest.raises(ClassificationError):
        fano_ge2_correlator(QUINTIC, 1)
    with pytest.raises(ClassificationError):
        fano_ge2_correlator(classify(3, (3,)), 1)


def test_index1_cubic_surface():
    model = classify(3, (3,))
    spec = model.spec
    correction = LaurentPoly.single(spec, -1, h_class(spec) * -18)
    assert fano_index1_correlator(model, 1) == phi(model, 1) + correction


def test_index1_two_quadrics_in_p4():
    model = classify(4, (2, 2))
    spec = model.spec
    correction = phi(model, 0).shift_t(-1) * -4
    assert fano_index1_correlator(model, 1) == phi(model, 1) + correction


def test_index1_degree_zero_is_phi_zero():
    model = classify(4, (2, 2))
    assert fano_index1_correlator(model, 0) == phi(model, 0)


def test_index1_rejects_a_negative_degree():
    for call in (fano_index1_correlator, correlator):
        with pytest.raises(ValueError, match="degree must be >= 0"):
            call(classify(3, (3,)), -1)


def test_index1_rejects_other_classes():
    with pytest.raises(ClassificationError):
        fano_index1_correlator(QUINTIC, 1)


@pytest.mark.parametrize(
    "n, degrees, b, lines",
    [(3, (3,), 1, 27), (4, (2, 2), 1, 16), (4, (4,), 2, 320)],
    ids=["cubic-surface", "two-quadrics-in-p4", "quartic-threefold"],
)
def test_cubic_surface_has_27_lines(n, degrees, b, lines):
    # the classical line counts of the index-one Fano sweep, as quoted in the README
    assert one_point_invariant(fano_index1_correlator(classify(n, degrees), 1), 0, b) == lines


def test_one_point_invariant_missing_exponent_is_zero():
    corr = fano_index1_correlator(classify(3, (3,)), 1)
    assert one_point_invariant(corr, 50, 0) == 0


def test_one_point_invariant_validates_exponents():
    corr = phi(classify(3, (1,)), 1)
    with pytest.raises(ValueError):
        one_point_invariant(corr, -1, 0)


def test_phi_is_homogeneous():
    for model in (classify(4, (1, 2)), classify(5, (2, 3)), classify(3, ())):
        for d in (1, 2, 3):
            assert phi(model, d).is_homogeneous(model.correlator_weight(d))


def test_fano_correlators_have_top_power_below_minus_one():
    for d in (1, 2, 3):
        assert fano_ge2_correlator(classify(4, (1, 1)), d).t_max() <= -2
        assert fano_index1_correlator(classify(3, (3,)), d).t_max() <= -2


def test_phi_divisible_by_h_to_the_m():
    model = classify(5, (2, 3))
    for _, cls in phi(model, 2).items():
        assert all(k >= model.m for k, _, _ in cls.terms())


@pytest.mark.parametrize("n", range(1, 7))
def test_phi_matches_numerator_over_euler_inverse(n):
    # oracle: every Fano and Calabi-Yau model inverts its own prod_k (h + k*t)^{n+1}
    spec = RingSpec.absolute(n)
    inverses = {}
    for d in range(1, 6):
        euler = LaurentPoly.one(spec)
        for k in range(1, d + 1):
            euler = euler * LaurentPoly.linear(spec, 1, k) ** (n + 1)
        inverses[d] = euler.inverse()
    for model in (classify(n, l) for l in degree_vectors(n + 1)):
        for d in range(6):
            numerator = numerator_oracle(spec, model.degrees, d)
            expected = numerator if d == 0 else numerator * inverses[d]
            assert phi(model, d) == expected, (model, d)


def _clear_phi_caches():
    for cache in (phi, correlators._phi_list, correlators._pn_inverse_euler, correlators._unit):
        cache.cache_clear()


def test_cached_phi_and_inverse_euler_forms_hold_tuples():
    # Both are lru_cache entries, so a list would let a caller change every later phi.
    _clear_phi_caches()
    for model in (QUINTIC, classify(3, ()), classify(3, (3,)), CIModel(2, (1,), base_cutoff=2)):
        for d in range(4):
            assert type(correlators._phi_list(model, d)[1]) is tuple, (model, d)
    for key in ((4, 4), (3, 3), (2, 4)):
        for d in range(1, 4):
            assert type(correlators._pn_inverse_euler(key, d)[1]) is tuple, (key, d)


def test_fano_phis_invert_each_euler_class_once(monkeypatch):
    # phi_1..phi_3 of all Fano models in P^1..P^6 share one inverse Euler class
    # per (n, d), each one chain step from the degree below, with no Laurent
    # inverse and no unit factor
    _clear_phi_caches()
    inverses = 0
    inverse = LaurentPoly.inverse

    def counting_inverse(self):
        nonlocal inverses
        inverses += 1
        return inverse(self)

    monkeypatch.setattr(LaurentPoly, "inverse", counting_inverse)
    for n in range(1, 7):
        for degrees in degree_vectors(n):
            for d in range(1, 4):
                phi(classify(n, degrees), d)
    steps = correlators._pn_inverse_euler.cache_info().misses
    units = correlators._unit.cache_info().misses
    assert (inverses, units, steps) == (0, 0, 18)


def test_absolute_phis_and_fano_correlators_make_no_ring_product(monkeypatch):
    # cold caches: phi on P^n and both Fano correlators are int coefficient lists
    # until one form is built at the end
    _clear_phi_caches()
    calls = []
    convolve = rings._convolve

    def counting(*args):
        calls.append(None)
        return convolve(*args)

    monkeypatch.setattr(rings, "_convolve", counting)
    for n in range(1, 7):
        for degrees in degree_vectors(n + 1):
            model = classify(n, degrees)
            for d in range(4):
                if model.classification is Classification.FANO_INDEX_GE2:
                    fano_ge2_correlator(model, d)
                elif model.classification is Classification.FANO_INDEX_ONE:
                    fano_index1_correlator(model, d)
                phi(model, d)
    assert calls == []


def test_phi_of_pn_chain_is_not_one_recursion_per_degree():
    # cold caches: the degree-d inverse Euler class is chained from degree d - 1,
    # which must not recurse d levels deep
    _clear_phi_caches()
    p1 = classify(1)
    top = phi(p1, 2000)
    assert top.t_max() == -4000
    assert top.coefficient(-4000).scalar_part == Fraction(1, factorial(2000) ** 2)
