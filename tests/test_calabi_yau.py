from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations, pairwise
from math import factorial, gcd
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from gwone import calabi_yau, rings
from gwone.calabi_yau import (
    LambdaForm,
    LambdaShapeError,
    aspinwall_morrison,
    correlator,
    cy_correlator,
    cy_term,
    enumerate_combs,
    lambda_readoff,
    quintic_report,
    solve_lambda,
    solve_lambdas_up_to,
    threefold_report,
)
from gwone.correlators import CIModel, ClassificationError, classify, one_point_invariant, phi
from gwone.laurent import LaurentPoly, _tooth_pass
from gwone.relative import RelativeModel
from gwone.rings import CohClass, RingSpec

from strategies import CANONICAL_SPECS, fractions

QUINTIC = classify(4, (5,))

QUINTIC_LAMBDAS = {
    1: LambdaForm(Fraction(-770), Fraction(-120)),
    2: LambdaForm(Fraction(-421375), Fraction(-60000)),
    3: LambdaForm(Fraction(-436236875), Fraction(-59937500)),
    # The degree-4 form the cancellation equations force; acceptance
    # criterion 2 tabulates the same value.
    4: LambdaForm(Fraction(-3470312415625, 6), Fraction(-78111025000)),
}

# A wrong lambda_4 that an earlier reference table carried: exactly
# prod(l_i) = 5 times the true form.  Kept as a checked counterexample.
OLD_TABULATED_LAMBDA_4 = LambdaForm(Fraction(-17351562078125, 6), Fraction(-390555125000))

# Candelas-de la Ossa-Green-Parkes (1991): quintic N_5.
CDGP_N5 = Fraction(229305888887625)


def _deltas(ends):
    return tuple(b - a for a, b in pairwise(ends))


def _definitional_term(model, ends, lambdas):
    """The oracle for cy_term: phi_{d_1} times each form at (h + d_i t, t) from
    left to right, then t^{-r} / r!."""
    spec = model.spec
    out = phi(model, ends[0])
    for position, nxt in pairwise(ends):
        lam = lambdas[nxt - position]
        out = out * LaurentPoly.linear(spec, lam.alpha, lam.alpha * position + lam.beta)
    r = len(ends) - 1
    if r:
        out = out.shift_t(-r) * Fraction(1, factorial(r))
    return out


def test_enumerate_combs_degree_one():
    assert enumerate_combs(1) == [(0, 1), (1,)]


def test_enumerate_combs_degree_two():
    assert set(enumerate_combs(2)) == {
        (2,),
        (0, 2),
        (1, 2),
        (0, 1, 2),
    }


def test_comb_count_is_two_to_the_d():
    assert len(enumerate_combs(5)) == 32


@pytest.mark.parametrize("d", range(1, 11))
def test_enumerate_combs_is_strictly_lexicographic(d):
    # The documented order of enumerate_combs: strictly lexicographic by endpoints.
    ends = enumerate_combs(d)
    assert len(ends) == 2**d
    assert all(a < b for a, b in pairwise(ends))
    assert all(e[-1] == d for e in ends)


@pytest.mark.parametrize(
    "n, degrees", [(4, (5,)), (5, (3, 3)), (5, (2, 4))], ids=["quintic", "3,3", "2,4"]
)
def test_cy_correlator_is_the_plain_comb_sum(n, degrees):
    model = classify(n, degrees)
    lambdas = solve_lambdas_up_to(model, 5)
    for d in range(1, 6):
        brute = LaurentPoly.zero(model.spec)
        for comb in enumerate_combs(d):
            brute = brute + _definitional_term(model, comb, lambdas)
        assert cy_correlator(model, d, lambdas) == brute, (degrees, d)


def test_cy_term_rejects_bad_endpoints_and_leaves_the_table_as_it_was():
    lambdas = _warm_quintic_table()
    table = calabi_yau._table
    stores = table.forms, table.terms, table.teeth
    held = table.model, *(dict(store) for store in stores)

    def assert_held():
        assert table.model is held[0]
        for store, now, before in zip(stores, (table.forms, table.terms, table.teeth), held[1:]):
            assert now is store and now.keys() == before.keys()
            assert all(now[key] is value for key, value in before.items())

    twin = CIModel(4, (5,))
    # Another model object and new form objects would empty the table, so
    # each call must raise before it gets that far.  Endpoints given as a
    # list once passed the checks and changed the table before the term
    # lookup raised "unhashable type"; degree 3 has no held form.
    for model, forms in ((QUINTIC, lambdas), (twin, _fresh_forms(lambdas))):
        for ends, error, message in (
            ((), ValueError, "starting at >= 0"),
            ((-1, 2), ValueError, "starting at >= 0"),
            ((2, 1), ValueError, "strictly increasing"),
            ((0, 0, 1), ValueError, "strictly increasing"),
            ([0, 2], TypeError, "must be a tuple"),
            ([0, 3], TypeError, "must be a tuple"),
            (range(3), TypeError, "must be a tuple"),
        ):
            with pytest.raises(error, match=message):
                cy_term(model, ends, forms)
            assert_held()
    # The tooth product is for P^n, so a bundle model raises before it empties the table.
    for ends in ((0, 1, 2), (2,)):
        with pytest.raises(ClassificationError, match="base cutoff 0"):
            cy_term(BUNDLE_CALABI_YAU, ends, lambdas)
        assert_held()


@settings(deadline=None)
@given(
    st.integers(1, 7),
    st.integers(-4, 4),
    st.data(),
    st.sampled_from(["free", "top", "geometric"]),
    st.one_of(st.just(Fraction(0)), fractions),
    fractions,
    st.integers(0, 9),
    st.integers(1, 9),
)
def test_the_tooth_product_equals_the_ring_product(
    n, degree, data, shape, alpha, beta, position, count
):
    # The ring product with the tooth as a polynomial, the route comb terms
    # took before their one int pass, is the oracle.
    spec = RingSpec.absolute(n)
    form = LambdaForm(alpha, beta)
    const, a, _ = form._tooth_ints(position, count)
    coeffs = data.draw(st.lists(st.integers(-60, 60), min_size=n + 1, max_size=n + 1))
    if shape == "top":
        # c * h^n * t^(degree - n): only the const part survives the cut at h^n,
        # so a tooth with a*position + b = 0 cancels the product to zero.
        coeffs = [0] * n + [coeffs[-1] or 1]
        if data.draw(st.booleans()):
            form = LambdaForm(alpha, -alpha * position)
            const, a, _ = form._tooth_ints(position, count)
    elif shape == "geometric" and const:
        # c_j = (-a)^j * const^(n-j): every coefficient but the first cancels.
        coeffs = [(-a) ** j * const ** (n - j) for j in range(n + 1)]
    prefix = LaurentPoly._form(spec, degree, coeffs, data.draw(st.integers(1, 40)))
    tooth = form.tooth(spec, position, count)
    product = calabi_yau._times_tooth(prefix, form._tooth_ints(position, count))
    assert product == prefix * tooth
    assert 0 not in product._num.values()
    assert product._den > 0 and gcd(product._den, *product._num.values()) == 1
    if shape == "top" and not const:
        assert product.is_zero() and product._den == 1
    if shape == "geometric" and const and a:
        assert set(product._num) == {degree * spec.basis.stride}


tooth_ints = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 12))


@given(st.integers(1, 6), st.data())
def test_chain_sums_equal_the_brute_force_sum_over_every_chain(order, data):
    # Oracle: every chain 0 < d_1 < ... < d_r = q by subset enumeration, its
    # product one _tooth_pass per tooth, summed coefficient by coefficient.
    # Seeds of every length, and teeth that depend on both delta and start.
    length = data.draw(st.integers(1, 6))
    coeffs = data.draw(st.lists(st.integers(-60, 60), min_size=length, max_size=length))
    seed = (data.draw(st.integers(-3, 3)), coeffs, data.draw(st.integers(1, 40)))
    pairs = [(q - p, p) for q in range(1, order + 1) for p in range(q)]
    drawn = data.draw(st.lists(tooth_ints, min_size=len(pairs), max_size=len(pairs)))
    teeth = dict(zip(pairs, drawn))
    calls = []

    def tooth(delta, start):
        calls.append((delta, start))
        return teeth[delta, start]

    sums = calabi_yau._chain_sums(order, seed, tooth)
    assert sorted(calls) == sorted(pairs)
    for q in range(1, order + 1):
        expected = [Fraction(0)] * length
        for k in range(q):
            for inner in combinations(range(1, q), k):
                form = seed
                for start, end in pairwise((0,) + inner + (q,)):
                    form = _tooth_pass(form, teeth[end - start, start])
                for j, c in enumerate(form[1]):
                    expected[j] += Fraction(c, form[2] * factorial(k + 1))
        degree, total, den = sums[q]
        assert degree == seed[0] and [Fraction(c, den) for c in total] == expected


def test_cy_term_toothless_comb_is_phi():
    assert cy_term(QUINTIC, (3,), {}) == phi(QUINTIC, 3)


def test_cy_term_simple_comb():
    lam = QUINTIC_LAMBDAS[2]
    term = cy_term(QUINTIC, (0, 2), {2: lam})
    assert term == phi(QUINTIC, 0) * lam.tooth(QUINTIC.spec, 0, 1)
    assert term == _definitional_term(QUINTIC, (0, 2), {2: lam})


def test_cy_term_two_teeth_explicit_product():
    spec = QUINTIC.spec
    lam = {1: QUINTIC_LAMBDAS[1]}
    term = cy_term(QUINTIC, (0, 1, 2), lam)
    first = LaurentPoly(
        spec,
        {0: CohClass.h_power(spec, 1) * -770, 1: CohClass.scalar(spec, -120)},
    )
    second = LaurentPoly(
        spec,
        {0: CohClass.h_power(spec, 1) * -770, 1: CohClass.scalar(spec, -890)},
    )
    expected = (phi(QUINTIC, 0) * first * second).shift_t(-2) * Fraction(1, 2)
    assert term == expected


def test_tooth_forms_leave_the_lambda_value_alone():
    spec = QUINTIC.spec
    alpha, beta = Fraction(-3470312415625, 6), Fraction(-78111025000)
    lam = LambdaForm(alpha, beta)
    fresh = LambdaForm(alpha, beta)
    for position in range(5):
        for count in range(1, 5):
            expected = LaurentPoly.linear(
                spec, alpha / count, (alpha * position + beta) / count
            ).shift_t(-1)
            assert lam.tooth(spec, position, count) == expected
    assert lam.tooth(classify(5, (3, 3)).spec, 3, 2) != lam.tooth(spec, 3, 2)
    # A form that built teeth equals, hashes and prints as one that did not.
    assert lam == fresh and hash(lam) == hash(fresh)
    assert repr(lam) == repr(fresh) == f"LambdaForm(alpha={alpha!r}, beta={beta!r})"
    assert str(lam) == str(fresh)
    assert {1: lam} == {1: fresh}
    assert lam != LambdaForm(alpha, beta + 1)


def test_the_table_builds_each_tooth_once_while_its_forms_are_held(monkeypatch):
    solved, perturbed = ORACLE_TABLES[QUINTIC][0], ORACLE_TABLES[QUINTIC][1]
    built = []
    tooth = LambdaForm._tooth_ints

    def counting(self, position, count):
        built.append((self, position, count))
        return tooth(self, position, count)

    monkeypatch.setattr(LambdaForm, "_tooth_ints", counting)
    table = calabi_yau._table
    table.clear()
    # (0, 2, 3) and (1, 2, 3) end in the same tooth: Delta 1 at position 2,
    # the second tooth of each.
    cy_term(QUINTIC, (0, 2, 3), solved)
    shared = table.teeth[1, 2, 2]
    cy_term(QUINTIC, (1, 2, 3), solved)
    assert set(table.teeth) == {(2, 0, 1), (1, 2, 2), (1, 1, 1)}
    assert table.teeth[1, 2, 2] is shared and len(built) == 3
    # A term is built before its prefix's term, so its tooth comes first.
    assert built == [(solved[1], 2, 2), (solved[2], 0, 1), (solved[1], 1, 1)]
    assert shared == tooth(solved[1], 2, 2)
    # A replaced form empties the teeth with the terms.
    cy_term(QUINTIC, (0, 2, 3), perturbed)
    assert set(table.teeth) == {(2, 0, 1), (1, 2, 2)}
    assert table.teeth[1, 2, 2] == tooth(perturbed[1], 2, 2) != shared
    # So does a new model, with its own forms.
    other = ORACLE_MODELS[1]
    lambdas = ORACLE_TABLES[other][0]
    cy_term(other, (1, 4), lambdas)
    assert table.teeth == {(3, 1, 1): tooth(lambdas[3], 1, 1)}
    assert cy_term(other, (1, 4), lambdas) == _definitional_term(other, (1, 4), lambdas)


ORACLE_DEGREE = 5
ORACLE_MODELS = (QUINTIC, classify(5, (3, 3)))


def _oracle_tables(model):
    """The solved table and, per degree, a copy with that one form perturbed."""
    solved = solve_lambdas_up_to(model, ORACLE_DEGREE)
    perturbed = [
        {**solved, e: LambdaForm(solved[e].alpha + 1, solved[e].beta - e)}
        for e in range(1, ORACLE_DEGREE + 1)
    ]
    return [solved, *perturbed]


ORACLE_TABLES = {model: _oracle_tables(model) for model in ORACLE_MODELS}

combs = st.integers(1, ORACLE_DEGREE).flatmap(
    lambda d: st.sets(st.integers(0, d - 1)).map(lambda s: (*sorted(s), d))
)
term_calls = st.tuples(
    st.sampled_from(ORACLE_MODELS), st.integers(0, ORACLE_DEGREE), combs
)


def _prefixes_with_teeth(ends):
    return {ends[:k] for k in range(2, len(ends) + 1)}


@settings(deadline=None)
@given(st.lists(term_calls, min_size=1, max_size=8))
def test_cy_term_equals_the_definitional_product_in_any_order(calls):
    # Models, tables and combs interleave in no particular order, so a stale
    # term from another model or table would show as a wrong term.
    calabi_yau._table.clear()
    for model, table, comb in calls:
        lambdas = ORACLE_TABLES[model][table]
        held_model, held_forms = calabi_yau._table.model, dict(calabi_yau._table.forms)
        held_ends = set(calabi_yau._table.terms)
        changed = held_model is not model or any(
            held_forms.get(e, lambdas[e]) is not lambdas[e] for e in _deltas(comb)
        )
        assert cy_term(model, comb, lambdas) == _definitional_term(model, comb, lambdas)
        # A changed model or form empties the table; otherwise it only grows.
        ends = set(calabi_yau._table.terms)
        assert ends == _prefixes_with_teeth(comb) | (set() if changed else held_ends)
        assert calabi_yau._table.model is model
        assert all(calabi_yau._table.forms[e] is lambdas[e] for e in _deltas(comb))


def test_threads_keep_their_own_tables():
    quintic, other = ORACLE_MODELS
    comb = (0, 1, 3)
    solved, perturbed = ORACLE_TABLES[quintic][0], ORACLE_TABLES[quintic][2]
    calabi_yau._table.clear()
    cy_term(quintic, comb, solved)
    my_forms, my_terms = dict(calabi_yau._table.forms), dict(calabi_yau._table.terms)

    def in_thread():
        table = calabi_yau._table
        fresh = table.model, dict(table.forms), dict(table.terms), dict(table.teeth)
        cy_term(other, (0, 2), ORACLE_TABLES[other][0])
        return fresh, table.model, set(table.terms)

    with ThreadPoolExecutor(max_workers=1) as pool:
        fresh, thread_model, thread_ends = pool.submit(in_thread).result()
    # A new thread starts with its own empty table and does not see or
    # replace this one's.
    assert fresh == (None, {}, {}, {})
    assert thread_model is other and thread_ends == {(0, 2)}
    assert calabi_yau._table.model is quintic
    assert calabi_yau._table.forms == my_forms and calabi_yau._table.terms == my_terms
    assert all(calabi_yau._table.terms[ends] is term for ends, term in my_terms.items())
    # The held terms serve their own forms only.
    assert cy_term(quintic, comb, perturbed) == _definitional_term(quintic, comb, perturbed)
    assert cy_term(quintic, comb, solved) == _definitional_term(quintic, comb, solved)


def test_failed_cy_term_leaves_the_table_intact():
    lambdas = ORACLE_TABLES[QUINTIC][0]
    calabi_yau._table.clear()
    cy_term(QUINTIC, (0, 1, 3, 4), lambdas)
    forms, terms = dict(calabi_yau._table.forms), dict(calabi_yau._table.terms)
    # The comb has no lambda for its tooth of degree 3, and its lambda_1 is
    # another object than the held one: the missing lambda raises before
    # the changed form could empty the table.
    with pytest.raises(ValueError, match="missing lambda for tooth degree 3"):
        cy_term(QUINTIC, (0, 1, 4), {1: LambdaForm(lambdas[1].alpha, lambdas[1].beta)})
    assert calabi_yau._table.model is QUINTIC
    assert calabi_yau._table.forms == forms
    assert all(calabi_yau._table.forms[e] is form for e, form in forms.items())
    assert calabi_yau._table.terms == terms
    assert all(calabi_yau._table.terms[ends] is term for ends, term in terms.items())
    for comb in ((0, 1, 3, 4), (0, 1, 2, 4)):
        assert cy_term(QUINTIC, comb, lambdas) == _definitional_term(QUINTIC, comb, lambdas)


def _warm_quintic_table():
    """The quintic's solved forms and a table warm with two combs' terms."""
    lambdas = ORACLE_TABLES[QUINTIC][0]
    calabi_yau._table.clear()
    for comb in ((0, 1, 3, 4), (1, 2, 4)):
        cy_term(QUINTIC, comb, lambdas)
    return lambdas


def test_an_equal_but_new_form_object_empties_the_table():
    lambdas = _warm_quintic_table()
    held = dict(calabi_yau._table.terms)
    comb = (0, 1, 3, 4)
    # Equal by value at tooth degree 2, but another object than the held one.
    fresh = {**lambdas, 2: LambdaForm(lambdas[2].alpha, lambdas[2].beta)}
    assert fresh == lambdas and fresh[2] is not lambdas[2]
    term = cy_term(QUINTIC, comb, fresh)
    assert term == _definitional_term(QUINTIC, comb, fresh)
    assert set(calabi_yau._table.terms) == _prefixes_with_teeth(comb)
    assert all(calabi_yau._table.terms[ends] is not held[ends] for ends in calabi_yau._table.terms)
    assert calabi_yau._table.forms[2] is fresh[2]
    assert all(calabi_yau._table.forms[e] is fresh[e] for e in _deltas(comb))


def test_a_missing_tooth_degree_raises_and_leaves_a_warm_table_as_it_was():
    lambdas = _warm_quintic_table()
    forms, terms = dict(calabi_yau._table.forms), dict(calabi_yau._table.terms)
    # The held forms themselves, but no lambda_2 for the comb's middle tooth.
    lacking = {e: form for e, form in lambdas.items() if e != 2}
    with pytest.raises(ValueError, match="missing lambda for tooth degree 2"):
        cy_term(QUINTIC, (0, 1, 3, 4), lacking)
    assert calabi_yau._table.model is QUINTIC
    assert calabi_yau._table.forms.keys() == forms.keys()
    assert all(calabi_yau._table.forms[e] is form for e, form in forms.items())
    assert calabi_yau._table.terms.keys() == terms.keys()
    assert all(calabi_yau._table.terms[ends] is term for ends, term in terms.items())


def test_an_equal_but_distinct_model_object_empties_the_table():
    lambdas = _warm_quintic_table()
    twin = CIModel(4, (5,))
    assert twin == QUINTIC and twin is not QUINTIC
    comb = (1, 2, 4)
    term = cy_term(twin, comb, lambdas)
    assert term == _definitional_term(twin, comb, lambdas)
    assert calabi_yau._table.model is twin
    assert set(calabi_yau._table.terms) == _prefixes_with_teeth(comb)


def test_a_read_only_lambda_table_gives_the_same_terms_cold_and_warm():
    lambdas = ORACLE_TABLES[QUINTIC][0]
    proxy = MappingProxyType(lambdas)
    all_combs = enumerate_combs(4)
    calabi_yau._table.clear()
    cold = [cy_term(QUINTIC, comb, proxy) for comb in all_combs]
    assert calabi_yau._table.model is QUINTIC
    assert all(calabi_yau._table.forms[e] is lambdas[e] for e in range(1, 5))
    # Every term is held now, so the second pass builds nothing.
    warm = [cy_term(QUINTIC, comb, proxy) for comb in all_combs]
    assert all(w is c for w, c in zip(warm, cold))
    assert cold == [_definitional_term(QUINTIC, comb, lambdas) for comb in all_combs]


def test_an_equal_but_new_form_between_two_degrees_empties_the_table_in_the_comb_sum():
    lambdas = ORACLE_TABLES[QUINTIC][0]
    table = calabi_yau._table
    table.clear()
    lambda_readoff(QUINTIC, 4, lambdas)
    held = dict(table.terms)
    # Equal by value at tooth degree 2, but another object than the held one:
    # the degree-5 sum holds every tooth degree once, before its first term.
    fresh = {**lambdas, 2: LambdaForm(lambdas[2].alpha, lambdas[2].beta)}
    partial = calabi_yau._partial_comb_sum(QUINTIC, 5, fresh)
    assert table.model is QUINTIC
    assert all(table.forms[e] is fresh[e] for e in range(1, 5))
    assert held.keys() <= table.terms.keys()
    assert all(table.terms[ends] is not term for ends, term in held.items())
    brute = LaurentPoly.zero(QUINTIC.spec)
    for comb in enumerate_combs(5):
        if comb != (0, 5):
            brute = brute + _definitional_term(QUINTIC, comb, lambdas)
    assert partial == brute
    assert lambda_readoff(QUINTIC, 5, fresh) == lambdas[5]


@pytest.mark.parametrize(
    "call",
    [
        lambda lambdas: lambda_readoff(QUINTIC, 4, lambdas),
        lambda lambdas: cy_correlator(QUINTIC, 4, lambdas),
    ],
    ids=["lambda_readoff", "cy_correlator"],
)
def test_a_comb_sum_without_a_lambda_raises_and_leaves_a_warm_table_as_it_was(call):
    lambdas = _warm_quintic_table()
    table = calabi_yau._table
    stores = table.forms, table.terms, table.teeth
    held = table.model, table.combs, *(dict(store) for store in stores)
    # No lambda_2, and a new lambda_1 object that would empty the table if
    # it were checked before the missing degree.
    lacking = {1: LambdaForm(lambdas[1].alpha, lambdas[1].beta), 3: lambdas[3], 4: lambdas[4]}
    with pytest.raises(ValueError, match="missing lambda for tooth degree 2"):
        call(lacking)
    assert table.model is held[0] and table.combs is held[1]
    for store, now, before in zip(stores, (table.forms, table.terms, table.teeth), held[2:]):
        assert now is store and now.keys() == before.keys()
        assert all(now[key] is value for key, value in before.items())


@settings(deadline=None)
@given(
    st.sampled_from(CANONICAL_SPECS), fractions, fractions, st.integers(0, 9), st.integers(1, 9)
)
def test_a_tooth_is_the_shifted_linear_form_over_its_count(spec, alpha, beta, position, count):
    # The construction a tooth had before it was one degree-0 form, kept as the oracle.
    expected = LaurentPoly.linear(
        spec, alpha / count, (alpha * position + beta) / count
    ).shift_t(-1)
    assert LambdaForm(alpha, beta).tooth(spec, position, count) == expected


def test_one_point_invariants_are_fractions():
    corr = cy_correlator(QUINTIC, 1)
    values = [one_point_invariant(corr, a, b) for a in range(3) for b in range(5)]
    assert Fraction(2875) in values and Fraction(0) in values
    assert all(type(v) is Fraction for v in values)
    coefficients = [c for _, cls in corr.items() for _, _, c in cls.terms()]
    assert coefficients and all(type(c) is Fraction for c in coefficients)


def test_cy_term_missing_lambda():
    with pytest.raises(ValueError):
        cy_term(QUINTIC, (0, 2), {1: QUINTIC_LAMBDAS[1]})


def test_solve_lambda_quintic_table():
    lambdas = {}
    for d in range(1, 5):
        lambdas[d] = solve_lambda(QUINTIC, d, lambdas)
        assert lambdas[d] == QUINTIC_LAMBDAS[d], f"degree {d}"


def test_solve_lambda_requires_lower_degrees():
    with pytest.raises(ValueError):
        solve_lambda(QUINTIC, 3, {1: QUINTIC_LAMBDAS[1]})


def test_solve_lambda_rejects_fano():
    with pytest.raises(ClassificationError):
        solve_lambda(classify(4, (1, 1)), 1, {})
    with pytest.raises(ClassificationError):
        solve_lambdas_up_to(classify(4, (6,)), 1)


def test_readoff_matches_solver():
    for model in (QUINTIC, classify(5, (3, 3)), classify(5, (2, 4))):
        lambdas = solve_lambdas_up_to(model, 3)
        for d in range(1, 4):
            assert lambda_readoff(model, d, lambdas) == lambdas[d]


def test_error_coefficients_have_monomial_shape():
    model = classify(5, (3, 3))
    lambdas = solve_lambdas_up_to(model, 1)
    partial = LaurentPoly.zero(model.spec)
    for comb in enumerate_combs(2):
        if comb == (0, 2):
            continue
        partial = partial + cy_term(model, comb, lambdas)
    assert partial.coefficient(-1).is_homogeneous(model.m + 1)
    assert all(mono == () for _, mono, _ in partial.coefficient(-1).terms())
    assert partial.coefficient(0).is_homogeneous(model.m)


def test_cy_correlator_degree_one():
    spec = QUINTIC.spec
    expected = LaurentPoly(
        spec,
        {
            -2: CohClass.h_power(spec, 3) * 2875,
            -3: CohClass.h_power(spec, 4) * -5750,
        },
    )
    assert cy_correlator(QUINTIC, 1) == expected


def test_cy_correlator_degree_three_count():
    corr = cy_correlator(QUINTIC, 3)
    assert one_point_invariant(corr, 0, 1) == Fraction(8564575000, 9)


def test_cy_correlator_degree_two_psi_invariant():
    corr = cy_correlator(QUINTIC, 2)
    assert one_point_invariant(corr, 1, 0) == Fraction(-4876875, 4)


def test_cy_correlator_is_homogeneous():
    for d in (1, 2, 3):
        corr = cy_correlator(QUINTIC, d)
        assert corr.is_homogeneous(QUINTIC.m)
        assert corr.t_max() <= -2


def test_cy_correlator_degree_zero():
    assert cy_correlator(QUINTIC, 0) == phi(QUINTIC, 0)


def test_a_negative_degree_is_rejected_before_any_solve(monkeypatch):
    def fail(*args):
        raise AssertionError("called for a negative degree")

    monkeypatch.setattr(calabi_yau, "solve_lambdas_up_to", fail)
    monkeypatch.setattr(calabi_yau, "cy_term", fail)
    for call in (lambda: cy_correlator(QUINTIC, -1), lambda: correlator(QUINTIC, -1)):
        with pytest.raises(ValueError, match="degree must be >= 0"):
            call()


def test_all_zero_lambdas_collapse_to_phi():
    zero = {d: LambdaForm(Fraction(0), Fraction(0)) for d in range(1, 4)}
    total = LaurentPoly.zero(QUINTIC.spec)
    for comb in enumerate_combs(3):
        total = total + cy_term(QUINTIC, comb, zero)
    assert total == phi(QUINTIC, 3)


def _immersed_n5(lambda_4: LambdaForm) -> Fraction:
    """N_5 of the quintic with lambda_4 given and lambda_5 solved on top of it."""
    lambdas = solve_lambdas_up_to(QUINTIC, 3)
    lambdas[4] = lambda_4
    lambdas[5] = solve_lambda(QUINTIC, 5, lambdas)
    n_1 = one_point_invariant(cy_correlator(QUINTIC, 1, lambdas), 0, 1)
    n_5 = one_point_invariant(cy_correlator(QUINTIC, 5, lambdas), 0, 1)
    return aspinwall_morrison({1: n_1, 5: n_5 / 5})[5]


def test_wrong_lambda_breaks_cancellation():
    lambdas = solve_lambdas_up_to(QUINTIC, 3)
    lambdas[4] = OLD_TABULATED_LAMBDA_4
    with pytest.raises(LambdaShapeError, match="degree-4 comb sum retains t\\^0"):
        cy_correlator(QUINTIC, 4, lambdas)
    # downstream, the wrong lambda_4 spoils the published degree-5 count
    assert _immersed_n5(QUINTIC_LAMBDAS[4]) == CDGP_N5
    assert _immersed_n5(OLD_TABULATED_LAMBDA_4) != CDGP_N5


def test_generic_correlator_dispatch():
    assert correlator(QUINTIC, 1) == cy_correlator(QUINTIC, 1)
    fano = classify(4, (1, 1))
    assert correlator(fano, 2) == phi(fano, 2)
    with pytest.raises(ClassificationError):
        correlator(classify(4, (6,)), 1)


def test_aspinwall_morrison_quintic_numbers():
    physical = {
        1: Fraction(2875),
        2: Fraction(4876875, 8),
        3: Fraction(8564575000, 27),
        4: Fraction(15517926796875, 64),
    }
    assert aspinwall_morrison(physical) == {
        1: Fraction(2875),
        2: Fraction(609250),
        3: Fraction(317206375),
        4: Fraction(242467530000),
    }


def test_aspinwall_morrison_degree_one_is_identity():
    assert aspinwall_morrison({1: Fraction(17, 3)}) == {1: Fraction(17, 3)}


def test_aspinwall_morrison_hand_solved_instance():
    # 1 = N_2 + N_1/2^3 with N_1 = 1 gives N_2 = 7/8
    assert aspinwall_morrison({1: Fraction(1), 2: Fraction(1)}) == {
        1: Fraction(1),
        2: Fraction(7, 8),
    }


def test_aspinwall_morrison_missing_divisor():
    with pytest.raises(ValueError):
        aspinwall_morrison({2: Fraction(1)})


@pytest.mark.parametrize("d", [0, -2])
def test_aspinwall_morrison_rejects_degrees_below_one(d):
    with pytest.raises(ValueError, match="degree must be >= 1"):
        aspinwall_morrison({d: Fraction(1)})
    with pytest.raises(ValueError, match="degree must be >= 1"):
        aspinwall_morrison({d: Fraction(1), 1: Fraction(1)})


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_lambdas_up_to(QUINTIC, -3),
        lambda: threefold_report(QUINTIC, -1),
        lambda: calabi_yau._lambdas_and_correlators(QUINTIC, -1),
    ],
    ids=["solve_lambdas_up_to", "threefold_report", "lambdas_and_correlators"],
)
def test_a_negative_degree_is_rejected_by_the_pipelines(call):
    with pytest.raises(ValueError, match="degree must be >= 0"):
        call()


def test_lambda_readoff_rejects_fano():
    with pytest.raises(ClassificationError, match="not Calabi-Yau"):
        lambda_readoff(classify(3, (3,)), 1, {})


def test_quintic_report_relation():
    report = quintic_report(4)
    for row in report.rows:
        assert row.n_d / row.degree == -row.m_d / 2


def test_threefold_report_rejects_wrong_dimension():
    with pytest.raises(ClassificationError):
        threefold_report(classify(3, (4,)), 1)


def test_quintic_degree_five_and_six_regression():
    report = quintic_report(6)
    row5 = report.row(5)
    assert row5.n_d == Fraction(1146529444438240)
    assert row5.lam == LambdaForm(
        Fraction(-2612998860904837, 3), Fraction(-116580046412620)
    )
    assert report.immersed_counts[5] == Fraction(229305888887625)
    assert report.immersed_counts[6] == Fraction(248249742118022000)


@pytest.mark.parametrize("d", [0, -1, 3])
def test_report_row_outside_its_degrees_is_rejected(d):
    report = quintic_report(2)
    assert report.row(1).degree == 1 and report.row(2).degree == 2
    with pytest.raises(IndexError, match=rf"degree {d} is outside the report's range 1\.\.2"):
        report.row(d)


# The five threefolds of scripts/mirror_table.py.
THREEFOLDS = (
    QUINTIC,
    classify(5, (3, 3)),
    classify(5, (2, 4)),
    classify(6, (2, 2, 3)),
    classify(7, (2, 2, 2, 2)),
)


def _fresh_forms(lambdas):
    """Equal forms that are not the same objects, so cy_term's table cannot serve them."""
    return {e: LambdaForm(lam.alpha, lam.beta) for e, lam in lambdas.items()}


@pytest.mark.parametrize("model", THREEFOLDS, ids=str)
def test_solving_and_summing_one_degree_at_a_time_equals_two_loops(model):
    max_degree = 5
    # A stale table entry for (model, 1) built from another lambda_1 must not
    # be taken for the solved one.
    wrong = {1: LambdaForm(Fraction(1), Fraction(2))}
    cy_term(model, (0, 1), wrong)
    lambdas, correlators = calabi_yau._lambdas_and_correlators(model, max_degree)
    # The former route: the whole table first, then one correlator per degree.
    table = solve_lambdas_up_to(model, max_degree)
    fresh = _fresh_forms(table)
    assert lambdas == table
    assert sorted(correlators) == list(range(max_degree + 1))
    for d in range(max_degree + 1):
        assert correlators[d] == cy_correlator(model, d, fresh), f"degree {d}"


@pytest.mark.parametrize("model", THREEFOLDS, ids=str)
def test_immersed_counts_are_integers_to_degree_six(model):
    # On P^6 and P^7 no table of the counts is pinned, so integrality is the
    # check that a wrong comb term there can fail.
    counts = threefold_report(model, 6).immersed_counts
    assert sorted(counts) == list(range(1, 7))
    assert all(count.denominator == 1 for count in counts.values()), counts


@pytest.mark.parametrize("d", range(1, 7))
def test_the_correlator_pass_reuses_the_solve_pass_products(monkeypatch, d):
    # The lower degrees solved and summed as the pipeline does, with their
    # terms kept, and phi warm to degree d.
    calabi_yau._table.clear()
    lambdas = {}
    for e in range(1, d):
        lambdas[e] = solve_lambda(QUINTIC, e, lambdas)
        cy_correlator(QUINTIC, e, lambdas)
    phi(QUINTIC, d)
    teeth, convolves = [], []
    times_tooth, convolve = calabi_yau._times_tooth, rings._convolve

    def counting_teeth(*args):
        teeth.append(None)
        return times_tooth(*args)

    def counting_convolves(*args):
        convolves.append(None)
        return convolve(*args)

    monkeypatch.setattr(calabi_yau, "_times_tooth", counting_teeth)
    monkeypatch.setattr(rings, "_convolve", counting_convolves)
    lambdas[d] = solve_lambda(QUINTIC, d, lambdas)
    # One tooth product per comb with teeth other than (0, d), each on its
    # held prefix, and two ring products for the read-off integrals.
    assert (len(teeth), len(convolves)) == (2**d - 2, 2)
    # Only the simple comb (0, d), phi_0 times one tooth, is multiplied out,
    # and no comb term is a ring product.
    corr = cy_correlator(QUINTIC, d, lambdas)
    assert (len(teeth), len(convolves)) == (2**d - 2 + 1, 2)
    monkeypatch.undo()
    assert corr == cy_correlator(QUINTIC, d, _fresh_forms(lambdas))
    # Forms that differ from the held ones are multiplied out again.
    perturbed = {e: LambdaForm(lam.alpha + 1, lam.beta - e) for e, lam in lambdas.items()}
    for comb in enumerate_combs(d):
        assert cy_term(QUINTIC, comb, perturbed) == _definitional_term(QUINTIC, comb, perturbed)


def test_the_term_table_holds_one_model_and_is_emptied(monkeypatch):
    term = calabi_yau.cy_term
    seen = []

    def checking(model, comb, lambdas):
        out = term(model, comb, lambdas)
        table = calabi_yau._table
        assert table.model is model
        assert all(ends[-1] <= comb[-1] and len(ends) > 1 for ends in table.terms)
        seen.append(len(table.terms))
        return out

    monkeypatch.setattr(calabi_yau, "cy_term", checking)
    other = classify(5, (3, 3))
    calabi_yau._table.clear()
    for model in (QUINTIC, other):
        calabi_yau._lambdas_and_correlators(model, 5)
        assert calabi_yau._table.terms == {} and calabi_yau._table.model is None
        assert calabi_yau._table.forms == {} and calabi_yau._table.combs is None
        assert calabi_yau._table.teeth == {}
    # The table ends up with every comb with teeth of every degree, once.
    assert max(seen) == sum(2**d - 1 for d in range(1, 6))
    monkeypatch.undo()

    # Terms of every degree stay while the model and the forms do.
    solved, perturbed = ORACLE_TABLES[QUINTIC][0], ORACLE_TABLES[QUINTIC][2]
    calabi_yau._table.clear()
    for comb in ((0, 1, 3), (1, 4)):
        cy_term(QUINTIC, comb, solved)
    assert set(calabi_yau._table.terms) == {(0, 1), (0, 1, 3), (1, 4)}
    # A changed form empties the table, and then every form of the comb is
    # held: lambda_1 is the held object, lambda_2 is not.
    mixed = {1: solved[1], 2: perturbed[2]}
    comb = (0, 1, 3)
    assert cy_term(QUINTIC, comb, mixed) == _definitional_term(QUINTIC, comb, mixed)
    assert set(calabi_yau._table.terms) == {(0, 1), (0, 1, 3)}
    assert calabi_yau._table.forms == {1: solved[1], 2: perturbed[2]}
    assert calabi_yau._table.forms[1] is solved[1] and calabi_yau._table.forms[2] is perturbed[2]
    held = calabi_yau._table.terms[(0, 1)]
    assert cy_term(QUINTIC, (0, 1), solved) is held
    # A new model empties it too.
    cy_term(other, (1, 4), ORACLE_TABLES[other][0])
    assert set(calabi_yau._table.terms) == {(1, 4)} and calabi_yau._table.model is other

    # The pipeline empties the table also when a degree fails.
    def failing(model, d, lambdas):
        if d == 3:
            raise LambdaShapeError("stop")
        return cy_correlator(model, d, lambdas)

    monkeypatch.setattr(calabi_yau, "cy_correlator", failing)
    with pytest.raises(LambdaShapeError, match="stop"):
        calabi_yau._lambdas_and_correlators(QUINTIC, 4)
    assert calabi_yau._table.terms == {} and calabi_yau._table.model is None
    assert calabi_yau._table.forms == {} and calabi_yau._table.combs is None


def _table_is_empty():
    table = calabi_yau._table
    return (table.model, table.forms, table.terms, table.teeth, table.combs) == (
        None, {}, {}, {}, None
    )


@pytest.mark.parametrize(
    "solve",
    [lambda: solve_lambdas_up_to(QUINTIC, 6), lambda: cy_correlator(QUINTIC, 5)],
    ids=["solve_lambdas_up_to", "cy_correlator"],
)
def test_a_function_that_solves_its_own_table_empties_the_term_table(solve, monkeypatch):
    # before: the solve left 119 quintic comb terms held, the correlator 57
    calabi_yau._table.clear()
    solve()
    assert _table_is_empty()
    # also when a degree fails, after lower degrees filled the table
    solve_one = calabi_yau.solve_lambda

    def failing(model, d, lambdas):
        if d == 3:
            assert calabi_yau._table.terms
            raise LambdaShapeError("stop")
        return solve_one(model, d, lambdas)

    monkeypatch.setattr(calabi_yau, "solve_lambda", failing)
    with pytest.raises(LambdaShapeError, match="stop"):
        solve()
    assert _table_is_empty()


BUNDLE_CALABI_YAU = RelativeModel(n=4, base_cutoff=2, degrees=(5,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: correlator(BUNDLE_CALABI_YAU, 1),
        lambda: correlator(BUNDLE_CALABI_YAU, 0),
        lambda: correlator(RelativeModel(n=4, base_cutoff=1, degrees=(2,)), 1),
        lambda: cy_correlator(BUNDLE_CALABI_YAU, 1),
        lambda: solve_lambda(BUNDLE_CALABI_YAU, 1, {}),
        lambda: solve_lambdas_up_to(BUNDLE_CALABI_YAU, 1),
        lambda: lambda_readoff(BUNDLE_CALABI_YAU, 1, {}),
        lambda: threefold_report(BUNDLE_CALABI_YAU, 1),
    ],
    ids=["correlator", "correlator-d0", "correlator-fano", "cy_correlator", "solve_lambda",
         "solve_lambdas_up_to", "lambda_readoff", "threefold_report"],
)
def test_the_absolute_pipelines_reject_a_bundle_model_before_any_solve(call, monkeypatch):
    # before the models were merged: AttributeError; after, the comb solve would
    # run on the bundle ring, where the lambda shape check fails
    def no_solve(*args):
        raise AssertionError("a comb sum started")

    monkeypatch.setattr(calabi_yau, "_partial_comb_sum", no_solve)
    with pytest.raises(ClassificationError, match="base cutoff 0"):
        call()
