"""The numbered-basis ring kernel against the slot-dict kernel it replaced.

The oracle below is the former ``gwone.rings`` arithmetic: a class is a
tuple of n+1 dicts, one per power of h, each mapping a stripped base
monomial to its nonzero ``Fraction`` coefficient.  Every product is formed
in full, with ``mono_mul`` and ``RingSpec.mono_degree`` in the inner loop,
and ``normalise`` rewrites powers of h above n through the h-rule
afterwards.  It is slow and independent of the basis tables, so the new
kernel must agree with it term for term.

``laurent_mul`` is the product of t-Laurent polynomials as it was before the
fused kernel: one class product per pair of t-coefficients, summed per
exponent, here with the slot-dict ``mul`` and ``add`` as the class product.
Its ``poly_mul`` and ``poly_add`` are also the product of ``test_series``'
pairwise q-series oracle, which so shares no code with the ring kernel.

``product_table_oracle`` is the former ``Basis`` product table, one
``mono_mul`` per pair of monomials, against the table built from
mixed-radix monomial codes.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwone.laurent import LaurentPoly
from gwone.relative import relative_ring
from gwone.rings import Basis, CohClass, Mono, RingSpec, _strip, mono_mul

from strategies import (
    CANONICAL_SPECS,
    SPECS,
    coh_classes,
    coh_units_for,
    fractions,
    laurent_polys,
    raw_terms,
    strip_scalar,
)

BasePoly = dict[Mono, Fraction]
Slots = tuple[BasePoly, ...]


def normalise(spec: RingSpec, raw: list[BasePoly]) -> Slots:
    """The n+1 h-slots of ``raw`` (stripped monomials, any number of slots; consumed)."""
    n, cutoff, degree = spec.n, spec.base_cutoff, spec.mono_degree
    for e in range(len(raw) - 1, n, -1):
        poly = raw[e]
        for j, rmono, rc in spec.h_rule:
            acc = raw[e - (n + 1) + j]
            for mono, c in poly.items():
                prod = mono_mul(mono, rmono)
                if prod and degree(prod) > cutoff:
                    continue
                acc[prod] = acc.get(prod, Fraction(0)) + c * rc
    raw.extend({} for _ in range(n + 1 - len(raw)))
    return tuple(
        {mono: c for mono, c in poly.items() if c and not (mono and degree(mono) > cutoff)}
        for poly in raw[: n + 1]
    )


def coerce(spec: RingSpec, parts) -> Slots:
    raw = []
    for poly in parts:
        entry: BasePoly = {}
        for mono, c in poly.items():
            mono = _strip(mono)
            entry[mono] = entry.get(mono, Fraction(0)) + Fraction(c)
        raw.append(entry)
    return normalise(spec, raw)


def coerce_terms(spec: RingSpec, terms) -> Slots:
    top = max((k for (k, _) in terms), default=0)
    slots = [{} for _ in range(top + 1)]
    for (k, mono), c in terms.items():
        slots[k][mono] = c
    return coerce(spec, slots)


def add(spec: RingSpec, p: Slots, q: Slots) -> Slots:
    raw = [dict(a) for a in p]
    for acc, b in zip(raw, q):
        for mono, c in b.items():
            acc[mono] = acc.get(mono, Fraction(0)) + c
    return normalise(spec, raw)


def scale(spec: RingSpec, p: Slots, s: Fraction) -> Slots:
    return normalise(spec, [{m: c * s for m, c in a.items()} for a in p])


def mul(spec: RingSpec, p: Slots, q: Slots) -> Slots:
    raw: list[BasePoly] = [{} for _ in range(2 * spec.n + 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            acc = raw[i + j]
            for ma, ca in a.items():
                for mb, cb in b.items():
                    mono = mono_mul(ma, mb)
                    if mono and spec.mono_degree(mono) > spec.base_cutoff:
                        continue
                    acc[mono] = acc.get(mono, Fraction(0)) + ca * cb
    return normalise(spec, raw)


def inverse(spec: RingSpec, p: Slots) -> Slots:
    s = Fraction(1) / p[0][()]
    one = coerce(spec, [{(): 1}])
    x = add(spec, one, scale(spec, p, -s))
    acc, power = one, x
    for _ in range(spec.n + spec.base_cutoff + 1):
        acc = add(spec, acc, power)
        power = mul(spec, power, x)
    assert not any(power)
    return scale(spec, acc, s)


def slots(value: CohClass) -> Slots:
    """A kernel class in the oracle's form."""
    out: list[BasePoly] = [{} for _ in range(value.spec.n + 1)]
    for k, mono, c in value.terms():
        out[k][mono] = c
    return tuple(out)


def spec_id(spec: RingSpec) -> str:
    return f"n{spec.n}-gens{len(spec.base)}-cutoff{spec.base_cutoff}-rule{len(spec.h_rule)}"


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
@given(st.data())
def test_kernel_matches_the_slot_dict_oracle(spec, data):
    terms_a, terms_b = data.draw(raw_terms(spec)), data.draw(raw_terms(spec))
    c = data.draw(fractions)
    a, b = CohClass(spec, terms_a), CohClass(spec, terms_b)
    pa, pb = coerce_terms(spec, terms_a), coerce_terms(spec, terms_b)
    assert slots(a) == pa
    assert slots(b) == pb
    assert slots(a + b) == add(spec, pa, pb)
    assert slots(a - b) == add(spec, pa, scale(spec, pb, Fraction(-1)))
    assert slots(-a) == scale(spec, pa, Fraction(-1))
    assert slots(a * c) == slots(c * a) == scale(spec, pa, c)
    assert slots(a * b) == mul(spec, pa, pb)
    assert slots(a * a) == mul(spec, pa, pa)
    unit = data.draw(coh_units_for(spec))
    assert slots(unit.inverse()) == inverse(spec, slots(unit))
    top = a.integrate()
    if spec.is_relative:
        assert slots(top) == coerce(spec, [pa[spec.n]])
    else:
        assert top == pa[spec.n].get((), Fraction(0))


SlotPoly = dict[int, Slots]


def poly_slots(p: LaurentPoly) -> SlotPoly:
    """A kernel polynomial in the oracle's form: its nonzero t-coefficients as slots."""
    return {e: slots(c) for e, c in p.items()}


def poly_add(spec: RingSpec, p: SlotPoly, q: SlotPoly) -> SlotPoly:
    out = dict(p)
    for e, c in q.items():
        out[e] = add(spec, out[e], c) if e in out else c
    return {e: c for e, c in out.items() if any(c)}


def poly_mul(spec: RingSpec, p: SlotPoly, q: SlotPoly) -> SlotPoly:
    """One class product per pair of t-coefficients, summed per exponent."""
    out: SlotPoly = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            prod = mul(spec, ca, cb)
            e = ea + eb
            out[e] = add(spec, out[e], prod) if e in out else prod
    return {e: c for e, c in out.items() if any(c)}


def poly_inverse(spec: RingSpec, p: SlotPoly) -> SlotPoly:
    """The seed t^-top / c_top times the geometric series in 1 - p * seed."""
    top = max(p)
    seed = {-top: inverse(spec, p[top])}
    one = {0: coerce(spec, [{(): 1}])}
    minus = {e: scale(spec, c, Fraction(-1)) for e, c in poly_mul(spec, p, seed).items()}
    x = poly_add(spec, one, minus)
    acc, power = one, x
    for _ in range(spec.n + spec.base_cutoff + 1):
        acc = poly_add(spec, acc, power)
        power = poly_mul(spec, power, x)
    assert not power
    return poly_mul(spec, acc, seed)


def laurent_mul(spec: RingSpec, p: LaurentPoly, q: LaurentPoly) -> SlotPoly:
    """The nonzero t-coefficients of p * q, one class product per pair of t-coefficients."""
    return poly_mul(spec, poly_slots(p), poly_slots(q))


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
@given(st.data())
def test_laurent_product_matches_the_pairwise_oracle(spec, data):
    p = data.draw(laurent_polys(spec, max_terms=4))
    q = data.draw(laurent_polys(spec, max_terms=4))
    product = p * q
    assert {e: slots(c) for e, c in product.items()} == laurent_mul(spec, p, q)
    assert product == q * p


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
@given(st.data())
def test_prepared_operands_match_the_pairwise_oracle(spec, data):
    """A polynomial prepares its left and right operand lists once and keeps
    them; every product, before and after, agrees with the oracle."""
    p = data.draw(laurent_polys(spec, max_terms=4))
    q = data.draw(laurent_polys(spec, max_terms=4))
    a = data.draw(coh_classes(spec))
    fresh = LaurentPoly(spec, dict(p.items()))  # p's value with nothing prepared
    text = repr(p)
    expected = {
        "p*q": laurent_mul(spec, p, q),
        "q*p": laurent_mul(spec, q, p),
        "p*p": laurent_mul(spec, p, p),
        "p*a": laurent_mul(spec, p, LaurentPoly.single(spec, 0, a)),
    }
    for _ in range(2):  # the first pass prepares p and q, the second reuses them
        products = {"p*q": p * q, "q*p": q * p, "p*p": p * p, "p*a": p * a}
        for label, value in products.items():
            assert {e: slots(c) for e, c in value.items()} == expected[label]
        assert p == fresh and fresh == p
        assert repr(p) == repr(fresh) == text
    assert p._left is not None and p._right is not None
    assert fresh._left is None and fresh._right is None
    assert LaurentPoly.__hash__ is None
    with pytest.raises(TypeError):
        hash(p)


def test_laurent_products_that_cancel_store_nothing():
    spec = RingSpec.absolute(4)
    h3 = LaurentPoly.single(spec, 0, CohClass.h_power(spec, 3))
    assert h3 * h3 == LaurentPoly.zero(spec)
    assert (h3 * h3).support() == []
    # (h/2 + t/3)(h/2 - t/3): the two t^1 products, over denominators 6, cancel.
    p = LaurentPoly.linear(spec, Fraction(1, 2), Fraction(1, 3))
    q = LaurentPoly.linear(spec, Fraction(1, 2), Fraction(-1, 3))
    assert (p * q).support() == [0, 2]
    assert laurent_mul(spec, p, q).keys() == {0, 2}


def test_a_rewritten_tail_that_cancels_a_low_term_matches_the_oracle():
    # SPECS[4]: h^3 = u*h^2/2 - 2u^3/3, over tail_den = 6^3.  In h * (h^2 - u*h/2)
    # the tail of h^3 cancels the low product -u*h^2/2; adding 2u^3/3 cancels the rest.
    spec = SPECS[4]
    h = CohClass.h_power(spec, 1)
    right = CohClass(spec, {(2, ()): 1, (1, (1,)): Fraction(-1, 2)})
    u3 = CohClass(spec, {(0, (3,)): Fraction(2, 3)})
    for value, expected in (
        (h * right, CohClass(spec, {(0, (3,)): Fraction(-2, 3)})),
        (h * right + u3, CohClass.zero(spec)),
        (h * (right + u3 * 3), CohClass(spec, {(0, (3,)): Fraction(-2, 3), (1, (3,)): 2})),
    ):
        assert value == expected
        assert value._den > 0 and all(value._num.values())
    pairs = [(h, right), (h, right + u3 * 3), (right, right), (right, u3)]
    for a, b in pairs:
        assert slots(a * b) == mul(spec, slots(a), slots(b))
    # the same products between Laurent polynomials, where the combined keys carry t
    p = LaurentPoly(spec, {-1: h, 2: right})
    q = LaurentPoly(spec, {1: right, -2: h})
    assert {e: slots(c) for e, c in (p * q).items()} == laurent_mul(spec, p, q)


def spread_inputs(spec: RingSpec):
    """Coefficients of p and q, a class, a shift and a t-unit's top exponent and coefficients."""
    terms = st.dictionaries(st.integers(-6, 6), coh_classes(spec, 2), max_size=4)
    lower = coh_classes(spec, 2).map(strip_scalar)
    return st.tuples(
        terms, terms, coh_classes(spec), st.integers(-6, 6),
        st.integers(-4, 6), coh_units_for(spec), lower, lower,
    )


SPREAD_INPUTS = {spec_id(spec): spread_inputs(spec) for spec in CANONICAL_SPECS}


def given_slots(terms) -> SlotPoly:
    """The oracle's form of the polynomial built from ``terms``, without reading it back."""
    return {e: slots(c) for e, c in terms.items() if not c.is_zero()}


@pytest.mark.parametrize("spec", CANONICAL_SPECS, ids=spec_id)
@given(st.data())
def test_combined_keys_do_not_alias_across_powers_of_t(spec, data):
    """Each term is stored under e*stride + basis key.  With exponents spread
    over [-6, 6], products reaching [-12, 12] and, in the n = 0 rings, h
    already at h^{n+1}, every operation agrees with the oracle exponent by
    exponent, read through ``items`` and through ``coefficient``."""
    p_terms, q_terms, a, k, top, lead, low1, low2 = data.draw(SPREAD_INPUTS[spec_id(spec)])
    u_terms = {top: lead, top - 1: low1, top - 2: low2}
    p, q, unit = (LaurentPoly(spec, t) for t in (p_terms, q_terms, u_terms))
    sp, sq = given_slots(p_terms), given_slots(q_terms)
    expected = {
        "p": sp,
        "p*q": poly_mul(spec, sp, sq),
        "p*a": poly_mul(spec, sp, {0: slots(a)}),
        "p+q": poly_add(spec, sp, sq),
        "sum": poly_add(spec, poly_add(spec, sp, sq), sp),
        "shift_t": {e + k: c for e, c in sp.items()},
        "inverse": poly_inverse(spec, given_slots(u_terms)),
    }
    values = {
        "p": p,
        "p*q": p * q,
        "p*a": p * a,
        "p+q": p + q,
        "sum": LaurentPoly.sum(spec, [p, q, p]),
        "shift_t": p.shift_t(k),
        "inverse": unit.inverse(),
    }
    empty = coerce(spec, [])
    for label, value in values.items():
        assert poly_slots(value) == expected[label], label
        assert value.support() == sorted(expected[label]), label
        for e in range(-14, 15):
            assert slots(value.coefficient(e)) == expected[label].get(e, empty), (label, e)


def product_table_oracle(spec: RingSpec) -> list[list[int]]:
    """The former ``Basis.products``: ``mono_mul`` for every pair of monomials,
    looked up in the basis order, -1 above the cutoff."""
    monos = spec.monomials()
    index = {mono: i for i, mono in enumerate(monos)}
    degrees = [spec.mono_degree(mono) for mono in monos]
    return [
        [index[mono_mul(a, b)] if da + db <= spec.base_cutoff else -1 for b, db in zip(monos, degrees)]
        for a, da in zip(monos, degrees)
    ]


# Bundles' Segre generators (degrees 1..cutoff) up to cutoff 12, and generators of
# unsorted mixed degrees, so that the radices differ and exceed 2.
TABLE_SPECS = [
    *CANONICAL_SPECS,
    *(relative_ring(2, cutoff) for cutoff in range(13)),
    *(RingSpec.relative(1, (("u", 2), ("v", 3), ("w", 1)), cutoff) for cutoff in (0, 1, 5, 9)),
]


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=spec_id)
def test_product_table_matches_the_mono_mul_table(spec):
    assert Basis(spec).products == product_table_oracle(spec)
