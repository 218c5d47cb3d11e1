"""Hypothesis strategies shared across the property tests."""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from hypothesis import strategies as st

from gwone.laurent import LaurentPoly
from gwone.relative import relative_ring
from gwone.rings import CohClass, RingSpec
from gwone.series import QSeries

SPECS = [
    RingSpec.absolute(2),
    RingSpec.absolute(4),
    relative_ring(2, 2),
    RingSpec.relative(2, (("u", 1), ("v", 2)), 3),
    # h^3 = u*h^2/2 - 2u^3/3: non-integral h-rule coefficients, degree-homogeneous
    # so that every class without scalar part is nilpotent.
    RingSpec.relative(2, (("u", 1),), 3, [(2, (1,), Fraction(1, 2)), (0, (3,), Fraction(-2, 3))]),
]

# n = 0 rings, where h * m_0 is already h^{n+1}: in RELATIVE_N0 every h rewrites to 3u/2.
RELATIVE_N0 = RingSpec.relative(0, (("u", 1),), 2, [(0, (1,), Fraction(3, 2))])
CANONICAL_SPECS = [*SPECS, RingSpec.absolute(0), RELATIVE_N0]


@st.composite
def _fractions(draw, nonzero: bool = False) -> Fraction:
    """p/q for a denominator q in 1..9 and a numerator with |p| <= 9q: every rational
    in [-9, 9] whose denominator is at most 9 (zero excluded when ``nonzero``)."""
    q = draw(st.integers(1, 9))
    if nonzero:
        return Fraction(draw(st.integers(1, 9 * q)) * draw(st.sampled_from((1, -1))), q)
    return Fraction(draw(st.integers(-9 * q, 9 * q)), q)


fractions = _fractions()
nonzero_fractions = _fractions(nonzero=True)
specs = st.sampled_from(SPECS)


@cache
def coh_classes(spec: RingSpec, max_terms: int = 4):
    keys = st.tuples(st.integers(0, spec.n), st.sampled_from(spec.monomials()))
    return st.dictionaries(keys, fractions, max_size=max_terms).map(
        lambda terms: CohClass(spec, terms)
    )


def raw_monos(spec):
    """Monomials as a caller may write them: some unstripped, some above the cutoff."""
    exponents = st.lists(st.integers(0, spec.base_cutoff + 1), max_size=len(spec.base))
    return st.tuples(exponents, st.integers(0, 1)).map(lambda p: tuple(p[0]) + (0,) * p[1])


def raw_coefficients():
    return st.one_of(fractions, st.integers(-3, 3))


def raw_terms(spec):
    """Constructor input with h-exponents up to 2n+1."""
    keys = st.tuples(st.integers(0, 2 * spec.n + 1), raw_monos(spec))
    return st.dictionaries(keys, raw_coefficients(), max_size=4)


@cache
def laurent_polys(spec: RingSpec, min_exp: int = -2, max_exp: int = 2, max_terms: int = 3):
    return st.dictionaries(
        st.integers(min_exp, max_exp), coh_classes(spec, 2), max_size=max_terms
    ).map(lambda terms: LaurentPoly(spec, terms))


@cache
def int_forms(top: int, full: bool = False):
    """Int forms (degree, coefficients of h^0..h^k, positive denominator), the
    format of ``laurent._Form``, with k <= top, or k = top when ``full``."""
    coeffs = st.lists(st.integers(-60, 60), min_size=top + 1 if full else 1, max_size=top + 1)
    return st.tuples(st.integers(-3, 3), coeffs, st.integers(1, 40))


def strip_scalar(cls: CohClass) -> CohClass:
    return cls - CohClass.scalar(cls.spec, cls.scalar_part)


@st.composite
def coh_triples(draw):
    spec = draw(specs)
    return tuple(draw(coh_classes(spec)) for _ in range(3))


@st.composite
def laurent_triples(draw):
    spec = draw(specs)
    return tuple(draw(laurent_polys(spec)) for _ in range(3))


def coh_units_for(spec: RingSpec):
    return st.tuples(nonzero_fractions, coh_classes(spec)).map(
        lambda pair: CohClass.scalar(spec, pair[0]) + strip_scalar(pair[1])
    )


@st.composite
def coh_units(draw):
    spec = draw(specs)
    return draw(coh_units_for(spec))


@st.composite
def laurent_units(draw):
    spec = draw(specs)
    top = draw(st.integers(-2, 2))
    unit = LaurentPoly.single(spec, top, draw(coh_units_for(spec)))
    for offset in (1, 2):
        lower = strip_scalar(draw(coh_classes(spec, 2)))
        unit = unit + LaurentPoly.single(spec, top - offset, lower)
    return unit


_upto_two = st.integers(0, 2)
_t_exponents = st.integers(-2, 2)


@st.composite
def q_series(draw, spec: RingSpec | None = None, order: int = 4, zero_constant: bool = False):
    """A series whose coefficients range over ``laurent_polys(spec, -2, 2, 2)``: at most
    two powers t^-2..t^2, each a class of at most two terms.  Drawn flat, a count and
    then one key per term, a later key replacing an equal earlier one, so no
    ``st.dictionaries`` is nested; the values are the same, their frequencies not."""
    if spec is None:
        spec = RingSpec.absolute(2)
    keys = [(k, mono) for k in range(spec.n + 1) for mono in spec.monomials()]
    key_index = st.integers(0, len(keys) - 1)
    values = {}
    for d in range(1 if zero_constant else 0, order + 1):
        poly = {}
        for _ in range(draw(_upto_two)):
            e = draw(_t_exponents)
            terms = {}
            for _ in range(draw(_upto_two)):
                terms[keys[draw(key_index)]] = draw(fractions)
            poly[e] = CohClass(spec, terms)
        values[d] = LaurentPoly(spec, poly)
    return QSeries(spec, order, values)
