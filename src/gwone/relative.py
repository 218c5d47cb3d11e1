"""Correlators over a formal base: projective bundles and Segre classes.

The fiberwise story generalizes to a projectivized rank-(n+1) bundle over a
base carrying formal Segre classes s_1, s_2, ....  Chern classes are
recovered from s(V)*c(V) = 1, powers of h above n reduce through
sum_j c_j * h^{n+1-j} = 0, and the degree-d equivariant Euler class becomes
prod_{k=1}^d prod_j (h + alpha_j + k*t), expanded symmetrically so the
Chern roots alpha_j never appear individually.

Included here: the relative Euler class and phi, degree-one Schubert
push-forwards with the Porteous formula for lines, and the linear
Calabi-Yau pipeline where every lambda collapses to -(1/e)(t + s_1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .correlators import euler_class, phi_numerator
from .laurent import LaurentPoly
from .rings import BasePoly, CohClass, RingSpec, generator_mono, mono_mul
from .series import QSeries


@lru_cache(maxsize=None)
def _chern_from_segre(cutoff: int) -> tuple[BasePoly, ...]:
    """c_0..c_cutoff as base polynomials, from s(V) * c(V) = 1.

    Generator i (0-based index i-1) is s_i with degree i; the recursion is
    c_k = -sum_{i=1}^{k} s_i * c_{k-i}.  Cached: callers must not mutate.
    """
    chern: list[BasePoly] = [{(): Fraction(1)}]
    for k in range(1, cutoff + 1):
        acc: BasePoly = {}
        for i in range(1, k + 1):
            s_mono = generator_mono(i - 1)
            for mono, coeff in chern[k - i].items():
                prod = mono_mul(mono, s_mono)
                acc[prod] = acc.get(prod, Fraction(0)) - coeff
        chern.append({m: c for m, c in acc.items() if c})
    return tuple(chern)


@lru_cache(maxsize=None)
def relative_ring(n: int, base_cutoff: int) -> RingSpec:
    """The cohomology ring of P(V) with formal Segre generators s_1..s_cutoff."""
    generators = tuple((f"s{i}", i) for i in range(1, base_cutoff + 1))
    chern = _chern_from_segre(base_cutoff)
    rule = []
    for j in range(1, min(n + 1, base_cutoff) + 1):
        for mono, coeff in chern[j].items():
            rule.append((n + 1 - j, mono, -coeff))
    return RingSpec.relative(n, generators, base_cutoff, rule)


@dataclass(frozen=True)
class RelativeModel:
    """A complete intersection in a P^n-bundle, over a truncated formal base."""

    n: int
    base_cutoff: int
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("fiber dimension must be >= 1")
        if self.base_cutoff < 0:
            raise ValueError("base cutoff must be >= 0")
        if any(l < 1 for l in self.degrees):
            raise ValueError("all degrees must be >= 1")

    @property
    def m(self) -> int:
        return len(self.degrees)

    @property
    def spec(self) -> RingSpec:
        return relative_ring(self.n, self.base_cutoff)

    @property
    def is_linear_cy(self) -> bool:
        return self.degrees == (1,) * (self.n + 1)

    def segre_class(self, k: int) -> CohClass:
        """s_k as a ring element; s_0 = 1 and out-of-range indices vanish."""
        spec = self.spec
        if k < 0 or k > self.base_cutoff:
            return CohClass.zero(spec)
        if k == 0:
            return CohClass.one(spec)
        return CohClass.generator(spec, k - 1)

    def chern_class(self, j: int) -> CohClass:
        spec = self.spec
        if j < 0 or j > self.base_cutoff:
            return CohClass.zero(spec)
        return CohClass(spec, [_chern_from_segre(self.base_cutoff)[j]])


def linear_cy_model(n: int, base_cutoff: int) -> RelativeModel:
    """The linear Calabi-Yau: n+1 transverse sections of O(1) on P(V)."""
    return RelativeModel(n=n, base_cutoff=base_cutoff, degrees=(1,) * (n + 1))


@lru_cache(maxsize=None)
def relative_euler(model: RelativeModel, d: int) -> LaurentPoly:
    """prod_{k=1}^d prod_j (h + alpha_j + k*t), expanded in the Chern classes of V."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    chern = tuple(model.chern_class(j) for j in range(1, model.n + 2))
    return euler_class(model.spec, chern, d)


@lru_cache(maxsize=None)
def relative_phi(model: RelativeModel, d: int) -> LaurentPoly:
    """phi_d with the relative Euler class in the denominator.

    The denominator depends only on the bundle, so it is inverted once, by the
    section-free model of the same bundle, and cached there.
    """
    if not model.degrees:
        return relative_euler(model, d).inverse()
    return phi_numerator(model.spec, model.degrees, d) * relative_phi(replace(model, degrees=()), d)


@dataclass(frozen=True)
class SchubertInput:
    """A symmetric polynomial in two Chern roots q_1, q_2."""

    coefficients: tuple[tuple[tuple[int, int], Fraction], ...]

    @classmethod
    def from_monomials(cls, values: Mapping[tuple[int, int], Fraction | int]) -> SchubertInput:
        cleaned = {k: Fraction(v) for k, v in values.items() if v}
        for (i, j), c in cleaned.items():
            if cleaned.get((j, i), Fraction(0)) != c:
                raise ValueError("sigma must be symmetric in q_1, q_2")
        return cls(coefficients=tuple(sorted(cleaned.items())))

    @classmethod
    def product_power(cls, m: int) -> SchubertInput:
        """(q_1 * q_2)^m, the class cut out by m linear sections."""
        return cls.from_monomials({(m, m): 1})

    def evaluate(self, spec: RingSpec) -> LaurentPoly:
        """sigma(h, h + t) as a Laurent polynomial."""
        out = LaurentPoly.zero(spec)
        for (i, j), c in self.coefficients:
            term = LaurentPoly.single(spec, 0, CohClass.h_power(spec, i) * c)
            out = out + term * LaurentPoly.linear_power(spec, 1, j)
        return out


def relative_schubert_leading(model: RelativeModel, sigma: SchubertInput) -> LaurentPoly:
    """Main term of the degree-one Schubert push-forward:
    sigma(h, h+t) / prod_j (h + alpha_j + t).

    Coefficients at t^{-1} and below may carry an uncertified boundary
    correction; callers should only extract what the Porteous pipeline
    extracts.
    """
    return sigma.evaluate(model.spec) * relative_phi(replace(model, degrees=()), 1)


def porteous_lines(model: RelativeModel) -> CohClass:
    """Push-forward of the class of lines in m linear sections of P(V).

    Takes the t^{-2} coefficient of the main Schubert term for
    sigma = (q_1 q_2)^m, multiplies by h and integrates over the fiber; the
    result is s_{m-n+1}^2 - s_{m-n} * s_{m-n+2} in the Segre generators.
    """
    if model.degrees != (1,) * model.m or not 1 <= model.m <= model.n + 1:
        raise ValueError("expected m sections of O(1) with 1 <= m <= n+1")
    spec = model.spec
    main = relative_schubert_leading(model, SchubertInput.product_power(model.m))
    cls = main.coefficient(-2)
    pushed = (CohClass.h_power(spec, 1) * cls).integrate()
    if isinstance(pushed, Fraction):
        return CohClass.scalar(spec, pushed)
    return pushed


def porteous_expected(model: RelativeModel) -> CohClass:
    """The classical answer s_{m-n+1}^2 - s_{m-n} * s_{m-n+2}."""
    k = model.m - model.n
    s = model.segre_class
    return s(k + 1) * s(k + 1) - s(k) * s(k + 2)


# -- linear Calabi-Yau pipeline -------------------------------------------


def linear_cy_lambda(model: RelativeModel, e: int) -> tuple[Fraction, CohClass]:
    """The degree-e linear form lambda_e(t) = a_e*t + b_e = -(1/e)(t + s_1).

    Returned as the pair (a_e, b_e) with a_e rational and b_e a base class;
    for linear Calabi-Yau's the form is independent of h.
    """
    if e < 1:
        raise ValueError("degree must be >= 1")
    return Fraction(-1, e), model.segre_class(1) * Fraction(-1, e)


def _unit_factors(model: RelativeModel, order: int) -> QSeries:
    """u(q) = sum_e q^e * prod_{k=1}^e (h+kt)^{n+1} / prod_j (h+alpha_j+kt).

    These are the phi's with the overall h^{n+1} class factored off, which
    keeps the t^0 row invertible during coefficient matching.
    """
    spec = model.spec
    bundle = replace(model, degrees=())
    absolute_part = LaurentPoly.one(spec)
    values = {}
    for e in range(order + 1):
        if e:
            absolute_part = absolute_part * LaurentPoly.linear_power(spec, e, model.n + 1)
        values[e] = absolute_part * relative_phi(bundle, e)
    return QSeries.from_coefficients(spec, order, values)


def derive_linear_cy_lambdas(
    model: RelativeModel, max_degree: int
) -> list[tuple[Fraction, CohClass]]:
    """Re-derive the linear-CY lambdas by generating-function matching.

    Degree by degree, the t^0 row of u(q) * exp(sum lambda_e q^e / t) must
    vanish above q^0 (fixing a_e) and the t^{-1} row must vanish (fixing
    b_e).  Each derived pair is checked against the closed form -(1/e)(t+s_1)
    and a mismatch raises ArithmeticError.
    """
    if not model.is_linear_cy:
        raise ValueError("model is not a linear Calabi-Yau")
    spec = model.spec
    known = _unit_factors(model, max_degree)
    out: list[tuple[Fraction, CohClass]] = []
    for e in range(1, max_degree + 1):
        row = known.coefficient(e)
        t0 = row.coefficient(0)
        if not t0.is_homogeneous(0):
            raise ArithmeticError(f"t^0 row at q^{e} is not scalar: {t0}")
        a_e = -t0.scalar_part
        b_e = -row.coefficient(-1)
        expected_a, expected_b = linear_cy_lambda(model, e)
        if a_e != expected_a or b_e != expected_b:
            raise ArithmeticError(
                f"derived lambda at degree {e} is ({a_e}, {b_e}), "
                f"expected ({expected_a}, {expected_b})"
            )
        lam_over_t = LaurentPoly(spec, {0: CohClass.scalar(spec, a_e), -1: b_e})
        known = known * QSeries.from_coefficients(spec, max_degree, {e: lam_over_t}).exp()
        out.append((a_e, b_e))
    return out


def linear_cy_series(model: RelativeModel, order: int) -> QSeries:
    """(sum_e q^e phi_e) * (1 - q) * exp((s_1/t) log(1 - q)).

    This is the correlator generating series of the linear Calabi-Yau with
    the closed-form lambdas substituted in; its t^0 and t^{-1} rows vanish
    in every positive q-degree.
    """
    if not model.is_linear_cy:
        raise ValueError("model is not a linear Calabi-Yau")
    spec = model.spec
    phis = QSeries.from_coefficients(
        spec, order, {e: relative_phi(model, e) for e in range(order + 1)}
    )
    one_minus_q = QSeries.from_scalars(spec, order, {0: 1, 1: -1})
    s1_over_t = LaurentPoly.single(spec, -1, model.segre_class(1))
    multiplier = one_minus_q * one_minus_q.log().scale(s1_over_t).exp()
    return phis * multiplier


def linear_cy_pushforward(model: RelativeModel, d: int, order: int | None = None) -> CohClass:
    """The t^{-2} coefficient of the q^d term of the linear-CY series.

    Equals (1/d^2) * h^{n+1} * (s_2 - s_1*h) for every d >= 1.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if order is None:
        order = d
    if order < d:
        raise ValueError("series truncation must be at least d")
    return linear_cy_series(model, order).coefficient(d).coefficient(-2)


def linear_cy_expected(model: RelativeModel, d: int) -> CohClass:
    """(1/d^2) * h^{n+1} * (s_2 - s_1*h), reduced in the bundle ring."""
    spec = model.spec
    h = CohClass.h_power(spec, 1)
    top = CohClass.from_terms(spec, {(model.n + 1, ()): Fraction(1)})
    return top * (model.segre_class(2) - model.segre_class(1) * h) * Fraction(1, d * d)
