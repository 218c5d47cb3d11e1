"""Closed-form one-point correlators for projective space and Fano targets.

The central object is the Laurent polynomial

    phi_d(t, h) = prod_i prod_{k=0}^{d*l_i} (l_i*h + k*t) / prod_{k=1}^d (h + k*t)^{n+1}

attached to a complete intersection of type (l_1, ..., l_m) in P^n.  For
Fano targets of index >= 2 the degree-d one-point correlator equals phi_d
on the nose; for index one it acquires an explicit finite correction sum.
Individual invariants are read off as rationals from the t^{-2-a}
coefficient paired against powers of the hyperplane class.

Products of linear forms in phi are built in closed form (Stirling numbers
of the first kind in ``phi_numerator``, binomial coefficients in
``euler_class``), cut at h^{n + base_cutoff}, beyond which every power of h
vanishes by degree; ring products only join these factors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial

from .laurent import LaurentPoly
from .rings import CohClass, RingSpec


class Classification(enum.Enum):
    FANO_INDEX_GE2 = "fano-index-ge2"
    FANO_INDEX_ONE = "fano-index-one"
    CALABI_YAU = "calabi-yau"
    GENERAL_TYPE = "general-type"


class ClassificationError(ValueError):
    """A correlator formula was requested for the wrong positivity class."""


@dataclass(frozen=True)
class CIModel:
    """A complete intersection of type ``degrees`` in P^n (m = 0 is P^n)."""

    n: int
    degrees: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.degrees)

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)

    @property
    def degree_product(self) -> int:
        out = 1
        for l in self.degrees:
            out *= l
        return out

    @property
    def factorial_product(self) -> int:
        out = 1
        for l in self.degrees:
            out *= factorial(l)
        return out

    @property
    def classification(self) -> Classification:
        s = self.total_degree
        if s < self.n:
            return Classification.FANO_INDEX_GE2
        if s == self.n:
            return Classification.FANO_INDEX_ONE
        if s == self.n + 1:
            return Classification.CALABI_YAU
        return Classification.GENERAL_TYPE

    @cached_property
    def spec(self) -> RingSpec:
        return RingSpec.absolute(self.n)

    def correlator_weight(self, d: int) -> int:
        """Total (h,t)-degree of the degree-d correlator terms."""
        return self.m + d * (self.total_degree - self.n - 1)

    def __str__(self) -> str:
        if not self.degrees:
            return f"P^{self.n}"
        return f"({','.join(map(str, self.degrees))}) in P^{self.n}"


def classify(n: int, degrees: tuple[int, ...] | list[int] = ()) -> CIModel:
    """Build a model and classify it by the total degree versus n."""
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    degs = tuple(int(l) for l in degrees)
    if any(l < 1 for l in degs):
        raise ValueError("all degrees must be >= 1")
    return CIModel(n=n, degrees=degs)


def degree_vectors(n: int) -> list[tuple[int, ...]]:
    """All nondecreasing degree vectors (l_1, ..., l_m) with l_1 + ... + l_m <= n.

    These are the Fano (and P^n, m = 0) models in P^n, in depth-first order
    starting from the empty vector.
    """
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, minimum: int) -> None:
        out.append(prefix)
        for l in range(minimum, remaining + 1):
            rec(prefix + (l,), remaining - l, l)

    rec((), n, 1)
    return out


def phi_numerator(spec: RingSpec, degrees: tuple[int, ...], d: int) -> LaurentPoly:
    """prod_i prod_{k=0}^{d*l_i} (l_i*h + k*t), the numerator of phi_d.

    Each factor is built in closed form: prod_{k=0}^{D} (l*h + k*t) is
    sum_j c(D+1, j) * l^j * h^j * t^{D+1-j}, with c the unsigned Stirling
    numbers of the first kind, so m factors cost m - 1 ring products.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    top = spec.n + spec.base_cutoff  # h^j vanishes by degree for j > top
    out = None
    for l in degrees:
        row = [1] + [0] * top  # c(0, j) for j <= top
        for k in range(d * l + 1):  # c(k+1, j) = k*c(k, j) + c(k, j-1)
            row = [k * row[0]] + [k * row[j] + row[j - 1] for j in range(1, top + 1)]
        factor = LaurentPoly._form(spec, d * l + 1, [c * l**j for j, c in enumerate(row)])
        out = factor if out is None else out * factor
    return LaurentPoly.one(spec) if out is None else out


def euler_class(spec: RingSpec, chern: tuple[CohClass, ...], d: int) -> LaurentPoly:
    """prod_{k=1}^d sum_j c_j * (h + k*t)^{n+1-j}: prod_j (h + alpha_j + k*t) over Chern roots.

    ``chern`` is c_1..c_{n+1} or a prefix of it (c_0 = 1); zero classes are
    skipped, and with none this is prod_k (h + k*t)^{n+1}, the Euler class on P^n.
    Each power (h + k*t)^p is built in closed form by ``LaurentPoly.linear_power``.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    top = spec.n + 1
    out = LaurentPoly.one(spec)
    for k in range(1, d + 1):
        factor = LaurentPoly.linear_power(spec, k, top)
        for j, cj in enumerate(chern, start=1):
            if not cj.is_zero():
                factor = factor + LaurentPoly.linear_power(spec, k, top - j) * cj
        out = out * factor
    return out


@lru_cache(maxsize=None)
def phi(model: CIModel, d: int) -> LaurentPoly:
    """The degree-d hypergeometric Laurent polynomial of the model.

    For d = 0 the products are empty apart from the k = 0 factors, leaving
    (prod l_i) * h^m, the class of the complete intersection itself.  The
    denominator is inverted once per (n, d), by P^n's own cached phi.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d == 0:
        return phi_numerator(model.spec, model.degrees, d)
    if not model.degrees:
        return euler_class(model.spec, (), d).inverse()
    return phi_numerator(model.spec, model.degrees, d) * phi(replace(model, degrees=()), d)


@lru_cache(maxsize=None)
def pn_one_point(n: int, d: int) -> LaurentPoly:
    """One-point correlator of P^n itself: 1 / prod_{k=1}^d (h + k*t)^{n+1}.

    Computed factor by factor (each linear term inverted on its own), which
    keeps the code path independent from :func:`phi`.
    """
    spec = RingSpec.absolute(n)
    out = LaurentPoly.one(spec)
    for k in range(1, d + 1):
        out = out * LaurentPoly.linear(spec, 1, k).inverse() ** (n + 1)
    return out


def fano_ge2_correlator(model: CIModel, d: int) -> LaurentPoly:
    """Degree-d correlator for Fano models of index two or more: phi_d."""
    if model.classification is not Classification.FANO_INDEX_GE2:
        raise ClassificationError(
            f"not Fano of index >= 2: l_1+...+l_m >= n for {model}"
        )
    return phi(model, d)


def fano_index1_correlator(model: CIModel, d: int) -> LaurentPoly:
    """Degree-d correlator for Fano models of index one.

    The value is the finite sum over r of (-prod l_i!)^r phi_{d-r} / (r! t^r);
    the r = 0 term alone gives the d = 0 convention phi_0.
    """
    if model.classification is not Classification.FANO_INDEX_ONE:
        raise ClassificationError(f"not Fano of index one: l_1+...+l_m != n for {model}")
    spec = model.spec
    sign_factor = -model.factorial_product
    out = LaurentPoly.zero(spec)
    for r in range(d + 1):
        weight = Fraction(sign_factor**r, factorial(r))
        out = out + phi(model, d - r).shift_t(-r) * weight
    return out


def one_point_invariant(correlator: LaurentPoly, a: int, b: int) -> Fraction | CohClass:
    """The invariant with one cotangent power a and hyperplane power b.

    Reads the t^{-2-a} coefficient of the correlator, multiplies by h^b and
    integrates over the fiber.  Missing exponents give zero.
    """
    if a < 0 or b < 0:
        raise ValueError("exponents must be >= 0")
    cls = correlator.coefficient(-2 - a)
    return (CohClass.h_power(correlator.spec, b) * cls).integrate()
