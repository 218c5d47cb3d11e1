"""Closed-form one-point correlators for projective space and Fano targets.

The central object is the Laurent polynomial

    phi_d(t, h) = prod_i prod_{k=0}^{d*l_i} (l_i*h + k*t) / prod_{k=1}^d (h + k*t)^{n+1}

attached to a complete intersection of type (l_1, ..., l_m) in P^n.  For
Fano targets of index >= 2 the degree-d one-point correlator equals phi_d
on the nose; for index one it acquires an explicit finite correction sum.
Individual invariants are read off as rationals from the t^{-2-a}
coefficient paired against powers of the hyperplane class.

Over a projectivized bundle P(V) on a formal base the Euler class is expanded
in c(V); P^n is the bundle over a point, so one model (``CIModel``) and one
``phi`` serve both.  The correlator formulas are for P^n itself.

Products of linear forms in phi are built in closed form, cut at
h^{n + base_cutoff}, beyond which every power of h vanishes by degree, as int
forms, ``laurent``'s ``_Form`` and its helpers: each numerator factor from
Stirling numbers of the first kind (``_numerator_factor``), and the powers of
``euler_class`` from binomial coefficients.  No Laurent polynomial is
inverted.  With x = h + k*t, the degree-k Euler factor is x^{n+1} * c(1/x), so
its inverse is x^{-(n+1)} * f_k, with f_k = sum_l sigma_l * x^{-l} and
sigma = 1/c.  So phi_d of (l_1..l_m) is one form, that of (l_1..l_{m-1})
times one numerator factor, down to prod_k x^{-(n+1)} for (), chained from the
degree below; on a bundle it is that form times u_d = prod_{k<=d} f_k
(``_unit``), the chain of sigma-factors that the linear Calabi-Yau pipeline
reads too, one ring product per degree.  On P^n, sigma = () and u_d = 1, so
phi_d and the index-one sum are forms alone.
"""

from __future__ import annotations

import enum
import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm, prod
from typing import Sequence

from .laurent import LaurentPoly, _Form, _binomial, _form_product, _form_sum, _linear_power_list
from .laurent import _reduced
from .rings import CohClass, Mono, NotInvertibleError, Numerators, RingSpec, _lowest, _Record
from .rings import _setfield, generator_mono, mono_mul

# A base polynomial with int coefficients: stripped monomial -> coefficient.
IntPoly = dict[Mono, int]


class Classification(enum.Enum):
    FANO_INDEX_GE2 = "fano-index-ge2"
    FANO_INDEX_ONE = "fano-index-one"
    CALABI_YAU = "calabi-yau"
    GENERAL_TYPE = "general-type"


class ClassificationError(ValueError):
    """A correlator formula was requested for the wrong positivity class."""


def _integer(value: int, what: str) -> int:
    """``value`` as an int; ValueError naming ``what`` when it is not an integer."""
    if type(value) is int:
        return value
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def _degree_tuple(degrees: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """``degrees`` as the tuple of ints a model stores; each must be an integer >= 1."""
    try:
        degrees = iter(degrees)
    except TypeError:
        raise TypeError(
            f"degrees must be an iterable of integers, not {degrees!r}; "
            "base_cutoff is keyword-only (CIModel(n, degrees, base_cutoff=m))"
        ) from None
    degs = tuple(_integer(l, "degree") for l in degrees)
    if degs and min(degs) < 1:
        raise ValueError("all degrees must be >= 1")
    return degs


def _inverse_series(a: tuple[IntPoly, ...], cutoff: int) -> tuple[IntPoly, ...]:
    """b_0..b_cutoff with (sum_k b_k*u^k) * (1 + sum_{i>=1} a_i*u^i) = 1 + O(u^{cutoff+1}).

    ``a`` is a_1, a_2, ... as integral base polynomials, a_i of base degree i (a_i = 0
    past its end); the recursion is b_k = -sum_{i=1}^{min(k, len(a))} a_i * b_{k-i},
    so b_k is integral of base degree k.
    """
    b: list[IntPoly] = [{(): 1}]
    for k in range(1, cutoff + 1):
        acc: IntPoly = {}
        for i, a_i in enumerate(a[:k], start=1):
            for mono_a, coeff_a in a_i.items():
                for mono_b, coeff_b in b[k - i].items():
                    mono = mono_mul(mono_a, mono_b)
                    acc[mono] = acc.get(mono, 0) - coeff_a * coeff_b
        b.append({m: c for m, c in acc.items() if c})
    return tuple(b)


@lru_cache(maxsize=None)
def _chern_from_segre(cutoff: int) -> tuple[IntPoly, ...]:
    """c_0..c_cutoff as integral base polynomials, from s(V) * c(V) = 1.

    Generator i (0-based index i-1) is s_i with degree i.  Cached: callers
    must not mutate.
    """
    segre = tuple({generator_mono(i): 1} for i in range(cutoff))
    return _inverse_series(segre, cutoff)


@lru_cache(maxsize=None)
def relative_ring(n: int, base_cutoff: int) -> RingSpec:
    """The cohomology ring of P(V) with formal Segre generators s_1..s_cutoff;
    at cutoff 0 the ``RingSpec.absolute(n)`` instance, so its basis is built once."""
    if not base_cutoff:
        return RingSpec.absolute(n)
    generators = tuple((f"s{i}", i) for i in range(1, base_cutoff + 1))
    chern = _chern_from_segre(base_cutoff)
    top = min(n + 1, base_cutoff)
    rule = [(n + 1 - j, mono, -c) for j in range(1, top + 1) for mono, c in chern[j].items()]
    return RingSpec.relative(n, generators, base_cutoff, rule)


class CIModel(_Record):
    """A complete intersection of type ``degrees`` in P^n, or in a P^n-bundle over a
    formal base cut at the keyword-only ``base_cutoff`` (m = 0 is the ambient)."""

    _fields = ("n", "degrees", "base_cutoff")
    n: int
    degrees: tuple[int, ...]
    base_cutoff: int

    def __init__(self, n: int, degrees: Sequence[int] = (), *, base_cutoff: int = 0) -> None:
        n = _integer(n, "ambient dimension")
        base_cutoff = _integer(base_cutoff, "base cutoff")
        if n < 1:
            raise ValueError("ambient dimension must be >= 1")
        if base_cutoff < 0:
            raise ValueError("base cutoff must be >= 0")
        _setfield(self, "n", n)
        _setfield(self, "degrees", _degree_tuple(degrees))
        _setfield(self, "base_cutoff", base_cutoff)

    # Written out, not the generic _Record methods: a model keys the phi, Euler-class
    # and series caches, hashed on every lookup.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.n, self.degrees, self.base_cutoff) == (
                other.n, other.degrees, other.base_cutoff
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.degrees, self.base_cutoff))

    @property
    def m(self) -> int:
        return len(self.degrees)

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)

    @property
    def degree_product(self) -> int:
        return prod(self.degrees)

    @property
    def factorial_product(self) -> int:
        return prod(factorial(l) for l in self.degrees)

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
        chern = _chern_from_segre(self.base_cutoff)[j]
        return CohClass(spec, {(0, mono): c for mono, c in chern.items()})

    def correlator_weight(self, d: int) -> int:
        """Total (h,t)-degree of the degree-d correlator terms."""
        return self.m + d * (self.total_degree - self.n - 1)

    def __str__(self) -> str:
        space = f"P^{self.n}"
        if self.base_cutoff:
            space += f"-bundle (base cutoff {self.base_cutoff})"
        if not self.degrees:
            return space
        return f"({','.join(map(str, self.degrees))}) in {space}"


def classify(n: int, degrees: tuple[int, ...] | list[int] = ()) -> CIModel:
    """Build a model in P^n; its ``classification`` compares the total degree with n."""
    return CIModel(n, degrees)


def _require_absolute(model: CIModel) -> None:
    """ClassificationError for a bundle model: the correlator formulas are for P^n."""
    if model.base_cutoff:
        raise ClassificationError(f"correlators need base cutoff 0, not a bundle model: {model}")


@lru_cache(maxsize=None)
def _euler_sigma(n: int, base_cutoff: int) -> tuple[CohClass, ...]:
    """sigma_1..sigma_cutoff, with sigma(u) = 1 / sum_{j<=n+1} c_j*u^j, as classes
    of the bundle's ring: the ``sigma`` of the unit factors (``_unit``), () on P^n.

    These are the Segre classes only when base_cutoff <= n + 1; above that,
    c_j for j > n + 1 is left out of the Euler class, so they differ.
    """
    spec = relative_ring(n, base_cutoff)
    sigma = _inverse_series(_chern_from_segre(base_cutoff)[1 : n + 2], base_cutoff)
    return tuple(CohClass(spec, {(0, mono): c for mono, c in s.items()}) for s in sigma[1:])


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


@lru_cache(maxsize=None)
def _stirling_row(D: int, top: int) -> tuple[int, ...]:
    """c(D+1, j) for j <= top, the unsigned Stirling numbers of the first kind:
    the coefficients of prod_{k=0}^{D} (x + k), cut at x^top.  Cached by (D, top),
    since most rows repeat across degree vectors; callers must not mutate."""
    row = [1] + [0] * top  # c(0, j) for j <= top
    for k in range(D + 1):  # c(k+1, j) = k*c(k, j) + c(k, j-1)
        row = [k * row[0]] + [k * row[j] + row[j - 1] for j in range(1, top + 1)]
    return tuple(row)


def _numerator_factor(l: int, d: int, top: int) -> _Form:
    """prod_{k=0}^{d*l} (l*h + k*t), cut at h^top, as the form of sum_j c(d*l+1, j) *
    l^j * h^j * t^{d*l+1-j}, c the Stirling numbers of the first kind (``_stirling_row``)."""
    factor = _stirling_row(d * l, top)
    return d * l + 1, factor if l == 1 else [c * l**j for j, c in enumerate(factor)], 1


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


def linear_power_sum(
    spec: RingSpec, sigma: tuple[CohClass, ...], k: int, p: int, s: int = 0,
    t_exp: int | None = None,
) -> LaurentPoly:
    """sum_{l>=0} sigma_l * h^s * (h + k*t)^{p-l} in closed form, sigma_0 = 1.

    ``sigma`` is sigma_1, sigma_2, ...  Each power is ``LaurentPoly.linear_power``'s
    sum_j C(q, j) * k^{q-j} * h^j * t^{q-j}, stopped where sigma_l's term times
    h^{s+j} vanishes by degree; it needs k != 0 when q < 0.  Every term goes
    through ``Basis.normal`` once, and the sum is one dict over one denominator:
    k^B, with B the largest j - q, times the lcm of sigma's denominators.

    With ``t_exp`` given, only the t^{t_exp} row is built: a term's power of t is
    q - j, so each power contributes its one term j = q - t_exp (none when that j
    is out of range), and the result is exactly the full sum's t^{t_exp} row.
    """
    basis = spec.basis
    size, stride, degree = basis.size, basis.stride, basis.degree
    last = spec.n + spec.base_cutoff
    powers = [(p, {0: 1}, 1)]
    powers += [(p - l, s_l._num, s_l._den) for l, s_l in enumerate(sigma, 1) if not s_l.is_zero()]
    if not k and powers[-1][0] < 0:
        raise NotInvertibleError(f"h is nilpotent, so (h + 0*t)^{powers[-1][0]} is not defined")
    sigma_den = lcm(*(den for _, _, den in powers))
    # (q, key of sigma_l's term, its numerator over sigma_den, the last j);
    # C(q, j) = 0 for j > q >= 0
    terms = [
        (q, b, v * (sigma_den // den), min(last - s - degree[b], q if q >= 0 else last))
        for q, num, den in powers
        for b, v in num.items()
    ]
    big = max(0, *(j - q for q, _, _, j in terms))
    den = k**big
    sign = -1 if den < 0 else 1
    num: Numerators = {}
    for q, b, v, last_j in terms:
        j_range = range(last_j + 1)
        if t_exp is not None:  # the term at t^{q-j} = t^{t_exp} alone
            j_range = range(max(q - t_exp, 0), min(q - t_exp, last_j) + 1)
        for j in j_range:
            a = sign * v * _binomial(q, j) * k ** (q - j + big)
            low = (q - j) * stride
            for key, w in basis.normal(b + (s + j) * size).items():
                num[low + key] = num.get(low + key, 0) + a * w
    num = {c: v for c, v in num.items() if v}
    return LaurentPoly._new(spec, *_lowest(num, sign * den * sigma_den * basis.tail_den))


# A cold chain caches every _CHAIN_STEP-th degree bottom-up first, so it
# recurses at most _CHAIN_STEP degrees deep, whatever d is.
_CHAIN_STEP = 64


def _chain_below(cached, key, d: int):
    """``cached(key, d - 1)`` for a cache ``cached`` whose degree-d value is built
    from its degree-(d-1) one, after caching every _CHAIN_STEP-th degree below it;
    ``key`` is the model, or (n, top) or (n, base_cutoff) for a shared chain."""
    for lower in range(_CHAIN_STEP, d - 1, _CHAIN_STEP):
        cached(key, lower)
    return cached(key, d - 1)


@lru_cache(maxsize=None)
def _pn_inverse_euler(key: tuple[int, int], d: int) -> _Form:
    """prod_{k=1}^d (h + k*t)^{-(n+1)}, d >= 1, for key = (n, top), as a form cut at
    h^top in lowest terms, its coefficients a tuple: the degree-(d-1) form times
    ``_linear_power_list`` at k = d, one ``_form_product`` and one gcd."""
    n, top = key
    form = _linear_power_list(d, -(n + 1), top)
    if d > 1:
        form = _form_product(_chain_below(_pn_inverse_euler, key, d), form, top)
    return _reduced(form)


@lru_cache(maxsize=None)
def _phi_form(key: tuple[int, int], degrees: tuple[int, ...], d: int) -> _Form:
    """phi_d's numerator over prod_{k<=d} (h + k*t)^{n+1} for key = (n, top), cut at
    h^top, its coefficients a tuple: the cached form of ``degrees[:-1]`` (so shared by
    every model with that prefix, len(degrees) levels deep) times the last degree's
    ``_numerator_factor``, one ``_form_product``; for () ``_pn_inverse_euler``, 1 at d = 0."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    if degrees:
        factor = _numerator_factor(degrees[-1], d, key[1])
        form = _form_product(_phi_form(key, degrees[:-1], d), factor, key[1])
        return form[0], tuple(form[1]), form[2]
    return _pn_inverse_euler(key, d) if d else (0, (1,), 1)


def _phi_list(model: CIModel, d: int) -> _Form:
    """The model's ``_phi_form`` at top = n + base_cutoff: phi_d itself on P^n."""
    return _phi_form((model.n, model.n + model.base_cutoff), model.degrees, d)


@lru_cache(maxsize=None)
def _unit(key: tuple[int, int], e: int) -> LaurentPoly:
    """u_e = prod_{k=1}^e f_k for key = (n, base_cutoff): the inverse Euler class
    with prod_k (h + k*t)^{-(n+1)} factored off.

    The degree-k Euler factor is x^{n+1} * c(1/x) with x = h + k*t, so its
    inverse is x^{-(n+1)} * f_k, f_k = 1/c(1/x) = sum_i sigma_i * x^{-i}:
    ``linear_power_sum`` at p = 0 with the bundle's sigma.  u_0 = 1, and u_e is
    the cached u_{e-1} times f_e, one ring product per degree, filled
    bottom-up through ``_chain_below``.  On P^n every f_k is 1.
    """
    n, cutoff = key
    sigma = _euler_sigma(n, cutoff)
    spec = sigma[0].spec if sigma else RingSpec.absolute(n)  # the ring sigma lives in
    if e == 0:
        return LaurentPoly.one(spec)
    factor = linear_power_sum(spec, sigma, e, 0)
    return factor if e == 1 else _chain_below(_unit, key, e) * factor


@lru_cache(maxsize=None)
def phi(model: CIModel, d: int) -> LaurentPoly:
    """The degree-d hypergeometric Laurent polynomial of the model: its numerator
    over the Euler class, expanded in c(V) on a bundle.

    For d = 0 the products are empty apart from the k = 0 factors, leaving
    (prod l_i) * h^m, the class of the complete intersection itself.  phi_d
    is one form built from its degree vector's prefix (``_phi_list``), times the
    unit factor u_d (``_unit``) on a bundle, where sigma != 1: one ring
    product.  On P^n it is the form alone, built with no ring product.
    """
    form = LaurentPoly._form(model.spec, *_phi_list(model, d))
    return form * _unit((model.n, model.base_cutoff), d) if model.base_cutoff else form


@lru_cache(maxsize=None)
def pn_one_point(n: int, d: int) -> LaurentPoly:
    """One-point correlator of P^n itself: 1 / prod_{k=1}^d (h + k*t)^{n+1}.

    Computed factor by factor (each linear term inverted on its own), which
    keeps the code path independent from :func:`phi`.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    spec = RingSpec.absolute(n)
    out = LaurentPoly.one(spec)
    for k in range(1, d + 1):
        out = out * LaurentPoly.linear(spec, 1, k).inverse() ** (n + 1)
    return out


def fano_ge2_correlator(model: CIModel, d: int) -> LaurentPoly:
    """Degree-d correlator for Fano models of index two or more: phi_d."""
    _require_absolute(model)
    if model.classification is not Classification.FANO_INDEX_GE2:
        raise ClassificationError(
            f"not Fano of index >= 2: l_1+...+l_m >= n for {model}"
        )
    return phi(model, d)


def fano_index1_correlator(model: CIModel, d: int) -> LaurentPoly:
    """Degree-d correlator for Fano models of index one.

    The value is the finite sum over r of (-prod l_i!)^r phi_{d-r} / (r! t^r);
    the r = 0 term alone gives the d = 0 convention phi_0.  On index one every
    term is a form of degree m - d, so the sum is one ``_form_sum`` of the
    cached phi_{d-r} forms (``_phi_list``) with weights (-prod l_i!)^r over r!.
    """
    _require_absolute(model)
    if model.classification is not Classification.FANO_INDEX_ONE:
        raise ClassificationError(f"not Fano of index one: l_1+...+l_m != n for {model}")
    if d < 0:
        raise ValueError("degree must be >= 0")
    sign = -model.factorial_product
    terms = [(sign**r, _phi_list(model, d - r), factorial(r)) for r in range(d + 1)]
    return LaurentPoly._form(model.spec, *_form_sum(model.m - d, terms))


def one_point_invariant(correlator: LaurentPoly, a: int, b: int) -> Fraction | CohClass:
    """The invariant with one cotangent power a and hyperplane power b.

    Reads the t^{-2-a} coefficient of the correlator, multiplies by h^b and
    integrates over the fiber.  Missing exponents give zero.
    """
    if a < 0 or b < 0:
        raise ValueError("exponents must be >= 0")
    cls = correlator.coefficient(-2 - a)
    return (CohClass.h_power(correlator.spec, b) * cls).integrate()
