"""Correlators over a formal base: projective bundles and Segre classes.

The fiberwise story generalizes to a projectivized rank-(n+1) bundle over a
base carrying formal Segre classes s_1, s_2, ....  Chern classes are
recovered from s(V)*c(V) = 1, powers of h above n reduce through
sum_j c_j * h^{n+1-j} = 0, and the degree-d equivariant Euler class becomes
prod_{k=1}^d prod_j (h + alpha_j + k*t), expanded symmetrically so the
Chern roots alpha_j never appear individually.

The bundle's ring, model and phi live in ``correlators``.  Included here: the
relative Euler class, degree-one Schubert push-forwards with the Porteous formula
for lines, and the linear Calabi-Yau pipeline where every lambda is -(1/e)(t + s_1).

No product of linear forms is multiplied out here either.  For the linear
Calabi-Yau, phi_e's numerator prod_{k=0}^e (h + k*t)^{n+1} cancels the
(h + k*t)^{n+1} of each degree-k Euler factor, so phi_e = h^{n+1} * u_e with
u_e the chain of unit factors ``correlators._unit`` that ``phi`` multiplies
by too, and the linear-CY pipeline builds no numerator.  The Schubert term
is one ``linear_power_sum`` per monomial of the Schubert polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .correlators import CIModel, _chain_below, _euler_sigma, _unit, euler_class
from .correlators import linear_power_sum, phi, relative_ring  # relative_ring is public here too
from .laurent import LaurentPoly
from .rings import CohClass, RingSpec, _Record, _setfield
from .series import QSeries

# P^n is the bundle over a point, so a bundle model is a CIModel with a base cutoff.
RelativeModel = CIModel


def linear_cy_model(n: int, base_cutoff: int) -> CIModel:
    """The linear Calabi-Yau: n+1 transverse sections of O(1) on P(V)."""
    return CIModel(n, (1,) * (n + 1), base_cutoff=base_cutoff)


@lru_cache(maxsize=None)
def relative_euler(model: CIModel, d: int) -> LaurentPoly:
    """prod_{k=1}^d prod_j (h + alpha_j + k*t), expanded in the Chern classes of V."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    chern = tuple(model.chern_class(j) for j in range(1, model.n + 2))
    return euler_class(model.spec, chern, d)


@lru_cache(maxsize=None)
def relative_phi(model: CIModel, d: int) -> LaurentPoly:
    """``phi(model, d)``, cached under this module's name, where the benchmark's
    cache checks and traced spans look for it."""
    return phi(model, d)


class SchubertInput(_Record):
    """A symmetric polynomial in two Chern roots q_1, q_2."""

    _fields = ("coefficients",)
    coefficients: tuple[tuple[tuple[int, int], Fraction], ...]

    def __init__(self, coefficients: tuple[tuple[tuple[int, int], Fraction], ...]) -> None:
        _setfield(self, "coefficients", coefficients)

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
        """sigma(h, h + t) as a Laurent polynomial.

        Only the tests call this: times the bundle's degree-1 ``phi``
        it is the oracle of ``relative_schubert_leading``.
        """
        out = LaurentPoly.zero(spec)
        for (i, j), c in self.coefficients:
            term = LaurentPoly.single(spec, 0, CohClass.h_power(spec, i) * c)
            out = out + term * LaurentPoly.linear_power(spec, 1, j)
        return out


def relative_schubert_leading(
    model: CIModel, sigma: SchubertInput, t_exp: int | None = None
) -> LaurentPoly:
    """Main term of the degree-one Schubert push-forward:
    sigma(h, h+t) / prod_j (h + alpha_j + t).

    With 1 / prod_j (h + alpha_j + t) = sum_l sigma_l * (h + t)^{-(n+1)-l}
    (the bundle's degree-1 ``phi``), the term for c * q_1^i * q_2^j is
    c * sum_l sigma_l * h^i * (h + t)^{j-(n+1)-l}, one ``linear_power_sum``
    with no ring product; ``SchubertInput.evaluate`` times the bundle's
    ``phi`` at degree 1 is the test oracle.  With ``t_exp`` given,
    only the t^{t_exp} row is built, passed on to each ``linear_power_sum``:
    the term is a sum of those, so its row is the sum of their rows.

    Coefficients at t^{-1} and below may carry an uncertified boundary
    correction; callers should only extract what the Porteous pipeline
    extracts.
    """
    spec, top, inverse_c = model.spec, model.n + 1, _euler_sigma(model.n, model.base_cutoff)
    terms = (
        linear_power_sum(spec, inverse_c, 1, j - top, i, t_exp) * c
        for (i, j), c in sigma.coefficients
    )
    return LaurentPoly.sum(spec, terms)


def porteous_lines(model: CIModel) -> CohClass:
    """Push-forward of the class of lines in m linear sections of P(V).

    Takes the t^{-2} coefficient of the main Schubert term for
    sigma = (q_1 q_2)^m, multiplies by h and integrates over the fiber; the
    result is ``porteous_expected``.  Only that row is read, so only that row
    of the Schubert term is built.
    """
    if model.degrees != (1,) * model.m or not 1 <= model.m <= model.n + 1:
        raise ValueError("expected m sections of O(1) with 1 <= m <= n+1")
    spec = model.spec
    main = relative_schubert_leading(model, SchubertInput.product_power(model.m), t_exp=-2)
    cls = main.coefficient(-2)
    pushed = (CohClass.h_power(spec, 1) * cls).integrate()
    if isinstance(pushed, Fraction):
        return CohClass.scalar(spec, pushed)
    return pushed


def porteous_expected(model: CIModel) -> CohClass:
    """The classical answer: s_{m-n+1}^2 - s_{m-n} * s_{m-n+2} for n >= 2, c_2(V)^m for n = 1.

    For n >= 2 every Segre index here is at most n + 1, where the formal s_i
    are the Segre classes of the rank-(n+1) bundle V.  For n = 1 the fiber is
    the only line in it, so the locus is the zero locus of the m sections of
    V^*, of class c_2(V)^m; the formula's s_3 (at m = 2) would need
    c_3(V) = 0, which the formal base does not impose.
    """
    if model.n == 1:
        return model.chern_class(2) ** model.m
    k = model.m - model.n
    s = model.segre_class
    return s(k + 1) * s(k + 1) - s(k) * s(k + 2)


# -- linear Calabi-Yau pipeline -------------------------------------------


def linear_cy_lambda(model: CIModel, e: int) -> tuple[Fraction, CohClass]:
    """The degree-e linear form lambda_e(t) = a_e*t + b_e = -(1/e)(t + s_1).

    Returned as the pair (a_e, b_e) with a_e rational and b_e a base class;
    for linear Calabi-Yau's the form is independent of h.
    """
    if e < 1:
        raise ValueError("degree must be >= 1")
    return Fraction(-1, e), model.segre_class(1) * Fraction(-1, e)


def derive_linear_cy_lambdas(
    model: CIModel, max_degree: int
) -> list[tuple[Fraction, CohClass]]:
    """Re-derive the linear-CY lambdas by generating-function matching.

    Degree by degree, the t^0 row of u(q) * E(q), E = exp(sum_e lambda_e q^e / t),
    must vanish above q^0 (fixing a_e) and the t^{-1} row must vanish (fixing
    b_e), where u(q) = sum_e q^e * u_e is the phi series with the class h^{n+1}
    factored off (``_unit``), so its t^0 row is invertible.  E is streamed by
    k*E_k = sum_{j<=k} j*L_j*E_{k-j}, L_j = lambda_j / t: with ``partial`` that
    sum at k = e without its j = e term, the q^e row is
    sum_{i>=1} u_i*E_{e-i} + partial (u_0 = 1), and E_e = partial + L_e once L_e
    is solved, O(max_degree^2) products in all.  The rows read only derived
    lambdas; each is checked against the closed form -(1/e)(t+s_1) and a
    mismatch raises ArithmeticError.

    Only the t^0 and t^{-1} rows are read, and every u_i, L_j and E_k lies in
    t^{<=0}, so a term below t^{-1} of any factor adds only below t^{-1}: the
    unit factors and ``partial``, and so every E_k, are kept modulo t^{-2},
    which leaves both rows exact while the row's other coefficients are not
    those of u(q) * E(q).
    """
    if not model.is_linear_cy:
        raise ValueError("model is not a linear Calabi-Yau")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    spec = model.spec
    key = (model.n, model.base_cutoff)
    u = [_unit(key, e).above(-1) for e in range(max_degree + 1)]
    exp_coeffs = [LaurentPoly.one(spec)]  # E_0..E_{e-1}
    weighted: list[LaurentPoly] = []  # j*L_j at index j - 1
    out: list[tuple[Fraction, CohClass]] = []
    for e in range(1, max_degree + 1):
        terms = (weighted[j - 1] * exp_coeffs[e - j] for j in range(1, e))
        partial = LaurentPoly.sum(spec, terms).above(-1) * Fraction(1, e)
        row = LaurentPoly.sum(
            spec, [*(u[i] * exp_coeffs[e - i] for i in range(1, e + 1)), partial]
        )
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
        exp_coeffs.append(partial + lam_over_t)
        weighted.append(lam_over_t * e)
        out.append((a_e, b_e))
    return out


@lru_cache(maxsize=None)
def _multiplier(model: CIModel, k: int) -> LaurentPoly:
    """M_k, the q^k coefficient of (1 - q)^{1 + s_1/t} = (1 - q) * exp((s_1/t) log(1 - q)):
    M_k = (-1)^k C(1 + s_1/t, k) = M_{k-1} * (k - 2 - s_1/t)/k, one product with a
    two-term polynomial per degree.  Cached per (model, k)."""
    spec = model.spec
    if k == 0:
        return LaurentPoly.one(spec)
    s1 = model.segre_class(1)
    step = {0: CohClass.scalar(spec, Fraction(k - 2, k)), -1: s1 * Fraction(-1, k)}
    return _chain_below(_multiplier, model, k) * LaurentPoly(spec, step)


@lru_cache(maxsize=None)
def _unit_phi(model: CIModel, e: int) -> LaurentPoly:
    """phi_e of the linear Calabi-Yau as h^{n+1} * u_e (``_unit``): one product by
    the class h^{n+1}, with no numerator.  Equal to ``phi(model, e)``, which
    would also build the numerator's form and multiply by it.  Cached per
    (model, e)."""
    return _unit((model.n, model.base_cutoff), e) * CohClass.h_power(model.spec, model.n + 1)


@lru_cache(maxsize=None)
def _series_coefficient(model: CIModel, k: int) -> LaurentPoly:
    """G_k = sum_{e<=k} phi_e * M_{k-e}, the q^k coefficient of ``linear_cy_series``:
    k + 1 products of ``_unit_phi`` and ``_multiplier`` in one ``LaurentPoly.sum``.
    Cached per (model, k), so the series to q^D costs O(D^2) products however many
    truncations are asked for."""
    terms = (_unit_phi(model, e) * _multiplier(model, k - e) for e in range(k + 1))
    return LaurentPoly.sum(model.spec, terms)


def linear_cy_series(model: CIModel, order: int) -> QSeries:
    """(sum_e q^e phi_e) * (1 - q)^{1 + s_1/t}.

    This is the correlator generating series of the linear Calabi-Yau with
    the closed-form lambdas substituted in; its t^0 and t^{-1} rows vanish
    in every positive q-degree.  Its coefficients are the model's cached
    ``_series_coefficient``s, shared by every truncation, over phi_e =
    h^{n+1} * u_e from the chain of unit factors (``_unit_phi``), so the
    series does not call ``phi``.
    """
    if not model.is_linear_cy:
        raise ValueError("model is not a linear Calabi-Yau")
    return QSeries(model.spec, order, {k: _series_coefficient(model, k) for k in range(order + 1)})


def linear_cy_pushforward(model: CIModel, d: int, order: int | None = None) -> CohClass:
    """The t^{-2} coefficient of the q^d term of the linear-CY series.

    Equals (1/d^2) * h^{n+1} * (s_2 - s_1*h) for every d >= 1.  The q^d
    term does not depend on the series' truncation, so the series is built
    to q^d; ``order``, when given, is only checked to be at least d.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if order is not None and order < d:
        raise ValueError("series truncation must be at least d")
    return linear_cy_series(model, d).coefficient(d).coefficient(-2)


def linear_cy_expected(model: CIModel, d: int) -> CohClass:
    """(1/d^2) * h^{n+1} * (s_2 - s_1*h), reduced in the bundle ring."""
    spec = model.spec
    h = CohClass.h_power(spec, 1)
    top = CohClass(spec, {(model.n + 1, ()): 1})
    return top * (model.segre_class(2) - model.segre_class(1) * h) * Fraction(1, d * d)
