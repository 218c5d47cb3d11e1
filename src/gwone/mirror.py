"""The change of variables relating the correlator series to the phi series.

Write Sigma(q) for the correlator generating series and Phi(q) for the phi
series of a Calabi-Yau model.  The lambda table transforms into mirror-map
coefficients (a_e, b_e) through a "cast out the non-linear terms" rule, and
the two series are then related by

    Sigma(q) = exp((h/t) f(q) + g(q)) * Phi(q * exp(f(q)))

with f = sum a_e q^e and g = sum b_e q^e.  This module implements the
transform, the double-comb generating function behind it (whose logarithm
is linear in the y-variables), and an exact verifier for the identity.
Every chain sum, in the transforms and in the verifier's comb form, is one
``calabi_yau._chain_sums`` recursion on the int forms of ``laurent``,
polynomial in the degree and with no ring product.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .calabi_yau import (
    LambdaForm,
    _chain_sums,
    _lambdas_and_correlators,
    _require_calabi_yau,
    _table,
    cy_correlator,
)
from .correlators import CIModel, _phi_list, phi
from .laurent import LaurentPoly, _form_sum
from .rings import CohClass, RingSpec, _Record
from .series import QSeries


def _rational_chain_sums(order: int, weight: Callable[[int, int], Fraction]) -> dict[int, Fraction]:
    """``_chain_sums`` from the form 1, each Fraction weight as the tooth (num, 0, den),
    and each q's row terms summed by one ``_form_sum``; a negative order raises ValueError."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")

    def tooth(delta: int, start: int) -> tuple[int, int, int]:
        w = weight(delta, start)
        return w.numerator, 0, w.denominator

    sums = {q: _form_sum(0, terms) for q, terms in _chain_sums(order, (0, [1], 1), tooth).items()}
    return {q: Fraction(coeffs[0], den) for q, (_, coeffs, den) in sums.items()}


def corollary_transform(
    x: Mapping[int, Fraction], y: Mapping[int, Fraction], max_degree: int
) -> dict[int, Fraction]:
    """y'_d = sum over chains 0 < d_1 < ... < d_r = d of
    y_{d_1} * prod_{i=2}^r (x_{d_i - d_{i-1}} * d_{i-1}) / r!.

    The y-values are rational, and a class-valued y raises :class:`TypeError`:
    the transform is linear in y, so transform one component at a time.
    """

    def weight(delta: int, start: int) -> Fraction:
        return Fraction(y[delta]) if start == 0 else Fraction(x[delta]) * start

    return _rational_chain_sums(max_degree, weight)


def double_comb_series(x: Mapping[int, Fraction], y: Mapping[int, Fraction], order: int) -> QSeries:
    """The generating function F(q) = sum over chains of
    prod (y_{d_i - d_{i-1}} + x_{d_i - d_{i-1}} * d_{i-1}) / r! per degree.

    F(x, 0) = 1 because every chain carries a y_{d_1} factor; log F is
    linear in the y-variables, which is what makes the corollary transform
    work.  Returned as a series over Q (``RingSpec.absolute(0)``) for property
    checks.
    """

    def weight(delta: int, start: int) -> Fraction:
        return Fraction(y[delta]) + Fraction(x[delta]) * start

    sums = _rational_chain_sums(order, weight)
    return QSeries.from_scalars(RingSpec.absolute(0), order, {0: 1, **sums})


class MirrorData(_Record):
    """Mirror-map coefficients a_e, b_e for degrees 1..order."""

    _fields = ("a", "b", "order")
    a: dict[int, Fraction]
    b: dict[int, Fraction]
    order: int

    def f_series(self, spec: RingSpec) -> QSeries:
        return QSeries.from_scalars(spec, self.order, self.a)

    def g_series(self, spec: RingSpec) -> QSeries:
        return QSeries.from_scalars(spec, self.order, self.b)


def mirror_coefficients(
    lambdas: Mapping[int, LambdaForm], order: int | None = None
) -> MirrorData:
    """Transform the lambda table into mirror-map coefficients.

    The transform is linear in its y-input, so the pair (alpha_e, beta_e) is
    transported componentwise: a = transform over the alphas, b = transform
    over the betas, with the x-weights given by the alphas in both runs.
    """
    if order is None:
        order = max(lambdas, default=0)
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    for e in range(1, order + 1):
        if e not in lambdas:
            raise ValueError(f"missing lambda for degree {e}")
    alphas = {e: lambdas[e].alpha for e in range(1, order + 1)}
    betas = {e: lambdas[e].beta for e in range(1, order + 1)}
    return MirrorData(
        a=corollary_transform(alphas, alphas, order),
        b=corollary_transform(alphas, betas, order),
        order=order,
    )


def mirror_comb_correlator(model: CIModel, order: int, mirror: MirrorData) -> QSeries:
    """The comb sums with (a, b) in place of the lambdas, to q^order.

    Each tooth contributes a_e * (d_1 + h/t) + b_e where d_1 is the comb's
    first endpoint; this is the per-degree form of the mirror identity.  The
    combs that start at d_1 are the chains of degree d - d_1, so the q^d
    coefficient is phi_d + sum over d_1 < d of phi_{d_1} * (chain sum of
    degree d - d_1), one chain recursion per start d_1 serving every degree.

    Every phi_d of a Calabi-Yau model is a form of t-degree m, and each tooth
    the ints (a*d_1 + b, a, den) of a*h + b*t at (h + d_1*t, t) over t
    (``LambdaForm._tooth_ints``), so each start is one ``calabi_yau._chain_sums``
    seeded with phi_{d_1} (``correlators._phi_list``), and each q-degree one
    ``_form_sum`` of phi_d and every row term (1, ends[q][r], r!) that ends
    there, built by one ``LaurentPoly._form``, with no ring product.  A
    bundle or non-Calabi-Yau model raises :class:`ClassificationError` first.
    """
    _require_calabi_yau(model)
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    if order > mirror.order:
        raise ValueError(f"mirror data reach q^{mirror.order}, below the requested order {order}")
    phis = [_phi_list(model, d) for d in range(order + 1)]
    totals = [[(1, form, 1)] for form in phis]
    lambdas = [LambdaForm(mirror.a[e], mirror.b[e]) for e in range(1, order + 1)]
    for d1 in range(order):
        teeth = [lam._tooth_ints(d1, 1) for lam in lambdas[: order - d1]]
        for q, row in _chain_sums(order - d1, phis[d1], lambda delta, _: teeth[delta - 1]).items():
            totals[d1 + q].extend(row)
    sums = {d: LaurentPoly._form(model.spec, *_form_sum(model.m, t)) for d, t in enumerate(totals)}
    return QSeries(model.spec, order, sums)


class MirrorReport(_Record):
    """Outcome of the exact mirror-identity verification, with the lambda table
    it was checked for (solved by the verifier unless the caller gave one)."""

    _fields = ("holds", "first_failing_degree", "order", "mirror", "lambdas")
    holds: bool
    first_failing_degree: int | None
    order: int
    mirror: MirrorData
    lambdas: Mapping[int, LambdaForm]


def verify_mirror_identity(
    model: CIModel, order: int, lambdas: Mapping[int, LambdaForm] | None = None
) -> MirrorReport:
    """Check Sigma(q) = exp((h/t) f + g) * Phi(q e^{f}) exactly mod q^{order+1}.

    Both the series identity and its per-degree comb form are evaluated; a
    degree fails if either disagrees with the correlator series.  The
    comb-term table is emptied once the correlators are summed, also on an
    error, whether or not ``lambdas`` is given.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    spec = model.spec
    if lambdas is None:
        lambdas, correlators = _lambdas_and_correlators(model, order)
    else:
        try:
            correlators = {d: cy_correlator(model, d, lambdas) for d in range(order + 1)}
        finally:
            _table.clear()
    sigma = QSeries(spec, order, correlators)
    phi_series = QSeries(spec, order, {d: phi(model, d) for d in range(order + 1)})
    mirror = mirror_coefficients(lambdas, order)
    f = mirror.f_series(spec)
    g = mirror.g_series(spec)
    h_over_t = LaurentPoly.single(spec, -1, CohClass.h_power(spec, 1))
    prefactor = (f.scale(h_over_t) + g).exp()
    rhs = prefactor * phi_series.substitute(f)
    comb_form = mirror_comb_correlator(model, order, mirror)
    failing = None
    for d in range(order + 1):
        if not rhs.coefficient(d) == comb_form.coefficient(d) == sigma.coefficient(d):
            failing = d
            break
    return MirrorReport(
        holds=failing is None,
        first_failing_degree=failing,
        order=order,
        mirror=mirror,
        lambdas=lambdas,
    )
