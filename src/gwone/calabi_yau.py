"""Calabi-Yau correlators via the self-recursive comb-sum formula.

For a Calabi-Yau model the degree-d correlator is a sum over "comb" types
0 <= d_1 < ... < d_{r+1} = d of

    phi_{d_1} * prod_{i=1}^r lambda_{Delta_i}(h + d_i*t, t) / (r! t^r)

with Delta_i = d_{i+1} - d_i and one linear form lambda_e = alpha_e*h +
beta_e*t per degree.  The formula computes its own lambdas: the correlator
carries no t^0 or t^{-1} terms, so the simple comb (0, d) -- whose
contribution is phi_0 * lambda_d / t -- must cancel those two "error"
coefficients of the sum of all other combs.  Solving the two cancellation
equations degree by degree yields the whole lambda table.

A comb is its tuple of endpoints.  Each degree sums 2^d combs, at most
one tooth product each: a comb with teeth is its prefix (the comb without
its last tooth) times one tooth lambda_Delta(h + p*t, t) / (r*t), one O(n)
pass over the prefix's int numerators, c'_j = (alpha*p + beta)*c_j +
alpha*c_{j-1} (``_times_tooth``), with no ring product.  :func:`cy_term`
keeps every comb term and tooth it builds for the current model in one
table per thread, so each prefix is already held from a lower degree.
The table serves one form object per tooth degree; a degree's sum checks
the given lambdas against it once per tooth degree (``_hold``), not once
per tooth, and then asks :func:`cy_term` for each comb with the table's
own forms, which it serves with no check.  The terms stream into
:meth:`LaurentPoly.sum`, one pass and one reduction per degree.  The
solve of lambda_d and the degree-d correlator sum the same 2^d - 1
non-simple combs, so a correlator summed
after its solve multiplies out only its simple comb: :func:`threefold_report`
and the other full pipelines solve and sum one degree at a time.  One
model's terms of every degree built are held per thread, and every function
that solves its own lambda table empties the table when it returns.
Chains, the combs that start at 0, are summed apart from this path: each chain
sum of ``mirror`` is one ``_chain_sums``, O(d^3) tooth passes on int forms.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import pairwise
from math import factorial, lcm
from typing import Callable, Iterable, Mapping

from .correlators import (
    CIModel,
    Classification,
    ClassificationError,
    _require_absolute,
    classify,
    fano_ge2_correlator,
    fano_index1_correlator,
    one_point_invariant,
    phi,
)
from .laurent import LaurentPoly, _Form, _form_sum, _reduced, _tooth_pass
from .rings import CohClass, RingSpec, _Record, _lowest, _setfield


class LambdaShapeError(ValueError):
    """An error coefficient did not have the pure-monomial shape required."""


def enumerate_combs(d: int) -> list[tuple[int, ...]]:
    """The endpoints of all 2^d combs of degree d, in lexicographic order: a
    depth-first walk, where the combs extending a prefix by x < d come first."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    combs: list[tuple[int, ...]] = []

    def walk(prefix: tuple[int, ...], start: int) -> None:
        for x in range(start, d):
            walk(prefix + (x,), x + 1)
        combs.append(prefix + (d,))

    walk((), 0)
    return combs


def _chain_sums(
    order: int, seed: _Form, tooth: Callable[[int, int], tuple[int, int, int]]
) -> dict[int, _Form]:
    """For q = 1..order, the sum over chains 0 = d_0 < d_1 < ... < d_r = q of
    seed * prod_{i=1}^r tooth(d_i - d_{i-1}, d_{i-1}) / r!, as one unreduced form.

    A chain is a comb that starts at 0, and a tooth is the ints (const, a, den)
    of a degree-0 form (``laurent._tooth_pass``).  ends[q][r] sums the r-tooth
    chains ending at q, extended one tooth at a time: each tooth is evaluated
    once per (delta, start), each product is one O(len) tooth pass, and each
    row entry one ``_form_sum`` reduced by one gcd, so the cost is O(order^3)
    passes, not sum_q q 2^q.
    """
    ends = [{0: seed}]
    sums = {}
    for q in range(1, order + 1):
        products: dict[int, list] = {}
        for p in range(q):
            ints = tooth(q - p, p)
            for r, form in ends[p].items():
                products.setdefault(r + 1, []).append((1, _tooth_pass(form, ints), 1))
        row = {r: _reduced(_form_sum(seed[0], terms)) for r, terms in products.items()}
        sums[q] = _form_sum(seed[0], [(1, form, factorial(r)) for r, form in row.items()])
        ends.append(row)
    return sums


class LambdaForm(_Record):
    """The linear form alpha*h + beta*t solved at one degree."""

    _fields = ("alpha", "beta")
    alpha: Fraction
    beta: Fraction

    def __init__(self, alpha: Fraction, beta: Fraction) -> None:
        _setfield(self, "alpha", alpha)
        _setfield(self, "beta", beta)

    def _tooth_ints(self, position: int, count: int) -> tuple[int, int, int]:
        """The form at (h + position*t, t) over count*t, the degree-0 form
        (a*h/t + a*position + b) / (den*count) for alpha = a/den, beta = b/den,
        as its ints (a*position + b, a, den*count)."""
        alpha, beta = self.alpha, self.beta
        den = lcm(alpha.denominator, beta.denominator)
        a = alpha.numerator * (den // alpha.denominator)
        b = beta.numerator * (den // beta.denominator)
        return a * position + b, a, den * count

    def tooth(self, spec: RingSpec, position: int, count: int) -> LaurentPoly:
        """The form at (h + position*t, t) over count*t (``_tooth_ints``) as a polynomial."""
        const, a, den = self._tooth_ints(position, count)
        return LaurentPoly._form(spec, 0, [const, a], den)

    def __str__(self) -> str:
        return f"({self.alpha})*h + ({self.beta})*t"


class _Table(threading.local):
    """The comb terms cy_term built in this thread for one ``model``.

    ``terms`` maps the endpoints of each comb with teeth to its term
    phi_{d_1} * prod_{i<=r} lambda_{Delta_i}(h + d_i t) / (r! t^r), and
    ``forms`` maps each tooth degree to the one form object every held term
    was built with.  ``teeth`` maps (Delta, position, count) to that form's
    tooth as its ints (``LambdaForm._tooth_ints``): the table holds one form
    per Delta.  ``combs`` is the last degree's :func:`enumerate_combs`
    list, shared by that degree's solve and correlator.  The table holds its
    model and forms, so no other object can take their ids and comparing
    them by identity is safe.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.model: CIModel | None = None
        self.forms: dict[int, LambdaForm] = {}
        self.terms: dict[tuple[int, ...], LaurentPoly] = {}
        self.teeth: dict[tuple[int, int, int], tuple[int, int, int]] = {}
        self.combs: tuple[int, list[tuple[int, ...]]] | None = None


_table = _Table()


def _times_tooth(prefix: LaurentPoly, tooth: tuple[int, int, int]) -> LaurentPoly:
    """``prefix`` times the tooth (a*h/t + const) / den, given as its ints
    (const, a, den): ``laurent._tooth_pass`` on the prefix's dict keys, in one
    pass and one gcd, kept until the 2^d comb path it serves is deleted.

    Comb terms live in an absolute ring (:func:`cy_term` holds no bundle
    model), where t^e * h^k has key e*stride + k, so h/t moves key c to
    c - stride + 1, and h^n * h/t = 0.  A comb term is a form of one t-degree,
    at most n + 1 terms, so the pass makes O(n) int products.
    """
    const, a, den = tooth
    spec = prefix.spec
    stride, n = spec.basis.stride, spec.n
    shift = stride - 1
    out: dict[int, int] = {}
    for c, v in prefix._num.items():
        if const:
            out[c] = out.get(c, 0) + const * v
        if a and c % stride < n:
            out[c - shift] = out.get(c - shift, 0) + a * v
    if 0 in out.values():
        out = {c: v for c, v in out.items() if v}
    return LaurentPoly._new(spec, *_lowest(out, prefix._den * den))


def _term(model: CIModel, ends: tuple[int, ...]) -> LaurentPoly:
    """The held term of the comb ``ends``, built from its held prefix on a miss."""
    if len(ends) == 1:
        return phi(model, ends[0])
    term = _table.terms.get(ends)
    if term is None:
        key = (ends[-1] - ends[-2], ends[-2], len(ends) - 1)
        tooth = _table.teeth.get(key)
        if tooth is None:
            tooth = _table.teeth[key] = _table.forms[key[0]]._tooth_ints(*key[1:])
        term = _table.terms[ends] = _times_tooth(_term(model, ends[:-1]), tooth)
    return term


def _hold(model: CIModel, lambdas: Mapping[int, LambdaForm], degrees: Iterable[int]) -> None:
    """Make the table serve ``model`` with the forms ``lambdas`` gives for ``degrees``.

    Each degree's form is read once and compared with the held one by
    identity.  A new model or a form object other than the held one for its
    degree empties the table; a degree with no held form only adds its form.
    The table changes only after every degree is checked, so a missing
    lambda or a bundle model raises with the table untouched.
    """
    held = _table.forms
    stale = _table.model is not model
    new = stale
    for delta in degrees:
        form = lambdas.get(delta)
        if form is None:
            raise ValueError(f"missing lambda for tooth degree {delta}")
        have = held.get(delta)
        if have is not form:
            new = True
            stale = stale or have is not None
    if new:
        if stale:
            _require_absolute(model)
            _table.clear()
            _table.model = model
        for delta in degrees:
            _table.forms[delta] = lambdas[delta]


def cy_term(
    model: CIModel, ends: tuple[int, ...], lambdas: Mapping[int, LambdaForm]
) -> LaurentPoly:
    """One comb's contribution: phi_{d_1} * prod lambda_{Delta_i}(h+d_i t, t) / (r! t^r),
    for the comb with endpoints ``ends`` = (d_1, ..., d_{r+1}).

    The term is its prefix's term times one held tooth (``_times_tooth``),
    and every term built is kept in a per-thread table of the current
    model's comb terms, so each comb costs at most one tooth product.  The
    table serves only the form objects that built it: a new model or a
    form object other than the held one for its tooth degree empties it
    (``_hold``).  Bad endpoints, a missing lambda or a bundle model raise
    with the table untouched; endpoints that are not a tuple raise
    TypeError first.  Given the table's own forms and model, as
    :func:`_partial_comb_sum` passes them once it has held every tooth
    degree of its sum, it checks nothing.
    """
    if lambdas is _table.forms and model is _table.model:
        return _term(model, ends)
    if not isinstance(ends, tuple):
        raise TypeError(f"comb endpoints must be a tuple, got {ends!r}")
    if not ends or ends[0] < 0:
        raise ValueError(f"a comb needs endpoints starting at >= 0, got {ends}")
    deltas = tuple(b - a for a, b in pairwise(ends))
    if deltas and min(deltas) < 1:
        raise ValueError(f"comb endpoints must be strictly increasing, got {ends}")
    _hold(model, lambdas, deltas)
    return _term(model, ends)


def _require_calabi_yau(model: CIModel) -> None:
    _require_absolute(model)
    if model.classification is Classification.GENERAL_TYPE:
        raise ClassificationError(f"general type: l_1+...+l_m > n+1 for {model}")
    if model.classification is not Classification.CALABI_YAU:
        raise ClassificationError(f"not Calabi-Yau: l_1+...+l_m != n+1 for {model}")
    if model.m + 1 > model.n:
        # h^{m+1} = 0 then, so the t^-1 cancellation equation cannot fix alpha_d
        raise ClassificationError(
            f"unsupported Calabi-Yau model {model}: dimension n - m = "
            f"{model.n - model.m} < 1, and the lambda recursion needs m + 1 <= n"
        )


def _partial_comb_sum(
    model: CIModel, d: int, lambdas: Mapping[int, LambdaForm]
) -> LaurentPoly:
    """Sum of all degree-d comb terms except the simple comb (0, d), in one pass.
    Every tooth degree 1..d-1 is held once, before the first term, so each
    ``cy_term`` call gets the table's own forms and checks nothing."""
    _hold(model, lambdas, range(1, d))
    if _table.combs is None or _table.combs[0] != d:
        _table.combs = (d, enumerate_combs(d))
    forms, simple = _table.forms, (0, d)
    terms = (cy_term(model, c, forms) for c in _table.combs[1] if c != simple)
    return LaurentPoly.sum(model.spec, terms)


def _pure_h_multiple(cls: CohClass, h_exp: int) -> Fraction:
    """The rational rho with cls == rho * h^{h_exp}; raises on any other shape."""
    rho = Fraction(0)
    for k, mono, c in cls.terms():
        if k != h_exp or mono != ():
            raise LambdaShapeError(
                f"error coefficient has a term at h^{k}, expected a multiple of h^{h_exp}"
            )
        rho = c
    return rho


def lambda_readoff(model: CIModel, d: int, lambdas: Mapping[int, LambdaForm]) -> LambdaForm:
    """Read (alpha_d, beta_d) off by fiber integration.

    The simple-comb term phi_0 * lambda_d / t equals minus the t^{-1} and
    t^0 part of the partial comb sum, so

        alpha_d = (1 / prod l_i) * [t^{-1}] integral of h^{n-m-1} * (phi_0 lambda_d / t)
        beta_d  = (1 / prod l_i) * [t^0]   integral of h^{n-m}   * (phi_0 lambda_d / t)

    This is an independent extraction path from the monomial-shape division
    used by :func:`solve_lambda`.
    """
    _require_calabi_yau(model)
    return _readoff(model, _partial_comb_sum(model, d, lambdas))


def _readoff(model: CIModel, partial: LaurentPoly) -> LambdaForm:
    """The fiber-integral read-off of :func:`lambda_readoff` from a partial comb sum."""
    spec = model.spec
    product = Fraction(model.degree_product)

    def integral(h_exp: int, t_exp: int) -> Fraction:
        return (CohClass.h_power(spec, h_exp) * partial.coefficient(t_exp)).integrate()

    return LambdaForm(
        alpha=-integral(model.n - model.m - 1, -1) / product,
        beta=-integral(model.n - model.m, 0) / product,
    )


def solve_lambda(
    model: CIModel, d: int, lambdas: Mapping[int, LambdaForm]
) -> LambdaForm:
    """Solve the degree-d linear form from the two cancellation equations.

    Requires lambdas for all degrees below d.  The t^{-1} error coefficient
    of the partial comb sum must be a rational multiple of h^{m+1} and the
    t^0 coefficient a multiple of h^m; anything else signals a bug and
    raises :class:`LambdaShapeError`.  The result is cross-checked against
    the fiber-integral read-off before being returned.
    """
    _require_calabi_yau(model)
    if d < 1:
        raise ValueError("degree must be >= 1")
    for e in range(1, d):
        if e not in lambdas:
            raise ValueError(f"missing lambda for degree {e}")
    partial = _partial_comb_sum(model, d, lambdas)
    product = Fraction(model.degree_product)
    assert product != 0
    rho1 = _pure_h_multiple(partial.coefficient(-1), model.m + 1)
    rho0 = _pure_h_multiple(partial.coefficient(0), model.m)
    solved = LambdaForm(alpha=-rho1 / product, beta=-rho0 / product)
    check = _readoff(model, partial)
    if solved != check:
        raise LambdaShapeError(
            f"cancellation and integral read-off disagree at degree {d}: "
            f"{solved} vs {check}"
        )
    return solved


def solve_lambdas_up_to(model: CIModel, max_degree: int) -> dict[int, LambdaForm]:
    """The lambda table for degrees 1..max_degree, solved recursively.  The
    comb-term table is emptied before returning, also on an error."""
    _require_calabi_yau(model)
    if max_degree < 0:
        raise ValueError("degree must be >= 0")
    lambdas: dict[int, LambdaForm] = {}
    try:
        for d in range(1, max_degree + 1):
            lambdas[d] = solve_lambda(model, d, lambdas)
    finally:
        _table.clear()
    return lambdas


def cy_correlator(
    model: CIModel, d: int, lambdas: Mapping[int, LambdaForm] | None = None
) -> LaurentPoly:
    """The degree-d Calabi-Yau correlator: 2^d combs, at most one tooth product each.
    Without ``lambdas``, it is solved and summed by ``_lambdas_and_correlators``."""
    _require_calabi_yau(model)
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d == 0:
        return phi(model, 0)
    if lambdas is None:
        return _lambdas_and_correlators(model, d)[1][d]
    out = _partial_comb_sum(model, d, lambdas) + cy_term(model, (0, d), lambdas)
    if not out.is_zero() and out.t_max() >= -1:
        raise LambdaShapeError(f"degree-{d} comb sum retains t^{out.t_max()} terms")
    return out


def _lambdas_and_correlators(
    model: CIModel, max_degree: int
) -> tuple[dict[int, LambdaForm], dict[int, LaurentPoly]]:
    """The lambda table for degrees 1..max_degree and the correlators of degrees
    0..max_degree, one degree at a time: each correlator is summed right after
    its lambda is solved, so its 2^d - 1 non-simple comb terms come from
    :func:`cy_term`'s table and only the simple comb is multiplied out.  The
    table is emptied before returning, also on an error."""
    _require_calabi_yau(model)
    if max_degree < 0:
        raise ValueError("degree must be >= 0")
    lambdas: dict[int, LambdaForm] = {}
    correlators = {0: phi(model, 0)}
    try:
        for d in range(1, max_degree + 1):
            lambdas[d] = solve_lambda(model, d, lambdas)
            correlators[d] = cy_correlator(model, d, lambdas)
    finally:
        _table.clear()
    return lambdas, correlators


def correlator(model: CIModel, d: int) -> LaurentPoly:
    """The one-point correlator of any Fano or Calabi-Yau model in P^n."""
    _require_absolute(model)
    cls = model.classification
    if cls is Classification.GENERAL_TYPE:
        raise ClassificationError(f"general type: l_1+...+l_m > n+1 for {model}")
    if d == 0:
        return phi(model, 0)
    if cls is Classification.FANO_INDEX_GE2:
        return fano_ge2_correlator(model, d)
    if cls is Classification.FANO_INDEX_ONE:
        return fano_index1_correlator(model, d)
    return cy_correlator(model, d)


def _divisors(d: int) -> list[int]:
    return [e for e in range(1, d + 1) if d % e == 0]


def aspinwall_morrison(physical_counts: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """Convert physical counts n_d/d into expected immersed-curve counts N_d.

    Inverts the multiple-cover relation n_d/d = sum over e | d of
    N_{d/e} / e^3, i.e. N_d = n_d/d - sum over proper divisors e of d of
    N_e * (e/d)^3.  Every degree must be >= 1 and every divisor of a
    requested degree must be supplied.
    """
    out: dict[int, Fraction] = {}
    for d in sorted(physical_counts):
        if d < 1:
            raise ValueError("degree must be >= 1")
        total = Fraction(physical_counts[d])
        for e in _divisors(d)[:-1]:
            if e not in out:
                raise ValueError(f"missing value for divisor {e} of degree {d}")
            total -= out[e] * Fraction(e, d) ** 3
        out[d] = total
    return out


class CyRow(_Record):
    """One degree of the Calabi-Yau pipeline for a threefold model."""

    _fields = ("degree", "lam", "n_d", "m_d")
    degree: int
    lam: LambdaForm
    n_d: Fraction
    m_d: Fraction

    def __init__(self, degree: int, lam: LambdaForm, n_d: Fraction, m_d: Fraction) -> None:
        _setfield(self, "degree", degree)
        _setfield(self, "lam", lam)
        _setfield(self, "n_d", n_d)
        _setfield(self, "m_d", m_d)

    @property
    def physical_count(self) -> Fraction:
        return self.n_d / self.degree


class QuinticReport(_Record):
    """Lambda table, invariants and immersed counts for a threefold model."""

    _fields = ("model", "rows", "immersed_counts")
    model: CIModel
    rows: tuple[CyRow, ...]
    immersed_counts: dict[int, Fraction]

    def __init__(
        self, model: CIModel, rows: tuple[CyRow, ...], immersed_counts: dict[int, Fraction]
    ) -> None:
        _setfield(self, "model", model)
        _setfield(self, "rows", rows)
        _setfield(self, "immersed_counts", immersed_counts)

    def row(self, d: int) -> CyRow:
        if not 1 <= d <= len(self.rows):
            raise IndexError(f"degree {d} is outside the report's range 1..{len(self.rows)}")
        return self.rows[d - 1]


def threefold_report(model: CIModel, max_degree: int) -> QuinticReport:
    """Run the full pipeline for a Calabi-Yau threefold (n - m = 3)."""
    _require_calabi_yau(model)
    if model.n - model.m != 3:
        raise ClassificationError(f"not a threefold: n - m != 3 for {model}")
    lambdas, correlators = _lambdas_and_correlators(model, max_degree)
    rows = []
    for d in range(1, max_degree + 1):
        corr = correlators[d]
        n_d = one_point_invariant(corr, 0, 1)
        m_d = one_point_invariant(corr, 1, 0)
        rows.append(CyRow(degree=d, lam=lambdas[d], n_d=n_d, m_d=m_d))
    counts = aspinwall_morrison({row.degree: row.physical_count for row in rows})
    return QuinticReport(model=model, rows=tuple(rows), immersed_counts=counts)


def quintic_report(max_degree: int) -> QuinticReport:
    """The quintic threefold pipeline up to the given degree."""
    return threefold_report(classify(4, (5,)), max_degree)
