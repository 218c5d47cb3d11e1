"""Acceptance checks, runnable standalone via ``gw selftest``.

Each criterion is a function that raises AssertionError with a precise
message on failure.  Everything is exact: the only tolerance anywhere is
zero.  Randomized criteria use a fixed seed so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .calabi_yau import (
    LambdaForm,
    LambdaShapeError,
    correlator,
    cy_correlator,
    lambda_readoff,
    quintic_report,
    solve_lambdas_up_to,
)
from .correlators import (
    CIModel,
    classify,
    degree_vectors,
    phi,
    pn_one_point,
    relative_ring,
)
from .laurent import LaurentPoly
from .mirror import corollary_transform, double_comb_series, verify_mirror_identity
from .relative import (
    derive_linear_cy_lambdas,
    linear_cy_expected,
    linear_cy_lambda,
    linear_cy_model,
    linear_cy_pushforward,
    linear_cy_series,
    porteous_expected,
    porteous_lines,
)
from .rings import CohClass, RingSpec, _Record
from .series import QSeries

DEFAULT_SEED = 20240801

QUINTIC_COUNTS = {
    1: Fraction(2875),
    2: Fraction(4876875, 4),
    3: Fraction(8564575000, 9),
    4: Fraction(15517926796875, 16),
}

QUINTIC_LAMBDA_TABLE = {
    1: (Fraction(-770), Fraction(-120)),
    2: (Fraction(-421375), Fraction(-60000)),
    3: (Fraction(-436236875), Fraction(-59937500)),
    4: (Fraction(-3470312415625, 6), Fraction(-78111025000)),
}

IMMERSED_COUNTS = {
    1: Fraction(2875),
    2: Fraction(609250),
    3: Fraction(317206375),
    4: Fraction(242467530000),
}

CY_MODELS = (classify(4, (5,)), classify(5, (3, 3)), classify(5, (2, 4)))


class CriterionResult(_Record):
    _fields = ("number", "name", "passed", "detail")
    number: int
    name: str
    passed: bool
    detail: str = ""


# -- criteria ---------------------------------------------------------------


def quintic_counts() -> str:
    report = quintic_report(4)
    for d, expected in QUINTIC_COUNTS.items():
        got = report.row(d).n_d
        assert got == expected, f"n_{d} = {got}, expected {expected}"
    return "n_1..n_4 exact"


def lambda_table() -> str:
    # The table must satisfy the defining t^0/t^-1 cancellation on its own,
    # before it is compared with the solver.
    model = classify(4, (5,))
    table = {d: LambdaForm(alpha, beta) for d, (alpha, beta) in QUINTIC_LAMBDA_TABLE.items()}
    for d in table:
        try:
            cy_correlator(model, d, table)
        except LambdaShapeError as exc:
            raise AssertionError(
                f"reference lambda_1..lambda_{d} break the cancellation at degree {d}: {exc}"
            ) from None
    report = quintic_report(4)
    for d, lam in table.items():
        solved = report.row(d).lam
        assert solved == lam, f"lambda_{d} = {solved}, reference table says {lam}"
    return "lambda_1..lambda_4 cancel t^0/t^-1 and equal the solver, exact"


def immersed_counts() -> str:
    report = quintic_report(4)
    for d, expected in IMMERSED_COUNTS.items():
        got = report.immersed_counts[d]
        assert got == expected, f"N_{d} = {got}, expected {expected}"
    return "N_1..N_4 exact"


def count_relation() -> str:
    report = quintic_report(4)
    for row in report.rows:
        assert row.n_d / row.degree == -row.m_d / 2, (
            f"n_{row.degree}/{row.degree} != -m_{row.degree}/2: "
            f"{row.n_d}/{row.degree} vs {-row.m_d}/2"
        )
    return "n_d/d = -m_d/2 for d = 1..4"


def mirror_identity() -> str:
    for model, order in zip(CY_MODELS, (4, 3, 3)):
        report = verify_mirror_identity(model, order)
        assert report.holds, (
            f"mirror identity fails for {model} at q^{report.first_failing_degree}"
        )
    return "quintic to q^4; (3,3) and (2,4) in P^5 to q^3"


def lambda_cross_check() -> str:
    for model in CY_MODELS:
        lambdas = solve_lambdas_up_to(model, 4)
        for d in range(1, 5):
            readoff = lambda_readoff(model, d, lambdas)
            assert lambdas[d] == readoff, (
                f"{model} degree {d}: cancellation gives {lambdas[d]}, "
                f"integral read-off gives {readoff}"
            )
    return "cancellation equals integral read-off, d <= 4"


def fano_properties() -> str:
    checked = 0
    for n in range(1, 7):
        for degrees in degree_vectors(n):
            model = classify(n, degrees)
            for d in range(1, 4):
                corr = correlator(model, d)
                weight = model.correlator_weight(d)
                assert corr.is_homogeneous(weight), (
                    f"{model} d={d}: correlator is not homogeneous of weight {weight}"
                )
                assert corr.is_zero() or corr.t_max() <= -2, (
                    f"{model} d={d}: correlator has a t^{corr.t_max()} term"
                )
                checked += 1
    return f"{checked} Fano correlators homogeneous with top t-power <= -2"


def projective_space_agreement() -> str:
    for n in range(1, 7):
        model = classify(n, ())
        for d in range(1, 4):
            assert pn_one_point(n, d) == phi(model, d), f"P^{n}, d={d}"
    return "pn_one_point == phi at m = 0, n <= 6, d <= 3"


def porteous() -> str:
    for n, m in ((2, 2), (2, 3), (3, 4)):
        model = CIModel(n, (1,) * m, base_cutoff=4)
        got = porteous_lines(model)
        expected = porteous_expected(model)
        assert got == expected, f"(n={n}, m={m}): {got} != {expected}"
    trivial = CIModel(2, (1, 1))
    assert porteous_lines(trivial).is_zero(), "trivial bundle's line class != 0"
    return "three instances match s_{m-n+1}^2 - s_{m-n}s_{m-n+2}; trivial bundle is 0"


def linear_relative_cy() -> str:
    # cutoff 5 keeps h^{n+1}(s_2 - s_1 h) fully nonzero, so the equalities bite
    model = linear_cy_model(2, 5)
    derived = derive_linear_cy_lambdas(model, 5)
    for e, pair in enumerate(derived, start=1):
        assert pair == linear_cy_lambda(model, e), f"lambda_{e} mismatch"
    series = linear_cy_series(model, 5)
    for d in range(1, 6):
        row = series.coefficient(d)
        assert row.coefficient(0).is_zero(), f"t^0 row at q^{d} is nonzero"
        assert row.coefficient(-1).is_zero(), f"t^-1 row at q^{d} is nonzero"
    assert not linear_cy_expected(model, 1).is_zero()
    for d in range(1, 5):
        got = linear_cy_pushforward(model, d, 5)
        expected = linear_cy_expected(model, d)
        assert got == expected, f"pushforward at d={d}: {got} != {expected}"
    return "lambda_e = -(1/e)(t+s_1) for e <= 5; rows vanish; (1/d^2)-scaling for d <= 4"


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def proposition_linearity() -> str:
    rng = random.Random(DEFAULT_SEED)
    spec = RingSpec.absolute(0)
    order = 5
    for _ in range(20):
        x = {e: _random_fraction(rng) for e in range(1, order + 1)}
        y1 = {e: _random_fraction(rng) for e in range(1, order + 1)}
        y2 = {e: _random_fraction(rng) for e in range(1, order + 1)}
        c1, c2 = _random_fraction(rng), _random_fraction(rng)
        mixed = {e: c1 * y1[e] + c2 * y2[e] for e in range(1, order + 1)}
        f1 = double_comb_series(x, y1, order)
        f2 = double_comb_series(x, y2, order)
        f3 = double_comb_series(x, mixed, order)
        assert f3.log() == f1.log() * c1 + f2.log() * c2, "log F is not linear in y"
        transformed = corollary_transform(x, y1, order)
        rebuilt = QSeries.from_scalars(spec, order, transformed).exp()
        assert rebuilt == f1, "exp(sum y'_e q^e) != F(q)"
    return "log-linearity and exp-consistency for 20 instances at order 5"


# -- randomized algebra kernel ----------------------------------------------


def _spec_pool() -> list[RingSpec]:
    return [
        RingSpec.absolute(2),
        RingSpec.absolute(4),
        relative_ring(2, 2),
        RingSpec.relative(2, (("u", 1), ("v", 2)), 3),
    ]


def _random_coh(rng: random.Random, spec: RingSpec, max_terms: int = 3) -> CohClass:
    monos = spec.monomials()
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(0, spec.n), rng.choice(monos))
        terms[key] = _random_fraction(rng)
    return CohClass(spec, terms)


def _strip_scalar(cls: CohClass) -> CohClass:
    return cls - CohClass.scalar(cls.spec, cls.scalar_part)


def _random_laurent(rng: random.Random, spec: RingSpec, max_terms: int = 3) -> LaurentPoly:
    out = LaurentPoly.zero(spec)
    for _ in range(rng.randint(0, max_terms)):
        out = out + LaurentPoly.single(spec, rng.randint(-2, 2), _random_coh(rng, spec, 2))
    return out


def _random_unit(rng: random.Random, spec: RingSpec) -> LaurentPoly:
    top = rng.randint(-1, 2)
    lead = CohClass.scalar(spec, Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 3)))
    lead = lead + _strip_scalar(_random_coh(rng, spec, 2))
    unit = LaurentPoly.single(spec, top, lead)
    for offset in (1, 2):
        lower = _strip_scalar(_random_coh(rng, spec, 2))
        unit = unit + LaurentPoly.single(spec, top - offset, lower)
    return unit


def algebra_kernel() -> str:
    rng = random.Random(DEFAULT_SEED)
    pool = _spec_pool()

    for _ in range(100):
        spec = rng.choice(pool)
        a, b, c = (_random_coh(rng, spec) for _ in range(3))
        assert a * b == b * a, "coh multiplication is not commutative"
        assert (a * b) * c == a * (b * c), "coh multiplication is not associative"
        assert a * (b + c) == a * b + a * c, "coh multiplication is not distributive"
        p, q, r = (_random_laurent(rng, spec) for _ in range(3))
        assert p * q == q * p, "laurent multiplication is not commutative"
        assert (p * q) * r == p * (q * r), "laurent multiplication is not associative"
        assert p * (q + r) == p * q + p * r, "laurent multiplication is not distributive"

    for _ in range(100):
        spec = rng.choice(pool)
        unit = _random_unit(rng, spec)
        assert unit * unit.inverse() == LaurentPoly.one(spec), "p * p^-1 != 1"

    spec = RingSpec.absolute(2)
    order = 4
    for _ in range(100):
        f = QSeries(spec, order, {d: _random_laurent(rng, spec, 2) for d in range(1, order + 1)})
        g = QSeries(spec, order, {d: _random_laurent(rng, spec, 2) for d in range(1, order + 1)})
        assert (f + g).exp() == f.exp() * g.exp(), "exp(f+g) != exp(f)exp(g)"
        p = QSeries(spec, order, {d: _random_laurent(rng, spec, 2) for d in range(order + 1)})
        q = QSeries(spec, order, {d: _random_laurent(rng, spec, 2) for d in range(order + 1)})
        zero = QSeries.zero(spec, order)
        assert p.substitute(zero) == p, "substitute(P, 0) != P"
        assert (p * q).substitute(f) == p.substitute(f) * q.substitute(f), (
            "substitution is not multiplicative"
        )
    return "ring axioms, inversion, exp/substitute: 100 cases each"


CRITERIA: list[tuple[int, str, Callable[[], str]]] = [
    (1, "quintic counts", quintic_counts),
    (2, "lambda table", lambda_table),
    (3, "Aspinwall-Morrison counts", immersed_counts),
    (4, "n_d/d = -m_d/2 relation", count_relation),
    (5, "mirror identity", mirror_identity),
    (6, "lambda solver cross-check", lambda_cross_check),
    (7, "Fano properties sweep", fano_properties),
    (8, "projective space agreement", projective_space_agreement),
    (9, "Porteous formula", porteous),
    (10, "linear relative Calabi-Yau", linear_relative_cy),
    (11, "double-comb log-linearity", proposition_linearity),
    (12, "algebra kernel properties", algebra_kernel),
]


def run_criterion(number: int) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == number:
            try:
                detail = fn()
            except AssertionError as exc:
                return CriterionResult(num, name, False, str(exc))
            return CriterionResult(num, name, True, detail)
    raise ValueError(f"no criterion {number}")


def run_all() -> list[CriterionResult]:
    return [run_criterion(num) for num, _, _ in CRITERIA]
