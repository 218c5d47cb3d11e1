"""Job lists of the three benchmark workloads and their exact-output pins.

A job is one call into the library plus the serialisation of its result to
canonical JSON with the ``gwone.cli`` serialisers.  Library functions are
looked up on their modules at call time (``cy.quintic_report``, not a name
imported here), so a tracer that rebinds module attributes sees every call.

The seed only permutes job order; the set of jobs, and so the work of a
run, is the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable

import gwone.calabi_yau as cy
import gwone.cli as cli
import gwone.correlators as corr
import gwone.mirror as mirror
import gwone.relative as rel

WORKLOADS = ("cy-comb", "fano-sweep", "bundle-relative")

# Candelas-de la Ossa-Green-Parkes (1991), immersed rational curves on the quintic.
QUINTIC_N = {
    1: 2875,
    2: 609250,
    3: 317206375,
    4: 242467530000,
    5: 229305888887625,
    6: 248249742118022000,
    7: 295091050570845659250,
    8: 375632160937476603550000,
    9: 503840510416985243645106250,
}

# The value that satisfies the t^0/t^-1 cancellation defining lambda_4; the
# acceptance table's entry is 5x this and stays as it is.
QUINTIC_LAMBDA_4 = {"alpha": "-3470312415625/6", "beta": "-78111025000"}

COMB_SPAN = "calabi_yau.cy_term"
QSERIES_MUL_SPAN = "series.QSeries.__mul__"
SERIES_BUILD_SPAN = "relative.linear_cy_series"


@dataclass(frozen=True)
class Job:
    """One timed call.  ``run`` returns the JSON payload of its result.

    ``pin`` checks the payload against a literature or closed-form value and
    returns an error message, or None.  ``spans`` gives exact span counts a
    traced run must record inside this job; a mismatch means the tracer
    missed a binding site.
    """

    id: str
    run: Callable[[], dict]
    pin: Callable[[dict], str | None] | None = None
    spans: dict[str, int] = field(default_factory=dict)


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def output_digest(outputs: dict[str, str]) -> str:
    """sha256 over (job id, canonical JSON) sorted by job id, so job order is irrelevant."""
    h = hashlib.sha256()
    for job_id in sorted(outputs):
        h.update(job_id.encode() + b"\0" + outputs[job_id].encode() + b"\n")
    return h.hexdigest()


def _expect_equal(label: str, got, expected) -> str | None:
    return None if got == expected else f"{label}: got {got}, expected {expected}"


# -- cy-comb ---------------------------------------------------------------


def _quintic() -> dict:
    report = cy.quintic_report(9)
    return {
        "n": {str(r.degree): str(r.n_d) for r in report.rows},
        "m": {str(r.degree): str(r.m_d) for r in report.rows},
        "N": {str(d): str(v) for d, v in sorted(report.immersed_counts.items())},
        "lambda": {
            str(r.degree): {"alpha": str(r.lam.alpha), "beta": str(r.lam.beta)}
            for r in report.rows
        },
    }


def _quintic_pin(payload: dict) -> str | None:
    expected = {str(d): str(v) for d, v in QUINTIC_N.items()}
    return _expect_equal("quintic N_1..N_9", payload["N"], expected) or _expect_equal(
        "quintic lambda_4", payload["lambda"]["4"], QUINTIC_LAMBDA_4
    )


def _mirror_33() -> dict:
    report = mirror.verify_mirror_identity(corr.classify(5, (3, 3)), 7)
    return {
        "a": {str(e): str(v) for e, v in sorted(report.mirror.a.items())},
        "b": {str(e): str(v) for e, v in sorted(report.mirror.b.items())},
        "holds": report.holds,
        "first_failing_degree": report.first_failing_degree,
    }


def _cy_comb() -> list[Job]:
    # 2^d combs per degree: solving lambda_1..lambda_D sums 2^d - 1 combs and
    # the correlators 2^d, so sum_{d<=D} (2^{d+1} - 1) = 2(2^{D+1} - 2) - D.
    return [
        Job("quintic_report(9)", _quintic, _quintic_pin, {COMB_SPAN: 2 * (2**10 - 2) - 9}),
        Job(
            "verify_mirror_identity((3,3) in P^5, 7)",
            _mirror_33,
            lambda p: None if p["holds"] else f"identity fails at q^{p['first_failing_degree']}",
            {COMB_SPAN: 2 * (2**8 - 2) - 7},
        ),
    ]


# -- fano-sweep ------------------------------------------------------------


def _fano_degrees(n: int):
    """Nondecreasing degree vectors with sum <= n (the empty one is P^n)."""

    def rec(prefix: tuple[int, ...], remaining: int, minimum: int):
        yield prefix
        for l in range(minimum, remaining + 1):
            yield from rec(prefix + (l,), remaining - l, l)

    yield from rec((), n, 1)


def _fano_job(n: int, degrees: tuple[int, ...], d: int) -> Job:
    def run() -> dict:
        return {"correlator": cli.laurent_to_json(cy.correlator(corr.classify(n, degrees), d))}

    pin = None
    if (n, degrees, d) == (3, (3,), 1):
        # the 27 lines on a cubic surface: integral of h * [t^-2], i.e. the h^2 slot
        def pin(payload: dict) -> str | None:
            row = next((e for e in payload["correlator"] if e["t"] == -2), None)
            return _expect_equal("cubic surface lines", row and row["h"][2], "27")

    spans = {COMB_SPAN: 0, QSERIES_MUL_SPAN: 0}
    return Job(f"correlator(n={n}, l={list(degrees)}, d={d})", run, pin, spans)


def _fano_sweep() -> list[Job]:
    return [
        _fano_job(n, degrees, d)
        for n in range(1, 7)
        for degrees in _fano_degrees(n)
        for d in range(1, 4)
    ]


# -- bundle-relative -------------------------------------------------------


def _coh_pin(label: str, expected: Callable[[], object], key: str):
    def pin(payload: dict) -> str | None:
        return _expect_equal(label, payload[key], cli.coh_to_json(expected()))

    return pin


def _bundle_relative() -> list[Job]:
    model = rel.linear_cy_model(2, 6)
    order = 6

    def lambdas_json(pairs) -> dict:
        return {
            str(e): {"a": str(a), "b": cli.coh_to_json(b)} for e, (a, b) in enumerate(pairs, start=1)
        }

    def lambdas_pin(payload: dict) -> str | None:
        closed_form = [rel.linear_cy_lambda(model, e) for e in range(1, order + 1)]
        return _expect_equal("linear-CY lambdas", payload["lambda"], lambdas_json(closed_form))

    jobs = [
        Job(
            "derive_linear_cy_lambdas(n=2, cutoff=6, 6)",
            lambda: {"lambda": lambdas_json(rel.derive_linear_cy_lambdas(model, order))},
            lambdas_pin,
            {COMB_SPAN: 0, SERIES_BUILD_SPAN: 0},
        )
    ]
    for d in range(1, order + 1):
        jobs.append(
            Job(
                f"linear_cy_pushforward(n=2, cutoff=6, d={d}, order=6)",
                lambda d=d: {
                    "pushforward": cli.coh_to_json(rel.linear_cy_pushforward(model, d, order))
                },
                _coh_pin(f"pushforward d={d}", lambda d=d: rel.linear_cy_expected(model, d), "pushforward"),
                # the series is rebuilt for every pushforward degree
                {COMB_SPAN: 0, SERIES_BUILD_SPAN: 1},
            )
        )
    for n, cutoff, m in ((3, 6, 4), (4, 8, 5)):
        bundle = rel.RelativeModel(n=n, base_cutoff=cutoff, degrees=(1,) * m)
        jobs.append(
            Job(
                f"porteous_lines(n={n}, cutoff={cutoff}, m={m})",
                lambda bundle=bundle: {"class": cli.coh_to_json(rel.porteous_lines(bundle))},
                _coh_pin(f"Porteous (n={n}, m={m})", lambda bundle=bundle: rel.porteous_expected(bundle), "class"),
                {COMB_SPAN: 0, SERIES_BUILD_SPAN: 0},
            )
        )
    return jobs


_BUILDERS = {
    "cy-comb": _cy_comb,
    "fano-sweep": _fano_sweep,
    "bundle-relative": _bundle_relative,
}


def build(workload: str, order_seed: str) -> list[Job]:
    """The workload's jobs in the order drawn from ``order_seed``."""
    jobs = _BUILDERS[workload]()
    random.Random(order_seed).shuffle(jobs)
    return jobs
