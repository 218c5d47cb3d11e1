"""Seeded faults: checks that can fail.

Each fault is monkeypatched into the comb sum, one at a time, and the
Calabi-Yau pipeline is run on the five threefolds of
``scripts/mirror_table.py``.  At least one existing check outside the
faulted code must then fail: integrality of the immersed counts N_d to
d = 6, the quintic pins of the acceptance suite, the mirror identity, or the
correlator's t-shape check (``cy_correlator`` raises when a degree's comb
sum keeps t^0 or t^-1 terms).  Without a fault every check passes, so a
failing check points at the fault.
"""

import pytest

from gwone import acceptance, calabi_yau
from gwone.calabi_yau import LambdaForm, LambdaShapeError, threefold_report
from gwone.correlators import classify
from gwone.mirror import verify_mirror_identity

MAX_D = 6
QUINTIC = classify(4, (5,))
# The five threefolds of scripts/mirror_table.py.
THREEFOLDS = (
    QUINTIC,
    classify(5, (3, 3)),
    classify(5, (2, 4)),
    classify(6, (2, 2, 3)),
    classify(7, (2, 2, 2, 2)),
)


def _tooth_fault(monkeypatch):
    """Every tooth at position 1 scaled by 3/2, in the ints the comb terms are built from."""
    tooth_ints = LambdaForm._tooth_ints

    def scaled(self, position, count):
        const, a, den = tooth_ints(self, position, count)
        return (3 * const, 3 * a, 2 * den) if position == 1 else (const, a, den)

    monkeypatch.setattr(LambdaForm, "_tooth_ints", scaled)


def _lambda_fault(monkeypatch):
    """lambda_2 replaced by 2 * lambda_2 in the solved table."""
    solve = calabi_yau.solve_lambda

    def doubled(model, d, lambdas):
        lam = solve(model, d, lambdas)
        return LambdaForm(2 * lam.alpha, 2 * lam.beta) if d == 2 else lam

    monkeypatch.setattr(calabi_yau, "solve_lambda", doubled)


FAULTS = {"tooth-at-1-times-3/2": _tooth_fault, "lambda-2-doubled": _lambda_fault}


def _integral_counts(model):
    counts = threefold_report(model, MAX_D).immersed_counts
    return all(count.denominator == 1 for count in counts.values())


def _quintic_pins(model):
    if model != QUINTIC:
        return True
    for criterion in (acceptance.quintic_counts, acceptance.lambda_table, acceptance.immersed_counts):
        try:
            criterion()
        except AssertionError:
            return False
    return True


def _mirror_identity(model):
    return verify_mirror_identity(model, MAX_D).holds


CHECKS = {
    "integrality to d = 6": _integral_counts,
    "quintic pins": _quintic_pins,
    "mirror identity": _mirror_identity,
}


def _failing_checks(model):
    """The names of the checks that fail on ``model``; a pipeline stopped by
    the correlator's t-shape check counts as that check failing."""
    failing = set()
    for name, check in CHECKS.items():
        try:
            if not check(model):
                failing.add(name)
        except LambdaShapeError as exc:
            if "retains" not in str(exc):
                raise
            failing.add("t-shape")
    return failing


@pytest.fixture(autouse=True)
def _empty_term_table():
    calabi_yau._table.clear()
    yield
    calabi_yau._table.clear()


@pytest.mark.parametrize("model", THREEFOLDS, ids=str)
def test_every_check_passes_without_a_fault(model):
    assert _failing_checks(model) == set()


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("model", THREEFOLDS, ids=str)
def test_a_seeded_fault_fails_an_existing_check(model, fault, monkeypatch):
    FAULTS[fault](monkeypatch)
    assert _failing_checks(model), f"{fault} passes every check on {model}"
