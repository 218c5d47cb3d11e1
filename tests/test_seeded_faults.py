"""Seeded faults: checks that can fail.

Each fault is monkeypatched into the comb sum or into phi's coefficients, one
at a time, and the Calabi-Yau pipeline is run from cold phi caches on the five
threefolds of ``scripts/mirror_table.py``.  At least one existing check outside the
faulted code must then fail: integrality of the immersed counts N_d to
d = 6, the literature pins (the quintic's acceptance criteria, and the N_d of
the other four from ``tests/test_calabi_yau.py``), the mirror identity, or the
correlator's t-shape check (``cy_correlator`` raises when a degree's comb
sum keeps t^0 or t^-1 terms).  Without a fault every check passes, so a
failing check points at the fault.

The phi fault adds 1 to c(D+1, 1) of every Stirling row with D >= 4, the rows
each numerator factor prod_{k=0}^{D} (l*h + k*t) is built from; one row alone
would miss models, since (3,3) in P^5 reads only the rows D = 3d.  It breaks
integrality and the pins on every threefold, but not the mirror identity:
both of its sides read the same phi.
"""

import pytest

from gwone import acceptance, calabi_yau, correlators
from gwone.calabi_yau import LambdaForm, LambdaShapeError, threefold_report
from gwone.mirror import verify_mirror_identity

from test_calabi_yau import THREEFOLD_PINS, THREEFOLDS, pinned_counts

MAX_D = 6
QUINTIC = THREEFOLDS[0]


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


def _stirling_fault(monkeypatch):
    """c(D+1, 1) + 1 in every Stirling row with D >= 4, so in phi_d's numerator."""
    stirling_row = correlators._stirling_row

    def shifted(D, top):
        row = stirling_row(D, top)
        return row if D < 4 else (row[0], row[1] + 1, *row[2:])

    monkeypatch.setattr(correlators, "_stirling_row", shifted)


FAULTS = {
    "tooth-at-1-times-3/2": _tooth_fault,
    "lambda-2-doubled": _lambda_fault,
    "stirling-c1-plus-1": _stirling_fault,
}


def _integral_counts(model):
    counts = threefold_report(model, MAX_D).immersed_counts
    return all(count.denominator == 1 for count in counts.values())


def _literature_pins(model):
    """The pinned N_d of the four other threefolds; the quintic's acceptance criteria."""
    if model != QUINTIC:
        return pinned_counts(model) == THREEFOLD_PINS[model]
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
    "literature pins": _literature_pins,
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


def _clear_tables():
    calabi_yau._table.clear()
    correlators.phi.cache_clear()
    correlators._phi_form.cache_clear()


@pytest.fixture(autouse=True)
def _cold_tables():
    # a faulted phi must neither read nor leave a cached form
    _clear_tables()
    yield
    _clear_tables()


@pytest.mark.parametrize("model", THREEFOLDS, ids=str)
def test_every_check_passes_without_a_fault(model):
    assert _failing_checks(model) == set()


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("model", THREEFOLDS, ids=str)
def test_a_seeded_fault_fails_an_existing_check(model, fault, monkeypatch):
    FAULTS[fault](monkeypatch)
    assert _failing_checks(model), f"{fault} passes every check on {model}"


@pytest.mark.parametrize("model", THREEFOLDS, ids=str)
def test_the_phi_fault_fails_integrality_and_the_pins(model, monkeypatch):
    _stirling_fault(monkeypatch)
    assert {"integrality to d = 6", "literature pins"} <= _failing_checks(model)
