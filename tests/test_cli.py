import importlib.util
import json
import re
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gwone import acceptance, cli
from gwone.calabi_yau import LambdaForm, cy_correlator, quintic_report
from gwone.cli import laurent_from_json, laurent_to_json, main
from gwone.correlators import classify, phi
from gwone.laurent import LaurentPoly
from gwone.mirror import MirrorData, MirrorReport
from gwone.relative import RelativeModel, relative_phi
from gwone.rings import RingSpec

from strategies import CANONICAL_SPECS, coh_classes, fractions, laurent_polys


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi_text_output(capsys):
    code, out, _ = run_cli(capsys, "phi", "--n", "3", "--l", "1", "--d", "0")
    assert code == 0
    assert out.strip() == "h"


def test_quintic_json_values(capsys):
    code, out, _ = run_cli(capsys, "quintic", "--max-d", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == {
        "1": "2875",
        "2": "4876875/4",
        "3": "8564575000/9",
        "4": "15517926796875/16",
    }
    assert data["N"] == {
        "1": "2875",
        "2": "609250",
        "3": "317206375",
        "4": "242467530000",
    }


def test_general_type_rejected_with_message(capsys):
    code, out, err = run_cli(capsys, "cy", "--n", "4", "--l", "6", "--max-d", "2")
    assert code == 1
    assert out == ""
    assert "general type: l_1+...+l_m > n+1" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (("cy", "--n", "1", "--l", "2", "--max-d", "1"), "(2) in P^1"),
        (
            ("invariant", "--n", "2", "--l", "1", "--l", "1", "--l", "1", "--d", "1", "--a", "0", "--b", "0"),
            "(1,1,1) in P^2",
        ),
    ],
    ids=["cy", "invariant"],
)
def test_calabi_yau_with_m_plus_one_above_n_is_unsupported(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"unsupported Calabi-Yau model {name}" in err


def test_cy_command_rejects_fano(capsys):
    code, _, err = run_cli(capsys, "cy", "--n", "4", "--l", "1", "--max-d", "1")
    assert code == 1
    assert "not Calabi-Yau" in err


def test_invariant_command(capsys):
    code, out, _ = run_cli(
        capsys, "invariant", "--n", "4", "--l", "5", "--d", "1", "--a", "0", "--b", "1"
    )
    assert code == 0
    assert out.strip() == "2875"


def test_correlator_dispatches_by_classification(capsys):
    code, out, _ = run_cli(
        capsys, "correlator", "--n", "3", "--l", "3", "--d", "1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "fano-index-one"


def test_mirror_command_reports_verdict(capsys):
    code, out, _ = run_cli(
        capsys, "mirror", "--n", "4", "--l", "5", "--max-d", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True
    assert data["a"]["1"] == "-770"
    assert data["b"]["2"] == "-13800"


def test_json_round_trip_absolute(capsys):
    model = classify(4, (5,))
    code, out, _ = run_cli(
        capsys, "correlator", "--n", "4", "--l", "5", "--d", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    parsed = laurent_from_json(model.spec, data["correlator"])
    assert parsed == cy_correlator(model, 2)


def test_json_round_trip_relative(capsys):
    model = RelativeModel(n=2, base_cutoff=2, degrees=(1,))
    code, out, _ = run_cli(
        capsys,
        "relative",
        "phi",
        "--n",
        "2",
        "--cutoff",
        "2",
        "--l",
        "1",
        "--d",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    parsed = laurent_from_json(model.spec, data["phi"])
    assert parsed == relative_phi(model, 1)


def test_round_trip_preserves_negative_rationals():
    model = classify(4, (5,))
    value = cy_correlator(model, 2)
    assert laurent_from_json(model.spec, laurent_to_json(value)) == value


@given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
@example(0, 7)
@example(0, 1)
@example(-12, 1)
@example(-4, 6)
@example(9, 3)
def test_ratio_is_the_fraction_string(v, den):
    assert cli._ratio(v, den) == str(Fraction(v, den))


@given(st.sampled_from([RingSpec.absolute(n) for n in (0, 2, 4)]), st.data())
def test_absolute_class_json_is_each_coefficient_string(spec, data):
    cls = data.draw(coh_classes(spec))
    expected = [str(cls.coefficient(k)) for k in range(spec.n + 1)]
    assert cli.coh_to_json(cls) == {"h": expected}


def laurent_json_oracle(poly: LaurentPoly) -> list[dict]:
    """The serialiser's former route: one reduced class per t-exponent from
    ``items()``, each coefficient rendered by ``str(Fraction)``."""
    spec, out = poly.spec, []
    names = spec.generator_names()
    for exp, cls in reversed(list(poly.items())):
        if not spec.is_relative:
            out.append({"t": exp, "h": [str(cls.coefficient(k)) for k in range(spec.n + 1)]})
            continue
        terms = [
            {"h": k, "base": {names[i]: e for i, e in enumerate(mono) if e}, "c": str(c)}
            for k, mono, c in sorted(cls.terms())
        ]
        out.append({"t": exp, "terms": terms})
    return out


@pytest.mark.parametrize("spec", CANONICAL_SPECS)
@given(st.data())
def test_laurent_json_matches_the_per_class_route(spec, data):
    poly = data.draw(laurent_polys(spec)) * data.draw(fractions.filter(bool))
    text = json.dumps(laurent_to_json(poly))
    assert text == json.dumps(laurent_json_oracle(poly))
    assert laurent_from_json(spec, json.loads(text)) == poly
    for entry, (_, cls) in zip(json.loads(text), reversed(list(poly.items()))):
        assert {"t": entry["t"], **cli.coh_to_json(cls)} == entry


def test_relative_porteous_output(capsys):
    code, out, _ = run_cli(
        capsys, "relative", "porteous", "--n", "2", "--cutoff", "4", "--m", "3"
    )
    assert code == 0
    assert out.strip() == "s2^2 - s1*s3"


def test_relative_linear_cy_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "relative",
        "linear-cy",
        "--n",
        "2",
        "--cutoff",
        "3",
        "--max-d",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["lambda"]["2"]["a"] == "-1/2"


def test_out_flag_writes_json_document(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys,
        "phi",
        "--n",
        "3",
        "--l",
        "1",
        "--d",
        "1",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "quintic", "--max-d", "3", "--format", "json")
    _, second, _ = run_cli(capsys, "quintic", "--max-d", "3", "--format", "json")
    assert first == second


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["phi", "--n", "3", "--bogus"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("quintic", "--max-d", "-1"),
        ("quintic", "--max-d", "0"),
        ("cy", "--n", "4", "--l", "5", "--max-d", "-2"),
        ("phi", "--n", "0", "--l", "1", "--d", "1"),
        ("phi", "--n", "3", "--l", "1", "--d", "-1"),
        ("phi", "--n", "3", "--l", "0", "--d", "1"),
        ("relative", "euler", "--n", "2", "--cutoff", "-1", "--d", "1"),
        ("invariant", "--n", "4", "--l", "5", "--d", "1", "--a", "-1", "--b", "0"),
        ("relative", "porteous", "--n", "2", "--cutoff", "3", "--m", "0"),
    ],
    ids=["quintic-max-d-neg", "quintic-max-d-0", "cy-max-d", "n", "d", "l", "cutoff", "a", "m"],
)
def test_out_of_range_argument_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    assert "must be >=" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, echo, results",
    [
        (
            ("phi", "--n", "3", "--l", "2", "--l", "1", "--d", "1"),
            {"command": "phi", "n": 3, "degrees": [2, 1], "d": 1},
            {"phi"},
        ),
        (
            ("phi", "--n", "2", "--d", "1"),
            {"command": "phi", "n": 2, "degrees": [], "d": 1},
            {"phi"},
        ),
        (
            ("correlator", "--n", "3", "--l", "3", "--d", "1"),
            {"command": "correlator", "n": 3, "degrees": [3], "d": 1},
            {"classification", "correlator"},
        ),
        (
            ("invariant", "--n", "3", "--l", "3", "--d", "1", "--a", "0", "--b", "1"),
            {"command": "invariant", "n": 3, "degrees": [3], "d": 1, "a": 0, "b": 1},
            {"value"},
        ),
        (
            ("cy", "--n", "4", "--l", "5", "--max-d", "1"),
            {"command": "cy", "n": 4, "degrees": [5], "max_d": 1},
            {"lambda", "correlators"},
        ),
        (
            ("quintic", "--max-d", "1"),
            {"command": "quintic", "max_d": 1},
            {"n", "m", "N", "lambda"},
        ),
        (
            ("mirror", "--n", "4", "--l", "5", "--max-d", "1"),
            {"command": "mirror", "n": 4, "degrees": [5], "max_d": 1},
            {"a", "b", "holds", "first_failing_degree"},
        ),
        (
            ("relative", "euler", "--n", "2", "--cutoff", "3", "--d", "1"),
            {"command": "relative-euler", "n": 2, "cutoff": 3, "d": 1},
            {"euler"},
        ),
        (
            ("relative", "phi", "--n", "2", "--cutoff", "3", "--l", "1", "--d", "1"),
            {"command": "relative-phi", "n": 2, "cutoff": 3, "degrees": [1], "d": 1},
            {"phi"},
        ),
        (
            ("relative", "porteous", "--n", "2", "--cutoff", "4", "--m", "3"),
            {"command": "relative-porteous", "n": 2, "cutoff": 4, "m": 3},
            {"class"},
        ),
        (
            ("relative", "linear-cy", "--n", "2", "--cutoff", "3", "--max-d", "1"),
            {"command": "relative-linear-cy", "n": 2, "cutoff": 3, "max_d": 1},
            {"lambda", "pushforward"},
        ),
    ],
    ids=[
        "phi",
        "phi-without-l",
        "correlator",
        "invariant",
        "cy",
        "quintic",
        "mirror",
        "relative-euler",
        "relative-phi",
        "relative-porteous",
        "relative-linear-cy",
    ],
)
def test_json_document_echoes_the_arguments(tmp_path, capsys, argv, echo, results):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--out", str(target))
    assert code == 0
    data = json.loads(out)
    assert set(data) == set(echo) | results
    assert {key: data[key] for key in echo} == echo
    assert json.loads(target.read_text()) == data


def test_selftest_document_and_failure_exit_code(monkeypatch, capsys):
    failing = [
        acceptance.CriterionResult(1, "first", True, "ok"),
        acceptance.CriterionResult(2, "second", False, "broken"),
    ]
    monkeypatch.setattr(acceptance, "run_all", lambda: failing)
    code, out, _ = run_cli(capsys, "selftest", "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "command": "selftest",
        "results": [
            {"number": 1, "name": "first", "passed": True, "detail": "ok"},
            {"number": 2, "name": "second", "passed": False, "detail": "broken"},
        ],
    }
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert out == "PASS  criterion  1  first: ok\nFAIL  criterion  2  second: broken\n"


def test_relative_euler_takes_no_degrees(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["relative", "euler", "--n", "2", "--cutoff", "3", "--l", "1", "--d", "1"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --l 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, usage, unknown",
    [
        (
            ("relative", "euler", "--n", "2", "--cutoff", "3", "--d", "1", "--l", "1"),
            "usage: gw relative euler ",
            "--l 1",
        ),
        (("phi", "--n", "3", "--d", "1", "--bogus"), "usage: gw phi ", "--bogus"),
    ],
    ids=["relative-euler", "phi"],
)
def test_unknown_option_is_reported_with_the_subcommand_usage(capsys, argv, usage, unknown):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(usage)
    assert f"unrecognized arguments: {unknown}" in captured.err


def _failing_mirror_report(model, order, lambdas=None):
    data = MirrorData(a={1: Fraction(-770)}, b={1: Fraction(-120)}, order=1)
    return MirrorReport(holds=False, first_failing_degree=1, order=1, mirror=data)


def test_mirror_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_mirror_identity", _failing_mirror_report)
    code, out, _ = run_cli(
        capsys, "mirror", "--n", "4", "--l", "5", "--max-d", "1", "--format", "json"
    )
    assert code == 1
    assert json.loads(out) == {
        "command": "mirror",
        "n": 4,
        "degrees": [5],
        "max_d": 1,
        "a": {"1": "-770"},
        "b": {"1": "-120"},
        "holds": False,
        "first_failing_degree": 1,
    }
    code, out, _ = run_cli(capsys, "mirror", "--n", "4", "--l", "5", "--max-d", "1")
    assert code == 1
    assert out.splitlines()[-1] == "mirror identity to q^1: fails at q^1"


def test_mirror_table_script_exit_code(monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "mirror_table.py"
    spec = importlib.util.spec_from_file_location("mirror_table", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["mirror_table.py", "--max-d", "1"])
    assert script.main() == 0
    assert capsys.readouterr().out.splitlines()[-1] == "mirror identity to q^1: holds"
    monkeypatch.setattr(script, "verify_mirror_identity", _failing_mirror_report)
    assert script.main() == 1
    assert capsys.readouterr().out.splitlines()[-1] == "mirror identity to q^1: FAILS at q^1"


def _readme_cli_lines():
    """The ``gw ...`` lines of the code block under "## CLI" in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("gw ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_example(capsys, line):
    command, _, comment = line.partition("#")
    expected_code = int(m.group(1)) if (m := re.search(r"exits (\d+)", comment)) else 0
    try:
        code = main(shlex.split(command)[1:])
    except SystemExit as exc:
        code = exc.code
    assert code == expected_code
    if m := re.search(r"prints: (.*?)(?:\s{2,}|$)", comment):
        assert capsys.readouterr().out.splitlines()[0] == m.group(1)


def test_readme_cli_block_is_found():
    assert len(_readme_cli_lines()) >= 10


def test_degree_12_runs_without_a_note(capsys):
    code, _, err = run_cli(capsys, "quintic", "--max-d", "12", "--format", "json")
    assert code == 0
    assert err == ""


def _stub_comb_sums(monkeypatch):
    """Stand-ins for the 2^d comb sums, so a degree-25 request returns at once."""

    def lambdas(model, d):
        return {e: LambdaForm(Fraction(0), Fraction(0)) for e in range(1, d + 1)}

    monkeypatch.setattr(cli, "quintic_report", lambda d: quintic_report(1))
    monkeypatch.setattr(cli, "solve_lambdas_up_to", lambdas)
    monkeypatch.setattr(cli, "cy_correlator", lambda m, d, lambdas: LaurentPoly.zero(m.spec))
    monkeypatch.setattr(cli, "correlator", lambda m, d: LaurentPoly.zero(m.spec))
    monkeypatch.setattr(cli, "verify_mirror_identity", _failing_mirror_report)


@pytest.mark.parametrize(
    "argv, degree",
    [
        (("quintic", "--max-d", "13"), 13),
        (("cy", "--n", "4", "--l", "5", "--max-d", "14"), 14),
        (("mirror", "--n", "4", "--l", "5", "--max-d", "25"), 25),
        (("correlator", "--n", "5", "--l", "3", "--l", "3", "--d", "13"), 13),
        (("invariant", "--n", "4", "--l", "5", "--d", "13", "--a", "0", "--b", "1"), 13),
        (("correlator", "--n", "4", "--l", "2", "--d", "13"), None),
    ],
    ids=["quintic", "cy", "mirror", "correlator", "invariant", "fano"],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_exponential_request_notes_its_comb_count(monkeypatch, capsys, argv, degree, fmt):
    _stub_comb_sums(monkeypatch)
    noted = run_cli(capsys, *argv, "--format", fmt)
    if degree is None:
        assert noted[2] == ""
    else:
        assert noted[2] == (
            f"note: degree {degree} sums 2^{degree} = {2**degree} combs; "
            "the time doubles with each degree\n"
        )
    monkeypatch.setattr(cli, "_QUIET_MAX_DEGREE", 99)
    quiet = run_cli(capsys, *argv, "--format", fmt)
    assert quiet[2] == ""
    assert quiet[:2] == noted[:2]
