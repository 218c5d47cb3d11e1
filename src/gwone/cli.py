"""The ``gw`` command line: exact invariants in text or JSON form.

Output is deterministic (sorted keys, no timestamps, no environment
lookups); rationals serialize as "p/q" strings, never floats.  Exit codes:
0 success, 1 math-domain error (e.g. a general-type model) or a failed check
(selftest, the mirror identity), 2 usage error or an unwritable ``--out``.
A Calabi-Yau request above degree 12 first prints one ``note:`` line with
its 2^d comb count to stderr.
"""

from __future__ import annotations

import json
import sys
from math import gcd
from pathlib import Path

from .calabi_yau import _lambdas_and_correlators, correlator, quintic_report
from .correlators import CIModel, Classification, classify, one_point_invariant, phi
from .laurent import LaurentPoly
from .mirror import verify_mirror_identity
from .relative import (
    derive_linear_cy_lambdas,
    linear_cy_model,
    linear_cy_pushforward,
    porteous_lines,
    relative_euler,
)
from .rings import CohClass, RingSpec

# -- serialization ----------------------------------------------------------


def _ratio(v: int, den: int) -> str:
    """str(Fraction(v, den)) for den > 0, with one gcd and no Fraction."""
    g = gcd(v, den)
    return str(v // g) if g == den else f"{v // g}/{den // g}"


def _class_json(spec: RingSpec, num: dict[int, int], den: int) -> dict:
    """The JSON of the class with numerators ``num`` by basis key over ``den`` > 0,
    which need not be in lowest terms: each nonzero coefficient is reduced once, by
    ``_ratio``, and an absent one is written "0" without a call."""
    if not spec.is_relative:  # one basis element per power of h: key k is h^k
        return {"h": [_ratio(v, den) if (v := num.get(k)) else "0" for k in range(spec.n + 1)]}
    names, basis = spec.generator_names(), spec.basis
    terms = []
    # Sorted by (h-exponent, monomial tuple), which is not basis order.
    order = sorted((key // basis.size, basis.monos[key % basis.size], key) for key in num)
    for k, mono, key in order:
        base = {names[i]: e for i, e in enumerate(mono) if e}
        terms.append({"h": k, "base": base, "c": _ratio(num[key], den)})
    return {"terms": terms}


def coh_to_json(cls: CohClass) -> dict:
    return _class_json(cls.spec, cls._num, cls._den)


def laurent_to_json(poly: LaurentPoly) -> list[dict]:
    """One entry per nonzero t-coefficient, highest exponent first, each formatted
    against the polynomial's own denominator."""
    groups = poly._groups()
    return [
        {"t": e, **_class_json(poly.spec, groups[e], poly._den)}
        for e in sorted(groups, reverse=True)
    ]


def _lambda_json(lambdas) -> dict:
    return {
        str(d): {"alpha": str(lam.alpha), "beta": str(lam.beta)}
        for d, lam in sorted(lambdas.items())
    }


# -- command handlers -------------------------------------------------------
# A handler returns its result fields and its text; main() builds the document.


def _model(args) -> CIModel:
    """The model in P^n, or over a base for the ``relative`` commands' ``--cutoff``."""
    return CIModel(args.n, args.degrees, base_cutoff=getattr(args, "cutoff", 0))


# Calabi-Yau degrees up to this one finish in seconds; each further degree doubles the time.
_QUIET_MAX_DEGREE = 12


def _note_combs(model: CIModel, degree: int) -> None:
    """Say on stderr, before the work starts, that a Calabi-Yau request of a
    degree above ``_QUIET_MAX_DEGREE`` sums 2^degree combs; stdout is untouched."""
    if degree > _QUIET_MAX_DEGREE and model.classification is Classification.CALABI_YAU:
        print(
            f"note: degree {degree} sums 2^{degree} = {2**degree} combs; "
            "the time doubles with each degree",
            file=sys.stderr,
        )


def cmd_phi(args) -> tuple[dict, str]:
    value = phi(_model(args), args.d)
    return {"phi": laurent_to_json(value)}, str(value)


def cmd_correlator(args) -> tuple[dict, str]:
    model = _model(args)
    _note_combs(model, args.d)
    value = correlator(model, args.d)
    fields = {
        "classification": model.classification.value,
        "correlator": laurent_to_json(value),
    }
    return fields, str(value)


def cmd_invariant(args) -> tuple[dict, str]:
    model = _model(args)
    _note_combs(model, args.d)
    value = one_point_invariant(correlator(model, args.d), args.a, args.b)
    return {"value": str(value)}, str(value)


def cmd_cy(args) -> tuple[dict, str]:
    model = _model(args)
    _note_combs(model, args.max_d)
    lambdas, correlators = _lambdas_and_correlators(model, args.max_d)
    fields = {
        "lambda": _lambda_json(lambdas),
        "correlators": {str(d): laurent_to_json(c) for d, c in correlators.items()},
    }
    lines = [f"model: {model}"]
    for d in range(1, args.max_d + 1):
        lines.append(f"lambda_{d} = {lambdas[d]}")
    for d in range(args.max_d + 1):
        lines.append(f"degree {d}: {correlators[d]}")
    return fields, "\n".join(lines)


def cmd_quintic(args) -> tuple[dict, str]:
    _note_combs(classify(4, (5,)), args.max_d)
    report = quintic_report(args.max_d)
    fields = {
        "n": {str(r.degree): str(r.n_d) for r in report.rows},
        "m": {str(r.degree): str(r.m_d) for r in report.rows},
        "N": {str(d): str(v) for d, v in sorted(report.immersed_counts.items())},
        "lambda": _lambda_json({r.degree: r.lam for r in report.rows}),
    }
    lines = ["quintic threefold"]
    for r in report.rows:
        lines.append(
            f"d={r.degree}  n_d={r.n_d}  m_d={r.m_d}  "
            f"N_d={report.immersed_counts[r.degree]}  lambda_d = {r.lam}"
        )
    return fields, "\n".join(lines)


def cmd_mirror(args) -> tuple[dict, str]:
    model = _model(args)
    _note_combs(model, args.max_d)
    report = verify_mirror_identity(model, args.max_d)
    fields = {
        "a": {str(e): str(v) for e, v in sorted(report.mirror.a.items())},
        "b": {str(e): str(v) for e, v in sorted(report.mirror.b.items())},
        "holds": report.holds,
        "first_failing_degree": report.first_failing_degree,
    }
    lines = [f"model: {model}"]
    for e in sorted(report.mirror.a):
        lines.append(f"a_{e} = {report.mirror.a[e]}   b_{e} = {report.mirror.b[e]}")
    verdict = "holds" if report.holds else f"fails at q^{report.first_failing_degree}"
    lines.append(f"mirror identity to q^{args.max_d}: {verdict}")
    return fields, "\n".join(lines)


def cmd_relative_euler(args) -> tuple[dict, str]:
    value = relative_euler(CIModel(args.n, base_cutoff=args.cutoff), args.d)
    return {"euler": laurent_to_json(value)}, str(value)


def cmd_relative_porteous(args) -> tuple[dict, str]:
    model = CIModel(args.n, (1,) * args.m, base_cutoff=args.cutoff)
    value = porteous_lines(model)
    return {"class": coh_to_json(value)}, str(value)


def cmd_relative_linear_cy(args) -> tuple[dict, str]:
    model = linear_cy_model(args.n, args.cutoff)
    pairs = derive_linear_cy_lambdas(model, args.max_d)
    pushforwards = {d: linear_cy_pushforward(model, d) for d in range(1, args.max_d + 1)}
    fields = {
        "lambda": {
            str(e): {"a": str(a), "b": coh_to_json(b)}
            for e, (a, b) in enumerate(pairs, start=1)
        },
        "pushforward": {str(d): coh_to_json(c) for d, c in pushforwards.items()},
    }
    lines = [f"linear Calabi-Yau over P^{args.n}-bundle, cutoff {args.cutoff}"]
    for e, (a, b) in enumerate(pairs, start=1):
        lines.append(f"lambda_{e} = ({a})*t + ({b})")
    for d, c in pushforwards.items():
        lines.append(f"pushforward d={d}: {c}")
    return fields, "\n".join(lines)


def cmd_selftest(args) -> tuple[dict, str]:
    from . import acceptance  # here, not at import: only this command runs the criteria

    results = acceptance.run_all()
    fields = {
        "results": [
            {"number": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
    }
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  criterion {r.number:2d}  {r.name}: {r.detail}")
    return fields, "\n".join(lines)


# -- parser -----------------------------------------------------------------


def _build_parser():
    import argparse  # here, not at import: importing gwone.cli for its serialisers parses nothing

    def at_least(low: int):
        """An argparse ``type``: an integer >= low, so out-of-range values exit 2."""

        def integer(text: str) -> int:
            if int(text) < low:
                raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
            return int(text)

        return integer

    positive, natural = at_least(1), at_least(0)
    text_or_json = argparse.ArgumentParser(add_help=False)
    text_or_json.add_argument("--format", choices=("text", "json"), default="text")
    output = argparse.ArgumentParser(add_help=False, parents=[text_or_json])
    output.add_argument("--out", type=Path, help="also write the JSON document here")
    model = argparse.ArgumentParser(add_help=False, parents=[output])
    model.add_argument("--n", type=positive, required=True)
    model.add_argument(
        "--l", type=positive, action="append", default=[], dest="degrees", metavar="L"
    )
    bundle = argparse.ArgumentParser(add_help=False, parents=[output])
    bundle.add_argument("--n", type=positive, required=True)
    bundle.add_argument("--cutoff", type=natural, required=True)

    parser = argparse.ArgumentParser(
        prog="gw",
        description="Exact one-point genus-zero Gromov-Witten invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", parents=[model], help="the hypergeometric Laurent polynomial")
    p.add_argument("--d", type=natural, required=True)
    p.set_defaults(handler=cmd_phi, parser=p)

    p = sub.add_parser("correlator", parents=[model], help="the one-point correlator")
    p.add_argument("--d", type=natural, required=True)
    p.set_defaults(handler=cmd_correlator, parser=p)

    p = sub.add_parser("invariant", parents=[model], help="a single one-point invariant")
    p.add_argument("--d", type=natural, required=True)
    p.add_argument("--a", type=natural, required=True, help="cotangent-class power")
    p.add_argument("--b", type=natural, required=True, help="hyperplane-class power")
    p.set_defaults(handler=cmd_invariant, parser=p)

    p = sub.add_parser("cy", parents=[model], help="Calabi-Yau correlators and lambda table")
    p.add_argument("--max-d", type=natural, required=True)
    p.set_defaults(handler=cmd_cy, parser=p)

    p = sub.add_parser("quintic", parents=[output], help="full quintic pipeline")
    p.add_argument("--max-d", type=positive, required=True)
    p.set_defaults(handler=cmd_quintic, parser=p)

    p = sub.add_parser("mirror", parents=[model], help="mirror coefficients and verification")
    p.add_argument("--max-d", type=natural, required=True)
    p.set_defaults(handler=cmd_mirror, parser=p)

    rel = sub.add_parser("relative", help="projective-bundle computations")
    rel_sub = rel.add_subparsers(dest="relative_command", required=True)

    p = rel_sub.add_parser("euler", parents=[bundle], help="relative equivariant Euler class")
    p.add_argument("--d", type=natural, required=True)
    p.set_defaults(handler=cmd_relative_euler, parser=p)

    p = rel_sub.add_parser("phi", parents=[bundle], help="relative phi")
    p.add_argument(
        "--l", type=positive, action="append", default=[], dest="degrees", metavar="L"
    )
    p.add_argument("--d", type=natural, required=True)
    p.set_defaults(handler=cmd_phi, parser=p)

    p = rel_sub.add_parser("porteous", parents=[bundle], help="Porteous class of lines")
    p.add_argument("--m", type=positive, required=True, help="number of linear sections")
    p.set_defaults(handler=cmd_relative_porteous, parser=p)

    p = rel_sub.add_parser("linear-cy", parents=[bundle], help="linear Calabi-Yau pipeline")
    p.add_argument("--max-d", type=natural, required=True)
    p.set_defaults(handler=cmd_relative_linear_cy, parser=p)

    p = sub.add_parser("selftest", parents=[text_or_json], help="run the acceptance checks")
    p.set_defaults(handler=cmd_selftest, parser=p)

    return parser


# Parsed attributes that are not echoed into the document.
_NOT_ECHOED = ("handler", "parser", "format", "out", "command", "relative_command")


def main(argv: list[str] | None = None) -> int:
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        # reported with the chosen subcommand's usage, not the top-level one
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        fields, text = args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parsed = vars(args)
    command = "-".join(filter(None, (args.command, parsed.get("relative_command"))))
    echo = {key: value for key, value in parsed.items() if key not in _NOT_ECHOED}
    document = json.dumps({"command": command, **echo, **fields}, indent=2, sort_keys=True)
    out = parsed.get("out")
    if out is not None:
        try:
            out.write_text(document + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    print(document if args.format == "json" else text)
    # a document that reports a failed check (selftest's results, mirror's holds) exits 1
    passed = fields.get("holds", True) and all(r["passed"] for r in fields.get("results", ()))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
