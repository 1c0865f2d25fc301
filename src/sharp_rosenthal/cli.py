"""Command-line front end.

Subcommands: bound, constants, verify, scan, limit, accompany.  Output is
deterministic for a fixed (command, config, seed): floats print with 17
significant digits so every CSV cell round-trips losslessly.  ``bound``,
``scan`` and ``accompany`` print one record as ``--output`` json, csv or
pretty; ``verify`` and ``limit`` always print JSONL, and ``constants`` CSV.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bnd
from .errors import SharpRosenthalError, UnsupportedExponents
from .measures import DiscreteRV
from .poisson import DEFAULT_CONFIG, SeriesConfig
from .suites import (
    domination_suite,
    fuzz_suite,
    qscan_suite,
    tightness_suite,
    variation_suite,
)
from .verify import _accompanying_array

EXIT_OK = 0
EXIT_CASE_FAILED = 1
EXIT_UNSUPPORTED = 2
EXIT_PARSE = 3


def fmt(x: float) -> str:
    """17 significant digits: lossless double round-trip."""
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; parse errors are 3
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _series_config(args) -> SeriesConfig:
    return SeriesConfig(tol=args.tol, max_terms=args.max_terms)


def _q(args) -> float:
    """The moment exponent q, which defaults to p."""
    return args.p if args.q is None else args.q


def _load_rv(spec: str) -> DiscreteRV:
    if spec == "zero":
        return DiscreteRV.delta(0.0)
    with open(spec, "r", encoding="utf-8") as fh:
        return DiscreteRV.from_json_dict(json.load(fh))


def _bound_to_dict(result: bnd.BoundResult) -> dict:
    cert = result.certificate
    if isinstance(cert, tuple):
        cert_dict = {
            "lambda0": cert[0].lam,
            "c0": cert[0].c,
            "lambda1": cert[1].lam,
            "c1": cert[1].c,
        }
    else:
        cert_dict = {"lambda": cert.lam, "c": cert.c}
    return {
        "value": result.value,
        "regime": result.regime,
        **cert_dict,
        "achieved_sign": result.achieved_sign,
        "error_budget": result.error_budget,
    }


def _emit_record(record: dict, output: str) -> None:
    if output == "json":
        print(json.dumps({k: fmt(v) if isinstance(v, float) else v for k, v in record.items()}))
    elif output == "csv":
        print(",".join(record.keys()))
        print(",".join(fmt(v) if isinstance(v, float) else str(v) for v in record.values()))
    else:
        width = max(len(k) for k in record)
        for k, v in record.items():
            print(f"{k:<{width}}  {fmt(v) if isinstance(v, float) else v}")


def _cmd_bound(args) -> int:
    if args.mode != "combined" and (args.A1 is not None or args.B1 is not None):
        raise ValueError(f"--A1 and --B1 apply only to --mode combined, not {args.mode}")
    cfg = _series_config(args)
    X = _load_rv(args.x)
    if args.mode == "even":
        if args.x != "zero" or _q(args) != args.p:
            raise ValueError("--mode even is the closed form for --x zero and q = p")
        result = bnd.even_p_bound(args.p, args.A, args.B)
    elif args.mode == "symmetric":
        result = bnd.symmetric_bound(args.p, _q(args), args.A, args.B, X, cfg)
    elif args.mode == "combined":
        if args.A1 is None or args.B1 is None:
            raise UnsupportedExponents("combined mode needs --A1 and --B1")
        result = bnd.combined_bound(args.p, _q(args), args.A, args.B, args.A1, args.B1, X, cfg)
    else:
        result = bnd.exact_bound(args.p, _q(args), args.A, args.B, X, cfg)
    _emit_record(_bound_to_dict(result), args.output)
    return EXIT_OK


def _parse_values(text: str) -> list[float]:
    return [float(piece) for piece in text.split(",") if piece]


def _cmd_constants(args) -> int:
    cfg = _series_config(args)
    ps = _parse_values(args.p_values)
    gammas = _parse_values(args.gamma_values)
    print("p,gamma,exact_C,classical_C,ratio")
    for p in ps:
        classical = bnd.classical_rosenthal_constant(p)
        for gamma in gammas:
            try:
                exact = bnd.best_constant(p, gamma, cfg)
            except UnsupportedExponents:
                print(f"{fmt(p)},{fmt(gamma)},unsupported,{fmt(classical)},")
                continue
            print(
                f"{fmt(p)},{fmt(gamma)},{fmt(exact)},{fmt(classical)},{fmt(classical / exact)}"
            )
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _series_config(args)
    if args.p is None:  # tightness needs an even integer p; fuzz and qscan start at 5
        args.p = 4.0 if args.suite == "tightness" else 5.0
    if args.suite == "fuzz":
        reports = fuzz_suite(args.cases, args.seed, args.p, args.q, cfg)
    elif args.suite == "domination":
        reports = domination_suite(args.cases, args.seed, args.q if args.q is not None else 5.0, cfg)
    elif args.suite == "tightness":
        reports = tightness_suite(args.p, args.A, args.B)
    elif args.suite == "variation":
        reports = variation_suite(args.cases, args.seed, cfg)
    else:  # qscan
        reports = qscan_suite(args.p, _q(args), args.A, args.B, args.grid, cfg)
    failed = 0
    for report in reports:
        _emit_record(report.to_json_dict(), "json")
        if report.status == "fail":
            failed += 1
    return EXIT_CASE_FAILED if failed else EXIT_OK


def _cmd_scan(args) -> int:
    cfg = _series_config(args)
    X = _load_rv(args.x)
    result = bnd.q_scan(args.p, _q(args), args.A, args.B, X, args.grid, cfg)
    record = {
        "best_c1": result.best_point.c1,
        "best_c2": result.best_point.c2,
        "best_lambda1": result.best_point.lambda1,
        "best_lambda2": result.best_point.lambda2,
        "best_value": result.best_value,
        "reference_bound": result.reference_bound,
        **{f"cells_{k}": v for k, v in sorted(result.counts().items())},
    }
    _emit_record(record, args.output)
    return EXIT_OK


def _cmd_limit(args) -> int:
    cfg = _series_config(args)
    X = _load_rv(args.x)
    c2s = _parse_values(args.c2)
    result = bnd.limit_compound(args.p, _q(args), args.A, args.B, args.b, args.a, c2s, X, cfg)
    for entry in result.entries:
        record = {"c2": entry.c2, "moment": entry.moment, "gap": entry.gap}
        _emit_record({**record, "limit_value": result.limit_value}, "json")
    _emit_record({"gaps_decreasing": result.gaps_decreasing}, "json")
    return EXIT_OK


def _cmd_accompany(args) -> int:
    lc, params, moment = _accompanying_array(args.p, args.A, args.B, args.n)
    record = {
        "n": args.n,
        "kappa": params.kappa,
        "gamma": params.gamma,
        "lambda": lc.lam,
        "c": lc.c,
        "moment": moment,
    }
    _emit_record(record, args.output)
    return EXIT_OK


def _add_series(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=DEFAULT_CONFIG.tol, help="series tolerance")
    parser.add_argument("--max-terms", type=int, default=DEFAULT_CONFIG.max_terms, dest="max_terms")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", choices=("json", "csv", "pretty"), default="pretty")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sharp-rosenthal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="exact bound value with its certificate")
    p_bound.add_argument("--p", type=float, required=True)
    p_bound.add_argument("--q", type=float, default=None)
    p_bound.add_argument("--A", type=float, required=True)
    p_bound.add_argument("--B", type=float, required=True)
    p_bound.add_argument("--A1", type=float, default=None)
    p_bound.add_argument("--B1", type=float, default=None)
    p_bound.add_argument("--mode", choices=("exact", "even", "symmetric", "combined"), default="exact")
    p_bound.add_argument("--x", default="zero", help="JSON DiscreteRV file or 'zero'")
    _add_series(p_bound)
    _add_output(p_bound)
    p_bound.set_defaults(func=_cmd_bound)

    p_const = sub.add_parser("constants", help="best-constant table vs the classical constant")
    p_const.add_argument("--p-values", required=True, help="comma-separated p grid")
    p_const.add_argument("--gamma-values", required=True, help="comma-separated gamma grid")
    _add_series(p_const)
    p_const.set_defaults(func=_cmd_constants)

    p_verify = sub.add_parser("verify", help="verification suites; one JSONL line per case")
    p_verify.add_argument("suite", choices=("fuzz", "domination", "tightness", "variation", "qscan"))
    p_verify.add_argument("--cases", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--p", type=float, default=None, help="default 4 for tightness, else 5")
    p_verify.add_argument("--q", type=float, default=None)
    p_verify.add_argument("--A", type=float, default=1.0)
    p_verify.add_argument("--B", type=float, default=1.0)
    p_verify.add_argument("--grid", type=int, default=20)
    _add_series(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_scan = sub.add_parser("scan", help="two-atom family grid scan")
    p_scan.add_argument("--p", type=float, required=True)
    p_scan.add_argument("--q", type=float, default=None)
    p_scan.add_argument("--A", type=float, required=True)
    p_scan.add_argument("--B", type=float, required=True)
    p_scan.add_argument("--grid", type=int, default=20)
    p_scan.add_argument("--x", default="zero")
    _add_series(p_scan)
    _add_output(p_scan)
    p_scan.set_defaults(func=_cmd_scan)

    p_limit = sub.add_parser("limit", help="two-atom limit family along a |c2| sequence")
    p_limit.add_argument("--p", type=float, required=True)
    p_limit.add_argument("--q", type=float, default=None)
    p_limit.add_argument("--A", type=float, required=True)
    p_limit.add_argument("--B", type=float, required=True)
    p_limit.add_argument("--b", type=float, required=True, help="location of the persistent atom")
    p_limit.add_argument("--a", type=float, required=True, help="mass carried to infinity")
    p_limit.add_argument("--c2", required=True, help="comma-separated |c2| sequence")
    p_limit.add_argument("--x", default="zero")
    _add_series(p_limit)
    p_limit.set_defaults(func=_cmd_limit)

    p_acc = sub.add_parser("accompany", help="near-extremal array parameters and moment at size n")
    p_acc.add_argument("--p", type=float, required=True)
    p_acc.add_argument("--A", type=float, required=True)
    p_acc.add_argument("--B", type=float, required=True)
    p_acc.add_argument("--n", type=int, required=True)
    _add_output(p_acc)
    p_acc.set_defaults(func=_cmd_accompany)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedExponents as exc:
        print(f"unsupported exponents: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SharpRosenthalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CASE_FAILED


if __name__ == "__main__":
    sys.exit(main())
