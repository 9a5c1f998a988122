"""Command-line surface: partitions, means, polynomials and identity checks.

Subcommands::

    oapoly partitions check --s 4 --parts 2,1,1
    oapoly partitions list --s 5
    oapoly means eval --mean hm --method lagrange --inputs vectors.json
    oapoly poly eval --poly poly.json --input vector.json
    oapoly poly multilinear --poly poly.json --inputs vectors.json
    oapoly poly oa-check --poly poly.json --trials 200 --seed 0
    oapoly verify {rmp|gm|schur|ortho|hm|geos|wgm|cross} --s 3 --n 4 --trials 100 --seed 7
    oapoly verify hm --s 3 --n 4 --trials 100 --seed 7 --trial 42
    oapoly verify all --s 3 --n 4 --trials 100 --seed 7 [--format json|csv|human]
    oapoly verify falsify --claim hm --poly poly.json --budget 10000 --seed 0

Exit codes: 0 success or pass, 1 verification failure (a counterexample was
found where a pass was expected), 2 usage error or malformed input, 3
inconclusive: a falsification that exhausted its budget, or a grid mean
whose gap bound is infinite (its JSON is printed all the same). All
randomness flows from the single ``--seed`` flag; identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys

from .lattice import PositiveVector, vector_from_json
from .means import (
    InfimumSpec,
    MeanResult,
    geometric_mean,
    harmonic_mean,
    harmonic_mean_via_infimum,
    root_mean_power,
    weighted_geometric_mean,
    wgm_via_infimum,
)
from .partitions import CompletePartition, enumerate_complete, is_complete, weights
from .polynomials import is_positively_orthogonally_additive, polynomial_from_json
from .reports import CSV_HEADER, VerificationReport, json_safe
from .theorems import CLAIMS, falsify, verify_all, verify_claim

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_CLAIMS_BY_FLAG = {claim.flag: claim for claim in CLAIMS}


class UsageError(Exception):
    """Bad arguments or malformed input files; maps to exit code 2."""


def _emit(payload) -> None:
    """Print strict JSON: non-finite floats as the strings "inf", "-inf", "nan"."""
    print(json.dumps(json_safe(payload), indent=2, sort_keys=True, allow_nan=False))


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated integer list, got {text!r}")
    if not values:
        raise UsageError(f"{flag} must not be empty")
    return values


def _load(path: str, what: str, parse):
    """``parse`` of the JSON in the ``what`` file ``path``. A file that cannot
    be read or is not UTF-8 JSON, and a ValueError or TypeError of
    ``parse``, are a UsageError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"{what} file not found: {path}")
    except OSError as exc:  # a directory, or no permission
        raise UsageError(f"{what} file {path} cannot be read: {exc.strerror}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, too deep, too many digits
        raise UsageError(f"{what} file {path} is not valid UTF-8 JSON: {exc}")
    try:
        return parse(payload)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"{what} file {path}: {exc}")


def _vectors(payload) -> list[PositiveVector]:
    if not isinstance(payload, list) or not payload:
        raise ValueError("expected a nonempty JSON array of vectors")
    out = []
    for k, row in enumerate(payload):
        try:
            out.append(vector_from_json(row, positive=True))
        except ValueError as exc:
            raise ValueError(f"vector #{k}: {exc}") from None
    return out


# -- subcommand handlers ---------------------------------------------------------


def _cmd_partitions(args) -> int:
    if args.action == "list":
        parts = enumerate_complete(args.s)
        _emit({"s": args.s, "partitions": [list(p) for p in parts]})
        return EXIT_OK
    parts = _parse_int_list(args.parts, "--parts")
    complete = is_complete(parts, args.s)
    payload = {"s": args.s, "parts": list(parts), "complete": complete}
    if complete:
        cp = CompletePartition(parts, args.s)
        payload["weights"] = [str(w) for w in weights(cp)]
    _emit(payload)
    return EXIT_OK


def _reject_unused(command: str, *flags) -> None:
    """A flag that ``oapoly {command}`` would ignore is a usage error, not a
    silently dropped input: each of ``flags`` is (flag, its value, None when
    not given, and whether the command uses it)."""
    for flag, value, used in flags:
        if value is not None and not used:
            raise UsageError(f"{flag} does not apply to 'oapoly {command}'")


def _cmd_means(args) -> int:
    mean, method = args.mean, args.method
    # the grids take and check --log-width alike, though only the wgm grid reads it
    _reject_unused(f"means eval --mean {mean}", ("--weights", args.weights, mean == "wgm"))
    _reject_unused(f"means eval --method {method}",
                   ("--resolution", args.resolution, method == "grid"),
                   ("--log-width", args.log_width, method == "grid"))
    resolution = InfimumSpec.resolution if args.resolution is None else args.resolution
    log_width = InfimumSpec.log_width if args.log_width is None else args.log_width
    fs = _load(args.inputs, "inputs", _vectors)

    weight_parts = None
    if args.weights is not None:
        weight_parts = _parse_int_list(args.weights, "--weights")
    if mean in ("hm", "gm") and args.s not in (None, len(fs)):
        raise UsageError(f"--s {args.s} does not match the {len(fs)} input vectors")

    if mean == "wgm":
        if weight_parts is None:
            raise UsageError("--weights r1,..,rp is required for --mean wgm")
        total = sum(weight_parts)
        if args.s not in (None, total):
            raise UsageError(f"--s {args.s} does not match the weight total {total}")
        w = weights(CompletePartition(weight_parts, total))
        if method == "closed":
            result = MeanResult(weighted_geometric_mean(w, fs), "closed_form")
        else:
            spec = InfimumSpec("weighted_geometric", weights=w, resolution=resolution,
                               log_width=log_width)
            result = wgm_via_infimum(w, fs, spec, method=method)
    elif mean == "hm":
        if method == "closed":
            result = MeanResult(harmonic_mean(fs), "closed_form")
        else:
            spec = InfimumSpec("harmonic", arity=len(fs), resolution=resolution,
                               log_width=log_width)
            result = harmonic_mean_via_infimum(fs, spec, method=method)
    elif mean == "gm":
        if method != "closed":
            raise UsageError("the geometric mean has a closed-form route only; "
                             "use --mean wgm with equal weights for the infimum routes")
        result = MeanResult(geometric_mean(fs), "closed_form")
    else:  # rmp
        if args.s is None:
            raise UsageError("--s (the power) is required for --mean rmp")
        if method != "closed":
            raise UsageError("the root mean power has a closed-form route only")
        result = MeanResult(root_mean_power(args.s, fs), "closed_form")

    _emit({"value": result.value.to_array(), "method": result.method,
           "residual_bound": result.residual_bound})
    # the grid's box missed the infimum: the value is no usable estimate
    return EXIT_INCONCLUSIVE if result.residual_bound == float("inf") else EXIT_OK


def _cmd_poly(args) -> int:
    P = _load(args.poly, "polynomial", polynomial_from_json)
    if args.action == "eval":
        f = _load(args.input, "input", vector_from_json)
        _emit({"value": P(f)})
        return EXIT_OK
    if args.action == "multilinear":
        fs = _load(args.inputs, "inputs", _vectors)
        _emit({"value": P.multilinear(*fs)})
        return EXIT_OK
    report = is_positively_orthogonally_additive(P, trials=args.trials, seed=args.seed,
                                                 exhaustive=args.exhaustive)
    _emit(report.to_dict())
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def _print_reports(reports: list[VerificationReport], fmt: str) -> None:
    if fmt == "json":
        _emit({"reports": [r.to_dict() for r in reports],
               "all_passed": all(r.passed for r in reports)})
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow(r.csv_row())
        sys.stdout.write(buf.getvalue())
    else:
        width = max(len(r.claim_id) for r in reports)
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"{r.claim_id:<{width}}  {status}  trials={r.trials}"
                f"  max_residual={r.max_residual:.3e}  tolerance={r.tolerance:.3e}"
            )


def _parse_partition(args) -> CompletePartition | None:
    if args.partition is None:
        return None
    parts = _parse_int_list(args.partition, "--partition")
    return CompletePartition(parts, sum(parts))


def _verify_flags(args, claim) -> tuple:
    """The flags of ``oapoly verify`` for `_reject_unused`: --poly and
    --partition where ``claim`` (None: every claim) takes them, --format in
    ``verify all``, --claim and --budget in ``verify falsify``, and --trial
    in a single claim's sweep."""
    falsifying = args.claim == "falsify"
    return (("--poly", args.poly, claim and claim.takes_poly),
            ("--partition", args.partition, claim and claim.takes_partition),
            ("--format", args.format, args.claim == "all"),
            ("--claim", args.falsify_claim, falsifying),
            ("--budget", args.budget, falsifying),
            ("--trial", args.trial, args.claim not in ("all", "falsify")))


def _falsify_budget() -> int:
    """`falsify`'s default budget, the one ``--budget`` defaults to."""
    return inspect.signature(falsify).parameters["budget"].default


def _cmd_verify(args) -> int:
    if args.claim == "falsify":
        if args.poly is None:
            raise UsageError("verify falsify requires --poly FILE.json")
        P = _load(args.poly, "polynomial", polynomial_from_json)
        claim = _CLAIMS_BY_FLAG.get(args.falsify_claim)
        if claim is None or not claim.falsifiable:
            raise UsageError(
                f"--claim must be one of {sorted(c.flag for c in CLAIMS if c.falsifiable)}"
            )
        _reject_unused(f"verify falsify --claim {claim.flag}", *_verify_flags(args, claim))
        budget = _falsify_budget() if args.budget is None else args.budget
        if budget < 1:
            raise UsageError(f"--budget must be >= 1, got {budget}")
        report = falsify(P, claim.id, budget=budget, seed=args.seed,
                         partition=_parse_partition(args))
        _emit(report.to_dict())
        return EXIT_OK if report.passed else EXIT_INCONCLUSIVE

    claim = _CLAIMS_BY_FLAG.get(args.claim)
    _reject_unused(f"verify {args.claim}", *_verify_flags(args, claim))
    if args.s < 1:
        raise UsageError(f"--s must be >= 1, got {args.s}")
    if claim is None:  # all
        reports = verify_all(s=args.s, n=args.n, d=args.d, trials=args.trials, seed=args.seed)
        _print_reports(reports, args.format or "json")
        return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFICATION_FAILED

    partition = _parse_partition(args)
    poly = None if args.poly is None else _load(args.poly, "polynomial", polynomial_from_json)
    report = verify_claim(
        claim.id, s=args.s, n=args.n, d=args.d, trials=args.trials, seed=args.seed,
        partition=partition, poly=poly, trial=args.trial,
    )
    _emit(report.to_dict())
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


# -- parser ------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oapoly",
        description="Lattice means, complete partitions and orthogonally "
        "additive polynomial identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partitions", help="complete partitions of an integer")
    part_sub = p_part.add_subparsers(dest="action", required=True)
    p_list = part_sub.add_parser("list", help="enumerate all complete partitions of s")
    p_list.add_argument("--s", type=int, required=True)
    p_check = part_sub.add_parser("check", help="test one partition for completeness")
    p_check.add_argument("--s", type=int, required=True)
    p_check.add_argument("--parts", type=str, required=True, help="comma-separated parts")

    p_means = sub.add_parser("means", help="evaluate a mean on vectors from a JSON file")
    means_sub = p_means.add_subparsers(dest="action", required=True)
    p_eval = means_sub.add_parser("eval")
    p_eval.add_argument("--mean", choices=["rmp", "gm", "hm", "wgm"], required=True)
    p_eval.add_argument("--method", choices=["closed", "lagrange", "grid"], default="closed")
    p_eval.add_argument("--s", type=int, default=None,
                        help="power for rmp; arity cross-check for gm/hm; weight total for wgm")
    p_eval.add_argument("--weights", type=str, default=None,
                        help="comma-separated partition parts r1,..,rp (wgm only)")
    p_eval.add_argument("--inputs", type=str, required=True,
                        help="JSON file: array of vectors (arrays of numbers)")
    p_eval.add_argument("--resolution", type=int, default=None,
                        help=f"grid resolution m (grid only, default {InfimumSpec.resolution})")
    p_eval.add_argument("--log-width", dest="log_width", type=float, default=None,
                        help="half-width of the wgm grid's log box "
                             f"(grid only, default {InfimumSpec.log_width})")

    p_poly = sub.add_parser("poly", help="evaluate or test a polynomial from a JSON file")
    poly_sub = p_poly.add_subparsers(dest="action", required=True)
    pp_eval = poly_sub.add_parser("eval")
    pp_eval.add_argument("--poly", type=str, required=True)
    pp_eval.add_argument("--input", type=str, required=True, help="JSON file with one vector")
    pp_multi = poly_sub.add_parser("multilinear")
    pp_multi.add_argument("--poly", type=str, required=True)
    pp_multi.add_argument("--inputs", type=str, required=True)
    pp_oa = poly_sub.add_parser("oa-check", help="randomized positive orthogonal additivity test")
    pp_oa.add_argument("--poly", type=str, required=True)
    pp_oa.add_argument("--trials", type=int, default=200)
    pp_oa.add_argument("--seed", type=int, default=0)
    pp_oa.add_argument("--exhaustive", action="store_true",
                       help="try every support bipartition (dimension <= 16)")

    p_verify = sub.add_parser("verify", help="randomized identity checks and falsification")
    p_verify.add_argument(
        "claim",
        choices=sorted(_CLAIMS_BY_FLAG) + ["all", "falsify"],
    )
    p_verify.add_argument("--s", type=int, default=3, help="degree / mean arity")
    p_verify.add_argument("--n", type=int, default=4, help="lattice dimension")
    p_verify.add_argument("--d", type=int, default=1, help="codomain dimension")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--trial", type=int, default=None,
                          help="replay trial k (0 <= k < --trials) of a single claim's run "
                               "alone, as a failing run's counterexample names it")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--partition", type=str, default=None,
                          help="comma-separated parts r1,..,rp (geos/wgm)")
    p_verify.add_argument("--poly", type=str, default=None,
                          help="polynomial JSON file (defaults to random diagonal ones)")
    p_verify.add_argument("--format", choices=["json", "csv", "human"], default=None,
                          help="output format for 'verify all' (default json)")
    p_verify.add_argument("--claim", dest="falsify_claim", type=str, default=None,
                          help="claim to falsify (verify falsify only)")
    p_verify.add_argument("--budget", type=int, default=None,
                          help=f"sample budget for 'verify falsify' (default {_falsify_budget()})")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # numpy's own message for a negative seed names no flag
        if getattr(args, "seed", 0) < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        if args.command == "partitions":
            return _cmd_partitions(args)
        if args.command == "means":
            return _cmd_means(args)
        if args.command == "poly":
            return _cmd_poly(args)
        return _cmd_verify(args)
    except (UsageError, ValueError) as exc:  # PreconditionError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
