"""The command line, parsed before the engine loads: this module imports no
numpy and no layer module, so ``--help``, a usage error and an ``--out`` that
cannot be written exit (0 or 2) before ``cli`` is imported.  ``main`` is the
process entry of ``python -m binomdiv`` and the ``binomdiv`` script."""

import argparse
import os
import sys

DEFAULT_SEED = 42


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _coefficients(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expects a comma-separated integer list: {exc}") from None
    if not values:
        raise argparse.ArgumentTypeError("must list at least one coefficient")
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("coefficients must be >= 1")
    return values


def _add_output_flags(sub: argparse.ArgumentParser, *formats: str) -> None:
    """--out, and --format choosing among ``formats``: the ones the command renders."""
    sub.add_argument("--out", type=str, default=None, help="write the report to this path")
    sub.add_argument("--format", choices=formats, default="human", help="report format (default: human)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="binomdiv", description=(
        "Exact, valuation-based verification of divisibility properties of products of binomial coefficients."))
    parser.set_defaults(jobs=1, seed=DEFAULT_SEED)  # in every config; a subcommand's own default wins
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser("verify", help="verify one (a, b, n) instance")
    verify.add_argument("--a", type=_positive, required=True)
    verify.add_argument("--b", type=_positive, required=True)
    verify.add_argument("--n", type=_positive, required=True)
    _add_output_flags(verify, "json", "csv", "human")

    sweep = commands.add_parser("sweep", help="verify a whole (a, b, n) box")
    sweep.add_argument("--a-max", type=_positive, required=True)
    sweep.add_argument("--b-max", type=_positive, required=True)
    sweep.add_argument("--n-max", type=_positive, required=True)
    sweep.add_argument("--jobs", type=_positive, default=1, help="worker processes")
    sweep.add_argument("--seed", type=_seed_value, default=DEFAULT_SEED)
    sweep.add_argument("--sample", type=_positive, default=None,
                       help="check only this many seeded-random triples from the box")
    _add_output_flags(sweep, "json", "csv", "human")

    trace = commands.add_parser("trace", help="replay the per-prime case analysis")
    trace.add_argument("--a", type=_positive, required=True)
    trace.add_argument("--b", type=_positive, required=True)
    trace.add_argument("--n", type=_positive, required=True)
    trace.add_argument("--modulus", choices=("2bn+1", "2bn+3"), required=True)
    _add_output_flags(trace, "json", "human")

    fuzz = commands.add_parser("lemma-fuzz", help="fuzz the floor inequality")
    fuzz.add_argument("--samples", type=_positive, required=True)
    fuzz.add_argument("--max-den", type=_positive, default=10**6)
    fuzz.add_argument("--seed", type=_seed_value, default=DEFAULT_SEED)
    _add_output_flags(fuzz, "json", "human")

    integ = commands.add_parser("integrality", help="per-n integrality of (a1 n)!...(ak n)! / (b1 n)!...(bj n)!")
    integ.add_argument("--num", type=_coefficients, required=True, help="comma-separated numerator coefficients")
    integ.add_argument("--den", type=_coefficients, required=True, help="comma-separated denominator coefficients")
    integ.add_argument("--n-max", type=_positive, required=True)
    _add_output_flags(integ, "json", "csv", "human")

    check = commands.add_parser("oracle-check", help="run the cross-validation suites")
    check.add_argument("--seed", type=_seed_value, default=DEFAULT_SEED, help="kept in the config only")
    _add_output_flags(check, "json", "human")

    return parser


def parse(argv: list[str] | None = None) -> argparse.Namespace | int:
    """The parsed command line, else the exit code: argparse's, or 2 with
    ``open``'s error for an ``--out`` naming a directory or in a missing one."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.out and (os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or ".")):
        try:
            open(args.out, "w").close()  # fails, as writing the report would: nothing is created
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if isinstance(args, int):
        return args
    from .cli import _run  # the engine loads only for a command line that parsed
    return _run(args)
