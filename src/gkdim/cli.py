"""Command-line front end.

Weights are always entered as lambda+rho coordinates (comma-separated
integers, fractions a/b, or exact decimals).  Subcommands:

    gkdim         GK dimension of a simple highest weight sl(n)-module
    hermitian     su(p,q) report: m, second column, ball signature, orbit
    series        GK dimensions along integer shifts z of the first p entries
    unitary       unitarity thresholds, and the closed-form value at --z
    verify-oracle cross-check the Hecke a-function against the tableau rule

Every option is parsed once, before stdin is read, so a bad --z is one parse
error however many --batch lines follow.  Exit codes: 0 success, 1 parse
error (or --batch with stdin closed), 2 domain error, 3 violated internal
invariant (two computations that must agree did not, as when verify-oracle
finds the Hecke a-function and the tableau rule apart), 4 stdout closed or
not writable (such as a full disk); 2 and 3 print a JSON error object on
stdout, 1 and 4 an `error:` line on stderr.  With --batch the status is the
worst line's, a line that is not valid text in the locale's encoding is a
parse error, and with --output pretty a blank line ends each answer.  If the
reader closes stdout early, as `| head` does, output stops silently with
status 141 (128 + SIGPIPE, the status a shell reports for a program that a
closed pipe stops).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from itertools import permutations as _all_one_lines
from typing import TYPE_CHECKING

# `dimension` and `hermitian` are imported in `_setup`, by the commands that
# use them, and `weights` where options and weights are parsed, so a cold
# verify-oracle compiles none of them and loads no `fractions` or `decimal`.
# `hecke` loads here because perfbench's tracer wraps only modules loaded
# when it installs; the import statement, unlike `from . import hecke`, does
# not go through the package's `__getattr__`, so `-X importtime` times hecke
# on its own.
import gkdim.hecke as hecke
from .errors import DomainError, InvariantError, ParseError
# Tests patch these two names on this module.
from .permutations import Permutation, a_value_of_permutation

if TYPE_CHECKING:
    from .weights import PQContext


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


# Options whose value may start with "-" (a negative coordinate or z, or a
# bad p,q that `_parse_pq` should name), which argparse would otherwise read
# as an unknown option.
_SIGNED_OPTIONS = ("--weight", "--pq", "--z", "--z-range")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite `--opt value` as `--opt=value` for the options above."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] in _SIGNED_OPTIONS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _positive_int(text: str) -> int:
    # isdigit() alone accepts any Unicode digit, such as "²" or "١".
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer: {text!r}")
    return int(text)


def _ascii_int(text: str) -> int:
    """int(text) for an optional sign and ASCII digits, as `_positive_int`
    tests them; int() alone also takes Unicode digits and "1_0"."""
    digits = text.strip().lstrip("+-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built once per process: parse_args keeps no state
    between calls."""
    parser = _Parser(
        prog="gkdim",
        description="Exact GK dimensions of simple highest weight sl(n)-modules "
        "and su(p,q) Harish-Chandra modules (weights given as lambda+rho).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, pq=False):
        p.add_argument("--weight", help="lambda+rho coordinates, comma-separated")
        p.add_argument(
            "--batch", action="store_true",
            help="read one weight per line from stdin; with --output json, "
            "emit one JSON object per line; with --output pretty, end each "
            "answer with a blank line",
        )
        if pq:
            p.add_argument("--pq", required=True, help="p,q (positive integers)")
        p.add_argument(
            "--output", choices=("json", "pretty"), default="json",
        )

    add_common(sub.add_parser("gkdim", help="general sl(n) computation"))
    add_common(sub.add_parser("hermitian", help="su(p,q) computation"), pq=True)

    p_series = sub.add_parser("series", help="GK dimension along integer z")
    add_common(p_series, pq=True)
    p_series.add_argument("--z-range", required=True, help="z_from,z_to (integers)")

    p_unitary = sub.add_parser("unitary", help="unitarity interval and value")
    add_common(p_unitary, pq=True)
    p_unitary.add_argument("--z", help="evaluation point (rational)")

    p_oracle = sub.add_parser(
        "verify-oracle", help="compare the Hecke a-function with the tableau rule"
    )
    p_oracle.add_argument("--rank", type=_positive_int, default=4)
    p_oracle.add_argument("--output", choices=("json", "pretty"), default="json")

    return parser


def _parse_pq(text: str) -> PQContext:
    from .weights import PQContext

    try:
        p_str, q_str = text.split(",")
        return PQContext(_ascii_int(p_str), _ascii_int(q_str))
    except (ValueError, TypeError):
        raise ParseError(f"expected p,q with positive integers: {text!r}") from None


def _parse_z_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (_ascii_int(t) for t in text.split(","))
        return lo, hi
    except (ValueError, TypeError):
        raise ParseError(f"expected z_from,z_to integers: {text!r}") from None


def _pretty_gk(report) -> str:
    lines = [
        f"n = {report.n}   nu0 = {report.nu0}   integral = {report.integral}",
        f"a-value = {report.a_value}   GK dimension = {report.gk_dimension}",
    ]
    for cls, tab in zip(report.classes, report.tableaux):
        lines.append(f"class at positions {list(cls.indices)}:")
        lines.extend("  " + row for row in tab.pretty().splitlines())
    return "\n".join(lines)


def _pretty_hermitian(report) -> str:
    lines = [
        f"p = {report.p}   q = {report.q}   integral = {report.integral}",
        f"m = {report.m}   GK dimension = {report.gk_dimension}",
        f"orbit index = {report.orbit_index}   "
        f"orbit dimension = {report.orbit_dimension}",
    ]
    if report.second_column is not None:
        lines.append(
            "second column (top to bottom): "
            + ", ".join(str(e) for e in report.second_column)
        )
    if report.xi is not None:
        lines.append(f"ball signature = {report.xi.runs}")
    return "\n".join(lines)


def _emit(obj: dict, pretty, output: str) -> None:
    """Print one answer: `obj` as JSON, or the text `pretty()` builds."""
    if output == "json":
        print(json.dumps(obj))
    else:
        print(pretty())


def _setup(args):
    """Parse the options of gkdim, hermitian, series or unitary once, before
    stdin is read; return answer(weight) -> (JSON object, pretty callable)."""
    if args.command == "gkdim":
        from .dimension import gk_dimension

        def answer(w):
            report = gk_dimension(w)
            return report.to_json(), lambda: _pretty_gk(report)
        return answer
    ctx = _parse_pq(args.pq)
    from .hermitian import _unitary_gkdim, gk_pq, gkdim_series, unitary_interval
    if args.command == "hermitian":
        def answer(w):
            report = gk_pq(w, ctx)
            return report.to_json(), lambda: _pretty_hermitian(report)
        return answer
    if args.command == "series":
        z_from, z_to = _parse_z_range(args.z_range)

        def answer(w):
            series = gkdim_series(w, ctx, z_from, z_to)
            obj = {
                "p": ctx.p,
                "q": ctx.q,
                "series": [{"z": z, "gk_dimension": g} for z, g in series],
            }
            return obj, lambda: "\n".join(
                f"z = {z}: GK dimension = {g}" for z, g in series
            )
        return answer
    from .weights import parse_rational
    z = None if args.z is None else parse_rational(args.z)

    def answer(w):
        interval = unitary_interval(w, ctx)
        obj = interval.to_json()
        if z is not None:
            obj["z"] = str(z)
            obj["gk_dimension"] = _unitary_gkdim(w, ctx, interval, z)

        def pretty():
            lines = [
                f"p' = {interval.p_prime}   q' = {interval.q_prime}",
                f"unitary for real z <= {interval.threshold_real} "
                f"and integer z <= {interval.threshold_int}",
            ]
            if z is not None:
                lines.append(
                    f"GK dimension at z = {obj['z']}: {obj['gk_dimension']}"
                )
            return "\n".join(lines)
        return obj, pretty
    return answer


def _run(args, answer) -> int:
    """Answer --weight, or each --batch line of stdin, through `_emit`."""
    from .weights import parse_weight

    if not args.batch:
        if args.weight is None:
            raise ParseError("--weight is required (or use --batch)")
        _emit(*answer(parse_weight(args.weight)), args.output)
        return 0
    if args.weight is not None:
        raise ParseError("--batch and --weight are mutually exclusive")
    if sys.stdin is None:
        raise ParseError("--batch reads stdin, which is closed")
    if isinstance(sys.stdin, io.TextIOWrapper):
        # Undecodable bytes reach parse_weight, which rejects the line, as
        # under a POSIX locale, rather than stopping the batch.
        sys.stdin.reconfigure(errors="surrogateescape")
    worst = 0
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            obj, pretty = answer(parse_weight(line))
        except ParseError as exc:
            print(json.dumps({"error": {"code": "parse-error",
                                        "message": str(exc)}}))
            worst = max(worst, 1)
        except (DomainError, InvariantError) as exc:
            print(json.dumps({"error": exc.to_json()}))
            worst = max(worst, 3 if isinstance(exc, InvariantError) else 2)
        else:
            _emit(obj, pretty, args.output)
        if args.output == "pretty":
            # Answers can span lines: a blank line ends each one.
            print()
    return worst


def _verify_oracle(args) -> int:
    # Gate before any work: the rank-n table has n! elements.
    hecke._check_rank(args.rank, hecke.DEFAULT_RANK_BOUND)
    ranks = range(1, args.rank + 1)
    bad = []
    for n in ranks:
        for sigma in map(Permutation, _all_one_lines(range(1, n + 1))):
            lhs = hecke.a_function_definitional(sigma)
            rhs = a_value_of_permutation(sigma)
            if lhs != rhs:
                bad.append(
                    {"n": n, "sigma": list(sigma), "hecke": lhs, "tableau": rhs}
                )
    if bad:
        raise InvariantError(
            f"the Hecke a-function and the tableau rule disagree on "
            f"{len(bad)} permutation(s)", disagreements=bad)
    results = [{"n": n, "checked": math.factorial(n), "discrepancies": []}
               for n in ranks]
    _emit({"ok": True, "ranks": results}, lambda: "\n".join(
        f"n = {r['n']}: {r['checked']} elements, ok" for r in results
    ), args.output)
    return 0


def _command(argv: list[str]) -> int:
    try:
        try:
            args = _build_parser().parse_args(_attach_signed_values(argv))
        except SystemExit as exc:
            # argparse exits only after printing --help, with status 0.
            return exc.code
        if args.command == "verify-oracle":
            return _verify_oracle(args)
        return _run(args, _setup(args))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, InvariantError) as exc:
        print(json.dumps({"error": exc.to_json()}))
        return 3 if isinstance(exc, InvariantError) else 2


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:
        print("error: stdout is closed", file=sys.stderr)
        return 4
    try:
        status = _command(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except OSError as exc:
        # The reader is gone, or stdout cannot be written (a full disk).
        # Python flushes stdout again at exit: point it at the null device
        # (the Python docs' recipe, note on SIGPIPE).
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141
        print(f"error: cannot write to stdout: {exc.strerror or exc}",
              file=sys.stderr)
        return 4
    return status


if __name__ == "__main__":
    sys.exit(main())
