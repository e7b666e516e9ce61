"""Command-line front end.

Expressions use the working notation of the library: generators juxtaposed
(or joined by '*'), integer powers with '^', scalars built from rationals,
'i' and half-integer powers of q, and parentheses for grouping.  Examples::

    qtorus normalize --algebra torus "V U"
    qtorus mul --algebra p2 "U1 V2" "V1 U2^-1"
    qtorus apply --map delta "U^2 V"
    qtorus check --suite torus-relation,antipode-law --seed 7 --trials 50
    qtorus eval --theta 0.1375 --algebra torus "q^(1/2) U + V^-1"

Exit codes: 0 on success, 1 if a requested check fails, 2 on usage or parse
errors.  An expression that starts with '-' goes after '--', as in
``qtorus normalize --algebra torus -- "-U"``.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .phases import ParseError, PhaseScalar, parse_tokens, tokenize
from .algebra import ALGEBRAS, AlgebraDescriptor, AlgebraElement

__all__ = ["parse_expression", "main", "entry_point"]


def parse_expression(algebra: AlgebraDescriptor, text: str) -> AlgebraElement:
    """Parse expression text and evaluate it to a canonical element.

    The grammar is the one of :func:`qtorus.phases.parse_phase`, extended by
    the generators of ``algebra``; the parser builds the value in ``algebra``.
    """
    return parse_tokens(tokenize(text, algebra.generator_names), len(text), algebra)


def _too_long(flat) -> ValueError | None:
    """The error naming the first int too long for str() in the flat terms ``flat``, in
    canonical order: an index entry, an s-exponent, or a coefficient unless it is None."""
    limit = sys.get_int_max_str_digits()
    big = 10**limit
    for (a, e), c in sorted(flat.items()):
        ints = [*a, e, *(c.record_parts() if c is not None else ())]
        i = next((j for j, k in enumerate(ints) if abs(k) >= big), None)
        if i is not None:
            what = (f"index entry {i}" if i < len(a) else f"the s-exponent at index {a}"
                    if i == len(a) else f"the coefficient at index {a}, s-exponent {e}")
            return ValueError(f"{what} has more than the {limit} digits str() writes")


def _print_element(element: AlgebraElement, fmt: str) -> None:
    try:
        if fmt == "text":
            text = element.render()
        else:
            import json  # only the JSON branches load json
            records = element.to_records()
            text = json.dumps({"scalar": records} if isinstance(element, PhaseScalar)
                              else {"algebra": element.algebra.name, "terms": records})
    except ValueError as err:  # str() of an int with more digits than it converts
        raise _too_long(element.flat) or err from None
    print(text)


def _cmd_normalize(args) -> int:
    _print_element(parse_expression(ALGEBRAS[args.algebra], args.expr), args.format)
    return 0


def _cmd_mul(args) -> int:
    algebra = ALGEBRAS[args.algebra]
    product = parse_expression(algebra, args.left) * parse_expression(algebra, args.right)
    _print_element(product, args.format)
    return 0


def _cmd_apply(args) -> int:
    from .maps import MAPS  # only this command and check load the maps
    try:
        fmap = MAPS[args.map]
    except KeyError:
        raise ValueError(
            f"unknown map {args.map!r}; choose from {', '.join(MAPS)}"
        ) from None
    if args.algebra is not None and args.algebra != fmap.source.name:
        raise ValueError(
            f"map {fmap.name!r} expects elements of {fmap.source.name!r}, "
            f"got {args.algebra!r}"
        )
    _print_element(fmap(parse_expression(fmap.source, args.expr)), args.format)
    return 0


def _cmd_check(args) -> int:
    from .suite import TrialConfig, render_reports_text, reports_to_records, run_suite
    cfg = TrialConfig(seed=args.seed, trials=args.trials)
    selection = None
    if args.suite:
        selection = [name for chunk in args.suite for name in chunk.split(",") if name]
        if not selection:
            raise ValueError("no check selected")
    reports = run_suite(cfg, selection)
    if args.format == "text":
        print(render_reports_text(reports))
    else:
        import json
        print(json.dumps(reports_to_records(reports)))
    return 0 if all(not r.failures for r in reports) else 1


def _cmd_eval(args) -> int:
    if not math.isfinite(args.theta):
        raise ValueError(f"theta must be a finite number, got {args.theta}")
    algebra = ALGEBRAS[args.algebra]
    element = parse_expression(algebra, args.expr)
    if err := _too_long({(a, 0): None for a, _ in element.flat}):  # later lines write each index
        raise err
    # one value per index, so sorting the items never compares two values
    values = sorted(element.eval_numeric(args.theta).items())
    for idx, z in values:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise OverflowError(f"the value at index {idx} is outside float range")
    if args.format == "text":
        text = "".join(f"{algebra.monomial_text(idx) or '1'}: {z.real:.12g}{z.imag:+.12g}i\n"
                       for idx, z in values)
    else:
        import json
        coefficients = [{"index": list(idx), "re": z.real, "im": z.imag} for idx, z in values]
        payload = {"algebra": algebra.name, "theta": args.theta, "coefficients": coefficients}
        text = json.dumps(payload) + "\n"
    sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=["text", "json", "json-like"],
        default="text",
        help="human-readable text or machine-readable output",
    )
    parser = argparse.ArgumentParser(
        prog="qtorus",
        description="exact computation in twisted torus algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", parents=[fmt], help="parse and print the canonical form")
    p.add_argument("--algebra", required=True, choices=list(ALGEBRAS))
    p.add_argument("expr")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("mul", parents=[fmt], help="multiply two expressions")
    p.add_argument("--algebra", required=True, choices=list(ALGEBRAS))
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("apply", parents=[fmt], help="apply a structure map")
    p.add_argument("--map", required=True, metavar="NAME")
    p.add_argument("--algebra", choices=list(ALGEBRAS), help="must match the map's source")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("check", parents=[fmt], help="run verification checks")
    p.add_argument("--suite", action="append", metavar="NAMES", help="comma-separated check names")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("eval", parents=[fmt], help="evaluate numerically at q = exp(2*pi*i*theta)")
    # argparse's own negative-number pattern has no exponent, so it would read
    # "--theta -1e-3" as an option with no value; this pattern takes the exponent
    p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--algebra", required=True, choices=list(ALGEBRAS))
    p.add_argument("expr")
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (status 0) or a usage error (status 2)
        return exc.code
    if args.format == "json-like":
        args.format = "json"
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
