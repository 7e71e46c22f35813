"""Command-line interface.

Subcommands::

    factors        composition factors of one twisted module
    omega          chamber index set for a subset of simple indices
    yspace         cell structure of the stratified space of a proper subset
    complex        level decomposition of the chain complex
    homology       per-degree multiplicity intervals of every factor
    kl             one Kazhdan-Lusztig polynomial
    double-layout  (p, q) placement of all (subset, representative) pairs

The group is selected by exactly one of ``--cartan`` (a built-in label
such as ``A3``, or a matrix file: first line the rank ``d``, then ``d``
rows of ``d`` integers, entry ``(i, j)`` pairing simple root ``i`` with
simple coroot ``j``) and ``--gln N`` (type ``A_{N-1}``, with ``--mu``
given as an ``N``-tuple summing to zero, converted by partial sums).

Exit codes: ``0`` success, ``2`` unparsable input, ``3`` violated domain
precondition (including a Weyl group of more than 10**6 elements, refused
from its order before any element is built), ``4`` internal infeasibility.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .kl import kl_polynomial
from .period_domain import (
    InfeasibleError,
    build_complex,
    double_complex_layout,
    homology_bounds,
    omega,
    y_structure,
)
from .root_datum import (
    Coweight,
    DomainError,
    build_root_datum,
    cartan_type,
    cartan_type_from_file,
    coweight_from_gln,
    type_a,
)
from .steinberg_jh import jh_factors
from .weyl import WeylGroup, WordParseError

__all__ = ["main"]


class CliParseError(ValueError):
    """Unparsable command-line input (exit code 2)."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinmult",
        description="Composition factors and homology bounds over Weyl groups.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def with_group(sub: argparse.ArgumentParser) -> argparse.ArgumentParser:
        pick = sub.add_mutually_exclusive_group(required=True)
        pick.add_argument(
            "--cartan",
            metavar="TYPE_OR_FILE",
            help="built-in Cartan type (e.g. A3) or a Cartan matrix file",
        )
        pick.add_argument(
            "--gln",
            type=int,
            metavar="N",
            help="work in type A_{N-1} with GL_N-style --mu tuples",
        )
        return sub

    def with_mu(sub: argparse.ArgumentParser) -> argparse.ArgumentParser:
        sub.add_argument(
            "--mu",
            required=True,
            metavar="LIST",
            help="comma-separated integers or fractions p/q",
        )
        sub.add_argument(
            "--recenter",
            action="store_true",
            help="with --gln: subtract the mean so the entries sum to zero",
        )
        return sub

    sub = with_group(commands.add_parser("factors", help="composition factor table"))
    sub.add_argument("--w", required=True, metavar="WORD", help="twist, e.g. s1*s2 or e")
    sub.add_argument("--count", action="store_true", help="print only the row count")
    sub.add_argument("--json", action="store_true")

    sub = with_mu(with_group(commands.add_parser("omega", help="chamber index set")))
    sub.add_argument("--subset", default="", metavar="LIST", help="e.g. 1,3 (default empty)")
    sub.add_argument("--json", action="store_true")

    sub = with_mu(with_group(commands.add_parser("yspace", help="stratified-space cells")))
    sub.add_argument("--subset", default="", metavar="LIST", help="proper subset, e.g. 1,3")
    sub.add_argument("--json", action="store_true")

    sub = with_mu(with_group(commands.add_parser("complex", help="chain complex levels")))
    sub.add_argument("--json", action="store_true")

    sub = with_mu(
        with_group(commands.add_parser("homology", help="homology multiplicity intervals"))
    )
    sub.add_argument("--json", action="store_true")

    sub = with_group(commands.add_parser("kl", help="one Kazhdan-Lusztig polynomial"))
    sub.add_argument("--x", required=True, metavar="WORD")
    sub.add_argument("--w", required=True, metavar="WORD")
    sub.add_argument("--json", action="store_true")

    sub = with_mu(
        with_group(commands.add_parser("double-layout", help="(p, q) grid of all pairs"))
    )
    sub.add_argument("--json", action="store_true")

    return parser


def _resolve_group(args: argparse.Namespace) -> WeylGroup:
    if args.gln is not None:
        if args.gln < 2:
            raise CliParseError("--gln needs N >= 2")
        cartan = type_a(args.gln - 1)
    else:
        spec = args.cartan
        looks_builtin = (
            len(spec) >= 2 and spec[0].isalpha() and spec[1:].isdigit()
        )
        if looks_builtin:
            try:
                cartan = cartan_type(spec)
            except DomainError:
                raise CliParseError(
                    f"unknown Cartan type {spec!r} and no such file"
                ) from None
        elif Path(spec).is_file():
            try:
                cartan = cartan_type_from_file(spec)
            except ValueError as exc:
                if isinstance(exc, DomainError):
                    raise
                raise CliParseError(str(exc)) from None
        else:
            raise CliParseError(f"--cartan {spec!r} is neither a built-in type nor a file")
    return WeylGroup(build_root_datum(cartan))


def _parse_numbers(text: str) -> list[Fraction]:
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            out.append(Fraction(token))
        except (ValueError, ZeroDivisionError):
            raise CliParseError(f"bad number {token!r} in --mu") from None
    return out


def _resolve_mu(args: argparse.Namespace, group: WeylGroup) -> Coweight:
    values = _parse_numbers(args.mu)
    if args.gln is not None:
        if len(values) != args.gln:
            raise CliParseError(
                f"--gln {args.gln} expects {args.gln} entries in --mu, got {len(values)}"
            )
        return coweight_from_gln(values, recenter=args.recenter)
    if len(values) != group.rank:
        raise CliParseError(
            f"--mu expects {group.rank} coroot coordinates, got {len(values)}"
        )
    return Coweight(tuple(values))


def _parse_subset(text: str, group: WeylGroup) -> frozenset[int]:
    body = text.strip()
    if not body:
        return frozenset()
    indices = set()
    for token in body.split(","):
        token = token.strip()
        if not token.isdigit():
            raise CliParseError(f"bad subset entry {token!r}; expected indices like 1,3")
        i = int(token)
        if not 1 <= i <= group.rank:
            raise CliParseError(f"subset index {i} out of range 1..{group.rank}")
        indices.add(i)
    return frozenset(indices)


def _subset_json(subset: frozenset[int]) -> list[str]:
    return [f"s{i}" for i in sorted(subset)]


def _run_factors(args: argparse.Namespace) -> int:
    group = _resolve_group(args)
    w = group.parse_word(args.w)
    table = jh_factors(group, w)
    if args.count:
        print(table.count)
    elif args.json:
        print(json.dumps(table.to_json()))
    else:
        print(table.to_text())
    return 0


def _run_omega(args: argparse.Namespace) -> int:
    group = _resolve_group(args)
    mu = _resolve_mu(args, group)
    subset = _parse_subset(args.subset, group)
    result = omega(group, mu, subset)
    if args.json:
        print(
            json.dumps(
                {"I": _subset_json(subset), "elements": list(result.words())}
            )
        )
    else:
        print(" ".join(result.words()))
    return 0


def _run_yspace(args: argparse.Namespace) -> int:
    group = _resolve_group(args)
    mu = _resolve_mu(args, group)
    subset = _parse_subset(args.subset, group)
    structure = y_structure(group, mu, subset)
    if args.json:
        print(
            json.dumps(
                {
                    "I": _subset_json(subset),
                    "levi_positive_roots": structure.levi_root_count,
                    "top_dim": structure.top_dim,
                    "cells": [
                        {"w": group.format_word(w), "dim": dim}
                        for w, dim in structure.cells
                    ],
                }
            )
        )
    else:
        print(
            f"levi_positive_roots={structure.levi_root_count} "
            f"top_dim={structure.top_dim}"
        )
        for w, dim in structure.cells:
            print(f"{group.format_word(w)} dim={dim}")
    return 0


def _run_complex(args: argparse.Namespace) -> int:
    group = _resolve_group(args)
    mu = _resolve_mu(args, group)
    spec = build_complex(group, mu)
    for note in spec.warnings:
        print(f"warning: {note}", file=sys.stderr)
    sizes = ",".join(str(size) for size in spec.level_sizes())
    if args.json:
        print(
            json.dumps(
                {
                    "i0": spec.i0,
                    "levels": [
                        [group.format_word(w) for w in level] for level in spec.levels
                    ],
                    "degrees": [
                        spec.degree_of_level(j) for j in range(len(spec.levels))
                    ],
                    "warnings": list(spec.warnings),
                }
            )
        )
    else:
        print(f"i0={spec.i0}; levels: [{sizes}]")
        for j, level in enumerate(spec.levels):
            words = " ".join(group.format_word(w) for w in level)
            print(f"level {j} (degree {spec.degree_of_level(j)}): {words}")
    return 0


def _run_homology(args: argparse.Namespace) -> int:
    group = _resolve_group(args)
    mu = _resolve_mu(args, group)
    report = homology_bounds(group, mu)
    for note in report.warnings:
        print(f"warning: {note}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_json()))
        return 0
    for degree in report.degrees:
        rows = report.entries_at(degree)
        if not rows:
            print(f"H_{degree}: 0")
            continue
        print(f"H_{degree}:")
        for entry in rows:
            if entry.pinned:
                print(f"  {entry.factor.label()}  mult={entry.lo}")
            else:
                print(
                    f"  {entry.factor.label()}  mult in "
                    f"[{entry.lo},{entry.hi}] UNDETERMINED"
                )
    return 0


def _run_kl(args: argparse.Namespace) -> int:
    group = _resolve_group(args)
    x = group.parse_word(args.x)
    w = group.parse_word(args.w)
    poly = kl_polynomial(group, x, w)
    if args.json:
        print(
            json.dumps(
                {
                    "x": group.format_word(x),
                    "w": group.format_word(w),
                    "coeffs": list(poly.coeffs),
                    "display": str(poly),
                }
            )
        )
    else:
        print(str(poly))
    return 0


def _run_double_layout(args: argparse.Namespace) -> int:
    group = _resolve_group(args)
    mu = _resolve_mu(args, group)
    layout = double_complex_layout(group, mu)
    if args.json:
        print(
            json.dumps(
                {
                    "entries": [
                        {
                            "p": p,
                            "q": q,
                            "I": _subset_json(subset),
                            "w": group.format_word(w),
                        }
                        for p, q, subset, w in layout.entries
                    ]
                }
            )
        )
        return 0
    cells: dict[tuple[int, int], list[str]] = {}
    for p, q, subset, w in layout.entries:
        braces = ",".join(str(i) for i in sorted(subset))
        cells.setdefault((p, q), []).append(
            f"({{{braces}}}, {group.format_word(w)})"
        )
    for p, q in sorted(cells, key=lambda pq: (pq[0], -pq[1])):
        print(f"({p},{q}): " + " ".join(cells[(p, q)]))
    return 0


_RUNNERS = {
    "factors": _run_factors,
    "omega": _run_omega,
    "yspace": _run_yspace,
    "complex": _run_complex,
    "homology": _run_homology,
    "kl": _run_kl,
    "double-layout": _run_double_layout,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _RUNNERS[args.command](args)
    except (CliParseError, WordParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
