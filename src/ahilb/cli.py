"""Command line interface.

    ahilb report   "1/11(1,2,8)" [--json PATH]
    ahilb fan      "1/11(1,2,8)" [--json PATH]
    ahilb draw     "1/11(1,2,8)" --svg PATH [--ratios]
    ahilb clusters "1/11(1,2,8)" [--triangle ID] [--json PATH]
    ahilb verify   ["1/11(1,2,8)"] [--random N --max-order B --seed S]

Exit codes: 0 success, 1 invalid group specification or argument or an
unwritable output path, 2 a cross-check or invariant failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .clusters import equations_text
from .draw import render_svg
from .errors import GroupSpecError, InvariantError, OutputError
from .fan import Fan, dp6_count
from .lattice import (
    DEFAULT_ORDER_CAP,
    LatticeContext,
    lattice_context,
    parse_group_spec,
)
from .resolution import Resolution
from .verify import run_checks, run_random_suite


def _fan_json(fan: Fan) -> dict:
    return {
        "rays": fan.rays,
        "cones": [{"vertices": c.vertices, "kind": c.kind, "parent": c.parent}
                  for c in fan.cones],
    }


def _head(ctx: LatticeContext) -> dict:
    """The fields that open the report and fan documents."""
    return {"group": ctx.spec.canonical_text, "denominator": ctx.n,
            "order": ctx.order}


def build_document(ctx: LatticeContext) -> dict:
    """The full report with deterministic field and element order.  It
    holds the records' own tuples, not list copies of them: ``json.dumps``
    writes a tuple as the same array a list would make."""
    res = Resolution(ctx)
    part = res.partition

    doc = _head(ctx) | {
        "corners": [
            {"corner": i, "vectors": res.fans[i].vectors,
             "strengths": res.fans[i].strengths}
            for i in (1, 2, 3)
        ],
        "cyclic_word": [
            {"value": value, "tag": tag, "vector": vector}
            for value, tag, vector in zip(res.word.values, res.word.tags,
                                          res.word.vectors)
        ],
    }
    champions = part.champions
    if champions.side is not None:
        doc["long_side"] = {"side": champions.side, "c": champions.c}
    owner = {t: side for side, members in part.catchment.items()
             for t in members}
    doc["partition"] = [
        {
            "vertices": tri.vertices,
            "side": tri.r,
            "case": res.ratios[t].case,
            "catchment": owner.get(t),
            "lines": tri.side_lines,
        }
        for t, tri in enumerate(part.triangles)
    ]
    champ = {"kind": champions.kind}
    if champions.point is not None:
        champ["point"] = champions.point
    if champions.triangle is not None:
        champ["triangle"] = champions.triangle
    if champions.side is not None:
        champ["side"] = champions.side
        champ["c"] = champions.c
    doc["champions"] = champ
    doc["fan"] = _fan_json(res.fan)
    doc["census"] = [
        {"vertex": s.vertex, "valency": s.valency, "b": s.b, "label": s.label}
        for s in res.census
    ]
    doc["dp6_count"] = dp6_count(part)
    doc["clusters"] = [
        {
            "cone": idx,
            "mode": sysm.mode,
            "exponents": dict(zip("abcdeflmn", sysm.exponents())),
        }
        for idx, sysm in enumerate(res.systems)
    ]
    return doc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _dump(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, separators=(",", ":"))
    if path is not None:
        _write(path, text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _cmd_report(args) -> int:
    ctx = lattice_context(parse_group_spec(args.spec))
    _dump(build_document(ctx), args.json)
    return 0


def _cmd_fan(args) -> int:
    ctx = lattice_context(parse_group_spec(args.spec))
    fan = Resolution(ctx).fan
    _dump(_head(ctx) | {"fan": _fan_json(fan)}, args.json)
    return 0


def _cmd_draw(args) -> int:
    ctx = lattice_context(parse_group_spec(args.spec))
    res = Resolution(ctx)
    _write(args.svg, render_svg(ctx, res.partition, res.fan, ratios=args.ratios))
    return 0


def _cmd_clusters(args) -> int:
    ctx = lattice_context(parse_group_spec(args.spec))
    res = Resolution(ctx)
    cones = res.fan.cones
    if args.triangle is not None and not 0 <= args.triangle < len(cones):
        sys.stderr.write(
            f"triangle id out of range; valid ids are 0..{len(cones) - 1}\n"
        )
        return 1
    if args.triangle is None:
        wanted = enumerate(res.systems)
    else:
        wanted = [(args.triangle, res.system(args.triangle))]
    docs = [
        {
            "cone": idx,
            "vertices": [list(v) for v in cones[idx].vertices],
            "mode": sysm.mode,
            "exponents": dict(zip("abcdeflmn", sysm.exponents())),
            "equations": equations_text(sysm),
        }
        for idx, sysm in wanted
    ]
    if args.json is not None:
        _dump({"group": ctx.spec.canonical_text, "systems": docs}, args.json)
    else:
        for d in docs:
            sys.stdout.write(
                f"cone {d['cone']} ({d['mode']}, vertices {d['vertices']}):\n"
            )
            for line in d["equations"]:
                sys.stdout.write(f"  {line}\n")
    return 0


def _cmd_verify(args) -> int:
    if args.spec is None and not args.random:
        sys.stderr.write("verify needs a group spec or --random N\n")
        return 1
    failures = []
    if args.spec is not None:
        ctx = lattice_context(parse_group_spec(args.spec))
        res = Resolution(ctx)
        results = run_checks(res, seed=args.seed)
        for result in results:
            status = "pass" if result.ok else f"FAIL ({result.detail})"
            sys.stdout.write(f"{result.name}: {status}\n")
        failures += [r for r in results if not r.ok]
        # Every check passed, so the partition was built.
        if not failures and res.partition.champions.side is not None:
            champions = res.partition.champions
            names = {1: "e1e2", 2: "e2e3", 3: "e3e1"}
            sys.stdout.write(f"long side {names[champions.side]} "
                             f"c={champions.c}; its catchment is empty\n")
    if args.random:
        count, bad = run_random_suite(args.random, args.max_order, args.seed)
        sys.stdout.write(
            f"random suite: {count} groups of order <= {args.max_order}, "
            f"{len(bad)} failures\n"
        )
        for line in bad:
            sys.stdout.write(f"  {line}\n")
        failures += bad
    return 2 if failures else 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument in one stderr line with exit code 1, like any
    other invalid input; argparse's own code 2 would read as a failed
    cross-check."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _bounded(low: int, high: int | None = None):
    def integer(text: str) -> int:
        value = int(text)
        if value < low or high is not None and value > high:
            upper = "" if high is None else f" and <= {high}"
            raise argparse.ArgumentTypeError(
                f"must be >= {low}{upper}, got {value}")
        return value

    return integer


@cache
def _parser() -> _Parser:
    """The argument parser, built once per process; parse_args keeps no
    state between calls."""
    parser = _Parser(
        prog="ahilb",
        description=(
            "Exact partition, resolution fan, invariant ratios and cluster "
            "systems for a finite diagonal subgroup of SL(3,C)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="full JSON report")
    p.add_argument("spec")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("fan", help="fan rays and cones as JSON")
    p.add_argument("spec")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(fn=_cmd_fan)

    p = sub.add_parser("draw", help="SVG figure of the partition")
    p.add_argument("spec")
    p.add_argument("--svg", metavar="PATH", required=True)
    p.add_argument("--ratios", action="store_true",
                   help="label interior edges with invariant ratios")
    p.set_defaults(fn=_cmd_draw)

    p = sub.add_parser("clusters", help="cluster equation systems")
    p.add_argument("spec")
    p.add_argument("--triangle", type=int, metavar="ID",
                   help="basic triangle id (default: all)")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(fn=_cmd_clusters)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("spec", nargs="?")
    p.add_argument("--random", type=_bounded(0), metavar="N", default=0)
    p.add_argument("--max-order", type=_bounded(1, DEFAULT_ORDER_CAP),
                   default=60)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except GroupSpecError as exc:
        sys.stderr.write(f"invalid group: {exc}\n")
        return 1
    except OutputError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except InvariantError as exc:
        sys.stderr.write(f"internal invariant violated: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
