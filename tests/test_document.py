"""The report as row templates against the dict document it replaced.

`build_document` writes the fan's cones, the census and the clusters as
one %-format row per record.  `document_oracle` is the dict builder it
replaced, kept verbatim: its ``json.dumps`` must give the same text, and
its head and fan section the same `fan --json` bytes.
"""

import json

import pytest

from ahilb import lattice_context, parse_group_spec
from ahilb.cli import build_document, main
from ahilb.fan import Fan, dp6_count
from ahilb.lattice import LatticeContext
from ahilb.resolution import Resolution
from test_cli import PINNED, SWEEP
from test_clusters import CELLS, LINES
from test_layout import FIELD_GROUPS


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


def document_oracle(ctx: LatticeContext) -> dict:
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


def _compact(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


def assert_same_text(got: str, want: str, spec: str):
    """Fails with the text around the first difference: pytest's own diff
    of two long strings takes minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        lo = max(at - 40, 0)
        pytest.fail(f"{spec}: texts differ at {at}: "
                    f"{got[lo:at + 40]!r} vs {want[lo:at + 40]!r}")


def check_against_oracle(specs, capsys):
    """The report text and the fan command's stdout of every group equal
    the oracle's."""
    for spec in specs:
        ctx = lattice_context(parse_group_spec(spec))
        doc = document_oracle(ctx)
        assert_same_text(build_document(ctx), _compact(doc), spec)
        capsys.readouterr()
        assert main(["fan", spec]) == 0
        fan = _compact(_head(ctx) | {"fan": doc["fan"]})
        assert_same_text(capsys.readouterr().out, fan + "\n", spec)


# The pinned groups (1/1(0,0,0) among them), every champion kind, and the
# groups of the benchmark's lines and cells workloads.
ORACLE_GROUPS = list(dict.fromkeys([*PINNED, *FIELD_GROUPS, *LINES, *CELLS]))


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_document_matches_the_oracle(spec, capsys):
    check_against_oracle([spec], capsys)


@pytest.mark.deep
def test_document_matches_the_oracle_on_the_sweep(capsys):
    assert len(SWEEP) == 988
    check_against_oracle(SWEEP, capsys)
