import importlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from functools import cached_property
from hashlib import sha256
from importlib import resources
from pathlib import Path

import pytest

import ahilb
import ahilb.cli
from ahilb import lattice_context, parse_group_spec
from ahilb.cli import build_document, main
from ahilb.clusters import verify_cluster
from ahilb.draw import render_svg
from ahilb.fan import build_fan
from ahilb.lattice import LatticeContext
from ahilb.mmp import run_mmp
from ahilb.monomials import dual_basis
from ahilb.resolution import Resolution
from ahilb.verify import run_checks
from test_tiling import cyclic_groups


def report_text(text):
    return build_document(lattice_context(parse_group_spec(text)))


def doc_of(text):
    return json.loads(report_text(text))


def test_report_command(capsys):
    assert main(["report", "1/11(1,2,8)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 11
    assert [e["value"] for e in doc["cyclic_word"]] == [
        1, 3, 4, 1, 2, 3, 2, 2, 1, 6, 2
    ]
    assert len(doc["partition"]) == 8
    assert doc["champions"]["kind"] == "concurrent"


def test_report_30(capsys):
    assert main(["report", "1/30(25,2,3)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(t["side"] for t in doc["partition"]) == [2, 2, 2, 3, 3]


def test_report_rejects_bad_spec(capsys):
    assert main(["report", "1/4(1,2,2)"]) == 1
    err = capsys.readouterr().err
    assert "1/4(1,2,2)" in err


def test_report_rejects_non_ascii_digits(capsys):
    assert main(["report", "1/\uff15(1,1,3)"]) == 1
    assert "invalid group" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    "1/" + "9" * 5000 + "(1,1,-2)",
    "1/3(1," + "9" * 5000 + ",1)",
], ids=["order", "weight"])
def test_report_rejects_a_number_past_the_int_conversion_limit(spec, capsys):
    # Past 4300 digits int() raises ValueError, which must not escape.
    assert main(["report", spec]) == 1
    err = capsys.readouterr().err
    assert err == ("invalid group: an order or weight has too many digits "
                   "to read\n")


def test_fan_command(capsys):
    assert main(["fan", "1/3(1,1,1)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"group", "denominator", "order", "fan"}
    assert len(doc["fan"]["cones"]) == 3


def test_verify_command_single_group(capsys):
    assert main(["verify", "1/15(1,2,12)"]) == 0
    out = capsys.readouterr().out
    assert "long side e1e2 c=2" in out
    assert "FAIL" not in out


def long_side_lines(out):
    return [line for line in out.splitlines() if line.startswith("long side")]


def test_verify_prints_the_long_side_once(capsys):
    assert main(["verify", "1/11(1,2,8)"]) == 0
    assert long_side_lines(capsys.readouterr().out) == []
    assert main(["verify", "1/15(1,2,12)"]) == 0
    assert long_side_lines(capsys.readouterr().out) == [
        "long side e1e2 c=2; its catchment is empty"]


def test_verify_prints_no_long_side_after_a_failure(monkeypatch, capsys):
    # The partition is where the long side is read; when it fails, verify
    # reports the failure and says nothing about the long side.
    enumerate_triangles = ahilb.partition.enumerate_triangles
    monkeypatch.setattr(ahilb.partition, "enumerate_triangles",
                        lambda *args: enumerate_triangles(*args)[:-1])
    assert main(["verify", "1/15(1,2,12)"]) == 2
    captured = capsys.readouterr()
    failed = [line for line in captured.out.splitlines()
              if line.startswith("partition: ")]
    assert len(failed) == 3
    assert all(": FAIL (partition mismatch: " in line for line in failed)
    assert long_side_lines(captured.out) == []
    assert captured.err == ""


def test_verify_command_random(capsys):
    assert main(["verify", "--random", "5", "--max-order", "20",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "5 groups" in out and "0 failures" in out


def test_parser_keeps_no_state_between_calls(monkeypatch, capsys):
    # The parser is built once per process; an option given to one call
    # must not carry over to the next.
    seeds = []

    def recorded(res, seed=0):
        seeds.append(seed)
        return run_checks(res, seed=seed)

    monkeypatch.setattr(ahilb.cli, "run_checks", recorded)
    assert main(["verify", "1/11(1,2,8)", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "1/11(1,2,8)"]) == 0
    assert capsys.readouterr().out == first
    assert seeds == [3, 0]


def test_verify_needs_input(capsys):
    assert main(["verify"]) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--random", "-3"],
    ["verify", "--random", "1", "--max-order", "0"],
    ["verify", "--random", "2", "--max-order", "-5"],
    ["verify", "--random", "1", "--max-order", "1000001"],
])
def test_verify_rejects_out_of_range_options(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "must be >=" in captured.err


def test_clusters_command_text(capsys):
    assert main(["clusters", "1/2(1,1,0)+1/2(0,1,1)", "--triangle", "0"]) == 0
    out = capsys.readouterr().out
    assert "xyz = pi" in out


# SHA-256 of the stdout of clusters in text mode, whose vertices print
# as Python lists.
PINNED_CLUSTERS_TEXT = {
    ("1/11(1,2,8)",):
        "7a38f7f5cce58ba531a196f20cc935b920c73ab90ad292b3ef296ce617a1a09a",
    ("1/2(1,1,0)+1/4(0,1,3)", "--triangle", "1"):
        "371082f1c1cdb303e649efbbc01571519d4f7702d033cede13461cb62402dd3c",
}


@pytest.mark.parametrize("args", list(PINNED_CLUSTERS_TEXT))
def test_clusters_text_pinned(args, capsys):
    assert main(["clusters", *args]) == 0
    out = capsys.readouterr().out
    assert sha256(out.encode()).hexdigest() == PINNED_CLUSTERS_TEXT[args]


def test_clusters_triangle_reads_one_normal_form(monkeypatch, capsys):
    ratios = _count_calls(monkeypatch, "resolution", "triangle_ratios")
    assert main(["clusters", "1/1001(1,37,963)", "--triangle", "0"]) == 0
    assert len(ratios) == 1


@pytest.mark.parametrize("spec", ["1/11(1,2,8)", "1/2(1,1,0)+1/4(0,1,3)",
                                  "1/4(1,0,3)+1/4(0,1,3)"])
def test_clusters_triangle_is_its_entry_of_the_whole_list(spec, tmp_path):
    # One cone's system read alone is the one the list holds, also where
    # both are written out by additions (the last group's side-4 triangle).
    whole, one = tmp_path / "whole.json", tmp_path / "one.json"
    assert main(["clusters", spec, "--json", str(whole)]) == 0
    systems = json.loads(whole.read_text())["systems"]
    assert len(systems) == lattice_context(parse_group_spec(spec)).order
    for idx, entry in enumerate(systems):
        assert main(["clusters", spec, "--triangle", str(idx),
                     "--json", str(one)]) == 0
        doc = json.loads(one.read_text())
        assert doc["systems"] == [entry], (spec, idx)


def test_clusters_bad_id(capsys):
    assert main(["clusters", "1/2(1,1,0)+1/2(0,1,1)", "--triangle", "7"]) == 1
    assert "0..3" in capsys.readouterr().err


def test_draw_writes_svg(tmp_path):
    out = tmp_path / "fig.svg"
    assert main(["draw", "1/30(25,2,3)", "--svg", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<?xml")
    assert "stroke-dasharray" in text  # dotted tesselation present
    assert "</svg>" in text


def test_draw_ratio_labels(tmp_path):
    out = tmp_path / "fig.svg"
    assert main(["draw", "1/11(1,2,8)", "--svg", str(out), "--ratios"]) == 0
    assert "x^2:y" in out.read_text()


def test_draw_trivial_group(tmp_path):
    out = tmp_path / "fig.svg"
    assert main(["draw", "1/1(0,0,0)", "--svg", str(out)]) == 0
    assert "<line" in out.read_text()


@pytest.mark.parametrize("argv", [
    ["report", "1/11(1,2,8)", "--json"],
    ["fan", "1/11(1,2,8)", "--json"],
    ["clusters", "1/11(1,2,8)", "--json"],
    ["draw", "1/11(1,2,8)", "--svg"],
])
def test_unwritable_output_path(argv, tmp_path):
    target = str(tmp_path / "missing" / "out")
    proc = subprocess.run(
        [sys.executable, "-m", "ahilb.cli", *argv, target],
        capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": str(Path(ahilb.__file__).parent.parent)},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"cannot write {target}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["report", "1/3(1,1,1)", "--json"],
    ["fan", "1/3(1,1,1)", "--json"],
    ["clusters", "1/3(1,1,1)", "--json"],
    ["draw", "1/3(1,1,1)", "--svg"],
])
def test_empty_output_path(argv, capsys):
    # An empty path names no file; it does not mean stdout.
    assert main([*argv, ""]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("cannot write : ")


def test_package_runs_as_a_module():
    # The repro lines `ahilb verify "<spec>" --seed N` also run from a
    # source checkout as `python -m ahilb ...`.
    proc = subprocess.run(
        [sys.executable, "-m", "ahilb", "verify", "1/3(1,1,1)"],
        capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": str(Path(ahilb.__file__).parent.parent)},
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines and all(line.endswith(": pass") for line in lines)
    assert proc.stderr == ""


def test_document_deterministic():
    for text in ("1/11(1,2,8)", "1/30(25,2,3)", "1/2(1,1,0)+1/2(0,1,1)"):
        assert report_text(text) == report_text(text)


def test_svg_deterministic():
    ctx = lattice_context(parse_group_spec("1/15(1,2,12)"))
    part = Resolution(ctx).partition
    fan = build_fan(part)
    assert render_svg(ctx, part, fan, ratios=True) == render_svg(
        ctx, part, fan, ratios=True
    )


def test_documents_validate_against_schema(tmp_path):
    # The bytes report --json writes.
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        resources.files("ahilb").joinpath("schema.json").read_text()
    )
    path = tmp_path / "report.json"
    for text in ("1/11(1,2,8)", "1/15(1,2,12)", "1/30(25,2,3)",
                 "1/2(1,1,0)+1/2(0,1,1)", "1/1(0,0,0)", "1/101(1,7,93)"):
        assert main(["report", text, "--json", str(path)]) == 0
        jsonschema.validate(json.loads(path.read_text()), schema)


def test_document_holds_no_list_copies():
    # Peak traced memory of build_document on 1/1001(1,37,963), after the
    # lattice context, Python 3.11 on x86-64: 2.01 MiB when every vertex,
    # ray, tag and star was copied into a list, 1.48 MiB for the dict of
    # the records' own tuples, 1.24 MiB for the JSON text, its per-cone
    # sections written as rows and the whole assembled in one copy.
    ctx = lattice_context(parse_group_spec("1/1001(1,37,963)"))
    tracemalloc.start()
    try:
        build_document(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_long_side_key_only_when_present():
    assert "long_side" not in doc_of("1/11(1,2,8)")
    doc = doc_of("1/15(1,2,12)")
    assert doc["long_side"] == {"side": 1, "c": 2}


# SHA-256 of the output of report --json, fan --json, clusters --json,
# the stdout of verify, and draw --ratios, in that order.
PINNED = {
    "1/11(1,2,8)": (
        "d6ca1785341b7b12d92d2adfbd31a4b5ae24902e02f06d445c5f9d3b56bcc0d4",
        "37203b0802f570e4191f4b02dab78ea9b2c8783121522bec2dd8bdf0343f7f73",
        "9c3bc234fcb108c9e1bd251c9d11f453bfb94074cb58e42715242511d5182195",
        "2b43030c721f2982e4b6edbf11f3b81bfd61bdc44d81c437292013a1b8ffbf87",
        "b0f38b988b65b8fc2ae892b167a87b0fc4c8de58a97efa1f4813386605fd583e",
    ),
    "1/15(1,2,12)": (
        "6019605b3ced5e22b467a94c1c2dc826945bbd55280265fbad28722f504e03b9",
        "6eb119ffb8562ec9004427700e88f8549a74d363781900236e2bf0ba6320297f",
        "2c851ab7b133bf43dff2527618d3223ab5322bc24e0c2733eb6e882b95b1d892",
        "a103dbcd5e538aba0b2393ad4f406be0de3a0f7a0e8a505eec4c86e3076809d2",
        "cf6b47b8f54383a1131044913fe98d076b62aa40100de849ffece3b5c33ef877",
    ),
    "1/30(25,2,3)": (
        "f4aeef1fba3f91cf303e16512296a77004abb7c96623c32ef175c478ecfe687b",
        "d2c0799bc51c8f261a11d202fccc752d6605c36632a8a8fc0265e0976a9ad56d",
        "18c191b1a94357a207d7a217cdca2807574f83c7191031867fd60b138b7fef80",
        "0de56800f705ad1d73713261b69fefdcd0baad33f12331d49eada6d00ad19a0b",
        "250fa347ba74770008f1d4ae2bbe8a258260269214ee3a738049dd50bed45b52",
    ),
    "1/2(1,1,0)+1/2(0,1,1)": (
        "d97ccacb8ad2ebb6312f1c994e57863e36e496c15eb019bb0643db258a5b066f",
        "be0ee0f81b81a83d03939ffd2059545bc52711017f95ef5acc715af5bc8e0cd1",
        "573f30b6473986aa7f6e54ab1952e4108ca2a39200d1538ed1cf89ec42456a8b",
        "2b43030c721f2982e4b6edbf11f3b81bfd61bdc44d81c437292013a1b8ffbf87",
        "694a835419a8c5c98fe4a1ab3e8ac511d810eb1ece5dbed36c63e461ba1b6f95",
    ),
    "1/1(0,0,0)": (
        "8d693ff6f306697230f54c83fc029052218a83346593594d6b3f627dc8e97887",
        "aed8d7b75643bc9709cc2b7fec3311f6e1c733b0cc17deea0fe84308f781893b",
        "c954dec2419c9401abc5a3919174a4c8f8ff5c43676e68bc91f0e2bf44392efc",
        "2b43030c721f2982e4b6edbf11f3b81bfd61bdc44d81c437292013a1b8ffbf87",
        "96adbfb8f35682c9f0ddb8b204c30cd8997f5e161f23e1aaaf66d395ee8ac370",
    ),
    "1/6(1,2,3)+1/2(1,1,0)": (
        "ea22866d1ca204bdf0f9474733341ab9b539be1dc9c4104e28a5c0c3cb308e14",
        "556c8289a5200f69dab99bf090694eaeb2b23f60d91cefe9aa67a0169d6a5167",
        "1b33eff49fae0b134552fba243bd7ff6ee16bf0207ad9708b2304a819492409a",
        "574fe725c29294b7fbe5758c6a21bf81c772755536bbfddb9e2fce94baedfa0e",
        "b56e12c83f0cfbd356b06e7a4515a1e69140328aa2d49f2388760003fff6d7b6",
    ),
    "1/101(1,7,93)": (
        "b1086714bb6dc3b6e52a209e6734268d5834582a54e52adef597a4f76551531d",
        "b73021bd3732ecc78c25872ba132ef46396f8489d078c96aa9124987bf941580",
        "144c20426a3b27b3c12a90e216f43d2a5a17bb2530a9702e50549a0a22e8b942",
        "2b43030c721f2982e4b6edbf11f3b81bfd61bdc44d81c437292013a1b8ffbf87",
        "2507705245ca5fe75dec3ecd3deb2e2d2e15d6cc5a0ba1ab7abf6b7370501f0a",
    ),
}


@pytest.mark.parametrize("spec", list(PINNED))
def test_outputs_pinned(spec, tmp_path, capsys):
    paths = {cmd: str(tmp_path / cmd) for cmd in ("report", "fan", "clusters")}
    digests = []
    for cmd in ("report", "fan", "clusters"):
        assert main([cmd, spec, "--json", paths[cmd]]) == 0
        with open(paths[cmd], "rb") as fh:
            digests.append(sha256(fh.read()).hexdigest())
    capsys.readouterr()
    assert main(["verify", spec]) == 0
    digests.append(sha256(capsys.readouterr().out.encode()).hexdigest())
    svg = tmp_path / "fig.svg"
    assert main(["draw", spec, "--svg", str(svg), "--ratios"]) == 0
    digests.append(sha256(svg.read_bytes()).hexdigest())
    assert tuple(digests) == PINNED[spec]

    with open(paths["report"]) as fh:
        report = json.load(fh)
    with open(paths["fan"]) as fh:
        assert json.load(fh)["fan"] == report["fan"]


def _count_calls(monkeypatch, module, name):
    """Record the calls of ahilb.<module>.<name> in every ahilb module that
    binds it."""
    original = getattr(importlib.import_module(f"ahilb.{module}"), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "ahilb" or mod_name.startswith("ahilb."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


class _RecordedStage:
    """Stands in for the cached stage Resolution.<name>: counts
    computations and records, per read, the reading function and the
    object it got.  It defines __set__ so that the value cached in the
    instance dict does not hide later reads from it."""

    def __init__(self, name):
        original = Resolution.__dict__[name]
        self.name = name
        self.computed = []
        self.reads = []

        def counted(res):
            self.computed.append(res)
            return original.func(res)

        self.cached = cached_property(counted)
        self.cached.__set_name__(Resolution, name)

    def __get__(self, res, owner=None):
        if res is None:
            return self
        value = self.cached.__get__(res, owner)
        self.reads.append((sys._getframe(1).f_code.co_name, value))
        return value

    def __set__(self, res, value):
        raise AttributeError(f"{self.name} is read-only")


@pytest.mark.parametrize("spec", ["1/11(1,2,8)", "1/15(1,2,12)"])
def test_verify_computes_each_stage_once(spec, monkeypatch, capsys):
    builds = _count_calls(monkeypatch, "partition", "build_partition")
    points = _count_calls(monkeypatch, "lattice", "junior_points")
    elements = _count_calls(monkeypatch, "lattice", "group_elements")
    polygons = _count_calls(monkeypatch, "corners", "newton_polygon")
    chains = _count_calls(monkeypatch, "corners", "corner_chain")
    words = _count_calls(monkeypatch, "corners", "cyclic_word")
    checked = _count_calls(monkeypatch, "clusters", "verify_cluster")
    tripods = _count_calls(monkeypatch, "clusters", "check_tripod")
    bases = _count_calls(monkeypatch, "clusters", "tripod_basis")
    swept = _count_calls(monkeypatch, "partition", "crossings")
    reports = _count_calls(monkeypatch, "partition", "knockout_report")
    solves = _count_calls(monkeypatch, "lattice", "scaled_dual")
    crossings = _RecordedStage("crossings")
    monkeypatch.setattr(Resolution, "crossings", crossings)
    hulls = _RecordedStage("hulls")
    monkeypatch.setattr(Resolution, "hulls", hulls)
    assert main(["verify", spec]) == 0
    solved = len(solves)
    assert len(builds) == 1
    # The hull pass reads the junior points, and no list of the group
    # elements is built: one lazy walk over the group gives them. The
    # pass gives the three hulls that cross-check the continued-fraction
    # chains and the junior-point counts.
    assert len(points) == 1
    assert len(elements) == 1
    assert len(polygons) == 1
    assert len(hulls.computed) == 1
    assert sorted(reader for reader, _ in hulls.reads) == ["_counts", "_hj"]
    assert len(chains) == 3
    assert len(words) == 1
    # The fan has one cone per group element.
    order = lattice_context(parse_group_spec(spec)).order
    assert len(checked) == order
    # One tripod check per cone, without building the monomials; the
    # one verify_cluster per cone above is cluster_system's, so the
    # tripod check calls none.
    assert len(tripods) == order
    assert bases == []
    # The knock-out report and the exponent-rule check share one list,
    # computed once and kept by the resolution.
    assert len(swept) == 1
    assert len(crossings.computed) == 1
    assert sorted(reader for reader, _ in crossings.reads) == [
        "_crossings", "_knockout"]
    read = dict(crossings.reads)
    [(_, given)] = reports
    assert given is read["_crossings"] is read["_knockout"]
    # One linear solve for the lattice context's monomial basis, and one
    # per cone for its dual basis: the reverse classification solves none.
    assert solved == order + 1


@pytest.mark.parametrize("spec", ["1/11(1,2,8)", "1/32(1,0,31)+1/32(0,1,31)"])
def test_report_computes_each_chart_once(spec, monkeypatch, capsys):
    # One pass over the cones, with nothing kept from another call: the
    # lattice context's solve, and the per-cone route (one solve, dual
    # basis, cluster system and verification of it) on every cell of a
    # (triangle, kind) with at most three cells and at the three corner
    # cells of a larger one.  1/11(1,2,8) has no larger one; the product's
    # one triangle of side 32 has 528 up and 496 down cells.
    order = lattice_context(parse_group_spec(spec)).order
    routed = {"1/11(1,2,8)": order, "1/32(1,0,31)+1/32(0,1,31)": 6}[spec]
    solves = _count_calls(monkeypatch, "lattice", "scaled_dual")
    duals = _count_calls(monkeypatch, "monomials", "dual_basis")
    systems = _count_calls(monkeypatch, "clusters", "cluster_system")
    checked = _count_calls(monkeypatch, "clusters", "verify_cluster")
    assert main(["report", spec]) == 0
    assert (len(solves), len(duals), len(systems), len(checked)) == (
        routed + 1, routed, routed, routed)


@pytest.mark.parametrize("command", ["report", "verify"])
@pytest.mark.parametrize("spec, entries", [
    ("1/96(1,1,94)", 98), ("1/1001(1,37,963)", 63), ("1/11(1,2,8)", 11)])
def test_each_line_ratio_is_computed_once(command, spec, entries,
                                          monkeypatch, capsys):
    # rays computes one ratio per word entry; the triangle normal forms
    # and the exponent rule read them.
    assert len(Resolution(lattice_context(parse_group_spec(spec))).word) \
        == entries
    ratios = _count_calls(monkeypatch, "lattice",
                          "primitive_in_monomial_lattice")
    assert main([command, spec]) == 0
    assert len(ratios) == entries


def test_settled_checks_do_no_work(monkeypatch):
    # The fan's edge matching, the tiling certificate, walks no side of
    # the simplex, the dual basis asks no character once the two routes
    # agree, and a cluster system asks one per equation.
    ctx = lattice_context(parse_group_spec("1/11(1,2,8)"))
    res = Resolution(ctx)
    ratios, systems = res.ratios, res.systems
    steps = _count_calls(monkeypatch, "lattice", "primitive_vector")
    character = LatticeContext.character
    characters = []

    def counted(self, v):
        characters.append(v)
        return character(self, v)

    monkeypatch.setattr(LatticeContext, "character", counted)
    build_fan(res.partition)
    assert steps == []
    for cell in res.fan.cones:
        dual_basis(ctx, ratios[cell.parent], cell)
    assert characters == []
    for sysm in systems:
        verify_cluster(ctx, sysm)
        assert len(characters) == 7
        characters.clear()


def test_fan_command_skips_duals_and_clusters(monkeypatch, capsys):
    duals = _count_calls(monkeypatch, "monomials", "dual_basis")
    systems = _count_calls(monkeypatch, "clusters", "cluster_system")
    assert main(["fan", "1/11(1,2,8)"]) == 0
    assert duals == [] and systems == []


def test_report_builds_partition_once(monkeypatch, capsys):
    builds = _count_calls(monkeypatch, "partition", "build_partition")
    assert main(["report", "1/11(1,2,8)"]) == 0
    assert len(builds) == 1


@pytest.mark.parametrize("spec, sides", [
    ("1/11(1,2,8)", 3), ("1/15(1,2,12)", 2), ("1/2(1,1,0)+1/2(0,1,1)", 3)])
def test_verify_plays_the_leftmost_game_once(spec, sides, monkeypatch,
                                             capsys):
    # The resolution keeps the leftmost run, read by the partition and
    # the order family; the family adds exactly 10 orders drawn from one
    # generator, and the partition one side run per short side, all on
    # the one kernel.
    games = _count_calls(monkeypatch, "mmp", "run_mmp")
    runs = _count_calls(monkeypatch, "mmp", "contract_run")
    assert main(["verify", spec]) == 0
    assert sum(len(args) == 1 for args in games) == 1
    rngs = [args[1] for args in games if len(args) > 1]
    assert len(rngs) == 10 and type(rngs[0]) is random.Random
    assert all(rng is rngs[0] for rng in rngs)
    assert len(runs) == len(games) + sides


def test_report_plays_no_seeded_order(monkeypatch, capsys):
    games = _count_calls(monkeypatch, "mmp", "run_mmp")
    runs = _count_calls(monkeypatch, "mmp", "contract_run")
    assert main(["report", "1/11(1,2,8)"]) == 0
    assert [args[1:] for args in games] == [()]
    assert len(runs) == 1 + 3


@pytest.mark.parametrize("spec", ["1/11(1,2,8)", "1/101(1,7,93)"])
def test_seeded_run_reads_each_entry_once_and_builds_no_record(
        spec, monkeypatch):
    word = Resolution(lattice_context(parse_group_spec(spec))).word
    fixed = _count_calls(monkeypatch, "lattice", "sign_fixed")
    trace = run_mmp(word, random.Random(3))
    # The word's columns are read in place: no direction is normalized.
    assert fixed == []
    # A step is kept as the indexes of its three word entries.
    assert all(type(e) is int for step in trace.triples for e in step)


@pytest.mark.parametrize("spec", ["1/11(1,2,8)", "1/32(1,0,31)+1/32(0,1,31)"])
def test_report_scans_no_junior_points(spec, monkeypatch, capsys):
    points = _count_calls(monkeypatch, "lattice", "junior_points")
    elements = _count_calls(monkeypatch, "lattice", "group_elements")
    polygons = _count_calls(monkeypatch, "corners", "newton_polygon")
    assert main(["report", spec]) == 0
    assert points == [] and elements == [] and polygons == []


# Every cyclic 1/r(a,b,c) with r <= 24 and 0 <= a <= b <= c < r (980
# groups), plus 8 products: 988 groups.
SWEEP = cyclic_groups(24) + [
    "1/2(1,1,0)+1/2(0,1,1)",
    "1/3(1,2,0)+1/3(0,1,2)",
    "1/4(1,3,0)+1/4(0,1,3)",
    "1/5(1,4,0)+1/5(0,1,4)",
    "1/2(1,1,0)+1/4(0,1,3)",
    "1/3(1,1,1)+1/3(1,2,0)",
    "1/6(1,2,3)+1/2(1,1,0)",
    "1/2(1,0,1)+1/3(1,1,1)",
]

# SHA-256 over the sweep of each command's output, every group's bytes
# preceded by its spec and a newline.
PINNED_SWEEP = {
    "report": (
        "40eab04e91ad90e77a2773c5bb8d64db"
        "ce00af44de930c689fdcb0c62af395e8"
    ),
    "fan": (
        "2236c9e732ea3639b19eecb759b231a2"
        "849256a7bb1abf3244b2c01d328394fd"
    ),
    "clusters": (
        "d729a6cdd3b92825fabea448707120f6"
        "7eaeb72be96b10b2dc0a1395548f8d8c"
    ),
    "verify": (
        "bd8c6230174a5950974f7a8b1fc2d0bd"
        "e5cb0022e780a3817f4fb355d3853515"
    ),
    "draw": (
        "394e1892ca2c8746fd3d11c729b33cdb"
        "6513acc652e112b66ca8be2d6de61e42"
    ),
}


@pytest.mark.deep
def test_outputs_pinned_sweep(tmp_path, capsys):
    # Each output goes to a fresh file, removed once read: on some
    # filesystems truncating an existing file is far slower than making one.
    digests = {cmd: sha256() for cmd in PINNED_SWEEP}

    def read_once(path):
        data = path.read_bytes()
        path.unlink()
        return data

    out = tmp_path / "out"
    for spec in SWEEP:
        tag = f"{spec}\n".encode()
        for cmd in ("report", "fan", "clusters"):
            assert main([cmd, spec, "--json", str(out)]) == 0
            digests[cmd].update(tag + read_once(out))
        capsys.readouterr()
        assert main(["verify", spec]) == 0
        digests["verify"].update(tag + capsys.readouterr().out.encode())
        assert main(["draw", spec, "--svg", str(out), "--ratios"]) == 0
        digests["draw"].update(tag + read_once(out))
    assert len(SWEEP) == 988
    got = {cmd: h.hexdigest() for cmd, h in digests.items()}
    assert got == PINNED_SWEEP
