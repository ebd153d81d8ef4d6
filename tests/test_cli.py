import importlib
import json
import os
import subprocess
import sys
from functools import cached_property
from hashlib import sha256
from importlib import resources
from pathlib import Path

import pytest

import ahilb
from ahilb import lattice_context, parse_group_spec
from ahilb.cli import build_document, main
from ahilb.draw import render_svg
from ahilb.fan import build_fan
from ahilb.partition import Partition
from ahilb.resolution import Resolution


def doc_of(text):
    return build_document(lattice_context(parse_group_spec(text)))


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


def test_verify_command_random(capsys):
    assert main(["verify", "--random", "5", "--max-order", "20",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "5 groups" in out and "0 failures" in out


def test_verify_needs_input(capsys):
    assert main(["verify"]) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--random", "-3"],
    ["verify", "--random", "1", "--max-order", "0"],
    ["verify", "--random", "2", "--max-order", "-5"],
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
        a = json.dumps(doc_of(text))
        b = json.dumps(doc_of(text))
        assert a == b


def test_svg_deterministic():
    ctx = lattice_context(parse_group_spec("1/15(1,2,12)"))
    part = Resolution(ctx).partition
    fan = build_fan(ctx, part)
    assert render_svg(ctx, part, fan, ratios=True) == render_svg(
        ctx, part, fan, ratios=True
    )


def test_documents_validate_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        resources.files("ahilb").joinpath("schema.json").read_text()
    )
    for text in ("1/11(1,2,8)", "1/15(1,2,12)", "1/30(25,2,3)",
                 "1/2(1,1,0)+1/2(0,1,1)", "1/1(0,0,0)", "1/101(1,7,93)"):
        jsonschema.validate(doc_of(text), schema)


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


class _RecordedCrossings:
    """Stands in for the cached Partition.crossings: counts computations
    and records, per read, the reading function and the object it got.
    It defines __set__ so that the value cached in the instance dict does
    not hide later reads from it."""

    def __init__(self):
        original = Partition.__dict__["crossings"]
        self.computed = []
        self.reads = []

        def counted(part):
            self.computed.append(part)
            return original.func(part)

        self.cached = cached_property(counted)
        self.cached.__set_name__(Partition, "crossings")

    def __get__(self, part, owner=None):
        if part is None:
            return self
        value = self.cached.__get__(part, owner)
        self.reads.append((sys._getframe(1).f_code.co_name, value))
        return value

    def __set__(self, part, value):
        raise AttributeError("crossings is read-only")


@pytest.mark.parametrize("spec", ["1/11(1,2,8)", "1/15(1,2,12)"])
def test_verify_computes_each_stage_once(spec, monkeypatch, capsys):
    builds = _count_calls(monkeypatch, "partition", "build_partition")
    polygons = _count_calls(monkeypatch, "corners", "newton_polygon")
    words = _count_calls(monkeypatch, "corners", "cyclic_word")
    checked = _count_calls(monkeypatch, "clusters", "verify_cluster")
    crossings = _RecordedCrossings()
    monkeypatch.setattr(Partition, "crossings", crossings)
    assert main(["verify", spec]) == 0
    assert len(builds) == 1
    assert len(polygons) == 3
    assert len(words) == 1
    # The fan has one cone per group element.
    assert len(checked) == lattice_context(parse_group_spec(spec)).order
    # The knock-out report and the exponent-rule check share one list.
    assert len(crossings.computed) == 1
    readers = [reader for reader, _ in crossings.reads]
    assert sorted(readers) == ["_crossings", "knockout_report"]
    assert crossings.reads[0][1] is crossings.reads[1][1]


def test_fan_command_skips_duals_and_clusters(monkeypatch, capsys):
    duals = _count_calls(monkeypatch, "monomials", "dual_basis")
    systems = _count_calls(monkeypatch, "clusters", "cluster_system")
    assert main(["fan", "1/11(1,2,8)"]) == 0
    assert duals == [] and systems == []


def test_report_builds_partition_once(monkeypatch, capsys):
    builds = _count_calls(monkeypatch, "partition", "build_partition")
    assert main(["report", "1/11(1,2,8)"]) == 0
    assert len(builds) == 1
