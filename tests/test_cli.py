import json
from pathlib import Path

import pytest

from algch.cli import main
from algch.fileio import (
    ParseError,
    load_algebroid,
    parse_algebroid,
    serialize_algebroid,
    scalar_from_json,
    scalar_to_json,
)
from algch.scalars import Scalar

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def run_cli(capsys, *argv):
    status = main([str(a) for a in argv])
    return status, capsys.readouterr().out


def assert_no_floats(obj):
    assert not isinstance(obj, float)
    if isinstance(obj, dict):
        for v in obj.values():
            assert_no_floats(v)
    elif isinstance(obj, list):
        for v in obj:
            assert_no_floats(v)


class TestFileio:
    def test_scalar_roundtrip(self):
        for s in (Scalar(3), Scalar(-1, 2), Scalar(0), Scalar(0, -5)):
            assert scalar_from_json(scalar_to_json(s)) == s

    def test_floats_rejected(self):
        with pytest.raises(ParseError):
            scalar_from_json(0.5)

    def test_parse_serialize_parse_identity(self):
        for name in ("q_family.json", "so3.json", "heisenberg.json", "tt2.json", "abelian2.json"):
            a, extras = load_algebroid(str(INPUTS / name))
            doc = serialize_algebroid(a, extras)
            a2, extras2 = parse_algebroid(doc)
            assert a2 == a
            assert serialize_algebroid(a2, extras2) == doc

    def test_rank_zero(self, tmp_path):
        f = tmp_path / "zero.json"
        f.write_text(json.dumps({"base_dim": 0, "rank": 0}))
        a, _ = load_algebroid(str(f))
        assert (a.n, a.r) == (0, 0)

    def test_non_antisymmetric_named(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(
            json.dumps(
                {
                    "base_dim": 0,
                    "rank": 2,
                    "brackets": [
                        {"i": 1, "j": 2, "coeffs": ["0", "1"]},
                        {"i": 2, "j": 1, "coeffs": ["0", "1"]},
                    ],
                }
            )
        )
        with pytest.raises(ParseError, match=r"antisymmetry.*\(1,2,2\)"):
            load_algebroid(str(f))


MALFORMED_DOCS = {
    "list document": [],
    "string document": "rank 2",
    "number document": 3,
    "float dimensions": {"base_dim": 0.9, "rank": 2.7},
    "float rank": {"base_dim": 0, "rank": 2.0},
    "bool rank": {"base_dim": 0, "rank": True},
    "string base_dim": {"base_dim": "0", "rank": 2},
    "missing rank": {"base_dim": 0},
    "brackets not a list": {"base_dim": 0, "rank": 2, "brackets": {"i": 1}},
    "bracket not an object": {"base_dim": 0, "rank": 2, "brackets": [[1, 2]]},
    "bracket without i": {"base_dim": 0, "rank": 2, "brackets": [{"j": 2, "coeffs": ["0", "1"]}]},
    "bracket without j": {"base_dim": 0, "rank": 2, "brackets": [{"i": 1, "coeffs": ["0", "1"]}]},
    "bracket without coeffs": {"base_dim": 0, "rank": 2, "brackets": [{"i": 1, "j": 2}]},
    "bracket coeffs not a list": {"base_dim": 0, "rank": 2, "brackets": [{"i": 1, "j": 2, "coeffs": "01"}]},
    "float bracket index": {"base_dim": 0, "rank": 2, "brackets": [{"i": 1.0, "j": 2, "coeffs": ["0", "1"]}]},
    "anchor not a list": {"base_dim": 1, "rank": 1, "anchor": 5},
    "anchor row not a list": {"base_dim": 1, "rank": 1, "anchor": ["1"]},
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("name", sorted(MALFORMED_DOCS))
    def test_parse_rejects(self, name):
        with pytest.raises(ParseError):
            parse_algebroid(MALFORMED_DOCS[name])

    @pytest.mark.parametrize("name", sorted(MALFORMED_DOCS))
    def test_validate_reports_invalid(self, capsys, tmp_path, name):
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(MALFORMED_DOCS[name]))
        status, out = run_cli(capsys, "validate", f)
        assert status == 1
        assert out.startswith("INVALID")

    def test_fractional_dimensions_not_truncated(self):
        with pytest.raises(ParseError, match="base_dim must be an integer"):
            parse_algebroid({"base_dim": 0.9, "rank": 2.7})


class TestCountOptions:
    """--k and --max-q must be >= 1; 0 is an error, not the default."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("char", "--max-q", "0"),
            ("cs", "--max-q", "0"),
            ("cs", "--max-q", "-2"),
            ("morita-check", "--k", "0"),
            ("morita-check", "--max-q", "0"),
            ("morita-check", "--k", "-1", "--max-q", "1"),
        ],
    )
    def test_non_positive_rejected(self, capsys, argv):
        status, out = run_cli(capsys, *argv, INPUTS / "q_family.json")
        assert status == 1
        flag = "--k" if "--k" in argv else "--max-q"
        assert f"error: {flag} must be an integer >= 1" in out
        assert "char^" not in out and "cs^" not in out and "q=" not in out

    def test_zero_in_batch_fails_only_that_job(self, capsys, tmp_path):
        jobs = [
            {"command": "cs", "inputs": [str(INPUTS / "q_family.json")], "options": {"max_q": 0}},
            {"command": "cs", "inputs": [str(INPUTS / "q_family.json")], "options": {"max_q": 1}},
            {"command": "morita-check", "inputs": [str(INPUTS / "tt2.json")], "options": {"k": 0}},
        ]
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps(jobs))
        out_file = tmp_path / "report.json"
        status, _ = run_cli(capsys, "batch", "--out", out_file, batch)
        assert status == 1
        reports = json.loads(out_file.read_text())["batch"]
        assert "max-q" in reports[0]["error"]
        assert [c["q"] for c in reports[1]["cochains"]] == [1]
        assert "--k" in reports[2]["error"]

    @pytest.mark.parametrize("value", ["1", True, 1.0])
    def test_non_integer_option_in_batch(self, capsys, tmp_path, value):
        jobs = [{"command": "char", "inputs": [str(INPUTS / "q_family.json")], "options": {"max_q": value}}]
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps(jobs))
        status, out = run_cli(capsys, "batch", batch)
        assert status == 1
        assert "error: --max-q must be an integer >= 1" in out


class TestCommands:
    def test_validate(self, capsys):
        status, out = run_cli(capsys, "validate", INPUTS / "q_family.json")
        assert status == 0
        assert "VALID (base_dim=0, rank=3)" in out

    def test_validate_failure_exit(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(
            json.dumps(
                {
                    "base_dim": 0,
                    "rank": 2,
                    "brackets": [
                        {"i": 1, "j": 2, "coeffs": ["0", "1"]},
                        {"i": 2, "j": 1, "coeffs": ["0", "1"]},
                    ],
                }
            )
        )
        status, out = run_cli(capsys, "validate", f)
        assert status == 1
        assert "antisymmetry" in out

    def test_cohomology_so3(self, capsys):
        status, out = run_cli(capsys, "cohomology", INPUTS / "so3.json")
        assert status == 0
        assert "Betti: 1 0 0 1" in out

    def test_char_nonzero(self, capsys):
        status, out = run_cli(capsys, "char", "--max-q", "1", INPUTS / "q_family.json")
        assert status == 0
        assert "char^1: NONZERO" in out

    def test_char_trace_zero(self, capsys):
        status, out = run_cli(capsys, "char", "--max-q", "2", INPUTS / "q_family_tr0.json")
        assert status == 0
        assert "char^1: ZERO" in out
        assert "char^2: ZERO" in out

    def test_modular_normalized_value(self, capsys):
        status, out = run_cli(capsys, "modular", INPUTS / "q_family.json")
        assert status == 0
        assert "modular class: NONZERO" in out
        # Q = identity: normalized representative sends e_3 to -2
        assert '"indices": [3]' in out and '"value": "-2"' in out

    def test_cs(self, capsys):
        status, out = run_cli(capsys, "cs", "--max-q", "1", INPUTS / "q_family.json")
        assert status == 0
        assert "cs^1:" in out

    def test_morita_tangent(self, capsys):
        status, out = run_cli(capsys, "morita-check", "--k", "1", "--seed", "3", INPUTS / "tt2.json")
        assert status == 0
        assert "q=1: EQUAL (both zero)" in out
        assert "q=2: EQUAL (both zero)" in out
        assert "cohomologous" in out

    def test_morita_q_family(self, capsys):
        status, out = run_cli(
            capsys, "morita-check", "--k", "2", "--max-q", "1", "--seed", "5", INPUTS / "q_family.json"
        )
        assert status == 0
        assert "q=1: EQUAL" in out

    def test_product(self, capsys):
        status, out = run_cli(capsys, "product", INPUTS / "so3.json", INPUTS / "abelian2.json")
        assert status == 0
        doc = json.loads(out)
        assert doc["rank"] == 5 and doc["base_dim"] == 0

    def test_rank_zero_commands(self, capsys, tmp_path):
        f = tmp_path / "zero.json"
        f.write_text(json.dumps({"base_dim": 0, "rank": 0}))
        status, out = run_cli(capsys, "cohomology", f)
        assert status == 0 and "Betti: 1" in out
        status, out = run_cli(capsys, "char", f)
        assert status == 0

    def test_missing_file(self, capsys):
        status = main(["validate", "nope.json"])
        assert status == 1

    def test_report_out(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        status, _ = run_cli(
            capsys, "char", "--max-q", "1", "--out", out_file, INPUTS / "q_family.json"
        )
        assert status == 0
        report = json.loads(out_file.read_text())
        assert report["command"] == "char"
        assert report["inputs"] == [str(INPUTS / "q_family.json")]
        assert report["options"]["max_q"] == 1
        assert report["classes"][0]["is_zero_class"] is False
        assert_no_floats(report)

    def test_batch(self, capsys, tmp_path):
        jobs = [
            {"command": "validate", "inputs": [str(INPUTS / "so3.json")]},
            {"command": "cohomology", "inputs": [str(INPUTS / "so3.json")]},
            {
                "command": "char",
                "inputs": [str(INPUTS / "q_family.json")],
                "options": {"max_q": 1},
            },
        ]
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps(jobs))
        out_file = tmp_path / "report.json"
        status, out = run_cli(capsys, "batch", "--out", out_file, batch)
        assert status == 0
        # report ordering follows input order
        assert out.index("VALID") < out.index("Betti") < out.index("char^1")
        report = json.loads(out_file.read_text())
        assert [r["command"] for r in report["batch"]] == ["validate", "cohomology", "char"]
