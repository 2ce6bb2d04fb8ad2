import json
from pathlib import Path

import pytest

from algch import charclasses
from algch.algebroid import AlgebroidForm
from algch.cli import main
from algch.fileio import (
    ParseError,
    load_algebroid,
    parse_algebroid,
    serialize_algebroid,
    scalar_from_json,
    scalar_to_json,
)
from algch.scalars import Scalar, I, ONE

from helpers import fake_cs_cochains

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
    "float in a Gaussian entry": {
        "base_dim": 0, "rank": 1, "metric": {"g_A": [[{"re": 0.5, "im": "0"}]]},
    },
    "bool scalar": {"base_dim": 0, "rank": 1, "metric": {"g_A": [[True]]}},
    "unknown scalar key": {"base_dim": 0, "rank": 1, "metric": {"g_A": [[{"real": "1"}]]}},
    "g_V not a list": {"base_dim": 0, "rank": 1, "metric": {"g_V": 2}},
    "tm_conn not a list": {"base_dim": 1, "rank": 1, "anchor": [["0"]], "connection": {"tm_conn": 3}},
    "metric not an object": {"base_dim": 0, "rank": 1, "metric": [["1"]]},
    "connection not an object": {"base_dim": 0, "rank": 1, "connection": "none"},
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

    def test_gaussian_floats_rejected(self):
        with pytest.raises(ParseError, match="floats are not accepted"):
            scalar_from_json({"re": 0.5, "im": 0.25})
        with pytest.raises(ParseError):
            scalar_from_json({"re": "1/2", "im": 0.25})

    def test_fractional_dimensions_not_truncated(self):
        with pytest.raises(ParseError, match="base_dim must be an integer"):
            parse_algebroid({"base_dim": 0.9, "rank": 2.7})


def with_metric(name, **blocks):
    doc = json.loads((INPUTS / name).read_text())
    doc["metric"] = blocks
    return doc


# a metric block that is not Hermitian positive-definite: (document, key)
BAD_METRICS = {
    "non-PD g_A": (with_metric("q_family.json", g_A=[["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]), "g_A"),
    "non-Hermitian g_M": (with_metric("tt2.json", g_M=[["1", "1"], ["0", "1"]]), "g_M"),
    "non-PD g_V": (with_metric("tt2.json", g_V=[["1", "0"], ["0", "0"]]), "g_V"),
    "imaginary diagonal g_A": (with_metric("so3.json", g_A=[[{"im": "1"}, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]), "g_A"),
}


class TestMetricBlocks:
    """Metric blocks are checked when the document is parsed: a block
    that is not Hermitian positive-definite is a ParseError (exit 1)."""

    @pytest.mark.parametrize("name", sorted(BAD_METRICS))
    def test_parse_rejects(self, name):
        doc, key = BAD_METRICS[name]
        with pytest.raises(ParseError, match=f"^{key}: metric block is not"):
            parse_algebroid(doc)

    @pytest.mark.parametrize("command", ["char", "modular", "cs", "morita-check", "validate"])
    @pytest.mark.parametrize("name", sorted(BAD_METRICS))
    def test_commands_report_error(self, capsys, tmp_path, command, name):
        doc, key = BAD_METRICS[name]
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(doc))
        status, out = run_cli(capsys, command, f)
        assert status == 1
        prefix = "INVALID: " if command == "validate" else "error: "
        assert out.startswith(f"{prefix}{key}: metric block is not")

    def test_bad_metric_in_batch_fails_only_that_job(self, capsys, tmp_path):
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(BAD_METRICS["non-PD g_A"][0]))
        jobs = [{"command": "char", "inputs": [str(f)]}, SO3_COHOMOLOGY]
        out_file = tmp_path / "report.json"
        status, out = run_cli(capsys, "batch", "--out", out_file, write_batch(tmp_path, jobs))
        assert status == 1
        reports = json.loads(out_file.read_text())["batch"]
        assert reports[0]["error"] == "g_A: metric block is not positive-definite"
        assert reports[1]["betti"] == [1, 0, 0, 1]

    def test_valid_blocks_accepted(self):
        doc = with_metric("tt2.json", g_A=[["2", {"im": "1"}], [{"im": "-1"}, "1"]], g_V=[["3"]])
        _, extras = parse_algebroid(doc)
        assert set(extras) == {"g_A", "g_V"}


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


def imaginary_one_form(r):
    return AlgebroidForm(r, 1, {(0,): I})


class TestFailedIdentities:
    """IdentityFailure and PrimaryObstruction are verdicts: a structured
    error, exit 1, no traceback."""

    def test_identity_failure(self, capsys, tmp_path, monkeypatch):
        fake_cs_cochains(monkeypatch, 1, imaginary_one_form)
        out_file = tmp_path / "report.json"
        status, out = run_cli(
            capsys, "char", "--max-q", "1", "--out", out_file, INPUTS / "q_family.json"
        )
        assert status == 1
        assert out.startswith("FAILED: reality:")
        report = json.loads(out_file.read_text())
        assert report["failure"] == {"kind": "IdentityFailure", "identity": "reality"}
        assert "imaginary part" in report["error"]

    def test_primary_obstruction(self, capsys, tmp_path, monkeypatch):
        fake_cs_cochains(monkeypatch, 0, lambda r: AlgebroidForm(r, 2, {(0, 1): ONE}))
        out_file = tmp_path / "report.json"
        status, out = run_cli(
            capsys, "modular", "--out", out_file, INPUTS / "abelian2.json"
        )
        assert status == 1
        assert out.startswith("FAILED: Chern character entry q=1")
        report = json.loads(out_file.read_text())
        assert report["failure"] == {"kind": "PrimaryObstruction"}

    def test_failure_in_batch_fails_only_that_job(self, capsys, tmp_path, monkeypatch):
        fake_cs_cochains(monkeypatch, 1, imaginary_one_form)
        jobs = [
            {"command": "char", "inputs": [str(INPUTS / "q_family.json")], "options": {"max_q": 1}},
            {"command": "cohomology", "inputs": [str(INPUTS / "so3.json")]},
        ]
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps(jobs))
        out_file = tmp_path / "report.json"
        status, out = run_cli(capsys, "batch", "--out", out_file, batch)
        assert status == 1
        reports = json.loads(out_file.read_text())["batch"]
        assert reports[0]["failure"]["identity"] == "reality"
        assert reports[1]["betti"] == [1, 0, 0, 1]


SO3_COHOMOLOGY = {"command": "cohomology", "inputs": [str(INPUTS / "so3.json")]}

MALFORMED_BATCHES = {
    "job without command": [{"inputs": ["x.json"]}],
    "object document": {"a": 1},
    "string document": "cs",
    "job not an object": [SO3_COHOMOLOGY, ["cs", "x.json"]],
    "command not a string": [{"command": 3, "inputs": []}],
    "inputs not a list": [{"command": "cohomology", "inputs": "x.json"}],
    "input not a string": [{"command": "cohomology", "inputs": [3]}],
    "options not an object": [{"command": "cs", "inputs": [str(INPUTS / "so3.json")], "options": [1]}],
    "options null": [SO3_COHOMOLOGY, {"command": "cs", "inputs": [str(INPUTS / "so3.json")], "options": None}],
}


def write_batch(tmp_path, doc):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(doc))
    return batch


class TestBatchDocuments:
    """A malformed batch document is refused before any job runs; a bad
    job inside a well-formed one fails only itself."""

    @pytest.mark.parametrize("name", sorted(MALFORMED_BATCHES))
    def test_malformed_document(self, capsys, tmp_path, name):
        out_file = tmp_path / "report.json"
        status = main(["batch", "--out", str(out_file), str(write_batch(tmp_path, MALFORMED_BATCHES[name]))])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "job, message",
        [
            ({"command": "nope", "inputs": []}, "unknown command 'nope'"),
            ({"command": "product", "inputs": [str(INPUTS / "so3.json")]}, "takes 2 input file(s)"),
            ({"command": "cs", "inputs": [str(INPUTS / "missing.json")]}, "missing.json"),
            ({"command": "validate", "inputs": [str(INPUTS)]}, "Is a directory"),
            (
                {"command": "morita-check", "inputs": [str(INPUTS / "tt2.json")], "options": {"seed": [1]}},
                "--seed must be an integer",
            ),
        ],
        ids=["unknown command", "wrong input count", "missing input", "directory input", "list seed"],
    )
    def test_bad_job_fails_only_itself(self, capsys, tmp_path, job, message):
        out_file = tmp_path / "report.json"
        status, out = run_cli(
            capsys, "batch", "--out", out_file, write_batch(tmp_path, [job, SO3_COHOMOLOGY])
        )
        assert status == 1
        reports = json.loads(out_file.read_text())["batch"]
        assert message in reports[0]["error"]
        assert reports[1]["betti"] == [1, 0, 0, 1]
        assert "Betti: 1 0 0 1" in out

    def test_single_command_missing_input(self, capsys, tmp_path):
        status, out = run_cli(capsys, "cs", tmp_path / "missing.json")
        assert status == 1
        assert out.startswith("error: ")


class TestCommandSetups:
    """Each command builds its adjoint setups once."""

    @pytest.mark.parametrize(
        "argv, setups",
        [
            (["char", "--max-q", "2", "q_family.json"], 1),
            (["modular", "q_family.json"], 1),
            (["cs", "--max-q", "2", "q_family.json"], 1),
            (["morita-check", "--k", "1", "--seed", "2", "tt2.json"], 2),
        ],
    )
    def test_adjoint_setup_calls(self, capsys, monkeypatch, argv, setups):
        from algch import cli, pullback

        calls = []
        original = charclasses.adjoint_setup

        def counted(*args):
            calls.append(args[0].r)
            return original(*args)

        for module in (cli, charclasses, pullback):
            monkeypatch.setattr(module, "adjoint_setup", counted)
        status, _ = run_cli(capsys, *argv[:-1], INPUTS / argv[-1])
        assert status == 0
        assert len(calls) == setups


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

    def test_unwritable_report(self, capsys, tmp_path):
        out_file = tmp_path / "nodir" / "x.json"
        status = main(["cohomology", "--out", str(out_file), str(INPUTS / "so3.json")])
        captured = capsys.readouterr()
        assert status == 1
        assert "Betti: 1 0 0 1" in captured.out
        assert captured.err.startswith("error: ") and "nodir" in captured.err
        assert not out_file.exists()

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
