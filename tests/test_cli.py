import argparse
import copy
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from algch import charclasses, cli, connections, fileio, pullback
from algch.algebroid import ConstantAlgebroid, direct_product
from algch.cli import main
from algch.fileio import (
    ParseError,
    load_algebroid,
    matrix_from_json,
    parse_algebroid,
    serialize_algebroid,
    scalar_to_json,
)
from algch.connections import Connection, GradedEndo
from algch.linalg import Matrix
from algch.scalars import Scalar

from algch.library import abelian, heisenberg, so3, tangent_torus

from helpers import (
    count_calls,
    imaginary_trace,
    isl2,
    rand_pd_matrix,
    rand_q_family,
    rand_tm_conn,
    scalar_from_json,
)

INPUTS = Path(__file__).resolve().parent.parent / "inputs"
SRC = Path(__file__).resolve().parent.parent / "src"


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


# the longest integer string int() converts (0: no limit, then any length will do)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


@st.composite
def json_rationals(draw):
    """(a JSON rational, its value), the value built from the drawn integers
    and not by parsing: JSON integers, and strings with an optional sign,
    leading zeros, "-0", an unreduced denominator, or a numerator and
    denominator of exactly DIGIT_LIMIT digits."""
    kind = draw(st.sampled_from(["int", "str", "frac", "limit"]))
    if kind == "int":
        x = draw(st.integers(-10**6, 10**6))
        return x, Fraction(x)
    sign = draw(st.sampled_from(["", "+", "-"]))
    if kind == "limit":
        x, u = int(str(draw(st.integers(1, 9))) * DIGIT_LIMIT), int(str(draw(st.integers(1, 9))) * DIGIT_LIMIT)
        den = draw(st.sampled_from([None, u]))
    else:
        g = draw(st.integers(1, 6))  # a common factor, left in the string
        x = g * draw(st.integers(0, 50))
        den = g * draw(st.integers(1, 12)) if kind == "frac" else None
    zeros = "" if kind == "limit" else "0" * draw(st.integers(0, 2))  # zeros count as digits
    text = sign + zeros + str(x) + ("" if den is None else "/" + zeros + str(den))
    value = Fraction(-x if sign == "-" else x, den or 1)
    return text, value


@st.composite
def json_scalars(draw):
    """(a JSON scalar entry, its Scalar): a rational, or a dict with re only,
    im only or both."""
    (re, x), (im, y) = draw(json_rationals()), draw(json_rationals())
    kind = draw(st.sampled_from(["plain", "re", "im", "both"]))
    if kind == "plain":
        return re, Scalar(x)
    if kind == "re":
        return {"re": re}, Scalar(x)
    if kind == "im":
        return {"im": im}, Scalar(0, y)
    return {"re": re, "im": im}, Scalar(x, y)


class TestFileio:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.integers(1, 3), st.data())
    def test_integer_parse_equals_scalar_matrix(self, nrows, ncols, data):
        # the integer rows read off the document, against Matrix built
        # from Scalars: equal values and the same integer rows over the
        # same denominator
        cells = [[data.draw(json_scalars()) for _ in range(ncols)] for _ in range(nrows)]
        got = matrix_from_json([[v for v, _ in row] for row in cells], nrows, ncols, "m")
        want = Matrix([[s for _, s in row] for row in cells], ncols=ncols)
        assert got == want
        assert (got.re, got.im, got.den, got.ncols) == (want.re, want.im, want.den, want.ncols)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2), st.integers(1, 4), st.data())
    def test_integer_parse_equals_scalar_algebroid(self, n, r, data):
        # R x| R^(r-1) with [e_1, e_j] = M e_j for any M, which is valid
        # for every M, and an anchor on e_1 alone; each pair is given in
        # one orientation, so the parse adds the negated partner
        anchor = [[data.draw(json_scalars()) if k == 0 else (0, Scalar(0)) for k in range(r)] for _ in range(n)]
        doc = {"base_dim": n, "rank": r, "anchor": [[v for v, _ in row] for row in anchor], "brackets": []}
        brackets = {}
        for j in range(1, r):
            coeffs = [("0", Scalar(0))] + [data.draw(json_scalars()) for _ in range(1, r)]
            i, j = (0, j) if data.draw(st.booleans()) else (j, 0)
            doc["brackets"].append({"i": i + 1, "j": j + 1, "coeffs": [v for v, _ in coeffs]})
            brackets[i, j] = {k: s for k, (_, s) in enumerate(coeffs)}
        a, _ = parse_algebroid(doc)
        want = ConstantAlgebroid(n, r, Matrix([[s for _, s in row] for row in anchor], ncols=r), brackets)
        assert a == want
        assert (a.den, a.ints) == (want.den, want.ints)

    def test_scalar_roundtrip(self):
        for s in (Scalar(3), Scalar(-1, 2), Scalar(0), Scalar(0, -5)):
            assert scalar_from_json(scalar_to_json(s)) == s

    def test_floats_rejected(self):
        with pytest.raises(ParseError):
            scalar_from_json(0.5)

    @pytest.mark.parametrize(
        "value, message",
        [
            ("1e1000000", 'integers or strings like "-3/2"'),
            ("0.5", 'integers or strings like "-3/2"'),
            (" 1", 'integers or strings like "-3/2"'),
            ("1_000", 'integers or strings like "-3/2"'),
            ("1/-2", 'integers or strings like "-3/2"'),
            ("3/0", ""),
        ],
    )
    def test_refused_rational_strings(self, value, message):
        # exponent notation is refused before any number is built
        with pytest.raises(ParseError, match=f"bad rational '{re.escape(value)}'.*{message}"):
            scalar_from_json(value)

    @pytest.mark.parametrize("value, want", [("+4/6", Fraction(2, 3)), ("-007", -7), ("12/1", 12)])
    def test_accepted_rational_strings(self, value, want):
        assert scalar_from_json(value) == Scalar(want)

    def test_integer_digit_limit(self):
        digits = "7" * 5000
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limit < len(digits):
            with pytest.raises(ParseError, match="bad rational"):
                scalar_from_json(digits)
        else:
            assert scalar_from_json(digits) == Scalar(int(digits))

    def test_parse_serialize_parse_identity(self):
        for name in ("q_family.json", "so3.json", "heisenberg.json", "tt2.json", "abelian2.json"):
            a, extras = load_algebroid(str(INPUTS / name))
            doc = serialize_algebroid(a, extras)
            a2, extras2 = parse_algebroid(doc)
            assert a2 == a
            assert serialize_algebroid(a2, extras2) == doc

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3))
    def test_roundtrip_with_extras(self, seed, nfactors):
        # random library products with a Gaussian g_A, a real g_M and a
        # real tm_conn survive serialize then parse unchanged
        rng = random.Random(seed)
        makers = (
            lambda: abelian(rng.randint(1, 2)),
            lambda: tangent_torus(rng.randint(1, 2)),
            heisenberg,
            so3,
            lambda: rand_q_family(rng, trace_zero=rng.random() < 0.5),
        )
        a = rng.choice(makers)()
        for _ in range(nfactors - 1):
            a = direct_product(a, rng.choice(makers)())
        extras = {
            "g_A": rand_pd_matrix(a.r, rng, real=False),
            "g_M": rand_pd_matrix(a.n, rng, real=True),
            "tm_conn": rand_tm_conn(a, rng, real=True),
        }
        a2, extras2 = parse_algebroid(serialize_algebroid(a, extras))
        assert a2 == a
        assert extras2 == extras

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
    "bracket pair given twice": {
        "base_dim": 0, "rank": 3, "brackets": [
            {"i": 1, "j": 2, "coeffs": ["0", "0", "1"]},
            {"i": 1, "j": 2, "coeffs": ["0", "0", "2"]},
        ],
    },
    "misspelt top-level key": {"base_dim": 0, "rank": 2, "bracket": [{"i": 1, "j": 2, "coeffs": ["0", "1"]}]},
    "misspelt metric key": {"base_dim": 0, "rank": 1, "metric": {"g_a": [["2"]]}},
    "unknown bracket key": {"base_dim": 0, "rank": 2, "brackets": [{"i": 1, "j": 2, "coeffs": ["0", "0"], "k": 1}]},
    "unknown connection key": {"base_dim": 1, "rank": 1, "anchor": [["0"]], "connection": {"tm": [[["1"]]]}},
}

# what the ParseError of each silently-dropped input names
DROPPED_INPUT_ERRORS = {
    "bracket pair given twice": r"bracket \(1,2\) is given twice",
    "misspelt top-level key": r"algebroid: unknown keys \['bracket'\]",
    "misspelt metric key": r"metric: unknown keys \['g_a'\]",
    "unknown bracket key": r"bracket entry: unknown keys \['k'\]",
    "unknown connection key": r"connection: unknown keys \['tm'\]",
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

    @pytest.mark.parametrize("name", sorted(DROPPED_INPUT_ERRORS))
    def test_error_names_the_pair_or_key(self, name):
        with pytest.raises(ParseError, match=DROPPED_INPUT_ERRORS[name]):
            parse_algebroid(MALFORMED_DOCS[name])

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


def vertical_acting(monkeypatch):
    """Let every basic connection that morita-check builds act on its
    first frame section by the identity.  On the pullback that section
    is the vertical v_1, so the basic splitting identity fails."""
    original = pullback.adjoint_setup

    def patched(a, tm_conn):
        c = original(a, tm_conn)
        b = c.bundle
        moved = GradedEndo(Matrix.identity(b.rank_even), Matrix.identity(b.rank_odd))
        return Connection(a, b, [moved] + list(c.omega[1:]))

    monkeypatch.setattr(pullback, "adjoint_setup", patched)


class TestFailedIdentities:
    """IdentityFailure is a verdict: a structured error, exit 1, no
    traceback.  Its one identity is the basic splitting of morita-check."""

    def test_identity_failure(self, capsys, tmp_path, monkeypatch):
        vertical_acting(monkeypatch)
        out_file = tmp_path / "report.json"
        status, out = run_cli(capsys, "morita-check", "--out", out_file, INPUTS / "tt2.json")
        assert status == 1
        assert out == "FAILED: basic splitting: vertical section v_1 does not act by zero\n"
        report = json.loads(out_file.read_text())
        assert report["failure"] == {"kind": "IdentityFailure", "identity": "basic splitting"}
        assert report["error"] == "basic splitting: vertical section v_1 does not act by zero"

    def test_failure_in_batch_fails_only_that_job(self, capsys, tmp_path, monkeypatch):
        vertical_acting(monkeypatch)
        jobs = [
            {"command": "morita-check", "inputs": [str(INPUTS / "tt2.json")]},
            {"command": "cohomology", "inputs": [str(INPUTS / "so3.json")]},
        ]
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps(jobs))
        out_file = tmp_path / "report.json"
        status, out = run_cli(capsys, "batch", "--out", out_file, batch)
        assert status == 1
        reports = json.loads(out_file.read_text())["batch"]
        assert reports[0]["failure"]["identity"] == "basic splitting"
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
            (
                {"command": "cs", "inputs": [str(INPUTS / "q_family.json")], "options": {"max-q": 1}},
                "unknown option 'max-q'",
            ),
        ],
        ids=[
            "unknown command",
            "wrong input count",
            "missing input",
            "directory input",
            "list seed",
            "unknown option",
        ],
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

    def test_invalid_validate_job_carries_error(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(
            json.dumps({"base_dim": 0, "rank": 2, "brackets": [{"i": 1, "j": 2, "coeffs": ["0", "1", "0"]}]})
        )
        jobs = [{"command": "validate", "inputs": [str(doc)]}, SO3_COHOMOLOGY]
        out_file = tmp_path / "report.json"
        status, _ = run_cli(capsys, "batch", "--out", out_file, write_batch(tmp_path, jobs))
        assert status == 1
        reports = json.loads(out_file.read_text())["batch"]
        assert reports[0]["verdict"] == "INVALID"
        assert reports[0]["error"] == reports[0]["violations"] == "bracket (1,2) needs 2 coefficients"
        assert reports[1]["betti"] == [1, 0, 0, 1]

    def test_single_command_missing_input(self, capsys, tmp_path):
        status, out = run_cli(capsys, "cs", tmp_path / "missing.json")
        assert status == 1
        assert out.startswith("error: ")


class TestCommandSetups:
    """Each command builds its adjoint setups once, and a metric dual
    only where the chain of max_q >= 3 reads it."""

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
        duals = count_calls(monkeypatch, connections.h_dual)
        status, _ = run_cli(capsys, *argv[:-1], INPUTS / argv[-1])
        assert status == 0
        assert len(calls) == setups
        assert duals == []

    @pytest.mark.parametrize("command", ["cs", "char"])
    def test_h_dual_calls_at_max_q_3(self, capsys, monkeypatch, command):
        # one per cochain; morita-check's three are counted in
        # test_pullback.py TestMoritaAgainstReference
        calls = count_calls(monkeypatch, connections.h_dual)
        status, _ = run_cli(capsys, command, "--max-q", "3", INPUTS / "so3.json")
        assert status == 0
        assert len(calls) == 1


class TestModularAgainstTopBetti:
    """cs^1 = -2 Re tr ad e_i, since the A- and TM-parts of tm_conn cancel
    in the supertrace, so on real data the modular class vanishes exactly
    when the bracket is unimodular, that is when the top Betti number
    b_r is 1 rather than 0."""

    def verdicts(self, capsys, tmp_path, a, extras):
        """(modular class is ZERO, top Betti number), each read from the
        printed line of its command."""
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(serialize_algebroid(a, extras)))
        status, modular = run_cli(capsys, "modular", f)
        assert status == 0
        status, betti = run_cli(capsys, "cohomology", f)
        assert status == 0 and betti.startswith("Betti: ")
        return modular.splitlines()[0] == "modular class: ZERO", int(betti.split()[-1])

    def extras(self, a, rng, with_tm_conn):
        extras = {}
        if with_tm_conn:
            extras["tm_conn"] = rand_tm_conn(a, rng, real=True)
        if rng.random() < 0.5:
            extras["g_A"] = rand_pd_matrix(a.r, rng, real=True)
            extras["g_M"] = rand_pd_matrix(a.n, rng, real=True)
        return extras

    def test_real_products(self, capsys, tmp_path):
        rng = random.Random(12)
        seen = set()
        for seed in range(2):
            def q():
                return rand_q_family(rng, trace_zero=rng.random() < 0.5)

            for factors in (
                (tangent_torus(1), q()),
                (tangent_torus(2), q()),
                (tangent_torus(1), so3()),
                (q(), abelian(1)),
                (tangent_torus(2), heisenberg()),
                (q(), heisenberg()),
                (q(), q()),
                (tangent_torus(1), q(), abelian(1)),
            ):
                a = factors[0]
                for f in factors[1:]:
                    a = direct_product(a, f)
                assert a.r <= 6
                for with_tm_conn in (False, True):
                    zero, top = self.verdicts(capsys, tmp_path, a, self.extras(a, rng, with_tm_conn))
                    assert top in (0, 1)
                    assert zero == (top == 1), (seed, a.r, a.n, with_tm_conn)
                    seen.add((zero, a.n > 0))
        assert seen == {(True, False), (True, True), (False, False), (False, True)}


# the one shipped input outside the intrinsic classes' domain: isl2 x tt1
# with a real seeded tm_conn and metric; the class commands refuse it
GAUSSIAN_INPUT = INPUTS / "isl2_tt1.json"
OUT_OF_DOMAIN = "error: the intrinsic classes need a real anchor and real structure constants"
CLASS_COMMANDS = ("char", "modular", "cs", "morita-check")


class TestDomainRefusal:
    """The intrinsic classes are defined for real algebroids.  The class
    commands refuse Gaussian brackets like a malformed input: error,
    exit 1, an error key and no failure key; validate, cohomology and
    product take them."""

    def test_gaussian_brackets_refused(self, capsys, tmp_path):
        rng = random.Random(13)
        for a in (
            isl2(),
            direct_product(tangent_torus(1), isl2()),
            direct_product(isl2(), abelian(1)),
            direct_product(tangent_torus(1), imaginary_trace()),
        ):
            for with_tm_conn in (False, True):
                extras = {"tm_conn": rand_tm_conn(a, rng, real=True)} if with_tm_conn else {}
                f = tmp_path / "doc.json"
                f.write_text(json.dumps(serialize_algebroid(a, extras)))
                assert run_cli(capsys, "modular", f) == (1, OUT_OF_DOMAIN + "\n")
                status, betti = run_cli(capsys, "cohomology", f)
                assert status == 0 and betti.startswith("Betti: 1 ")
        # tr ad e_1 = i: the bracket is not unimodular, and b_r = 0
        f.write_text(json.dumps(serialize_algebroid(imaginary_trace())))
        assert run_cli(capsys, "cohomology", f) == (0, "Betti: 1 1 0\n")

    def test_isl2_tt1(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        for command in CLASS_COMMANDS:
            assert run_cli(capsys, command, "--out", out_file, GAUSSIAN_INPUT) == (1, OUT_OF_DOMAIN + "\n")
            report = json.loads(out_file.read_text())
            assert report["command"] == command
            assert "error" in report and "failure" not in report
        assert run_cli(capsys, "validate", GAUSSIAN_INPUT) == (0, "VALID (base_dim=1, rank=4)\n")
        assert run_cli(capsys, "cohomology", GAUSSIAN_INPUT) == (0, "Betti: 1 1 0 1 1\n")
        status, _ = run_cli(capsys, "product", GAUSSIAN_INPUT, INPUTS / "abelian2.json")
        assert status == 0

    def test_isl2_tt1_in_batch(self, capsys, tmp_path):
        jobs = [
            {"command": "char", "inputs": [str(GAUSSIAN_INPUT)]},
            {"command": "cohomology", "inputs": [str(GAUSSIAN_INPUT)]},
            {"command": "modular", "inputs": [str(INPUTS / "q_family.json")]},
        ]
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps(jobs))
        out_file = tmp_path / "report.json"
        status, out = run_cli(capsys, "batch", "--out", out_file, batch)
        assert status == 1
        assert OUT_OF_DOMAIN in out.splitlines()
        first, second, third = json.loads(out_file.read_text())["batch"]
        assert "error" in first and "failure" not in first
        assert second["betti"] == [1, 1, 0, 1, 1]
        assert "error" not in third and third["is_zero_class"] is False

    def test_isl2_tt1_cold_no_traceback(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for command in CLASS_COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "algch.cli", command, str(GAUSSIAN_INPUT)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (1, OUT_OF_DOMAIN + "\n", "")


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

    def test_validate_rank_200(self, capsys, tmp_path):
        # one bracket on rank 200: parsing and the axiom check read the
        # sparse table only, with no r^3 tensor to allocate
        coeffs = ["0"] * 200
        coeffs[2] = "1"
        f = tmp_path / "wide.json"
        f.write_text(json.dumps(
            {"base_dim": 0, "rank": 200, "brackets": [{"i": 1, "j": 2, "coeffs": coeffs}]}
        ))
        status, out = run_cli(capsys, "validate", f)
        assert status == 0
        assert "VALID (base_dim=0, rank=200)" in out

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

    def test_cs_hermitian_metric(self, capsys):
        # a Gaussian g_A: cs^2 is nonzero, and both pair branches print it
        want = ['cs^1: 0', 'cs^2: [{"indices": [1, 2, 4], "value": {"re": "0", "im": "2"}}]']
        for max_q in ("2", "3"):
            status, out = run_cli(capsys, "cs", "--max-q", max_q, INPUTS / "tt1_so3_hermitian.json")
            assert status == 0
            assert out.splitlines()[:2] == want, max_q

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

    def test_closed_stdout_keeps_status_and_report(self, capsys, monkeypatch, tmp_path):
        # a reader that stopped early, as head does: stdout is a pipe
        # whose read end is closed, so the first flush raises
        # BrokenPipeError
        argv = ["modular", str(INPUTS / "q_family.json"), "--out"]
        assert main([*argv, str(tmp_path / "want.json")]) == 0
        capsys.readouterr()
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            status = main([*argv, str(tmp_path / "got.json")])
            monkeypatch.undo()
        assert status == 0
        assert capsys.readouterr().err == ""
        got = json.loads((tmp_path / "got.json").read_text())
        assert got == json.loads((tmp_path / "want.json").read_text())

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


class TestDefinitenessDecidedOnce:
    """Each metric block of a document is decided once, at parsing; the
    metrics a command builds itself are positive-definite by
    construction and are not decided again."""

    @pytest.mark.parametrize("with_g_v", [False, True])
    @pytest.mark.parametrize(
        "argv", [("cs", "--max-q", "2"), ("morita-check", "--k", "1", "--seed", "3")]
    )
    def test_one_decision_per_document_block(self, capsys, monkeypatch, tmp_path, argv, with_g_v):
        rng = random.Random(11)
        a = tangent_torus(2)
        extras = {"g_A": rand_pd_matrix(a.r, rng), "g_M": rand_pd_matrix(a.n, rng, real=True)}
        if with_g_v:
            extras["g_V"] = rand_pd_matrix(1, rng)
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(serialize_algebroid(a, extras)))
        decided = []
        original = connections.check_metric_block

        def counted(h):
            decided.append(h)
            return original(h)

        for module in (connections, fileio):
            monkeypatch.setattr(module, "check_metric_block", counted)
        status, _ = run_cli(capsys, *argv, f)
        assert status == 0
        assert len(decided) == 2 + with_g_v


class TestUndecodableDocuments:
    """Bytes that are not UTF-8, JSON nested deeper than the recursion
    limit and integers too long to convert are a ParseError that names
    the file, not a traceback."""

    CONTENTS = {
        "not utf-8": b"\xff\xfe\x00bad",
        "deep list": b"[" * 200000,
        "deep object": b'{"a": ' * 200000,
        "long integer": b'{"base_dim": ' + b"1" * 5000 + b"}",
    }

    @pytest.fixture(params=sorted(CONTENTS))
    def undecodable(self, request, tmp_path):
        f = tmp_path / "undecodable.json"
        f.write_bytes(self.CONTENTS[request.param])
        return f

    @pytest.mark.parametrize("command", ["validate", "cohomology", "cs"])
    def test_single_command(self, capsys, undecodable, command):
        status, out = run_cli(capsys, command, undecodable)
        assert status == 1
        prefix = "INVALID: " if command == "validate" else "error: "
        assert out.startswith(f"{prefix}{undecodable}: ")

    def test_load_raises_parse_error(self, undecodable):
        with pytest.raises(ParseError, match=f"^{re.escape(str(undecodable))}: "):
            load_algebroid(str(undecodable))

    def test_batch_job_fails_only_itself(self, capsys, tmp_path, undecodable):
        out_file = tmp_path / "report.json"
        job = {"command": "char", "inputs": [str(undecodable)]}
        status, out = run_cli(
            capsys, "batch", "--out", out_file, write_batch(tmp_path, [job, SO3_COHOMOLOGY])
        )
        assert status == 1
        reports = json.loads(out_file.read_text())["batch"]
        assert reports[0]["error"].startswith(f"{undecodable}: ")
        assert reports[1]["betti"] == [1, 0, 0, 1]

    def test_batch_document(self, capsys, undecodable):
        status = main(["batch", str(undecodable)])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {undecodable}: ")


REPO = INPUTS.parent
SHIPPED = {
    f.name: json.loads(f.read_text())
    for f in sorted(INPUTS.glob("*.json"))
    if f.name != "batch_example.json"
}


class TestShippedInputs:
    @pytest.mark.parametrize("command", ["validate", "cohomology", "char", "modular", "cs", "morita-check"])
    @pytest.mark.parametrize("name", sorted(set(SHIPPED) - {GAUSSIAN_INPUT.name}))
    def test_every_input_runs(self, capsys, name, command):
        status, _ = run_cli(capsys, command, INPUTS / name)
        assert status == 0

    def test_batch_example_runs(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)  # its input paths are relative to the repository
        status, out = run_cli(capsys, "batch", "inputs/batch_example.json")
        assert status == 0
        assert "error" not in out and "FAILED" not in out


def _nodes(node, path=()):
    """Every (path, value) in a JSON tree, the root included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# replacement values: none of them can make a shape larger than rank + 1
ODD_VALUES = [0.5, -2.0, True, False, None, "x", "1/0", "-3/4", "", [], [["1"]], [["0", "1"], []]]


def _pick(draw, wanted):
    """A shipped document and a path in it whose value satisfies wanted.
    The role of the node (its path with list indices starred) is drawn
    first, over all documents, so that structural nodes, and those only
    a few documents have, are drawn as often as the many scalar entries."""
    by_role = {}
    for name, doc in SHIPPED.items():
        for path, value in _nodes(doc):
            if wanted(value):
                role = tuple("*" if isinstance(k, int) else k for k in path)
                by_role.setdefault(role, []).append((name, path))
    name, path = draw(st.sampled_from(by_role[draw(st.sampled_from(sorted(by_role)))]))
    return copy.deepcopy(SHIPPED[name]), path


@st.composite
def mutated_documents(draw):
    """A shipped document with exactly one change: a key dropped, a value
    replaced, a list truncated or extended by one element, or base_dim
    or rank shifted by one."""
    kind = draw(st.sampled_from(["drop", "replace", "resize", "shift"]))
    if kind == "shift":
        doc = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
        doc[draw(st.sampled_from(["base_dim", "rank"]))] += draw(st.sampled_from([-1, 1]))
    elif kind == "drop":
        doc, path = _pick(draw, lambda v: isinstance(v, dict) and v)
        node = _at(doc, path)
        del node[draw(st.sampled_from(sorted(node)))]
    elif kind == "replace":
        doc, path = _pick(draw, lambda v: True)
        value = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        if path:
            _at(doc, path[:-1])[path[-1]] = value
        else:
            doc = value
    else:
        doc, path = _pick(draw, lambda v: isinstance(v, list))
        node = _at(doc, path)
        if node and draw(st.booleans()):
            node.pop()
        else:
            node.append(copy.deepcopy(node[-1]) if node else "0")
    return doc


class TestFuzzedDocuments:
    """A malformed document gets a structured report, never a traceback."""

    @settings(max_examples=400, deadline=None)
    @given(mutated_documents())
    def test_structured_outcome(self, doc):
        with tempfile.TemporaryDirectory() as d:
            f = Path(d) / "mutant.json"
            f.write_text(json.dumps(doc))
            statuses = {}
            for command, options in (("validate", {}), ("cohomology", {}), ("char", {"max_q": 1})):
                report, status, _ = cli.run({"command": command, "inputs": [str(f)], "options": options})
                assert status in (0, 1)
                assert ("error" in report) == (status == 1)
                if command == "validate":
                    assert report["verdict"] == ("VALID" if status == 0 else "INVALID")
                statuses[command] = status
        # a document that parses also runs
        assert statuses["validate"] == statuses["cohomology"]


class TestColdStart:
    def test_cli_import_skips_dataclasses_and_inspect(self):
        # every algch command pays for its imports; -S leaves out the
        # site hooks, whose imports are not algch's
        code = "import sys, algch.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_every_module(self):
        # the benchmark's tracer finds algch's modules in sys.modules
        code = "import sys, algch.cli; print(' '.join(sorted(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        modules = (
            "cli", "fileio", "algebroid", "linalg", "scalars",
            "connections", "charclasses", "transgression", "pullback",
        )
        assert {f"algch.{m}" for m in modules} <= set(proc.stdout.split())

    def test_cold_process_matches_in_process(self, capsys, tmp_path):
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "algch.cli", "cohomology", str(INPUTS / "so3.json"), "--out", str(cold)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        status, out = run_cli(capsys, "cohomology", INPUTS / "so3.json", "--out", warm)
        assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, "") == (0, "Betti: 1 0 0 1\n", "")
        assert cold.read_text() == warm.read_text()

    def test_cold_bad_option_exits_2(self):
        env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
        proc = subprocess.run(
            [sys.executable, "-m", "algch.cli", "cohomology", "--max-q", "abc", str(INPUTS / "so3.json")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert lines[0] == "usage: algch [-h] [--max-q MAX_Q] [--k K] [--seed SEED] [--out OUT]"
        assert lines[-1] == "algch: error: argument --max-q: invalid int value: 'abc'"


class TestParserBuiltOnce:
    def test_main_builds_no_parser(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("main built an argument parser")

        monkeypatch.setattr(argparse, "ArgumentParser", refuse)
        status, out = run_cli(capsys, "cohomology", INPUTS / "so3.json")
        assert (status, out) == (0, "Betti: 1 0 0 1\n")
        with pytest.raises(SystemExit) as info:
            main(["cohomology", "--max-q", "abc", str(INPUTS / "so3.json")])
        assert info.value.code == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err


def scalar_random_pd(n: int, rng: random.Random) -> Matrix:
    """The metric block of morita-check's perturbed metric, built from
    Scalar entries: m^H m + 1 for m of entries drawn x, u, y, v in turn."""
    m = Matrix(
        [
            [
                Scalar(
                    Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                    Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ],
        ncols=n,
    )
    return m.conj_transpose() * m + Matrix.identity(n)


class TestRandomMetric:
    def test_matches_scalar_construction(self):
        # the same draws give the same matrix, so morita-check reports
        # do not depend on how the block is built
        for seed in range(51):
            for n in range(7):
                r1, r2 = random.Random(seed), random.Random(seed)
                got, want = cli._random_pd(n, r1), scalar_random_pd(n, r2)
                assert got == want
                assert (got.re, got.im, got.den) == (want.re, want.im, want.den)
                assert r1.getstate() == r2.getstate()
