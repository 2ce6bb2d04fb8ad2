"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py

The count test runs the traced benchmark twice per workload, about
40 s a run on a 2-core host.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from algch.fileio import serialize_algebroid  # noqa: E402


def _factor_doc(name):
    a, _ = workloads.product([name], random.Random(0))
    return serialize_algebroid(a)


def test_factor_betti_numbers():
    assert oracle.kunneth_betti([_factor_doc("so3")]) == [1, 0, 0, 1]
    assert oracle.kunneth_betti([_factor_doc("heisenberg")]) == [1, 2, 2, 1]
    assert oracle.kunneth_betti([_factor_doc("tt2")]) == [1, 2, 1]


def test_kunneth_convolution():
    docs = [_factor_doc("so3"), _factor_doc("heisenberg")]
    assert oracle.kunneth_betti(docs) == [1, 2, 2, 2, 2, 2, 1]


def test_wrong_betti_vector_is_caught():
    job = workloads.jobs("cohomology-wide", 0)[1]
    job["kunneth"] = oracle.kunneth_betti(job["factors"])
    good = {"command": "cohomology", "betti": job["kunneth"]}
    bad = dict(good, betti=[b + (i == 1) for i, b in enumerate(job["kunneth"])])
    assert oracle.check(job, good) == []
    assert oracle.check(job, bad)


def test_open_cochain_is_caught():
    job = next(j for j in workloads.jobs("cs-products", 0) if j["name"] == "tt1xso3-cs")
    # e^1 is not closed on so(3): d e^1 is a nonzero multiple of e^2 ^ e^3
    report = {
        "command": "cs",
        "cochains": [{"q": 1, "form": [{"indices": [2], "value": "1"}]}],
    }
    assert oracle.check(job, report) == ["cs^1 is not closed"]


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_across_traced_runs(workload):
    first, second = _traced(workload, 3), _traced(workload, 3)
    counts = {
        name: m["value"]
        for name, m in first["metrics"].items()
        if m["unit"] in ("count", "ratio") and name != "trace.overhead_frac"
    }
    assert len(counts) == 18
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
