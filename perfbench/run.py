#!/usr/bin/env python3
"""The algch benchmark: seeded CLI workloads, checked reports, metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--record]

Run it from the root of a checkout; the program is imported from
``src``.  For each workload the inputs are generated from ``--seed``,
written to a scratch directory under ``.perfbench-work/`` and handed to
a child process (``worker.py``) that runs only that workload.  Every
report is checked after the child exits; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit status is 0 only when every report passed.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of README.md.  ``--record`` stores the exit status
and report digest of every job as the expected values for the default
seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import spans
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
EXPECTED = HERE / "expected.json"

SETUP_RUNS = 11
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def measure_setup(reference, normalized):
    """Median over fresh interpreters of the time to import algch.cli,
    raw and rescaled to the nominal host speed."""
    cmd = [sys.executable, "-c", "import algch.cli"]
    env = _child_env()

    def once():
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=60)
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"import algch.cli failed: {proc.stderr.decode().strip()}")
        return seconds

    once()  # writes the bytecode cache, which users do not pay for again
    raw, norm = [], []
    before = reference()
    for _ in range(SETUP_RUNS):
        seconds = once()
        after = reference()
        raw.append(seconds)
        norm.append(normalized(seconds, before, after))
        before = after
    return statistics.median(norm), statistics.median(raw)


def _load_expected():
    if not EXPECTED.is_file():
        return {}
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def _kunneth(jobs):
    cache = {}
    for job in jobs:
        if "factors" in job:
            key = json.dumps(job["factors"], sort_keys=True)
            if key not in cache:
                cache[key] = oracle.kunneth_betti(job["factors"])
            job["kunneth"] = cache[key]


def run_worker(plan, workdir):
    plan_path = workdir / "plan.json"
    result_path = workdir / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)]
    try:
        proc = subprocess.run(
            cmd, env=_child_env(), cwd=ROOT, capture_output=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker failed: {proc.stderr.decode().strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def verify(jobs, result, want):
    """Mark every record ok or not; return printable problem lines and
    the report digest of each job.  want maps job names to their stored
    status and digest, or is None when nothing is stored for the seed."""
    problems = []
    if want is not None and set(want) != {job["name"] for job in jobs}:
        problems.append(f"{EXPECTED.name} does not cover this job list")
    bad_jobs = set()
    digests = {}
    for idx, job in enumerate(jobs):
        text = result["reports"].get(str(idx))
        if text is None:
            continue
        report = json.loads(text)
        found = oracle.check(job, report)
        if found:
            bad_jobs.add(idx)
            problems.extend(f"{job['name']}: {p}" for p in found)
    for rec in result["records"]:
        job = jobs[rec["job"]]
        reasons = []
        if rec["error"]:
            reasons.append(rec["error"])
        if rec["status"] != 0:
            reasons.append(f"exit status {rec['status']}")
        if rec["sha256"] is None:
            reasons.append("no report")
        elif digests.setdefault(rec["job"], rec["sha256"]) != rec["sha256"]:
            reasons.append("report differs from an earlier run of the same job")
        if want is not None:
            stored = want.get(job["name"])
            if stored is None or stored != {"status": rec["status"], "sha256": rec["sha256"]}:
                reasons.append(f"status/digest differ from {EXPECTED.name}")
        if rec["job"] in bad_jobs:
            reasons.append("report check failed")
        rec["ok"] = not reasons
        if reasons:
            problems.append(f"{job['name']} ({rec['pass']}): " + "; ".join(reasons))
    return problems, digests


def run_workload(name, seed, seconds, trace, record):
    import workloads  # imports algch, so only after main has found src

    jobs = workloads.jobs(name, seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        inputs = workdir / "inputs"
        inputs.mkdir()
        plan_jobs = []
        for job in jobs:
            path = inputs / f"{job['name']}.json"
            path.write_text(json.dumps(job["doc"]), encoding="utf-8")
            plan_jobs.append(
                {"name": job["name"], "argv": [job["command"], str(path)] + job["flags"]}
            )
        _kunneth(jobs)
        plan = {
            "mode": "trace" if trace else "timed",
            "seconds": seconds,
            "jobs": plan_jobs,
            "outdir": str(workdir),
            "spans_path": str(workdir / "spans.json"),
        }
        setup = None if trace else measure_setup(worker.reference, worker.normalized)
        result = run_worker(plan, workdir)
        stored = seed == workloads.DEFAULT_SEED and not record
        want = _load_expected().get(name, {}) if stored else None
        problems, digests = verify(jobs, result, want)
        span_list = json.loads(Path(plan["spans_path"]).read_text()) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    records = result["records"]
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    for line in problems:
        print(f"{name}: FAIL {line}")
    if record:
        if seed != workloads.DEFAULT_SEED or failed:
            raise BenchError("--record needs the default seed and a clean run")
        expected = _load_expected()
        expected[name] = {
            jobs[idx]["name"]: {"status": 0, "sha256": sha} for idx, sha in sorted(digests.items())
        }
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        print(f"{name}: recorded {len(digests)} digests in {EXPECTED.name}")
    elif not stored:
        for idx, sha in sorted(digests.items()):
            print(f"{name}: digest {jobs[idx]['name']} status=0 sha256={sha}")

    if trace:
        metrics = spans.layer_metrics(span_list, result["counters"], result["overhead_frac"])
        print(f"{name}: traced {len(jobs)} jobs, {len(span_list)} spans")
    else:
        norm = [r["norm_seconds"] for r in records]
        raw = [r["seconds"] for r in records]
        ok = attempted - failed
        metrics = {
            "setup_s": (setup[0], "s"),
            "jobs_per_s": (ok / sum(norm), "1/s"),
            "job_s.p50": (statistics.median(norm), "s"),
            "peak_rss_mb": (result["rss_kb"] / 1024, "MB"),
        }
        print(
            f"{name}: {result['passes']} passes of {len(jobs)} jobs in {result['wall']:.2f} s wall;"
            f" raw setup_s {setup[1]:.4f} s, jobs_per_s {ok / sum(raw):.4f} 1/s,"
            f" job_s.p50 {statistics.median(raw):.4f} s"
        )
        print(f"{name}: job_s.p50 over n={len(norm)} jobs")
        print(f"{name}: fail_frac {failed / attempted:.4f} (ratio, {failed} of {attempted})")
    for key, (value, unit) in metrics.items():
        print(f"{name}: {key} {value:.6g} {unit}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "algch" / "cli.py").is_file():
        print(f"perfbench: no algch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.record
            )
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
