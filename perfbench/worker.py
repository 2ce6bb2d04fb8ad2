"""Child process that runs one workload's jobs through ``algch.cli.main``.

    python3 perfbench/worker.py PLAN.json RESULT.json

with ``src`` on ``PYTHONPATH``.  The plan lists the jobs (name and CLI
arguments), the mode and the output directory.  Jobs run one after
another in this one process, a closed loop with one client; no thread
is started here.

Modes:

* ``timed``: whole passes over the job list until ``seconds`` have
  elapsed, no instrumentation.
* ``trace``: one pass without instrumentation (the base for the
  overhead), one pass under ``SpanTracer`` and one under ``Counters``.  The spans
  are written to ``spans_path`` once, after the last pass.

Between two jobs the worker times ``reference()``, a fixed piece of
Fraction arithmetic, so that every job time can be rescaled to the
nominal host speed (see README.md).  Report texts are kept in memory
and hashed after the last pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from fractions import Fraction

# reference() takes this long on the nominal host; normalized seconds
# are wall seconds times NOMINAL_REF_S over the measured reference time.
NOMINAL_REF_S = 0.050
REF_ITERATIONS = 6000


def reference() -> float:
    """Wall seconds of a fixed Fraction workload, the host speed gauge."""
    start = time.perf_counter()
    a = Fraction(1, 3)
    for i in range(REF_ITERATIONS):
        a = a * Fraction(i % 7 + 1, 5) + Fraction(1, i + 2)
        a = Fraction(a.numerator % 1000, a.denominator % 997 + 1)
    return time.perf_counter() - start


def normalized(seconds, ref_before, ref_after) -> float:
    return seconds * NOMINAL_REF_S * 2 / (ref_before + ref_after)


def report_digest(text: str):
    """(sha256, normalized text) of a report; the echoed input paths are
    reduced to file names, so the digest does not depend on where the
    inputs were written."""
    report = json.loads(text)
    if isinstance(report.get("inputs"), list):
        report["inputs"] = [os.path.basename(p) for p in report["inputs"]]
    canonical = json.dumps(report, indent=2)
    return hashlib.sha256(canonical.encode()).hexdigest(), canonical


class Runner:
    def __init__(self, cli, plan):
        self.cli = cli
        self.jobs = plan["jobs"]
        self.outdir = plan["outdir"]
        self.refs = [reference()]
        self.records = []
        self._texts = []

    def run_pass(self, label: str, tracer=None) -> float:
        """Run every job once; return the pass's normalized seconds."""
        total = 0.0
        for idx, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = idx
            out = os.path.join(self.outdir, f"{idx}.report.json")
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)
            status, error = None, None
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                start = time.perf_counter()
                try:
                    status = self.cli.main(job["argv"] + ["--out", out])
                except SystemExit as e:
                    status = e.code if isinstance(e.code, int) else 1
                except Exception as e:  # a crash is a failed job, not a failed run
                    error = f"{type(e).__name__}: {e}"
                seconds = time.perf_counter() - start
            try:
                with open(out, encoding="utf-8") as fh:
                    text = fh.read()
            except FileNotFoundError:
                text = None
            self.refs.append(reference())
            norm = normalized(seconds, self.refs[-2], self.refs[-1])
            total += norm
            self.records.append(
                {
                    "pass": label,
                    "job": idx,
                    "status": status,
                    "error": error,
                    "seconds": seconds,
                    "norm_seconds": norm,
                }
            )
            self._texts.append(text)
        return total

    def finish(self, result: dict, result_path: str):
        first = {}
        for record, text in zip(self.records, self._texts):
            record["sha256"] = None
            if text is None:
                continue
            try:
                record["sha256"], canonical = report_digest(text)
            except ValueError as e:
                record["error"] = record["error"] or f"unreadable report: {e}"
                continue
            first.setdefault(str(record["job"]), canonical)
        result["records"] = self.records
        result["reports"] = first
        result["refs"] = self.refs
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from algch import cli

    runner = Runner(cli, plan)
    result = {}
    if plan["mode"] == "timed":
        start = time.perf_counter()
        passes = 0
        while True:
            runner.run_pass(str(passes))
            passes += 1
            if time.perf_counter() - start >= plan["seconds"]:
                break
        result["wall"] = time.perf_counter() - start
        result["passes"] = passes
    else:
        from spans import Counters, SpanTracer

        base = runner.run_pass("untraced")
        tracer = SpanTracer()
        tracer.install()
        try:
            traced = runner.run_pass("traced", tracer)
        finally:
            tracer.restore()
        counters = Counters()
        counters.install()
        try:
            runner.run_pass("counted")
        finally:
            counters.restore()
        with open(plan["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        result["overhead_frac"] = traced / base - 1
        result["counters"] = {
            k: v for k, v in vars(counters).items() if not k.startswith("_")
        }
    runner.finish(result, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
