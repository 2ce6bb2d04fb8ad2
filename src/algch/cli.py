"""Command-line front end.

    algch <command> [--max-q N] [--k K] [--seed S] [--out report.json] inputs...

Commands: validate, cohomology, char, modular, cs, morita-check,
product, batch.  Reports go to stdout as text and, with --out, to a
JSON file that mirrors the verdicts with exact rational strings.  Exit
status 1 means that a job could not run or that morita-check printed
DIFFER or NOT cohomologous.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .linalg import Matrix
from .algebroid import betti_numbers
from .connections import HermitianMetric
from .charclasses import (
    DomainError,
    adjoint_bundle,
    basic_cochains,
    intrinsic_char,
    modular_class,
    default_max_q,
)
from .pullback import morita_check
from . import fileio
from .fileio import ParseError


def _metric(extras, bundle):
    """The document's metric on the adjoint bundle: g_A and g_M,
    identity where not given."""
    return HermitianMetric(
        bundle,
        extras.get("g_A", Matrix.identity(bundle.rank_even)),
        extras.get("g_M", Matrix.identity(bundle.rank_odd)),
    )


def _tm_conn(extras, a):
    return extras.get("tm_conn", [Matrix.zeros(a.r, a.r) for _ in range(a.n)])


def _count_option(opts, name: str, default: int) -> int:
    """A positive integer option; default only when it was not given."""
    v = opts.get(name)
    if v is None:
        return default
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        flag = "--" + name.replace("_", "-")
        raise ParseError(f"{flag} must be an integer >= 1, got {v!r}")
    return v


def cmd_validate(job):
    try:
        a, _ = fileio.load_algebroid(job["inputs"][0])
    except ParseError as e:
        return {"verdict": "INVALID", "violations": str(e), "error": str(e)}, 1, [f"INVALID: {e}"]
    return (
        {"verdict": "VALID", "base_dim": a.n, "rank": a.r},
        0,
        [f"VALID (base_dim={a.n}, rank={a.r})"],
    )


def cmd_cohomology(job):
    a, _ = fileio.load_algebroid(job["inputs"][0])
    betti = betti_numbers(a)
    return {"betti": betti}, 0, ["Betti: " + " ".join(map(str, betti))]


def cmd_char(job):
    a, _ = fileio.load_algebroid(job["inputs"][0])
    max_q = _count_option(job["options"], "max_q", default_max_q(a))
    reports = intrinsic_char(a, max_q)
    lines, out = [], []
    for rep in reports:
        verdict = "ZERO" if rep.is_zero_class else "NONZERO"
        lines.append(f"char^{rep.q}: {verdict}")
        out.append(
            {
                "q": rep.q,
                "is_zero_class": rep.is_zero_class,
                "representative": fileio.form_to_json(rep.representative),
                "witness": fileio.form_to_json(rep.witness)
                if rep.witness is not None
                else None,
            }
        )
    return {"classes": out}, 0, lines


def cmd_modular(job):
    a, _ = fileio.load_algebroid(job["inputs"][0])
    result = modular_class(a)
    rep = result.report
    verdict = "ZERO" if rep.is_zero_class else "NONZERO"
    return (
        {
            "is_zero_class": rep.is_zero_class,
            "representative": fileio.form_to_json(rep.representative),
            "normalized": fileio.form_to_json(result.normalized),
        },
        0,
        [
            f"modular class: {verdict}",
            "normalized: " + json.dumps(fileio.form_to_json(result.normalized)),
        ],
    )


def cmd_cs(job):
    """cs^q(basic connection, its metric dual) for q = 1..max_q."""
    a, extras = fileio.load_algebroid(job["inputs"][0])
    max_q = _count_option(job["options"], "max_q", default_max_q(a))
    forms = basic_cochains(a, _tm_conn(extras, a), _metric(extras, adjoint_bundle(a.anchor)), max_q)
    out, lines = [], []
    for q in range(1, max_q + 1):
        comps = fileio.form_to_json(forms[q])
        out.append({"q": q, "form": comps})
        lines.append(f"cs^{q}: " + (json.dumps(comps) if comps else "0"))
    return {"cochains": out}, 0, lines


def cmd_morita_check(job):
    a, extras = fileio.load_algebroid(job["inputs"][0])
    opts = job["options"]
    k = _count_option(opts, "k", 1)
    max_q = _count_option(opts, "max_q", 2)
    seed = opts.get("seed")
    if seed is None:
        seed = 0
    elif isinstance(seed, bool) or not isinstance(seed, int):
        raise ParseError(f"--seed must be an integer, got {seed!r}")
    g = _metric(extras, adjoint_bundle(a.anchor))
    report = morita_check(a, k, _tm_conn(extras, a), g, max_q=max_q, seed=seed)
    lines = []
    for q, res in report.per_q.items():
        verdict = "EQUAL" if res["equal"] else "DIFFER"
        suffix = " (both zero)" if res["both_zero"] else ""
        lines.append(f"q={q}: {verdict}{suffix}")
    for q, ok in report.cohomologous.items():
        lines.append(f"q={q} perturbed metric: {'cohomologous' if ok else 'NOT cohomologous'}")
    status = 0 if report.passed else 1
    return (
        {
            "k": k,
            "max_q": max_q,
            "seed": seed,
            "per_q": report.per_q,
            "cohomologous": report.cohomologous,
            "passed": report.passed,
        },
        status,
        lines,
    )


def cmd_product(job):
    from .algebroid import direct_product

    a, _ = fileio.load_algebroid(job["inputs"][0])
    b, _ = fileio.load_algebroid(job["inputs"][1])
    prod = direct_product(a, b)
    doc = fileio.serialize_algebroid(prod)
    return {"product": doc}, 0, [json.dumps(doc, indent=2)]


COMMANDS = {
    "validate": (cmd_validate, 1),
    "cohomology": (cmd_cohomology, 1),
    "char": (cmd_char, 1),
    "modular": (cmd_modular, 1),
    "cs": (cmd_cs, 1),
    "morita-check": (cmd_morita_check, 1),
    "product": (cmd_product, 2),
}

OPTIONS = ("max_q", "k", "seed")
# the options each command reads; the others read none
READS = {"char": ("max_q",), "cs": ("max_q",), "morita-check": OPTIONS}

# built once per process, so that every call of main pays only for parse_args
PARSER = argparse.ArgumentParser(
    prog="algch",
    description="Exact characteristic classes of constant-coefficient Lie algebroids",
)
PARSER.add_argument("command", choices=list(COMMANDS) + ["batch"])
PARSER.add_argument("inputs", nargs="+", help="input JSON file(s)")
PARSER.add_argument("--max-q", type=int, default=None)
PARSER.add_argument("--k", type=int, default=None, help="fibre coordinates for morita-check")
PARSER.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
PARSER.add_argument("--out", default=None, help="write the JSON report here")


def _check_job(job: dict, arity: int):
    """ParseError unless the job has arity inputs and sets only options
    that its command reads."""
    command = job["command"]
    for name, value in job["options"].items():
        if name not in OPTIONS:
            raise ParseError(f"unknown option {name!r}; options are {', '.join(OPTIONS)}")
        if value is not None and name not in READS.get(command, ()):
            raise ParseError(f"{command} does not read --{name.replace('_', '-')}")
    if len(job["inputs"]) != arity:
        raise ParseError(f"{command} takes {arity} input file(s)")


def run(job: dict):
    """Dispatch one job: {'command', 'inputs', 'options'}.

    A job that cannot run (unknown command or option, an option given
    that the command does not read, wrong number of inputs, unreadable
    or malformed input, an algebroid that is not real for a class
    command) gets an error report and status 1.
    """
    command = job["command"]
    try:
        if command not in COMMANDS:
            raise ParseError(f"unknown command {command!r}")
        fn, arity = COMMANDS[command]
        _check_job(job, arity)
        payload, status, lines = fn(job)
    except (ParseError, OSError, DomainError) as e:
        return {"command": command, "inputs": job["inputs"], "error": str(e)}, 1, [f"error: {e}"]
    report = {
        "command": command,
        "inputs": job["inputs"],
        "options": job["options"],
        **payload,
    }
    return report, status, lines


def _batch_jobs(doc) -> list[dict]:
    """The jobs of a batch document; ParseError if any is malformed."""
    if not isinstance(doc, list):
        raise ParseError("a batch document must be a list of jobs")
    jobs = []
    for n, j in enumerate(doc, 1):
        if not isinstance(j, dict):
            raise ParseError(f"batch job {n} is not an object")
        job = {
            "command": j.get("command"),
            "inputs": j.get("inputs", []),
            "options": j.get("options", {}),
        }
        if not isinstance(job["command"], str):
            raise ParseError(f"batch job {n}: command must be a string")
        if not isinstance(job["inputs"], list) or not all(
            isinstance(f, str) for f in job["inputs"]
        ):
            raise ParseError(f"batch job {n}: inputs must be a list of file names")
        if not isinstance(job["options"], dict):
            raise ParseError(f"batch job {n}: options must be an object")
        jobs.append(job)
    return jobs


def cmd_batch(path: str):
    """Run the jobs in input order; a job that fails fails only itself."""
    jobs = _batch_jobs(fileio.load_json(path))
    reports, status, lines = [], 0, []
    for job in jobs:
        report, st, ls = run(job)
        reports.append(report)
        status = max(status, st)
        lines.append(f"== {job['command']} {' '.join(job['inputs'])}")
        lines.extend(ls)
    return {"batch": reports}, status, lines


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)

    job = {
        "command": args.command,
        "inputs": args.inputs,
        "options": {"max_q": args.max_q, "k": args.k, "seed": args.seed},
    }
    lines, failure = [], None
    try:
        if args.command == "batch":
            _check_job(job, 1)  # a batch reads one document and no option
            report, status, lines = cmd_batch(args.inputs[0])
        else:
            report, status, lines = run(job)
        # written first, since a reader that stops early (head) cuts the printing short
        if args.out:
            text = json.dumps(report, indent=2)  # a failed encoding leaves no file
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (ParseError, OSError) as e:
        failure = e
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the run keeps its status; stdout goes to devnull, so that the
        # flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
