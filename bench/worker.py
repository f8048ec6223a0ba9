"""One measuring interpreter: set up, time one session, check, report.

Usage: ``python3 bench/worker.py JOB.json RESULT.json SPAWN_TIME``

``SPAWN_TIME`` is the orchestrator's ``time.monotonic()`` just before it
started this interpreter, so ``setup_s`` covers interpreter start, imports
and parsing the text inputs; a reference sample (see below) follows it at
once.  The job names the workload, the session's chunks of text inputs,
whether to trace and whether to check.  Each chunk is timed cold, then
replayed warm ``WARM_REPLAYS`` times with the process state kept; every op
is timed on its own.  Between ops, at most every ``REFERENCE_EVERY_S``, it
times a fixed piece of standard-library work (see ``reference_work``), so
that the orchestrator can tell how fast the host ran each op: a pass
records, at each op boundary, the latest such time.  Checks run after the
timed passes and after tracing is removed; a job without checks still
digests its outputs, so a repeated session can be compared with a checked
one.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (imports every vermahom module)

WARM_REPLAYS = 2
REFERENCE_EVERY_S = 0.1
REFERENCE_RUNS = 3  # one sample is the median of this many timings


def reference_work() -> float:
    """Seconds taken by fixed work of the package's kind, done with the
    standard library only: ``Fraction`` arithmetic on tuples, hashed into
    a dict.  No change to the package can change it; a busy host slows it
    as it slows the package."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(1, 80):
        v = tuple(Fraction(i * j, j + 1) for j in range(1, 6))
        w = tuple(a - b for a, b in zip(v, reversed(v)))
        acc[w] = acc.get(w, 0) + sum(v)
    return time.perf_counter() - t0


class Reference:
    """Samples of ``reference_work`` taken between ops through a session."""

    def __init__(self):
        self.samples = []
        self.last = float("-inf")

    def sample(self) -> float:
        """The latest sample, taking a new one if the last is too old."""
        if time.perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.samples.append(statistics.median(
                reference_work() for _ in range(REFERENCE_RUNS)))
            self.last = time.perf_counter()
        return self.samples[-1]


def _timed_pass(workload, ops, tracer, first_op_id, reference):
    outputs, latencies, errors, refs = [], [], {}, []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_op_id + i
        refs.append(reference.sample())
        t0 = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception as exc:  # an op that raises is a failed op
            latencies.append(None)
            outputs.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
            continue
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    refs.append(reference.sample())
    return outputs, latencies, errors, refs


def main(job_path: str, result_path: str, spawn_t: float) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    workload = WORKLOADS[job["workload"]]
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    chunks = [[workload.parse(item, job["cache_dir"]) for item in chunk]
              for chunk in job["chunks"]]
    setup_s = time.monotonic() - spawn_t
    reference = Reference()
    result = {"setup_s": setup_s, "setup_reference_s": reference.sample()}
    if job["setup_only"]:
        _write(result_path, result)
        return

    passes = []  # (chunk, warm?, ops, outputs, latencies, errors, refs)
    op_id = 0
    for index, ops in enumerate(chunks):
        for warm in (False,) + (True,) * WARM_REPLAYS:
            outputs, latencies, errors, refs = _timed_pass(
                workload, ops, tracer, op_id, reference)
            op_id += len(ops)
            passes.append((index, warm, ops, outputs, latencies, errors,
                           refs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    digest = hashlib.sha256()
    cold_records = {}
    failures = []
    stdout_bytes = 0
    for index, warm, ops, outputs, latencies, errors, _ in passes:
        for i, (op, out) in enumerate(zip(ops, outputs)):
            where = f"chunk {index} op {i} {'warm' if warm else 'cold'}"
            if i in errors:
                failures.append(f"{where}: {errors[i]}")
                continue
            try:
                record = workload.record(op, out)
                if workload.cli_output:
                    stdout_bytes += len(out.encode())
                if warm:
                    problem = (None if record == cold_records.get((index, i))
                               else "warm output differs from cold output")
                else:
                    cold_records[(index, i)] = record
                    digest.update(record.encode())
                    problem = workload.check(op, out) if job["check"] else None
            except Exception:  # a check that raises is a failed check
                problem = traceback.format_exc(limit=3)
            if problem:
                failures.append(f"{where}: {problem}")

    result.update({
        "peak_rss_mb": peak_rss_mb,
        "reference_s": statistics.median(reference.samples),
        "reference_samples": len(reference.samples),
        "attempted": sum(len(p[2]) for p in passes),
        "failures": failures,
        "digest": digest.hexdigest(),
        "passes": [
            {"chunk": index, "warm": warm, "latencies": latencies,
             "references": refs,
             "timed_s": sum(x for x in latencies if x is not None)}
            for index, warm, _, _, latencies, _, refs in passes
        ],
    })
    if tracer is not None:
        tracer.counts.stdout_bytes = stdout_bytes
        result["layers"] = tracer.metrics()
        result["span_count"] = len(tracer.spans)
        if job["span_path"]:
            tracer.write_spans(job["span_path"])
    _write(result_path, result)


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
