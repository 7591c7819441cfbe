"""Run one benchmark workload against the package in ``src/``.

    python3 perfbench/run.py --workload check_large --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  One process, one closed-loop client: the
next operation starts when the previous one returns.  A run makes whole
rounds over the corpus, each document once per round: as many rounds as
take about ``--seconds`` of operation time on the reference machine, and at
least ``MIN_ROUNDS``.  Times are scaled to the reference pace of the host
(see ``pace.py``), and a document's latency is the fastest of its rounds.
Every output is checked (untimed) by the benchmark's own code in
``checks.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.py`` with ``--trace 1``.
The result, and with ``--trace 1`` the spans, are also written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: the tail latency is the highest percentile with ten samples beyond it,
#: which needs at least forty documents to be a tail at all
TAIL_BEYOND = 10
#: every document runs at least this many times; its fastest run counts
MIN_ROUNDS = 2
#: set-ups per run; setup_s is their median
SETUPS = 3
#: a corpus build is scaled to the reference pace in steps this long
STEP_S = 0.1

IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import rideshare_market.cli, rideshare_market.generate, rideshare_market.instance_io\n"
    "seconds = time.perf_counter() - start\n"
    "import pace\n"
    "print(seconds * pace.REF_S / min(pace.sample(), pace.sample()))\n"
)


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter, scaled to the
    reference pace with pace samples taken in that interpreter after the
    import (before it, they would import part of the standard library)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def build(workload, specs, workdir):
    """Build the corpus.  Returns the documents and the build time at the
    reference pace: the build is timed in steps of at least ``STEP_S``,
    each scaled with the faster of the pace samples around it."""
    docs = []
    seconds = step = 0.0
    items = workload.build(specs, workdir)
    before = pace.sample()
    while True:
        start = time.perf_counter()
        doc = next(items, None)
        step += time.perf_counter() - start
        if doc is not None:
            docs.append(doc)
        if doc is None or step >= STEP_S:
            after = pace.sample()
            seconds += step * pace.REF_S / min(before, after)
            before, step = after, 0.0
        if doc is None:
            return docs, seconds


def measure(workload, docs, rounds, tracer):
    """Run every document once per round, for ``rounds`` rounds.

    Each operation's time is scaled to the reference pace with the faster
    of the two pace samples taken right before and right after it (a
    sample is only ever slowed by a hiccup).  A document's latency is the
    fastest of its ``rounds`` scaled times; its executions lie a whole
    round apart.

    Returns (each document's latency, or None where every execution
    failed; attempted; failed; wall seconds of the operations; first check
    failure or None).
    """
    # imported here because main() puts src/ on the path first
    from checks import CheckFailed

    best = [None] * len(docs)
    attempted = failed = 0
    busy = 0.0
    problem = None
    before = pace.sample()
    for _ in range(rounds):
        for i, doc in enumerate(docs):
            attempted += 1
            span = tracer.span("op") if tracer else contextlib.nullcontext({})
            start = time.perf_counter()
            try:
                with span as counts:
                    output = workload.run(doc)
            except Exception as exc:  # a failed operation is counted, not fatal
                busy += time.perf_counter() - start
                before = pace.sample()
                if not failed:
                    print(f"perfbench: operation on document {doc.index} failed: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            elapsed = time.perf_counter() - start
            after = pace.sample()
            busy += elapsed
            scaled = elapsed * pace.REF_S / min(before, after)
            before = after
            if best[i] is None or scaled < best[i]:
                best[i] = scaled
            if tracer:
                counts.update(workload.counters(output))
            try:
                workload.check(doc, output)
            except CheckFailed as exc:
                problem = problem or f"document {doc.index}: {exc}"
    return best, attempted, failed, busy, problem


def end_to_end(latencies, setups):
    ordered = sorted(latencies)
    tail = ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_rps": {"value": len(ordered) / sum(ordered), "unit": "1/s"},
        "latency_p50_s": {"value": statistics.median(ordered), "unit": "s"},
        "latency_tail_s": {"value": tail, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rideshare_market" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'rideshare_market'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    specs = workload.select(args.seed)
    # The benchmark's own long-lived objects (inputs, expected verdicts) are
    # moved out of the cyclic collector's reach, so that they do not change
    # how much a collection costs the program.
    gc.freeze()
    workdir = OUT / f"docs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUPS):
            docs = None  # let the previous build go before the next one
            imported = import_seconds()
            span = tracer.span("setup") if tracer else contextlib.nullcontext()
            with span:
                docs, built = build(workload, specs, str(workdir))
            setups.append(imported + built)
        workload.prepare(docs)
        gc.freeze()
        rounds = max(MIN_ROUNDS, int(args.seconds * workload.OPS_PER_SECOND / len(docs)))
        best, attempted, failed, busy, problem = measure(workload, docs, rounds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if problem:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    latencies = [b for b in best if b is not None]
    if not latencies:
        print(f"perfbench: all {attempted} operations failed", file=sys.stderr)
        return 1
    if tracer:
        metrics = tracer.per_layer()
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(latencies, setups)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds of {len(docs)} documents, "
        f"{attempted} ops in {busy:.3f} s, mean {busy / max(1, attempted):.4f} s/op, "
        f"mean scaled latency {statistics.fmean(latencies):.4f} s, "
        f"set-ups {[round(s, 4) for s in setups]}",
        file=sys.stderr,
    )
    result = {"correct": problem is None, "attempted": attempted, "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
