"""Closed-loop benchmark of the polytangent CLI, with an independent oracle.

    python3 bench/run.py --workload exact-core --seed 1 --seconds 20 --trace 0

One client calls ``polytangent.cli.main`` in-process with generated argv
lists, sending the next request only when the previous one has returned,
and serves whole rounds (see ``workloads.py``) until ``--seconds`` have
passed.  Every response is then checked by ``oracle.py``, which does not
import the package.

``--trace 0`` prints the end-to-end metrics: requests per second spent
in ``cli.main``, median and tail latency of ``cli.main`` with stdout
captured (each the mean of a band of percentiles around it, see
``percentile``), the share of requests that succeed, peak resident
memory, and ``setup_s``, the median time from spawning an interpreter
until ``polytangent.cli`` is imported (cold starts before and after the
loop).

Every time it reports is host-normalised.  A shared host switches
between a fast state and one about 1.7x slower, in spells from a tenth
of a second to minutes, and the share of a run spent in the slow state
would read as a regression or a gain.  So a probe, a fixed pure-Python
``Fraction`` loop of about 0.3 ms that calls nothing of the package,
runs between any two requests and around every cold start, all on one
CPU.  Each latency and cold start is multiplied by ``PROBE_REF_S`` over
the mean of the probes next to it, which tracks spells shorter than a
request.  The throughput, a sum over the run, is scaled by the mean of
all the loop's probes over ``PROBE_REF_S``, which estimates the slow
share of a run better than the two probes beside each of a few long
requests.  The figures are therefore those of a host where the probe
takes ``PROBE_REF_S``; the raw wall-clock figures are in the report
line.

``--trace 1`` wraps the package's layers (``layertrace.py``), prints
per-layer metrics and the tracing overhead, and fails if a layer the
workload is meant to load recorded no calls.

A request fails when it raises (argparse's ``SystemExit`` included),
exits with another code than the generator expects, or the oracle
rejects its output.  ``correct`` is false when the program gave a wrong
answer or argparse refused a generated argv; an uncaught exception is a
failed request but not a wrong answer.  The last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is a report with the input hash, the tail percentile
and its sample counts, the raw figures, the probe's means and range,
and the failures by kind.

The package is imported from ``src`` next to this directory, by absolute
path, because it need not be installed.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Cold starts measured before and after the loop each; the median of
# both sets spans a run.
COLD_START_RUNS = 8
# Reported times are scaled to a host where one probe takes this long:
# the fast state of the 2-vCPU Xeon VM the benchmark was defined on,
# whose slow state takes about 0.55 ms.
PROBE_REF_S = 0.3e-3


def probe_s() -> float:
    """Seconds for a fixed pure-Python Fraction loop: the host's speed, not the program's."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 60):
        acc = (acc + Fraction(i % 97 + 1, i % 89 + 2)) * Fraction(3, 4)
    return time.perf_counter() - t0


def cold_starts(runs: int, probes: list) -> list:
    """Times from spawning an interpreter until polytangent.cli is imported.

    Each is host-normalised by three probes before and three after it,
    which are also appended to ``probes``.
    """
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import polytangent.cli; "
            "sys.stdout.write('ready\\n'); sys.stdout.flush()")
    times = []
    for _ in range(runs):
        around = [probe_s() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != b"ready\n" or proc.returncode:
            raise RuntimeError("cold-start child failed to import polytangent.cli")
        around += [probe_s() for _ in range(3)]
        probes += around
        times.append(elapsed * PROBE_REF_S / statistics.fmean(around))
    return times


def serve(cli, argv):
    """One request: (nanoseconds, exit code, failure kind or None, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    failure = None
    t0 = time.perf_counter_ns()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        code, failure = exc.code, "SystemExit"
    except Exception as exc:  # an uncaught exception is a failed request
        code, failure = None, type(exc).__name__
    finally:
        elapsed = time.perf_counter_ns() - t0
        sys.stdout, sys.stderr = saved
    return elapsed, code, failure, out.getvalue()


def closed_loop(cli, rounds, seconds, tracer=None):
    """Serve whole rounds until ``seconds`` have passed.

    Without a tracer, a probe runs before the first request and after
    every request, so request i lies between probes i and i + 1.  With a
    tracer there are no probes, and each round is served traced and
    then again untraced, so the overhead ratio compares the same requests
    at nearly the same host speed.  Returns (records, probes, wall seconds,
    rounds served, seconds spent in traced rounds, seconds spent in their
    untraced repeats).
    """
    records = []
    probes = []
    traced = untraced = 0.0
    gc.collect()
    if tracer is None:
        probes.append(probe_s())
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        number = index % len(rounds)
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            for slot, (argv, _) in enumerate(rounds[number]):
                records.append(((number, slot), *serve(cli, argv)))
                if tracer is None:
                    probes.append(probe_s())
            traced += time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            t0 = time.perf_counter()
            for argv, _ in rounds[number]:
                serve(cli, argv)
            untraced += time.perf_counter() - t0
        index += 1
        if time.perf_counter() >= deadline:
            return records, probes, time.perf_counter() - start, index, traced, untraced


def percentile(latencies_ms, q):
    """The q-th percentile, smoothed, and the number of samples above it.

    A run holds a few dozen kinds of request, each with its own cost, so a
    single order statistic can sit in a gap between two kinds and jump
    with the draw.  This is the mean of the samples from percentile q - w
    to q + w instead, with w = 5 or, near 100, (100 - q) / 2.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    w = min(5.0, (100 - q) / 2)
    lo = max(math.ceil((q - w) / 100 * n), 1)
    hi = max(math.ceil((q + w) / 100 * n), lo)
    rank = max(math.ceil(q / 100 * n), 1)
    return statistics.fmean(ordered[lo - 1:hi]), n - rank


def verify(rounds, records, oracle):
    """Check every response; returns (failures by kind, first failure message, correct)."""
    failures: dict[str, int] = {}
    first = None
    verdicts: dict = {}
    svgs: dict = {}
    correct = True
    for key, _, code, failure, stdout in records:
        spec = rounds[key[0]][key[1]][1]
        if failure is not None:
            kind, message = f"raised:{failure}", f"{spec['command']} raised {failure}"
            correct = correct and failure != "SystemExit"
        else:
            cache_key = (key, code, stdout)
            if cache_key not in verdicts:
                try:
                    oracle.check(spec, code, stdout)
                    if spec["command"] == "plot" and spec["exit"] == 0:
                        if spec["out"] not in svgs:
                            svgs[spec["out"]] = _svg_ok(spec["out"])
                        if not svgs[spec["out"]]:
                            raise oracle.OracleError(f"{spec['out']} is not an SVG document")
                    verdicts[cache_key] = None
                except oracle.OracleError as exc:
                    verdicts[cache_key] = str(exc)
            message = verdicts[cache_key]
            if message is None:
                continue
            kind = "wrong-exit" if message.startswith("exit code") else "oracle"
            correct = False
        failures[kind] = failures.get(kind, 0) + 1
        first = first or message[:300]
    return failures, first, correct


def _svg_ok(path):
    try:
        return ET.parse(path).getroot().tag.endswith("svg")
    except (OSError, ET.ParseError):
        return False


def _fill_plotdir(rounds, plotdir):
    def fill(value):
        return value.replace("{PLOTDIR}", plotdir) if isinstance(value, str) else value

    return [[([fill(a) for a in argv], {k: fill(v) for k, v in spec.items()})
             for argv, spec in reqs] for reqs in rounds]


def run(args, cli, workloads, oracle):
    rounds = workloads.generate(args.workload, args.seed)
    report = {"workload": args.workload, "seed": args.seed,
              "argv_sha256": workloads.argv_hash(rounds)}
    plotdir = tempfile.mkdtemp(prefix=".plots-", dir=BENCH)
    try:
        rounds = _fill_plotdir(rounds, plotdir)
        setup_probes: list = []
        if not args.trace:
            cold_starts(1, [])  # writes the bytecode cache, which a CLI user also has
            setup = cold_starts(COLD_START_RUNS, setup_probes)
        for argv, _ in rounds[0][:3]:  # warm lazy state before timing
            serve(cli, argv)
        if args.trace:
            import layertrace

            tracer = layertrace.Tracer()
            records, probes, wall, served, traced, untraced = closed_loop(
                cli, rounds, args.seconds, tracer)
        else:
            records, probes, wall, served, _, _ = closed_loop(cli, rounds, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup += cold_starts(COLD_START_RUNS, setup_probes)
        failures, first_failure, correct = verify(rounds, records, oracle)
    finally:
        shutil.rmtree(plotdir, ignore_errors=True)

    attempted = len(records)
    failed = sum(failures.values())
    report.update(
        rounds_served=served,
        requests=attempted,
        wall_s=wall,
        error_rate=failed / attempted,
        failures=failures,
        first_failure=first_failure,
    )
    if args.trace:
        missing = tracer.uncovered(args.workload)
        if missing:
            print(f"traced run: no calls recorded on {', '.join(missing)}", file=sys.stderr)
            return 1
        metrics = {name: {"value": tracer.value(layer, field, attempted), "unit": unit}
                   for name, layer, field, unit, _, _ in layertrace.PER_LAYER}
        for module, seconds in layertrace.import_self_seconds(str(SRC)).items():
            metrics[f"import.{module}.self_s"] = {"value": seconds, "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": traced / untraced, "unit": "ratio"}
    else:
        raw_ms = [ns / 1e6 for _, ns, *_ in records]
        latencies = [ms * 2 * PROBE_REF_S / (before + after)
                     for ms, before, after in zip(raw_ms, probes, probes[1:])]
        q = workloads.WORKLOADS[args.workload][2]
        tail_ms, beyond = percentile(latencies, q)
        report.update(
            tail_percentile=f"p{q:g}", samples=attempted, samples_beyond_tail=beyond,
            raw={"ops_per_s": attempted / wall, "latency_p50_ms": percentile(raw_ms, 50)[0],
                 "latency_tail_ms": percentile(raw_ms, q)[0]},
            probe_ms={"loop_mean": statistics.fmean(probes) * 1e3, "loop_count": len(probes),
                      "setup_mean": statistics.fmean(setup_probes) * 1e3,
                      "min": min(probes + setup_probes) * 1e3,
                      "max": max(probes + setup_probes) * 1e3},
        )
        metrics = {
            "ops_per_s": {"value": attempted / (sum(raw_ms) / 1e3) * statistics.fmean(probes)
                          / PROBE_REF_S, "unit": "1/s"},
            "latency_p50_ms": {"value": percentile(latencies, 50)[0], "unit": "ms"},
            "latency_tail_ms": {"value": tail_ms, "unit": "ms"},
            "success_rate": {"value": 1 - failed / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # One CPU for the loop, its probes and the cold-start children, so a
    # probe measures the CPU the requests next to it ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "polytangent" / "cli.py").is_file():
        print(f"bench: no polytangent sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from polytangent import cli

    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run(args, cli, workloads, oracle)


if __name__ == "__main__":
    sys.exit(main())
