"""wramsey benchmark runner.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout root that holds ``src/wramsey``; nothing is installed,
``src`` is put on PYTHONPATH of every child interpreter.  Each pass of a
workload runs in a fresh interpreter (``bench_pass.py``), so the coloring
class cache and the permutation tables start cold, as they do for a CLI
user.  Exhaustive searches get ``--jobs`` equal to the usable core count.

--trace 0: set-up time is the median of several fresh ``import wramsey``
timings; then whole passes over the seed's items repeat while another pass
still fits in ``--seconds`` (at least one).  Every timing is scaled by the
speed gauge read next to it (``gauge.py``) and each item counts with the
median over the passes.  Reports the end-to-end metrics: the sum of the
items' times, their latency percentiles, and the peak RSS of the pass
processes and their pool workers.

--trace 1: one untraced pass at full jobs, one at one job, and one traced
pass at one job (spans cannot come back from pool workers).  Reports the
per-layer metrics, the pool speed-up and the tracing overhead.  The two
ratios compare sums of the passes' scaled item times, so gauge readings
and interpreter start-up are not in them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit, with sample counts and the failure fraction.
With ``--workload all`` that last line is instead one JSON object that
maps each workload's name to its result object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import gauge
import stats
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 11
# Every run, traced or not, must end within 180 s.
RUN_LIMIT_S = 170.0
# The gauge is read right after the import, so the import runs first in
# a clean interpreter.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import wramsey; "
    "d = time.perf_counter() - t; sys.path.append({here!r}); import gauge; "
    "print(d, gauge.slowdown())"
).format(here=HERE)


class BenchError(Exception):
    pass


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _child(args: list[str], deadline: float) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("WRAMSEY_JOBS", None)
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[:2]} ran past the {RUN_LIMIT_S:g} s run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def _pass(workload: str, seed: int, jobs: int, trace: bool, deadline: float) -> dict:
    args = [os.path.join(HERE, "bench_pass.py"), "--workload", workload,
            "--seed", str(seed), "--jobs", str(jobs)]
    out = _child(args + (["--trace"] if trace else []), deadline)
    return json.loads(out.splitlines()[-1])


def _scaled_items(result: dict) -> list[float]:
    return [gauge.scaled(t, f) for t, f in zip(result["latencies_s"], result["slowdowns"])]


def _end_to_end(workload, seed, seconds, jobs, deadline) -> tuple[list, dict, dict]:
    _child(["-c", "import wramsey"], deadline)  # writes bytecode caches
    setup = []
    for _ in range(SETUP_PROBES):
        import_s, slowdown = map(float, _child(["-c", IMPORT_PROBE], deadline).split())
        setup.append(gauge.scaled(import_s, slowdown))
    passes = []
    started = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(_pass(workload, seed, jobs, False, deadline))
        took = time.monotonic() - t
        if time.monotonic() - started + took > seconds:
            break
    # Scaling removes slow spells from every timing but adds the gauge's
    # own noise, which runs both ways; each item therefore counts with the
    # median of its scaled times over the run's passes.  The list's wall
    # time is the sum of those.
    item_s = [statistics.median(times) for times in zip(*map(_scaled_items, passes))]
    latencies_ms = [x * 1000 for x in item_s]
    p50, count = stats.percentile(latencies_ms, 50)
    p95, _ = stats.percentile(latencies_ms, 95)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(item_s),
        "item_p50_ms": p50,
        "item_p95_ms": p95,
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh imports",
        "wall_s": f"sum of each item's median of {len(passes)} passes",
        "item_p50_ms": f"{count} items, {stats.samples_beyond(count, 50)} beyond",
        "item_p95_ms": f"{count} items, {stats.samples_beyond(count, 95)} beyond",
        "peak_rss_mb": "max over passes and their pool workers",
    }
    return passes, metrics, notes


def _per_layer(workload, seed, jobs, deadline) -> tuple[list, dict, dict]:
    parallel = _pass(workload, seed, jobs, False, deadline)
    serial = _pass(workload, seed, 1, False, deadline)
    traced = _pass(workload, seed, 1, True, deadline)
    metrics = tracing.layer_metrics(
        traced["summary"], traced["counts"], sum(traced["latencies_s"]),
        sum(_scaled_items(traced)), sum(_scaled_items(serial)),
        sum(_scaled_items(parallel)), jobs,
    )
    notes = {"trace.overhead_frac": f"{traced['spans']} spans recorded"}
    return [parallel, serial, traced], metrics, notes


def run_workload(workload: str, seed: int, seconds: int, trace: bool, declared: list) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    jobs = len(os.sched_getaffinity(0))
    if trace:
        passes, metrics, notes = _per_layer(workload, seed, jobs, deadline)
    else:
        passes, metrics, notes = _end_to_end(workload, seed, seconds, jobs, deadline)
    if set(metrics) != {m["name"] for m in declared}:
        raise BenchError(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    print(f"workload {workload}  seed {seed}  jobs {jobs}  passes {len(passes)}  "
          f"items {attempted}")
    for m in declared:
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<42} {metrics[m['name']]:>14.6g} {m['unit']:<6} {note}")
    print(f"  {'failed_frac':<42} {stats.failed_frac(attempted, failed):>14.6g} "
          f"{'ratio':<6} {failed}/{attempted} items failed")
    for p in passes:
        for reason in p["failures"]:
            print(f"  FAILED {reason}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "wramsey", "__init__.py")):
        print(f"no wramsey sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        results = [
            run_workload(w, args.seed, args.seconds, bool(args.trace), declared)
            for w in chosen
        ]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(dict(zip(chosen, results))))
    else:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
