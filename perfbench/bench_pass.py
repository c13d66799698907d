"""One pass of one workload in a fresh interpreter; prints one JSON line.

Run from the checkout root with ``src`` on PYTHONPATH (``run.py`` does
this).  The pass builds its items from the seed, reads the item's speed
gauge before and after each item's call and times the call.  Then it checks every
output against the recorded reference and the workload's independent
checks.  With ``--trace`` the layer wrappers are installed first and the
span summary is added.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time


def _failure(item, output, reference) -> str | None:
    if isinstance(output, BaseException):
        return f"raised {type(output).__name__}: {output}"
    try:
        got, reason = item.verify(output)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if reason:
        return reason
    expected = reference.get(item.key)
    if expected is None:
        return "no reference output recorded"
    if got != expected:
        return f"output differs from reference ({got} != {expected})"
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import wramsey

    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(wramsey.__file__), src]) != src:
        print(f"wramsey imported from {wramsey.__file__}, not from {src}", file=sys.stderr)
        return 2

    import gauge
    import tracing
    import workloads

    with open(os.path.join(os.path.dirname(__file__), "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    log = None
    if args.trace:
        log = tracing.SpanLog()
        tracing.install(log)

    try:
        items = workloads.items(args.workload, args.seed, args.jobs, reference)
        latencies = []
        slowdowns = []
        outputs = []
        clock = time.perf_counter
        # An item's slowdown is the mean of the gauge readings just before
        # and just after its call; a reading after one item also serves as
        # the reading before the next when both use the same gauge.
        last = None
        for item in items:
            kind = {"numpy_bound": item.numpy_bound, "all_cpus": item.pooled and args.jobs > 1}
            before = last[1] if last and last[0] == kind else gauge.slowdown(**kind)
            t = clock()
            try:
                out = item.call()
            except Exception as exc:  # an item that raises is a counted failure
                out = exc
            latencies.append(clock() - t)
            last = (kind, gauge.slowdown(**kind))
            slowdowns.append((before + last[1]) / 2)
            outputs.append(out)
    finally:
        shutil.rmtree(workloads.WORKDIR, ignore_errors=True)

    failures = []
    for item, out in zip(items, outputs):
        reason = _failure(item, out, reference["digests"])
        if reason:
            failures.append(f"{item.key}: {reason}")
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "latencies_s": latencies,
        "slowdowns": slowdowns,
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures[:5],
        "rss_mb": kb / 1024,
    }
    if log is not None:
        result["spans"] = len(log.start)
        result["summary"] = log.summary()
        result["counts"] = dict(log.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
