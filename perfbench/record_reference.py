"""Record the reference output digest of every pool item of every workload.

Run once, from the checkout root, at the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/record_reference.py

It first draws the K_7 colorings of the ``wram --file`` items from the
n = 7 class representatives and stores them beside the digests.  It
refuses to write ``perfbench/reference.json`` if any item raises,
exits non-zero or fails its independent check.  Later commits must
reproduce these digests byte for byte; re-recording is only right when an
output is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import wramsey

import workloads


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    jobs = len(os.sched_getaffinity(0))
    representatives = [c.red.mask for c in wramsey.enumerate_colorings(workloads.WRAM_FILE_N)]
    digests: dict[str, str] = {}
    reference = {"wram_colorings": workloads.wram_sample(representatives), "digests": digests}
    try:
        for name in workloads.WORKLOADS:
            for item in workloads.items(name, None, jobs, reference):
                got, reason = item.verify(item.call())
                if reason:
                    print(f"{name} {item.key}: {reason}", file=sys.stderr)
                    return 1
                digests[item.key] = got
            print(f"{name}: recorded, {len(digests)} digests in all", file=sys.stderr)
    finally:
        shutil.rmtree(workloads.WORKDIR, ignore_errors=True)
    path = os.path.join(root, "perfbench", "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
