"""The four benchmark workloads: their inputs, timed calls and checks.

Every workload draws its items from a fixed pool, so ``reference.json``
(written by ``record_reference.py``) can hold the expected output digest of
every item any seed can select.  ``items(workload, seed, jobs, reference)``
picks and orders a seed's items; ``seed=None`` yields the whole pool in pool
order.  The reference also holds the K_7 colorings of the ``wram --file``
items, so that building them needs no enumeration, which would warm the
coloring cache before the timed calls.

An item's ``call`` is the only part that is timed.  Its ``verify`` turns
the output into a digest for the reference comparison plus the reason an
independent check failed (known values, ``r == rtilde``, class counts, key
invariance), or None.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import wramsey
import wramsey.cli

# Graph files for the packing CLI, relative to the checkout root (the
# working directory of every pass).  The path is part of the digested
# report, so it must not depend on where the checkout lives.
WORKDIR = ".perfbench-work"

# Exhaustive wram(n, k) with the paper's value and the class count.  Larger
# n are covered by coloring files (below): one exhaustive n = 7 call runs
# for 6 to 10 s, too long to repeat within a run on a noisy machine.
WRAM_EXHAUSTIVE = ((5, 3, "2/1", 18), (6, 3, "15/7", 78))
# ``wram --file`` items: WRAM_FILES files of WRAM_FILE_SIZE K_7 colorings,
# a fixed sample of the 522 class representatives that exhaustive wram(7, k)
# solves (``record_reference.py`` draws it).  Every file runs once for each
# k in WRAM_FILE_K, as exhaustive wram(7, 3) and wram(7, 4) each solve all
# 522.  Every seed runs all files (the seed only orders them): drawing files
# per seed moved the slowest file, and with it the tail latency, from seed
# to seed.  Each file's value bounds wram(7, k) from above: 42/19 (k=3),
# 42/11 (k=4).
WRAM_FILE_N = 7
WRAM_FILE_K = {3: Fraction(42, 19), 4: Fraction(42, 11)}
WRAM_FILES = 4
WRAM_FILE_SIZE = 16

# Packing strata follow the A08 corpus (n in 3..8; density 3/10, 1/2, 4/5)
# with exactly round(density * C(n,2)) edges.  The five costliest strata
# hold four fifths of the time and the whole latency tail, so every seed
# runs the same graphs there (PACKING_FIXED gives their counts); the others
# draw PACKING_PICK of PACKING_POOL graphs per seed.
PACKING_DENSITIES = (("30", Fraction(3, 10)), ("50", Fraction(1, 2)), ("80", Fraction(4, 5)))
PACKING_PICK = 13
PACKING_POOL = 39
PACKING_FIXED = {(6, "80"): 13, (7, "50"): 13, (8, "50"): 13, (7, "80"): 2, (8, "80"): 1}

CLASS_COUNTS = {3: 2, 4: 6, 5: 18, 6: 78, 7: 522}
CANON_POOL = 2000
CANON_KEYS = 300
CANON_N = 8

K4_RANGE = range(4, 17)
BLOWUP_CASES = tuple(
    (n, k) for k in range(5, 17) for n in range(5, 17)
    if n >= 5 * ((k + 1) // 2) and n >= k
)
LK_KMAX = 100


@dataclass
class Item:
    key: str
    call: Callable[[], object]
    verify: Callable[[object], tuple[str, str | None]]
    pooled: bool = False  # runs on every CPU through the process pool
    numpy_bound: bool = False  # time goes to numpy, scaled by the numpy gauge


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``wramsey.cli.main`` in-process; exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = wramsey.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _cli_verify(check: Callable[[dict], str | None]):
    def verify(output) -> tuple[str, str | None]:
        code, text = output
        if code != 0:
            return digest(text), f"exit code {code}"
        return digest(text), check(json.loads(text))
    return verify


# -- wram_exhaustive ---------------------------------------------------------

def wram_sample(representatives: list[int]) -> list[int]:
    """The red masks of the file items, drawn from the n = 7 class representatives."""
    return random.Random("wram-pool").sample(representatives, WRAM_FILES * WRAM_FILE_SIZE)


def wram_pool(sample: list[int]) -> list[tuple[str, int, list[int]]]:
    """(key, k, red masks) for every coloring file item in the pool."""
    files = [sample[j * WRAM_FILE_SIZE:(j + 1) * WRAM_FILE_SIZE] for j in range(WRAM_FILES)]
    return [(f"k{k}-{j:02d}", k, masks) for k in WRAM_FILE_K for j, masks in enumerate(files)]


def _coloring_text(n: int, mask: int) -> str:
    edges = itertools.combinations(range(n), 2)
    return f"n {n}\n" + "".join(
        f"{u} {v} {'R' if mask >> i & 1 else 'B'}\n" for i, (u, v) in enumerate(edges)
    )


def _wram_exhaustive_item(n: int, k: int, value: str, classes: int, jobs: int) -> Item:
    argv = ["--stable", "--json", "--jobs", str(jobs),
            "wram", "--exhaustive", "--n", str(n), "--k", str(k)]

    def check(payload):
        res = payload["result"]
        if res["value"] != value or res["classes"] != classes:
            return f"got {res['value']} over {res['classes']} classes"
        return None
    return Item(f"wram {n} {k}", lambda: run_cli(argv), _cli_verify(check), pooled=True)


def _wram_file_item(key: str, k: int, masks: list[int], jobs: int) -> Item:
    path = f"{WORKDIR}/wram-{key}.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(_coloring_text(WRAM_FILE_N, m) for m in masks))
    argv = ["--stable", "--json", "--jobs", str(jobs),
            "wram", "--file", path, "--n", str(WRAM_FILE_N), "--k", str(k)]

    def check(payload):
        res = payload["result"]
        value = Fraction(res["value"])
        if res["classes"] != len(masks) or res["partial"] is not True:
            return f"{res['classes']} colorings, partial {res['partial']}"
        if value * Fraction(res["r_value"]) != _pairs(WRAM_FILE_N):
            return "value times r_value is not C(n,2)"
        if value < WRAM_FILE_K[k]:
            return f"value {value} below wram({WRAM_FILE_N},{k}) = {WRAM_FILE_K[k]}"
        return None
    return Item(f"wram file {key}", lambda: run_cli(argv), _cli_verify(check), pooled=True)


def _wram_items(seed, jobs: int, reference: dict) -> list[Item]:
    # Exhaustive calls first, in a fixed order; the seed orders the files.
    items = [_wram_exhaustive_item(*case, jobs) for case in WRAM_EXHAUSTIVE]
    pool = wram_pool(reference["wram_colorings"])
    if seed is not None:
        random.Random(seed).shuffle(pool)
    os.makedirs(WORKDIR, exist_ok=True)
    return items + [_wram_file_item(key, k, masks, jobs) for key, k, masks in pool]


# -- packing_corpus ----------------------------------------------------------

def packing_pool() -> list[tuple[str, int, tuple]]:
    """(key, n, edges) for every pool graph, stratum by stratum."""
    pool = []
    for n in range(3, 9):
        pairs = list(itertools.combinations(range(n), 2))
        for name, density in PACKING_DENSITIES:
            m = round(density * len(pairs))
            rng = random.Random(f"packing-pool {n} {name}")
            size = PACKING_FIXED.get((n, name), PACKING_POOL)
            for j in range(size):
                edges = tuple(sorted(rng.sample(pairs, m)))
                pool.append((f"n{n}-p{name}-{j:02d}", n, edges))
    return pool


def _packing_select(seed) -> list[tuple[str, int, tuple]]:
    pool = packing_pool()
    if seed is None:
        return pool
    rng = random.Random(seed)
    strata: dict[str, list] = {}
    for entry in pool:
        strata.setdefault(entry[0].rsplit("-", 1)[0], []).append(entry)
    chosen = []
    for name, members in strata.items():
        take = len(members) if len(members) < PACKING_POOL else PACKING_PICK
        chosen.extend(rng.sample(members, take))
    rng.shuffle(chosen)
    return chosen


def _packing_check(payload) -> str | None:
    res = payload["result"]
    r, rtilde, taustar = (Fraction(res[s]) for s in ("r", "rtilde", "taustar"))
    if r != rtilde:
        return f"r = {r} but rtilde = {rtilde}"
    if taustar > r:
        return f"taustar = {taustar} exceeds r = {r}"
    return None


def _packing_items(seed, jobs: int, reference: dict) -> list[Item]:
    os.makedirs(WORKDIR, exist_ok=True)
    items = []
    for key, n, edges in _packing_select(seed):
        path = f"{WORKDIR}/{key}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        argv = ["--stable", "--json", "--jobs", str(jobs),
                "packing", "--graph", path, "--stat", "all", "--witness"]
        items.append(Item(f"packing {key}", lambda argv=argv: run_cli(argv),
                          _cli_verify(_packing_check)))
    return items


# -- canon_enum --------------------------------------------------------------

def _edge_bits(n: int) -> dict[tuple[int, int], int]:
    return {e: i for i, e in enumerate(itertools.combinations(range(n), 2))}


def relabel_swap(n: int, mask: int, perm) -> int:
    """Red mask after moving vertex v to perm[v] and swapping Red and Blue."""
    bits = _edge_bits(n)
    out = 0
    for (u, v), i in bits.items():
        if mask >> i & 1:
            a, b = perm[u], perm[v]
            out |= 1 << bits[(min(a, b), max(a, b))]
    return out ^ ((1 << len(bits)) - 1)


def canon_pool() -> list[int]:
    rng = random.Random("canon-pool")
    return [rng.getrandbits(_pairs(CANON_N)) for _ in range(CANON_POOL)]


def _enumerate_item(n: int) -> Item:
    def call():
        return [c.red.mask for c in wramsey.enumerate_colorings(n)]

    def verify(masks):
        reason = None
        if len(masks) != CLASS_COUNTS[n]:
            reason = f"{len(masks)} classes for n={n}, expected {CLASS_COUNTS[n]}"
        return digest(",".join(map(str, masks))), reason
    # wramsey canonicalizes n <= 6 in pure Python, larger n with numpy.
    return Item(f"classes {n}", call, verify, numpy_bound=n > 6)


def _key_item(j: int, mask: int, other: int) -> Item:
    def call():
        make = wramsey.TwoColoring
        return (wramsey.canonical_key(make(wramsey.Graph(CANON_N, mask))),
                wramsey.canonical_key(make(wramsey.Graph(CANON_N, other))))

    def verify(keys):
        reason = None if keys[0] == keys[1] else "key changed under relabel and swap"
        return keys[0].hex(), reason
    return Item(f"key {j}", call, verify, numpy_bound=True)


def _canon_items(seed, jobs: int, reference: dict) -> list[Item]:
    # Enumeration runs first and in order: each n extends the classes of
    # n - 1, so this order makes every call do its own level's work.
    items = [_enumerate_item(n) for n in sorted(CLASS_COUNTS)]
    pool = canon_pool()
    if seed is None:
        ident = list(range(CANON_N))
        keys = [_key_item(j, m, relabel_swap(CANON_N, m, ident)) for j, m in enumerate(pool)]
    else:
        rng = random.Random(seed)
        keys = []
        for j in rng.sample(range(CANON_POOL), CANON_KEYS):
            perm = rng.sample(range(CANON_N), CANON_N)
            keys.append(_key_item(j, pool[j], relabel_swap(CANON_N, pool[j], perm)))
    return items + keys


# -- verify_sweep ------------------------------------------------------------

def _turan5_edges(n: int) -> int:
    q, r = divmod(n, 5)
    sizes = [q + 1] * r + [q] * (5 - r)
    return _pairs(n) - sum(_pairs(s) for s in sizes)


def _construction_check(total: Fraction, n: int):
    def check(payload) -> str | None:
        res = payload["result"]
        if res["feasible"] is not True:
            return "certificate not feasible"
        if Fraction(res["total"]) != total:
            return f"total {res['total']}, expected {total}"
        if Fraction(res["bound"]) != _pairs(n) / total:
            return f"bound {res['bound']} is not C(n,2)/total"
        return None
    return check


def _lk_check(payload) -> str | None:
    res = payload["result"]
    lines = res["csv"].splitlines()
    if res["rows"] != LK_KMAX - 3 or len(lines) != LK_KMAX - 2:
        return f"{res['rows']} rows for kmax={LK_KMAX}"
    return None


def _verify_items(seed, jobs: int, reference: dict) -> list[Item]:
    base = ["--stable", "--json", "--jobs", str(jobs)]
    specs = []
    for n in K4_RANGE:
        total = Fraction(5, 24) * _pairs(n) + Fraction(n // 2, 24)
        specs.append((f"k4 {n}", ["verify", "--construction", "k4", "--n", str(n)],
                      _construction_check(total, n)))
    for n, k in BLOWUP_CASES:
        total = Fraction(_turan5_edges(n), k * k // 4)
        specs.append((f"blowup {n} {k}",
                      ["verify", "--construction", "blowup", "--n", str(n), "--k", str(k)],
                      _construction_check(total, n)))
    specs.append((f"lk {LK_KMAX}", ["bounds", "--table", "lk", "--kmax", str(LK_KMAX)],
                  _lk_check))
    if seed is not None:
        random.Random(seed).shuffle(specs)
    return [
        Item(key, lambda argv=base + args: run_cli(argv), _cli_verify(check))
        for key, args, check in specs
    ]


_BUILDERS = {
    "wram_exhaustive": _wram_items,
    "packing_corpus": _packing_items,
    "canon_enum": _canon_items,
    "verify_sweep": _verify_items,
}


WORKLOADS = tuple(_BUILDERS)


def items(workload: str, seed, jobs: int, reference: dict) -> list[Item]:
    return _BUILDERS[workload](seed, jobs, reference)
