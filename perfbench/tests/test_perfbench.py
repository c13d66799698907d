"""Tests of the benchmark's own code, on synthetic spans, samples and outputs.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
import types

import pytest

import bench_pass
import stats
import tracing
import workloads


# -- percentiles and spreads -------------------------------------------------

def test_percentile_is_nearest_rank_with_sample_count():
    samples = list(range(200, 0, -1))  # order must not matter
    assert stats.percentile(samples, 50) == (100, 200)
    assert stats.percentile(samples, 95) == (190, 200)
    assert stats.samples_beyond(200, 95) == 10
    assert stats.samples_beyond(200, 50) == 100


def test_percentile_small_samples_pick_observed_values():
    assert stats.percentile([7.5], 95) == (7.5, 1)
    assert stats.percentile([3, 1, 2], 50) == (2, 3)
    assert stats.percentile([3, 1, 2], 95) == (3, 3)
    assert stats.samples_beyond(3, 95) == 0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 0)


def test_quartile_spread_matches_statistics_quantiles():
    med, q1, q3, spread = stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (med, q1, q3) == (5.5, 2.75, 8.25)
    assert spread == pytest.approx(5.5 / 5.5)


def test_failed_frac_counts_failures_over_attempts():
    assert stats.failed_frac(214, 0) == 0
    assert stats.failed_frac(8, 2) == 0.25
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)
    with pytest.raises(ValueError):
        stats.failed_frac(3, 4)


# -- spans and self time -----------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    log = tracing.SpanLog()
    root = log.add("cli.main", 0.0, 10.0)
    child = log.add("packing.r_tilde", 1.0, 4.0, root)
    log.add("exactnum.solve_lp.ge_eq", 2.0, 3.5, child)
    log.add("packing.r_tilde", 5.0, 7.0, root)
    summary = log.summary()
    assert summary["cli.main"] == {"calls": 1, "incl_s": 10.0, "self_s": 5.0}
    assert summary["packing.r_tilde"]["calls"] == 2
    assert summary["packing.r_tilde"]["incl_s"] == 5.0
    assert summary["packing.r_tilde"]["self_s"] == pytest.approx(3.5)
    assert summary["exactnum.solve_lp.ge_eq"]["self_s"] == 1.5
    # Self times of all spans add up to the root spans' durations.
    assert sum(r["self_s"] for r in summary.values()) == pytest.approx(10.0)


@pytest.fixture
def fake_package(monkeypatch):
    """Two layers bound into each other with ``from .x import y``."""
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")
    exec("def leaf(x):\n    return x + 1\n"
         "def _private(x):\n    return leaf(x)\n", low.__dict__)
    low.leaf.__module__ = low._private.__module__ = "fakepkg.low"
    exec("def outer(x):\n    return leaf(leaf(x))\n", high.__dict__)
    high.outer.__module__ = "fakepkg.high"
    high.leaf = low.leaf
    pkg.leaf, pkg.outer = low.leaf, high.outer
    for name, mod in (("fakepkg", pkg), ("fakepkg.low", low), ("fakepkg.high", high)):
        monkeypatch.setitem(sys.modules, name, mod)
    pkg.low, pkg.high = low, high
    return pkg


def test_install_wraps_every_binding_and_nests_spans(fake_package):
    log = tracing.SpanLog()
    patched = tracing.install(log, package="fakepkg", layers=("low", "high"))
    # leaf: bound in low, high and the package; outer: in high and the package.
    assert patched == 5
    assert fake_package.outer(1) == 3
    assert fake_package.low._private(1) == 2  # private caller, public callee
    summary = log.summary()
    assert summary["high.outer"]["calls"] == 1
    assert summary["low.leaf"]["calls"] == 3
    assert "low._private" not in summary
    assert list(log.parent) == [-1, 0, 0, -1]


def test_layer_metrics_split_lp_kinds_and_ratios():
    summary = {
        "exactnum.solve_lp.le": {"calls": 3, "incl_s": 3.0, "self_s": 2.0},
        "exactnum.solve_lp.ge_eq": {"calls": 1, "incl_s": 1.0, "self_s": 1.0},
        "graphs.canonical_key": {"calls": 4, "incl_s": 0.002, "self_s": 0.002},
        "cli.main": {"calls": 1, "incl_s": 4.0, "self_s": 0.998},
    }
    m = tracing.layer_metrics(summary, {"exactnum.lp_rows": 12}, traced_raw_s=5.0,
                              traced_s=4.0, serial_s=3.2, parallel_s=2.0, jobs=2)
    assert m["exactnum.solve_lp.calls"] == 4
    assert m["exactnum.solve_lp.le_self_s"] == 2.0
    assert m["exactnum.lp_rows"] == 12 and m["exactnum.lp_cols"] == 0
    assert m["graphs.canonical_key.us_per_call"] == pytest.approx(500.0)
    assert m["weighted_ramsey.pool_speedup"] == pytest.approx(1.6)
    assert m["weighted_ramsey.pool_efficiency"] == pytest.approx(0.8)
    assert m["trace.overhead_frac"] == pytest.approx(0.25)
    assert m["trace.accounted_frac"] == pytest.approx(0.8)
    assert m["packing.r_tilde.calls"] == 0


# -- failure counting and the reference --------------------------------------

def _item(verify):
    return workloads.Item("k", lambda: None, verify)


def test_failure_reasons_and_reference_mismatch():
    ok = _item(lambda out: ("abc", None))
    assert bench_pass._failure(ok, "out", {"k": "abc"}) is None
    assert "differs from reference" in bench_pass._failure(ok, "out", {"k": "abd"})
    assert "no reference" in bench_pass._failure(ok, "out", {})
    assert "raised ValueError" in bench_pass._failure(ok, ValueError("x"), {"k": "abc"})
    bad = _item(lambda out: ("abc", "r = 2 but rtilde = 3"))
    assert bench_pass._failure(bad, "out", {"k": "abc"}) == "r = 2 but rtilde = 3"
    broken = _item(lambda out: ("abc", out["missing"]))
    assert "unreadable output" in bench_pass._failure(broken, {}, {"k": "abc"})


def test_cli_verify_flags_exit_codes_and_packing_checks():
    verify = workloads._cli_verify(workloads._packing_check)
    assert verify((3, "error"))[1] == "exit code 3"
    good = '{"result": {"taustar": "1/1", "r": "3/2", "rtilde": "3/2"}}'
    assert verify((0, good)) == (workloads.digest(good), None)
    unequal = '{"result": {"taustar": "1/1", "r": "3/2", "rtilde": "2/1"}}'
    assert "rtilde" in verify((0, unequal))[1]
    over = '{"result": {"taustar": "2/1", "r": "3/2", "rtilde": "3/2"}}'
    assert "exceeds" in verify((0, over))[1]


def test_relabel_swap_preserves_the_canonical_key():
    import wramsey
    mask = workloads.canon_pool()[0]
    other = workloads.relabel_swap(8, mask, [3, 0, 7, 1, 6, 2, 5, 4])
    assert other != mask
    key = wramsey.canonical_key(wramsey.TwoColoring(wramsey.Graph(8, mask)))
    assert key == wramsey.canonical_key(wramsey.TwoColoring(wramsey.Graph(8, other)))


def test_seed_selection_is_deterministic_and_stratified():
    first = workloads._packing_select(5)
    assert first == workloads._packing_select(5)
    assert first != workloads._packing_select(6)
    assert len(first) >= 200
    keys = [key for key, _, _ in first]
    assert sum(k.startswith("n8-p80") for k in keys) == workloads.PACKING_FIXED[(8, "80")]
    assert sum(k.startswith("n3-p30") for k in keys) == workloads.PACKING_PICK


def test_wram_files_sample_representatives_once_per_k():
    sample = workloads.wram_sample(list(range(1000, 1522)))
    assert sample == workloads.wram_sample(list(range(1000, 1522)))
    assert len(set(sample)) == workloads.WRAM_FILES * workloads.WRAM_FILE_SIZE
    pool = workloads.wram_pool(sample)
    assert len(pool) == workloads.WRAM_FILES * len(workloads.WRAM_FILE_K)
    for k in workloads.WRAM_FILE_K:
        files = [masks for _, file_k, masks in pool if file_k == k]
        assert sorted(m for masks in files for m in masks) == sorted(sample)


def test_gauge_scaling_and_reading():
    import gauge
    assert gauge.scaled(2.0, 1.0) == 2.0
    assert gauge.scaled(2.0, 2.0) == 1.0
    assert 0 < gauge.reading() < 1
    assert 0 < gauge.reading_numpy() < 1
    assert gauge.slowdown(numpy_bound=True) > 0
    before = os.sched_getaffinity(0)
    assert gauge.slowdown(all_cpus=True) > 0
    assert os.sched_getaffinity(0) == before
