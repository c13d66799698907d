"""CLI behavior: outputs, exit codes, determinism, JSON round-trip."""

import argparse
import contextlib
import hashlib
import io
import json
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bounds_oracle
from wramsey import exactnum
from wramsey.cli import (
    RunReport,
    format_decimal,
    format_rational,
    format_subgraph_weights,
    main,
    parse_rational,
    report_from_json,
    report_to_json,
)
from wramsey.errors import InputError
from wramsey.graphs import (
    Graph,
    TwoColoring,
    balanced_blowup,
    format_coloring,
    format_graph,
    mono_triangle_free_k5,
)
from wramsey.packing import SubgraphWeights, induced_descriptor


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def k4_graph_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(format_graph(Graph.complete(4)))
    return str(path)


@pytest.fixture()
def k3_graph_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(format_graph(Graph.complete(3)))
    return str(path)


def test_wram_exhaustive_5_3(capsys):
    code, out, _ = run_cli(
        capsys, "--stable", "--jobs", "1", "wram", "--n", "5", "--k", "3", "--exhaustive"
    )
    assert code == 0
    assert "value 2/1" in out
    assert "r_value 5/1" in out
    assert "witness_coloring:" in out


def test_wram_exhaustive_4_4(capsys):
    code, out, _ = run_cli(
        capsys, "--stable", "--jobs", "1", "wram", "--n", "4", "--k", "4", "--exhaustive"
    )
    assert code == 0
    assert "value 3/1" in out


def test_wram_exhaustive_6_3(capsys):
    code, out, _ = run_cli(
        capsys, "--stable", "--jobs", "1", "wram", "--n", "6", "--k", "3", "--exhaustive"
    )
    assert code == 0
    assert "value 15/7" in out


def test_wram_file_mode(capsys, tmp_path):
    path = tmp_path / "pent.txt"
    path.write_text(format_coloring(mono_triangle_free_k5()))
    code, out, _ = run_cli(
        capsys, "--stable", "--jobs", "1", "wram", "--k", "3", "--file", str(path)
    )
    assert code == 0
    assert "value 2/1" in out
    assert "partial True" in out


def test_wram_flag_validation(capsys):
    code, _, err = run_cli(capsys, "--stable", "wram", "--k", "3")
    assert code == 2
    assert "error" in err


def test_negative_jobs_is_an_input_error(capsys, k3_graph_file):
    code, out, err = run_cli(
        capsys, "--stable", "--jobs", "-3", "wram", "--exhaustive", "--n", "5", "--k", "3"
    )
    assert (code, out, err) == (2, "", "error: --jobs must be >= 0, got -3\n")
    # The worker count is a global option: every command rejects it.
    code, out, err = run_cli(capsys, "--jobs", "-1", "packing", "--graph", k3_graph_file)
    assert (code, out, err) == (2, "", "error: --jobs must be >= 0, got -1\n")
    code, out, _ = run_cli(
        capsys, "--stable", "--jobs", "0", "wram", "--exhaustive", "--n", "5", "--k", "3"
    )
    assert code == 0
    assert "value 2/1" in out


def test_jobs_is_accepted_and_ignored(capsys):
    # Every search runs in this process: any worker count prints the same.
    outputs = set()
    for jobs in ("0", "1", "2", "1000"):
        code, out, err = run_cli(
            capsys, "--stable", "--jobs", jobs, "wram", "--n", "6", "--k", "3", "--exhaustive"
        )
        assert (code, err) == (0, "")
        outputs.add(out)
    assert len(outputs) == 1
    code, out, err = run_cli(
        capsys, "--stable", "--jobs", "-1", "wram", "--n", "6", "--k", "3", "--exhaustive"
    )
    assert (code, out, err) == (2, "", "error: --jobs must be >= 0, got -1\n")


def test_non_utf8_coloring_file_is_an_input_error(capsys, tmp_path):
    coloring = tmp_path / "coloring.txt"
    coloring.write_bytes(b"\xff\xfe\x00junk")
    code, out, err = run_cli(capsys, "--stable", "wram", "--file", str(coloring), "--k", "3")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {coloring} is not UTF-8 text: ")


def test_non_utf8_graph_file_is_an_input_error(capsys, tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_bytes(format_graph(Graph.complete(3)).encode() + b"\xff")
    code, out, err = run_cli(capsys, "--stable", "packing", "--graph", str(graph))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {graph} is not UTF-8 text: ")


def test_main_builds_no_parser(capsys, monkeypatch, k3_graph_file):
    # The parser is built once, at import; a call only parses.
    def no_parser(*args, **kwargs):
        raise AssertionError("main built an ArgumentParser")

    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    for argv in (
        ["--jobs", "1", "wram", "--n", "4", "--k", "3", "--exhaustive"],
        ["packing", "--graph", k3_graph_file],
        ["bounds", "--table", "ck", "--kmax", "5"],
        ["verify", "--construction", "k4", "--n", "8"],
    ):
        code, _, err = run_cli(capsys, "--stable", *argv)
        assert (code, err) == (0, "")


def test_wram_capability_exit(capsys):
    code, out, err = run_cli(
        capsys, "--stable", "--jobs", "1", "wram", "--n", "9", "--k", "3", "--exhaustive"
    )
    assert (code, out) == (3, "")
    assert err == "error: exhaustive coloring enumeration supports 3 <= n <= 8\n"
    # k is checked before the size.
    code, out, err = run_cli(capsys, "--stable", "wram", "--n", "9", "--k", "2", "--exhaustive")
    assert (code, out, err) == (2, "", "error: need 3 <= k <= n, got k=2, n=9\n")


def test_packing_stats(capsys, k4_graph_file, k3_graph_file):
    code, out, _ = run_cli(
        capsys, "--stable", "packing", "--graph", k4_graph_file, "--stat", "taustar"
    )
    assert code == 0
    assert "taustar 2/1" in out

    code, out, _ = run_cli(
        capsys, "--stable", "packing", "--graph", k4_graph_file, "--stat", "r"
    )
    assert code == 0
    assert "r 2/1" in out

    code, out, _ = run_cli(
        capsys, "--stable", "packing", "--graph", k3_graph_file, "--stat", "all"
    )
    assert code == 0
    assert "taustar 1/1" in out
    assert "tau 1" in out
    assert "r 1/1" in out
    assert "rtilde 1/1" in out


def test_packing_witness_lines(capsys, k3_graph_file):
    code, out, _ = run_cli(
        capsys, "--stable", "packing", "--graph", k3_graph_file,
        "--stat", "taustar", "--witness",
    )
    assert code == 0
    assert "0 1 2 | 7 | 1/1" in out


def test_packing_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("oops\n")
    code, _, err = run_cli(capsys, "--stable", "packing", "--graph", str(bad))
    assert code == 2


def test_packing_huge_vertex_count_exits_2(capsys, tmp_path):
    # The vertex count is rejected before the edge (13, 2) is shifted into
    # a mask over C(n,2) bits.
    bad = tmp_path / "huge.txt"
    bad.write_text("n 999999999999999999993\n1\u0663 2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "--stable", "packing", "--graph", str(bad))
    assert (code, out) == (2, "")
    assert "vertex count 999999999999999999993 outside 3..16" in err


def test_failed_certificate_exits_4(capsys, monkeypatch, k4_graph_file):
    monkeypatch.setattr(exactnum, "_certified", lambda prog, sol: False)
    code, out, err = run_cli(
        capsys, "--stable", "packing", "--graph", k4_graph_file, "--stat", "taustar"
    )
    assert (code, out) == (4, "")
    assert "packing LP failed to certify" in err
    code, out, err = run_cli(
        capsys, "--stable", "--jobs", "1", "wram", "--n", "4", "--k", "3", "--exhaustive"
    )
    assert (code, out) == (4, "")
    assert "weight LP failed to certify" in err


def test_pivot_limit_exits_3(capsys, monkeypatch, k4_graph_file):
    monkeypatch.setattr(exactnum, "_MAX_PIVOTS", 0)
    code, out, err = run_cli(
        capsys, "--stable", "packing", "--graph", k4_graph_file, "--stat", "taustar"
    )
    assert (code, out) == (3, "")
    assert "pivot limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("stat, n", [("taustar", 13), ("r", 13), ("rtilde", 11)])
def test_packing_lp_caps_exit_3(capsys, tmp_path, stat, n):
    # n is the first size each LP refuses; n <= 8 is never refused.
    path = tmp_path / f"k{n}.txt"
    path.write_text(format_graph(Graph.complete(n)))
    code, out, err = run_cli(capsys, "--stable", "packing", "--graph", str(path), "--stat", stat)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and f"capped at n={n - 1}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_wram_file_past_weight_lp_cap_exits_3(capsys, tmp_path, jobs):
    # n = 11 is the first size the weight LP refuses, whatever --jobs says.
    path = tmp_path / "blowup11.txt"
    path.write_text(format_coloring(balanced_blowup(mono_triangle_free_k5(), 11)))
    code, out, err = run_cli(
        capsys, "--stable", "--jobs", jobs, "wram", "--k", "5", "--file", str(path)
    )
    assert (code, out) == (3, "")
    assert err == "error: weight LP capped at n=10\n"


def test_bounds_tables_row_counts(capsys):
    code, out, _ = run_cli(capsys, "--stable", "bounds", "--table", "turan", "--kmax", "8")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and ln[0].isdigit()]
    assert len(lines) == 27
    assert "8,8,28" in out

    code, out, _ = run_cli(capsys, "--stable", "bounds", "--table", "alpha", "--kmax", "8")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and ln[0].isdigit()]
    assert len(lines) == 21
    assert "8,8,4/189,0.021164" in out

    code, out, _ = run_cli(capsys, "--stable", "bounds", "--table", "lk", "--kmax", "8")
    assert code == 0
    assert "607/2550" in out

    for table in ("turan", "alpha", "ck", "lk"):
        code, out, err = run_cli(capsys, "--stable", "bounds", "--table", table, "--kmax", "1001")
        assert code == 3
        assert (out, err) == ("", "error: bounds tables capped at kmax = 1000\n")


def test_bounds_lk_dominates_published(capsys):
    code, out, _ = run_cli(capsys, "--stable", "bounds", "--table", "lk", "--kmax", "8")
    published = {4: F("4.1999"), 5: F("6.3572"), 6: F("9.5197"),
                 7: F("12.7091"), 8: F("16.9115")}
    for line in out.splitlines():
        if line and line[0].isdigit():
            parts = line.split(",")
            k = int(parts[0])
            assert parse_rational(parts[2]) >= published[k]


def _table_rows(out: str) -> list[list[str]]:
    return [line.split(",") for line in out.splitlines() if line and line[0].isdigit()]


def test_bounds_ck_and_lk_rows_match_the_fraction_oracle(capsys):
    # Row by row against the Fraction formulas: c(k), L(k) = 1/c(k), U(k)
    # and the six-place decimals by round.
    code, ck_out, _ = run_cli(capsys, "--stable", "bounds", "--table", "ck", "--kmax", "100")
    assert code == 0
    code, lk_out, _ = run_cli(capsys, "--stable", "bounds", "--table", "lk", "--kmax", "100")
    assert code == 0
    ck_rows, lk_rows = _table_rows(ck_out), _table_rows(lk_out)
    assert [int(row[0]) for row in ck_rows] == [int(row[0]) for row in lk_rows] == list(range(4, 101))
    for ck_row, lk_row in zip(ck_rows, lk_rows):
        k = int(ck_row[0])
        c_k = bounds_oracle.density(k)[0]
        lower, upper = 1 / c_k, bounds_oracle.upper(k)
        assert ck_row[1:] == [format_rational(c_k), bounds_oracle.format_decimal(c_k)]
        assert lk_row[1:] == [
            format_rational(c_k), format_rational(lower), format_rational(upper),
            bounds_oracle.format_decimal(lower), bounds_oracle.format_decimal(upper),
        ]


def test_bounds_lk_exits_4_when_the_bracket_inverts(capsys, monkeypatch):
    # U(k) = 1 lies below every L(k), so the cross-multiplied bracket check
    # on the CLI path fails on the first row.
    from wramsey import bounds

    monkeypatch.setattr(bounds, "_upper_pair", lambda k: (1, 1))
    code, out, err = run_cli(capsys, "--stable", "bounds", "--table", "lk", "--kmax", "10")
    assert (code, out) == (4, "")
    assert err == "certificate failure: upper bound fell below lower bound\n"


def test_verify_constructions(capsys):
    code, out, _ = run_cli(capsys, "--stable", "verify", "--construction", "k4", "--n", "8")
    assert code == 0
    assert "feasible True" in out
    assert "bound 14/3" in out

    code, out, _ = run_cli(
        capsys, "--stable", "verify", "--construction", "blowup", "--n", "15", "--k", "5"
    )
    assert code == 0
    assert "bound 7/1" in out

    code, _, err = run_cli(
        capsys, "--stable", "verify", "--construction", "blowup", "--n", "5", "--k", "5"
    )
    assert code == 2
    assert "threshold" in err


def test_verify_k4_rejects_another_k(capsys):
    # The k4 certificate is for k = 4 only; --k 4 is accepted and changes
    # nothing.
    code, out, err = run_cli(
        capsys, "--stable", "verify", "--construction", "k4", "--n", "8", "--k", "7"
    )
    assert (code, out) == (2, "")
    assert err == "error: k4 construction is for k = 4, got --k 7\n"
    _, plain, _ = run_cli(capsys, "--stable", "verify", "--construction", "k4", "--n", "8")
    assert run_cli(
        capsys, "--stable", "verify", "--construction", "k4", "--n", "8", "--k", "4"
    ) == (0, plain, "")


def test_verify_exit_4_on_failed_certificate(capsys, monkeypatch):
    from wramsey.errors import CertificateError
    import wramsey.cli as cli_mod

    def broken(n):
        raise CertificateError("forced failure")

    monkeypatch.setattr(cli_mod, "construction_k4", broken)
    code, _, err = run_cli(capsys, "--stable", "verify", "--construction", "k4", "--n", "8")
    assert code == 4
    assert "certificate failure" in err


def test_stable_runs_are_byte_identical(capsys):
    args = ("--stable", "--jobs", "1", "wram", "--n", "4", "--k", "3", "--exhaustive")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_elapsed_present_without_stable(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--table", "turan", "--kmax", "4")
    assert code == 0
    assert "elapsed_ms" in out


def test_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "--stable", "--json", "--jobs", "1",
        "wram", "--n", "4", "--k", "3", "--exhaustive",
    )
    assert code == 0
    report = report_from_json(out)
    assert report.command == "wram"
    assert report.result["value"] == "3/2"
    assert report_to_json(report) == out
    payload = json.loads(out)
    assert payload["result"]["witness_weights"]


def test_json_reports_are_written_in_slices():
    # A text stream encodes each write whole, so no write may carry a whole
    # escaped table; the bytes are those of report_to_json.
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    out = Recorder()
    with contextlib.redirect_stdout(out):
        code = main(["--stable", "--json", "bounds", "--table", "turan", "--kmax", "200"])
    assert code == 0
    assert max(writes) <= 1 << 16 < sum(writes)
    assert report_to_json(report_from_json(out.getvalue())) == out.getvalue()


@pytest.mark.parametrize("text", ["[]", "{}", "3"])
def test_report_json_that_is_not_a_report_is_an_input_error(text):
    with pytest.raises(InputError, match="^report JSON needs an object"):
        report_from_json(text)


_JSON_VALUES = st.one_of(
    st.text(max_size=8), st.integers(-10**30, 10**30), st.booleans(), st.none(),
    st.builds(format_rational, st.fractions(max_denominator=50)),
    st.integers(3, 6).flatmap(lambda n: st.integers(0, (1 << n * (n - 1) // 2) - 1).map(
        lambda mask: format_coloring(TwoColoring(Graph(n, mask))))),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.builds(
    RunReport,
    command=st.sampled_from(["wram", "packing", "verify", "bounds"]),
    inputs=st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=4),
    result=st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=4),
    elapsed_ms=st.none() | st.integers(0, 10**6),
))
def test_report_json_roundtrip_property(report):
    assert report_from_json(report_to_json(report)) == report


def test_rational_and_decimal_formatting():
    assert format_rational(F(2)) == "2/1"
    assert format_rational(F(15, 7)) == "15/7"
    assert parse_rational("15/7") == F(15, 7)
    assert format_decimal(F(607, 2550) * 4) == "0.952157"
    assert format_decimal(F(-1, 3)) == "-0.333333"
    # Ties go to the even digit; a tiny negative keeps its sign.
    assert format_decimal(F(1, 2 * 10**6)) == "0.000000"
    assert format_decimal(F(3, 2 * 10**6)) == "0.000002"
    assert format_decimal(F(-1, 10**7)) == "-0.000000"
    with pytest.raises(Exception):
        parse_rational("x/y")


@st.composite
def _decimal_cases(draw):
    """Any rational, a half-way tie at the sixth place, or a tiny negative
    that renders as minus zero."""
    kind = draw(st.sampled_from(["any", "tie", "tiny"]))
    if kind == "tie":
        # (2m + 1)/(2 * 10^6): the scaled value is m + 1/2, m of either
        # parity and sign.
        return F(2 * draw(st.integers(-10**6, 10**6)) + 1, 2 * 10**6)
    if kind == "tiny":
        return F(-1, draw(st.integers(2 * 10**6 + 1, 10**12)))
    return F(draw(st.integers(-10**12, 10**12)), draw(st.integers(1, 10**9)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_decimal_cases())
def test_decimal_formatting_matches_round(x):
    assert format_decimal(x) == bounds_oracle.format_decimal(x)


def test_subgraph_weight_serialization_masks():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    desc = induced_descriptor(g, (0, 1, 2))
    text = format_subgraph_weights(SubgraphWeights(g, {desc: F(1, 2)}))
    # Edges (0,1) and (1,2) are bits 0 and 2 of the (v1v2, v1v3, v2v3) mask.
    assert text == "0 1 2 | 5 | 1/2\n"


_PINNED = Path(__file__).resolve().parent / "pinned"


@pytest.mark.parametrize("name, argv", [
    ("verify_k4_n8", ["verify", "--construction", "k4", "--n", "8"]),
    ("verify_blowup_n15_k5", ["verify", "--construction", "blowup", "--n", "15", "--k", "5"]),
    ("bounds_lk_kmax100", ["bounds", "--table", "lk", "--kmax", "100"]),
    ("wram_n6_k3_exhaustive", ["--jobs", "1", "wram", "--n", "6", "--k", "3", "--exhaustive"]),
])
def test_readme_examples_match_pinned_output(capsys, name, argv):
    code, out, err = run_cli(capsys, "--stable", "--json", *argv)
    assert (code, err) == (0, "")
    assert out == (_PINNED / f"{name}.json").read_text(encoding="utf-8")


_PINNED_DIGESTS = [
    # (table, kmax, as_json, sha256 of the --stable stdout)
    ("turan", 100, False, "6267a7ca2efaa9975258b58d19ca01419067e46567bc1506dbdb4cb2a52f1547"),
    ("turan", 100, True, "c5f974b87acc559d9765312efefae000b13d2bf020f655ac9d2f6789c1aceba1"),
    ("alpha", 100, False, "66a9793e07f65281a6cb5c5c3e7b1a3337e49f525270c9d7aab75ea05e0335b0"),
    ("alpha", 100, True, "d9c9983f10faed1659deb078247257d56304e536e097bcea017005cb456adc1c"),
    ("ck", 100, False, "662a3647111b51b54555b5d3aa4dfd6816f9f5b13bfc4edc11b1de7a50609f4f"),
    ("ck", 100, True, "4cbe9ec2ae921e3e130e3b4eccf9a80a60c2a358f7b2b6cad16f3cb10545af63"),
    ("alpha", 300, False, "b1921f58d7ef54ca067f4c23694862e619743c606714693a3c9513d06d4cdedf"),
    ("alpha", 300, True, "abd5b867ac502b1278e0fc425312c832df7e75d1eb2a353618d055e152560f73"),
    ("ck", 1000, False, "fd9b99a80c2ed9a5c73bb4fca33837ce03155d43ac640ad277bd2771277eea27"),
    ("ck", 1000, True, "600a3046a0c1924f03eef4bffc406eb366fd4216abf30a5ea3ebcee6f3f3c2ec"),
    ("lk", 1000, False, "b742fb6e0103a81984e13be9ff0798e812ae795377a929c56f3d05622d5b16ca"),
    ("lk", 1000, True, "801b633244ce25735651c1893a7f5734c7e62b3929e43559754e961e8b8d7c93"),
]


# The ids name kmax only past 100, so the kmax 100 cases keep their names.
@pytest.mark.parametrize(
    "table, kmax, as_json, digest", _PINNED_DIGESTS,
    ids=[f"{t}-{j}-{d}" if k == 100 else f"{t}-{k}-{j}-{d}" for t, k, j, d in _PINNED_DIGESTS],
)
def test_bounds_tables_match_pinned_digest(capsys, table, kmax, as_json, digest):
    # sha256 of the --stable stdout; the full tables are too large to pin as
    # files.  The largest numerators and denominators come from large k.
    argv = ["--json"] * as_json + ["bounds", "--table", table, "--kmax", str(kmax)]
    code, out, err = run_cli(capsys, "--stable", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# True seven times in eight: Hypothesis draws the first entry most often.
_MOSTLY = st.sampled_from([True] * 7 + [False])


def _number(low: int, high: int):
    """A command-line integer, now and then a token that is not one."""
    return _MOSTLY.flatmap(lambda ok: st.integers(low, high).map(str) if ok else
                           st.sampled_from(["", "x", "1.5", "-", "0x3", "10" * 12]))


def _bend(draw, lines: list[str]) -> list[str]:
    """The lines, or now and then one of them dropped, doubled or garbled."""
    if draw(_MOSTLY):
        return lines
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["drop", "double", "garble"]))
    if how == "garble":
        return lines[:i] + [draw(st.sampled_from(["x", "1", "0 1 2 3", "n", "0 1 G"]))] + lines[i + 1:]
    return lines[:i] + lines[i + 1:] if how == "drop" else lines[:i] + lines[i:]


@st.composite
def _graph_text(draw):
    """A graph file near the format: a header, then edge lines."""
    n = draw(st.sampled_from([3, 4, 5, 6, 2, -1]))
    vertex = st.integers(0, max(n - 1, 0)) if draw(_MOSTLY) else st.integers(-1, n)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    return "\n".join(_bend(draw, [f"n {n}"] + [f"{u} {v}" for u, v in edges])) + "\n"


@st.composite
def _coloring_text(draw):
    """One or two coloring records near the format."""
    text = ""
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(3, 5))
        lines = [f"n {n}"] + [f"{u} {v} {draw(st.sampled_from('RB'))}"
                              for u, v in combinations(range(n), 2)]
        text += "\n".join(_bend(draw, lines)) + "\n"
    return text


def _file_bytes(text):
    return _MOSTLY.flatmap(lambda ok: text.map(str.encode) if ok else st.binary(max_size=48))


def _option(draw, argv: list[str], flag: str, value) -> None:
    """Most of the time, append ``flag`` and a value drawn from ``value``."""
    if draw(_MOSTLY):
        argv += [flag, draw(value)]


@st.composite
def _cli_calls(draw):
    """argv for one of the four subcommands, with small values and
    ``--jobs 1``, and the bytes of the file it names (``FILE``), if any."""
    argv = ["--jobs", "1"]
    argv += [flag for flag in ("--stable", "--json") if draw(st.booleans())]
    command = draw(st.sampled_from(["wram", "packing", "bounds", "verify"]))
    argv.append(command)
    content = None
    if command == "wram":
        mode = draw(st.sampled_from(["--exhaustive", "--file", "--exhaustive", "--file", "both", "neither"]))
        if mode in ("--exhaustive", "both"):
            argv.append("--exhaustive")
        if mode in ("--file", "both"):
            argv += ["--file", "FILE"]
            content = draw(_file_bytes(_coloring_text()))
        _option(draw, argv, "--n", _number(-1, 6))
        _option(draw, argv, "--k", _number(-1, 7))
    elif command == "packing":
        if draw(_MOSTLY):
            argv += ["--graph", "FILE"]
            content = draw(_file_bytes(_graph_text()))
        if draw(st.booleans()):
            argv += ["--stat", draw(st.sampled_from(["all", "taustar", "tau", "r", "rtilde", "x"]))]
        if draw(st.booleans()):
            argv.append("--witness")
    elif command == "bounds":
        _option(draw, argv, "--table", st.sampled_from(["turan", "alpha", "ck", "lk", "x"]))
        _option(draw, argv, "--kmax", _number(-2, 30))
    else:
        _option(draw, argv, "--construction", st.sampled_from(["k4", "blowup", "x"]))
        _option(draw, argv, "--n", _number(-1, 6))
        _option(draw, argv, "--k", _number(-1, 6))
    return argv, content


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cli_calls())
def test_exit_codes_and_messages_follow_the_contract(tmp_path_factory, call):
    # 0 on success, 2 on input or parse errors, 3 on capability errors, 4 on
    # a failed certificate, each with its stderr prefix; never a traceback.
    argv, content = call
    path = tmp_path_factory.mktemp("cli") / "input.txt"
    if content is not None:
        path.write_bytes(content)
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # Only argparse exits: a usage error, exit 2.
            code = exc.code
            assert code == 2 and err.getvalue().startswith("usage: ")
    err = err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and out.getvalue()
    elif code in (2, 3):
        assert err.startswith(("error: ", "usage: ") if code == 2 else "error: ")
    else:
        assert code == 4 and err.startswith("certificate failure: ")
