"""Command-line front end: wram / packing / bounds / verify.

Every command prints a deterministic report (identical flags give
byte-identical output once ``--stable`` suppresses the elapsed field) and
exits 0 on success, 2 on input or parse errors, 3 on capability errors,
and 4 on a failed certificate.  Rationals are rendered as ``p/q``.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .bounds import (
    _bracket,
    _gap_exact,
    construction_blowup,
    construction_k4,
    wram_upper_bound,
)
from .errors import (
    CapabilityError,
    CertificateError,
    ContractViolationError,
    InputError,
)
from .graphs import format_coloring, parse_colorings, parse_graph, turan_number
from .packing import (
    SubgraphDescriptor,
    SubgraphWeights,
    r_induced,
    r_tilde,
    tau_integral_family,
    tau_star,
)
from .weighted_ramsey import wram, wram_for_colorings

_ONE = Fraction(1)


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _pair_decimal(num: int, den: int) -> str:
    """num/den, den > 0, to six places by integer division, round-half-even."""
    sign = "-" if num < 0 else ""
    scaled, rest = divmod(abs(num) * 10**6, den)
    if 2 * rest > den or 2 * rest == den and scaled & 1:
        scaled += 1
    whole, frac = divmod(scaled, 10**6)
    return f"{sign}{whole}.{frac:06d}"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}") from exc


def format_decimal(x: Fraction) -> str:
    """Exact six-place rendering by integer division, round-half-even,
    platform independent."""
    return _pair_decimal(x.numerator, x.denominator)


def format_subgraph_weights(sw: SubgraphWeights) -> str:
    """Lines "v1 v2 v3 | edge-mask | p/q"; mask bits order (v1v2, v1v3, v2v3)."""
    lines = []
    for desc in sorted(sw.weights, key=lambda d: (d.vertices, d.edges)):
        a, b, c = desc.vertices
        mask = 0
        for bit, pair in enumerate(((a, b), (a, c), (b, c))):
            if pair in desc.edges:
                mask |= 1 << bit
        lines.append(f"{a} {b} {c} | {mask} | {format_rational(sw.weights[desc])}")
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class RunReport:
    command: str
    inputs: dict
    result: dict
    elapsed_ms: int | None = None


def _render_json(report: RunReport, out) -> None:
    # json.dump, but a piece over 64k characters (a bounds table's escaped
    # CSV) is written in slices: a text stream encodes each write whole.
    payload = {key: value for key, value in vars(report).items() if value is not None}
    for piece in json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload):
        if len(piece) <= 1 << 16:
            out.write(piece)
            continue
        for start in range(0, len(piece), 1 << 16):
            out.write(piece[start:start + (1 << 16)])
    out.write("\n")


def report_to_json(report: RunReport) -> str:
    out = io.StringIO()
    _render_json(report, out)
    return out.getvalue()


def report_from_json(text: str) -> RunReport:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad report JSON: {exc}") from exc
    if not (isinstance(payload, dict) and isinstance(payload.get("command"), str)
            and isinstance(payload.get("inputs"), dict)
            and isinstance(payload.get("result"), dict)):
        raise InputError("report JSON needs an object with a string command "
                         "and object inputs and result")
    return RunReport(
        command=payload["command"],
        inputs=payload["inputs"],
        result=payload["result"],
        elapsed_ms=payload.get("elapsed_ms"),
    )


def _render_text(report: RunReport, out) -> None:
    out.write(f"command {report.command}\n")
    for key in sorted(report.inputs):
        out.write(f"{key} {report.inputs[key]}\n")
    for key, value in report.result.items():
        if isinstance(value, str) and "\n" in value:
            out.write(f"{key}:\n")
            out.write(value)
            if not value.endswith("\n"):
                out.write("\n")
        else:
            out.write(f"{key} {value}\n")
    if report.elapsed_ms is not None:
        out.write(f"elapsed_ms {report.elapsed_ms}\n")


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; any other bytes are an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _cmd_wram(args) -> RunReport:
    if args.exhaustive == (args.file is not None):
        raise InputError("choose exactly one of --exhaustive or --file")
    if args.exhaustive:
        if args.n is None:
            raise InputError("--exhaustive needs --n")
        res = wram(args.n, args.k)
        inputs = {"n": args.n, "k": args.k, "mode": "exhaustive"}
    else:
        colorings = parse_colorings(_read_text(args.file))
        if args.n is not None and any(c.n != args.n for c in colorings):
            raise InputError(f"file contains colorings with n != {args.n}")
        res = wram_for_colorings(colorings, args.k)
        inputs = {"n": res.n, "k": args.k, "mode": f"file {args.file}"}
    result = {
        "value": format_rational(res.value),
        "r_value": format_rational(res.r_value),
        "classes": res.num_colorings,
        "partial": res.partial,
        "witness_coloring": format_coloring(res.witness_coloring),
    }
    if args.json:
        result["witness_weights"] = {
            f"{u} {v}": format_rational(w)
            for (u, v), w in sorted(res.witness_weights.weights.items())
        }
    return RunReport("wram", inputs, result)


def _tau_family(g) -> tuple[int, SubgraphWeights]:
    family = tau_integral_family(g)
    # Every family member is a triangle of g: its edges are its three pairs.
    return len(family), SubgraphWeights(g, {
        SubgraphDescriptor(tri, tuple(itertools.combinations(tri, 2))): _ONE for tri in family
    })


def _cmd_packing(args) -> RunReport:
    g = parse_graph(_read_text(args.graph))
    # Each statistic maps a graph to its value and a witness.  The table is
    # built per call, so a wrapper later bound to one of these names is used.
    stats = {"taustar": tau_star, "tau": _tau_family, "r": r_induced, "rtilde": r_tilde}
    wanted = list(stats) if args.stat == "all" else [args.stat]
    result: dict = {}
    witnesses: dict[str, SubgraphWeights] = {}
    for stat in wanted:
        value, witnesses[stat] = stats[stat](g)
        result[stat] = str(value) if isinstance(value, int) else format_rational(value)
    if args.witness:
        for stat in wanted:
            result[f"witness_{stat}"] = format_subgraph_weights(witnesses[stat])
    return RunReport("packing", {"graph": args.graph, "stat": args.stat}, result)


# Largest kmax of every bounds table.  At kmax 1000, cold on a 2-core
# machine with interpreter start-up, alpha, the costliest, takes 2.2-2.5 s
# and 51 MB (turan 0.5 s, ck 0.14 s, lk 0.10 s).
_KMAX_CAP = 1000


def _bounds_lines(table: str, kmax: int):
    """Yield a bounds table as CSV: the header line, then one line per row."""
    if kmax > _KMAX_CAP:
        raise CapabilityError(f"bounds tables capped at kmax = {_KMAX_CAP}")
    if table == "turan":
        yield "k,i,t\n"
        for k in range(3, kmax + 1):
            for i in range(2, k + 1):
                yield f"{k},{i},{turan_number(k, i)}\n"
    elif table == "alpha":
        yield "k,i,alpha,alpha_decimal\n"
        for k in range(3, kmax + 1):
            for i in range(3, k + 1):
                num, den = _gap_exact(k, i)
                g = gcd(num, den)
                num, den = num // g, den // g
                yield f"{k},{i},{num}/{den},{_pair_decimal(num, den)}\n"
    elif table == "ck":
        yield "k,c_k,c_k_decimal\n"
        for k in range(4, kmax + 1):
            (c_num, c_den), _, _, _ = _bracket(k)
            yield f"{k},{c_num}/{c_den},{_pair_decimal(c_num, c_den)}\n"
    elif table == "lk":
        yield "k,c_k,L_k,U_k,L_k_decimal,U_k_decimal\n"
        for k in range(4, kmax + 1):
            (c_num, c_den), (l_num, l_den), (u_num, u_den), _ = _bracket(k)
            yield (
                f"{k},{c_num}/{c_den},{l_num}/{l_den},{u_num}/{u_den},"
                f"{_pair_decimal(l_num, l_den)},{_pair_decimal(u_num, u_den)}\n"
            )
    else:
        raise InputError(f"unknown table {table!r}")


def _cmd_bounds(args) -> RunReport:
    # Written line by line into one buffer: joining the generator would
    # hold every line string in a list beside the text.
    csv = io.StringIO()
    rows = -1  # the header line is not a row
    for line in _bounds_lines(args.table, args.kmax):
        csv.write(line)
        rows += 1
    return RunReport(
        "bounds",
        {"table": args.table, "kmax": args.kmax},
        {"rows": rows, "csv": csv.getvalue()},
    )


def _cmd_verify(args) -> RunReport:
    if args.construction == "k4":
        if args.n is None:
            raise InputError("k4 construction needs --n")
        if args.k not in (None, 4):
            raise InputError(f"k4 construction is for k = 4, got --k {args.k}")
        coloring, weights, total = construction_k4(args.n)
        k = 4
        inputs = {"construction": "k4", "n": args.n}
    else:
        if args.n is None or args.k is None:
            raise InputError("blowup construction needs --n and --k")
        coloring, weights, total = construction_blowup(args.n, args.k)
        k = args.k
        inputs = {"construction": "blowup", "n": args.n, "k": args.k}
    cap = wram_upper_bound(k)
    pairs = Fraction(coloring.n * (coloring.n - 1), 2)
    implied = pairs / total
    if implied > cap:
        raise CertificateError(
            f"implied bound {implied} exceeds the construction cap {cap}"
        )
    return RunReport(
        "verify",
        inputs,
        {
            "feasible": True,
            "total": format_rational(total),
            "bound": format_rational(implied),
            "cap": format_rational(cap),
        },
    )


# Built once at import.  Each subcommand names its handler through
# set_defaults(run=...), so its options and its handler are declared together.
_PARSER = argparse.ArgumentParser(
    prog="wramsey",
    description="Exact weighted Ramsey numbers and triangle packing invariants.",
)
_PARSER.add_argument("--json", action="store_true", help="emit the report as JSON")
_PARSER.add_argument(
    "--stable", action="store_true",
    help="suppress the elapsed field for byte-identical reruns",
)
_PARSER.add_argument(
    "--jobs", type=int, default=0,
    help="accepted for compatibility and ignored: every search runs serially "
    "in this process (must be >= 0)",
)
_sub = _PARSER.add_subparsers(dest="command", required=True)

_p = _sub.add_parser("wram", help="weighted Ramsey number")
_p.set_defaults(run=_cmd_wram)
_p.add_argument("--n", type=int)
_p.add_argument("--k", type=int, required=True)
_p.add_argument("--exhaustive", action="store_true")
_p.add_argument("--file", help="coloring file (one or more records)")

_p = _sub.add_parser("packing", help="triangle packing/covering invariants")
_p.set_defaults(run=_cmd_packing)
_p.add_argument("--graph", required=True, help="graph file")
_p.add_argument(
    "--stat", choices=["taustar", "tau", "r", "rtilde", "all"], default="all"
)
_p.add_argument("--witness", action="store_true")

_p = _sub.add_parser("bounds", help="closed-form bound tables as CSV")
_p.set_defaults(run=_cmd_bounds)
_p.add_argument("--table", choices=["turan", "alpha", "ck", "lk"], required=True)
_p.add_argument("--kmax", type=int, required=True)

_p = _sub.add_parser("verify", help="check a constructive certificate")
_p.set_defaults(run=_cmd_verify)
_p.add_argument("--construction", choices=["k4", "blowup"], required=True)
_p.add_argument("--n", type=int)
_p.add_argument("--k", type=int)


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.jobs < 0:
            raise InputError(f"--jobs must be >= 0, got {args.jobs}")
        report = args.run(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CertificateError, ContractViolationError) as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 4
    if not args.stable:
        report = replace(report, elapsed_ms=int((time.perf_counter() - started) * 1000))
    (_render_json if args.json else _render_text)(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
