"""Command-line front end.

Subcommands: ``predict`` (moment table from a model or explicit trace
moments), ``simulate`` (Monte Carlo report), ``compare`` (verdict table of
empirical vs. predicted moments), ``spectrum`` (pooled eigenvalue
histogram), ``nc`` (non-crossing partition utilities).

Data goes to stdout or --out; logs go to stderr (silenced by --quiet).
Floats are printed with 12 significant digits.  Exit codes: 0 success or
all-PASS, 1 numeric failure or FAIL verdict, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .combinatorics import (
    Partition,
    count_nc_by_block_sizes,
    kreweras_complement,
    max_component_graphs,
    nc_partitions,
)
from .errors import DomainError, NumericError, ParseError, RmtlawError
from .models import _fmt, _sig12, h_finite, h_szego, parse_model
from .moments import HSequence, limiting_moment, qform_moment
from .montecarlo import (
    MODE_DIRECT,
    MODE_REMARK1,
    MomentReport,
    SimConfig,
    check_shape,
    eigenvalue_histogram,
    run_monte_carlo,
)

Z_LIMIT = 3.0
REL_LIMIT = 0.02

_MODE_FLAGS = {"direct": MODE_DIRECT, "remark1": MODE_REMARK1}


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_doc(args: argparse.Namespace, doc: dict, text: str) -> None:
    """Write ``doc`` as indented JSON under ``--format json``, else ``text``."""
    _emit(json.dumps(doc, indent=2) + "\n" if args.format == "json" else text, args.out)


def _log(args: argparse.Namespace, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(item) for item in text.split(","))
    except ValueError as exc:
        raise ParseError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not values:
        raise ParseError(f"{flag} must not be empty")
    return values


def _parse_sizes(text: str) -> dict[int, int]:
    sizes: dict[int, int] = {}
    for item in text.split(","):
        size, sep, count = item.partition(":")
        if not sep:
            raise ParseError(f"--sizes expects size:count entries, got {item!r}")
        try:
            s, c = int(size), int(count)
        except ValueError as exc:
            raise ParseError(f"--sizes expects integers, got {item!r}") from exc
        if s in sizes:
            raise ParseError(f"--sizes repeats size {s}")
        sizes[s] = c
    return sizes


def _parse_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ParseError(f"--range expects lo:hi, got {text!r}")
    try:
        return float(lo), float(hi)
    except ValueError as exc:
        raise ParseError(f"--range expects numbers, got {text!r}") from exc


def _add_output_flags(parser: argparse.ArgumentParser, formats: tuple[str, ...], default: str) -> None:
    parser.add_argument("--format", choices=formats, default=default, help="output format")
    parser.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    parser.add_argument("--quiet", action="store_true", help="suppress log lines on stderr")


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=100, help="matrix rows (window length)")
    parser.add_argument("--n", type=int, default=200, help="matrix columns (sample count)")
    parser.add_argument("--reps", type=int, default=100, help="replicate count")
    parser.add_argument("--kmax", type=int, default=4, help="highest moment order")
    parser.add_argument("--seed", type=int, default=0, help="stream seed")
    parser.add_argument(
        "--mode", choices=sorted(_MODE_FLAGS), default="direct", help="sampling mode"
    )
    parser.add_argument(
        "--workers", type=int, default=0, help="worker threads (0 = available parallelism)"
    )
    parser.add_argument("--force", action="store_true", help="bypass the compute budget guard")


def _sim_config(args: argparse.Namespace) -> SimConfig:
    return SimConfig(
        model=parse_model(args.model),
        m=args.m,
        n=args.n,
        k_max=args.kmax,
        replicates=args.reps,
        seed=args.seed,
        mode=_MODE_FLAGS[args.mode],
    )


def _workers(args: argparse.Namespace) -> int:
    if args.workers == 0:
        return os.cpu_count() or 1
    return args.workers


def cmd_predict(args: argparse.Namespace) -> int:
    if (args.model is None) == (args.h is None):
        raise ParseError("pass exactly one of --model or --h")
    if args.kmax is not None and args.kmax < 1:
        raise DomainError(f"need --kmax >= 1, got {args.kmax}")
    if args.model is not None:
        k_max = args.kmax if args.kmax is not None else 4
        h = h_szego(parse_model(args.model), k_max)
    else:
        values = _parse_floats(args.h, "--h")
        k_max = args.kmax if args.kmax is not None else len(values)
        h = HSequence(values)
    htilde = None
    if args.htilde is not None:
        htilde = HSequence(_parse_floats(args.htilde, "--htilde"))
    rows = []
    for k in range(1, k_max + 1):
        if htilde is None:
            moment = limiting_moment(k, args.y, h)
        else:
            moment = qform_moment(k, args.y, h, htilde)
        row = {"k": k, "h": _sig12(h.value(k))}
        if htilde is not None:
            row["htilde"] = _sig12(htilde.value(k))
        row["moment"] = _sig12(moment)
        rows.append(row)
    doc = {"y": _sig12(args.y), "k_max": k_max, "h_origin": h.origin, "rows": rows}
    cols = ["k", "h"] + (["htilde"] if htilde is not None else []) + ["moment"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) if c != "k" else str(row[c]) for c in cols))
    _emit_doc(args, doc, "\n".join(lines) + "\n")
    _log(args, f"predicted {k_max} moments at y = {_fmt(args.y)} from {h.origin} trace moments")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _sim_config(args)
    report = run_monte_carlo(config, workers=_workers(args), force=args.force)
    _emit(report.to_json(), args.out)
    _log(
        args,
        f"simulated {config.replicates} replicates of {args.model} at "
        f"m={config.m}, n={config.n} in {report.runtime_seconds:.2f}s",
    )
    return 0


_REPORT_CONFIG = {"model": str, "m": int, "n": int, "k_max": int}
_REPORT_ROW_FIELDS = ("predicted_finite", "empirical_mean", "empirical_stderr")


def _load_report(path: str) -> dict:
    """Read a simulate report and check every field compare reads: the
    config's model, m, n and k_max, and rows k = 1..k_max, each with finite
    predicted_finite, empirical_mean and empirical_stderr."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read report {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"report {path!r} is not valid JSON: {exc}") from exc
    try:
        config, rows = doc["config"], doc["moments"]
        valid = (
            all(type(config[key]) is kind for key, kind in _REPORT_CONFIG.items())
            and len(rows) == config["k_max"]
            and [row["k"] for row in rows] == list(range(1, len(rows) + 1))
            and all(
                type(row[key]) in (int, float) and math.isfinite(row[key])
                for row in rows
                for key in _REPORT_ROW_FIELDS
            )
        )
    except (KeyError, TypeError, OverflowError):  # OverflowError: an int too large for a float
        valid = False
    if not valid:
        raise ParseError(
            f"report {path!r} needs config model, m, n, k_max and moment rows "
            f"k = 1..k_max with finite {', '.join(_REPORT_ROW_FIELDS)}"
        )
    return doc


def _verdict(diff: float, stderr: float, reference: float) -> tuple[float | None, float | None, str]:
    """z, relative error, PASS/FAIL at |z| <= 3 or rel <= 2%.  Undefined
    ratios are reported as null rather than infinity."""
    z = diff / stderr if stderr > 0 else None
    rel = abs(diff) / abs(reference) if reference != 0 else None
    if diff == 0:
        return z, rel, "PASS"
    ok = (z is not None and abs(z) <= Z_LIMIT) or (rel is not None and rel <= REL_LIMIT)
    return z, rel, "PASS" if ok else "FAIL"


def _emit_verdicts(args: argparse.Namespace, rows: list[dict], labels: tuple[str, str]) -> int:
    overall = "PASS" if all(r["verdict"] == "PASS" for r in rows) else "FAIL"
    cols = ["k", labels[0], labels[1], "stderr", "z", "rel", "verdict"]
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for col in cols:
            val = row[col]
            if isinstance(val, float):
                cells.append(_fmt(val))
            elif val is None:
                cells.append("")
            else:
                cells.append(str(val))
        lines.append(",".join(cells))
    _emit_doc(args, {"rows": rows, "overall": overall}, "\n".join(lines) + "\n")
    _log(args, f"compare: {overall}")
    return 0 if overall == "PASS" else 1


def _self_rows(doc: dict, y_override: float | None) -> list[dict]:
    rows = []
    predicted = {row["k"]: row["predicted_finite"] for row in doc["moments"]}
    if y_override is not None:
        config = doc["config"]
        model = parse_model(config["model"])
        h = h_finite(model, config["m"], config["k_max"])
        predicted = {
            k: limiting_moment(k, y_override, h) for k in range(1, config["k_max"] + 1)
        }
    for row in doc["moments"]:
        k = row["k"]
        pred = predicted[k]
        emp = row["empirical_mean"]
        se = row["empirical_stderr"]
        z, rel, verdict = _verdict(emp - pred, se, pred)
        rows.append(
            {
                "k": k,
                "empirical": _sig12(emp),
                "predicted": _sig12(pred),
                "stderr": _sig12(se),
                "z": None if z is None else _sig12(z),
                "rel": None if rel is None else _sig12(rel),
                "verdict": verdict,
            }
        )
    return rows


def cmd_compare(args: argparse.Namespace) -> int:
    if len(args.reports) > 2:
        raise ParseError("compare takes at most two report paths")
    if len(args.reports) == 0:
        if args.model is None:
            raise ParseError("compare without report paths needs --model")
        config = _sim_config(args)
        report = run_monte_carlo(config, workers=_workers(args), force=args.force)
        doc = json.loads(report.to_json())
        _log(args, f"simulated {config.replicates} replicates inline")
        return _emit_verdicts(args, _self_rows(doc, args.y), ("empirical", "predicted"))
    if len(args.reports) == 1:
        doc = _load_report(args.reports[0])
        if args.y is not None:  # the new prediction needs the report's m-window traces
            check_shape(doc["config"]["m"], doc["config"]["n"], force=args.force)
        return _emit_verdicts(args, _self_rows(doc, args.y), ("empirical", "predicted"))

    if args.y is not None:
        raise ParseError("--y override applies only to single-report or inline compare")
    doc_a, doc_b = (_load_report(path) for path in args.reports)
    conf_a, conf_b = doc_a["config"], doc_b["config"]
    for key in ("k_max", "m", "n"):
        if conf_a[key] != conf_b[key]:
            raise ParseError(
                f"reports disagree on {key}: {conf_a[key]} vs {conf_b[key]}"
            )
    rows_b = {row["k"]: row for row in doc_b["moments"]}
    rows = []
    for row_a in doc_a["moments"]:
        k = row_a["k"]
        row_b = rows_b[k]
        mean_a, mean_b = row_a["empirical_mean"], row_b["empirical_mean"]
        se = math.hypot(row_a["empirical_stderr"], row_b["empirical_stderr"])
        reference = max(abs(mean_a), abs(mean_b))
        z, rel, verdict = _verdict(mean_a - mean_b, se, reference)
        rows.append(
            {
                "k": k,
                "mean_a": _sig12(mean_a),
                "mean_b": _sig12(mean_b),
                "stderr": _sig12(se),
                "z": None if z is None else _sig12(z),
                "rel": None if rel is None else _sig12(rel),
                "verdict": verdict,
            }
        )
    return _emit_verdicts(args, rows, ("mean_a", "mean_b"))


def cmd_spectrum(args: argparse.Namespace) -> int:
    config = _sim_config(args)
    value_range = _parse_range(args.range) if args.range else None
    hist = eigenvalue_histogram(
        config,
        bins=args.bins,
        value_range=value_range,
        workers=_workers(args),
        force=args.force,
    )
    doc = {
        "bin_edges": [_sig12(e) for e in hist.bin_edges],
        "counts": list(hist.counts),
        "density": [_sig12(d) for d in hist.density],
        "total": hist.total,
    }
    _emit_doc(args, doc, hist.to_csv())
    _log(args, f"histogrammed {hist.total} eigenvalues into {len(hist.counts)} bins")
    return 0


def cmd_nc(args: argparse.Namespace) -> int:
    if args.action == "enumerate":
        if args.k is None:
            raise ParseError("nc enumerate needs --k")
        parts = nc_partitions(args.k)
        doc = {"k": args.k, "count": len(parts), "partitions": [str(p) for p in parts]}
        _emit_doc(args, doc, "".join(f"{p}\n" for p in parts))
        return 0
    if args.action == "complement":
        if args.blocks is None:
            raise ParseError("nc complement needs --blocks")
        comp = kreweras_complement(Partition.parse(args.blocks))
        _emit_doc(args, {"partition": args.blocks, "complement": str(comp)}, f"{comp}\n")
        return 0
    if args.action == "count":
        if args.k is None or args.sizes is None:
            raise ParseError("nc count needs --k and --sizes")
        count = count_nc_by_block_sizes(args.k, _parse_sizes(args.sizes))
        _emit_doc(args, {"k": args.k, "sizes": args.sizes, "count": count}, f"{count}\n")
        return 0
    if args.action == "graphs":
        if args.blocks is None:
            raise ParseError("nc graphs needs --blocks")
        partition = Partition.parse(args.blocks)
        graphs = max_component_graphs(partition)
        component = str(graphs[0].component_partition()) if len(graphs) == 1 else None
        doc = {
            "partition": args.blocks,
            "max_graphs": len(graphs),
            "component_partition": component,
        }
        text = f"{len(graphs)}\n"
        if component is not None:
            text += f"{component}\n"
        _emit_doc(args, doc, text)
        return 0
    raise ParseError(f"unknown nc action {args.action!r}")


@functools.cache  # parse_args writes only to its own Namespace, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmtlaw",
        description="Limiting spectral moments of sample covariance matrices "
        "with dependent column entries: predict, simulate, compare.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_predict = sub.add_parser("predict", help="moment table from a model or trace moments")
    p_predict.add_argument("--model", help="model text, e.g. ar1:p=0.5")
    p_predict.add_argument("--h", help="comma-separated trace moments H_1,H_2,...")
    p_predict.add_argument("--htilde", help="weighting trace moments; switches to weighted form")
    p_predict.add_argument("--y", type=float, required=True, help="aspect ratio m/n")
    p_predict.add_argument("--kmax", type=int, default=None, help="highest moment order")
    _add_output_flags(p_predict, ("json", "csv"), "json")
    p_predict.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="Monte Carlo moment report")
    p_sim.add_argument("--model", required=True, help="model text, e.g. ar1:p=0.5")
    _add_sim_flags(p_sim)
    p_sim.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    p_sim.add_argument("--quiet", action="store_true", help="suppress log lines on stderr")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="verdict table: empirical vs. predicted moments")
    p_cmp.add_argument("reports", nargs="*", help="0 (inline run), 1 (self), or 2 report paths")
    p_cmp.add_argument("--model", help="model text for the inline run")
    _add_sim_flags(p_cmp)
    p_cmp.add_argument(
        "--y", type=float, default=None, help="recompute predictions at this aspect ratio"
    )
    _add_output_flags(p_cmp, ("json", "csv"), "json")
    p_cmp.set_defaults(func=cmd_compare)

    p_spec = sub.add_parser("spectrum", help="pooled eigenvalue histogram")
    p_spec.add_argument("--model", required=True, help="model text, e.g. ar1:p=0.5")
    _add_sim_flags(p_spec)
    p_spec.add_argument("--bins", type=int, default=50, help="bin count")
    p_spec.add_argument("--range", help="histogram range lo:hi (default 0 to 1.05*max)")
    _add_output_flags(p_spec, ("csv", "json"), "csv")
    p_spec.set_defaults(func=cmd_spectrum)

    p_nc = sub.add_parser("nc", help="non-crossing partition utilities")
    p_nc.add_argument("action", choices=("enumerate", "complement", "count", "graphs"))
    p_nc.add_argument("--k", type=int, help="ground-set size")
    p_nc.add_argument("--blocks", help="partition as 1,2,4|3|5")
    p_nc.add_argument("--sizes", help="block-size profile as size:count,...")
    _add_output_flags(p_nc, ("text", "json"), "text")
    p_nc.set_defaults(func=cmd_nc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"rmtlaw: numeric error: {exc}", file=sys.stderr)
        return 1
    except RmtlawError as exc:
        print(f"rmtlaw: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())
