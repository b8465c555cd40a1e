"""Benchmark for the rmtlaw command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: simulate-accept and predict-table (BENCHMARK.json says why each
exists), and spectrum-wide and cli-cold, which run but are not listed there
(see README.md).  ``--trace 0`` measures the
end-to-end metrics with tracing off.  ``--trace 1`` alternates untraced and
traced cycles, then runs one traced op of every shape (the sweep), and
reports the per-layer metrics; its spans are written to
``perfbench/out/trace-<workload>-seed<N>.jsonl``.  Human-readable lines and
the provenance come first; the last line of stdout is the JSON result.
The program is imported from ``src/``; nothing needs installing.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 2  # extra set-ups in fresh processes; setup_s is the median of 1 + this
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description="rmtlaw benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- set-up


class Session:
    """Everything set up before the first timed op: imports, the work
    directory with the chain file, the first cycle's argv lists, and one
    untimed warm-up op."""

    def __init__(self, args) -> None:
        import benchops

        self.ops = benchops
        self.args = args
        self.env = benchops.child_env(str(ROOT))
        (BENCH / ".work").mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="run-", dir=BENCH / ".work")
        self.chain_path = os.path.join(self.workdir, "chain3.json")
        benchops.write_chain(self.chain_path)
        self.workload = benchops.WORKLOADS[args.workload](args.seed, self.chain_path)
        self.first_cycle = self.workload.cycle(0)
        warm = self.run_op(self.first_cycle[0])
        if warm.rc != 0:
            raise RuntimeError(f"warm-up op {warm.op.argv} failed: {warm.error or warm.stdout}")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def cycles(self):
        yield self.first_cycle
        index = 1
        while True:
            yield self.workload.cycle(index)
            index += 1

    def run_op(self, op):
        ops = self.ops
        start = time.perf_counter()
        if op.kind == "cold":
            rc, out = ops.run_child(["-m", "rmtlaw", *op.argv], self.env, str(ROOT))
            return ops.Outcome(op, time.perf_counter() - start, rc, out,
                               error=None if rc == 0 else out)
        try:
            rc, out = ops.run_inprocess(op.argv)
        except Exception as exc:  # an op that raises counts as failed
            return ops.Outcome(op, time.perf_counter() - start, -1, "", error=repr(exc))
        return ops.Outcome(op, time.perf_counter() - start, rc, out)


def setup_probe_seconds(args) -> list[float]:
    """Set up again in fresh processes, so that work moved into set-up
    (imports, caches filled by the warm-up op) shows in setup_s."""
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------- checks


def check_outcomes(session, outcomes, tracer, prefix="check", deep_all=False) -> None:
    """Fill in ``error`` for every op whose output fails its check."""
    ops = session.ops
    seed = session.args.seed
    deep_every = 16
    for index, outcome in enumerate(outcomes):
        if outcome.rc != 0:
            outcome.error = outcome.error or f"exit code {outcome.rc}"
            continue
        op = outcome.op
        tracer.op = f"{prefix}{index}"
        try:
            if op.kind == "simulate":
                outcome.error = ops.check_simulate(op, outcome.stdout)
                if outcome.error is None and index == seed % 4:
                    outcome.error = ops.check_workers(op, outcome.stdout)
            elif op.kind == "spectrum":
                outcome.error = ops.check_spectrum(op, outcome.stdout)
            elif op.kind == "predict":
                # the exact evaluation is slow, so it covers one op per
                # cycle, rotating through the cycle's shapes
                deep = deep_all or index % deep_every == (index // deep_every + seed) % deep_every
                outcome.error = ops.check_predict(op, outcome.stdout, tracer, deep)
            else:
                outcome.error = ops.check_cold(op, outcome.stdout)
        except Exception as exc:  # a malformed output fails its op
            outcome.error = f"check raised {exc!r}"


# ---------------------------------------------------------------- end to end


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least 10 ops beyond it, never below
    the median."""
    xs = sorted(values)
    n = len(xs)
    q = 100 * (n - 10) // n if n > 10 else 0
    if q < 50:
        return statistics.median(xs), "p50"
    return xs[n - 11], f"p{q}"


ITEM_TEXT = {
    "simulate-accept": "replicates at m=150, n=300",
    "spectrum-wide": "replicates at m=512, n=1024",
    "predict-table": "moment values",
    "cli-cold": "cold ops",
}


def best_seconds(outcomes) -> float:
    """Op time of the run's op mix when every op takes the fastest latency
    seen for its shape (kind and label).  Other tenants of the host only
    ever add time to an op, so the fastest op of a shape tracks the
    program's own cost; runs cover whole cycles, so the mix is the cycle's."""
    shapes: dict[tuple[str, str], list[float]] = {}
    for o in outcomes:
        shapes.setdefault((o.op.kind, o.op.label), []).append(o.seconds)
    return sum(len(xs) * min(xs) for xs in shapes.values())


def fresh_peak_rss_kb(session) -> tuple[int, int]:
    """Peak resident set of a fresh ``python -m rmtlaw`` process, the largest
    over one op of each shape in the first cycle, and the number of shapes.
    A fresh process carries no allocator history from earlier ops, so it
    reads the same from run to run, and it is what a user of the command
    line sees."""
    # reversed, so that the first op of each shape is the one kept
    firsts = {(op.kind, op.label): op for op in reversed(session.first_cycle)}
    peak = max(session.ops.peak_rss_child(op.argv, session.env, str(ROOT))
               for op in firsts.values())
    return peak, len(firsts)


def end_to_end(args, outcomes, setup_samples, rss_kb, rss_shapes) -> tuple[dict, list[str]]:
    ms = [o.seconds * 1e3 for o in outcomes]
    tail_ms, tail_label = tail(ms)
    busy = sum(o.seconds for o in outcomes)
    items = sum(o.op.items for o in outcomes)
    failed = sum(o.error is not None for o in outcomes)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "items_per_s_best": (items / best_seconds(outcomes), "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    shapes = len({(o.op.kind, o.op.label) for o in outcomes})
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups: "
        + ", ".join(f"{s:.4f}" for s in setup_samples),
        "items_per_s_best": f"{items} {ITEM_TEXT[args.workload]} in {len(ms)} ops, each at the "
        f"fastest latency of its shape ({shapes} shapes)",
        "peak_rss_mb": f"largest of {rss_shapes} fresh CLI processes, one per op shape",
    }
    lines = [f"  {name:<16} {value:>14.6g} {unit:<5} {notes[name]}"
             for name, (value, unit) in metrics.items()]
    # whole-run figures: they include every stall the shared host causes,
    # so they are printed but not gated
    lines += [
        f"  {'op_ms_p50':<16} {statistics.median(ms):>14.6g} {'ms':<5} {len(ms)} ops (not gated)",
        f"  {'op_ms_tail':<16} {tail_ms:>14.6g} {'ms':<5} {tail_label} of {len(ms)} ops (not gated)",
        f"  {'items_per_s':<16} {items / busy:>14.6g} {'1/s':<5} {items} {ITEM_TEXT[args.workload]} "
        f"in {busy:.3f} s of op time (not gated)",
        f"  {'failed_share':<16} {failed / len(outcomes):>14.6g} {'share':<5} "
        f"{failed} of {len(outcomes)} ops failed",
    ]
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, lines


# ---------------------------------------------------------------- traced run


def traced_op(session, tracer, op, op_id: str):
    ops = session.ops
    tracer.op = op_id
    workers = op.params.get("workers") or os.cpu_count() or 1
    with tracer.span("op", kind=op.kind, label=op.label):
        with tracer.span("cli.main", kind=op.kind, label=op.label, workers=workers):
            if op.kind == "predict":
                with ops.library_spans(tracer):
                    outcome = session.run_op(op)
            else:
                outcome = session.run_op(op)
        if outcome.rc == 0 and op.kind in ("simulate", "spectrum"):
            ops.replay_monte_carlo(tracer, op)
        elif outcome.rc == 0 and op.kind == "cold":
            ops.replay_cold(tracer, session.env, str(ROOT))
    return outcome


def sweep_ops(session) -> list:
    """One op of every shape, so that every per-layer metric has spans even
    on a workload that does not exercise that layer."""
    ops = session.ops
    chain = f"chain:file={session.chain_path}"
    models = ["ar1:p=0.5", "twostate:alpha=0.4", "iid:dist=rademacher", chain]
    h = [1.0 + 0.5**l for l in range(1, ops.PREDICT_KMAX + 1)]
    # three predict ops, so the median non-crossing check is not the one
    # that fills the partition cache
    return (
        [ops.simulate_op(model, 7, reps=16) for model in models]
        + [ops.spectrum_op("remark1", 7, reps=2)]
        + [ops.predict_model_op("ar1:p=0.5", 0.5, "json"),
           ops.predict_model_op("twostate:alpha=0.4", 2.0, "csv"),
           ops.predict_weighted_op(h, 0.9, 0.5, "csv")]
        + ops.cold_ops(7)[:1]
    )


def run_traced(session, args):
    from benchtrace import Tracer

    from layers import per_layer

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    for index, cycle in enumerate(session.cycles()):
        for op in cycle:
            if index % 2:
                traced.append(traced_op(session, tracer, op, f"op{len(plain) + len(traced)}"))
            else:
                plain.append(session.run_op(op))
        if index >= 1 and time.perf_counter() - start >= args.seconds:
            break
    outcomes = plain + traced
    sweep = [traced_op(session, tracer, op, f"sweep{i}") for i, op in enumerate(sweep_ops(session))]
    check_outcomes(session, outcomes, tracer)
    check_outcomes(session, sweep, tracer, prefix="sweep-check", deep_all=True)
    metrics, sources = per_layer(tracer, plain, traced)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    lines = [f"  {name:<50} {value:>14.6g} {unit:<8} {sources[name]}"
             for name, (value, unit) in metrics.items()]
    lines.append(f"  {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    failed = [o for o in outcomes + sweep if o.error is not None]
    return outcomes + sweep, failed, metrics, lines


# ---------------------------------------------------------------- provenance


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rmtlaw").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rmtlaw" / "__init__.py").is_file():
        print(f"perfbench: no src/rmtlaw under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from benchops import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    session = Session(args)
    try:
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(repr(setup_s))
            return 0
        print("provenance " + json.dumps(provenance(args)))
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        if args.trace:
            outcomes, failed, metrics, lines = run_traced(session, args)
            result_metrics = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
        else:
            outcomes = []
            start = time.perf_counter()
            for cycle in session.cycles():
                outcomes.extend(session.run_op(op) for op in cycle)
                if time.perf_counter() - start >= args.seconds:
                    break
            check_outcomes(session, outcomes, session.ops.NULL_TRACER)
            failed = [o for o in outcomes if o.error is not None]
            result_metrics, lines = end_to_end(args, outcomes, [setup_s] + setup_probe_seconds(args),
                                               *fresh_peak_rss_kb(session))
    finally:
        session.close()
    print("\n".join(lines))
    for outcome in failed[:10]:
        print(f"  FAILED {' '.join(outcome.op.argv)}: {outcome.error}")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
