"""Workloads, ops, output checks and traced replays for the rmtlaw benchmark.

An op is one call of the ``rmtlaw`` command line, either in-process through
``rmtlaw.cli.main`` or as a fresh ``python -m rmtlaw`` process.  Every op's
argv is generated here from the workload seed, so the program receives only
generated arguments and files.  Each workload is a closed loop of whole
cycles: the next op starts only after the previous one returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import rmtlaw.cli as cli
import rmtlaw.moments as moments_mod
import rmtlaw.montecarlo as montecarlo_mod
from rmtlaw import (
    HSequence,
    SimConfig,
    h_finite,
    h_szego,
    limiting_moment,
    limiting_moment_via_nc,
    model_text,
    nc_partitions,
    parse_model,
    replicate_stream,
    sample_matrix,
)
from rmtlaw.errors import UnsupportedModelError

from benchtrace import NullTracer, patched

ACCEPT_M, ACCEPT_N, ACCEPT_REPS, ACCEPT_KMAX = 150, 300, 200, 4
WIDE_M, WIDE_N, WIDE_REPS = 512, 1024, 10
PREDICT_KMAX = 20
PREDICT_Y = (0.25, 0.5, 1.0, 2.0)
NC_K = 10
# k = 1 empirical mean against predicted_finite; a false alarm at 6 standard
# errors has probability about 2e-9 per op for any valid random stream
MEAN_Z_LIMIT = 6.0
REL_TOL = 1e-9

# a 3-state chain on -1, 0, 1 with a symmetric doubly-stochastic transition,
# so its stationary law is uniform and its mean is zero
CHAIN = {
    "states": [-1.0, 0.0, 1.0],
    "transition": [[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]],
    "stationary": [1 / 3, 1 / 3, 1 / 3],
}

NULL_TRACER = NullTracer()

MODE_FLAGS = {"direct": montecarlo_mod.MODE_DIRECT, "remark1": montecarlo_mod.MODE_REMARK1}


@dataclass
class Op:
    kind: str  # simulate | spectrum | predict | cold
    label: str  # groups ops of one shape: model kind, sampling mode or variant
    argv: list[str]
    items: int  # replicates, moment values, or 1 per cold op
    params: dict = field(default_factory=dict)  # what the argv encodes; workers 0 = default


@dataclass
class Outcome:
    op: Op
    seconds: float
    rc: int
    stdout: str
    error: str | None = None


def model_kind(model) -> str:
    return model_text(model).partition(":")[0]


def _g(value: float) -> str:
    return format(value, ".17g")


# ---------------------------------------------------------------- workloads


def simulate_op(model: str, seed: int, reps=ACCEPT_REPS, workers=1) -> Op:
    m, n = ACCEPT_M, ACCEPT_N
    argv = ["simulate", "--model", model, "--m", str(m), "--n", str(n), "--reps", str(reps),
            "--kmax", str(ACCEPT_KMAX), "--seed", str(seed), "--workers", str(workers), "--quiet"]
    params = dict(model=model, m=m, n=n, reps=reps, kmax=ACCEPT_KMAX, seed=seed, mode="direct",
                  workers=workers)
    return Op("simulate", model.partition(":")[0], argv, reps, params)


def spectrum_op(mode: str, seed: int, reps=WIDE_REPS) -> Op:
    model, m, n = "ar1:p=0.5", WIDE_M, WIDE_N
    argv = ["spectrum", "--model", model, "--m", str(m), "--n", str(n), "--reps", str(reps),
            "--mode", mode, "--seed", str(seed), "--quiet"]
    params = dict(model=model, m=m, n=n, reps=reps, kmax=ACCEPT_KMAX, seed=seed, mode=mode,
                  workers=0)
    return Op("spectrum", mode, argv, reps, params)


def predict_model_op(model: str, y: float, fmt: str) -> Op:
    argv = ["predict", "--model", model, "--y", _g(y), "--kmax", str(PREDICT_KMAX),
            "--format", fmt, "--quiet"]
    return Op("predict", model.partition(":")[0], argv, PREDICT_KMAX, dict(model=model, y=y, fmt=fmt))


def predict_weighted_op(h: list[float], c: float, y: float, fmt: str) -> Op:
    q = [c**l for l in range(1, PREDICT_KMAX + 1)]
    argv = ["predict", "--h", ",".join(map(_g, h)), "--htilde", ",".join(map(_g, q)),
            "--y", _g(y), "--kmax", str(PREDICT_KMAX), "--format", fmt, "--quiet"]
    return Op("predict", "htilde", argv, PREDICT_KMAX, dict(h=h, c=c, y=y, fmt=fmt))


def cold_ops(seed: int) -> list[Op]:
    texts = [
        ["predict", "--model", "ar1:p=0.5", "--y", "0.5", "--kmax", "4", "--quiet"],
        ["nc", "count", "--k", "5", "--sizes", "1:1,2:2", "--quiet"],
        ["nc", "enumerate", "--k", "6", "--quiet"],
        ["simulate", "--model", "ar1:p=0.5", "--m", "20", "--n", "40", "--reps", "2",
         "--seed", str(seed), "--quiet"],
    ]
    return [Op("cold", argv[0] if argv[0] != "nc" else f"nc-{argv[1]}", argv, 1) for argv in texts]


class Workload:
    """One closed-loop workload: ``cycle(index)`` returns the next whole cycle
    of ops, drawn from a generator seeded by the workload seed alone."""

    name = ""

    def __init__(self, seed: int, chain_path: str) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.chain_path = chain_path

    def seed(self) -> int:
        return self.rng.getrandbits(63)

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError


class SimulateAccept(Workload):
    name = "simulate-accept"

    def cycle(self, index):
        models = ["ar1:p=0.5", "twostate:alpha=0.4", "iid:dist=rademacher",
                  f"chain:file={self.chain_path}"]
        return [simulate_op(model, self.seed()) for model in models]


class SpectrumWide(Workload):
    name = "spectrum-wide"

    def cycle(self, index):
        return [spectrum_op(mode, self.seed()) for mode in ("direct", "remark1")]


class PredictTable(Workload):
    name = "predict-table"

    def cycle(self, index):
        rng = self.rng
        ops = []
        for y in PREDICT_Y:
            dist = rng.choice(["rademacher", "standard-gaussian"])
            models = [
                f"ar1:p={rng.uniform(-0.8, 0.8):.6f}",
                f"twostate:alpha={rng.uniform(-0.8, 0.8):.6f}",
                f"iid:dist={dist},var={rng.uniform(0.5, 2.0):.6f}",
            ]
            for model in models:
                ops.append(predict_model_op(model, y, "json" if (index + len(ops)) % 2 else "csv"))
            # trace moments of a two-atom spectral law w*delta_a + (1-w)*delta_b
            a, b, w = rng.uniform(0.2, 1.0), rng.uniform(1.0, 2.5), rng.uniform(0.1, 0.9)
            h = [w * a**l + (1 - w) * b**l for l in range(1, PREDICT_KMAX + 1)]
            fmt = "json" if (index + len(ops)) % 2 else "csv"
            ops.append(predict_weighted_op(h, rng.uniform(0.5, 1.5), y, fmt))
        return ops


class CliCold(Workload):
    name = "cli-cold"

    def cycle(self, index):
        return cold_ops(self.seed())


WORKLOADS = {w.name: w for w in (SimulateAccept, SpectrumWide, PredictTable, CliCold)}


def write_chain(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(CHAIN, fh)


# ---------------------------------------------------------------- running


def run_inprocess(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list[str], env: dict, cwd: str) -> tuple[int, str]:
    """Run a Python child to completion; returns exit code and merged output."""
    proc = subprocess.run([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, env=env, cwd=cwd, check=False)
    return proc.returncode, proc.stdout.decode("utf-8", "replace")


_PEAK_PROBE = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('rmtlaw', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    with open('/proc/self/status', encoding='ascii') as fh:\n"
    "        sys.stderr.write(''.join(line for line in fh if line.startswith('VmHWM:')))\n"
)


def peak_rss_child(argv: list[str], env: dict, cwd: str) -> int:
    """Run ``python -m rmtlaw ARGV`` in a fresh process and return its own
    peak resident set in KiB, read from VmHWM as it exits.  The child's
    ru_maxrss would not do: it also counts the parent's resident set at the
    fork."""
    proc = subprocess.run([sys.executable, "-c", _PEAK_PROBE, *argv], capture_output=True,
                          text=True, env=env, cwd=cwd, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"memory probe {argv} exited {proc.returncode}: {proc.stderr}")
    return int(proc.stderr.rpartition("VmHWM:")[2].split()[0])


# ---------------------------------------------------------------- checks


def _payload(text: str) -> dict:
    doc = json.loads(text)
    doc.pop("runtime_seconds", None)
    return doc


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def check_simulate(op: Op, out: str) -> str | None:
    doc = json.loads(out)
    config, rows = doc["config"], doc["moments"]
    p = op.params
    if (config["m"], config["n"], config["replicates"], config["seed"]) != (
        p["m"], p["n"], p["reps"], p["seed"]):
        return f"config echo {config} does not match the op"
    if [row["k"] for row in rows] != list(range(1, p["kmax"] + 1)):
        return "moment rows are not k = 1..k_max"
    first = rows[0]
    se = first["empirical_stderr"]
    gap = abs(first["empirical_mean"] - first["predicted_finite"])
    # a +-1 chain has (1/m) tr W = 1 on every replicate, so its stderr is
    # rounding noise; the relative slack covers that case
    if gap > MEAN_Z_LIMIT * se + 1e-9 * abs(first["predicted_finite"]):
        return f"k=1 mean is {gap} from predicted_finite, stderr {se}"
    return None


def check_spectrum(op: Op, out: str) -> str | None:
    lines = out.strip().split("\n")
    if lines[0] != "bin_lo,bin_hi,count,density":
        return "unexpected histogram header"
    cells = [line.split(",") for line in lines[1:]]
    total = sum(int(c[2]) for c in cells)
    want = op.params["m"] * op.params["reps"]
    if total != want:
        return f"histogram total {total} != m * reps = {want}"
    mass = sum(float(c[3]) * (float(c[1]) - float(c[0])) for c in cells)
    if abs(mass - 1.0) > 1e-9:
        return f"histogram density integrates to {mass}"
    # the mean eigenvalue is (1/m) tr W, whose expectation is R(0) = 1; bin
    # centres put the histogram's mean within half a bin width of it
    width = float(cells[0][1]) - float(cells[0][0])
    mean = sum(int(c[2]) * (float(c[0]) + float(c[1])) / 2 for c in cells) / total
    if abs(mean - 1.0) > width:
        return f"histogram mean {mean} is more than a bin width from R(0) = 1"
    return None


def _predict_rows(op: Op, out: str) -> list[dict]:
    if op.params["fmt"] == "json":
        return json.loads(out)["rows"]
    lines = out.strip().split("\n")
    cols = lines[0].split(",")
    return [dict(zip(cols, map(float, line.split(",")))) for line in lines[1:]]


def reference_moments(y: float, h: list[float]) -> list[float]:
    """M_1..M_K from M_k = sum_s y^(k-s) k!/(s!(k-s+1)!) [t^k] H(t)^(k-s+1),
    with H(t) = sum_l H_l t^l, by truncated power series: an evaluation that
    shares no code with the program's composition sum."""
    kmax = len(h)
    series = [0.0, *h]
    powers = [[1.0] + [0.0] * kmax]
    for _ in range(kmax):
        prev = powers[-1]
        powers.append([sum(prev[a] * series[d - a] for a in range(d + 1)) for d in range(kmax + 1)])
    fact = math.factorial
    return [sum(y ** (k - s) * fact(k) / (fact(s) * fact(k - s + 1)) * powers[k - s + 1][k]
                for s in range(1, k + 1)) for k in range(1, kmax + 1)]


def _known_h(params: dict) -> dict[int, float]:
    """Trace moments known without the program: the --h input, H_l = var^l
    for i.i.d. entries, and H_1 = 1, H_2 = (1 + r^2)/(1 - r^2) when
    R(j) = r^|j|."""
    if "h" in params:
        return dict(enumerate(params["h"], start=1))
    model = parse_model(params["model"])
    if model_kind(model) == "iid":
        return {l: model.variance**l for l in range(1, PREDICT_KMAX + 1)}
    r = model.p if model_kind(model) == "ar1" else model.alpha
    return {1: 1.0, 2: (1 + r * r) / (1 - r * r)}


def check_predict(op: Op, out: str, tracer, deep: bool) -> str | None:
    """Every op: one finite positive moment per k, H values that agree with
    what is known in closed form, and moments that match an independent
    power-series evaluation.  ``deep`` ops also match the program's exact
    rational evaluation for every k and the non-crossing sum for k <= 10.
    A weighted op has Q_l = c^l, so its moments are c^k times the
    unweighted ones."""
    rows = _predict_rows(op, out)
    if [int(row["k"]) for row in rows] != list(range(1, PREDICT_KMAX + 1)):
        return "moment rows are not k = 1..20"
    if not all(math.isfinite(row["moment"]) and row["moment"] > 0 for row in rows):
        return "a moment is not finite and positive"
    for k, want in _known_h(op.params).items():
        if not _close(rows[k - 1]["h"], want):
            return f"h column at k={k} reads {rows[k - 1]['h']}, expected {want}"
    c = op.params.get("c", 1.0)
    y = op.params["y"]
    reference = reference_moments(y, [row["h"] for row in rows])
    for row, want in zip(rows, reference):
        k = int(row["k"])
        if not _close(row["moment"], c**k * want):
            return f"moment k={k} is {row['moment']}, power series gives {c**k * want}"
    if not deep:
        return None
    if "model" in op.params:
        h = h_szego(parse_model(op.params["model"]), PREDICT_KMAX)
    else:
        h = HSequence(op.params["h"])
    for row in rows:
        k = int(row["k"])
        if not _close(row["h"], h.value(k)):
            return f"h column at k={k} reads {row['h']}, h_szego gives {h.value(k)}"
        with tracer.span("moments.limiting_moment_exact", k=k):
            exact = float(limiting_moment(k, y, h, exact=True))
        if not _close(row["moment"], c**k * exact):
            return f"moment k={k} is {row['moment']}, exact value {c**k * exact}"
        if k <= NC_K:
            with tracer.span("moments.limiting_moment_via_nc", k=k):
                oracle = limiting_moment_via_nc(k, y, h)
            if not _close(row["moment"], c**k * oracle):
                return f"moment k={k} is {row['moment']}, non-crossing sum {c**k * oracle}"
    with tracer.span("combinatorics.nc_partitions", k=NC_K):
        count = len(nc_partitions(NC_K))
    if count != 16796:
        return f"nc_partitions({NC_K}) gave {count} partitions, not Catalan(10)"
    return None


def check_cold(op: Op, out: str) -> str | None:
    rc, inproc = run_inprocess(op.argv)
    if rc != 0:
        return f"in-process run exited {rc}"
    same = _payload(out) == _payload(inproc) if op.label == "simulate" else out == inproc
    if not same:
        return "cold stdout differs from the in-process run"
    # 5! / ((5 - 3 + 1)! 1! 2!) non-crossing partitions of {1..5} with one
    # singleton and two pairs
    if op.label == "nc-count" and int(out) != 10:
        return f"nc count printed {out.strip()}"
    if op.label == "nc-enumerate" and len(out.splitlines()) != 132:
        return "nc enumerate --k 6 did not print Catalan(6) partitions"
    return None


def check_workers(op: Op, out: str) -> str | None:
    """The same simulate op at the default worker count must give a
    byte-identical payload."""
    argv = list(op.argv)
    argv[argv.index("--workers") + 1] = "0"
    rc, again = run_inprocess(argv)
    if rc != 0:
        return f"default-worker rerun exited {rc}"
    one = json.dumps(_payload(out), sort_keys=True)
    if one != json.dumps(_payload(again), sort_keys=True):
        return "payload differs between --workers 1 and the default worker count"
    return None


# ---------------------------------------------------------------- tracing


def philox_position(stream) -> int:
    """64-bit draws taken so far from a Philox stream: four per counter step,
    less what is still buffered."""
    state = stream.bit_generator.state
    counter = sum(int(word) << (64 * i) for i, word in enumerate(state["state"]["counter"]))
    return 4 * counter + int(state["buffer_pos"]) - 4


@contextlib.contextmanager
def library_spans(tracer):
    """Record spans around the public library calls that ``cli`` and
    ``montecarlo`` resolve through their module globals.  Only used where
    the calls run on the benchmark's own thread."""
    sample_paths = montecarlo_mod.sample_paths

    def traced_sample_paths(model, m, count, stream):
        before = philox_position(stream)
        with tracer.span("models.sample_paths", model=model_kind(model), entries=m * count) as span:
            x = sample_paths(model, m, count, stream)
        span.attrs["uniforms"] = philox_position(stream) - before
        return x

    def k_of(k, *args):
        return {"k": k}

    with contextlib.ExitStack() as stack:
        stack.enter_context(patched(montecarlo_mod, "sample_paths", traced_sample_paths))
        stack.enter_context(patched(montecarlo_mod, "covariance_matrix", tracer.wrap(
            "models.covariance_matrix", montecarlo_mod.covariance_matrix,
            lambda model, m: {"m": m})))
        stack.enter_context(patched(cli, "h_szego", tracer.wrap(
            "models.h_szego", cli.h_szego, lambda model, k_max: {"k": k_max})))
        stack.enter_context(patched(cli, "limiting_moment", tracer.wrap(
            "moments.limiting_moment", cli.limiting_moment, k_of)))
        stack.enter_context(patched(cli, "qform_moment", tracer.wrap(
            "moments.qform_moment", cli.qform_moment, k_of)))
        stack.enter_context(patched(moments_mod, "enumerate_compositions", tracer.wrap(
            "combinatorics.enumerate_compositions", moments_mod.enumerate_compositions,
            lambda k, s: {"k": k, "s": s})))
        yield


def _sim_config(op: Op) -> SimConfig:
    p = op.params
    return SimConfig(model=parse_model(p["model"]), m=p["m"], n=p["n"], k_max=p["kmax"],
                     replicates=p["reps"], seed=p["seed"], mode=MODE_FLAGS[p["mode"]])


def replay_monte_carlo(tracer, op: Op) -> None:
    """Repeat a simulate or spectrum op's work, one replicate at a time, through
    the public functions ``run_monte_carlo`` and ``sample_spectra`` use:
    predictions, then per replicate its stream, ``sample_matrix``, the Gram
    product and the reduction."""
    config = _sim_config(op)
    kind = model_kind(config.model)
    mode = op.params["mode"]
    k_max = config.k_max
    if op.kind == "simulate":
        with tracer.span("montecarlo.predict"):
            with tracer.span("models.h_finite", m=config.m):
                finite = h_finite(config.model, config.m, k_max)
            with tracer.span("models.h_szego", k=k_max):
                try:
                    limit = h_szego(config.model, k_max)
                except UnsupportedModelError:
                    limit = None
            for k in range(1, k_max + 1):
                for h in (finite, limit):
                    if h is not None:
                        with tracer.span("moments.limiting_moment", k=k):
                            limiting_moment(k, config.y, h)
    with library_spans(tracer):
        for rep in range(config.replicates):
            with tracer.span("montecarlo.replicate", rep=rep, mode=mode):
                with tracer.span("montecarlo.replicate_stream"):
                    stream = replicate_stream(config.seed, rep)
                with tracer.span("montecarlo.sample_matrix", model=kind, mode=mode):
                    x = sample_matrix(config, rep, stream)
                with tracer.span("montecarlo.gram", m=config.m, n=config.n, mode=mode):
                    w = (x @ x.T) / config.n
                with tracer.span("montecarlo.reduce", mode=mode):
                    eig = np.linalg.eigvalsh(w)
                    if op.kind == "simulate":
                        (eig[None, :] ** np.arange(1, k_max + 1)[:, None]).mean(axis=1)


_IMPORT_PROBE = (
    "import time, json\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import rmtlaw, rmtlaw.cli\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps([t1 - t0, t2 - t1]))\n"
)


def replay_cold(tracer, env: dict, root: str) -> None:
    """Split a cold op's start-up: a bare interpreter, then a child that times
    ``import numpy`` and ``import rmtlaw`` from inside."""
    with tracer.span("cli.interpreter"):
        rc, out = run_child(["-c", "pass"], env, root)
    if rc != 0:
        raise RuntimeError(f"bare interpreter exited {rc}: {out}")
    with tracer.span("cli.import_probe") as span:
        rc, out = run_child(["-c", _IMPORT_PROBE], env, root)
    if rc != 0:
        raise RuntimeError(f"import probe exited {rc}: {out}")
    numpy_s, rmtlaw_s = json.loads(out.strip().splitlines()[-1])
    span.attrs.update(numpy_ns=int(numpy_s * 1e9), rmtlaw_ns=int(rmtlaw_s * 1e9))
