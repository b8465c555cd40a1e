"""Per-layer metrics of a traced run, computed from its spans.

Each metric is taken from the spans of the workload's own ops when they
exercise that layer, and otherwise from the sweep (one traced op of every
shape), so every traced run reports every metric.  Times are medians over
spans; op-level ratios are medians over ops.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from benchtrace import Span, self_times

MODELS = ("ar1", "twostate", "iid", "chain")


class View:
    """The spans of one source (workload or sweep), indexed by name."""

    def __init__(self, spans: list[Span], selfs: list[int], keep) -> None:
        self.by_name: dict[str, list[tuple[int, Span]]] = defaultdict(list)
        self.by_op: dict[str, list[Span]] = defaultdict(list)
        self.children: dict[int, list[Span]] = defaultdict(list)
        self.selfs = selfs
        for index, span in enumerate(spans):
            if keep(span.op):
                self.by_name[span.name].append((index, span))
                self.by_op[span.op].append(span)
                if span.parent is not None:
                    self.children[span.parent].append(span)

    def select(self, name: str, **attrs) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in self.by_name[name]
                if all(s.attrs.get(k) == v for k, v in attrs.items())]

    def ms(self, name: str, **attrs) -> list[float]:
        return [s.ns / 1e6 for _, s in self.select(name, **attrs)]

    def monte_carlo_ops(self):
        """(real call, replayed predict ns, replayed replicate ns) per
        simulate or spectrum op."""
        for spans in self.by_op.values():
            mains = [s for s in spans
                     if s.name == "cli.main" and s.attrs["kind"] in ("simulate", "spectrum")]
            if mains:
                predict = sum(s.ns for s in spans if s.name == "montecarlo.predict")
                reps = sum(s.ns for s in spans if s.name == "montecarlo.replicate")
                yield mains[0], predict, reps


def _med(values):
    values = list(values)
    return median(values) if values else None


def _gram_gflop(v: View):
    spans = v.select("montecarlo.gram", mode="direct")
    return _med(2 * s.attrs["m"] ** 2 * s.attrs["n"] / 1e9 for _, s in spans)


def _gram_gflops(v: View):
    # 2 m^2 n flops per ns is GFLOP/s
    spans = v.select("montecarlo.gram", mode="direct")
    return _med(2 * s.attrs["m"] ** 2 * s.attrs["n"] / s.ns for _, s in spans)


def _fanout_speedup(v: View):
    return _med(reps / (main.ns - predict) for main, predict, reps in v.monte_carlo_ops())


def _fanout_workers(v: View):
    return _med(main.attrs["workers"] for main, _, _ in v.monte_carlo_ops())


def _unaccounted(v: View):
    return _med(abs(main.ns - predict - reps) / main.ns
                for main, predict, reps in v.monte_carlo_ops() if main.attrs["workers"] == 1)


def _compositions_k20(v: View):
    return _med(sum(c.ns for c in v.children[i] if c.name == "combinatorics.enumerate_compositions")
                / 1e6 for i, _ in v.select("moments.limiting_moment", k=20))


def _probe_ms(key: str):
    return lambda v: _med(s.attrs[key] / 1e6 for _, s in v.select("cli.import_probe"))


def _dispatch(v: View):
    out = []
    for spans in v.by_op.values():
        named = {s.name: s for s in spans}
        main = named.get("cli.main")
        if main is not None and main.attrs["kind"] == "cold" and "cli.import_probe" in named:
            probe = named["cli.import_probe"]
            startup = named["cli.interpreter"].ns + probe.attrs["numpy_ns"] + probe.attrs["rmtlaw_ns"]
            out.append((main.ns - startup) / 1e6)
    return _med(out)


def _cli_self(v: View):
    return _med(v.selfs[i] / 1e6 for i, _ in v.select("cli.main", kind="predict"))


def _spans_ms(name: str, **attrs):
    return lambda v: _med(v.ms(name, **attrs))


METRICS: list[tuple[str, str, object]] = []
for _kind in MODELS:
    METRICS.append((f"montecarlo.sample_matrix.ms.{_kind}", "ms",
                    _spans_ms("montecarlo.sample_matrix", model=_kind, mode="direct")))
for _kind in MODELS:
    METRICS.append((f"models.sample_paths.ns_per_entry.{_kind}", "ns", lambda v, k=_kind: _med(
        s.ns / s.attrs["entries"] for _, s in v.select("models.sample_paths", model=k))))
for _kind in MODELS:
    METRICS.append((f"models.sample_paths.uniforms_per_entry.{_kind}", "count", lambda v, k=_kind: _med(
        s.attrs["uniforms"] / s.attrs["entries"] for _, s in v.select("models.sample_paths", model=k))))
METRICS += [
    ("montecarlo.sample_matrix.ms.remark1", "ms", _spans_ms("montecarlo.sample_matrix", mode="remark1")),
    ("models.covariance_matrix.ms.m512", "ms", _spans_ms("models.covariance_matrix", m=512)),
    ("montecarlo.gram.ms", "ms", _spans_ms("montecarlo.gram", mode="direct")),
    ("montecarlo.gram.gflop", "GFLOP", _gram_gflop),
    ("montecarlo.gram.gflops", "GFLOP/s", _gram_gflops),
    ("montecarlo.reduce.ms", "ms", _spans_ms("montecarlo.reduce", mode="direct")),
    ("montecarlo.fanout.speedup", "ratio", _fanout_speedup),
    ("montecarlo.fanout.workers", "count", _fanout_workers),
    ("montecarlo.replicate_stream.us", "us",
     lambda v: _med(x * 1e3 for x in v.ms("montecarlo.replicate_stream"))),
    ("montecarlo.predict.ms", "ms", _spans_ms("montecarlo.predict")),
    ("models.h_finite.ms.m150", "ms", _spans_ms("models.h_finite", m=150)),
    ("models.h_szego.ms.k20", "ms", _spans_ms("models.h_szego", k=20)),
    ("moments.limiting_moment.ms.k4", "ms", _spans_ms("moments.limiting_moment", k=4)),
    ("moments.limiting_moment.ms.k12", "ms", _spans_ms("moments.limiting_moment", k=12)),
    ("moments.limiting_moment.ms.k20", "ms", _spans_ms("moments.limiting_moment", k=20)),
    ("moments.limiting_moment_exact.ms.k20", "ms", _spans_ms("moments.limiting_moment_exact", k=20)),
    ("moments.qform_moment.ms.k20", "ms", _spans_ms("moments.qform_moment", k=20)),
    ("moments.limiting_moment_via_nc.ms.k10", "ms", _spans_ms("moments.limiting_moment_via_nc", k=10)),
    ("combinatorics.enumerate_compositions.ms.k20", "ms", _compositions_k20),
    ("combinatorics.nc_partitions.ms.k10", "ms", _spans_ms("combinatorics.nc_partitions", k=10)),
    ("cli.interpreter_ms", "ms", _spans_ms("cli.interpreter")),
    ("cli.import_numpy_ms", "ms", _probe_ms("numpy_ns")),
    ("cli.import_rmtlaw_ms", "ms", _probe_ms("rmtlaw_ns")),
    ("cli.dispatch_ms", "ms", _dispatch),
    ("cli.self_ms", "ms", _cli_self),
    ("montecarlo.unaccounted_share", "share", _unaccounted),
]


def per_layer(tracer, plain, traced) -> tuple[dict, dict]:
    """name -> (value, unit), and name -> where the value came from."""
    selfs = self_times(tracer.spans)
    workload = View(tracer.spans, selfs, lambda op: not op.startswith("sweep"))
    sweep = View(tracer.spans, selfs, lambda op: op.startswith("sweep"))
    metrics, sources = {}, {}
    for name, unit, fn in METRICS:
        value, source = fn(workload), "workload"
        if value is None:
            value, source = fn(sweep), "sweep"
        if value is None:
            raise RuntimeError(f"no spans for per-layer metric {name}")
        metrics[name], sources[name] = (float(value), unit), source
    # tracing cost on the real call: traced against untraced cycles of the
    # same shapes
    untraced = median(o.seconds for o in plain)
    metrics["trace.overhead_share"] = (median(o.seconds for o in traced) / untraced - 1, "share")
    sources["trace.overhead_share"] = f"{len(traced)} traced vs {len(plain)} untraced ops"
    return metrics, sources
