"""Monte Carlo verification of the predicted spectral moments.

Each replicate draws an m x n matrix X whose columns are independent
stationary paths, forms W = (1/n) X X^T, and records the spectral moments
(1/m) tr(W^k).  Replicates use counter-based Philox substreams keyed by
(seed, replicate), so results are reproducible and independent of the worker
count.  ``run_monte_carlo`` lines the empirical means up against the
finite-window and limiting predictions in a JSON-ready report.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import BudgetError, DomainError, NumericError
from .models import (
    MAX_SZEGO_DECAY,
    StationaryModel,
    _fmt,
    _sig12,
    covariance_matrix,
    decay_rate,
    h_finite,
    h_szego,
    model_text,
    sample_paths,
)
from .moments import DEFAULT_MAX_K, limiting_moment

DEFAULT_MAX_M = 512
DEFAULT_MAX_N = 1024
DEFAULT_MAX_REPLICATES = 1000

# Version of the draws a replicate takes from its stream: the Philox key, the
# model samplers and the remark1 draw.  Stream 2 takes numpy's ziggurat for
# Gaussian entries, one raw bit per Rademacher sign, and one uniform per chain
# step.
SAMPLER_STREAM = 2

MODE_DIRECT = "direct"
MODE_REMARK1 = "remark1-gaussian"


def replicate_stream(seed: int, replicate: int) -> np.random.Generator:
    """Philox substream keyed by (seed, replicate): replicate r produces the
    same draws no matter which worker runs it."""
    key = np.array([seed, replicate], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimConfig:
    """One simulation setup: model, matrix shape, moment orders, replication."""

    model: StationaryModel
    m: int
    n: int
    k_max: int = 4
    replicates: int = 100
    seed: int = 0
    mode: str = MODE_DIRECT

    def __post_init__(self) -> None:
        if self.m < 2 or self.n < 2:
            raise DomainError(f"need m >= 2 and n >= 2, got m={self.m}, n={self.n}")
        if not 1 <= self.k_max <= DEFAULT_MAX_K:
            raise DomainError(f"need 1 <= k_max <= {DEFAULT_MAX_K}, got {self.k_max}")
        if self.replicates < 1:
            raise DomainError(f"need replicates >= 1, got {self.replicates}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.mode not in (MODE_DIRECT, MODE_REMARK1):
            raise DomainError(f"mode must be {MODE_DIRECT!r} or {MODE_REMARK1!r}, got {self.mode!r}")

    @property
    def y(self) -> float:
        return self.m / self.n


def check_shape(m: int, n: int, force: bool = False) -> None:
    """Refuse an m x n matrix past the size caps unless forced."""
    if force:
        return
    if m > DEFAULT_MAX_M:
        raise BudgetError(f"m = {m} exceeds the cap {DEFAULT_MAX_M}; pass force to override")
    if n > DEFAULT_MAX_N:
        raise BudgetError(f"n = {n} exceeds the cap {DEFAULT_MAX_N}; pass force to override")


def check_budget(config: SimConfig, force: bool = False) -> None:
    """Refuse a run past the caps m <= 512, n <= 1024 and replicates <= 1000
    unless forced."""
    if force:
        return
    check_shape(config.m, config.n)
    if config.replicates > DEFAULT_MAX_REPLICATES:
        raise BudgetError(
            f"replicates = {config.replicates} exceeds the cap {DEFAULT_MAX_REPLICATES}; "
            "pass force to override"
        )


def sample_matrix(
    config: SimConfig, replicate: int, stream: np.random.Generator | None = None
) -> np.ndarray:
    """The m x n data matrix for one replicate.

    Direct mode draws n independent model paths.  The remark1-gaussian mode
    replaces them with Gaussian columns of the same covariance window,
    T_m^(1/2) Z, using a Cholesky square root.
    """
    if stream is None:
        stream = replicate_stream(config.seed, replicate)
    if config.mode == MODE_DIRECT:
        return sample_paths(config.model, config.m, config.n, stream)
    t = covariance_matrix(config.model, config.m)
    try:
        root = np.linalg.cholesky(t)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"covariance window is not positive definite: {exc}") from exc
    return root @ stream.standard_normal((config.m, config.n))


def _replicate_eigenvalues(config: SimConfig, replicate: int) -> np.ndarray:
    x = sample_matrix(config, replicate)
    w = (x @ x.T) / config.n
    try:
        return np.linalg.eigvalsh(w)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed on replicate {replicate}: {exc}") from exc


def _replicate_moments(config: SimConfig, replicate: int) -> np.ndarray:
    """(1/m) tr W^k, k = 1..k_max, for one replicate, from traces rather than
    eigenvalues.  W is formed on the smaller side, X X^T / n when m <= n and
    else X^T X / n, which has the same traces.  With W^1..W^ceil(k_max/2) in
    hand, tr W^k = <W^floor(k/2), W^ceil(k/2)>.  tr W is taken as the sum of
    the squared entries over n, which is exact when the entries are +-1."""
    x = sample_matrix(config, replicate)
    gram = x @ x.T if config.m <= config.n else x.T @ x
    w = gram / config.n
    powers = [w]
    for _ in range((config.k_max + 1) // 2 - 1):
        powers.append(powers[-1] @ w)
    traces = [np.trace(gram) / config.n]
    for k in range(2, config.k_max + 1):
        traces.append(np.vdot(powers[k // 2 - 1], powers[(k + 1) // 2 - 1]))
    moments = np.array(traces) / config.m
    if not np.isfinite(moments).all():
        raise NumericError(f"spectral moments of replicate {replicate} are not finite: {moments}")
    return moments


def _map_replicates(per_replicate, config: SimConfig, workers: int) -> list[np.ndarray]:
    """``per_replicate(config, replicate)`` for every replicate, in replicate order.
    One worker runs them on the caller's thread, more run them on a thread
    pool; each replicate draws from its own (seed, replicate) stream, so the
    result does not depend on the worker count."""
    if workers < 1:
        raise DomainError(f"need workers >= 1, got {workers}")
    if workers == 1:
        return [per_replicate(config, rep) for rep in range(config.replicates)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(partial(per_replicate, config), range(config.replicates)))


@dataclass(frozen=True)
class MomentRow:
    """Predictions and the empirical estimate for one moment order."""

    k: int
    predicted_limit: float | None
    predicted_finite: float
    empirical_mean: float
    empirical_stderr: float


@dataclass(frozen=True)
class MomentReport:
    """Full outcome of one Monte Carlo run."""

    config: SimConfig
    moments: tuple[MomentRow, ...]
    runtime_seconds: float

    def config_dict(self) -> dict:
        return {
            "model": model_text(self.config.model),
            "m": self.config.m,
            "n": self.config.n,
            "replicates": self.config.replicates,
            "k_max": self.config.k_max,
            "seed": self.config.seed,
            "mode": self.config.mode,
        }

    def payload(self) -> dict:
        """Config and moments only: the deterministic part of the report."""
        rows = []
        for row in self.moments:
            rows.append(
                {
                    "k": row.k,
                    "predicted_limit": None
                    if row.predicted_limit is None
                    else _sig12(row.predicted_limit),
                    "predicted_finite": _sig12(row.predicted_finite),
                    "empirical_mean": _sig12(row.empirical_mean),
                    "empirical_stderr": _sig12(row.empirical_stderr),
                }
            )
        return {"config": self.config_dict(), "moments": rows}

    def provenance(self) -> dict:
        """Where the draws came from: the sampler stream and numpy's version."""
        return {"sampler_stream": SAMPLER_STREAM, "numpy": np.__version__}

    def to_json(self, include_runtime: bool = True) -> str:
        """The payload, and unless ``include_runtime`` is false, the run time
        and the provenance next to it."""
        doc = self.payload()
        if include_runtime:
            doc["runtime_seconds"] = _sig12(self.runtime_seconds)
            doc["provenance"] = self.provenance()
        return json.dumps(doc, indent=2) + "\n"


def run_monte_carlo(config: SimConfig, workers: int = 1, force: bool = False) -> MomentReport:
    """Run all replicates and assemble the report.

    The limiting prediction uses the limiting trace moments of ``h_szego``
    when the model's decay rate is at most 0.95, else null.  The finite
    prediction uses the eigenvalues of the m-window covariance.  Each
    replicate reduces to its k_max moments through traces of powers of W,
    without an eigendecomposition.  Replicates are farmed out to a thread
    pool but gathered by index, so the report is identical for any worker
    count.
    """
    check_budget(config, force=force)
    start = time.monotonic()
    finite = h_finite(config.model, config.m, config.k_max)
    limit_values: tuple[float, ...] | None = None
    if decay_rate(config.model) <= MAX_SZEGO_DECAY:
        limit_values = h_szego(config.model, config.k_max).values

    y = config.y
    predicted_finite = [limiting_moment(k, y, finite) for k in range(1, config.k_max + 1)]
    predicted_limit = (
        None
        if limit_values is None
        else [limiting_moment(k, y, limit_values) for k in range(1, config.k_max + 1)]
    )

    samples = np.array(_map_replicates(_replicate_moments, config, workers))
    means = samples.mean(axis=0)
    if config.replicates > 1:
        stderrs = samples.std(axis=0, ddof=1) / math.sqrt(config.replicates)
    else:
        stderrs = np.zeros(config.k_max)

    rows = tuple(
        MomentRow(
            k=k,
            predicted_limit=None if predicted_limit is None else predicted_limit[k - 1],
            predicted_finite=predicted_finite[k - 1],
            empirical_mean=float(means[k - 1]),
            empirical_stderr=float(stderrs[k - 1]),
        )
        for k in range(1, config.k_max + 1)
    )
    return MomentReport(config=config, moments=rows, runtime_seconds=time.monotonic() - start)


def sample_spectra(config: SimConfig, workers: int = 1, force: bool = False) -> list[np.ndarray]:
    """The eigenvalues of W for every replicate, in replicate order."""
    check_budget(config, force=force)
    return _map_replicates(_replicate_eigenvalues, config, workers)


@dataclass(frozen=True)
class Histogram:
    """Pooled eigenvalue histogram, density-normalized over the range."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    density: tuple[float, ...]
    total: int

    def to_csv(self) -> str:
        lines = ["bin_lo,bin_hi,count,density"]
        for i, count in enumerate(self.counts):
            lines.append(
                f"{_fmt(self.bin_edges[i])},{_fmt(self.bin_edges[i + 1])},"
                f"{count},{_fmt(self.density[i])}"
            )
        return "\n".join(lines) + "\n"


def _histogram_from_values(values: np.ndarray, bins: int, lo: float, hi: float) -> Histogram:
    if bins < 1:
        raise DomainError(f"need bins >= 1, got {bins}")
    if not hi > lo:
        raise DomainError(f"need hi > lo, got [{lo}, {hi}]")
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    inside = int(counts.sum())
    width = (hi - lo) / bins
    if inside:
        density = counts / (inside * width)
    else:
        density = np.zeros(bins)
    return Histogram(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        density=tuple(float(d) for d in density),
        total=int(values.size),
    )


def eigenvalue_histogram(
    config: SimConfig,
    bins: int = 50,
    value_range: tuple[float, float] | None = None,
    workers: int = 1,
    force: bool = False,
) -> Histogram:
    """Histogram of all replicate eigenvalues pooled together.  The default
    range is [0, 1.05 * max eigenvalue]."""
    spectra = sample_spectra(config, workers=workers, force=force)
    values = np.concatenate(spectra)
    if value_range is None:
        top = float(values.max())
        value_range = (0.0, 1.05 * top if top > 0 else 1.0)
    return _histogram_from_values(values, bins, float(value_range[0]), float(value_range[1]))
