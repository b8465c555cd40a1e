"""Stationary column-process models and their covariance structure.

Four variants: symmetric i.i.d. entries, the Gaussian AR(1) process, the
symmetric two-state Markov chain, and user-supplied finite Markov chains.
All have zero mean and geometrically decaying autocovariance R(j), so the
m x m covariance of a length-m window is the Toeplitz matrix R(|i - i'|).
Each variant is one class that owns its autocovariances, decay rate, path
sampler and text form.

Trace moments H_k come either from eigenvalues of a finite window
(``h_finite``) or, in the limit, from the autocovariances alone
(``h_szego``; H_k = integral of f^k over one period, f the spectral
density sum_j R(j) exp(2 pi i j x)).  ``isserlis_moment``
and ``chain_joint_moment`` give exact joint moments for the Gaussian and
finite-chain cases and power the simulator cross-checks;
``expected_moments`` gives the exact finite-(m, n) spectral moments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product
from typing import Sequence

import numpy as np

from .combinatorics import Partition, enumerate_partitions
from .errors import BoundError, DomainError, NumericError, ParseError
from .moments import DEFAULT_MAX_K, ORIGIN_SZEGO, HSequence, finite_trace_origin

RADEMACHER = "rademacher"
STANDARD_GAUSSIAN = "standard-gaussian"

MAX_SZEGO_DECAY = 0.95

MAX_ISSERLIS_INDICES = 12
MAX_JOINT_INDICES = 12
MAX_CHAIN_INDEX = 10_000
MAX_EXPECTED_K = 4
MAX_TRANSFER_ENTRIES = 1 << 20

_ROW_SUM_TOL = 1e-12
_STATIONARY_TOL = 1e-10
_MEAN_TOL = 1e-10


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _sig12(value: float) -> float:
    return float(_fmt(value))


def _power_means(eig: np.ndarray, k_max: int) -> np.ndarray:
    """(1/m) sum_i eig_i^k for k = 1..k_max: the k-th spectral moment of a
    symmetric matrix with eigenvalues ``eig``.  Raises ``NumericError`` when
    a moment overflows a float."""
    with np.errstate(over="ignore", invalid="ignore"):
        means = (eig[None, :] ** np.arange(1, k_max + 1)[:, None]).mean(axis=1)
    if not np.isfinite(means).all():
        raise NumericError(f"spectral moments up to order {k_max} overflow a float: {means}")
    return means


class StationaryModel:
    """A zero-mean stationary column process.  Each model defines
    ``autocovariances(max_lag)``, ``decay_rate()``, ``sample_paths(m, count,
    stream)`` and ``text()``, and may override the default below; the
    module-level functions of the same names check arguments and call these.
    """

    def chain_form(self) -> FiniteMarkovChain | None:
        """The process as an explicit finite-state chain; None if Gaussian."""
        return None


class _GeometricModel(StationaryModel):
    """A model with R(j) = variance * rho^|j|."""

    variance = 1.0
    rho = 0.0

    def autocovariances(self, max_lag: int) -> np.ndarray:
        return self.variance * np.float64(self.rho) ** np.arange(max_lag + 1)

    def decay_rate(self) -> float:
        return abs(self.rho)


@dataclass(frozen=True)
class IIDSymmetric(_GeometricModel):
    """Independent symmetric entries with the given variance."""

    distribution: str = RADEMACHER
    variance: float = 1.0

    def __post_init__(self) -> None:
        if self.distribution not in (RADEMACHER, STANDARD_GAUSSIAN):
            raise DomainError(
                f"distribution must be {RADEMACHER!r} or {STANDARD_GAUSSIAN!r}, "
                f"got {self.distribution!r}"
            )
        v = float(self.variance)
        if not (math.isfinite(v) and v > 0):
            raise DomainError(f"variance must be positive, got {self.variance!r}")
        object.__setattr__(self, "variance", v)

    def sample_paths(self, m: int, count: int, stream: np.random.Generator) -> np.ndarray:
        sig = math.sqrt(self.variance)
        if self.distribution == STANDARD_GAUSSIAN:
            return sig * stream.standard_normal((m, count))
        # one raw bit per sign: entry i takes bit i % 64, least significant
        # first, of word i // 64; a set bit is +sig.  Both 2 sig - sig and
        # 0 - sig are exact.
        total = m * count
        words = stream.bit_generator.random_raw(-(-total // 64))
        bits = np.unpackbits(
            words.astype("<u8", copy=False).view(np.uint8), count=total, bitorder="little"
        )
        x = bits.reshape(m, count).astype(np.float64)
        x *= 2.0 * sig
        x -= sig
        return x

    def text(self) -> str:
        return f"iid:dist={self.distribution},var={_fmt(self.variance)}"

    def chain_form(self) -> FiniteMarkovChain | None:
        """Rademacher entries are a chain on +-sqrt(var) that forgets its state."""
        if self.distribution != RADEMACHER:
            return None
        s = math.sqrt(self.variance)
        return FiniteMarkovChain(
            states=(s, -s), transition=((0.5, 0.5), (0.5, 0.5)), stationary=(0.5, 0.5)
        )


@dataclass(frozen=True)
class GaussianAR1(_GeometricModel):
    """Stationary Gaussian sequence with Cov(a_i, a_i') = p^|i - i'|."""

    p: float
    rho = property(lambda self: self.p)

    def __post_init__(self) -> None:
        p = float(self.p)
        if not (math.isfinite(p) and abs(p) < 1):
            raise DomainError(f"AR(1) coefficient needs |p| < 1, got {self.p!r}")
        object.__setattr__(self, "p", p)

    def sample_paths(self, m: int, count: int, stream: np.random.Generator) -> np.ndarray:
        # x[i] = p * x[i-1] + c * z[i], built in place in z: the same two
        # products and the same (commutative) sum per entry
        x = stream.standard_normal((m, count))
        x[1:] *= math.sqrt(1.0 - self.p * self.p)
        for i in range(1, m):
            x[i] += self.p * x[i - 1]
        return x

    def text(self) -> str:
        return f"ar1:p={_fmt(self.p)}"


@dataclass(frozen=True)
class TwoStateChain(_GeometricModel):
    """Stationary Markov chain on {+1, -1} staying put with probability
    (1 + alpha)/2, so Cov(a_1, a_{1+j}) = alpha^j."""

    alpha: float
    rho = property(lambda self: self.alpha)

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not (math.isfinite(a) and -1 < a < 1):
            raise DomainError(f"two-state parameter needs -1 < alpha < 1, got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)

    def sample_paths(self, m: int, count: int, stream: np.random.Generator) -> np.ndarray:
        # row 0 is the stationary draw, later rows flip the sign or keep it;
        # products of +-1 are exact, so one running product gives the path
        u = stream.random((m, count))
        signs = np.where(u < (1.0 + self.alpha) / 2.0, 1.0, -1.0)
        signs[0] = np.where(u[0] < 0.5, 1.0, -1.0)
        return np.cumprod(signs, axis=0, out=signs)

    def text(self) -> str:
        return f"twostate:alpha={_fmt(self.alpha)}"

    def chain_form(self) -> FiniteMarkovChain:
        stay = (1.0 + self.alpha) / 2.0
        flip = (1.0 - self.alpha) / 2.0
        return FiniteMarkovChain(
            states=(1.0, -1.0),
            transition=((stay, flip), (flip, stay)),
            stationary=(0.5, 0.5),
        )


@dataclass(frozen=True)
class FiniteMarkovChain(StationaryModel):
    """Stationary chain on user-supplied real state values.

    ``transition`` must be row-stochastic (rows sum to 1 within 1e-12),
    ``stationary`` must be an invariant probability vector (within 1e-10),
    and the stationary mean of the state values must vanish.
    """

    states: tuple[float, ...]
    transition: tuple[tuple[float, ...], ...]
    stationary: tuple[float, ...]
    source: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        states = tuple(float(s) for s in self.states)
        transition = tuple(tuple(float(x) for x in row) for row in self.transition)
        stationary = tuple(float(x) for x in self.stationary)
        n = len(states)
        if n < 2:
            raise DomainError("a finite chain needs at least two states")
        if len(transition) != n or any(len(row) != n for row in transition):
            raise DomainError(f"transition matrix must be {n}x{n}")
        if len(stationary) != n:
            raise DomainError(f"stationary vector must have length {n}")
        if any(x < 0 for row in transition for x in row):
            raise DomainError("transition probabilities must be nonnegative")
        if any(x < 0 for x in stationary):
            raise DomainError("stationary probabilities must be nonnegative")
        for i, row in enumerate(transition):
            if abs(sum(row) - 1.0) > _ROW_SUM_TOL:
                raise DomainError(f"transition row {i} sums to {sum(row)!r}, not 1")
        if abs(sum(stationary) - 1.0) > _ROW_SUM_TOL:
            raise DomainError("stationary probabilities must sum to 1")
        pi = np.array(stationary)
        pmat = np.array(transition)
        if np.abs(pi @ pmat - pi).max() > _STATIONARY_TOL:
            raise DomainError("stationary vector is not invariant under the transition matrix")
        if abs(float(pi @ np.array(states))) > _MEAN_TOL:
            raise DomainError("state values must have zero stationary mean")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "stationary", stationary)

    def autocovariances(self, max_lag: int) -> np.ndarray:
        pi = np.array(self.stationary)
        states = np.array(self.states)
        pmat = np.array(self.transition)
        left = pi * states
        w = states.copy()
        out = np.empty(max_lag + 1)
        for j in range(max_lag + 1):
            out[j] = left @ w
            w = pmat @ w
        return out

    def decay_rate(self) -> float:
        """The second-largest transition eigenvalue modulus."""
        mods = np.sort(np.abs(np.linalg.eigvals(np.array(self.transition))))[::-1]
        return float(mods[1])

    @cached_property
    def _cum_rows(self) -> np.ndarray:
        return np.cumsum(np.array(self.transition), axis=1)

    @cached_property
    def _thresholds(self) -> np.ndarray:
        """The distinct cumulative transition thresholds; a row's last one
        only moves the next-state count past the cap, so it is left out."""
        return np.unique(self._cum_rows[:, :-1])

    @cached_property
    def _successor(self) -> np.ndarray:
        """Flat (state, code) table of the next state's offset, state *
        (len(_thresholds) + 1), where a draw's code is the number of
        distinct thresholds at or below it."""
        edges = np.concatenate(([-np.inf], self._thresholds))
        table = np.empty((len(self.states), len(edges)), dtype=np.intp)
        for s, row in enumerate(self._cum_rows):
            table[s] = np.searchsorted(row[:-1], edges, side="right")
        table *= len(edges)
        return table.ravel()

    @property
    def _grid(self) -> int:
        """The cell count of ``_coder``: the least power of two holding 64
        cells per threshold."""
        return 1 << (64 * len(self._thresholds) - 1).bit_length()

    @cached_property
    def _coder(self) -> tuple[np.ndarray, np.ndarray]:
        """(scaled thresholds, cell table) that code a draw u without a
        search.  The grid has G = ``_grid`` cells, a power of two, so u * G
        and the thresholds times G are exact and keep their order.
        Cell c = floor(u * G) covers [c/G, (c+1)/G): its entry is the number
        of thresholds at or below c/G, which is every draw's code unless a
        threshold lies strictly inside the cell.  Those few cells hold -1,
        and their draws are searched."""
        grid = self._grid
        scaled = self._thresholds * grid
        table = np.searchsorted(scaled, np.arange(grid, dtype=np.float64), side="right")
        inside = scaled[(scaled < grid) & (scaled != np.floor(scaled))]
        table[inside.astype(np.intp)] = -1
        return scaled, table

    def sample_paths(self, m: int, count: int, stream: np.random.Generator) -> np.ndarray:
        """Entry (i, c) leaves state s for the count of row s's cumulative
        thresholds at or below u[i, c], capped at the last state.  That count
        depends on u only through its code, the number of distinct thresholds
        at or below u.  When the (state, code) successor table and the cell
        table of ``_coder`` together are no larger than the draws, every draw
        is coded up front and the walk takes one add and one ``take`` per row.
        Larger tables (the successor table grows as states^3) are never
        built: the rows are then compared one at a time.  Both routes give
        the same draws."""
        states = np.array(self.states)
        last = len(states) - 1
        u = stream.random((m, count))
        cum_pi = np.cumsum(np.array(self.stationary))
        idx = np.minimum(np.searchsorted(cum_pi, u[0], side="right"), last)
        stride = len(self._thresholds) + 1
        if len(states) * stride + self._grid > m * count:
            x = np.empty((m, count))
            x[0] = states[idx]
            for i in range(1, m):
                idx = np.minimum((u[i][:, None] >= self._cum_rows[idx]).sum(axis=1), last)
                x[i] = states[idx]
            return x
        successor = self._successor
        scaled, table = self._coder
        pos = np.empty((m, count), dtype=np.intp)
        pos[0] = idx * stride
        cells = u[1:].reshape(-1)
        cells *= len(table)
        codes = pos[1:].reshape(-1)
        codes[:] = cells  # floor: the cells are nonnegative
        table.take(codes, out=codes, mode="clip")  # u < 1, so every cell is in range
        inside = np.flatnonzero(codes < 0)
        codes[inside] = np.searchsorted(scaled, cells[inside], side="right")
        for i in range(1, m):
            pos[i] += pos[i - 1]
            successor.take(pos[i], out=pos[i])
        pos //= stride
        return states[pos]

    def text(self) -> str:
        return self.source or f"chain:states={len(self.states)}"

    def chain_form(self) -> FiniteMarkovChain:
        return self


def autocovariances(model: StationaryModel, max_lag: int) -> np.ndarray:
    """R(0..max_lag) of the column process."""
    if max_lag < 0:
        raise DomainError(f"need max_lag >= 0, got {max_lag}")
    return model.autocovariances(max_lag)


def decay_rate(model: StationaryModel) -> float:
    """Geometric base dominating |R(j)|: 0, |p|, |alpha|, or the chain's
    second-largest transition eigenvalue modulus."""
    return model.decay_rate()


def covariance_matrix(model: StationaryModel, m: int) -> np.ndarray:
    """Toeplitz covariance R(|i - i'|) of a length-m window."""
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    r = autocovariances(model, m - 1)
    idx = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    return r[idx]


def h_finite(model: StationaryModel, m: int, k_max: int) -> HSequence:
    """Window trace moments H_k = (1/m) tr(T_m^k), k = 1..k_max, computed
    through the eigenvalues of the covariance window."""
    if not 1 <= k_max <= DEFAULT_MAX_K:
        raise BoundError(f"need 1 <= k_max <= {DEFAULT_MAX_K}, got {k_max}")
    t = covariance_matrix(model, m)
    try:
        eig = np.linalg.eigvalsh(t)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed for m={m}: {exc}") from exc
    values = _power_means(eig, k_max)
    return HSequence(tuple(float(v) for v in values), origin=finite_trace_origin(m))


def h_szego(model: StationaryModel, k_max: int) -> HSequence:
    """Limiting trace moments H_k = integral_0^1 f(x)^k dx, k = 1..k_max, of
    the spectral density f(x) = sum_j R(j) exp(2 pi i j x).

    R is cut at the least lag L with rate^L / (1 - rate) <= 2^-60, which
    bounds the dropped tail of f.  f is then a cosine polynomial of degree L,
    so f^k has degree k L, and the trapezoid rule on a power of two of nodes
    above max(k_max, 2) L integrates every f^k exactly.  Rejects decay rates
    above ``MAX_SZEGO_DECAY`` = 0.95."""
    if not 1 <= k_max <= DEFAULT_MAX_K:
        raise BoundError(f"need 1 <= k_max <= {DEFAULT_MAX_K}, got {k_max}")
    rate = decay_rate(model)
    if rate > MAX_SZEGO_DECAY:
        raise DomainError(
            f"decay rate {rate} exceeds {MAX_SZEGO_DECAY}, the largest with limiting trace moments"
        )
    lags = 0 if rate == 0 else math.ceil((math.log2(1.0 - rate) - 60) / math.log2(rate))
    nodes = 1 << (max(k_max, 2) * lags).bit_length()
    fx = np.fft.hfft(autocovariances(model, lags), nodes)  # f(j / nodes)
    power = np.ones(nodes)
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k_max):
            power *= fx
            values.append(float(power.mean()))
    if not np.isfinite(values).all():
        raise NumericError(f"limiting trace moments up to order {k_max} overflow a float: {values}")
    return HSequence(tuple(values), origin=ORIGIN_SZEGO)


def sample_paths(
    model: StationaryModel, m: int, count: int, stream: np.random.Generator
) -> np.ndarray:
    """``count`` independent stationary paths of length m, as columns."""
    if m < 1 or count < 1:
        raise DomainError(f"need m >= 1 and count >= 1, got m={m}, count={count}")
    return model.sample_paths(m, count, stream)


def _pairings(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i in range(len(rest)):
        partner = rest[i]
        for tail in _pairings(rest[:i] + rest[i + 1 :]):
            yield ((first, partner),) + tail


def isserlis_moment(cov, indices: Sequence[int]) -> float:
    """Joint moment E[a(i_1) ... a(i_2k)] of a centered Gaussian vector: the
    sum over all (2k-1)!! pairings of products of covariances.

    ``cov`` is either a stationary model (covariance R(|i - i'|)) or an
    explicit square matrix looked up with 1-based indices.  Indices may
    repeat and need not be sorted.  An odd number of indices is rejected;
    the centered odd moments are zero.
    """
    idx = tuple(int(i) for i in indices)
    if len(idx) % 2:
        raise DomainError("Gaussian pairing moments need an even number of indices")
    if len(idx) > MAX_ISSERLIS_INDICES:
        raise BoundError(f"pairing enumeration is capped at {MAX_ISSERLIS_INDICES} indices")
    if not idx:
        return 1.0
    if any(i < 1 for i in idx):
        raise DomainError("indices are 1-based")
    if isinstance(cov, StationaryModel):
        r = autocovariances(cov, max(idx) - 1)

        def lookup(a: int, b: int) -> float:
            return float(r[abs(a - b)])

    else:
        arr = np.asarray(cov, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError("covariance must be a square matrix")
        if max(idx) > arr.shape[0]:
            raise DomainError(f"index {max(idx)} exceeds the {arr.shape[0]}x{arr.shape[0]} matrix")

        def lookup(a: int, b: int) -> float:
            return float(arr[a - 1, b - 1])

    total = 0.0
    for pairing in _pairings(idx):
        prod = 1.0
        for a, b in pairing:
            prod *= lookup(a, b)
        total += prod
    return total


def chain_joint_moment(model: StationaryModel, indices: Sequence[int]) -> float:
    """Exact E[a(i_1) ... a(i_r)] for a model with a finite-chain form (chains
    and Rademacher i.i.d. entries), evaluated as a product of state-value
    weightings interleaved with transition powers.  Indices must be sorted
    ascending (repeats allowed).  Gaussian models raise ``DomainError``."""
    fchain = model.chain_form()
    if fchain is None:
        raise DomainError(f"not a finite-chain model: {model!r}")
    idx = [int(i) for i in indices]
    if not idx:
        return 1.0
    if len(idx) > MAX_JOINT_INDICES:
        raise BoundError(f"joint moments are capped at {MAX_JOINT_INDICES} indices")
    if any(i < 1 or i > MAX_CHAIN_INDEX for i in idx):
        raise BoundError(f"indices must lie in 1..{MAX_CHAIN_INDEX}")
    if any(b < a for a, b in zip(idx, idx[1:])):
        raise DomainError("indices must be sorted ascending")
    states = np.array(fchain.states)
    pmat = np.array(fchain.transition)
    vec = np.array(fchain.stationary) * states
    for a, b in zip(idx, idx[1:]):
        gap = b - a
        if gap:
            vec = vec @ np.linalg.matrix_power(pmat, gap)
        vec = vec * states
    return float(vec.sum())


def _gaussian_partition_sum(partition: Partition, traces: Sequence[float]) -> float:
    """Sum over row labellings of E prod_t <a_c(t), a_c(t+1)> for Gaussian
    columns, one independent column per block of ``partition``.

    Slot t carries two entries, in the rows picked by dot products t-1 and
    t (cyclic).  Each pairing of entries within the blocks links those row
    labels into cycles, and a cycle through L labels contributes
    tr T^L = ``traces[L - 1]``.
    """
    k = partition.k
    rows = [tuple(r for t in block for r in ((t - 2) % k, t - 1)) for block in partition.blocks]
    total = 0.0
    for pairing in product(*(list(_pairings(block_rows)) for block_rows in rows)):
        cycle = list(range(k))
        for pairs in pairing:
            for a, b in pairs:
                old, new = cycle[a], cycle[b]
                cycle = [new if c == old else c for c in cycle]
        term = 1.0
        for c in set(cycle):
            term *= traces[cycle.count(c) - 1]
        total += term
    return total


def _chain_partition_sum(chain: FiniteMarkovChain, m: int, partition: Partition) -> float:
    """Sum over row labellings of E prod_t <a_c(t), a_c(t+1)> for chain
    columns, one independent copy per block of ``partition``.

    A transfer pass over the m rows carries, on the product state space of
    the copies, one bit per dot product recording whether it has picked its
    row.  At each row every open dot product may pick it, weighting by the
    state values of the two copies it joins; the copies then step along
    their own axes.
    """
    k, copies = partition.k, partition.n_blocks
    block_of = partition.block_map()
    states = np.array(chain.states)
    pmat = np.array(chain.transition)

    def along(vec: np.ndarray, copy: int) -> np.ndarray:
        return vec.reshape((-1,) + (1,) * (copies - 1 - copy))

    weights = [
        along(states, block_of[t]) * along(states, block_of[t % k + 1]) for t in range(1, k + 1)
    ]
    v = np.zeros((2,) * k + (len(states),) * copies)
    v[(0,) * k] = reduce(np.multiply.outer, [np.array(chain.stationary)] * copies)
    for row in range(m):
        if row:
            for c in range(copies):
                v = np.moveaxis(np.tensordot(v, pmat, axes=([k + c], [0])), -1, k + c)
        for s, w in enumerate(weights):
            lead = (slice(None),) * s
            v[lead + (1,)] += v[lead + (0,)] * w
    return float(v[(1,) * k].sum())


def expected_moments(model: StationaryModel, m: int, n: int, k_max: int) -> np.ndarray:
    """Exact E[(1/m) tr W^k], k = 1..k_max (k_max <= 4), for W = (1/n) X X^T
    with n independent length-m columns of ``model``, at finite (m, n).

    tr W^k = n^-k sum over column labellings c of prod_t <a_c(t), a_c(t+1)>
    (cyclic in t).  Labellings are grouped by the set partition of {1..k}
    they induce: a partition with b blocks has n (n-1) ... (n-b+1) of them,
    and its expectation factors over independent columns.  Gaussian models
    (AR(1), standard-gaussian i.i.d.) evaluate it by pairings and traces of
    T_m powers; chains (and Rademacher i.i.d., a chain on +-sqrt(var)) by a
    transfer pass over the rows.  Chains whose product space over k_max
    copies would exceed 2^20 entries are rejected.
    """
    if not 1 <= k_max <= MAX_EXPECTED_K:
        raise BoundError(f"need 1 <= k_max <= {MAX_EXPECTED_K}, got {k_max}")
    if m < 1 or n < 1:
        raise DomainError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    chain = model.chain_form()
    if chain is not None:
        entries = len(chain.states) ** k_max * 2**k_max
        if entries > MAX_TRANSFER_ENTRIES:
            raise BoundError(
                f"a {len(chain.states)}-state chain at k_max={k_max} needs {entries} "
                f"transfer entries, over the cap of {MAX_TRANSFER_ENTRIES}"
            )

        def partition_sum(partition: Partition) -> float:
            return _chain_partition_sum(chain, m, partition)

    else:
        traces = [m * h for h in h_finite(model, m, k_max).values]

        def partition_sum(partition: Partition) -> float:
            return _gaussian_partition_sum(partition, traces)

    out = np.empty(k_max)
    for k in range(1, k_max + 1):
        total = 0.0
        for partition in enumerate_partitions(k):
            labellings = math.perm(n, partition.n_blocks)
            if labellings:
                total += labellings * partition_sum(partition)
        out[k - 1] = total / (m * n**k)
    return out


def model_text(model: StationaryModel) -> str:
    """Canonical text form, the inverse of ``parse_model``."""
    return model.text()


def _parse_args(argstr: str, text: str) -> dict[str, str]:
    args: dict[str, str] = {}
    if not argstr:
        return args
    for item in argstr.split(","):
        key, eq, val = item.partition("=")
        if not eq or not key:
            raise ParseError(f"expected key=value, got {item!r} in {text!r}")
        if key in args:
            raise ParseError(f"duplicate key {key!r} in {text!r}")
        args[key] = val
    return args


def _pop_float(args: dict[str, str], key: str, text: str, default: str | None = None) -> float:
    raw = args.pop(key, default)
    if raw is None:
        raise ParseError(f"model {text!r} is missing required key {key!r}")
    try:
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"bad numeric value {raw!r} for {key!r} in {text!r}") from exc


def parse_model(text: str) -> StationaryModel:
    """Parse the model grammar ``kind:key=value,...``:

      iid:dist=rademacher,var=1      (dist and var optional)
      ar1:p=0.5
      twostate:alpha=0.5
      chain:file=PATH                (JSON: states, transition, stationary)
    """
    kind, _, argstr = text.partition(":")
    args = _parse_args(argstr, text)
    if kind == "iid":
        dist = args.pop("dist", RADEMACHER)
        var = _pop_float(args, "var", text, default="1")
        model: StationaryModel = IIDSymmetric(distribution=dist, variance=var)
    elif kind == "ar1":
        model = GaussianAR1(p=_pop_float(args, "p", text))
    elif kind == "twostate":
        model = TwoStateChain(alpha=_pop_float(args, "alpha", text))
    elif kind == "chain":
        path = args.pop("file", None)
        if path is None:
            raise ParseError(f"model {text!r} is missing required key 'file'")
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read chain file {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"chain file {path!r} is not valid JSON: {exc}") from exc
        try:
            model = FiniteMarkovChain(
                states=tuple(doc["states"]),
                transition=tuple(tuple(row) for row in doc["transition"]),
                stationary=tuple(doc["stationary"]),
                source=f"chain:file={path}",
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(
                f"chain file {path!r} needs 'states', 'transition', 'stationary'"
            ) from exc
    else:
        raise ParseError(f"unknown model kind {kind!r} in {text!r}")
    if args:
        raise ParseError(f"unknown keys {sorted(args)} in {text!r}")
    return model
