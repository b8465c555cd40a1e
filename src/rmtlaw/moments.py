"""Limiting spectral moments of sample covariance matrices whose columns are
stationary dependent sequences.

The k-th limiting moment is a polynomial in the aspect ratio y and in the
covariance trace limits H_l = lim (1/m) tr(T_m^l).  With the generating
series H(t) = H_1 t + H_2 t^2 + ...,

    M_k = sum_{s=1}^{k} y^(k-s) k!/(s! (k-s+1)!) [t^k] H(t)^(k-s+1).

Expanding the power gives the composition sum over block-size profiles,

    M_k = sum_{s=1}^{k} y^(k-s) (k!/s!) sum_{i_1+...+i_s = k-s+1,
                                             i_1+2i_2+...+s i_s = k}
          prod_{l=1}^{s} H_l^{i_l} / i_l!

whose integer coefficients count the non-crossing partitions with each
profile.  ``limiting_moment`` and ``qform_moment`` read the coefficients
[t^k] H(t)^p off one table of truncated powers per trace sequence
(``_power_coefficients``): it holds [t^j] H(t)^p for 1 <= p <= j <= 20,
costs O(K^3) multiply-adds once, and is cached, so a table of M_1..M_20
builds it once rather than once per k.  Two oracles recompute M_k
independently: ``limiting_moment_via_compositions`` evaluates the
composition sum in exact rationals, and ``limiting_moment_via_nc`` sums
over the non-crossing partitions, grouped by block-size profile.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .combinatorics import enumerate_compositions, narayana, nc_partitions
from .errors import BoundError, DomainError, NumericError

DEFAULT_MAX_K = 20
MAX_NC_SUM_K = 10

ORIGIN_USER = "user"
ORIGIN_SZEGO = "szego-quadrature"


def finite_trace_origin(m: int) -> str:
    return f"finite-trace({m})"


@dataclass(frozen=True)
class HSequence:
    """Trace moments H_1..H_K of a covariance family, H_k = (1/m) tr(T^k) or
    its limit.  ``origin`` records where the values came from: "finite-trace(m)",
    "szego-quadrature" or "user".  The mixed trace moments Q of
    ``qform_moment`` use the same type."""

    values: tuple[float, ...]
    origin: str = ORIGIN_USER

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise DomainError("a trace sequence needs at least one value")
        if not all(math.isfinite(v) for v in vals):
            raise DomainError(f"trace moments must be finite, got {vals}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def value(self, k: int) -> float:
        if not 1 <= k <= len(self.values):
            raise DomainError(f"H_{k} not available, sequence has length {len(self.values)}")
        return self.values[k - 1]


Ratio = Union[float, Fraction]
Traces = Union[HSequence, Sequence[float]]


def _ratio_value(y: Ratio) -> float:
    v = float(y)
    if not (math.isfinite(v) and v > 0):
        raise DomainError(f"aspect ratio must be a positive real, got {y!r}")
    return v


def _ratio_fraction(y: Ratio) -> Fraction:
    _ratio_value(y)
    return Fraction(y)


def _trace_values(h: Traces, k: int, what: str = "H", exact: bool = False) -> tuple:
    """The values of ``h`` as floats, or as Fractions when ``exact``."""
    values = h.values if isinstance(h, HSequence) else tuple(h)
    if len(values) < k:
        raise DomainError(f"moment order {k} needs {what}_1..{what}_{k}, got {len(values)} values")
    return tuple(map(Fraction if exact else float, values))


def _check_order(k: int) -> None:
    if k < 1:
        raise DomainError(f"moment order must be >= 1, got {k}")
    if k > DEFAULT_MAX_K:
        raise BoundError(f"moment order {k} exceeds the cap {DEFAULT_MAX_K}")


@contextmanager
def _float_overflow(k: int):
    """Turn an ``OverflowError`` raised by float arithmetic into ``NumericError``."""
    try:
        yield
    except OverflowError as exc:
        raise NumericError(f"moment of order {k} overflows a float") from exc


def _finite_moment(value: float, k: int) -> float:
    """``value`` unless it overflowed to an infinity or a NaN."""
    if not math.isfinite(value):
        raise NumericError(f"moment of order {k} is not finite ({value}): the inputs are too large")
    return value


def _power_rows(c: Sequence) -> tuple[tuple, ...]:
    """rows[p - 1][e] = [t^(p+e)] C(t)^p for 1 <= p <= K and 0 <= e <= K - p,
    where C(t) = c[0] t + c[1] t^2 + ... + c[K-1] t^K.

    Works on any numbers closed under + and *, in O(K^3) multiply-adds.
    C(t)^p starts at t^p, so only its coefficients of degree p..K are kept,
    and each power is the last one times C(t).  Entry e of a power is summed
    over the same terms in the same order for every K, so truncating at a
    larger K leaves every float entry bit for bit the same.
    """
    power = tuple(c)
    rows = [power]
    for _ in range(1, len(c)):
        power = tuple(sum(power[i] * c[e - i] for i in range(e + 1)) for e in range(len(power) - 1))
        rows.append(power)
    return tuple(rows)


@lru_cache(maxsize=8)
def _power_coefficients(values: tuple, exact: bool) -> tuple[tuple, ...]:
    """The power table of one trace sequence, as ``_power_rows`` lays it out.

    Cached, so the moments of one sequence share one table.  The key holds
    the mode because (1.0,), (1,) and (Fraction(1),) hash and compare equal.
    Exact mode lifts the Fractions to integers over their common denominator
    D, builds the table on the integers and divides row p by D^p, which
    avoids the gcd work of multiplying Fractions.
    """
    if not exact:
        return _power_rows(values)
    d = math.lcm(*(v.denominator for v in values))
    rows = _power_rows(tuple(v.numerator * (d // v.denominator) for v in values))
    return tuple(tuple(Fraction(x, d**p) for x in row) for p, row in enumerate(rows, start=1))


def _series_coefficients(h: Traces, k: int, what: str = "H", exact: bool = False) -> list:
    """[t^k] H(t)^p for p = 1..k, read off the cached power table of ``h``."""
    rows = _power_coefficients(_trace_values(h, k, what, exact)[:DEFAULT_MAX_K], exact)
    return [rows[p - 1][k - p] for p in range(1, k + 1)]


def limiting_moment(k: int, y: Ratio, h: Traces, *, exact: bool = False) -> float | Fraction:
    """k-th moment of the limiting expected spectral distribution,
    sum_s y^(k-s) k!/(s! (k-s+1)!) [t^k] H(t)^(k-s+1).

    Accumulation order is fixed (ascending s) so float results are
    bit-reproducible.  With ``exact=True`` every operand is lifted to
    Fraction and the exact rational value is returned; pass y as
    ``Fraction(m, n)`` for the exact ratio of an m x n shape, since a float
    y is taken at its binary value.
    """
    _check_order(k)
    hk = _series_coefficients(h, k, exact=exact)
    if exact:
        yv: Fraction | float = _ratio_fraction(y)
        quotient = Fraction
    else:
        yv = _ratio_value(y)
        quotient = operator.truediv
    kfact = math.factorial(k)
    total: Fraction | float = Fraction(0) if exact else 0.0
    with _float_overflow(k):
        for s in range(1, k + 1):
            coeff = quotient(kfact, math.factorial(s) * math.factorial(k - s + 1))
            total += coeff * yv ** (k - s) * hk[k - s]
    return total if exact else _finite_moment(total, k)


def limiting_moment_via_compositions(k: int, y: Ratio, h: Traces) -> Fraction:
    """Same moment as an exact rational, by the composition sum over
    block-size profiles in the module docstring.  Independent oracle for
    ``limiting_moment``; capped at k = 20 like it."""
    _check_order(k)
    yv = _ratio_fraction(y)
    hs = _trace_values(h, k, exact=True)
    kfact = math.factorial(k)
    total = Fraction(0)
    for s in range(1, k + 1):
        ypow = yv ** (k - s)
        for comp in enumerate_compositions(k, s):
            den = math.factorial(s)
            hprod = Fraction(1)
            for l, i in enumerate(comp.counts, start=1):
                if i:
                    den *= math.factorial(i)
                    hprod *= hs[l - 1] ** i
            total += Fraction(kfact, den) * ypow * hprod
    return total


@lru_cache(maxsize=None)
def _nc_size_profiles(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The sorted block-size profiles of the non-crossing partitions of
    {1..k}, each with the number of partitions that have it.  The counts come
    from the enumeration, not from the closed form, so the oracle built on
    them stays independent of ``count_nc_by_block_sizes``."""
    counts = Counter(tuple(sorted(p.block_sizes())) for p in nc_partitions(k))
    return tuple(sorted(counts.items()))


def limiting_moment_via_nc(k: int, y: Ratio, h: Traces) -> float:
    """Same moment by brute force: sum over non-crossing partitions of
    y^(#blocks - 1) * prod_blocks H_{block size}, taken once per block-size
    profile times its count.  Independent oracle for ``limiting_moment``;
    capped at k = 10 by enumeration cost."""
    if k < 1:
        raise DomainError(f"moment order must be >= 1, got {k}")
    if k > MAX_NC_SUM_K:
        raise BoundError(f"non-crossing summation is capped at k = {MAX_NC_SUM_K}, got {k}")
    yv = _ratio_value(y)
    hs = _trace_values(h, k)
    total = 0.0
    with _float_overflow(k):
        for sizes, count in _nc_size_profiles(k):
            prod = 1.0
            for size in sizes:
                prod *= hs[size - 1]
            total += count * yv ** (len(sizes) - 1) * prod
    return _finite_moment(total, k)


def mp_moment(k: int, y: Ratio, variance: float, *, exact: bool = False) -> float | Fraction:
    """Moments of the Marchenko-Pastur law with scale ``variance``:
    variance^k * sum_{i=0}^{k-1} y^i * Narayana(k, i).  This is the
    independent-entries special case H_l = variance^l."""
    if k < 1:
        raise DomainError(f"moment order must be >= 1, got {k}")
    if not (math.isfinite(float(variance)) and float(variance) >= 0):
        raise DomainError(f"variance must be a nonnegative real, got {variance!r}")
    if exact:
        yv: Fraction | float = _ratio_fraction(y)
        var: Fraction | float = Fraction(variance)
        total: Fraction | float = Fraction(0)
    else:
        yv = _ratio_value(y)
        var = float(variance)
        total = 0.0
    with _float_overflow(k):
        for i in range(k):
            total = total + narayana(k, i) * yv**i
        total = var**k * total
    return total if exact else _finite_moment(total, k)


def qform_moment(k: int, y: Ratio, h: Traces, q: Traces) -> float:
    """k-th limiting moment weighted by a fixed quadratic form, from the two
    trace sequences H and Q with generating series H(t) and Q(t):

        sum_{s=1}^{k} y^(k-s) * k / (s (k-s+1))
            * [t^k] H(t)^(k-s+1) * [t^k] Q(t)^s

    With Q_l = 1 for all l this collapses to ``limiting_moment``.  Whether a
    given Q sequence is meaningful for the caller's quadratic form is the
    caller's responsibility; this evaluates the polynomial.
    """
    _check_order(k)
    yv = _ratio_value(y)
    hk = _series_coefficients(h, k)
    qk = _series_coefficients(q, k, what="Q")
    total = 0.0
    with _float_overflow(k):
        for s in range(1, k + 1):
            total += k / (s * (k - s + 1)) * yv ** (k - s) * hk[k - s] * qk[s - 1]
    return _finite_moment(total, k)
