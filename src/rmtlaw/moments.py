"""Limiting spectral moments of sample covariance matrices whose columns are
stationary dependent sequences.

The k-th limiting moment is a polynomial in the aspect ratio y and in the
covariance trace limits H_l = lim (1/m) tr(T_m^l):

    M_k = sum_{s=1}^{k} y^(k-s) (k!/s!) sum_{i_1+...+i_s = k-s+1,
                                             i_1+2i_2+...+s i_s = k}
          prod_{l=1}^{s} H_l^{i_l} / i_l!

Each coefficient k!/(s! prod i_l!) is an exact integer (it counts the
non-crossing partitions with that block-size profile), so evaluation keeps
integer combinatorics exact and touches floats only when multiplying in y
and H.  ``limiting_moment_via_nc`` recomputes the same quantity by brute
force over non-crossing partitions and serves as an independent oracle.
"""

from __future__ import annotations

import math
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
ORIGIN_CLOSED_FORM = "closed-form"


def finite_trace_origin(m: int) -> str:
    return f"finite-trace({m})"


@dataclass(frozen=True)
class HSequence:
    """Trace moments H_1..H_K of a covariance family, H_k = (1/m) tr(T^k) or
    its limit.  ``origin`` records where the values came from: "finite-trace(m)",
    "szego-quadrature", "closed-form", or "user".  The mixed trace moments Q
    of ``qform_moment`` use the same type under the name ``QSequence``."""

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


QSequence = HSequence


@dataclass(frozen=True)
class AspectRatio:
    """Limit y of the row/column ratio m/n, optionally pinned to a shape."""

    y: float
    m: int | None = None
    n: int | None = None

    def __post_init__(self) -> None:
        y = float(self.y)
        if not (math.isfinite(y) and y > 0):
            raise DomainError(f"aspect ratio must be a positive real, got {self.y!r}")
        if (self.m is None) != (self.n is None):
            raise DomainError("give both m and n or neither")
        if self.m is not None:
            if self.m < 1 or self.n < 1:
                raise DomainError("matrix dimensions must be positive")
            if y != self.m / self.n:
                raise DomainError(f"y={y} does not equal m/n={self.m}/{self.n}")
        object.__setattr__(self, "y", y)

    @classmethod
    def from_shape(cls, m: int, n: int) -> "AspectRatio":
        return cls(m / n, m, n)


Ratio = Union[float, AspectRatio]
Traces = Union[HSequence, Sequence[float]]


def _ratio_value(y: Ratio) -> float:
    if isinstance(y, AspectRatio):
        return y.y
    v = float(y)
    if not (math.isfinite(v) and v > 0):
        raise DomainError(f"aspect ratio must be a positive real, got {y!r}")
    return v


def _ratio_fraction(y: Ratio) -> Fraction:
    if isinstance(y, AspectRatio) and y.m is not None:
        return Fraction(y.m, y.n)
    return Fraction(_ratio_value(y))


def _trace_values(h: Traces, k: int, what: str = "H", exact: bool = False) -> tuple:
    if isinstance(h, HSequence):
        values: tuple = h.values
    elif exact:
        values = tuple(h)  # keep ints and Fractions intact
    else:
        values = tuple(float(v) for v in h)
    if len(values) < k:
        raise DomainError(f"moment order {k} needs {what}_1..{what}_{k}, got {len(values)} values")
    return values


def _check_order(k: int, allow_large_k: bool) -> None:
    if k < 1:
        raise DomainError(f"moment order must be >= 1, got {k}")
    if k > DEFAULT_MAX_K and not allow_large_k:
        raise BoundError(
            f"moment order {k} exceeds the default cap {DEFAULT_MAX_K}; "
            "pass allow_large_k=True to evaluate anyway"
        )


def limiting_moment(
    k: int,
    y: Ratio,
    h: Traces,
    *,
    exact: bool = False,
    allow_large_k: bool = False,
) -> float | Fraction:
    """k-th moment of the limiting expected spectral distribution.

    Accumulation order is fixed (ascending s, compositions lexicographic) so
    float results are bit-reproducible.  With ``exact=True`` every operand is
    lifted to Fraction and the exact rational value is returned; an
    AspectRatio carrying (m, n) contributes the exact ratio m/n.
    """
    _check_order(k, allow_large_k)
    values = _trace_values(h, k, exact=exact)
    if exact:
        yv: Fraction | float = _ratio_fraction(y)
        hs: tuple = tuple(Fraction(v) for v in values)
        total: Fraction | float = Fraction(0)
        one: Fraction | float = Fraction(1)
    else:
        yv = _ratio_value(y)
        hs = values
        total = 0.0
        one = 1.0
    kfact = math.factorial(k)
    try:
        for s in range(1, k + 1):
            ypow = yv ** (k - s)
            sfact = math.factorial(s)
            for comp in enumerate_compositions(k, s):
                den = sfact
                hprod = one
                for l, i in enumerate(comp.counts, start=1):
                    if i:
                        den *= math.factorial(i)
                        hprod = hprod * hs[l - 1] ** i
                coeff, rem = divmod(kfact, den)
                if rem:  # the coefficient is a partition count; this cannot fire
                    raise DomainError("non-integer moment coefficient")
                total = total + coeff * ypow * hprod
    except OverflowError as exc:
        raise NumericError(f"moment of order {k} overflows a float") from exc
    return total if exact else _finite_moment(total, k)


def _finite_moment(value: float, k: int) -> float:
    """``value`` unless it overflowed to an infinity or a NaN."""
    if not math.isfinite(value):
        raise NumericError(f"moment of order {k} is not finite ({value}): the inputs are too large")
    return value


@lru_cache(maxsize=None)
def _nc_size_profiles(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(p.block_sizes() for p in nc_partitions(k))


def limiting_moment_via_nc(k: int, y: Ratio, h: Traces) -> float:
    """Same moment by brute force: sum over non-crossing partitions of
    y^(#blocks - 1) * prod_blocks H_{block size}.  Independent oracle for
    ``limiting_moment``; capped at k = 10 by enumeration cost."""
    if k < 1:
        raise DomainError(f"moment order must be >= 1, got {k}")
    if k > MAX_NC_SUM_K:
        raise BoundError(f"non-crossing summation is capped at k = {MAX_NC_SUM_K}, got {k}")
    yv = _ratio_value(y)
    hs = _trace_values(h, k)
    total = 0.0
    for sizes in _nc_size_profiles(k):
        prod = 1.0
        for size in sizes:
            prod *= hs[size - 1]
        total += yv ** (len(sizes) - 1) * prod
    return total


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
    for i in range(k):
        total = total + narayana(k, i) * yv**i
    return var**k * total


def qform_moment(
    k: int,
    y: Ratio,
    h: Traces,
    q: Traces,
    *,
    allow_large_k: bool = False,
) -> float:
    """k-th limiting moment weighted by a fixed quadratic form, from the two
    trace sequences H and Q:

        sum_{s=1}^{k} y^(k-s) * k * (k-s)! * (s-1)!
            * [ sum over (i_1..i_s)       with sum i = k-s+1, sum l*i_l = k:
                    prod_l H_l^{i_l} / i_l! ]
            * [ sum over (j_1..j_{k-s+1}) with sum j = s,     sum l*j_l = k:
                    prod_l Q_l^{j_l} / j_l! ]

    With Q_l = 1 for all l this collapses to ``limiting_moment``.  Whether a
    given Q sequence is meaningful for the caller's quadratic form is the
    caller's responsibility; this evaluates the polynomial.
    """
    _check_order(k, allow_large_k)
    yv = _ratio_value(y)
    hs = _trace_values(h, k)
    qs = _trace_values(q, k, what="Q")
    total = 0.0
    try:
        for s in range(1, k + 1):
            base = k * math.factorial(k - s) * math.factorial(s - 1)
            ypow = yv ** (k - s)
            qparts = []
            for jcomp in enumerate_compositions(k, k - s + 1):
                jden = 1
                qprod = 1.0
                for l, j in enumerate(jcomp.counts, start=1):
                    if j:
                        jden *= math.factorial(j)
                        qprod *= qs[l - 1] ** j
                qparts.append((jden, qprod))
            for icomp in enumerate_compositions(k, s):
                iden = 1
                hprod = 1.0
                for l, i in enumerate(icomp.counts, start=1):
                    if i:
                        iden *= math.factorial(i)
                        hprod *= hs[l - 1] ** i
                for jden, qprod in qparts:
                    coeff = Fraction(base, iden * jden)
                    total += float(coeff) * ypow * hprod * qprod
    except OverflowError as exc:
        raise NumericError(f"moment of order {k} overflows a float") from exc
    return _finite_moment(total, k)
