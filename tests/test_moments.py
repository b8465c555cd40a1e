"""Moment-formula checks against hand expansions and the NC-sum oracle."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from rmtlaw import (
    BoundError,
    DomainError,
    HSequence,
    NumericError,
    count_nc_by_block_sizes,
    limiting_moment,
    limiting_moment_via_compositions,
    limiting_moment_via_nc,
    mp_moment,
    nc_partitions,
    qform_moment,
)
from rmtlaw import moments


def hand_moment(k: int, y: float, h) -> float:
    """First three moments expanded by hand from the block-size sums."""
    h1, h2, h3 = (list(h) + [0.0, 0.0])[:3]
    if k == 1:
        return h1
    if k == 2:
        return h2 + y * h1**2
    if k == 3:
        return h3 + 3 * y * h1 * h2 + y**2 * h1**3
    raise ValueError(k)


@pytest.mark.parametrize("y", [0.25, 0.5, 1.0, 2.0])
def test_low_moments_match_hand_expansion(y):
    h = (1.3, 2.1, 5.9)
    for k in (1, 2, 3):
        expected = hand_moment(k, y, h)
        assert limiting_moment(k, y, h) == pytest.approx(expected, rel=1e-14)
        assert limiting_moment_via_nc(k, y, h) == pytest.approx(expected, rel=1e-14)


def test_documented_two_moment_example():
    assert limiting_moment(2, 0.5, (1.0, 1.6667)) == pytest.approx(2.1667, rel=1e-12)


def test_via_nc_unit_traces():
    # 5 non-crossing partitions of {1,2,3}, each term 1 at y = 1
    assert limiting_moment_via_nc(3, 1.0, (1.0, 1.0, 1.0)) == pytest.approx(5.0)


def test_formula_matches_nc_oracle_on_random_draws():
    rng = np.random.default_rng(2024)
    for k in range(1, 8):
        for _ in range(20):
            y = float(rng.uniform(0.1, 3.0))
            h = tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=k))
            a = limiting_moment(k, y, h)
            b = limiting_moment_via_nc(k, y, h)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_mp_small_cases():
    assert mp_moment(1, 2.0, 1.0) == pytest.approx(1.0)
    assert mp_moment(2, 0.5, 1.0) == pytest.approx(1.5)
    assert [mp_moment(k, 1.0, 1.0) for k in (1, 2, 3, 4)] == pytest.approx([1, 2, 5, 14])
    # variance rescales the k-th moment by variance^k
    assert mp_moment(3, 0.7, 2.0) == pytest.approx(8 * mp_moment(3, 0.7, 1.0))


def test_mp_equals_limiting_on_power_traces():
    """Independent entries have H_l = variance^l, so the general formula must
    reproduce the Narayana polynomial, exactly in exact mode."""
    for y in (Fraction(1, 2), Fraction(1), Fraction(2)):
        for var in (Fraction(1), Fraction(3, 2)):
            for k in range(1, 9):
                h = tuple(var**l for l in range(1, k + 1))
                exact = limiting_moment(k, y, h, exact=True)
                assert exact == mp_moment(k, y, var, exact=True)
                assert limiting_moment(k, float(y), tuple(float(v) for v in h)) == pytest.approx(
                    float(exact), rel=1e-12
                )


def test_exact_mode_preserves_rationals():
    h = (Fraction(1), Fraction(5, 3), Fraction(7, 2))
    value = limiting_moment(3, Fraction(1, 2), h, exact=True)
    assert isinstance(value, Fraction)
    assert value == Fraction(25, 4)  # 7/2 + 3*(1/2)*(5/3) + (1/4)


def test_exact_mode_uses_pinned_shape():
    # a Fraction ratio stays exact: 1/3 is not rounded to the nearest double
    ratio = Fraction(1, 3)
    assert limiting_moment(2, ratio, (1, 1), exact=True) == Fraction(4, 3)
    assert limiting_moment_via_compositions(2, ratio, (1, 1)) == Fraction(4, 3)
    assert mp_moment(3, ratio, 1, exact=True) == Fraction(19, 9)  # 1 + 3/3 + 1/9


def test_moment_monotone_in_aspect_ratio():
    h = (1.0, 1.8, 4.0, 11.0)
    for k in (2, 3, 4):
        values = [limiting_moment(k, y, h) for y in (0.2, 0.5, 1.0, 2.0)]
        assert values == sorted(values)


def test_moment_scaling_in_covariance():
    # scaling the covariance by c scales H_l by c^l and M_k by c^k
    rng = np.random.default_rng(7)
    h = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=6))
    for c in (0.5, 3.0):
        scaled = tuple(c**l * h[l - 1] for l in range(1, 7))
        for k in range(1, 7):
            assert limiting_moment(k, 0.8, scaled) == pytest.approx(
                c**k * limiting_moment(k, 0.8, h), rel=1e-12
            )


def test_qform_first_moment():
    assert qform_moment(1, 0.7, (2.0,), (3.0,)) == pytest.approx(6.0)


def test_qform_unit_weights_collapse():
    rng = np.random.default_rng(99)
    for k in range(1, 8):
        for _ in range(10):
            y = float(rng.uniform(0.2, 2.5))
            h = tuple(float(v) for v in rng.uniform(0.1, 2.0, size=k))
            weighted = qform_moment(k, y, h, (1.0,) * k)
            assert weighted == pytest.approx(limiting_moment(k, y, h), rel=1e-10)


def test_qform_vanishes_on_zero_traces():
    assert qform_moment(4, 1.0, (0.0,) * 4, (1.0,) * 4) == 0.0
    assert qform_moment(4, 1.0, (1.0,) * 4, (0.0,) * 4) == 0.0


def test_sequences_validate():
    with pytest.raises(DomainError):
        HSequence(())
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError):
            HSequence((1.0, bad))
    seq = HSequence((1.0, 2.0))
    assert len(seq) == 2 and seq.value(2) == 2.0 and seq.origin == "user"
    with pytest.raises(DomainError):
        seq.value(3)
    assert HSequence((1, 2)).values == (1.0, 2.0)


def test_aspect_ratio_validates():
    for bad in (Fraction(0), -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            limiting_moment(2, bad, (1.0, 1.0))
        with pytest.raises(DomainError):
            limiting_moment(2, bad, (1, 1), exact=True)
        with pytest.raises(DomainError):
            limiting_moment_via_compositions(2, bad, (1, 1))
        with pytest.raises(DomainError):
            mp_moment(2, bad, 1.0, exact=True)


def test_order_bounds():
    with pytest.raises(DomainError):
        limiting_moment(0, 1.0, (1.0,))
    with pytest.raises(BoundError):
        limiting_moment(21, 1.0, (1.0,) * 21)
    with pytest.raises(BoundError):
        limiting_moment_via_nc(11, 1.0, (1.0,) * 11)
    with pytest.raises(BoundError):
        qform_moment(21, 1.0, (1.0,) * 21, (1.0,) * 21)
    with pytest.raises(BoundError):
        limiting_moment_via_compositions(21, 1.0, (1.0,) * 21)


def test_short_trace_sequences_rejected():
    with pytest.raises(DomainError):
        limiting_moment(3, 1.0, (1.0, 1.0))
    with pytest.raises(DomainError):
        qform_moment(2, 1.0, (1.0, 1.0), (1.0,))


def test_float_overflow_raises_numeric_error():
    with pytest.raises(NumericError):
        limiting_moment(3, 1.0, (1.0, 1e308, 1.0))  # every term finite, the sum is not
    with pytest.raises(NumericError):
        limiting_moment(2, 1.0, (1e200, 1e200))  # H_1^2 overflows
    with pytest.raises(NumericError):
        qform_moment(3, 1.0, (1.0, 2.0, 3.0), (1.0, 1e308, 1.0))
    with pytest.raises(NumericError):
        qform_moment(2, 1.0, (1e200, 1.0), (1.0, 1.0))
    with pytest.raises(NumericError):
        mp_moment(3, 1.0, 1e200)  # variance^3 overflows
    with pytest.raises(NumericError):
        limiting_moment_via_nc(3, 1.0, (1.0, 1e308, 1.0))  # every term finite, the sum is not
    # the rational evaluation has nothing to overflow
    assert limiting_moment(2, 1, (10**200, 1), exact=True) == 1 + 10**400


# Trace moments of the two-atom spectral law 0.3 delta_0.6 + 0.7 delta_1.8 and
# the weights c^l, c = 1.2: the shape of the benchmark's weighted predictions.
TWO_ATOM_H = tuple(0.3 * 0.6**l + 0.7 * 1.8**l for l in range(1, 21))
POWER_Q = tuple(1.2**l for l in range(1, 21))


@pytest.mark.parametrize(
    "y",
    [Fraction(1, 4), Fraction(1, 3), Fraction(150, 300), 1.0, Fraction(2)],
    ids=["1/4", "1/3", "150x300", "1.0", "2"],
)
def test_exact_mode_matches_composition_oracle(y):
    rational = tuple(Fraction(l + 1, 2 * l + 1) for l in range(1, 21))
    for h in (rational, TWO_ATOM_H):
        for k in range(1, 21):
            assert limiting_moment(k, y, h, exact=True) == limiting_moment_via_compositions(k, y, h)


@pytest.mark.parametrize("y", [0.25, 0.5, 1.0, 2.0])
def test_float_mode_matches_composition_oracle(y):
    for k in range(1, 21):
        oracle = float(limiting_moment_via_compositions(k, y, TWO_ATOM_H))
        assert limiting_moment(k, y, TWO_ATOM_H) == pytest.approx(oracle, rel=1e-13)


# Values of the composition-loop evaluation this module used before the
# power-series routine, at k = 1, 4, 12, 20.
PINNED = {
    0.5: (
        (1.44, 32.904299519999995, 1708379.0683301787, 187449259639.99747),
        (1.728, 68.23035548467199, 15232079.376929877, 7186354722217.201),
    ),
    2.0: (
        (1.44, 230.38795007999997, 2247565522.6257725, 4.6723272681991224e16),
        (1.728, 477.7324532858879, 20039519963.768414, 1.791258135244311e18),
    ),
}


@pytest.mark.parametrize("y", sorted(PINNED))
def test_moments_match_pinned_composition_values(y):
    plain, weighted = PINNED[y]
    for k, want_plain, want_weighted in zip((1, 4, 12, 20), plain, weighted):
        assert limiting_moment(k, y, TWO_ATOM_H) == pytest.approx(want_plain, rel=1e-13)
        assert qform_moment(k, y, TWO_ATOM_H, POWER_Q) == pytest.approx(want_weighted, rel=1e-13)


# The per-k power series this module used before the cached power table,
# kept as the reference that the table's float results must equal bit for bit.
def reference_power_coefficients(c, k):
    power = list(c[:k])
    coefficients = [power[-1]]
    for _ in range(1, k):
        power = [sum(power[i] * c[e - i] for i in range(e + 1)) for e in range(len(power) - 1)]
        coefficients.append(power[-1])
    return coefficients


def reference_moment(k, y, h):
    hk = reference_power_coefficients(h, k)
    total = 0.0
    for s in range(1, k + 1):
        coeff = math.factorial(k) / (math.factorial(s) * math.factorial(k - s + 1))
        total += coeff * y ** (k - s) * hk[k - s]
    return total


def reference_qform(k, y, h, q):
    hk = reference_power_coefficients(h, k)
    qk = reference_power_coefficients(q, k)
    total = 0.0
    for s in range(1, k + 1):
        total += k / (s * (k - s + 1)) * y ** (k - s) * hk[k - s] * qk[s - 1]
    return total


@pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
def test_power_table_matches_per_k_reference_bitwise(order):
    rng = np.random.default_rng({"ascending": 1, "descending": 2, "interleaved": 3}[order])
    # more sequences than the cache holds, and prefixes, whose tables are
    # truncated at a smaller K
    sequences = []
    for _ in range(6):
        h = tuple(float(v) for v in rng.uniform(-1.5, 2.5, size=20))
        q = tuple(float(v) for v in rng.uniform(-1.5, 2.5, size=20))
        y = float(rng.uniform(0.1, 3.0))
        sequences += [(h, q, y), (h[:7], q[:13], y), (h[:13], q, y)]
    calls = [(i, k) for i, (h, q, _) in enumerate(sequences) for k in range(1, min(len(h), len(q)) + 1)]
    if order == "descending":
        calls.reverse()
    elif order == "interleaved":
        calls.sort(key=lambda call: (call[1] * 7919 + call[0] * 104729) % 1009)
    moments._power_coefficients.cache_clear()
    for i, k in calls:
        h, q, y = sequences[i]
        assert limiting_moment(k, y, h) == reference_moment(k, y, h)
        assert qform_moment(k, y, h, q) == reference_qform(k, y, h, q)


def test_power_table_is_built_once_per_sequence():
    h = HSequence(tuple(1.0 + 0.1 * l for l in range(20)))
    q = tuple(0.9**l for l in range(1, 21))
    moments._power_coefficients.cache_clear()
    for k in range(1, 21):
        limiting_moment(k, 0.5, h)
        qform_moment(k, 0.5, h, q)
    assert moments._power_coefficients.cache_info().misses == 2


@pytest.mark.parametrize("exact_first", [False, True], ids=["float-first", "exact-first"])
def test_power_table_keeps_float_and_exact_apart(exact_first):
    # (1, 2), (1.0, 2.0) and (Fraction(1), Fraction(2)) hash and compare
    # equal, so one cache must not hand a float table to an exact caller
    ints = (1, 2, 5, 3, 7, 4)
    inputs = (ints, tuple(map(float, ints)), tuple(map(Fraction, ints)))
    y = Fraction(1, 3)
    moments._power_coefficients.cache_clear()
    for _ in range(2):
        for h in inputs:
            for exact in (exact_first, not exact_first):
                for k in range(1, len(ints) + 1):
                    value = limiting_moment(k, y, h, exact=exact)
                    oracle = limiting_moment_via_compositions(k, y, h)
                    if exact:
                        assert type(value) is Fraction and value == oracle
                    else:
                        assert type(value) is float
                        assert value == reference_moment(k, float(y), tuple(map(float, h)))
    assert moments._power_coefficients.cache_info().misses == 2


def test_exact_power_table_on_mixed_denominators():
    h = (Fraction(1, 3), 2, 0.375, Fraction(-5, 7), Fraction(10**30, 3**40))
    for k in range(1, 6):
        assert limiting_moment(k, 0.75, h, exact=True) == limiting_moment_via_compositions(k, 0.75, h)


@pytest.mark.parametrize("k", range(1, 11))
def test_grouped_nc_profiles_count_by_enumeration(k):
    profiles = moments._nc_size_profiles(k)
    assert [sizes for sizes, _ in profiles] == sorted({tuple(sorted(s)) for s, _ in profiles})
    for sizes, count in profiles:
        assert count == count_nc_by_block_sizes(k, Counter(sizes))
    assert sum(count for _, count in profiles) == math.comb(2 * k, k) // (k + 1)


def per_partition_nc_sum(k, y, h):
    """The non-crossing sum taken one partition at a time."""
    total = 0.0
    for p in nc_partitions(k):
        prod = 1.0
        for size in p.block_sizes():
            prod *= h[size - 1]
        total += y ** (len(p.block_sizes()) - 1) * prod
    return total


def test_grouped_nc_sum_matches_per_partition_sum():
    rng = np.random.default_rng(11)
    for k in range(1, 11):
        for _ in range(5):
            y = float(rng.uniform(0.1, 3.0))
            h = tuple(float(v) for v in rng.uniform(0.1, 2.5, size=k))
            want = per_partition_nc_sum(k, y, h)
            assert limiting_moment_via_nc(k, y, h) == pytest.approx(want, rel=1e-13)
