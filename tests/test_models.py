"""Model validation, covariance structure, trace moments, exact joint
moments, exact finite-(m, n) spectral moments, and sampler statistics."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from rmtlaw import (
    BoundError,
    DomainError,
    FiniteMarkovChain,
    GaussianAR1,
    IIDSymmetric,
    NumericError,
    ParseError,
    SimConfig,
    TwoStateChain,
    as_finite_chain,
    autocovariances,
    chain_joint_moment,
    check_product_decay,
    covariance_matrix,
    decay_rate,
    expected_moments,
    h_finite,
    h_szego,
    isserlis_moment,
    model_text,
    parse_model,
    replicate_stream,
    sample_matrix,
    sample_paths,
)
from conftest import three_state_chain


def test_autocovariances():
    assert autocovariances(IIDSymmetric(variance=2.0), 3).tolist() == [2.0, 0.0, 0.0, 0.0]
    assert autocovariances(GaussianAR1(p=0.5), 4).tolist() == [1.0, 0.5, 0.25, 0.125, 0.0625]
    assert autocovariances(TwoStateChain(alpha=-0.5), 3).tolist() == [1.0, -0.5, 0.25, -0.125]
    with pytest.raises(DomainError):
        autocovariances(GaussianAR1(p=0.5), -1)


def test_covariance_matrix_structure():
    t = covariance_matrix(GaussianAR1(p=0.5), 4)
    assert t[0].tolist() == [1.0, 0.5, 0.25, 0.125]
    assert np.allclose(t, t.T)
    assert np.array_equal(covariance_matrix(GaussianAR1(p=0.0), 5), np.eye(5))
    # chains share the geometric covariance of the matching AR(1)
    assert np.allclose(
        covariance_matrix(TwoStateChain(alpha=0.5), 6),
        covariance_matrix(GaussianAR1(p=0.5), 6),
        atol=1e-12,
    )


def test_covariance_matrix_is_positive_semidefinite():
    for model in (GaussianAR1(p=0.9), GaussianAR1(p=-0.8), three_state_chain()):
        eig = np.linalg.eigvalsh(covariance_matrix(model, 50))
        assert eig.min() >= -1e-12


def test_h_finite_independent_entries():
    h = h_finite(IIDSymmetric(variance=1.5), 10, 4)
    assert h.values == pytest.approx(tuple(1.5**k for k in (1, 2, 3, 4)), rel=1e-12)
    assert h.origin == "finite-trace(10)"


def test_h_finite_first_moment_is_variance():
    # unit diagonal of the Toeplitz window
    for model in (GaussianAR1(p=0.5), TwoStateChain(alpha=0.3), three_state_chain()):
        assert h_finite(model, 64, 1).values[0] == pytest.approx(
            autocovariances(model, 0)[0], rel=1e-12
        )


def test_h_szego_closed_form_second_moment():
    # geometric-series sum of R(j)^2 gives H_2 = (1+p^2)/(1-p^2)
    for p in (0.3, 0.5, -0.6):
        h2 = h_szego(GaussianAR1(p=p), 2).values[1]
        assert h2 == pytest.approx((1 + p * p) / (1 - p * p), abs=1e-9)


def test_h_szego_first_moment_and_origin():
    h = h_szego(TwoStateChain(alpha=0.4), 3)
    assert h.values[0] == pytest.approx(1.0, abs=1e-12)
    assert h.origin == "szego-quadrature"


def test_h_szego_independent_entries():
    h = h_szego(IIDSymmetric(variance=2.0), 3)
    assert h.values == pytest.approx((2.0, 4.0, 8.0), rel=1e-12)
    # 3^20 fits in 53 bits, so every 1.5^l is exact
    assert h_szego(IIDSymmetric(variance=1.5), 20).values == tuple(1.5**l for l in range(1, 21))


GEOMETRIC_RHOS = (0.0, 0.1, -0.1, 0.2, -0.2, 0.3, -0.3, 0.4, -0.4, 0.5, -0.5, 0.6, -0.6,
                  0.7, -0.7, 0.8, -0.8, 0.9, 0.95)


def legendre_traces(rho: float, k_max: int) -> list[float]:
    """H_l = P_{l-1}((1 + rho^2)/(1 - rho^2)) for R(j) = rho^|j| (Laplace's
    integral), by the three-term Legendre recurrence."""
    x = (1 + rho * rho) / (1 - rho * rho)
    p = [1.0, x]
    for n in range(1, k_max - 1):
        p.append(((2 * n + 1) * x * p[n] - n * p[n - 1]) / (n + 1))
    return p[:k_max]


def simpson_traces(rho: float, k_max: int) -> list[float]:
    """H_l by composite Simpson quadrature, 4096 panels, of the closed-form
    density (1 - rho^2)/(1 - 2 rho cos(2 pi x) + rho^2) of R(j) = rho^|j|."""
    panels = 4096
    x = np.linspace(0.0, 1.0, panels + 1)
    fx = (1 - rho * rho) / (1 - 2 * rho * np.cos(2 * np.pi * x) + rho * rho)
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights /= 3.0 * panels
    return [float(weights @ fx**l) for l in range(1, k_max + 1)]


@pytest.mark.parametrize("rho", GEOMETRIC_RHOS)
def test_h_szego_matches_legendre_closed_form(rho):
    got = h_szego(GaussianAR1(p=rho), 20).values
    assert got == pytest.approx(legendre_traces(rho, 20), rel=1e-13)
    # the two-state chain has the same R(j)
    assert h_szego(TwoStateChain(alpha=rho), 20).values == got


@pytest.mark.parametrize("rho", [r for r in GEOMETRIC_RHOS if abs(r) <= 0.9])
def test_h_szego_matches_simpson_reference(rho):
    assert h_szego(GaussianAR1(p=rho), 20).values == pytest.approx(
        simpson_traces(rho, 20), rel=1e-12
    )


def test_h_szego_rational_values_at_one_half():
    # P_1(5/3) = 5/3 and P_2(5/3) = (3 (25/9) - 1)/2 = 11/3
    h = h_szego(GaussianAR1(p=0.5), 3).values
    assert h == pytest.approx((1.0, 5 / 3, 11 / 3), rel=1e-14)


def test_h_szego_two_state_chain_matches_its_chain_form():
    for alpha in (-0.7, 0.4, 0.9):
        model = TwoStateChain(alpha=alpha)
        assert h_szego(model.chain_form(), 20).values == pytest.approx(
            h_szego(model, 20).values, rel=1e-13
        )


NON_REVERSIBLE_CHAIN = FiniteMarkovChain(
    states=(-1.0, 0.0, 1.0),
    transition=((0.1, 0.6, 0.3), (0.3, 0.1, 0.6), (0.6, 0.3, 0.1)),
    stationary=(1 / 3, 1 / 3, 1 / 3),
)


@pytest.mark.parametrize("chain", [three_state_chain(), NON_REVERSIBLE_CHAIN],
                         ids=["symmetric", "non-reversible"])
def test_h_szego_chain_matches_extrapolated_windows(chain):
    # (1/m) tr T_m^k = H_k + c_k / m up to terms geometric in m, so the
    # Richardson step 2 h(2m) - h(m) leaves H_k
    windows = [np.array(h_finite(chain, m, 8).values) for m in (200, 400)]
    assert h_szego(chain, 8).values == pytest.approx(2 * windows[1] - windows[0], rel=1e-9)


def test_h_szego_rejections():
    periodic = FiniteMarkovChain(
        states=(1.0, -1.0), transition=((0.0, 1.0), (1.0, 0.0)), stationary=(0.5, 0.5)
    )
    assert decay_rate(periodic) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError, match="decay rate"):
        h_szego(periodic, 2)
    with pytest.raises(DomainError):
        h_szego(GaussianAR1(p=0.96), 2)
    with pytest.raises(BoundError):
        h_szego(GaussianAR1(p=0.5), 21)


def test_h_szego_overflow_is_numeric_error():
    with pytest.raises(NumericError):
        h_szego(IIDSymmetric(variance=1e200), 2)


def test_h_finite_approaches_szego():
    hs = h_szego(GaussianAR1(p=0.5), 3).values
    gap_small = np.abs(np.array(h_finite(GaussianAR1(p=0.5), 50, 3).values) - hs)
    gap_large = np.abs(np.array(h_finite(GaussianAR1(p=0.5), 800, 3).values) - hs)
    assert (gap_large < gap_small).all()
    assert gap_large.max() < 0.01


def test_standard_normals_shapes_and_stats():
    model = IIDSymmetric(distribution="standard-gaussian")
    z = sample_paths(model, 250, 401, replicate_stream(11, 0))  # odd element count
    assert z.shape == (250, 401)
    n = z.size
    assert abs(z.mean()) < 3 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 3 * np.sqrt(2.0 / n)
    assert sample_paths(model, 7, 1, replicate_stream(11, 0)).shape == (7, 1)


def test_sampler_shapes_and_support():
    stream = replicate_stream(3, 1)
    for model in (
        IIDSymmetric(),
        IIDSymmetric(distribution="standard-gaussian"),
        GaussianAR1(p=0.5),
        TwoStateChain(alpha=0.5),
        three_state_chain(),
    ):
        x = sample_paths(model, 17, 9, stream)
        assert x.shape == (17, 9)
    assert set(np.unique(sample_paths(IIDSymmetric(), 50, 20, stream))) == {-1.0, 1.0}
    assert set(np.unique(sample_paths(TwoStateChain(alpha=0.5), 50, 20, stream))) <= {-1.0, 1.0}
    vals = set(np.unique(sample_paths(three_state_chain(), 50, 40, stream)))
    assert vals <= {-1.0, 0.0, 1.0}


# Draws pinned so that a refactor of the samplers cannot silently change the
# random streams (sampler stream 2).  Discrete states compare exactly;
# Gaussian values compare at rtol 1e-10, since the libm calls in the tail of
# numpy's ziggurat and the BLAS product of remark1 may round differently
# across CPUs.
PINNED_DISCRETE = {
    "rademacher": (
        IIDSymmetric(),
        [[1, -1, 1, 1, 1], [-1, -1, 1, 1, -1], [-1, -1, -1, 1, -1], [-1, -1, -1, 1, -1],
         [1, 1, -1, -1, -1], [-1, 1, -1, 1, -1], [1, -1, -1, 1, 1]],
    ),
    "twostate": (
        TwoStateChain(alpha=0.4),
        [[-1, 1, -1, -1, 1], [1, 1, 1, -1, 1], [-1, 1, 1, 1, 1], [-1, 1, 1, -1, -1],
         [-1, -1, 1, -1, -1], [-1, -1, -1, 1, -1], [-1, -1, -1, 1, 1]],
    ),
    "chain": (
        three_state_chain(),
        [[1, -1, 1, 1, 0], [1, -1, 1, 1, -1], [1, -1, 1, 1, -1], [-1, -1, 0, 1, 0],
         [-1, 1, -1, 0, 0], [0, 0, 1, 1, -1], [0, 0, 1, 1, 1]],
    ),
}

PINNED_GAUSSIAN = {
    "standard-gaussian": (
        IIDSymmetric(distribution="standard-gaussian"),
        [[-1.267465426594, -1.898312168545, 0.5425772670264, -1.852450710214, -1.977751571346],
         [1.3910622803, 0.7482938271228, 0.9710330162878, 0.09478766474394, -0.03220831000095],
         [0.1324322073965, 1.75826172958, 1.138837575536, -1.171680701028, 1.332991244718],
         [-0.2458129632399, -0.581878884128, 0.4539734051678, 0.01718265731948, 1.14989010926],
         [-0.6191310711791, -0.8979020441649, -0.2216502674639, -0.5866633881186, -0.9329126508055],
         [-1.480382129276, -1.209997146296, -0.8547893411053, -0.86863388264, -0.7088557271437],
         [-1.237892210173, -0.2417022479126, 0.6256563408872, 1.971928100439, -0.770706056084]],
    ),
    "ar1": (
        GaussianAR1(p=0.6),
        [[-1.267465426594, -1.898312168545, 0.5425772670264, -1.852450710214, -1.977751571346],
         [0.3523705682839, -0.540352239429, 1.102372773246, -1.035640294333, -1.212417590809],
         [0.3173681068875, 1.082398040006, 1.572493724376, -1.558728737422, 0.3389424412896],
         [-0.006229506459406, 0.1839357167014, 1.30667495876, -0.9214911165979, 1.123277552182],
         [-0.4990425608189, -0.6079602053111, 0.6066847612849, -1.022225380454, -0.07236358933525],
         [-1.483731239912, -1.332773840223, -0.3198206161133, -1.308242334384, -0.6105027353161],
         [-1.880552512086, -0.9930261024641, 0.3086327030418, 0.7925970797205, -0.9828664860569]],
    ),
}

PINNED_REMARK1_CHAIN = [
    [-1.034881187258, -1.549965395151, 0.4430124834162, -1.512519671227, -1.614827395929],
    [0.4661889778241, -0.2458590580969, 0.9081302722812, -0.6892348351, -0.8301884123766],
    [0.3267382008096, 1.120349263038, 1.259344908472, -1.173120786633, 0.5274729422144],
    [-0.01044691280568, 0.1487241267229, 0.9506801275086, -0.5744104198069, 1.076831564984],
    [-0.4430152352768, -0.5605505609088, 0.3186096565787, -0.702038869916, -0.1212530791471],
    [-1.268295859997, -1.135872467817, -0.4451225112922, -0.9652363437411, -0.5618632311198],
    [-1.50946990619, -0.7388455324353, 0.2198445856876, 0.911745559962, -0.8259030941184],
]


@pytest.mark.parametrize("name", sorted(PINNED_DISCRETE))
def test_discrete_sampler_draws_are_pinned(name):
    model, expected = PINNED_DISCRETE[name]
    x = sample_paths(model, 7, 5, replicate_stream(11, 2))
    assert np.array_equal(x, np.array(expected, dtype=float))


@pytest.mark.parametrize("name", sorted(PINNED_GAUSSIAN))
def test_gaussian_sampler_draws_are_pinned(name):
    model, expected = PINNED_GAUSSIAN[name]
    x = sample_paths(model, 7, 5, replicate_stream(11, 2))
    np.testing.assert_allclose(x, expected, rtol=1e-10, atol=0)


def test_remark1_sample_matrix_draws_are_pinned():
    config = SimConfig(model=three_state_chain(), m=7, n=5, seed=11, mode="remark1-gaussian")
    np.testing.assert_allclose(sample_matrix(config, 2), PINNED_REMARK1_CHAIN, rtol=1e-10, atol=0)


# The row-loop samplers as they stood before vectorisation, and a
# word-by-word Rademacher sampler: references that the current samplers must
# match bit for bit, at the acceptance shape and at degenerate ones.
def reference_ar1(model, m, count, stream):
    z = stream.standard_normal((m, count))
    x = np.empty((m, count))
    x[0] = z[0]
    c = np.sqrt(1.0 - model.p * model.p)
    for i in range(1, m):
        x[i] = model.p * x[i - 1] + c * z[i]
    return x


def reference_rademacher(model, m, count, stream):
    sig = float(np.sqrt(model.variance))
    words = [int(w) for w in stream.bit_generator.random_raw((m * count + 63) // 64)]
    signs = [sig if words[i // 64] >> (i % 64) & 1 else -sig for i in range(m * count)]
    return np.array(signs).reshape(m, count)


def reference_twostate(model, m, count, stream):
    u = stream.random((m, count))
    x = np.empty((m, count))
    x[0] = np.where(u[0] < 0.5, 1.0, -1.0)
    stay = (1.0 + model.alpha) / 2.0
    for i in range(1, m):
        x[i] = x[i - 1] * np.where(u[i] < stay, 1.0, -1.0)
    return x


def reference_chain(model, m, count, stream):
    states = np.array(model.states)
    cum_rows = np.cumsum(np.array(model.transition), axis=1)
    cum_pi = np.cumsum(np.array(model.stationary))
    nstates = len(states)
    u = stream.random((m, count))
    x = np.empty((m, count))
    idx = np.minimum(np.searchsorted(cum_pi, u[0], side="right"), nstates - 1)
    x[0] = states[idx]
    for i in range(1, m):
        idx = np.minimum((u[i][:, None] >= cum_rows[idx]).sum(axis=1), nstates - 1)
        x[i] = states[idx]
    return x


# a 4-state chain with zero transitions, so some cumulative thresholds repeat
SPARSE_CHAIN = FiniteMarkovChain(
    states=(-2.0, 0.0, 2.0, 0.0),
    transition=(
        (0.5, 0.0, 0.5, 0.0), (0.0, 0.5, 0.0, 0.5), (0.5, 0.0, 0.5, 0.0), (0.0, 0.5, 0.0, 0.5),
    ),
    stationary=(0.25, 0.25, 0.25, 0.25),
)


# every cumulative threshold a multiple of 1/64, so each sits on an edge of
# the sampler's cells (at least 64 per threshold, a power of two)
DYADIC_CHAIN = FiniteMarkovChain(
    states=(-3.0, -1.0, 1.0, 3.0),
    transition=tuple(
        tuple(c / 64 for c in row)
        for row in ((27, 21, 9, 7), (21, 27, 7, 9), (9, 7, 27, 21), (7, 9, 21, 27))
    ),
    stationary=(0.25, 0.25, 0.25, 0.25),
)

# thresholds 0.3, 0.3 + d, 0.3 + 2d and 0.7 - 2d, 0.7 - d, 0.7 cluster three
# to a cell, so draws in those cells fall between thresholds
_D = 0.00025
CLUSTERED_CHAIN = FiniteMarkovChain(
    states=(-3.0, -1.0, 1.0, 3.0),
    transition=(
        (0.3, _D, _D, 0.7 - 2 * _D),
        (_D, 0.3, 0.7 - 2 * _D, _D),
        (_D, 0.7 - 2 * _D, 0.3, _D),
        (0.7 - 2 * _D, _D, _D, 0.3),
    ),
    stationary=(0.25, 0.25, 0.25, 0.25),
)


def test_edge_case_chains_hit_the_cell_edges_they_claim():
    for chain, most_inside in ((DYADIC_CHAIN, 0), (CLUSTERED_CHAIN, 3)):
        cells = np.asarray(chain._thresholds) * chain._grid
        cells = cells[cells < chain._grid]
        inside = np.floor(cells[cells != np.floor(cells)])
        counts = np.unique(inside, return_counts=True)[1]
        assert max(counts, default=0) == most_inside


def doubly_stochastic_chain(nstates: int, mixands: int, seed: int) -> FiniteMarkovChain:
    """A random mixture of permutation matrices: uniform stationary law,
    evenly spaced zero-mean states and up to nstates * (nstates - 1)
    distinct cumulative thresholds."""
    rng = np.random.default_rng(seed)
    weights = rng.random(mixands)
    weights /= weights.sum()
    transition = np.zeros((nstates, nstates))
    for w in weights:
        transition[np.arange(nstates), rng.permutation(nstates)] += w
    return FiniteMarkovChain(
        states=tuple(np.linspace(-1.0, 1.0, nstates)),
        transition=tuple(map(tuple, transition)),
        stationary=(1.0 / nstates,) * nstates,
    )


# 20 states: the successor table fits the draws at (150, 300) but not at (33, 1)
MANY_STATE_CHAIN = doubly_stochastic_chain(20, 8, seed=3)

REFERENCE_SAMPLERS = {
    "many-state-chain": (MANY_STATE_CHAIN, reference_chain),
    "ar1": (GaussianAR1(p=0.6), reference_ar1),
    "ar1-negative": (GaussianAR1(p=-0.95), reference_ar1),
    "twostate": (TwoStateChain(alpha=0.4), reference_twostate),
    "chain": (three_state_chain(), reference_chain),
    "sparse-chain": (SPARSE_CHAIN, reference_chain),
    "dyadic-chain": (DYADIC_CHAIN, reference_chain),
    "clustered-chain": (CLUSTERED_CHAIN, reference_chain),
    "rademacher": (IIDSymmetric(), reference_rademacher),
    "rademacher-var2": (IIDSymmetric(variance=2.0), reference_rademacher),
}
REFERENCE_KEYS = [(0, 0), (11, 2), (7, 199), (2**64 - 1, 3)]


@pytest.mark.parametrize("shape", [(150, 300), (1, 3), (33, 1)])
@pytest.mark.parametrize("name", sorted(REFERENCE_SAMPLERS))
def test_samplers_match_row_loop_reference_bit_for_bit(name, shape):
    model, reference = REFERENCE_SAMPLERS[name]
    for key in REFERENCE_KEYS:
        got = sample_paths(model, *shape, replicate_stream(*key))
        assert np.array_equal(got, reference(model, *shape, replicate_stream(*key)))


def test_chain_sampler_memory_does_not_grow_with_the_states():
    # 150 states here have 3757 distinct thresholds, a successor table of
    # 564k entries (4.5 MB); a 4 x 8 draw must not build it
    chain = doubly_stochastic_chain(150, 30, seed=5)
    tracemalloc.start()
    try:
        got = sample_paths(chain, 4, 8, replicate_stream(1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert np.array_equal(got, reference_chain(chain, 4, 8, replicate_stream(1, 0)))
    # 50 states with 1723 thresholds: a successor table of 86k entries fits a
    # 300 x 500 draw, but adding the 131k-cell table of the coder does not,
    # so the draw keeps its memory within a few copies of the draws
    chain = doubly_stochastic_chain(50, 60, seed=5)
    tracemalloc.start()
    try:
        got = sample_paths(chain, 300, 500, replicate_stream(1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * got.nbytes
    assert np.array_equal(got, reference_chain(chain, 300, 500, replicate_stream(1, 0)))


def empirical_lag_cov(x: np.ndarray, lag: int) -> float:
    return float((x[:-lag] * x[lag:]).mean()) if lag else float((x * x).mean())


@pytest.mark.parametrize(
    "model",
    [
        IIDSymmetric(),
        IIDSymmetric(distribution="standard-gaussian", variance=2.0),
        GaussianAR1(p=0.6),
        GaussianAR1(p=-0.4),
        TwoStateChain(alpha=0.7),
        three_state_chain(),
    ],
)
def test_sampler_matches_autocovariances(model):
    x = sample_paths(model, 400, 300, replicate_stream(17, 4))
    r = autocovariances(model, 2)
    n_pairs = x.size
    for lag in (0, 1, 2):
        se = 3.0 / np.sqrt(n_pairs)  # crude but generous at 120k samples
        assert abs(empirical_lag_cov(x, lag) - r[lag]) < 4 * se * max(1.0, r[0])


def test_isserlis_pairs_and_validation():
    ar1 = GaussianAR1(p=0.5)
    assert isserlis_moment(ar1, (1, 2)) == pytest.approx(0.5)
    assert isserlis_moment(ar1, (3, 3)) == pytest.approx(1.0)
    assert isserlis_moment(ar1, ()) == 1.0
    with pytest.raises(DomainError):
        isserlis_moment(ar1, (1, 2, 3))
    with pytest.raises(DomainError):
        isserlis_moment(ar1, (0, 1))
    with pytest.raises(BoundError):
        isserlis_moment(ar1, tuple(range(1, 15)))


def test_isserlis_fourth_moment_closed_form():
    # pairings (12)(34), (13)(24), (14)(23) give p^2 + p^4 + p^4
    for p in (0.3, 0.6, -0.5):
        assert isserlis_moment(GaussianAR1(p=p), (1, 2, 3, 4)) == pytest.approx(
            p**2 + 2 * p**4, abs=1e-15
        )


def test_isserlis_explicit_matrix_agrees_with_model():
    ar1 = GaussianAR1(p=0.7)
    t = covariance_matrix(ar1, 6)
    for idx in ((1, 2), (1, 2, 2, 3), (2, 4, 5, 6), (1, 1, 1, 1)):
        assert isserlis_moment(t, idx) == pytest.approx(isserlis_moment(ar1, idx), rel=1e-12)
    with pytest.raises(DomainError):
        isserlis_moment(t, (1, 7))
    with pytest.raises(DomainError):
        isserlis_moment(np.ones((2, 3)), (1, 2))


def test_isserlis_monte_carlo_cross_check():
    p = 0.6
    x = sample_paths(GaussianAR1(p=p), 3, 400_000, replicate_stream(23, 0))
    empirical = float((x[0] * x[1] * x[1] * x[2]).mean())
    exact = isserlis_moment(GaussianAR1(p=p), (1, 2, 2, 3))
    assert exact == pytest.approx(3 * p * p)  # p*p + p*p + R(2)*R(0)
    se = float((x[0] * x[1] * x[1] * x[2]).std(ddof=1)) / np.sqrt(x.shape[1])
    assert abs(empirical - exact) < 4 * se


def test_chain_joint_moment_geometric_pairs():
    for alpha in (0.2, 0.5, 0.8):
        chain = TwoStateChain(alpha=alpha)
        for j in range(10):
            assert chain_joint_moment(chain, (1, 1 + j)) == pytest.approx(alpha**j, abs=1e-13)


def test_chain_joint_moment_basics():
    ts = TwoStateChain(alpha=0.5)
    assert chain_joint_moment(ts, ()) == 1.0
    assert chain_joint_moment(ts, (4,)) == pytest.approx(0.0, abs=1e-15)  # symmetric states
    assert chain_joint_moment(ts, (2, 3, 7)) == pytest.approx(0.0, abs=1e-15)
    assert chain_joint_moment(ts, (5, 5)) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        chain_joint_moment(ts, (2, 1))
    with pytest.raises(BoundError):
        chain_joint_moment(ts, tuple([1] * 13))
    with pytest.raises(BoundError):
        chain_joint_moment(ts, (1, 10_001))
    with pytest.raises(BoundError):
        chain_joint_moment(ts, (0, 1))


def test_chain_joint_moment_against_sampler():
    chain = three_state_chain()
    exact = chain_joint_moment(chain, (1, 2, 4))
    x = sample_paths(chain, 4, 400_000, replicate_stream(29, 0))
    prods = x[0] * x[1] * x[3]
    se = float(prods.std(ddof=1)) / np.sqrt(prods.size)
    assert abs(float(prods.mean()) - exact) < 4 * se


def brute_force_moment(model, m, n, k):
    """E[(1/m) tr W^k] summed entry by entry over all row and column
    labellings: Isserlis pairings on the explicit covariance kron(I_n, T_m)
    for Gaussian models, products of per-column chain moments otherwise."""
    gaussian = isinstance(model, GaussianAR1)
    cov = np.kron(np.eye(n), covariance_matrix(model, m)) if gaussian else None
    total = 0.0
    for rows in itertools.product(range(1, m + 1), repeat=k):
        for cols in itertools.product(range(n), repeat=k):
            # <a_c(t), a_c(t+1)> picks row rows[t] of both columns
            entries = [(cols[t], rows[t - 1]) for t in range(k)]
            entries += [(cols[t], rows[t]) for t in range(k)]
            if gaussian:
                total += isserlis_moment(cov, [c * m + i for c, i in entries])
                continue
            term = 1.0
            for c in set(cols):
                term *= chain_joint_moment(model, sorted(i for cc, i in entries if cc == c))
            total += term
    return total / (m * n**k)


@pytest.mark.parametrize(
    "model", [GaussianAR1(p=0.5), TwoStateChain(alpha=0.5), three_state_chain()]
)
def test_expected_moments_match_brute_force(model):
    exact = expected_moments(model, 3, 2, 4)
    for k in range(1, 5):
        assert exact[k - 1] == pytest.approx(brute_force_moment(model, 3, 2, k), rel=1e-12)


def test_expected_moments_first_moment_is_h1():
    models = (
        GaussianAR1(p=0.5),
        TwoStateChain(alpha=-0.3),
        three_state_chain(),
        IIDSymmetric(variance=2.0),
        IIDSymmetric(distribution="standard-gaussian", variance=0.5),
    )
    for model in models:
        h1 = h_finite(model, 7, 1).values[0]
        for n in (1, 2, 50):
            assert expected_moments(model, 7, n, 1)[0] == pytest.approx(h1, rel=1e-14)


def test_expected_moments_second_moment_closed_forms():
    m = 20
    for n in (1, 3, 300):
        for model in (GaussianAR1(p=0.5), IIDSymmetric("standard-gaussian", 2.0)):
            h1, h2 = h_finite(model, m, 2).values
            assert expected_moments(model, m, n, 2)[1] == pytest.approx(
                (m / n) * h1**2 + (1 + 1 / n) * h2, rel=1e-12
            )
        # +-1 entries: x^2 = 1 replaces the Gaussian fourth-moment term
        for model in (TwoStateChain(alpha=0.5), IIDSymmetric(variance=1.0)):
            h2 = h_finite(model, m, 2).values[1]
            assert expected_moments(model, m, n, 2)[1] == pytest.approx(
                m / n + (1 - 1 / n) * h2, rel=1e-12
            )


def test_expected_moments_validation():
    ar1 = GaussianAR1(p=0.5)
    with pytest.raises(BoundError):
        expected_moments(ar1, 4, 4, 5)
    with pytest.raises(BoundError):
        expected_moments(ar1, 4, 4, 0)
    with pytest.raises(DomainError):
        expected_moments(ar1, 0, 4, 2)
    with pytest.raises(DomainError):
        expected_moments(TwoStateChain(alpha=0.5), 4, 0, 2)
    # 40 states over four copies and 16 subset masks: 41 million entries
    big = FiniteMarkovChain(
        states=tuple(float(i) - 19.5 for i in range(40)),
        transition=((1 / 40,) * 40,) * 40,
        stationary=(1 / 40,) * 40,
    )
    with pytest.raises(BoundError):
        expected_moments(big, 4, 4, 4)
    assert expected_moments(big, 4, 4, 2)[0] == pytest.approx(h_finite(big, 4, 1).values[0])


def test_finite_chain_validation():
    good = three_state_chain()
    assert good.stationary == pytest.approx((1 / 3,) * 3)
    with pytest.raises(DomainError):
        FiniteMarkovChain(states=(1.0,), transition=((1.0,),), stationary=(1.0,))
    with pytest.raises(DomainError):
        FiniteMarkovChain(
            states=(1.0, -1.0), transition=((0.7, 0.4), (0.5, 0.5)), stationary=(0.5, 0.5)
        )
    with pytest.raises(DomainError):
        FiniteMarkovChain(
            states=(1.0, -1.0), transition=((0.9, 0.1), (0.5, 0.5)), stationary=(0.5, 0.5)
        )
    with pytest.raises(DomainError):
        FiniteMarkovChain(  # stationary mean 0.2, not 0
            states=(1.0, -0.6), transition=((0.5, 0.5), (0.5, 0.5)), stationary=(0.5, 0.5)
        )
    with pytest.raises(DomainError):
        FiniteMarkovChain(
            states=(1.0, -1.0), transition=((1.1, -0.1), (0.5, 0.5)), stationary=(0.5, 0.5)
        )


def test_as_finite_chain_preserves_covariance():
    ts = TwoStateChain(alpha=0.6)
    chain = as_finite_chain(ts)
    assert np.allclose(autocovariances(chain, 5), autocovariances(ts, 5), atol=1e-12)
    assert as_finite_chain(chain) is chain
    with pytest.raises(DomainError):
        as_finite_chain(GaussianAR1(p=0.5))


def test_decay_rate():
    assert decay_rate(IIDSymmetric()) == 0.0
    assert decay_rate(GaussianAR1(p=-0.7)) == 0.7
    assert decay_rate(TwoStateChain(alpha=0.5)) == 0.5
    # second-largest transition eigenvalue of the explicit two-state form
    assert decay_rate(as_finite_chain(TwoStateChain(alpha=0.5))) == pytest.approx(0.5)


def test_product_decay_pair_case_vanishes():
    report = check_product_decay(TwoStateChain(alpha=0.5), 1, 100, replicate_stream(31, 0))
    assert report.max_ratio == 0.0


def test_product_decay_twostate_factorizes():
    # the two-state chain's even joint moments split exactly into pair products
    report = check_product_decay(TwoStateChain(alpha=0.5), 2, 300, replicate_stream(31, 1))
    assert report.max_ratio == 0.0


def test_product_decay_three_state_bounded():
    chain = three_state_chain()
    for k in (2, 3):
        report = check_product_decay(chain, k, 300, replicate_stream(31, 2))
        assert report.k == k and report.trials == 300
        assert 0.0 <= report.max_ratio < 50.0
        if report.max_ratio > 0:
            assert list(report.worst_indices) == sorted(report.worst_indices)
            assert len(report.worst_indices) == 2 * k
    with pytest.raises(BoundError):
        check_product_decay(chain, 5, 10, replicate_stream(31, 3))


def test_parse_model_round_trips():
    for text in ("iid:dist=rademacher,var=1", "ar1:p=0.5", "twostate:alpha=0.5"):
        assert model_text(parse_model(text)) == text
    assert parse_model("iid:") == IIDSymmetric()
    assert parse_model("iid:dist=standard-gaussian,var=2").variance == 2.0


def test_parse_model_chain_file(tmp_path):
    chain = three_state_chain()
    path = tmp_path / "chain.json"
    path.write_text(
        json.dumps(
            {
                "states": list(chain.states),
                "transition": [list(row) for row in chain.transition],
                "stationary": list(chain.stationary),
            }
        )
    )
    parsed = parse_model(f"chain:file={path}")
    assert isinstance(parsed, FiniteMarkovChain)
    assert parsed == chain  # source is excluded from equality
    assert model_text(parsed) == f"chain:file={path}"


def test_parse_model_rejections(tmp_path):
    for text in (
        "spike:a=1",
        "ar1:",
        "ar1:p=x",
        "ar1:p=0.5,extra=1",
        "ar1:p=0.5,p=0.6",
        "iid:dist=poisson",
        "chain:",
        "chain:file=/does/not/exist.json",
    ):
        with pytest.raises((ParseError, DomainError)):
            parse_model(text)
    bad = tmp_path / "bad.json"
    bad.write_text("{\"states\": [1, -1]}")
    with pytest.raises(ParseError):
        parse_model(f"chain:file={bad}")
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    with pytest.raises(ParseError):
        parse_model(f"chain:file={notjson}")


def test_model_parameter_validation():
    with pytest.raises(DomainError):
        GaussianAR1(p=1.0)
    with pytest.raises(DomainError):
        TwoStateChain(alpha=-1.0)
    with pytest.raises(DomainError):
        IIDSymmetric(variance=0.0)
    with pytest.raises(DomainError):
        IIDSymmetric(distribution="uniform")
