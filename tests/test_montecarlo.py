"""Simulator correctness: substreams, spectral moments, determinism,
budget guard, and histogram bookkeeping."""

import json

import numpy as np
import pytest

from rmtlaw import (
    BudgetError,
    DomainError,
    GaussianAR1,
    IIDSymmetric,
    NumericError,
    SimConfig,
    TwoStateChain,
    covariance_matrix,
    eigenvalue_histogram,
    h_szego,
    limiting_moment,
    replicate_stream,
    run_monte_carlo,
    sample_matrix,
    sample_spectra,
    spectral_moments,
)
from rmtlaw.montecarlo import _histogram_from_values, _replicate_moments

from conftest import three_state_chain


def small_config(**overrides) -> SimConfig:
    base = dict(model=GaussianAR1(p=0.5), m=24, n=48, k_max=3, replicates=8, seed=5)
    base.update(overrides)
    return SimConfig(**base)


def test_replicate_streams_are_reproducible_and_distinct():
    a = replicate_stream(42, 3).random(8)
    b = replicate_stream(42, 3).random(8)
    c = replicate_stream(42, 4).random(8)
    d = replicate_stream(43, 3).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_spectral_moments_identity_and_diagonal():
    assert spectral_moments(np.eye(5), 3).tolist() == [1.0, 1.0, 1.0]
    got = spectral_moments(np.diag([1.0, 2.0, 3.0]), 2)
    assert got == pytest.approx([2.0, 14 / 3])


def test_spectral_moments_match_matrix_powers():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((12, 12))
    w = (a + a.T) / 2
    got = spectral_moments(w, 4)
    for k in range(1, 5):
        expected = np.trace(np.linalg.matrix_power(w, k)) / 12
        assert got[k - 1] == pytest.approx(expected, rel=1e-10)


def test_spectral_moments_validation():
    with pytest.raises(DomainError):
        spectral_moments(np.ones((2, 3)), 2)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(DomainError):
        spectral_moments(skew, 2)


def test_sim_config_validation():
    assert small_config().y == pytest.approx(0.5)
    with pytest.raises(DomainError):
        small_config(m=1)
    with pytest.raises(DomainError):
        small_config(k_max=0)
    with pytest.raises(DomainError):
        small_config(k_max=21)
    with pytest.raises(DomainError):
        small_config(replicates=0)
    with pytest.raises(DomainError):
        small_config(seed=-1)
    with pytest.raises(DomainError):
        small_config(seed=2**64)
    with pytest.raises(DomainError):
        small_config(mode="exact")


def test_sample_matrix_direct():
    config = small_config(model=TwoStateChain(alpha=0.5))
    x = sample_matrix(config, 0)
    assert x.shape == (24, 48)
    assert set(np.unique(x)) <= {-1.0, 1.0}


def test_sample_matrix_remark1_covariance():
    config = SimConfig(
        model=GaussianAR1(p=0.6), m=8, n=1000, k_max=2, replicates=1, seed=9,
        mode="remark1-gaussian",
    )
    t = covariance_matrix(config.model, config.m)
    est = np.zeros((8, 8))
    reps = 8
    for rep in range(reps):
        x = sample_matrix(config, rep)
        est += x @ x.T / config.n
    est /= reps
    assert np.abs(est - t).max() < 4 * np.sqrt(2.0 / (config.n * reps))


def test_first_moment_is_mean_square_entry():
    # (1/m) tr W = (1/(mn)) sum X_ij^2, an identity the eigenvalue path must hit
    config = small_config()
    x = sample_matrix(config, 2)
    w = x @ x.T / config.n
    m1 = spectral_moments(w, 1)[0]
    assert m1 == pytest.approx(float((x * x).mean()), rel=1e-10)


# m < n, m = n, and m > n, where W is formed as X^T X / n
SHAPES = [(12, 30), (20, 20), (30, 7)]


@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("k_max", [1, 4, 7, 20])
def test_replicate_moments_match_eigenvalue_route(m, n, k_max):
    config = SimConfig(model=GaussianAR1(p=0.5), m=m, n=n, k_max=k_max, replicates=3, seed=7)
    for rep in range(config.replicates):
        x = sample_matrix(config, rep)
        want = spectral_moments((x @ x.T) / n, k_max)
        np.testing.assert_allclose(_replicate_moments(config, rep), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("model", [IIDSymmetric(), TwoStateChain(alpha=0.4)])
@pytest.mark.parametrize("m, n", SHAPES)
def test_plus_minus_one_first_moment_is_exact(model, m, n):
    # x^2 = 1 for every entry, so (1/m) tr W = 1 on every replicate
    report = run_monte_carlo(SimConfig(model=model, m=m, n=n, k_max=2, replicates=5, seed=3))
    assert report.moments[0].empirical_mean == 1.0
    assert report.moments[0].empirical_stderr == 0.0


def test_replicate_moments_reject_overflow():
    config = SimConfig(model=IIDSymmetric(variance=1e200), m=4, n=4, k_max=2, replicates=1)
    with pytest.raises(NumericError):
        _replicate_moments(config, 0)  # tr W^2 ~ 1e400


def test_run_monte_carlo_deterministic_across_runs_and_workers():
    config = small_config()
    r1 = run_monte_carlo(config, workers=1)
    r2 = run_monte_carlo(config, workers=1)
    r3 = run_monte_carlo(config, workers=3)
    assert r1.payload() == r2.payload() == r3.payload()
    assert r1.to_json(include_runtime=False) == r3.to_json(include_runtime=False)


def test_report_shape_and_fields():
    config = small_config(k_max=4)
    report = run_monte_carlo(config)
    assert [row.k for row in report.moments] == [1, 2, 3, 4]
    doc = json.loads(report.to_json())
    assert set(doc) == {"config", "moments", "runtime_seconds", "provenance"}
    assert doc["provenance"] == {"sampler_stream": 2, "numpy": np.__version__}
    assert "runtime_seconds" not in report.payload()
    assert doc["config"] == {
        "model": "ar1:p=0.5",
        "m": 24,
        "n": 48,
        "replicates": 8,
        "k_max": 4,
        "seed": 5,
        "mode": "direct",
    }
    for row in doc["moments"]:
        assert set(row) == {
            "k", "predicted_limit", "predicted_finite", "empirical_mean", "empirical_stderr",
        }
        assert row["empirical_stderr"] > 0


def test_provenance_leaves_the_payload_bytes_alone():
    report = run_monte_carlo(small_config())
    doc = json.loads(report.to_json())
    assert doc.pop("provenance") == report.provenance()
    doc.pop("runtime_seconds")
    assert "provenance" not in report.payload()
    payload_text = json.dumps(report.payload(), indent=2) + "\n"
    assert json.dumps(doc, indent=2) + "\n" == payload_text
    assert report.to_json(include_runtime=False) == payload_text


def test_provenance_keeps_reports_identical_across_worker_counts():
    docs = []
    for workers in (1, 3):
        doc = json.loads(run_monte_carlo(small_config(), workers=workers).to_json())
        doc.pop("runtime_seconds")
        docs.append(doc)
    assert "provenance" in docs[0]
    assert docs[0] == docs[1]


def test_report_floats_are_rounded_to_12_significant_digits():
    report = run_monte_carlo(small_config())
    doc = report.payload()
    for row, raw in zip(doc["moments"], report.moments):
        assert row["empirical_mean"] == float(format(raw.empirical_mean, ".12g"))
        assert row["predicted_finite"] == float(format(raw.predicted_finite, ".12g"))


def test_chain_model_gets_limit_prediction():
    config = small_config(model=three_state_chain(), replicates=2)
    report = run_monte_carlo(config)
    h = h_szego(three_state_chain(), config.k_max)
    for row in report.moments:
        assert row.predicted_limit == limiting_moment(row.k, config.y, h)
        assert row.predicted_finite != row.predicted_limit


def test_peaked_model_has_no_limit_prediction():
    report = run_monte_carlo(small_config(model=GaussianAR1(p=0.97), replicates=2))
    assert all(row.predicted_limit is None for row in report.moments)


def test_other_quadrature_domain_errors_propagate(monkeypatch):
    def failing_h_szego(model, k_max):
        raise DomainError("trace moments must be finite")

    monkeypatch.setattr("rmtlaw.montecarlo.h_szego", failing_h_szego)
    with pytest.raises(DomainError, match="must be finite"):
        run_monte_carlo(small_config(replicates=2))


def test_single_replicate_has_zero_stderr():
    report = run_monte_carlo(small_config(replicates=1))
    assert all(row.empirical_stderr == 0.0 for row in report.moments)


def test_run_matches_prediction_loosely():
    report = run_monte_carlo(small_config(m=60, n=120, replicates=60, seed=11))
    for row in report.moments:
        gap = abs(row.empirical_mean - row.predicted_finite)
        assert gap <= max(4 * row.empirical_stderr, 0.05 * abs(row.predicted_finite))


def test_budget_guard(monkeypatch):
    with pytest.raises(BudgetError):
        run_monte_carlo(small_config(m=513))
    with pytest.raises(BudgetError):
        run_monte_carlo(small_config(n=1025))
    with pytest.raises(BudgetError):
        run_monte_carlo(small_config(replicates=1001))
    monkeypatch.setenv("RMTLAW_BUDGET", "1000")
    with pytest.raises(BudgetError):
        run_monte_carlo(small_config(m=10, n=10, replicates=11))
    report = run_monte_carlo(small_config(m=10, n=10, replicates=11), force=True)
    assert len(report.moments) == 3
    monkeypatch.setenv("RMTLAW_BUDGET", "999999")
    run_monte_carlo(small_config(m=10, n=10, replicates=11))
    monkeypatch.setenv("RMTLAW_BUDGET", "not-a-number")
    with pytest.raises(BudgetError):
        run_monte_carlo(small_config(m=10, n=10, replicates=11))


def test_workers_validation():
    with pytest.raises(DomainError):
        run_monte_carlo(small_config(), workers=0)


def test_histogram_from_values():
    hist = _histogram_from_values(np.array([0.5, 1.5, 2.5, 9.0]), 3, 0.0, 3.0)
    assert hist.counts == (1, 1, 1)
    assert hist.total == 4  # the stray 9.0 still counts toward the total
    assert sum(d * 1.0 for d in hist.density) == pytest.approx(1.0)
    assert hist.bin_edges == (0.0, 1.0, 2.0, 3.0)
    with pytest.raises(DomainError):
        _histogram_from_values(np.array([1.0]), 0, 0.0, 1.0)
    with pytest.raises(DomainError):
        _histogram_from_values(np.array([1.0]), 3, 2.0, 2.0)


def test_histogram_csv_layout():
    hist = _histogram_from_values(np.array([0.25, 0.75]), 2, 0.0, 1.0)
    lines = hist.to_csv().strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,count,density"
    assert lines[1] == "0,0.5,1,1"
    assert len(lines) == 3


def test_sample_spectra_order_and_psd():
    config = small_config()
    spectra = sample_spectra(config, workers=2)
    assert [s.replicate for s in spectra] == list(range(config.replicates))
    for s in spectra:
        assert s.eigenvalues.shape == (config.m,)
        assert s.eigenvalues.min() >= -1e-8 * max(s.eigenvalues.max(), 1.0)


def test_eigenvalue_histogram_defaults():
    config = small_config()
    hist = eigenvalue_histogram(config, bins=12)
    assert hist.total == config.m * config.replicates
    assert sum(hist.counts) == hist.total  # default range covers everything
    assert hist.bin_edges[0] == 0.0
    width = hist.bin_edges[1] - hist.bin_edges[0]
    assert sum(hist.density) * width == pytest.approx(1.0)


def test_square_case_mass_concentrates_on_mp_support():
    # y = 1: the limiting law lives on [0, 4]
    config = SimConfig(model=IIDSymmetric(), m=200, n=200, k_max=1, replicates=5, seed=5)
    hist = eigenvalue_histogram(config, bins=20, value_range=(0.0, 4.0))
    assert sum(hist.counts) / hist.total >= 0.98
