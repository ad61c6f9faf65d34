"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Tolerances are fixed
here, not tuned elsewhere.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

import densityball as db
from densityball.cli import main as cli_main
from densityball.weights import replication_rng

import reference


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def _random_oracle(rng):
    roll = rng.integers(0, 3)
    if roll == 0:
        return db.UniformDensity()
    if roll == 1:
        values = rng.uniform(0.1, 2.0, size=int(rng.integers(2, 6)))
        return db.HistogramDensity(values / values.mean())
    amplitude = float(rng.uniform(-0.65, 0.65))
    return db.CosineTiltDensity(amplitude, int(rng.integers(1, 5)))


def _random_model(rng, max_dim=16):
    if rng.random() < 0.5:
        return db.HistogramModel(int(rng.integers(1, max_dim + 1)))
    return db.FourierModel(int(rng.integers(0, (max_dim - 1) // 2 + 1)))


def test_criterion_1_identity_decomposition():
    """Error minus resampling estimate equals the centered U-statistic."""
    start = time.time()
    rng = np.random.default_rng(20260811)
    worst = 0.0
    for _ in range(100):
        oracle = _random_oracle(rng)
        model = _random_model(rng)
        n = int(rng.integers(2, 51))
        sample = db.sample_from(oracle, n, rng)
        error = db.projection_error_sq(sample, model, oracle)
        estimate = db.resampling_variance(sample, model)
        centered = db.centered_u_statistic(sample, model, oracle)
        worst = max(worst, abs(error - estimate - centered) / (1.0 + error))
    elapsed = time.time() - start
    _report(
        "criterion 1 (identity decomposition)",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst relative residual {worst:.2e} over 100 triples in {elapsed:.2f}s",
    )


def test_criterion_2_exact_enumeration_oracle():
    """Enumerated expectation equals the closed form for both schemes."""
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(2, 7))
        kind = "efron" if case % 2 == 0 else "rademacher"
        scheme = db.make_scheme(kind, n)
        model = _random_model(rng, max_dim=9)
        sample = db.Sample(rng.random(n))
        closed = db.resampling_variance(sample, model)
        enum = reference.resampling_variance_enumerated(sample, model, scheme)
        worst = max(worst, abs(closed - enum))
    elapsed = time.time() - start
    _report(
        "criterion 2 (exact enumeration)",
        worst <= 1e-12 and elapsed < 10.0,
        f"worst absolute gap {worst:.2e} over 50 cases in {elapsed:.2f}s",
    )


def test_criterion_3_monte_carlo_consistency():
    """Monte Carlo estimate within 3 standard errors of the closed form."""
    start = time.time()
    model = db.HistogramModel(4)
    scheme = db.make_scheme("efron", 20)
    within = 0
    cases = 100
    for case in range(cases):
        rng = replication_rng(555, case)
        sample = db.sample_from(db.UniformDensity(), 20, rng)
        closed = db.resampling_variance(sample, model)
        draws = reference.sample_weights_batch(scheme, 100_000, rng)
        stats = reference.resampling_statistics(sample, model, scheme, draws)
        se = stats.std(ddof=1) / math.sqrt(stats.size)
        within += abs(float(np.mean(stats)) - closed) <= 3.0 * se
    elapsed = time.time() - start
    _report(
        "criterion 3 (Monte Carlo consistency)",
        within >= 95 and elapsed < 60.0,
        f"{within}/{cases} cases within 3 standard errors in {elapsed:.1f}s",
    )


def test_criterion_4_bias_estimator_unbiased():
    """Mean of the bias U-statistic matches the exact squared bias."""
    start = time.time()
    oracle = db.CosineTiltDensity(0.3, 3)
    sub, top = db.FourierModel(2), db.FourierModel(4)
    exact = reference.true_bias_sq(oracle, sub, top)
    assert exact == pytest.approx(0.09, abs=1e-15)
    reps = 10_000
    values = np.empty(reps)
    for j in range(reps):
        sample = db.sample_from(oracle, 50, replication_rng(808, j))
        values[j] = db.projection_bias_estimate(sample, sub, top)
    se = values.std(ddof=1) / math.sqrt(reps)
    gap = abs(values.mean() - exact)
    elapsed = time.time() - start
    _report(
        "criterion 4 (bias estimator unbiased)",
        gap <= 4.0 * se and elapsed < 60.0,
        f"mean {values.mean():.5f} vs {exact:.5f} (gap {gap / se:.2f} se) in {elapsed:.1f}s",
    )


def test_criterion_5_normalized_difference_stability():
    """Normalized-difference distribution is stable across (n, dim)."""
    start = time.time()
    small = db.normalized_difference_experiment(
        db.UniformDensity(), n=50, dim=10, n_draws=100, reps=1000, seed=42
    )
    large = db.normalized_difference_experiment(
        db.UniformDensity(), n=200, dim=50, n_draws=500, reps=1000, seed=43
    )
    ks = ks_2samp(small.monte_carlo, large.monte_carlo).statistic
    ok = ks < 0.1
    detail = [f"two-sample KS {ks:.4f}"]
    for name, result in (("small", small), ("large", large)):
        col = result.monte_carlo
        se = col.std(ddof=1) / math.sqrt(col.size)
        ok &= abs(col.mean()) <= 4.0 * se
        detail.append(f"{name} mean {col.mean():+.4f} ({abs(col.mean()) / se:.2f} se)")
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    _report(
        "criterion 5 (normalized-difference stability)",
        ok,
        ", ".join(detail) + f" in {elapsed:.1f}s",
    )


def test_criterion_6_resampled_quantile_coverage():
    """Resampled-quantile coverage hugs the diagonal at the default seed."""
    start = time.time()
    alphas = [round(0.5 + 0.05 * i, 2) for i in range(10)]
    table = db.coverage_experiment(
        db.UniformDensity(),
        n=100,
        dim=50,
        n_draws=10_000,
        reps=100,
        alphas=alphas,
        seed=db.DEFAULT_SEED,
    )
    deviation = max(abs(coverage - alpha) for alpha, coverage in table)
    elapsed = time.time() - start
    _report(
        "criterion 6 (resampled-quantile coverage)",
        deviation <= 0.05 and elapsed < 600.0,
        f"max |coverage - alpha| = {deviation:.3f} over {len(alphas)} levels in {elapsed:.1f}s",
    )


def test_criterion_7_theoretical_ball_coverage():
    """The selected ball covers the truth in at least 90% of replications."""
    start = time.time()
    scenarios = [
        ("uniform/hist", db.UniformDensity(), db.histogram_collection([1, 2, 4, 8])),
        ("histogram/hist", db.HistogramDensity([1.5, 0.5]), db.histogram_collection([1, 2, 4, 8])),
        ("cosine in-span", db.CosineTiltDensity(0.3, 2), db.fourier_collection([1, 3, 5])),
        ("cosine out-of-span", db.CosineTiltDensity(0.3, 3), db.fourier_collection([1, 3, 5])),
    ]
    reps = 500
    n = 100
    details = []
    ok = True
    for label, oracle, collection in scenarios:
        residual = db.residual_norm_sq(oracle, collection.top)
        cfg = db.BoundConfig(
            beta=0.1, m2=oracle.norm2, m_inf=oracle.norm_inf, eta=math.sqrt(residual)
        )
        truth = oracle.true_coefficients(collection.top)
        covered = 0
        for j in range(reps):
            sample = db.sample_from(oracle, n, replication_rng(321, j))
            ball = db.build_confidence_ball(sample, collection, cfg)
            covered += ball.contains(truth, residual_norm_sq=residual)
        rate = covered / reps
        ok &= rate >= 0.90
        details.append(f"{label}: {rate:.3f}")
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    _report(
        "criterion 7 (theoretical ball coverage)",
        ok,
        ", ".join(details) + f" in {elapsed:.1f}s",
    )


def test_criterion_8_pythagoras_identity():
    """Total error splits exactly into residual, bias, and estimation parts."""
    start = time.time()
    rng = np.random.default_rng(88)
    worst = 0.0
    for case in range(100):
        oracle = _random_oracle(rng)
        if case % 2 == 0:
            coll = db.fourier_collection([2 * j + 1 for j in sorted(rng.choice(6, size=3, replace=False))])
        else:
            coll = db.histogram_collection([1, 2, 4, 8])
        sub = coll.models[int(rng.integers(0, len(coll) - 1))]
        top = coll.top
        sample = db.sample_from(oracle, int(rng.integers(2, 40)), rng)

        truth_top = oracle.true_coefficients(top)
        estimate = db.project(sample, sub)
        truth_sub = truth_top[: sub.dim]
        # left side via exact norms: ||s - est||^2 expanded in coefficients
        total = (
            oracle.norm2**2
            - 2.0 * math.fsum(truth_sub * estimate)
            + math.fsum(estimate * estimate)
        )
        residual = db.residual_norm_sq(oracle, top)
        bias = reference.true_bias_sq(oracle, sub, top)
        estimation = db.projection_error_sq(sample, sub, oracle)
        worst = max(worst, abs(total - (residual + bias + estimation)))
    elapsed = time.time() - start
    _report(
        "criterion 8 (orthogonal error split)",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst absolute residual {worst:.2e} over 100 cases in {elapsed:.2f}s",
    )


def test_criterion_9_centered_system_bounds():
    """Variance/sup-norm diagnostics respect their explicit bounds."""
    start = time.time()
    oracles = [
        db.UniformDensity(),
        db.HistogramDensity([1.5, 0.5]),
        db.HistogramDensity([0.4, 2.2, 0.4]),
        db.CosineTiltDensity(0.3, 3),
    ]
    models = [
        db.HistogramModel(1),
        db.HistogramModel(16),
        db.HistogramModel(64),
        db.FourierModel(2),
        db.FourierModel(31),
        db.PiecewisePolynomialModel(4, 2),
        db.PiecewisePolynomialModel(16, 4),
        db.histogram_collection([1, 2, 4, 8, 16, 32, 64]).top,
    ]
    slack = 1e-6
    checked = 0
    ok = True
    for oracle in oracles:
        for model in models:
            d_total = reference.coordinate_variance_total(model, oracle)
            b_sup = db.unit_ball_sup_norm(model)
            v_sq = db.max_unit_variance(model, oracle)
            c1, d = model.c1, model.dim
            ok &= v_sq <= min(oracle.norm_inf, c1 * oracle.norm2 * math.sqrt(d)) + slack
            ok &= v_sq <= d_total + slack
            ok &= d_total <= b_sup**2 + slack
            ok &= b_sup**2 <= c1**2 * d + slack
            checked += 1
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    _report(
        "criterion 9 (centered-system bounds)",
        ok,
        f"{checked} oracle/model pairs, dims up to 64, in {elapsed:.1f}s",
    )


def test_criterion_10_byte_identical_outputs(tmp_path):
    """Every subcommand is byte-identical across reruns at a fixed seed."""
    start = time.time()
    rng = np.random.default_rng(4)
    sample_path = tmp_path / "sample.txt"
    sample_path.write_text("".join(f"{float(p)!r}\n" for p in rng.random(60)))
    runs = {
        "ball": [
            "ball",
            "--input",
            str(sample_path),
            "--collection-family",
            "histogram",
            "--collection-dims",
            "1,2,4,8",
            "--format",
            "doc",
            "--seed",
            "9",
        ],
        "simulate-pw": [
            "simulate-pw",
            "--n",
            "30",
            "--dm",
            "6",
            "--nb",
            "50",
            "--reps",
            "5",
            "--seed",
            "9",
        ],
        "coverage": [
            "coverage",
            "--n",
            "40",
            "--dm",
            "8",
            "--nb",
            "300",
            "--reps",
            "3",
            "--seed",
            "9",
            "--alpha-grid",
            "0.5,0.7,0.9",
        ],
        "check-assumptions": [
            "check-assumptions",
            "--collection-family",
            "fourier",
            "--collection-dims",
            "1,3,5",
            "--n",
            "80",
            "--seed",
            "9",
        ],
    }
    ok = True
    for name, argv in runs.items():
        first = tmp_path / f"{name}-a.out"
        second = tmp_path / f"{name}-b.out"
        ok &= cli_main(argv + ["--out", str(first)]) == 0
        ok &= cli_main(argv + ["--out", str(second)]) == 0
        ok &= first.read_bytes() == second.read_bytes()
        if name == "ball":
            json.loads(first.read_text())  # the document is valid JSON
    elapsed = time.time() - start
    _report(
        "criterion 10 (byte-identical outputs)",
        ok,
        f"{len(runs)} subcommands rerun in {elapsed:.1f}s",
    )
