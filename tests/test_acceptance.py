"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances and runtime budgets are asserted inside
the tests, so a plain ``pytest`` run enforces them too.
"""

import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import chisquare

from mixedrv import checks as checks_mod
from mixedrv import extrinsic as ex
from mixedrv import face_gibbs as fg
from mixedrv import glm
from mixedrv import info_theory as it
from mixedrv import mixed_dirichlet as md
from mixedrv import oracles
from mixedrv.simplex import FaceBatch, SimplexPoint, enumerate_faces, sparsemax, sparsemax_jacobian


def _report(num: int, message: str):
    print(f"ACCEPTANCE {num:02d} PASS: {message}")


def test_criterion_01_maxent_entropy_values():
    t0 = time.perf_counter()
    for N in range(0, 9):
        assert it.maxent_entropy(2, N) == pytest.approx(np.log(2 + 2**N), abs=1e-12)
    assert it.maxent_entropy(3, 0) == pytest.approx(np.log(6.5), abs=1e-12)
    worst = 0.0
    for K in range(2, 31):
        for N in range(0, 9):
            a = it.maxent_entropy(K, N)
            b = it.maxent_entropy_series(K, N)
            worst = max(worst, abs(a - b) / abs(b))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 1.0
    _report(1, f"maxent values exact; Laguerre/series table agreement {worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_face_lattice_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    worst_enum, worst_dag = 0.0, 0.0
    for K in range(2, 13):
        for _ in range(100):
            w = rng.normal(0.0, 2.0, K)
            v = rng.normal(0.0, 2.0, K)
            dp = fg.GibbsFaceDistribution(w)
            dq = fg.GibbsFaceDistribution(v)
            lz = dp.log_z
            scale = max(1.0, abs(lz))
            worst_enum = max(worst_enum, abs(lz - oracles.enum_log_normalizer(w)) / scale)
            worst_enum = max(worst_enum, float(np.max(np.abs(dp.expected_phi - oracles.enum_expected_suff_stats(w)))))
            worst_enum = max(worst_enum, abs(fg.entropy(dp) - oracles.enum_entropy(w)))
            worst_enum = max(worst_enum, abs(fg.kl(dp, dq) - oracles.enum_kl(w, v)))
            worst_dag = max(worst_dag, abs(lz - oracles.dag_log_normalizer(w)) / scale)
    elapsed = time.perf_counter() - t0
    assert worst_enum < 1e-10
    assert worst_dag < 1e-12
    assert elapsed < 30.0
    _report(2, f"enumeration {worst_enum:.2e}, DAG oracle {worst_dag:.2e}, {elapsed:.1f}s")


def test_criterion_03_sampling_chi_square():
    t0 = time.perf_counter()
    n = 10**6
    pvals = {}

    gibbs = fg.GibbsFaceDistribution(np.array([0.5, -0.3, 0.2, -0.6]))
    counts = np.bincount(fg.sample_face_masks(gibbs, n, np.random.default_rng(201)), minlength=16)[1:]
    expected = np.exp(fg.face_log_prob(gibbs, enumerate_faces(4))) * n
    pvals["gibbs"] = chisquare(counts, expected).pvalue

    mixed = md.MixedDirichlet(np.array([0.3, -0.2, 0.4, 0.0]), np.array([1.0, 2.0, 0.5, 1.5]))
    counts = np.bincount(md.sample_many(mixed, n, np.random.default_rng(202)).masks, minlength=16)[1:]
    expected = mixed.exact_face_distribution()[1] * n
    pvals["mixed_dirichlet"] = chisquare(counts, expected).pvalue

    maxent = it.maxent_distribution(4, 0)
    masks = it.maxent_sample_face_masks(maxent, n, np.random.default_rng(203))
    counts = np.bincount(masks, minlength=16)[1:]
    expected = maxent.exact_face_distribution()[1] * n
    pvals["maxent"] = chisquare(counts, expected).pvalue

    elapsed = time.perf_counter() - t0
    for name, p in pvals.items():
        assert p > 0.001, f"{name} chi-square p={p}"
    assert elapsed < 120.0
    _report(3, "chi-square p-values " + ", ".join(f"{k}={v:.3f}" for k, v in pvals.items())
            + f" at n=1e6, {elapsed:.1f}s")


def test_criterion_04_gaussian_sparsemax_k2_consistency():
    d = ex.GaussianSparsemax([0.55, 0.45], [0.8, 0.6])
    z, s = ex.gs2_params(d)
    n = 10**6

    p0, p1, pc = ex.gs2_face_probs(z, s)
    coords = d.sample_many(n, np.random.default_rng(204)).coords
    freqs = {
        "P0": float(np.mean(coords[:, 0] == 0.0)),
        "P1": float(np.mean(coords[:, 1] == 0.0)),
    }
    freqs["Pc"] = 1.0 - freqs["P0"] - freqs["P1"]
    for name, prob in (("P0", p0), ("P1", p1), ("Pc", pc)):
        se = np.sqrt(prob * (1 - prob) / n)
        assert abs(freqs[name] - prob) < 4 * se, f"{name}: {freqs[name]} vs {prob}"

    def mc_logpdf(y, zz, ss):
        q0, q1, _ = ex.gs2_face_probs(zz, ss)
        interior = -0.5 * ((y - zz) / ss) ** 2 - np.log(ss) - 0.5 * np.log(2 * np.pi)
        return np.where(y == 0.0, np.log(q0), np.where(y == 1.0, np.log(q1), interior))

    y = np.clip(z + s * np.random.default_rng(205).standard_normal(n), 0.0, 1.0)
    logs = mc_logpdf(y, z, s)
    se_h = logs.std(ddof=1) / np.sqrt(n)
    assert ex.gs2_entropy(z, s) == pytest.approx(-logs.mean(), abs=3 * se_h)

    zq, sq = 0.35, 0.9
    diffs = mc_logpdf(y, z, s) - mc_logpdf(y, zq, sq)
    se_kl = diffs.std(ddof=1) / np.sqrt(n)
    assert ex.gs2_kl(z, s, zq, sq) == pytest.approx(diffs.mean(), abs=3 * se_kl)

    worst = 0.0
    for y1 in [0.0, 1.0] + list(np.linspace(0.02, 0.98, 18)):
        p = SimplexPoint([y1, 1.0 - y1])
        vals = [
            ex.gs_log_density(d, p),
            ex.gs2_log_density_extrinsic(y1, z, s),
            ex.gs2_log_density_intrinsic(y1, z, s),
        ]
        worst = max(worst, max(vals) - min(vals))
    assert worst < 1e-8
    _report(4, f"face masses in 4se, entropy/KL in 3se, density paths agree to {worst:.2e}")


def test_criterion_05_k3_normalization():
    t0 = time.perf_counter()
    detail = checks_mod._check_gs_k3_normalization()
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(5, f"{detail} in {elapsed:.1f}s")


def test_criterion_06_gradient_checks():
    rng = np.random.default_rng(206)
    worst_jac = 0.0
    for _ in range(50):
        zz = rng.normal(0.0, 1.0, rng.integers(2, 6))
        fd = oracles.central_difference_jacobian(lambda v: sparsemax(v).coords, zz)
        worst_jac = max(worst_jac, float(np.max(np.abs(sparsemax_jacobian(zz) - fd))))
    assert worst_jac < 1e-4

    worst_score = 0.0
    for _ in range(50):
        K = int(rng.integers(2, 7))
        w = rng.normal(0.0, 1.5, K)
        dist = fg.GibbsFaceDistribution(w)
        f = int(fg.sample_face_masks(dist, 1, rng)[0])
        fd = oracles.central_difference_gradient(
            lambda v: fg.face_log_prob(fg.GibbsFaceDistribution(v), f), w
        )
        worst_score = max(worst_score, float(np.max(np.abs(fg.grad_log_prob(dist, f) - fd))))
    assert worst_score < 1e-4

    worst_glm = 0.0
    for trial in range(50):
        K, dd = int(rng.integers(3, 6)), int(rng.integers(2, 5))
        X, Y, _ = glm.make_planted_dataset(n=5, K=K, d=dd, seed=trial)
        model = glm.GlmModel(
            rng.normal(0, 0.5, (K, dd)), rng.normal(0, 0.5, K),
            rng.normal(0, 0.5, (K, dd)), rng.normal(0, 0.5, K),
        )
        _, grads = glm.glm_log_likelihood(model, X, Y)
        analytic = np.concatenate(
            [grads["w_face"].ravel(), grads["b_face"], grads["w_conc"].ravel(), grads["b_conc"]]
        )
        v0 = np.concatenate([model.w_face.ravel(), model.b_face, model.w_conc.ravel(), model.b_conc])

        def from_vec(v):
            i = 0
            wf = v[i:i + K * dd].reshape(K, dd); i += K * dd
            bf = v[i:i + K]; i += K
            wc = v[i:i + K * dd].reshape(K, dd); i += K * dd
            return glm.GlmModel(wf, bf, wc, v[i:i + K])

        fd = oracles.central_difference_gradient(
            lambda v: glm.glm_log_likelihood(from_vec(v), X, Y)[0], v0, h=1e-5
        )
        worst_glm = max(worst_glm, float(np.max(np.abs(analytic - fd))))
    assert worst_glm < 1e-4
    _report(6, f"sparsemax {worst_jac:.2e}, score {worst_score:.2e}, glm {worst_glm:.2e} "
               "(50 instances each)")


def test_criterion_07_entropy_consistency():
    rng = np.random.default_rng(207)
    dist = md.MixedDirichlet(rng.normal(0, 1, 6), rng.uniform(0.5, 3, 6))
    exact = md.entropy(dist, mode="exact")
    est = it.direct_sum_entropy_mc(dist, 10**5, np.random.default_rng(208))
    assert exact == pytest.approx(est.estimate, abs=3 * est.std_error)
    for K in (2, 3, 5, 8):
        assert md.dirichlet_entropy(np.ones(K)) == pytest.approx(-gammaln(K), abs=1e-12)
    _report(7, f"exact {exact:.5f} vs MC {est.estimate:.5f} (+-{est.std_error:.5f}); "
               "flat case exact")


def test_criterion_08_coding_entropy():
    worst = 0.0
    for N in range(0, 9):
        me = it.maxent_distribution(2, N)
        total = it.coding_entropy(*me.exact_face_distribution(), me.direct_sum_entropy(), N)
        worst = max(worst, abs(total - np.log(2 + 2**N)))
    assert worst < 1e-12
    _report(8, f"ln(2+2^N) reproduced for N=0..8, worst error {worst:.2e}")


def test_criterion_09_glm_planted_recovery():
    t0 = time.perf_counter()
    f1s, gaps = [], []
    for seed in range(5):
        X, Y, _ = glm.make_planted_dataset(n=500, K=5, d=4, seed=seed)
        rs = np.random.default_rng(seed)
        idx = rs.permutation(500)
        tr, te = idx[:100], idx[100:]
        fit = glm.glm_fit(X[tr], FaceBatch.from_coords(Y.coords[tr]), seed=seed)
        y_true = Y.coords[te]
        mpm = glm.predict_rows(fit.model, X[te], "most-probable-mean").coords
        rngs = (np.random.default_rng([seed, int(i)]) for i in te)
        sm = glm.predict_rows(fit.model, X[te], "sample-mean", n=100, rngs=rngs).coords
        f1s.append(glm.zero_nonzero_macro_f1(y_true, mpm))
        gaps.append(glm.rmse(y_true, mpm) - glm.rmse(y_true, sm))
    elapsed = time.perf_counter() - t0
    assert min(f1s) > 0.9
    assert max(gaps) < 0.02
    assert elapsed < 60.0
    _report(9, f"5 seeds: min macro F1 {min(f1s):.4f}, max RMSE gap {max(gaps):+.4f}, {elapsed:.1f}s")


def test_criterion_10_neural_results_out_of_scope():
    # the neural experiments (emergent communication success rates, VAE NLL
    # tables) are explicitly outside this artifact; nothing here depends on
    # them and no module references them
    _report(10, "no criterion depends on the out-of-scope neural experiments")


def test_criterion_11_cmd_check_fast_deterministic():
    cmd = [sys.executable, "-m", "mixedrv.cli", "check", "--level", "fast"]
    outs = []
    for _ in range(2):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stdout.decode()
        assert elapsed <= 60.0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    n_checks = sum(1 for line in outs[0].decode().splitlines() if line.startswith("PASS"))
    _report(11, f"check --fast: {n_checks} checks pass, byte-identical across two runs")
