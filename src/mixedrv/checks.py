"""Registry of oracle cross-checks behind ``mixedrv check``.

Every check compares a production code path against an independent route:
brute-force enumeration, a closed form derived separately, finite
differences, or Monte Carlo sampling.  ``fast`` checks keep sample sizes
small enough to finish well under a minute in total; ``full`` adds the
large-sample and long-running ones.  All seeds are fixed, so two runs
produce identical results.

False failures.  A statistical check holds a sample statistic to its exact
value within a bound in standard errors (SE), or requires a test's p-value
above 0.001.  For correct code at a random seed, a two-sided bound of 3 SE
fails with probability 0.27%, 4 SE with 6.3e-5 and 5 SE with 5.7e-7
(normal tails; each sample holds thousands of draws), and a test at
p > 0.001 fails with probability 0.001.  A check that makes several
comparisons fails with at most the sum of their rates; each statistical
check's docstring states its bounds and that sum.  The seeds are fixed so
that ``check`` gives the same results on every run and a result can be
reproduced: at a fixed seed a check always passes or always fails, and its
rate is the chance that a change which moves the random stream it draws
from (or a new seed) makes it fail while the code is still correct.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

import numpy as np
from scipy.stats import chisquare, kstest

from . import extrinsic, face_gibbs, glm, info_theory, mixed_dirichlet, oracles
from .simplex import FaceBatch, enumerate_faces, face_groups, mask_members, sparsemax_rows

__all__ = ["CheckResult", "run_checks", "check_names"]


class CheckFailure(AssertionError):
    pass


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    seconds: float


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckFailure(msg)


# --------------------------------------------------------------- simplex ---

def _project(z: np.ndarray) -> np.ndarray:
    """Sparsemax of one vector."""
    return sparsemax_rows(z[None, :])[0]


def _check_sparsemax_vs_active_set():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(300):
        z = rng.normal(0.0, 2.0, rng.integers(2, 7))
        worst = max(worst, float(np.max(np.abs(_project(z) - oracles.brute_force_sparsemax(z)))))
    _require(worst < 1e-9, f"max deviation {worst:.2e} >= 1e-9")
    return f"max deviation {worst:.2e}"


def _check_sparsemax_jacobian_fd():
    from .simplex import sparsemax_jacobian
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        z = rng.normal(0.0, 1.0, rng.integers(2, 6))
        jac = sparsemax_jacobian(z)
        fd = oracles.central_difference_jacobian(_project, z)
        worst = max(worst, float(np.max(np.abs(jac - fd))))
    _require(worst < 1e-5, f"max deviation {worst:.2e} >= 1e-5")
    return f"max deviation {worst:.2e}"


def _check_sparsemax_invariances():
    rng = np.random.default_rng(103)
    for _ in range(200):
        z = rng.normal(0.0, 2.0, rng.integers(2, 7))
        y = _project(z)
        c = rng.normal()
        again = _project(y + c)
        _require(np.max(np.abs(again - y)) < 1e-12, "projection not idempotent under shift")
        _require(float(y.sum()) == 1.0 or abs(y.sum() - 1.0) < 1e-12, "sum broken")
    return "idempotence and shift invariance hold"


def _check_face_partition():
    rng = np.random.default_rng(104)
    masks = FaceBatch.from_coords(sparsemax_rows(rng.normal(0.0, 1.5, (500, 4)))).masks
    faces = np.unique(masks, return_counts=True)[1]
    dims = np.bincount(mask_members(masks, 4).sum(axis=1) - 1)
    _require(faces.sum() == 500 and dims.sum() == 500, "histogram does not partition")
    return "face counts partition the batch"


# ------------------------------------------------------------ face_gibbs ---

def _check_log_normalizer_vs_enum():
    rng = np.random.default_rng(110)
    worst = 0.0
    for K in range(2, 11):
        for _ in range(20):
            w = rng.normal(0.0, 3.0, K)
            a = face_gibbs.log_normalizer(w)
            b = oracles.enum_log_normalizer(w)
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    _require(worst < 1e-10, f"worst relative error {worst:.2e} >= 1e-10")
    return f"worst relative error {worst:.2e}"


def _check_log_normalizer_vs_dag():
    rng = np.random.default_rng(111)
    worst = 0.0
    for K in range(2, 16):
        for _ in range(20):
            w = rng.normal(0.0, 3.0, K)
            a = face_gibbs.log_normalizer(w)
            b = oracles.dag_log_normalizer(w)
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    _require(worst < 1e-12, f"worst relative error {worst:.2e} >= 1e-12")
    return f"worst relative error {worst:.2e}"


def _edge_potentials(K: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Saturated, mixed-sign and very negative potentials, far outside the
    N(0, 3) draws above, where naive closed forms cancel or underflow."""
    return [np.full(K, 400.0), np.full(K, -400.0), np.full(K, -20.0), np.full(K, -745.0),
            np.where(np.arange(K) % 2 == 0, 30.0, -30.0), rng.choice([-30.0, 30.0], K)]


def _check_log_normalizer_extreme_potentials():
    rng = np.random.default_rng(118)
    worst = 0.0
    for K in range(2, 11):
        for w in _edge_potentials(K, rng):
            b = oracles.enum_log_normalizer(w)
            for a in (face_gibbs.log_normalizer(w), oracles.dag_log_normalizer(w)):
                _require(bool(np.isfinite(a)), f"non-finite log-normalizer {a} at w={w}")
                worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    _require(worst < 1e-12, f"worst relative error {worst:.2e} >= 1e-12")
    return f"worst relative error {worst:.2e}"


def _check_gibbs_vs_dag_at_edges():
    # The DAG's log-space values grow like |log Z|, and so does its rounding
    # error, so log Z and the log of each positive sampling-table entry are
    # compared relative to max(1, |log Z|); E[phi] is compared absolutely.
    rng = np.random.default_rng(119)
    worst = 0.0
    for K in [*range(2, 14), 32, 63]:
        for w in _edge_potentials(K, rng) + [rng.normal(0.0, 3.0, K)]:
            d = face_gibbs.GibbsFaceDistribution(w)
            b = oracles.dag_log_normalizer(w)
            take = oracles.dag_take_probs(w)
            _require(np.array_equal(d.take_probs > 0.0, take > 0.0), f"sampling table support differs at w={w}")
            _require(d.take_probs[-1, 0] == 1.0, f"a face still empty may skip the last vertex at w={w}")
            pos = take > 0.0
            scale = max(1.0, abs(b))
            worst = max(worst, abs(d.log_z - b) / scale,
                        float(np.max(np.abs(d.expected_phi - oracles.dag_expected_suff_stats(w)))),
                        float(np.max(np.abs(np.log(d.take_probs[pos]) - np.log(take[pos])))) / scale)
    _require(worst < 1e-12, f"worst error {worst:.2e} >= 1e-12")
    d = face_gibbs.GibbsFaceDistribution(np.full(63, -400.0))
    masks = face_gibbs.sample_face_masks(d, 10**4, rng)
    _require(bool(np.all(masks > 0)), "sampled the empty face at K=63, w=-400")
    return f"worst error {worst:.2e}; no empty face at K=63"


def _check_gibbs_moments_vs_enum():
    rng = np.random.default_rng(112)
    worst = 0.0
    for K in range(2, 11):
        for _ in range(10):
            w = rng.normal(0.0, 2.0, K)
            v = rng.normal(0.0, 2.0, K)
            dp = face_gibbs.GibbsFaceDistribution(w)
            dq = face_gibbs.GibbsFaceDistribution(v)
            worst = max(worst, float(np.max(np.abs(dp.expected_phi - oracles.enum_expected_suff_stats(w)))))
            worst = max(worst, abs(face_gibbs.entropy(dp) - oracles.enum_entropy(w)))
            worst = max(worst, abs(face_gibbs.kl(dp, dq) - oracles.enum_kl(w, v)))
    _require(worst < 1e-10, f"worst error {worst:.2e} >= 1e-10")
    return f"worst error {worst:.2e}"


def _check_face_probs_sum():
    rng = np.random.default_rng(113)
    for _ in range(5):
        d = face_gibbs.GibbsFaceDistribution(rng.normal(0.0, 2.0, 8))
        total = float(np.exp(face_gibbs.face_log_prob(d, enumerate_faces(8))).sum())
        _require(abs(total - 1.0) < 1e-12, f"face probabilities sum to {total!r}")
    return "probabilities sum to 1"


def _check_grad_log_prob():
    rng = np.random.default_rng(114)
    worst = 0.0
    for _ in range(30):
        K = int(rng.integers(2, 7))
        w = rng.normal(0.0, 1.5, K)
        d = face_gibbs.GibbsFaceDistribution(w)
        f = int(face_gibbs.sample_face_masks(d, 1, rng)[0])
        grad = face_gibbs.grad_log_prob(d, f)
        fd = oracles.central_difference_gradient(
            lambda v: face_gibbs.face_log_prob(face_gibbs.GibbsFaceDistribution(v), f), w
        )
        worst = max(worst, float(np.max(np.abs(grad - fd))))
    # expected score under the exact face law is zero
    d = face_gibbs.GibbsFaceDistribution(rng.normal(0.0, 1.0, 8))
    masks = enumerate_faces(8)
    mean = np.exp(face_gibbs.face_log_prob(d, masks)) @ face_gibbs.grad_log_prob(d, masks)
    _require(float(np.max(np.abs(mean))) < 1e-10, "expected score is not zero")
    _require(worst < 1e-5, f"gradient mismatch {worst:.2e} >= 1e-5")
    return f"fd mismatch {worst:.2e}, expected score ~ 0"


def _check_log_normalizer_convexity():
    rng = np.random.default_rng(115)
    h = 1e-4
    for _ in range(10):
        K = int(rng.integers(2, 6))
        w = rng.normal(0.0, 1.0, K)
        hess = np.zeros((K, K))
        for i in range(K):
            for j in range(K):
                e_i = np.eye(K)[i] * h
                e_j = np.eye(K)[j] * h
                hess[i, j] = (
                    face_gibbs.log_normalizer(w + e_i + e_j)
                    - face_gibbs.log_normalizer(w + e_i - e_j)
                    - face_gibbs.log_normalizer(w - e_i + e_j)
                    + face_gibbs.log_normalizer(w - e_i - e_j)
                ) / (4.0 * h * h)
        eigs = np.linalg.eigvalsh((hess + hess.T) / 2.0)
        _require(eigs.min() > -1e-6, f"Hessian eigenvalue {eigs.min():.2e} < 0")
    return "finite-difference Hessians PSD"


def _check_most_probable_face():
    rng = np.random.default_rng(116)
    for _ in range(100):
        K = int(rng.integers(2, 13))
        w = rng.normal(0.0, 1.5, K)
        d = face_gibbs.GibbsFaceDistribution(w)
        got = face_gibbs.most_probable_face(d)
        exp = oracles.enum_most_probable_face(w)
        _require(
            abs(float(d.w @ face_gibbs.suff_stats(got, K)) - float(d.w @ face_gibbs.suff_stats(exp, K))) < 1e-12,
            f"argmax face mismatch for w={w}",
        )
    return "matches enumeration argmax"


def _gibbs_chi_square(n: int):
    """Face draws of a K = 3 (zero potentials) and a K = 4 Gibbs law against
    the exact face probabilities, by a chi-square test at p > 0.001 each:
    false-failure rate 0.2%."""
    rng = np.random.default_rng(117)
    for K, w in ((3, np.zeros(3)), (4, rng.uniform(-1.0, 1.0, 4))):
        d = face_gibbs.GibbsFaceDistribution(w)
        counts = np.bincount(face_gibbs.sample_face_masks(d, n, np.random.default_rng(118)), minlength=2**K)[1:]
        expected = np.exp(face_gibbs.face_log_prob(d, enumerate_faces(K))) * n
        p = chisquare(counts, expected).pvalue
        _require(p > 0.001, f"chi-square p={p:.5f} <= 0.001 (K={K})")
    return f"chi-square ok at n={n}"


# -------------------------------------------------------- mixed_dirichlet ---

def _check_dirichlet_entropy_mc(n: int):
    """The closed-form entropy of 3 random Dirichlet laws against its MC
    estimate, within 3 SE each: false-failure rate 0.81%."""
    from scipy.special import gammaln
    rng = np.random.default_rng(120)
    for _ in range(3):
        alpha = rng.uniform(0.4, 4.0, 3)
        draws = rng.dirichlet(alpha, size=n)
        log_beta = gammaln(alpha).sum() - gammaln(alpha.sum())
        logs = (np.log(draws) @ (alpha - 1.0)) - log_beta
        est = -logs.mean()
        se = logs.std(ddof=1) / np.sqrt(n)
        h = mixed_dirichlet.dirichlet_entropy(alpha)
        _require(abs(h - est) < 3.0 * se, f"entropy {h:.5f} vs MC {est:.5f} +- {se:.5f}")
    flat = mixed_dirichlet.dirichlet_entropy(np.ones(5))
    _require(abs(flat + np.log(24.0)) < 1e-12, "flat entropy != -log(K-1)!")
    return "closed form within 3 MC std errors"


def _check_dirichlet_kl_mc(n: int):
    """The closed-form KL of 3 random pairs of Dirichlet laws against its MC
    estimate, within 3 SE each: false-failure rate 0.81%."""
    rng = np.random.default_rng(121)
    for _ in range(3):
        ap = rng.uniform(0.4, 4.0, 3)
        aq = rng.uniform(0.4, 4.0, 3)
        draws = rng.dirichlet(ap, size=n)
        from scipy.special import gammaln
        lb_p = gammaln(ap).sum() - gammaln(ap.sum())
        lb_q = gammaln(aq).sum() - gammaln(aq.sum())
        diffs = np.log(draws) @ (ap - aq) - lb_p + lb_q
        est = diffs.mean()
        se = diffs.std(ddof=1) / np.sqrt(n)
        klv = mixed_dirichlet.dirichlet_kl(ap, aq)
        _require(klv >= 0.0, "KL negative")
        _require(abs(klv - est) < 3.0 * se, f"KL {klv:.5f} vs MC {est:.5f} +- {se:.5f}")
    return "closed form within 3 MC std errors"


def _check_mixed_dirichlet_density_values():
    md = mixed_dirichlet.MixedDirichlet(np.zeros(2), np.ones(2))
    edge, vertex = md.log_density_many(FaceBatch.from_coords([[0.5, 0.5], [1.0, 0.0]]))
    _require(abs(edge + np.log(3.0)) < 1e-12, f"edge density {edge}")
    _require(abs(vertex - np.log(1.0 / 3.0)) < 1e-12, f"vertex density {vertex}")
    # normalization by construction: exact face probs x unit Dirichlet mass
    rng = np.random.default_rng(122)
    md = mixed_dirichlet.MixedDirichlet(rng.normal(0.0, 1.0, 4), rng.uniform(0.5, 3.0, 4))
    total = float(md.exact_face_distribution()[1].sum())
    _require(abs(total - 1.0) < 1e-12, f"face mass {total}")
    return "hand values and normalization hold"


def _check_mixed_dirichlet_entropy_consistency(n: int):
    """The exact entropy of a K = 5 Mixed Dirichlet against the MC
    estimator, within 3 SE: false-failure rate 0.27%."""
    rng = np.random.default_rng(123)
    md = mixed_dirichlet.MixedDirichlet(rng.normal(0.0, 1.0, 5), rng.uniform(0.5, 3.0, 5))
    exact = mixed_dirichlet.entropy(md)
    est = info_theory.direct_sum_entropy_mc(md, n, np.random.default_rng(124))
    _require(abs(exact - est.estimate) < 3.0 * est.std_error,
             f"exact {exact:.5f} vs MC {est.estimate:.5f} +- {est.std_error:.5f}")
    return "exact and sample-based entropies agree"


def _check_mixed_dirichlet_face_tv(n: int, bound: float):
    """Total variation between the face frequencies of ``n`` draws of a
    K = 4 Mixed Dirichlet and its exact face law, below ``bound``.  One draw
    moves the TV by at most 1/n, so McDiarmid's inequality bounds the
    false-failure rate by exp(-2 n (bound - E TV)^2).  E TV is 0.0033 at
    n = 1e5 and 0.0010 at 1e6 (simulated from the exact law), so the rate is
    below 1e-24 at bound 0.02 and below 1e-13 at bound 0.005."""
    rng = np.random.default_rng(126)
    md = mixed_dirichlet.MixedDirichlet(rng.normal(0.0, 1.0, 4), rng.uniform(0.5, 3.0, 4))
    counts = np.bincount(mixed_dirichlet.sample_many(md, n, np.random.default_rng(127)).masks, minlength=16)[1:]
    exact = md.exact_face_distribution()[1]
    tv = 0.5 * float(np.abs(counts / n - exact).sum())
    _require(tv < bound, f"TV {tv:.5f} >= {bound}")
    return f"TV distance {tv:.5f}"


def _check_mixed_dirichlet_flat_conditional():
    """Under alpha = 1 the first coordinate of a sampled face of m vertices
    is Beta(1, m - 1): a KS test at p > 0.001 on each face of two or more
    vertices with 500 or more rows (at most 4 faces), so the false-failure
    rate is at most 0.4%."""
    rng = np.random.default_rng(128)
    md = mixed_dirichlet.MixedDirichlet(np.array([0.5, 0.5, 0.5]), np.ones(3))
    batch = mixed_dirichlet.sample_many(md, 20000, rng)
    for mask, rows in face_groups(batch.masks):
        face = [k for k in range(3) if mask >> k & 1]
        if len(face) < 2 or rows.size < 500:
            continue
        res = kstest(batch.coords[rows, face[0]], "beta", args=(1.0, len(face) - 1))
        _require(res.pvalue > 0.001, f"KS p={res.pvalue:.5f} on face {face}")
    return "per-face flat conditionals pass KS"


def _beta_lower_tail(t: np.ndarray, a: float, b: float) -> np.ndarray:
    """Beta(a, b) CDF at x = exp(t), in log space below x = 1e-300, where
    ``I_x(a, b) = x^a / (a B(a, b)) (1 + O(x))``."""
    from scipy.special import betainc, betaln
    tiny = t < np.log(1e-300)
    return np.where(tiny, np.exp(a * t - np.log(a) - betaln(a, b)), betainc(a, b, np.exp(np.where(tiny, 0.0, t))))


def _beta_cdf_from_logs(t1: np.ndarray, t2: np.ndarray, a: float, b: float) -> np.ndarray:
    """Beta(a, b) CDF at y_1 from both log-coordinates of a 2-vertex point:
    the lower tail at log y_1 where y_1 <= y_2, else one minus the
    Beta(b, a) lower tail at log y_2 (log y_1 rounds to 0 near y_1 = 1)."""
    low = t1 <= t2
    return np.where(low, _beta_lower_tail(np.where(low, t1, 0.0), a, b),
                    1.0 - _beta_lower_tail(np.where(low, 0.0, t2), b, a))


def _check_small_alpha_sampler(n: int = 30000):
    """The intrinsic samplers' Dirichlet step at concentrations down to the GLM's
    ``CONC_MIN``, per face of 2-4 vertices, from its log-coordinates:
    E[log y_k] = psi(a_k) - psi(a_0) within 5 SE, a KS test of the first
    coordinate of the most frequent 2-vertex face against the Beta CDF
    (``_beta_cdf_from_logs``, so no coordinate is rounded to 0 or 1), and
    (at 1e-3) the MC Dirichlet entropy against ``dirichlet_entropy``.

    Bounds: 5 SE on each of the 28 coordinates of the 11 faces at each of the
    3 concentrations and on the 11 entropies at 1e-3 (5.4e-5 in all, with
    normal tails), and KS p > 0.001 at each concentration (0.3%):
    false-failure rate about 0.31%."""
    from scipy.special import digamma, gammaln
    scale = np.array([1.0, 1.5, 0.7, 2.0])
    worst, ks_min = 0.0, 1.0
    for i, a in enumerate((1e-3, 1e-2, 0.1)):
        alpha = a * scale
        md = mixed_dirichlet.MixedDirichlet(np.zeros(4), alpha)
        batch = md.sample_many(n, np.random.default_rng(129 + i))
        pairs = []
        for mask in np.unique(batch.masks):
            idx = [k for k in range(4) if mask >> k & 1]
            if len(idx) < 2:
                continue
            log_y = batch.log_coords[batch.masks == mask][:, idx]
            _require(np.isfinite(log_y).all(), f"non-finite log-coordinate on face {idx} at alpha {a}")
            m, af = log_y.shape[0], alpha[idx]
            se = log_y.std(axis=0, ddof=1) / np.sqrt(m)
            z = np.abs(log_y.mean(axis=0) - (digamma(af) - digamma(af.sum()))) / se
            worst = max(worst, float(z.max()))
            _require(z.max() < 5.0, f"E[log y] off by {z.max():.2f} SE on face {idx} at alpha {a}")
            if len(idx) == 2:
                pairs.append((m, log_y, af))
            if a == 1e-3:
                logs = log_y @ (af - 1.0) - (gammaln(af).sum() - gammaln(af.sum()))
                h, est, se_h = mixed_dirichlet.dirichlet_entropy(af), -logs.mean(), logs.std(ddof=1) / np.sqrt(m)
                _require(abs(h - est) < 5.0 * se_h, f"entropy {h:.4f} vs MC {est:.4f} +- {se_h:.4f} on face {idx}")
        _, t, af = max(pairs, key=lambda p: p[0])
        p = kstest(_beta_cdf_from_logs(t[:, 0], t[:, 1], af[0], af[1]), "uniform").pvalue
        ks_min = min(ks_min, p)
        _require(p > 0.001, f"KS p={p:.5f} for log y_1 at alpha {a}")
    return f"worst |E[log y]| error {worst:.2f} SE, smallest KS p {ks_min:.3f}"


# --------------------------------------------------------------- extrinsic ---

def _check_gs2_entropy_mc(n: int):
    """The closed-form K = 2 Gaussian-Sparsemax entropy of 3 laws against
    its MC estimate, within 3 SE each (false-failure rate 0.81%), and the
    sigma -> 0 Gaussian limit (deterministic)."""
    for i, (z, s) in enumerate([(0.3, 0.5), (0.7, 1.2), (0.95, 0.25)]):
        rng = np.random.default_rng(130 + i)
        y = np.clip(z + s * rng.standard_normal(n), 0.0, 1.0)
        logs = oracles.gs2_log_density(y, z, s)
        est, se = -logs.mean(), logs.std(ddof=1) / np.sqrt(n)
        h = extrinsic.gs2_entropy(z, s)
        _require(abs(h - est) < 3.0 * se, f"H {h:.5f} vs MC {est:.5f} +- {se:.5f} (z={z})")
    lim = extrinsic.gs2_entropy(0.5, 0.05)
    _require(abs(lim - 0.5 * np.log(2.0 * np.pi * np.e * 0.05**2)) < 1e-4, "sigma->0 limit broken")
    return "closed form within 3 MC std errors; Gaussian limit holds"


def _check_gs2_kl_mc(n: int):
    """The closed-form K = 2 Gaussian-Sparsemax KL of 3 random pairs against
    its MC estimate, within 3 SE each: false-failure rate 0.81%."""
    rng = np.random.default_rng(131)
    for i in range(3):
        zp, zq = rng.uniform(-0.2, 1.2, 2)
        sp, sq = rng.uniform(0.3, 1.2, 2)
        y = np.clip(zp + sp * np.random.default_rng(132 + i).standard_normal(n), 0.0, 1.0)
        diffs = oracles.gs2_log_density(y, zp, sp) - oracles.gs2_log_density(y, zq, sq)
        est, se = diffs.mean(), diffs.std(ddof=1) / np.sqrt(n)
        klv = extrinsic.gs2_kl(zp, sp, zq, sq)
        _require(klv >= 0.0, "closed-form KL negative")
        _require(abs(klv - est) < 3.0 * se, f"KL {klv:.5f} vs MC {est:.5f} +- {se:.5f}")
    _require(extrinsic.gs2_kl(0.4, 0.8, 0.4, 0.8) == 0.0, "KL(p,p) != 0")
    return "closed form within 3 MC std errors"


def _check_gs2_density_paths():
    d = extrinsic.GaussianSparsemax([0.35, 0.45], [0.9, 0.5])
    z, s = extrinsic.gs2_params(d)
    y1 = np.concatenate([[0.0, 1.0], np.linspace(0.02, 0.98, 18)])
    y = np.stack([y1, 1.0 - y1], axis=1)
    vals = np.stack([extrinsic.gs_log_density_many(d, FaceBatch.from_coords(y)), oracles.gs2_log_density(y1, z, s),
                     [oracles.gs_log_density_reference(d, row) for row in y]])
    worst = float(np.max(vals.max(axis=0) - vals.min(axis=0)))
    _require(worst < 1e-8, f"paths disagree by {worst:.2e}")
    return f"three density paths agree to {worst:.2e}"


def _check_gs_density_pivot_invariance():
    rng = np.random.default_rng(133)
    worst = 0.0
    for _ in range(10):
        K = int(rng.integers(3, 6))
        d = extrinsic.GaussianSparsemax(rng.normal(0.2, 0.6, K), rng.uniform(0.3, 1.3, K))
        y = _project(rng.normal(0.3, 0.8, K))
        got = extrinsic.gs_log_density_many(d, FaceBatch.from_coords(y[None]))[0]
        for i in np.flatnonzero(y).tolist():
            worst = max(worst, abs(got - oracles.gs_log_density_reference(d, y, pivot=i)))
    _require(worst < 1e-8, f"density off the oracle at some pivot by {worst:.2e}")
    return f"max deviation over pivots {worst:.2e}"


def _same_face_rows(y: np.ndarray) -> np.ndarray:
    """The point ``y``, two more points of its face and twice its lowest
    vertex, interleaved: every face of the batch holds two or more rows."""
    on = y > 0.0
    vertex = np.eye(y.size)[np.argmax(on)]
    bary = on / on.sum()
    return np.stack([y, vertex, 0.5 * (y + bary), vertex, bary])


def _same_face_batch_error(d, y: np.ndarray) -> float:
    """Largest deviation of the batch density of ``_same_face_rows(y)`` from
    the oracle's point-by-point values."""
    batch = FaceBatch.from_coords(_same_face_rows(y))
    ref = [oracles.gs_log_density_reference(d, row) for row in batch.coords]
    return float(np.max(np.abs(extrinsic.gs_log_density_many(d, batch) - ref)))


def _check_gs_density_constant_sigma():
    rng = np.random.default_rng(134)
    worst = 0.0
    for _ in range(10):
        mu = rng.normal(0.2, 0.6, 3)
        sigma = np.full(3, float(rng.uniform(0.3, 1.2)))
        y = _project(rng.normal(0.3, 0.8, 3))
        worst = max(worst, _same_face_batch_error(extrinsic.GaussianSparsemax(mu, sigma), y))
    _require(worst < 1e-8, f"equal-sigma density off the oracle by {worst:.2e}")
    return f"equal-sigma batches match the oracle to {worst:.2e}"


def _check_gs_density_unequal_sigma():
    rng = np.random.default_rng(136)
    worst = 0.0
    for _ in range(10):
        K = int(rng.integers(3, 6))
        d = extrinsic.GaussianSparsemax(rng.normal(0.2, 0.6, K), rng.uniform(0.3, 1.3, K))
        worst = max(worst, _same_face_batch_error(d, _project(rng.normal(0.3, 0.8, K))))
    _require(worst < 1e-8, f"unequal-sigma density off the oracle by {worst:.2e}")
    return f"unequal-sigma batches match the oracle to {worst:.2e}"


def _pooled_faces_batch(rng: np.random.Generator, K: int) -> FaceBatch:
    """``extrinsic._OWN_SET_ROWS`` rows on a facet (one off-face coordinate)
    and 1-3 rows on each of 12 other faces, all distinct and short of the
    full one, in random order: the facet takes node sets of its own, the
    small faces share theirs."""
    full = 2**K - 1
    facet = full ^ (1 << int(rng.integers(K)))
    others = rng.permutation(np.setdiff1d(np.arange(1, full), facet))[:12]
    coords = []
    for mask, n in zip([facet, *others.tolist()], [extrinsic._OWN_SET_ROWS, *rng.integers(1, 4, 12).tolist()]):
        on = (mask >> np.arange(K)) & 1 == 1
        rows = np.zeros((n, K))
        rows[:, on] = rng.dirichlet(np.ones(on.sum()), n)
        coords.append(rows)
    return FaceBatch.from_coords(rng.permutation(np.concatenate(coords)))


def _check_gs_density_pooled_faces():
    rng = np.random.default_rng(138)
    worst = 0.0
    for K in range(4, 9):
        d = extrinsic.GaussianSparsemax(rng.normal(0.0, 1.0, K), rng.uniform(0.3, 1.5, K))
        batch = _pooled_faces_batch(rng, K)
        ref = np.array([oracles.gs_log_density_reference(d, row) for row in batch.coords])
        err = np.abs(extrinsic.gs_log_density_many(d, batch) - ref) / np.maximum(1.0, np.abs(ref))
        worst = max(worst, float(err.max()))
    _require(worst <= 1e-12, f"batches of shared and own node sets off the oracle by {worst:.2e} relative")
    return f"batches of shared and own node sets match the oracle to {worst:.2e} relative"


def _check_gs_orthant_wide_sigma():
    # sigma log-uniform over the four decades the contract properties draw,
    # mu uniform in [-30, 30]; rows from the law and on random faces, each
    # face holding two or more of them, in one batch per law
    rng = np.random.default_rng(137)
    worst = 0.0
    for _ in range(8):
        K = int(rng.integers(3, 7))
        d = extrinsic.GaussianSparsemax(rng.uniform(-30.0, 30.0, K), np.exp(rng.uniform(np.log(1e-2), np.log(1e2), K)))
        points = [*d.sample_many(2, rng).coords, _project(rng.normal(0.0, 1.0, K))]
        batch = FaceBatch.from_coords(np.concatenate([_same_face_rows(y) for y in points]))
        ref = np.array([oracles.gs_log_density_reference(d, row) for row in batch.coords])
        err = np.abs(extrinsic.gs_log_density_many(d, batch) - ref) / np.maximum(1.0, np.abs(ref))
        worst = max(worst, float(err.max()))
    _require(worst < 1e-9, f"wide-sigma density off the quad oracle by {worst:.2e} relative")
    return f"wide-sigma batches match the quad oracle to {worst:.2e} relative"


def _check_gs2_face_frequencies(n: int):
    """The 3 closed-form K = 2 face masses against their frequencies in
    ``n`` draws, within 4 binomial SE of the exact mass each: false-failure
    rate at most 1.9e-4."""
    d = extrinsic.GaussianSparsemax([0.55, 0.45], [0.8, 0.6])
    z, s = extrinsic.gs2_params(d)
    p0, p1, pc = extrinsic.gs2_face_probs(z, s)
    coords = d.sample_many(n, np.random.default_rng(136)).coords
    f1 = float(np.mean(coords[:, 1] == 0.0))  # vertex (1,0), scalar y = 1
    f0 = float(np.mean(coords[:, 0] == 0.0))
    for freq, prob, name in ((f0, p0, "P0"), (f1, p1, "P1"), (1 - f0 - f1, pc, "Pc")):
        se = np.sqrt(prob * (1.0 - prob) / n)
        _require(abs(freq - prob) < 4.0 * se, f"{name}: freq {freq:.5f} vs {prob:.5f} (4se={4*se:.5f})")
    return "closed-form face masses match frequencies"


#: The K = 3 laws p and q of the three cubature checks.
_GS_K3 = ((0.5, 0.1, 0.3), (0.6, 0.9, 0.5))
_GS_K3_Q = ((0.2, 0.4, 0.1), (0.8, 0.7, 0.9))


def _gs_k3_cubature() -> tuple[float, float, float]:
    """Mass, entropy and KL of ``oracles.gs_k3_cubature`` at p and q."""
    return oracles.gs_k3_cubature(extrinsic.GaussianSparsemax(*_GS_K3), extrinsic.GaussianSparsemax(*_GS_K3_Q))


def _check_gs_k3_normalization():
    """The direct-sum mass of a K = 3 Gaussian-Sparsemax by cubature
    (``oracles.gs_k3_cubature``) within 1e-2 of 1 (deterministic), and its
    3 vertex densities against their frequencies in 1e6 draws, within 5
    binomial SE each: false-failure rate at most 1.7e-6."""
    d = extrinsic.GaussianSparsemax(*_GS_K3)
    total = _gs_k3_cubature()[0]
    _require(abs(total - 1.0) < 1e-2, f"direct-sum mass {total:.5f} not within 1e-2 of 1")
    # on vertices the counting measure makes the density the face mass, which
    # the vertex frequencies should reproduce
    vertex_dens = np.exp(extrinsic.gs_log_density_many(d, FaceBatch.from_coords(np.eye(3))))
    n = 10**6
    coords = d.sample_many(n, np.random.default_rng(137)).coords
    freqs = np.bincount((coords > 0) @ (1 << np.arange(3)), minlength=8)[[1, 2, 4]] / n
    for i, (dens, freq) in enumerate(zip(vertex_dens, freqs)):
        se = np.sqrt(dens * (1 - dens) / n)
        _require(abs(dens - freq) < 5.0 * se, f"vertex {i}: density {dens:.5f} vs freq {freq:.5f}")
    return f"total direct-sum mass {total:.6f}"


def _check_gs_k3_entropy_mc(n: int):
    """The MC direct-sum entropy of the K = 3 law of
    ``_check_gs_k3_normalization`` against its cubature
    (``oracles.gs_k3_cubature``, converged to about 1e-15), within 4 SE:
    false-failure rate 6.3e-5."""
    d = extrinsic.GaussianSparsemax(*_GS_K3)
    exact = _gs_k3_cubature()[1]
    est = info_theory.direct_sum_entropy_mc(d, n, np.random.default_rng(138))
    _require(abs(est.estimate - exact) < 4.0 * est.std_error,
             f"MC {est.estimate:.5f} +- {est.std_error:.5f} vs cubature {exact:.5f}")
    return f"MC {est.estimate:.4f} +- {est.std_error:.4f} vs cubature {exact:.6f}"


def _check_gs_k3_kl_mc(n: int):
    """The MC direct-sum KL of the K = 3 laws p and q against its cubature
    (``oracles.gs_k3_cubature``, converged to about 1e-15), within 4 SE:
    false-failure rate 6.3e-5.  Its batches of ``n`` rows give the large
    faces node sets of their own (``extrinsic._OWN_SET_ROWS``)."""
    p, q = extrinsic.GaussianSparsemax(*_GS_K3), extrinsic.GaussianSparsemax(*_GS_K3_Q)
    exact = _gs_k3_cubature()[2]
    est = info_theory.direct_sum_kl_mc(p, q, n, np.random.default_rng(139))
    _require(abs(est.estimate - exact) < 4.0 * est.std_error,
             f"MC {est.estimate:.5f} +- {est.std_error:.5f} vs cubature {exact:.5f}")
    return f"MC {est.estimate:.4f} +- {est.std_error:.4f} vs cubature {exact:.6f}"


def _check_concrete_gumbel_max(n: int):
    """The argmax frequencies of ``n`` Concrete draws against softmax(z),
    within 4 binomial SE for each of 3 vertices (false-failure rate at most
    1.9e-4), and at temperature 1e3 the 0.99 quantile of the largest of 10
    coordinates below 0.12 (it reads 0.1005, so the rate is negligible)."""
    z = np.array([0.2, -0.5, 1.0])
    probs = np.exp(z) / np.exp(z).sum()
    coords = extrinsic.Concrete(z, 0.7).sample_many(n, np.random.default_rng(138)).coords
    _require(bool(np.all(coords > 0.0)), "a Concrete sample left the relative interior")
    freqs = np.bincount(np.argmax(coords, axis=1), minlength=3) / n
    for k in range(3):
        se = np.sqrt(probs[k] * (1 - probs[k]) / n)
        _require(abs(freqs[k] - probs[k]) < 4.0 * se, f"argmax freq {freqs[k]:.5f} vs {probs[k]:.5f}")
    hot = extrinsic.Concrete(np.zeros(10), 1e3).sample_many(2000, np.random.default_rng(139)).coords
    _require(float(np.quantile(hot.max(axis=1), 0.99)) < 0.12, "high-temperature samples not near uniform")
    return "argmax frequencies are Categorical(softmax(z))"


def _check_khc_coupling():
    """The K = 2 k-d Hard Concrete and binary Hard Concrete agree on shared
    Gumbel noise to 1e-12 (deterministic), and the vertex rate in 5000
    draws grows from stretch 1.1 to 10 (0.274 to 0.934, so the false-failure
    rate is negligible)."""
    rng = np.random.default_rng(140)
    z = np.array([0.4, -0.3])
    beta, lam = 0.66, 1.1
    khc = extrinsic.KDHardConcrete(z, beta, lam)
    bhc = extrinsic.BinaryHardConcrete(
        log_alpha=float(z[0] - z[1]), beta=beta, l=(1.0 - lam) / 2.0, r=(1.0 + lam) / 2.0
    )
    worst = 0.0
    for _ in range(2000):
        g = -np.log(-np.log(rng.random(2)))
        y_soft = extrinsic.concrete_from_gumbels(z, beta, g)
        y_khc = _project(lam * y_soft)[0]
        y_bin = float(extrinsic.binary_hard_concrete_from_logistic(bhc, g[0] - g[1]))
        worst = max(worst, abs(y_khc - y_bin))
    _require(worst < 1e-12, f"coupled paths differ by {worst:.2e}")
    # lam = 1 always yields the full face; larger lam hits vertices more
    full = extrinsic.KDHardConcrete(z, beta, 1.0).sample_many(2000, np.random.default_rng(141)).coords
    _require(bool(np.all(full > 0.0)), "lam=1 left the maximal face")

    def vertex_rate(stretch: float, seed: int) -> float:
        masks = extrinsic.KDHardConcrete(z, beta, stretch).sample_many(5000, np.random.default_rng(seed)).masks
        return float(np.mean((masks & (masks - 1)) == 0))

    v_small, v_big = vertex_rate(1.1, 142), vertex_rate(10.0, 143)
    _require(v_big > v_small, f"vertex rate not increasing in lam ({v_small} vs {v_big})")
    return f"binary coupling exact; vertex rate {v_small:.3f} -> {v_big:.3f}"


def _check_binary_hc_cdf(n: int):
    """P(y = 0) of ``n`` binary Hard Concrete draws against the logistic CDF
    within 4 binomial SE (6.3e-5), and a symmetric law's masses at 0 and 1
    within the sum of their 4 SE, which is 5.2 SD of their difference at
    P = 0.168 (2.5e-7): false-failure rate at most 6.4e-5."""
    d = extrinsic.BinaryHardConcrete(0.3, 0.66)
    from scipy.special import expit
    p_zero = float(expit(d.beta * np.log(-d.l / d.r) - d.log_alpha))
    vals = extrinsic.binary_hard_concrete_sample_values(d, n, np.random.default_rng(144))
    freq = float(np.mean(vals == 0.0))
    se = np.sqrt(p_zero * (1 - p_zero) / n)
    _require(abs(freq - p_zero) < 4.0 * se, f"P(zero) {freq:.5f} vs closed form {p_zero:.5f}")
    sym = extrinsic.BinaryHardConcrete(0.0, 2.0 / 3.0)
    v = extrinsic.binary_hard_concrete_sample_values(sym, n, np.random.default_rng(145))
    pz, po = float(np.mean(v == 0.0)), float(np.mean(v == 1.0))
    _require(abs(pz - po) < 4.0 * np.sqrt(pz * (1 - pz) / n) + 4.0 * np.sqrt(po * (1 - po) / n),
             f"symmetric case asymmetric: {pz} vs {po}")
    return "boundary mass matches the logistic CDF closed form"


# ------------------------------------------------------------- info_theory ---

def _check_maxent_table():
    worst = 0.0
    for K in range(2, 31):
        for N in range(0, 9):
            a = info_theory.maxent_entropy(K, N)
            b = oracles.maxent_entropy_series(K, N)
            worst = max(worst, abs(a - b) / abs(b))
    _require(worst < 1e-10, f"Laguerre vs series relative error {worst:.2e}")
    _require(abs(info_theory.maxent_entropy(2, 0) - np.log(3.0)) < 1e-12, "K=2 N=0 value")
    _require(abs(info_theory.maxent_entropy(3, 0) - np.log(6.5)) < 1e-12, "K=3 N=0 value")
    return f"table agreement {worst:.2e}"


def _check_coding_entropy():
    for N in range(0, 9):
        me = info_theory.MaxEntMixed(2, N)
        total = info_theory.coding_entropy(*me.exact_face_distribution(), me.direct_sum_entropy(), N)
        _require(abs(total - np.log(2.0 + 2.0**N)) < 1e-12, f"coding entropy at N={N}: {total}")
    me = info_theory.MaxEntMixed(4, 2)
    h = me.direct_sum_entropy()
    _require(info_theory.coding_entropy(*me.exact_face_distribution(), h, 0) == h, "N=0 changes the value")
    return "ln(2 + 2^N) reproduced for N = 0..8"


def _check_maxent_reconstruction():
    for K, N in ((2, 0), (3, 2), (5, 1), (8, 3)):
        me = info_theory.MaxEntMixed(K, N)
        total = info_theory.coding_entropy(*me.exact_face_distribution(), me.direct_sum_entropy(), N)
        _require(abs(total - info_theory.maxent_entropy(K, N)) < 1e-9,
                 f"component reconstruction off at K={K} N={N}")
    return "H(F) + conditionals + N-term reproduce the Laguerre value"


def _check_maxent_frequencies(n: int):
    """The 4 dimension frequencies of ``n`` maxent (K = 4, N = 0) draws
    within 4 binomial SE each (2.5e-4), and the 15 face counts by a
    chi-square test at p > 0.001: false-failure rate at most 0.13%."""
    me = info_theory.MaxEntMixed(4, 0)
    masks = info_theory.maxent_sample_face_masks(me, n, np.random.default_rng(146))
    dims = np.array([bin(m).count("1") for m in masks])
    for k in range(1, 5):
        freq = float(np.mean(dims == k))
        prob = me.g[k - 1]
        se = np.sqrt(prob * (1 - prob) / n)
        _require(abs(freq - prob) < 4.0 * se, f"dim {k}: freq {freq:.5f} vs g {prob:.5f}")
    counts = np.bincount(masks, minlength=16)[1:]
    expected = me.exact_face_distribution()[1] * n
    p = chisquare(counts, expected).pvalue
    _require(p > 0.001, f"face chi-square p={p:.5f}")
    return f"dimension and face frequencies ok at n={n}"


def _check_maxent_mc_entropy(n: int):
    """MC against exact maxent entropy (K = 3) within 3 SE.  At N = 0 the
    law is uniform with respect to the direct-sum measure, so its
    log-density is constant and the estimate is exact up to rounding; only
    N = 2 is random: false-failure rate 0.27%."""
    for N in (0, 2):
        me = info_theory.MaxEntMixed(3, N)
        est = info_theory.direct_sum_entropy_mc(me, n, np.random.default_rng(147))
        exact = me.direct_sum_entropy()
        _require(abs(est.estimate - exact) < 3.0 * est.std_error + 1e-12,
                 f"MC {est.estimate:.5f} vs exact {exact:.5f} +- {est.std_error:.5f} (N={N})")
    return "sampler and density are mutually consistent"


def _check_maxent_optimality():
    for K in (2, 3, 4):
        for N in (0, 1):
            me = info_theory.MaxEntMixed(K, N)
            logw = info_theory.maxent_log_weights(K, N)

            def objective(g):
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = np.where(g > 0, g * (np.log(g) - logw), 0.0)
                return -t.sum()

            base = objective(me.g)
            eps = 1e-3
            for i in range(K):
                for j in range(K):
                    if i == j:
                        continue
                    g = me.g.copy()
                    g[i] += eps
                    g[j] -= eps
                    if g[j] < 0:
                        continue
                    _require(objective(g) <= base + 1e-9,
                             f"perturbation increased the maxent objective at K={K} N={N}")
    return "local perturbations never improve the objective"


def _check_maxent_dominates():
    rng = np.random.default_rng(148)
    for K in (3, 4):
        h_max = info_theory.maxent_entropy(K, 0)
        for _ in range(100):
            md = mixed_dirichlet.MixedDirichlet(rng.normal(0.0, 2.0, K), rng.uniform(0.2, 5.0, K))
            _require(mixed_dirichlet.entropy(md) <= h_max + 1e-9,
                     "a Mixed Dirichlet beat the maxent entropy")
    return "maxent entropy dominates 200 random Mixed Dirichlets"


def _check_dimension_symmetry():
    me = info_theory.MaxEntMixed(5, 1)
    masks, probs = me.exact_face_distribution()
    dims = mask_members(masks, 5).sum(axis=1) - 1
    for dim in np.unique(dims).tolist():
        vals = {round(p, 15) for p in probs[dims == dim].tolist()}
        _require(len(vals) == 1, f"faces of dim {dim} have unequal probabilities")
    return "equal-dimension faces are equiprobable"


# -------------------------------------------------------------------- glm ---

def _check_glm_gradient():
    rng = np.random.default_rng(150)
    X, Y, _ = glm.make_planted_dataset(n=8, K=4, d=3, seed=7)
    model = glm.GlmModel(
        rng.normal(0, 0.5, (4, 3)), rng.normal(0, 0.5, 4),
        rng.normal(0, 0.5, (4, 3)), rng.normal(0, 0.5, 4),
    )
    _, grads = glm.glm_log_likelihood(model, X, Y)

    def pack(g):
        return np.concatenate([g["w_face"].ravel(), g["b_face"], g["w_conc"].ravel(), g["b_conc"]])

    def unpack(v):
        i = 0
        wf = v[i:i + 12].reshape(4, 3); i += 12
        bf = v[i:i + 4]; i += 4
        wc = v[i:i + 12].reshape(4, 3); i += 12
        return glm.GlmModel(wf, bf, wc, v[i:i + 4])

    v0 = np.concatenate([model.w_face.ravel(), model.b_face, model.w_conc.ravel(), model.b_conc])
    fd = oracles.central_difference_gradient(lambda v: glm.glm_log_likelihood(unpack(v), X, Y)[0], v0, h=1e-5)
    err = float(np.max(np.abs(fd - pack(grads))))
    _require(err < 1e-4, f"gradient error {err:.2e} >= 1e-4")
    return f"gradient error {err:.2e}"


def _check_glm_likelihood_vs_reference():
    """The per-fit likelihood kernel, which runs its Dirichlet half on the
    Dirichlet entries only, bitwise against the dense reference: at K = 4 on
    planted targets with vertices, edges and full faces, and at K = 13 with
    faces of 8 or more vertices (row sums that numpy unrolls), at weights
    where some clamps saturate."""
    rng = np.random.default_rng(151)
    for K, n, seed, needed_sizes in ((4, 60, 1, (1, 2, 4)), (13, 200, 0, (8,))):
        X, Y, _ = glm.make_planted_dataset(n=n, K=K, d=3, seed=seed)
        counts = np.bincount((Y.coords > 0.0).sum(axis=1), minlength=K + 1)
        _require(counts[list(needed_sizes)].all(), f"K={K}: no target face of each size {needed_sizes}")
        model = glm.GlmModel(rng.normal(0, 3.0, (K, 3)), rng.normal(0, 3.0, K),
                             rng.normal(0, 3.0, (K, 3)), rng.normal(0, 3.0, K))
        ll, grads = glm.glm_log_likelihood(model, X, Y)
        ref_ll, ref_grads = oracles.glm_log_likelihood_reference(model, X, Y)
        _require(ll == ref_ll, f"K={K}: log-likelihood {ll!r} != reference {ref_ll!r}")
        differ = [k for k, ref in ref_grads.items() if not np.array_equal(grads[k], ref)]
        _require(not differ, f"K={K}: gradients {differ} differ from the reference")
    return "log-likelihood and gradients bitwise equal at K = 4 and K = 13"


def _check_glm_planted_recovery():
    """On three planted datasets (seeds 0-2), the zero/nonzero macro F1 of
    most-probable-mean predictions above 0.9, and their RMSE no more than
    0.02 above that of sample-mean predictions.  These are not bounds in SE,
    and no false-failure rate is derived for them; the fixed seeds read
    0.9225 and +0.0194, so the RMSE bound holds with little margin."""
    f1s, gaps = [], []
    for seed in range(3):
        X, Y, _ = glm.make_planted_dataset(n=500, K=5, d=4, seed=seed)
        rs = np.random.default_rng(seed)
        idx = rs.permutation(500)
        tr, te = idx[:100], idx[100:]
        fit = glm.glm_fit(X[tr], FaceBatch.from_coords(Y.coords[tr]), seed=seed)
        y_true = Y.coords[te]
        mpm = glm.predict_rows(fit.model, X[te], "most-probable-mean").coords
        sm = glm.predict_rows(fit.model, X[te], "sample-mean", n=100, rng=rs).coords
        f1s.append(glm.zero_nonzero_macro_f1(y_true, mpm))
        gaps.append(glm.rmse(y_true, mpm) - glm.rmse(y_true, sm))
    _require(min(f1s) > 0.9, f"macro F1 {min(f1s):.4f} <= 0.9")
    _require(max(gaps) < 0.02, f"most-probable-mean RMSE exceeds sample-mean by {max(gaps):.4f}")
    return f"min macro F1 {min(f1s):.4f}, max RMSE gap {max(gaps):+.4f}"


# ---------------------------------------------------------------- registry ---

_FAST = "fast"
_FULL = "full"

CHECKS: list[tuple[str, str, Callable[[], str]]] = [
    ("simplex.sparsemax_vs_active_set_oracle", _FAST, _check_sparsemax_vs_active_set),
    ("simplex.sparsemax_jacobian_vs_finite_differences", _FAST, _check_sparsemax_jacobian_fd),
    ("simplex.sparsemax_invariances", _FAST, _check_sparsemax_invariances),
    ("simplex.face_partition_property", _FAST, _check_face_partition),
    ("face_gibbs.log_normalizer_vs_enumeration", _FAST, _check_log_normalizer_vs_enum),
    ("face_gibbs.log_normalizer_vs_dag_oracle", _FAST, _check_log_normalizer_vs_dag),
    ("face_gibbs.log_normalizer_extreme_potentials", _FAST, _check_log_normalizer_extreme_potentials),
    ("face_gibbs.closed_form_vs_dag_oracle_at_edges", _FAST, _check_gibbs_vs_dag_at_edges),
    ("face_gibbs.moments_entropy_kl_vs_enumeration", _FAST, _check_gibbs_moments_vs_enum),
    ("face_gibbs.face_probs_sum_to_one", _FAST, _check_face_probs_sum),
    ("face_gibbs.grad_log_prob_vs_finite_differences", _FAST, _check_grad_log_prob),
    ("face_gibbs.log_normalizer_convexity", _FAST, _check_log_normalizer_convexity),
    ("face_gibbs.most_probable_face_vs_enumeration", _FAST, _check_most_probable_face),
    ("face_gibbs.sampling_chi_square", _FAST, lambda: _gibbs_chi_square(10**5)),
    ("face_gibbs.sampling_chi_square_1e6", _FULL, lambda: _gibbs_chi_square(10**6)),
    ("mixed_dirichlet.dirichlet_entropy_vs_mc", _FAST, lambda: _check_dirichlet_entropy_mc(10**5)),
    ("mixed_dirichlet.dirichlet_entropy_vs_mc_1e6", _FULL, lambda: _check_dirichlet_entropy_mc(10**6)),
    ("mixed_dirichlet.dirichlet_kl_vs_mc", _FAST, lambda: _check_dirichlet_kl_mc(10**5)),
    ("mixed_dirichlet.density_hand_values", _FAST, _check_mixed_dirichlet_density_values),
    ("mixed_dirichlet.entropy_exact_vs_mc", _FAST, lambda: _check_mixed_dirichlet_entropy_consistency(20000)),
    ("mixed_dirichlet.face_frequencies_tv", _FAST, lambda: _check_mixed_dirichlet_face_tv(10**5, 0.02)),
    ("mixed_dirichlet.face_frequencies_tv_1e6", _FULL, lambda: _check_mixed_dirichlet_face_tv(10**6, 0.005)),
    ("mixed_dirichlet.flat_conditionals_ks", _FAST, _check_mixed_dirichlet_flat_conditional),
    ("mixed_dirichlet.small_alpha_sampler_vs_digamma_beta_entropy", _FAST, _check_small_alpha_sampler),
    ("extrinsic.gs2_entropy_vs_mc", _FAST, lambda: _check_gs2_entropy_mc(2 * 10**5)),
    ("extrinsic.gs2_entropy_vs_mc_1e6", _FULL, lambda: _check_gs2_entropy_mc(10**6)),
    ("extrinsic.gs2_kl_vs_mc", _FAST, lambda: _check_gs2_kl_mc(2 * 10**5)),
    ("extrinsic.gs2_kl_vs_mc_1e6", _FULL, lambda: _check_gs2_kl_mc(10**6)),
    ("extrinsic.gs2_density_three_paths", _FAST, _check_gs2_density_paths),
    ("extrinsic.gs_density_pivot_invariance", _FAST, _check_gs_density_pivot_invariance),
    ("extrinsic.gs_density_constant_sigma_path", _FAST, _check_gs_density_constant_sigma),
    ("extrinsic.gs_density_unequal_sigma_batches", _FAST, _check_gs_density_unequal_sigma),
    ("extrinsic.gs_density_pooled_faces", _FAST, _check_gs_density_pooled_faces),
    ("extrinsic.gs_orthant_wide_sigma", _FAST, _check_gs_orthant_wide_sigma),
    ("extrinsic.gs2_face_probs_vs_frequencies", _FAST, lambda: _check_gs2_face_frequencies(10**5)),
    ("extrinsic.gs2_face_probs_vs_frequencies_1e6", _FULL, lambda: _check_gs2_face_frequencies(10**6)),
    ("extrinsic.gs_k3_normalization", _FULL, _check_gs_k3_normalization),
    ("extrinsic.gs_k3_entropy_vs_mc", _FAST, lambda: _check_gs_k3_entropy_mc(20000)),
    ("extrinsic.gs_k3_kl_vs_mc", _FULL, lambda: _check_gs_k3_kl_mc(20000)),
    ("extrinsic.concrete_gumbel_max", _FAST, lambda: _check_concrete_gumbel_max(10**5)),
    ("extrinsic.concrete_gumbel_max_1e6", _FULL, lambda: _check_concrete_gumbel_max(10**6)),
    ("extrinsic.khc_binary_coupling", _FAST, _check_khc_coupling),
    ("extrinsic.binary_hc_boundary_cdf", _FAST, lambda: _check_binary_hc_cdf(10**5)),
    ("extrinsic.binary_hc_boundary_cdf_1e6", _FULL, lambda: _check_binary_hc_cdf(10**6)),
    ("info_theory.maxent_laguerre_vs_series", _FAST, _check_maxent_table),
    ("info_theory.coding_entropy_worked_example", _FAST, _check_coding_entropy),
    ("info_theory.maxent_component_reconstruction", _FAST, _check_maxent_reconstruction),
    ("info_theory.maxent_frequencies", _FAST, lambda: _check_maxent_frequencies(10**5)),
    ("info_theory.maxent_frequencies_1e6", _FULL, lambda: _check_maxent_frequencies(10**6)),
    ("info_theory.maxent_mc_entropy", _FAST, lambda: _check_maxent_mc_entropy(20000)),
    ("info_theory.maxent_local_optimality", _FAST, _check_maxent_optimality),
    ("info_theory.maxent_dominates_mixed_dirichlet", _FAST, _check_maxent_dominates),
    ("info_theory.dimension_class_symmetry", _FAST, _check_dimension_symmetry),
    ("glm.gradient_vs_finite_differences", _FAST, _check_glm_gradient),
    ("glm.likelihood_vs_reference", _FAST, _check_glm_likelihood_vs_reference),
    ("glm.planted_recovery", _FULL, _check_glm_planted_recovery),
]


def check_names(level: str = "fast") -> list[str]:
    return [name for name, lvl, _ in CHECKS if level == "full" or lvl == "fast"]


def _run_one(name: str, fn: Callable[[], str]) -> CheckResult:
    t0 = time.perf_counter()
    try:
        detail = fn()
        return CheckResult(name, True, detail, time.perf_counter() - t0)
    except CheckFailure as e:
        return CheckResult(name, False, str(e), time.perf_counter() - t0)
    except Exception as e:  # an oracle crashing is a failure, not a crash
        return CheckResult(name, False, f"{type(e).__name__}: {e}", time.perf_counter() - t0)


def run_checks(level: str = "fast") -> list[CheckResult]:
    """Run the registry at the given level, in registry order."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    return [_run_one(name, fn) for name, lvl, fn in CHECKS if level == "full" or lvl == "fast"]
