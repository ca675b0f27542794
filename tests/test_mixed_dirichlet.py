import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import kstest

from mixedrv import checks
from mixedrv import face_gibbs as fg
from mixedrv import info_theory as it
from mixedrv import mixed_dirichlet as md
from mixedrv.simplex import FaceBatch, ResourceLimitError, SimplexPoint


def _dirichlet_logpdf_oracle(y, alpha):
    # standalone density for the restriction-consistency check
    return float((alpha - 1.0) @ np.log(y) - (gammaln(alpha).sum() - gammaln(alpha.sum())))


class TestDirichletClosedForms:
    def test_flat_entropy_is_minus_log_factorial(self):
        for K in (2, 3, 5, 8):
            assert md.dirichlet_entropy(np.ones(K)) == pytest.approx(-gammaln(K), abs=1e-12)

    def test_flat_k2_is_zero(self):
        assert md.dirichlet_entropy(np.ones(2)) == 0.0

    def test_entropy_vs_mc(self):
        rng = np.random.default_rng(30)
        for _ in range(3):
            alpha = rng.uniform(0.4, 4.0, 3)
            draws = rng.dirichlet(alpha, size=10**5)
            logs = np.log(draws) @ (alpha - 1.0) - (gammaln(alpha).sum() - gammaln(alpha.sum()))
            se = logs.std(ddof=1) / np.sqrt(logs.size)
            assert md.dirichlet_entropy(alpha) == pytest.approx(-logs.mean(), abs=3 * se)

    def test_entropy_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            md.dirichlet_entropy([1.0, 0.0])

    def test_kl_zero_on_equal(self):
        assert md.dirichlet_kl([0.7, 2.0], [0.7, 2.0]) == pytest.approx(0.0, abs=1e-14)

    def test_kl_vs_mc(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            ap, aq = rng.uniform(0.4, 4.0, 3), rng.uniform(0.4, 4.0, 3)
            draws = rng.dirichlet(ap, size=10**5)
            diffs = np.log(draws) @ (ap - aq) \
                - (gammaln(ap).sum() - gammaln(ap.sum())) \
                + (gammaln(aq).sum() - gammaln(aq.sum()))
            se = diffs.std(ddof=1) / np.sqrt(diffs.size)
            assert md.dirichlet_kl(ap, aq) == pytest.approx(diffs.mean(), abs=3 * se)

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            m = int(rng.integers(1, 5))
            assert md.dirichlet_kl(rng.uniform(0.2, 5, m), rng.uniform(0.2, 5, m)) >= -1e-12

    def test_kl_dimension_mismatch(self):
        with pytest.raises(ValueError):
            md.dirichlet_kl([1.0, 1.0], [1.0, 1.0, 1.0])


class TestMixedDirichlet:
    def test_validation(self):
        with pytest.raises(ValueError):
            md.MixedDirichlet(np.zeros(3), np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            md.MixedDirichlet(np.zeros(3), np.ones(2))

    def test_forced_vertex_sampling(self):
        dist = md.MixedDirichlet(np.array([30.0, -30.0, -30.0]), np.ones(3))
        batch = dist.sample_many(100, np.random.default_rng(33))
        assert batch.masks.tolist() == [0b001] * 100
        assert batch.coords.tolist() == [[1.0, 0.0, 0.0]] * 100

    def test_sample_face_matches_point_support(self):
        dist = md.MixedDirichlet(np.array([0.5, -0.5, 0.2, 0.0]), np.full(4, 0.8))
        batch = md.sample_many(dist, 500, np.random.default_rng(34))
        for f, p in batch:
            assert p.support == f
        assert np.all(batch.coords[batch.members()] > 0.0)

    def test_flat_alpha_conditionals_are_uniform(self):
        # under alpha = 1, any coordinate of a face with m vertices is Beta(1, m-1)
        dist = md.MixedDirichlet(np.array([0.5, 0.5, 0.5]), np.ones(3))
        by_face = {}
        for f, p in md.sample_many(dist, 20000, np.random.default_rng(35)):
            if f.mask.bit_count() >= 2:
                by_face.setdefault(f.mask, []).append(p.coords[p.coords > 0.0][0])
        assert by_face
        for mask, vals in by_face.items():
            if len(vals) >= 500:
                assert kstest(vals, "beta", args=(1.0, mask.bit_count() - 1)).pvalue > 0.001

    def test_face_frequency_tv(self):
        rng = np.random.default_rng(36)
        dist = md.MixedDirichlet(rng.normal(0, 1, 4), rng.uniform(0.5, 3, 4))
        n = 10**5
        counts = np.zeros(15)
        for f, _ in md.sample_many(dist, n, np.random.default_rng(37)):
            counts[f.mask - 1] += 1
        exact = dist.exact_face_distribution()[1]
        assert 0.5 * np.abs(counts / n - exact).sum() < 0.02

    def test_exact_face_distribution_matches_per_face_loop(self):
        # reference: one face_log_prob per face.  The two differ only in how
        # a length-K dot product rounds, so the bound is a few ulps of the
        # exponent's scale sum|w| + |log Z| (about 1e-15 relative at
        # unit-scale potentials)
        eps = np.finfo(float).eps
        rng = np.random.default_rng(50)
        for K in (2, 3, 4, 7, 10, md.EXACT_ENUM_MAX_K):
            for scale in (0.3, 3.0, 30.0):
                dist = md.MixedDirichlet(rng.normal(0, scale, K), np.ones(K))
                masks, got = dist.exact_face_distribution()
                assert masks.tolist() == list(range(1, 1 << K))
                loop = np.array([np.exp(fg.face_log_prob(dist.faces, f)) for f in masks.tolist()])
                tol = 4.0 * eps * (np.abs(dist.faces.w).sum() + abs(dist.faces.log_z))
                pos = loop > 0.0
                np.testing.assert_array_equal(got > 0.0, pos)
                assert np.max(np.abs(got[pos] / loop[pos] - 1.0)) <= tol


class TestLogDensity:
    def test_edge_hand_value(self):
        dist = md.MixedDirichlet(np.zeros(2), np.ones(2))
        assert md.log_density(dist, SimplexPoint([0.5, 0.5])) == pytest.approx(-np.log(3), abs=1e-12)

    def test_vertex_is_face_log_prob(self):
        dist = md.MixedDirichlet(np.array([0.4, -0.2]), np.array([2.0, 3.0]))
        v = md.log_density(dist, SimplexPoint([1.0, 0.0]))
        assert v == pytest.approx(fg.face_log_prob(dist.faces, 0b01), abs=1e-14)

    def test_normalization_by_construction(self):
        rng = np.random.default_rng(38)
        dist = md.MixedDirichlet(rng.normal(0, 1, 5), rng.uniform(0.5, 2, 5))
        assert dist.exact_face_distribution()[1].sum() == pytest.approx(1.0, abs=1e-12)

    def test_restriction_consistency(self):
        rng = np.random.default_rng(39)
        dist = md.MixedDirichlet(rng.normal(0, 1, 5), rng.uniform(0.5, 3, 5))
        for f, p in md.sample_many(dist, 50, np.random.default_rng(40)):
            if f.mask.bit_count() < 2:
                continue
            on = p.coords > 0.0
            expected = fg.face_log_prob(dist.faces, f.mask) + _dirichlet_logpdf_oracle(p.coords[on], dist.alpha[on])
            assert md.log_density(dist, p) == pytest.approx(expected, rel=1e-12)


class TestEntropyKl:
    def test_uniform_faces_flat_alpha(self):
        dist = md.MixedDirichlet(np.zeros(2), np.ones(2))
        assert md.entropy(dist) == pytest.approx(np.log(3), abs=1e-12)

    def test_degenerate_full_face_flat(self):
        for K in (3, 5):
            dist = md.MixedDirichlet(np.full(K, 30.0), np.ones(K))
            assert md.entropy(dist) == pytest.approx(-gammaln(K), abs=1e-7)

    def test_exact_vs_mc_mode(self):
        rng = np.random.default_rng(41)
        dist = md.MixedDirichlet(rng.normal(0, 1, 6), rng.uniform(0.5, 3, 6))
        exact = md.entropy(dist, mode="exact")
        mc = md.entropy(dist, mode="mc", n=10**5, rng=np.random.default_rng(42))
        assert mc == pytest.approx(exact, abs=0.02)

    def test_sampling_density_consistency(self):
        rng = np.random.default_rng(43)
        dist = md.MixedDirichlet(rng.normal(0, 1, 5), rng.uniform(0.5, 3, 5))
        est = it.direct_sum_entropy_mc(dist, 30000, np.random.default_rng(44))
        assert md.entropy(dist, mode="exact") == pytest.approx(est.estimate, abs=3 * est.std_error)

    def test_exact_mode_resource_limit(self):
        dist = md.MixedDirichlet(np.zeros(15), np.ones(15))
        with pytest.raises(ResourceLimitError):
            md.entropy(dist, mode="exact")

    def test_kl_identical_is_zero(self):
        rng = np.random.default_rng(45)
        dist = md.MixedDirichlet(rng.normal(0, 1, 4), rng.uniform(0.5, 3, 4))
        assert md.kl_mixed(dist, dist) == pytest.approx(0.0, abs=1e-13)

    def test_kl_exact_vs_mc(self):
        rng = np.random.default_rng(46)
        p = md.MixedDirichlet(rng.normal(0, 1, 8), rng.uniform(0.5, 3, 8))
        q = md.MixedDirichlet(rng.normal(0, 1, 8), rng.uniform(0.5, 3, 8))
        exact = md.kl_mixed(p, q, mode="exact")
        mc = md.kl_mixed(p, q, mode="mc", n=10**5, rng=np.random.default_rng(47))
        assert mc == pytest.approx(exact, abs=0.05)

    def test_face_sums_match_per_face_loop(self):
        # the vectorized sums over faces against the scalar closed forms,
        # summed per face (exact mode) or averaged over sampled faces (mc)
        rng = np.random.default_rng(49)
        for K in (2, 3, 5, 7):
            p = md.MixedDirichlet(rng.normal(0, 2, K), rng.uniform(0.05, 5, K))
            q = md.MixedDirichlet(rng.normal(0, 2, K), rng.uniform(0.05, 5, K))
            h_face, kl_face = fg.entropy(p.faces), fg.kl(p.faces, q.faces)
            probs = dict(zip(*(a.tolist() for a in p.exact_face_distribution())))
            on = {f: [k for k in range(K) if f >> k & 1] for f in probs}
            h = h_face + sum(pr * md.dirichlet_entropy(p.alpha[on[f]]) for f, pr in probs.items())
            kl = kl_face + sum(pr * md.dirichlet_kl(p.alpha[on[f]], q.alpha[on[f]]) for f, pr in probs.items())
            assert md.entropy(p) == pytest.approx(h, rel=1e-12)
            assert md.kl_mixed(p, q) == pytest.approx(kl, rel=1e-12)
            faces = fg.sample_face_masks(p.faces, 2000, np.random.default_rng(K)).tolist()
            h = h_face + np.mean([md.dirichlet_entropy(p.alpha[on[f]]) for f in faces])
            kl = kl_face + np.mean([md.dirichlet_kl(p.alpha[on[f]], q.alpha[on[f]]) for f in faces])
            assert md.entropy(p, mode="mc", n=2000, rng=np.random.default_rng(K)) == pytest.approx(h, rel=1e-12)
            assert md.kl_mixed(p, q, mode="mc", n=2000, rng=np.random.default_rng(K)) == pytest.approx(kl, rel=1e-12)

    def test_kl_nonnegative_and_finite(self):
        rng = np.random.default_rng(48)
        for _ in range(50):
            p = md.MixedDirichlet(rng.normal(0, 2, 4), rng.uniform(0.2, 5, 4))
            q = md.MixedDirichlet(rng.normal(0, 2, 4), rng.uniform(0.2, 5, 4))
            v = md.kl_mixed(p, q)
            assert np.isfinite(v) and v >= -1e-12

    def test_kl_dimension_mismatch(self):
        with pytest.raises(ValueError):
            md.kl_mixed(
                md.MixedDirichlet(np.zeros(2), np.ones(2)),
                md.MixedDirichlet(np.zeros(3), np.ones(3)),
            )


class TestFullFaceDirichlet:
    def test_density_minus_inf_off_the_maximal_face(self):
        d = md.FullFaceDirichlet(np.ones(3))
        vals = d.log_density_many(FaceBatch.from_coords([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5]]))
        assert vals[0] == -np.inf and np.isfinite(vals[1])

    def test_samples_are_interior(self):
        d = md.FullFaceDirichlet(np.array([0.5, 1.0, 2.0]))
        batch = d.sample_many(200, np.random.default_rng(49))
        assert batch.masks.tolist() == [0b111] * 200
        assert np.all(batch.coords > 0)


class TestLogSpaceDraws:
    """Every intrinsic sampler draws its Dirichlet points through the one
    log-space fill, in the stream order written out in ``conftest.py``."""

    @pytest.mark.parametrize("K", [2, 6, 13])
    def test_sample_many_follows_the_stream_contract(self, K, log_space_fill):
        rng = np.random.default_rng([50, K])
        dist = md.MixedDirichlet(rng.normal(0.0, 2.0, K), np.exp(rng.uniform(np.log(1e-3), np.log(1e3), K)))
        a, b = np.random.default_rng(51), np.random.default_rng(51)
        batch = dist.sample_many(300, a)
        masks = fg.masks_from_uniforms(b.random((300, K)), dist.faces.take_probs)
        log_y = log_space_fill(masks, dist.alpha, b)
        assert np.array_equal(batch.masks, masks) and np.array_equal(batch.log_coords, log_y)
        assert np.array_equal(batch.coords, np.exp(log_y))
        assert a.random() == b.random()

    def test_full_face_and_maxent_follow_the_stream_contract(self, log_space_fill):
        full = md.FullFaceDirichlet(np.array([0.001, 0.5, 3.0, 1.0]))
        batch = full.sample_many(200, np.random.default_rng(52))
        masks = np.full(200, 15)
        assert np.array_equal(batch.log_coords, log_space_fill(masks, full.alpha, np.random.default_rng(52)))
        me = it.maxent_distribution(5, 2)
        batch = me.sample_many(200, np.random.default_rng(53))
        ref = np.random.default_rng(53)
        masks = it.maxent_sample_face_masks(me, 200, ref)
        assert np.array_equal(batch.masks, masks)
        assert np.array_equal(batch.log_coords, log_space_fill(masks, np.ones(5), ref))

    @pytest.mark.parametrize("K", [2, 3, 6])
    def test_log_density_finite_at_own_samples_at_conc_min(self, K):
        dist = md.MixedDirichlet(np.full(K, 2.0), np.full(K, 1e-3))
        batch = dist.sample_many(2000, np.random.default_rng(54))
        assert (batch.members().sum(axis=1) > 1).mean() > 0.5
        assert np.isfinite(md.log_density_many(dist, batch)).all()
        full = md.FullFaceDirichlet(np.full(K, 1e-3))
        assert np.isfinite(full.log_density_many(full.sample_many(500, np.random.default_rng(55)))).all()

    def test_underflowed_coordinate_keeps_the_sampled_face(self):
        # at tiny concentrations most of a face's mass sits near one vertex:
        # the other coordinates underflow to 0.0, but the batch keeps the
        # sampled face and the finite log-coordinates on it
        dist = md.MixedDirichlet(np.full(3, 10.0), np.array([1e-3, 1e-3, 1e-3]))
        batch = md.sample_many(dist, 200, np.random.default_rng(56))
        assert batch.masks.tolist() == [7] * 200
        underflowed = 0
        for i, (f, p) in enumerate(batch):
            assert f.mask == 7 and np.isfinite(batch.log_coords[i]).all()
            assert p.support.mask == int((p.coords > 0.0) @ [1, 2, 4])  # a valid SimplexPoint
            assert SimplexPoint(p.coords).support == p.support
            underflowed += p.support != f
        assert underflowed > 100

    def test_small_concentration_oracle_check(self):
        # E[log y] against digamma, the Beta CDF in log space and the closed
        # form entropy, at concentrations 1e-3, 1e-2 and 0.1
        assert "SE" in checks._check_small_alpha_sampler()
        assert "mixed_dirichlet.small_alpha_sampler_vs_digamma_beta_entropy" in checks.check_names("fast")

    def test_beta_cdf_from_logs_matches_scipy(self):
        from scipy.stats import beta
        y = np.array([1e-12, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-9])
        got = checks._beta_cdf_from_logs(np.log(y), np.log1p(-y), 0.3, 0.8)
        np.testing.assert_allclose(got, beta.cdf(y, 0.3, 0.8), rtol=1e-6)
        # below 1e-300 the tail is x^a / (a B(a, b)): continuous across the switch
        t = np.log(1e-300)
        lo, hi = checks._beta_lower_tail(np.array([t - 1e-9, t + 1e-9]), 1e-3, 2e-3)
        assert lo == pytest.approx(hi, rel=1e-8)


class TestTinyConcentrations:
    """Below ``SAMPLE_ALPHA_MIN`` the log-space Gamma step would divide
    log(1 - U) into -inf for some uniforms; sampling refuses such
    concentrations up front instead of failing on whichever rows drew them."""

    def test_threshold_is_the_smallest_finite_quotient(self):
        log_u_min = np.log1p(-np.nextafter(1.0, 0.0))  # the most negative log(1 - U)
        assert np.isfinite(log_u_min / md.SAMPLE_ALPHA_MIN)
        with np.errstate(over="ignore"):
            assert np.isinf(log_u_min / np.nextafter(md.SAMPLE_ALPHA_MIN, 0.0))

    @pytest.mark.parametrize("a", [2.0e-307, 5e-308, 2.3e-308, 1e-310])
    @pytest.mark.parametrize("make", [
        lambda a: md.MixedDirichlet(np.zeros(3), np.full(3, a)),
        lambda a: md.FullFaceDirichlet(np.full(3, a)),
        lambda a: md.MixedDirichlet(np.zeros(3), np.array([1.0, a, 1.0])),
    ])
    def test_rejected_before_drawing(self, make, a):
        dist = make(a)
        rng = np.random.default_rng(57)
        for seed in range(3):
            with pytest.raises(ValueError, match="concentrations must be >="):
                dist.sample_many(1000, np.random.default_rng(seed))
        with pytest.raises(ValueError, match="concentrations"):
            md.dirichlet_log_fill(np.full(4, 7), dist.alpha, rng)
        assert rng.random() == np.random.default_rng(57).random()  # nothing was drawn

    @pytest.mark.parametrize("a", [1e-306, "min"])
    def test_smallest_concentrations_still_sample(self, a):
        a = md.SAMPLE_ALPHA_MIN if a == "min" else a

        class LargestUniform:
            """A generator whose uniforms are all the largest double below 1."""
            def __init__(self, rng):
                self.rng = rng

            def standard_gamma(self, shape):
                return self.rng.standard_gamma(shape)

            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        masks = np.full(50, 7)
        log_y = md.dirichlet_log_fill(masks, np.array([a, 1.0, a]), LargestUniform(np.random.default_rng(58)))
        assert np.isfinite(log_y).all()
        for dist in (md.MixedDirichlet(np.zeros(3), np.full(3, a)), md.FullFaceDirichlet(np.full(3, a))):
            batch = dist.sample_many(1000, np.random.default_rng(59))
            assert np.isfinite(batch.log_coords[batch.members()]).all()
