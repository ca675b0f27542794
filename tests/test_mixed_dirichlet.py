import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import kstest

from mixedrv import face_gibbs as fg
from mixedrv import info_theory as it
from mixedrv import mixed_dirichlet as md
from mixedrv.simplex import ResourceLimitError, SimplexPoint, enumerate_faces, face_of


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
        rng = np.random.default_rng(33)
        for _ in range(100):
            f, p = md.sample(dist, rng)
            assert f.indices == (0,)
            assert p.coords.tolist() == [1.0, 0.0, 0.0]

    def test_sample_face_matches_point_support(self):
        dist = md.MixedDirichlet(np.array([0.5, -0.5, 0.2, 0.0]), np.full(4, 0.8))
        for f, p in md.sample_many(dist, 500, np.random.default_rng(34)):
            assert face_of(p) == f
            assert np.all(p.restricted() > 0.0)

    def test_flat_alpha_conditionals_are_uniform(self):
        # under alpha = 1, any coordinate of a face with m vertices is Beta(1, m-1)
        dist = md.MixedDirichlet(np.array([0.5, 0.5, 0.5]), np.ones(3))
        by_face = {}
        for f, p in md.sample_many(dist, 20000, np.random.default_rng(35)):
            if f.size >= 2:
                by_face.setdefault(f, []).append(p.restricted()[0])
        assert by_face
        for f, vals in by_face.items():
            if len(vals) >= 500:
                assert kstest(vals, "beta", args=(1.0, f.size - 1)).pvalue > 0.001

    def test_face_frequency_tv(self):
        rng = np.random.default_rng(36)
        dist = md.MixedDirichlet(rng.normal(0, 1, 4), rng.uniform(0.5, 3, 4))
        n = 10**5
        counts = np.zeros(15)
        for f, _ in md.sample_many(dist, n, np.random.default_rng(37)):
            counts[f.mask - 1] += 1
        exact = np.array([dist.exact_face_distribution()[f] for f in enumerate_faces(4)])
        assert 0.5 * np.abs(counts / n - exact).sum() < 0.02


class TestLogDensity:
    def test_edge_hand_value(self):
        dist = md.MixedDirichlet(np.zeros(2), np.ones(2))
        assert md.log_density(dist, SimplexPoint([0.5, 0.5])) == pytest.approx(-np.log(3), abs=1e-12)

    def test_vertex_is_face_log_prob(self):
        dist = md.MixedDirichlet(np.array([0.4, -0.2]), np.array([2.0, 3.0]))
        v = md.log_density(dist, SimplexPoint([1.0, 0.0]))
        assert v == pytest.approx(fg.face_log_prob(dist.faces, face_of(SimplexPoint([1.0, 0.0]))), abs=1e-14)

    def test_normalization_by_construction(self):
        rng = np.random.default_rng(38)
        dist = md.MixedDirichlet(rng.normal(0, 1, 5), rng.uniform(0.5, 2, 5))
        assert sum(dist.exact_face_distribution().values()) == pytest.approx(1.0, abs=1e-12)

    def test_restriction_consistency(self):
        rng = np.random.default_rng(39)
        dist = md.MixedDirichlet(rng.normal(0, 1, 5), rng.uniform(0.5, 3, 5))
        for f, p in md.sample_many(dist, 50, np.random.default_rng(40)):
            if f.size < 2:
                continue
            expected = fg.face_log_prob(dist.faces, f) + _dirichlet_logpdf_oracle(
                p.restricted(), dist.alpha_on(f)
            )
            assert md.log_density(dist, p) == pytest.approx(expected, rel=1e-12)

    def test_zero_coordinate_inside_face_rejected(self):
        with pytest.raises(ValueError):
            md.dirichlet_log_pdf(np.array([0.0, 1.0]), np.array([1.0, 2.0]))


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
            probs = p.exact_face_distribution()
            h = h_face + sum(pr * md.dirichlet_entropy(p.alpha_on(f)) for f, pr in probs.items())
            kl = kl_face + sum(pr * md.dirichlet_kl(p.alpha_on(f), q.alpha_on(f)) for f, pr in probs.items())
            assert md.entropy(p) == pytest.approx(h, rel=1e-12)
            assert md.kl_mixed(p, q) == pytest.approx(kl, rel=1e-12)
            faces = fg.sample_faces(p.faces, 2000, np.random.default_rng(K))
            h = h_face + np.mean([md.dirichlet_entropy(p.alpha_on(f)) for f in faces])
            kl = kl_face + np.mean([md.dirichlet_kl(p.alpha_on(f), q.alpha_on(f)) for f in faces])
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
        assert d.log_density(SimplexPoint([1.0, 0.0, 0.0])) == -np.inf
        assert np.isfinite(d.log_density(SimplexPoint([0.2, 0.3, 0.5])))

    def test_samples_are_interior(self):
        d = md.FullFaceDirichlet(np.array([0.5, 1.0, 2.0]))
        for f, p in d.sample_many(200, np.random.default_rng(49)):
            assert f.size == 3
            assert np.all(p.coords > 0)


class _SubnormalGamma:
    """Real uniforms, but every Gamma row is (5e-324, 3.0, 3.0, ...): the
    subnormal first draw rounds to zero when the row is normalized."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, shape):
        return self.rng.random(shape)

    def gamma(self, alpha, size):
        g = np.full(size, 3.0)
        g[:, 0] = 5e-324
        return g


def test_underflowed_coordinate_moves_the_point_to_its_support():
    dist = md.MixedDirichlet(np.full(3, 10.0), np.array([0.006, 2.0, 2.0]))
    batch = md.sample_many(dist, 4, _SubnormalGamma(0))
    assert batch.masks.tolist() == [0b110] * 4  # sampled on the full face, landed on {1, 2}
    for f, p in batch:
        assert p.support == f and p.coords[0] == 0.0
    assert np.all(np.isfinite(md.log_density_many(dist, batch)))
