import math

import numpy as np
import pytest
from scipy.special import comb, gammaln
from scipy.stats import chisquare

from mixedrv import info_theory as it
from mixedrv import mixed_dirichlet as md
from mixedrv import oracles
from mixedrv.extrinsic import GaussianSparsemax
from mixedrv.simplex import FaceBatch, ResourceLimitError, enumerate_faces


class _VertexPointMass:
    """Deterministic distribution at one vertex, for degenerate-case tests."""

    def __init__(self, i: int, K: int):
        self.i, self.K = i, K

    def sample_many(self, n: int, rng) -> FaceBatch:
        coords = np.zeros((n, self.K))
        coords[:, self.i] = 1.0
        return FaceBatch.from_coords(coords)

    def log_density_many(self, batch: FaceBatch) -> np.ndarray:
        return np.where(batch.masks == 1 << self.i, 0.0, -np.inf)


class TestLaguerre:
    def test_degree_zero(self):
        assert oracles.laguerre_generalized(0, 7.3, -2.0) == 1.0

    def test_degree_one_closed_form(self):
        for N in range(0, 9):
            assert oracles.laguerre_generalized(1, 1.0, -(2.0**N)) == pytest.approx(2 + 2**N, rel=1e-14)

    def test_matches_series(self):
        for K in range(2, 31):
            for N in range(0, 9):
                series = sum(
                    comb(K, k, exact=True) * 2.0 ** (N * (k - 1)) / math.factorial(k - 1)
                    for k in range(1, K + 1)
                )
                got = oracles.laguerre_generalized(K - 1, 1.0, -(2.0**N))
                assert got == pytest.approx(series, rel=1e-10)


class TestMaxEntEntropy:
    def test_k2_family(self):
        for N in range(0, 9):
            assert it.maxent_entropy(2, N) == pytest.approx(np.log(2 + 2**N), abs=1e-12)

    def test_k3_n0(self):
        assert it.maxent_entropy(3, 0) == pytest.approx(np.log(6.5), abs=1e-12)

    def test_k3_general_n(self):
        for N in range(0, 5):
            expected = np.log(3 + 3 * 2**N + 2 ** (2 * N - 1))
            assert it.maxent_entropy(3, N) == pytest.approx(expected, rel=1e-12)

    def test_two_code_paths_agree(self):
        for K in range(2, 31):
            for N in range(0, 9):
                a, b = it.maxent_entropy(K, N), it.maxent_entropy_series(K, N)
                assert a == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("K", [2, 3, 10, 30, 100, 400])
    def test_finite_at_any_precision(self, K):
        # neither L_(K-1)(-2^N) nor 2^N itself need be a double
        for N in (0, 8, 60, 200, 600, 1023, 1100):
            a, b = it.maxent_entropy(K, N), it.maxent_entropy_series(K, N)
            assert math.isfinite(a) and a == pytest.approx(b, rel=1e-10)
        assert it.maxent_entropy(3, 600) == pytest.approx(831.08, abs=0.01)
        assert it.maxent_entropy(10, 200) == pytest.approx(1234.86, abs=0.01)

    def test_bitwise_the_plain_recurrence_where_it_is_finite(self):
        for K in range(2, 31):
            for N in range(0, 9):
                plain = float(np.log(oracles.laguerre_generalized(K - 1, 1.0, -float(2.0**N))))
                assert it.maxent_entropy(K, N) == plain

    def test_validation(self):
        with pytest.raises(ValueError):
            it.maxent_entropy(1, 0)
        with pytest.raises(ValueError):
            it.maxent_entropy(3, -1)


class TestMaxEntDistribution:
    def test_k2_n0_is_uniform_over_faces(self):
        me = it.maxent_distribution(2, 0)
        masks, probs = me.exact_face_distribution()
        assert masks.tolist() == [1, 2, 3]
        for p in probs:
            assert p == pytest.approx(1 / 3, abs=1e-15)

    def test_k2_general_n_class_probs(self):
        for N in range(0, 9):
            me = it.maxent_distribution(2, N)
            assert me.g[0] == pytest.approx(2 / (2 + 2**N), rel=1e-13)
            assert me.g[1] == pytest.approx(2**N / (2 + 2**N), rel=1e-13)

    def test_k3_n0_class_weights(self):
        g = it.maxent_distribution(3, 0).g
        expected = np.array([3.0, 3.0, 0.5]) / 6.5
        np.testing.assert_allclose(g, expected, rtol=1e-13)

    def test_dimension_class_symmetry(self):
        masks, probs = it.maxent_distribution(5, 1).exact_face_distribution()
        by_dim = {}
        for f, p in zip(masks.tolist(), probs.tolist()):
            by_dim.setdefault(f.bit_count() - 1, set()).add(round(p, 15))
        assert all(len(v) == 1 for v in by_dim.values())

    def test_direct_sum_entropy_equals_laguerre_at_n0(self):
        for K in (2, 3, 6):
            me = it.maxent_distribution(K, 0)
            assert me.direct_sum_entropy() == pytest.approx(it.maxent_entropy(K, 0), rel=1e-12)

    def test_component_reconstruction(self):
        # H(F) + flat conditionals + coding term reproduces the Laguerre value
        for K, N in ((2, 0), (3, 2), (5, 1), (8, 3)):
            me = it.maxent_distribution(K, N)
            total = it.coding_entropy(*me.exact_face_distribution(), me.direct_sum_entropy(), N)
            assert total == pytest.approx(it.maxent_entropy(K, N), abs=1e-9)

    def test_dominates_random_mixed_dirichlets(self):
        rng = np.random.default_rng(80)
        for K in (3, 4):
            h_max = it.maxent_entropy(K, 0)
            for _ in range(100):
                dist = md.MixedDirichlet(rng.normal(0, 2, K), rng.uniform(0.2, 5, K))
                assert md.entropy(dist, mode="exact") <= h_max + 1e-9

    def test_local_optimality(self):
        for K in (2, 3, 4):
            for N in (0, 1):
                me = it.maxent_distribution(K, N)
                logw = it.maxent_log_weights(K, N)

                def objective(g):
                    with np.errstate(divide="ignore", invalid="ignore"):
                        terms = np.where(g > 0, g * (np.log(g) - logw), 0.0)
                    return -terms.sum()

                base = objective(me.g)
                for i in range(K):
                    for j in range(K):
                        if i == j or me.g[j] < 1e-3:
                            continue
                        g = me.g.copy()
                        g[i] += 1e-3
                        g[j] -= 1e-3
                        assert objective(g) <= base + 1e-9


class TestMaxEntSampling:
    def test_dimension_frequencies(self):
        me = it.maxent_distribution(4, 0)
        n = 10**5
        masks = it.maxent_sample_face_masks(me, n, np.random.default_rng(81))
        dims = np.array([bin(m).count("1") for m in masks])
        for k in range(1, 5):
            freq = np.mean(dims == k)
            se = np.sqrt(me.g[k - 1] * (1 - me.g[k - 1]) / n)
            assert abs(freq - me.g[k - 1]) < 4 * se

    def test_k2_n0_face_frequencies(self):
        me = it.maxent_distribution(2, 0)
        n = 10**5
        masks = it.maxent_sample_face_masks(me, n, np.random.default_rng(82))
        counts = np.bincount(masks, minlength=4)[1:]
        assert chisquare(counts, np.full(3, n / 3)).pvalue > 0.001

    def test_sample_points_live_on_their_faces(self):
        me = it.maxent_distribution(4, 1)
        for f, p in me.sample_many(300, np.random.default_rng(83)):
            assert p.support == f

    def test_mc_entropy_matches_exact(self):
        me = it.maxent_distribution(3, 2)
        est = it.direct_sum_entropy_mc(me, 30000, np.random.default_rng(84))
        assert me.direct_sum_entropy() == pytest.approx(est.estimate, abs=3 * est.std_error + 1e-12)


class TestDirectSumMc:
    def test_maxent_k2_entropy(self):
        me = it.maxent_distribution(2, 0)
        est = it.direct_sum_entropy_mc(me, 20000, np.random.default_rng(85))
        assert est.estimate == pytest.approx(np.log(3), abs=3 * est.std_error + 1e-12)

    def test_vertex_point_mass_entropy_is_zero(self):
        est = it.direct_sum_entropy_mc(_VertexPointMass(0, 3), 100, np.random.default_rng(86))
        assert est.estimate == 0.0 and est.std_error == 0.0

    def test_kl_of_identical_is_zero_within_error(self):
        rng = np.random.default_rng(87)
        dist = md.MixedDirichlet(rng.normal(0, 1, 4), rng.uniform(0.5, 3, 4))
        est = it.direct_sum_kl_mc(dist, dist, 5000, np.random.default_rng(88))
        assert not est.is_infinite
        assert est.estimate == pytest.approx(0.0, abs=max(3 * est.std_error, 1e-12))

    def test_kl_matches_exact_mixed_dirichlet(self):
        rng = np.random.default_rng(89)
        p = md.MixedDirichlet(rng.normal(0, 1, 4), rng.uniform(0.5, 3, 4))
        q = md.MixedDirichlet(rng.normal(0, 1, 4), rng.uniform(0.5, 3, 4))
        est = it.direct_sum_kl_mc(p, q, 30000, np.random.default_rng(90))
        assert md.kl_mixed(p, q, mode="exact") == pytest.approx(est.estimate, abs=3 * est.std_error)

    def test_support_violation_outcome(self):
        rng = np.random.default_rng(91)
        p = md.MixedDirichlet(np.zeros(3), np.ones(3))  # mass on every face
        q = md.FullFaceDirichlet(np.ones(3))            # interior only
        est = it.direct_sum_kl_mc(p, q, 2000, rng)
        assert est.is_infinite
        assert est.estimate == np.inf
        assert est.support_violations > 0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            it.direct_sum_entropy_mc(_VertexPointMass(0, 2), 1, np.random.default_rng(0))


class TestCodingEntropy:
    def test_maxent_k2_reproduces_log_2_plus_2n(self):
        for N in range(0, 9):
            me = it.maxent_distribution(2, N)
            total = it.coding_entropy(*me.exact_face_distribution(), me.direct_sum_entropy(), N)
            assert total == pytest.approx(np.log(2 + 2**N), abs=1e-12)

    def test_n_zero_is_identity(self):
        me = it.maxent_distribution(4, 2)
        h = me.direct_sum_entropy()
        assert it.coding_entropy(*me.exact_face_distribution(), h, 0) == h

    def test_degenerate_vertex_distribution(self):
        assert it.coding_entropy([0b001], [1.0], 0.0, 5) == 0.0
        assert it.coding_entropy(np.array([1 << 62, (1 << 63) - 1]), [0.5, 0.5], 0.0, 1) == pytest.approx(
            31 * math.log(2.0), rel=1e-15)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            it.coding_entropy([0b01], [0.7], 0.0, 1)

    @pytest.mark.parametrize("masks", [[0, 1], [-1, 1], [1], [[1, 2]]])
    def test_rejects_masks_that_are_not_one_face_per_probability(self, masks):
        with pytest.raises(ValueError):
            it.coding_entropy(masks, [0.5, 0.5], 0.0, 1)


@pytest.mark.parametrize("dist", [
    md.MixedDirichlet(np.array([0.4, -0.3, 0.2, 0.0]), np.array([0.5, 1.0, 2.0, 3.0])),
    it.MaxEntMixed(4, 2),
    GaussianSparsemax([0.55, 0.45], [0.8, 0.6]),
], ids=["mixed-dirichlet", "maxent", "gaussian-sparsemax"])
def test_exact_face_distribution_is_every_face_in_enumeration_order(dist):
    masks, probs = dist.exact_face_distribution()
    assert masks.dtype == np.int64
    np.testing.assert_array_equal(masks, enumerate_faces(dist.K))
    assert probs.shape == masks.shape and (probs > 0.0).all()
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_exact_face_distributions_share_the_enumeration_limit():
    K = md.EXACT_ENUM_MAX_K + 1
    for dist in (md.MixedDirichlet(np.zeros(K), np.ones(K)), it.MaxEntMixed(K, 0)):
        with pytest.raises(ResourceLimitError, match=f"K <= {md.EXACT_ENUM_MAX_K}"):
            dist.exact_face_distribution()


class TestMixedDistributionProtocol:
    def test_implementations_conform(self):
        from mixedrv.extrinsic import GaussianSparsemax

        assert isinstance(md.MixedDirichlet(np.zeros(2), np.ones(2)), it.MixedDistribution)
        assert isinstance(it.maxent_distribution(3, 0), it.MixedDistribution)
        assert isinstance(GaussianSparsemax([0.5, 0.5], [1.0, 1.0]), it.MixedDistribution)
