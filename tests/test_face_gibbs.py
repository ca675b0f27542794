import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from mixedrv import face_gibbs as fg
from mixedrv import oracles
from mixedrv.simplex import FaceIndexSet, enumerate_faces

small_w = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=8
).map(np.array)


class TestDag:
    def test_structure(self):
        dag = oracles.FaceLatticeDag(4)
        assert dag.states[0] == (0, 0, 0)
        assert dag.states[-1] == (5, 0, 1)
        # O(K): at most 3 live states per level plus source and sink
        assert len(dag.states) <= 3 * 4 + 2
        # complete paths have K+1 arcs: levels 0..K then the sink hop
        assert all(v[0] == u[0] + 1 for u, v in dag.arcs)

    def test_path_count_equals_face_count(self):
        # unit weights: forward value at the sink counts the paths
        for K in (2, 3, 5, 8):
            count = np.exp(oracles.dag_log_normalizer(np.zeros(K)))
            assert count == pytest.approx(2**K - 1, rel=1e-12)


class TestLogNormalizer:
    def test_uniform_case(self):
        assert fg.log_normalizer(np.zeros(3)) == pytest.approx(np.log(7), abs=1e-12)

    @pytest.mark.parametrize("K", [2, 5, 9, 14])
    def test_uniform_any_k(self, K):
        assert fg.log_normalizer(np.zeros(K)) == pytest.approx(np.log(2**K - 1), rel=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            w = rng.normal(0, 3, 12)
            a, b = fg.log_normalizer(w), oracles.enum_log_normalizer(w)
            assert a == pytest.approx(b, rel=1e-10)

    def test_matches_dag_oracle(self):
        rng = np.random.default_rng(11)
        for K in (2, 5, 10, 20, 40):
            for _ in range(10):
                w = rng.normal(0, 4, K)
                a, b = fg.log_normalizer(w), oracles.dag_log_normalizer(w)
                assert a == pytest.approx(b, rel=1e-12)

    def test_closed_form_at_extreme_potentials(self):
        # very negative potentials once cancelled to -inf in the closed form
        assert fg.log_normalizer([-20.0, -20.0]) == pytest.approx(np.log(2.0), rel=1e-12)
        assert fg.log_normalizer([-30.0, -30.0, -30.0]) == pytest.approx(60.0 - 30.0 + np.log(3.0), rel=1e-12)
        for w in ([400.0, 400.0, 400.0], [-400.0, -400.0], [30.0, -30.0, 30.0, -30.0], [-745.0] * 4):
            w = np.array(w)
            expected = oracles.enum_log_normalizer(w)
            assert fg.log_normalizer(w) == pytest.approx(expected, rel=1e-12)
            assert oracles.dag_log_normalizer(w) == pytest.approx(expected, rel=1e-12)
        batched = fg.log_normalizer(np.array([[-20.0, -20.0], [0.0, 0.0]]))
        np.testing.assert_allclose(batched, [np.log(2.0), np.log(3.0)], rtol=1e-12)

    def test_not_shift_invariant(self):
        w = np.array([0.3, -0.2, 0.5])
        assert abs(fg.log_normalizer(w + 1.0) - fg.log_normalizer(w)) > 0.1

    def test_batched(self):
        rng = np.random.default_rng(12)
        W = rng.normal(0, 2, (7, 5))
        batched = fg.log_normalizer(W)
        singles = np.array([fg.log_normalizer(w) for w in W])
        np.testing.assert_allclose(batched, singles, rtol=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            fg.log_normalizer([np.inf, 0.0])


EDGE_POTENTIALS = [400.0, -400.0, -20.0, -745.0, "alternating", "random", "normal"]


def _edge_w(K, kind):
    rng = np.random.default_rng(K)
    if kind == "alternating":
        return np.where(np.arange(K) % 2 == 0, 30.0, -30.0)
    if kind == "random":
        return rng.choice([-30.0, 30.0], K)
    if kind == "normal":
        return rng.normal(0.0, 3.0, K)
    return np.full(K, kind)


class TestDagOracleAtEdges:
    """The closed form against the face-lattice DAG over the K the API accepts."""

    @pytest.mark.parametrize("K", [*range(2, 14), 32, 63])
    def test_log_z_phi_and_sampling_table(self, K):
        for kind in EDGE_POTENTIALS:
            w = _edge_w(K, kind)
            d = fg.GibbsFaceDistribution(w)
            log_z = oracles.dag_log_normalizer(w)
            # the DAG's rounding grows with |log Z|, which sets the scale
            scale = max(1.0, abs(log_z))
            assert abs(d.log_z - log_z) <= 1e-12 * scale
            np.testing.assert_allclose(d.expected_phi, oracles.dag_expected_suff_stats(w), rtol=0, atol=1e-12)
            take = oracles.dag_take_probs(w)
            np.testing.assert_array_equal(d.take_probs > 0.0, take > 0.0)
            pos = take > 0.0
            assert np.max(np.abs(np.log(d.take_probs[pos]) - np.log(take[pos]))) <= 1e-12 * scale

    def test_batched_matches_dag_oracle(self):
        W = np.stack([_edge_w(12, kind) for kind in EDGE_POTENTIALS])
        np.testing.assert_allclose(fg.log_normalizer(W), oracles.dag_log_normalizer(W), rtol=1e-12)
        np.testing.assert_allclose(fg.expected_suff_stats(W), oracles.dag_expected_suff_stats(W), atol=1e-12)

    def test_never_samples_the_empty_face(self):
        # a face still empty at the last vertex takes it with probability
        # exactly 1, however the closed form rounds
        rng = np.random.default_rng(27)
        for w in rng.normal(0.0, 5.0, (50, 2)):
            assert fg.GibbsFaceDistribution(w).take_probs[-1, 0] == 1.0
        d = fg.GibbsFaceDistribution(np.full(63, -400.0))
        masks = fg.sample_face_masks(d, 10**5, rng)
        assert masks.min() > 0
        # every vertex is all but ruled out once one is taken: single vertices only
        assert np.all((masks & (masks - 1)) == 0)


class TestExpectedSuffStats:
    def test_uniform_k2(self):
        np.testing.assert_allclose(fg.expected_suff_stats(np.zeros(2)), [1/3, 1/3], atol=1e-14)

    def test_forced_vertex(self):
        w = np.array([30.0, 0.0, 0.0])
        assert fg.expected_suff_stats(w)[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            w = rng.normal(0, 2, 10)
            np.testing.assert_allclose(
                fg.expected_suff_stats(w), oracles.enum_expected_suff_stats(w), atol=1e-10
            )

    def test_strictly_inside_pm_one(self):
        d = fg.GibbsFaceDistribution(np.array([8.0, -8.0, 0.0]))
        assert np.all(d.expected_phi > -1.0) and np.all(d.expected_phi < 1.0)


class TestFaceLogProb:
    def test_uniform(self):
        d = fg.GibbsFaceDistribution(np.zeros(3))
        for f in enumerate_faces(3):
            assert fg.face_log_prob(d, f) == pytest.approx(np.log(1/7), abs=1e-12)

    def test_strong_vertex(self):
        d = fg.GibbsFaceDistribution(np.array([10.0, -10.0]))
        # direct three-term normalization over {0}, {1}, {0,1}
        expected = 20.0 - np.logaddexp.reduce([20.0, -20.0, 0.0])
        got = fg.face_log_prob(d, FaceIndexSet.from_indices([0], 2))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(-2.061e-9, rel=1e-3)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(14)
        d = fg.GibbsFaceDistribution(rng.normal(0, 2, 8))
        total = sum(np.exp(fg.face_log_prob(d, f)) for f in enumerate_faces(8))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        d = fg.GibbsFaceDistribution(np.zeros(3))
        with pytest.raises(ValueError):
            fg.face_log_prob(d, FaceIndexSet(1, 2))

    @settings(deadline=None, max_examples=30)
    @given(small_w)
    def test_normalization_property(self, w):
        d = fg.GibbsFaceDistribution(w)
        total = sum(np.exp(fg.face_log_prob(d, f)) for f in enumerate_faces(w.size))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestSampling:
    def test_uniform_frequencies(self):
        d = fg.GibbsFaceDistribution(np.zeros(3))
        n = 10**5
        counts = collections.Counter(f.mask for f in fg.sample_faces(d, n, np.random.default_rng(15)))
        for mask in range(1, 8):
            se = np.sqrt((1/7) * (6/7) / n)
            assert abs(counts[mask] / n - 1/7) < 4 * se

    def test_forced_membership(self):
        d = fg.GibbsFaceDistribution(np.array([30.0, 0.0, 0.0]))
        for f in fg.sample_faces(d, 500, np.random.default_rng(16)):
            assert f.contains(0)

    def test_tv_distance_to_exact(self):
        rng = np.random.default_rng(17)
        d = fg.GibbsFaceDistribution(rng.normal(0, 1, 4))
        n = 10**5
        counts = np.zeros(15)
        for f in fg.sample_faces(d, n, np.random.default_rng(18)):
            counts[f.mask - 1] += 1
        exact = np.array([np.exp(fg.face_log_prob(d, f)) for f in enumerate_faces(4)])
        assert 0.5 * np.abs(counts / n - exact).sum() < 0.02

    def test_chi_square(self):
        d = fg.GibbsFaceDistribution(np.array([0.5, -0.3, 0.2]))
        n = 10**5
        counts = np.zeros(7)
        for f in fg.sample_faces(d, n, np.random.default_rng(19)):
            counts[f.mask - 1] += 1
        expected = np.array([np.exp(fg.face_log_prob(d, f)) for f in enumerate_faces(3)]) * n
        assert chisquare(counts, expected).pvalue > 0.001

    def test_consumes_k_uniforms_per_sample(self):
        d = fg.GibbsFaceDistribution(np.array([0.4, -0.1, 0.3]))
        a = fg.sample_faces(d, 5, np.random.default_rng(20))
        rng = np.random.default_rng(20)
        b = [fg.sample_face(d, rng) for _ in range(5)]
        assert [f.mask for f in a] == [f.mask for f in b]


class TestEntropyKl:
    def test_uniform_entropy(self):
        assert fg.entropy(fg.GibbsFaceDistribution(np.zeros(3))) == pytest.approx(np.log(7), abs=1e-12)

    def test_concentrated_entropy(self):
        d = fg.GibbsFaceDistribution(np.full(5, 30.0))
        assert fg.entropy(d) == pytest.approx(0.0, abs=1e-9)

    def test_entropy_matches_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            w = rng.normal(0, 2, 10)
            d = fg.GibbsFaceDistribution(w)
            assert fg.entropy(d) == pytest.approx(oracles.enum_entropy(w), abs=1e-10)
            assert 0.0 <= fg.entropy(d) <= np.log(2**10 - 1) + 1e-12

    def test_kl_zero_on_equal(self):
        d = fg.GibbsFaceDistribution(np.array([0.5, -1.0]))
        assert fg.kl(d, d) == pytest.approx(0.0, abs=1e-14)

    def test_kl_matches_enumeration(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            w, v = rng.normal(0, 2, 10), rng.normal(0, 2, 10)
            dp, dq = fg.GibbsFaceDistribution(w), fg.GibbsFaceDistribution(v)
            assert fg.kl(dp, dq) == pytest.approx(oracles.enum_kl(w, v), abs=1e-10)

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            K = int(rng.integers(2, 6))
            dp = fg.GibbsFaceDistribution(rng.normal(0, 2, K))
            dq = fg.GibbsFaceDistribution(rng.normal(0, 2, K))
            assert fg.kl(dp, dq) >= -1e-12

    def test_kl_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fg.kl(fg.GibbsFaceDistribution(np.zeros(2)), fg.GibbsFaceDistribution(np.zeros(3)))


class TestGradLogProb:
    def test_hand_value(self):
        d = fg.GibbsFaceDistribution(np.zeros(2))
        g = fg.grad_log_prob(d, FaceIndexSet(0b11, 2))
        np.testing.assert_allclose(g, [2/3, 2/3], atol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            K = int(rng.integers(2, 7))
            w = rng.normal(0, 1.5, K)
            d = fg.GibbsFaceDistribution(w)
            f = fg.sample_face(d, rng)
            fd = oracles.central_difference_gradient(
                lambda v: fg.face_log_prob(fg.GibbsFaceDistribution(v), f), w
            )
            np.testing.assert_allclose(fg.grad_log_prob(d, f), fd, atol=1e-5)

    def test_expected_score_is_zero(self):
        rng = np.random.default_rng(25)
        w = rng.normal(0, 1, 10)
        d = fg.GibbsFaceDistribution(w)
        mean = sum(
            np.exp(fg.face_log_prob(d, f)) * fg.grad_log_prob(d, f) for f in enumerate_faces(10)
        )
        np.testing.assert_allclose(mean, np.zeros(10), atol=1e-10)


class TestMostProbableFace:
    def test_sign_rule(self):
        d = fg.GibbsFaceDistribution(np.array([1.0, -1.0, 2.0]))
        assert fg.most_probable_face(d).indices == (0, 2)

    def test_all_negative_falls_back_to_best_singleton(self):
        d = fg.GibbsFaceDistribution(np.array([-1.0, -2.0]))
        assert fg.most_probable_face(d).indices == (0,)

    def test_zero_potential_excluded(self):
        d = fg.GibbsFaceDistribution(np.array([0.0, 1.0]))
        assert fg.most_probable_face(d).indices == (1,)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            K = int(rng.integers(2, 13))
            w = rng.normal(0, 1.5, K)
            d = fg.GibbsFaceDistribution(w)
            got = fg.most_probable_face(d)
            best = oracles.enum_most_probable_face(w)
            assert float(w @ fg.suff_stats(got)) == pytest.approx(float(w @ fg.suff_stats(best)), abs=1e-12)
