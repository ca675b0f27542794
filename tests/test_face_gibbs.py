import collections
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from mixedrv import face_gibbs as fg
from mixedrv import oracles
from mixedrv.simplex import enumerate_faces, member_masks

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

    def test_face_gibbs_resolves_the_dag_on_demand(self):
        # the benchmark tracer patches face_gibbs.FaceLatticeDag by name
        assert fg.FaceLatticeDag is oracles.FaceLatticeDag
        with pytest.raises(AttributeError):
            fg.no_such_name


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

    def test_values_pinned_down_to_minus_400(self):
        # rows with potentials down to -400 reach the small-S branch of the
        # closed form (S_k < 1e-280); the digest pins log Z and E[phi]
        # bitwise (numpy 2.4 on x86-64), and no RuntimeWarning may be raised
        h = hashlib.sha256()
        rng = np.random.default_rng(1801)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for K in (2, 3, 6, 13):
                w = np.concatenate([rng.uniform(-400.0, 5.0, (6, K)), rng.uniform(-400.0, -300.0, (6, K)),
                                    np.full((1, K), -400.0)])
                log_z, phi = fg.log_normalizer_and_grad(w)
                h.update(log_z.tobytes())
                h.update(phi.tobytes())
        assert h.hexdigest() == "9c09d99f1245b2a24cb879ca391824745094d4cdd3eebb769716716402ebfb59"

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

    @pytest.mark.filterwarnings("error")
    def test_potentials_up_to_half_the_double_range(self):
        # 2w is formed for every potential: at max/2 it is the largest
        # double, one ulp beyond it overflows, so such potentials are refused
        edge = np.finfo(float).max / 2.0
        for w in ([edge, 0.0], [-edge, 0.5]):
            assert np.isfinite(fg.GibbsFaceDistribution(w).take_probs).all()
        beyond = np.nextafter(edge, np.inf)
        for w in ([beyond, 0.0], [0.5, -beyond], [[0.0, 0.0], [1e308, 0.0]]):
            for f in (fg.log_normalizer, fg.log_normalizer_and_grad, fg.sampling_tables):
                with pytest.raises(ValueError, match="2w overflows"):
                    f(w)


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


def _mp_face_law(w):
    """log Z, E[phi] and the sampling table at 50 digits.

    Splits the faces by their smallest vertex, so every sum has positive
    terms only and nothing cancels, however extreme the potentials; the
    sampling table is returned as logs (-inf where a state cannot occur).
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        w = [mp.mpf(float(v)) for v in w]
        K = len(w)
        c = [mp.exp(v) + mp.exp(-v) for v in w]
        tail = [mp.mpf(1)] * (K + 1)  # tail[i] = prod_{j >= i} c_j
        prefix = [mp.mpf(0)] * (K + 1)  # prefix[i] = sum_{j < i} w_j
        for i in range(K - 1, -1, -1):
            tail[i] = tail[i + 1] * c[i]
        for i in range(K):
            prefix[i + 1] = prefix[i] + w[i]

        def first(k, i):
            # faces with no vertex before k whose smallest vertex is i
            return mp.exp(w[i] - (prefix[i] - prefix[k])) * tail[i + 1]

        z = [mp.fsum(first(k, i) for i in range(k, K)) for k in range(K)]
        phi = [2 * mp.exp(w[k]) * tail[0] / c[k] / z[0] - 1 for k in range(K)]
        log_take = np.full((K, 3), -np.inf)
        for k in range(K):
            log_take[k, 0] = float(mp.log(first(k, k) / z[k]))
            log_take[k, 1:] = float(w[k] - mp.log(c[k]))
        log_take[0, 1:] = log_take[1, 1] = -np.inf
        return float(mp.log(z[0])), np.array([float(v) for v in phi]), log_take


class TestMpmathOracleAtEdges:
    """The closed form against a 50-digit evaluation where the DAG oracle
    itself loses digits (|log Z| up to ~47,000), at the DAG test's bounds."""

    @pytest.mark.parametrize("K", [13, 32, 63])
    @pytest.mark.parametrize("kind", [-745.0, -400.0, 400.0, "alternating"])
    def test_log_z_phi_and_sampling_table(self, K, kind):
        w = _edge_w(K, kind)
        log_z, phi, log_take = _mp_face_law(w)
        d = fg.GibbsFaceDistribution(w)
        scale = max(1.0, abs(log_z))
        assert abs(d.log_z - log_z) <= 1e-12 * scale
        assert abs(fg.log_normalizer(w) - log_z) <= 1e-12 * scale
        np.testing.assert_allclose(d.expected_phi, phi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fg.expected_suff_stats(w), phi, rtol=0, atol=1e-12)
        # a zero entry must be one whose true value underflows a double
        pos = d.take_probs > 0.0
        assert np.all(log_take[~pos] < np.log(np.nextafter(0.0, 1.0)))
        err = np.max(np.abs(np.log(d.take_probs[pos]) - log_take[pos]))
        assert err <= 1e-12 * scale
        # unscaled, which the DAG misses by 10x at K = 63, w = -745
        assert err <= 1e-12


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
        got = fg.face_log_prob(d, 0b01)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(-2.061e-9, rel=1e-3)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(14)
        d = fg.GibbsFaceDistribution(rng.normal(0, 2, 8))
        total = np.exp(fg.face_log_prob(d, enumerate_faces(8))).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        d = fg.GibbsFaceDistribution(np.zeros(3))
        with pytest.raises(ValueError):
            fg.face_log_prob(d, 0b1000)  # vertex 3 of a law over 3 vertices

    @settings(max_examples=30)
    @given(small_w)
    def test_normalization_property(self, w):
        d = fg.GibbsFaceDistribution(w)
        total = np.exp(fg.face_log_prob(d, enumerate_faces(w.size))).sum()
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
            assert f.mask & 1

    def test_tv_distance_to_exact(self):
        rng = np.random.default_rng(17)
        d = fg.GibbsFaceDistribution(rng.normal(0, 1, 4))
        n = 10**5
        counts = np.zeros(15)
        for f in fg.sample_faces(d, n, np.random.default_rng(18)):
            counts[f.mask - 1] += 1
        exact = np.exp(fg.face_log_prob(d, enumerate_faces(4)))
        assert 0.5 * np.abs(counts / n - exact).sum() < 0.02

    def test_chi_square(self):
        d = fg.GibbsFaceDistribution(np.array([0.5, -0.3, 0.2]))
        n = 10**5
        counts = np.zeros(7)
        for f in fg.sample_faces(d, n, np.random.default_rng(19)):
            counts[f.mask - 1] += 1
        expected = np.exp(fg.face_log_prob(d, enumerate_faces(3))) * n
        assert chisquare(counts, expected).pvalue > 0.001

    def test_consumes_k_uniforms_per_sample(self):
        d = fg.GibbsFaceDistribution(np.array([0.4, -0.1, 0.3]))
        a = fg.sample_faces(d, 5, np.random.default_rng(20))
        rng = np.random.default_rng(20)
        b = [fg.sample_faces(d, 1, rng)[0] for _ in range(5)]
        assert [f.mask for f in a] == [f.mask for f in b]


def _masks_by_vertex_pass(u, take):
    """Reference: one pass over the vertices, tracking each draw's state
    (0 still empty, 1 nonempty and k-1 not taken, 2 k-1 taken)."""
    n, K = u.shape
    codes = np.zeros(n, dtype=np.int64)
    masks = np.zeros(n, dtype=np.int64)
    for k in range(K):
        taken = u[:, k] < take[k, codes]
        masks |= taken.astype(np.int64) << k
        codes = np.where(taken, 2, np.minimum(codes, 1))
    return masks


class TestBatchedSampling:
    @pytest.mark.parametrize("K", [2, 3, 6, 13, 32, 63])
    def test_tables_match_one_law_at_a_time(self, K):
        W = np.stack([_edge_w(K, kind) for kind in EDGE_POTENTIALS]
                     + [np.where(np.arange(K) < K // 2, 400.0, -745.0)])
        tables = fg.sampling_tables(W)
        assert tables.shape == (W.shape[0], K, 3)
        for w, table in zip(W, tables):
            assert np.array_equal(table, fg.GibbsFaceDistribution(w).take_probs)
        assert np.array_equal(fg.sampling_tables(W[0]), fg.GibbsFaceDistribution(W[0]).take_probs)

    @pytest.mark.parametrize("K", [2, 3, 6, 13, 63])
    def test_masks_match_a_pass_over_the_vertices(self, K):
        rng = np.random.default_rng(28)
        for kind in EDGE_POTENTIALS:
            take = fg.GibbsFaceDistribution(_edge_w(K, kind)).take_probs
            for n in (1, 7, 500):
                u = rng.random((n, K))
                u[0, -1] = np.nextafter(1.0, 0.0)  # the largest uniform still takes a forced last vertex
                got = fg.masks_from_uniforms(u, take)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, _masks_by_vertex_pass(u, take))


    @pytest.mark.parametrize("K", [64, 70])
    def test_more_vertices_than_mask_bits_raise(self, K):
        # a 64th vertex has no int64 bit: raise rather than return wrong masks
        d = fg.GibbsFaceDistribution(np.full(K, 3.0))
        with pytest.raises(ValueError, match="<= 63"):
            fg.sample_face_masks(d, 3, np.random.default_rng(30))
        with pytest.raises(ValueError, match="<= 63"):
            fg.masks_from_uniforms(np.zeros((2, K)), d.take_probs)

    def test_k63_full_face_uses_every_mask_bit(self):
        d = fg.GibbsFaceDistribution(np.full(63, 3.0))
        assert fg.masks_from_uniforms(np.zeros((2, 63)), d.take_probs).tolist() == [(1 << 63) - 1] * 2
        full = fg.sample_face_masks(fg.GibbsFaceDistribution(np.full(63, 40.0)), 3, np.random.default_rng(31))
        assert full.tolist() == [(1 << 63) - 1] * 3

    @pytest.mark.parametrize("K", [2, 6, 13, 63])
    def test_per_row_tables_match_one_table_at_a_time(self, K):
        rng = np.random.default_rng(29)
        W = np.stack([_edge_w(K, kind) for kind in EDGE_POTENTIALS] + [rng.normal(0.0, 3.0, K) for _ in range(20)])
        W = W[rng.integers(0, len(W), 300)]
        u = rng.random((300, K))
        got = fg.masks_from_uniforms(u, fg.sampling_tables(W))
        ref = [fg.masks_from_uniforms(u[i:i + 1], fg.sampling_tables(w))[0] for i, w in enumerate(W)]
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("K", [2, 6, 13, 63])
    def test_tables_broadcast_across_draws(self, K):
        # one table per row with an axis of length 1 serves each row's n
        # draws: the faces are those of each row's uniforms under its table
        rng = np.random.default_rng(32)
        W = np.stack([_edge_w(K, kind) for kind in EDGE_POTENTIALS] + [rng.normal(0.0, 3.0, K) for _ in range(5)])
        u = rng.random((len(W), 40, K))
        member = fg.members_from_uniforms(u, fg.sampling_tables(W)[:, None])
        assert member.shape == u.shape and member.dtype == bool
        for i, w in enumerate(W):
            np.testing.assert_array_equal(member_masks(member[i]), fg.masks_from_uniforms(u[i], fg.sampling_tables(w)))


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
        g = fg.grad_log_prob(d, 0b11)
        np.testing.assert_allclose(g, [2/3, 2/3], atol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            K = int(rng.integers(2, 7))
            w = rng.normal(0, 1.5, K)
            d = fg.GibbsFaceDistribution(w)
            f = int(fg.sample_face_masks(d, 1, rng)[0])
            fd = oracles.central_difference_gradient(
                lambda v: fg.face_log_prob(fg.GibbsFaceDistribution(v), f), w
            )
            np.testing.assert_allclose(fg.grad_log_prob(d, f), fd, atol=1e-5)

    def test_expected_score_is_zero(self):
        rng = np.random.default_rng(25)
        w = rng.normal(0, 1, 10)
        d = fg.GibbsFaceDistribution(w)
        masks = enumerate_faces(10)
        mean = np.exp(fg.face_log_prob(d, masks)) @ fg.grad_log_prob(d, masks)
        np.testing.assert_allclose(mean, np.zeros(10), atol=1e-10)


class TestMostProbableFace:
    def test_sign_rule(self):
        d = fg.GibbsFaceDistribution(np.array([1.0, -1.0, 2.0]))
        assert fg.most_probable_face(d) == 0b101

    def test_all_negative_falls_back_to_best_singleton(self):
        d = fg.GibbsFaceDistribution(np.array([-1.0, -2.0]))
        assert fg.most_probable_face(d) == 0b01

    def test_zero_potential_excluded(self):
        d = fg.GibbsFaceDistribution(np.array([0.0, 1.0]))
        assert fg.most_probable_face(d) == 0b10

    def test_matches_enumeration(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            K = int(rng.integers(2, 13))
            w = rng.normal(0, 1.5, K)
            d = fg.GibbsFaceDistribution(w)
            got = fg.most_probable_face(d)
            best = oracles.enum_most_probable_face(w)
            assert float(w @ fg.suff_stats(got, K)) == pytest.approx(float(w @ fg.suff_stats(best, K)), abs=1e-12)

    def test_batched_rule_is_each_row_by_enumeration(self):
        # rows with ties and zeros: the face of a row is its argmax face by
        # enumeration, the lowest vertex on a tie of singletons
        rng = np.random.default_rng(27)
        W = rng.integers(-2, 3, (200, 6)) * 0.5
        W[:3] = [-1.0] * 6, [0.0] * 6, [-2.0, -1.0, -1.0, -3.0, 0.0, -1.0]
        members = fg.most_probable_members(W)
        assert members.shape == W.shape
        for w, member in zip(W, members):
            face = np.flatnonzero(member)
            assert fg.most_probable_members(w).tolist() == member.tolist()
            best = oracles.enum_most_probable_face(w)
            if face.size == 1:
                assert (w > 0).sum() <= 1 and face[0] == np.flatnonzero(w == w.max())[0]
            assert float(w @ np.where(member, 1.0, -1.0)) == float(w @ fg.suff_stats(best, 6))
        assert members[:3].tolist() == [[True] + [False] * 5, [True] + [False] * 5, [False] * 4 + [True, False]]


class TestMaskApi:
    """Face functions take one int64 bitmask or an array of them."""

    K63_MASKS = [1 << 62, (1 << 63) - 1, (1 << 62) | 0b101, 1]

    @pytest.mark.filterwarnings("error")
    def test_k63_masks_with_the_top_bit_set(self):
        w = np.random.default_rng(27).normal(0.0, 1.0, 63)
        d = fg.GibbsFaceDistribution(w)
        masks = np.array(self.K63_MASKS, dtype=np.int64)
        stats = fg.suff_stats(masks, 63)
        assert stats.shape == (4, 63)
        assert (stats == 1.0).sum(axis=1).tolist() == [m.bit_count() for m in self.K63_MASKS]
        assert stats[0, 62] == 1.0 and (stats[0, :62] == -1.0).all()
        assert (stats[1] == 1.0).all()
        log_p = fg.face_log_prob(d, masks)
        assert np.isfinite(log_p).all()
        assert log_p[1] == pytest.approx(w.sum() - d.log_z, rel=1e-12)
        grad = fg.grad_log_prob(d, masks)
        np.testing.assert_array_equal(grad, stats - d.expected_phi)
        for i, m in enumerate(self.K63_MASKS):  # one Python int at a time gives the same rows
            np.testing.assert_array_equal(fg.suff_stats(m, 63), stats[i])
            assert fg.face_log_prob(d, m) == pytest.approx(log_p[i], rel=1e-14)
            np.testing.assert_array_equal(fg.grad_log_prob(d, m), grad[i])
        np.testing.assert_array_equal(fg.suff_stats(masks.astype(np.uint64), 63), stats)

    def test_scalar_and_array_shapes(self):
        d = fg.GibbsFaceDistribution(np.array([0.3, -0.2, 0.1]))
        assert isinstance(fg.face_log_prob(d, 5), float)
        assert isinstance(fg.face_log_prob(d, np.int64(5)), float)
        assert fg.face_log_prob(d, [5, 2]).shape == (2,)
        assert fg.suff_stats(5, 3).tolist() == [1.0, -1.0, 1.0]
        assert fg.grad_log_prob(d, np.array([[5, 2]])).shape == (1, 2, 3)

    @pytest.mark.parametrize("K,mask", [
        (3, 0), (3, -1), (3, 8), (3, 1 << 40), (63, -(1 << 62)),
        (63, 1 << 63), (63, (1 << 64) + 1), (63, 1 << 70),  # Python ints >= 2^63
        (3, 1.0),
    ])
    @pytest.mark.parametrize("fn", ["suff_stats", "face_log_prob", "grad_log_prob"])
    def test_rejects_masks_outside_the_faces(self, fn, K, mask):
        d = fg.GibbsFaceDistribution(np.zeros(K))
        call = (lambda m: fg.suff_stats(m, K)) if fn == "suff_stats" else (lambda m: getattr(fg, fn)(d, m))
        for masks in (mask, [1, mask]):
            with pytest.raises(ValueError, match="not a nonempty subset"):
                call(masks)

    def test_rejects_laws_too_wide_for_a_mask(self):
        with pytest.raises(ValueError, match="K must be <= 63"):
            fg.face_log_prob(fg.GibbsFaceDistribution(np.zeros(64)), 1)

    def test_most_probable_face_is_an_int(self):
        d = fg.GibbsFaceDistribution(np.full(63, 1.0))
        got = fg.most_probable_face(d)
        assert type(got) is int and got == (1 << 63) - 1
        assert fg.face_log_prob(d, got) == max(fg.face_log_prob(d, [got, 1, 1 << 62]))
