import itertools

import numpy as np
import pytest
from scipy.special import digamma, expit, gammaln

from mixedrv import face_gibbs as fg
from mixedrv import glm
from mixedrv.mixed_dirichlet import MixedDirichlet, draw_log_coords, sample_many
from mixedrv.oracles import central_difference_gradient
from mixedrv.simplex import FaceBatch


def _pack(model):
    return np.concatenate([model.w_face.ravel(), model.b_face, model.w_conc.ravel(), model.b_conc])


def _unpack(v, K, d):
    i = 0
    w_face = v[i:i + K * d].reshape(K, d); i += K * d
    b_face = v[i:i + K]; i += K
    w_conc = v[i:i + K * d].reshape(K, d); i += K * d
    return glm.GlmModel(w_face, b_face, w_conc, v[i:i + K])


def _reference_log_likelihood(model, X, targets):
    """The likelihood and its gradient with one matrix product per map, each
    on that map's own (K, d) weights."""
    coords = targets.coords
    member = coords > 0.0
    on_dim = member.sum(axis=1) > 1
    phi = 2.0 * member - 1.0
    log_y = np.where(member, np.log(np.where(member, coords, 1.0)), 0.0)
    pre_f = X @ model.w_face.T + model.b_face
    scores = np.clip(pre_f, -glm.SCORE_CLAMP, glm.SCORE_CLAMP)
    pre_c = X @ model.w_conc.T + model.b_conc
    pre_cc = np.clip(pre_c, -glm.PRE_CLAMP, glm.PRE_CLAMP)
    soft = np.logaddexp(0.0, pre_cc)
    conc = np.clip(soft, glm.CONC_MIN, glm.CONC_MAX)
    log_z, expected_phi = fg.log_normalizer_and_grad(scores)
    alpha0 = np.where(member, conc, 0.0).sum(axis=1)
    ll_dir = np.where(on_dim, np.sum(np.where(member, (conc - 1.0) * log_y - gammaln(np.where(member, conc, 1.0)),
                                              0.0), axis=1) + gammaln(alpha0), 0.0)
    g_scores = (phi - expected_phi) * (np.abs(pre_f) < glm.SCORE_CLAMP).astype(float)
    gate_c = (np.abs(pre_c) < glm.PRE_CLAMP) & (soft > glm.CONC_MIN) & (soft < glm.CONC_MAX)
    g_conc = np.where(member & on_dim[:, None], log_y - digamma(conc) + digamma(alpha0)[:, None], 0.0) \
        * expit(pre_cc) * gate_c.astype(float)
    ll = float((np.sum(scores * phi, axis=1) - log_z).sum() + ll_dir.sum())
    return ll, {"w_face": g_scores.T @ X, "b_face": g_scores.sum(axis=0),
                "w_conc": g_conc.T @ X, "b_conc": g_conc.sum(axis=0)}


class TestLogLikelihood:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(100)
        for trial in range(10):
            K, d = int(rng.integers(3, 6)), int(rng.integers(2, 5))
            X, Y, _ = glm.make_planted_dataset(n=6, K=K, d=d, seed=trial)
            model = glm.GlmModel(
                rng.normal(0, 0.5, (K, d)), rng.normal(0, 0.5, K),
                rng.normal(0, 0.5, (K, d)), rng.normal(0, 0.5, K),
            )
            _, grads = glm.glm_log_likelihood(model, X, Y)
            analytic = np.concatenate(
                [grads["w_face"].ravel(), grads["b_face"], grads["w_conc"].ravel(), grads["b_conc"]]
            )
            fd = central_difference_gradient(
                lambda v: glm.glm_log_likelihood(_unpack(v, K, d), X, Y)[0], _pack(model), h=1e-5
            )
            np.testing.assert_allclose(analytic, fd, atol=1e-4)

    @pytest.mark.parametrize("K", [2, 6, 13])
    @pytest.mark.parametrize("d, n", [(1, 40), (4, 40), (9, 1), (9, 40)])
    def test_matches_per_map_reference(self, K, d, n):
        X, Y, _ = glm.make_planted_dataset(n=max(n, 2), K=K, d=d, seed=K * d)
        X, Y = X[:n], FaceBatch.from_coords(Y.coords[:n])
        model = _random_model(np.random.default_rng([109, K, d]), K, d, scale=3.0)
        ll, grads = glm.glm_log_likelihood(model, X, Y)
        ref_ll, ref_grads = _reference_log_likelihood(model, X, Y)
        assert ll == ref_ll
        for k, ref in ref_grads.items():
            assert np.array_equal(grads[k], ref), k

    def test_vertex_target_ignores_concentrations(self):
        X = np.array([[0.3, -0.2]])
        Y = FaceBatch.from_coords([[1.0, 0.0, 0.0]])
        m1 = glm.GlmModel(np.zeros((3, 2)), np.zeros(3), np.zeros((3, 2)), np.zeros(3))
        m2 = glm.GlmModel(np.zeros((3, 2)), np.zeros(3), np.ones((3, 2)), np.full(3, 2.0))
        ll1, g1 = glm.glm_log_likelihood(m1, X, Y)
        ll2, g2 = glm.glm_log_likelihood(m2, X, Y)
        assert ll1 == ll2
        assert np.all(g1["w_conc"] == 0.0) and np.all(g2["w_conc"] == 0.0)

    def test_fitted_beats_true_on_training_set(self):
        X, Y, true_model = glm.make_planted_dataset(n=120, K=4, d=3, seed=5)
        fit = glm.glm_fit(X, Y, seed=5)
        ll_fit, _ = glm.glm_log_likelihood(fit.model, X, Y)
        ll_true, _ = glm.glm_log_likelihood(true_model, X, Y)
        assert ll_fit >= ll_true

    def test_shape_validation(self):
        model = glm.GlmModel(np.zeros((3, 2)), np.zeros(3), np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            glm.glm_log_likelihood(model, np.zeros((2, 5)), FaceBatch.from_coords([[1.0, 0.0, 0.0]] * 2))


def _reference_fit(X, targets, steps, lr, seed):
    """The fit as one Adam per weight array, over the public likelihood:
    the same initial draws, and the same arithmetic per entry."""
    n, d = X.shape
    K = targets.K
    rng = np.random.default_rng(seed)
    params = {
        "w_face": rng.normal(0.0, 0.01, (K, d)),
        "b_face": rng.normal(0.0, 0.01, K),
        "w_conc": rng.normal(0.0, 0.01, (K, d)),
        "b_conc": rng.normal(0.0, 0.01, K),
    }
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    losses = []
    for t in range(1, steps + 1):
        ll, grads = glm.glm_log_likelihood(glm.GlmModel(**params), X, targets)
        losses.append(-ll / n)
        for k in params:
            g = -grads[k] / n
            m[k] = beta1 * m[k] + (1.0 - beta1) * g
            v[k] = beta2 * v[k] + (1.0 - beta2) * g * g
            m_hat = m[k] / (1.0 - beta1**t)
            v_hat = v[k] / (1.0 - beta2**t)
            params[k] = params[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, np.array(losses)


class TestFit:
    @pytest.mark.parametrize("K", [2, 6, 13])
    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("steps", [1, 57])
    def test_matches_per_array_reference(self, K, d, steps):
        X, Y, _ = glm.make_planted_dataset(n=40, K=K, d=d, seed=K + d)
        fit = glm.glm_fit(X, Y, steps=steps, seed=steps)
        params, losses = _reference_fit(X, Y, steps, 0.1, steps)
        for k, ref in params.items():
            assert np.array_equal(getattr(fit.model, k), ref), k
        assert np.array_equal(fit.losses, losses)

    def test_matches_per_array_reference_when_clamps_saturate(self):
        X, Y, _ = glm.make_planted_dataset(n=40, K=5, d=3, seed=12)
        X = 30.0 * X
        fit = glm.glm_fit(X, Y, steps=40, lr=1.0, seed=4)
        params, losses = _reference_fit(X, Y, 40, 1.0, 4)
        for k, ref in params.items():
            assert np.array_equal(getattr(fit.model, k), ref), k
        assert np.array_equal(fit.losses, losses)
        # both gates are closed on some entries at the fitted weights
        assert (np.abs(X @ params["w_face"].T + params["b_face"]) >= glm.SCORE_CLAMP).any()
        assert (np.abs(X @ params["w_conc"].T + params["b_conc"]) >= glm.PRE_CLAMP).any()

    def test_deterministic_given_seed(self):
        X, Y, _ = glm.make_planted_dataset(n=60, K=3, d=2, seed=9)
        a = glm.glm_fit(X, Y, seed=1)
        b = glm.glm_fit(X, Y, seed=1)
        np.testing.assert_array_equal(a.model.w_face, b.model.w_face)
        np.testing.assert_array_equal(a.losses, b.losses)

    def test_loss_non_increasing_late_in_training(self):
        ok = 0
        for seed in range(20):
            X, Y, _ = glm.make_planted_dataset(n=80, K=3, d=2, seed=seed)
            fit = glm.glm_fit(X, Y, seed=seed)
            if np.all(np.diff(fit.losses[-50:]) <= 1e-8):
                ok += 1
        assert ok >= 18

    def test_constant_vertex_targets(self):
        rng = np.random.default_rng(101)
        X = rng.normal(0, 1, (50, 3))
        Y = FaceBatch.from_coords([[0.0, 1.0, 0.0]] * 50)
        fit = glm.glm_fit(X, Y, seed=0)
        for x in list(X[:10]) + [rng.normal(0, 1, 3) for _ in range(5)]:
            assert fg.most_probable_face(fit.model.mixed_at(x).faces) == 0b010

    def test_target_face_is_the_support_of_its_coordinates(self):
        # the first row was drawn on face {1, 2, 3}, but its first coordinate underflowed to 0.0
        batch = FaceBatch.from_log_coords(np.array([0b111, 0b011]),
                                          np.array([[-800.0, np.log(0.25), np.log(0.75)],
                                                    [np.log(0.5), np.log(0.5), -np.inf]]))
        model = glm.GlmModel(np.ones((3, 2)), np.zeros(3), np.ones((3, 2)), np.zeros(3))
        X = np.array([[0.3, -0.2], [0.1, 0.4]])
        ll, grads = glm.glm_log_likelihood(model, X, batch)
        support = FaceBatch.from_coords(batch.coords)
        assert support.masks.tolist() == [0b110, 0b011]
        ll_support, grads_support = glm.glm_log_likelihood(model, X, support)
        assert ll == ll_support and np.isfinite(ll)
        for key in grads:
            np.testing.assert_array_equal(grads[key], grads_support[key])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            glm.glm_fit(np.zeros((0, 2)), FaceBatch(np.zeros(0, dtype=np.int64), np.zeros((0, 2))))


class TestPredict:
    def test_most_probable_mean_forced_face(self):
        model = glm.GlmModel(np.zeros((3, 2)), np.array([5.0, -5.0, -5.0]),
                             np.zeros((3, 2)), np.array([1.0, 2.0, 3.0]))
        p = glm.glm_predict(model, np.zeros(2), "most-probable-mean")
        assert p.coords.tolist() == [1.0, 0.0, 0.0]

    def test_all_positive_scores_full_support(self):
        model = glm.GlmModel(np.zeros((3, 2)), np.array([1.0, 2.0, 0.5]),
                             np.zeros((3, 2)), np.zeros(3))
        p = glm.glm_predict(model, np.zeros(2), "most-probable-mean")
        assert p.support.mask == 0b111

    def test_sample_mean_converges_to_mixture_mean(self):
        rng = np.random.default_rng(102)
        model = glm.GlmModel(rng.normal(0, 1, (4, 2)), rng.normal(0, 1, 4),
                             rng.normal(0, 0.5, (4, 2)), rng.normal(1, 0.5, 4))
        x = np.array([0.4, -0.9])
        dist = model.mixed_at(x)
        # exact mixture mean by enumerating faces
        mean = np.zeros(4)
        for f, prob in zip(*dist.exact_face_distribution()):
            on = (f >> np.arange(4)) & 1 == 1
            part = np.zeros(4)
            part[on] = dist.alpha[on] / dist.alpha[on].sum()
            mean += prob * part
        p = glm.glm_predict(model, x, "sample-mean", n=10**5, rng=np.random.default_rng(103))
        np.testing.assert_allclose(p.coords, mean, atol=0.01)

    def test_sample_mean_needs_rng(self):
        model = glm.GlmModel(np.zeros((2, 1)), np.zeros(2), np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            glm.glm_predict(model, [0.0], "sample-mean")


def _random_model(rng, K, d, scale=1.0):
    return glm.GlmModel(rng.normal(0, scale, (K, d)), rng.normal(0, scale, K),
                        rng.normal(0, scale, (K, d)), rng.normal(1, scale, K))


def _reference_draws(scores, conc, rng, fill):
    """Reference: one draw per row of (B, K) parameters from one generator,
    by the stream contract: B x K uniforms give the faces (row i under its
    own law's table), then ``fill`` (the Dirichlet step in raw numpy)."""
    u = rng.random(scores.shape)
    masks = np.concatenate([fg.masks_from_uniforms(u[i:i + 1], fg.GibbsFaceDistribution(s).take_probs)
                            for i, s in enumerate(scores)])
    return masks, fill(masks, conc, rng)


def _row_case(K, case, rows=30, seed=0):
    rng = np.random.default_rng([K, seed])
    scores = np.clip(rng.normal(0.0, 3.0, (rows, K)), -glm.SCORE_CLAMP, glm.SCORE_CLAMP)
    conc = np.exp(rng.uniform(np.log(glm.CONC_MIN), np.log(glm.CONC_MAX), (rows, K)))
    if case != "random":
        scores = rng.choice([-glm.SCORE_CLAMP, glm.SCORE_CLAMP], (rows, K))
        scores[:, 0] = glm.SCORE_CLAMP  # some faces with more than one vertex
    if case == "conc-min":
        conc = np.full((rows, K), glm.CONC_MIN)
    elif case == "conc-max":
        conc = np.full((rows, K), glm.CONC_MAX)
    return scores, conc


class TestRowBatchedSampling:
    """One block of draws over all rows, and the sample-mean blocks with one
    generator per row, bitwise against the stream contract in raw numpy."""

    CASES = ["random", "clamped", "conc-min", "conc-max"]

    @pytest.mark.parametrize("K", [2, 6, 13])
    @pytest.mark.parametrize("case", CASES)
    def test_shared_generator(self, K, case, log_space_fill):
        scores, conc = _row_case(K, case)
        a, b = np.random.default_rng(1), np.random.default_rng(1)
        masks, log_y = draw_log_coords(fg.sampling_tables(scores), conc, len(scores), a)
        ref_masks, ref_log_y = _reference_draws(scores, conc, b, log_space_fill)
        assert np.array_equal(masks, ref_masks) and np.array_equal(log_y, ref_log_y)
        assert a.random() == b.random()  # the same stream consumed

    @pytest.mark.parametrize("K", [2, 6, 13])
    @pytest.mark.parametrize("case", CASES)
    def test_per_row_generators(self, K, case, log_space_fill):
        scores, conc = _row_case(K, case, rows=8)
        blocks = list(glm._sample_blocks(scores, conc, 100, [np.random.default_rng([2, i]) for i in range(8)]))
        got = np.concatenate(blocks)
        assert got.shape == (8, 100, K)
        for i, (s, c) in enumerate(zip(scores, conc)):
            _, ref_log_y = _reference_draws(np.tile(s, (100, 1)), c, np.random.default_rng([2, i]), log_space_fill)
            assert np.array_equal(got[i], np.exp(ref_log_y))

    @pytest.mark.parametrize("K", [2, 6, 13])
    def test_no_ties_at_conc_min(self, K):
        # log-space Gammas do not underflow: at the smallest concentration
        # the on-face log-coordinates of a draw are still all distinct, while
        # many of its linear coordinates round to 0.0
        scores, conc = _row_case(K, "conc-min", rows=400)
        masks, log_y = draw_log_coords(fg.sampling_tables(scores), conc, 400, np.random.default_rng(3))
        on_face = [row[np.isfinite(row)] for row in log_y]
        assert sum(v.size > 1 for v in on_face) > 100
        assert all(np.unique(v).size == v.size for v in on_face)
        if K > 2:
            assert (np.exp(log_y) == 0.0)[np.isfinite(log_y)].any()

    def test_row_params_match_each_row_alone(self):
        rng = np.random.default_rng(104)
        for _ in range(20):
            K, d = int(rng.integers(2, 14)), int(rng.integers(1, 9))
            model = _random_model(rng, K, d, scale=float(rng.choice([0.5, 3.0, 30.0])))
            X = rng.normal(0.0, 2.0, (50, d))
            scores, conc = model.row_params(X)
            for x, s, c in zip(X, scores, conc):
                md = model.mixed_at(x)
                assert np.array_equal(md.faces.w, s) and np.array_equal(md.alpha, c)
                # the row alone, as a (1, d) product
                pre_f = x[None, :] @ model.w_face.T + model.b_face
                pre_c = np.clip(x[None, :] @ model.w_conc.T + model.b_conc, -glm.PRE_CLAMP, glm.PRE_CLAMP)
                assert np.array_equal(np.clip(pre_f[0], -glm.SCORE_CLAMP, glm.SCORE_CLAMP), s)
                assert np.array_equal(np.clip(np.logaddexp(0.0, pre_c[0]), glm.CONC_MIN, glm.CONC_MAX), c)

    def test_planted_dataset_is_one_block(self, log_space_fill):
        X, Y, true_model = glm.make_planted_dataset(n=200, K=6, d=4, seed=11)
        rng = np.random.default_rng(11)
        for shape in [(6, 4), 6, (6, 4), 6]:  # the planted weights
            rng.normal(size=shape)
        assert np.array_equal(rng.normal(0.0, 1.0, X.shape), X)
        _, ref_log_y = _reference_draws(*true_model.row_params(X), rng, log_space_fill)
        assert np.array_equal(Y.log_coords, ref_log_y) and np.array_equal(Y.coords, np.exp(ref_log_y))

    @pytest.mark.parametrize("rule", ["most-probable-mean", "sample-mean"])
    def test_predictions_match_per_row_reference(self, rule):
        rng = np.random.default_rng(105)
        model = _random_model(rng, 7, 3, scale=2.0)
        X = rng.normal(0.0, 1.0, (25, 3))
        batch = glm.predict_rows(model, X, rule, n=50, rngs=(np.random.default_rng([4, i]) for i in range(25)))
        for i, x in enumerate(X):
            md = model.mixed_at(x)
            if rule == "sample-mean":
                ref = sample_many(md, 50, np.random.default_rng([4, i])).coords.mean(axis=0)
            else:
                on = (fg.most_probable_face(md.faces) >> np.arange(7)) & 1 == 1
                ref = np.zeros(7)
                ref[on] = md.alpha[on] / md.alpha[on].sum()
            assert np.array_equal(batch.coords[i], ref)
            one = glm.glm_predict(model, x, rule, n=50, rng=np.random.default_rng([4, i]))
            assert np.array_equal(one.coords, ref)

    @pytest.mark.parametrize("K", [2, 13, 20])
    @pytest.mark.parametrize("B", [1, 16, 37])
    @pytest.mark.parametrize("n", [100, 1700])
    def test_sample_mean_blocks_match_per_row_reference(self, K, B, n):
        # 16 rows of 100 draws make one block, so B = 37 ends on a partial
        # block; 1700 draws make a block of one row.  Every row's mean is
        # its own draws' mean, whichever block the row falls in
        rng = np.random.default_rng([106, K, B])
        model = _random_model(rng, K, 3, scale=2.0)
        X = rng.normal(0.0, 1.0, (B, 3))
        rngs = [np.random.default_rng([5, i]) for i in range(B)]
        batch = glm.predict_rows(model, X, "sample-mean", n=n, rngs=iter(rngs))
        for i, x in enumerate(X):
            ref_rng = np.random.default_rng([5, i])
            ref = sample_many(model.mixed_at(x), n, ref_rng).coords.mean(axis=0)
            assert np.array_equal(batch.coords[i], ref)
            assert rngs[i].random() == ref_rng.random()  # each row's stream consumed alike

    def test_sample_mean_takes_one_generator_per_row(self):
        model = _random_model(np.random.default_rng(107), 3, 2)
        X = np.zeros((3, 2))
        rngs = [np.random.default_rng(i) for i in range(3)]
        with pytest.raises(ValueError, match="one generator per row"):
            glm.predict_rows(model, X, "sample-mean", rngs=rngs[:1])
        with pytest.raises(ValueError, match="one generator per row"):
            glm.predict_rows(model, X, "sample-mean", rngs=iter(rngs[:2]))
        # nothing was drawn from the generators that were given
        assert rngs[0].random() == np.random.default_rng(0).random()
        assert rngs[1].random() == np.random.default_rng(1).random()
        # a longer iterable gives the first B generators; the rest are left as they were
        rest = iter([np.random.default_rng(10 + i) for i in range(5)])
        glm.predict_rows(model, X, "sample-mean", rngs=rest)
        assert next(rest).random() == np.random.default_rng(13).random()

    def test_sample_mean_rejects_a_shared_generator(self):
        model = _random_model(np.random.default_rng(108), 3, 2)
        shared = np.random.default_rng(0)
        for rngs in ([shared] * 3, [np.random.default_rng(1), shared, shared]):
            with pytest.raises(ValueError, match="distinct generator"):
                glm.predict_rows(model, np.zeros((3, 2)), "sample-mean", rngs=rngs)
        assert shared.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("rule", ["most-probable-mean", "sample-mean"])
    def test_rejects_nan_predictors(self, rule):
        model = glm.GlmModel(np.ones((3, 2)), np.zeros(3), np.zeros((3, 2)), np.zeros(3))
        X = np.array([[0.5, 0.1], [np.inf, 0.0]])  # inf * 0 = NaN in the concentrations only
        with pytest.raises(ValueError, match="non-finite"), np.errstate(invalid="ignore"):
            glm.predict_rows(model, X, rule, rngs=itertools.repeat(np.random.default_rng(0)))

    def test_rejects_bad_concentrations(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="concentrations"):
                next(glm._sample_blocks(np.zeros((1, 3)), np.array([[1.0, bad, 1.0]]), 1,
                                        [np.random.default_rng(0)]))

    def test_rejects_unknown_rule(self):
        model = _random_model(np.random.default_rng(106), 3, 2)
        with pytest.raises(ValueError, match="unknown prediction rule"):
            glm.predict_rows(model, np.zeros((2, 2)), "median")


class TestMetrics:
    def test_rmse_definition(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([[0.5, 0.5], [1.0, 0.0]])
        assert glm.rmse(a, b) == pytest.approx(np.sqrt(0.125))
        assert glm.mae(a, b) == pytest.approx(0.25)

    def test_macro_f1_perfect(self):
        y = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0]])
        assert glm.zero_nonzero_macro_f1(y, y) == 1.0

    def test_macro_f1_balanced_classes(self):
        y_true = np.array([[0.0, 1.0]])
        y_pred = np.array([[0.6, 0.4]])  # predicts nonzero for the zero entry
        f1 = glm.zero_nonzero_macro_f1(y_true, y_pred)
        assert 0.0 <= f1 < 1.0


class TestPlantedRecovery:
    def test_macro_f1_and_rmse_rule_comparison(self):
        # single-seed version of the acceptance sweep
        X, Y, _ = glm.make_planted_dataset(n=500, K=5, d=4, seed=0)
        rs = np.random.default_rng(0)
        idx = rs.permutation(500)
        tr, te = idx[:100], idx[100:]
        fit = glm.glm_fit(X[tr], FaceBatch.from_coords(Y.coords[tr]), seed=0)
        y_true = Y.coords[te]
        mpm = glm.predict_rows(fit.model, X[te], "most-probable-mean").coords
        assert glm.zero_nonzero_macro_f1(y_true, mpm) > 0.9

    def test_model_json_roundtrip(self):
        _, _, model = glm.make_planted_dataset(n=2, K=3, d=2, seed=3)
        again = glm.GlmModel.from_json_dict(model.to_json_dict())
        np.testing.assert_array_equal(model.w_face, again.w_face)
        np.testing.assert_array_equal(model.b_conc, again.b_conc)
