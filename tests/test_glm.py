import json
import tracemalloc
import warnings

import numpy as np
import pytest

from mixedrv import face_gibbs as fg
from mixedrv import glm
from mixedrv.mixed_dirichlet import MixedDirichlet, draw_log_coords
from mixedrv.oracles import central_difference_gradient, glm_log_likelihood_reference
from mixedrv.simplex import FaceBatch, mask_members


def _pack(model):
    return np.concatenate([model.w_face.ravel(), model.b_face, model.w_conc.ravel(), model.b_conc])


def _unpack(v, K, d):
    i = 0
    w_face = v[i:i + K * d].reshape(K, d); i += K * d
    b_face = v[i:i + K]; i += K
    w_conc = v[i:i + K * d].reshape(K, d); i += K * d
    return glm.GlmModel(w_face, b_face, w_conc, v[i:i + K])


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
        ref_ll, ref_grads = glm_log_likelihood_reference(model, X, Y)
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
    """The fit as one Adam per weight array, over the dense reference
    likelihood: the same initial draws, and the same arithmetic per entry."""
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
        ll, grads = glm_log_likelihood_reference(glm.GlmModel(**params), X, targets)
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
            scores, conc = fit.model.row_params(x[None])
            assert fg.most_probable_face(MixedDirichlet(scores[0], conc[0]).faces) == 0b010

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


def _layout_targets(layout, n, K, seed):
    """(X, targets) whose target faces take one layout: ``vertices`` (no row
    has a Dirichlet term), ``full`` (every row on the full face) or
    ``planted`` (planted data: vertices, edges and larger faces mixed)."""
    rng = np.random.default_rng([110, n, K, seed])
    if layout == "planted":
        X, Y, _ = glm.make_planted_dataset(n=max(n, 2), K=K, d=3, seed=seed)
        return X[:n], FaceBatch.from_coords(Y.coords[:n])
    if layout == "vertices":
        coords = np.eye(K)[rng.integers(0, K, n)]
    else:
        coords = rng.dirichlet(np.ones(K), n)
    return rng.normal(0.0, 1.0, (n, 3)), FaceBatch.from_coords(coords)


class TestKernelLayouts:
    """The per-fit kernel bitwise against the dense reference on the target
    layouts its compaction to the Dirichlet entries could get wrong."""

    LAYOUTS = [("vertices", 30, 5), ("vertices", 1, 4), ("full", 30, 5), ("full", 1, 4), ("full", 20, 13),
               ("planted", 1, 6), ("planted", 40, 2), ("planted", 40, 13)]

    @pytest.mark.parametrize("layout, n, K", LAYOUTS)
    def test_likelihood(self, layout, n, K):
        X, Y = _layout_targets(layout, n, K, seed=1)
        for scale in (0.5, 3.0):  # at scale 3 some clamps saturate
            model = _random_model(np.random.default_rng([111, K]), K, 3, scale=scale)
            ll, grads = glm.glm_log_likelihood(model, X, Y)
            ref_ll, ref_grads = glm_log_likelihood_reference(model, X, Y)
            assert ll == ref_ll
            for k, ref in ref_grads.items():
                assert np.array_equal(grads[k], ref), k

    @pytest.mark.parametrize("layout, n, K", LAYOUTS)
    def test_fit(self, layout, n, K):
        X, Y = _layout_targets(layout, n, K, seed=2)
        fit = glm.glm_fit(X, Y, steps=25, lr=0.5, seed=3)
        params, losses = _reference_fit(X, Y, 25, 0.5, 3)
        for k, ref in params.items():
            assert np.array_equal(getattr(fit.model, k), ref), k
        assert np.array_equal(fit.losses, losses)

    def test_layouts_are_what_they_say(self):
        sizes = {(layout, K): (_layout_targets(layout, n, K, seed=1)[1].coords > 0.0).sum(axis=1)
                 for layout, n, K in self.LAYOUTS}
        assert (sizes["vertices", 5] == 1).all() and (sizes["full", 13] == 13).all()
        assert set(sizes["planted", 2]) == {1, 2}
        assert (sizes["planted", 13] >= 8).any() and (sizes["planted", 13] < 8).any()


class TestNonFinitePredictors:
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejected_before_any_arithmetic(self, value):
        X, Y, model = glm.make_planted_dataset(20, 4, 3, seed=1)
        X[3, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="X must be finite"):
                glm.glm_log_likelihood(model, X, Y)
            with pytest.raises(ValueError, match="X must be finite"):
                glm.glm_fit(X, Y, steps=5)

    def test_nan_face_scores_raise(self):
        # a model's weights are finite (see TestNonFiniteWeights), but the
        # kernel runs on glm_fit's flat weights, which it checks through the
        # face scores: a NaN weight gives NaN scores
        X, Y, _ = glm.make_planted_dataset(20, 4, 3, seed=1)
        theta = np.zeros(2 * 4 * (3 + 1))
        theta[0] = np.nan  # w_face[0, 0]
        with pytest.raises(ValueError, match="non-finite face scores"):
            glm._likelihood_kernel(X, Y, theta, np.empty_like(theta))()


class TestOverflowingProducts:
    """Finite predictors whose products with finite weights overflow: the
    per-row parameters, the predictions and the likelihood kernel all raise
    ValueError, and no RuntimeWarning comes first.  The clamps would turn
    +-inf or NaN into a bound whose sign depends on numpy's matmul kernel."""

    @pytest.mark.parametrize("which", ["face", "conc"])
    def test_every_path_raises(self, which):
        X, Y, _ = glm.make_planted_dataset(20, 4, 2, seed=1)
        X[0] = [1e308, -1e308]
        weights = {"w_face": np.zeros((4, 2)), "b_face": np.zeros(4), "w_conc": np.zeros((4, 2)),
                   "b_conc": np.zeros(4)}
        weights[f"w_{which}"][:] = 10.0
        model = glm.GlmModel(**weights)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                model.row_params(X)
            for rule in ("most-probable-mean", "sample-mean"):
                with pytest.raises(ValueError, match="non-finite"):
                    glm.predict_rows(model, X, rule, rng=np.random.default_rng(0))
            with pytest.raises(ValueError, match="non-finite"):
                glm.glm_log_likelihood(model, X, Y)

    def test_finite_products_beyond_the_clamps_pass(self):
        X, Y, _ = glm.make_planted_dataset(20, 4, 2, seed=1)
        X[0] = [1e308, 0.0]
        model = glm.GlmModel(np.full((4, 2), 1.0), np.zeros(4), np.full((4, 2), 1.0), np.zeros(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores, conc = model.row_params(X)
            assert np.isfinite(glm.glm_log_likelihood(model, X, Y)[0])
        assert (scores[0] == glm.SCORE_CLAMP).all() and (conc[0] == np.logaddexp(0.0, glm.PRE_CLAMP)).all()


class TestNonFiniteWeights:
    """A non-finite weight is rejected when the model is built: the clamps
    would otherwise hide it (an infinite face weight gives scores of +/-10
    and a finite likelihood)."""

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["w_face", "b_face", "w_conc", "b_conc"])
    def test_model_rejects(self, name, value):
        _, _, model = glm.make_planted_dataset(20, 4, 3, seed=1)
        weights = {k: getattr(model, k).copy() for k in ("w_face", "b_face", "w_conc", "b_conc")}
        weights[name].flat[0] = value
        with pytest.raises(ValueError, match="weights must be finite"):
            glm.GlmModel(**weights)

    def test_model_file_rejects_infinity(self):
        _, _, model = glm.make_planted_dataset(20, 4, 3, seed=1)
        obj = model.to_json_dict()
        obj["w_face"][0][0] = float("inf")
        text = json.dumps(obj)
        assert "Infinity" in text  # Python's json writes and reads it
        with pytest.raises(ValueError, match="weights must be finite"):
            glm.GlmModel.from_json_dict(json.loads(text))


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
        scores, conc = model.row_params(x[None])
        dist = MixedDirichlet(scores[0], conc[0])
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
    own law's table, built once per run of equal rows), then ``fill`` (the
    Dirichlet step in raw numpy)."""
    u = rng.random(scores.shape)
    starts = [i for i in range(len(scores)) if i == 0 or not np.array_equal(scores[i], scores[i - 1])]
    masks = np.concatenate([fg.masks_from_uniforms(u[lo:hi], fg.GibbsFaceDistribution(scores[lo]).take_probs)
                            for lo, hi in zip(starts, starts[1:] + [len(scores)])])
    return masks, fill(masks, conc, rng)


def _face_means(member, alpha):
    """Each row's face's Dirichlet mean ``alpha_F / alpha0_F`` (0 off F)."""
    a = np.where(member, alpha, 0.0)
    return a / a.sum(axis=1, keepdims=True)


def _sample_mean_reference(scores, conc, n, rng):
    """Reference ``sample-mean``, row by row from one generator: n faces of
    each row by the stream contract (``fg.sample_face_masks`` under the
    row's own law), then the mean of their Dirichlet means.  Blocks of rows
    take the same uniforms, as these rows one after another do."""
    K = scores.shape[1]
    return np.array([_face_means(mask_members(fg.sample_face_masks(fg.GibbsFaceDistribution(s), n, rng), K), c)
                     .mean(axis=0) for s, c in zip(scores, conc)])


def _row_case(K, case, rows=30, seed=0):
    rng = np.random.default_rng([K, seed])
    scores = np.clip(rng.normal(0.0, 3.0, (rows, K)), -glm.SCORE_CLAMP, glm.SCORE_CLAMP)
    conc = np.exp(rng.uniform(np.log(glm.CONC_MIN), np.log(1e3), (rows, K)))
    if case != "random":
        scores = rng.choice([-glm.SCORE_CLAMP, glm.SCORE_CLAMP], (rows, K))
        scores[:, 0] = glm.SCORE_CLAMP  # some faces with more than one vertex
    if case == "conc-min":
        conc = np.full((rows, K), glm.CONC_MIN)
    elif case == "conc-max":
        conc = np.full((rows, K), 1e3)
    return scores, conc


class TestRowBatchedSampling:
    """One block of draws over all rows, and the sample-mean blocks from one
    generator, bitwise against the stream contract in raw numpy."""

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
                alone_s, alone_c = model.row_params(x[None])
                assert np.array_equal(alone_s[0], s) and np.array_equal(alone_c[0], c)
                # the row alone, as a (1, d) product
                pre_f = x[None, :] @ model.w_face.T + model.b_face
                pre_c = np.clip(x[None, :] @ model.w_conc.T + model.b_conc, -glm.PRE_CLAMP, glm.PRE_CLAMP)
                assert np.array_equal(np.clip(pre_f[0], -glm.SCORE_CLAMP, glm.SCORE_CLAMP), s)
                assert np.array_equal(np.maximum(np.logaddexp(0.0, pre_c[0]), glm.CONC_MIN), c)

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
        batch = glm.predict_rows(model, X, rule, n=50, rng=np.random.default_rng(4))
        if rule == "sample-mean":
            ref = _sample_mean_reference(*model.row_params(X), 50, np.random.default_rng(4))
            assert np.array_equal(batch.coords, ref)
        for i, x in enumerate(X):
            scores, conc = model.row_params(x[None])
            md = MixedDirichlet(scores[0], conc[0])
            if rule == "sample-mean":
                # one row is one block: its n faces are sample_face_masks'
                masks = fg.sample_face_masks(md.faces, 50, np.random.default_rng([4, i]))
                ref = _face_means(mask_members(masks, 7), md.alpha).mean(axis=0)
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
        # bitwise the row-by-row reference.  8 rows of 100 draws make one
        # block, so B = 16 is two whole blocks and B = 37 ends on a partial
        # block; 1700 draws make a block of one row
        rng = np.random.default_rng([106, K, B])
        model = _random_model(rng, K, 3, scale=2.0)
        X = rng.normal(0.0, 1.0, (B, 3))
        got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        batch = glm.predict_rows(model, X, "sample-mean", n=n, rng=got_rng)
        ref = _sample_mean_reference(*model.row_params(X), n, ref_rng)
        assert np.array_equal(batch.coords, ref)
        assert got_rng.random() == ref_rng.random()  # the stream left where the reference leaves it

    @pytest.mark.parametrize("n", [0, -1])
    def test_sample_mean_rejects_too_few_draws(self, n):
        model = _random_model(np.random.default_rng(107), 3, 2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            glm.predict_rows(model, np.zeros((3, 2)), "sample-mean", n=n, rng=rng)
        assert rng.random() == np.random.default_rng(0).random()  # nothing drawn

    def test_sample_mean_memory_is_bounded_by_the_blocks(self):
        """Blocks of rows bound the memory: 2,000 rows of 100 draws at K = 6
        hold far less at once than one pass over all the draws would."""
        model = _random_model(np.random.default_rng(108), 6, 3)
        X = np.random.default_rng(109).normal(0.0, 1.0, (2000, 3))
        tracemalloc.start()
        try:
            glm.predict_rows(model, X, "sample-mean", n=100, rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one pass over all rows would hold the uniforms alone, a float64
        # (B, n, K) array of 9.6 MB; the blocks hold 800 draws at a time,
        # and what grows with B is only the per-row parameters and tables
        draws = 2000 * 100 * 6 * 8  # one float64 (B, n, K) array: 9.6 MB
        assert peak < draws / 4

    @pytest.mark.parametrize("rule", ["most-probable-mean", "sample-mean"])
    def test_rejects_nan_predictors(self, rule):
        model = glm.GlmModel(np.ones((3, 2)), np.zeros(3), np.zeros((3, 2)), np.zeros(3))
        X = np.array([[0.5, 0.1], [np.inf, 0.0]])  # inf * 0 = NaN in the concentrations only
        with pytest.raises(ValueError, match="non-finite"), np.errstate(invalid="ignore"):
            glm.predict_rows(model, X, rule, rng=np.random.default_rng(0))

    def test_rejects_unknown_rule(self):
        model = _random_model(np.random.default_rng(106), 3, 2)
        with pytest.raises(ValueError, match="unknown prediction rule"):
            glm.predict_rows(model, np.zeros((2, 2)), "median")


def _most_probable_mean_reference(scores, conc):
    """``most-probable-mean`` one row at a time: the Dirichlet mean on each
    row's argmax face, normalized by the 1-D sum of its concentrations."""
    preds = np.zeros_like(conc)
    for i, (s, c) in enumerate(zip(scores, conc)):
        idx = np.flatnonzero(fg.most_probable_members(s))
        a = c[idx]
        preds[i, idx] = a / a.sum()
    return preds


class TestMostProbableMean:
    """The batched rule against the per-row one, bitwise.  A face of 8 or
    more vertices sums its concentrations pairwise, so each face size is
    gathered into a C-contiguous block whose row sums are the 1-D sums."""

    @pytest.mark.parametrize("K", [2, 3, 5, 7, 8, 9, 16, 17, 28, 40])
    def test_bitwise_equal_to_the_row_loop(self, K):
        # face scores are the predictors (identity weights, zero bias), so
        # the rows hold exact ties and zeros; positive shares vary per row
        rng = np.random.default_rng(4100 + K)
        rows = 500
        share = rng.uniform(0.0, 1.0, (rows, 1))
        X = np.where(rng.random((rows, K)) < share, rng.uniform(0.0, 3.0, (rows, K)),
                     -rng.integers(0, 3, (rows, K)) * rng.choice([0.5, 1.0], (rows, K)))
        X[:20] = -1.0  # ties: the lowest index is the argmax
        X[20:30] = 0.0  # zero scores count as "exclude"
        model = glm.GlmModel(np.eye(K), np.zeros(K), rng.normal(0.0, 2.0, (K, K)), rng.normal(1.0, 1.0, K))
        scores, conc = model.row_params(X)
        want = _most_probable_mean_reference(scores, conc)
        got = glm.predict_rows(model, X, "most-probable-mean").coords
        assert got.tobytes() == want.tobytes()
        assert ((got > 0).sum(axis=1) >= 8).any() or K < 8  # pairwise sums are reached

    def test_one_row(self):
        model = glm.GlmModel(np.eye(3), np.zeros(3), np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]))
        p = glm.predict_rows(model, np.array([[0.0, -1.0, -1.0]]), "most-probable-mean")
        assert p.coords.tolist() == [[1.0, 0.0, 0.0]]

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
