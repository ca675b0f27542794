"""Regression with simplex-valued targets under a mixed likelihood.

Two linear maps take a predictor vector to (a) K face scores, clamped to
[-10, 10], which parametrize the Gibbs face distribution, and (b) K
concentration pre-activations, clamped to [-10, 10] before a softplus whose
output is clamped below at 1e-3, so concentrations lie in [1e-3,
softplus(10)] = [1e-3, 10.000045398899218].  Targets may sit on any face of
the simplex (sparse targets need no preprocessing), and the likelihood of a
target is its mixed log-density at the predicted parameters.

Fitting is full-batch gradient ascent with adaptive per-parameter moments
(Adam), learning rate 0.1, for exactly 400 steps by default.  Both linear
maps carry a bias term; predictors are used as-is (no standardization) and
must be finite, and so must their products with the weights: a product that
overflows raises ValueError rather than reach a clamp.

The likelihood and its gradient run on one kernel per fit
(``_likelihood_kernel``), bound to the flat weights and gradient, which
computes what depends on the targets alone once: the +/-1 face statistics,
the Dirichlet entries (the face's vertices on rows whose face has two or
more vertices) and their log-coordinates.  Each step works on stacked
(2, n, K) buffers of both maps allocated once per fit, takes the face law's
log Z and expected statistics from ``face_gibbs._log_z_and_grad``, and runs
the concentration half on the Dirichlet entries only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import face_gibbs
from .mixed_dirichlet import draw_log_coords
from .simplex import FaceBatch, SimplexPoint

__all__ = [
    "SCORE_CLAMP",
    "PRE_CLAMP",
    "CONC_MIN",
    "GlmModel",
    "FitResult",
    "glm_log_likelihood",
    "glm_fit",
    "glm_predict",
    "predict_rows",
    "make_planted_dataset",
    "rmse",
    "mae",
    "zero_nonzero_macro_f1",
]

SCORE_CLAMP = 10.0
PRE_CLAMP = 10.0
CONC_MIN = 1e-3

#: Message of the ValueError raised where a row's products with the weights
#: overflow: the clamps would otherwise turn +-inf, or NaN, into a bound.
_NON_FINITE = "predictors and weights give non-finite face scores or concentration pre-activations"


@dataclass(frozen=True, eq=False)
class GlmModel:
    """Weights of the two linear maps (with biases), all finite."""

    w_face: np.ndarray  # (K, d)
    b_face: np.ndarray  # (K,)
    w_conc: np.ndarray  # (K, d)
    b_conc: np.ndarray  # (K,)

    def __init__(self, w_face, b_face, w_conc, b_conc):
        w_face = np.array(w_face, dtype=float)
        b_face = np.array(b_face, dtype=float)
        w_conc = np.array(w_conc, dtype=float)
        b_conc = np.array(b_conc, dtype=float)
        if w_face.ndim != 2 or w_conc.shape != w_face.shape:
            raise ValueError("weight matrices must be (K, d) and equal in shape")
        if b_face.shape != (w_face.shape[0],) or b_conc.shape != b_face.shape:
            raise ValueError("biases must have shape (K,)")
        for a in (w_face, b_face, w_conc, b_conc):
            if not np.isfinite(a).all():
                raise ValueError("weights must be finite")
            a.flags.writeable = False
        object.__setattr__(self, "w_face", w_face)
        object.__setattr__(self, "b_face", b_face)
        object.__setattr__(self, "w_conc", w_conc)
        object.__setattr__(self, "b_conc", b_conc)

    @property
    def K(self) -> int:
        return self.w_face.shape[0]

    @property
    def d(self) -> int:
        return self.w_face.shape[1]

    def row_params(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Face scores and concentrations (n, K) at the rows of X (n, d).

        Each row is its own (1, d) @ (d, K) product (a stacked matmul), so
        its parameters are bitwise those of the row alone: a plain
        ``X @ W.T`` rounds the last bit differently for most rows.
        """
        rows = np.asarray(X, dtype=float)[:, None, :]
        with np.errstate(over="ignore", invalid="ignore"):  # a product that overflows is reported below
            pre_f = (rows @ self.w_face.T)[:, 0] + self.b_face
            pre_c = (rows @ self.w_conc.T)[:, 0] + self.b_conc
        if not (np.isfinite(pre_f).all() and np.isfinite(pre_c).all()):
            raise ValueError(_NON_FINITE)
        scores = np.clip(pre_f, -SCORE_CLAMP, SCORE_CLAMP)
        conc = np.maximum(np.logaddexp(0.0, np.clip(pre_c, -PRE_CLAMP, PRE_CLAMP)), CONC_MIN)
        return scores, conc

    def to_json_dict(self) -> dict:
        return {
            "k": self.K,
            "d": self.d,
            "w_face": self.w_face.tolist(),
            "b_face": self.b_face.tolist(),
            "w_conc": self.w_conc.tolist(),
            "b_conc": self.b_conc.tolist(),
            "score_clamp": [-SCORE_CLAMP, SCORE_CLAMP],
            "pre_clamp": [-PRE_CLAMP, PRE_CLAMP],
            "conc_clamp": [CONC_MIN, float(np.logaddexp(0.0, PRE_CLAMP))],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GlmModel":
        """The model of a ``fit-glm --out`` file (``to_json_dict``'s layout)."""
        return cls(obj["w_face"], obj["b_face"], obj["w_conc"], obj["b_conc"])


class FitResult(NamedTuple):
    model: GlmModel
    losses: np.ndarray  # mean negative log-likelihood per step


def glm_log_likelihood(model: GlmModel, X, targets: FaceBatch) -> tuple[float, dict[str, np.ndarray]]:
    """Total log-likelihood of the targets (one row per row of X) and its
    analytic gradient.

    The gradient treats the clamps as pass-through inside their range and
    zero outside (their almost-everywhere derivative).  Vertex targets
    contribute no concentration gradient: the counting-measure part of the
    density has no concentration dependence.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise ValueError(f"X must be (n, {model.d})")
    if len(targets) != X.shape[0]:
        raise ValueError("one target per row required")
    K = model.K
    if targets.K != K:
        raise ValueError(f"targets must have K={K}")
    theta = np.concatenate([model.w_face.ravel(), model.w_conc.ravel(), model.b_face, model.b_conc])
    grad = np.empty_like(theta)
    kernel = _likelihood_kernel(X, targets, theta, grad)
    with np.errstate(over="ignore", invalid="ignore"):  # the kernel raises where a product overflows
        ll = kernel()
    g_w, g_b = _split_flat(grad, K, model.d)
    return ll, {"w_face": g_w[:K], "b_face": g_b[:K], "w_conc": g_w[K:], "b_conc": g_b[K:]}


def _split_flat(theta: np.ndarray, K: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Views W (2K, d) and b (2K,) of a flat vector laid out ``[W | b]``:
    rows 0..K-1 the face map, rows K..2K-1 the concentration map."""
    return theta[:2 * K * d].reshape(2 * K, d), theta[2 * K * d:]


def _likelihood_kernel(X: np.ndarray, targets: FaceBatch, theta: np.ndarray, grad: np.ndarray):
    """The log-likelihood of the targets (one row per row of X, both
    validated) as ``kernel() -> float``, a function of the flat weights
    ``theta`` (see ``_split_flat``) that writes the gradient into ``grad``,
    laid out like ``theta``.  Both are the caller's arrays, read and written
    in place at every call.

    A target's face is the support of its coordinates.  What depends on the
    targets alone is computed here, once: the +/-1 statistics, the flat
    indices of the Dirichlet entries (the face's vertices, on rows whose face
    has two or more vertices: vertex targets have no Dirichlet term) and
    their log-coordinates.  So are the stacked views of ``theta`` and
    ``grad`` and the buffers of every call: the pre-activations, clamped
    values, in-range gates and gradients of both maps are (2, n, K) arrays,
    index 0 the face map and 1 the concentration map, clamped and gated in
    one pass each against the bounds ``[SCORE_CLAMP, PRE_CLAMP]``.  The face
    law's log Z and expected statistics come from
    ``face_gibbs._log_z_and_grad``.  The softplus, floor, ``expit``,
    ``gammaln`` and ``digamma`` run on the Dirichlet entries only (the last
    two once each, on the entries and their row sums together); their
    results are scattered into zero-filled (n, K) buffers before every row
    or column sum, so each sum runs over the same (n, K) layout as a dense
    pass would, in numpy's order.

    The pre-activations and the weight gradient are each one stacked
    matmul, a batch of the two maps' (n, d) @ (d, K) or (K, n) @ (n, d)
    products: one (n, 2K) or (2K, n) product rounds differently from the two
    per-map ones for some shapes (d = 1, or one row with d >= 8).

    A face score or concentration pre-activation that is not finite (a
    product that overflows) raises ValueError.  Callers run the kernel under
    ``np.errstate(over="ignore", invalid="ignore")``, so that numpy's
    overflow warning does not come first; ``glm_fit`` enters it once per
    fit, not once per step.
    """
    from scipy.special import digamma, expit, gammaln

    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    d = X.shape[1]
    coords = targets.coords
    n, K = coords.shape
    member = coords > 0.0
    phi = 2.0 * member - 1.0
    on_dim = member.sum(axis=1) > 1
    on = np.flatnonzero(member & on_dim[:, None])  # the Dirichlet entries of the flat (n, K) arrays
    on_rows = np.flatnonzero(on_dim)
    entry_row = np.searchsorted(on_rows, on // K)  # each Dirichlet entry's row, as an index into on_rows
    log_y = np.log(coords.ravel()[on])

    W, b = _split_flat(theta, K, d)
    W = W.reshape(2, K, d).transpose(0, 2, 1)
    b = b.reshape(2, 1, K)
    g_W, g_b = _split_flat(grad, K, d)
    g_W, g_b = g_W.reshape(2, K, d), g_b.reshape(2, K)
    bounds = np.array([SCORE_CLAMP, PRE_CLAMP]).reshape(2, 1, 1)
    neg_bounds = -bounds
    pre, clamped, g = np.zeros((3, 2, n, K))  # g[1] is zero off the Dirichlet entries, at every step
    g_T = g.transpose(0, 2, 1)
    in_range = np.empty((2, n, K), dtype=bool)
    alpha, dir_terms = np.zeros((2, n, K))  # zero off the Dirichlet entries, at every step
    alpha_flat, dir_flat, g_conc_flat = alpha.ravel(), dir_terms.ravel(), g[1].ravel()
    m = on.size
    conc_sums = np.empty(m + on_rows.size)  # the entries' concentrations, then their rows' sums
    conc, alpha0 = conc_sums[:m], conc_sums[m:]

    def kernel() -> float:
        np.matmul(X, W, out=pre)
        np.add(pre, b, out=pre)
        if not np.isfinite(pre).all():
            raise ValueError(_NON_FINITE)
        np.abs(pre, out=clamped)
        np.less(clamped, bounds, out=in_range)
        np.maximum(pre, neg_bounds, out=clamped)
        np.minimum(clamped, bounds, out=clamped)

        scores = clamped[0]
        log_z, expected_phi = face_gibbs._log_z_and_grad(scores)
        ll_face = np.add.reduce(scores * phi, axis=1) - log_z
        np.subtract(phi, expected_phi, out=g[0])
        g[0] *= in_range[0]

        pre_cc = clamped[1].take(on)
        soft = np.logaddexp(0.0, pre_cc)
        np.maximum(soft, CONC_MIN, out=conc)
        alpha_flat[on] = conc
        np.add.reduce(alpha, axis=1).take(on_rows, out=alpha0)
        lg_sums, dg_sums = gammaln(conc_sums), digamma(conc_sums)
        dir_flat[on] = (conc - 1.0) * log_y - lg_sums[:m]
        ll_dir = np.add.reduce(dir_terms, axis=1)
        ll_dir[on_rows] += lg_sums[m:]
        gate_c = in_range[1].take(on) & (soft > CONC_MIN)
        g_conc_flat[on] = (log_y - dg_sums[:m] + dg_sums[m:].take(entry_row)) * expit(pre_cc) * gate_c

        np.matmul(g_T, X, out=g_W)
        np.add.reduce(g, axis=1, out=g_b)
        return float(np.add.reduce(ll_face) + np.add.reduce(ll_dir))

    return kernel


def glm_fit(X, targets: FaceBatch, steps: int = 400, lr: float = 0.1, seed: int = 0) -> FitResult:
    """Fit by full-batch Adam on the mean negative log-likelihood of the
    targets (one row per row of X).

    All weights live in one flat vector laid out ``[W (2K, d) | b (2K)]``,
    rows 0..K-1 of W and entries 0..K-1 of b the face map and the rest the
    concentration map, so each step is one pass of the likelihood kernel
    (built once per fit on that vector and its gradient, see
    ``_likelihood_kernel``) and one elementwise Adam update in preallocated
    buffers: both moments are rows of one (2, P) array, updated together
    with their rates and bias corrections as (2, 1) columns.  Deterministic
    given the seed, which only controls the small random initialization of
    the weights (drawn face weights, face biases, concentration weights,
    concentration biases, in that order).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a nonempty (n, d) array")
    n, d = X.shape
    if len(targets) != n:
        raise ValueError("one target per row required")
    K = targets.K
    theta = np.empty(2 * K * (d + 1))
    grad = np.zeros_like(theta)
    kernel = _likelihood_kernel(X, targets, theta, grad)
    rng = np.random.default_rng(seed)
    W, b = _split_flat(theta, K, d)
    W[:K] = rng.normal(0.0, 0.01, (K, d))
    b[:K] = rng.normal(0.0, 0.01, K)
    W[K:] = rng.normal(0.0, 0.01, (K, d))
    b[K:] = rng.normal(0.0, 0.01, K)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    betas = np.array([[beta1], [beta2]])
    rates = 1.0 - betas
    corrections = np.array([[[1.0 - beta1**t], [1.0 - beta2**t]] for t in range(1, steps + 1)])
    g = np.zeros_like(theta)
    moments, step = np.zeros((2, 2, theta.size))  # rows: first and second moment
    step_m, step_v = step
    losses = np.empty(steps)
    # the kernel raises where a product overflows; weights that an update
    # made non-finite raise there too, at the next step or in GlmModel
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            losses[t] = -kernel() / n
            np.divide(grad, -n, out=g)
            moments *= betas
            np.multiply(rates, g, out=step)
            step_v *= g
            moments += step
            np.divide(moments, corrections[t], out=step)
            step_m *= lr
            np.sqrt(step_v, out=step_v)
            step_v += eps
            step_m /= step_v
            theta -= step_m
    return FitResult(GlmModel(W[:K], b[:K], W[K:], b[K:]), losses)


#: Draws made in one sample-mean block: 8 rows of the CLI's 100 draws.  The
#: block's temporaries, the repeated sampling tables among them, take about
#: 60 bytes per draw and vertex, so a block holds about 290 KB at K = 6
#: however many rows are predicted (a 96-row prediction peaks at 365 KB
#: under tracemalloc); one pass over all rows would hold B x n x K x 60
#: bytes (71 MB for 2,000 rows).  At K = 6 on a 2-core x86-64 host (the
#: planted model of ``make_planted_dataset(2000, 6, 4, seed=3)``), 96 rows
#: took 2.8 ms in blocks of 8 rows and 2.6 ms in blocks of 16 (2,000 rows:
#: 56 and 52 ms), 7% less time at twice the memory.  A row with more draws
#: is a block of its own.
_BLOCK_DRAWS = 800


def predict_rows(model: GlmModel, X, rule: str = "most-probable-mean", n: int = 100,
                 rng: np.random.Generator | None = None) -> FaceBatch:
    """Point predictions at the rows of X (B, d), validated as one batch.

    ``most-probable-mean`` puts the Dirichlet mean on each row's argmax
    face (``face_gibbs.most_probable_members``), for all rows with one face
    size at a time; ``sample-mean`` averages ``n`` draws from each row's
    predicted distribution, all from the one generator ``rng``.  The rows
    are drawn in consecutive blocks of ``max(1, _BLOCK_DRAWS // n)`` rows,
    each block one ``draw_log_coords`` call with every row's table and
    concentrations repeated n times, so the stream is consumed block after
    block.
    """
    scores, conc = model.row_params(X)
    preds = np.zeros_like(conc)
    if rule == "most-probable-mean":
        member = face_gibbs.most_probable_members(scores)
        on = np.flatnonzero(member)
        size = member.sum(axis=1)[on // conc.shape[1]]  # the face size of each entry's row
        conc_flat, preds_flat = conc.reshape(-1), preds.reshape(-1)
        for L in np.unique(size):
            # the rows with L vertices as one C-contiguous (rows, L) block:
            # each row sum is the 1-D sum of that face, pairwise blocks included
            idx = on[size == L]
            a = conc_flat[idx].reshape(-1, L)
            preds_flat[idx] = (a / a.sum(axis=1, keepdims=True)).reshape(-1)
    elif rule == "sample-mean":
        if rng is None:
            raise ValueError("sample-mean needs an rng")
        if n < 1:
            raise ValueError("n must be >= 1")
        take = face_gibbs.sampling_tables(scores)
        size = max(1, _BLOCK_DRAWS // n)
        for lo in range(0, len(conc), size):
            rows = slice(lo, lo + size)
            m = len(conc[rows])
            _, log_y = draw_log_coords(np.repeat(take[rows], n, 0), np.repeat(conc[rows], n, 0), m * n, rng)
            preds[rows] = np.exp(log_y, out=log_y).reshape(m, n, -1).mean(axis=1)
    else:
        raise ValueError(f"unknown prediction rule {rule!r}")
    return FaceBatch.from_coords(preds)


def glm_predict(model: GlmModel, x, rule: str = "most-probable-mean",
                n: int = 100, rng: np.random.Generator | None = None) -> SimplexPoint:
    """Point prediction at one predictor vector (``predict_rows`` on one row)."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    return SimplexPoint(predict_rows(model, X, rule, n, rng).coords[0])


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Root of the mean squared error over all rows and coordinates."""
    return float(np.sqrt(np.mean((np.asarray(y_true) - np.asarray(y_pred)) ** 2)))


def mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(y_true) - np.asarray(y_pred))))


def zero_nonzero_macro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Macro F1 over the two classes of the coordinate-wise question
    "is this coordinate nonzero?", read as "> 0.0" (coordinates are never negative)."""
    t = np.asarray(y_true) > 0.0
    p = np.asarray(y_pred) > 0.0
    scores = []
    for cls in (True, False):
        tp = np.sum((p == cls) & (t == cls))
        fp = np.sum((p == cls) & (t != cls))
        fn = np.sum((p != cls) & (t == cls))
        denom = 2 * tp + fp + fn
        scores.append(1.0 if denom == 0 else 2.0 * tp / denom)
    return float(np.mean(scores))


def make_planted_dataset(n: int = 500, K: int = 5, d: int = 4,
                         seed: int = 0) -> tuple[np.ndarray, FaceBatch, GlmModel]:
    """Synthetic regression data from a randomly planted model.

    Returns (X, targets, true_model), the targets one ``FaceBatch`` drawn in
    log space.  Scales are chosen so the face scores vary decisively in sign
    across inputs, making the zero/nonzero pattern learnable.
    """
    rng = np.random.default_rng(seed)
    true_model = GlmModel(
        w_face=rng.normal(0.0, 4.0, (K, d)),
        b_face=rng.normal(0.0, 1.0, K),
        w_conc=rng.normal(0.0, 0.7, (K, d)),
        b_conc=rng.normal(2.0, 0.5, K),
    )
    X = rng.normal(0.0, 1.0, (n, d))
    scores, conc = true_model.row_params(X)
    # one draw per row from one generator: a single block over all rows
    batch = FaceBatch.from_log_coords(*draw_log_coords(face_gibbs.sampling_tables(scores), conc, n, rng))
    return X, batch, true_model
