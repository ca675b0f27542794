"""Reference implementations for cross-checking.

Everything here is deliberately naive: exhaustive enumeration over all
2^K - 1 faces, the O(K) face-lattice DAG of the paper's construction,
explicit active-set search for the simplex projection, the exact Mixed
Dirichlet entropy and KL as dense membership products, the pivoted dense
Gaussian-Sparsemax density one point at a time with its orthant term by
adaptive quadrature, the K = 2 Gaussian-Sparsemax density in its clamped
scalar form, the K = 3 Gaussian-Sparsemax mass and entropy by cubature over
the faces, the plain Laguerre recurrence and the defining series of the
maxent entropy, the GLM likelihood as dense (n, K) arrays, and central
finite differences.  None of it is a second production path: only ``mixedrv
check`` and the tests reach it, and none of it shares code with the
production paths it validates (the GLM reference takes the face law from
``face_gibbs`` and the K = 3 cubature the density from ``extrinsic``, each
checked on its own).  Faces are int64 bitmasks, as
everywhere outside ``simplex``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import digamma, expit, gammaln, log_ndtr, logsumexp, ndtr

from .extrinsic import GaussianSparsemax, gs_log_density_many
from .face_gibbs import log_normalizer_and_grad
from .glm import CONC_MIN, PRE_CLAMP, SCORE_CLAMP
from .simplex import FaceBatch, enumerate_faces

__all__ = [
    "FaceLatticeDag",
    "dag_log_normalizer",
    "dag_expected_suff_stats",
    "dag_take_probs",
    "brute_force_sparsemax",
    "face_score_table",
    "enum_log_normalizer",
    "enum_expected_suff_stats",
    "enum_entropy",
    "enum_kl",
    "enum_most_probable_face",
    "mixed_dirichlet_exact_reference",
    "gs_log_density_reference",
    "gs2_log_density",
    "gs_k3_cubature",
    "laguerre_generalized",
    "maxent_entropy_series",
    "glm_log_likelihood_reference",
    "central_difference_gradient",
    "central_difference_jacobian",
]


def brute_force_sparsemax(z) -> np.ndarray:
    """Simplex projection by exhaustive active-set search.

    For each candidate support S, the equality-constrained minimizer is
    ``z_S - (sum(z_S) - 1) / |S|``; it solves the full problem iff it is
    feasible (all positive) and dominates every alternative in distance.
    We simply take the feasible candidate with the smallest distance.
    """
    z = np.asarray(z, dtype=float)
    K = z.size
    best, best_dist = None, np.inf
    for mask in enumerate_faces(K).tolist():
        idx = [i for i in range(K) if mask >> i & 1]
        tau = (z[idx].sum() - 1.0) / len(idx)
        y = np.zeros(K)
        y[idx] = z[idx] - tau
        if np.any(y[idx] < 0.0):
            continue
        dist = float(np.sum((y - z) ** 2))
        if dist < best_dist:
            best, best_dist = y, dist
    return best


def face_score_table(K: int) -> np.ndarray:
    """(2^K - 1, K) matrix of +/-1 statistics, rows in bitmask order."""
    masks = np.arange(1, 1 << K)
    bits = (masks[:, None] >> np.arange(K)[None, :]) & 1
    return 2.0 * bits - 1.0


def enum_log_normalizer(w) -> float:
    w = np.asarray(w, dtype=float)
    return float(logsumexp(face_score_table(w.size) @ w))


def _enum_log_probs(w) -> np.ndarray:
    """Log-probability of every face, rows in bitmask order."""
    w = np.asarray(w, dtype=float)
    scores = face_score_table(w.size) @ w
    return scores - logsumexp(scores)


def enum_expected_suff_stats(w) -> np.ndarray:
    return np.exp(_enum_log_probs(w)) @ face_score_table(len(w))


def enum_entropy(w) -> float:
    logp = _enum_log_probs(w)
    return float(-np.sum(np.exp(logp) * logp))


def enum_kl(w, v) -> float:
    logp, logq = _enum_log_probs(w), _enum_log_probs(v)
    return float(np.sum(np.exp(logp) * (logp - logq)))


def mixed_dirichlet_exact_reference(p, q=None) -> float:
    """Exact direct-sum entropy of the Mixed Dirichlet law ``p``, or its KL
    to ``q`` when one is given, by dense enumeration: every face's
    log-probability from ``_enum_log_probs`` and its Dirichlet term from
    products with the (2^K - 1, K) membership matrix, in the textbook forms
    ``log B(a) - sum_k (a_k - 1)(psi(a_k) - psi(a_0))`` and ``log B(b) -
    log B(a) + sum_k (a_k - b_k)(psi(a_k) - psi(a_0))``.  For laws whose
    face probabilities are all positive doubles."""
    member = (face_score_table(p.K) + 1.0) / 2.0
    log_p, a = _enum_log_probs(p.faces.w), p.alpha
    a0 = member @ a
    log_beta_p = member @ gammaln(a) - gammaln(a0)
    psi = member * (digamma(a) - digamma(a0)[:, None])  # 0 off each face
    if q is None:
        terms = log_beta_p - psi @ (a - 1.0) - log_p
    else:
        b = q.alpha
        log_beta_q = member @ gammaln(b) - gammaln(member @ b)
        terms = log_beta_q - log_beta_p + psi @ (a - b) + log_p - _enum_log_probs(q.faces.w)
    return float(np.exp(log_p) @ terms)


def enum_most_probable_face(w) -> int:
    """Bitmask of the highest-scoring face (the first of equals)."""
    w = np.asarray(w, dtype=float)
    return int(np.argmax(face_score_table(w.size) @ w)) + 1  # row i holds mask i + 1


def _log_orthant_reference(mu, sigma, t: float, m: float) -> float:
    """``log int N(V; m, 1/t) prod_j Phi((V - mu_j) / sigma_j) dV`` by
    adaptive quadrature, shifted by the log-integrand at its mode.

    The mode is the root of the log-integrand's slope, which is positive at
    ``m`` and falls at rate >= t, so the root lies within ``2 slope(m) / t``
    of ``m`` (with margin for rounding).  The same bound puts the integrand
    below exp(-72) of its peak beyond ``12 / sqrt(t)`` of the mode.  The
    integrand has features only at the mode (no narrower than
    ``(t + sum sigma_j^-2)^-1/2``) and at each step ``mu_j`` (of width
    sigma_j); breakpoints at ratio-8 distances from each keep every feature
    within reach of the adaptive rule's nodes."""
    steps = list(zip(mu.tolist(), sigma.tolist()))

    def log_f(v):
        return float(sum(log_ndtr((v - a) / b) for a, b in steps)) - 0.5 * t * (v - m) ** 2

    def slope(v):
        z = (v - mu) / sigma
        return float(np.sum(np.exp(-0.5 * z * z - 0.5 * np.log(2 * np.pi) - log_ndtr(z)) / sigma) - t * (v - m))

    right = m + 2.0 * slope(m) / t
    mode = brentq(slope, m, right, xtol=1e-14, rtol=1e-15) if slope(right) < 0.0 else m
    peak = log_f(mode)
    half = 12.0 / np.sqrt(t)
    lo, hi = mode - half, mode + half
    points = {mode}
    for center, width in [(mode, 1.0 / np.sqrt(t + np.sum(sigma ** -2.0))), *zip(mu, sigma)]:
        reach = width * 8.0 ** np.arange(int(np.log(2.0 * half / width) / np.log(8.0)) + 1)
        points.update(float(x) for x in np.concatenate([[center], center - reach, center + reach]) if lo < x < hi)
    # full_output: a roundoff notice at this tolerance is no failure; the
    # error estimate decides
    val, err, *_ = quad(lambda v: math.exp(log_f(v) - peak), lo, hi, points=sorted(points),
                        epsabs=0.0, epsrel=1e-13, limit=500, full_output=1)
    if not err <= 1e-10 * val:
        raise ArithmeticError(f"quad error estimate {err:.2e} of {val:.6e}")
    return peak + float(np.log(val)) + 0.5 * (np.log(t) - np.log(2 * np.pi))


def gs_log_density_reference(d: GaussianSparsemax, y, pivot: int | None = None) -> float:
    """Gaussian-Sparsemax log-density at the point with coordinates ``y``
    (a row of K values), by the dense formula: on the support S = {i :
    y_i > 0}, ``log |S|`` plus the normal log-density of the differences
    ``y_i - y_pivot`` (covariance ``diag(sigma_i^2) + sigma_pivot^2``
    times all-ones, by ``slogdet`` and ``solve``; any pivot in S, default
    the lowest of smallest sigma, which keeps the covariance well
    conditioned); off S, the log orthant probability by
    ``scipy.integrate.quad`` (``_log_orthant_reference``)."""
    x = np.asarray(y, dtype=float)
    support = np.flatnonzero(x > 0.0).tolist()
    p = min(support, key=lambda i: d.sigma[i]) if pivot is None else pivot
    if p not in support:
        raise ValueError(f"pivot {p} is not in the support {support}")
    rest = [i for i in support if i != p]
    off = [j for j in range(d.K) if j not in support]
    mu, sigma = d.mu, d.sigma
    val = float(np.log(len(support)))
    if rest:
        diff = (x[rest] - x[p]) - (mu[rest] - mu[p])
        cov = np.diag(sigma[rest] ** 2) + sigma[p] ** 2
        val -= 0.5 * (diff @ np.linalg.solve(cov, diff) + np.linalg.slogdet(cov)[1] + len(rest) * np.log(2 * np.pi))
    if off:
        t = float(np.sum(sigma[support] ** -2.0))
        c = float(np.sum((x[support] - mu[support]) / sigma[support] ** 2))
        val += _log_orthant_reference(mu[off], sigma[off], t, -c / t)
    return float(val)


def gs2_log_density(y, z: float, sigma: float) -> np.ndarray:
    """Log-density of the K = 2 Gaussian-Sparsemax in its scalar form
    ``clamp(N(z, sigma^2), 0, 1)`` at each first coordinate ``y``, w.r.t.
    the direct-sum measure: the log tail mass ``Phi(-z / sigma)`` at 0 and
    ``Phi((z - 1) / sigma)`` at 1, the normal log-density inside."""
    y = np.asarray(y, dtype=float)
    inside = -0.5 * ((y - z) / sigma) ** 2 - np.log(sigma) - 0.5 * np.log(2.0 * np.pi)
    return np.where(y == 0.0, np.log(ndtr(-z / sigma)), np.where(y == 1.0, np.log(ndtr((z - 1.0) / sigma)), inside))


def gs_k3_cubature(p: GaussianSparsemax, q: GaussianSparsemax) -> tuple[float, float, float]:
    """The direct-sum mass and entropy ``-int p log p`` of a K = 3
    Gaussian-Sparsemax p with moderate sigma, and its KL ``int p log(p / q)``
    from a second such law q, by cubature of their densities over the faces:
    the 3 vertices by the counting measure, each edge by 24 panels of 32
    Gauss-Legendre nodes, the interior by 16 x 8 such panels in (y_0, y_1),
    each 1e-9 in from the face's edges.  At p = (mu (0.5, 0.1, 0.3), sigma
    (0.6, 0.9, 0.5)) and q = (mu (0.2, 0.4, 0.1), sigma (0.8, 0.7, 0.9))
    the mass reads 1 - 1.5e-9, the entropy 1.5110640850333 and the KL
    0.2159525290528, and rules of a quarter of the panels agree to 4e-16
    in all three."""
    if p.K != 3 or q.K != 3:
        raise ValueError(f"the cubature is of K = 3, got K={p.K} and K={q.K}")
    x32, w32 = np.polynomial.legendre.leggauss(32)

    def gl(a, b, panels):
        """Composite 32-node rule on (a, b), per row for array endpoints."""
        edges = np.linspace(a, b, panels + 1, axis=-1)
        half = np.diff(edges, axis=-1) / 2.0
        mid = (edges[..., :-1] + edges[..., 1:]) / 2.0
        shape = np.shape(a) + (-1,)
        return (mid[..., None] + half[..., None] * x32).reshape(shape), (half[..., None] * w32).reshape(shape)

    def integrals(coords, weights):
        batch = FaceBatch.from_coords(coords)
        log_p = gs_log_density_many(p, batch)
        dens = np.exp(log_p)
        return np.array([weights @ dens, -(weights @ (dens * log_p)),
                         weights @ (dens * (log_p - gs_log_density_many(q, batch)))])

    # on vertices the counting measure makes the density the face mass
    total = integrals(np.eye(3), np.ones(3))
    ts, ws = gl(1e-9, 1.0 - 1e-9, 24)
    for (i, j) in [(0, 1), (0, 2), (1, 2)]:
        c = np.zeros((ts.size, 3))
        c[:, i], c[:, j] = ts, 1.0 - ts
        total += integrals(c, ws)
    t1, w1 = gl(1e-9, 1.0 - 1e-9, 16)
    t2, w2 = gl(1e-9 * (1 - t1), (1 - t1) * (1 - 1e-9), 8)
    t1 = np.broadcast_to(t1[:, None], t2.shape)
    third = 1.0 - t1 - t2
    keep = third > 0.0
    total += integrals(np.stack([t1[keep], t2[keep], third[keep]], axis=1), (w1[:, None] * w2)[keep])
    return float(total[0]), float(total[1]), float(total[2])


def laguerre_generalized(n: int, alpha: float, x: float) -> float:
    """Generalized Laguerre polynomial ``L_n^(alpha)(x)`` by the plain
    three-term recurrence: the reference for the scaled recurrence behind
    ``info_theory.maxent_entropy``."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def maxent_entropy_series(K: int, N: int) -> float:
    """Maximal coding entropy at bit precision N as the log-sum-exp of its
    defining series, ``sum_k C(K, k) 2^(N (k-1)) / (k-1)!`` over k = 1..K:
    the reference for the Laguerre recurrence of ``info_theory.maxent_entropy``."""
    k = np.arange(1, K + 1)
    return float(logsumexp(gammaln(K + 1) - gammaln(k + 1) - gammaln(K - k + 1) + N * (k - 1) * math.log(2.0)
                           - gammaln(k)))


# A DAG state is (k, b, s): level k in 0..K+1, b = 1 iff vertex k is taken,
# s = 1 iff some vertex has been taken so far.  A source-to-sink path picks
# b for each vertex in turn; s forces the final subset to be nonempty.
_SOURCE = (0, 0, 0)


class FaceLatticeDag:
    """DAG whose complete paths encode the nonempty subsets of [K].

    States and arcs are O(K).  Arc weights depend on the log-potentials
    ``w``: an arc entering state ``(k, b, s)`` carries ``+w_k`` if ``b=1``,
    ``-w_k`` if ``b=0``, and arcs into the sink carry 0.  The forward and
    backward passes below accept ``w`` of shape (K,) or batched (B, K); the
    value tables then hold scalars or (B,) arrays.
    """

    def __init__(self, K: int):
        if K < 2:
            raise ValueError(f"K must be >= 2, got {K}")
        self.K = K
        self.sink = (K + 1, 0, 1)
        states = [_SOURCE]
        arcs = []  # (src, dst) pairs, topologically ordered by level
        frontier = [_SOURCE]
        for k in range(1, K + 1):
            nxt = set()
            for (kk, b, s) in frontier:
                for dst in ((k, 1, 1), (k, 0, s)):
                    arcs.append(((kk, b, s), dst))
                    nxt.add(dst)
            frontier = sorted(nxt)
            states.extend(frontier)
        for (k, b, s) in frontier:
            if s == 1:
                arcs.append(((k, b, s), self.sink))
        states.append(self.sink)
        self.states = states
        self.arcs = arcs
        self._in = {u: [] for u in states}
        self._out = {u: [] for u in states}
        for u, v in arcs:
            self._in[v].append(u)
            self._out[u].append(v)

    def arc_weight(self, w: np.ndarray, dst) -> np.ndarray:
        """Weight of an arc, determined by its destination state."""
        k, b, _ = dst
        if dst == self.sink:
            return np.zeros(w.shape[:-1])
        return w[..., k - 1] if b == 1 else -w[..., k - 1]

    def forward(self, w: np.ndarray) -> dict:
        """Log-sum of path weights from the source, per state."""
        neg_inf = np.full(w.shape[:-1], -np.inf)
        alpha = {_SOURCE: np.zeros(w.shape[:-1])}
        for v in self.states[1:]:
            total = neg_inf
            for u in self._in[v]:
                total = np.logaddexp(total, alpha[u] + self.arc_weight(w, v))
            alpha[v] = total
        return alpha

    def backward(self, w: np.ndarray) -> dict:
        """Log-sum of path weights to the sink, per state."""
        neg_inf = np.full(w.shape[:-1], -np.inf)
        beta = {self.sink: np.zeros(w.shape[:-1])}
        for u in reversed(self.states[:-1]):
            total = neg_inf
            for v in self._out[u]:
                total = np.logaddexp(total, self.arc_weight(w, v) + beta[v])
            beta[u] = total
        return beta


def dag_log_normalizer(w) -> float | np.ndarray:
    """Log-normalizer of the face law: the forward value at the sink.
    Accepts (K,) or (B, K)."""
    w = np.asarray(w, dtype=float)
    dag = FaceLatticeDag(w.shape[-1])
    out = dag.forward(w)[dag.sink]
    return float(out) if w.ndim == 1 else out


def dag_expected_suff_stats(w) -> np.ndarray:
    """``2 P(k in F) - 1`` from the forward-backward vertex marginals.
    Accepts (K,) or (B, K)."""
    w = np.asarray(w, dtype=float)
    dag = FaceLatticeDag(w.shape[-1])
    alpha, beta = dag.forward(w), dag.backward(w)
    log_z = alpha[dag.sink]
    prob_in = np.stack([np.exp(alpha[(k, 1, 1)] + beta[(k, 1, 1)] - log_z) for k in range(1, dag.K + 1)],
                       axis=-1)
    return 2.0 * prob_in - 1.0


def dag_take_probs(w) -> np.ndarray:
    """(K, 3) table of P(take vertex k | state) for ancestral sampling.

    Per level, every live state is one of (b,s) in {(0,0),(0,1),(1,1)},
    encoded 0/1/2.  A transition's probability is its arc weight times the
    backward value of the state it enters, over the backward value of the
    state it leaves; a source state that does not exist or is a dead end
    gets probability 0.
    """
    w = np.asarray(w, dtype=float)
    K = w.size
    beta = FaceLatticeDag(K).backward(w)
    src = np.array([[beta.get((k - 1, b, s), -np.inf) for b, s in ((0, 0), (0, 1), (1, 1))]
                    for k in range(1, K + 1)], dtype=float)
    num = w + np.array([beta[(k, 1, 1)] for k in range(1, K + 1)], dtype=float)
    return np.where(src > -np.inf, np.exp(num[:, None] - src), 0.0)


def glm_log_likelihood_reference(model, X, targets) -> tuple[float, dict[str, np.ndarray]]:
    """``glm.glm_log_likelihood`` on dense (n, K) arrays: every term on
    every entry, the Dirichlet half masked to the face's vertices on rows
    whose face has two or more vertices, and one matrix product per map, on
    that map's own (K, d) weights.  ``model`` is a ``glm.GlmModel``,
    ``targets`` a ``FaceBatch``; the face of a target is the support of its
    coordinates."""
    coords = targets.coords
    member = coords > 0.0
    on_dim = member.sum(axis=1) > 1
    phi = 2.0 * member - 1.0
    log_y = np.where(member, np.log(np.where(member, coords, 1.0)), 0.0)
    pre_f = X @ model.w_face.T + model.b_face
    scores = np.clip(pre_f, -SCORE_CLAMP, SCORE_CLAMP)
    pre_c = X @ model.w_conc.T + model.b_conc
    pre_cc = np.clip(pre_c, -PRE_CLAMP, PRE_CLAMP)
    soft = np.logaddexp(0.0, pre_cc)
    conc = np.maximum(soft, CONC_MIN)
    log_z, expected_phi = log_normalizer_and_grad(scores)
    alpha0 = np.where(member, conc, 0.0).sum(axis=1)
    ll_dir = np.where(on_dim, np.sum(np.where(member, (conc - 1.0) * log_y - gammaln(np.where(member, conc, 1.0)),
                                              0.0), axis=1) + gammaln(alpha0), 0.0)
    g_scores = (phi - expected_phi) * (np.abs(pre_f) < SCORE_CLAMP).astype(float)
    gate_c = (np.abs(pre_c) < PRE_CLAMP) & (soft > CONC_MIN)
    g_conc = np.where(member & on_dim[:, None], log_y - digamma(conc) + digamma(alpha0)[:, None], 0.0) \
        * expit(pre_cc) * gate_c.astype(float)
    ll = float((np.sum(scores * phi, axis=1) - log_z).sum() + ll_dir.sum())
    return ll, {"w_face": g_scores.T @ X, "b_face": g_scores.sum(axis=0),
                "w_conc": g_conc.T @ X, "b_conc": g_conc.sum(axis=0)}


def central_difference_gradient(fn, x, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def central_difference_jacobian(fn, x, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((fn(x + e) - fn(x - e)) / (2.0 * h))
    return np.stack(cols, axis=1)
