"""Reference implementations for cross-checking.

Everything here is deliberately naive: exhaustive enumeration over all
2^K - 1 faces, the O(K) face-lattice DAG of the paper's construction,
explicit active-set search for the simplex projection, the pivoted dense
Gaussian-Sparsemax density one point at a time with its orthant term by
adaptive quadrature, the plain Laguerre recurrence, and central finite
differences.  None of it shares code with the production paths it
validates.  Faces are int64 bitmasks, as everywhere outside ``simplex``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import log_ndtr, logsumexp

from .extrinsic import GaussianSparsemax
from .simplex import enumerate_faces

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
    "gs_log_density_reference",
    "laguerre_generalized",
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
