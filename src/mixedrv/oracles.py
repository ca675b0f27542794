"""Reference implementations for cross-checking.

Everything here is deliberately naive: exhaustive enumeration over all
2^K - 1 faces, the O(K) face-lattice DAG of the paper's construction,
explicit active-set search for the simplex projection, and central finite
differences.  None of it shares code with the production paths it
validates.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from .simplex import FaceIndexSet, enumerate_faces

__all__ = [
    "FaceLatticeDag",
    "dag_log_normalizer",
    "dag_expected_suff_stats",
    "dag_take_probs",
    "brute_force_sparsemax",
    "face_score_table",
    "enum_log_normalizer",
    "enum_expected_suff_stats",
    "enum_face_probs",
    "enum_entropy",
    "enum_kl",
    "enum_most_probable_face",
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
    for f in enumerate_faces(K):
        idx = list(f.indices)
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


def enum_face_probs(w) -> dict[FaceIndexSet, float]:
    w = np.asarray(w, dtype=float)
    scores = face_score_table(w.size) @ w
    probs = np.exp(scores - logsumexp(scores))
    return {f: float(p) for f, p in zip(enumerate_faces(w.size), probs)}


def enum_expected_suff_stats(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    phi = face_score_table(w.size)
    scores = phi @ w
    probs = np.exp(scores - logsumexp(scores))
    return probs @ phi


def enum_entropy(w) -> float:
    w = np.asarray(w, dtype=float)
    scores = face_score_table(w.size) @ w
    logp = scores - logsumexp(scores)
    return float(-np.sum(np.exp(logp) * logp))


def enum_kl(w, v) -> float:
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    phi = face_score_table(w.size)
    logp = phi @ w - logsumexp(phi @ w)
    logq = phi @ v - logsumexp(phi @ v)
    return float(np.sum(np.exp(logp) * (logp - logq)))


def enum_most_probable_face(w) -> FaceIndexSet:
    w = np.asarray(w, dtype=float)
    scores = face_score_table(w.size) @ w
    return enumerate_faces(w.size)[int(np.argmax(scores))]


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
