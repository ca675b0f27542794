"""Exponential-family distribution over the nonempty faces of the simplex.

A face is a nonempty subset I of the K vertices.  The family has one
log-potential per vertex and sufficient statistic ``phi_k = +1`` if vertex k
is in the face, ``-1`` otherwise, so the unnormalized log-weight of face I is
``sum_{k in I} w_k - sum_{k not in I} w_k``.

All quantities that naively require a sum over 2^K - 1 faces (the
log-normalizer, vertex-membership marginals, sampling) are computed in O(K)
by dynamic programming on a small DAG whose source-to-sink paths are in
bijection with the nonempty subsets.  Everything runs in log space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .simplex import FaceIndexSet

__all__ = [
    "FaceLatticeDag",
    "GibbsFaceDistribution",
    "log_normalizer",
    "log_normalizer_closed_form",
    "expected_suff_stats",
    "face_log_prob",
    "sample_face",
    "sample_face_masks",
    "sample_faces",
    "entropy",
    "kl",
    "grad_log_prob",
    "most_probable_face",
    "suff_stats",
]

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


_DAG_CACHE: dict[int, FaceLatticeDag] = {}


def _dag(K: int) -> FaceLatticeDag:
    if K not in _DAG_CACHE:
        _DAG_CACHE[K] = FaceLatticeDag(K)
    return _DAG_CACHE[K]


def _as_w(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape[-1] < 2:
        raise ValueError("w must have length >= 2")
    if not np.all(np.isfinite(w)):
        raise ValueError("w must be finite")
    return w


def log_normalizer(w) -> float | np.ndarray:
    """Log-normalizer of the face distribution, by the forward pass.

    Accepts ``w`` of shape (K,) or (B, K); returns a scalar or (B,).
    """
    w = _as_w(w)
    alpha = _dag(w.shape[-1]).forward(w)
    out = alpha[_dag(w.shape[-1]).sink]
    return float(out) if w.ndim == 1 else out


def log_normalizer_closed_form(w) -> float | np.ndarray:
    """Independent closed form: log(prod_k 2cosh(w_k) - exp(-sum_k w_k)).

    The product over 2cosh counts every subset including the empty one;
    subtracting the empty subset's weight leaves the nonempty faces.  Kept
    free of the DAG code path so the two can validate each other.

    Factoring out the empty face gives ``-sum w + log(expm1(S))`` with
    ``S = sum_k softplus(2 w_k)``.  When every potential is very negative
    the softplus terms underflow, so ``log S`` is accumulated in log space
    and ``log(expm1(S))`` is evaluated from it.
    """
    w = _as_w(w)
    two_w = 2.0 * w
    softplus = np.logaddexp(0.0, two_w)
    s = softplus.sum(axis=-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # log softplus(x) is x - e^x / 2 to double precision below x = -30
        log_s = logsumexp(np.where(two_w < -30.0, two_w - 0.5 * np.exp(two_w), np.log(softplus)), axis=-1)
        # log(expm1(S)) = S + log(1 - e^-S) for S > 1, else log S + log(expm1(S) / S)
        large = s + np.log(-np.expm1(-s))
        small = log_s + np.log(np.where(s > 0.0, np.expm1(s) / s, 1.0))
    out = -np.sum(w, axis=-1) + np.where(s > 1.0, large, small)
    return float(out) if w.ndim == 1 else out


def expected_suff_stats(w) -> np.ndarray:
    """Gradient of the log-normalizer: expectation of the +/-1 statistics.

    Forward-backward on the DAG gives the vertex-membership marginals
    ``P(k in F)``; the expected statistic is ``2 P(k in F) - 1``.
    Accepts (K,) or (B, K).
    """
    w = _as_w(w)
    dag = _dag(w.shape[-1])
    return _expected_phi(dag, dag.forward(w), dag.backward(w))


def _expected_phi(dag: FaceLatticeDag, alpha: dict, beta: dict) -> np.ndarray:
    log_z = alpha[dag.sink]
    probs = []
    for k in range(1, dag.K + 1):
        state = (k, 1, 1)
        probs.append(np.exp(alpha[state] + beta[state] - log_z))
    prob_in = np.stack(probs, axis=-1)
    return 2.0 * prob_in - 1.0


def _take_probs(w: np.ndarray, beta: dict) -> np.ndarray:
    """(K, 3) table of P(take vertex k | state) for ancestral sampling.

    Per level, every live state is one of (b,s) in {(0,0),(0,1),(1,1)},
    encoded 0/1/2.  A transition's probability is its arc weight times the
    backward value of the state it enters, over the backward value of the
    state it leaves; a source state that does not exist or is a dead end
    gets probability 0.
    """
    K = w.size
    src = np.array([[beta.get((k - 1, b, s), -np.inf) for b, s in ((0, 0), (0, 1), (1, 1))]
                    for k in range(1, K + 1)], dtype=float)
    num = w + np.array([beta[(k, 1, 1)] for k in range(1, K + 1)], dtype=float)
    return np.where(src > -np.inf, np.exp(num[:, None] - src), 0.0)


def suff_stats(f: FaceIndexSet) -> np.ndarray:
    """The +/-1 statistic vector of a face."""
    return np.where(f.member_array(), 1.0, -1.0)


@dataclass(frozen=True, eq=False)
class GibbsFaceDistribution:
    """Face distribution with log-potentials ``w``; caches filled eagerly.

    Immutable after construction, so instances are safe to share across
    threads.
    """

    w: np.ndarray
    log_z: float = field(init=False)
    expected_phi: np.ndarray = field(init=False)
    take_probs: np.ndarray = field(init=False)  # sampling table, see _take_probs

    def __init__(self, w):
        w = _as_w(np.atleast_1d(w))
        if w.ndim != 1:
            raise ValueError("w must be a vector")
        w = w.copy()
        w.flags.writeable = False
        dag = _dag(w.size)
        alpha, beta = dag.forward(w), dag.backward(w)
        phi = _expected_phi(dag, alpha, beta)
        take = _take_probs(w, beta)
        phi.flags.writeable = False
        take.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "log_z", float(alpha[dag.sink]))
        object.__setattr__(self, "expected_phi", phi)
        object.__setattr__(self, "take_probs", take)

    @property
    def K(self) -> int:
        return self.w.size


def face_log_prob(d: GibbsFaceDistribution, f: FaceIndexSet) -> float:
    """Log-probability of one face."""
    if f.K != d.K:
        raise ValueError(f"face is over K={f.K}, distribution over K={d.K}")
    return float(d.w @ suff_stats(f)) - d.log_z


def sample_face_masks(d: GibbsFaceDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` face bitmasks by ancestral sampling through the DAG.

    Each sample consumes exactly K uniforms (one per level), so results are
    reproducible under a seeded stream regardless of the outcomes.  The
    transition table is ``d.take_probs``; the dead-end "still empty at the
    last level" state has backward value -inf, so the empty face is never
    produced.
    """
    u = rng.random((n, d.K))
    codes = np.zeros(n, dtype=np.int64)
    masks = np.zeros(n, dtype=np.int64)
    for k in range(d.K):
        take = u[:, k] < d.take_probs[k, codes]
        masks |= take.astype(np.int64) << k
        codes = np.where(take, 2, np.minimum(codes, 1))
    return masks


def sample_faces(d: GibbsFaceDistribution, n: int, rng: np.random.Generator) -> list[FaceIndexSet]:
    """``sample_face_masks`` as a list of faces (one object per distinct face)."""
    masks = sample_face_masks(d, n, rng).tolist()
    faces = {m: FaceIndexSet(m, d.K) for m in set(masks)}
    return [faces[m] for m in masks]


def sample_face(d: GibbsFaceDistribution, rng: np.random.Generator) -> FaceIndexSet:
    """Draw one face (K uniforms consumed)."""
    return sample_faces(d, 1, rng)[0]


def entropy(d: GibbsFaceDistribution) -> float:
    """Shannon entropy: log Z - <w, grad log Z>."""
    return d.log_z - float(d.w @ d.expected_phi)


def kl(d_p: GibbsFaceDistribution, d_q: GibbsFaceDistribution) -> float:
    """KL divergence between two members of the family (exact, O(K))."""
    if d_p.K != d_q.K:
        raise ValueError(f"dimension mismatch: {d_p.K} vs {d_q.K}")
    return d_q.log_z - d_p.log_z - float((d_q.w - d_p.w) @ d_p.expected_phi)


def grad_log_prob(d: GibbsFaceDistribution, f: FaceIndexSet) -> np.ndarray:
    """Gradient of ``face_log_prob`` in the log-potentials: phi(f) - E[phi]."""
    if f.K != d.K:
        raise ValueError(f"face is over K={f.K}, distribution over K={d.K}")
    return suff_stats(f) - d.expected_phi


def most_probable_face(d: GibbsFaceDistribution) -> FaceIndexSet:
    """Argmax face in O(K): all vertices with positive potential, else the
    best single vertex (lowest index on ties).  Zero potentials count as
    "exclude"."""
    positive = np.nonzero(d.w > 0.0)[0]
    if positive.size > 0:
        return FaceIndexSet.from_indices(positive.tolist(), d.K)
    return FaceIndexSet.from_indices([int(np.argmax(d.w))], d.K)
