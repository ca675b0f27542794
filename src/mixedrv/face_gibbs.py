"""Exponential-family distribution over the nonempty faces of the simplex.

A face is a nonempty subset I of the K vertices, passed as an int64
bitmask (bit k set means vertex k is in I).  The family has one
log-potential per vertex and sufficient statistic ``phi_k = +1`` if vertex k
is in the face, ``-1`` otherwise, so the unnormalized log-weight of face I is
``sum_{k in I} w_k - sum_{k not in I} w_k``.

The law is exactly independent Bernoulli(p_k = sigma(2 w_k)) vertices
conditioned on a nonempty face, so every quantity that naively requires a
sum over 2^K - 1 faces (the log-normalizer, vertex-membership marginals,
sampling) has an O(K) closed form, evaluated in log space: the softplus
sums ``S_k`` (``_softplus_sums``) and ``log P(some j >= k is taken)``
(``_log_nonempty``).  Two routines read them: ``_log_z_and_grad`` (column
0 only) gives log Z and the expected statistics to every caller, the GLM's
per-step call included, and ``sampling_tables`` (every column) gives the
sampling tables.  ``face_log_prob`` is the one face log-probability and
``most_probable_members`` the one argmax-face rule.  The paper's O(K)
face-lattice DAG computes the same quantities and is kept in ``oracles`` as
the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .simplex import FaceIndexSet, check_same_k, check_vector, face_masks, freeze, mask_members, member_masks

__all__ = [
    "GibbsFaceDistribution",
    "log_normalizer",
    "expected_suff_stats",
    "log_normalizer_and_grad",
    "face_log_prob",
    "sample_face_masks",
    "sampling_tables",
    "members_from_uniforms",
    "masks_from_uniforms",
    "sample_faces",
    "entropy",
    "kl",
    "grad_log_prob",
    "most_probable_face",
    "most_probable_members",
    "suff_stats",
]


def __getattr__(name):
    # benchmarks/tracer.py looks up face_gibbs.FaceLatticeDag by name; the
    # oracle module is loaded only when something asks for it
    if name == "FaceLatticeDag":
        from .oracles import FaceLatticeDag
        return FaceLatticeDag
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Largest potential magnitude accepted: ``2 w`` overflows beyond it.
_W_MAX = float(np.finfo(float).max / 2.0)


def _softplus_sums(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``x = 2 w``, ``log(1 + e^-|x|)`` and the softplus sums ``S_k =
    sum_{j>=k} softplus(x_j)``, over the last axis of ``w``."""
    x = 2.0 * w
    log1p_exp = np.log1p(np.exp(-np.abs(x)))
    rev = (..., slice(None, None, -1))
    return x, log1p_exp, np.add.accumulate((np.maximum(x, 0.0) + log1p_exp)[rev], axis=-1)[rev]


def _log_nonempty(x: np.ndarray, s: np.ndarray, cols: slice = slice(None)) -> np.ndarray:
    """``log(1 - e^-S_k) = log P(some j >= k is taken)`` on the columns
    ``cols`` (a slice) of the softplus sums ``s`` of ``x`` (see
    ``_softplus_sums``)."""
    s = s[..., cols]
    # entries below 1e-280 are replaced just below, so the floor only keeps log(0) out
    log_nonempty = np.log(-np.expm1(-np.maximum(s, 1e-280)))
    if (s[..., -1] < 1e-280).any():  # S_k falls with k, so the last column holds each row's least
        # the softplus terms of very negative potentials underflow; there
        # log(1 - e^-S) = log S and log softplus(x) = x to double precision
        rev = (..., slice(None, None, -1))
        log_s = np.logaddexp.accumulate(x[rev], axis=-1)[rev][..., cols]
        log_nonempty = np.where(s < 1e-280, log_s, log_nonempty)
    return log_nonempty


def _log_z_and_grad(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log_normalizer_and_grad`` of potentials already known to be
    finite, K >= 2, over the last axis of ``w``.  A sum beyond the double
    range makes log Z inf or nan with a numpy warning, which the public
    callers silence: the measures report such values as not finite.

    With independent Bernoulli(p_j = sigma(2 w_j)) vertices, ``log Z =
    log(prod_k 2cosh(w_k) * P(nonempty)) = -sum w + S_0 + log(1 - e^-S_0)``
    and ``E[phi_k] = 2 p_k / P(nonempty) - 1``: both need ``log P(some j >=
    k is taken)`` in column 0 only.
    """
    x, log1p_exp, s = _softplus_sums(w)
    log_nonempty = _log_nonempty(x, s, slice(0, 1))
    log_z = -np.add.reduce(w, axis=-1) + s[..., 0] + log_nonempty[..., 0]
    phi = np.minimum(x, 0.0)  # log p, then 2 p / P(nonempty) - 1 in the same buffer
    phi -= log1p_exp
    phi -= log_nonempty
    np.exp(phi, out=phi)
    phi *= 2.0
    phi -= 1.0
    return log_z, phi


def log_normalizer_and_grad(w) -> tuple[np.ndarray, np.ndarray]:
    """Log-normalizer and its gradient, the expected +/-1 statistics, from
    one closed-form pass.

    The vertex-membership marginal is ``P(k in F) = p_k / P(nonempty)``; the
    expected statistic is ``2 P(k in F) - 1``.  Accepts ``w`` of shape (K,)
    or (B, K); returns arrays of shape () and (K,), or (B,) and (B, K).
    """
    w = check_vector("w", w, bound=_W_MAX, batched=True)
    with np.errstate(over="ignore", invalid="ignore"):  # see _log_z_and_grad
        return _log_z_and_grad(w)


def log_normalizer(w) -> float | np.ndarray:
    """Log-normalizer of the face distribution (see ``_log_z_and_grad``).

    Accepts ``w`` of shape (K,) or (B, K); returns a scalar or (B,).
    """
    log_z = log_normalizer_and_grad(w)[0]
    return float(log_z) if log_z.ndim == 0 else log_z


def sampling_tables(w) -> np.ndarray:
    """Sampling tables (see ``masks_from_uniforms``) of the face laws with
    potentials ``w`` (K,) or (B, K): shape (K, 3) or (B, K, 3), each row
    equal to ``GibbsFaceDistribution(w[i]).take_probs``.  They need ``log
    P(some j >= k is taken)`` in every column."""
    w = check_vector("w", w, bound=_W_MAX, batched=True)
    with np.errstate(over="ignore"):  # a sum beyond the double range is inf, and the tables take its limit
        x, log1p_exp, s = _softplus_sums(w)
        log_p = np.minimum(x, 0.0) - log1p_exp
        p = np.exp(log_p)
        take = np.stack([np.exp(log_p - _log_nonempty(x, s)), p, p], axis=-1)
    # states that cannot occur yet: nothing is taken before vertex 0, and
    # "nonempty, previous not taken" needs two earlier vertices
    take[..., 0, 1:] = 0.0
    take[..., 1, 1] = 0.0
    take[..., -1, 0] = 1.0  # a face still empty at the last vertex must take it
    return take


def expected_suff_stats(w) -> np.ndarray:
    """Gradient of the log-normalizer (see ``log_normalizer_and_grad``)."""
    return log_normalizer_and_grad(w)[1]


def suff_stats(masks, K: int) -> np.ndarray:
    """The +/-1 statistic vectors of faces over K vertices: shape (K,) for
    one bitmask, (n, K) for an array of n."""
    return _phi(mask_members(face_masks(masks, K), K))


def _phi(member: np.ndarray) -> np.ndarray:
    """+/-1 statistics of faces given as membership rows."""
    phi = member.astype(float)  # then +/-1 in place, cheaper than np.where
    phi *= 2.0
    phi -= 1.0
    return phi


@dataclass(frozen=True, eq=False)
class GibbsFaceDistribution:
    """Face distribution with log-potentials ``w``; caches filled eagerly.

    Immutable after construction, so instances are safe to share across
    threads.
    """

    w: np.ndarray
    log_z: float = field(init=False)
    expected_phi: np.ndarray = field(init=False)
    take_probs: np.ndarray = field(init=False)  # sampling table, see masks_from_uniforms

    def __init__(self, w):
        w = check_vector("w", w, bound=_W_MAX)
        log_z, phi = log_normalizer_and_grad(w)
        freeze(self, w=w, log_z=float(log_z), expected_phi=phi, take_probs=sampling_tables(w))

    @property
    def K(self) -> int:
        return self.w.size


def face_log_prob(d: GibbsFaceDistribution, masks) -> float | np.ndarray:
    """Log-probability ``phi(F) . w - log Z`` of one face bitmask (a float)
    or of each of an array of them."""
    log_p = _members_log_prob(d, mask_members(face_masks(masks, d.K), d.K))
    return float(log_p) if log_p.ndim == 0 else log_p


def _members_log_prob(d: GibbsFaceDistribution, member: np.ndarray) -> np.ndarray:
    """``face_log_prob`` of faces given as membership rows, for callers that
    hold them decoded already."""
    return _phi(member) @ d.w - d.log_z


def members_from_uniforms(u: np.ndarray, take: np.ndarray) -> np.ndarray:
    """Vertex membership of the faces drawn from uniforms ``u`` (..., K)
    under sampling tables ``take`` (..., K, 3) that broadcast against them
    (one law's ``take_probs``, one row of ``sampling_tables`` per row, or
    one row's table with an axis of length 1 across its draws), by
    ancestral sampling over the vertices.

    Row k of ``take`` holds vertex k's probability of being taken in the
    states "still empty" (``p_k / P(some j >= k is taken)``), "nonempty,
    k-1 not taken" and "k-1 taken" (both ``p_k`` wherever they can occur).
    So the first vertex taken is the first k with ``u[..., k] < take[k, 0]``,
    and each later k is taken when ``u[..., k] < take[k, 2]``: the
    comparisons of a pass over the vertices, made for all vertices at once.
    ``take[-1, 0]`` is 1, so the empty face is never produced.
    """
    first = np.argmax(u < take[..., 0], axis=-1)[..., None]
    vertex = np.arange(u.shape[-1])
    return (vertex == first) | ((vertex > first) & (u < take[..., 2]))


def masks_from_uniforms(u: np.ndarray, take: np.ndarray) -> np.ndarray:
    """Face bitmasks from (n, K) uniforms under one face law's (K, 3)
    sampling table ``take`` or under one table per row (n, K, 3): the
    ``members_from_uniforms`` faces, encoded."""
    return member_masks(members_from_uniforms(u, take))


def sample_face_masks(d: GibbsFaceDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` face bitmasks (see ``masks_from_uniforms``).  Each sample
    consumes exactly K uniforms (one per vertex), so results are
    reproducible under a seeded stream regardless of the outcomes."""
    return masks_from_uniforms(rng.random((n, d.K)), d.take_probs)


def sample_faces(d: GibbsFaceDistribution, n: int, rng: np.random.Generator) -> list[FaceIndexSet]:
    """``sample_face_masks`` as a list of faces (one object per distinct face)."""
    masks = sample_face_masks(d, n, rng).tolist()
    faces = {m: FaceIndexSet(m, d.K) for m in set(masks)}
    return [faces[m] for m in masks]


def entropy(d: GibbsFaceDistribution) -> float:
    """Shannon entropy: log Z - <w, grad log Z>."""
    return d.log_z - float(d.w @ d.expected_phi)


def kl(d_p: GibbsFaceDistribution, d_q: GibbsFaceDistribution) -> float:
    """KL divergence between two members of the family (exact, O(K))."""
    check_same_k(d_p.K, d_q.K)
    return d_q.log_z - d_p.log_z - float((d_q.w - d_p.w) @ d_p.expected_phi)


def grad_log_prob(d: GibbsFaceDistribution, masks) -> np.ndarray:
    """Gradient of ``face_log_prob`` in the log-potentials, phi(f) - E[phi]:
    shape (K,) for one face bitmask, (n, K) for an array of n."""
    return suff_stats(masks, d.K) - d.expected_phi


def most_probable_members(w) -> np.ndarray:
    """Membership of the argmax face of each law with potentials ``w`` (K,)
    or (B, K), of the same shape, in O(K): all vertices with positive
    potential, else the best single vertex (lowest index on ties).  Zero
    potentials count as "exclude"."""
    w = np.asarray(w, dtype=float)
    member = w > 0.0
    best = w.argmax(axis=-1)[..., None] == np.arange(w.shape[-1])
    return np.where(member.any(axis=-1, keepdims=True), member, best)


def most_probable_face(d: GibbsFaceDistribution) -> int:
    """Bitmask of the argmax face (see ``most_probable_members``)."""
    return int(member_masks(most_probable_members(d.w)))
