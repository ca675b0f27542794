"""Direct-sum information measures and the maximum-entropy mixed distribution.

The direct-sum entropy of a mixed variable is the Shannon entropy of its
face plus the expected differential entropy within the face; the analogous
KL decomposes the same way.  Both are estimated here by Monte Carlo for any
distribution exposing mutually consistent ``sample_many`` and
``log_density_many``.

These estimators, ``direct_sum_entropy_mc`` and ``direct_sum_kl_mc``, are
the one Monte Carlo route of every kind, Mixed Dirichlet included.  Exact
values are the ``direct_sum_entropy()``/``direct_sum_kl(other)`` methods of
the kinds that have closed forms: ``MixedDirichlet`` (a sum over faces,
``mixed_dirichlet.entropy``/``kl_mixed``), ``GaussianSparsemax`` at K = 2
(``extrinsic.gs2_entropy``/``gs2_kl``) and ``MaxEntMixed`` below.

``coding_entropy`` converts a direct-sum entropy into the average optimal
code length when continuous coordinates are kept at N-bit precision, and
the maxent family realizes the largest such value; its entropy equals the
log of a generalized Laguerre polynomial, which ``maxent_entropy``
evaluates by a scaled three-term recurrence.  Its references are the plain
recurrence, ``oracles.laguerre_generalized``, and the log-sum-exp of the
defining series, ``oracles.maxent_entropy_series``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Protocol, runtime_checkable

import numpy as np

from .simplex import FaceBatch, check_same_k, enumerate_faces, freeze, member_masks, one_line, vertex_counts

__all__ = [
    "MixedDistribution",
    "McEstimate",
    "KlMcEstimate",
    "direct_sum_entropy_mc",
    "direct_sum_kl_mc",
    "coding_entropy",
    "MaxEntMixed",
    "maxent_entropy",
    "maxent_log_weights",
]

_LN2 = math.log(2.0)


@runtime_checkable
class MixedDistribution(Protocol):
    """What a distribution must expose for the MC estimators below.

    ``sample_many`` and ``log_density_many`` must agree: minus the mean
    log-density of its own samples estimates the direct-sum entropy.
    ``K`` is its number of vertices.
    """

    K: int

    def sample_many(self, n: int, rng: np.random.Generator) -> FaceBatch: ...

    def log_density_many(self, batch: FaceBatch) -> np.ndarray: ...


class McEstimate(NamedTuple):
    estimate: float
    std_error: float


class KlMcEstimate(NamedTuple):
    estimate: float
    std_error: float
    support_violations: int = 0

    @property
    def is_infinite(self) -> bool:
        return self.support_violations > 0


def _mean_and_std_error(terms: np.ndarray) -> tuple[float, float]:
    """Mean and ``std(ddof=1) / sqrt(n)`` of finite terms, taken on the
    terms scaled by 2^-e so that the largest lies below 2^256 (e = 0 when it
    already does).  Scaling by a power of two is exact, and so is every
    rounding step after it, barring subnormals, so the scaled result times
    2^e is bitwise the unscaled one wherever that does not overflow; terms
    near the largest double no longer overflow the squares (or the sum)."""
    e = max(0, math.frexp(float(np.max(np.abs(terms))))[1] - 256)
    if e:
        terms = np.ldexp(terms, -e)
    scale = 2.0 ** e
    return float(terms.mean()) * scale, float(terms.std(ddof=1) / np.sqrt(terms.size)) * scale


def _finite(terms: np.ndarray) -> np.ndarray:
    """``terms``, or ValueError when one of them is not finite: a
    log-density beyond the range of a double has no finite mean.  The
    callers evaluate the terms with overflow and invalid operations
    silenced, so this error is the only report of one."""
    bad = int(np.count_nonzero(~np.isfinite(terms)))
    if bad:
        raise ValueError(f"{bad} of {terms.size} Monte Carlo terms are not finite "
                         "(a log-density beyond the range of a double)")
    return terms


def direct_sum_entropy_mc(dist: MixedDistribution, n: int, rng: np.random.Generator) -> McEstimate:
    """Monte Carlo direct-sum entropy: minus the mean log-density of draws.

    ``std_error`` is the sample standard error of the log-densities,
    ``std(ddof=1) / sqrt(n)``.  It is exactly 0 when every draw has the same
    log-density (every draw on one vertex, say), and then bounds nothing.
    A log-density that is not finite raises ValueError (``_finite``).
    """
    if n < 2:
        raise ValueError("need n >= 2 for a standard error")
    batch = dist.sample_many(n, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        log_p = dist.log_density_many(batch)
    mean, std_error = _mean_and_std_error(_finite(log_p))
    return McEstimate(-mean, std_error)


def direct_sum_kl_mc(p: MixedDistribution, q: MixedDistribution, n: int,
                     rng: np.random.Generator) -> KlMcEstimate:
    """Monte Carlo direct-sum KL: mean of ``log p - log q`` under p's draws.

    If q assigns -inf log-density to any sampled point the divergence is
    structurally infinite (support mismatch); this is reported as an outcome
    rather than letting a float inf contaminate the average silently.
    Otherwise ``std_error`` is the sample standard error of the
    differences, ``std(ddof=1) / sqrt(n)``: exactly 0 when every difference
    is equal (every draw on one vertex, say), and then it bounds nothing.
    A difference that is not finite raises ValueError (``_finite``).
    """
    if n < 2:
        raise ValueError("need n >= 2 for a standard error")
    check_same_k(p.K, q.K)
    batch = p.sample_many(n, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        log_q = q.log_density_many(batch)
        violations = int(np.count_nonzero(log_q == -np.inf))
        if violations:
            return KlMcEstimate(np.inf, np.nan, violations)
        terms = p.log_density_many(batch) - log_q
    return KlMcEstimate(*_mean_and_std_error(_finite(terms)), 0)


def coding_entropy(masks, probs, base_entropy: float, N: int) -> float:
    """Average optimal code length at N-bit precision, in nats, of a law
    with face bitmasks ``masks`` and face probabilities ``probs`` (as
    ``exact_face_distribution`` returns them).

    Adds ``N * ln 2`` nats per continuous dimension to the direct-sum
    entropy: ``H + N ln2 * sum_f dim(f) P(f)``.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    masks, probs = np.asarray(masks), np.asarray(probs, dtype=float)
    if masks.shape != probs.shape or masks.ndim != 1 or np.any(masks <= 0):
        raise ValueError("need one positive face bitmask per probability")
    if np.any(probs < -1e-10) or abs(probs.sum() - 1.0) > 1e-10:
        raise ValueError("face probabilities must be nonnegative and sum to 1")
    expected_dim = float(probs @ (vertex_counts(masks) - 1))
    return float(base_entropy + N * _LN2 * expected_dim)


def _log_binom(K, k):
    """``log C(K, k)``, elementwise in ``k``."""
    from scipy.special import gammaln

    return gammaln(K + 1) - gammaln(k + 1) - gammaln(K - k + 1)


def _check_maxent_args(K: int, N: int):
    if K < 2:
        raise ValueError(f"K must be >= 2, got {one_line(K)}")
    if N < 0 or N != int(N):
        raise ValueError(f"N must be a nonnegative integer, got {one_line(N)}")


def maxent_log_weights(K: int, N: int) -> np.ndarray:
    """Unnormalized log-probabilities of the face-dimension classes k=1..K:
    ``log C(K,k) + N(k-1) log2 - log (k-1)!``, all in log space."""
    from scipy.special import gammaln

    _check_maxent_args(K, N)
    k = np.arange(1, K + 1)
    return _log_binom(K, k) + N * (k - 1) * _LN2 - gammaln(k)


def _log_laguerre_at_minus_pow2(n: int, alpha: float, N: int) -> float:
    """``log L_n^(alpha)(-2^N)`` by the three-term recurrence, run on
    ``M_k = L_k / 2^(kN)`` and kept near 1 by powers of two.

    With ``y = 2^-N`` the recurrence reads ``M_(k+1) = ((1 + (2k+1+alpha) y)
    M_k - (k+alpha) y^2 M_(k-1)) / (k+1)``.  Scaling by a power of two is
    exact, so wherever neither recurrence leaves the normal doubles each step
    rounds alike and the result is bitwise the plain recurrence's; where
    ``L_n`` is no double the logarithm is taken of mantissa and exponent apart.
    """
    if n == 0:
        return 0.0
    y = math.ldexp(1.0, -N)  # 0.0 far beyond 2^-1074, where the y terms no longer round into M
    prev, cur, exp2 = 1.0, (1.0 + alpha) * y + 1.0, n * N
    for k in range(1, n):
        prev, cur = cur, ((1.0 + (2 * k + 1 + alpha) * y) * cur - (k + alpha) * prev * y * y) / (k + 1)
        if not 2.0**-500 < cur < 2.0**500:
            e = math.frexp(cur)[1]
            prev, cur, exp2 = math.ldexp(prev, -e), math.ldexp(cur, -e), exp2 + e
    m, e = math.frexp(cur)
    if -1021 <= e + exp2 <= 1024:  # L_n is a normal double
        return float(np.log(math.ldexp(cur, exp2)))
    return float(np.log(m)) + (e + exp2) * _LN2


def maxent_entropy(K: int, N: int) -> float:
    """Maximal coding entropy at bit precision N: log of the generalized
    Laguerre polynomial of degree K-1 with parameter 1 at ``-2^N``, finite
    for every K and N (see ``_log_laguerre_at_minus_pow2``)."""
    _check_maxent_args(K, N)
    return _log_laguerre_at_minus_pow2(int(K) - 1, 1.0, int(N))


@dataclass(frozen=True, eq=False)
class MaxEntMixed:
    """The coding-entropy-maximizing mixed distribution on the simplex.

    Every face of dimension k-1 has the same probability ``g(k) / C(K,k)``
    and the conditional within each face is flat.
    """

    K: int
    N: int
    g: np.ndarray

    def __init__(self, K: int, N: int):
        from scipy.special import logsumexp

        logw = maxent_log_weights(K, N)
        freeze(self, K=int(K), N=int(N), g=np.exp(logw - logsumexp(logw)))

    def log_density_many(self, batch: FaceBatch) -> np.ndarray:
        """Face log-probability plus the flat conditional's log-density,
        ``log (k-1)!`` on a face with k vertices."""
        check_same_k(batch.K, self.K)
        from scipy.special import gammaln

        k = np.arange(1, self.K + 1)
        with np.errstate(divide="ignore"):
            by_size = np.log(self.g) - _log_binom(self.K, k) + gammaln(k)
        return by_size[vertex_counts(batch.masks) - 1]

    def sample_many(self, n: int, rng: np.random.Generator) -> FaceBatch:
        from .mixed_dirichlet import dirichlet_log_fill

        masks = maxent_sample_face_masks(self, n, rng)
        return FaceBatch.from_log_coords(masks, dirichlet_log_fill(masks, np.ones(self.K), rng))

    def exact_face_distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """Every face bitmask (``enumerate_faces`` order) and its probability,
        ``g(k) / C(K, k)`` on a face with k vertices."""
        masks = enumerate_faces(self.K)
        k = vertex_counts(masks)
        with np.errstate(divide="ignore"):
            return masks, np.exp(np.log(self.g[k - 1]) - _log_binom(self.K, k))

    def direct_sum_entropy(self) -> float:
        """Exact H(F) + E[flat entropy]; equals maxent_entropy at N=0."""
        from scipy.special import gammaln

        k = np.arange(1, self.K + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(self.g > 0, self.g * (np.log(self.g) - _log_binom(self.K, k)), 0.0)
        return float(-terms.sum() - self.g @ gammaln(k))

    def direct_sum_kl(self, other: "MaxEntMixed") -> float:
        """Exact KL(self || other) for one K: the laws share the flat
        conditionals and spread each class over its faces alike, so this is
        the KL of the class weights g; ``inf`` where a class that self
        weighs has weight 0 (underflow) under other."""
        check_same_k(self.K, other.K)
        on = self.g > 0.0  # a class whose weight underflows to 0 under self adds 0
        gp, gq = self.g[on], other.g[on]
        if not gq.all():
            return float("inf")
        return float(np.sum(gp * (np.log(gp) - np.log(gq))))


def maxent_sample_face_masks(d: MaxEntMixed, n: int, rng: np.random.Generator) -> np.ndarray:
    """n face bitmasks: dimension class from g, then a uniform subset of
    that size (the first k slots of a random permutation per row)."""
    ks = rng.choice(np.arange(1, d.K + 1), size=n, p=d.g)
    order = np.argsort(rng.random((n, d.K)), axis=1)
    member = np.zeros((n, d.K), dtype=bool)
    np.put_along_axis(member, order, np.arange(d.K) < ks[:, None], axis=1)
    return member_masks(member)
