"""Extrinsic (sample-and-project) mixed distributions.

These distributions are defined by pushing a distribution on R^K through a
projection onto the simplex (or onto [0,1] in the binary case), so they can
place probability mass on every face:

* Gaussian-Sparsemax: sparsemax of an independent Gaussian vector.  For
  K=2 the face probabilities, entropy, and KL have closed forms in the
  normal CDF; for general K the density w.r.t. the direct-sum measure is a
  marginal Gaussian factor times a Gaussian orthant probability, the latter
  reduced to a one-dimensional integral evaluated by composite
  Gauss-Legendre quadrature.
* K-D Hard Concrete: sparsemax of a stretched Concrete (Gumbel-softmax)
  draw; the stretch factor controls how often the projection hits a
  non-maximal face.
* Binary Hard Concrete: the classic stretch-and-rectify construction on
  [0,1].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_ndtr, logsumexp, ndtr, ndtri, xlogy

from .simplex import FaceBatch, FaceIndexSet, SimplexPoint, Trit, face_groups, hypercube_face_of, sparsemax_rows

__all__ = [
    "QuadratureConfig",
    "GaussianSparsemax",
    "Concrete",
    "KDHardConcrete",
    "BinaryHardConcrete",
    "gs_sample_many",
    "gs2_params",
    "gs2_face_probs",
    "gs2_entropy",
    "gs2_kl",
    "gs2_log_density_extrinsic",
    "gs2_log_density_intrinsic",
    "gs_log_density",
    "gs_log_density_many",
    "concrete_from_gumbels",
    "binary_hard_concrete_sample",
    "binary_hard_concrete_from_logistic",
    "binary_hard_concrete_sample_values",
]

_LOG_2PI = float(np.log(2.0 * np.pi))

#: Inset from the endpoints of (0, 1) where the inverse normal CDF blows up.
_ENDPOINT_INSET = 1e-12

#: Minimum total node count accepted for density evaluations.
_MIN_DENSITY_NODES = 256


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre rule on (0, 1) with a fixed node count per
    panel.  Panel widths shrink geometrically toward both endpoints, where
    the inverse normal CDF in the integrands has fractional-power
    singularities that equal-width panels resolve poorly."""

    panels: int = 64
    nodes: int = 16

    def __post_init__(self):
        if self.panels < 2 or self.nodes < 2:
            raise ValueError(f"need panels >= 2 and nodes >= 2, got {self}")

    def points_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights on (0, 1), read-only and built once per config."""
        pts, wts, _, _ = _quadrature_rule(self)
        return pts, wts


@functools.lru_cache(maxsize=None)
def _quadrature_rule(quad: QuadratureConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights, ``ndtri(nodes)`` and ``log(weights)`` of a rule."""
    x, w = np.polynomial.legendre.leggauss(quad.nodes)
    left = quad.panels // 2
    right = quad.panels - left
    lo = _ENDPOINT_INSET
    hi = 1.0 - _ENDPOINT_INSET
    # edges at 0.5 * q^j, geometric from the inset up to the midpoint
    edges_left = 0.5 * (2.0 * lo) ** (np.arange(left, -1, -1) / left)
    edges_right = 1.0 - 0.5 * (2.0 * (1.0 - hi)) ** (np.arange(0, right + 1) / right)
    edges = np.concatenate([edges_left, edges_right[1:]])
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    rule = (pts, wts, ndtri(pts), np.log(wts))
    for a in rule:
        a.flags.writeable = False
    return rule


def _norm_logpdf(x, mean, sd):
    z = (np.asarray(x) - mean) / sd
    return -0.5 * z * z - np.log(sd) - 0.5 * _LOG_2PI


def _norm_pdf(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True, eq=False)
class GaussianSparsemax:
    """Sparsemax projection of a coordinatewise-independent Gaussian."""

    mu: np.ndarray
    sigma: np.ndarray

    def __init__(self, mu, sigma):
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        if mu.ndim != 1 or mu.size < 2:
            raise ValueError("mu must be a vector of length >= 2")
        if sigma.shape != mu.shape:
            raise ValueError("sigma must match mu in shape")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise ValueError("parameters must be finite")
        if np.any(sigma <= 0.0):
            raise ValueError(f"sigma must be > 0, got {sigma}")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.sum(sigma ** -2.0)):
                raise ValueError(f"sigma too small: the sum of sigma^-2 overflows, got {sigma}")
        mu, sigma = mu.copy(), sigma.copy()
        mu.flags.writeable = False
        sigma.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def K(self) -> int:
        return self.mu.size

    # MixedDistribution capability
    def sample_many(self, n: int, rng: np.random.Generator) -> FaceBatch:
        return gs_sample_many(self, n, rng)

    def log_density_many(self, batch: FaceBatch, quad: QuadratureConfig | None = None) -> np.ndarray:
        return gs_log_density_many(self, batch, quad)

    def exact_face_distribution(self) -> dict[FaceIndexSet, float]:
        if self.K != 2:
            raise NotImplementedError("closed-form face probabilities exist only for K=2")
        z, s = gs2_params(self)
        p0, p1, pc = gs2_face_probs(z, s)
        return {
            FaceIndexSet(0b01, 2): p1,  # vertex (1, 0)
            FaceIndexSet(0b10, 2): p0,  # vertex (0, 1)
            FaceIndexSet(0b11, 2): pc,
        }


# benchmarks/tracer.py looks the batch projection up under this name
_sparsemax_batch = sparsemax_rows


def gs_sample_many(d: GaussianSparsemax, n: int, rng: np.random.Generator) -> FaceBatch:
    """n projected draws, each on the face of its exact zeros."""
    z = d.mu + d.sigma * rng.standard_normal((n, d.K))
    return FaceBatch.from_coords(sparsemax_rows(z))


# ---------------------------------------------------------------------------
# K = 2 closed forms.  The two-coordinate distribution is equivalent to the
# scalar variable y = clamp(v, 0, 1) with v ~ N(z, sigma^2); gs2_params maps
# (mu, sigma) of a K=2 GaussianSparsemax to that (z, sigma).
# ---------------------------------------------------------------------------

def gs2_params(d: GaussianSparsemax) -> tuple[float, float]:
    """Scalar (z, sigma) of the hard-sigmoid form of a K=2 instance."""
    if d.K != 2:
        raise ValueError("gs2_params needs K=2")
    z = 0.5 * (1.0 + d.mu[0] - d.mu[1])
    s = 0.5 * float(np.sqrt(d.sigma[0] ** 2 + d.sigma[1] ** 2))
    return float(z), s


def _check_sigma(sigma: float) -> float:
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    return float(sigma)


def gs2_face_probs(z: float, sigma: float) -> tuple[float, float, float]:
    """(mass at 0, mass at 1, interior mass) of clamp(N(z, sigma^2), 0, 1)."""
    sigma = _check_sigma(sigma)
    p0 = float(ndtr(-z / sigma))
    p1 = float(ndtr((z - 1.0) / sigma))
    return p0, p1, max(1.0 - p0 - p1, 0.0)


def _truncated_moments(z: float, sigma: float) -> tuple[float, float, float]:
    """Moments of the standard normal restricted to ((0-z)/s, (1-z)/s).

    Returns (M0, M1, M2) with M_j = integral of t^j * pdf(t) over the
    interval; M0 is the interior mass.
    """
    a = -z / sigma
    b = (1.0 - z) / sigma
    m0 = float(ndtr(b) - ndtr(a))
    m1 = float(_norm_pdf(a) - _norm_pdf(b))
    m2 = m0 - float(b * _norm_pdf(b)) + float(a * _norm_pdf(a))
    return m0, m1, m2


def gs2_entropy(z: float, sigma: float) -> float:
    """Direct-sum entropy of the K=2 Gaussian-Sparsemax, closed form.

    Discrete part over the two vertex masses, plus
    ``-int_0^1 N(y; z, sigma^2) log N(y; z, sigma^2) dy`` expressed through
    truncated normal moments.
    """
    sigma = _check_sigma(sigma)
    p0, p1, _ = gs2_face_probs(z, sigma)
    m0, _, m2 = _truncated_moments(z, sigma)
    cont = m0 * 0.5 * np.log(2.0 * np.pi * sigma**2) + 0.5 * m2
    return float(-xlogy(p0, p0) - xlogy(p1, p1) + cont)


def _kl_term(p: float, q: float) -> float:
    if p == 0.0:
        return 0.0
    if q == 0.0:
        return np.inf
    return p * np.log(p / q)


def gs2_kl(z_p: float, sigma_p: float, z_q: float, sigma_q: float) -> float:
    """Direct-sum KL between two K=2 Gaussian-Sparsemax laws, closed form.

    Equals the vertex-mass KL terms plus
    ``int_0^1 N_p log(N_p / N_q)``; the cross term integrates the quadratic
    of q under the truncated p-normal via its first two moments.
    """
    sigma_p = _check_sigma(sigma_p)
    sigma_q = _check_sigma(sigma_q)
    p0, p1, _ = gs2_face_probs(z_p, sigma_p)
    q0, q1, _ = gs2_face_probs(z_q, sigma_q)
    m0, m1, m2 = _truncated_moments(z_p, sigma_p)
    delta = z_p - z_q
    int_p_log_p = -(m0 * 0.5 * np.log(2.0 * np.pi * sigma_p**2) + 0.5 * m2)
    e_quad = sigma_p**2 * m2 + 2.0 * sigma_p * delta * m1 + delta**2 * m0
    int_p_log_q = -m0 * 0.5 * np.log(2.0 * np.pi * sigma_q**2) - e_quad / (2.0 * sigma_q**2)
    return float(_kl_term(p0, q0) + _kl_term(p1, q1) + int_p_log_p - int_p_log_q)


def gs2_log_density_extrinsic(y: float, z: float, sigma: float) -> float:
    """Scalar-form log-density: normal pdf inside (0,1), tail masses at 0/1."""
    sigma = _check_sigma(sigma)
    p0, p1, _ = gs2_face_probs(z, sigma)
    if y == 0.0:
        return float(np.log(p0))
    if y == 1.0:
        return float(np.log(p1))
    return float(_norm_logpdf(y, z, sigma))


def gs2_log_density_intrinsic(y: float, z: float, sigma: float) -> float:
    """Same density assembled as face probability times the conditional."""
    sigma = _check_sigma(sigma)
    p0, p1, pc = gs2_face_probs(z, sigma)
    if y == 0.0:
        return float(np.log(p0))
    if y == 1.0:
        return float(np.log(p1))
    log_cond = float(_norm_logpdf(y, z, sigma)) - np.log(pc)
    return float(np.log(pc) + log_cond)


# ---------------------------------------------------------------------------
# General-K density: marginal Gaussian factor of the support coordinates
# times the negative-orthant probability of the off-support conditional,
# itself a 1-D integral over (0, 1).
# ---------------------------------------------------------------------------

#: Elements of the (rows, nodes, |off|) quadrature array evaluated at once.
_ORTHANT_CHUNK = 1 << 16


def _orthant_log(mu_off, sigma_off, t: float, c: np.ndarray, quad: QuadratureConfig) -> np.ndarray:
    """Log orthant probability of the off-face coordinates (``mu_off``,
    ``sigma_off``) of one face with precision sum ``t``, at each ``c``."""
    _, _, z, log_w = _quadrature_rule(quad)
    shift = (c[:, None] + mu_off * t) / (sigma_off * t)
    scaled = z[:, None] / (sigma_off * np.sqrt(t))[None, :]
    out = np.empty(c.size)
    step = max(1, _ORTHANT_CHUNK // scaled.size)
    for i in range(0, c.size, step):
        args = scaled[None, :, :] - shift[i:i + step, None, :]
        out[i:i + step] = logsumexp(log_ndtr(args).sum(axis=2) + log_w, axis=1)
    return out


def gs_log_density_many(d: GaussianSparsemax, batch: FaceBatch,
                        quad: QuadratureConfig | None = None) -> np.ndarray:
    """Log-density of each row of a batch w.r.t. the direct-sum measure.

    With a_k = sigma_k^-2 and r = y - mu on a face S of s vertices, let
    ``t = sum_S a_k``, ``c = sum_S a_k r_k`` and ``q = sum_S a_k (r_k -
    c/t)^2``.  The support coordinates contribute ``log s - (q + sum_S log
    sigma_k^2 + log t + (s - 1) log 2 pi) / 2`` (0 at vertices), the density
    of their differences; the off-support coordinates the log orthant
    probability, by quadrature per distinct face.  With all sigmas equal, c
    is the same on every row of a face (rows sum to 1), so the orthant term
    is evaluated at the face's first row only.
    """
    quad = QuadratureConfig() if quad is None else quad
    if quad.panels * quad.nodes < _MIN_DENSITY_NODES:
        raise ValueError(f"density evaluation needs panels*nodes >= {_MIN_DENSITY_NODES}, got {quad}")
    if batch.K != d.K:
        raise ValueError(f"point has K={batch.K}, distribution has K={d.K}")
    member = batch.members()
    a = d.sigma ** -2.0
    a_on = np.where(member, a, 0.0)
    t = a_on.sum(axis=1)
    r = batch.coords - d.mu
    c = np.sum(a_on * r, axis=1)
    q = np.sum(a_on * (r - (c / t)[:, None]) ** 2, axis=1)
    s = member.sum(axis=1)
    log_det = np.where(member, -np.log(a), 0.0).sum(axis=1) + np.log(t)
    out = np.log(s) + np.where(s > 1, -0.5 * (q + log_det + (s - 1) * _LOG_2PI), 0.0)
    equal_sigma = bool(np.all(d.sigma == d.sigma[0]))
    for _, rows in face_groups(batch.masks):
        off = ~member[rows[0]]
        if off.any():
            at = rows[:1] if equal_sigma else rows
            out[rows] += _orthant_log(d.mu[off], d.sigma[off], t[rows[0]], c[at], quad)
    return out


def gs_log_density(d: GaussianSparsemax, y: SimplexPoint,
                   quad: QuadratureConfig | None = None) -> float:
    """``gs_log_density_many`` at a single point."""
    return float(gs_log_density_many(d, FaceBatch.from_coords(y.coords[None]), quad)[0])


# ---------------------------------------------------------------------------
# Concrete (Gumbel-softmax) and the Hard Concrete projections.
# ---------------------------------------------------------------------------

def _gumbel(rng: np.random.Generator, shape) -> np.ndarray:
    u = np.clip(rng.random(shape), 1e-300, 1.0 - 1e-16)
    return -np.log(-np.log(u))


def concrete_from_gumbels(z, beta: float, g: np.ndarray) -> np.ndarray:
    """Softmax at temperature beta of logits plus given Gumbel noise."""
    x = (np.asarray(z, dtype=float) + g) / beta
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    # guard subnormal underflow so samples stay in the relative interior
    e = np.maximum(e, 1e-300)
    return e / e.sum(axis=-1, keepdims=True)


def _check_concrete_args(z, beta: float) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise ValueError("z must be a vector of length >= 2")
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    if not (np.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be > 0, got {beta}")
    return z


@dataclass(frozen=True, eq=False)
class Concrete:
    """Concrete (Gumbel-softmax) law with logits ``z`` at temperature ``beta``;
    sampling only, every draw in the relative interior."""

    z: np.ndarray
    beta: float

    def __init__(self, z, beta):
        z = _check_concrete_args(z, beta).copy()
        z.flags.writeable = False
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "beta", float(beta))

    @property
    def K(self) -> int:
        return self.z.size

    def sample_many(self, n: int, rng: np.random.Generator) -> FaceBatch:
        return FaceBatch.from_coords(concrete_from_gumbels(self.z, self.beta, _gumbel(rng, (n, self.K))))


@dataclass(frozen=True, eq=False)
class KDHardConcrete:
    """Sparsemax of a Concrete draw stretched by ``lam >= 1``."""

    z: np.ndarray
    beta: float
    lam: float = 1.1

    def __init__(self, z, beta, lam=1.1):
        z = _check_concrete_args(z, beta)
        if not (np.isfinite(lam) and lam >= 1.0):
            raise ValueError(f"stretch lam must be >= 1, got {lam}")
        z = z.copy()
        z.flags.writeable = False
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(self, "lam", float(lam))

    @property
    def K(self) -> int:
        return self.z.size

    def sample_many(self, n: int, rng: np.random.Generator) -> FaceBatch:
        y_soft = concrete_from_gumbels(self.z, self.beta, _gumbel(rng, (n, self.K)))
        return FaceBatch.from_coords(sparsemax_rows(self.lam * y_soft))


@dataclass(frozen=True)
class BinaryHardConcrete:
    """Binary Concrete stretched to (l, r) and clamped back to [0, 1]."""

    log_alpha: float
    beta: float
    l: float = -0.1
    r: float = 1.1

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not (self.l < 0.0 < 1.0 < self.r):
            raise ValueError(f"stretch interval must satisfy l < 0 < 1 < r, got ({self.l}, {self.r})")

    def sample_many(self, n: int, rng: np.random.Generator) -> FaceBatch:
        """n draws embedded in the two-vertex simplex as ``(y, 1 - y)``."""
        y = binary_hard_concrete_sample_values(self, n, rng)
        return FaceBatch.from_coords(np.stack([y, 1.0 - y], axis=1))


def binary_hard_concrete_from_logistic(d: BinaryHardConcrete, noise) -> np.ndarray:
    """Map standard-logistic noise through the stretch-and-clamp transform."""
    s = expit((d.log_alpha + np.asarray(noise, dtype=float)) / d.beta)
    return np.clip(s * (d.r - d.l) + d.l, 0.0, 1.0)


def binary_hard_concrete_sample(d: BinaryHardConcrete, rng: np.random.Generator) -> tuple[Trit, float]:
    u = np.clip(rng.random(), 1e-300, 1.0 - 1e-16)
    y = float(binary_hard_concrete_from_logistic(d, np.log(u) - np.log1p(-u)))
    return hypercube_face_of([y]).trits[0], y


def binary_hard_concrete_sample_values(d: BinaryHardConcrete, n: int, rng: np.random.Generator) -> np.ndarray:
    u = np.clip(rng.random(n), 1e-300, 1.0 - 1e-16)
    return binary_hard_concrete_from_logistic(d, np.log(u) - np.log1p(-u))
