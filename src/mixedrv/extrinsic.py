"""Extrinsic (sample-and-project) mixed distributions.

These distributions are defined by pushing a distribution on R^K through a
projection onto the simplex (or onto [0,1] in the binary case), so they can
place probability mass on every face:

* Gaussian-Sparsemax: sparsemax of an independent Gaussian vector.  For
  K=2 the face probabilities, entropy, and KL have closed forms in the
  normal CDF; for general K the density w.r.t. the direct-sum measure is a
  marginal Gaussian factor times a Gaussian orthant probability, the latter
  reduced to a one-dimensional integral evaluated by one fixed composite
  Gauss-Legendre rule, ``_QUAD``.
* K-D Hard Concrete: sparsemax of a stretched Concrete (Gumbel-softmax)
  draw; the stretch factor controls how often the projection hits a
  non-maximal face.
* Binary Hard Concrete: the classic stretch-and-rectify construction on
  [0,1].

``benchmarks/tracer.py`` patches three names that the library itself would
not need: ``_sparsemax_batch`` (an alias of ``sparsemax_rows``),
``gs_log_density`` (one point) and ``QuadratureConfig.points_weights``,
called once per node set.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from .simplex import (FaceBatch, SimplexPoint, check_same_k, check_scalar, check_vector, enumerate_faces,
                      face_groups, freeze, mask_members, one_line, row_max, sparsemax_rows, vertex_counts)

__all__ = [
    "GaussianSparsemax",
    "Concrete",
    "KDHardConcrete",
    "BinaryHardConcrete",
    "gs_sample_many",
    "gs2_params",
    "gs2_face_probs",
    "gs2_entropy",
    "gs2_kl",
    "gs_log_density",
    "gs_log_density_many",
    "concrete_from_gumbels",
    "binary_hard_concrete_from_logistic",
    "binary_hard_concrete_sample_values",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class QuadratureConfig:
    """The composite Gauss-Legendre rule of the orthant integral, one
    instance ``_QUAD``: ``nodes`` Gauss-Legendre nodes per panel, and
    ``panels`` equal panels across the narrowest window of a node set's
    rows, where each row's integrand is within exp(-40.5) of its peak
    (edges at mu_j +- sigma_j 2^k are added around steps narrower than a
    panel).  The nodes are offsets from the set's left edge, so 12 panels
    hold the density within about 1e-15 relative of 320-digit and 40-digit
    references wherever the windows are resolved; 12 panels of 8 nodes
    lose about 1e-11."""

    panels: int = 12
    nodes: int = 16

    def points_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """One panel's nodes and weights on [-1, 1], read-only and built
        once per node count."""
        return _legendre(self.nodes)


_QUAD = QuadratureConfig()


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _norm_pdf(x):
    with np.errstate(over="ignore"):  # |x| above about 1.3e154 squares to inf, and exp(-inf) = 0
        return np.exp(-0.5 * np.asarray(x) ** 2) / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True, eq=False)
class GaussianSparsemax:
    """Sparsemax projection of a coordinatewise-independent Gaussian."""

    mu: np.ndarray
    sigma: np.ndarray

    def __init__(self, mu, sigma):
        mu = check_vector("mu", mu)
        sigma = check_vector("sigma", sigma, positive=True)
        check_same_k(mu.size, sigma.size, "mu vs sigma")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.sum(sigma ** -2.0)):
                raise ValueError(f"sigma too small: the sum of sigma^-2 overflows, got {one_line(sigma)}")
            if not np.isfinite(np.sum(sigma ** 2.0)):
                raise ValueError(f"sigma too large: the sum of sigma^2 overflows, got {one_line(sigma)}")
        freeze(self, mu=mu, sigma=sigma)

    @property
    def K(self) -> int:
        return self.mu.size

    # MixedDistribution capability
    def sample_many(self, n: int, rng: np.random.Generator) -> FaceBatch:
        return gs_sample_many(self, n, rng)

    def log_density_many(self, batch: FaceBatch) -> np.ndarray:
        return gs_log_density_many(self, batch)

    def exact_face_distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """Face bitmasks 1, 2, 3 (``enumerate_faces`` order: the vertices
        (1, 0) and (0, 1), then the edge) and their closed-form
        probabilities; K = 2 only."""
        if self.K != 2:
            raise NotImplementedError("closed-form face probabilities exist only for K=2")
        p0, p1, pc = gs2_face_probs(*gs2_params(self))
        return enumerate_faces(2), np.array([p1, p0, pc])

    def direct_sum_entropy(self) -> float:
        """``gs2_entropy``; K = 2 only."""
        if self.K != 2:
            raise NotImplementedError("closed-form direct-sum entropy exists only for K=2")
        return gs2_entropy(*gs2_params(self))

    def direct_sum_kl(self, other: "GaussianSparsemax") -> float:
        """``gs2_kl``; K = 2 only."""
        if self.K != 2 or other.K != 2:
            raise NotImplementedError("closed-form direct-sum KL exists only for K=2")
        return gs2_kl(*gs2_params(self), *gs2_params(other))


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


def gs2_face_probs(z: float, sigma: float) -> tuple[float, float, float]:
    """(mass at 0, mass at 1, interior mass) of clamp(N(z, sigma^2), 0, 1)."""
    from scipy.special import ndtr

    sigma = check_scalar("sigma", sigma, 0.0)
    p0 = float(ndtr(-z / sigma))
    p1 = float(ndtr((z - 1.0) / sigma))
    return p0, p1, max(1.0 - p0 - p1, 0.0)


def _truncated_moments(z: float, sigma: float) -> tuple[float, float, float]:
    """Moments of the standard normal restricted to ((0-z)/s, (1-z)/s).

    Returns (M0, M1, M2) with M_j = integral of t^j * pdf(t) over the
    interval; M0 is the interior mass.
    """
    from scipy.special import ndtr

    a = -z / sigma
    b = (1.0 - z) / sigma
    m0 = float(ndtr(b) - ndtr(a))
    pdf_a, pdf_b = float(_norm_pdf(a)), float(_norm_pdf(b))
    # t pdf(t) is 0 where pdf(t) is, t = +-inf included
    return m0, pdf_a - pdf_b, m0 - (b * pdf_b if pdf_b else 0.0) + (a * pdf_a if pdf_a else 0.0)


def gs2_entropy(z: float, sigma: float) -> float:
    """Direct-sum entropy of the K=2 Gaussian-Sparsemax, closed form.

    Discrete part over the two vertex masses, plus
    ``-int_0^1 N(y; z, sigma^2) log N(y; z, sigma^2) dy`` expressed through
    truncated normal moments.
    """
    from scipy.special import xlogy

    sigma = check_scalar("sigma", sigma, 0.0)
    p0, p1, _ = gs2_face_probs(z, sigma)
    m0, _, m2 = _truncated_moments(z, sigma)
    cont = m0 * 0.5 * np.log(2.0 * np.pi * sigma**2) + 0.5 * m2 if m0 else 0.0  # 0 without interior mass
    return float(-xlogy(p0, p0) - xlogy(p1, p1) + cont)


def _gs2_log_vertex_masses(z: float, sigma: float) -> tuple[float, float]:
    """Logarithms of the masses at 0 and at 1 of ``gs2_face_probs``, finite
    where the masses underflow."""
    from scipy.special import log_ndtr

    return float(log_ndtr(-z / sigma)), float(log_ndtr((z - 1.0) / sigma))


def _kl_term(log_p: float, log_q: float) -> float:
    """``p log(p / q)`` from the log-masses: finite however small q is, and
    0 where p underflows to 0."""
    p = np.exp(log_p)
    return 0.0 if p == 0.0 else p * (log_p - log_q)


def gs2_kl(z_p: float, sigma_p: float, z_q: float, sigma_q: float) -> float:
    """Direct-sum KL between two K=2 Gaussian-Sparsemax laws, closed form.

    Equals the vertex-mass KL terms plus
    ``int_0^1 N_p log(N_p / N_q)``; the cross term integrates the quadratic
    of q under the truncated p-normal via its first two moments.
    """
    sigma_p = check_scalar("sigma_p", sigma_p, 0.0)
    sigma_q = check_scalar("sigma_q", sigma_q, 0.0)
    log_p0, log_p1 = _gs2_log_vertex_masses(z_p, sigma_p)
    log_q0, log_q1 = _gs2_log_vertex_masses(z_q, sigma_q)
    vertices = _kl_term(log_p0, log_q0) + _kl_term(log_p1, log_q1)
    m0, m1, m2 = _truncated_moments(z_p, sigma_p)
    if not m0:  # the interior terms are 0 without interior mass
        return float(vertices)
    delta = z_p - z_q
    int_p_log_p = -(m0 * 0.5 * np.log(2.0 * np.pi * sigma_p**2) + 0.5 * m2)
    try:
        e_quad = sigma_p**2 * m2 + 2.0 * sigma_p * delta * m1 + delta**2 * m0
    except OverflowError:  # delta^2 beyond the double range: the interior term is +inf
        e_quad = np.inf
    int_p_log_q = -m0 * 0.5 * np.log(2.0 * np.pi * sigma_q**2) - e_quad / (2.0 * sigma_q**2)
    return float(vertices + int_p_log_p - int_p_log_q)


# ---------------------------------------------------------------------------
# General-K density: marginal Gaussian factor of the support coordinates
# times the negative-orthant probability of the off-support conditional,
# itself the 1-D integral over V of N(V; -c/t, 1/t) prod_j Phi((V - mu_j) /
# sigma_j), the product running over the off-face coordinates.
# ---------------------------------------------------------------------------

#: Elements of the (rows, nodes) reweighting array evaluated at once (256
#: KB), the one buffer whose size grows with the rows.
_ORTHANT_CHUNK = 1 << 15

#: A row's window is where its log-integrand lies within this drop of its
#: peak.  The log-integrand is concave, so the mass left outside is below
#: exp(-drop) relative; its curvature is at least t, so the window is at
#: most 2 sqrt(2 drop / t) = 18 / sqrt(t) wide.
_WINDOW_DROP = 40.5

#: Cap on the Newton steps of each window search; they take a few, and
#: every iterate is already a valid answer.
_NEWTON_STEPS = 100

#: One node set serves rows whose windows together span at most this many
#: times the narrowest of them; rows further apart get node sets of their own.
_MAX_SPAN = 4.0

#: A face keeps node sets of its own from this many rows per off-face
#: coordinate.  Below it, a set's fixed cost (clustering its windows,
#: building its nodes and each step's log Phi there) outweighs what its rows
#: save on the narrower span of their own face's windows.  Measured on the
#: extrinsic benchmark's laws (K = 6, 2-core x86-64 host), 32 to 128 all take
#: about 0.85x the time of 4 up to 500 rows and 0.93-0.99x at 10^4 and 10^5
#: rows, where pooling every face takes 1.07-1.15x; with 64, their batches
#: of up to 200 rows pool every face.
_OWN_SET_ROWS = 64

#: Windows narrower than this share of their distance from 0 leave too few
#: distinct doubles for the rule; such rows take the Laplace approximation.
_MIN_RELATIVE_WIDTH = 1e-9

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))

#: |z| clip of the window search: log_ndtr(z) overflows to -inf below about
#: -1.9e154, and every z above 40 has Phi(z) = 1 in double precision.
_Z_MAX = 1e150


# The log-integrand of row i, less its constant (log t_i - log 2 pi) / 2, is
# f_i(V) = sum_j log Phi(z_j) - t_i (V - m_i)^2 / 2 with z_j = (V - mu_j) /
# sigma_j over the row's off-face coordinates j.  Those come flattened as
# one entry each: ``row`` names the entry's row, ``mu_e``/``sigma_e`` its
# coordinate's parameters.  Each point's z is formed once, by ``_z``, and
# ``_log_f`` and its slopes all read it, with dv = V - m.

def _z(v, row, mu_e, sigma_e) -> np.ndarray:
    return np.clip((v[row] - mu_e) / sigma_e, -_Z_MAX, _Z_MAX)


def _log_f(z, dv, t, row) -> np.ndarray:
    from scipy.special import log_ndtr

    return np.bincount(row, log_ndtr(z), dv.size) - 0.5 * t * dv * dv


def _log_f_slope(z, dv, t, row, sigma_e) -> tuple[np.ndarray, np.ndarray]:
    """First derivative of ``_log_f``, with each entry's inverse Mills
    ratio."""
    from scipy.special import erfcx

    # inverse Mills ratio phi(z) / Phi(z), free of cancellation in both tails
    lam = _SQRT_2_OVER_PI / erfcx(z * -np.sqrt(0.5))
    return np.bincount(row, lam / sigma_e, dv.size) - t * dv, lam


def _log_f_slopes(z, dv, t, row, sigma_e) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of ``_log_f``."""
    f1, lam = _log_f_slope(z, dv, t, row, sigma_e)
    # lam (z + lam) = 1 - 1/z^2 + O(z^-4) as z -> -inf, where z + lam cancels
    bend = np.where(z > -1e4, lam * (z + lam), 1.0 - (1.0 / np.minimum(z, -1e4)) ** 2)
    return f1, -t - np.bincount(row, bend / sigma_e / sigma_e, dv.size)


def _row_windows(m, t, mu, sigma, off) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, an interval outside which the log-integrand lies more than
    ``_WINDOW_DROP`` below its peak, and the Laplace approximation of the
    log orthant probability; ``off`` marks each row's off-face coordinates.

    The mode is found by Newton from the Gaussian mean: the slope is convex
    and decreasing there, so the iterates rise to the root without
    overshooting.  From any point v left of the mode, curvature >= t puts
    both drop points within ``(+-f'(v) + sqrt(f'(v)^2 + 2 drop t)) / t``
    of v; Newton on the concave log-integrand then walks each edge in from
    outside, so every iterate is a valid edge.  Where a Newton step is lost
    below the spacing of doubles, the search stops there.

    Every pass forms each point's z once: the mode's last z gives the peak,
    and the edge search takes a slope only while some edge still lies below
    its level (a nan level test counts as below)."""
    row, col = np.nonzero(off)
    mu_e, sigma_e = mu[col], sigma[col]
    v = m.copy()
    z = _z(v, row, mu_e, sigma_e)
    f1, f2 = _log_f_slopes(z, v - m, t, row, sigma_e)
    for _ in range(_NEWTON_STEPS):
        step = v + f1 / -f2
        # a step below the spacing of doubles at v: v is the mode
        f1 = np.where(step == v, 0.0, f1)
        if np.all(np.abs(f1) <= 0.1 * np.sqrt(-f2)):
            break
        v = step
        z = _z(v, row, mu_e, sigma_e)
        f1, f2 = _log_f_slopes(z, v - m, t, row, sigma_e)
    peak = _log_f(z, v - m, t, row)
    # distances (hypot(f1, sqrt(2 drop t)) +- f1) / t, the smaller one in a
    # form free of cancellation
    big = np.hypot(f1, np.sqrt(2.0 * _WINDOW_DROP * t)) + np.abs(f1)
    near, far = 2.0 * _WINDOW_DROP / big, big / t
    edge = np.concatenate([v - np.where(f1 >= 0.0, near, far), v + np.where(f1 >= 0.0, far, near)])
    level = np.tile(peak - _WINDOW_DROP, 2)
    m2, t2 = np.tile(m, 2), np.tile(t, 2)
    row2, mu_e2, sigma_e2 = np.concatenate([row, row + m.size]), np.tile(mu_e, 2), np.tile(sigma_e, 2)
    for _ in range(_NEWTON_STEPS):
        z, dv = _z(edge, row2, mu_e2, sigma_e2), edge - m2
        g = _log_f(z, dv, t2, row2)
        below = ~(g >= level - 1.0)
        if not below.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            step = edge - (g - level) / _log_f_slope(z, dv, t2, row2, sigma_e2)[0]
        step = np.where(np.isfinite(step), step, edge)
        if np.all(~below | (step == edge)):
            break
        edge = step
    return edge[:m.size], edge[m.size:], peak + 0.5 * (np.log(t) - np.log(-f2))


def _clusters(lo: np.ndarray, hi: np.ndarray) -> list[np.ndarray]:
    """Rows grouped, in order of ``lo``, so that each group's windows span
    at most ``_MAX_SPAN`` times its narrowest window."""
    if hi.max() - lo.min() <= _MAX_SPAN * np.min(hi - lo):
        return [np.arange(lo.size)]
    order = np.argsort(lo)
    groups, start = [], 0
    a, b = lo[order[0]], hi[order[0]]
    width = b - a
    for k, (l, h) in enumerate(zip(lo[order].tolist(), hi[order].tolist())):
        b, width = max(b, h), min(width, h - l)
        if b - a > _MAX_SPAN * width:
            groups.append(order[start:k])
            start, a, b, width = k, l, h, h - l
    groups.append(order[start:])
    return groups


def _step_edges(mu, sigma, h: float) -> np.ndarray:
    """Panel edges ``mu_j +- sigma_j 2^k`` below ``h`` from each step."""
    reach = sigma[:, None] * 2.0 ** np.arange(int(np.log2(h) - np.log2(sigma.min())) + 1)
    keep = reach < h
    centers = np.broadcast_to(mu[:, None], reach.shape)[keep]
    return np.concatenate([centers - reach[keep], centers + reach[keep]])


def _orthant_log(mu, sigma, masks: np.ndarray, t: np.ndarray, m: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray:
    """Log orthant probability of the law (``mu``, ``sigma``) for rows on
    the faces ``masks`` (the rows of each face adjacent), with precision
    sums ``t``, Gaussian means ``m`` and windows ``[lo, hi]`` (see
    ``_clusters``).

    One node set serves all the rows: ``_QUAD.panels`` equal panels across
    the narrowest row window, spanning the union of the windows, plus edges
    at ``mu_j +- sigma_j 2^k`` around each step narrower than a panel, for
    every coordinate off-face for some row.  Each step is evaluated once
    per node; the rows of a face sum their own steps into one base, and
    each row only adds its Gaussian log-weight.

    Nodes, edges, the steps' centres mu_j and the rows' means m_i are all
    offsets from the set's left edge a = ``lo.min()``, so V - m_i and V -
    mu_j are differences of small numbers: with absolute nodes, t (V -
    m_i)^2 would carry the rounding of V, ulp(V) sqrt(t), which grows as the
    windows narrow (1e-9 relative at on-face sigma 1e-8)."""
    from scipy.special import log_ndtr

    # rows runs[r]:runs[r + 1] share a face, and with it t and the base
    runs = [0, *(np.flatnonzero(masks[1:] != masks[:-1]) + 1).tolist(), m.size]
    off = ~mask_members(masks[runs[:-1]], mu.size)
    cols = off.any(axis=0)
    x, w = _QUAD.points_weights()
    h = float(np.min(hi - lo)) / _QUAD.panels
    # nodes, edges, step centres and means are offsets from a
    a = float(lo.min())
    mu_off, sigma_off, m = mu[cols] - a, sigma[cols], m - a
    edges = h * np.arange(int(np.ceil((float(hi.max()) - a) / h)) + 1)
    narrow = sigma_off < h
    if narrow.any():
        steps = _step_edges(mu_off[narrow], sigma_off[narrow], h)
        edges = np.union1d(edges, steps[(steps > 0.0) & (steps < edges[-1])])
    half = np.diff(edges)[:, None] / 2.0
    v = ((edges[:-1, None] + half) + half * x).ravel()
    log_w = np.log((half * w).ravel())
    log_phi = log_ndtr((v[:, None] - mu_off) / sigma_off)
    held = -1
    out = np.empty(m.size)
    step = max(1, _ORTHANT_CHUNK // v.size)
    buf = np.empty((min(step, m.size), v.size))
    for i in range(0, m.size, step):
        j = min(i + step, m.size)
        arg = np.subtract(v, m[i:j, None], out=buf[:j - i])
        # each face's rows of the chunk take its scale, a scalar, and its
        # base, which sums only its face's columns (a 0/1 product would turn
        # a -inf into nan)
        for r in range(bisect.bisect_right(runs, i) - 1, bisect.bisect_left(runs, j)):
            if r != held:
                held, root = r, np.sqrt(0.5 * t[runs[r]])
                base = log_w + log_phi[:, off[r, cols]].sum(axis=1)
            rows = arg[max(runs[r], i) - i:min(runs[r + 1], j) - i]
            rows *= root
            rows *= rows
            np.subtract(base, rows, out=rows)
        top = arg.max(axis=1, keepdims=True)
        arg -= top
        np.exp(arg, out=arg)
        out[i:j] = top[:, 0] + np.log(arg.sum(axis=1))
    return out + 0.5 * (np.log(t) - _LOG_2PI)


def gs_log_density_many(d: GaussianSparsemax, batch: FaceBatch) -> np.ndarray:
    """Log-density of each row of a batch w.r.t. the direct-sum measure.

    With a_k = sigma_k^-2 and r = y - mu on a face S of s vertices, let
    ``t = sum_S a_k`` and ``c = sum_S a_k r_k``, and let q be the weighted
    spread ``sum_S a_k (r_k - c/t)^2``, taken as ``sum_S a_k (d_k - e)^2``
    with ``d = r - r_p`` shifted by the coordinate p of largest a_k on S and
    ``e = sum_S a_k d_k / t``: there ``d_p = 0`` exactly, where r_p - c/t
    would leave rounding noise for a huge a_p to multiply.  The support
    coordinates contribute ``log s - (q + sum_S log sigma_k^2 + log t + (s -
    1) log 2 pi) / 2`` (0 at vertices), the density of their differences;
    the off-support coordinates the log orthant probability, by quadrature
    on node sets grouped by ``_clusters`` over the rows' windows.  A face
    with at least ``_OWN_SET_ROWS`` (64) rows per off-face coordinate gets
    node sets of its own; the rows of all other faces share node sets, so
    each step is evaluated once per shared node.  Own sets pay where a face
    holds thousands of rows: on the benchmark's laws (K = 6), pooling every
    face takes 0.85x the time of own sets from 4 rows per coordinate up to
    500 rows, and 1.07-1.15x from 10^4 rows on.  There batches of 120 to 200
    rows pool every face, and from about 2,000 rows the vertices and edges
    take their own sets.
    """
    check_same_k(batch.K, d.K)
    member = batch.members()
    a = d.sigma ** -2.0
    a_on = np.where(member, a, 0.0)
    t = a_on.sum(axis=1)
    r = batch.coords - d.mu
    c = np.sum(a_on * r, axis=1)
    r -= np.take_along_axis(r, np.argmax(a_on, axis=1)[:, None], axis=1)
    r -= (np.sum(a_on * r, axis=1) / t)[:, None]
    q = np.sum(a_on * r * r, axis=1)
    s = vertex_counts(batch.masks)
    log_det = np.where(member, -np.log(a), 0.0).sum(axis=1) + np.log(t)
    out = np.log(s) + np.where(s > 1, -0.5 * (q + log_det + (s - 1) * _LOG_2PI), 0.0)
    part = s < d.K
    if not part.any():
        return out
    m = -c / t
    lo, hi, orthant = np.full_like(t, np.nan), np.full_like(t, np.nan), np.zeros_like(t)
    # overflow to inf is handled where it can occur: at sigma ratios beyond
    # ~1e150, in steps or windows that the rule then clips or skips
    with np.errstate(over="ignore"):
        lo[part], hi[part], orthant[part] = _row_windows(m[part], t[part], d.mu, d.sigma, ~member[part])
        resolved = hi - lo > _MIN_RELATIVE_WIDTH * (np.abs(lo) + np.abs(hi))
        sets, shared = [], []
        for _, rows in face_groups(batch.masks):
            n_off = d.K - s[rows[0]]
            rows = rows[resolved[rows]]  # none on the full face, whose windows are nan
            if rows.size >= _OWN_SET_ROWS * n_off > 0:
                sets += [rows[group] for group in _clusters(lo[rows], hi[rows])]
            elif rows.size:
                shared.append(rows)
        if shared:  # each shared set in face order, as _orthant_log takes its rows
            rows = np.concatenate(shared)
            sets += [rows[np.sort(group)] for group in _clusters(lo[rows], hi[rows])]
        for at in sets:
            orthant[at] = _orthant_log(d.mu, d.sigma, batch.masks[at], t[at], m[at], lo[at], hi[at])
    return out + orthant


def gs_log_density(d: GaussianSparsemax, y: SimplexPoint) -> float:
    """``gs_log_density_many`` at a single point."""
    return float(gs_log_density_many(d, FaceBatch.from_coords(y.coords[None]))[0])


# ---------------------------------------------------------------------------
# Concrete (Gumbel-softmax) and the Hard Concrete projections.
# ---------------------------------------------------------------------------

def _gumbel(rng: np.random.Generator, shape) -> np.ndarray:
    u = np.clip(rng.random(shape), 1e-300, 1.0 - 1e-16)
    return -np.log(-np.log(u))


def concrete_from_gumbels(z, beta: float, g: np.ndarray) -> np.ndarray:
    """Softmax at temperature beta of logits plus given Gumbel noise.

    The row max is taken out before the division, so each row's top term is
    exp(0) = 1 however small beta is; the others overflow to -inf where the
    logits are far apart or beta is tiny, and exp(-inf) = 0 is their limit
    (the one-hot argmax as beta -> 0)."""
    x = np.asarray(z, dtype=float) + g
    with np.errstate(over="ignore"):
        x = (x - row_max(x)[..., None]) / beta
    e = np.exp(x)
    # guard subnormal underflow so samples stay in the relative interior
    e = np.maximum(e, 1e-300)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class Concrete:
    """Concrete (Gumbel-softmax) law with logits ``z`` at temperature ``beta``;
    sampling only, every draw in the relative interior."""

    z: np.ndarray
    beta: float

    def __init__(self, z, beta):
        freeze(self, z=check_vector("z", z), beta=check_scalar("beta", beta, 0.0))

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
        freeze(self, z=check_vector("z", z), beta=check_scalar("beta", beta, 0.0),
               lam=check_scalar("stretch lam", lam, 1.0, at=True))

    @property
    def K(self) -> int:
        return self.z.size

    def sample_many(self, n: int, rng: np.random.Generator) -> FaceBatch:
        y_soft = concrete_from_gumbels(self.z, self.beta, _gumbel(rng, (n, self.K)))
        return FaceBatch.from_coords(sparsemax_rows(self.lam * y_soft))


@dataclass(frozen=True)
class BinaryHardConcrete:
    """Binary Concrete stretched to (l, r) and clamped back to [0, 1]."""

    K = 2  # draws are points (y, 1 - y) of the two-vertex simplex
    log_alpha: float
    beta: float
    l: float = -0.1
    r: float = 1.1

    def __post_init__(self):
        check_scalar("log_alpha", self.log_alpha)
        check_scalar("beta", self.beta, 0.0)
        if not (self.l < 0.0 < 1.0 < self.r and np.isfinite(float(self.r) - float(self.l))):
            raise ValueError(f"stretch interval must satisfy l < 0 < 1 < r with r - l finite, "
                             f"got ({one_line(self.l)}, {one_line(self.r)})")

    def sample_many(self, n: int, rng: np.random.Generator) -> FaceBatch:
        """n draws embedded in the two-vertex simplex as ``(y, 1 - y)``."""
        y = binary_hard_concrete_sample_values(self, n, rng)
        return FaceBatch.from_coords(np.stack([y, 1.0 - y], axis=1))


def binary_hard_concrete_from_logistic(d: BinaryHardConcrete, noise) -> np.ndarray:
    """Map standard-logistic noise through the stretch-and-clamp transform."""
    from scipy.special import expit

    with np.errstate(over="ignore"):  # at huge log_alpha / beta, expit(+-inf) is the limit
        s = expit((d.log_alpha + np.asarray(noise, dtype=float)) / d.beta)
    return np.clip(s * (d.r - d.l) + d.l, 0.0, 1.0)


def binary_hard_concrete_sample_values(d: BinaryHardConcrete, n: int, rng: np.random.Generator) -> np.ndarray:
    u = np.clip(rng.random(n), 1e-300, 1.0 - 1e-16)
    return binary_hard_concrete_from_logistic(d, np.log(u) - np.log1p(-u))
