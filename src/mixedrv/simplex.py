"""Geometry of the probability simplex.

The simplex with K vertices decomposes into the disjoint union of the
relative interiors of its 2^K - 1 nonempty faces; each face is identified
with the nonempty subset of vertex indices it spans, stored as an int64
bitmask (bit i set means vertex i spans the face).  This module owns that
layout: ``member_masks`` is the one encoder, ``mask_members`` the one
decoder (both refuse K above ``MAX_BITMASK_K``, the one 63-vertex check),
``face_masks`` the one "nonempty subset of [K]" rule and
``enumerate_faces`` the one enumeration, limited to ``EXACT_ENUM_MAX_K``.
It also provides the sparse Euclidean projection onto the simplex (which
can land on any face) and batches of points with their faces
(``FaceBatch``).

``FaceIndexSet``, ``SimplexPoint``, ``sparsemax`` and ``FaceBatch``
iteration, a per-point object form of the same data, are kept only because
the benchmark tracer patches them, and the four callables elsewhere that
use them, by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ResourceLimitError",
    "FaceIndexSet",
    "SimplexPoint",
    "FaceBatch",
    "member_masks",
    "mask_members",
    "face_masks",
    "vertex_counts",
    "row_max",
    "face_index",
    "face_groups",
    "sparsemax",
    "sparsemax_rows",
    "sparsemax_jacobian",
    "enumerate_faces",
]

#: Largest alphabet size representable by the single-word face bitmask.
#: Lattice algorithms elsewhere run in O(K) and do not enumerate faces, so
#: the cap only constrains enumeration oracles and bitmask storage; a
#: multi-word mask would lift it if ever needed.
MAX_BITMASK_K = 63

#: Faces are enumerated (exact mode) only up to this K; beyond it the
#: direct-sum measures are estimated by ``info_theory``'s Monte Carlo
#: estimators.
EXACT_ENUM_MAX_K = 14

#: Absolute tolerance for the sum-to-one check at construction.
SUM_TOL = 1e-12


class ResourceLimitError(RuntimeError):
    """An operation would exceed a hard size limit (e.g. 2^K enumeration)."""


@dataclass(frozen=True)
class FaceIndexSet:
    """Nonempty subset of the K vertex indices, identifying a simplex face.

    The subset is stored as a bitmask: bit ``i`` set means vertex ``i``
    (0-based) spans the face.  The empty set is not a valid face.
    """

    mask: int
    K: int

    def __post_init__(self):
        if not (2 <= self.K <= MAX_BITMASK_K):
            raise ValueError(f"K must be in [2, {MAX_BITMASK_K}], got {self.K}")
        if _outside_faces(self.mask, self.K):
            raise ValueError(f"mask {self.mask:#x} is not a nonempty subset of [{self.K}]")

    def member_array(self) -> np.ndarray:
        """Boolean membership vector of length K."""
        return mask_members(self.mask, self.K)


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """A point of the simplex, carrying the face whose relative interior holds it.

    Coordinates are nonnegative, sum to one within ``1e-12``, and zeros are
    stored as exact ``0.0`` so that the support (the set of strictly positive
    coordinates) is unambiguous.
    """

    coords: np.ndarray
    support: FaceIndexSet = field(init=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 1 or coords.size < 2:
            raise ValueError("coords must be a vector of length >= 2")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        if np.any(coords < 0.0):
            raise ValueError(f"coords must be nonnegative, got {coords}")
        total = float(coords.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"coords must sum to 1 within {SUM_TOL}, got sum {total!r}")
        coords = coords.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "support", FaceIndexSet(int(member_masks(coords > 0.0)), coords.size))

    @property
    def K(self) -> int:
        return self.coords.size

    @classmethod
    def _trusted(cls, coords: np.ndarray, support: FaceIndexSet) -> "SimplexPoint":
        """A point from a read-only row whose support was already validated."""
        p = object.__new__(cls)
        object.__setattr__(p, "coords", coords)
        object.__setattr__(p, "support", support)
        return p

    def __repr__(self):
        return f"SimplexPoint({np.array2string(self.coords, separator=', ')})"


_BITS = np.left_shift(1, np.arange(MAX_BITMASK_K), dtype=np.int64)


def _bits(K: int) -> np.ndarray:
    """The int64 bits of vertices 0..K-1; a K with no int64 bit for each
    vertex raises ValueError."""
    if K > MAX_BITMASK_K:
        raise ValueError(f"faces are int64 bitmasks, so K must be <= {MAX_BITMASK_K}, got {K}")
    return _BITS[:K]


def member_masks(member: np.ndarray) -> np.ndarray:
    """int64 face bitmasks of (..., K) boolean memberships (the inverse of
    ``mask_members``)."""
    return member @ _bits(member.shape[-1])


def mask_members(masks: np.ndarray, K: int) -> np.ndarray:
    """(n, K) boolean membership matrix of n face bitmasks, or (K,) for one."""
    return (np.asarray(masks, dtype=np.int64)[..., None] & _bits(K)) != 0


def _outside_faces(masks, K: int):
    """Which integer ``masks`` (an integer array or a Python int) are not a
    nonempty subset of the K vertices: not in (0, 2^K)."""
    return (masks <= 0) | (masks >> K != 0)


def face_masks(masks, K: int) -> np.ndarray:
    """One face bitmask or an array of them, as int64, after checking that
    each is a nonempty subset of the K vertices: an integer in (0, 2^K)."""
    _bits(K)  # the 63-vertex check
    m = np.asarray(masks)
    bad = m if m.dtype.kind not in "iu" else m[_outside_faces(m, K)]
    if bad.size:
        raise ValueError(f"mask {bad.flat[0]} is not a nonempty subset of [{K}]")
    return m.astype(np.int64)


def vertex_counts(masks: np.ndarray) -> np.ndarray:
    """Number of vertices of each face bitmask (a popcount), as int64: the
    uint8 of ``np.bitwise_count`` would send numpy's and scipy's math
    (``np.log``, ``gammaln``) to their float16 or float32 loops."""
    return np.bitwise_count(np.asarray(masks, dtype=np.int64)).astype(np.int64)


def row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)`` of an (n, K) array (or a vector), reduced over a
    transposed copy: numpy pays about 45 ns per row reducing a short last
    axis, and a max is exact, so the values are the same (a row whose max
    is a zero of both signs may give either zero)."""
    return np.ascontiguousarray(x.T).max(axis=0)


def face_index(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct face bitmasks of ``masks``, ascending, and each row's
    index into them."""
    return np.unique(masks, return_inverse=True)


def face_groups(masks: np.ndarray):
    """Rows of each distinct face bitmask: ``(mask, rows)`` pairs with masks
    ascending and each face's row indices ascending."""
    faces, inverse = face_index(masks)
    rows = np.argsort(inverse, kind="stable")
    bounds = np.cumsum(np.bincount(inverse, minlength=faces.size))[:-1]
    return list(zip(faces.tolist(), np.split(rows, bounds)))


def _invalid_batch(coords: np.ndarray, masks: np.ndarray, sums: np.ndarray,
                   log_coords: np.ndarray | None) -> ValueError:
    """The first ``SimplexPoint`` rule that a batch breaks, as an error."""
    if not np.isfinite(coords).all():
        return ValueError("coords must be finite")
    if (coords < 0.0).any():
        return ValueError("coords must be nonnegative")
    bad = np.nonzero(np.abs(sums - 1.0) > SUM_TOL)[0]
    if bad.size:
        return ValueError(f"row {bad[0]} sums to {sums[bad[0]]!r}, not 1 within {SUM_TOL}")
    K = coords.shape[1]
    bad = np.nonzero(_outside_faces(masks, K))[0]
    if bad.size:
        return ValueError(f"mask {int(masks[bad[0]]):#x} is not a nonempty subset of [{K}]")
    if log_coords is None:
        bad = np.nonzero(member_masks(coords > 0.0) != masks)[0]
        return ValueError(f"row {bad[0]}: positive coordinates are not the vertices of mask {int(masks[bad[0]]):#x}")
    finite = np.isfinite(log_coords)
    bad = np.nonzero(~(finite | (log_coords == -np.inf)).all(axis=1) | (member_masks(finite) != masks))[0]
    if bad.size:
        return ValueError(f"row {bad[0]}: log_coords must be finite exactly on the vertices of mask "
                          f"{int(masks[bad[0]]):#x} and -inf off them")
    bad = np.nonzero(member_masks(coords > 0.0) & ~masks)[0]
    return ValueError(f"row {bad[0]}: positive coordinates off the vertices of mask {int(masks[bad[0]]):#x}")


@dataclass(frozen=True, eq=False)
class FaceBatch:
    """n simplex points as arrays: face bitmasks ``masks`` (n,), coordinates
    ``coords`` (n, K) and optionally their logarithms ``log_coords`` (n, K).

    Every batch is validated once: finite, nonnegative coordinates, rows
    summing to one within ``SUM_TOL``, and positive coordinates exactly on
    the vertices of the row's face.

    A sampler that draws in log space passes ``log_coords`` (with ``coords
    = exp(log_coords)``), the faithful representation: a coordinate of the
    sampled face can be too small for a positive double.  The face rule is
    then stated on the logarithms: finite exactly on the vertices of the
    row's face and -inf off them; ``coords`` may hold 0.0 on the face but
    nothing positive off it.

    Iteration yields ``(FaceIndexSet, SimplexPoint)`` pairs, sharing one
    ``FaceIndexSet`` per distinct mask: the row's face, and a point of its
    coordinates, whose support is the face less any coordinate that
    underflowed to 0.0.  Only the benchmark tracer iterates a batch.
    """

    masks: np.ndarray
    coords: np.ndarray
    log_coords: np.ndarray | None = None

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        masks = np.asarray(self.masks)
        if coords.ndim != 2:
            raise ValueError("coords must be an (n, K) array")
        n, K = coords.shape
        if not (2 <= K <= MAX_BITMASK_K):
            raise ValueError(f"K must be in [2, {MAX_BITMASK_K}], got {K}")
        if masks.shape != (n,) or (n and masks.dtype.kind not in "iu"):
            raise ValueError(f"masks must be {n} integers, got shape {masks.shape} dtype {masks.dtype}")
        masks = masks.astype(np.int64)  # a copy, so freezing it below is safe
        log_coords = self.log_coords
        supports = member_masks(coords > 0.0)
        # These tests imply every rule (NaN fails ">= 0", an infinite row
        # fails its sum, a matching face mask lies in (0, 2^K)); a failing
        # batch is diagnosed rule by rule for the error message.
        sums = coords.sum(axis=1)
        valid = (coords >= 0.0).all() and (np.abs(sums - 1.0) <= SUM_TOL).all()
        if log_coords is None:
            valid = valid and (supports == masks).all()
        else:
            log_coords = np.array(log_coords, dtype=float)
            if log_coords.shape != coords.shape:
                raise ValueError(f"log_coords must have shape {coords.shape}, got {log_coords.shape}")
            # a row summing to one has a positive coordinate, so its mask is nonempty
            finite = np.isfinite(log_coords)
            valid = (valid and (finite | (log_coords == -np.inf)).all()
                     and (member_masks(finite) == masks).all() and not (supports & ~masks).any())
            log_coords.flags.writeable = False
        if not valid:
            raise _invalid_batch(coords, masks, sums, log_coords)
        coords.flags.writeable = False
        masks.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "log_coords", log_coords)
        object.__setattr__(self, "_supports", supports)
        object.__setattr__(self, "_faces", {})

    @classmethod
    def from_coords(cls, coords) -> "FaceBatch":
        """Batch whose faces are the supports of the rows of ``coords``."""
        coords = np.asarray(coords, dtype=float)
        return cls(member_masks(coords > 0.0), coords)

    @classmethod
    def from_log_coords(cls, masks, log_coords) -> "FaceBatch":
        """Batch of points drawn in log space on the faces ``masks``."""
        return cls(masks, np.exp(log_coords), log_coords)

    @property
    def K(self) -> int:
        return self.coords.shape[1]

    def members(self) -> np.ndarray:
        """(n, K) boolean membership matrix of the rows' faces."""
        return mask_members(self.masks, self.K)

    def face(self, mask: int) -> FaceIndexSet:
        """The shared ``FaceIndexSet`` of one of the batch's masks."""
        f = self._faces.get(mask)
        if f is None:
            f = self._faces[mask] = FaceIndexSet(mask, self.K)
        return f

    def __len__(self) -> int:
        return self.masks.shape[0]

    def __iter__(self):
        for i, (m, s) in enumerate(zip(self.masks.tolist(), self._supports.tolist())):
            f = self.face(m)
            yield f, SimplexPoint._trusted(self.coords[i], f if s == m else self.face(s))


def sparsemax(z) -> SimplexPoint:
    """Euclidean projection of ``z`` onto the simplex (``sparsemax_rows``
    of a single row).  Coordinates at or below the threshold come out as
    exact zeros, so the support of the result is well defined."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise ValueError("z must be a vector of length >= 2")
    if not np.all(np.isfinite(z)):
        raise ValueError(f"z must be finite, got {z}")
    return SimplexPoint(sparsemax_rows(z[None, :])[0])


def sparsemax_rows(z: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of an (n, K) array onto the simplex.

    Computed by the sort-based threshold rule: find tau such that
    ``sum_k max(0, z_k - tau) = 1`` and return ``max(z - tau, 0)``, with
    exact zeros at or below the threshold.  Runs in O(K log K) per row.
    """
    # projection is shift invariant; centering at the max keeps the
    # threshold subtraction well conditioned for large-magnitude inputs
    z = z - row_max(z)[:, None]
    u = np.sort(z, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    k = np.arange(1, z.shape[1] + 1)
    rho = np.sum(u * k > css - 1.0, axis=1)
    tau = (css[np.arange(len(z)), rho - 1] - 1.0) / rho
    return np.maximum(z - tau[:, None], 0.0)


def sparsemax_jacobian(z) -> np.ndarray:
    """Jacobian of ``sparsemax`` at ``z``.

    With support S of the projection, ``J[i, j] = [i==j][i in S] - [i in
    S][j in S] / |S|``.  At points where the support is unstable (a
    coordinate exactly at the threshold) this returns the representative
    obtained from the computed support, a valid generalized Jacobian.
    """
    s = (sparsemax(z).coords > 0.0).astype(float)
    return np.diag(s) - np.outer(s, s) / s.sum()


def enumerate_faces(K: int) -> np.ndarray:
    """The masks of all 2^K - 1 nonempty faces, ascending, as int64: the
    faces of exact mode, so K above ``EXACT_ENUM_MAX_K`` raises
    ``ResourceLimitError``."""
    if K > EXACT_ENUM_MAX_K:
        raise ResourceLimitError(f"exact mode needs K <= {EXACT_ENUM_MAX_K}")
    return np.arange(1, 1 << K, dtype=np.int64)
