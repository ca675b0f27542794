"""Geometry of the probability simplex and the unit hypercube.

The simplex with K vertices decomposes into the disjoint union of the
relative interiors of its 2^K - 1 nonempty faces; each face is identified
with the nonempty subset of vertex indices it spans.  This module provides
the sparse Euclidean projection onto the simplex (which can land on any
face), face identification, face enumeration for brute-force oracles, and
the analogous face classification for points of the hypercube ``[0,1]^K``.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ResourceLimitError",
    "FaceIndexSet",
    "SimplexPoint",
    "FaceBatch",
    "mask_members",
    "face_groups",
    "Trit",
    "HypercubeFace",
    "sparsemax",
    "sparsemax_rows",
    "sparsemax_jacobian",
    "face_of",
    "enumerate_faces",
    "hypercube_face_of",
    "face_histogram",
]

#: Largest alphabet size representable by the single-word face bitmask.
#: Lattice algorithms elsewhere run in O(K) and do not enumerate faces, so
#: the cap only constrains enumeration oracles and bitmask storage; a
#: multi-word mask would lift it if ever needed.
MAX_BITMASK_K = 63

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
        if self.mask <= 0 or self.mask >= (1 << self.K):
            raise ValueError(f"mask {self.mask:#x} is not a nonempty subset of [{self.K}]")

    @classmethod
    def from_indices(cls, indices, K: int) -> "FaceIndexSet":
        mask = 0
        for i in indices:
            if not (0 <= i < K):
                raise ValueError(f"vertex index {i} out of range for K={K}")
            mask |= 1 << i
        return cls(mask, K)

    @property
    def indices(self) -> tuple[int, ...]:
        """Member vertex indices, ascending, 0-based."""
        return tuple(i for i in range(self.K) if self.mask >> i & 1)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def dim(self) -> int:
        """Dimension of the face: one less than the number of vertices."""
        return self.size - 1

    def contains(self, i: int) -> bool:
        return bool(self.mask >> i & 1)

    def member_array(self) -> np.ndarray:
        """Boolean membership vector of length K."""
        return np.array([bool(self.mask >> i & 1) for i in range(self.K)])

    def __repr__(self):
        return f"FaceIndexSet({{{', '.join(map(str, self.indices))}}}, K={self.K})"


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
        mask = 0
        for i, v in enumerate(coords):
            if v > 0.0:
                mask |= 1 << i
        object.__setattr__(self, "support", FaceIndexSet(mask, coords.size))

    @property
    def K(self) -> int:
        return self.coords.size

    @classmethod
    def vertex(cls, i: int, K: int) -> "SimplexPoint":
        coords = np.zeros(K)
        coords[i] = 1.0
        return cls(coords)

    @classmethod
    def _trusted(cls, coords: np.ndarray, support: FaceIndexSet) -> "SimplexPoint":
        """A point from a read-only row whose support was already validated."""
        p = object.__new__(cls)
        object.__setattr__(p, "coords", coords)
        object.__setattr__(p, "support", support)
        return p

    def restricted(self) -> np.ndarray:
        """The strictly positive coordinates, in index order."""
        return self.coords[list(self.support.indices)]

    def __repr__(self):
        return f"SimplexPoint({np.array2string(self.coords, separator=', ')})"


def mask_members(masks: np.ndarray, K: int) -> np.ndarray:
    """(n, K) boolean membership matrix of n face bitmasks."""
    return ((np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(K)) & 1).astype(bool)


def face_groups(masks: np.ndarray):
    """Rows of each distinct face bitmask: ``(mask, rows)`` pairs with masks
    ascending and each face's row indices ascending."""
    if masks.shape[0] == 1:  # the common single-draw case needs no sort
        return [(int(masks[0]), np.zeros(1, dtype=np.intp))]
    faces, inverse = np.unique(masks, return_inverse=True)
    rows = np.argsort(inverse, kind="stable")
    bounds = np.cumsum(np.bincount(inverse, minlength=faces.size))[:-1]
    return list(zip(faces.tolist(), np.split(rows, bounds)))


_BITS = np.left_shift(1, np.arange(MAX_BITMASK_K), dtype=np.int64)


def _support_masks(coords: np.ndarray) -> np.ndarray:
    """Bitmask of the strictly positive coordinates of each row of ``coords``."""
    return (coords > 0.0) @ _BITS[:coords.shape[1]]


def _invalid_batch(coords: np.ndarray, masks: np.ndarray, sums: np.ndarray) -> ValueError:
    """The first ``SimplexPoint`` rule that a batch breaks, as an error."""
    if not np.isfinite(coords).all():
        return ValueError("coords must be finite")
    if (coords < 0.0).any():
        return ValueError("coords must be nonnegative")
    bad = np.nonzero(np.abs(sums - 1.0) > SUM_TOL)[0]
    if bad.size:
        return ValueError(f"row {bad[0]} sums to {sums[bad[0]]!r}, not 1 within {SUM_TOL}")
    K = coords.shape[1]
    bad = np.nonzero((masks <= 0) | (masks >> K != 0))[0]
    if bad.size:
        return ValueError(f"mask {int(masks[bad[0]]):#x} is not a nonempty subset of [{K}]")
    bad = np.nonzero(_support_masks(coords) != masks)[0]
    return ValueError(f"row {bad[0]}: positive coordinates are not the vertices of mask {int(masks[bad[0]]):#x}")


@dataclass(frozen=True, eq=False)
class FaceBatch:
    """n simplex points as arrays: face bitmasks ``masks`` (n,) and
    coordinates ``coords`` (n, K).

    This is the array form of a sequence of ``(FaceIndexSet, SimplexPoint)``
    draws, validated once under the same rules as ``SimplexPoint``: finite,
    nonnegative coordinates, rows summing to one within ``SUM_TOL``, and
    positive coordinates exactly on the vertices of the row's face.
    Indexing and iteration yield the pairs, sharing one ``FaceIndexSet``
    per distinct mask.
    """

    masks: np.ndarray
    coords: np.ndarray

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
        # These three tests imply every rule (NaN fails ">= 0", an infinite
        # row fails its sum, a matching support mask lies in (0, 2^K)); a
        # failing batch is diagnosed rule by rule for the error message.
        sums = coords.sum(axis=1)
        if not ((coords >= 0.0).all() and (np.abs(sums - 1.0) <= SUM_TOL).all()
                and (_support_masks(coords) == masks).all()):
            raise _invalid_batch(coords, masks, sums)
        coords.flags.writeable = False
        masks.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "_faces", {})

    @classmethod
    def from_coords(cls, coords) -> "FaceBatch":
        """Batch whose faces are the supports of the rows of ``coords``."""
        coords = np.asarray(coords, dtype=float)
        return cls(_support_masks(coords), coords)

    @classmethod
    def from_point(cls, y: SimplexPoint) -> "FaceBatch":
        """Batch of one already validated point (no re-validation)."""
        batch = object.__new__(cls)
        masks = np.array([y.support.mask], dtype=np.int64)
        masks.flags.writeable = False
        object.__setattr__(batch, "masks", masks)
        object.__setattr__(batch, "coords", y.coords[None, :])
        object.__setattr__(batch, "_faces", {y.support.mask: y.support})
        return batch

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

    def __getitem__(self, i: int) -> tuple[FaceIndexSet, SimplexPoint]:
        f = self.face(int(self.masks[i]))
        return f, SimplexPoint._trusted(self.coords[i], f)

    def __iter__(self):
        for i, m in enumerate(self.masks.tolist()):
            f = self.face(m)
            yield f, SimplexPoint._trusted(self.coords[i], f)


class Trit(enum.IntEnum):
    """Per-coordinate face class of a hypercube point."""

    ZERO = 0
    ONE = 1
    INTERIOR = 2


@dataclass(frozen=True)
class HypercubeFace:
    """One of the 3^K nonempty faces of ``[0,1]^K``: a trit per coordinate."""

    trits: tuple[Trit, ...]

    @property
    def K(self) -> int:
        return len(self.trits)

    @property
    def dim(self) -> int:
        return sum(1 for t in self.trits if t is Trit.INTERIOR)


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
    z = z - z.max(axis=1, keepdims=True)
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
    y = sparsemax(z)
    s = y.support.member_array().astype(float)
    return np.diag(s) - np.outer(s, s) / s.sum()


def face_of(y: SimplexPoint) -> FaceIndexSet:
    """Face whose relative interior contains ``y`` (its support)."""
    return y.support


def enumerate_faces(K: int) -> list[FaceIndexSet]:
    """All 2^K - 1 nonempty faces in bitmask-ascending order.

    Only intended for brute-force oracles; refuses K > 20.
    """
    if K > 20:
        raise ResourceLimitError(f"enumerate_faces is limited to K <= 20, got K={K}")
    return [FaceIndexSet(mask, K) for mask in range(1, 1 << K)]


def hypercube_face_of(y) -> HypercubeFace:
    """Face of ``[0,1]^K`` containing ``y``: one trit per coordinate.

    Coordinates within 1e-12 outside the interval are snapped to the
    nearest endpoint; anything further out is rejected.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < -SUM_TOL) or np.any(y > 1.0 + SUM_TOL):
        raise ValueError(f"coordinates must lie in [0, 1] (tolerance {SUM_TOL}), got {y}")
    y = np.clip(y, 0.0, 1.0)
    trits = tuple(
        Trit.ZERO if v == 0.0 else Trit.ONE if v == 1.0 else Trit.INTERIOR for v in y
    )
    return HypercubeFace(trits)


def face_histogram(points) -> tuple[Counter, Counter]:
    """Counts per face and per face dimension for a batch of simplex points."""
    points = list(points)
    if not points:
        raise ValueError("points must be nonempty")
    K = points[0].K
    faces: Counter = Counter()
    dims: Counter = Counter()
    for p in points:
        if p.K != K:
            raise ValueError(f"inconsistent K: expected {K}, got {p.K}")
        f = p.support
        faces[f] += 1
        dims[f.dim] += 1
    return faces, dims
