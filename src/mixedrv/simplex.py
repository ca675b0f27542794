"""Geometry of the probability simplex.

The simplex with K vertices decomposes into the disjoint union of the
relative interiors of its 2^K - 1 nonempty faces; each face is identified
with the nonempty subset of vertex indices it spans, stored as an int64
bitmask (bit i set means vertex i spans the face).  This module owns that
layout: ``member_masks`` is the one encoder, ``mask_members`` the one
decoder (both refuse K above ``MAX_BITMASK_K``, the one 63-vertex check),
``face_masks`` the one "nonempty subset of [K]" rule and
``enumerate_faces`` the one enumeration, limited to ``EXACT_ENUM_MAX_K``.
``freeze`` sets the fields of the package's value types and stores their
arrays as read-only copies.  It also provides the sparse Euclidean
projection onto the simplex (which can land on any face) and batches of
points with their faces (``FaceBatch``).

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
    "freeze",
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


def freeze(obj, **fields) -> None:
    """Set the fields of the frozen value type ``obj``, each ndarray as a
    read-only copy: neither the caller's arrays nor a write through a field
    can change the object afterwards.  Every constructor that sets its own
    fields ends with one call, after validating its inputs uncopied."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = value.copy(order="K")
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class FaceIndexSet:
    """Nonempty subset of the K vertex indices, identifying a simplex face.

    The subset is stored as a bitmask: bit ``i`` set means vertex ``i``
    (0-based) spans the face.  The empty set is not a valid face.
    """

    mask: int
    K: int

    def __post_init__(self):
        _check_k(self.K)
        face_masks(self.mask, self.K)

    def member_array(self) -> np.ndarray:
        """Boolean membership vector of length K."""
        return mask_members(self.mask, self.K)


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """A point of the simplex, carrying the face whose relative interior holds it.

    Coordinates are checked by the rules of a one-row ``FaceBatch`` whose
    face is their support (the set of strictly positive coordinates); zeros
    are stored as exact ``0.0`` so that the support is unambiguous.
    """

    coords: np.ndarray
    support: FaceIndexSet = field(init=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 1:
            raise ValueError("coords must be a vector")
        mask = int(FaceBatch.from_coords(coords[None]).masks[0])  # the batch rules, on one row
        freeze(self, coords=coords, support=FaceIndexSet(mask, coords.size))

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


def _check_k(K: int) -> None:
    if not (2 <= K <= MAX_BITMASK_K):
        raise ValueError(f"K must be in [2, {MAX_BITMASK_K}], got {K}")


def _first_bad_row(bad: np.ndarray, message) -> None:
    """ValueError(``message(i)``) at the first row ``i`` that ``bad`` marks."""
    if bad.any():
        raise ValueError(message(int(bad.argmax())))


@dataclass(frozen=True, eq=False)
class FaceBatch:
    """n simplex points as arrays: face bitmasks ``masks`` (n,), coordinates
    ``coords`` (n, K) and optionally their logarithms ``log_coords`` (n, K).

    A batch holds these three arrays and nothing else.  It is validated
    once, rule after rule, each rule one whole-array test, and only a
    broken one looks up its first row: finite, then nonnegative
    coordinates, rows summing to one within ``SUM_TOL``, masks in (0, 2^K),
    and positive coordinates exactly on the vertices of the row's face.

    A sampler that draws in log space passes ``log_coords`` (with ``coords
    = exp(log_coords)``), the faithful representation: a coordinate of the
    sampled face can be too small for a positive double.  The face rule is
    then stated on the logarithms: finite exactly on the vertices of the
    row's face and -inf off them; ``coords`` may hold 0.0 on the face but
    nothing positive off it.

    Iteration yields ``(FaceIndexSet, SimplexPoint)`` pairs, sharing one
    ``FaceIndexSet`` per distinct mask within the call: the row's face, and
    a point of its coordinates, whose support (worked out by the iteration)
    is the face less any coordinate that underflowed to 0.0.  Only the
    benchmark tracer iterates a batch.
    """

    masks: np.ndarray
    coords: np.ndarray
    log_coords: np.ndarray | None = None

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        masks = np.asarray(self.masks)
        if coords.ndim != 2:
            raise ValueError("coords must be an (n, K) array")
        n, K = coords.shape
        _check_k(K)
        if masks.shape != (n,) or (n and masks.dtype.kind not in "iu"):
            raise ValueError(f"masks must be {n} integers, got shape {masks.shape} dtype {masks.dtype}")
        masks = masks.astype(np.int64, copy=False)
        log_coords = self.log_coords
        if log_coords is not None:
            log_coords = np.asarray(log_coords, dtype=float)
            if log_coords.shape != coords.shape:
                raise ValueError(f"log_coords must have shape {coords.shape}, got {log_coords.shape}")
        if not np.isfinite(coords).all():
            raise ValueError("coords must be finite")
        if not (coords >= 0.0).all():
            raise ValueError("coords must be nonnegative")
        with np.errstate(over="ignore"):  # a row beyond the double range sums to inf
            sums = coords.sum(axis=1)
        _first_bad_row(np.abs(sums - 1.0) > SUM_TOL,
                       lambda i: f"row {i} sums to {float(sums[i])!r}, not 1 within {SUM_TOL}")
        _first_bad_row(_outside_faces(masks, K), lambda i: f"mask {masks[i]:#x} is not a nonempty subset of [{K}]")
        supports = member_masks(coords > 0.0)
        if log_coords is None:
            _first_bad_row(supports != masks,
                           lambda i: f"row {i}: positive coordinates are not the vertices of mask {masks[i]:#x}")
        else:  # finite exactly on the face, -inf off it: NaN and +inf fail "< inf"
            bad, below_inf = member_masks(np.isfinite(log_coords)) != masks, log_coords < np.inf
            if not below_inf.all():  # a row-wise reduction only when it finds something
                bad |= ~below_inf.all(axis=1)
            _first_bad_row(bad, lambda i: f"row {i}: log_coords must be finite exactly on the vertices of mask "
                                          f"{masks[i]:#x} and -inf off them")
            _first_bad_row((supports & ~masks) != 0,
                           lambda i: f"row {i}: positive coordinates off the vertices of mask {masks[i]:#x}")
        freeze(self, coords=coords, masks=masks, log_coords=log_coords)

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

    def __len__(self) -> int:
        return self.masks.shape[0]

    def __iter__(self):
        masks = self.masks.tolist()
        supports = member_masks(self.coords > 0.0).tolist()
        faces = {m: FaceIndexSet(m, self.K) for m in {*masks, *supports}}
        for coords, m, s in zip(self.coords, masks, supports):
            yield faces[m], SimplexPoint._trusted(coords, faces[s])


def sparsemax(z) -> SimplexPoint:
    """Euclidean projection of ``z`` onto the simplex (``sparsemax_rows``
    of a single row).  Coordinates at or below the threshold come out as
    exact zeros, so the support of the result is well defined."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise ValueError("z must be a vector of length >= 2")
    if not np.all(np.isfinite(z)):
        raise ValueError(f"z must be finite, got {np.array2string(z, max_line_width=np.inf)}")
    return SimplexPoint(sparsemax_rows(z[None, :])[0])


def sparsemax_rows(z: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of an (n, K) array onto the simplex.

    Computed by the sort-based threshold rule: find tau such that
    ``sum_k max(0, z_k - tau) = 1`` and return ``max(z - tau, 0)``, with
    exact zeros at or below the threshold.  Runs in O(K log K) per row.
    """
    # projection is shift invariant; centering at the max keeps the
    # threshold subtraction well conditioned for large-magnitude inputs.
    # A finite spread beyond the double range overflows to -inf, and such a
    # coordinate lies below the threshold, so it projects to 0, its limit.
    with np.errstate(over="ignore"):
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
