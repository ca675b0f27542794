import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedrv import oracles
from mixedrv.simplex import (
    EXACT_ENUM_MAX_K,
    FaceBatch,
    FaceIndexSet,
    ResourceLimitError,
    SimplexPoint,
    enumerate_faces,
    face_groups,
    face_index,
    mask_members,
    member_masks,
    sparsemax,
    sparsemax_jacobian,
)

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=8
).map(np.array)


class TestSimplexPoint:
    def test_valid_point(self):
        p = SimplexPoint([0.2, 0.3, 0.5])
        assert p.K == 3
        assert p.support.mask == 0b111

    def test_zero_coordinates_define_support(self):
        p = SimplexPoint([0.5, 0.0, 0.5])
        assert p.support.mask == 0b101

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimplexPoint([1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SimplexPoint([0.5, 0.6])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SimplexPoint([np.nan, 1.0])

    def test_coords_immutable(self):
        p = SimplexPoint([0.5, 0.5])
        with pytest.raises(ValueError):
            p.coords[0] = 0.9


class TestFaceIndexSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FaceIndexSet(0, 3)

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            FaceIndexSet(1, 64)

    def test_hashable(self):
        assert len({FaceIndexSet(1, 2), FaceIndexSet(1, 2), FaceIndexSet(2, 2)}) == 2


class TestSparsemax:
    def test_identity_on_interior_point(self):
        y = sparsemax([0.5, 0.3, 0.2])
        np.testing.assert_allclose(y.coords, [0.5, 0.3, 0.2], atol=1e-15)

    def test_hard_sigmoid_form(self):
        # K=2 with z=(z, 1-z) clamps the first coordinate; at z=2 that is 1
        np.testing.assert_array_equal(sparsemax([2.0, 0.0]).coords, [1.0, 0.0])
        y = sparsemax([0.7, 1.0 - 0.7])
        assert y.coords[0] == pytest.approx(0.7)

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            z = rng.normal(0.0, 2.0, rng.integers(2, 7))
            np.testing.assert_allclose(
                sparsemax(z).coords, oracles.brute_force_sparsemax(z), atol=1e-9
            )

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            sparsemax([np.inf, 0.0])
        # twelve entries, which numpy's own text would wrap at 75 columns
        with pytest.raises(ValueError) as e:
            sparsemax([0.125 * k for k in range(11)] + [np.nan])
        assert str(e.value) == ("z must be finite, got [0.    0.125 0.25  0.375 0.5   0.625 0.75  0.875 1.    "
                                "1.125 1.25    nan]")

    @settings(max_examples=100)
    @given(finite_vectors)
    def test_output_is_valid_simplex_point(self, z):
        y = sparsemax(z)
        assert np.all(y.coords >= 0.0)
        assert abs(y.coords.sum() - 1.0) <= 1e-12
        # zeros are exact, so the support is unambiguous
        assert y.support.mask == int(np.sum(np.left_shift(1, np.nonzero(y.coords)[0])))

    @settings(max_examples=100)
    @given(finite_vectors, st.floats(min_value=-100, max_value=100))
    def test_shift_invariant_idempotence(self, z, c):
        y = sparsemax(z)
        again = sparsemax(y.coords + c)
        np.testing.assert_allclose(again.coords, y.coords, atol=1e-12)


class TestSparsemaxJacobian:
    def test_interior_k2(self):
        np.testing.assert_allclose(
            sparsemax_jacobian([0.6, 0.4]), [[0.5, -0.5], [-0.5, 0.5]]
        )

    def test_vertex_is_locally_constant(self):
        np.testing.assert_array_equal(sparsemax_jacobian([2.0, 0.0]), np.zeros((2, 2)))

    def test_needs_no_face_bitmask(self):
        # the support is read from the projection, so K is not capped at 63
        np.testing.assert_array_equal(sparsemax_jacobian(np.zeros(100)), np.eye(100) - 0.01)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.normal(0.0, 1.0, rng.integers(2, 6))
            fd = oracles.central_difference_jacobian(lambda v: sparsemax(v).coords, z)
            np.testing.assert_allclose(sparsemax_jacobian(z), fd, atol=1e-5)

    def test_support_rows_sum_to_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = rng.normal(0.0, 1.5, 5)
            jac = sparsemax_jacobian(z)
            for i in np.flatnonzero(sparsemax(z).coords):
                assert jac[i].sum() == pytest.approx(0.0, abs=1e-12)


class TestFaces:
    def test_face_of_examples(self):
        assert FaceBatch.from_coords([[1, 0, 0], [0.5, 0.5, 0], [0.2, 0.3, 0.5]]).masks.tolist() == [1, 3, 7]
        assert SimplexPoint([0.5, 0.5, 0]).support.mask == 0b011

    def test_enumerate_faces_k2(self):
        faces = enumerate_faces(2)
        assert faces.dtype == np.int64
        assert mask_members(faces, 2).tolist() == [[True, False], [False, True], [True, True]]

    def test_mask_members_of_one_mask(self):
        assert mask_members(0b101, 3).tolist() == [True, False, True]
        assert mask_members(np.int64((1 << 63) - 1), 63).all()

    @pytest.mark.parametrize("K", [2, 8, 63])
    def test_member_masks_round_trip(self, K):
        rng = np.random.default_rng(K)
        member = rng.random((40, K)) < 0.5
        member[0] = True  # the full face, top bit included
        member[1] = np.arange(K) == K - 1  # the top bit alone
        masks = member_masks(member)
        assert masks.dtype == np.int64 and masks.shape == (40,)
        assert masks[0] == (1 << K) - 1 and masks[1] == 1 << (K - 1)
        np.testing.assert_array_equal(mask_members(masks, K), member)
        for row, mask in zip(member, masks.tolist()):
            assert member_masks(row) == mask
            np.testing.assert_array_equal(mask_members(mask, K), row)

    def test_member_masks_refuse_a_64th_vertex(self):
        with pytest.raises(ValueError, match="^faces are int64 bitmasks, so K must be <= 63, got 64$"):
            member_masks(np.ones((2, 64), dtype=bool))
        with pytest.raises(ValueError, match="^faces are int64 bitmasks, so K must be <= 63, got 64$"):
            mask_members(1, 64)
        with pytest.raises(ValueError, match="^faces are int64 bitmasks, so K must be <= 63, got 64$"):
            FaceBatch.from_coords(np.full((2, 64), 1 / 64))

    @pytest.mark.parametrize("masks", [[6], [5, 5, 5], [3, 1, 3, 2, 1]])
    def test_face_index_and_groups(self, masks):
        masks = np.array(masks, dtype=np.int64)
        faces, inverse = face_index(masks)
        assert faces.tolist() == sorted(set(masks.tolist()))
        assert faces[inverse].tolist() == masks.tolist()
        groups = face_groups(masks)
        assert [m for m, _ in groups] == faces.tolist()
        assert [rows.tolist() for _, rows in groups] == [np.flatnonzero(masks == m).tolist() for m in faces]

    @pytest.mark.parametrize("K,count", [(3, 7), (10, 1023)])
    def test_enumerate_counts(self, K, count):
        assert len(enumerate_faces(K)) == count

    def test_enumerate_limit(self):
        assert len(enumerate_faces(EXACT_ENUM_MAX_K)) == 2**14 - 1
        with pytest.raises(ResourceLimitError, match="^exact mode needs K <= 14$"):
            enumerate_faces(15)

    def test_bitmask_ascending_order(self):
        masks = enumerate_faces(4).tolist()
        assert masks == sorted(masks) == list(range(1, 16))


class TestFaceHistogram:
    """Counts per face and per face dimension, from a batch's masks."""

    def test_vertex_counts(self):
        batch = FaceBatch.from_coords([[1, 0, 0], [1, 0, 0]])
        faces, counts = np.unique(batch.masks, return_counts=True)
        assert faces.tolist() == [1] and counts.tolist() == [2]
        assert np.bincount(batch.members().sum(axis=1) - 1).tolist() == [2]

    def test_edge(self):
        batch = FaceBatch.from_coords([[0.5, 0.5, 0]])
        assert batch.masks.tolist() == [0b011]
        assert (batch.members().sum(axis=1) - 1).tolist() == [1]

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        batch = FaceBatch.from_coords(np.stack([sparsemax(rng.normal(0, 1.5, 3)).coords for _ in range(400)]))
        assert np.unique(batch.masks, return_counts=True)[1].sum() == 400
        assert np.bincount(batch.members().sum(axis=1) - 1).sum() == 400

    def test_gaussian_sparsemax_hits_all_dimensions(self):
        # moderate noise puts mass on vertices, edges and the interior alike
        from mixedrv.extrinsic import GaussianSparsemax

        d = GaussianSparsemax(np.zeros(3), np.ones(3))
        coords = d.sample_many(10**5, np.random.default_rng(4)).coords
        sizes = (coords > 0).sum(axis=1)
        assert {1, 2, 3} <= set(np.unique(sizes).tolist())


class TestFaceBatch:
    def test_pairs_equal_rows(self):
        coords = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5], [0.25, 0.0, 0.75]])
        batch = FaceBatch([5, 2, 7, 5], coords)
        assert len(batch) == 4 and batch.K == 3
        pairs = list(batch)
        assert len(pairs) == 4
        for i, (f, p) in enumerate(pairs):
            assert f == FaceIndexSet(int(batch.masks[i]), 3)
            assert p.support == f
            assert p.coords.tolist() == coords[i].tolist()
        assert pairs[0][0] is pairs[3][0]  # one face object per distinct mask

    def test_from_coords_and_from_point(self):
        batch = FaceBatch.from_coords([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        assert batch.masks.tolist() == [3, 4]
        p = SimplexPoint([0.1, 0.0, 0.9])
        one = FaceBatch.from_coords(p.coords[None])
        assert one.masks.tolist() == [5] and next(iter(one))[0] == p.support
        assert one.members().tolist() == [[True, False, True]]

    def test_arrays_are_read_only(self):
        batch = FaceBatch([3], [[0.5, 0.5]])
        with pytest.raises(ValueError):
            batch.coords[0, 0] = 1.0
        with pytest.raises(ValueError):
            next(iter(batch))[1].coords[0] = 1.0

    def test_rejects_off_face_positive(self):
        with pytest.raises(ValueError, match="vertices of mask"):
            FaceBatch([1, 3], [[1.0, 0.0, 0.0], [0.5, 0.25, 0.25]])

    def test_rejects_zero_on_face(self):
        with pytest.raises(ValueError, match="vertices of mask"):
            FaceBatch([7], [[0.5, 0.5, 0.0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FaceBatch([3], [[1.1, -0.1]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            FaceBatch([3], [[np.nan, 1.0]])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError) as e:
            FaceBatch([3, 3], [[0.5, 0.5], [0.5, 0.6]])
        assert str(e.value) == "row 1 sums to 1.1, not 1 within 1e-12"  # the float's repr, not numpy's

    @pytest.mark.parametrize("mask", [0, -1, 4, 1 << 40])
    def test_rejects_mask_out_of_range(self, mask):
        with pytest.raises(ValueError, match="nonempty subset"):
            FaceBatch([mask], [[0.5, 0.5]])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            FaceBatch([1], [1.0, 0.0])
        with pytest.raises(ValueError):
            FaceBatch([1, 1], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            FaceBatch([1], [[1.0]])
        with pytest.raises(ValueError):
            FaceBatch([1.0], [[1.0, 0.0]])

    def test_log_coords_rule_replaces_the_positive_coordinate_rule(self):
        log_y = np.array([[np.log(0.5), np.log(0.5), -np.inf], [0.0, -np.inf, -np.inf], [-1e4, 0.0, -np.inf]])
        coords = np.exp(log_y)  # the last row holds 0.0 on its face
        batch = FaceBatch([3, 1, 3], coords, log_y)
        assert batch.log_coords.tolist() == log_y.tolist()
        with pytest.raises(ValueError):
            batch.log_coords[0, 0] = 0.0
        pairs = list(batch)
        f, p = pairs[2]
        assert f.mask == 3 and p.support.mask == 2 and p.coords.tolist() == [0.0, 1.0, 0.0]
        assert [f.mask for f, _ in pairs] == [3, 1, 3] and [p.support.mask for _, p in pairs] == [3, 1, 2]
        assert FaceBatch.from_log_coords([3, 1, 3], log_y).coords.tolist() == coords.tolist()

    @pytest.mark.parametrize("bad", [
        [[-0.7, -0.7, -5.0]],  # finite off the face
        [[-0.7, -np.inf, -np.inf]],  # -inf on the face
        [[-0.7, np.nan, -np.inf]],
        [[-0.7, np.inf, -np.inf]],
        [[-0.7, -0.7, np.inf]],  # +inf off the face
    ])
    def test_rejects_log_coords_off_the_face_rule(self, bad):
        with pytest.raises(ValueError, match="log_coords must be finite exactly"):
            FaceBatch([3], [[0.5, 0.5, 0.0]], bad)

    def test_rejects_log_coords_with_positive_coordinates_off_the_face(self):
        with pytest.raises(ValueError, match="positive coordinates off"):
            FaceBatch([3], [[0.5, 0.25, 0.25]], [[-0.7, -0.7, -np.inf]])
        with pytest.raises(ValueError, match="shape"):
            FaceBatch([3], [[0.5, 0.5, 0.0]], [[-0.7, -0.7]])

    def test_k63_masks(self):
        K = 63
        coords = np.zeros((2, K))
        coords[0, K - 1] = 1.0
        coords[1] = 1.0 / K
        batch = FaceBatch.from_coords(coords)
        assert batch.masks.tolist() == [1 << (K - 1), (1 << K) - 1]
        assert batch.members().sum(axis=1).tolist() == [1, K]
