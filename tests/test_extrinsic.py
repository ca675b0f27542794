import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit, ndtr

from mixedrv import checks, info_theory, oracles
from mixedrv import extrinsic as ex
from mixedrv.simplex import FaceBatch, SimplexPoint, sparsemax, sparsemax_rows


class TestGaussianSparsemaxSampling:
    def test_degenerate_noise_recovers_mean(self):
        d = ex.GaussianSparsemax([0.5, 0.3, 0.2], [1e-12] * 3)
        coords = d.sample_many(1, np.random.default_rng(50)).coords
        np.testing.assert_allclose(coords[0], [0.5, 0.3, 0.2], atol=1e-10)

    def test_symmetric_vertex_masses(self):
        d = ex.GaussianSparsemax([0.5, 0.5], [0.7, 0.7])
        coords = d.sample_many(10**5, np.random.default_rng(51)).coords
        f0 = np.mean(coords[:, 0] == 0.0)
        f1 = np.mean(coords[:, 1] == 0.0)
        assert abs(f0 - f1) < 8 * np.sqrt(f0 * (1 - f0) / 10**5)

    def test_face_frequencies_match_closed_form(self):
        d = ex.GaussianSparsemax([0.55, 0.45], [0.8, 0.6])
        z, s = ex.gs2_params(d)
        p0, p1, pc = ex.gs2_face_probs(z, s)
        n = 2 * 10**5
        coords = d.sample_many(n, np.random.default_rng(52)).coords
        freqs = [np.mean(coords[:, 0] == 0.0), np.mean(coords[:, 1] == 0.0)]
        for freq, prob in zip(freqs, (p0, p1)):
            assert abs(freq - prob) < 4 * np.sqrt(prob * (1 - prob) / n)

    def test_sample_face_matches_support(self):
        d = ex.GaussianSparsemax([0.4, 0.1, 0.5], [1.0, 0.5, 0.8])
        for f, p in ex.gs_sample_many(d, 300, np.random.default_rng(53)):
            assert p.support == f

    def test_validation(self):
        with pytest.raises(ValueError):
            ex.GaussianSparsemax([0.5, 0.5], [1.0, 0.0])
        with pytest.raises(ValueError):
            ex.GaussianSparsemax([0.5], [1.0])

    @pytest.mark.parametrize("s", [1e-154, 1e-160, 1e-200, 1e-310])
    def test_rejects_sigma_whose_precision_overflows(self, s):
        with pytest.raises(ValueError, match="sigma"):
            ex.GaussianSparsemax([0.3, 0.2, 0.1], [s, 2 * s, s])

    def test_tiny_sigma_density_is_finite(self):
        d = ex.GaussianSparsemax([0.3, 0.2, 0.1], [1e-150, 2e-150, 1e-150])
        batch = d.sample_many(20, np.random.default_rng(66))
        assert np.isfinite(ex.gs_log_density_many(d, batch)).all()


def _gs2_kl_mpmath(zp: float, sp: float, zq: float, sq: float) -> float:
    """``gs2_kl`` at 50 digits: the vertex terms P log(P / Q) from the
    normal tail masses, plus the interior integral of N_p log(N_p / N_q)
    by quadrature."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        zp, sp, zq, sq = (mp.mpf(v) for v in (zp, sp, zq, sq))

        def log_pdf(y, z, s):
            return -((y - z) / s) ** 2 / 2 - mp.log(s * mp.sqrt(2 * mp.pi))

        total = mp.fsum(P * mp.log(P / Q) for P, Q in ((mp.ncdf(-zp / sp), mp.ncdf(-zq / sq)),
                                                       (mp.ncdf((zp - 1) / sp), mp.ncdf((zq - 1) / sq))))
        total += mp.quad(lambda y: mp.exp(log_pdf(y, zp, sp)) * (log_pdf(y, zp, sp) - log_pdf(y, zq, sq)),
                         [0, zp, 1])
        return float(total)


def _k3_log_density_mpmath(mu, sigma, y) -> float:
    """The K = 3 Gaussian-Sparsemax log-density at 320 digits, at a point on
    a face S of two or more vertices: the Gaussian factor of S with m =
    -c/t, times Phi((m - mu_j) / sqrt(sigma_j^2 + 1/t)) for the one off-face
    j.  At 60 digits the direct spread q still cancels at sigma_0 = 1e-150."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(320):
        on = np.flatnonzero(y).tolist()
        a = [1 / mp.mpf(float(v)) ** 2 for v in sigma]
        r = [mp.mpf(float(v)) - mp.mpf(float(u)) for v, u in zip(y, mu)]
        t = mp.fsum(a[k] for k in on)
        c = mp.fsum(a[k] * r[k] for k in on)
        q = mp.fsum(a[k] * (r[k] - c / t) ** 2 for k in on)
        out = mp.log(len(on)) - (q + mp.fsum(mp.log(mp.mpf(float(sigma[k])) ** 2) for k in on) + mp.log(t)
                                 + (len(on) - 1) * mp.log(2 * mp.pi)) / 2
        for j in set(range(3)) - set(on):
            out += mp.log(mp.ncdf((-c / t - mp.mpf(float(mu[j]))) / mp.sqrt(mp.mpf(float(sigma[j])) ** 2 + 1 / t)))
        return float(out)


#: mu and sigma of a law with K coordinates, one rule per domain
ORACLE_DOMAINS = {
    "moderate": lambda rng, K: (rng.normal(0.0, 3.0, K), rng.uniform(0.3, 3.0, K)),
    "wide": lambda rng, K: (rng.uniform(-30.0, 30.0, K), 10.0 ** rng.uniform(-2.0, 2.0, K)),
    "extreme_sigma": lambda rng, K: (rng.normal(0.0, 3.0, K), 10.0 ** rng.uniform(-4.0, 4.0, K)),
}


@functools.lru_cache(maxsize=None)
def _oracle_domain_rows(domain: str) -> list:
    """(law, batch, quad-oracle log-densities) for 40 laws (K = 3..6) of the
    domain, each with a drawn point and a random-face point, each in a
    batch of ``_same_face_rows``: 400 rows."""
    rng = np.random.default_rng([73, list(ORACLE_DOMAINS).index(domain)])
    out = []
    for _ in range(40):
        K = int(rng.integers(3, 7))
        d = ex.GaussianSparsemax(*ORACLE_DOMAINS[domain](rng, K))
        for y in (d.sample_many(1, rng).coords[0], sparsemax_rows(rng.normal(0.0, 1.0, (1, K)))[0]):
            batch = FaceBatch.from_coords(checks._same_face_rows(y))
            out.append((d, batch, np.array([oracles.gs_log_density_reference(d, row) for row in batch.coords])))
    return out


class TestGs2ClosedForms:
    def test_face_probs_at_zero(self):
        p0, _, _ = ex.gs2_face_probs(0.0, 1.0)
        assert p0 == pytest.approx(0.5, abs=1e-15)

    def test_symmetry_at_half(self):
        p0, p1, _ = ex.gs2_face_probs(0.5, 0.8)
        assert p0 == pytest.approx(p1, abs=1e-15)

    def test_small_sigma_interior_mass(self):
        p0, p1, pc = ex.gs2_face_probs(0.5, 0.1)
        # both tails sit 5 sigma out: Phi(-5) each
        assert p0 == pytest.approx(float(ndtr(-5.0)), rel=1e-12)
        assert p0 == pytest.approx(2.87e-7, rel=5e-3)
        assert pc == pytest.approx(1.0, abs=1e-6)

    def test_probs_sum_to_one(self):
        for z, s in [(0.3, 0.5), (-2.0, 1.0), (3.0, 0.4)]:
            assert sum(ex.gs2_face_probs(z, s)) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            ex.gs2_face_probs(0.5, 0.0)

    def test_entropy_vs_mc(self):
        for i, (z, s) in enumerate([(0.3, 0.5), (0.7, 1.2), (0.95, 0.25)]):
            rng = np.random.default_rng(54 + i)
            y = np.clip(z + s * rng.standard_normal(2 * 10**5), 0.0, 1.0)
            logs = oracles.gs2_log_density(y, z, s)
            se = logs.std(ddof=1) / np.sqrt(y.size)
            assert ex.gs2_entropy(z, s) == pytest.approx(-logs.mean(), abs=3 * se)

    def test_entropy_gaussian_limit(self):
        h = ex.gs2_entropy(0.5, 0.05)
        assert h == pytest.approx(0.5 * np.log(2 * np.pi * np.e * 0.05**2), abs=1e-4)

    def test_entropy_degenerate_vertex(self):
        assert ex.gs2_entropy(10.0, 1.0) == pytest.approx(0.0, abs=1e-6)

    def test_kl_zero_on_equal(self):
        assert ex.gs2_kl(0.4, 0.8, 0.4, 0.8) == 0.0

    def test_kl_vs_mc(self):
        rng = np.random.default_rng(55)
        for i in range(4):
            zp, zq = rng.uniform(-0.2, 1.2, 2)
            sp, sq = rng.uniform(0.3, 1.2, 2)
            y = np.clip(zp + sp * np.random.default_rng(56 + i).standard_normal(2 * 10**5), 0.0, 1.0)
            diffs = oracles.gs2_log_density(y, zp, sp) - oracles.gs2_log_density(y, zq, sq)
            se = diffs.std(ddof=1) / np.sqrt(y.size)
            assert ex.gs2_kl(zp, sp, zq, sq) == pytest.approx(diffs.mean(), abs=3 * se)

    @pytest.mark.parametrize("sigma_q", [0.01878, 0.015, 0.005])
    def test_kl_with_vertex_masses_below_the_normal_range(self, sigma_q):
        # q's vertex masses are 1.4e-310 (subnormal), then below the
        # smallest double: the vertex terms come from the log-masses
        p = ex.GaussianSparsemax([0.0, 0.0], [0.42426, 0.42426])
        q = ex.GaussianSparsemax([0.0, 0.0], [sigma_q, sigma_q])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = p.direct_sum_kl(q)
        assert got == pytest.approx(_gs2_kl_mpmath(*ex.gs2_params(p), *ex.gs2_params(q)), rel=1e-12)
        if sigma_q == 0.01878:
            assert got == pytest.approx(210.96, abs=0.005)
            est = info_theory.direct_sum_kl_mc(p, q, 50_000, np.random.default_rng(1))
            assert abs(got - est.estimate) <= 4.0 * est.std_error

    def test_kl_vs_mpmath(self):
        rng = np.random.default_rng(58)
        for _ in range(8):
            zp, zq = rng.uniform(-1, 2, 2)
            sp, sq = rng.uniform(0.1, 2, 2)
            assert ex.gs2_kl(zp, sp, zq, sq) == pytest.approx(_gs2_kl_mpmath(zp, sp, zq, sq), rel=1e-11, abs=1e-14)

    def test_far_tail_entropy_and_kl_do_not_warn(self):
        # |z / sigma| is about 7e159, beyond the 1.3e154 whose square overflows:
        # all the mass sits at the vertex y = 1
        tail = ex.GaussianSparsemax([1e10, 0.0], [1e-150, 1e-150])
        p = ex.GaussianSparsemax([0.0, 0.0], [0.42426, 0.42426])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tail.direct_sum_entropy() == 0.0
            assert tail.direct_sum_kl(p) == pytest.approx(-np.log(ndtr((ex.gs2_params(p)[0] - 1.0)
                                                                       / ex.gs2_params(p)[1])), rel=1e-14)
            assert p.direct_sum_kl(tail) == np.inf  # q has no interior mass in doubles
            assert tail.direct_sum_kl(tail) == 0.0

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(57)
        for _ in range(1000):
            zp, zq = rng.uniform(-1, 2, 2)
            sp, sq = rng.uniform(0.1, 2, 2)
            assert ex.gs2_kl(zp, sp, zq, sq) >= 0.0


class TestGsLogDensity:
    def test_k2_reduction_on_grid(self):
        d = ex.GaussianSparsemax([0.35, 0.45], [0.9, 0.5])
        z, s = ex.gs2_params(d)
        for y1 in [0.0, 1.0] + list(np.linspace(0.02, 0.98, 18)):
            p = SimplexPoint([y1, 1.0 - y1])
            vals = [
                ex.gs_log_density(d, p),
                oracles.gs2_log_density(y1, z, s),
                oracles.gs_log_density_reference(d, p.coords),
            ]
            assert max(vals) - min(vals) < 1e-8

    def test_constant_sigma_simplification_agrees(self):
        # batches hold two or more rows on each face, all sharing one node set
        rng = np.random.default_rng(58)
        for _ in range(20):
            mu = rng.normal(0.2, 0.6, 3)
            sigma = np.full(3, float(rng.uniform(0.3, 1.2)))
            y = sparsemax(rng.normal(0.3, 0.8, 3))
            d = ex.GaussianSparsemax(mu, sigma)
            batch = FaceBatch.from_coords(checks._same_face_rows(y.coords))
            counts = np.bincount(batch.masks)
            assert counts[counts > 0].min() >= 2
            ref = [oracles.gs_log_density_reference(d, row) for row in batch.coords]
            np.testing.assert_allclose(ex.gs_log_density_many(d, batch), ref, rtol=0, atol=1e-8)

    def test_pivot_invariance(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            K = int(rng.integers(3, 6))
            d = ex.GaussianSparsemax(rng.normal(0.2, 0.6, K), rng.uniform(0.3, 1.3, K))
            y = sparsemax(rng.normal(0.3, 0.8, K))
            got = ex.gs_log_density(d, y)
            for i in np.flatnonzero(y.coords).tolist():
                assert abs(got - oracles.gs_log_density_reference(d, y.coords, pivot=i)) < 1e-8

    def test_matches_dense_oracle_at_every_pivot(self):
        # 300 laws: K = 2..8, mu ~ N(0, 3) or N(0, 30), sigma in [0.05, 3],
        # equal and unequal; rows sampled from the law and on random faces
        rng = np.random.default_rng(65)
        for i in range(300):
            K = int(rng.integers(2, 9))
            mu = rng.normal(0.0, 3.0 if i % 2 else 30.0, K)
            sigma = np.full(K, rng.uniform(0.05, 3.0)) if i % 3 == 0 else rng.uniform(0.05, 3.0, K)
            d = ex.GaussianSparsemax(mu, sigma)
            coords = np.concatenate([d.sample_many(2, rng).coords, sparsemax_rows(rng.normal(0.0, 1.0, (2, K)))])
            batch = FaceBatch.from_coords(coords)
            for got, y in zip(ex.gs_log_density_many(d, batch), batch.coords):
                for pivot in np.flatnonzero(y).tolist():
                    ref = oracles.gs_log_density_reference(d, y, pivot=pivot)
                    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_far_tail_vertex_density(self):
        # the off-face steps sit 11 and 1 units from the vertex's Gaussian,
        # 110 and 10 of their widths; the reference is a 50-digit mpmath quad
        d = ex.GaussianSparsemax([5.0, -5.0, -5.0], [0.1, 0.1, 0.1])
        got = d.log_density_many(FaceBatch.from_coords(np.eye(3)))
        assert abs(got[0]) < 1e-12
        for k in (1, 2):
            ref = oracles.gs_log_density_reference(d, np.eye(3)[k])
            assert abs(got[k] - ref) <= 1e-12 * abs(ref)
            assert abs(got[k] - -3030.2730105297276) <= 1e-12 * 3030.3

    def test_rows_far_apart_on_one_face(self, monkeypatch):
        # narrow on-face sigmas: each row's window is ~0.1 wide while the
        # rows' Gaussian means spread over ~1, so the one face's rows take
        # several node sets
        d = ex.GaussianSparsemax([0.4, -0.2, 0.3, 0.1], [0.01, 0.02, 0.5, 2.0])
        a = np.linspace(0.02, 0.98, 25)
        batch = FaceBatch.from_coords(np.stack([a, 1.0 - a, 0.0 * a, 0.0 * a], axis=1))
        node_sets = []
        orthant_log = ex._orthant_log
        monkeypatch.setattr(ex, "_orthant_log", lambda *args: node_sets.append(args) or orthant_log(*args))
        got = ex.gs_log_density_many(d, batch)
        assert len(node_sets) > 1
        ref = [oracles.gs_log_density_reference(d, row) for row in batch.coords]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_extreme_sigma_ratios_stay_finite(self):
        # sigmas 240 decades apart leave steps and windows below the spacing
        # of doubles; such rows fall back to the Laplace approximation
        d = ex.GaussianSparsemax([1.339, -1.611, 1.743, 1.094], [1.4e135, 1.8e-107, 3.9e134, 3.5e-57])
        batch = FaceBatch.from_coords(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                                                [0.0, 0.64, 0.36, 0.0], [0.0, 0.29, 0.04, 0.67]]))
        assert np.isfinite(d.log_density_many(batch)).all()
        # alone, a row that falls back leaves no row for any node set
        for row in batch.coords:
            assert np.isfinite(d.log_density_many(FaceBatch.from_coords(row[None]))).all()

    def test_shared_and_own_node_sets_match_the_oracle(self, monkeypatch):
        # the check's batches: a facet of _OWN_SET_ROWS rows takes node sets
        # of its own and the faces of 1-3 rows share theirs, in the same call
        node_sets = []
        orthant_log = ex._orthant_log
        monkeypatch.setattr(ex, "_orthant_log", lambda *args: node_sets.append(args[2]) or orthant_log(*args))
        assert "match the oracle" in checks._check_gs_density_pooled_faces()
        faces = [np.unique(masks).size for masks in node_sets]
        assert min(faces) == 1 and max(faces) > 1

    @pytest.mark.parametrize("short", [1, 0])
    def test_a_face_takes_its_own_node_sets_at_the_threshold(self, monkeypatch, short):
        # a facet of _OWN_SET_ROWS rows (one off-face coordinate) and one
        # row on another facet, at equal sigma: every window lies within
        # one cluster, so one row short of the threshold both faces share
        # one node set, and at it each face has a set of its own
        K = 5
        d = ex.GaussianSparsemax(np.linspace(-0.2, 0.3, K), np.ones(K))
        rng = np.random.default_rng(71)
        big = np.zeros((ex._OWN_SET_ROWS - short, K))
        big[:, 1:] = rng.dirichlet(np.ones(K - 1), big.shape[0])
        lone = np.zeros((1, K))
        lone[:, :-1] = rng.dirichlet(np.ones(K - 1), 1)
        batch = FaceBatch.from_coords(np.concatenate([big, lone]))
        node_sets = []
        orthant_log = ex._orthant_log
        monkeypatch.setattr(ex, "_orthant_log", lambda *args: node_sets.append(args[2]) or orthant_log(*args))
        got = ex.gs_log_density_many(d, batch)
        faces = sorted(np.unique(masks).size for masks in node_sets)
        assert faces == ([2] if short else [1, 1])
        ref = [oracles.gs_log_density_reference(d, row) for row in batch.coords]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_density_memory_is_bounded_by_the_chunk(self):
        """A batch's rows on faces of few rows share one node set, whose
        (rows, nodes) terms are evaluated in chunks: 200 rows at K = 6 hold
        one chunk buffer of at most 2^15 doubles (256 KiB) at a time."""
        rng = np.random.default_rng(139)
        for _ in range(4):
            d = ex.GaussianSparsemax(rng.normal(0.0, 1.0, 6), rng.uniform(0.5, 1.5, 6))
            batch = d.sample_many(200, rng)
            d.log_density_many(batch)  # scipy's import and the rule's nodes are one-time costs
            tracemalloc.start()
            try:
                d.log_density_many(batch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # a second buffer of (rows, nodes) terms, a chunk of 2^16 doubles
            # or the unchunked shared set's would take this past 0.6 MB
            assert peak < 0.6e6

    @pytest.mark.parametrize("n", [2000, 6000])
    def test_node_set_memory_is_bounded_by_the_chunk(self, monkeypatch, n):
        """Where own and shared node sets both run, each set's (rows,
        nodes) terms are evaluated in chunks: a call of ``_orthant_log``
        allocates one chunk buffer of 2^15 doubles (256 KiB) and its nodes'
        terms, and beside them a few doubles per row, however many rows the
        batch or the set holds."""
        rng = np.random.default_rng(140)
        d = ex.GaussianSparsemax(rng.normal(0.0, 1.0, 6), rng.uniform(0.5, 1.5, 6))
        batch = d.sample_many(n, rng)
        # scipy's import and the rule's nodes are one-time costs
        d.log_density_many(FaceBatch.from_coords(batch.coords[:10]))
        calls = []
        orthant_log = ex._orthant_log

        def traced(*args):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = orthant_log(*args)
            calls.append((np.unique(args[2]).size, args[3].size, tracemalloc.get_traced_memory()[1] - held))
            return out

        monkeypatch.setattr(ex, "_orthant_log", traced)
        tracemalloc.start()
        try:
            d.log_density_many(batch)
        finally:
            tracemalloc.stop()
        # some face takes sets of its own, and the small faces share one
        assert any(faces == 1 and rows >= ex._OWN_SET_ROWS for faces, rows, _ in calls)
        assert any(faces > 1 for faces, _, _ in calls)
        # an unchunked set of these rows would hold 12 panels x 16 nodes or
        # more, 1,536 bytes a row; a second chunk buffer adds 0.26 MB
        for _, rows, peak in calls:
            assert peak < 0.5e6 + 32 * rows

    @pytest.mark.parametrize("sigma0", [1.0, 1e-4, 1e-6, 1e-8, 1e-10, 1e-20, 1e-100, 1e-150])
    def test_k3_closed_form_at_large_sigma_ratios(self, sigma0):
        # sigma0^-2 multiplies the rounding noise of r_0 - c/t unless the
        # spread q is taken about coordinate 0 itself; down to sigma0 = 1e-10
        # the windows are resolved by quadrature, whose nodes t (V - m)^2
        # would carry ulp(V) sqrt(t) were they absolute doubles
        mu = np.array([0.3, 0.1, 0.2])
        d = ex.GaussianSparsemax(mu, [sigma0, 0.8, 1.1])
        coords = d.sample_many(120, np.random.default_rng(67)).coords
        batch = FaceBatch.from_coords(coords[np.count_nonzero(coords, axis=1) >= 2])
        assert np.unique(batch.masks).size == 4
        ref = np.array([_k3_log_density_mpmath(mu, d.sigma, y) for y in batch.coords])
        err = np.abs(d.log_density_many(batch) - ref)
        assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    @staticmethod
    def _worst_oracle_error(domain: str) -> float:
        """Largest error relative to max(1, |ref|) of ``gs_log_density_many``
        against the quad oracle on the domain's 400 rows."""
        worst = 0.0
        for d, batch, ref in _oracle_domain_rows(domain):
            err = np.abs(ex.gs_log_density_many(d, batch) - ref) / np.maximum(1.0, np.abs(ref))
            worst = max(worst, float(err.max()))
        return worst

    @pytest.mark.parametrize("domain", list(ORACLE_DOMAINS))
    def test_rule_holds_the_oracle_bound(self, domain):
        # worst errors read 6.7e-16, 7.8e-14 and 7.3e-13; the largest are the
        # oracle's own (a 40-digit mpmath quad puts the rule within 2e-15 there)
        assert self._worst_oracle_error(domain) <= 5e-12

    @pytest.mark.parametrize("domain", list(ORACLE_DOMAINS))
    def test_oracle_bound_catches_a_coarser_rule(self, domain, monkeypatch):
        # 12 panels of 8 nodes read 3.3e-11, 1.2e-11 and 3.9e-11
        monkeypatch.setattr(ex, "_QUAD", ex.QuadratureConfig(12, 8))
        assert self._worst_oracle_error(domain) > 5e-12

    def test_vertex_mass_matches_frequency(self):
        d = ex.GaussianSparsemax([0.6, 0.2, 0.2], [0.7, 0.7, 0.9])
        n = 2 * 10**5
        coords = d.sample_many(n, np.random.default_rng(61)).coords
        freq = float(np.mean((coords[:, 1] == 0.0) & (coords[:, 2] == 0.0)))
        dens = float(np.exp(d.log_density_many(FaceBatch.from_coords(np.eye(3)[:1]))[0]))
        assert abs(freq - dens) < 5 * np.sqrt(dens * (1 - dens) / n)

    def test_k3_cubature_kl_vanishes_against_the_law_itself(self):
        p, q = ex.GaussianSparsemax(*checks._GS_K3), ex.GaussianSparsemax(*checks._GS_K3_Q)
        mass, entropy, kl = oracles.gs_k3_cubature(p, p)
        assert kl == 0.0
        assert (mass, entropy) == oracles.gs_k3_cubature(p, q)[:2]

    def test_k3_kl_mc_matches_the_cubature(self):
        # the full-level check, whose 20,000-row batches give the large
        # faces node sets of their own
        assert "vs cubature" in checks._check_gs_k3_kl_mc(20000)


class TestConcrete:
    def test_interior_output(self):
        batch = ex.Concrete([0.3, -0.5, 1.0], 0.7).sample_many(100, np.random.default_rng(62))
        assert np.all(batch.coords > 0.0)
        assert batch.masks.tolist() == [0b111] * 100

    def test_zero_temperature_limit_is_the_clamped_argmax(self):
        rng = np.random.default_rng(68)
        z, g = rng.normal(0.0, 1.0, 5), ex._gumbel(rng, (50, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = ex.concrete_from_gumbels(z, 1e-308, g)
        expected = np.full((50, 5), 1e-300)
        expected[np.arange(50), np.argmax(z + g, axis=1)] = 1.0
        assert np.array_equal(y, expected)

    def test_gumbel_max_property(self):
        z = np.array([0.2, -0.5, 1.0])
        probs = np.exp(z) / np.exp(z).sum()
        n = 2 * 10**5
        coords = ex.Concrete(z, 0.7).sample_many(n, np.random.default_rng(63)).coords
        freqs = np.bincount(np.argmax(coords, axis=1), minlength=3) / n
        for k in range(3):
            assert abs(freqs[k] - probs[k]) < 4 * np.sqrt(probs[k] * (1 - probs[k]) / n)

    def test_high_temperature_near_uniform(self):
        coords = ex.Concrete(np.zeros(10), 1e3).sample_many(5000, np.random.default_rng(64)).coords
        assert np.quantile(coords.max(axis=1), 0.99) < 0.12

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            ex.Concrete([0.0, 0.0], 0.0)


class TestKDHardConcrete:
    def test_lambda_one_always_full_face(self):
        d = ex.KDHardConcrete([0.3, -0.2, 0.1], 0.7, 1.0)
        batch = d.sample_many(200, np.random.default_rng(65))
        assert batch.masks.tolist() == [0b111] * 200
        assert np.all(batch.coords > 0)

    def test_rejects_lambda_below_one(self):
        with pytest.raises(ValueError):
            ex.KDHardConcrete([0.0, 0.0], 0.5, 0.9)

    def test_coupling_with_binary_hard_concrete(self):
        # the K=2 stretch by lam corresponds to the interval
        # ((1-lam)/2, (1+lam)/2) with logit difference as log_alpha
        rng = np.random.default_rng(66)
        z = np.array([0.4, -0.3])
        beta, lam = 0.66, 1.1
        bhc = ex.BinaryHardConcrete(float(z[0] - z[1]), beta, (1 - lam) / 2, (1 + lam) / 2)
        for _ in range(2000):
            g = -np.log(-np.log(rng.random(2)))
            y_soft = ex.concrete_from_gumbels(z, beta, g)
            y_khc = sparsemax(lam * y_soft).coords[0]
            y_bin = float(ex.binary_hard_concrete_from_logistic(bhc, g[0] - g[1]))
            assert y_khc == pytest.approx(y_bin, abs=1e-12)

    def test_vertex_rate_increases_with_lambda(self):
        z = np.array([0.4, -0.3])
        small = ex.KDHardConcrete(z, 0.66, 1.1).sample_many(5000, np.random.default_rng(67)).coords
        big = ex.KDHardConcrete(z, 0.66, 10.0).sample_many(5000, np.random.default_rng(68)).coords
        rate = lambda c: np.mean((c > 0).sum(axis=1) == 1)
        assert rate(big) > rate(small)

    def test_large_lambda_approaches_gumbel_max(self):
        z = np.array([0.2, -0.5, 1.0])
        probs = np.exp(z) / np.exp(z).sum()
        coords = ex.KDHardConcrete(z, 0.4, 50.0).sample_many(10**5, np.random.default_rng(69)).coords
        vertex_rows = (coords > 0).sum(axis=1) == 1
        freqs = np.bincount(np.argmax(coords[vertex_rows], axis=1), minlength=3) / vertex_rows.sum()
        np.testing.assert_allclose(freqs, probs, atol=0.02)


class TestBinaryHardConcrete:
    def test_forced_one(self):
        d = ex.BinaryHardConcrete(30.0, 0.66)
        vals = ex.binary_hard_concrete_sample_values(d, 100, np.random.default_rng(70))
        assert np.all(vals == 1.0)

    def test_symmetric_boundary_masses(self):
        d = ex.BinaryHardConcrete(0.0, 2.0 / 3.0)
        n = 10**5
        vals = ex.binary_hard_concrete_sample_values(d, n, np.random.default_rng(71))
        pz, po = np.mean(vals == 0.0), np.mean(vals == 1.0)
        assert abs(pz - po) < 8 * np.sqrt(pz * (1 - pz) / n)

    def test_zero_mass_matches_logistic_cdf(self):
        d = ex.BinaryHardConcrete(0.3, 0.66)
        p_zero = float(expit(d.beta * np.log(-d.l / d.r) - d.log_alpha))
        n = 2 * 10**5
        vals = ex.binary_hard_concrete_sample_values(d, n, np.random.default_rng(72))
        freq = np.mean(vals == 0.0)
        assert abs(freq - p_zero) < 4 * np.sqrt(p_zero * (1 - p_zero) / n)

    def test_trit_classification(self):
        d = ex.BinaryHardConcrete(0.0, 0.66)
        vals = ex.binary_hard_concrete_sample_values(d, 500, np.random.default_rng(73))
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.any(vals == 0.0) and np.any(vals == 1.0)
        assert np.any((vals > 0.0) & (vals < 1.0))

    def test_rejects_bad_stretch(self):
        with pytest.raises(ValueError):
            ex.BinaryHardConcrete(0.0, 0.66, l=0.1, r=1.1)
