"""Byte pins of the face law and of the code that reads it.

For each K the sha256 of the face law's log Z, expected statistics and
sampling tables (batched and one law at a time), of ``GibbsFaceDistribution``'s
fields, of sampled masks with their statistics, log-probabilities and
gradients (one mask and an array of them), of Mixed Dirichlet densities,
exact face laws, entropies and KLs, of the ``most-probable-mean`` prediction
and of the face grouping routines are pinned.  The potentials reach +/-5e4,
so that the small-S branch of ``face_gibbs`` runs.  The digests were recorded
with numpy 2.4 and scipy 1.17 on x86-64 while each formula still had a second
copy; another build may round differently.  The ``exact`` digests of K = 3,
5, 8 and 13 were re-recorded when the per-face Dirichlet terms came to be
taken from subset sums over the face lattice: the KL takes its psi(a_0) term
once per face, and a face of 9 or more vertices sums them in vertex order
rather than pairwise, which moves the last bits of those entropies and KLs.
The face probabilities in the same digests did not move.
"""

import hashlib
import warnings

import numpy as np
import pytest

from mixedrv import face_gibbs as fg
from mixedrv import glm
from mixedrv.mixed_dirichlet import MixedDirichlet
from mixedrv.simplex import FaceBatch, face_groups, face_index

KS = [2, 3, 5, 8, 13, 31, 63]
EXACT_KS = [2, 3, 5, 8, 13]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(np.ascontiguousarray(a, dtype=np.int64 if a.dtype.kind in "iu" else np.float64).tobytes())
    return h.hexdigest()


def potentials(K: int) -> np.ndarray:
    """75 rows of K potentials: N(0, 3) draws, draws down to -400 and to
    -5e4, rows of one repeated value and draws up to 5e4."""
    rng = np.random.default_rng(2600 + K)
    return np.concatenate([rng.normal(0.0, 3.0, (40, K)), rng.uniform(-400.0, 5.0, (20, K)),
                           rng.uniform(-5e4, -400.0, (8, K)), rng.uniform(-5e4, 5e4, (2, K)),
                           np.full((1, K), -400.0), np.full((1, K), -5e4), np.full((1, K), 5e4),
                           np.full((1, K), 10.0), np.full((1, K), -10.0)])


def face_law_digest(K: int) -> str:
    w = potentials(K)
    log_z, phi = fg.log_normalizer_and_grad(w)
    one_log_z, one_phi = fg.log_normalizer_and_grad(w[60])
    return _digest(fg.log_normalizer(w), fg.log_normalizer(w[60]), log_z, phi, one_log_z, one_phi,
                   fg.expected_suff_stats(w), fg.sampling_tables(w), fg.sampling_tables(w[60]))


def constructor_digest(K: int) -> str:
    laws = [fg.GibbsFaceDistribution(row) for row in potentials(K)]
    return _digest(*[a for d in laws for a in (d.log_z, d.expected_phi, d.take_probs)],
                   [fg.entropy(d) for d in laws], [fg.kl(d, laws[0]) for d in laws])


def face_stats_digest(K: int) -> str:
    out = []
    for i, row in enumerate(potentials(K)[::5]):
        d = fg.GibbsFaceDistribution(row)
        masks = fg.sample_face_masks(d, 50, np.random.default_rng(K + i))
        one = int(masks[0])
        out += [masks, fg.suff_stats(masks, K), fg.suff_stats(one, K), fg.face_log_prob(d, masks),
                fg.face_log_prob(d, one), fg.grad_log_prob(d, masks), fg.grad_log_prob(d, one),
                fg.most_probable_face(d), np.flatnonzero(fg.most_probable_members(d.w))]
    return _digest(*out)


def _mixed(K: int, seed: int) -> MixedDirichlet:
    rng = np.random.default_rng(seed)
    return MixedDirichlet(rng.normal(0.0, 3.0, K), rng.choice([1e-3, 0.3, 1.0, 4.0, 50.0], K))


def density_digest(K: int) -> str:
    md, other = _mixed(K, 2700 + K), _mixed(K, 2800 + K)
    out = []
    for n in (1, 2, 7, 100):
        batch = md.sample_many(n, np.random.default_rng(n))
        out += [md.log_density_many(batch), other.log_density_many(batch),
                md.log_density_many(FaceBatch.from_coords(batch.coords))]
    vertex = FaceBatch.from_coords(np.eye(K)[:1])
    return _digest(*out, md.log_density_many(vertex))


def exact_digest(K: int) -> str:
    md, other = _mixed(K, 2700 + K), _mixed(K, 2800 + K)
    masks, weights = md.exact_face_distribution()
    return _digest(masks, weights, md.direct_sum_entropy(), md.direct_sum_kl(other), other.direct_sum_kl(md))


def most_probable_mean_digest(K: int) -> str:
    # face scores are the predictors (identity weights, zero bias): exact
    # ties and zero scores in some rows
    rng = np.random.default_rng(2900 + K)
    X = np.where(rng.random((60, K)) < 0.3, rng.uniform(0.0, 3.0, (60, K)), -rng.integers(0, 3, (60, K)) * 1.0)
    X[:5] = -1.0
    X[5:10] = 0.0
    model = glm.GlmModel(np.eye(K), np.zeros(K), rng.normal(0.0, 2.0, (K, K)), rng.normal(1.0, 1.0, K))
    return _digest(glm.predict_rows(model, X, "most-probable-mean").coords,
                   glm.predict_rows(model, X[:1], "most-probable-mean").coords)


def grouping_digest(K: int) -> str:
    rng = np.random.default_rng(3000 + K)
    out = []
    for n in (1, 2, 7, 100):
        for masks in (rng.integers(1, min(1 << K, 2**62), n, dtype=np.int64),
                      rng.integers(1, 4, n, dtype=np.int64), np.full(n, 3, dtype=np.int64)):
            faces, inverse = face_index(masks)
            groups = face_groups(masks)
            out += [faces, inverse, [m for m, _ in groups], *[rows for _, rows in groups]]
    return _digest(*out)


DIGESTS = {
    "face_law": (face_law_digest, KS),
    "constructor": (constructor_digest, KS),
    "face_stats": (face_stats_digest, KS),
    "density": (density_digest, KS),
    "exact": (exact_digest, EXACT_KS),
    "most_probable_mean": (most_probable_mean_digest, KS),
    "grouping": (grouping_digest, KS),
}

#: (digest name, K) -> sha256
PINS = {
    ('face_law', 2): '07c56254703d9708f66f1931a005afced7c8d938dc0cbc8eed34df997fc06250',
    ('face_law', 3): 'de2b9d784c62a8665bef16d428ff101908f60278ea363c64a03c9a3ad0627f47',
    ('face_law', 5): '9ad27b8bbccc0563b04d9aee26af2b39d4a56a686095844af747401374894324',
    ('face_law', 8): '247e33e1d35b02400e7ca6f87ef8d4c872b73e6199a304c142f89f45231413be',
    ('face_law', 13): '381b3efce347b6f998b7be3e205d9e8bfc489d06847f178374d34e2452c4c7ab',
    ('face_law', 31): '4f6117183b19d339b38632aa8446f02c4071d81c352e40ebe49a37e4e4b2f9c6',
    ('face_law', 63): 'af3c99b11796060ee1dccb416ff1cdb8a887065ecc69dea1fc3596efd61e45cc',
    ('constructor', 2): 'ead111c3ecff0becf07ec107af3f07b2685ad0afdc98db352c93bfbefe35f15a',
    ('constructor', 3): '4c5793bb53f09048f5bf148748f50620ea707a14dd22e8ecdd7f541c289b5c47',
    ('constructor', 5): '58b3861d14af6a13ae0e8c626e396dd64216cfbda6dbee6eff5b7b7a7f64d672',
    ('constructor', 8): 'af30f6dec7a94761ec5159c1f848d4c128d7133caaa12564205ec2ee46f33af8',
    ('constructor', 13): 'cb297d955de84f295f5df9cb32915a713654d9a3bc7b594b5284ebb71bf73e65',
    ('constructor', 31): '8485ef588829c533e2a829accaab78ce869669bac707b474d6d596b789abfc11',
    ('constructor', 63): 'c58bca7683492e04ddd57616078eb8e8800950a49fef9d87cf9e3454f4b23651',
    ('face_stats', 2): 'd783a4f2ed8d60ce30cc243d886c551a3ae0dde1aeb70724b664b227999aa9da',
    ('face_stats', 3): '6834fa9b368df540135ed201c4e94de5306dbd423827ed55ad283535a54dd1f1',
    ('face_stats', 5): '882a1a5132677f222a048b4ff5f1d699420ef0b453a782795dd26bbd882c09f3',
    ('face_stats', 8): '1ec210ef72770fd6aa12372aabad15aecca4b26821875380492e489101de3f65',
    ('face_stats', 13): '2ed107e498955f704ad231ba3f7bdbdb6da73b0442cbd5f7e49c2bd21257184a',
    ('face_stats', 31): '04fa7d290d8d20c95fae02229b6422c1ed956322b098d4cae0ec57cecda55919',
    ('face_stats', 63): '9c9d6d6b61fb4edb67f29aac59535c5f286e2aac9f3f5ec5eb591f3912294772',
    ('density', 2): 'f040803046c044ee3f044b1b70178b1087280b0e21a12ee7f2752387de67599e',
    ('density', 3): '2e66f17c817cf4efb1a8bbb422ad49cd915524b12970947b59473f7191153402',
    ('density', 5): '8394cc970ceed7e371148d41e8b2c2cdc09eee1f7eb27a910265cc35607dc7d6',
    ('density', 8): 'a3a6f271d5e85cc5dcbad9342115636e382719c14ee501bb46d6ce48c247d62e',
    ('density', 13): '01aa772b246df49617c0af534509831096578565ae392cc8eade3720fa06192b',
    ('density', 31): 'c5d33601cb5c1099e83ba606758dbac18e5d17b0ad020d2bb75dcd4e13b8a558',
    ('density', 63): 'e570011fab6ef8b6922d674995f9d9fc16205445b854f5196b1a07a6b8894a73',
    ('exact', 2): '00d7714047f58be8bf8b3f38ff49cbdf3eb09e3dd6ec6d5c8b0ebd4477c34116',
    ('exact', 3): '98834bfa880db4808040170a53868fdf591f652c6f4de479115dd9b96d296cbd',
    ('exact', 5): 'e9956fd701741e8ff5c3a5d6dc803da470b241f81f84a2219170766dc21f053a',
    ('exact', 8): '65533deee8b4151f32aec4c111b56593fb6d7e6038a55509ab22b57e0011b495',
    ('exact', 13): 'd3a02162ea31b4d52039d26ac6ef69ad105420e3acbb7e4b63496836ad403300',
    ('most_probable_mean', 2): '6bfa9f28bf9ec88f853d01bed1b096ae68f417af11be98ab655480560ac08ba1',
    ('most_probable_mean', 3): '35decceb0cf8830f79e978f200793bc29bee32e114b6cd629b651b65a8489f95',
    ('most_probable_mean', 5): 'bcd3896ff85016ffa9d60c3fe0cc5b77ca924b69ac72093ba9b42c7719eefc6f',
    ('most_probable_mean', 8): '443cc4db3867d7b8ec2473431e9920f0eb448e2b4ab35564cbc6995aa99c10db',
    ('most_probable_mean', 13): '8748b1781d26ca1a76ad9e12b36f33a59b2abfa6f41f5d247c6a88dfa4500c35',
    ('most_probable_mean', 31): 'ec3350cc66fa2beeb49ab72448f32c1c868fe53b731be3908800b7f701d719fc',
    ('most_probable_mean', 63): '4f719ae5c37ccc4931f5632d4358032e8d9d3e3a5bd06894294f2423316be9ab',
    ('grouping', 2): '1af24287bbb10d2d8d59c349a82fb4ea9eb4ed2d22a970719dcddc55476b4d01',
    ('grouping', 3): 'd19815feec4dff0d6917fa61535a9063e5f58088a38d2dd5be90b8ca53cc091e',
    ('grouping', 5): '1b363e9b7779394cc8c5f5adc82efe2ebb7b6018060b9c51c903fb536ad6c109',
    ('grouping', 8): '9ee44cacf121725de8d73a156dfac8f6f565628e3ee0809d07c1f7421e1ffe5c',
    ('grouping', 13): '3b6a7d654bebe04d9a27d482814c0fb0c5fafde68dde01423ba9f66bb4c350c9',
    ('grouping', 31): '8ca67d788cab65d090fac9d069655b313b8315fa7db49873eb51cc5804661a8f',
    ('grouping', 63): '8bd90fbb2c1671e070a9407d6967c6e7150734a5aa728d669c1f12150f00f8db',
}

CASES = [(name, K) for name, (_, ks) in DIGESTS.items() for K in ks]


@pytest.mark.parametrize("case", CASES, ids=[f"{name}-K{K}" for name, K in CASES])
def test_face_law_bytes(case):
    name, K = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert DIGESTS[name][0](K) == PINS[case]


def test_potentials_reach_the_small_s_branch():
    # the pins would not cover the small-S branch if no row's softplus sum underflowed
    for K in KS:
        assert (np.logaddexp(0.0, 2.0 * potentials(K)[:, -1]) < 1e-280).any()
