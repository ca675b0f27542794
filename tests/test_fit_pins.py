"""Byte pins of the GLM fit path.

For each shape (n rows, d predictors, K vertices) the sha256 of
``glm_fit``'s losses and four weight arrays, and of ``glm_log_likelihood``'s
value and gradient, are pinned.  The predictors mix row scales of 0.5, 50
and 5,000, so that both clamps (face scores and concentration
pre-activations) saturate on some rows and not on others, and the
concentration floor is reached.  The digests were recorded with numpy 2.4 on
x86-64 before the kernel moved to stacked buffers; another numpy build may
round differently.

The face law's ``_log_z_and_grad`` is pinned too, down to potentials of
-5e4 (the small-S branch).  Its digests were recorded while it was still
checked bitwise against the column-0 terms of a second closed form over
every column, which it has since replaced.
"""

import hashlib
import warnings

import numpy as np
import pytest

from mixedrv import face_gibbs as fg
from mixedrv import glm

FIT_STEPS = 25


def _case(n: int, d: int, K: int):
    seed = 1000 * K + 10 * d + n % 7
    X, targets, _ = glm.make_planted_dataset(n, K, d, seed=seed)
    rng = np.random.default_rng(seed + 1)
    X = X * rng.choice([0.5, 50.0, 5000.0], size=(n, 1))
    model = glm.GlmModel(rng.normal(0.0, 1.0, (K, d)), rng.normal(0.0, 2.0, K),
                         rng.normal(0.0, 1.0, (K, d)), rng.normal(0.0, 2.0, K))
    return X, targets, model


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def fit_digest(n: int, d: int, K: int) -> str:
    X, targets, _ = _case(n, d, K)
    fit = glm.glm_fit(X, targets, steps=FIT_STEPS, seed=n + d + K)
    m = fit.model
    return _digest(fit.losses, m.w_face, m.b_face, m.w_conc, m.b_conc)


def likelihood_digest(n: int, d: int, K: int) -> str:
    X, targets, model = _case(n, d, K)
    ll, g = glm.glm_log_likelihood(model, X, targets)
    return _digest(np.float64(ll), g["w_face"], g["b_face"], g["w_conc"], g["b_conc"])


SHAPES = [(n, d, K) for n in (1, 2, 5, 120, 2000) for d in (1, 4, 8, 16) for K in (2, 6, 12)]

#: (n, d, K) -> (fit digest, likelihood digest)
PINS = {
    (1, 1, 2): ('e9b74fb91bc6ad202ac55e7761c4e30f5da71dc492c5d7da078a95270dc69b2d',
               'aea49c29da1db0d355fab83ffdfa9fa0a77b962389d5b4329b298d48f7a1bb33'),
    (1, 1, 6): ('d354098a17c136cbe5ff92fd7e3c7b2cb7540bfebbe923a0269ca84eb8571acb',
               '0954c1e7366a8ec45bb114297227ee8895ed7d9484b2f712847986f31873353d'),
    (1, 1, 12): ('57ec087e73b262b0b8919910b059526bcfe82ed4ad5fd46887c8965db90da9cd',
                '9d38247c501e13b1df43638e82417f0285709215fffd8280bad96b1599121e29'),
    (1, 4, 2): ('8f6b45a32e8b2129cef76a797215bbe9ea4019390b4a3355eba80c52da69337c',
               'dedc6f5493947f13c4e5f5ddcdbd789c5ad385015e12f849cf55e43e9d04bd35'),
    (1, 4, 6): ('439d9e4e33c8823d4cd2f96e5ab50277bbfef29eb19ada15475742bc07bd5974',
               'fd10ac36cf87edd6ddaa184d59e1a07c542adac9c017f4ed227779a2cae9f8de'),
    (1, 4, 12): ('cb71ea8b152a5ea13bc672a5cb8d96a96a96b2b9268a9fe3539d5d22979d40e4',
                'b222f3816ab11e1fd0b71fba50e92b58951e58333fb23f085c7acd0fcdd7e8fc'),
    (1, 8, 2): ('b4243138366c51f9e6ba42527cdcad68cba746ed2edbbcd4eeb16f80845b0ff5',
               '7fef48ec2193c5a2c620cf1b2c7efd70894e6edd1cca473739f1f8a8a4a10392'),
    (1, 8, 6): ('47e54d5d7bd7ca9ab453eecdd48f3dd79db61a5fe8ffda25634c891e6eba0930',
               '1d4280d67bde89df9bb777c970e9f153cbcba4059d8fb75f0a30056147d7e590'),
    (1, 8, 12): ('2b47a8eba215da8fc097205696f3d5a00d5f4766ded38906e2356e6252f3f97c',
                'a78a58e157ba2bd2bf4a975e89b108ac9c7c3254182391c6af5e87e3c12740f1'),
    (1, 16, 2): ('cf52f9c65a3c38735004d0c96ca1fb015d24c7d1ea85cb8ba36eaa82963f27f5',
                'a2b5db965373ff5adb2210a9364b3c52893d27423af9e9d66b559ecb26ac67de'),
    (1, 16, 6): ('6d9a46b4a4c2e508f247218b1e542ae8375e3eabf0c57b2f26abd9d0d304acd7',
                'aa3c2b7ff459a863a0ca77dec578eab0a38bf43631ecb1d6a614846ea02f652f'),
    (1, 16, 12): ('217491f24a16b611e11321dab483067f539d726b48629b5c798961fa21a8412d',
                 '8a08fa775cb5162b96a7589a1a0711469dbe86d741d0d48b5e8816d16802466e'),
    (2, 1, 2): ('e2dbd38ccbf6cb4a35ae009f6833f25b94b14f3cef6c7599bb432a3d6a418cee',
               'cb1d98baa0358cb8345f56a8950dccefa57335fd18cce997d46381a0c121dadf'),
    (2, 1, 6): ('e308423e0e0a59a7f8be05ac4448140eefa9da5888210085999e8f90e31491f5',
               '4f1b6a3d59b0198a23ec3da7c8a5a3b81f9a3162bc6cce41670a37bf2b31f53d'),
    (2, 1, 12): ('904d519e01d83d19382bbe922acf45c17b186383c6c173d8244c0a940854e5f4',
                '511a8ddb29024ac88b51c479f7948f40b28e901302e15ab496841aee526ebf2b'),
    (2, 4, 2): ('4f18aafef74269f85fcfdc466d7739281393f6098f4ab51839d1bd3dbe7a5752',
               '9d84506f44fc4255ccedf134838453f3fe8c711e381abda212a5167a9b12e8fd'),
    (2, 4, 6): ('cf88797a76325869c499c902c6767b5c142b43069d1882328e02dbd7a1a8eb08',
               'd844861da1646f713789491f5aba14ecde834f015707bd60bfb35bfd545a1108'),
    (2, 4, 12): ('65111b0c6ee841c9eef8b3f960a141bd6553bc81f634bd1152ec5ea92c7749ca',
                '6a30027ef44cdbdd08237ca5cc865a9112092f7eceec202d93ccfb6c06725024'),
    (2, 8, 2): ('af47c0d6db4e5ef9d2523f1240b5e8b00b2a9856caeff94b6c279b97d5c60d98',
               'bfde8a983e59b0ec8a1252b6d29fc20fc5ea5fea6abebc12dc3fcbc77678d6d1'),
    (2, 8, 6): ('e0db912bdf1366bc41ff172b33a88ed32ea49655dc781e292849e02dba163a6e',
               'bc638ca2d5c0f3869822a29d5f65756d1027327cbc94195d815aef2e2040bd56'),
    (2, 8, 12): ('0f5831318dbd4b79b8ba9a74abd793c3216237cc9ac2a450e7c6f6cfd85a93fd',
                '60ce36f2490c8868fb8773e5bee5cc8dfcffda4c30606167aa98cc071bcfde2c'),
    (2, 16, 2): ('2bd6bdafef496fe5ba4614d62a4c969545aef3f8add85860bae24ba2b0e44cfc',
                '962570cf17118283ee2ddaf62abe60bc16688808bca78741dda347e4771183b8'),
    (2, 16, 6): ('7650cd8c69d8c4cb570403b0e21d10d1398ec45d40136adacc051d81485069aa',
                'a350fd969bbe29e2645e248498a6df7d7c29dc2beedf85aa116324afb7a2d0cb'),
    (2, 16, 12): ('9dd627bd85a4923143798ff6ef57c7b62c529dde8e8215454a9d947a5d7e4026',
                 '0eeaf66bcfcd4ace27160f9f42aa1b919a9d6546abc1c7339b8728085cbdd4a1'),
    (5, 1, 2): ('740571fc57443498ec1fd086d1d5110aed1331ddd32231146d161db0e58a8b9b',
               'bd58ca85525ce9fa3d9d532016e31d5a2d018d6ab78f20d47fd2e11d7f6c72a3'),
    (5, 1, 6): ('9449a56ff7dd21a9ba5ee2ff15575b64a089b263be17744cd7a25ae69fa5f066',
               '3a0537b94c12cc8e6724e5be67ac539ca90165803065fb87536644ca1bd17294'),
    (5, 1, 12): ('396c4fe6bcf6e2f2a2745b8fee44793f45416443c704c476b1d7daed57b19c17',
                '6e80dffc25c78b05cb962c9a15160a8cb33ccf04284334e421782b1658188564'),
    (5, 4, 2): ('012da80eff50332c9bd29922977d02fa2bddab7ac3ac686f2952c0ec8920f429',
               '3a2ff9b4e633fddcf17a6b5b1fffb531caa3a7b241f1450cecf45c423d82feb0'),
    (5, 4, 6): ('068c22acade3a8b9590e94ea04b853654810f41d795aca2953ee2573175e02e9',
               '03803dd6be6fec1348c1daa3ad8aba8ffbd42b58f2f5c8850b2be574b325b3e8'),
    (5, 4, 12): ('a0cf054dbd5915ec69c5bc18f9b3920e50ff1b403c72bacac945b2eaa9afc275',
                'ea4f35970530d20136ddef92e4d0332dd20ecf791dd67e07abff62756ed4b0bf'),
    (5, 8, 2): ('5708e6ee689d4d81d75914b78c7cd86e5e08729e35ebf0ac67da14f927df7427',
               'd3c1eb84c5c48bb92851da80f345c3f10802a439646b147e01e8266513ffe102'),
    (5, 8, 6): ('a50e9836e6e506b6643918bad7937705352798dea242e0194f21866bf60be77a',
               'b8d50128a4491d967c6c23ac3b95c84263b601bc405848560dbe291c2aae451e'),
    (5, 8, 12): ('5b50646981b86a315348fe976b33a56c212dc237d031e8b4443d9c15473a7883',
                'cb0ef1a344e83483c9c865faba1d402c2c38ec8e68ec8bcae25aa6611c0d2861'),
    (5, 16, 2): ('459a77bffd0f0da3f10b213f3088bae98e8c3859f54ad314b1da73d0ad18b9ee',
                'c8adb0e01b5c9ee199bd67643d848a316e3b93abb375b94190e807ea678e9614'),
    (5, 16, 6): ('72e09c3e3cf4d874ad2157aba44ba674db77344a3889cb91d669c450553cbb12',
                'c185992ac655f339854c116c370fe72bb2e8d021a4814202a20b7d78eef39451'),
    (5, 16, 12): ('c1c7ff788040e190f432b4042e4825d74c356be77ee13c49b26ceea5255422bf',
                 '4308040aa198a82f1c336a24b0a7710b25789f9e80b5dcfaa3ab80ecba1d6f3e'),
    (120, 1, 2): ('6589a41b6c90c76bd41ed415080e57d2754313a31f43de415ebf9bcc7e3bef3e',
                 '2cccd559ddf3702fcd688a0a275ffcfebfca7a8268f8fb5a4a1f8253ccdf3ba4'),
    (120, 1, 6): ('0408ccbe5d6273bc866b0c85a4f7d35bb56da57375869dd9a4adae3bae65915d',
                 '6a9d61d1767be459205d1a8bbcd95390deba8d4ad3693d0e86f1f3ad81389e35'),
    (120, 1, 12): ('b4b2904e9f828ed3887366b25621f4583d0bf113bc918d1ced36fd665994b5d7',
                  'f734458382930d6e0af272676bfd60e9ef580fa9ab0279761e7680ed4cbb77d6'),
    (120, 4, 2): ('4d29ab9e28fcff300ff1395d6757fcab74a4311e7b146091386382199435512e',
                 '8d049517add150f03c93036690a7657201f42fcad17267ab219504a7afed55bb'),
    (120, 4, 6): ('ff407642c5235486b2187d301e94dd25a32e5dfd498141c419bc6c5628cfe7c0',
                 '2e195165407152a3abc7a149e6de61be6520b28dd78ae0ccecc13d8a52142167'),
    (120, 4, 12): ('b4fe0f50cc97200cc0ae3ddd0e895a930214b877b97d35b300ed457dcdc45881',
                  'ff0081436650ad2a00be08b74bff8247e26fdc391b25e6b1a4682722417e1092'),
    (120, 8, 2): ('9d512d60bf683eb7c730a4689f4f566594c9dc606e96d02e74aac37b050ce897',
                 '80a922a6278c997be88a134666db6461b42202d1da45d7ace0bd4afa20288528'),
    (120, 8, 6): ('13184b33c08a06aa22a2d41df18e1bfd92383cb16d96af5463b64a0f5f4c32f6',
                 '1a7a75d3eb7aa359d8ebf87f507ed87c9af49501e223b80a989db0c0de8a277a'),
    (120, 8, 12): ('8d87c9e753346f329b66d91344a7865e8cfa9d0195b385252638655a4d43091b',
                  '36a09445421bebb09c521b1b3af8bb6547bc6590369eb0c41bd223a6a590ed91'),
    (120, 16, 2): ('49f5f2a275cf9bbc30ff504994f331905b5018eec0386015b969dc68d884cd98',
                  '35b96e41630b6ef25d7289ec1ed8158c3ba7830bc69dadcf97e78b185700bd90'),
    (120, 16, 6): ('e982a89c6a23d68d45d4c83150a32d91d5847e322ca81009eda164aa14bcd762',
                  'ef96d0e59b6518670f6eb145db86b858933870b79467fd8958648c121b0230d4'),
    (120, 16, 12): ('b70d01d4d6fd56922747ca2659b743daea9eb62a78a0fbb2c3c309678f065772',
                   '24dc6a6dfa9967b022c1d1f1d2aebfe5466575ae9b791e2e797b910e20174f2d'),
    (2000, 1, 2): ('a86d3d727b18f120fb0f5d65ca2818975d8cccabf0ef443dcdfc7996241a2ec3',
                  '90f52a62fd556e131c31c0fb6a25db9171bdccd0aebff6c57cc73e1f27f04007'),
    (2000, 1, 6): ('3a5d392c6a8011d3191c782fd9b3346bd2559cae62255cb890466f9713ce739d',
                  'd9bc5911610ad736529e56d7e6d3d80d04665ef55ad84256ecc1e11b32c36b67'),
    (2000, 1, 12): ('07e1ff7c504a41c532f87d7234a83b049888d8f9bb179e9926d9ca5036a8b986',
                   '55acb9ec2862a11dab2485f3c4143692dc04dc087bc8b3a8a6df071f9d407f9a'),
    (2000, 4, 2): ('2c6238337f5a952f3fd946f02eb3ac286cb2f1f460b69232dbc5bd3f44e89651',
                  '6e51a7d092faec8270a0d2b3901ddd350a7935fe36553a72bd10d3f78a2e8379'),
    (2000, 4, 6): ('7b4ffc924c2785f4a2eba973c9fd7ab25ed6ce29a0eee2fafc1bbeba1d9f4080',
                  '17f5d294ee2a29318a0b36ef0f75b64f21f7afd2edc3c60577d82337d3c79ed5'),
    (2000, 4, 12): ('9087364c7784aef7c8045f391ca987bca936dff669d53d33d6b5b9d88eb9d8ef',
                   '9c2596155e881f74d0cb50e4ea26752f8db4735e9c65a0c06ab8b1279bb4a71c'),
    (2000, 8, 2): ('d6e2166cff03f983c3898e32f841a1149dcebef8cf8a98cbd46a801eb08492ae',
                  '7056c1ab47bad695903595e3508a7a8d4bfd3f41f7349c0a003f83b1f0c35939'),
    (2000, 8, 6): ('6efa7939a33bc2f6329ee91011d37dc580fa28b4b2ad0276ed11889ecbde8012',
                  '8a0a25e7183950307d887296b963a3f8d4678fd2ef0d44b009e49ffc2131b589'),
    (2000, 8, 12): ('175e5b047e0f80fef137e5f7ddbdcbf6d36a5ed05939ee07b8d83367066e07f5',
                   'e0fa74bca6b2b14e56d62a2b81047fcf2c09f9eb0f15b2f3278733b288c8f7f4'),
    (2000, 16, 2): ('5aef466ca7772c428b33fac88fa1ff666184eec662a62bedb19ac7f825aeb858',
                   'fd18b392d085691c9d3de287b27f05a8033a61a30339adfde7476d42dc08ed57'),
    (2000, 16, 6): ('ca42c04019e5b2410214c2e5020b7a933417ddbd84cbd4af2cbad0b715cfae14',
                   '4d24cb58b2c1e1a80bbcd0509fbaf01479be2907bb0c57aa86fbda5f2f6f4e1f'),
    (2000, 16, 12): ('420852525106ef94893bdbc031b804c68d8dfd2a9395f37b87f64cedb1aa98a9',
                    '0e05792ca665ec8ec973158c30030bdb9618ebf0142f34647ff84e2bde1bbac1'),
}


@pytest.mark.parametrize("shape", SHAPES, ids=[f"n{n}-d{d}-K{K}" for n, d, K in SHAPES])
def test_fit_and_likelihood_bytes(shape):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (fit_digest(*shape), likelihood_digest(*shape)) == PINS[shape]


def test_pinned_fits_saturate_both_clamps():
    # the pins would not cover the clamp gates if no row reached a bound
    X, targets, model = _case(120, 4, 6)
    pre_f = X @ model.w_face.T + model.b_face
    pre_c = X @ model.w_conc.T + model.b_conc
    for pre in (pre_f, pre_c):
        assert (np.abs(pre) > 10.0).any() and (np.abs(pre) < 10.0).any()
    assert (pre_c < -7.0).any()  # softplus below the concentration floor


#: K -> digest of ``_log_z_and_grad``'s log Z and expected statistics
LOG_Z_AND_GRAD_PINS = {
    2: 'e11c44c1725617c8ba131790dc63ef6d94954351cbad87fd5ce23e665888c864',
    3: 'b5b8bedaf1cb4bdd5b1e3b87bb6f53027a507368ea95561177980f04dc23f7a2',
    5: '8f9410ceaab24eb6c5fb751a468629ecab7a94235d4332b55ba155b80f393922',
    8: 'f5241b272df9ce48f7b6c3a4bd3d23f1687ef834ac82e21a21b0d4db63a64154',
    13: '7dca1cb093f05f2d6ee81b5ed56c79e6f58eb732145360ca1ae41a1172a8bba1',
    31: '4e1f46ee603cffd732e13c683e8b5e9445d9d37def3c7b4c952844524d7f6104',
    63: '04fe39460633e6af95f7c0fc5d454544a3b75fbb01097c937da4edd1521cc78b',
}


@pytest.mark.parametrize("K", [2, 3, 5, 8, 13, 31, 63])
def test_log_z_and_grad_is_closed_form_column_zero(K):
    rng = np.random.default_rng(2500 + K)
    w = np.concatenate([rng.normal(0.0, 3.0, (40, K)), rng.uniform(-400.0, 5.0, (20, K)),
                        rng.uniform(-5e4, -400.0, (10, K)), np.full((1, K), -400.0),
                        np.full((1, K), -5e4), np.full((1, K), 10.0), np.full((1, K), -10.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_z, phi = fg._log_z_and_grad(w)
        one_log_z, one_phi = fg._log_z_and_grad(w[7])
    assert (np.logaddexp(0.0, 2.0 * w[:, -1]) < 1e-280).any()  # rows that take the small-S branch
    assert _digest(log_z, phi) == LOG_Z_AND_GRAD_PINS[K]
    assert one_log_z.tobytes() == log_z[7].tobytes()
    assert one_phi.tobytes() == phi[7].tobytes()
