"""Mixed discrete/continuous distributions on the probability simplex.

Distributions here may place probability mass on every face of the simplex:
a discrete law picks a face, a continuous density fills its relative
interior.  The package provides the simplex face machinery, an
O(K) exponential family over faces, intrinsic (Mixed Dirichlet) and
extrinsic (Gaussian-Sparsemax, Hard Concrete) constructions, direct-sum
entropy and KL with their coding interpretation, the maximum-entropy mixed
family, and a regression model for simplex-valued targets, plus a CLI
(``mixedrv``) and a brute-force oracle suite (``mixedrv check``).
"""

from .simplex import (
    FaceBatch,
    FaceIndexSet,
    ResourceLimitError,
    SimplexPoint,
    enumerate_faces,
    sparsemax,
    sparsemax_jacobian,
)
from .face_gibbs import (
    GibbsFaceDistribution,
    most_probable_face,
)
from .mixed_dirichlet import (
    FullFaceDirichlet,
    MixedDirichlet,
    dirichlet_entropy,
    dirichlet_kl,
)
from .extrinsic import (
    BinaryHardConcrete,
    Concrete,
    GaussianSparsemax,
    KDHardConcrete,
    QuadratureConfig,
    gs2_entropy,
    gs2_face_probs,
    gs2_kl,
    gs_log_density,
)
from .info_theory import (
    KlMcEstimate,
    MaxEntMixed,
    McEstimate,
    MixedDistribution,
    coding_entropy,
    direct_sum_entropy_mc,
    direct_sum_kl_mc,
    maxent_entropy,
)
from .glm import GlmModel, glm_fit, glm_log_likelihood, glm_predict, make_planted_dataset

__version__ = "0.1.0"
