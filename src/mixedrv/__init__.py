"""Mixed discrete/continuous distributions on the probability simplex.

Distributions here may place probability mass on every face of the simplex:
a discrete law picks a face, a continuous density fills its relative
interior.  The package provides the simplex face machinery, an
O(K) exponential family over faces, intrinsic (Mixed Dirichlet) and
extrinsic (Gaussian-Sparsemax, Hard Concrete) constructions, direct-sum
entropy and KL with their coding interpretation, the maximum-entropy mixed
family, and a regression model for simplex-valued targets, plus a CLI
(``mixedrv``) and a brute-force oracle suite (``mixedrv check``).

The names below are re-exported from their modules on first access (PEP
562), so importing the package loads none of its modules: each loads when
one of its names is first used, or when it is imported itself.
"""

import importlib

__version__ = "0.1.0"

#: Each re-exported name and the module that defines it.
_EXPORTS = {
    **dict.fromkeys(["FaceBatch", "ResourceLimitError", "enumerate_faces", "sparsemax", "sparsemax_jacobian"],
                    "simplex"),
    **dict.fromkeys(["GibbsFaceDistribution", "most_probable_face"], "face_gibbs"),
    **dict.fromkeys(["FullFaceDirichlet", "MixedDirichlet", "dirichlet_entropy", "dirichlet_kl"],
                    "mixed_dirichlet"),
    **dict.fromkeys(["BinaryHardConcrete", "Concrete", "GaussianSparsemax", "KDHardConcrete", "gs2_entropy",
                     "gs2_face_probs", "gs2_kl", "gs_log_density"], "extrinsic"),
    **dict.fromkeys(["KlMcEstimate", "MaxEntMixed", "McEstimate", "MixedDistribution", "coding_entropy",
                     "direct_sum_entropy_mc", "direct_sum_kl_mc", "maxent_entropy"], "info_theory"),
    **dict.fromkeys(["GlmModel", "glm_fit", "glm_log_likelihood", "glm_predict", "make_planted_dataset"], "glm"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value
