"""The benchmark's tracer patches library callables by name; a rename that
breaks ``benchmarks/run.py --trace 1`` fails here."""

import importlib.util
from pathlib import Path

import numpy as np

from mixedrv import face_gibbs, glm, mixed_dirichlet

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_target():
    originals = (glm.glm_predict, glm.make_planted_dataset, mixed_dirichlet.sample_many,
                 face_gibbs.sample_faces, face_gibbs.GibbsFaceDistribution.__init__)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert glm.glm_predict is not originals[0]
        assert face_gibbs.GibbsFaceDistribution.__init__ is not originals[4]
        md = mixed_dirichlet.MixedDirichlet([0.5, -0.5, 0.0], [1.0, 2.0, 0.5])
        batch = mixed_dirichlet.sample_many(md, 50, np.random.default_rng(0))
        assert tracer.counters["mixed_dirichlet.sample_many.distinct_faces"] == len(set(batch.masks.tolist()))
        assert tracer.layer_totals()["face_gibbs.GibbsFaceDistribution"]["calls"] == 1
    finally:
        tracer.uninstall()
    assert (glm.glm_predict, glm.make_planted_dataset, mixed_dirichlet.sample_many,
            face_gibbs.sample_faces, face_gibbs.GibbsFaceDistribution.__init__) == originals
