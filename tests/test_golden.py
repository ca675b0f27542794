"""Seeded CLI outputs pinned by sha256.

The digests were recorded before sampling and densities moved to array
batches (``FaceBatch``); that change had to keep every seeded ``sample``
file, ``face-hist`` table, exact value, GLM dataset and fit byte-identical.
Monte Carlo entropy/KL values may differ in trailing digits only, so they
are pinned to 1e-12 relative.  The digests depend on bit-exact floating
point and were recorded with numpy 2.4 on x86-64; another numpy build may
round differently.

Two entries were re-recorded, still as exact pins, when the face law moved
from the face-lattice DAG passes to their closed form (and exact
enumeration to one vectorized sum over faces), because log Z and E[phi]
now round differently in the last bits: the Mixed Dirichlet exact entropy
(1.7077711907683772 -> 1.7077711907683777, 2.6e-16 relative) and the
``fit-glm`` model file (weights within 1.5e-15 relative; its stdout is
unchanged).  Every other pin kept its value.

The Dirichlet step of the intrinsic samplers then moved to log-space
Gammas drawn in one block per generator (``dirichlet_log_fill``), a
deliberate change of the random stream.  Faces still come from the same
uniforms, so every ``face-hist`` digest kept its value; the pins that
depend on the within-face draws were re-recorded: the ``mixed-dirichlet``
and ``maxent`` sample files, the ``mixed-dirichlet`` MC entropy and KL, the
``gen-glm-data`` file, and the ``fit-glm`` model and both stdouts (fitted
on that file).

The Gaussian-Sparsemax orthant quadrature then moved from an endpoint-graded
rule in u = Phi(z), which cut off |z| > 7.03, to a rule in V on each row's
window around the integrand's mode.  The draws are unchanged; the two
Gaussian-Sparsemax MC pins were re-recorded: entropy at 300 samples
(2.207490319453081 -> 2.2074903194455198) and KL at 200 samples
(0.42002991674593526 -> 0.4200299167445086).

Two ``fit-glm`` pins were then re-recorded, each a declared output change.
``sample-mean`` predictions now draw from one generator (the one that drew
the train/test split, continued) in blocks of rows, instead of from one
generator per held-out row, so its stdout changed; the ``most-probable-mean``
stdout is unchanged.  The model file's ``conc_clamp`` became the reachable
range [0.001, 10.000045398899218] (the upper end softplus of the
pre-activation clamp) instead of [0.001, 1000.0]; every weight in the file
kept its bytes.
"""

import hashlib
import json

import pytest

from mixedrv import cli

SPECS = {
    "mixed-dirichlet": {"kind": "mixed-dirichlet", "w": [0.5, -1.0, 0.2, 0.0], "alpha": [1.0, 2.0, 0.5, 1.5]},
    "gaussian-sparsemax": {"kind": "gaussian-sparsemax", "mu": [0.3, -0.2, 0.5, 0.1],
                           "sigma": [0.9, 0.5, 1.2, 0.7]},
    "kd-hard-concrete": {"kind": "kd-hard-concrete", "z": [0.4, -0.3, 0.1, 0.0], "beta": 0.66, "lambda": 1.5},
    "binary-hard-concrete": {"kind": "binary-hard-concrete", "log_alpha": 0.3, "beta": 0.6667},
    "maxent": {"kind": "maxent", "k": 4, "n": 1},
    "concrete": {"kind": "concrete", "z": [0.2, -0.5, 1.0, 0.1], "beta": 0.7},
}
Q_SPECS = {
    "mixed-dirichlet": {"kind": "mixed-dirichlet", "w": [0.1, 0.3, -0.2, 0.4], "alpha": [1.5, 1.0, 2.0, 0.7]},
    "gaussian-sparsemax": {"kind": "gaussian-sparsemax", "mu": [0.1, 0.2, 0.0, 0.3], "sigma": [0.8, 0.8, 0.8, 0.8]},
}

# sample --num 300 --seed 11, then face-hist of that file
SAMPLE_SHA256 = {
    "mixed-dirichlet": "609c54e5864836c424d88518bd49bbfe2aa3145bb0b56abce26623c5133e945e",
    "gaussian-sparsemax": "bd601e0366f27319f3309038cc2a23c98b84cb43dfe5c8f9b61be0c98b6d30e4",
    "kd-hard-concrete": "044e457d37d4c2757906dce08d591494c52d891537c3520b72447aa694b68e98",
    "binary-hard-concrete": "a4def5dc7c6b8e4d83a7708dfab0c712810570f5f4301353754f8b492c77872a",
    "maxent": "d06adab6bb7c6d2b4e3a29b5a22912c6720c0b4c0e9c3c9c30665b03de12b297",
    "concrete": "4ca50e976172b0d08103cbb77658a51f5fb27f491e3b276186790813bf3ae8f8",
}
FACE_HIST_SHA256 = {
    "mixed-dirichlet": "255b5e89aa59a3251c6638750f172e3d733e022c787045398acb7958247dac1e",
    "gaussian-sparsemax": "2eada48c904dc9812dc62d982cfa0a46559ea6d627547fae39d8fa0f2d2ecc82",
    "kd-hard-concrete": "2564c3df80d225741a3cacb9f35334b1537e558a242a4f0de40fffc8a43a2486",
    "binary-hard-concrete": "74b605e2f02e1d2004576a919b53183087178989721883bfd1f4765a609f0555",
    "maxent": "18f996bce7d03c9d5b7574efe5bdf924b1990ae969fcb0b319d74953fb46253f",
    "concrete": "0363106650f92eb2d5dcb836d40f94650b3b99958863ef18e9d66dd74c2274f3",
}
GEN_GLM_DATA_SHA256 = "34471a1f00f3d0c74ce3d1aea0b0c9f084a8f6c706a834793cbe41ba3bc31910"
FIT_GLM_MODEL_SHA256 = "c718202be55fbb246df67e648e78a6f7461cc4b6542e335d34297e5761666d92"
FIT_GLM_STDOUT_SHA256 = {
    "sample-mean": "a88b7deb846dc54b2b7526feb5c76b6ad96b40662a402bb6e212c0e25e905f6b",
    "most-probable-mean": "dd72259c5a920f0ed14ae70be3ba20ef22cc92c54c793532d7f757b6af42898e",
}
EXACT_STDOUT = {
    ("entropy", "mixed-dirichlet"): '{"value": 1.7077711907683777, "mode": "exact", "unit": "nats"}\n',
    ("entropy", "maxent"): '{"value": 2.3565667182793435, "mode": "exact", "unit": "nats"}\n',
    ("kl", "mixed-dirichlet"): '{"value": 2.1983939511336934, "mode": "exact", "unit": "nats"}\n',
}
# (command, kind, samples): value at --seed 5 (entropy) or --seed 6 (kl)
MC_VALUES = {
    ("entropy", "mixed-dirichlet", 2000): 1.7071653494839039,
    ("entropy", "gaussian-sparsemax", 300): 2.2074903194455198,
    ("entropy", "maxent", 2000): 2.371232253362769,
    ("kl", "mixed-dirichlet", 2000): 2.2062346384821456,
    ("kl", "gaussian-sparsemax", 200): 0.4200299167445086,
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def spec_files(tmp_path):
    paths = {}
    for tag, specs in (("p", SPECS), ("q", Q_SPECS)):
        for kind, spec in specs.items():
            path = tmp_path / f"{kind}-{tag}.json"
            path.write_text(json.dumps(spec))
            paths[kind, tag] = str(path)
    return paths


@pytest.mark.parametrize("kind", list(SPECS))
def test_sample_and_face_hist_bytes(kind, spec_files, tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    assert cli.main(["sample", "--dist", spec_files[kind, "p"], "--num", "300", "--seed", "11",
                     "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == SAMPLE_SHA256[kind]
    capsys.readouterr()
    assert cli.main(["face-hist", "--in", str(out)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == FACE_HIST_SHA256[kind]


@pytest.mark.parametrize("command,kind", list(EXACT_STDOUT))
def test_exact_stdout(command, kind, spec_files, capsys):
    argv = [command, "--dist", spec_files[kind, "p"], "--mode", "exact"]
    if command == "kl":
        argv[3:3] = ["--dist2", spec_files[kind, "q"]]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == EXACT_STDOUT[command, kind]


@pytest.mark.parametrize("command,kind,samples", list(MC_VALUES))
def test_mc_values(command, kind, samples, spec_files, capsys):
    argv = [command, "--dist", spec_files[kind, "p"], "--mode", "mc", "--samples", str(samples),
            "--seed", "5" if command == "entropy" else "6"]
    if command == "kl":
        argv[3:3] = ["--dist2", spec_files[kind, "q"]]
    assert cli.main(argv) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert value == pytest.approx(MC_VALUES[command, kind, samples], rel=1e-12)


@pytest.mark.parametrize("predict", list(FIT_GLM_STDOUT_SHA256))
def test_glm_data_and_fit_bytes(predict, tmp_path, capsys):
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    assert cli.main(["gen-glm-data", "--out", str(data), "--rows", "60", "--k", "4", "--d", "3",
                     "--seed", "7"]) == 0
    assert _sha256(data.read_bytes()) == GEN_GLM_DATA_SHA256
    capsys.readouterr()
    assert cli.main(["fit-glm", "--data", str(data), "--train-frac", "0.5", "--steps", "25", "--seed", "3",
                     "--out", str(model), "--predict", predict]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == FIT_GLM_STDOUT_SHA256[predict]
    assert _sha256(model.read_bytes()) == FIT_GLM_MODEL_SHA256
