"""Spec files: the kind table, the ``k`` check, and the exact measures.

The exit codes and stderr of every spec error and exact-mode error below,
and the exact stdout pins, were recorded before the kinds were declared in
one table (``distspec._KINDS``) and the exact measures became methods of
the kinds; that change had to keep them byte for byte.  The one declared
change is the binary Hard Concrete ``k`` field, which was not checked
before.
"""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from mixedrv import cli, distspec
from mixedrv.distspec import SpecError, parse_spec

MD2 = {"kind": "mixed-dirichlet", "w": [0.5, -1.0], "alpha": [1.0, 2.0]}
MD3 = {"kind": "mixed-dirichlet", "w": [0.5, -1.0, 0.0], "alpha": [1.0, 2.0, 0.5]}
MD15 = {"kind": "mixed-dirichlet", "w": [0.0] * 15, "alpha": [1.0] * 15}
GS2 = {"kind": "gaussian-sparsemax", "mu": [0.55, 0.45], "sigma": [0.8, 0.6]}
GS2Q = {"kind": "gaussian-sparsemax", "mu": [0.2, 0.7], "sigma": [1.1, 0.4]}
GS3 = {"kind": "gaussian-sparsemax", "mu": [0.4, 0.3, 0.3], "sigma": [1.0, 1.0, 1.0]}
KD3 = {"kind": "kd-hard-concrete", "z": [0.2, -0.5, 1.0], "beta": 0.66, "lambda": 1.1}
BHC = {"kind": "binary-hard-concrete", "log_alpha": 0.0, "beta": 0.6667, "l": -0.1, "r": 1.1}
ME3 = {"kind": "maxent", "k": 3, "n": 0}
ME4 = {"kind": "maxent", "k": 4, "n": 0}
ME4N2 = {"kind": "maxent", "k": 4, "n": 2}
CONC2 = {"kind": "concrete", "z": [0.2, -0.5], "beta": 0.7}
CONC3 = {"kind": "concrete", "z": [0.2, -0.5, 1.0], "beta": 0.7}

KIND_LIST = ("['mixed-dirichlet', 'gaussian-sparsemax', 'kd-hard-concrete', 'binary-hard-concrete', 'maxent', "
             "'concrete']")


def without(spec: dict, key: str) -> dict:
    return {k: v for k, v in spec.items() if k != key}


def invalid(kind: str, detail: str) -> str:
    return f"error: invalid parameters for kind {kind!r}: {detail}\n"


# (id, spec, stderr of `entropy --dist <spec> --mode exact`, exit code 2)
SPEC_ERRORS = [
    ("not-an-object", [1, 2], "error: spec must be a JSON object\n"),
    ("no-kind", {}, f"error: unknown kind None; expected one of {KIND_LIST}\n"),
    ("unknown-kind", {"kind": "dirichlet", "w": [0.0, 0.0]},
     f"error: unknown kind 'dirichlet'; expected one of {KIND_LIST}\n"),
    ("seed-negative", dict(ME3, seed=-1), "error: field 'seed' must be a nonnegative integer\n"),
    ("seed-bool", dict(ME3, seed=True), "error: field 'seed' must be a nonnegative integer\n"),
    ("seed-float", dict(ME3, seed=1.5), "error: field 'seed' must be a nonnegative integer\n"),
    ("seed-string", dict(ME3, seed="0"), "error: field 'seed' must be a nonnegative integer\n"),
    ("md-unknown-field", dict(MD3, beta=1.0), "error: unknown fields ['beta']\n"),
    ("gs-unknown-field", dict(GS3, alpha=[1.0, 1.0, 1.0]), "error: unknown fields ['alpha']\n"),
    ("kd-unknown-field", dict(KD3, alpha=1.0), "error: unknown fields ['alpha']\n"),
    ("bhc-unknown-field", dict(BHC, z=[0.0, 0.0]), "error: unknown fields ['z']\n"),
    ("maxent-unknown-fields", dict(ME3, alpha=1.0, beta=2.0), "error: unknown fields ['alpha', 'beta']\n"),
    ("concrete-unknown-field", dict(CONC3, **{"lambda": 1.1}), "error: unknown fields ['lambda']\n"),
    ("md-missing-w", without(MD3, "w"), invalid("mixed-dirichlet", "'w'")),
    ("md-missing-alpha", without(MD3, "alpha"), invalid("mixed-dirichlet", "'alpha'")),
    ("gs-missing-mu", without(GS3, "mu"), invalid("gaussian-sparsemax", "'mu'")),
    ("gs-missing-sigma", without(GS3, "sigma"), invalid("gaussian-sparsemax", "'sigma'")),
    ("kd-missing-z", without(KD3, "z"), invalid("kd-hard-concrete", "'z'")),
    ("kd-missing-beta", without(KD3, "beta"), "error: missing field 'beta'\n"),
    ("bhc-missing-log-alpha", without(BHC, "log_alpha"), "error: missing field 'log_alpha'\n"),
    ("bhc-missing-beta", without(BHC, "beta"), "error: missing field 'beta'\n"),
    ("maxent-missing-k", without(ME3, "k"), "error: maxent needs field 'k'\n"),
    ("concrete-missing-z", without(CONC3, "z"), invalid("concrete", "'z'")),
    ("concrete-missing-beta", without(CONC3, "beta"), "error: missing field 'beta'\n"),
    ("vector-string", dict(MD3, w="abc"), "error: field 'w' must be a list of numbers\n"),
    ("vector-ragged", dict(MD3, w=[[1.0, 2.0], [3.0]]), "error: field 'w' must be a list of numbers\n"),
    ("vector-matrix", dict(MD3, w=[[1.0, 2.0], [3.0, 4.0]]), "error: field 'w' must be a nonempty vector\n"),
    ("vector-empty", dict(MD3, alpha=[]), "error: field 'alpha' must be a nonempty vector\n"),
    ("vector-scalar", dict(GS3, mu=5.0), "error: field 'mu' must be a nonempty vector\n"),
    ("vector-null-entry", dict(MD3, w=[0.0, None, 1.0]), invalid("mixed-dirichlet", "w must be finite")),
    ("vector-object", dict(CONC3, z={"a": 1}), "error: field 'z' must be a list of numbers\n"),
    ("scalar-string", dict(KD3, beta="x"), "error: field 'beta' must be a number\n"),
    ("scalar-bool", dict(CONC3, beta=True), "error: field 'beta' must be a number\n"),
    ("scalar-list", dict(BHC, log_alpha=[1.0]), "error: field 'log_alpha' must be a number\n"),
    ("scalar-null", dict(BHC, l=None), "error: field 'l' must be a number\n"),
    ("scalar-default-string", dict(KD3, **{"lambda": "1"}), "error: field 'lambda' must be a number\n"),
    ("md-k-mismatch", dict(MD3, k=2), "error: field 'k' is 2 but parameter vectors have length 3\n"),
    ("gs-k-mismatch", dict(GS3, k=5), "error: field 'k' is 5 but parameter vectors have length 3\n"),
    ("kd-k-mismatch", dict(KD3, k=2), "error: field 'k' is 2 but parameter vectors have length 3\n"),
    ("concrete-k-mismatch", dict(CONC3, k=4), "error: field 'k' is 4 but parameter vectors have length 3\n"),
    ("k-float", dict(MD3, k=3.0), "error: field 'k' must be an integer\n"),
    ("k-bool", dict(GS3, k=True), "error: field 'k' must be an integer\n"),
    ("k-string", dict(CONC3, k="3"), "error: field 'k' must be an integer\n"),
    ("maxent-k-1", dict(ME3, k=1), invalid("maxent", "K must be >= 2, got 1")),
    ("maxent-k-float", dict(ME3, k=2.5), "error: field 'k' must be an integer\n"),
    ("maxent-k-bool", dict(ME3, k=True), "error: field 'k' must be an integer\n"),
    ("maxent-k-string", dict(ME3, k="3"), "error: field 'k' must be an integer\n"),
    ("maxent-n-negative", dict(ME3, n=-1), invalid("maxent", "N must be a nonnegative integer, got -1")),
    ("maxent-n-float", dict(ME3, n=1.5), "error: field 'n' must be an integer\n"),
    ("maxent-n-bool", dict(ME3, n=True), "error: field 'n' must be an integer\n"),
    ("md-alpha-length", dict(MD3, alpha=[1.0, 2.0]), invalid("mixed-dirichlet", "alpha has length 2, expected 3")),
    ("md-alpha-negative", dict(MD3, alpha=[1.0, -2.0, 0.5]),
     invalid("mixed-dirichlet", "concentrations must be finite and > 0, got [ 1.  -2.   0.5]")),
    ("md-alpha-inf", dict(MD3, alpha=[1.0, float("inf"), 0.5]),
     invalid("mixed-dirichlet", "concentrations must be finite and > 0, got [1.  inf 0.5]")),
    ("md-k-1", {"kind": "mixed-dirichlet", "w": [0.0], "alpha": [1.0]},
     invalid("mixed-dirichlet", "w must have length >= 2")),
    ("gs-k-1", {"kind": "gaussian-sparsemax", "mu": [0.0], "sigma": [1.0]},
     invalid("gaussian-sparsemax", "mu must be a vector of length >= 2")),
    ("gs-sigma-zero", dict(GS3, sigma=[1.0, 0.0, 1.0]),
     invalid("gaussian-sparsemax", "sigma must be > 0, got [1. 0. 1.]")),
    ("gs-sigma-shape", dict(GS3, sigma=[1.0, 1.0]), invalid("gaussian-sparsemax", "sigma must match mu in shape")),
    ("gs-sigma-tiny", dict(GS3, sigma=[1e-300, 1.0, 1.0]),
     invalid("gaussian-sparsemax", "sigma too small: the sum of sigma^-2 overflows, got [1.e-300 1.e+000 1.e+000]")),
    ("kd-beta-zero", dict(KD3, beta=0.0), invalid("kd-hard-concrete", "beta must be > 0, got 0.0")),
    ("kd-lambda-small", dict(KD3, **{"lambda": 0.5}), invalid("kd-hard-concrete", "stretch lam must be >= 1, got 0.5")),
    ("kd-k-1", {"kind": "kd-hard-concrete", "z": [0.0], "beta": 0.5},
     invalid("kd-hard-concrete", "z must be a vector of length >= 2")),
    ("bhc-beta-zero", dict(BHC, beta=0.0), invalid("binary-hard-concrete", "beta must be > 0, got 0.0")),
    ("bhc-l-positive", dict(BHC, l=0.1),
     invalid("binary-hard-concrete", "stretch interval must satisfy l < 0 < 1 < r, got (0.1, 1.1)")),
    ("bhc-r-small", dict(BHC, r=0.9),
     invalid("binary-hard-concrete", "stretch interval must satisfy l < 0 < 1 < r, got (-0.1, 0.9)")),
    ("concrete-beta-negative", dict(CONC3, beta=-1.0), invalid("concrete", "beta must be > 0, got -1.0")),
    ("concrete-z-inf", dict(CONC3, z=[0.0, float("inf"), 1.0]), invalid("concrete", "z must be finite")),
]

# (id, command, p, q, stderr of `<command> --dist p [--dist2 q] --mode exact`, exit code 2)
EXACT_ERRORS = [
    ("entropy-concrete", "entropy", CONC3, None, "error: exact entropy is not available for kind 'concrete' (K=3)\n"),
    ("entropy-kd-hard-concrete", "entropy", KD3, None,
     "error: exact entropy is not available for kind 'kd-hard-concrete' (K=3)\n"),
    ("entropy-binary-hard-concrete", "entropy", BHC, None,
     "error: exact entropy is not available for kind 'binary-hard-concrete' (K=2)\n"),
    ("entropy-gaussian-sparsemax-k3", "entropy", GS3, None,
     "error: exact entropy is not available for kind 'gaussian-sparsemax' (K=3)\n"),
    ("entropy-mixed-dirichlet-k15", "entropy", MD15, None, "error: exact mode needs K <= 14\n"),
    ("entropy-mixed-dirichlet-k64", "entropy", {"kind": "mixed-dirichlet", "w": [0.0] * 64, "alpha": [1.0] * 64},
     None, "error: exact mode needs K <= 14\n"),
    ("kl-dimension-md", "kl", MD2, MD3, "error: dimension mismatch: 2 vs 3\n"),
    ("kl-dimension-maxent", "kl", ME3, ME4, "error: dimension mismatch: 3 vs 4\n"),
    ("kl-dimension-unlike", "kl", CONC2, MD3, "error: dimension mismatch: 2 vs 3\n"),
    ("kl-dimension-gs", "kl", GS2, GS3, "error: dimension mismatch: 2 vs 3\n"),
    ("kl-dimension-bhc", "kl", BHC, KD3, "error: dimension mismatch: 2 vs 3\n"),
    ("kl-dimension-md-maxent", "kl", MD2, ME3, "error: dimension mismatch: 2 vs 3\n"),
    ("kl-md-maxent", "kl", MD3, ME3, "error: exact KL is not available for kinds 'mixed-dirichlet'/'maxent'\n"),
    ("kl-maxent-md", "kl", ME3, MD3, "error: exact KL is not available for kinds 'maxent'/'mixed-dirichlet'\n"),
    ("kl-gs-bhc", "kl", GS2, BHC,
     "error: exact KL is not available for kinds 'gaussian-sparsemax'/'binary-hard-concrete'\n"),
    ("kl-bhc-gs", "kl", BHC, GS2,
     "error: exact KL is not available for kinds 'binary-hard-concrete'/'gaussian-sparsemax'\n"),
    ("kl-md-gs", "kl", MD3, GS3, "error: exact KL is not available for kinds 'mixed-dirichlet'/'gaussian-sparsemax'\n"),
    ("kl-gaussian-sparsemax-k3", "kl", GS3, GS3,
     "error: exact KL is not available for kinds 'gaussian-sparsemax'/'gaussian-sparsemax'\n"),
    ("kl-concrete", "kl", CONC3, CONC3, "error: exact KL is not available for kinds 'concrete'/'concrete'\n"),
    ("kl-kd-hard-concrete", "kl", KD3, KD3,
     "error: exact KL is not available for kinds 'kd-hard-concrete'/'kd-hard-concrete'\n"),
    ("kl-binary-hard-concrete", "kl", BHC, BHC,
     "error: exact KL is not available for kinds 'binary-hard-concrete'/'binary-hard-concrete'\n"),
    ("kl-mixed-dirichlet-k15", "kl", MD15, MD15, "error: exact mode needs K <= 14\n"),
]

#: the kl-dimension-* cases whose kinds both have a density: `kl --mode mc`
#: refuses them before drawing, with exact mode's stderr
MC_DIMENSION_ERRORS = [c for c in EXACT_ERRORS if c[0] in
                       ("kl-dimension-md", "kl-dimension-maxent", "kl-dimension-gs", "kl-dimension-md-maxent")]

ME3_N1100 = {"kind": "maxent", "k": 3, "n": 1100}  # the class weight g(1) underflows to 0
# (id, command, p, q, extra flags, stdout of `<command> --dist p [--dist2 q] --mode exact`)
EXACT_STDOUT = [
    ("entropy-gs2", "entropy", GS2, None, [], '{"value": 0.8367011700001428, "mode": "exact", "unit": "nats"}\n'),
    ("entropy-gs2-bits", "entropy", GS2, None, ["--bits"],
     '{"value": 1.2071046286651996, "mode": "exact", "unit": "bits"}\n'),
    ("entropy-gs2q", "entropy", GS2Q, None, [], '{"value": 0.9056910057711405, "mode": "exact", "unit": "nats"}\n'),
    ("kl-gs2", "kl", GS2, GS2Q, [], '{"value": 0.1379776683858211, "mode": "exact", "unit": "nats"}\n'),
    ("kl-gs2-reverse", "kl", GS2Q, GS2, ["--bits"],
     '{"value": 0.22446826141506296, "mode": "exact", "unit": "bits"}\n'),
    ("kl-gs2-self", "kl", GS2, GS2, [], '{"value": 0.0, "mode": "exact", "unit": "nats"}\n'),
    ("kl-maxent", "kl", ME4, ME4N2, [], '{"value": 0.5628829901033878, "mode": "exact", "unit": "nats"}\n'),
    ("kl-maxent-reverse", "kl", ME4N2, ME4, ["--bits"],
     '{"value": 0.8581305194111567, "mode": "exact", "unit": "bits"}\n'),
    ("kl-maxent-self", "kl", ME3, ME3, [], '{"value": 0.0, "mode": "exact", "unit": "nats"}\n'),
    ("kl-maxent-underflow", "kl", ME3, ME3_N1100, [],
     '{"value": null, "support_violation": true, "mode": "exact", "unit": "nats"}\n'),
    ("kl-maxent-underflow-reverse", "kl", ME3_N1100, ME3, [],
     '{"value": 2.5649493574615367, "mode": "exact", "unit": "nats"}\n'),
    ("entropy-maxent-k4-n2", "entropy", ME4N2, None, [],
     '{"value": 1.9038892218380505, "mode": "exact", "unit": "nats"}\n'),
    ("entropy-md3", "entropy", MD3, None, [], '{"value": 1.2396733725743545, "mode": "exact", "unit": "nats"}\n'),
    ("kl-md3", "kl", MD3, dict(MD3, w=[0.1, 0.2, -0.3]), [],
     '{"value": 0.6965497410627786, "mode": "exact", "unit": "nats"}\n'),
]


def write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def run(argv, capsys) -> tuple[int, str, str]:
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def exact_argv(tmp_path, command, p, q, extra=()):
    argv = [command, "--dist", write(tmp_path / "p.json", p), "--mode", "exact", *extra]
    if q is not None:
        argv += ["--dist2", write(tmp_path / "q.json", q)]
    return argv


@pytest.mark.parametrize("spec, stderr", [c[1:] for c in SPEC_ERRORS], ids=[c[0] for c in SPEC_ERRORS])
def test_spec_error_bytes(spec, stderr, tmp_path, capsys):
    assert run(["entropy", "--dist", write(tmp_path / "p.json", spec), "--mode", "exact"], capsys) == (2, "", stderr)


@pytest.mark.parametrize("command, p, q, stderr", [c[1:] for c in EXACT_ERRORS], ids=[c[0] for c in EXACT_ERRORS])
def test_exact_error_bytes(command, p, q, stderr, tmp_path, capsys):
    assert run(exact_argv(tmp_path, command, p, q), capsys) == (2, "", stderr)


@pytest.mark.parametrize("command, p, q, stderr", [c[1:] for c in MC_DIMENSION_ERRORS],
                         ids=[c[0].replace("kl-", "kl-mc-") for c in MC_DIMENSION_ERRORS])
def test_mc_kl_dimension_error_bytes(command, p, q, stderr, tmp_path, capsys):
    argv = [command, "--dist", write(tmp_path / "p.json", p), "--dist2", write(tmp_path / "q.json", q),
            "--mode", "mc", "--samples", "10"]
    assert run(argv, capsys) == (2, "", stderr)


@pytest.mark.parametrize("command, p, q, extra, stdout", [c[1:] for c in EXACT_STDOUT],
                         ids=[c[0] for c in EXACT_STDOUT])
def test_exact_stdout_bytes(command, p, q, extra, stdout, tmp_path, capsys):
    assert run(exact_argv(tmp_path, command, p, q, extra), capsys) == (0, stdout, "")


#: a spec of each kind with vector fields, and values of such a field that
#: are not flat arrays of numbers although ``float`` takes each entry (a null
#: entry reads as NaN and fails each kind's finiteness check, see SPEC_ERRORS)
VECTOR_SPECS = {"mixed-dirichlet": MD3, "gaussian-sparsemax": GS3, "kd-hard-concrete": KD3, "concrete": CONC3}
NOT_NUMBERS = {
    "bools": [True, False, True],
    "one-bool": [1.0, True, 0.5],
    "numeric-strings": ["0.5", "1", "2"],
    "one-numeric-string": [0.5, "1", 2.0],
    "huge-integer": [1, 10**400, 1],
    "bare-bool": True,
    "bare-numeric-string": "1",
}
VECTOR_CASES = [(kind, key, case) for kind, (_, _, vectors, _) in distspec._KINDS.items()
                for key in vectors for case in NOT_NUMBERS]


@pytest.mark.parametrize("kind, key, case", VECTOR_CASES, ids=["-".join(c) for c in VECTOR_CASES])
def test_vector_fields_take_numbers_only(kind, key, case, tmp_path, capsys):
    spec = dict(VECTOR_SPECS[kind], **{key: NOT_NUMBERS[case]})
    with pytest.raises(SpecError, match=f"^field '{key}' must be a list of numbers$"):
        parse_spec(spec)
    assert run(["entropy", "--dist", write(tmp_path / "p.json", spec), "--mode", "exact"], capsys) == (
        2, "", f"error: field '{key}' must be a list of numbers\n")


@pytest.mark.parametrize("spec, key", [(KD3, "beta"), (KD3, "lambda"), (BHC, "log_alpha"), (CONC3, "beta")])
def test_scalar_fields_reject_integers_beyond_the_double_range(spec, key, tmp_path, capsys):
    spec = dict(spec, **{key: -(10**400)})
    assert run(["entropy", "--dist", write(tmp_path / "p.json", spec), "--mode", "exact"], capsys) == (
        2, "", f"error: field '{key}' must be a number\n")


@pytest.mark.parametrize("spec", [dict(ME3, n=10**400), dict(ME3, k=10**400)], ids=["n", "k"])
def test_maxent_integers_beyond_the_machine_range_exit_2(spec, tmp_path, capsys):
    code, out, err = run(["entropy", "--dist", write(tmp_path / "p.json", spec), "--mode", "exact"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid parameters for kind 'maxent': ") and err.count("\n") == 1


def test_spec_file_error_bytes(tmp_path, capsys):
    path = tmp_path / "s.json"
    argv = ["entropy", "--dist", str(path), "--mode", "exact"]
    assert run(argv, capsys) == (
        2, "", f"error: cannot read spec file {path}: [Errno 2] No such file or directory: '{path}'\n")
    path.write_text('{"kind": "maxent", "k": 3,}')
    assert run(argv, capsys) == (2, "", f"error: spec file {path} is not valid JSON: Expecting property name "
                                        "enclosed in double quotes: line 1 column 27 (char 26)\n")
    path.write_text("")
    assert run(argv, capsys) == (
        2, "", f"error: spec file {path} is not valid JSON: Expecting value: line 1 column 1 (char 0)\n")


def test_mc_mode_needs_a_density(tmp_path, capsys):
    conc, me = write(tmp_path / "c.json", CONC3), write(tmp_path / "m.json", ME3)
    assert run(["entropy", "--dist", conc, "--mode", "mc", "--samples", "10"], capsys) == (
        2, "", "error: kind 'concrete' has no density; mc entropy unavailable\n")
    for p, q in ((me, conc), (conc, me)):
        assert run(["kl", "--dist", p, "--dist2", q, "--mode", "mc", "--samples", "10"], capsys) == (
            2, "", "error: mc KL needs both kinds to expose a density\n")


def _readme_specs() -> list[dict]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Distribution spec files\n.*?```json\n(.*?)```", text, re.S).group(1)
    return [json.loads(line) for line in block.splitlines()]


README_K = {"mixed-dirichlet": 3, "gaussian-sparsemax": 3, "kd-hard-concrete": 3, "binary-hard-concrete": 2,
            "maxent": 4, "concrete": 3}


def test_every_readme_example_parses_with_its_k():
    specs = _readme_specs()
    assert [s["kind"] for s in specs] == list(distspec.KINDS)
    for obj in specs:
        spec = parse_spec(obj)
        assert (spec.kind, spec.dist.K) == (obj["kind"], README_K[obj["kind"]])
        assert parse_spec(dict(obj, k=spec.dist.K)).dist.K == spec.dist.K


def test_kinds_are_the_table():
    assert distspec.KINDS == tuple(distspec._KINDS)
    assert "K" not in {f.name for f in dataclasses.fields(distspec.ParsedSpec)}


class TestBinaryHardConcreteK:
    def test_wrong_k_exits_2_naming_both(self, tmp_path, capsys):
        path = write(tmp_path / "bhc.json", dict(BHC, k=7))
        code, out, err = run(["sample", "--dist", path, "--num", "3", "--out", str(tmp_path / "s.jsonl")], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.search(r"\b7\b", err) and re.search(r"\b2\b", err)
        assert not (tmp_path / "s.jsonl").exists()

    @pytest.mark.parametrize("k", [7, 3, 0, -2])
    def test_wrong_k_is_a_spec_error(self, k):
        with pytest.raises(SpecError, match=f"field 'k' is {k} but"):
            parse_spec(dict(BHC, k=k))

    def test_k_2_parses(self, tmp_path, capsys):
        assert parse_spec(dict(BHC, k=2)).dist.K == 2
        outs = []
        for name, spec in (("with", dict(BHC, k=2)), ("without", BHC)):
            out = tmp_path / f"{name}.jsonl"
            argv = ["sample", "--dist", write(tmp_path / f"{name}.json", spec), "--num", "5", "--seed", "3",
                    "--out", str(out)]
            assert run(argv, capsys) == (0, "", "")
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_k_must_be_an_integer(self):
        with pytest.raises(SpecError, match="field 'k' must be an integer"):
            parse_spec(dict(BHC, k=2.0))


class TestExactMethods:
    """The exact measures are methods of the kinds that have them."""

    def test_methods_are_the_module_formulas(self):
        from mixedrv import extrinsic, mixed_dirichlet

        p, q = parse_spec(MD3).dist, parse_spec(dict(MD3, w=[0.1, 0.2, -0.3])).dist
        assert p.direct_sum_entropy() == mixed_dirichlet.entropy(p)
        assert p.direct_sum_kl(q) == mixed_dirichlet.kl_mixed(p, q)
        g, h = parse_spec(GS2).dist, parse_spec(GS2Q).dist
        assert g.direct_sum_entropy() == extrinsic.gs2_entropy(*extrinsic.gs2_params(g))
        assert g.direct_sum_kl(h) == extrinsic.gs2_kl(*extrinsic.gs2_params(g), *extrinsic.gs2_params(h))

    def test_mixed_dirichlet_methods_call_the_module_names(self, monkeypatch):
        from mixedrv import mixed_dirichlet

        monkeypatch.setattr(mixed_dirichlet, "entropy", lambda md: "entropy")
        monkeypatch.setattr(mixed_dirichlet, "kl_mixed", lambda p, q: "kl_mixed")
        md = parse_spec(MD3).dist
        assert (md.direct_sum_entropy(), md.direct_sum_kl(md)) == ("entropy", "kl_mixed")

    def test_gaussian_sparsemax_beyond_k2_is_not_implemented(self):
        g3, g2 = parse_spec(GS3).dist, parse_spec(GS2).dist
        with pytest.raises(NotImplementedError):
            g3.direct_sum_entropy()
        with pytest.raises(NotImplementedError):
            g3.direct_sum_kl(g3)
        with pytest.raises(NotImplementedError):
            g2.direct_sum_kl(g3)

    def test_maxent_kl(self):
        from mixedrv.info_theory import MaxEntMixed

        p, q = MaxEntMixed(4, 0), MaxEntMixed(4, 2)
        assert p.direct_sum_kl(p) == 0.0
        assert p.direct_sum_kl(q) > 0.0
        assert MaxEntMixed(3, 0).direct_sum_kl(MaxEntMixed(3, 1100)) == float("inf")
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 4"):
            MaxEntMixed(3, 0).direct_sum_kl(p)

    def test_sampling_only_kinds_have_no_exact_methods(self):
        for obj in (KD3, BHC, CONC3):
            dist = parse_spec(obj).dist
            assert not hasattr(dist, "direct_sum_entropy") and not hasattr(dist, "direct_sum_kl")
