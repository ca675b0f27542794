import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mixedrv import cli
from mixedrv import face_gibbs, glm, info_theory, mixed_dirichlet


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def specs(tmp_path):
    return {
        "md_forced": write(tmp_path / "md.json", {"kind": "mixed-dirichlet", "w": [30.0, -30.0], "alpha": [1.0, 1.0]}),
        "md4": write(tmp_path / "md4.json", {"kind": "mixed-dirichlet", "w": [0.5, -0.5, 0.2, 0.0], "alpha": [1.0, 2.0, 0.5, 1.5]}),
        "gs2": write(tmp_path / "gs2.json", {"kind": "gaussian-sparsemax", "mu": [0.55, 0.45], "sigma": [0.8, 0.6]}),
        "me2": write(tmp_path / "me2.json", {"kind": "maxent", "k": 2, "n": 0}),
        "me3": write(tmp_path / "me3.json", {"kind": "maxent", "k": 3, "n": 0}),
        "khc": write(tmp_path / "khc.json", {"kind": "kd-hard-concrete", "z": [0.4, -0.3, 0.1], "beta": 0.66, "lambda": 1.1}),
        "bhc": write(tmp_path / "bhc.json", {"kind": "binary-hard-concrete", "log_alpha": 0.0, "beta": 0.6667}),
        "conc": write(tmp_path / "conc.json", {"kind": "concrete", "z": [0.2, -0.5, 1.0], "beta": 0.7}),
    }


class TestMaxentCommand:
    def test_values(self, capsys):
        assert cli.main(["maxent", "--k", "3", "--n-max", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "K,N,H_maxent,H_discrete,H_continuous"
        k2 = lines[1].split(",")
        assert float(k2[2]) == pytest.approx(np.log(3), abs=1e-12)
        k3 = lines[2].split(",")
        assert float(k3[2]) == pytest.approx(np.log(6.5), abs=1e-12)

    def test_discrete_column_k10(self, capsys):
        cli.main(["maxent", "--k", "10", "--n-max", "0"])
        last = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert float(last[3]) == pytest.approx(np.log(10), abs=1e-12)

    def test_json_and_bits(self, capsys):
        cli.main(["maxent", "--k", "2", "--n-max", "0", "--format", "json", "--bits"])
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["H_maxent"] == pytest.approx(np.log2(3), abs=1e-12)

    def test_usage_error(self, capsys):
        assert cli.main(["maxent", "--k", "1", "--n-max", "0"]) == 2

    @pytest.mark.parametrize("n_max", [600, 1100])
    def test_large_precision_is_valid_json(self, capsys, n_max):
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        assert cli.main(["maxent", "--k", "3", "--n-max", str(n_max), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert len(rows) == 2 * (n_max + 1)
        assert rows[-1]["N"] == n_max and rows[-1]["H_maxent"] > 0

    def test_deterministic_stdout(self, capsys):
        cli.main(["maxent", "--k", "6", "--n-max", "3"])
        first = capsys.readouterr().out
        cli.main(["maxent", "--k", "6", "--n-max", "3"])
        assert capsys.readouterr().out == first


class TestSampleCommand:
    def test_schema_and_dims(self, tmp_path, specs):
        out = tmp_path / "s.jsonl"
        assert cli.main(["sample", "--dist", specs["me2"], "--num", "9", "--seed", "0", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 9
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"face", "dim", "y"}
            assert obj["dim"] in (0, 1)
            assert len(obj["y"]) == 2

    def test_forced_face(self, tmp_path, specs):
        out = tmp_path / "f.jsonl"
        cli.main(["sample", "--dist", specs["md_forced"], "--num", "20", "--seed", "3", "--out", str(out)])
        for line in out.read_text().strip().splitlines():
            assert json.loads(line)["face"] == [1]

    def test_byte_identical_reruns(self, tmp_path, specs):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            cli.main(["sample", "--dist", specs["md4"], "--num", "50", "--seed", "11", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("key", ["gs2", "khc", "bhc", "conc", "me3"])
    def test_all_kinds_sample(self, tmp_path, specs, key):
        out = tmp_path / f"{key}.jsonl"
        assert cli.main(["sample", "--dist", specs[key], "--num", "5", "--seed", "1", "--out", str(out)]) == 0
        for line in out.read_text().strip().splitlines():
            obj = json.loads(line)
            assert abs(sum(obj["y"]) - 1.0) < 1e-9

    @pytest.mark.parametrize("spec", [
        {"kind": "concrete", "z": [1.0, 0.0], "beta": 1e-308},
        {"kind": "kd-hard-concrete", "z": [1.0, 0.0, 0.0], "beta": 1e-308},
        {"kind": "kd-hard-concrete", "z": [1e308, -1e308, 0.0], "beta": 1.0},
        {"kind": "binary-hard-concrete", "log_alpha": 1e308, "beta": 1e-308},
    ])
    def test_extreme_temperature_and_logits_sample_silently(self, capsys, tmp_path, spec):
        path = write(tmp_path / "extreme.json", spec)
        out = tmp_path / "x.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["sample", "--dist", path, "--num", "20", "--seed", "3", "--out", str(out)]) == 0
            assert cli.main(["face-hist", "--in", str(out)]) == 0  # the file reads back as valid draws
        assert capsys.readouterr().err == ""
        for line in out.read_text().strip().splitlines():
            y = json.loads(line)["y"]
            assert np.all(np.isfinite(y)) and abs(sum(y) - 1.0) < 1e-12

    def test_invalid_spec_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "mixed-dirichlet", "w": [0.0, 0.0], "alpha": [1.0, -1.0]}')
        assert cli.main(["sample", "--dist", str(bad), "--num", "1", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("spec", [
        {"kind": "mixed-dirichlet", "w": [0.0, 0.0, 0.0], "alpha": [5e-308, 5e-308, 5e-308]},
        {"kind": "mixed-dirichlet", "w": [0.0, 0.0, 0.0], "alpha": [1.0, 1e-310, 1.0]},
        {"kind": "gaussian-sparsemax", "mu": [0.3, 0.2, 0.1], "sigma": [1e-160, 2e-160, 1e-160]},
    ])
    def test_unsampleable_parameters_exit_2(self, capsys, tmp_path, spec):
        path = write(tmp_path / "tiny.json", spec)
        out = tmp_path / "x.jsonl"
        assert cli.main(["sample", "--dist", path, "--num", "1000", "--seed", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("concentrations" in err or "sigma" in err)

    def test_failed_draw_leaves_existing_out_untouched(self, capsys, tmp_path):
        path = write(tmp_path / "tiny.json", {"kind": "mixed-dirichlet", "w": [0.0, 0.0, 0.0],
                                              "alpha": [1.0, 1e-310, 1.0]})
        out = tmp_path / "o.jsonl"
        out.write_text('{"face": [1], "dim": 0, "y": [1.0, 0.0, 0.0]}\n')
        before = out.read_bytes()
        assert cli.main(["sample", "--dist", path, "--num", "1000", "--seed", "3", "--out", str(out)]) == 2
        assert "concentrations" in capsys.readouterr().err
        assert out.read_bytes() == before

    def test_unwritable_exit_3(self, specs):
        assert cli.main(["sample", "--dist", specs["me2"], "--num", "1", "--out", "/no/such/dir/x.jsonl"]) == 3

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 745. GiB for an array"), MemoryError()])
    def test_failed_allocation_exit_2(self, capsys, monkeypatch, specs, tmp_path, error):
        # a stub raises: a real request that large can succeed on a host that
        # overcommits memory, and then exhaust it
        def sample_many(self, n, rng):
            raise error
        monkeypatch.setattr(mixed_dirichlet.MixedDirichlet, "sample_many", sample_many)
        out = tmp_path / "x.jsonl"
        assert cli.main(["sample", "--dist", specs["md4"], "--num", "10", "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {str(error) or 'out of memory'}\n"
        assert not out.exists()


class TestEntropyKlCommands:
    def test_maxent_exact(self, capsys, specs):
        assert cli.main(["entropy", "--dist", specs["me2"], "--mode", "exact"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["value"] == pytest.approx(1.0986122886681098, abs=1e-10)
        assert obj["unit"] == "nats"

    def test_gs2_exact_vs_mc(self, capsys, specs):
        cli.main(["entropy", "--dist", specs["gs2"], "--mode", "exact"])
        exact = json.loads(capsys.readouterr().out)["value"]
        cli.main(["entropy", "--dist", specs["gs2"], "--mode", "mc", "--samples", "4000", "--seed", "2"])
        obj = json.loads(capsys.readouterr().out)
        assert exact == pytest.approx(obj["value"], abs=3 * obj["std_error"])

    def test_exact_unsupported_kind(self, specs):
        assert cli.main(["entropy", "--dist", specs["khc"], "--mode", "exact"]) == 2
        assert cli.main(["entropy", "--dist", specs["conc"], "--mode", "mc"]) == 2

    def test_bits_flag(self, capsys, specs):
        cli.main(["entropy", "--dist", specs["me2"], "--mode", "exact", "--bits"])
        obj = json.loads(capsys.readouterr().out)
        assert obj["value"] == pytest.approx(np.log2(3), abs=1e-10)
        assert obj["unit"] == "bits"

    def test_kl_identical_specs(self, capsys, specs):
        assert cli.main(["kl", "--dist", specs["gs2"], "--dist2", specs["gs2"], "--mode", "exact"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0
        cli.main(["kl", "--dist", specs["md4"], "--dist2", specs["md4"], "--mode", "mc",
                  "--samples", "2000", "--seed", "5"])
        obj = json.loads(capsys.readouterr().out)
        assert not obj["support_violation"]
        assert obj["value"] == pytest.approx(0.0, abs=max(3 * obj["std_error"], 1e-12))

    @pytest.mark.parametrize("alpha", [1e-300, 1e-200])
    def test_mc_std_error_of_tiny_concentrations_is_strict_json(self, capsys, tmp_path, alpha):
        # log-densities near 1e300: their squares would overflow an unscaled standard error
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        spec = write(tmp_path / "tiny.json", {"kind": "mixed-dirichlet", "w": [1, 1, 1], "alpha": [alpha] * 3})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["entropy", "--dist", spec, "--mode", "mc", "--samples", "100", "--seed", "1"]) == 0
            assert cli.main(["kl", "--dist", spec, "--dist2", spec, "--mode", "mc", "--samples", "100",
                             "--seed", "1"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        h, kl = (json.loads(line, parse_constant=reject) for line in out.splitlines())
        assert 0.0 < h["std_error"] < abs(h["value"])
        assert kl["value"] == 0.0 and kl["std_error"] == 0.0

    @pytest.mark.parametrize("command", ["entropy", "kl"])
    def test_mc_beyond_double_precision_is_one_error_line(self, capsys, tmp_path, command):
        spec = write(tmp_path / "big.json", {"kind": "mixed-dirichlet", "w": [3.0] * 63, "alpha": [2.05e-307] * 63})
        argv = [command, "--dist", spec, "--mode", "mc", "--samples", "200", "--seed", "0"]
        if command == "kl":
            argv[3:3] = ["--dist2", spec]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: 200 of 200 Monte Carlo terms are not finite "
                                           "(a log-density beyond the range of a double)\n")

    def test_kl_exact_mixed_dirichlet(self, capsys, tmp_path, specs):
        other = write(tmp_path / "md4b.json",
                      {"kind": "mixed-dirichlet", "w": [0.1, 0.3, -0.2, 0.4], "alpha": [1.5, 1.0, 2.0, 0.7]})
        cli.main(["kl", "--dist", specs["md4"], "--dist2", other, "--mode", "exact"])
        exact = json.loads(capsys.readouterr().out)["value"]
        cli.main(["kl", "--dist", specs["md4"], "--dist2", other, "--mode", "mc",
                  "--samples", "20000", "--seed", "6"])
        obj = json.loads(capsys.readouterr().out)
        assert exact == pytest.approx(obj["value"], abs=3 * obj["std_error"])


    def test_kl_exact_maxent_with_underflowing_class_weights(self, capsys, tmp_path):
        # at N = 360 the weight of the K = 4 vertex class underflows to 0
        p = write(tmp_path / "me_360.json", {"kind": "maxent", "k": 4, "n": 360})
        q = write(tmp_path / "me_361.json", {"kind": "maxent", "k": 4, "n": 361})
        assert cli.main(["kl", "--dist", p, "--dist2", p, "--mode", "exact"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0
        assert cli.main(["kl", "--dist", p, "--dist2", q, "--mode", "exact"]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert np.isfinite(value) and value >= 0.0

    def test_kl_exact_maxent_finite_value_unchanged(self, capsys, specs, tmp_path):
        other = write(tmp_path / "me3n2.json", {"kind": "maxent", "k": 3, "n": 2})
        assert cli.main(["kl", "--dist", specs["me3"], "--dist2", other, "--mode", "exact"]) == 0
        gp, gq = info_theory.MaxEntMixed(3, 0).g, info_theory.MaxEntMixed(3, 2).g
        assert json.loads(capsys.readouterr().out)["value"] == float(np.sum(gp * (np.log(gp) - np.log(gq))))


    @pytest.mark.parametrize("bits", [False, True])
    def test_kl_exact_maxent_infinite_is_a_support_violation(self, capsys, tmp_path, bits):
        # q's vertex-class weight underflows to 0 at N = 360 and p's does not:
        # exact mode reports the infinite KL as mc mode does, with no warning
        p = write(tmp_path / "me_0.json", {"kind": "maxent", "k": 4, "n": 0})
        q = write(tmp_path / "me_360.json", {"kind": "maxent", "k": 4, "n": 360})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["kl", "--dist", p, "--dist2", q, "--mode", "exact"] + ["--bits"] * bits) == 0
        unit = "bits" if bits else "nats"
        assert capsys.readouterr().out == \
            f'{{"value": null, "support_violation": true, "mode": "exact", "unit": "{unit}"}}\n'
        assert cli.main(["kl", "--dist", q, "--dist2", p, "--mode", "exact"]) == 0
        assert np.isfinite(json.loads(capsys.readouterr().out)["value"])


class TestFaceHistCommand:
    def test_vertex_only_file(self, capsys, tmp_path, specs):
        out = tmp_path / "v.jsonl"
        cli.main(["sample", "--dist", specs["md_forced"], "--num", "30", "--seed", "1", "--out", str(out)])
        assert cli.main(["face-hist", "--in", str(out)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "kind,label,count,fraction"
        assert "dim,0,30,1.0" in lines[1]

    def test_maxent_dim_fractions(self, capsys, tmp_path, specs):
        out = tmp_path / "m.jsonl"
        n = 10**5
        cli.main(["sample", "--dist", specs["me3"], "--num", str(n), "--seed", "4", "--out", str(out)])
        cli.main(["face-hist", "--in", str(out)])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        fractions = {}
        for row in rows:
            kind, label, count, frac = row.split(",")
            if kind == "dim":
                fractions[int(label)] = float(frac)
        g = np.array([3.0, 3.0, 0.5]) / 6.5
        for k in range(3):
            se = np.sqrt(g[k] * (1 - g[k]) / n)
            assert abs(fractions[k] - g[k]) < 4 * se

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "e.jsonl"
        empty.write_text("")
        assert cli.main(["face-hist", "--in", str(empty)]) == 4

    def test_malformed_line_names_line_number(self, capsys, tmp_path):
        bad = tmp_path / "b.jsonl"
        bad.write_text('{"face": [1], "dim": 0, "y": [1.0, 0.0]}\nnot json\n')
        assert cli.main(["face-hist", "--in", str(bad)]) == 4
        assert ":2:" in capsys.readouterr().err


class TestGlmCommands:
    def test_gen_fit_roundtrip(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        model = tmp_path / "m.json"
        assert cli.main(["gen-glm-data", "--out", str(data), "--rows", "300", "--seed", "2"]) == 0
        header = data.read_text().splitlines()[0]
        assert header == "x1,x2,x3,x4,y1,y2,y3,y4,y5"
        assert cli.main(["fit-glm", "--data", str(data), "--out", str(model), "--seed", "3"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["macro_f1"] > 0.9
        assert metrics["n_train"] == 60 and metrics["n_test"] == 240
        saved = json.loads(model.read_text())
        assert saved["k"] == 5 and saved["d"] == 4
        assert len(saved["w_face"]) == 5 and len(saved["w_face"][0]) == 4
        assert saved["conc_clamp"] == [1e-3, 10.000045398899218]  # [CONC_MIN, softplus(PRE_CLAMP)]

    def test_schema_violation_exit_4(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y1,y2\n0.5,-0.2,1.2\n")
        assert cli.main(["fit-glm", "--data", str(bad), "--out", str(tmp_path / "m.json")]) == 4

    def test_bad_target_sum_exit_4(self, tmp_path):
        bad = tmp_path / "bad2.csv"
        bad.write_text("x1,y1,y2\n0.5,0.7,0.6\n")
        assert cli.main(["fit-glm", "--data", str(bad), "--out", str(tmp_path / "m.json")]) == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_target_exit_4(self, capsys, tmp_path, value):
        bad = tmp_path / "nan.csv"
        bad.write_text(f"x1,y1,y2\n0.5,0.5,0.5\n0.1,{value},0.5\n0.2,1.0,0.0\n")
        assert cli.main(["fit-glm", "--data", str(bad), "--out", str(tmp_path / "m.json")]) == 4
        assert f"{bad}:3:" in capsys.readouterr().err

    def test_renormalization_warning(self, capsys, tmp_path):
        data = tmp_path / "w.csv"
        rows = ["x1,y1,y2"]
        rng = np.random.default_rng(8)
        for _ in range(25):
            y1 = float(rng.uniform(0.2, 0.8))
            rows.append(f"{rng.normal():.6f},{y1 + 2e-6:.9f},{1 - y1:.9f}")
        data.write_text("\n".join(rows) + "\n")
        assert cli.main(["fit-glm", "--data", str(data), "--out", str(tmp_path / "m.json"),
                         "--steps", "5"]) == 0
        assert "renormalizing" in capsys.readouterr().err


    @pytest.mark.parametrize("flag,value", [("--steps", "0"), ("--steps", "-1"), ("--lr", "nan"),
                                            ("--lr", "inf"), ("--lr", "0"), ("--lr", "-0.1")])
    def test_fit_argument_errors_exit_2(self, capsys, tmp_path, flag, value):
        data = tmp_path / "d.csv"
        assert cli.main(["gen-glm-data", "--out", str(data), "--rows", "20", "--seed", "2"]) == 0
        model = tmp_path / "m.json"
        assert cli.main(["fit-glm", "--data", str(data), "--out", str(model), flag, value]) == 2
        assert flag in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("value,part", [("inf", "train"), ("nan", "train"), ("inf", "held-out")])
    def test_nonfinite_predictor_exit_4(self, capsys, tmp_path, value, part):
        data = tmp_path / "d.csv"
        assert cli.main(["gen-glm-data", "--out", str(data), "--rows", "20", "--seed", "2"]) == 0
        lines = data.read_text().splitlines()
        # the rows fit-glm trains on at its default --seed 0 and --train-frac 0.2
        perm = np.random.default_rng(0).permutation(20)
        row = int(perm[0] if part == "train" else perm[-1])
        lines[row + 1] = ",".join([value] + lines[row + 1].split(",")[1:])
        data.write_text("\n".join(lines) + "\n")
        model = tmp_path / "m.json"
        assert cli.main(["fit-glm", "--data", str(data), "--out", str(model), "--steps", "5"]) == 4
        assert capsys.readouterr().err == f"error: {data}:{row + 2}: non-finite predictor value\n"
        assert not model.exists()

    def test_overflowing_predictor_products_exit_2(self, tmp_path):
        # finite predictors whose products with the fitted weights overflow;
        # a fresh interpreter that turns warnings into errors, so a
        # RuntimeWarning before the error would end in a traceback
        data = tmp_path / "d.csv"
        assert cli.main(["gen-glm-data", "--out", str(data), "--rows", "20", "--k", "4", "--d", "2",
                         "--seed", "1"]) == 0
        lines = data.read_text().splitlines()
        lines[1] = ",".join(["1e308", "-1e308"] + lines[1].split(",")[2:])
        data.write_text("\n".join(lines) + "\n")
        model = tmp_path / "m.json"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "mixedrv.cli", "fit-glm", "--data", str(data),
                               "--out", str(model)], env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {glm._NON_FINITE}\n"
        assert not model.exists()

    def test_failed_allocation_exit_2(self, capsys, monkeypatch, tmp_path):
        def make_planted_dataset(**kwargs):
            raise MemoryError("Unable to allocate 2.91 TiB for an array")
        monkeypatch.setattr(glm, "make_planted_dataset", make_planted_dataset)
        data = tmp_path / "d.csv"
        assert cli.main(["gen-glm-data", "--out", str(data), "--rows", "20", "--seed", "2"]) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 2.91 TiB for an array\n"
        assert not data.exists()

    def test_gen_k_beyond_the_mask_cap_exit_2(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        assert cli.main(["gen-glm-data", "--out", str(data), "--k", "64"]) == 2
        assert "--k" in capsys.readouterr().err
        assert not data.exists()
        assert cli.main(["gen-glm-data", "--out", str(data), "--rows", "3", "--k", "63", "--seed", "1"]) == 0

#: a 64-vertex spec of each kind whose K is set by its fields
K64_SPECS = {
    "mixed-dirichlet": {"kind": "mixed-dirichlet", "w": [0.0] * 64, "alpha": [1.0] * 64},
    "gaussian-sparsemax": {"kind": "gaussian-sparsemax", "mu": [1 / 64] * 64, "sigma": [1.0] * 64},
    "kd-hard-concrete": {"kind": "kd-hard-concrete", "z": [0.0] * 64, "beta": 0.66},
    "concrete": {"kind": "concrete", "z": [0.0] * 64, "beta": 0.7},
    "maxent": {"kind": "maxent", "k": 64, "n": 0},
}
K64_DENSITIES = ("mixed-dirichlet", "gaussian-sparsemax", "maxent")


class TestMaskCap:
    """Faces are int64 bitmasks: a 64-vertex draw exits 2 with the one
    bitmask message, never with an error from inside numpy."""

    ERR = "error: faces are int64 bitmasks, so K must be <= 63, got 64\n"

    @pytest.mark.parametrize("kind", K64_SPECS)
    def test_sample(self, kind, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert cli.main(["sample", "--dist", write(tmp_path / "p.json", K64_SPECS[kind]), "--num", "3",
                         "--out", str(out), "--seed", "0"]) == 2
        assert capsys.readouterr() == ("", self.ERR)
        assert not out.exists()

    @pytest.mark.parametrize("kind", K64_DENSITIES)
    def test_mc_estimates(self, kind, tmp_path, capsys):
        spec = write(tmp_path / "p.json", K64_SPECS[kind])
        assert cli.main(["entropy", "--dist", spec, "--mode", "mc", "--samples", "10", "--seed", "0"]) == 2
        assert capsys.readouterr() == ("", self.ERR)
        assert cli.main(["kl", "--dist", spec, "--dist2", spec, "--mode", "mc", "--samples", "10",
                         "--seed", "0"]) == 2
        assert capsys.readouterr() == ("", self.ERR)


SPREAD_SPECS = {
    "gaussian-sparsemax": {"kind": "gaussian-sparsemax", "mu": [1e308, -1e308, 0.0], "sigma": [1.0, 1.0, 1.0]},
    "kd-hard-concrete": {"kind": "kd-hard-concrete", "z": [0.0, 0.0, 0.0], "beta": 1.0, "lambda": 1e308},
}
GS_SIGMA_LARGE = ({"kind": "gaussian-sparsemax", "mu": [0.3, 0.1], "sigma": [1e154, 1.0]},
                  {"kind": "gaussian-sparsemax", "mu": [0.3, 0.1, 0.2], "sigma": [1e154, 1.0, 0.5]})


MD3_TINY = {"kind": "mixed-dirichlet", "w": [0.5, -0.3, 0.1], "alpha": [1e-310, 1.0, 1.0]}
MD8_TINY = {"kind": "mixed-dirichlet", "w": [0.3] * 8, "alpha": [3e-308] * 8}
GS_NEAR = {"kind": "gaussian-sparsemax", "mu": [0.3, 0.0], "sigma": [1.0, 1.0]}
GS_FAR = {**GS_NEAR, "mu": [1e200, 0.0]}
NOT_FINITE = "error: the exact {} is not finite (a term beyond the range of a double)\n"
BHC_NOT_FINITE = "error: invalid parameters for kind 'binary-hard-concrete': log_alpha must be finite, got {}\n"
MD_W_HUGE = {"kind": "mixed-dirichlet", "w": [1e308, 0.0], "alpha": [1.0, 1.0]}
W_HUGE = ("error: invalid parameters for kind 'mixed-dirichlet': w must be within +-8.988465674311579e+307 "
          "(2w overflows beyond it), got [1.e+308 0.e+000]\n")
#: twelve concentrations, one negative: numpy would wrap their text at 75 columns
MD12_NEGATIVE = {"kind": "mixed-dirichlet", "w": [0.1 * k for k in range(1, 13)],
                 "alpha": [1.5, 2.25, 0.75, 1.125, 3.5, 0.625, 1.75, 2.5, 0.875, 1.375, 2.125, -0.5]}
#: (command, specs, expected): an error line (exit 2, empty stdout) or the
#: values of the strict-JSON report (exit 0, empty stderr)
DOUBLE_RANGE_EDGES = {
    "bhc-nan": (["sample", "--num", "3"], [{"kind": "binary-hard-concrete", "log_alpha": float("nan"), "beta": 1.0}],
                BHC_NOT_FINITE.format("nan")),
    "bhc-inf": (["sample", "--num", "3"], [{"kind": "binary-hard-concrete", "log_alpha": float("inf"), "beta": 1.0}],
                BHC_NOT_FINITE.format("inf")),
    "md-exact-entropy-nan": (["entropy", "--mode", "exact"], [MD3_TINY], NOT_FINITE.format("entropy")),
    "md-exact-entropy-inf": (["entropy", "--mode", "exact"], [MD8_TINY], NOT_FINITE.format("entropy")),
    "md-exact-kl-nan": (["kl", "--mode", "exact"], [{**MD3_TINY, "alpha": [1.0] * 3}, MD3_TINY],
                        NOT_FINITE.format("KL")),
    "md-exact-kl-inf": (["kl", "--mode", "exact"], [MD8_TINY, {**MD8_TINY, "alpha": [1.0] * 8}],
                        NOT_FINITE.format("KL")),
    "gs-exact-entropy-far": (["entropy", "--mode", "exact"],
                             [{"kind": "gaussian-sparsemax", "mu": [1e300, -1e300], "sigma": [1e-150, 1e-150]}],
                             {"value": 0.0}),
    "gs-exact-kl-far-near": (["kl", "--mode", "exact"], [GS_FAR, GS_NEAR], {"value": 1.1701867900637222}),
    "gs-exact-kl-near-far": (["kl", "--mode", "exact"], [GS_NEAR, GS_FAR], {"value": None, "support_violation": True}),
    "md-sample-w-huge": (["sample", "--num", "3"], [MD_W_HUGE], W_HUGE),
    "md-exact-entropy-w-huge": (["entropy", "--mode", "exact"], [MD_W_HUGE], W_HUGE),
    "md-mc-entropy-w-huge": (["entropy", "--mode", "mc", "--samples", "50"], [MD_W_HUGE], W_HUGE),
    "md-exact-kl-w-huge": (["kl", "--mode", "exact"], [MD_W_HUGE, {**MD_W_HUGE, "w": [0.5, 0.0]}], W_HUGE),
    "md-mc-kl-w-huge": (["kl", "--mode", "mc", "--samples", "50"], [{**MD_W_HUGE, "w": [0.5, 0.0]}, MD_W_HUGE],
                        W_HUGE),
    "md12-negative-alpha": (["sample", "--num", "3"], [MD12_NEGATIVE],
                            "error: invalid parameters for kind 'mixed-dirichlet': concentrations must be finite "
                            "and > 0, got [ 1.5    2.25   0.75   1.125  3.5    0.625  1.75   2.5    0.875  1.375  "
                            "2.125 -0.5  ]\n"),
    "gs8-sigma-tiny": (["sample", "--num", "3"],
                       [{"kind": "gaussian-sparsemax", "mu": [0.0] * 8, "sigma": [1.25e-160, 2.5e-160] * 4}],
                       "error: invalid parameters for kind 'gaussian-sparsemax': sigma too small: the sum of "
                       "sigma^-2 overflows, got [1.25e-160 2.50e-160 1.25e-160 2.50e-160 1.25e-160 2.50e-160 "
                       "1.25e-160 2.50e-160]\n"),
}


@pytest.mark.filterwarnings("error")
class TestExtremeParameters:
    """Finite parameters at the edge of the double range, with warnings as
    errors: a draw whose sparsemax input spreads beyond the double range
    projects silently, a sigma whose squares overflow in sum and a
    potential whose double overflows are refused when the spec is read (on
    one error line, however long the vector), and an exact measure is
    finite or an error."""

    @pytest.mark.parametrize("kind", SPREAD_SPECS)
    def test_sparsemax_spread_beyond_the_double_range(self, kind, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        spec = write(tmp_path / "p.json", SPREAD_SPECS[kind])
        assert cli.main(["sample", "--dist", spec, "--num", "3", "--seed", "0", "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert all(json.loads(line)["dim"] == 0 for line in out.read_text().splitlines())
        assert cli.main(["face-hist", "--in", str(out)]) == 0
        assert "dim,0,3,1.0" in capsys.readouterr().out

    def test_sparsemax_spread_mc_entropy(self, tmp_path, capsys):
        spec = write(tmp_path / "p.json", SPREAD_SPECS["gaussian-sparsemax"])
        assert cli.main(["entropy", "--dist", spec, "--mode", "mc", "--samples", "10", "--seed", "0"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and np.isfinite(json.loads(out)["value"])

    @pytest.mark.parametrize("spec, argv", [
        (GS_SIGMA_LARGE[0], ["entropy", "--mode", "exact"]),
        (GS_SIGMA_LARGE[0], ["kl", "--mode", "exact"]),
        (GS_SIGMA_LARGE[0], ["entropy", "--mode", "mc", "--samples", "50"]),
        (GS_SIGMA_LARGE[1], ["entropy", "--mode", "mc", "--samples", "50"]),
    ], ids=["k2-exact-entropy", "k2-exact-kl", "k2-mc", "k3-mc"])
    def test_sigma_squares_summing_to_a_double_run(self, spec, argv, tmp_path, capsys):
        path = write(tmp_path / "p.json", spec)
        extra = ["--dist2", path] if argv[0] == "kl" else []
        assert cli.main([argv[0], "--dist", path, *extra, *argv[1:], "--seed", "0"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and np.isfinite(json.loads(out)["value"])

    @pytest.mark.parametrize("sigma", ([2e154, 1.0], [1e300, 1.0]))
    @pytest.mark.parametrize("argv", (["sample", "--num", "3"], ["entropy", "--mode", "exact"],
                                      ["entropy", "--mode", "mc", "--samples", "50"]),
                             ids=["sample", "exact", "mc"])
    def test_sigma_squares_overflowing_exit_2(self, sigma, argv, tmp_path, capsys):
        spec = write(tmp_path / "p.json", {"kind": "gaussian-sparsemax", "mu": [0.3, 0.1], "sigma": sigma})
        out = tmp_path / "out.jsonl"
        extra = ["--out", str(out)] if argv[0] == "sample" else []
        assert cli.main([argv[0], "--dist", spec, *argv[1:], *extra]) == 2
        shown = np.array2string(np.array(sigma))
        assert capsys.readouterr() == ("", "error: invalid parameters for kind 'gaussian-sparsemax': "
                                           f"sigma too large: the sum of sigma^2 overflows, got {shown}\n")
        assert not out.exists()

    @pytest.mark.parametrize("case", DOUBLE_RANGE_EDGES)
    def test_edges_of_the_double_range(self, case, tmp_path, capsys):
        # no NaN, infinity or traceback: one error line, or a report in strict JSON
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        argv, dists, expected = DOUBLE_RANGE_EDGES[case]
        paths = [write(tmp_path / f"p{i}.json", d) for i, d in enumerate(dists)]
        extra = {"sample": ["--out", str(tmp_path / "out.jsonl")], "kl": ["--dist2", paths[-1]]}.get(argv[0], [])
        code = cli.main([argv[0], "--dist", paths[0], *extra, *argv[1:]])
        out, err = capsys.readouterr()
        if isinstance(expected, str):
            assert (code, out, err) == (2, "", expected)
            return
        assert (code, err) == (0, "")
        report = json.loads(out, parse_constant=reject)
        for key, value in expected.items():
            assert report[key] == (value if value is None or isinstance(value, bool)
                                   else pytest.approx(value, rel=1e-12))


class TestCheckCommand:
    def test_injected_bug_fails_enumeration_oracle(self, capsys, monkeypatch):
        good = face_gibbs.log_normalizer
        monkeypatch.setattr(face_gibbs, "log_normalizer", lambda w: -good(w))
        assert cli.main(["check", "--level", "fast"]) == 1
        out = capsys.readouterr().out
        assert "FAIL face_gibbs.log_normalizer_vs_enumeration" in out
        assert "FAILED:" in out

    def test_spec_error_exit_code(self, tmp_path):
        missing = tmp_path / "missing.json"
        assert cli.main(["entropy", "--dist", str(missing), "--mode", "exact"]) == 2

    @pytest.mark.parametrize("spec", [
        {"kind": "maxent", "k": 4.9, "n": 1},
        {"kind": "maxent", "k": 4, "n": 1.5},
        {"kind": "maxent", "k": "4"},
        {"kind": "maxent", "k": True},
        {"kind": "maxent", "k": 3, "n": False},
        {"kind": "maxent", "k": 3.0},
        {"kind": "mixed-dirichlet", "w": [0.0, 0.0, 0.0], "alpha": [1.0, 1.0, 1.0], "k": 3.2},
        {"kind": "mixed-dirichlet", "w": [0.0, 0.0, 0.0], "alpha": [1.0, 1.0, 1.0], "k": "3"},
        {"kind": "gaussian-sparsemax", "mu": [0.5, 0.5], "sigma": [1.0, 1.0], "k": 2.0},
    ])
    def test_non_integer_k_or_n_exit_2(self, capsys, tmp_path, spec):
        path = write(tmp_path / "spec.json", spec)
        assert cli.main(["entropy", "--dist", path, "--mode", "exact"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be an integer" in err

    def test_undecodable_spec_exit_2(self, capsys, tmp_path):
        spec = tmp_path / "latin1.json"
        spec.write_bytes(b'{"kind": "maxent", "k": 3, "n": 0, "note": "\xff"}')
        assert cli.main(["entropy", "--dist", str(spec), "--mode", "exact"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: spec file {spec} is not UTF-8 text: ") and err.count("\n") == 1


class TestColdStart:
    # run in a fresh interpreter: the test session itself has imported scipy.stats
    SCRIPT = (
        "import json, sys\n"
        "from mixedrv import cli, distspec\n"
        "if sys.argv[1]:\n"
        "    distspec.load_spec_file(sys.argv[1])\n"
        "code = cli.main(json.loads(sys.argv[2]))\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m == 'scipy' or m.startswith(('scipy.', 'mixedrv.', 'mpmath')))]))\n"
    )

    def _run_fresh(self, spec, argv):
        """Exit code of ``cli.main(argv)`` after loading ``spec`` (none if
        None), and the scipy, mpmath and mixedrv modules loaded, in a fresh
        interpreter that turns every warning into an error, as CI does: a
        warning raised by a module imported on first use fails the run."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-W", "error", "-c", self.SCRIPT, spec or "", json.dumps(argv)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    MD = {"cli", "distspec", "simplex", "face_gibbs", "mixed_dirichlet"}
    GS = {"cli", "distspec", "simplex", "extrinsic"}
    INFO = MD | {"info_theory"}  # info_theory draws maxent points with mixed_dirichlet's Dirichlet step
    #: id, argv, the mixedrv modules a fresh process loads for it, and whether
    #: it loads scipy (and with it scipy.special, the only part a command uses)
    LOADS = [
        ("sample-mixed-dirichlet", ["sample", "--dist", "{md}", "--num", "20", "--out", "{tmp}/s.jsonl"], MD, False),
        ("sample-gaussian-sparsemax", ["sample", "--dist", "{gs}", "--num", "20", "--out", "{tmp}/s.jsonl"], GS,
         False),
        ("sample-kd-hard-concrete", ["sample", "--dist", "{khc}", "--num", "20", "--out", "{tmp}/s.jsonl"], GS,
         False),
        ("sample-binary-hard-concrete", ["sample", "--dist", "{bhc}", "--num", "20", "--out", "{tmp}/s.jsonl"], GS,
         True),
        ("sample-maxent", ["sample", "--dist", "{me}", "--num", "20", "--out", "{tmp}/s.jsonl"], INFO, True),
        ("sample-concrete", ["sample", "--dist", "{conc}", "--num", "20", "--out", "{tmp}/s.jsonl"], GS, False),
        ("face-hist", ["face-hist", "--in", "{tmp}/md.jsonl"], {"cli", "distspec", "simplex"}, False),
        ("entropy-exact-mixed-dirichlet", ["entropy", "--dist", "{md}", "--mode", "exact"], MD, True),
        ("entropy-mc-mixed-dirichlet", ["entropy", "--dist", "{md}", "--mode", "mc", "--samples", "50"], INFO, True),
        ("kl-exact-mixed-dirichlet", ["kl", "--dist", "{md}", "--dist2", "{md}", "--mode", "exact"], MD, True),
        ("kl-mc-mixed-dirichlet", ["kl", "--dist", "{md}", "--dist2", "{md}", "--mode", "mc", "--samples", "50"],
         INFO, True),
        ("entropy-exact-gaussian-sparsemax", ["entropy", "--dist", "{gs}", "--mode", "exact"], GS, True),
        ("entropy-mc-gaussian-sparsemax", ["entropy", "--dist", "{gs}", "--mode", "mc", "--samples", "50"],
         GS | {"info_theory"}, True),
        ("kl-exact-gaussian-sparsemax", ["kl", "--dist", "{gs}", "--dist2", "{gs}", "--mode", "exact"], GS, True),
        ("kl-mc-gaussian-sparsemax", ["kl", "--dist", "{gs}", "--dist2", "{gs}", "--mode", "mc", "--samples", "50"],
         GS | {"info_theory"}, True),
        ("maxent", ["maxent", "--k", "3", "--n-max", "1"], {"cli", "distspec", "simplex", "info_theory"}, True),
        ("gen-glm-data", ["gen-glm-data", "--out", "{tmp}/g.csv", "--rows", "20", "--k", "3", "--d", "2"],
         MD | {"glm"}, False),
        # fitting and predicting draw no Dirichlet points
        ("fit-glm", ["fit-glm", "--data", "{tmp}/glm.csv", "--out", "{tmp}/m.json", "--steps", "3", "--predict",
                     "sample-mean"], {"cli", "distspec", "simplex", "face_gibbs", "glm"}, True),
        ("check", ["check", "--level", "fast"], GS | INFO | {"glm", "checks", "oracles"}, True),
    ]

    @pytest.mark.parametrize("argv, modules, uses_scipy", [case[1:] for case in LOADS], ids=[c[0] for c in LOADS])
    def test_command_loads_exactly_what_it_uses(self, tmp_path, argv, modules, uses_scipy):
        paths = {
            "md": write(tmp_path / "md.json", {"kind": "mixed-dirichlet", "w": [0.5, -1.0, 0.0], "alpha": [1.0, 2.0, 0.5]}),
            "gs": write(tmp_path / "gs.json", {"kind": "gaussian-sparsemax", "mu": [0.3, -0.2], "sigma": [0.9, 0.5]}),
            "khc": write(tmp_path / "khc.json", {"kind": "kd-hard-concrete", "z": [0.4, -0.3, 0.1], "beta": 0.66}),
            "bhc": write(tmp_path / "bhc.json", {"kind": "binary-hard-concrete", "log_alpha": 0.0, "beta": 0.6667}),
            "me": write(tmp_path / "me.json", {"kind": "maxent", "k": 3, "n": 1}),
            "conc": write(tmp_path / "conc.json", {"kind": "concrete", "z": [0.2, -0.5, 1.0], "beta": 0.7}),
            "tmp": str(tmp_path),
        }
        (tmp_path / "md.jsonl").write_text('{"face": [1, 3], "dim": 1, "y": [0.25, 0.0, 0.75]}\n')
        assert cli.main(["gen-glm-data", "--out", str(tmp_path / "glm.csv"), "--rows", "20", "--k", "3", "--d", "2"]) == 0
        code, loaded = self._run_fresh(None, [a.format(**paths) for a in argv])
        assert code == 0
        assert {m.removeprefix("mixedrv.") for m in loaded if m.startswith("mixedrv.")} == modules
        assert ("scipy" in loaded, "scipy.special" in loaded) == (uses_scipy, uses_scipy)

    def test_gs_mc_entropy_loads_no_quadrature_oracle(self, tmp_path):
        spec = write(tmp_path / "gs.json", {"kind": "gaussian-sparsemax", "mu": [0.3, -0.2, 0.5], "sigma": [0.9, 0.5, 1.2]})
        code, modules = self._run_fresh(spec, ["entropy", "--dist", spec, "--mode", "mc", "--samples", "50", "--seed", "3"])
        assert code == 0
        assert "mixedrv.extrinsic" in modules
        for name in ("scipy.integrate", "scipy.optimize", "mpmath", "mixedrv.oracles"):
            assert name not in modules

    def test_sample_loads_neither_the_oracles_nor_scipy_stats(self, tmp_path):
        spec = write(tmp_path / "md.json", {"kind": "mixed-dirichlet", "w": [0.5, -1.0, 0.0], "alpha": [1.0, 2.0, 0.5]})
        code, modules = self._run_fresh(
            spec, ["sample", "--dist", spec, "--num", "50", "--seed", "3", "--out", str(tmp_path / "s.jsonl")])
        assert code == 0
        assert len((tmp_path / "s.jsonl").read_text().splitlines()) == 50
        assert "mixedrv.cli" in modules
        for name in ("scipy.special", "scipy.stats", "scipy.optimize", "scipy.spatial", "scipy.linalg",
                     "scipy.ndimage", "mixedrv.checks", "mixedrv.oracles"):
            assert name not in modules

    @pytest.mark.parametrize("argv", [
        ["sample", "--dist", "{gs}", "--num", "50", "--seed", "3", "--out", "{tmp}/gs.jsonl"],
        ["face-hist", "--in", "{tmp}/md.jsonl"],
        ["gen-glm-data", "--out", "{tmp}/glm.csv", "--rows", "20", "--k", "3", "--d", "2", "--seed", "3"],
    ], ids=["sample-gaussian-sparsemax", "face-hist", "gen-glm-data"])
    def test_command_loads_no_special_functions(self, tmp_path, argv):
        md = write(tmp_path / "md.json", {"kind": "mixed-dirichlet", "w": [0.5, -1.0, 0.0], "alpha": [1.0, 2.0, 0.5]})
        gs = write(tmp_path / "gs.json", {"kind": "gaussian-sparsemax", "mu": [0.3, -0.2, 0.5], "sigma": [0.9, 0.5, 1.2]})
        assert cli.main(["sample", "--dist", md, "--num", "50", "--seed", "3", "--out", str(tmp_path / "md.jsonl")]) == 0
        code, modules = self._run_fresh(md, [a.format(gs=gs, tmp=tmp_path) for a in argv])
        assert code == 0
        assert "mixedrv.cli" in modules and "scipy.special" not in modules

    def test_exact_entropy_loads_special_functions_on_demand(self, tmp_path):
        spec = write(tmp_path / "md.json", {"kind": "mixed-dirichlet", "w": [0.5, -1.0, 0.0], "alpha": [1.0, 2.0, 0.5]})
        code, modules = self._run_fresh(spec, ["entropy", "--dist", spec, "--mode", "exact"])
        assert code == 0
        assert "scipy.special" in modules

    def test_check_imports_its_registry_on_demand(self, monkeypatch, capsys):
        # raises NameError unless cmd_check imports the registry itself; the
        # real suite runs in a fresh interpreter in test_acceptance (criterion 11)
        from mixedrv import checks
        monkeypatch.setattr(checks, "run_checks", lambda level: [checks.CheckResult(f"stub.{level}", True, "", 0.0)])
        assert cli.main(["check", "--level", "fast"]) == 0
        assert capsys.readouterr().out == "PASS stub.fast\n1/1 checks passed (level=fast)\n"


class TestParserCache:
    def test_import_builds_no_parser(self):
        # a fresh interpreter: this session has long since built the parser
        script = ("from mixedrv import cli\n"
                  "print(cli._build_parser.cache_info().currsize)\n"
                  "cli.main(['maxent', '--k', '2', '--n-max', '0'])\n"
                  "print(cli._build_parser.cache_info().currsize)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("0", "1")

    def test_main_builds_the_parser_once(self, capsys, specs, tmp_path):
        cli._build_parser.cache_clear()
        argvs = [["maxent", "--k", "2", "--n-max", "0"],
                 ["entropy", "--dist", specs["me3"], "--mode", "exact"],
                 ["sample", "--dist", specs["md4"], "--num", "3", "--out", str(tmp_path / "s.jsonl")],
                 ["face-hist", "--in", str(tmp_path / "s.jsonl")],
                 ["maxent", "--k", "3", "--n-max", "1", "--bits"]]
        for argv in argvs:
            assert cli.main(argv) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(argvs) - 1)

    def test_no_state_carries_across_calls(self, capsys, tmp_path):
        parser = cli._build_parser()
        first = parser.parse_args(["entropy", "--dist", "p.json", "--mode", "mc", "--seed", "5", "--bits"])
        bare = parser.parse_args(["entropy", "--dist", "p.json", "--mode", "mc"])
        assert (first.seed, first.bits) == (5, True)
        assert (bare.seed, bare.bits, bare.samples) == (None, False, 10000)
        spec = write(tmp_path / "seeded.json", {"kind": "mixed-dirichlet", "w": [0.5, -0.5, 0.2],
                                                "alpha": [1.0, 2.0, 0.5], "seed": 7})
        outs = {}
        for name, flags in [("5", ["--seed", "5"]), ("spec", []), ("7", ["--seed", "7"])]:
            outs[name] = tmp_path / f"{name}.jsonl"
            assert cli.main(["sample", "--dist", spec, "--num", "20", "--out", str(outs[name]), *flags]) == 0
        assert outs["spec"].read_bytes() == outs["7"].read_bytes() != outs["5"].read_bytes()
        assert cli.main(["entropy", "--dist", spec, "--mode", "mc", "--samples", "50", "--bits"]) == 0
        assert cli.main(["entropy", "--dist", spec, "--mode", "mc", "--samples", "50"]) == 0
        bits, nats = (json.loads(line) for line in capsys.readouterr().out.splitlines())
        assert (bits["unit"], nats["unit"]) == ("bits", "nats")
        assert bits["value"] == pytest.approx(nats["value"] / np.log(2), rel=1e-12)

    def test_usage_error_after_caching(self, capsys):
        cli._build_parser.cache_clear()
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["entropy", "--mode", "exact", "--samples", "many"])
            errors.append((exc.value.code, capsys.readouterr().err))
        assert errors[0] == errors[1]
        assert errors[0][0] == 2 and errors[0][1].startswith("usage: mixedrv entropy ")

    @pytest.mark.parametrize("argv", [["--help"], ["fit-glm", "--help"]])
    def test_help_matches_a_fresh_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        fresh = cli._build_parser.__wrapped__()
        with pytest.raises(SystemExit):
            fresh.parse_args(argv)
        expected = capsys.readouterr().out
        assert cli.main(["maxent", "--k", "2", "--n-max", "0"]) == 0
        capsys.readouterr()
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out == expected
        assert expected.startswith("usage: mixedrv ")
