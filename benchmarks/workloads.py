"""The three benchmark workloads: generated inputs, per-iteration commands
and the correctness gates that judge each command's output.

Every workload is a closed loop of ``mixedrv`` commands run in-process by one
client.  Each one sends its heavy work through a different set of modules:

* ``intrinsic``: Mixed Dirichlet sampling, face histograms, MC and exact
  entropy/KL.  Per-draw simplex objects, face sampling, per-face Dirichlet
  grouping, exact face enumeration and JSON-lines I/O; nothing in
  ``extrinsic`` or ``glm`` runs.
* ``extrinsic``: Gaussian-Sparsemax sampling and MC entropy/KL through the
  general (unequal sigma) and constant-sigma orthant quadrature paths;
  nothing in ``face_gibbs``, ``mixed_dirichlet`` or ``glm`` runs.
* ``glm``: planted data generation and GLM fitting.  Batched face-lattice
  passes over every training row at every step, and Mixed Dirichlet
  sampling in many tiny batches (one draw per generated row, 100 per
  predicted row), plus CSV write and read.

The workload seed draws a pool of spec parameters and every per-command
``--seed``; the program only sees the generated files.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, gammaln, logsumexp, ndtri

#: Spec sets generated per run; iteration i uses set ``i % POOL``.
POOL = 8

#: Width of the Monte Carlo gate, in estimated standard errors.
MC_GATE_SE = 6.0

#: Tolerance of the exact-enumeration gate, relative to max(1, |reference|).
EXACT_GATE_TOL = 1e-9

#: Command sizes; ``tiny`` is the self-test's scale.
SIZES = {
    "full": {
        "intrinsic": {"k": 8, "k_exact": 11, "sample_n": 2500, "mc_n": 1200},
        "extrinsic": {"k": 6, "sample_n": 4000, "entropy_n": 200, "kl_n": 120, "k2_n": 1000},
        "glm": {"rows": 240, "k": 6, "d": 4, "steps": 120, "train_frac": 0.5},
    },
    "tiny": {
        "intrinsic": {"k": 4, "k_exact": 5, "sample_n": 60, "mc_n": 40},
        "extrinsic": {"k": 3, "sample_n": 60, "entropy_n": 10, "kl_n": 10, "k2_n": 200},
        "glm": {"rows": 24, "k": 3, "d": 2, "steps": 5, "train_frac": 0.5},
    },
}


@dataclass
class Op:
    """One CLI command of an iteration.

    ``check`` maps the command's stdout to a list of gate failures; it runs
    after the command's timing has been taken.
    """

    name: str  # metric stem in the run record, e.g. "sample" or "mc_entropy"
    argv: list[str]
    inputs: list[str]
    outputs: list[str]
    sizes: dict
    check: object = None
    role: str | None = None  # "draw" or "estimate": feeds the end-to-end metrics
    info: dict = field(default_factory=dict)  # workload properties a check found, for the run record

    @property
    def command(self) -> str:
        return self.argv[0].replace("-", "_")


# ------------------------------------------------------------------ gates ---

def mc_gate(value, std_error, reference) -> list[str]:
    """An MC estimate fails when it is not finite or lies more than
    ``MC_GATE_SE`` estimated standard errors from the reference value."""
    if value is None or std_error is None or not (
            math.isfinite(value) and math.isfinite(std_error) and std_error > 0.0):
        return [f"MC estimate not finite: value={value!r} std_error={std_error!r}"]
    if abs(value - reference) > MC_GATE_SE * std_error:
        return [f"MC estimate {value!r} is {abs(value - reference) / std_error:.1f} std errors "
                f"from reference {reference!r}"]
    return []


def _mc_against(reference):
    def check(stdout):
        obj = _json_stdout(stdout)
        return mc_gate(obj["value"], obj.get("std_error"), reference)
    return check


def exact_gate(value, reference) -> list[str]:
    if value is None or not math.isfinite(value):
        return [f"exact value not finite: {value!r}"]
    if abs(value - reference) > EXACT_GATE_TOL * max(1.0, abs(reference)):
        return [f"exact value {value!r} differs from reference {reference!r}"]
    return []


def _json_stdout(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_sample_file(path: str, n: int, K: int) -> tuple[list[str], Counter]:
    """Structure of a ``sample --out`` file; returns failures and face counts.

    Each line must hold a sorted 1-based ``face``, ``dim = |face| - 1`` and
    ``K`` coordinates that are exactly zero off the face, positive on it and
    sum to one.
    """
    errors: list[str] = []
    faces: Counter = Counter()
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != n:
        errors.append(f"{path}: {len(lines)} lines, expected {n}")
    for lineno, line in enumerate(lines, start=1):
        obj = json.loads(line)
        face, dim, y = obj.get("face"), obj.get("dim"), obj.get("y")
        bad = (
            set(obj) != {"face", "dim", "y"}
            or not face or face != sorted(set(face)) or face[0] < 1 or face[-1] > K
            or dim != len(face) - 1 or len(y) != K
        )
        if not bad:
            on = {i - 1 for i in face}
            bad = (
                any((y[i] > 0.0) != (i in on) for i in range(K))
                or any(v < 0.0 for v in y)
                or abs(math.fsum(y) - 1.0) > 1e-9
            )
        if bad:
            errors.append(f"{path}:{lineno}: malformed sample {line[:120]}")
            if len(errors) > 5:
                break
            continue
        faces[tuple(face)] += 1
    return errors, faces


def check_face_hist(stdout: str, faces: Counter) -> list[str]:
    """``face-hist`` output must equal the histogram computed from the file."""
    total = sum(faces.values())
    dims: Counter = Counter()
    for face, count in faces.items():
        dims[len(face) - 1] += count
    expected = {("dim", str(d)): c for d, c in dims.items()}
    expected.update({("face", "+".join(map(str, f))): c for f, c in faces.items()})
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "kind,label,count,fraction":
        return ["face-hist: missing header"]
    got = {}
    for line in lines[1:]:
        kind, label, count, frac = line.split(",")
        if float(frac) != int(count) / total:
            return [f"face-hist: fraction {frac} != {count}/{total}"]
        got[(kind, label)] = int(count)
    if got != expected:
        return [f"face-hist: {len(got)} rows disagree with the file's own histogram"]
    return []


def dim_shares(faces: Counter) -> dict[str, float]:
    """Share of draws per face dimension."""
    total = sum(faces.values()) or 1
    dims: Counter = Counter()
    for face, count in faces.items():
        dims[len(face) - 1] += count
    return {str(d): dims[d] / total for d in sorted(dims)}


# ------------------------------------------------ Mixed Dirichlet reference ---

def _face_members(K: int) -> np.ndarray:
    masks = np.arange(1, 1 << K)
    return ((masks[:, None] >> np.arange(K)) & 1).astype(bool)


def _face_log_probs(member: np.ndarray, w: np.ndarray) -> np.ndarray:
    logits = np.where(member, 1.0, -1.0) @ w
    return logits - logsumexp(logits)


def _log_beta(member, alpha):
    return member @ gammaln(alpha) - gammaln(member @ alpha)


def md_reference(p: dict, q: dict | None = None) -> tuple[float, float | None]:
    """Exact direct-sum entropy of ``p`` (and KL(p||q)) by enumerating every
    face with numpy, independently of the library's face-lattice code."""
    w, a = np.asarray(p["w"]), np.asarray(p["alpha"])
    member = _face_members(w.size).astype(float)
    logp = _face_log_probs(member.astype(bool), w)
    prob = np.exp(logp)
    a0 = member @ a
    h_dir = (_log_beta(member, a) + (a0 - member.sum(axis=1)) * digamma(a0)
             - member @ ((a - 1.0) * digamma(a)))
    entropy = float(-(prob @ logp) + prob @ h_dir)
    if q is None:
        return entropy, None
    wq, aq = np.asarray(q["w"]), np.asarray(q["alpha"])
    logq = _face_log_probs(member.astype(bool), wq)
    kl_dir = (_log_beta(member, aq) - _log_beta(member, a)
              + member @ ((a - aq) * digamma(a)) - (member @ (a - aq)) * digamma(a0))
    return entropy, float(prob @ (logp - logq) + prob @ kl_dir)


# -------------------------------------------------------------- workloads ---

def _stratified(rng: np.random.Generator, K: int) -> np.ndarray:
    """K uniforms on (0, 1), one in each interval [k/K, (k+1)/K), in random order.

    Each coordinate is still uniform, but every spec gets the same spread of
    values, so the work a spec causes varies less from seed to seed.
    """
    return (rng.permutation(K) + rng.random(K)) / K


def _write_json(path: str, obj: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


@dataclass
class Workload:
    """Inputs of one run and the commands of each iteration."""

    seed: int
    workdir: str
    sizes: dict
    spec_files: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)
        self.make_inputs()

    def op_seed(self, i: int, j: int) -> str:
        return str(int(np.random.default_rng([self.seed, i, j]).integers(0, 2**31 - 1)))

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def make_inputs(self):
        raise NotImplementedError

    def ops(self, i: int) -> list[Op]:
        raise NotImplementedError

    def once_ops(self) -> list[Op]:
        """Gated commands run once per run, outside the timed loop."""
        return []


class Intrinsic(Workload):
    def _md(self, K):
        """w ~ N(0, 1), alpha ~ U(0.5, 3), each drawn stratified."""
        return {"kind": "mixed-dirichlet", "w": ndtri(_stratified(self.rng, K)).tolist(),
                "alpha": (0.5 + 2.5 * _stratified(self.rng, K)).tolist()}

    def make_inputs(self):
        s = self.sizes
        self.specs = []
        for j in range(POOL):
            pair = {}
            for tag, K in (("mc", s["k"]), ("exact", s["k_exact"])):
                p, q = self._md(K), self._md(K)
                pair[tag] = (_write_json(self.path(f"{tag}{j}_p.json"), p),
                             _write_json(self.path(f"{tag}{j}_q.json"), q),
                             md_reference(p, q))
            self.specs.append(pair)
            self.spec_files += [*pair["mc"][:2], *pair["exact"][:2]]

    def ops(self, i):
        s = self.sizes
        mc_p, mc_q, (h_ref, kl_ref) = self.specs[i % POOL]["mc"]
        ex_p, ex_q, (hx_ref, klx_ref) = self.specs[i % POOL]["exact"]
        out = self.path("samples.jsonl")
        faces: Counter = Counter()
        info: dict = {}

        def check_sample(stdout):
            errors, counts = check_sample_file(out, s["sample_n"], s["k"])
            faces.update(counts)
            info["dim_share"] = dim_shares(counts)
            return errors

        def check_exact(ref):
            return lambda stdout: exact_gate(_json_stdout(stdout)["value"], ref)

        n_mc = str(s["mc_n"])
        return [
            Op("sample", ["sample", "--dist", mc_p, "--num", str(s["sample_n"]), "--seed", self.op_seed(i, 0),
                          "--out", out], [mc_p], [out], {"n": s["sample_n"], "K": s["k"]}, check_sample, "draw",
               info),
            Op("hist", ["face-hist", "--in", out], [out], [], {"n": s["sample_n"], "K": s["k"]},
               lambda stdout: check_face_hist(stdout, faces)),
            Op("mc_entropy", ["entropy", "--dist", mc_p, "--mode", "mc", "--samples", n_mc,
                              "--seed", self.op_seed(i, 1)], [mc_p], [], {"n": s["mc_n"], "K": s["k"]},
               _mc_against(h_ref), "estimate"),
            Op("mc_kl", ["kl", "--dist", mc_p, "--dist2", mc_q, "--mode", "mc", "--samples", n_mc,
                         "--seed", self.op_seed(i, 2)], [mc_p, mc_q], [], {"n": s["mc_n"], "K": s["k"]},
               _mc_against(kl_ref)),
            Op("exact_entropy", ["entropy", "--dist", ex_p, "--mode", "exact"], [ex_p], [],
               {"K": s["k_exact"], "faces": 2 ** s["k_exact"] - 1}, check_exact(hx_ref)),
            Op("exact_kl", ["kl", "--dist", ex_p, "--dist2", ex_q, "--mode", "exact"], [ex_p, ex_q], [],
               {"K": s["k_exact"], "faces": 2 ** s["k_exact"] - 1}, check_exact(klx_ref)),
        ]


def _check_mc_finite(stdout: str) -> list[str]:
    obj = _json_stdout(stdout)
    if obj.get("support_violation"):
        return [f"unexpected support violation: {obj}"]
    value, se = obj["value"], obj["std_error"]
    if not (math.isfinite(value) and math.isfinite(se) and se > 0.0):
        return [f"MC estimate not finite: {obj}"]
    return []


def _check_kl_nonnegative(stdout: str) -> list[str]:
    errors = _check_mc_finite(stdout)
    obj = _json_stdout(stdout)
    if not errors and obj["value"] < -MC_GATE_SE * obj["std_error"]:
        errors.append(f"MC KL {obj['value']!r} is significantly negative")
    return errors


class Extrinsic(Workload):
    def make_inputs(self):
        K = self.sizes["k"]
        self.specs = []
        for j in range(POOL):
            # unequal sigmas take the general orthant path, equal ones the constant-sigma path
            # mu ~ N(0, 1), sigma ~ U(0.5, 1.5), stratified as in Intrinsic
            p = {"kind": "gaussian-sparsemax", "mu": ndtri(_stratified(self.rng, K)).tolist(),
                 "sigma": (0.5 + _stratified(self.rng, K)).tolist()}
            q = {"kind": "gaussian-sparsemax", "mu": ndtri(_stratified(self.rng, K)).tolist(),
                 "sigma": [float(self.rng.uniform(0.5, 1.5))] * K}
            pair = (_write_json(self.path(f"gs{j}_p.json"), p), _write_json(self.path(f"gs{j}_q.json"), q))
            self.specs.append(pair)
            self.spec_files += list(pair)
        self.k2 = tuple(
            _write_json(self.path(f"k2_{tag}.json"),
                        {"kind": "gaussian-sparsemax", "mu": self.rng.normal(0.0, 0.5, 2).tolist(),
                         "sigma": self.rng.uniform(0.3, 1.0, 2).tolist()})
            for tag in ("p", "q"))

    def ops(self, i):
        s = self.sizes
        p, q = self.specs[i % POOL]
        out = self.path("samples.jsonl")
        info: dict = {}

        def check_sample(stdout):
            errors, counts = check_sample_file(out, s["sample_n"], s["k"])
            info["dim_share"] = dim_shares(counts)
            return errors

        return [
            Op("sample", ["sample", "--dist", p, "--num", str(s["sample_n"]), "--seed", self.op_seed(i, 0),
                          "--out", out], [p], [out], {"n": s["sample_n"], "K": s["k"]}, check_sample, "draw",
               info),
            Op("mc_entropy", ["entropy", "--dist", p, "--mode", "mc", "--samples", str(s["entropy_n"]),
                              "--seed", self.op_seed(i, 1)], [p], [], {"n": s["entropy_n"], "K": s["k"]},
               _check_mc_finite, "estimate"),
            Op("mc_kl", ["kl", "--dist", p, "--dist2", q, "--mode", "mc", "--samples", str(s["kl_n"]),
                         "--seed", self.op_seed(i, 2)], [p, q], [], {"n": s["kl_n"], "K": s["k"]},
               _check_kl_nonnegative),
        ]

    def once_ops(self):
        """K=2 MC estimates against the closed forms behind ``--mode exact``."""
        p, q = self.k2
        n = self.sizes["k2_n"]
        seed = self.op_seed(0, 3)
        refs = {}

        def keep(key):
            def check(stdout):
                refs[key] = _json_stdout(stdout)["value"]
                return [] if math.isfinite(refs[key]) else [f"closed form {key} not finite"]
            return check

        return [
            Op("k2_exact_entropy", ["entropy", "--dist", p, "--mode", "exact"], [p], [], {"K": 2},
               keep("entropy")),
            Op("k2_mc_entropy", ["entropy", "--dist", p, "--mode", "mc", "--samples", str(n), "--seed", seed],
               [p], [], {"n": n, "K": 2}, lambda stdout: _mc_against(refs["entropy"])(stdout)),
            Op("k2_exact_kl", ["kl", "--dist", p, "--dist2", q, "--mode", "exact"], [p, q], [], {"K": 2},
               keep("kl")),
            Op("k2_mc_kl", ["kl", "--dist", p, "--dist2", q, "--mode", "mc", "--samples", str(n), "--seed", seed],
               [p, q], [], {"n": n, "K": 2}, lambda stdout: _mc_against(refs["kl"])(stdout)),
        ]


def check_glm_csv(path: str, rows: int, K: int, d: int) -> list[str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    header = [f"x{j + 1}" for j in range(d)] + [f"y{j + 1}" for j in range(K)]
    if not table or table[0] != header:
        return [f"{path}: bad header"]
    if len(table) != rows + 1:
        return [f"{path}: {len(table) - 1} rows, expected {rows}"]
    for lineno, row in enumerate(table[1:], start=2):
        vals = [float(v) for v in row]
        y = vals[d:]
        if len(vals) != d + K or not all(map(math.isfinite, vals)) or min(y) < 0.0 \
                or abs(math.fsum(y) - 1.0) > 1e-9:
            return [f"{path}:{lineno}: bad row"]
    return []


def check_glm_fit(stdout: str, model_path: str, rows: int) -> list[str]:
    obj = _json_stdout(stdout)
    errors = [f"fit-glm: {key}={obj.get(key)!r} not finite"
              for key in ("rmse", "mae", "macro_f1", "final_train_loss")
              if not math.isfinite(obj.get(key, float("nan")))]
    if obj.get("n_train", 0) + obj.get("n_test", 0) != rows:
        errors.append(f"fit-glm: n_train + n_test != {rows}")
    with open(model_path, "r", encoding="utf-8") as fh:
        model = json.load(fh)
    weights = np.concatenate([np.ravel(model[key]) for key in ("w_face", "b_face", "w_conc", "b_conc")])
    if not np.all(np.isfinite(weights)):
        errors.append("fit-glm: model has non-finite weights")
    return errors


class Glm(Workload):
    def make_inputs(self):
        pass  # the planted model is drawn by gen-glm-data from its --seed

    def ops(self, i):
        s = self.sizes
        data, model = self.path("data.csv"), self.path("model.json")
        train = int(round(s["train_frac"] * s["rows"]))
        return [
            Op("gen", ["gen-glm-data", "--out", data, "--rows", str(s["rows"]), "--k", str(s["k"]),
                       "--d", str(s["d"]), "--seed", self.op_seed(i, 0)], [], [data],
               {"rows": s["rows"], "K": s["k"], "d": s["d"]},
               lambda stdout: check_glm_csv(data, s["rows"], s["k"], s["d"]), "draw"),
            Op("fit", ["fit-glm", "--data", data, "--train-frac", str(s["train_frac"]), "--steps",
                       str(s["steps"]), "--seed", self.op_seed(i, 1), "--out", model, "--predict", "sample-mean"],
               [data], [model], {"rows": train, "B": train, "steps": s["steps"], "predicted": s["rows"] - train,
                                 "K": s["k"], "d": s["d"], "draws_per_prediction": 100},
               lambda stdout: check_glm_fit(stdout, model, s["rows"]), "estimate"),
        ]


WORKLOADS = {"intrinsic": Intrinsic, "extrinsic": Extrinsic, "glm": Glm}
