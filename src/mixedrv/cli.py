"""Command-line interface.

Subcommands::

    mixedrv maxent     --k 5 --n-max 3 [--format csv|json] [--bits]
    mixedrv sample     --dist spec.json --num 1000 [--seed 0] --out samples.jsonl
    mixedrv entropy    --dist spec.json --mode exact|mc [--samples N] [--seed 0] [--bits]
    mixedrv kl         --dist p.json --dist2 q.json --mode exact|mc [--samples N] [--seed 0] [--bits]
    mixedrv face-hist  --in samples.jsonl
    mixedrv fit-glm    --data data.csv [--train-frac 0.2] [--steps 400] [--lr 0.1]
                       [--seed 0] --out model.json [--predict most-probable-mean|sample-mean]
    mixedrv gen-glm-data --out data.csv [--rows 500] [--k 5] [--d 4] [--seed 0]
    mixedrv check      [--level fast|full]

Exit codes: 0 success, 1 check failure, 2 usage or spec error, 3 I/O error,
4 data-format error.  All commands are deterministic given their seed and
inputs.  Entropies are in nats unless ``--bits`` is given.  Faces in files
are sorted lists of 1-based vertex indices.

A command imports the modules and SciPy functions that only some commands
use inside its own function, so a fresh process loads only what its
command uses.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import re
import sys
from collections import Counter

import numpy as np

from .distspec import load_spec_file
from .simplex import MAX_BITMASK_K, FaceBatch, ResourceLimitError, mask_members

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4

_LN2 = math.log(2.0)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _to_unit(value: float, bits: bool) -> float:
    return value / _LN2 if bits else value


def _print_json(obj: dict | list):
    try:  # strict JSON: a value that is not finite is one error line, exit 2
        line = json.dumps(obj, allow_nan=False)
    except ValueError:
        raise ValueError("a result is not finite (beyond the range of a double)") from None
    print(line)


def _write_out(path: str, chunks):
    """Write the strings ``chunks`` to the ``--out`` file; called once the
    draw or fit is done, so a failed computation leaves the file as it was."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot write {path}: {e}") from e


def _seed(text: str) -> int:
    """The type of ``--seed``: an integer >= 0, the seeds numpy's generators
    take, so a bad seed is a usage error before any file is read or written."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _rng(seed, spec_seed=None) -> np.random.Generator:
    """A command's generator: seeded by ``--seed``, else by the spec's default seed, else by 0."""
    return np.random.default_rng(seed if seed is not None else spec_seed if spec_seed is not None else 0)


# ------------------------------------------------------------------ maxent ---

def cmd_maxent(args) -> int:
    if args.k < 2:
        raise CliError(EXIT_USAGE, "--k must be >= 2")
    if args.n_max < 0:
        raise CliError(EXIT_USAGE, "--n-max must be >= 0")
    from scipy.special import gammaln

    from . import info_theory

    rows = []
    for K in range(2, args.k + 1):
        for N in range(0, args.n_max + 1):
            rows.append({
                "K": K,
                "N": N,
                "H_maxent": _to_unit(info_theory.maxent_entropy(K, N), args.bits),
                "H_discrete": _to_unit(math.log(K), args.bits),
                "H_continuous": _to_unit(-float(gammaln(K)) + 0.0, args.bits) if K > 2 else 0.0,
            })
    if args.format == "json":
        _print_json(rows)
    else:
        print("K,N,H_maxent,H_discrete,H_continuous")
        for r in rows:
            print(f"{r['K']},{r['N']},{r['H_maxent']!r},{r['H_discrete']!r},{r['H_continuous']!r}")
    return EXIT_OK


# ------------------------------------------------------------------ sample ---

#: Rows per string that ``_sample_lines`` and ``_csv_lines`` yield, so the
#: text held at once stays bounded.
_WRITE_ROWS = 1024


def _row_blocks(values: np.ndarray, masks: np.ndarray, sep: str, row_formats):
    """The rows of ``values`` (n, m) as text, one string per block of at most
    ``_WRITE_ROWS`` rows.

    A value that is exactly +0.0 is written as the literal ``0.0`` (its
    ``repr``); every other value, -0.0 included, goes through ``%r``.  Rows
    that agree in ``masks`` (n,) and in where their +0.0 values lie share
    one format, cached under the bytes of that key; the cache is emptied
    when it holds more than ``_WRITE_ROWS`` formats, so rows that all
    differ cannot grow it to the size of the text.  The formats of a
    block's new keys come from one call ``row_formats(masks, fields)``:
    the keys' masks and their ``sep``-joined value fields.  Each block
    joins its rows' formats in row order and applies them with one ``%``
    to the flat tuple of the values they print.
    """
    masks = np.ascontiguousarray(masks, dtype=np.int64)
    fmts = {}
    for start in range(0, len(values), _WRITE_ROWS):
        if len(fmts) > _WRITE_ROWS:
            fmts.clear()
        block, head = values[start:start + _WRITE_ROWS], masks[start:start + _WRITE_ROWS]
        zero = (block == 0.0) & ~np.signbit(block)
        row_keys = np.hstack([head.view(np.uint8).reshape(-1, 8), np.packbits(zero, axis=1)])
        keys, first, which = np.unique(row_keys.view(np.dtype((np.void, row_keys.shape[1]))).ravel(),
                                       return_index=True, return_inverse=True)
        keys = keys.tolist()
        fresh = [j for j, k in enumerate(keys) if k not in fmts]
        rows = first[fresh].tolist()
        fields = [sep.join(["0.0" if z else "%r" for z in zero[i].tolist()]) for i in rows]
        fmts.update(zip([keys[j] for j in fresh], row_formats(head[rows], fields)))
        block_fmts = [fmts[k] for k in keys]
        yield "".join([block_fmts[j] for j in which.tolist()]) % tuple(block[~zero].tolist())


def _sample_lines(masks: np.ndarray, coords: np.ndarray):
    """JSON lines ``{"face": ..., "dim": ..., "y": ...}`` of the rows of
    ``coords`` (n, K) on the face bitmasks ``masks`` (n,), one string per
    block of rows (``_row_blocks``), keyed by face and +0.0 pattern.

    Every line is what ``json.dumps`` writes: ``%r`` of a float is
    ``float.__repr__``, which is what ``json.dumps`` writes for a finite
    float, and ``repr(0.0)`` is ``0.0``.
    """
    K = coords.shape[1]
    vertices = np.arange(1, K + 1)

    def row_formats(masks, fields):
        faces = [vertices[on].tolist() for on in mask_members(masks, K)]
        return [f'{{"face": {json.dumps(face)}, "dim": {len(face) - 1}, "y": [{f}]}}\n'
                for face, f in zip(faces, fields)]

    return _row_blocks(coords, masks, ", ", row_formats)


#: The one line that ``_sample_lines`` writes, under ``re.M`` and without its
#: newline: face entries of one or two digits without a leading zero (their
#: range is validated afterwards), the dim a JSON integer and every
#: coordinate a JSON number (RFC 8259 section 6), list items separated by
#: ``", "``.  Groups: the face's entries and the dim.  Every quantifier is
#: possessive, so a line that does not match is given up without
#: backtracking.
_FACE_ENTRY = r"[1-9][0-9]?+"
_NUMBER = r"-?+(?:0|[1-9][0-9]*+)(?:\.[0-9]++)?+(?:[eE][-+]?+[0-9]++)?+"
_SAMPLE_LINE = (rf'^\{{"face": \[({_FACE_ENTRY}(?:, {_FACE_ENTRY})*+)\], "dim": (0|[1-9][0-9]*+), '
                rf'"y": \[{_NUMBER}(?:, {_NUMBER})*+\]\}}$')


def cmd_sample(args) -> int:
    if args.num < 1:
        raise CliError(EXIT_USAGE, "--num must be >= 1")
    spec = load_spec_file(args.dist)
    batch = spec.dist.sample_many(args.num, _rng(args.seed, spec.default_seed))
    _write_out(args.out, _sample_lines(batch.masks, batch.coords))
    return EXIT_OK


# -------------------------------------------------------------- entropy/kl ---

def _print_estimate(args, value, std_error=None, support_violation=None, violations=None):
    """Print the one estimate line of ``entropy`` and ``kl``: ``value`` (None
    for a support violation) and ``std_error`` in nats, converted under
    ``--bits``, the given fields, the mode, ``samples`` in mc mode and the
    unit, in that key order; a field left None is left out, but not ``value``."""
    def unit(x):
        return None if x is None else _to_unit(x, args.bits)

    line = {"value": unit(value), "std_error": unit(std_error), "support_violation": support_violation,
            "violations": violations, "mode": args.mode, "samples": args.samples if args.mode == "mc" else None,
            "unit": "bits" if args.bits else "nats"}
    _print_json({key: v for key, v in line.items() if v is not None or key == "value"})


def cmd_entropy(args) -> int:
    spec = load_spec_file(args.dist)
    if args.mode == "exact":
        _print_estimate(args, spec.exact_entropy())
        return EXIT_OK
    if not spec.supports_log_density:
        raise CliError(EXIT_USAGE, f"kind {spec.kind!r} has no density; mc entropy unavailable")
    from . import info_theory

    est = info_theory.direct_sum_entropy_mc(spec.dist, args.samples, _rng(args.seed, spec.default_seed))
    _print_estimate(args, est.estimate, est.std_error)
    return EXIT_OK


def cmd_kl(args) -> int:
    spec_p = load_spec_file(args.dist)
    spec_q = load_spec_file(args.dist2)
    if args.mode == "exact":
        value = spec_p.exact_kl(spec_q)
        if math.isinf(value):  # reported as the mc mode reports a support violation
            _print_estimate(args, None, support_violation=True)
        else:
            _print_estimate(args, value)
        return EXIT_OK
    if not (spec_p.supports_log_density and spec_q.supports_log_density):
        raise CliError(EXIT_USAGE, "mc KL needs both kinds to expose a density")
    from . import info_theory

    est = info_theory.direct_sum_kl_mc(spec_p.dist, spec_q.dist, args.samples, _rng(args.seed, spec_p.default_seed))
    if est.is_infinite:
        _print_estimate(args, None, support_violation=True, violations=est.support_violations)
    else:
        _print_estimate(args, est.estimate, est.std_error, support_violation=False)
    return EXIT_OK


# --------------------------------------------------------------- face-hist ---

def _face_and_dim(obj) -> tuple[tuple[int, ...], int]:
    """Sorted face and dim of a decoded sample line: the face a nonempty JSON
    array of distinct integers (not booleans) in 1..63, the dim the integer
    ``len(face) - 1``.  ValueError, KeyError or TypeError when they are
    malformed."""
    face = obj["face"]
    if not (type(face) is list and face and all(type(i) is int and 1 <= i <= MAX_BITMASK_K for i in face)
            and len(set(face)) == len(face)):
        raise ValueError(f"face must be a nonempty array of distinct integers in 1..{MAX_BITMASK_K}")
    dim = obj["dim"]
    if type(dim) is not int or dim != len(face) - 1:
        raise ValueError("face/dim mismatch")
    return tuple(sorted(face)), dim


def _undecodable(text: str) -> bool:
    """Whether text read with ``errors="surrogateescape"`` holds a byte that
    is not UTF-8 (each such byte reads as a lone surrogate)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _scan_sample_file(text: str):
    """The validated (face, dim) groups of ``text`` with their line counts,
    and its number of lines, when every line of ``text`` is one that
    ``_sample_lines`` writes (``_SAMPLE_LINE``) and every face validates;
    else None.  One regex pass over the whole text; each distinct face and
    dim is validated once."""
    found = re.findall(_SAMPLE_LINE, text, re.M)
    # "^" anchors each match at a line start, so one match per line means
    # that every "\n"-separated line matched whole
    if not found or len(found) != text.count("\n") + (not text.endswith("\n")):
        return None
    groups = []
    for (face, dim), cnt in Counter(found).items():
        try:
            groups.append((_face_and_dim({"face": json.loads(f"[{face}]"), "dim": int(dim)}), cnt))
        except ValueError:
            return None
    return groups, len(found)


def _print_face_hist(groups, total: int):
    """The histogram of ``groups``, pairs of a validated (face, dim) and its
    line count, over ``total`` lines: dims in order, then faces by count,
    most frequent first."""
    dim_counts: Counter = Counter()
    face_counts: Counter = Counter()
    for (face, dim), cnt in groups:
        dim_counts[dim] += cnt
        face_counts[face] += cnt
    print("kind,label,count,fraction")
    for dim in sorted(dim_counts):
        print(f"dim,{dim},{dim_counts[dim]},{dim_counts[dim] / total!r}")
    for face, cnt in sorted(face_counts.items(), key=lambda kv: (-kv[1], kv[0])):
        label = "+".join(map(str, face))
        print(f"face,{label},{cnt},{cnt / total!r}")


def _decode_sample_file(path: str, text: str):
    """The validated (face, dim) groups of ``text`` with their line counts,
    and its number of lines, decoding one line at a time with
    ``json.loads``; CliError at the first line that is not UTF-8 text or not
    a valid sample line."""
    lines = text.splitlines()
    if not lines:
        raise CliError(EXIT_DATA, f"{path} is empty")
    counts: Counter = Counter()
    for lineno, line in enumerate(lines, start=1):
        if _undecodable(line):
            raise CliError(EXIT_DATA, f"{path}:{lineno}: not UTF-8 text")
        try:
            counts[_face_and_dim(json.loads(line))] += 1
        except (ValueError, KeyError, TypeError) as e:
            raise CliError(EXIT_DATA, f"{path}:{lineno}: malformed sample line ({e})") from e
    return counts.items(), len(lines)


def cmd_face_hist(args) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot read {args.infile}: {e}") from e
    scanned = _scan_sample_file(text)
    if scanned is None:  # any other file is decoded line by line, which reports its first bad line
        scanned = _decode_sample_file(args.infile, text)
    _print_face_hist(*scanned)
    return EXIT_OK


# ----------------------------------------------------------------- fit-glm ---

def _glm_rows(path: str, rows: list[list[float]], linenos: list[int], x_cols: list[int], y_cols: list[int]):
    """Predictors (n, d) and target batch of parsed CSV rows, validated as
    arrays; the first bad row is reported, after the renormalization
    warnings of the rows before it, as if the rows were checked one by one."""
    table = np.array(rows)
    X = np.ascontiguousarray(table[:, x_cols])
    # C order, so each row's sum is bitwise the one-row sum the messages print
    Y = np.ascontiguousarray(table[:, y_cols])
    x_finite = np.isfinite(X).all(axis=1)
    finite = np.isfinite(Y).all(axis=1)
    sums = Y.sum(axis=1)
    gap = np.abs(sums - 1.0)
    bad = ~x_finite | ~finite | (Y < 0.0).any(axis=1) | (gap > 1e-4)
    first = int(np.argmax(bad)) if bad.any() else len(rows)
    for i in np.nonzero(gap[:first] > 1e-9)[0].tolist():
        print(f"warning: {path}:{linenos[i]}: target row sums to {float(Y[i].sum())!r}; renormalizing", file=sys.stderr)
    if first < len(rows):
        y = Y[first]
        if not x_finite[first]:
            problem = "non-finite predictor value"
        elif not finite[first]:
            problem = "non-finite target value"
        elif np.any(y < 0.0):
            problem = "negative target value"
        else:
            problem = f"target row sums to {float(y.sum())!r}"
        raise CliError(EXIT_DATA, f"{path}:{linenos[first]}: {problem}")
    off = gap > 0.0
    Y[off] = Y[off] / sums[off, None]
    return X, FaceBatch.from_coords(Y)


def _read_glm_csv(path: str) -> tuple[np.ndarray, FaceBatch]:
    """Predictors (n, d) and targets of a GLM data CSV; each target's face is
    the support of its coordinates."""
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CliError(EXIT_DATA, f"{path} is empty") from None
            except csv.Error as e:
                raise CliError(EXIT_DATA, f"{path}:1: {e}") from None
            if _undecodable(",".join(header)):
                raise CliError(EXIT_DATA, f"{path}:1: not UTF-8 text")
            x_cols = [i for i, name in enumerate(header) if name.startswith("x")]
            y_cols = [i for i, name in enumerate(header) if name.startswith("y")]
            if not x_cols or len(y_cols) < 2:
                raise CliError(EXIT_DATA, f"{path}: header must name x* predictor and y* target columns")
            rows, linenos = [], []
            stop = None  # what ended the parse early: raised once the rows before it are validated
            lineno = 1
            try:
                for lineno, row in enumerate(reader, start=2):
                    if not row:
                        continue
                    try:
                        vals = [float(v) for v in row]
                    except ValueError as e:
                        # a field that parses as a float holds no undecodable byte
                        problem = "not UTF-8 text" if _undecodable(",".join(row)) else f"non-numeric value ({e})"
                        stop = CliError(EXIT_DATA, f"{path}:{lineno}: {problem}")
                        break
                    if len(vals) != len(header):
                        stop = CliError(EXIT_DATA, f"{path}:{lineno}: expected {len(header)} columns")
                        break
                    rows.append(vals)
                    linenos.append(lineno)
            except csv.Error as e:
                stop = CliError(EXIT_DATA, f"{path}:{lineno + 1}: {e}")
            except OSError as e:  # a failed read
                stop = e
            data = _glm_rows(path, rows, linenos, x_cols, y_cols) if rows else None
            if stop is not None:
                raise stop
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot read {path}: {e}") from e
    if data is None:
        raise CliError(EXIT_DATA, f"{path} has no data rows")
    return data


def cmd_fit_glm(args) -> int:
    if not (0.0 < args.train_frac < 1.0):
        raise CliError(EXIT_USAGE, "--train-frac must be in (0, 1)")
    if args.steps < 1:
        raise CliError(EXIT_USAGE, "--steps must be >= 1")
    if not (math.isfinite(args.lr) and args.lr > 0.0):
        raise CliError(EXIT_USAGE, "--lr must be finite and > 0")
    from . import glm

    X, targets = _read_glm_csv(args.data)
    n = len(targets)
    rng = _rng(args.seed)
    perm = rng.permutation(n)
    n_train = max(1, int(round(args.train_frac * n)))
    if n_train >= n:
        raise CliError(EXIT_USAGE, "train fraction leaves no held-out rows")
    tr, te = perm[:n_train], perm[n_train:]
    fit = glm.glm_fit(X[tr], FaceBatch.from_coords(targets.coords[tr]), steps=args.steps, lr=args.lr,
                      seed=args.seed)
    y_true = targets.coords[te]
    y_pred = glm.predict_rows(fit.model, X[te], args.predict, n=100, rng=rng).coords
    _write_out(args.out, [json.dumps(fit.model.to_json_dict()) + "\n"])
    _print_json({
        "rmse": glm.rmse(y_true, y_pred),
        "mae": glm.mae(y_true, y_pred),
        "macro_f1": glm.zero_nonzero_macro_f1(y_true, y_pred),
        "n_train": int(n_train),
        "n_test": int(n - n_train),
        "predict": args.predict,
        "final_train_loss": float(fit.losses[-1]),
    })
    return EXIT_OK


def _csv_lines(table: np.ndarray):
    """Comma-separated lines of the rows of a float array, one string per
    block of rows (``_row_blocks``, every row under mask 0, so keyed by its
    +0.0 pattern alone), each value written as ``repr(float(v))``."""
    return _row_blocks(table, np.zeros(len(table), np.int64), ",", lambda masks, fields: [f + "\n" for f in fields])


def cmd_gen_glm_data(args) -> int:
    if args.rows < 2 or args.k < 2 or args.d < 1:
        raise CliError(EXIT_USAGE, "--rows >= 2, --k >= 2 and --d >= 1 required")
    if args.k > MAX_BITMASK_K:
        raise CliError(EXIT_USAGE, f"--k must be <= {MAX_BITMASK_K}")
    from . import glm

    X, targets, _ = glm.make_planted_dataset(n=args.rows, K=args.k, d=args.d, seed=args.seed)
    header = ",".join([f"x{j + 1}" for j in range(args.d)] + [f"y{j + 1}" for j in range(args.k)]) + "\n"
    _write_out(args.out, itertools.chain([header], _csv_lines(np.hstack([X, targets.coords]))))
    return EXIT_OK


# ------------------------------------------------------------------- check ---

def cmd_check(args) -> int:
    # imported here: the oracle registry pulls in scipy.stats, which no other
    # command needs and which would otherwise dominate every command's start-up
    from . import checks

    results = checks.run_checks(args.level)
    for r in results:
        if r.ok:
            print(f"PASS {r.name}")
        else:
            print(f"FAIL {r.name}: {r.detail}")
    failed = [r.name for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed (level={args.level})")
    if failed:
        print("FAILED: " + ", ".join(failed))
        return EXIT_CHECK_FAILED
    return EXIT_OK


# -------------------------------------------------------------------- main ---

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing keeps
    its state in the namespace it returns, and building costs more than a
    small command."""
    p = argparse.ArgumentParser(prog="mixedrv",
                                description="Mixed distributions on the probability simplex")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("maxent", help="maximum-entropy table")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--n-max", type=int, required=True)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--bits", action="store_true")
    s.set_defaults(fn=cmd_maxent)

    s = sub.add_parser("sample", help="draw samples to a JSON-lines file")
    s.add_argument("--dist", required=True)
    s.add_argument("--num", type=int, required=True)
    s.add_argument("--seed", type=_seed, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sample)

    s = sub.add_parser("entropy", help="direct-sum entropy of a distribution")
    s.add_argument("--dist", required=True)
    s.add_argument("--mode", choices=("exact", "mc"), required=True)
    s.add_argument("--samples", type=int, default=10000)
    s.add_argument("--seed", type=_seed, default=None)
    s.add_argument("--bits", action="store_true")
    s.set_defaults(fn=cmd_entropy)

    s = sub.add_parser("kl", help="direct-sum KL divergence between two spec files")
    s.add_argument("--dist", required=True)
    s.add_argument("--dist2", required=True)
    s.add_argument("--mode", choices=("exact", "mc"), required=True)
    s.add_argument("--samples", type=int, default=10000)
    s.add_argument("--seed", type=_seed, default=None)
    s.add_argument("--bits", action="store_true")
    s.set_defaults(fn=cmd_kl)

    s = sub.add_parser("face-hist", help="histogram of a samples file")
    s.add_argument("--in", dest="infile", required=True)
    s.set_defaults(fn=cmd_face_hist)

    s = sub.add_parser("fit-glm", help="fit the simplex regression model on a CSV")
    s.add_argument("--data", required=True)
    s.add_argument("--train-frac", type=float, default=0.2)
    s.add_argument("--steps", type=int, default=400)
    s.add_argument("--lr", type=float, default=0.1)
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--predict", choices=("most-probable-mean", "sample-mean"),
                   default="most-probable-mean")
    s.set_defaults(fn=cmd_fit_glm)

    s = sub.add_parser("gen-glm-data", help="write a planted synthetic GLM dataset")
    s.add_argument("--out", required=True)
    s.add_argument("--rows", type=int, default=500)
    s.add_argument("--k", type=int, default=5)
    s.add_argument("--d", type=int, default=4)
    s.add_argument("--seed", type=_seed, default=0)
    s.set_defaults(fn=cmd_gen_glm_data)

    s = sub.add_parser("check", help="run the oracle cross-check suite")
    s.add_argument("--level", choices=("fast", "full"), default="fast")
    s.set_defaults(fn=cmd_check)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError, NotImplementedError, ResourceLimitError, MemoryError) as e:
        # a MemoryError (an allocation too large for this host) may carry no text
        print(f"error: {str(e) or ('out of memory' if isinstance(e, MemoryError) else '')}", file=sys.stderr)
        return e.code if isinstance(e, CliError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
