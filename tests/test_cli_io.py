"""Byte contracts of the CLI's file formats.

The writers format whole arrays (one %-format per block of rows), and
the readers decode and validate in bulk; these tests hold them to the
per-row ``json.dumps`` / ``repr`` / ``json.loads`` rules the formats are
defined by, including which line a malformed file is reported at.
"""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mixedrv import cli

SPECIAL_FLOATS = [
    5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0 - 2.0**-53, 0.1 + 0.2, 0.12345678901234568,
    1.0 / 3.0, 2.0 / 3.0, 0.0, -0.0, 1.0, 1e16, 1e22, 123456789.01234567,
]
finite_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def sample_rows(draw):
    """Face masks (n,) and coordinates (n, K): any finite values on the
    face, +0.0 among them, and +0.0 or -0.0 off it."""
    K = draw(st.one_of(st.integers(2, 8), st.just(63)))
    n = draw(st.integers(1, 10))
    masks = draw(st.lists(st.integers(1, 2**K - 1), min_size=n, max_size=n))
    on_face, off_face = st.one_of(st.just(0.0), finite_floats), st.sampled_from([0.0, -0.0])
    coords = [[draw(on_face if m >> k & 1 else off_face) for k in range(K)] for m in masks]
    return np.array(masks, dtype=np.int64), np.array(coords, dtype=float).reshape(n, K)


def _json_dumps_line(mask: int, row: list, K: int) -> str:
    face = [i + 1 for i in range(K) if mask >> i & 1]
    return f'{{"face": {json.dumps(face)}, "dim": {len(face) - 1}, "y": {json.dumps(row)}}}\n'


# No shrinking: a K = 63 failure takes minutes to shrink, and the failing
# example as drawn is reported in about a second.
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


@settings(max_examples=200, phases=NO_SHRINK)
@given(sample_rows())
def test_sample_lines_match_json_dumps(rows):
    masks, coords = rows
    expected = "".join(_json_dumps_line(m, r, coords.shape[1]) for m, r in zip(masks.tolist(), coords.tolist()))
    assert "".join(cli._sample_lines(masks, coords)) == expected


@settings(max_examples=100, phases=NO_SHRINK)
@given(sample_rows())
def test_sample_lines_are_what_face_hist_scans(rows):
    """The writer and ``face-hist``'s one-pass scan agree on the format:
    every line the writer yields matches ``_SAMPLE_LINE`` whole."""
    masks, coords = rows
    text = "".join(cli._sample_lines(masks, coords))
    lines = text.split("\n")
    assert lines.pop() == ""
    assert all(re.fullmatch(cli._SAMPLE_LINE, line) for line in lines)
    assert cli._scan_sample_file(text)[1] == len(masks)


@settings(max_examples=200, phases=NO_SHRINK)
@given(st.integers(1, 12).flatmap(
    lambda width: st.lists(st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                                    min_size=width, max_size=width), min_size=1, max_size=8)))
def test_csv_lines_match_repr(table):
    expected = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in table)
    assert "".join(cli._csv_lines(np.array(table, dtype=float))) == expected


def _block_rows(n: int, K: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` rows on random faces of K vertices (the top bit included at
    K = 63): on-face values drawn from ``SPECIAL_FLOATS`` and from
    N(0, 1), +0.0 or -0.0 off the face."""
    rng = np.random.default_rng(seed)
    masks = rng.integers(1, 2**K - 1, size=n, endpoint=True, dtype=np.int64)
    on = (masks[:, None] >> np.arange(K)) & 1 == 1
    values = np.where(rng.random((n, K)) < 0.5, rng.choice(SPECIAL_FLOATS, (n, K)), rng.normal(size=(n, K)))
    return masks, np.where(on, values, rng.choice([0.0, -0.0], (n, K)))


def _check_blocks(blocks: list[str], n: int):
    assert len(blocks) == -(-n // cli._WRITE_ROWS)
    assert [b.count("\n") for b in blocks] == [min(cli._WRITE_ROWS, n - i * cli._WRITE_ROWS)
                                                for i in range(len(blocks))]


@pytest.mark.parametrize("n,K", [(cli._WRITE_ROWS - 1, 5), (cli._WRITE_ROWS, 5), (cli._WRITE_ROWS + 1, 5),
                                 (2 * cli._WRITE_ROWS + 7, 63)])
def test_sample_lines_at_block_boundaries(n, K):
    masks, coords = _block_rows(n, K, seed=n + K)
    if K == 63:
        assert len(set(masks.tolist())) == n and (masks >> 62 == 1).any()
    blocks = list(cli._sample_lines(masks, coords))
    _check_blocks(blocks, n)
    assert "".join(blocks) == "".join(_json_dumps_line(m, r, K) for m, r in zip(masks.tolist(), coords.tolist()))


@pytest.mark.parametrize("n", [cli._WRITE_ROWS - 1, cli._WRITE_ROWS, cli._WRITE_ROWS + 1])
def test_csv_lines_at_block_boundaries(n):
    masks, coords = _block_rows(n, 5, seed=n)
    table = np.hstack([np.random.default_rng(n).normal(size=(n, 3)), coords])
    blocks = list(cli._csv_lines(table))
    _check_blocks(blocks, n)
    assert "".join(blocks) == "".join(",".join(repr(float(v)) for v in row) + "\n" for row in table.tolist())


def test_sample_lines_hold_a_bounded_text():
    """The writer yields the file block by block: the memory it holds at
    once stays far below the size of the whole text."""
    masks, coords = _block_rows(50_000, 8, seed=1)
    tracemalloc.start()
    try:
        size = sum(len(block) for block in cli._sample_lines(masks, coords))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 2 * 2**20
    assert size > 3 * bound
    assert peak < bound


# ---------------------------------------------------------------- face-hist ---

def _reference_error(path: str, lines: list[str]) -> str:
    """stderr for the first malformed line, found line by line with
    ``json.loads`` (the definition of the format): the face a nonempty array
    of distinct JSON integers in 1..63, the dim the integer len(face) - 1."""
    for lineno, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
            face = obj["face"]
            if not (isinstance(face, list) and face and all(type(i) is int and 1 <= i <= 63 for i in face)
                    and len(set(face)) == len(face)):
                raise ValueError("face must be a nonempty array of distinct integers in 1..63")
            dim = obj["dim"]
            if type(dim) is not int or dim != len(face) - 1:
                raise ValueError("face/dim mismatch")
        except (ValueError, KeyError, TypeError) as e:
            return f"error: {path}:{lineno}: malformed sample line ({e})\n"
    raise AssertionError("no malformed line")


EDGE = '{"face": [1, 2], "dim": 1, "y": [0.5, 0.5, 0.0]}'
VERTEX = '{"face": [3], "dim": 0, "y": [0.0, 0.0, 1.0]}'
MALFORMED = {
    # name: (lines, the line reported)
    "trailing_garbage": ([EDGE, VERTEX + " x", EDGE], 2),
    "two_objects_on_a_line": ([EDGE, EDGE + VERTEX], 2),
    "blank_line_mid_file": ([EDGE, VERTEX, "", EDGE], 3),
    "array_line": ([EDGE, "[1, 2]"], 2),
    "unhashable_face_entry": ([VERTEX, EDGE, '{"face": [[1]], "dim": 0}'], 3),
    "non_integer_face_entry": ([EDGE, '{"face": ["a"], "dim": 0}'], 2),
    "null_face_entry": ([EDGE, VERTEX, '{"face": [null, 2], "dim": 1}'], 3),
    "unhashable_dim": ([EDGE, '{"face": [1], "dim": [0]}'], 2),
    "missing_dim": ([EDGE, '{"face": [1]}'], 2),
    "dim_mismatch": ([EDGE, VERTEX, '{"face": [1, 2], "dim": 2, "y": [0.5, 0.5, 0.0]}'], 3),
    "bom_first_line": (["﻿" + EDGE, VERTEX], 1),
    "bom_mid_file": ([EDGE, "﻿" + VERTEX], 2),
    # the two lines would join into one valid JSON value; each alone is invalid
    "two_line_join": ([EDGE, '{"face": [1], "dim": 0, "y": [{}', "{}]}"], 2),
    # a bad (face, dim) is reported at its first line, before a later undecodable line
    "bad_pair_before_bad_json": ([EDGE, '{"face": [2], "dim": 1}', "not json", '{"face": [2], "dim": 1}'], 2),
    # face entries must be distinct JSON integers in 1..63, and dim a JSON integer
    "infinite_face_entry": ([EDGE, '{"face": [Infinity], "dim": 0}'], 2),
    "infinite_dim": ([VERTEX, '{"face": [3], "dim": Infinity}'], 2),
    "face_entry_out_of_range": ([EDGE, '{"face": [0, 99], "dim": 1}'], 2),
    "face_entry_above_63": ([EDGE, '{"face": [64], "dim": 0}'], 2),
    "repeated_face_entry": ([EDGE, '{"face": [1, 1], "dim": 1}'], 2),
    "fractional_face_entry": ([EDGE, '{"face": [1.7], "dim": 0}'], 2),
    "string_face_entry": ([EDGE, '{"face": ["2"], "dim": 0}'], 2),
    "boolean_face_entry": ([EDGE, '{"face": [true], "dim": 0}'], 2),
    "string_face": ([EDGE, '{"face": "12", "dim": 1}'], 2),
    # a pair equal in value to one already validated, but of another type
    "float_face_entry_after_int": ([VERTEX, '{"face": [3.0], "dim": 0}'], 2),
    "boolean_face_entry_after_int": (['{"face": [1], "dim": 0}', '{"face": [true], "dim": 0}'], 2),
    "float_dim_after_int": ([EDGE, '{"face": [1, 2], "dim": 1.0}'], 2),
    "boolean_dim_after_int": ([VERTEX, '{"face": [3], "dim": false}'], 2),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_face_hist_names_the_first_malformed_line(name, tmp_path, capsys):
    lines, lineno = MALFORMED[name]
    path = tmp_path / f"{name}.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["face-hist", "--in", str(path)]) == 4
    err = capsys.readouterr().err
    assert err == _reference_error(str(path), lines)
    assert err.startswith(f"error: {path}:{lineno}: ")


def test_face_hist_reads_any_spacing_and_key_order(tmp_path, capsys):
    path = tmp_path / "s.jsonl"
    path.write_text("\n".join([EDGE, '{"dim":1,"face":[2,1]}', f"  {VERTEX}\t", '{ "face" : [ 1 , 2 ] , "dim" : 1 }'])
                    + "\n", encoding="utf-8")
    assert cli.main(["face-hist", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "kind,label,count,fraction\ndim,0,1,0.25\ndim,1,3,0.75\nface,1+2,3,0.75\nface,3,1,0.25\n"


@pytest.mark.parametrize("lines,expected", [
    ([EDGE, VERTEX, b'{"face": [3], "dim": 0, "note": "\xff"}', EDGE], ":3: not UTF-8 text"),
    ([b"\xff" + EDGE.encode()], ":1: not UTF-8 text"),
    # a malformed line before the undecodable one is reported first
    ([EDGE, '{"face": [1, 2], "dim": 2}', b"\xfe\xff", VERTEX], ":2: malformed sample line (face/dim mismatch)"),
], ids=["after_good_lines", "first_line", "after_a_malformed_line"])
def test_face_hist_names_an_undecodable_line(lines, expected, tmp_path, capsys):
    path = tmp_path / "s.jsonl"
    path.write_bytes(b"\n".join(line if isinstance(line, bytes) else line.encode() for line in lines) + b"\n")
    assert cli.main(["face-hist", "--in", str(path)]) == 4
    assert capsys.readouterr() == ("", f"error: {path}{expected}\n")


def _face_hist(path, capsys) -> tuple:
    code = cli.main(["face-hist", "--in", str(path)])
    return (code, *capsys.readouterr())


def _decoded_face_hist(path, capsys, monkeypatch) -> tuple:
    """``_face_hist`` with the one-pass scan disabled: the line decoder's
    exit code, stdout and stderr."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_SAMPLE_LINE", "(?!)")
        return _face_hist(path, capsys)


SAMPLE_SPECS = {
    "mixed-dirichlet": {"w": [0.3, -0.2, 0.5, 0.0, -0.4, 0.1, 0.2, -0.1], "alpha": [1.0, 2.0, 0.5, 1.5, 2.5, 0.8, 1.2, 3.0]},
    "gaussian-sparsemax": {"mu": [0.4, 0.3, 0.2, 0.1], "sigma": [0.3, 0.5, 0.2, 0.4]},
    "kd-hard-concrete": {"z": [0.4, -0.3, 0.1], "beta": 0.66, "lambda": 1.1},
    "binary-hard-concrete": {"log_alpha": 0.0, "beta": 0.6667},
    "maxent": {"k": 4, "n": 2},
    "concrete": {"z": [0.2, -0.5, 1.0], "beta": 0.7},
}


def _sample_file(tmp_path, kind: str, num: int):
    spec, path = tmp_path / f"{kind}.json", tmp_path / f"{kind}.jsonl"
    spec.write_text(json.dumps({"kind": kind, **SAMPLE_SPECS[kind]}))
    assert cli.main(["sample", "--dist", str(spec), "--num", str(num), "--seed", "5", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("kind", list(SAMPLE_SPECS))
def test_face_hist_scans_a_sample_file_as_the_decoder_reads_it(kind, tmp_path, capsys, monkeypatch):
    path = _sample_file(tmp_path, kind, 600)

    def unreachable(*args):
        raise AssertionError("a sample file reached the line decoder")

    with monkeypatch.context() as m:
        m.setattr(cli, "_decode_sample_file", unreachable)
        scanned = _face_hist(path, capsys)
    assert scanned[0] == 0
    assert scanned == _decoded_face_hist(path, capsys, monkeypatch)


def _line(face: str, dim: str | None = None, y: str = "0.5, 0.5, 0.0") -> str:
    dim = str(face.count(",")) if dim is None else dim
    return f'{{"face": [{face}], "dim": {dim}, "y": [{y}]}}'


CANONICAL = [_line("1, 2"), _line("3", y="0.0, 0.0, 1.0"), _line("1, 2, 3", y="0.25, -0.0, 5e-324")]
NEAR_CANONICAL_LINES = {
    # name: (a line put among canonical ones, whether the scan accepts the file)
    "leading_zero": (_line("1, 2", y="01, 0.5, 0.0"), False),
    "bare_point": (_line("1, 2", y="1., 0.5, 0.0"), False),
    "point_first": (_line("1, 2", y=".5, 0.5, 0.0"), False),
    "plus_sign": (_line("1, 2", y="+1, 0.5, 0.0"), False),
    "nan": (_line("1, 2", y="NaN, 0.5, 0.0"), False),
    "infinity": (_line("1, 2", y="Infinity, 0.5, 0.0"), False),
    "upper_exponent": (_line("1, 2", y="1E5, 0.5, 0.0"), True),
    "arabic_indic_digit": (_line("1, 2", y="0.5, 0.\u0665, 0.0"), False),
    "arabic_indic_dim": (_line("1", dim="\u0660"), False),
    "mid_line_cr": (_line("1, 2", y="0.5,\r 0.5, 0.0"), False),
    "line_separator": (_line("1, 2", y="0.5,\u2028 0.5, 0.0"), False),
    "face_entry_64": (_line("1, 64"), False),
    "face_entry_99": (_line("99"), False),
    "repeated_entry": (_line("2, 2"), False),
    "dim_mismatch": (_line("1, 2", dim="2"), False),
    "unsorted_face": (_line("3, 1, 2"), True),
}
NEAR_CANONICAL_FILES = {
    # name: (file text, whether the scan accepts it)
    **{name: ("\n".join([*CANONICAL, line, CANONICAL[0]]) + "\n", accepted)
       for name, (line, accepted) in NEAR_CANONICAL_LINES.items()},
    "crlf": ("\r\n".join(CANONICAL) + "\r\n", False),
    "no_final_newline": ("\n".join(CANONICAL), True),
    "trailing_blank_line": ("\n".join(CANONICAL) + "\n\n", False),
}


@pytest.mark.parametrize("name", list(NEAR_CANONICAL_FILES))
def test_face_hist_scan_and_decoder_agree(name, tmp_path, capsys, monkeypatch):
    """Near-canonical files read the same with and without the one-pass
    scan: the scan accepts a file only where the decoder reads it alike, and
    every other file goes to the decoder, which reports its errors."""
    text, accepted = NEAR_CANONICAL_FILES[name]
    path = tmp_path / "s.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert (cli._scan_sample_file(text) is not None) == accepted
    assert _face_hist(path, capsys) == _decoded_face_hist(path, capsys, monkeypatch)


def test_face_hist_memory_stays_near_the_file_size(tmp_path, capsys):
    """Scanning a ``sample`` file holds its text and one match per line: the
    tracemalloc peak stays under 2.5x the file's size (the line decoder,
    which holds a list of the lines beside the text, peaks at about 3.4x)."""
    path = _sample_file(tmp_path, "mixed-dirichlet", 20_000)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        assert cli.main(["face-hist", "--in", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 2.5 * size


# ------------------------------------------------------------------ fit-glm ---

def _sum_repr(*y: float) -> str:
    return repr(np.array(y).sum())


@pytest.mark.parametrize("bad_row,problem", [
    ("nan,0.5", "non-finite target value"),
    ("-0.25,1.25", "negative target value"),
    ("0.5,0.501", f"target row sums to {_sum_repr(0.5, 0.501)}"),
    ("abc,0.5", "non-numeric value (could not convert string to float: 'abc')"),
    ("0.5,0.5,0.1", "expected 3 columns"),
])
def test_fit_glm_names_the_first_bad_line(bad_row, problem, tmp_path, capsys):
    data = tmp_path / "d.csv"
    # line 3 is renormalized with a warning; line 5 is the first bad one;
    # lines 6 and 7 are bad in other ways and must not be reported
    data.write_text("x1,y1,y2\n0.1,0.5,0.5\n0.2,0.5000001,0.5\n0.3,0.25,0.75\n"
                    f"0.4,{bad_row}\n0.5,-1.0,2.0\n0.6,x,0.5\n0.7,0.5,0.5\n")
    assert cli.main(["fit-glm", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 4
    assert capsys.readouterr().err == (
        f"warning: {data}:3: target row sums to {_sum_repr(0.5000001, 0.5)}; renormalizing\n"
        f"error: {data}:5: {problem}\n")
    assert not (tmp_path / "m.json").exists()


def test_fit_glm_csv_targets_are_renormalized_batches(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("x1,z,y1,x2,y2,y3\n\n0.1,7,0.5,1.0,0.5000001,0.0\n0.2,7,0.0,2.0,1.0,0.0\n")
    X, targets = cli._read_glm_csv(str(data))
    assert X.tolist() == [[0.1, 1.0], [0.2, 2.0]]
    y = np.array([0.5, 0.5000001, 0.0])
    assert targets.coords.tolist() == [(y / y.sum()).tolist(), [0.0, 1.0, 0.0]]
    assert targets.masks.tolist() == [0b011, 0b010]


@pytest.mark.parametrize("text,expected", [
    # the first decoded chunk of the file holds the bad row and the undecodable byte
    (b"x1,y1,y2\n0.1,0.5,0.5\n0.2,x,0.5\n0.3,\xff,0.5\n",
     ":3: non-numeric value (could not convert string to float: 'x')"),
    (b"x1,y1,y2\n0.1,0.5,0.5\n0.2,0.5,0.5\n0.3,\xff,0.5\n0.4,x,0.5\n", ":4: not UTF-8 text"),
    (b"x1,y1,y2\n" + b"0.1,0.5,0.5\n" * 2000 + b"\xe9,0.5,0.5\n", ":2002: not UTF-8 text"),
    (b"x1,y\xff,y2\n0.1,0.5,0.5\n", ":1: not UTF-8 text"),
    # a field beyond the csv module's size limit
    (b"x1,y1,y2\n0.1,0.5,0.5\n0.2,-1.0,2.0\n" + b"1" * 200_000 + b",0.5,0.5\n",
     ":3: negative target value"),
    (b"x1,y1,y2\n0.1,0.5,0.5\n" + b"1" * 200_000 + b",0.5,0.5\n", ":3: field larger than field limit (131072)"),
], ids=["bad_row_first", "undecodable_row_first", "after_many_rows", "header", "bad_row_before_long_field",
        "long_field"])
def test_fit_glm_names_an_undecodable_or_unparsable_line(text, expected, tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_bytes(text)
    assert cli.main(["fit-glm", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 4
    assert capsys.readouterr() == ("", f"error: {data}{expected}\n")
    assert not (tmp_path / "m.json").exists()


def test_fit_glm_non_finite_predictor_is_a_bad_row(tmp_path, capsys):
    data = tmp_path / "d.csv"
    # line 3 is renormalized with a warning; line 4's predictor is the first
    # bad value; line 5's target must not be reported
    data.write_text("x1,y1,y2\n0.1,0.5,0.5\n0.2,0.5000001,0.5\n-inf,0.25,0.75\n0.4,-1.0,2.0\n")
    assert cli.main(["fit-glm", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 4
    assert capsys.readouterr().err == (
        f"warning: {data}:3: target row sums to {_sum_repr(0.5000001, 0.5)}; renormalizing\n"
        f"error: {data}:4: non-finite predictor value\n")
