"""The loader contract shared by every artifact kind and format: a damaged
file raises FormatError or ValidationError, never another exception and
never a silently accepted object."""

import dataclasses
import errno
import gc
import os
import re
import signal
import struct
import sys
import tempfile
import time
import tracemalloc
import warnings
from itertools import chain, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from noiselens import codec, parallel
from noiselens.data import (
    Dataset,
    ScoreMatrix,
    load_dataset,
    load_score_matrix,
    save_dataset,
    save_score_matrix,
)
from noiselens.errors import FormatError, ValidationError
from noiselens.noise import (
    NoiseSpec,
    inject_noise,
    load_corruption_record,
    make_blobs,
    save_corruption_record,
)
from noiselens.priors import (
    compute_class_prior,
    estimate_transition_matrix,
    load_class_prior,
    load_transition_matrix,
    save_class_prior,
    save_transition_matrix,
)
from noiselens.scorer import (
    ClassEmbeddingBank,
    load_embedding_bank,
    load_embedding_table,
    save_embedding_bank,
)
from noiselens.selection import SelectionMask, apply_mask, load_mask, save_mask, select_by_confidence
from noiselens.trainer import LinearClassifier, load_classifier, save_classifier

DATASET = Dataset(
    3,
    ids=np.arange(4),
    features=np.array([[0.5, 1.0], [-1.0, 2.0], [0.1, 0.3], [3.5, -2.25]]),
    noisy_labels=np.array([0, 1, 2, 1]),
    true_labels=np.array([0, 2, 2, 1]),
)
SCORES = ScoreMatrix(
    values=np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4], [0.2, 0.5, 0.3]]),
    sample_ids=DATASET.ids,
)
BANK = ClassEmbeddingBank(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), "ref-prompt")
CLASSIFIER = LinearClassifier(
    np.array([[0.5, -1.0], [2.0, 0.25], [1.0 / 3, 0.0]]), np.array([0.1, 0.0, -0.2])
)
SPEC = NoiseSpec("symmetric", 0.5, seed=3)
_, RECORD = inject_noise(make_blobs(3, 10, 2, 2.0, seed=2), SPEC)

# kind -> (formats, save(path, fmt), load(path))
KINDS = {
    "dataset": (
        ("text", "binary"),
        lambda p, f: save_dataset(p, DATASET, fmt=f),
        load_dataset,
    ),
    "scores": (
        ("text", "binary"),
        lambda p, f: save_score_matrix(p, SCORES, fmt=f),
        lambda p: load_score_matrix(p, DATASET),
    ),
    "bank": (
        ("text", "binary"),
        lambda p, f: save_embedding_bank(p, BANK, fmt=f),
        load_embedding_bank,
    ),
    "embedding_table": (
        ("text",),
        lambda p, f: save_embedding_bank(p, ClassEmbeddingBank(DATASET.features, "img")),
        lambda p: load_embedding_table(p, DATASET),
    ),
    "mask": (
        ("text",),
        lambda p, f: save_mask(p, select_by_confidence(DATASET, SCORES, 0.5)),
        load_mask,
    ),
    "tm": (
        ("text",),
        lambda p, f: save_transition_matrix(p, estimate_transition_matrix(DATASET, SCORES)),
        load_transition_matrix,
    ),
    "prior": (
        ("text",),
        lambda p, f: save_class_prior(p, compute_class_prior(DATASET)),
        load_class_prior,
    ),
    "classifier": (
        ("text", "binary"),
        lambda p, f: save_classifier(p, CLASSIFIER, fmt=f),
        load_classifier,
    ),
    "corruption": (
        ("text",),
        lambda p, f: save_corruption_record(p, RECORD, SPEC),
        load_corruption_record,
    ),
}


def _negative_counts(raw: bytes) -> list:
    """One file per header count, with that count set to -1."""
    header, rest = raw.split(b"\n", 1)
    return [
        header[: m.start(1)] + b"-1" + header[m.end(1) :] + b"\n" + rest
        for m in re.finditer(rb" (?:N|C|D|GT|TOTAL|FLIPPED)=(\d+)", header)
    ]


def _edit_records(raw: bytes, edit) -> list:
    header, *records = raw.split(b"\n")[:-1]
    return [b"\n".join([header] + edit(records)) + b"\n"]


TEXT_CASES = {
    "negative_count": _negative_counts,
    "non_utf8_byte": lambda raw: _edit_records(raw, lambda r: [b"\xff" + r[0]] + r[1:]),
    "record_short": lambda raw: _edit_records(raw, lambda r: r[:-1]),
    "record_extra": lambda raw: _edit_records(raw, lambda r: r + r[-1:]),
    "blank_line": lambda raw: _edit_records(raw, lambda r: r[:1] + [b""] + r[1:]),
}
# Container prefix: 4 magic bytes, u16 version, u8 kind.
PREFIX = 7
BINARY_CASES = {
    "trailing_bytes": lambda raw: [raw + b"\0" * 8],
    "cut_in_header": lambda raw: [raw[: PREFIX + 5]],
    "cut_in_payload": lambda raw: [raw[:-1]],
}
# The bank's counts are <QQH (18 bytes); the prompt follows.
BANK_CASES = {
    "cut_in_prompt": lambda raw: [raw[: PREFIX + 18 + 3]],
    "non_utf8_prompt": lambda raw: [raw[: PREFIX + 18] + b"\xff" + raw[PREFIX + 18 + 1 :]],
}



def _cases(kind: str, fmt: str) -> dict:
    if fmt == "text":
        return TEXT_CASES
    return {**BINARY_CASES, **(BANK_CASES if kind == "bank" else {})}


PARAMS = [
    (kind, fmt, case)
    for kind, (formats, _, _) in KINDS.items()
    for fmt in formats
    for case in _cases(kind, fmt)
]


@pytest.mark.parametrize("kind,fmt,case", PARAMS, ids=["-".join(p) for p in PARAMS])
def test_damaged_file_raises_only_format_or_validation_error(tmp_path, kind, fmt, case):
    _, save, load = KINDS[kind]
    path = tmp_path / f"{kind}.{fmt}"
    save(path, fmt)
    load(path)  # the undamaged file is valid
    variants = _cases(kind, fmt)[case](path.read_bytes())
    assert variants
    for damaged in variants:
        path.write_bytes(damaged)
        with pytest.raises((FormatError, ValidationError)):
            load(path)


@pytest.mark.parametrize("kind", list(KINDS))
def test_container_of_another_kind_is_named(tmp_path, kind):
    """Loaders take no format: a file with the container's magic bytes is
    read as binary, so one of another kind is a named FormatError."""
    formats, _, load = KINDS[kind]
    other = tmp_path / "other.bin"
    if kind == "dataset":
        save_classifier(other, CLASSIFIER, fmt="binary")
        expected = "holds kind 4, expected 1"
    else:
        save_dataset(other, DATASET, fmt="binary")
        expected = "holds kind 1" if "binary" in formats else "binary container where a text"
    with pytest.raises(FormatError, match=expected):
        load(other)


def test_unknown_binary_version_is_named(tmp_path):
    path = tmp_path / "ds.bin"
    save_dataset(path, DATASET, fmt="binary")
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<H", 2) + raw[6:])
    with pytest.raises(FormatError, match="unsupported binary version 2$"):
        load_dataset(path)


# Where the first float field of a text kind sits, as (record, field), when
# it is not the last field of the first record; and the float header value
# of the kinds that have one. Every binary payload ends with a float column.
FLOAT_FIELD = {"mask": (0, 1), "corruption": (1, -1)}
FLOAT_HEADER = {"mask": "THRESHOLD", "corruption": "REALIZED"}
NON_FINITE = [
    (kind, fmt, part)
    for kind, (formats, _, _) in KINDS.items()
    for fmt in formats
    for part in ("record",) + (("header",) if fmt == "text" and kind in FLOAT_HEADER else ())
]


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind,fmt,part", NON_FINITE, ids=["-".join(p) for p in NON_FINITE])
def test_non_finite_float_is_a_format_error(tmp_path, kind, fmt, part, token):
    _, save, load = KINDS[kind]
    path = tmp_path / f"{kind}.{fmt}"
    save(path, fmt)
    raw = path.read_bytes()
    if fmt == "binary":
        path.write_bytes(raw[:-8] + np.array(float(token), "<f8").tobytes())
        match = r": record \d+: .*non-finite value$"
    elif part == "header":
        key = FLOAT_HEADER[kind]
        path.write_bytes(re.sub(rf" {key}=\S+".encode(), f" {key}={token}".encode(), raw, count=1))
        match = rf"^line 1: {key}='{token}' is not a finite number$"
    else:
        lines = raw.decode("utf-8").split("\n")
        record, field = FLOAT_FIELD.get(kind, (0, -1))
        fields = lines[1 + record].split(",")
        fields[field] = token
        lines[1 + record] = ",".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
        match = rf"^line {2 + record}: .*non-finite value$"
    with pytest.raises(FormatError, match=match):
        load(path)


# ---------------------------------------------------------------------------
# the text reader: bit-exact numbers, hostile bytes, the number grammar
# ---------------------------------------------------------------------------

FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1)
    .map(lambda bits: float(np.array(bits, np.uint64).view(np.float64)))
    .filter(np.isfinite),
)
MATRICES = arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)), elements=FINITE)
IDS = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=4, max_size=4, unique=True)


@given(values=MATRICES, ids=IDS)
@settings(max_examples=60, deadline=None)
def test_text_round_trip_is_bit_exact(values, ids):
    """Every finite float64, subnormals, -0.0 and the extremes included, and
    every int64 id reads back with the bits it was written with."""
    n = values.shape[0]
    ids = np.array(ids[:n], dtype=np.int64)
    dataset = Dataset(2, ids, values, np.zeros(n, np.int64))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.txt"
        save_dataset(path, dataset)
        loaded = load_dataset(path)
        assert loaded.features.tobytes() == values.tobytes()
        assert loaded.ids.tobytes() == ids.tobytes()


def _mutate(raw: bytes, data) -> bytes:
    """``raw`` truncated, with one byte replaced, or with one line
    duplicated or dropped."""
    how = data.draw(st.sampled_from(["truncate", "replace", "duplicate", "drop"]))
    if how in ("truncate", "replace"):
        at = data.draw(st.integers(0, len(raw) - 1))
        if how == "truncate":
            return raw[:at]
        return raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1 :]
    lines = raw.split(b"\n")
    at = data.draw(st.integers(0, len(lines) - 1))
    lines[at : at + 1] = [lines[at]] * (2 if how == "duplicate" else 0)
    return b"\n".join(lines)


@pytest.mark.parametrize("kind", list(KINDS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_mutated_text_file_loads_or_raises_format_or_validation_error(kind, data):
    _, save, load = KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.txt"
        save(path, "text")
        path.write_bytes(_mutate(path.read_bytes(), data))
        try:
            load(path)
        except (FormatError, ValidationError):
            pass


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_mutated_dataset_loads_selectively_as_a_full_load_does(data):
    """Where a damaged dataset file loads whole, a load without features gives
    its ids and labels, and a load keeping a mask gives ``apply_mask`` of it,
    or its error; else either raises only FormatError or ValidationError."""
    mask = select_by_confidence(DATASET, SCORES, 0.5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.txt"
        save_dataset(path, DATASET)
        path.write_bytes(_mutate(path.read_bytes(), data))
        full = _outcome(load_dataset, path)
        selective = [
            (lambda p: load_dataset(p, keep=False), lambda ds: dataclasses.replace(ds, features=None)),
            (lambda p: load_dataset(p, keep=lambda: mask), lambda ds: apply_mask(ds, mask)),
        ]
        for load, restrict in selective:
            got = _outcome(load, path)
            if full[0] not in ("FormatError", "ValidationError"):
                assert got == _outcome(lambda p: restrict(load_dataset(p)), path)


# How many u64 counts open each kind's binary packing, right after the prefix.
BINARY_U64_COUNTS = {"dataset": 3, "scores": 2, "bank": 2, "classifier": 2}
FUZZ = [(kind, fmt) for kind, (formats, _, _) in KINDS.items() for fmt in formats]


def _damage(raw: bytes, kind: str, fmt: str, data) -> bytes:
    """``raw`` changed as ``_mutate`` does, with bytes appended, or with one
    header count made huge."""
    how = data.draw(st.sampled_from(["mutate", "append", "huge_count"]))
    if how == "mutate":
        return _mutate(raw, data)
    if how == "append":
        return raw + data.draw(st.binary(min_size=1, max_size=32))
    huge = data.draw(st.integers(2**31, 2**64 - 1))
    if fmt == "binary":
        at = PREFIX + 8 * data.draw(st.integers(0, BINARY_U64_COUNTS[kind] - 1))
        return raw[:at] + huge.to_bytes(8, "little") + raw[at + 8 :]
    header, rest = raw.split(b"\n", 1)
    counts = list(re.finditer(rb" (?:N|C|D|GT|TOTAL|FLIPPED)=(\d+)", header))
    m = data.draw(st.sampled_from(counts))
    return header[: m.start(1)] + str(huge).encode() + header[m.end(1) :] + b"\n" + rest


@pytest.mark.parametrize("kind,fmt", FUZZ, ids=["-".join(p) for p in FUZZ])
@given(data=st.data())
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_fuzzed_file_loads_or_raises_format_or_validation_error(tmp_path, kind, fmt, data):
    _, save, load = KINDS[kind]
    path = tmp_path / f"{kind}.{fmt}"
    save(path, fmt)
    path.write_bytes(_damage(path.read_bytes(), kind, fmt, data))
    try:
        load(path)
    except (FormatError, ValidationError):
        pass


@pytest.mark.parametrize(
    "name,raw",
    [
        ("ds.txt", b"#noiselens-dataset v1 N=0 C=2 D=100000000000000000000 GT=0\n"),
        # magic, version 1, kind 1 (dataset), then N=0, C=2, D=2**63, GT=0
        ("ds.bin", b"NLNS\x01\x00\x01" + struct.pack("<QQQB", 0, 2, 2**63, 0)),
    ],
    ids=["text", "binary"],
)
def test_zero_records_of_a_huge_width_are_a_format_error(tmp_path, name, raw):
    path = tmp_path / name
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=f"count.* {codec.MAX_COUNT}"):
        load_dataset(path)


_installed_loadtxt = np.loadtxt


def _loadtxt_with_float_fallback(lines, dtype, **kwargs):
    """``np.loadtxt`` as numpy 1.23-1.26 ship it: an integer field that only
    parses as a float is read as one and truncated, after a
    DeprecationWarning."""
    try:
        return _installed_loadtxt(lines, dtype=dtype, **kwargs)
    except ValueError:
        names = dtype.names or ()
        as_float = np.dtype([(f, np.float64, dtype[f].shape) for f in names] or np.float64)
        table = _installed_loadtxt(lines, dtype=as_float, **kwargs)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return table.astype(dtype)


DATASET_TEXT = "#noiselens-dataset v1 N=2 C=2 D=2 GT=0\n0,1,0.5,1.5\n1,0,2.5,3.5\n"


@pytest.mark.parametrize(
    "old,new",
    [
        ("1,0,2.5", "1_0,0,2.5"),  # Python int() and float() accept
        ("1,0,2.5", "1,0,2_5"),  # digit-group underscores,
        ("1,0,2.5", "\u0663,0,2.5"),  # and non-ASCII digits;
        ("1,0,2.5", "1,0,\u0663.5"),  # the reader does not.
        ("1,0,2.5", "1,0,#2.5"),  # '#' starts no comment in a record
        ("1,0,2.5", "9223372036854775808,0,2.5"),  # overflows int64
        ("1,0,2.5", "1,0, "),  # whitespace only
        ("1,0,2.5", "1.5,0,2.5"),  # an integer field that only
        ("1,0,2.5", "1e3,0,2.5"),  # parses as a float
        ("1,0,2.5", "2.0,0,2.5"),
        ("1,0,2.5", "inf,0,2.5"),
        ("1,0,2.5", "1,1.5,2.5"),
    ],
)
@pytest.mark.parametrize("reader", ["installed", "float_fallback"])
def test_rejected_number_names_its_line_and_token(tmp_path, monkeypatch, reader, old, new):
    if reader == "float_fallback":
        monkeypatch.setattr(np, "loadtxt", _loadtxt_with_float_fallback)
    path = tmp_path / "ds.txt"
    path.write_text(DATASET_TEXT.replace(old, new), encoding="utf-8")
    token = next(t for t in new.split(",") if t not in old.split(","))
    with pytest.raises(FormatError, match=rf"^line 3: .*{re.escape(repr(token))}$"):
        load_dataset(path)


@pytest.mark.parametrize(
    "kind,old,new,message",
    [
        ("dataset", "N=10", "N=1_0", f"N='1_0' is not a count in [0, {codec.MAX_COUNT}]"),
        ("dataset", "N=2", "N=\u0662", f"N='\u0662' is not a count in [0, {codec.MAX_COUNT}]"),
        ("mask", "THRESHOLD=0.25", "THRESHOLD=0.2_5", "THRESHOLD='0.2_5' is not a finite number"),
        ("dataset", "N=10", "N=1,0", f"N='1,0' is not a count in [0, {codec.MAX_COUNT}]"),
        ("mask", "THRESHOLD=0.25", "THRESHOLD=0,25", "THRESHOLD='0,25' is not a finite number"),
    ],
    ids=["count_underscore", "count_non_ascii_digit", "real_underscore", "count_comma", "real_comma"],
)
def test_header_value_follows_the_record_grammar(tmp_path, kind, old, new, message):
    """A header count or real is read as a record field is, so ``int()``'s
    and ``float()``'s underscores and non-ASCII digits are rejected there
    too, and so is a comma, which would split the value into two fields;
    each file loads before its header value is respelled."""
    path = tmp_path / f"{kind}.txt"
    if kind == "mask":
        save_mask(path, select_by_confidence(DATASET, SCORES, 0.25))
        load = load_mask
    else:
        n = int(old[len("N=") :])
        records = "".join(f"{i},0,{i}.5\n" for i in range(n))
        path.write_text(f"#noiselens-dataset v1 N={n} C=2 D=1 GT=0\n{records}", encoding="utf-8")
        load = load_dataset
    load(path)
    path.write_bytes(path.read_bytes().replace(old.encode(), new.encode(), 1))
    with pytest.raises(FormatError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"line 1: {message}"


def test_whitespace_flipped_id_names_its_line(tmp_path):
    path = tmp_path / "corruption.txt"
    header = "#noiselens-corruption v1 N=2 C=2 KIND=symmetric RATE=0.5 SEED=1 FLIPPED=1 REALIZED=0.5"
    path.write_text(f"{header}\n \n0.5,0.5\n0.5,0.5\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"^line 2: "):
        load_corruption_record(path)


def test_valid_numbers_in_every_spelling_parse_as_float_does(tmp_path):
    spellings = ["+1.5", "-0", "1e-320", "1E5", ".5", "5.", " 2.5 ", "007"]
    path = tmp_path / "ds.txt"
    rows = "".join(f"{i},0,{s}\n" for i, s in enumerate(spellings))
    header = f"#noiselens-dataset v1 N={len(spellings)} C=2 D=1 GT=0"
    path.write_text(f"{header}\n{rows}", encoding="utf-8")
    values = load_dataset(path).features[:, 0]
    assert values.tobytes() == np.array([float(s) for s in spellings]).tobytes()


# ---------------------------------------------------------------------------
# the text writer: the same bytes from any number of processes
# ---------------------------------------------------------------------------

FORKS = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
WORKERS = [1, pytest.param(2, marks=FORKS), pytest.param(3, marks=FORKS)]
# With 12 fields a chunk, a row of 1 + 1 + 2 + 0 + 2 fields makes 2-row chunks.
SMALL_CHUNK = 12


def _mixed_block(n: int) -> list:
    """Int and float columns, 1-D and 2-D, a zero-width run included."""
    rng = np.random.default_rng(n)
    return [
        np.arange(n) - 3,
        rng.integers(-(2**63), 2**63 - 1, n),
        rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2)),
        np.empty((n, 0), np.int64),
        rng.integers(0, 9, (n, 2)),
    ]


def _one_by_one(blocks) -> bytes:
    """Each row formatted alone, the way the writer promises to format it."""
    lines = []
    for columns in blocks:
        columns = [(c[:, None] if c.ndim == 1 else c).tolist() for c in map(np.asarray, columns)]
        lines += [",".join(map(repr, chain.from_iterable(row))) + "\n" for row in zip(*columns)]
    return "".join(lines).encode("utf-8")


def _parent_slices(monkeypatch) -> list:
    """The row slices this process formats from now on, one entry each."""
    parent, format_rows, formatted = os.getpid(), codec._format_rows, []

    def format_and_count(out, columns, lo, hi):
        if os.getpid() == parent:
            formatted.append((lo, hi))
        format_rows(out, columns, lo, hi)

    monkeypatch.setattr(codec, "_format_rows", format_and_count)
    return formatted


@pytest.mark.parametrize("workers", WORKERS)
# 0 rows; one below, at and one above the 1-, 2- and 3-chunk boundaries
# (2, 4 and 6 rows); many chunks with a ragged last one.
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 23])
def test_written_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, workers, n):
    monkeypatch.setattr(codec, "CHUNK_FIELDS", SMALL_CHUNK)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
    blocks = [_mixed_block(n), [np.arange(5)], _mixed_block(n + 2)]
    formatted = _parent_slices(monkeypatch)
    codec.write_text(tmp_path / "block.txt", codec.DATASET, {"N": 0}, blocks)
    header, records = (tmp_path / "block.txt").read_bytes().split(b"\n", 1)
    assert header == b"#noiselens-dataset v1 N=0"
    assert records == _one_by_one(blocks)
    assert len(formatted) == len(blocks)  # each block's first slice, here


@pytest.mark.parametrize("workers", WORKERS)
def test_corruption_record_with_no_flips_keeps_its_blank_row(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(codec, "CHUNK_FIELDS", SMALL_CHUNK)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
    spec = NoiseSpec("symmetric", 0.0, seed=1)
    _, record = inject_noise(make_blobs(12, 1, 2, 2.0, seed=2), spec)
    path = tmp_path / "corruption.txt"
    save_corruption_record(path, record, spec)
    lines = path.read_bytes().split(b"\n")
    assert lines[1] == b"" and len(lines) == 2 + 12 + 1
    blocks = [[record.flipped_ids[None, :]], [record.realized_transition]]
    assert b"\n".join(lines[1:]) == _one_by_one(blocks)
    assert load_corruption_record(path)[0].num_flipped == 0


def test_dataset_and_scores_of_several_real_chunks_match_one_process(tmp_path, monkeypatch):
    """At the real chunk size: 2,100 rows of 2 + 128 fields are three chunks,
    and of 1 + 62 fields two; each is written and read back at every worker
    count."""
    dataset, _ = inject_noise(make_blobs(3, 700, 128, 3.0, seed=5), SPEC)
    scores = ScoreMatrix(np.full((len(dataset.ids), 62), 1 / 62), dataset.ids)
    assert -(-len(dataset.ids) // (codec.CHUNK_FIELDS // 130)) == 3
    expected = [
        _one_by_one([[dataset.ids, dataset.noisy_labels, dataset.true_labels, dataset.features]]),
        _one_by_one([[scores.sample_ids, scores.values]]),
    ]
    for workers in (1, 2, 3) if hasattr(os, "fork") else (1,):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
        save_dataset(tmp_path / "ds.txt", dataset)
        save_score_matrix(tmp_path / "scores.txt", scores)
        written = [(tmp_path / f).read_bytes().split(b"\n", 1)[1] for f in ("ds.txt", "scores.txt")]
        assert written == expected, f"{workers} workers"
        loaded = load_dataset(tmp_path / "ds.txt")
        assert _flat(loaded) == _flat(dataset), f"{workers} workers"
        with codec.TextReader(tmp_path / "scores.txt", codec.SCORES) as reader:
            ids, values = reader.rows(reader.counts[0], [int, (float, 62)])
        assert _flat((ids, values)) == _flat((scores.sample_ids, scores.values))


def _in_children(monkeypatch, act, hook: str = "_format_rows") -> None:
    """Run ``act`` before ``hook`` in every forked child: before formatting
    rows (the writer's children) or parsing pieces (``_fill``, the reader's)."""
    parent, work = os.getpid(), getattr(codec, hook)

    def work_or_act(*args):
        if os.getpid() != parent:
            act()
        work(*args)

    monkeypatch.setattr(codec, hook, work_or_act)
    monkeypatch.setattr(codec, "CHUNK_FIELDS", SMALL_CHUNK)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)


def _raise(exc):
    raise exc


def _before_work(act):
    """A failure under which every child calls ``act`` before its work."""
    return lambda monkeypatch, hook: _in_children(monkeypatch, act, hook)


def _killed_after_work(monkeypatch, hook: str) -> None:
    """A failure under which every child is killed once its work has
    returned and its file is flushed, where it would exit 0."""
    _in_children(monkeypatch, lambda: None, hook)
    parent, exit = os.getpid(), os._exit

    def die_at_exit(code):
        if os.getpid() != parent and code == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        exit(code)

    monkeypatch.setattr(os, "_exit", die_at_exit)


def _fork_fails(monkeypatch, hook: str) -> None:
    """A failure under which every fork fails, as at a process limit."""
    _in_children(monkeypatch, lambda: None, hook)
    monkeypatch.setattr(os, "fork", lambda: _raise(BlockingIOError(errno.EAGAIN, "fork")))


@FORKS
@pytest.mark.parametrize(
    "failure",
    [
        _before_work(lambda: _raise(OSError(errno.ENOSPC, "full"))),
        _before_work(lambda: _raise(ValueError("bad"))),
        _before_work(lambda: os.kill(os.getpid(), signal.SIGKILL)),
        _killed_after_work,
        _fork_fails,
    ],
    ids=["enospc", "exception", "killed", "killed-after-writing", "fork-fails"],
)
def test_failing_writer_child_slice_is_formatted_here_and_leaves_no_child(tmp_path, monkeypatch, failure):
    """The writing process formats its own slice and, in place, the slice of
    each child that fails and each slice whose fork fails, so the write
    gives the one-process bytes."""
    failure(monkeypatch, "_format_rows")
    formatted = _parent_slices(monkeypatch)
    blocks = [_mixed_block(12)]
    codec.write_text(tmp_path / "ds.txt", codec.DATASET, {}, blocks)
    assert (tmp_path / "ds.txt").read_bytes().split(b"\n", 1)[1] == _one_by_one(blocks)
    assert formatted == [(0, 4), (4, 8), (8, 12)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(tmp_path) == ["ds.txt"]


@FORKS
def test_failing_redo_of_a_writer_slice_raises_its_own_error(tmp_path, monkeypatch):
    """When the writing process runs out of space formatting a failed
    child's slice, the save raises that error, as a one-process save does,
    and leaves no child and no temporary file."""
    _in_children(monkeypatch, lambda: _raise(OSError(errno.ENOSPC, "full")))
    parent, format_rows = os.getpid(), codec._format_rows

    def full_on_redo(out, columns, lo, hi):
        if os.getpid() == parent and lo > 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        format_rows(out, columns, lo, hi)

    monkeypatch.setattr(codec, "_format_rows", full_on_redo)
    with pytest.raises(OSError, match=r"^\[Errno 28\] No space left on device$") as raised:
        codec.write_text(tmp_path / "ds.txt", codec.DATASET, {}, [_mixed_block(12)])
    assert raised.value.errno == errno.ENOSPC
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(tmp_path) == ["ds.txt"]


@FORKS
def test_interrupted_write_leaves_no_child(tmp_path, monkeypatch):
    parent = os.getpid()
    _in_children(monkeypatch, lambda: time.sleep(60))
    format_rows = codec._format_rows

    def interrupt_in_parent(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        format_rows(*args)

    monkeypatch.setattr(codec, "_format_rows", interrupt_in_parent)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        codec.write_text(tmp_path / "ds.txt", codec.DATASET, {}, [_mixed_block(12)])
    assert time.perf_counter() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(tmp_path) == ["ds.txt"]


# ---------------------------------------------------------------------------
# the text reader: the same arrays from any number of processes
# ---------------------------------------------------------------------------

# A layout with no header counts, for blocks of any columns.
BLOCKS = codec.Layout("blocks", ())
MIXED_SPECS = [int, int, (float, 2), (int, 0), (int, 2)]


def _read_blocks(path, sizes, keeps=None) -> list:
    """Each block of ``sizes`` records read as ``_mixed_block``'s columns,
    as dtype, shape and bytes, after which ``end`` has found no extra record;
    with ``keeps``, each block's last column for those records only."""
    with codec.TextReader(path, BLOCKS) as reader:
        blocks = [reader.rows(n, MIXED_SPECS, keep=k) for n, k in zip(sizes, keeps or [None] * len(sizes))]
        reader.end()
    return [[(a.dtype.str, a.shape, a.tobytes()) for a in block] for block in blocks]


# The records of a block of n whose last column a read keeps: none, runs of
# two between gaps, and all.
KEEPS = [
    lambda n: np.arange(0),
    lambda n: np.flatnonzero(np.arange(n) % 3 != 1),
    lambda n: np.arange(n),
]


@pytest.mark.parametrize("workers", WORKERS)
# 0 rows; one below, at and one above the 1-, 2- and 3-chunk boundaries
# (2, 4 and 6 rows); many chunks with a ragged last one.
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 23])
def test_read_arrays_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, workers, n):
    """Two blocks of mixed columns; at 64 bytes a piece the first block
    starts in the header's piece, and at 1 or 7 bytes each line is a piece."""
    monkeypatch.setattr(codec, "CHUNK_FIELDS", SMALL_CHUNK)
    blocks = [_mixed_block(n), _mixed_block(n + 2)]
    path = tmp_path / "blocks.txt"
    codec.write_text(path, BLOCKS, {}, blocks)
    written = [[(a.dtype.str, a.shape, a.tobytes()) for a in block] for block in blocks]
    monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
    for piece in PIECES + [codec.PIECE_BYTES]:
        monkeypatch.setattr(codec, "PIECE_BYTES", piece)
        assert _read_blocks(path, [n, n + 2]) == written, piece
        for keep in KEEPS:
            keeps = [keep(n), keep(n + 2)]
            kept = [block[:-1] + [block[-1][k]] for block, k in zip(blocks, keeps)]
            expected = [[(a.dtype.str, a.shape, a.tobytes()) for a in block] for block in kept]
            assert _read_blocks(path, [n, n + 2], keeps) == expected, (piece, keeps)
    with pytest.raises(FormatError, match=f"header declares {n + 1} records, file has {2 * n + 2}$"):
        _read_blocks(path, [n, 1])


def _forks(monkeypatch) -> list:
    """The children the reader or writer forks from now on, one entry each."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@FORKS
@pytest.mark.parametrize(
    "failure",
    [
        _before_work(lambda: _raise(ValueError("bad"))),
        _before_work(lambda: os.kill(os.getpid(), signal.SIGKILL)),
        _killed_after_work,
        _fork_fails,
    ],
    ids=["exception", "killed", "killed-after-writing", "fork-fails"],
)
def test_failing_reader_child_reads_the_block_again_and_leaves_no_child(tmp_path, monkeypatch, failure):
    """The reading process parses its own run and, in place, the run of each
    child that fails and each run whose fork fails, but not the whole block
    again."""
    path = tmp_path / "blocks.txt"
    blocks = [_mixed_block(12)]
    codec.write_text(path, BLOCKS, {}, blocks)
    failure(monkeypatch, "_fill")
    monkeypatch.setattr(codec, "PIECE_BYTES", 64)
    parent, fill, parsed = os.getpid(), codec._fill, []

    def fill_and_count(out, row, at, pieces):
        pieces = list(pieces)
        if os.getpid() == parent:
            parsed.append((at, sum(map(len, pieces))))
        fill(out, row, at, pieces)

    monkeypatch.setattr(codec, "_fill", fill_and_count)
    forks = _forks(monkeypatch)
    assert _read_blocks(path, [12]) == [[(a.dtype.str, a.shape, a.tobytes()) for a in blocks[0]]]
    assert len(forks) == 2
    # Three runs, each parsed here once, together the block's 12 records.
    at = 0
    for start, count in sorted(parsed):
        assert start == at
        at += count
    assert (len(parsed), at) == (3, 12)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(tmp_path) == ["blocks.txt"]


@FORKS
def test_interrupted_read_leaves_no_child(tmp_path, monkeypatch):
    parent = os.getpid()
    path = tmp_path / "blocks.txt"
    codec.write_text(path, BLOCKS, {}, [_mixed_block(12)])
    _in_children(monkeypatch, lambda: time.sleep(60), "_fill")
    monkeypatch.setattr(codec, "PIECE_BYTES", 64)
    fill = codec._fill

    def interrupt_in_parent(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        fill(*args)

    monkeypatch.setattr(codec, "_fill", interrupt_in_parent)
    forks = _forks(monkeypatch)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _read_blocks(path, [12])
    assert time.perf_counter() - started < 30
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# the text reader in pieces: the same arrays and errors at any piece size
# ---------------------------------------------------------------------------

def _masked_load(ids, *rows):
    """A dataset load that parses the features of the records at ``rows``
    alone, for a dataset of ``ids``."""
    kept = np.isin(np.arange(len(ids)), rows)
    mask = SelectionMask(np.asarray(ids), np.where(kept, 0.9, 0.1), "confidence", 0.5)
    return lambda path: load_dataset(path, keep=lambda: mask)


PIECES = [1, 7, 64]
# The reading processes each test of the pieces also runs at.
READERS = (1, 2, 3) if hasattr(os, "fork") else (1,)
NO_FLIPS_SPEC = NoiseSpec("symmetric", 0.0, seed=1)
_, NO_FLIPS = inject_noise(make_blobs(3, 4, 2, 2.0, seed=2), NO_FLIPS_SPEC)
# Every text kind, plus a corruption record whose flipped-id row is blank and
# a bank whose prompt is 15 bytes of 3-byte UTF-8 characters: a piece size of
# 1 or 7 bytes falls inside one of them.
PIECE_KINDS = {
    **{kind: (save, load) for kind, (_, save, load) in KINDS.items()},
    "corruption_no_flips": (
        lambda p, f: save_corruption_record(p, NO_FLIPS, NO_FLIPS_SPEC),
        load_corruption_record,
    ),
    "bank_multibyte_prompt": (
        lambda p, f: save_embedding_bank(p, ClassEmbeddingBank(BANK.embeddings, "プロンプト")),
        load_embedding_bank,
    ),
    # The dataset's ids and labels alone, and with the features of records
    # 1 and 2 (a run) and 0 and 3 (two runs).
    "dataset_ids_and_labels": (KINDS["dataset"][1], lambda p: load_dataset(p, keep=False)),
    "dataset_records_1_2": (KINDS["dataset"][1], _masked_load(DATASET.ids, 1, 2)),
    "dataset_records_0_3": (KINDS["dataset"][1], _masked_load(DATASET.ids, 0, 3)),
}


def _flat(value):
    """A loaded value as nested lists of its fields, with every array as
    its dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [_flat(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, tuple):
        return [_flat(v) for v in value]
    return value


def _outcome(load, path):
    """What loading ``path`` gives: the loaded value flattened, or the error."""
    try:
        return _flat(load(path))
    except (FormatError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


def _after_first_comma(raw: bytes, byte: bytes) -> bytes:
    """``raw`` with ``byte`` inserted after the first comma of its records."""
    header, records = raw.split(b"\n", 1)
    at = records.index(b",") + 1
    return header + b"\n" + records[:at] + byte + records[at:]


# variant -> (edit of the written bytes, True when it loads what was written)
TEXT_VARIANTS = {
    "as_written": (lambda raw: raw, True),
    "crlf": (lambda raw: raw.replace(b"\n", b"\r\n"), True),
    "no_trailing_newline": (lambda raw: raw[:-1], True),
    # str.splitlines ends a line at \x0b and at \x1c, so each one splits a
    # record in two.
    "vt_in_record": (lambda raw: _after_first_comma(raw, b"\x0b"), False),
    "fs_in_record": (lambda raw: _after_first_comma(raw, b"\x1c"), False),
}


@pytest.mark.parametrize("variant", list(TEXT_VARIANTS))
@pytest.mark.parametrize("kind", list(PIECE_KINDS))
def test_every_piece_size_loads_what_one_piece_loads(tmp_path, monkeypatch, kind, variant):
    """With 2 fields a chunk, the smaller piece sizes split every block of
    two records of two fields or more among the reading processes."""
    monkeypatch.setattr(codec, "CHUNK_FIELDS", 2)
    save, load = PIECE_KINDS[kind]
    edit, loads = TEXT_VARIANTS[variant]
    path = tmp_path / f"{kind}.txt"
    save(path, "text")
    written = _outcome(load, path)
    assert written[0] != "FormatError", written
    path.write_bytes(edit(path.read_bytes()))
    whole = _outcome(load, path)
    assert (whole == written) if loads else whole[0] == "FormatError", whole
    for workers, piece in product(READERS, PIECES):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
        monkeypatch.setattr(codec, "PIECE_BYTES", piece)
        assert _outcome(load, path) == whole, (workers, piece)


# Text that `str.splitlines` ends a line in: every ASCII break besides
# "\n", "\r\n" and the non-ASCII breaks "\x85" and "\u2028", among fields.
LINE_PARTS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
              "1", ",", "-2.5", "\u00e9"]


@given(st.lists(st.sampled_from(LINE_PARTS), max_size=40), st.booleans())
@settings(max_examples=300, deadline=None)
def test_first_pass_counts_the_lines_the_parser_splits(parts, newline):
    """The first pass's count of a piece, on its bytes or not, is the count
    of the lines each later read splits it into."""
    piece = ("".join(parts) + "\n" * newline).encode("utf-8")
    assert codec._line_count(piece) == len(piece.decode("utf-8").splitlines())


def test_first_pass_count_rejects_what_is_not_utf8():
    with pytest.raises(UnicodeDecodeError):
        codec._line_count(b"1,2\n3,\xff\n")


RECORDS = [f"{i},{i % 2},{i}.5,-{i}.25" for i in range(6)]
HEADER = "#noiselens-dataset v1 N=6 C=2 D=2 GT=0"


def _dataset_text(edits: dict, extra=()) -> bytes:
    """The six-record dataset with ``edits`` (record index -> new text or
    None to drop it) and ``extra`` records appended."""
    records = [edits.get(i, r) for i, r in enumerate(RECORDS)]
    return "\n".join([HEADER, *[r for r in records if r is not None], *extra, ""]).encode("utf-8")


# case -> (file bytes, message with {path} for the file's path); record 3 is
# line 5.
PIECE_ERRORS = {
    "bad_field": (_dataset_text({3: "3,1,x,-3.25"}), "line 5: field 3 is not a number: 'x'"),
    "bad_id": (_dataset_text({3: "3.0,1,3.5,-3.25"}), "line 5: field 1 is not an integer: '3.0'"),
    "bad_label": (_dataset_text({3: "3,one,3.5,-3.25"}), "line 5: field 2 is not an integer: 'one'"),
    "field_count": (_dataset_text({3: "3,1,3.5"}), "line 5: record has 3 fields, expected 4"),
    "short_file": (_dataset_text({5: None}), "{path}: header declares 6 records, file has 5"),
    "extra_record": (_dataset_text({}, ["6,0,6.5,-6.25"]), "{path}: header declares 6 records, file has 7"),
    "non_finite": (_dataset_text({3: "3,1,inf,-3.25"}), "line 5: record has a non-finite value"),
    "bad_utf8": (
        _dataset_text({3: "3,1,@,-3.25"}).replace(b"@", b"\xff"),
        "{path}: not UTF-8 text: byte %d: invalid start byte",
    ),
    # A record of the wrong width anywhere in a block is reported before a
    # field that does not parse, and that before a non-finite value, as if
    # the block were checked at once.
    "count_after_bad_field": (
        _dataset_text({1: "1,1,x,-1.25", 4: "4,0,4.5"}),
        "line 6: record has 3 fields, expected 4",
    ),
    "bad_field_after_non_finite": (
        _dataset_text({1: "1,1,nan,-1.25", 4: "4,0,y,-4.25"}),
        "line 6: field 3 is not a number: 'y'",
    ),
}


# The cases whose error is in a feature: records 1, 3 and 4 hold every case's
# bad fields.
FEATURE_ERRORS = {"bad_field", "non_finite", "bad_field_after_non_finite"}


# load -> True when it parses records 1, 3 and 4's features.
SELECTIVE_LOADS = {
    "full": (load_dataset, True),
    "ids_and_labels": (lambda path: load_dataset(path, keep=False), False),
    "records_1_3_4": (_masked_load(range(6), 1, 3, 4), True),
    "records_0_2_5": (_masked_load(range(6), 0, 2, 5), False),
}


@pytest.mark.parametrize("case", list(PIECE_ERRORS))
def test_errors_keep_their_message_at_and_across_cuts(tmp_path, monkeypatch, case):
    """With 4 fields a chunk each record is a chunk, so the smaller piece
    sizes split the block among the reading processes. A load that parses
    only some records' features raises the error of a full load, but for a
    bad feature it does not parse, which is none."""
    monkeypatch.setattr(codec, "CHUNK_FIELDS", 4)
    raw, message = PIECE_ERRORS[case]
    path = tmp_path / "ds.txt"
    path.write_bytes(raw)
    message = message.replace("{path}", str(path))
    if "%d" in message:
        message %= raw.index(b"\xff")
    # Piece sizes that end just before, just after and inside line 5.
    line5 = len("\n".join([HEADER, *RECORDS[:3]])) + 1
    for workers, piece in product(READERS, PIECES + [line5, line5 + 1, line5 + 3, codec.PIECE_BYTES]):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
        monkeypatch.setattr(codec, "PIECE_BYTES", piece)
        for name, (load, parses_bad_features) in SELECTIVE_LOADS.items():
            if case in FEATURE_ERRORS and not parses_bad_features:
                load(path)
                continue
            with pytest.raises(FormatError) as excinfo:
                load(path)
            assert str(excinfo.value) == message, (workers, piece, name)


@pytest.mark.parametrize(
    "change",
    [lambda raw: raw[: len(raw) // 2], lambda raw: raw.replace(b"5\n", b"5\n\n")],
    ids=["truncated", "newlines_doubled"],
)
def test_a_file_changed_after_its_first_pass_is_a_format_error(tmp_path, monkeypatch, change):
    """Every line is read again where the first pass found it, also in a
    file smaller than the reader's buffer, so a file changed in between
    cannot load; with 4 fields a chunk and 64 bytes a piece the block is
    split among the reading processes."""
    monkeypatch.setattr(codec, "CHUNK_FIELDS", 4)
    monkeypatch.setattr(codec, "PIECE_BYTES", 64)
    raw = _dataset_text({})
    path = tmp_path / "ds.txt"
    for workers in READERS:
        monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
        path.write_bytes(raw)
        with codec.TextReader(path, codec.DATASET) as reader:
            path.write_bytes(change(raw))
            with pytest.raises(FormatError) as excinfo:
                reader.rows(reader.counts[0], [int, int, (float, 2)])
        assert str(excinfo.value) == f"{path}: changed while being read", workers


@pytest.mark.parametrize(
    "counts,message",
    [
        ("N=2147483648 C=2 D=2", "{path}: header declares 2147483648 records, file has 2"),
        (f"N={codec.MAX_COUNT} C=2 D=2", f"{{path}}: header declares {codec.MAX_COUNT} records, file has 2"),
        ("N=2 C=2 D=2147483648", "line 2: record has 4 fields, expected 2147483650"),
        (f"N=2 C=2 D={codec.MAX_COUNT}", f"line 2: record has 4 fields, expected {codec.MAX_COUNT + 2}"),
    ],
    ids=["huge_n", "max_n", "huge_d", "max_d"],
)
def test_a_count_the_file_cannot_hold_allocates_nothing(tmp_path, counts, message):
    path = tmp_path / "ds.txt"
    path.write_text(DATASET_TEXT.replace("N=2 C=2 D=2", counts), encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as excinfo:
            load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(excinfo.value) == message.replace("{path}", str(path))
    assert peak < 2**20


# 4,000 samples of 64 features with their true labels: a 4.8 MB text file.
LARGE = inject_noise(make_blobs(4, 1000, 64, 3.0, seed=1), SPEC)[0]
# What a load or a save may hold besides its arrays: a load, one piece's
# bytes, text, lines and parsed table; a save, one piece's values, rows and
# text.
ALLOWANCE = 4 * codec.PIECE_BYTES


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=FORKS)])
def test_text_load_holds_its_arrays_and_a_few_pieces(tmp_path, monkeypatch, cpus):
    """With one CPU the arrays are traced; with two the block is parsed by
    two processes into a shared mapping, which is not traced, so the bound
    then holds the parent's pieces alone."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    path = tmp_path / "ds.txt"
    save_dataset(path, LARGE)
    assert path.stat().st_size > ALLOWANCE
    arrays = sum(a.nbytes for a in (LARGE.ids, LARGE.noisy_labels, LARGE.true_labels, LARGE.features))
    assert _traced_peak(lambda: load_dataset(path)) < arrays + ALLOWANCE


def test_binary_load_holds_its_arrays(tmp_path):
    """Each column is read straight into its array: no copy of the file."""
    path = tmp_path / "ds.bin"
    save_dataset(path, LARGE, fmt="binary")
    arrays = sum(a.nbytes for a in (LARGE.ids, LARGE.noisy_labels, LARGE.true_labels, LARGE.features))
    assert path.stat().st_size > arrays
    assert _traced_peak(lambda: load_dataset(path)) < arrays + (1 << 16)


def test_text_save_holds_a_few_pieces(tmp_path, monkeypatch):
    """With one process the writer holds about a piece of objects, not the
    two-chunk block: each step's numbers, rows, joined text and bytes."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert len(LARGE.ids) * (3 + 64) > 2 * codec.CHUNK_FIELDS
    assert _traced_peak(lambda: save_dataset(tmp_path / "ds.txt", LARGE)) < codec.PIECE_BYTES


def test_binary_load_seeks_past_the_features_it_does_not_keep(tmp_path, monkeypatch):
    """A binary load that keeps some records' features reads the ids and
    labels, then one run of consecutive kept records at a time, and no byte
    of the others; a file cut short fails with the full load's message."""
    path = tmp_path / "ds.bin"
    save_dataset(path, LARGE, fmt="binary")
    reads, read_into = [], codec.BinaryReader._read_into

    def read_and_count(self, buffer):
        reads.append(memoryview(buffer).nbytes)
        read_into(self, buffer)

    monkeypatch.setattr(codec.BinaryReader, "_read_into", read_and_count)
    row = 8 * LARGE.feature_dim
    loads = {
        "full": (load_dataset, [len(LARGE.ids) * row]),
        "ids_and_labels": (lambda p: load_dataset(p, keep=False), []),
        "three_runs": (_masked_load(LARGE.ids, *range(10), *range(20, 25), 3999), [10 * row, 5 * row, row]),
    }
    for name, (load, feature_reads) in loads.items():
        reads.clear()
        load(path)
        assert reads[5:] == feature_reads, name  # prefix, counts, ids, two labels
    raw = path.read_bytes()
    for cut in (8, len(LARGE.ids) * row + 8):  # in the features, in the true labels
        path.write_bytes(raw[:-cut])
        with pytest.raises(FormatError, match="truncated: need") as full:
            load_dataset(path)
        for name, (load, _) in loads.items():
            with pytest.raises(FormatError) as excinfo:
                load(path)
            assert str(excinfo.value) == str(full.value), (cut, name)


# case -> (kind, edit of the written text file); each load fails part way
# through the file or after it is read.
FAILING_LOADS = {
    "bad_record": ("dataset", lambda raw: raw.replace(b"\n2,2,2,", b"\n2,2,x,")),
    "label_out_of_range": ("dataset", lambda raw: raw.replace(b"\n2,2,2,", b"\n2,7,2,")),
    "repeated_class_index": ("bank", lambda raw: raw.replace(b"\n2,", b"\n1,")),
    "embedding_table_id_mismatch": ("embedding_table", lambda raw: raw.replace(b"\n3,", b"\n9,")),
    "extra_record": ("mask", lambda raw: raw + raw.split(b"\n")[-2] + b"\n"),
}


@pytest.mark.parametrize("case", list(FAILING_LOADS))
def test_failing_loader_closes_its_file(tmp_path, monkeypatch, case):
    kind, edit = FAILING_LOADS[case]
    _, save, load = KINDS[kind]
    path = tmp_path / f"{kind}.txt"
    save(path, "text")
    raw = path.read_bytes()
    assert edit(raw) != raw
    path.write_bytes(edit(raw))
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises((FormatError, ValidationError)):
            load(path)
        gc.collect()
    assert not unraisable, [str(u.exc_value) for u in unraisable]
