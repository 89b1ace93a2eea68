"""The loader contract shared by every artifact kind and format: a damaged
file raises FormatError or ValidationError, never another exception and
never a silently accepted object."""

import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from noiselens.selection import load_mask, save_mask, select_by_confidence
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
