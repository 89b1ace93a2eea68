"""The loader contract shared by every artifact kind and format: a damaged
file raises FormatError or ValidationError, never another exception and
never a silently accepted object."""

import re

import numpy as np
import pytest

from noiselens.data import (
    Dataset,
    LabelSpace,
    ScoreMatrix,
    load_dataset,
    read_score_matrix,
    save_dataset,
    save_score_matrix,
)
from noiselens.errors import FormatError, ValidationError
from noiselens.noise import (
    NoiseSpec,
    inject_symmetric,
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
    LabelSpace.default(3),
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
_, RECORD = inject_symmetric(make_blobs(3, 10, 2, 2.0, seed=2), SPEC)

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
        read_score_matrix,
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
        lambda p, f: save_class_prior(p, compute_class_prior(DATASET, DATASET.label_space)),
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
