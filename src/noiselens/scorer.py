"""Cosine-softmax surrogate scoring over precomputed embeddings.

The built-in scorer turns an embedding matrix and a bank of per-class
embeddings into a row-stochastic score matrix; scores produced elsewhere can
enter through a score file instead (``data.load_score_matrix``).
"""

import os
from dataclasses import dataclass, fields

import numpy as np

from . import codec
from .data import Dataset, ScoreMatrix, check_ids, row_blocks
from .errors import FormatError, ValidationError, all_finite, array, check_fields, ranged

# Below this, a vector is treated as zero and rejected rather than clamped:
# silent clamping would hide data corruption.
MIN_NORM = 1e-30


def _row_norms(rows: np.ndarray, what: str, first: int = 0) -> np.ndarray:
    """The L2 norm of each row of the finite ``rows``. A norm below MIN_NORM
    or one that overflows float64 is rejected, naming its row counted from
    ``first``: a row divided by such a norm would score as a zero vector."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    bad = np.nonzero((norms < MIN_NORM) | np.isinf(norms))[0]
    if bad.size:
        raise ValidationError(f"{what} at row {first + int(bad[0])} has a zero or overflowing norm")
    return norms


@dataclass(frozen=True)
class ClassEmbeddingBank:
    """One embedding per class, all produced by the same prompt variant."""

    embeddings: np.ndarray = array(float, "C", "D", noun="class embedding")
    prompt_id: str = "default"

    def __post_init__(self):
        check_fields(self)
        if self.num_classes < 1:
            raise ValidationError("embedding bank needs at least one class")
        _row_norms(self.embeddings, "class embedding")
        if any(ch.isspace() for ch in self.prompt_id) or not self.prompt_id:
            raise ValidationError("prompt_id must be a non-empty token without whitespace")

    @property
    def num_classes(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass(frozen=True)
class ScorerConfig:
    temperature: float = ranged("(0, inf)", 0.01)

    __post_init__ = check_fields


# Each scorer setting -> its value's type (`os.fspath`: a path), the score
# sources that read it, and True when the one source that reads it requires
# it. Every cosine source, `scorer.source = cosine` and a second bank
# (`bank_b`), reads the image embeddings and each ScorerConfig field.
COSINE_SOURCES = ("cosine", "bank_b")
SETTINGS = {
    "bank": (os.fspath, ("cosine",), True), "path": (os.fspath, ("file",), True),
    "correct_prob": (float, ("oracle",), False), "embeddings": (os.fspath, COSINE_SOURCES, False),
    **{f.name: (f.type, COSINE_SOURCES, False) for f in fields(ScorerConfig)},
}
SOURCE_READERS = {setting: readers for setting, (_, readers, _) in SETTINGS.items()}
# Prompt consistency's second score source: its key -> its kind. Like `score
# --bank` and `--scores-file`, the two keys exclude each other.
SECOND_SOURCES = {"bank_b": "cosine", "path_b": "file"}


def cosine_softmax_score(
    image_embeddings: np.ndarray,
    bank: ClassEmbeddingBank,
    config: ScorerConfig,
    sample_ids: np.ndarray | None = None,
) -> ScoreMatrix:
    """Score row i, class j as softmax_j(cos(V_i, T_j) / temperature).

    The softmax subtracts the per-row maximum before exponentiating, so the
    sharp default temperature (0.01) cannot overflow float64. The image
    rows are normalised and multiplied one `row_blocks` block at a time
    into the N x C result, so no temporary spans every image row, and the
    softmax works in place on that result. A non-finite entry anywhere is
    reported before a zero or overflowing norm.
    """
    emb = np.asarray(image_embeddings, dtype=np.float64)
    if emb.ndim != 2:
        raise ValidationError("image embeddings must be a 2-D array")
    if emb.shape[1] != bank.dim:
        raise ValidationError(
            f"embedding dimension {emb.shape[1]} does not match bank dimension {bank.dim}"
        )
    if not all_finite(emb):
        raise ValidationError("non-finite image embedding")
    unit_classes = bank.embeddings / _row_norms(bank.embeddings, "class embedding")[:, None]
    values = np.empty((emb.shape[0], bank.num_classes))
    for lo, hi in row_blocks(emb.shape[0]):
        block = emb[lo:hi]
        norms = _row_norms(block, "image embedding", lo)
        np.matmul(block / norms[:, None], unit_classes.T, out=values[lo:hi])

    values /= config.temperature
    values -= values.max(axis=1, keepdims=True)
    np.exp(values, out=values)
    values /= values.sum(axis=1, keepdims=True)
    if sample_ids is None:
        sample_ids = np.arange(emb.shape[0], dtype=np.int64)
    return ScoreMatrix(values, sample_ids)


def score_with_surrogate(
    dataset: Dataset,
    bank: ClassEmbeddingBank,
    config: ScorerConfig,
    image_embeddings: np.ndarray | None = None,
) -> ScoreMatrix:
    """Score ``dataset`` with the built-in cosine scorer. The scorer runs on
    the dataset's own feature vectors unless a separate ``image_embeddings``
    matrix is supplied (for when the surrogate's embedding space differs
    from the classifier's).
    """
    if bank.num_classes != dataset.num_classes:
        raise ValidationError(
            f"bank has {bank.num_classes} classes, dataset has {dataset.num_classes}"
        )
    if image_embeddings is None:
        image_embeddings = dataset.features
    else:
        image_embeddings = np.asarray(image_embeddings, dtype=np.float64)
        if image_embeddings.shape[0] != dataset.num_samples:
            raise ValidationError("embedding row count does not match dataset size")
    return cosine_softmax_score(image_embeddings, bank, config, sample_ids=dataset.ids)


def save_embedding_bank(path, bank: ClassEmbeddingBank, fmt: str = "text") -> None:
    c, d = bank.embeddings.shape
    if codec.is_binary(fmt):
        prompt = bank.prompt_id.encode("utf-8")
        codec.write_binary(path, codec.BANK, (c, d, len(prompt)), prompt, bank.embeddings)
    else:
        header = {"C": c, "D": d, "PROMPT": bank.prompt_id}
        codec.write_text(path, codec.BANK, header, [[np.arange(c), bank.embeddings]])


def load_embedding_bank(path) -> ClassEmbeddingBank:
    """Text rows carry their class index (any order, each class once); the
    binary container stores the prompt and then the rows in class order."""
    with codec.read(path, codec.BANK) as reader:
        c, d = reader.counts[:2]
        if isinstance(reader, codec.BinaryReader):
            prompt = reader.text(reader.counts[2])
            (embeddings,) = reader.rows(c, [(float, d)])
        else:
            prompt = reader.header["PROMPT"]
            index, rows = reader.rows(c, [int, (float, d)])
            seen = np.zeros(c, dtype=bool)
            for i, j in enumerate(index.tolist()):
                if not 0 <= j < c or seen[j]:
                    raise FormatError(f"{reader.where(i)}: bad or repeated class index {j}")
                seen[j] = True
            embeddings = np.empty_like(rows)
            embeddings[index] = rows
        reader.end()
    return ClassEmbeddingBank(embeddings, prompt)


def load_embedding_table(path, dataset: Dataset) -> np.ndarray:
    """Load per-sample embeddings from a bank-format text file whose first
    column is the sample id; rows must match the dataset order exactly."""
    with codec.read(path, codec.EMBEDDING_TABLE) as reader:
        n, d = reader.counts
        ids, embeddings = reader.rows(n, [int, (float, d)])
        reader.end()
    check_ids(ids, dataset, f"{path}: embedding table")
    return embeddings
