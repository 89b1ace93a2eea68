"""Synthetic benchmarks: Gaussian blob datasets, label-corruption models,
and ground-truth-aware quality metrics.

Three corruption models are provided. Symmetric noise resamples a chosen
fraction of labels uniformly over *all* classes (so a resampled label can
land back on the true class, and the effective flip rate is
rate * (C-1) / C). Asymmetric noise flips each mapped class to a fixed
target class with the given probability. Instance-dependent noise gives
every sample its own flip budget and distributes it across wrong classes
by how strongly the sample's features project onto per-class directions.

`inject_noise` returns the corrupted dataset together with a record of
what actually happened (flips, realized rate, realized transition matrix),
so experiments can report against the truth instead of the nominal knobs.
"""

from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import codec
from .data import Dataset, ScoreMatrix, check_ids
from .errors import ValidationError, array, check_fields, check_range, check_reads, ranged
from .selection import SelectionMask

NOISE_KINDS = ("symmetric", "asymmetric", "instance_dependent")

CORRECT_PROB_RANGE = "(0, 1]"  # the true-class probability of `oracle_scores`


@dataclass(frozen=True)
class NoiseSpec:
    """Which corruption model to run and with what knobs. Each knob states
    its default, its interval and the noise ``models`` that read it."""

    kind: str
    rate: float = ranged("[0, 1)", 0.2, models=NOISE_KINDS)
    seed: int = ranged("[0, inf)", 0, models=NOISE_KINDS)
    pair_map: Optional[dict] = field(default=None, metadata={"models": ("asymmetric",)})
    # Width and clipping range of the per-sample flip-budget distribution.
    budget_sd: float = ranged("[0, inf)", 0.1, models=("instance_dependent",))
    budget_bounds: tuple = field(default=(0.0, 1.0), metadata={"models": ("instance_dependent",)})

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValidationError(f"unknown noise kind {self.kind!r}")
        check_fields(self)
        lo, hi = self.budget_bounds
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValidationError("budget_bounds must satisfy 0 <= lo <= hi <= 1")
        if self.kind == "asymmetric":
            if not self.pair_map:
                raise ValidationError("asymmetric noise requires a pair_map")
            for src, dst in self.pair_map.items():
                if src == dst:
                    raise ValidationError(
                        f"pair_map maps class {src} to itself; flips must change the label"
                    )


@dataclass(frozen=True)
class CorruptionRecord:
    """What a corruption run actually did, measured after the fact."""

    flipped_ids: np.ndarray = array(int, "F")
    realized_rate: float = ranged("[0, 1]")
    realized_transition: np.ndarray = array(float, "C", "C")
    num_samples: int = ranged("[1, inf)")

    __post_init__ = check_fields

    @property
    def num_flipped(self) -> int:
        return int(self.flipped_ids.size)


@dataclass(frozen=True)
class BlobSpec:
    """The sizes, spread and seed of a `make_blobs` dataset, with the synth
    defaults and the limits: the features must fit an array numpy can shape."""

    classes: int = 2
    per_class: int = 50
    dim: int = 8
    separation: float = ranged("[0, inf)", 3.0)
    seed: int = ranged("[0, inf)", 0)

    def __post_init__(self):
        if self.classes < 2 or self.dim < 1 or self.per_class < 1:
            raise ValidationError("need at least 2 classes, 1 dimension and 1 sample per class")
        if self.classes * self.per_class * self.dim > codec.MAX_COUNT:
            raise ValidationError(
                f"{self.classes} classes x {self.per_class} samples x {self.dim} dimensions "
                f"exceed {codec.MAX_COUNT} feature values"
            )
        check_fields(self)


# The generator annotation is quoted: evaluated, it would import numpy.random
# into every process that imports the package.
def _blob_means(rng: "np.random.Generator", num_classes: int, dim: int, separation: float) -> np.ndarray:
    """Class means: axis-aligned for the first min(C, d) classes, random
    unit directions for any excess classes."""
    means = np.zeros((num_classes, dim))
    axis_count = min(num_classes, dim)
    extra = num_classes - axis_count
    if extra > 0:
        raw = rng.standard_normal((extra, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        means[axis_count:] = separation * raw
    for k in range(axis_count):
        means[k, k] = separation
    return means


def blob_means(num_classes: int, dim: int, separation: float, seed: int = 0) -> np.ndarray:
    """The exact class means `make_blobs` uses for the same arguments."""
    BlobSpec(num_classes, 1, dim, separation, seed)
    return _blob_means(np.random.default_rng(seed), num_classes, dim, separation)


def make_blobs(
    num_classes: int,
    per_class: int,
    dim: int,
    separation: float,
    seed: int = 0,
) -> Dataset:
    """Balanced unit-variance Gaussian blobs with known class means.

    Samples are grouped by class (ids 0..N-1 in class order) and start out
    uncorrupted: noisy labels equal the true ones until an injector runs.
    The draws land in the returned array and each class's block gets its
    mean added in place, so the features are held once.
    """
    BlobSpec(num_classes, per_class, dim, separation, seed)
    rng = np.random.default_rng(seed)
    means = _blob_means(rng, num_classes, dim, separation)
    n = num_classes * per_class
    labels = np.repeat(np.arange(num_classes), per_class)
    features = rng.standard_normal((n, dim))
    blocks = features.reshape(num_classes, per_class, dim)
    blocks += means[:, None, :]
    return Dataset(
        num_classes=num_classes,
        ids=np.arange(n),
        features=features,
        noisy_labels=labels.copy(),
        true_labels=labels.copy(),
    )


def check_pair_map(pair_map: dict, num_classes: int) -> None:
    """Every class an asymmetric pair map names must exist."""
    for src, dst in pair_map.items():
        if not (0 <= src < num_classes and 0 <= dst < num_classes):
            raise ValidationError(
                f"pair_map entry {src}->{dst} is out of range for {num_classes} classes"
            )


def parse_pair_map(text: str, num_classes: int) -> dict:
    """'src:dst,src:dst' pairs, or 'cycle' for i -> (i+1) mod C."""
    if text == "cycle":
        return {i: (i + 1) % num_classes for i in range(num_classes)}
    pairs = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ValidationError(f"pair_map entry {chunk!r} must look like 'src:dst'")
        src_text, dst_text = chunk.split(":", 1)
        try:
            src, dst = int(src_text), int(dst_text)
        except ValueError:
            raise ValidationError(f"pair_map entry {chunk!r} has non-integer classes") from None
        if src in pairs:
            raise ValidationError(f"pair_map lists class {src} twice")
        pairs[src] = dst
    if not pairs:
        raise ValidationError("pair_map is empty")
    check_pair_map(pairs, num_classes)
    return pairs


def default_noise_seed(blob_seed: int) -> int:
    """The noise seed of a synth dataset that names none."""
    return blob_seed + 1


def noise_spec(kind: str, blobs: BlobSpec, knobs: dict, names: dict) -> Optional[NoiseSpec]:
    """The noise model ``kind`` ("none": None) on ``blobs``, from the knobs a
    front end was given (field name -> value or None; ``pair_map`` and
    ``budget_bounds`` as text). A knob that ``kind`` does not read is spelled
    as ``names`` spells each field and model choice: `--pair-map requires
    --noise asym`. Other errors name the field: `rate 2.0 must lie in [0, 1)`."""
    if kind != "none" and kind not in NOISE_KINDS:
        raise ValidationError(f"unknown noise kind {kind!r}")
    readers = {f.name: f.metadata["models"] for f in fields(NoiseSpec)[1:]}
    check_reads(knobs, readers, (kind,), {**names, NOISE_KINDS: names["kind"]})
    if kind == "none":
        return None
    given = {name: value for name, value in knobs.items() if value is not None}
    if "pair_map" in given:
        given["pair_map"] = parse_pair_map(given["pair_map"], blobs.classes)
    if "budget_bounds" in given:
        text = given["budget_bounds"]
        try:
            low, high = (float(part) for part in text.split(","))
        except ValueError:
            raise ValidationError(f"budget_bounds {text!r} must be two numbers 'low,high'") from None
        given["budget_bounds"] = (low, high)
    return NoiseSpec(kind, **{"seed": default_noise_seed(blobs.seed), **given})


def _require_ground_truth(dataset: Dataset, what: str) -> None:
    if not dataset.has_ground_truth:
        raise ValidationError(f"{what} requires ground-truth labels")


def _finish(dataset: Dataset, noisy: np.ndarray) -> tuple:
    """Assemble the corrupted dataset and its measured record."""
    truth = dataset.true_labels
    flipped = noisy != truth
    c = dataset.num_classes
    transition = np.zeros((c, c))
    for i in range(c):
        members = truth == i
        count = int(members.sum())
        if count == 0:
            transition[i] = 1.0 / c
        else:
            transition[i] = np.bincount(noisy[members], minlength=c) / count
    corrupted = replace(dataset, noisy_labels=noisy)
    record = CorruptionRecord(
        flipped_ids=dataset.ids[flipped],
        realized_rate=float(flipped.mean()),
        realized_transition=transition,
        num_samples=dataset.num_samples,
    )
    return corrupted, record


def _symmetric(dataset: Dataset, spec: NoiseSpec) -> tuple:
    """Resample a `rate` fraction of labels uniformly over all classes.

    Expected transition matrix: 1 - rate*(C-1)/C on the diagonal, rate/C
    elsewhere.
    """
    rng = np.random.default_rng(spec.seed)
    n = dataset.num_samples
    chosen = rng.random(n) < spec.rate
    resampled = rng.integers(0, dataset.num_classes, size=n)
    noisy = np.where(chosen, resampled, dataset.true_labels)
    return _finish(dataset, noisy)


def _asymmetric(dataset: Dataset, spec: NoiseSpec) -> tuple:
    """Flip each mapped class to its fixed partner with probability `rate`;
    classes absent from the map never flip."""
    check_pair_map(spec.pair_map, dataset.num_classes)
    rng = np.random.default_rng(spec.seed)
    truth = dataset.true_labels
    noisy = truth.copy()
    flip = rng.random(dataset.num_samples) < spec.rate
    for src, dst in spec.pair_map.items():
        members = (truth == src) & flip
        noisy[members] = dst
    return _finish(dataset, noisy)


def _instance_dependent(dataset: Dataset, spec: NoiseSpec) -> tuple:
    """Feature-driven corruption with a per-sample flip budget.

    Each sample draws a budget q from a truncated normal centered on
    `rate`; its wrong-class probabilities are q times a softmax over the
    projections of its features onto random per-class directions, and the
    true class keeps 1 - q.
    """
    rng = np.random.default_rng(spec.seed)
    n, d = dataset.features.shape
    c = dataset.num_classes
    lo, hi = spec.budget_bounds

    if lo == hi:
        budgets = np.full(n, lo)
    elif spec.budget_sd == 0:
        budgets = np.full(n, min(max(spec.rate, lo), hi))
    else:
        # Imported here, the only caller: scipy.stats costs about a second
        # at import, which every other command would otherwise pay.
        from scipy import stats

        a = (lo - spec.rate) / spec.budget_sd
        b = (hi - spec.rate) / spec.budget_sd
        budgets = stats.truncnorm.rvs(
            a, b, loc=spec.rate, scale=spec.budget_sd, size=n, random_state=rng
        )

    projections = rng.standard_normal((c, d))
    logits = dataset.features @ projections.T
    truth = dataset.true_labels
    rows = np.arange(n)
    logits[rows, truth] = -np.inf
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=1, keepdims=True)

    probs = weights * budgets[:, None]
    probs[rows, truth] = 1.0 - budgets

    cdf = np.cumsum(probs, axis=1)
    u = rng.random(n)
    noisy = (u[:, None] > cdf).sum(axis=1).astype(np.int64)
    np.minimum(noisy, c - 1, out=noisy)
    return _finish(dataset, noisy)


def inject_noise(dataset: Dataset, spec: NoiseSpec) -> tuple:
    """Corrupt the labels of ``dataset`` with the model ``spec.kind`` names;
    returns (corrupted dataset, CorruptionRecord)."""
    _require_ground_truth(dataset, "label corruption")
    if spec.kind == "symmetric":
        return _symmetric(dataset, spec)
    if spec.kind == "asymmetric":
        return _asymmetric(dataset, spec)
    return _instance_dependent(dataset, spec)


@dataclass(frozen=True)
class SelectionQuality:
    """Precision/recall/F1 of a selection mask against ground truth, where
    a 'positive' is a sample whose noisy label matches its true label."""

    precision: float
    recall: float
    f1: float
    selected: int
    actually_clean: int
    true_positives: int


def selection_quality(mask: SelectionMask, dataset: Dataset) -> SelectionQuality:
    """Score the mask's verdicts against the dataset's ground truth."""
    _require_ground_truth(dataset, "selection scoring")
    check_ids(mask.sample_ids, dataset, "mask")
    clean = dataset.noisy_labels == dataset.true_labels
    chosen = mask.verdicts
    tp = int((chosen & clean).sum())
    selected = int(chosen.sum())
    actual = int(clean.sum())
    precision = tp / selected if selected else 0.0
    recall = tp / actual if actual else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return SelectionQuality(
        precision=precision,
        recall=recall,
        f1=f1,
        selected=selected,
        actually_clean=actual,
        true_positives=tp,
    )


def oracle_scores(dataset: Dataset, correct_prob: float = 1.0) -> ScoreMatrix:
    """Ground-truth score rows: `correct_prob` on the true class and the
    remainder spread evenly over the others. correct_prob=1 gives one-hot
    rows; useful as a best-case surrogate in benchmarks."""
    _require_ground_truth(dataset, "oracle scoring")
    check_range("correct_prob", correct_prob, CORRECT_PROB_RANGE)
    n, c = dataset.num_samples, dataset.num_classes
    values = np.full((n, c), (1.0 - correct_prob) / (c - 1))
    values[np.arange(n), dataset.true_labels] = correct_prob
    return ScoreMatrix(values=values, sample_ids=dataset.ids)


def save_corruption_record(path, record: CorruptionRecord, spec: NoiseSpec) -> None:
    """Write the record plus the nominal spec as `#noiselens-corruption v1`:
    one row of flipped ids (blank when none flipped), then the C rows of the
    realized transition matrix."""
    header = {
        "N": record.num_samples,
        "C": record.realized_transition.shape[0],
        "KIND": spec.kind,
        "RATE": codec.fmt_float(spec.rate),
        "SEED": spec.seed,
        "FLIPPED": record.num_flipped,
        "REALIZED": codec.fmt_float(record.realized_rate),
    }
    blocks = [[record.flipped_ids[None, :]], [record.realized_transition]]
    codec.write_text(path, codec.CORRUPTION, header, blocks)


def load_corruption_record(path) -> tuple:
    """Read a corruption record; returns (record, header_dict)."""
    with codec.read(path, codec.CORRUPTION) as reader:
        n, c, flipped_count = reader.counts
        realized = reader.real("REALIZED")
        (flipped,) = reader.rows(1, [(int, flipped_count)], "flipped-id row")
        (transition,) = reader.rows(c, [(float, c)], "transition row")
        reader.end()
    record = CorruptionRecord(
        flipped_ids=flipped[0],
        realized_rate=realized,
        realized_transition=transition,
        num_samples=n,
    )
    return record, reader.header
