"""Exception hierarchy shared across the package, and the checks of every
setting: ``check_fields`` (ranges and arrays) and ``check_reads``."""

import math
from dataclasses import MISSING, field, fields

import numpy as np


class NoiseLensError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(NoiseLensError):
    """A file could not be parsed; the message carries the offending line."""


class ValidationError(NoiseLensError):
    """Inputs are structurally readable but violate a semantic contract."""


class TrainingDivergedError(NoiseLensError):
    """The optimizer produced a non-finite loss; message carries epoch/step."""


class RangeError(ValidationError):
    """A setting outside its interval; ``name`` is the setting's name, which
    a caller that knows where the value came from may replace."""

    def __init__(self, name: str, value, interval: str):
        super().__init__(f"{name} {value!r} must lie in {interval}")
        self.name, self.value, self.interval = name, value, interval


def check_range(name: str, value, interval: str) -> None:
    """Accept ``value`` only when it is finite and inside ``interval``,
    written like ``"[0, 1)"``: a bracket includes its end, a parenthesis
    excludes it, and ``inf`` leaves a side open. NaN fails every test."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    below = value <= high if interval[-1] == "]" else value < high
    if not (above and below and -math.inf < value < math.inf):
        raise RangeError(name, value, interval)


def check_reads(given: dict, readers: dict, chosen, names: dict) -> None:
    """Raise `<setting> requires <options>` for the first setting, in the order
    of ``readers`` (setting -> the options that read it), that ``given`` sets
    (not None) and no ``chosen`` option reads. ``names`` spells settings and
    options, or a whole tuple of options; what it lacks is spelled as itself."""
    for setting, options in readers.items():
        if given.get(setting) is not None and set(options).isdisjoint(chosen):
            need = names.get(options) or " or ".join(names.get(o, o) for o in options)
            raise ValidationError(f"{names.get(setting, setting)} requires {need}")


def ranged(interval: str, default=MISSING, **metadata):
    """A dataclass field whose value ``check_fields`` holds to ``interval``,
    with ``metadata`` for other readers."""
    return field(default=default, metadata={"interval": interval, **metadata})


def array(kind, *axes, default=MISSING, noun: str = "", optional: bool = False):
    """A dataclass field holding an array of ``kind`` (``int`` or ``float``)
    with one dimension per entry of ``axes``: a literal length, or a name
    whose length every field of the object that uses it must share.
    ``noun`` names an entry in the non-finite message (default: the field
    name). A field declared ``optional``, or whose default is None, may be
    None."""
    optional = optional or default is None
    return field(default=default, metadata={"array": (kind, axes, noun), "optional": optional})


def _freeze(arr, dtype) -> np.ndarray:
    """``arr`` as a read-only C-contiguous ``dtype`` array. An input of that
    layout and dtype is kept, not copied, and is marked read-only in place,
    so the caller's own array becomes read-only too; any other input is
    copied once. Callers check shapes first: a 0-d input comes back as a
    1-element array."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    arr.flags.writeable = False
    return arr


def all_finite(arr: np.ndarray) -> bool:
    """True when no value of ``arr`` is ``nan`` or infinite. A sum is finite
    only when every term is, so the usual all-finite array is checked
    without a mask of its size."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(arr.sum()) or np.isfinite(arr).all())


# Array kind -> stored dtype and the numpy casting rule an input must pass.
_DTYPES = {int: (np.int64, "safe"), float: (np.float64, "same_kind")}


def check_kind(name: str, value, kind) -> np.ndarray:
    """``value`` as an array whose dtype casts to that of ``kind`` (``int``:
    int64, ``float``: float64) without loss of kind: an integer array never
    truncates a float. An empty input has nothing to truncate. The result is
    not converted yet."""
    try:
        arr = np.asarray(value)
    except ValueError:
        raise ValidationError(f"{name} is not a rectangular array") from None
    dtype, casting = _DTYPES[kind]
    if arr.size and not np.can_cast(arr.dtype, dtype, casting):
        raise ValidationError(f"{name} must hold {kind.__name__} values, not {arr.dtype}")
    return arr


def _check_array(name: str, value, kind, axes: tuple, noun: str, lengths: dict) -> np.ndarray:
    """``value`` as the frozen array that an ``array(kind, *axes)`` field
    declares, recording the length of each named axis in ``lengths``."""
    arr = check_kind(name, value, kind)
    if arr.ndim != len(axes):
        raise ValidationError(f"{name} must be a {len(axes)}-D array, not {arr.ndim}-D")
    for i, (axis, length) in enumerate(zip(axes, arr.shape)):
        want = axis if isinstance(axis, int) else lengths.setdefault(axis, length)
        if length != want:
            raise ValidationError(f"{name} axis {i} has length {length}, expected {want}")
    if kind is float and not all_finite(arr):
        raise ValidationError(f"non-finite {noun or name}")
    return _freeze(arr, _DTYPES[kind][0])


def check_fields(obj) -> None:
    """Hold every ``ranged`` field of the dataclass ``obj`` to its interval,
    and replace every ``array`` field with its checked, frozen array."""
    lengths = {}
    for f in fields(obj):
        if "interval" in f.metadata:
            check_range(f.name, getattr(obj, f.name), f.metadata["interval"])
        elif "array" in f.metadata:
            value = getattr(obj, f.name)
            if value is not None or not f.metadata["optional"]:
                checked = _check_array(f.name, value, *f.metadata["array"], lengths)
                object.__setattr__(obj, f.name, checked)
