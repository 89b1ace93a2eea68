"""Exception hierarchy shared across the package, and the range check every setting passes."""

import math
from dataclasses import MISSING, field, fields


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


def ranged(interval: str, default=MISSING):
    """A dataclass field whose value ``check_fields`` holds to ``interval``."""
    return field(default=default, metadata={"interval": interval})


def check_fields(obj) -> None:
    """``check_range`` on every ``ranged`` field of the dataclass ``obj``."""
    for f in fields(obj):
        if "interval" in f.metadata:
            check_range(f.name, getattr(obj, f.name), f.metadata["interval"])
