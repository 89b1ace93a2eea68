"""The artifact format every ``save_*``/``load_*`` pair shares.

Text artifacts are UTF-8: a header line ``#noiselens-<tag> v1 K=V ...``
followed by records, one per line, fields separated by commas. Every line
after the header is a record; a blank line is a record with no fields.
Header counts are integers in [0, MAX_COUNT], and a file holds exactly the
records its header declares. Floats are written as the shortest decimal
that parses back to the identical float64, so a text round trip is
bit-exact. A block of records is formatted a chunk of about
``CHUNK_FIELDS`` fields at a time. A block of two chunks or more is split
into contiguous row slices, one per usable CPU: the writing process
formats the first slice into the file, and a forked child formats each
other slice into an anonymous temporary file beside it, appended in order.
Each row is formatted on its own, so the bytes do not depend on the number
of processes.

Records are parsed in bulk by numpy's reader (``np.loadtxt``), one call
per block of records, into a table with one field per column. It accepts
integers as ASCII digits with an optional sign, and floats in the grammar
of ``float()`` without underscores or non-ASCII digits. Every float must be
finite: ``nan`` or ``inf`` in a float column, text or binary, or in a
header value read with ``TextReader.real``, is a ``FormatError`` naming the
line or record.

Binary artifacts are the ``NLNS`` container: the magic bytes, a
little-endian u16 version and u8 kind, the header counts packed with the
kind's struct format, then every column of every block in turn as
little-endian int64/float64 arrays, with nothing after the payload.
"""

import math
import os
import shutil
import signal
import struct
import tempfile
import warnings
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

MAGIC = b"NLNS"
BINARY_VERSION = 1

# The largest header count: numpy refuses an array of more int64/float64
# values, even one with no records, such as the (0, D) features of N=0.
MAX_COUNT = np.iinfo(np.intp).max // 8

# Fields formatted per step when writing a block of records, so the
# temporary Python objects stay small whatever the file size. A block of
# fewer than two chunks is formatted by the writing process alone.
CHUNK_FIELDS = 131072


@dataclass(frozen=True)
class Layout:
    """One artifact kind: its header tag, the header keys holding counts
    (in the order a binary header packs them), its other required header
    keys and, for kinds with a binary twin, the container kind and the
    struct format that packs the counts."""

    tag: str
    counts: tuple
    keys: tuple = ()
    kind: int = 0
    packing: str = ""


DATASET = Layout("dataset", ("N", "C", "D", "GT"), kind=1, packing="<QQQB")
SCORES = Layout("scores", ("N", "C"), kind=2, packing="<QQ")
# The binary bank also packs the byte length of the UTF-8 prompt that
# follows its counts.
BANK = Layout("bank", ("C", "D"), ("PROMPT",), kind=3, packing="<QQH")
# Per-sample embeddings reuse the bank header, with C counting samples.
EMBEDDING_TABLE = Layout("bank", ("C", "D"))
CLASSIFIER = Layout("clf", ("C", "D"), kind=4, packing="<QQ")
MASK = Layout("mask", ("N",), ("CRITERION", "THRESHOLD"))
TRANSITION = Layout("tm", ("C",))
PRIOR = Layout("prior", ("C", "TOTAL"))
CORRUPTION = Layout("corruption", ("N", "C", "FLIPPED"), ("KIND", "REALIZED"))


def fmt_float(x) -> str:
    """Shortest decimal string that parses back to the identical float64."""
    return repr(float(x))


def is_binary(fmt: str) -> bool:
    """True for a writer's 'binary', False for 'text'; any other format is
    rejected."""
    if fmt not in ("text", "binary"):
        raise ValidationError(f"unknown format {fmt!r}")
    return fmt == "binary"


def save(path, fmt: str, layout: Layout, header: dict, blocks) -> None:
    """Write ``header`` and ``blocks`` as text, or with ``fmt='binary'`` as
    the container holding the header's counts and then every column."""
    if is_binary(fmt):
        counts = [header[key] for key in layout.counts]
        write_binary(path, layout, counts, *chain.from_iterable(blocks))
    else:
        write_text(path, layout, header, blocks)


def read(path, layout: Layout):
    """A ``BinaryReader`` when the file starts with the container's magic
    bytes, else a ``TextReader``."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            return TextReader(path, layout)
    if not layout.kind:
        raise FormatError(f"{path}: binary container where a text {layout.tag} file is expected")
    return BinaryReader(path, layout)


def _column(spec) -> tuple:
    """A column spec is ``int`` or ``float`` (one field per record, read as a
    1-D array) or ``(int|float, width)`` (a run of fields, read as 2-D);
    returns its dtype and run width (``None`` for a single field)."""
    kind, run = spec if isinstance(spec, tuple) else (spec, None)
    return np.dtype(kind), run


# ---------------------------------------------------------------------------
# text
# ---------------------------------------------------------------------------


def write_text(path, layout: Layout, header: dict, blocks) -> None:
    """Write the header, then each block's rows in turn.

    ``header`` values are written with ``str``; pass floats through
    ``fmt_float``. A block is a list of equal-length columns: a 1-D array
    is one field per row, a 2-D array a run of fields. A block of several
    chunks is formatted by up to one process per usable CPU; a failed
    child raises ``OSError``, and no child outlives the call.
    """
    fields = " ".join(f"{key}={value}" for key, value in header.items())
    with open(path, "wb") as fh:
        fh.write(f"#noiselens-{layout.tag} v1 {fields}\n".encode("utf-8"))
        for columns in blocks:
            columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
            _write_block(path, fh, columns)


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where that is unknown or where
    processes cannot be forked."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _write_block(path, fh, columns: list) -> None:
    """Format one block's rows into ``fh``: the first row slice here, each
    other slice in a forked child, whose file is appended once it exits."""
    n = len(columns[0])
    step = max(1, CHUNK_FIELDS // max(1, sum(c.shape[1] for c in columns)))
    chunks = -(-n // step)
    workers = max(1, min(_usable_cpus(), chunks))
    bounds = [step * (chunks * i // workers) for i in range(workers)] + [n]
    children = []  # (pid, temporary file, first row, end row), in row order
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            children.append(_fork_rows(path, columns, lo, hi, step))
        _format_rows(fh, columns, bounds[0], bounds[1], step)
        while children:
            pid, tmp, lo, hi = children[0]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            with tmp:
                if 0 < code < 255:
                    raise OSError(code, os.strerror(code), str(path))
                if code:
                    raise OSError(
                        f"{path}: the process formatting rows {lo}-{hi} exited with status {code}"
                    )
                tmp.seek(0)
                shutil.copyfileobj(tmp, fh)
    finally:
        for pid, tmp, _, _ in children:
            tmp.close()
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork_rows(path, columns: list, lo: int, hi: int, step: int) -> tuple:
    """Fork a child that formats rows ``lo:hi`` into a new anonymous file in
    the directory of ``path`` and exits with 0, with the errno of the
    ``OSError`` that stopped it, or with 255 after any other exception."""
    tmp = tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path)))
    try:
        pid = os.fork()
    except BaseException:
        tmp.close()
        raise
    if pid == 0:
        code = 255
        try:
            _format_rows(tmp, columns, lo, hi, step)
            tmp.flush()
            code = 0
        except OSError as exc:
            code = exc.errno if 0 < (exc.errno or 0) < 255 else 255
        finally:
            os._exit(code)
    return pid, tmp, lo, hi


def _format_rows(out, columns: list, lo: int, hi: int, step: int) -> None:
    """Write rows ``lo:hi`` to the binary file ``out``, ``step`` rows at a
    time; ``hi - lo`` is a multiple of ``step`` unless ``hi`` ends the block."""
    for start in range(lo, hi, step):
        parts = [c[start : start + step].tolist() for c in columns]
        out.write("".join(
            [",".join(map(repr, chain.from_iterable(row))) + "\n" for row in zip(*parts)]
        ).encode("utf-8"))


class TextReader:
    """Reads one text artifact: the header on construction, then blocks of
    records with ``rows`` and a final ``end`` that rejects extra records.

    ``counts`` holds the layout's header counts in order; ``header`` maps
    every header key to its raw string.
    """

    def __init__(self, path, layout: Layout):
        self.path = path
        try:
            self._lines = Path(path).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: byte {exc.start}: {exc.reason}") from None
        if not self._lines:
            raise FormatError(f"{path}: empty file")
        self.header = _parse_header(self._lines[0], layout.tag, layout.counts + layout.keys)
        self.counts = tuple(self._count(key) for key in layout.counts)
        self._next = self._first = 1

    def _count(self, key: str) -> int:
        value = self.header[key]
        try:
            count = int(value)
        except ValueError:
            count = -1
        if not 0 <= count <= MAX_COUNT:
            raise FormatError(f"line 1: {key}={value!r} is not a count in [0, {MAX_COUNT}]")
        return count

    def real(self, key: str) -> float:
        try:
            value = float(self.header[key])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise FormatError(f"line 1: {key}={self.header[key]!r} is not a finite number")
        return value

    def where(self, i: int) -> str:
        """Location of record ``i`` of the last block read."""
        return f"line {self._first + i + 1}"

    def rows(self, n: int, columns, name: str = "record") -> list:
        """Parse the next ``n`` records into one array per column spec."""
        first = self._next
        lines = self._lines[first : first + n]
        if len(lines) < n:
            raise FormatError(
                f"{self.path}: header declares {first - 1 + n} records, "
                f"file has {len(self._lines) - 1}"
            )
        specs = list(map(_column, columns))
        width = sum(1 if run is None else run for _, run in specs)
        self._first, self._next = first, first + n
        for i, line in enumerate(lines):
            got = line.count(",") + 1 if line else 0
            if got != width:
                raise FormatError(f"{self.where(i)}: {name} has {got} fields, expected {width}")
        if n == 0 or width == 0:
            return [np.empty((n,) if run is None else (n, run), dtype) for dtype, run in specs]

        row = np.dtype(
            [(f"c{j}", dtype, () if run is None else (run,)) for j, (dtype, run) in enumerate(specs)]
        )
        try:
            table = _loadtxt(lines, row)
        except _REJECTED:
            raise self._bad_record(lines, row, specs, name) from None
        if len(table) != n:
            raise FormatError(f"{self.path}: parsed {len(table)} records, expected {n}")
        return _finite([np.ascontiguousarray(table[field]) for field in row.names], self.where, name)

    def _bad_record(self, lines, row: np.dtype, specs, name: str) -> FormatError:
        """The error for the first line of a block the reader rejects, naming
        its first rejected field."""
        kinds = [dtype for dtype, run in specs for _ in range(1 if run is None else run)]
        for i, line in enumerate(lines):
            if _parses(line, row):
                continue
            for j, (dtype, token) in enumerate(zip(kinds, line.split(","))):
                if not _parses(token, dtype):
                    what = "an integer" if dtype.kind == "i" else "a number"
                    return FormatError(f"{self.where(i)}: field {j + 1} is not {what}: {token!r}")
            return FormatError(f"{self.where(i)}: {name} does not parse")
        return FormatError(f"{self.path}: records do not parse")

    def end(self) -> None:
        if self._next != len(self._lines):
            raise FormatError(
                f"{self.path}: header declares {self._next - 1} records, "
                f"file has {len(self._lines) - 1}"
            )


def _finite(columns: list, where, name: str) -> list:
    """``columns`` as they are, unless a float column holds ``nan`` or
    ``inf``; then a FormatError names the first record that does."""
    bad = [
        ~(np.isfinite(col).all(axis=1) if col.ndim == 2 else np.isfinite(col))
        for col in columns
        if col.dtype.kind == "f"
    ]
    if bad:
        bad = np.logical_or.reduce(bad)
        if bad.any():
            raise FormatError(f"{where(int(np.argmax(bad)))}: {name} has a non-finite value")
    return columns


def _parse_header(line: str, tag: str, required) -> dict:
    parts = line.strip().split()
    expected = f"#noiselens-{tag}"
    if len(parts) < 2 or parts[0] != expected or parts[1] != "v1":
        raise FormatError(f"line 1: expected '{expected} v1' header, got {line.strip()!r}")
    header = {}
    for token in parts[2:]:
        if "=" not in token:
            raise FormatError(f"line 1: malformed header field {token!r}")
        key, value = token.split("=", 1)
        header[key] = value
    for key in required:
        if key not in header:
            raise FormatError(f"line 1: header missing {key}=")
    return header


# What the reader raises on a record it rejects. numpy 1.23-1.26 read an
# integer field that only parses as a float (``1.5``, ``1e3``, ``inf``, an
# int64 overflow) through a float and truncate it after a DeprecationWarning;
# ``_loadtxt`` raises that warning, so such a field is rejected, not truncated.
_REJECTED = (ValueError, OverflowError, DeprecationWarning)


def _loadtxt(lines, dtype: np.dtype) -> np.ndarray:
    """numpy's C reader over comma-separated records, one row per line."""
    with warnings.catch_warnings():
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _parses(token: str, dtype: np.dtype) -> bool:
    """True when the reader accepts ``token`` as one record of ``dtype``. An
    empty token is rejected here: the reader would skip it as a blank line."""
    if not token:
        return False
    try:
        _loadtxt([token], dtype)
    except _REJECTED:
        return False
    return True


# ---------------------------------------------------------------------------
# binary
# ---------------------------------------------------------------------------


def write_binary(path, layout: Layout, counts, *payload) -> None:
    """Container header, the ``counts`` packed as the layout says, then
    each payload item: bytes as-is, integer arrays as <i8, float arrays as
    <f8."""
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<HB", BINARY_VERSION, layout.kind))
        fh.write(struct.pack(layout.packing, *counts))
        for item in payload:
            if not isinstance(item, bytes):
                item = np.ascontiguousarray(item, dtype="<i8" if item.dtype.kind in "iu" else "<f8")
            fh.write(item)


class BinaryReader:
    """Reads one ``NLNS`` container front to back, with the same ``counts``,
    ``rows``, ``where`` and ``end`` as ``TextReader``; every read is
    bounds-checked and ``end`` rejects trailing bytes. ``read`` has matched
    the magic bytes, so reading starts after them."""

    def __init__(self, path, layout: Layout):
        self.path = path
        self._buf = memoryview(Path(path).read_bytes())
        self._offset = len(MAGIC)
        version, kind = self._unpack("<HB")
        if version != BINARY_VERSION:
            raise FormatError(f"{path}: unsupported binary version {version}")
        if kind != layout.kind:
            raise FormatError(f"{path}: binary container holds kind {kind}, expected {layout.kind}")
        self.counts = self._unpack(layout.packing)
        if max(self.counts) > MAX_COUNT:
            raise FormatError(f"{path}: header count {max(self.counts)} exceeds {MAX_COUNT}")

    def _take(self, size: int) -> memoryview:
        have = len(self._buf) - self._offset
        if size > have:
            raise FormatError(
                f"{self.path}: truncated: need {size} bytes at offset {self._offset}, have {have}"
            )
        self._offset += size
        return self._buf[self._offset - size : self._offset]

    def _unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self._take(struct.calcsize(fmt)))

    def text(self, size: int) -> str:
        try:
            return bytes(self._take(size)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: not UTF-8 text: {exc.reason}") from None

    def rows(self, n: int, columns, name: str = "record") -> list:
        """The next ``n`` records, stored column after column."""
        out = []
        for dtype, run in map(_column, columns):
            shape = (n,) if run is None else (n, run)
            raw = self._take(dtype.itemsize * math.prod(shape))
            out.append(np.frombuffer(raw, dtype.newbyteorder("<")).astype(dtype).reshape(shape))
        return _finite(out, self.where, name)

    def where(self, i: int) -> str:
        return f"{self.path}: record {i + 1}"

    def end(self) -> None:
        if self._offset != len(self._buf):
            raise FormatError(f"{self.path}: {len(self._buf) - self._offset} trailing bytes")
