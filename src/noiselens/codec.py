"""The artifact format every ``save_*``/``load_*`` pair shares.

Text artifacts are UTF-8: a header line ``#noiselens-<tag> v1 K=V ...``
followed by records, one per line, fields separated by commas. Every line
after the header is a record; a blank line is a record with no fields.
Header counts are integers in [0, MAX_COUNT], and a file holds exactly the
records its header declares. Floats are written as the shortest decimal
that parses back to the identical float64, so a text round trip is
bit-exact. A block of records of two ``CHUNK_FIELDS`` chunks or more is
split into contiguous row slices, one per usable CPU, formatted through
``parallel.forked``: the writing process formats the first slice into the
file, and each other slice's file, made beside it, is appended in order; a
slice whose child did not finish is formatted into the file in its place.
Each slice is formatted as many rows at a time as hold about
``PIECE_BYTES`` of Python objects, and each row on its own, so the bytes
depend neither on the number of processes nor on the step size.

A text file is read in pieces of whole lines, about ``PIECE_BYTES`` each,
so every piece ends just after a ``\\n`` byte and none splits a record, a
``\\r\\n`` or a UTF-8 sequence. A first pass checks the UTF-8, counts the
lines and records where each piece starts. It counts a piece of ASCII
whose only line break is ``\\n`` by its ``\\n`` bytes, and decodes and
splits any other piece as the parser does. Every later read, the header's
too, takes its pieces again with ``os.pread`` at those offsets, and a
piece whose size or line count is not what the first pass found means the
file changed while being read. Records are parsed a piece at a time by
numpy's reader (``np.loadtxt``) straight into their output columns, so
besides its arrays a load holds a few pieces (about 2 MiB): one piece's
text, lines and parsed table. A block of two ``CHUNK_FIELDS`` chunks or
more is parsed through ``parallel.forked``, as it is written: its columns
live in one shared anonymous mapping, the reading process parses the first
run of pieces, and each child parses another run in place; the reading
process's peak memory does not count the children's. The reading process
parses in place each run that no child finished; when a run does not parse,
it looks for the error a piece at a time, so every error is the one-process
error. A reader can parse a block's last column for some records only:
the other records' fields in that column are split off unparsed (text) or
skipped by seeking (binary), and every record's field count is checked
all the same. Reading by offset needs ``os.pread``, so a POSIX system. Under
``taskset -c 0`` a file is written and read by one process. The reader
accepts integers as ASCII digits with an optional sign, and floats in the
grammar of ``float()`` without underscores or non-ASCII digits, in records
and in header values alike. Every float must be finite: ``nan`` or ``inf``
in a float column, text or binary, or in a header value read with
``TextReader.real``, is a ``FormatError`` naming the line or record.
Readers are context managers: a loader's file is closed when it returns
or raises.

Binary artifacts are the ``NLNS`` container: the magic bytes, a
little-endian u16 version and u8 kind, the header counts packed with the
kind's struct format, then every column of every block in turn as
little-endian int64/float64 arrays, with nothing after the payload. A
binary load reads each column, or each run of the records it keeps,
straight into its array.
"""

import bisect
import math
import mmap
import os
import shutil
import struct
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import parallel
from .errors import FormatError, ValidationError, all_finite

MAGIC = b"NLNS"
BINARY_VERSION = 1

# The largest header count: numpy refuses an array of more int64/float64
# values, even one with no records, such as the (0, D) features of N=0.
MAX_COUNT = np.iinfo(np.intp).max // 8

# The fields of a chunk: a block of fewer than two chunks is formatted by
# the writing process alone, and a larger one is sliced at chunk bounds.
CHUNK_FIELDS = 131072

# The bytes of text read per step, or of objects a formatting step holds, so
# a load or a save holds a few pieces whatever the file size.
PIECE_BYTES = 1 << 20
# The longest formatted field with its separator: a float64's shortest repr
# takes at most 24 characters and an int64 at most 20.
FIELD_BYTES = 25


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
    bytes, else a ``TextReader``; use it in a ``with`` block."""
    with open(path, "rb") as fh:
        binary = fh.read(len(MAGIC)) == MAGIC
    if not binary:
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
    chunks is formatted by up to one process per usable CPU, with the
    bytes one process gives.
    """
    fields = " ".join(f"{key}={value}" for key, value in header.items())
    with open(path, "wb") as fh:
        fh.write(f"#noiselens-{layout.tag} v1 {fields}\n".encode("utf-8"))
        for columns in blocks:
            columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
            _write_block(path, fh, columns)


def _workers(n: int, width: int) -> tuple:
    """The rows of a chunk, the chunks of a block of ``n`` rows of ``width``
    fields, and the processes that write or read it: one per usable CPU, at
    most one per chunk, so a block of one chunk stays in one process."""
    step = max(1, CHUNK_FIELDS // max(1, width))
    chunks = -(-n // step)
    return step, chunks, max(1, min(parallel.usable_cpus(), chunks))


def _write_block(path, fh, columns: list) -> None:
    """Format one block's rows into ``fh``: the first row slice here, each
    other slice in a forked child, whose file is appended once it exits, or
    here in its place when the child did not finish."""
    n = len(columns[0])
    step, chunks, workers = _workers(n, sum(c.shape[1] for c in columns))
    bounds = [step * (chunks * i // workers) for i in range(workers)] + [n]
    slices = list(zip(bounds, bounds[1:]))
    here = os.path.dirname(os.path.abspath(path))
    with parallel.forked(slices, lambda rows, out: _format_rows(out, columns, *rows), here) as children:
        _format_rows(fh, columns, *slices[0])
        for rows, out in zip(slices[1:], children):
            if out is None:
                _format_rows(fh, columns, *rows)
            else:
                shutil.copyfileobj(out, fh)


def _format_rows(out, columns: list, lo: int, hi: int) -> None:
    """Write rows ``lo:hi`` to the binary file ``out``, as many rows at a
    time as hold at most ``PIECE_BYTES`` of objects: each field as a number
    object and its list slot, and its text in its row's string, in the
    joined text and in its bytes, about four times the text."""
    step = max(1, PIECE_BYTES // (4 * FIELD_BYTES * max(1, sum(c.shape[1] for c in columns))))
    for start in range(lo, hi, step):
        parts = [c[start : min(start + step, hi)].tolist() for c in columns]
        out.write("".join(
            [",".join(map(repr, chain.from_iterable(row))) + "\n" for row in zip(*parts)]
        ).encode("utf-8"))


class _Reader:
    """A reader is a context manager: leaving the ``with`` block closes it."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TextReader(_Reader):
    """Reads one text artifact: the header on construction, then blocks of
    records with ``rows`` and a final ``end`` that rejects extra records.

    ``counts`` holds the layout's header counts in order; ``header`` maps
    every header key to its raw string. The file stays open until ``close``.
    """

    def __init__(self, path, layout: Layout):
        self.path = path
        # The first pass reads lines from a 64 KiB buffer: with the default
        # 8 KiB one, the extra system calls make a large load about 5% slower.
        self._file = open(path, "rb", buffering=1 << 16)
        try:
            # Each piece's byte offset and first line (the header is line
            # 0), then the file's size and line count.
            self._offsets, self._starts = [0], [0]
            while chunk := b"".join(self._file.readlines(PIECE_BYTES)):
                try:
                    count = _line_count(chunk)
                except UnicodeDecodeError as exc:
                    at = self._offsets[-1] + exc.start
                    raise FormatError(f"{path}: not UTF-8 text: byte {at}: {exc.reason}") from None
                self._offsets.append(self._offsets[-1] + len(chunk))
                self._starts.append(self._starts[-1] + count)
            self._size, self._total = self._offsets[-1], self._starts[-1]
            if not self._total:
                raise FormatError(f"{path}: empty file")
            line = next(self._lines(0, 1))[0]
            self.header = _parse_header(line, layout.tag, layout.counts + layout.keys)
            self.counts = tuple(self._count(key) for key in layout.counts)
        except BaseException:
            self.close()
            raise
        self._first = self._line = 1

    def close(self) -> None:
        self._file.close()

    def _lines(self, start: int, end: int):
        """Lines ``start`` up to ``end``, a piece (or part of one) at a time,
        each piece read with ``os.pread`` where the first pass found it: a
        forked child shares its parent's file offset, so none is moved. A
        piece that is not what the first pass found is a ``FormatError``."""
        k = bisect.bisect_right(self._starts, start) - 1
        while self._starts[k] < end:
            lo, hi, first = self._offsets[k], self._offsets[k + 1], self._starts[k]
            data = os.pread(self._file.fileno(), hi - lo, lo)
            size = len(data)
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError:
                text = ""  # no lines, and every piece the first pass found has one
            data = None  # the text is split without the bytes
            lines, text = text.splitlines(), None
            if size != hi - lo or len(lines) != self._starts[k + 1] - first:
                raise FormatError(f"{self.path}: changed while being read")
            yield lines[max(0, start - first) : end - first]
            lines = None  # the next piece is read without this one
            k += 1

    def _count(self, key: str) -> int:
        value = self.header[key]
        try:  # the reader parses "1,0" as two fields, and int() rejects it
            count = int(value) if _parses(value, np.dtype(np.int64)) else -1
        except ValueError:
            count = -1
        if not 0 <= count <= MAX_COUNT:
            raise FormatError(f"line 1: {key}={value!r} is not a count in [0, {MAX_COUNT}]")
        return count

    def real(self, key: str) -> float:
        value = self.header[key]
        try:
            number = float(value) if _parses(value, np.dtype(np.float64)) else math.nan
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise FormatError(f"line 1: {key}={value!r} is not a finite number")
        return number

    def where(self, i: int) -> str:
        """Location of record ``i`` of the file, counting from 0."""
        return f"line {i + 2}"

    def _holds(self, n: int) -> None:
        """Raise unless the file holds ``n`` more records."""
        if self._total - self._line < n:
            raise FormatError(
                f"{self.path}: header declares {self._line - 1 + n} records, "
                f"file has {self._total - 1}"
            )

    def blocks(self, n: int, columns, bounds, name: str = "record"):
        """The next ``n`` records, as ``rows`` parses them, one ``(lo, hi)``
        block of ``bounds`` at a time: an iterator of each block's arrays. A
        file of fewer than ``n`` more records fails here, before any block."""
        self._holds(n)
        return (self.rows(hi - lo, columns, name) for lo, hi in bounds)

    def rows(self, n: int, columns, name: str = "record", keep=None) -> list:
        """Parse the next ``n`` records into one array per column spec, a
        piece of the file at a time. With ``keep``, ascending indices below
        ``n``, the last column is parsed for those records only, and its
        array holds their values in that order; every record's field count
        is checked all the same. The errors are those of checking the whole
        block at once: its first record with a wrong field count, else its
        first record whose parsed fields do not parse, else its first with a
        non-finite parsed value."""
        self._holds(n)
        first = self._line
        self._first, self._line = first, first + n
        specs = list(map(_column, columns))
        widths = [1 if run is None else run for _, run in specs]
        width = sum(widths)
        counts = [n] * (len(specs) - 1) + [n if keep is None else len(keep)]
        arrays = [((m,) if run is None else (m, run), dtype) for m, (dtype, run) in zip(counts, specs)]
        records = out = None
        # A record of w > 0 fields takes at least max(1, w - 1) bytes. A block
        # the file cannot hold is neither allocated nor parsed: one of its
        # records has a wrong field count, and that is the error.
        if n and width and n * max(1, width - 1) <= self._size:
            row = np.dtype([
                (f"c{j}", dtype, () if run is None else (run,)) for j, (dtype, run) in enumerate(specs)
            ])
            records = _Records(row, width, width - widths[-1], keep)
            out = self._parse(n, arrays, records, _workers(n, width)[2])
        if out is None:
            if n:
                self._serial(n, records, specs, width, name)
            out = [np.empty(shape, dtype) for shape, dtype in arrays]
        nonfinite = _first_nonfinite(out, keep)
        if nonfinite >= 0:
            raise FormatError(f"{self._where(nonfinite)}: {name} has a non-finite value")
        return out

    def _where(self, i: int) -> str:
        """Location of record ``i`` of the last block read."""
        return self.where(self._first - 1 + i)

    def _parse(self, n: int, arrays, records, workers: int):
        """The block's columns, parsed by ``_fill`` in up to ``workers``
        processes: by this process alone into new arrays, or into one shared
        anonymous mapping, this process parsing the first run of pieces and
        a forked child each other run, which this process parses in place
        when no child finished it. None when some run does not parse."""
        first, end = self._first, self._first + n
        starts, offsets = self._starts, self._offsets
        # The block's pieces are k0 up to k1; each run is a range of whole
        # pieces but for the first run's start and the last run's end.
        k0 = bisect.bisect_right(starts, first) - 1
        k1 = bisect.bisect_left(starts, end)
        lo, hi = offsets[k0], offsets[k1]
        cuts = sorted({
            bisect.bisect_left(offsets, lo + (hi - lo) * i // workers, k0 + 1, k1)
            for i in range(1, workers)
        } - {k1})
        if cuts:
            # Each column starts on 8 bytes, and the children's writes reach
            # the parent's pages of a shared mapping.
            sizes = [-(-math.prod(shape) * dtype.itemsize // 8) * 8 for shape, dtype in arrays]
            shared = mmap.mmap(-1, sum(sizes), flags=mmap.MAP_SHARED)
            out, at = [], 0
            for (shape, dtype), size in zip(arrays, sizes):
                out.append(np.frombuffer(shared, dtype, math.prod(shape), at).reshape(shape))
                at += size
        else:
            out = [np.empty(shape, dtype) for shape, dtype in arrays]
        bounds = [first] + [starts[k] for k in cuts] + [end]
        runs = [(start - first, self._lines(start, stop)) for start, stop in zip(bounds, bounds[1:])]
        try:
            with parallel.forked(runs, lambda run, _: _fill(out, records, *run)) as children:
                _fill(out, records, *runs[0])
                for run, child in zip(runs[1:], children):
                    if child is None:
                        _fill(out, records, *run)
        except (*_REJECTED, FormatError):
            return None
        return out

    def _serial(self, n: int, records, specs, width: int, name: str) -> None:
        """Raise the block's first record with a wrong field count, else its
        first record that does not parse, else that the file changed while
        being read; return only for a block of no fields whose records are
        all blank. ``records`` is None when the block was not parsed."""
        bad, done = None, 0
        for lines in self._lines(self._first, self._first + n):
            self._check_fields(lines, done, width, name)
            if bad is None and records is not None:
                try:
                    records.parse(lines, done)
                except _REJECTED:
                    bad = self._bad_record(lines, done, records, specs, name)
            done += len(lines)
            lines = None  # the next piece is read without this one
        if bad is not None:
            raise bad
        if width:
            raise FormatError(f"{self.path}: changed while being read")

    def _check_fields(self, lines, done: int, width: int, name: str) -> None:
        """Raise for the first of ``lines`` (records ``done`` on of the block)
        that does not hold ``width`` fields."""
        for i, line in enumerate(lines, done):
            got = line.count(",") + 1 if line else 0
            if got != width:
                raise FormatError(f"{self._where(i)}: {name} has {got} fields, expected {width}")

    def _bad_record(self, lines, done: int, records, specs, name: str) -> FormatError:
        """The error for the first of ``lines`` (records ``done`` on of the
        block) that the reader rejects, naming its first rejected field."""
        kinds = [dtype for dtype, run in specs for _ in range(1 if run is None else run)]
        for i, line in enumerate(lines, done):
            try:
                records.parse([line], i)
            except _REJECTED:
                lo, hi = records.kept(i, 1)
                parsed = kinds if hi > lo else kinds[: records.head]
            else:
                continue
            for j, (dtype, token) in enumerate(zip(parsed, line.split(","))):
                if not _parses(token, dtype):
                    what = "an integer" if dtype.kind == "i" else "a number"
                    return FormatError(f"{self._where(i)}: field {j + 1} is not {what}: {token!r}")
            return FormatError(f"{self._where(i)}: {name} does not parse")
        return FormatError(f"{self.path}: records do not parse")

    def end(self) -> None:
        if self._line != self._total:
            raise FormatError(
                f"{self.path}: header declares {self._line - 1} records, "
                f"file has {self._total - 1}"
            )


# The ASCII bytes besides "\n" that end a line for `str.splitlines`. Any
# other line break it knows ("\x85", "\u2028", "\u2029") is not ASCII.
_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


def _line_count(piece: bytes) -> int:
    """The number of lines `str.splitlines` finds in ``piece`` decoded as
    UTF-8. An ASCII piece whose only line break is ``\\n`` is counted on its
    bytes; any other piece is decoded, which raises `UnicodeDecodeError`
    for bytes that are not UTF-8."""
    if piece.isascii() and not any(b in piece for b in _BREAKS):
        n = piece.count(b"\n")
        return n + 1 if piece and not piece.endswith(b"\n") else n
    return len(piece.decode("utf-8").splitlines())


def _first_nonfinite(columns: list, keep=None) -> int:
    """The index of the first record holding ``nan`` or ``inf`` in a float
    column of ``columns``, or -1; with ``keep``, the last column holds the
    records at those indices only."""
    if keep is not None:
        head, last = _first_nonfinite(columns[:-1]), _first_nonfinite(columns[-1:])
        return min([i for i in (head, -1 if last < 0 else int(keep[last])) if i >= 0], default=-1)
    floats = [col for col in columns if col.dtype.kind == "f"]
    if all(map(all_finite, floats)):
        return -1
    bad = np.logical_or.reduce([
        ~(np.isfinite(col).all(axis=1) if col.ndim == 2 else np.isfinite(col)) for col in floats
    ])
    return int(np.argmax(bad)) if bad.any() else -1


@dataclass(frozen=True)
class _Records:
    """How a block's records of ``width`` fields are parsed: every field of
    ``row``, or with ``keep`` (ascending record indices) the last column
    only for those records and the first ``head`` fields for the others."""

    row: np.dtype
    width: int
    head: int
    keep: np.ndarray | None = None

    def kept(self, at: int, count: int) -> tuple:
        """The rows of the last column that records ``at`` up to
        ``at + count`` fill."""
        if self.keep is None:
            return at, at + count
        lo, hi = np.searchsorted(self.keep, (at, at + count))
        return int(lo), int(hi)

    def parse(self, lines: list, at: int) -> tuple:
        """Parse ``lines``, records ``at`` on: a table of every record's
        fields but the last column's, and a table of the kept records'
        fields with the rows ``lo:hi`` of the last column they fill. Raise
        one of ``_REJECTED`` when the reader does not read every line whole,
        or when a record of a partly kept piece has a wrong field count."""
        lo, hi = self.kept(at, len(lines))
        if hi - lo == len(lines):
            heads = table = _loadtxt(lines, self.row)
        else:
            if any(line.count(",") != self.width - 1 for line in lines):
                raise ValueError("a record of another field count")
            heads = _loadtxt(
                [",".join(line.split(",", self.head)[: self.head]) for line in lines],
                np.dtype([(name, self.row[name]) for name in self.row.names[:-1]]),
            )
            kept = [lines[i - at] for i in self.keep[lo:hi]]
            table = _loadtxt(kept, self.row) if kept else heads[:0]
        if len(heads) != len(lines) or len(table) != hi - lo:
            raise ValueError("a blank line is not a record of the row")
        return heads, table, lo, hi


def _fill(out: list, records: _Records, at: int, pieces) -> None:
    """Parse each list of lines in ``pieces`` as ``records`` into ``out``,
    from record ``at`` on; raise one of ``_REJECTED`` at the first piece
    that does not parse, and the ``FormatError`` of a changed file at one
    that ``pieces`` cannot read again."""
    *names, last = records.row.names
    for lines in pieces:
        heads, table, lo, hi = records.parse(lines, at)
        for col, field in zip(out, names):
            col[at : at + len(lines)] = heads[field]
        if hi > lo:
            out[-1][lo:hi] = table[last]
        at += len(lines)
        lines = heads = table = None  # the next piece is read without this one


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
        if key in header:
            raise FormatError(f"line 1: duplicate header field {key!r}")
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
    """numpy's C reader over comma-separated records, one row per line. Its
    warning for lines that are all blank is dropped: the caller reports
    each blank line as a record of no fields."""
    with warnings.catch_warnings():
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
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


class BinaryReader(_Reader):
    """Reads one ``NLNS`` container front to back, with the same ``counts``,
    ``rows``, ``where``, ``end`` and ``close`` as ``TextReader``; every read
    is bounds-checked against the file's size, and ``end`` rejects trailing
    bytes. ``read`` has matched the magic bytes, so reading starts after
    them. Each column is read straight into its array."""

    def __init__(self, path, layout: Layout):
        self.path = path
        self._file = open(path, "rb")
        try:
            self._size = os.fstat(self._file.fileno()).st_size
            self._offset = self._file.seek(len(MAGIC))
            version, kind = self._unpack("<HB")
            if version != BINARY_VERSION:
                raise FormatError(f"{path}: unsupported binary version {version}")
            if kind != layout.kind:
                raise FormatError(f"{path}: binary container holds kind {kind}, expected {layout.kind}")
            self.counts = self._unpack(layout.packing)
            if max(self.counts) > MAX_COUNT:
                raise FormatError(f"{path}: header count {max(self.counts)} exceeds {MAX_COUNT}")
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        self._file.close()

    def _bound(self, size: int) -> int:
        """``size``, counted as read once the file is known to hold that many
        more bytes; call it before allocating what they are read into."""
        have = self._size - self._offset
        if size > have:
            raise FormatError(
                f"{self.path}: truncated: need {size} bytes at offset {self._offset}, have {have}"
            )
        self._offset += size
        return size

    def _read_into(self, buffer) -> None:
        """Read the next bytes into the whole of the writable ``buffer``."""
        if self._file.readinto(buffer) != memoryview(buffer).nbytes:
            raise FormatError(f"{self.path}: changed while being read")

    def _take(self, size: int) -> bytes:
        data = bytearray(self._bound(size))
        self._read_into(data)
        return bytes(data)

    def _unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self._take(struct.calcsize(fmt)))

    def text(self, size: int) -> str:
        try:
            return self._take(size).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: not UTF-8 text: {exc.reason}") from None

    def rows(self, n: int, columns, name: str = "record", keep=None) -> list:
        """The next ``n`` records, stored column after column. With ``keep``,
        as for ``TextReader.rows``, the last column is read for those records
        only: the bytes of the others are skipped by seeking."""
        out = []
        specs = list(map(_column, columns))
        for j, (dtype, run) in enumerate(specs):
            shape = (n,) if run is None else (n, run)
            start = self._offset
            self._bound(dtype.itemsize * math.prod(shape))
            if keep is None or j < len(specs) - 1:
                col = np.empty(shape, dtype.newbyteorder("<"))
                self._read_into(col)
            else:
                col = np.empty((len(keep), *shape[1:]), dtype.newbyteorder("<"))
                size = dtype.itemsize * math.prod(shape[1:])  # bytes per record
                # One seek and one read per run of consecutive kept records.
                cuts = (np.flatnonzero(np.diff(keep) != 1) + 1).tolist()
                bounds = [0, *cuts, len(keep)] if len(keep) else []
                for lo, hi in zip(bounds, bounds[1:]):
                    self._file.seek(start + int(keep[lo]) * size)
                    self._read_into(col[lo:hi])
                self._file.seek(self._offset)
            out.append(col.astype(dtype, copy=False))
        i = _first_nonfinite(out, keep)
        if i >= 0:
            raise FormatError(f"{self.where(i)}: {name} has a non-finite value")
        return out

    def blocks(self, n: int, columns, bounds, name: str = "record"):
        """The next ``n`` records, as ``rows`` reads them, one ``(lo, hi)``
        block of ``bounds`` at a time: an iterator of each block's arrays.
        Every column but the last is read here whole, and the last is checked
        against the file's size here; each block's rows of it are read at
        their offset."""
        *head, last = columns
        head = self.rows(n, head, name)
        dtype, run = _column(last)
        shape = () if run is None else (run,)
        start, size = self._offset, dtype.itemsize * math.prod(shape)  # bytes per record
        self._bound(n * size)

        def block(lo, hi):
            col = np.empty((hi - lo, *shape), dtype.newbyteorder("<"))
            self._file.seek(start + lo * size)
            self._read_into(col)
            i = _first_nonfinite([col])
            if i >= 0:
                raise FormatError(f"{self.where(lo + i)}: {name} has a non-finite value")
            return col.astype(dtype, copy=False)

        return ([c[lo:hi] for c in head] + [block(lo, hi)] for lo, hi in bounds)

    def where(self, i: int) -> str:
        return f"{self.path}: record {i + 1}"

    def end(self) -> None:
        if self._offset != self._size:
            raise FormatError(f"{self.path}: {self._size - self._offset} trailing bytes")
