"""Checks shared by every input boundary of the package: the reader of the
sequence file format (`read_records`, `LineReader`, `numbers`), config values
(`parse_like`), and the arrays and scalars of constructors and entry points.
Every check raises ValueError naming what it checked.
"""

import numbers as _numbers

import numpy as np


class LineReader:
    """The lines of a text file, handed out in order to a format's parser."""

    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def next(self, what: str) -> str:
        """The next line; ValueError naming `what` at the end of the file."""
        if self.pos >= len(self.lines):
            raise ValueError(f"unexpected end of file while reading {what}")
        self.pos += 1
        return self.lines[self.pos - 1]

    def header(self, magic: str, sizes: str) -> list:
        """The integers after `magic` on the first line, one per field of
        `sizes` (e.g. '<V> <C>'); ValueError for any other first line."""
        tokens = (self.lines[0] if self.lines else "").split()
        self.pos = 1
        cut = len(magic.split())
        if tokens[:cut] != magic.split() or len(tokens) != cut + len(sizes.split()):
            raise ValueError(f"malformed header (expected '{magic} {sizes}')")
        return numbers(tokens[cut:], int, "header sizes")


def numbers(tokens, kind, what: str) -> list:
    """The tokens parsed by `kind` (int or float); ValueError naming `what`
    and quoting the first eight tokens if one does not parse."""
    try:
        return [kind(x) for x in tokens]
    except ValueError:
        shown = " ".join(tokens[:8]) + (" ..." if len(tokens) > 8 else "")
        raise ValueError(f"malformed {what} {shown!r}: expected "
                         + ("integers" if kind is int else "numbers")) from None


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def parse_like(text: str, like):
    """text parsed as the type of `like`: a boolean (1/0, true/false, yes/no,
    on/off), an integer or a number; for any other `like`, text as it is."""
    if isinstance(like, bool):
        if text.lower() in _TRUE | _FALSE:
            return text.lower() in _TRUE
        raise ValueError(f"expected a boolean, got {text!r}")
    for kind, name in ((int, "an integer"), (float, "a number")):
        if isinstance(like, kind):
            try:
                return kind(text)
            except ValueError:
                raise ValueError(f"expected {name}, got {text!r}") from None
    return text


def read_text(path, encoding: str) -> str:
    """The file at `path` decoded from `encoding` (e.g. 'ASCII'); ValueError
    starting with '<path>: ' for a byte that does not decode."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: non-{encoding} byte {data[exc.start]:#04x} "
                         f"at offset {exc.start}") from None


def read_records(path, parse):
    """parse(reader) over the lines of the ASCII text file at `path`.  Only
    blank lines may follow the last line the parser reads.  A malformed
    record, a non-ASCII byte or a line past the last record raises
    ValueError starting with '<path>: '."""
    rd = LineReader(read_text(path, "ASCII").splitlines())
    try:
        out = parse(rd)
        extra = [k for k in range(rd.pos, len(rd.lines)) if rd.lines[k].strip()]
        if extra:
            raise ValueError(f"records past the declared count, from line {extra[0] + 1}")
        return out
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


_NOT_REAL = {"c": "complex numbers", "S": "bytes", "U": "strings"}


def _real(value, name: str) -> np.ndarray:
    """value as a float array; ValueError for complex, bytes or string
    entries, which a float conversion would truncate or parse."""
    arr = np.asarray(value)
    if arr.dtype.kind in _NOT_REAL:
        raise ValueError(f"{name} must hold real numbers, not {_NOT_REAL[arr.dtype.kind]}")
    return arr.astype(float, copy=False)


def finite(value, name: str) -> np.ndarray:
    """value as a float array; ValueError unless every entry is a finite
    real number."""
    arr = _real(value, name)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def negative(value, name: str) -> np.ndarray:
    """value as a float array; ValueError unless every entry is a finite real
    number < 0."""
    arr = _real(value, name)
    if not (np.isfinite(arr).all() and (arr < 0).all()):
        raise ValueError(f"{name} must be finite and strictly negative")
    return arr


def nonnegative(value, name: str) -> float:
    """value as a float; ValueError unless it is finite and >= 0."""
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


def square(value, name: str) -> np.ndarray:
    """value as an array; ValueError unless it is a square matrix."""
    arr = np.asarray(value)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def symmetric(value, name: str) -> np.ndarray:
    """value as a float array; ValueError unless it is a square matrix of
    finite real numbers with a zero diagonal (no self-loops) that equals its
    transpose: the rule a snapshot's adjacency pattern obeys."""
    arr = finite(square(value, name), name)
    if arr.diagonal().any():
        raise ValueError(f"{name} diagonal must be zero (no self-loops)")
    if not np.array_equal(arr, arr.T):
        raise ValueError(f"{name} must be symmetric")
    return arr


def integer(value, name: str, least: int) -> int:
    """value as an int; ValueError unless it is an integer (of an integer
    type, not a bool) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, _numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def integers(values, name: str) -> np.ndarray:
    """values as an int array; ValueError for any value that is not an
    integer (integer-valued floats are accepted)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu":
        arr = np.asarray(arr, dtype=float)
        if not (np.isfinite(arr).all() and (arr == np.floor(arr)).all()):
            raise ValueError(f"{name} must be integers")
    return arr.astype(int)


def class_ids(values, num_classes: int | None = None, rows: int | None = None,
              name: str = "labels"):
    """(values as a 1-D int array, class count C); C is num_classes, or the
    largest value plus one when that is None.  ValueError unless a given
    num_classes is at least 1 and every value is an integer in [0, C), with
    one per row when `rows` is given."""
    arr = integers(values, name)
    if arr.ndim != 1 or (rows is not None and arr.size != rows):
        raise ValueError(f"{name} must assign one class per node")
    if num_classes is None and arr.size == 0:
        raise ValueError(f"{name} are empty: the class count cannot be inferred, pass num_classes")
    c = int(arr.max()) + 1 if num_classes is None else int(num_classes)
    if num_classes is not None and c < 1:
        raise ValueError(f"class count {c} is below 1")
    bad = arr[(arr < 0) | (arr >= c)]
    if bad.size:
        raise ValueError(f"{name} must lie in [0, {c}), got {bad[0]}")
    return arr, c
