"""Checks shared by the input boundaries of the package: the decoding of a
text file (`read_text`), and the arrays and scalars of constructors and
entry points.  Every check raises ValueError naming what it checked.
"""

import numbers as _numbers

import numpy as np


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


def real(value, name: str) -> float:
    """value as a float; ValueError unless it is one real number: not a
    bool, string, complex value or array of several."""
    if np.ndim(value) or np.asarray(value).dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def nonnegative(value, name: str) -> float:
    """`real`, and ValueError unless value is finite and >= 0."""
    if not (np.isfinite(real(value, name)) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


def unit_interval(value, name: str) -> float:
    """`real`, and ValueError unless value lies in [0, 1]."""
    if not 0.0 <= real(value, name) <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
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
    """values as an int array; ValueError naming `name` for any value that
    is not an integer or an integer-valued float, a bool included."""
    arr = np.asarray(values)
    # A list mixing bools and ints converts to ints: look at its entries.
    if arr.dtype.kind == "b" or (not isinstance(values, np.ndarray) and any(
            isinstance(x, (bool, np.bool_)) for x in np.asarray(values, dtype=object).flat)):
        raise ValueError(f"{name} must be integers, got a bool")
    if arr.dtype.kind not in "iu":
        arr = _real(arr, name)
        if not (np.isfinite(arr).all() and (arr == np.floor(arr)).all()):
            raise ValueError(f"{name} must be integers")
    return arr.astype(int)


def class_ids(values, num_classes: int | None = None, rows: int | None = None,
              name: str = "labels"):
    """(values as a 1-D int array, class count C); C is num_classes, or the
    largest value plus one when that is None.  ValueError unless a given
    num_classes is an integer (not a bool) of at least 1 and every value is
    an integer in [0, C), with one per row when `rows` is given."""
    if num_classes is not None and (isinstance(num_classes, bool)
                                    or not isinstance(num_classes, _numbers.Integral)):
        raise ValueError(f"num_classes must be an integer, got {num_classes!r}")
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
