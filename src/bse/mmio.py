"""Every file the CLI reads or writes; the one module that opens a file for
writing or formats a number.  It owns ``.mtx`` (Matrix Market array format:
Boisvert, Pozo & Remington, NIST IR 5935, 1996), the CSV tables
``eigenvalues.csv``, ``comparison.csv``, ``dos.csv`` and ``absorption.csv``,
and the JSON reports ``metrics.json`` and ``summary.json``.

Tables and matrices print every number with ``%.17g`` and JSON floats use
Python's shortest round-trip repr; every line ends in ``\\n``.  So every file
round-trips through its loader without loss, and identical inputs produce
byte-identical files.  Malformed, truncated or non-finite input raises
FormatError naming the file.
"""

from __future__ import annotations

import json
import warnings
from itertools import chain, zip_longest

import numpy as np

from .core import BseOperator, make_operator


class FormatError(ValueError):
    """Malformed or unsupported file content."""


_FIELDS = ("real", "complex")
_SYMMETRIES = ("general", "symmetric", "hermitian", "skew-symmetric")
_NUMBER = "%.17g"  # the one number format; prints integers up to 2**53 exactly


def _write_text(path, chunks) -> None:
    """Write each chunk, text whose lines end in ``\\n``.  A large file is
    passed as a generator of chunks, so that only one chunk is held in
    memory."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(chunks)


def _parse_body(fh, path, width: int, **loadtxt_options) -> np.ndarray:
    """The rest of ``fh`` as a finite float array of ``width`` columns, one
    row per line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        try:
            body = np.loadtxt(fh, ndmin=2, **loadtxt_options)
        except UserWarning:  # loadtxt warns, and returns one column, on no rows
            body = np.empty((0, width))
        except ValueError as err:
            raise FormatError(f"{path}: {err}") from err
    if body.shape[1] != width:
        raise FormatError(f"{path}: expected {width} value(s) per line, "
                          f"got {body.shape[1]}")
    if not np.isfinite(body).all():
        raise FormatError(f"{path}: non-finite entries")
    return body


def write_table(path, header, *columns) -> None:
    """Comma-separated table under a ``header`` row of column names.

    Every cell is printed with ``_NUMBER``; a column shorter than the
    longest leaves its cells empty."""
    cells = ([_NUMBER % x for x in np.asarray(col).tolist()] for col in columns)
    rows = chain([header], zip_longest(*cells, fillvalue=""))
    _write_text(path, (",".join(row) + "\n" for row in rows))


def read_table(path, header) -> tuple[np.ndarray, ...]:
    """The columns of a table written by ``write_table`` with no empty
    cells; raises FormatError on a different header or a bad row."""
    with open(path) as fh:
        if fh.readline().strip() != ",".join(header):
            raise FormatError(f"{path}: expected a {','.join(header)!r} header")
        return tuple(_parse_body(fh, path, len(header), delimiter=",",
                                 comments=None).T)


def write_json(path, payload: dict) -> None:
    """Indented JSON with sorted keys."""
    _write_text(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def write_matrix(path, a: np.ndarray, symmetry: str = "general") -> None:
    """Write a dense matrix in Matrix Market array format.

    ``symmetry`` one of general/symmetric/hermitian; for the latter two only
    the lower triangle is stored.  The field (real/complex) follows the dtype;
    each column is printed from its float64 view, re and im interleaved.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array")
    rows, cols = a.shape
    field = "complex" if np.iscomplexobj(a) else "real"
    if symmetry not in ("general", "symmetric", "hermitian"):
        raise ValueError(f"unsupported symmetry {symmetry!r}")
    if symmetry != "general" and rows != cols:
        raise ValueError("symmetric/hermitian storage needs a square matrix")
    a = a.astype(np.complex128 if field == "complex" else np.float64, copy=False)
    line = " ".join([_NUMBER] * (a.itemsize // 8)) + "\n"

    def column(j):
        col = np.ascontiguousarray(a[0 if symmetry == "general" else j:, j])
        return (line * len(col)) % tuple(col.view(np.float64).tolist())

    _write_text(path, chain([f"%%MatrixMarket matrix array {field} {symmetry}\n"
                             f"{rows} {cols}\n"], map(column, range(cols))))


def read_matrix(path) -> tuple[np.ndarray, str, str]:
    """Read a Matrix Market array file; returns (matrix, field, symmetry).

    Symmetric/hermitian/skew-symmetric storage is expanded to the full dense
    matrix.  Raises FormatError on malformed content or non-finite entries;
    the number of values per line and of entries are checked against the
    header and the size line before the dense matrix is allocated.
    """
    with open(path) as fh:
        parts = fh.readline().split()
        if len(parts) != 5 or parts[0] != "%%MatrixMarket":
            raise FormatError(f"{path}: missing MatrixMarket header")
        _, obj, layout, field, symmetry = (p.lower() for p in parts)
        if obj != "matrix" or layout != "array":
            raise FormatError(f"{path}: only 'matrix array' files are supported")
        if field not in _FIELDS:
            raise FormatError(f"{path}: unsupported field {field!r}")
        if symmetry not in _SYMMETRIES:
            raise FormatError(f"{path}: unsupported symmetry {symmetry!r}")
        line = fh.readline()
        while line and line.lstrip().startswith("%"):
            line = fh.readline()
        try:
            rows, cols = (int(tok) for tok in line.split())
        except ValueError as err:
            raise FormatError(f"{path}: bad size line {line!r}") from err
        if rows < 1 or cols < 1:
            raise FormatError(f"{path}: bad size line {line!r}")
        if symmetry != "general" and rows != cols:
            raise FormatError(f"{path}: {symmetry} storage needs a square matrix")
        entries = _parse_body(fh, path, 2 if field == "complex" else 1, comments="%")

    # Symmetric and Hermitian storage hold the lower triangle, skew-symmetric
    # storage the strict lower triangle (its diagonal is zero).
    strict = int(symmetry == "skew-symmetric")
    expected = (rows * cols if symmetry == "general"
                else (rows - strict) * (rows + 1 - strict) // 2)
    if entries.shape[0] != expected:
        raise FormatError(f"{path}: expected {expected} entries, got {entries.shape[0]}")
    # A C-ordered (k, 2) float array is the (k, 1) complex array of its rows.
    values = entries.view(np.complex128) if field == "complex" else entries
    values = values[:, 0]

    if symmetry == "general":
        return values.reshape((cols, rows)).T, field, symmetry
    a = np.zeros((rows, cols), dtype=values.dtype)
    a.T[np.triu_indices(rows, strict)] = values  # the stored triangle, column by column
    upper = np.triu_indices(rows, 1)
    mirror = (a.conj() if symmetry == "hermitian" else a).T[upper]
    a[upper] = -mirror if symmetry == "skew-symmetric" else mirror
    return a, field, symmetry


def write_operator(path_a, path_b, op: BseOperator) -> None:
    """Write the operator blocks as a pair of Matrix Market files, honoring
    the hermitian/symmetric qualifiers (real problems use real files)."""
    real = op.kind == "real"
    write_matrix(path_a, op.a.real if real else op.a, "symmetric" if real else "hermitian")
    write_matrix(path_b, op.b.real if real else op.b, "symmetric")


def load_operator(path_a, path_b, symmetrize: bool = False) -> BseOperator:
    """Load the operator pair; its kind follows the values, not the file
    fields."""
    return make_operator(read_matrix(path_a)[0], read_matrix(path_b)[0],
                         symmetrize=symmetrize)


def write_eigenvalues(path, lam: np.ndarray) -> None:
    """One eigenvalue per line under a 'lambda' header."""
    write_table(path, ("lambda",), lam)


def read_eigenvalues(path) -> np.ndarray:
    return read_table(path, ("lambda",))[0]


def write_spectrum(path, omegas: np.ndarray, values: np.ndarray) -> None:
    """Two-column CSV (omega, value) suitable for external plotting."""
    write_table(path, ("omega", "value"), omegas, values)


def read_spectrum(path) -> tuple[np.ndarray, np.ndarray]:
    return read_table(path, ("omega", "value"))


def load_dipoles(path) -> tuple[np.ndarray, np.ndarray]:
    """Dipole vectors stored as a 2n x 2 complex Matrix Market array with
    columns (d_r, d_l)."""
    arr, _, _ = read_matrix(path)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise FormatError(f"{path}: dipole file must be a 2n x 2 array")
    arr = arr.astype(np.complex128)
    return arr[:, 0], arr[:, 1]
