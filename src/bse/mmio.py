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

Numbers are printed by one array formatter, ``_format``, a chunk of at most
``_CHUNK`` values at a time, and its bytes are exactly those of ``%.17g``.
For 1e-280 <= |x| <= 1e280 it forms |x|·10^s = p + t, with s = 16 - X and X
the decimal exponent: 10^s is a double-double (hi, lo) read from a table
built with exact integer arithmetic, p = fl(|x|·hi) and t is Dekker's exact
error of that product plus |x|·lo (Numer. Math. 18, 1971), so p + t is within
2**-47 of the exact product.  X is corrected until 1e16 <= p + t < 1e17, and
the 17 digits are p + t rounded to the nearest integer; this is the correctly
rounded conversion behind ``%.17g`` wherever the fraction of t is not within
2**-40 of one half.  %g's layout (fixed for -4 <= X < 17, otherwise
``d.ddde±XX``, trailing zeros and a bare point dropped, "-0" for -0.0) is
assembled in a fixed-width byte buffer whose NUL padding is then deleted.
Non-finite values, |x| outside that range and those near-halves are printed
with ``%.17g`` itself, one at a time; exact zeros take the array path.
"""

from __future__ import annotations

import json
import warnings
from itertools import chain

import numpy as np

from .core import BseOperator, make_operator


class FormatError(ValueError):
    """Malformed or unsupported file content."""


_FIELDS = ("real", "complex")
_SYMMETRIES = ("general", "symmetric", "hermitian", "skew-symmetric")
_NUMBER = "%.17g"  # the one number format; prints integers up to 2**53 exactly
_CHUNK = 1 << 14  # values formatted per pass; bounds the formatter's memory

# The fast path covers 1e-280 <= |x| <= 1e280, so 10^s for s = 16 - X lies in
# 10^-266 ... 10^298 and no product or split below over- or underflows.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_S_MIN = -266
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_NEAR_HALF = 2.0 ** -40


def _powers_of_ten() -> np.ndarray:
    """Rows (hi, lo, head, tail) for s = _S_MIN ... 298: hi is 10^s and lo
    the remainder 10^s - hi, each rounded to a double from exact integer
    arithmetic (int / int division rounds correctly), so hi + lo is 10^s to
    about 2**-106 relative; head + tail is the Veltkamp split of hi."""
    hi, lo = [], []
    for k in range(-_S_MIN, 0, -1):
        den = 10 ** k
        h = 1 / den
        num, bits = h.as_integer_ratio()
        hi.append(h)
        lo.append((bits - num * den) / (bits * den))
    power = 1
    for _ in range(299):
        hi.append(float(power))
        lo.append(float(power - int(hi[-1])))
        power *= 10
    hi = np.array(hi)
    head = hi * _SPLIT - (hi * _SPLIT - hi)
    return np.stack([hi, np.array(lo), head, hi - head])


def _words(texts) -> np.ndarray:
    """Each ASCII text, NUL-padded to 8 bytes, as a little-endian uint64."""
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), "<u8")


_POW10 = _powers_of_ten()
# Four digits each followed by an empty byte, "d\0d\0d\0d\0", for 0 ... 9999;
# entries 10000 + g print g with its trailing zeros as NULs.
_quad = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
_GROUPS = np.zeros((2, 10000, 8), np.uint8)
_GROUPS[0, :, ::2] = _quad + 48
_GROUPS[1, :, ::2] = np.where(
    np.logical_and.accumulate(_quad[:, ::-1] == 0, axis=1)[:, ::-1], 0, _quad + 48)
_GROUPS = _GROUPS.view("<u8").reshape(-1)
# The sign and, for -4 <= X < 0, "0.0..." by (sign, X + 4); column 4 for the
# other layouts.
_LEADS = _words(sign + ("0." + "0" * (-x - 1) if x < 0 else "")
                for sign in ("", "-") for x in range(-4, 1)).reshape(2, 5)
# The exponent, "e±XX", by X + 290; empty for the fixed layout.
_EXPONENTS = _words("" if -4 <= x < 17 else f"e{x:+03d}" for x in range(-290, 291))
_TENS = 10 ** np.arange(18, dtype=np.int64)


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, t) with p + t = a·10^(16 - x) to within 2**-47 where that product
    is below 2**57: Dekker's error of p is exact, and a·lo, its sum and the
    error of hi + lo each add at most 2**-48."""
    hi, lo, head, tail = np.take(_POW10, 16 - x - _S_MIN, axis=1)
    p = a * hi
    big = a * _SPLIT
    a_head = big - (big - a)
    a_tail = a - a_head
    err = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail
    return p, err + a * lo


def _format_chunk(v: np.ndarray, seps: np.ndarray, absent) -> bytes:
    """``%.17g`` of each float64 in ``v``, followed by its separator byte;
    where the bool array ``absent`` is set, the separator alone."""
    a = np.abs(v)
    zero = a == 0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.intp)
    p, t = _scaled(a, x)
    # log10 may be one off next to a power of ten: set X by exact comparisons.
    off = np.flatnonzero((p < 1e16) | ((p == 1e16) & (t < 0))
                         | (p > 1e17) | ((p == 1e17) & (t >= 0)))
    if off.size:
        x[off] += np.where(p[off] >= 1e17, 1, -1)
        p[off], t[off] = _scaled(a[off], x[off])
    whole = np.floor(t)
    frac = t - whole
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    x += carry
    d[zero] = 0
    x[zero] = 0
    slow = np.flatnonzero(~(fast | zero) | (np.abs(frac - 0.5) <= _NEAR_HALF))

    # Six 8-byte words a number: the sign and "0.0..." (up to 6 bytes); the 17
    # digits, each followed by a byte that takes the point after the last
    # integer digit; the exponent (up to 5 bytes) and the separator.  Every
    # other byte is NUL.
    fixed = (x >= -4) & (x < 17)
    ints = np.where(fixed, np.maximum(x + 1, 0), 1)  # digits before the point
    top, low = np.divmod(d, 10 ** 8)
    words = np.empty((v.size, 6), "<u8")
    words[:, 0] = (_LEADS[np.signbit(v).astype(np.intp), np.where(fixed & (x < 0), x + 4, 4)]
                   | (top // 10 ** 8 + 48).astype("<u8") << 48)
    # A group of four digits drops its trailing zeros when all later digits are 0.
    words[:, 1] = _GROUPS[top // 10 ** 4 % 10 ** 4 + 10000 * (d % 10 ** 12 == 0)]
    words[:, 2] = _GROUPS[top % 10 ** 4 + 10000 * (low == 0)]
    words[:, 3] = _GROUPS[low // 10 ** 4 + 10000 * (low % 10 ** 4 == 0)]
    words[:, 4] = _GROUPS[low % 10 ** 4 + 10000]
    words[:, 5] = _EXPONENTS[x + 290]
    text = words.view(np.uint8)
    # A point where a nonzero digit follows the integer digits, in the byte
    # after digit ints - 1.
    point = np.flatnonzero((ints > 0) & (d % _TENS[17 - ints] != 0))
    text.reshape(-1)[48 * point + 5 + 2 * ints[point]] = ord(".")
    whole_zeros = np.flatnonzero(fixed & (x > 0))  # integer digits dropped as trailing
    if whole_zeros.size:
        digits = text[whole_zeros, 8:40:2]
        digits[(digits == 0) & (np.arange(16) < x[whole_zeros, None])] = ord("0")
        text[whole_zeros, 8:40:2] = digits
    if absent is not None:
        words[absent] = 0
    words[:, 5] |= seps << 40
    for i in slow:
        entry = (_NUMBER % v[i]).encode()
        text[i, :45] = 0
        text[i, :len(entry)] = np.frombuffer(entry, np.uint8)
    return text.tobytes().translate(None, b"\0")


def _format(values: np.ndarray, seps: bytes, absent=None):
    """The text of the 2-D float64 array ``values``, one line per row, each
    number followed by its byte of ``seps``; a cell set in the bool array
    ``absent`` prints as its separator alone.  Yields one chunk of bytes per
    at most ``_CHUNK`` values."""
    rows = max(1, _CHUNK // len(seps))
    pattern = np.frombuffer(seps, np.uint8).astype("<u8")
    for start in range(0, len(values), rows):
        part = values[start:start + rows]
        yield _format_chunk(part.reshape(-1), np.tile(pattern, len(part)),
                            None if absent is None else absent[start:start + rows].reshape(-1))


def _write(path, chunks) -> None:
    """Write each chunk of ASCII bytes, whose lines end in ``\\n``.  A large
    file is passed as a generator of chunks, so that only one chunk is held
    in memory."""
    with open(path, "wb") as fh:
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
    columns = [np.asarray(col, dtype=np.float64) for col in columns]
    table = np.zeros((max(map(len, columns), default=0), len(columns)))
    absent = np.ones(table.shape, dtype=bool)
    for k, col in enumerate(columns):
        table[:len(col), k] = col
        absent[:len(col), k] = False
    _write(path, chain([(",".join(header) + "\n").encode()],
                       _format(table, b"," * (len(columns) - 1) + b"\n", absent)))


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
    _write(path, [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()])


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
    width = a.itemsize // 8
    step = max(1, _CHUNK // max(1, rows * width))

    def text():
        yield f"%%MatrixMarket matrix array {field} {symmetry}\n{rows} {cols}\n".encode()
        for start in range(0, cols, step):
            block = np.concatenate([a[0 if symmetry == "general" else j:, j]
                                    for j in range(start, min(start + step, cols))])
            yield from _format(block.view(np.float64).reshape(-1, width), b" \n"[-width:])

    _write(path, text())


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
    upper = ~np.tri(rows, dtype=bool)  # strictly above the diagonal
    a.T[upper if strict else ~upper.T] = values  # the stored triangle, column by column
    mirror = a.conj() if symmetry == "hermitian" else -a if strict else a
    np.copyto(a, mirror.T, where=upper)  # reads only the lower triangle, even from a itself
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
