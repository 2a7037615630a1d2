"""File format round trips, including a cross-check against scipy's Matrix
Market reader."""

import ast
import re

import numpy as np
import pytest
import scipy.io
from test_lapack_free import SOURCES

from bse.core import random_bse
from bse.mmio import (FormatError, load_dipoles, load_operator, read_eigenvalues,
                      read_matrix, read_spectrum, write_eigenvalues, write_matrix,
                      write_operator, write_spectrum)


def test_real_general_round_trip(tmp_path, rng):
    a = rng.standard_normal((3, 5))
    path = tmp_path / "m.mtx"
    write_matrix(path, a)
    back, field, symmetry = read_matrix(path)
    assert field == "real" and symmetry == "general"
    assert np.array_equal(back, a)


def test_complex_general_round_trip(tmp_path, rng):
    a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    path = tmp_path / "m.mtx"
    write_matrix(path, a)
    back, field, _ = read_matrix(path)
    assert field == "complex"
    assert np.array_equal(back, a)


def test_symmetric_storage_round_trip(tmp_path, rng):
    g = rng.standard_normal((6, 6))
    a = 0.5 * (g + g.T)
    path = tmp_path / "m.mtx"
    write_matrix(path, a, symmetry="symmetric")
    back, _, symmetry = read_matrix(path)
    assert symmetry == "symmetric"
    assert np.array_equal(back, a)


def test_hermitian_storage_round_trip(tmp_path, rng):
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = 0.5 * (g + g.conj().T)
    path = tmp_path / "m.mtx"
    write_matrix(path, a, symmetry="hermitian")
    back, _, symmetry = read_matrix(path)
    assert symmetry == "hermitian"
    assert np.array_equal(back, a)


def test_scipy_reads_our_files(tmp_path, rng):
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = 0.5 * (g + g.conj().T)
    path = tmp_path / "m.mtx"
    write_matrix(path, a, symmetry="hermitian")
    assert np.array_equal(np.asarray(scipy.io.mmread(path)), a)

    b = 0.5 * (g + g.T)  # complex symmetric
    write_matrix(tmp_path / "b.mtx", b, symmetry="symmetric")
    assert np.array_equal(np.asarray(scipy.io.mmread(tmp_path / "b.mtx")), b)

    c = rng.standard_normal((3, 4))
    write_matrix(tmp_path / "g.mtx", c)
    assert np.array_equal(np.asarray(scipy.io.mmread(tmp_path / "g.mtx")), c)


def test_we_read_scipy_files(tmp_path, rng):
    a = rng.standard_normal((4, 4))
    scipy.io.mmwrite(tmp_path / "s.mtx", a)
    back, field, _ = read_matrix(tmp_path / "s.mtx")
    assert field == "real"
    assert np.allclose(back, a, rtol=0, atol=0)

    # Skew-symmetric storage keeps only the strict lower triangle.
    for w in (np.array([[0.0, -1.5, 2.0], [1.5, 0.0, -0.25], [-2.0, 0.25, 0.0]]),
              np.array([[0.0, -1.0 - 2.0j], [1.0 + 2.0j, 0.0]])):
        scipy.io.mmwrite(tmp_path / "k.mtx", w, symmetry="skew-symmetric")
        back, _, symmetry = read_matrix(tmp_path / "k.mtx")
        assert symmetry == "skew-symmetric"
        assert np.array_equal(back, w)


def test_operator_round_trip_complex(tmp_path):
    op = random_bse(6, seed=3)
    write_operator(tmp_path / "A.mtx", tmp_path / "B.mtx", op)
    back = load_operator(tmp_path / "A.mtx", tmp_path / "B.mtx")
    assert back.kind == "complex"
    assert np.array_equal(back.a, op.a)
    assert np.array_equal(back.b, op.b)


def test_operator_round_trip_real(tmp_path):
    op = random_bse(5, seed=4, kind="real")
    write_operator(tmp_path / "A.mtx", tmp_path / "B.mtx", op)
    back = load_operator(tmp_path / "A.mtx", tmp_path / "B.mtx")
    assert back.kind == "real"
    assert np.array_equal(back.a, op.a)
    assert np.array_equal(back.b, op.b)


def test_operator_kind_follows_the_data(tmp_path):
    # Complex fields whose imaginary parts are all zero hold a real operator.
    op = random_bse(4, seed=6, kind="real")
    write_matrix(tmp_path / "A.mtx", op.a, "hermitian")
    write_matrix(tmp_path / "B.mtx", op.b, "symmetric")
    assert read_matrix(tmp_path / "A.mtx")[1] == "complex"
    back = load_operator(tmp_path / "A.mtx", tmp_path / "B.mtx")
    assert back.kind == "real"
    assert np.array_equal(back.a, op.a)


def test_eigenvalue_csv_round_trip(tmp_path, rng):
    lam = rng.standard_normal(17)
    path = tmp_path / "ev.csv"
    write_eigenvalues(path, lam)
    assert np.array_equal(read_eigenvalues(path), lam)
    write_eigenvalues(path, lam[:0])
    assert read_eigenvalues(path).shape == (0,)


def test_spectrum_csv_round_trip(tmp_path, rng):
    omegas = np.sort(rng.standard_normal(9))
    values = rng.standard_normal(9)
    path = tmp_path / "dos.csv"
    write_spectrum(path, omegas, values)
    o, v = read_spectrum(path)
    assert np.array_equal(o, omegas)
    assert np.array_equal(v, values)


def test_dipole_loader(tmp_path, rng):
    d = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    write_matrix(tmp_path / "d.mtx", d)
    d_r, d_l = load_dipoles(tmp_path / "d.mtx")
    assert np.array_equal(d_r, d[:, 0])
    assert np.array_equal(d_l, d[:, 1])
    write_matrix(tmp_path / "bad.mtx", rng.standard_normal((6, 3)))
    with pytest.raises(FormatError, match="2n x 2"):
        load_dipoles(tmp_path / "bad.mtx")


def test_malformed_files(tmp_path):
    bad = tmp_path / "bad.mtx"
    bad.write_text("not a matrix market file\n")
    with pytest.raises(FormatError, match="header"):
        read_matrix(bad)
    bad.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n")
    with pytest.raises(FormatError, match="array"):
        read_matrix(bad)
    bad.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n")
    with pytest.raises(FormatError, match="entries"):
        read_matrix(bad)
    bad.write_text("%%MatrixMarket matrix array integer general\n1 1\n1\n")
    with pytest.raises(FormatError, match="unsupported field 'integer'"):
        read_matrix(bad)
    bad.write_text("%%MatrixMarket matrix array real diagonal\n1 1\n1.0\n")
    with pytest.raises(FormatError, match="unsupported symmetry 'diagonal'"):
        read_matrix(bad)
    bad.write_text("%%MatrixMarket matrix array real general\n-1 2\n1.0\n")
    with pytest.raises(FormatError, match="bad size line"):
        read_matrix(bad)
    bad.write_text("%%MatrixMarket matrix array real general\n2 x\n1.0\n")
    with pytest.raises(FormatError, match="bad size line"):
        read_matrix(bad)
    bad.write_text("%%MatrixMarket matrix array real symmetric\n2 3\n1.0\n")
    with pytest.raises(FormatError, match="symmetric storage needs a square matrix"):
        read_matrix(bad)
    # The entry count is checked before the dense matrix is allocated.
    bad.write_text("%%MatrixMarket matrix array real general\n1000000 1000000\n1.0\n")
    with pytest.raises(FormatError, match="expected 1000000000000 entries, got 1"):
        read_matrix(bad)
    bad.write_text("%%MatrixMarket matrix array real general\n1 1\n1.0 5.0\n")
    with pytest.raises(FormatError, match="1 value"):
        read_matrix(bad)
    bad.write_text("%%MatrixMarket matrix array complex general\n2 1\n1.0 0.5\n2.0\n")
    with pytest.raises(FormatError, match=re.escape(str(bad))):
        read_matrix(bad)
    bad.write_text("%%MatrixMarket matrix array complex general\n1 1\n1.0\n")
    with pytest.raises(FormatError, match="2 value"):
        read_matrix(bad)
    ev = tmp_path / "bad.csv"
    ev.write_text("nope\n1.0\n")
    with pytest.raises(FormatError):
        read_eigenvalues(ev)
    ev.write_text("lambda\n1.0\nnan\n-1.0\n")
    with pytest.raises(FormatError, match="non-finite"):
        read_eigenvalues(ev)
    ev.write_text("omega,value\n1.0,2.0\n3.0\n")
    with pytest.raises(FormatError, match=re.escape(str(ev))):
        read_spectrum(ev)


def test_write_matrix_rejects_bad_input(tmp_path):
    path = tmp_path / "x.mtx"
    with pytest.raises(ValueError, match="2-D"):
        write_matrix(path, np.ones(3))
    with pytest.raises(ValueError, match="unsupported symmetry"):
        write_matrix(path, np.eye(2), "skew-symmetric")
    with pytest.raises(ValueError, match="square"):
        write_matrix(path, np.ones((2, 3)), "symmetric")
    assert not path.exists()


def test_write_matrix_determinism(tmp_path, rng):
    a = rng.standard_normal((8, 8))
    write_matrix(tmp_path / "x1.mtx", a)
    write_matrix(tmp_path / "x2.mtx", a)
    assert (tmp_path / "x1.mtx").read_bytes() == (tmp_path / "x2.mtx").read_bytes()


@pytest.mark.parametrize("a, symmetry, text", [
    (np.array([[-0.0, 1e308, 0.1], [5e-324, 2**53 + 1, 1.0]]), "general",
     "%%MatrixMarket matrix array real general\n2 3\n-0\n4.9406564584124654e-324\n"
     "1e+308\n9007199254740992\n0.10000000000000001\n1\n"),
    (np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)],
               [complex(1.5, -0.0), complex(-0.0, -2.5)]]), "general",
     "%%MatrixMarket matrix array complex general\n2 2\n-0 0\n1.5 -0\n0 -0\n-0 -2.5\n"),
    (np.array([[1, -2], [3, 2**53 + 1]]), "general",
     "%%MatrixMarket matrix array real general\n2 2\n1\n3\n-2\n9007199254740992\n"),
    (np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]), "symmetric",
     "%%MatrixMarket matrix array real symmetric\n3 3\n1\n2\n3\n4\n5\n6\n"),
    (np.array([[1.0, 2 - 1j], [2 + 1j, -0.5]]), "hermitian",
     "%%MatrixMarket matrix array complex hermitian\n2 2\n1 0\n2 1\n-0.5 0\n"),
], ids=["real", "complex", "integer", "symmetric", "hermitian"])
def test_write_matrix_golden_bytes(tmp_path, a, symmetry, text):
    # The exact bytes: %.17g per number (signed zeros, subnormals, integers
    # rounded to float64), columns in order, lower triangle for symmetric
    # and hermitian storage, "\n" line ends.
    path = tmp_path / "x.mtx"
    write_matrix(path, a, symmetry)
    assert path.read_bytes() == text.encode()


def test_write_matrix_prints_exactly_percent_17g(tmp_path):
    # The array formatter against %.17g itself: every binade, the usual value
    # families, both neighbours of every power of ten, and the values that
    # take the per-entry path (non-finite, subnormal, huge, exact halves).
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64)
    k = rng.integers(1, 10 ** 6, 20_000).astype(float)
    tens = [float(f"1e{e}") for e in range(-323, 309)]
    values = np.concatenate([
        bits[np.isfinite(bits)],
        rng.standard_normal(50_000) / 30,
        rng.integers(-2 ** 53, 2 ** 53, 20_000).astype(float),
        np.round(rng.uniform(-1000, 1000, 20_000), 3),
        k * 10.0 ** rng.integers(-300, 300, 20_000),
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf), np.negative(tens),
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.finfo(float).max,
         2.0 ** 53 + 2, 1e-4, 1e16, 1e17, 1e-280, 1e280, 1e-281, 1e281,
         1e15 + 0.25, 1e15 + 0.75, np.nan, np.inf, -np.inf]])
    path = tmp_path / "v.mtx"
    write_matrix(path, values[:, None])
    header = f"%%MatrixMarket matrix array real general\n{values.size} 1\n".encode()
    assert path.read_bytes() == header + "".join("%.17g\n" % x for x in values.tolist()).encode()


def test_write_matrix_across_chunks(tmp_path, rng):
    # A complex column longer than one formatting chunk, with zeros, exact
    # halves of the last digit and out-of-range values on the chunk edges.
    a = rng.standard_normal((9000, 3)) + 1j * rng.standard_normal((9000, 3))
    for i, value in zip((0, 8191, 8192, 8999), (0.0, 1e15 + 0.25, 1e300, -0.0)):
        a[i, :] = complex(value, -value)
        a[i - 1, 1] = complex(1e15 + 0.75, 0.0)
    path = tmp_path / "c.mtx"
    write_matrix(path, a)
    body = [("%.17g %.17g\n" * len(col)) % tuple(col.view(np.float64).tolist())
            for col in (np.ascontiguousarray(a[:, j]) for j in range(3))]
    assert path.read_bytes() == ("%%MatrixMarket matrix array complex general\n9000 3\n"
                                 + "".join(body)).encode()


def _file_writes(tree: ast.AST) -> list[str]:
    """Every ``open(...)`` or ``.open(...)`` call and every ``.write_text`` or
    ``.write_bytes`` in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id == "open")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "open")):
            found.append(f"{ast.unparse(node)} at line {node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr in ("write_text", "write_bytes"):
            found.append(f"{ast.unparse(node)} at line {node.lineno}")
    return found


def test_mmio_is_the_one_writer():
    uses = {path.name: _file_writes(ast.parse(path.read_text(), str(path)))
            for path in SOURCES}
    assert uses.pop("mmio.py")
    assert {name: found for name, found in uses.items() if found} == {}


@pytest.mark.parametrize("snippet", [
    "open(path, 'w')",
    "with open(path) as fh:\n    pass",
    "path.open('w')",
    "io.open(path, 'wb')",
    "path.write_text(text)",
    "write = path.write_bytes",
])
def test_writer_guard_catches(snippet):
    assert _file_writes(ast.parse(snippet))
