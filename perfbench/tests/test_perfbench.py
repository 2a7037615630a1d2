"""Tests of the benchmark's own parts: generator, checks, tracer, metrics.

    python3 -m pytest perfbench/tests
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bse
import bse.kernels
import bse.mmio
import bse.solvers

import harness
from inputs import PROPERTIES, SMALL_MARGIN, generate, write_input
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("kind", ["complex", "real"])
@pytest.mark.parametrize("prop", PROPERTIES)
def test_generator_same_seed_same_bytes(tmp_path, prop, kind):
    first = write_input(generate(7, 3, 12, prop, kind), tmp_path / "one")
    again = write_input(generate(7, 3, 12, prop, kind), tmp_path / "two")
    other = write_input(generate(8, 3, 12, prop, kind), tmp_path / "three")
    assert first.a_path.read_bytes() == again.a_path.read_bytes()
    assert first.b_path.read_bytes() == again.b_path.read_bytes()
    assert first.a_path.read_bytes() != other.a_path.read_bytes()


@pytest.mark.parametrize("prop", PROPERTIES)
def test_generator_inputs_are_valid_and_read_back_exactly(tmp_path, prop):
    inp = write_input(generate(1, 0, 12, prop, "complex"), tmp_path)
    op = bse.mmio.load_operator(inp.a_path, inp.b_path)
    assert np.array_equal(op.a, inp.a) and np.array_equal(op.b, inp.b)
    assert bse.validate(op).ok
    ev = np.linalg.eigvalsh(inp.omega())
    if prop == "small_margin":
        assert SMALL_MARGIN / 4 < ev[0] / ev[-1] < SMALL_MARGIN
    if prop == "decoupled":
        assert not np.any(inp.a[:6, 6:]) and not np.any(inp.b[:6, 6:])


def _tiny(name: str, n: int = 8):
    return replace(WORKLOADS[name], slots=((n, "generic"),))


def _corrupt_second_solve(workload, corrupt):
    """The workload with ``corrupt(record)`` applied to problem 1, the second
    solve of the first input."""
    def run(inp, out):
        rec = workload.run(inp, out)
        if out.name == "p1":
            corrupt(rec)
        return rec
    return replace(workload, run=run)


def _wrong_eigenvalue(rec):
    path = rec["out"] / "eigenvalues.csv"
    lines = path.read_text().splitlines()
    lines[1] = repr(float(lines[1]) * (1 + 1e-9))
    path.write_text("\n".join(lines) + "\n")


def _garbled_csv(rec):
    path = rec["out"] / "eigenvalues.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] = ord("x")
    path.write_bytes(bytes(data))


def _reformatted(rec):
    # The same value written differently: only byte-identity catches it.
    path = rec["out"] / "eigenvalues.csv"
    lines = path.read_text().splitlines()
    lines[1] = f"{float(lines[1]):.17e}"
    path.write_text("\n".join(lines) + "\n")


def _measure(workload, tmp_path):
    return harness.measure(workload, seed=1, seconds=0.01, trace=False,
                           workdir=tmp_path / "work", import_s=0.0)


def test_clean_run_passes(tmp_path):
    result = _measure(_tiny("solve-512"), tmp_path)
    assert result.correct and result.attempted == 2 and result.failed == 0
    assert result.metrics["pass_frac"][0] == 1.0


@pytest.mark.parametrize("corrupt", [_wrong_eigenvalue, _garbled_csv, _reformatted])
def test_corrupted_output_counts_as_failure(tmp_path, corrupt):
    result = _measure(_corrupt_second_solve(_tiny("solve-512"), corrupt), tmp_path)
    assert not result.correct
    assert result.attempted == 2 and result.failed == 1
    assert result.metrics["pass_frac"][0] == 0.5


def test_wrong_library_eigenvalue_counts_as_failure(tmp_path):
    def inject(rec):
        rec["lam"][0] *= 1 + 1e-9
    result = _measure(_corrupt_second_solve(_tiny("batch-small"), inject), tmp_path)
    assert not result.correct and result.failed == 1


def test_compare_tda_checks_pass_and_catch_uncertified_gaps(tmp_path):
    workload = _tiny("compare-tda-256")
    assert _measure(workload, tmp_path).correct

    def negative_gap(rec):
        path = rec["out"] / "compare" / "comparison.csv"
        lines = path.read_text().splitlines()
        cols = lines[1].split(",")
        cols[4] = "-1.0"
        lines[1] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")
    result = _measure(_corrupt_second_solve(workload, negative_gap), tmp_path)
    assert result.failed == 1


def test_tracer_spans_self_time_and_restore(tmp_path):
    original = bse.solvers.cholesky
    inp = generate(1, 0, 8, "generic", "complex")
    op = bse.make_operator(inp.a, inp.b)
    tracer = Tracer()
    tracer.problem = 0
    tracer.install()
    try:
        assert bse.solvers.cholesky is not original
        bse.solve_complex(op)
        bse.kernels.tridiag_eig(bse.kernels.SymTridiagonal(np.ones(3), np.ones(2)),
                                vectors=False)
    finally:
        tracer.uninstall()
    assert bse.solvers.cholesky is original
    assert tracer.missing == []
    totals = tracer.totals()
    solve = totals["solvers.solve_complex"]
    children = sum(totals[k]["s"] for k in ("embeddings.build_m", "kernels.cholesky",
                                            "kernels.skew_tridiagonalize",
                                            "kernels.tridiag_eig.with_vectors",
                                            "kernels.apply_q"))
    assert solve["calls"] == 1 and totals["kernels.apply_q"]["calls"] == 2
    assert totals["kernels.tridiag_eig.values_only"]["calls"] == 1
    assert solve["self_s"] == pytest.approx(solve["s"] - children, abs=1e-9)
    assert totals["kernels.skew_tridiagonalize"]["values"] == [16]


def test_tracer_reports_missing_names(monkeypatch):
    monkeypatch.setattr("tracer.TARGETS", (("kernels.gone", "bse.kernels", "gone"),
                                           ("kernels.apply_q", "bse.kernels",
                                            "NoSuchClass.apply_q")))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["bse.kernels.gone", "bse.kernels.NoSuchClass.apply_q"]


def test_tail_percentile():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = harness.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
