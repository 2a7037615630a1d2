"""Set-up, closed-loop measurement, checks and metrics of one workload run.

The load is a closed loop: one process, one client, each problem started
after the previous one finished.  Problems come in cycles: every input of a
cycle is solved twice in a row, and further cycles (with fresh inputs) run
while the next one is expected to fit in the requested seconds.  Inputs for
later cycles are generated between cycles, outside the timed region.

With tracing on, one solve of each pair runs under the tracer and the other
runs bare, alternating which goes first; the per-layer figures are averages
over the traced problems and ``trace.overhead_s`` is the median difference
within a pair.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import bse

import checks
from inputs import PROPERTIES, Input, generate, write_input
from tracer import ORDER_SPANS, TARGETS, Tracer
from workloads import Workload

#: Set-up runs this many times; ``setup_s`` takes the median.
SETUP_REPEATS = 3
#: The warm-up solve runs the workload's command sequence on a small input.
WARMUP_N = 16
WARMUP_INDEX = 1_000_000
#: ``latency_tail_s`` is the highest percentile with this many samples
#: beyond it, given at least TAIL_MIN_PROBLEMS problems; else the maximum.
TAIL_BEYOND = 10
TAIL_MIN_PROBLEMS = 20

END_TO_END = {
    "setup_s": "s",
    "problems_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "pass_frac": "frac",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics read from spans: (metric, span key, quantity, unit).
#: Times and counts are per traced problem.
SPAN_METRICS = (
    ("cli.main.s", "cli.main", "s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("mmio.load_operator.s", "mmio.load_operator", "s", "s"),
    ("mmio.read_matrix.s", "mmio.read_matrix", "s", "s"),
    ("mmio.write.s", "mmio.write", "s", "s"),
    ("mmio.bytes_written", "mmio.write", "value", "B"),
    ("core.validate.s", "core.validate", "s", "s"),
    ("core.residual_metrics.s", "core.residual_metrics", "s", "s"),
    ("embeddings.build_m.s", "embeddings.build_m", "s", "s"),
    ("embeddings.expand_full.s", "embeddings.expand_full", "s", "s"),
    ("kernels.cholesky.s", "kernels.cholesky", "s", "s"),
    ("kernels.cholesky.calls", "kernels.cholesky", "calls", "count"),
    ("kernels.skew_tridiagonalize.s", "kernels.skew_tridiagonalize", "s", "s"),
    ("kernels.skew_tridiagonalize.gflops", "kernels.skew_tridiagonalize", "gflops",
     "GFLOP/s"),
    ("kernels.sym_tridiagonalize.s", "kernels.sym_tridiagonalize", "s", "s"),
    ("kernels.sym_tridiagonalize.gflops", "kernels.sym_tridiagonalize", "gflops",
     "GFLOP/s"),
    ("kernels.apply_q.s", "kernels.apply_q", "s", "s"),
    ("kernels.apply_q.calls", "kernels.apply_q", "calls", "count"),
    ("kernels.tridiag_eig.values_only.s", "kernels.tridiag_eig.values_only", "s", "s"),
    ("kernels.tridiag_eig.with_vectors.s", "kernels.tridiag_eig.with_vectors", "s", "s"),
    ("kernels.hermitian_eig.s", "kernels.hermitian_eig", "s", "s"),
    ("kernels.jacobi_svd.s", "kernels.jacobi_svd", "s", "s"),
    ("solvers.solve_complex.s", "solvers.solve_complex", "s", "s"),
    ("solvers.solve_complex.self_s", "solvers.solve_complex", "self_s", "s"),
    ("solvers.solve_real.self_s", "solvers.solve_real", "self_s", "s"),
    ("solvers.solve_oracle.s", "solvers.solve_oracle", "s", "s"),
    ("solvers.tda_gap_report.s", "solvers.tda_gap_report", "s", "s"),
    ("spectra.dos_dominance.s", "spectra.dos_dominance", "s", "s"),
)

#: Per-layer metrics measured beside the spans.
OTHER_METRICS = {
    "kernels.gemm_ref.gflops": "GFLOP/s",
    "solvers.r1_max": "1",
    "solvers.r2_max": "1",
    "solvers.oracle_pairing_defect": "abs",
    "kernels.hermitian_eig.residual_max": "1",
    "ref.numpy_eigvals.s": "s",
    "trace.overhead_s": "s",
}

PER_LAYER = {**{m: unit for m, _, _, unit in SPAN_METRICS}, **OTHER_METRICS}


def tridiagonalization_flops(m: int) -> float:
    """Standard operation count of Householder tridiagonalization of an m x m
    matrix, (4/3) m^3, whatever the implementation actually performs."""
    return 4.0 * m ** 3 / 3.0


@dataclass
class Problem:
    pid: int
    index: int
    prop: str
    latency: float
    traced: bool
    failures: list[str]


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    info: dict


def _prepare(w: Workload, seed: int, index: int, n: int, prop: str,
             directory: Path) -> Input:
    inp = generate(seed, index, n, prop, w.kind)
    if w.files:
        return write_input(inp, directory)
    return replace(inp, op=bse.make_operator(inp.a, inp.b, kind=inp.kind))


def _cycle(w: Workload, seed: int, cycle: int, directory: Path) -> list[Input]:
    base = cycle * len(w.slots)
    return [_prepare(w, seed, base + i, n, prop, directory)
            for i, (n, prop) in enumerate(w.slots)]


def _digest(inputs: list[Input]) -> str:
    h = hashlib.sha256()
    for inp in inputs:
        if inp.a_path is not None:
            h.update(inp.a_path.read_bytes())
            h.update(inp.b_path.read_bytes())
        else:
            h.update(inp.a.tobytes())
            h.update(inp.b.tobytes())
    return h.hexdigest()


def _attempt(w: Workload, inp: Input, out: Path) -> dict:
    try:
        return w.run(inp, out)
    except Exception as err:  # a problem that raises counts as failed
        return {"rc": [], "error": f"{type(err).__name__}: {err}"}


def _failures(w: Workload, rec: dict, ref: checks.Reference) -> tuple[list[str], dict]:
    if "error" in rec:
        return [rec["error"]], {}
    if any(rc != 0 for rc in rec["rc"]):
        return [f"exit codes {rec['rc']}"], {}
    try:
        return w.check(rec, ref)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"], {}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum (percentile 100) below TAIL_MIN_PROBLEMS samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < TAIL_MIN_PROBLEMS:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _gemm_gflops(m: int) -> float:
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((m, m)), rng.standard_normal((m, m))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * m ** 3 / statistics.median(times) / 1e9


def _span_metrics(tracer: Tracer, traced: int) -> dict[str, tuple[float, str]]:
    totals = tracer.totals()
    missing = {span for span, home, path in TARGETS if f"{home}.{path}" in tracer.missing}
    out = {}
    for metric, key, quantity, unit in SPAN_METRICS:
        target = key.removesuffix(".values_only").removesuffix(".with_vectors")
        if target in missing:
            continue
        rec = totals.get(key, {"calls": 0, "s": 0.0, "self_s": 0.0, "values": []})
        if quantity == "gflops":
            flops = sum(tridiagonalization_flops(m) for m in rec["values"])
            value = flops / rec["self_s"] / 1e9 if rec["self_s"] > 0 else 0.0
        elif quantity == "value":
            value = sum(rec["values"]) / traced
        else:
            value = rec[quantity] / traced
        out[metric] = (value, unit)
    return out


def _setup(w: Workload, seed: int, workdir: Path) -> tuple[list[Input], list[float], bool]:
    """Generate and write the first cycle's inputs, then run a warm-up solve;
    SETUP_REPEATS times.  Returns the inputs, the time of each repeat, and
    whether every repeat produced byte-identical inputs."""
    times, digests = [], []
    for r in range(SETUP_REPEATS):
        directory = workdir / f"setup{r}"
        t0 = time.perf_counter()
        inputs = _cycle(w, seed, 0, directory / "inputs")
        warm = _prepare(w, seed, WARMUP_INDEX, WARMUP_N, "generic", directory / "inputs")
        _attempt(w, warm, directory / "warmup")
        times.append(time.perf_counter() - t0)
        digests.append(_digest(inputs))
        if r:
            shutil.rmtree(workdir / f"setup{r - 1}", ignore_errors=True)
    return inputs, times, len(set(digests)) == 1


def _check_cycle(w: Workload, runs: list, figures: dict[str, list]) -> list[Problem]:
    """Check every problem of one cycle against a reference for its input,
    and against the first solve of the same input for byte-identity."""
    refs: dict[int, checks.Reference] = {}
    first: dict[int, bytes] = {}
    problems = []
    for pid, inp, latency, traced, rec in runs:
        if inp.index not in refs:
            refs[inp.index] = checks.reference(inp)
            figures.setdefault("eigvals_s", []).append(refs[inp.index].eigvals_s)
        bad, figs = _failures(w, rec, refs[inp.index])
        for key, value in figs.items():
            figures.setdefault(key, []).append(value)
        if not bad:
            try:
                blob = w.identity(rec)
            except OSError as err:
                bad = [f"unreadable output: {err}"]
            else:
                if first.setdefault(inp.index, blob) != blob:
                    bad = ["output differs from the first solve of the same input"]
        problems.append(Problem(pid, inp.index, inp.prop, latency, traced, bad))
    return problems


def measure(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
            import_s: float) -> Result:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs, setup_times, deterministic = _setup(w, seed, workdir)
    setup_s = import_s + statistics.median(setup_times)
    errors = [] if deterministic else ["the generator gave different inputs for one seed"]

    tracer = Tracer() if trace else None
    problems: list[Problem] = []
    figures: dict[str, list[float]] = {}
    timed = 0.0
    cycle = 0
    while True:
        runs = []
        for inp in inputs:
            for rep in range(2):
                pid = len(problems) + len(runs)
                traced = trace and rep == (pid // 2) % 2
                if traced:
                    tracer.problem = pid
                    tracer.install()
                t0 = time.perf_counter()
                rec = _attempt(w, inp, workdir / "problems" / f"p{pid}")
                latency = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
                runs.append((pid, inp, latency, traced, rec))
                timed += latency
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems += _check_cycle(w, runs, figures)
        shutil.rmtree(workdir / "problems", ignore_errors=True)
        cycle += 1
        if timed + timed / cycle > seconds:
            break
        inputs = _cycle(w, seed, cycle, workdir / f"cycle{cycle}")
    for sub in workdir.iterdir():
        if sub.is_dir():
            shutil.rmtree(sub)

    attempted = len(problems)
    passed = sum(not p.failures for p in problems)
    latencies = [p.latency for p in problems]
    tail_value, tail_pct = tail(latencies)
    if trace:
        metrics = _span_metrics(tracer, sum(p.traced for p in problems))
        orders = [span[5] for span in tracer.spans if span[0] in ORDER_SPANS]
        gemm_m = max(orders) if orders else 2 * max(n for n, _ in w.slots)
        # Problems 2k and 2k+1 solve the same input; one of them is traced.
        diffs = [p.latency - problems[p.pid ^ 1].latency for p in problems if p.traced]
        metrics.update({name: (value, OTHER_METRICS[name]) for name, value in {
            "kernels.gemm_ref.gflops": _gemm_gflops(gemm_m),
            "solvers.r1_max": max(figures.get("r1", [0.0])),
            "solvers.r2_max": max(figures.get("r2", [0.0])),
            "solvers.oracle_pairing_defect": max(figures.get("oracle_pairing_defect", [0.0])),
            "kernels.hermitian_eig.residual_max": max(figures.get("tda_residual", [0.0])),
            "ref.numpy_eigvals.s": statistics.median(figures["eigvals_s"]),
            "trace.overhead_s": statistics.median(diffs),
        }.items()})
        tracer.write(workdir / "spans.jsonl")
    else:
        metrics = {name: (value, END_TO_END[name]) for name, value in {
            "setup_s": setup_s,
            "problems_per_s": passed / timed,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_value,
            "pass_frac": passed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }.items()}

    info = {
        "problems": attempted,
        "cycles": cycle,
        "timed_s": timed,
        "latencies_s": latencies,
        "fail_frac": (attempted - passed) / attempted,
        "latency_tail": {"percentile": tail_pct, "samples": attempted},
        "properties": {prop: sum(p.prop == prop for p in problems) / attempted
                       for prop in PROPERTIES},
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "missing_spans": tracer.missing if trace else [],
        "failures": errors + [f"problem {p.pid} (input {p.index}): {msg}"
                              for p in problems for msg in p.failures][:20],
    }
    return Result(correct=not errors and passed == attempted, attempted=attempted,
                  failed=attempted - passed, metrics=metrics, info=info)
