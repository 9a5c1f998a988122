"""Tests for the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracing import Tracer, missing_layers, self_times  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Falsify, Sweep, SweepUnit  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    # root [0, 100) holds a [10, 40) and b [50, 60); a holds a1 [15, 25)
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 60])
    assert self_times(parent, (end - start).astype(float)).tolist() == [60, 20, 10, 10]


def test_tail_keeps_ten_samples_beyond():
    pct, value = run.tail(list(range(1, 31)))
    assert value == 20 and pct == pytest.approx(100 * 20 / 30)
    assert run.tail(list(range(1, 12))) == (100 / 11, 1)
    assert run.tail([3, 1, 2]) == (100.0, 3)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke(workload, trace):
    result = run.run_benchmark(workload, seed=3, seconds=0.1, trace=trace, setup_reps=1, cli_runs=1)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] > 0
    expect = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == expect


def test_non_additive_polynomial_fails_the_sweep_check():
    prog = run.Program()
    P = prog.pkg.HomogeneousPolynomial(3, 3, 1, {(0, 0, 0): [1.0], (0, 1, 2): [0.5], (2, 2, 2): [1.0]})
    tally = run.Tally()
    run.execute(prog, Sweep(), SweepUnit("HM", 3, 3, 1, trials=5, seed=1, poly=P), tally)
    assert tally.failed > 0 and tally.failed / tally.attempted > 0


def test_tampered_witness_fails_the_falsify_check():
    prog = run.Program()
    wl = Falsify()
    plan = wl.plan(prog, np.random.default_rng(0))
    unit = next(u for u in plan.rounds[0] if u.band == "strong" and u.claim == "HM")
    report = wl.run_unit(prog, unit)
    assert wl.check_unit(prog, unit, report) == report.trials
    same = [list(report.counterexample["inputs"][0])] * unit.poly.degree
    tampered = replace(report, counterexample=dict(report.counterexample, inputs=same))
    with pytest.raises(CheckFailed):
        wl.check_unit(prog, unit, tampered)
    wl.run_unit = lambda prog, unit: tampered
    tally = run.Tally()
    run.execute(prog, wl, unit, tally)
    assert tally.failed > 0


def test_coverage_check_catches_a_wrapper_bound_only_where_defined():
    prog = run.Program()
    wl = Falsify()
    plan = wl.plan(prog, np.random.default_rng(0))
    tracer = Tracer()
    tracer.install()
    theorems = sys.modules["oapoly.theorems"]
    try:
        assert theorems.harmonic_mean is sys.modules["oapoly.means"].harmonic_mean
        assert hasattr(theorems.harmonic_mean, "__wrapped__")
        # undo the rebinding at the importing module, as a naive tracer would
        theorems.is_positively_orthogonally_additive = (
            theorems.is_positively_orthogonally_additive.__wrapped__)
        run.execute(prog, wl, plan.rounds[0][0], run.Tally(), tracer)
    finally:
        tracer.uninstall()
    assert missing_layers(tracer, wl.required_layers) == ["polynomials.poa", "cli.main"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
