"""Benchmark entry point.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs a fixed amount of the workload twice,
untraced and then traced, and reports the per-layer metrics. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A run manifest is written to
``perfbench/out/``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(BLAS_ENV)  # before numpy loads its BLAS

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import numpy as np

from tracing import Tracer, cache_counts, clear_caches, missing_layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 3
PASSES = 3
REF_NS = 2_000_000  # reference kernel time of the host the figures are scaled to
HOST_SAMPLE_EVERY_S = 0.1
CLI_RUNS = 4  # per pass
CLI_INPROC_RUNS = 2
CLI_TIMEOUT_S = 120
TAIL_BEYOND = 10


class Tally:
    """Ops attempted and failed, with the first few failures for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def ok(self, ops: int) -> None:
        self.attempted += ops

    def fail(self, ops: int, what: str) -> None:
        self.attempted += ops
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append(what)


def reference_kernel() -> float:
    """Fixed interpreter and small-array work that does not touch the program.

    Its time tracks the host's speed: on a shared host it slows down with the
    program's own per-call work when other tenants contend for the CPU.
    """
    acc = 0.0
    for i in range(150):
        a = np.array([float(i), 2.0, 3.0, 4.0])
        b = np.stack([a, a * 2.0])
        acc += float(np.prod(b, axis=0).sum())
        d = {j: (j, float(j)) for j in range(12)}
        acc += sum(v[1] for v in d.values())
    return acc


class HostSpeed:
    """The reference kernel's time, sampled through the run.

    Other tenants' load switches the host between a quiet and a contended
    state that lasts from a fraction of a second to several seconds. A time
    is scaled by REF_NS over the mean of the samples taken just before and
    just after it: the time it would take on a host where the kernel takes
    REF_NS.
    """

    def __init__(self):
        self.samples: list[int] = []
        self.last = -math.inf

    def sample(self) -> int:
        """Take a sample now; returns its index."""
        times = []
        for _ in range(2):
            t0 = time.perf_counter_ns()
            reference_kernel()
            times.append(time.perf_counter_ns() - t0)
        self.samples.append(min(times))
        self.last = time.perf_counter()
        return len(self.samples) - 1

    def mark(self) -> int:
        """Index of a sample at most HOST_SAMPLE_EVERY_S old, taken if needed."""
        if time.perf_counter() - self.last >= HOST_SAMPLE_EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scaled(self, times, marks) -> list[float]:
        """Scale each time by the samples at its mark and the one after it;
        take a sample after the last time first."""
        s = self.samples
        return [t * REF_NS * 2 / (s[i] + s[i + 1]) for t, i in zip(times, marks)]


class Program:
    """The program's modules, freshly imported from the checkout's src/."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "oapoly" or n.startswith("oapoly.")]:
            del sys.modules[name]
        self.pkg = importlib.import_module("oapoly")
        self.cli = importlib.import_module("oapoly.cli")
        if not Path(self.pkg.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported oapoly from {self.pkg.__file__}, not from {SRC}")


def tail(values: list) -> tuple[float, float]:
    """(percentile, value) of the highest nearest-rank percentile that still has
    TAIL_BEYOND samples beyond it; the maximum when there are too few samples."""
    v = sorted(values)
    if len(v) <= TAIL_BEYOND:
        return 100.0, v[-1]
    rank = len(v) - TAIL_BEYOND
    return 100.0 * rank / len(v), v[rank - 1]


def digest(items: list[str]) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(exc)).strip()


def execute(prog, wl, unit, tally: Tally, tracer: Tracer | None = None):
    """Run one unit (timed) and check it (untimed). Returns (ns, output or None).

    Any exception fails the unit, and the run goes on.
    """
    t0 = time.perf_counter_ns()
    try:
        out = wl.run_unit(prog, unit)
    except Exception as exc:
        tally.fail(wl.nominal_ops(unit), describe(exc))
        return time.perf_counter_ns() - t0, None
    elapsed = time.perf_counter_ns() - t0
    try:
        with paused(tracer):
            tally.ok(wl.check_unit(prog, unit, out))
    except Exception as exc:
        tally.fail(wl.nominal_ops(unit), describe(exc))
        out = None
    return elapsed, out


def check_cli_output(prog, wl, plan, code: int, stdout: bytes, tally: Tally) -> None:
    try:
        if code != 0:
            raise RuntimeError(f"CLI exited with {code}")
        wl.check_cli(prog, plan, stdout)
        tally.ok(1)
    except Exception as exc:
        tally.fail(1, "CLI: " + describe(exc))


def setup(wl, seed: int, reps: int, host: HostSpeed):
    """Import, input generation and warm-up, ``reps`` times; the last one is kept."""
    times = []
    for _ in range(reps):
        mark = host.sample()
        t0 = time.perf_counter()
        prog = Program()
        plan = wl.plan(prog, np.random.default_rng([seed, list(WORKLOADS).index(wl.name)]))
        warm = Tally()
        items = []
        for unit in plan.warmup:
            _, out = execute(prog, wl, unit, warm)
            if out is not None:
                items.append(wl.digest_item(unit, out))
        elapsed = time.perf_counter() - t0
        host.sample()
        times += host.scaled([elapsed], [mark])
    return prog, plan, warm, digest(items), times


def run_cli_subprocess(argv: list, runs: int, host: HostSpeed):
    """``runs`` CLI runs one at a time: (scaled seconds, exit code, stdout)."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "oapoly.cli", *argv]
    results = []
    for _ in range(runs):
        mark = host.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        host.sample()
        results.append((host.scaled([elapsed], [mark])[0], proc.returncode, proc.stdout))
    return results


def run_cli_inprocess(prog, argv: list):
    buf = io.StringIO()
    t0 = time.perf_counter_ns()
    with redirect_stdout(buf):
        code = prog.cli.main(list(argv))
    return time.perf_counter_ns() - t0, code, buf.getvalue().encode()


def measure(prog, wl, plan, seconds: float, tally: Tally, argv: list, cli_runs: int,
            host: HostSpeed):
    """PASSES passes over the same rounds, with CLI runs after each pass.

    Each unit time is scaled by the mean of the host speed samples taken just
    before and just after it. The first pass runs whole rounds until its
    scaled unit times reach seconds / PASSES (or, on a badly contended host,
    twice that in wall time); the others repeat those rounds. A unit's time
    is its fastest pass.
    """
    best, ops, cli = [], 0, []
    rounds = 0
    budget_ns = seconds / PASSES * 1e9
    for p in range(PASSES):
        gc.collect()
        wall_cap = time.perf_counter() + 2 * seconds / PASSES
        raw, marks = [], []
        spent = 0.0
        r = 0
        while r < rounds if p else (r == 0 or (spent < budget_ns and time.perf_counter() < wall_cap)):
            for unit in plan.rounds[r % len(plan.rounds)]:
                marks.append(host.mark())
                done = tally.attempted - tally.failed
                ns, _ = execute(prog, wl, unit, tally)
                raw.append(ns)
                spent += ns * REF_NS / host.samples[marks[-1]]
                if p == 0:
                    ops += tally.attempted - tally.failed - done
            r += 1
        rounds = r
        host.sample()
        scaled = host.scaled(raw, marks)
        best = [min(t, b) for t, b in zip(scaled, best or [math.inf] * len(scaled))]
        cli += run_cli_subprocess(argv, cli_runs, host)
    return best, ops, rounds, cli


def paused(tracer: Tracer | None):
    """Checks call into the program too; their spans are not recorded."""
    return tracer.pause() if tracer is not None else nullcontext()


def phase(prog, wl, plan, units, argv, tally, host: HostSpeed, tracer=None):
    """The fixed unit list and the in-process CLI runs.

    Returns the raw and the scaled ns spent in program calls, and the
    outputs' digest.
    """
    raw, marks, items = [], [], []
    for unit in units:
        marks.append(host.mark())
        ns, out = execute(prog, wl, unit, tally, tracer)
        raw.append(ns)
        if out is not None:
            items.append(wl.digest_item(unit, out))
    for _ in range(CLI_INPROC_RUNS):
        marks.append(host.mark())
        ns, code, stdout = run_cli_inprocess(prog, argv)
        raw.append(ns)
        with paused(tracer):
            check_cli_output(prog, wl, plan, code, stdout, tally)
        items.append(hashlib.sha256(stdout).hexdigest())
    host.sample()
    return sum(raw), sum(host.scaled(raw, marks)), digest(items)


def arrangement_cache_size():
    cache = getattr(sys.modules.get("oapoly.polynomials"), "_arrangements", None)
    return cache.cache_parameters()["maxsize"] if hasattr(cache, "cache_parameters") else None


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  *, setup_reps: int = SETUP_REPS, cli_runs: int = CLI_RUNS) -> dict:
    wl = WORKLOADS[workload]
    host = HostSpeed()
    prog, plan, tally, warm_digest, setup_times = setup(wl, seed, setup_reps if not trace else 1, host)
    workdir = OUT / f"work-{workload}-s{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    argv = wl.cli_argv(plan, workdir)
    manifest = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        **environment(),
        "distinct_keys": plan.distinct_keys, "cache_entries": arrangement_cache_size(),
        "digest": {"outputs": warm_digest},
        "cli_argv": argv,
    }
    lines = []
    if not trace:
        durations, ops, rounds, cli = measure(prog, wl, plan, seconds, tally, argv, cli_runs, host)
        for _, code, stdout in cli:
            check_cli_output(prog, wl, plan, code, stdout, tally)
        if any(stdout != cli[0][2] for _, _, stdout in cli):
            tally.fail(1, "CLI: identical invocations printed different bytes")
        manifest["digest"]["cli_stdout"] = hashlib.sha256(cli[0][2]).hexdigest()[:16]
        pct, tail_ns = tail(durations)
        ms = [d / 1e6 for d in durations]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (ops / (sum(durations) / 1e9), "1/s"),
            "unit_p50_ms": (statistics.median(ms), "ms"),
            "unit_tail_ms": (tail_ns / 1e6, "ms"),
            "cli_p50_ms": (statistics.median(t for t, _, _ in cli) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        manifest.update(units=len(durations), rounds=rounds, tail_percentile=pct,
                        setup_times_s=setup_times, cli_times_s=[t for t, _, _ in cli])
        lines.append(f"units={len(durations)} rounds={rounds} unit_tail_ms=p{pct:.2f} "
                     f"({len(durations)} samples)")
    else:
        rounds = max(1, round(wl.trace_rounds * seconds / 10))
        units = [u for r in range(rounds) for u in plan.rounds[r % len(plan.rounds)]]
        clear_caches()
        gc.collect()
        _, plain_ns, plain_digest = phase(prog, wl, plan, units, argv, tally, host)
        tracer = Tracer()
        clear_caches()
        gc.collect()
        before = cache_counts()
        tracer.install()
        try:
            raw_ns, traced_ns, traced_digest = phase(prog, wl, plan, units, argv, tally, host, tracer)
        finally:
            tracer.uninstall()
        after = cache_counts()
        metrics = tracer.metrics(traced_ns, plain_ns, before, after, traced_ns / raw_ns)
        missing = missing_layers(tracer, wl.required_layers)
        for req in missing:
            tally.fail(1, f"coverage: layer {req} recorded no spans")
        if plain_digest != traced_digest:
            tally.fail(1, "traced outputs differ from untraced outputs")
        OUT.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(OUT / f"spans-{workload}-s{seed}.npz", names=np.array(tracer.names),
                            **tracer.arrays())
        manifest.update(units=len(units), rounds=rounds, spans=len(tracer.span_name),
                        unbound_targets=tracer.unbound, missing_layers=missing)
    manifest.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors,
                    host_ref_ns=host.samples, host_ref_target_ns=REF_NS)
    path = OUT / f"manifest-{workload}-s{seed}-t{int(trace)}.json"
    if path.exists():
        old = json.loads(path.read_text()).get("digest")
        if old != manifest["digest"]:
            lines.append(f"digest changed since the last run in this checkout: {old} -> {manifest['digest']}")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str))
    lines.append(f"manifest {path.relative_to(ROOT)} digest {manifest['digest']}")
    return {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "lines": lines,
        "errors": tally.errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oapoly" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'oapoly'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for the benchmark and its CLI subprocesses, so that the host
    # speed samples and the CLI runs see the same contention
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for err in result.pop("errors"):
        print(f"failure: {err}", file=sys.stderr)
    for line in result.pop("lines"):
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
