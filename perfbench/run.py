"""swapforge benchmark: one closed-loop client, one process.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics, timed at a
reference host speed (see probe.py), with
``--trace 1`` the per-layer metrics of a traced run (see README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every operation passed its correctness gate.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from probe import REFERENCE_PROBE_S, SpeedProbe

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 11
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# The verify checks timed one by one in a traced run; the per-layer metric
# list is fixed here so it matches BENCHMARK.json whatever the package ships.
VERIFY_CHECKS = (
    "swap_identity",
    "born_normalization",
    "noisy_bell_single_round",
    "bipartition_closed_forms",
    "two_round_worked_example",
    "lemma1_necessity",
    "zero_c14_implies_zero_c12",
    "separable_residual_concurrence",
    "dual_path_equivalence",
    "psd_sqrt_closed_form",
    "qudit_generalization",
    "sweep_determinism",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from tracer import TARGETS

    units = {}
    for name in TARGETS:
        units[f"{name}.calls"] = "count/item"
        units[f"{name}.self_s"] = "s/item"
    units.update(
        {
            "engine.branches_attempted": "count/item",
            "engine.branches_kept": "count/item",
            "engine.branch_yield": "ratio",
            "states.read_povm.bytes": "B/item",
            "measures.i_concurrence.unused_frac": "ratio",
            "experiment.output_bytes": "B/item",
            "experiment.sweep_apply_useful_frac": "ratio",
        }
    )
    for check in VERIFY_CHECKS:
        units[f"verify.{check}.s"] = "s/item"
    units["trace.overhead_frac"] = "ratio"
    units["trace.untraced_s_per_item"] = "s/item"
    return units


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (which
    would search parent directories)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(work) -> dict:
    import numpy
    from swapforge import experiment

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "swapforge_threads_env": os.environ.get("SWAPFORGE_THREADS"),
        "sweep_worker_count": (
            experiment.worker_count(work.points) if work.name == "paper_sweep" else None
        ),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "git_commit": git_commit(),
    }


def measure_setup(code: str, tmpdir: str) -> tuple[float, float]:
    """Set-up time of a fresh interpreter importing swapforge and doing the
    workload's one-time preparation: the median over SETUP_REPEATS starts
    at the reference host speed, and the median of the raw wall times.
    After the preparation each interpreter rates its host with a probe
    burst, whose own time is taken off its wall time."""
    child = "\n".join(
        (
            f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]",
            code,
            "import time",
            "w = time.perf_counter()",
            "from probe import burst",
            "cpu, _ = burst()",
            "print(cpu, time.perf_counter() - w)",
        )
    )
    env = dict(os.environ, TMPDIR=tmpdir)
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        out = subprocess.run(
            [sys.executable, "-I", "-c", child], check=True, env=env, capture_output=True, text=True
        )
        wall = perf_counter() - t
        cpu, probe_wall = map(float, out.stdout.split()[-2:])
        scaled.append((wall - probe_wall) * REFERENCE_PROBE_S / cpu)
        raw.append(wall - probe_wall)
    return statistics.median(scaled), statistics.median(raw)


class Run:
    """Outcome of the timed loop: per-op start, seconds and failures."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.failures: list[str] = []
        self.traced: list[bool] = []

    def add(self, start: float, seconds: float, error: str | None, traced: bool = False) -> None:
        self.starts.append(start)
        self.seconds.append(seconds)
        self.traced.append(traced)
        if error is not None:
            self.failures.append(error)
            print(f"gate failed: {error}", file=sys.stderr)


def run_op(work, i: int, run: Run, traced: bool = False) -> None:
    t = perf_counter()
    try:
        work.op(i)
    except Exception as exc:  # an op that raises counts as failed; the loop goes on
        run.add(t, perf_counter() - t, f"op {i} raised {type(exc).__name__}: {exc}", traced)
        return
    elapsed = perf_counter() - t
    try:
        error = work.check(i)
    except Exception as exc:
        error = f"op {i}: gate raised {type(exc).__name__}: {exc}"
    run.add(t, elapsed, error, traced)


def timed_loop(work, seconds: float, probe) -> Run:
    """Closed loop: the next op starts when the previous one finished.
    Past the ops the gates need, an op starts only if one of average
    length still ends within the time.  The probe samples the host's
    speed throughout."""
    run = Run()
    with probe:
        start = perf_counter()
        i = 0
        while i < work.min_ops or (perf_counter() - start) * (i + 1) / i <= seconds:
            run_op(work, i, run)
            i += 1
    return run


def op_times(work, run: Run, probe) -> list[float]:
    """Seconds per operation at the reference host speed: wall time less
    the probe's own time inside it, scaled by the probe's rating of the
    host around it.  A workload that cycles through several inputs gives
    one value per input, the median over its repeats, so a partly done
    last pass does not shift the mix."""
    scaled = []
    for t0, s in zip(run.starts, run.seconds):
        scaled.append((s - probe.inside(t0, t0 + s)) * probe.scale(t0, t0 + s))
    if work.pass_ops == 1:
        return scaled
    by_input: dict[int, list[float]] = {}
    for i, t in enumerate(scaled):
        by_input.setdefault(i % work.pass_ops, []).append(t)
    return [statistics.median(ts) for ts in by_input.values()]


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(work, times: list[float], setup_s: float) -> dict[str, float]:
    ms = [t * 1e3 for t in times]
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(ms),
        "op_p95_ms": percentile(ms, 95),
        "items_per_s": work.items_per_op * len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_loop(work, seconds: float, checks: dict):
    """Run each op of a pass untraced and then traced on the same input,
    pass after pass, until the time is up.  Whole passes make the counts
    per item repeat exactly; the pairs give the tracing overhead."""
    from tracer import Tracer, tracing

    tracer = Tracer()
    run = Run()
    output_bytes = 0
    start = perf_counter()
    i = passes = 0
    while passes == 0 or (perf_counter() - start) * (passes + 1) / passes <= seconds:
        passes += 1
        for _ in range(work.pass_ops):
            run_op(work, i, run)
            tracer.run_id = i
            with tracing(tracer, checks):
                run_op(work, i, run, traced=True)
            output_bytes += work.output_bytes
            i += 1
    return tracer, run, output_bytes


def per_layer(work, tracer, run: Run, output_bytes: int) -> dict[str, float]:
    from tracer import TARGETS

    items = work.items_per_op * sum(run.traced)
    stats = tracer.aggregate()
    metrics = {}
    for name in TARGETS:
        calls, self_s, _ = stats.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls / items
        metrics[f"{name}.self_s"] = self_s / items
    c = tracer.counters
    attempted = stats.get("engine.apply_element", (0,))[0]
    concurrences = stats.get("measures.i_concurrence", (0,))[0]
    unused = c["concurrence_fields_set"] - c["concurrence_fields_read"]
    metrics.update(
        {
            "engine.branches_attempted": attempted / items,
            "engine.branches_kept": c["branches_kept"] / items,
            "engine.branch_yield": c["branches_kept"] / attempted if attempted else 1.0,
            "states.read_povm.bytes": c["read_povm_bytes"] / items,
            "measures.i_concurrence.unused_frac": unused / concurrences if concurrences else 0.0,
            "experiment.output_bytes": output_bytes / items,
            "experiment.sweep_apply_useful_frac": sweep_apply_useful_frac(tracer),
        }
    )
    for check in VERIFY_CHECKS:
        metrics[f"verify.{check}.s"] = stats.get(f"verify.{check}", (0, 0.0, 0.0))[2] / items
    plain = sum(s for s, t in zip(run.seconds, run.traced) if not t)
    traced = sum(s for s, t in zip(run.seconds, run.traced) if t)
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    metrics["trace.untraced_s_per_item"] = plain / items
    return metrics


def sweep_apply_useful_frac(tracer) -> float:
    """Share of apply_element calls inside run_sweep that the final records
    need: those under a chain over every round, not a shorter prefix."""
    names = tracer.names
    sweep_id = names.index("experiment.run_sweep") if "experiment.run_sweep" in names else -1
    apply_id = names.index("engine.apply_element") if "engine.apply_element" in names else -1
    in_sweep = [False] * len(tracer)
    chain_rounds = []  # per apply_element span inside run_sweep: its chain's round count
    for idx, (nid, parent) in enumerate(zip(tracer.name_id, tracer.parent)):
        in_sweep[idx] = nid == sweep_id or (parent >= 0 and in_sweep[parent])
        if nid == apply_id and in_sweep[idx]:
            chain_rounds.append(tracer.chain_rounds.get(parent, 0))
    if not chain_rounds:
        return 1.0
    return chain_rounds.count(max(chain_rounds)) / len(chain_rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "swapforge", "__init__.py")):
        print(f"error: no swapforge sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # The traced run nests spans on one stack, so the package runs
    # single-threaded there; the untraced run keeps the shipped default.
    if args.trace:
        os.environ["SWAPFORGE_THREADS"] = "1"
    else:
        os.environ.pop("SWAPFORGE_THREADS", None)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    tempfile.tempdir = workdir  # in-process temp files stay inside the checkout
    try:
        import swapforge
        from swapforge import verify

        if not os.path.abspath(swapforge.__file__).startswith(SRC + os.sep):
            print(f"error: swapforge imported from {swapforge.__file__}, not {SRC}", file=sys.stderr)
            return 2
        work = WORKLOADS[args.workload](workdir, args.seed)
        captured = io.StringIO()
        if args.trace:
            with contextlib.redirect_stdout(captured):
                tracer, run, output_bytes = traced_loop(
                    work, args.seconds, getattr(verify, "_CHECKS", {})
                )
            metrics = per_layer(work, tracer, run, output_bytes)
            units = per_layer_units()
            tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
        else:
            setup_s, raw_setup_s = measure_setup(work.setup_code, workdir)
            probe = SpeedProbe()
            with contextlib.redirect_stdout(captured):
                run = timed_loop(work, args.seconds, probe)
            metrics = end_to_end(work, op_times(work, run, probe), setup_s)
            raw = end_to_end(work, run.seconds, raw_setup_s)
            units = END_TO_END_UNITS
        env = environment(work)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run.seconds)
    failed = len(run.failures)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": attempted,
        "failed_frac": failed / attempted,
        "captured_stdout_lines": len(captured.getvalue().splitlines()),
        "env": env,
    }
    if not args.trace:
        info["unscaled"] = {n: raw[n] for n in ("setup_s", "op_p50_ms", "op_p95_ms", "items_per_s")}
        info["probe"] = {
            "samples": len(probe.cpu),
            "median_s": statistics.median(probe.cpu),
            "reference_s": REFERENCE_PROBE_S,
        }
    if isinstance(work, WORKLOADS["qudit_runs"]):
        info["report_digest"] = work.digest()
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {units[name]}")
    print(f"{'failed_frac':44s} {failed / attempted:.6g} ratio")
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
