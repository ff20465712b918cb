#!/usr/bin/env python3
"""Time swapforge's whole commands and its stacked-engine layers.

    python scripts/bench.py --out BENCH.json [--repeats 5]

Every timing is the median (with the minimum and maximum) of ``--repeats``
runs, each after one untimed warm-up run; a layer's run, and a run of
``run_sweep`` or ``run_scenario``, repeats its call for about LOOP_S
seconds and is timed per call.  The script runs inside perfbench's
``SpeedProbe``, and each timing also gives its median at the reference
host speed, scaled as perfbench scales an operation: wall time less the
probe's own time inside it, times the probe's rating of the host around
it.  Whole commands: ``run_sweep`` of the paper chain (noisy_bell,
wire2_computational) at 201 and 2001 points, ``run_scenario`` once per
built-in family, ``run_verification`` overall and per check (from the
same runs), and ``import swapforge`` in a child interpreter.  Layers, each
on the paper sweep's real d = 2 chunk and on a seeded complex d = 3 stack:
the first round's check (the sweep's ``check_spectrum_stack`` of
``noisy_bell_spectrum``, eigenvalues on one shared eigenvector table, over
one block of STACK_ENTRIES // 16 = 1024 grid points, the one check a
1001-point sweep makes; and ``check_povm_stack``), its ``_expand`` round,
and ``_stacked_rho14`` and ``_stacked_negativity`` of the last round's
states; the sweep's CSV formatting pass, timed as ``run_sweep`` on
columns computed beforehand; and ``build.<family>``, each built-in
family's Povm construction: its ``FAMILIES`` builder called with the
parameters of its ``run_scenario`` round.
The context records ``nproc``, versions, the BLAS environment variables
and the git commit of the imported package (null outside a git checkout),
and ``probe`` the probe's samples.  The JSON document's key set is fixed.
The package is imported from PYTHONPATH, so one copy of this script times
any checkout:

    PYTHONPATH=/path/to/other/src python scripts/bench.py --out other.json

The whole-command timings cannot resolve a change of a few percent on a
shared 2-vCPU host: four runs of one checkout read ``run_sweep_2001`` at
17.7 to 24.8 ms raw.  A performance claim needs ``scripts/ab_pairs.py``
with at least 10 alternating pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from probe import REFERENCE_PROBE_S, SpeedProbe  # noqa: E402  (perfbench/ is not a package)

import swapforge  # noqa: E402
from swapforge import engine, experiment, verify  # noqa: E402
from swapforge.config import OutputsSpec, RoundSpec, ScenarioConfig, SweepSpec  # noqa: E402
from swapforge.families import FAMILIES, noisy_bell_spectrum, wire2_computational_povm  # noqa: E402
from swapforge.sampling import random_povm, random_povm_stack  # noqa: E402
from swapforge.states import check_povm_stack, check_spectrum_stack, write_povm  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
LOOP_S = 0.2  # a looped run lasts about this long: 8 or more of the probe's 25 ms samples
# separable_product factors: the projectors of the computational and |+>, |-> bases
Z, X = ([{"theta": th, "phi": 0.0, "tau1": t, "tau2": 1.0 - t} for t in (1.0, 0.0)]
        for th in (0.0, np.pi / 2))
FAMILY_ROUNDS = {  # one round per family
    "noisy_bell": {"lambda": 0.2},
    "bell_projective": {},
    "wire2_computational": {},
    "separable_product": {"elements": [{"a": a, "b": b} for a in Z for b in X]},
    "file": {"path": "file_povm.json"},  # a seeded d = 3 POVM of four elements
}


def summary(probe: SpeedProbe, runs: list[tuple[float, float, int, bool]]) -> dict:
    """Seconds per call of (start, seconds, calls, own) runs: the median,
    minimum and maximum, and the median scaled to the reference host speed.
    The probe's time inside a run is taken off when the run was this
    process's own (``own``), not a child's."""
    raw = [s / n for _, s, n, _ in runs]
    scaled = [(s - own * probe.inside(t0, t0 + s)) * probe.scale(t0, t0 + s) / n
              for t0, s, n, own in runs]
    return {"median_s": statistics.median(raw), "min_s": min(raw), "max_s": max(raw),
            "scaled_median_s": statistics.median(scaled)}


def timed(fn, repeats: int, loop: bool = False) -> list:
    """``repeats`` runs of one ``fn()`` call, for summary(), after a warm-up
    call; with ``loop`` each run calls fn about as often as fills LOOP_S."""
    t0 = perf_counter()
    fn()  # the warm-up call; its time sizes the loop
    calls = max(1, int(LOOP_S / max(perf_counter() - t0, 1e-9))) if loop else 1
    runs = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        runs.append((t0, perf_counter() - t0, calls, True))
    return runs


def import_time() -> tuple[float, float, int, bool]:
    """``import swapforge`` in a fresh child interpreter as a run: its start
    on the child's perf_counter (the system-wide monotonic clock the probe
    reads) and its seconds."""
    src = str(Path(swapforge.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import time; t = time.perf_counter(); import swapforge; print(t, time.perf_counter()-t)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    return (*map(float, out.stdout.split()), 1, False)


def sweep_config(steps: int) -> ScenarioConfig:
    """The paper chain, noisy_bell then wire2_computational, swept over lambda in [0, 1]."""
    rounds = (RoundSpec("noisy_bell"), RoundSpec("wire2_computational"))
    return ScenarioConfig(2, rounds, sweep=SweepSpec("lambda", 0.0, 1.0, steps))


def commands(workdir: str, repeats: int) -> dict:
    csv = os.path.join(workdir, "sweep.csv")
    out = {f"run_sweep_{n}": timed(lambda n=n: experiment.run_sweep(sweep_config(n), csv),
                                   repeats, loop=True) for n in (201, 2001)}
    write_povm(random_povm(np.random.default_rng(2500), d=3, n_elements=4),
               os.path.join(workdir, FAMILY_ROUNDS["file"]["path"]))
    for name in FAMILIES:
        config = ScenarioConfig(3 if name == "file" else 2, (RoundSpec(name, FAMILY_ROUNDS[name]),),
                                outputs=OutputsSpec(report_path="report.json"), base_dir=workdir)
        out[f"run_scenario.{name}"] = timed(lambda c=config: experiment.run_scenario(c), repeats,
                                            loop=True)
    runs, starts = [], []

    def verification():
        starts.append(perf_counter())
        runs.append(verify.run_verification())
        if not all(r.passed for r in runs[-1]):
            raise SystemExit("verification failed; its timings would mean nothing")

    out["run_verification"] = timed(verification, repeats)
    for k, name in enumerate(verify.CHECK_NAMES):  # the warm-up run (runs[0]) is left out
        out[f"run_verification.{name}"] = [  # a check starts when those before it end
            (t0 + sum(r.seconds for r in run[:k]), run[k].seconds, 1, True)
            for t0, run in zip(starts[1:], runs[1:])]
    import_time()  # warms the file cache, as timed() warms the others
    out["import_swapforge"] = [import_time() for _ in range(repeats)]
    return out


def stack_layers(label: str, d: int, name: str, check, shared: list, repeats: int,
                 points: int | None = None) -> dict:
    """The stacked-engine layers on one chain: ``check()`` (timed as
    ``name``), which checks the first round and returns its floored
    spectrum, and on its first ``points`` grid points (all if None) that
    round's _expand round, and rho14 and negativity of the last round's x
    after the ``shared`` element stacks."""
    w, v = check()
    spectra = [(w[:points], v)] + [check_povm_stack(s) for s in shared]
    x = list(engine._expand(d, spectra, 1e-12))[-1][0]
    rho = engine._stacked_rho14(x)
    calls = {
        name: check,
        "_expand_round": lambda: next(engine._expand(d, spectra[:1], 1e-12)),
        "_stacked_rho14": lambda: engine._stacked_rho14(x),
        "_stacked_negativity": lambda: engine._stacked_negativity(rho, d),
    }
    return {f"{label}.{name}": timed(fn, repeats, loop=True) for name, fn in calls.items()}


def layers(workdir: str, repeats: int) -> dict:
    chunk = engine.STACK_ENTRIES // (4 * 2 * 2**4)  # the sweep's chunk: 4 x 2 branches, d = 2
    block = engine.STACK_ENTRIES // (4 * 4)  # the sweep's check: 4 x 4 eigenvalues a point
    lams, rng = np.linspace(0.0, 1.0, block), np.random.default_rng(2501)
    swept = random_povm_stack(rng, 16, d=3, n_elements=3)  # 16 grid points, then a shared round
    out = stack_layers("real_d2", 2, "check_spectrum_stack",
                       lambda: check_spectrum_stack(*noisy_bell_spectrum(lams)),
                       [wire2_computational_povm().matrices[None]], repeats, chunk)
    out |= stack_layers("complex_d3", 3, "check_povm_stack", lambda: check_povm_stack(swept),
                        [random_povm_stack(rng, 1, d=3, n_elements=2)], repeats)
    config = sweep_config(2001)
    columns = experiment._sweep_columns(config)
    csv, compute = os.path.join(workdir, "format.csv"), experiment._sweep_columns
    experiment._sweep_columns = lambda config: columns  # run_sweep then only formats and writes
    try:
        out["csv_format_2001"] = timed(lambda: experiment.run_sweep(config, csv), repeats, True)
    finally:
        experiment._sweep_columns = compute
    for name, params in FAMILY_ROUNDS.items():  # the file round's POVM is commands()'s
        args = [os.path.join(workdir, params[p]) if p == "path" else params[p]
                for p in FAMILIES[name].params]
        out[f"build.{name}"] = timed(lambda b=FAMILIES[name].build, a=args: b(*a), repeats, True)
    return out


def context() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=Path(swapforge.__file__).parent,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),  # what `nproc` prints: the CPUs this process may use
        "python": platform.python_version(),
        "numpy": np.__version__,
        "swapforge": swapforge.__version__,
        "platform": platform.platform(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the JSON document")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    t0 = perf_counter()
    probe = SpeedProbe()  # samples the host's speed throughout the runs
    with tempfile.TemporaryDirectory() as workdir, probe:
        runs = {"commands": commands(workdir, args.repeats),
                "layers": layers(workdir, args.repeats)}
    # summarized once the probe has sampled past the last run
    doc = {key: {name: summary(probe, r) for name, r in part.items()} for key, part in runs.items()}
    doc |= {"repeats": args.repeats, "context": context()}
    doc["probe"] = {"samples": len(probe.cpu), "median_s": statistics.median(probe.cpu),
                    "reference_s": REFERENCE_PROBE_S}
    doc["wall_s"] = perf_counter() - t0
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out} in {doc['wall_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
