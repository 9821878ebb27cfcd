"""Closed-loop set-point controller benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: presets, saturated, undervoltage, soc-edge (see README.md).  The
package is imported from the checkout's ``src`` directory.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run plus the layer micro-cases.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every output
checked correct, 1 when a check failed (the JSON line is still printed), 2
when the benchmark could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh processes timed for setup_s.
SETUP_PROBES = 7

#: A fresh interpreter that imports only the third-party modules the package
#: imports.  It is timed between the set-up probes as the reference for them.
REFERENCE_PROBE = ["-c", "import numpy, click; print('ready', flush=True)"]

#: Time of REFERENCE_PROBE on the reference machine at rest (2-vCPU Intel
#: Xeon VM, Python 3.11, numpy 2.4) [s].
REFERENCE_PROBE_S = 0.10

#: The benchmark is single-threaded.  BLAS thread pools would spin on the
#: other cores, so the figures would depend on whether those are free.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> None:
    """Import ``bessctl`` from this checkout's source tree, never from elsewhere."""
    if not (SRC / "bessctl" / "__init__.py").is_file():
        die(f"no package source under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import bessctl

    if not Path(bessctl.__file__).resolve().is_relative_to(SRC):
        die(f"bessctl was imported from {bessctl.__file__}, not from {SRC}")


def time_to_ready(args: list[str], env: dict) -> float:
    """Seconds from starting a fresh interpreter until it prints a ``ready`` line."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        returncode = proc.wait()
    words = ready.split()
    if returncode != 0 or not words or words[0] != "ready":
        raise RuntimeError(f"probe {args[0]} failed with status {returncode}")
    if len(words) > 1 and not Path(words[1]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"setup probe imported bessctl from {words[1]}")
    return elapsed


def measure_setup(workload: str) -> float:
    """Median time from process start until the workload's first step can run.

    Process start-up slows less than the step kernel of speed.py when other
    load shares the machine, so set-up probes are normalised by a reference
    probe of the same kind instead: each probe's time is divided by the mean
    of the reference probes timed just before and after it, and scaled to
    REFERENCE_PROBE_S.  One untimed pair first fills the bytecode cache.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = [str(HERE / "setup_probe.py"), workload]
    time_to_ready(probe, env)
    before = time_to_ready(REFERENCE_PROBE, env)
    ratios = []
    for _ in range(SETUP_PROBES):
        elapsed = time_to_ready(probe, env)
        after = time_to_ready(REFERENCE_PROBE, env)
        ratios.append(elapsed / ((before + after) / 2))
        before = after
    return statistics.median(ratios) * REFERENCE_PROBE_S


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    os.environ.update(SINGLE_THREADED)  # before numpy is imported, here and in the probes
    import_package()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")

    tally = wl.Tally()
    if args.trace:
        from micro import run_micro

        if args.workload == "presets":
            tracer, facts = wl.presets_layers(args.seed, args.seconds, tally)
        else:
            tracer, facts = wl.generated_layers(args.workload, args.seed, args.seconds, tally)
        metrics = wl.layer_metrics(tracer, facts)
        metrics.update(run_micro())
        tracer.write(wl.OUT / args.workload / "spans.csv")
        samples = f"{tracer.count(wl.STEP)} traced steps"
    else:
        setup_s = measure_setup(args.workload)
        if args.workload == "presets":
            run = wl.presets_e2e(args.seed, args.seconds, tally)
        else:
            run = wl.generated_e2e(args.workload, args.seed, args.seconds, tally)
        metrics = wl.e2e_metrics(run, setup_s, tally)
        clock = run["clock"]
        slow = statistics.quantiles(clock.slowdowns, n=10)
        samples = (
            f"{len(clock.latencies[0])} steps, each the median of {len(clock.walls)} passes; "
            f"{SETUP_PROBES} setup probes; {len(clock.slowdowns)} kernel runs, machine slowdown "
            f"p10 {slow[0]:.3f}, median {statistics.median(clock.slowdowns):.3f}, p90 {slow[-1]:.3f}"
        )

    correct = tally.failed == 0
    print(f"# {args.workload} seed={args.seed}: {samples}; {tally.failed}/{tally.attempted} steps failed")
    if tally.first_error:
        print(f"# first failure: {tally.first_error}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
