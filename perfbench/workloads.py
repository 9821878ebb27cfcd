"""Workloads of the benchmark and the closed loop that runs them.

Every workload drives one controller in a closed loop: each ``solve_step``
starts only after the previous one returned, as the per-second controller
does.  README.md says why each workload exists and which layer it loads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import bessctl.simctl as simctl
from bessctl.battery import TtcParams, TtcState, builtin_ttc_params
from bessctl.capability import Anchor, CapabilityCurve, build_region, builtin_curves, index_curves
from bessctl.optimizer import (
    STATUS_CLAMP,
    STATUS_CLIPPED,
    STATUS_FALLBACK,
    ControllerConfig,
    ControlRecord,
    SetpointController,
)
from speed import CalibratedCalls
from tracer import ALL_POINTS, STEP, Tracer, percentile

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
#: Outputs of the runs (preset outputs, records, spans), inside the checkout.
OUT = HERE.parent / ".bench_out"
PRESETS = ("scenario1", "scenario2", "scenario3", "scenario4")

#: Deviation statistics of the shipped preset traces: sigma_f [Hz], sigma_v [kV].
SIGMA_F = 0.01782
SIGMA_V = 0.0672


@dataclass(frozen=True)
class Generated:
    """A library-driven workload: the scenario4 preset with these changes."""

    n: int
    mu_v: float = 21.192
    lambda_q: float = 1.0
    soc_init: float = 0.5


#: Trace lengths give at least 10 steps beyond the p99 and keep one pass
#: within about 4 s on the seed commit, so that a 20 s run repeats every
#: step at least three times even when other load halves the machine's speed.
GENERATED = {
    "saturated": Generated(n=1200),
    "undervoltage": Generated(n=1000, mu_v=18.7),
    "soc-edge": Generated(n=8000, lambda_q=0.0, soc_init=0.11),
}
WORKLOADS = ("presets",) + tuple(GENERATED)

#: Steps run once, checked but untimed, before a generated workload is measured,
#: so that first-call costs inside the package stay out of the figures.
WARMUP_STEPS = 50

#: Fewest passes over the same inputs in a timed run, so that every step has
#: repeats to take its median from.
MIN_PASSES = 3

#: Traced passes stop once this many steps were traced, which bounds the
#: memory and the time spent on the spans of the fast workloads.
MAX_TRACED_STEPS = 24000


@dataclass
class Setup:
    """Everything a workload needs before its first step can run."""

    scenario: simctl.ScenarioSpec
    cfg: ControllerConfig
    curves: dict[Anchor, CapabilityCurve]
    bands: list[TtcParams]

    def new_controller(self) -> SetpointController:
        return SetpointController(self.cfg, self.curves, self.bands)


def load_setup(workload: str) -> Setup:
    """Parse the configuration, curves and parameters of a workload.

    ``presets`` loads scenario1 as ``bessctl run`` would; the generated
    workloads load scenario4 and apply their changes, with a horizon that
    matches the generated trace.
    """
    preset = "scenario1" if workload == "presets" else "scenario4"
    scenario, cfg = simctl.load_run_config(simctl.builtin_scenario_path(preset))
    curves = index_curves(builtin_curves())
    bands = builtin_ttc_params()
    spec = GENERATED.get(workload)
    if spec is not None:
        scenario = dataclasses.replace(
            scenario,
            duration_s=spec.n * cfg.battery.delta_t,
            lambda_q=spec.lambda_q,
            soc_init=spec.soc_init,
            trace=None,
        )
        cfg = dataclasses.replace(cfg, droop=dataclasses.replace(cfg.droop, lambda_q=spec.lambda_q))
    return Setup(scenario, cfg, curves, bands)


def make_trace(workload: str, seed: int):
    spec = GENERATED[workload]
    return simctl.generate_trace(SIGMA_F, SIGMA_V, mu_v=spec.mu_v, n=spec.n, seed=seed)


def run_pass(setup: Setup, trace) -> tuple[list[ControlRecord], Exception | None]:
    """One closed-loop pass over the trace from the scenario's initial state.

    A fresh controller starts each pass, so every pass is the same run.
    Returns the records of the steps that completed and the exception that
    stopped the pass, if one did.
    """
    controller = setup.new_controller()
    state = TtcState(0.0, 0.0, 0.0, setup.scenario.soc_init)
    records: list[ControlRecord] = []
    for sample in trace:
        try:
            record, state = controller.solve_step(sample, state)
        except Exception as exc:  # counted as failed steps by the caller
            return records, exc
        records.append(record)
    return records, None


def infeasible_steps(records: Sequence[ControlRecord], setup: Setup) -> int:
    """Records whose set-point lies outside the region of their own curves."""
    regions = {}
    bad = 0
    for r in records:
        key = (r.curve_dc, r.curve_ac)
        if key not in regions:
            selected = [setup.curves[r.curve_dc]]
            if r.curve_ac is not None:
                selected.append(setup.curves[r.curve_ac])
            regions[key] = build_region(selected, setup.cfg.shrink)
        if not regions[key].contains(r.p_opt, r.q_opt):
            bad += 1
    return bad


def run_preset(name: str, out_dir: Path) -> None:
    """``bessctl run`` on one shipped preset at its shipped seed."""
    args = ["run", "--scenario", str(simctl.builtin_scenario_path(name)), "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        simctl.main(args, prog_name="bessctl", standalone_mode=False)


def golden_steps(name: str) -> int:
    return json.loads((GOLDEN_DIR / name / "summary.json").read_text("utf-8"))["steps"]


def matches_golden(name: str, out_dir: Path) -> bool:
    """Byte-for-byte comparison of a preset run's outputs with the goldens."""
    for fname in ("records.csv", "summary.json"):
        produced = out_dir / fname
        if not produced.is_file() or produced.read_bytes() != (GOLDEN_DIR / name / fname).read_bytes():
            return False
    return True


class Tally:
    """Steps attempted and failed, with the first failure kept for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None

    def add(self, attempted: int, failed: int, error: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if error and self.first_error is None:
            self.first_error = error


def per_step_medians(latencies: Sequence[Sequence[float]]) -> list[float]:
    """Each step's median over the passes of its normalised latency.

    Every pass runs the same steps on the same inputs, so the median over
    passes drops a step's repeats that a burst of other load slowed, or that
    a kernel run around it normalised too far.  Passes that stopped early
    (and so failed) are left out.
    """
    n = max(len(lat) for lat in latencies)
    return [statistics.median(col) for col in zip(*(lat for lat in latencies if len(lat) == n))]


def timed_passes(one_pass: Callable[[CalibratedCalls], None], seconds: float) -> CalibratedCalls:
    """Repeat a pass for ``seconds``, and at least MIN_PASSES times.

    ``one_pass`` runs its steps inside the clock's ``timed_pass()``.  Every
    ``solve_step`` is timed and normalised by the machine speed around it
    (see speed.py).
    """
    start = time.perf_counter()
    with CalibratedCalls(SetpointController, "solve_step") as clock:
        while len(clock.walls) < MIN_PASSES or time.perf_counter() - start < seconds:
            one_pass(clock)
    return clock


# -- presets: `bessctl run` on the shipped scenarios, checked against goldens --


def preset_order(seed: int) -> tuple[str, ...]:
    """The presets' inputs are fixed by the golden contract; the seed only
    rotates the order in which they run."""
    k = seed % len(PRESETS)
    return PRESETS[k:] + PRESETS[:k]


def preset_sweep(order: Sequence[str], tally: Tally, timing=contextlib.nullcontext) -> float:
    """Run the presets once each, then check their outputs.

    The runs happen inside ``timing()``; the checks follow it.  Returns the
    wall time of the runs.
    """
    errors: dict[str, str] = {}
    t0 = time.perf_counter()
    with timing():
        for name in order:
            try:
                run_preset(name, OUT / "presets" / name)
            except Exception as exc:  # a failed run counts all its steps as failed
                errors[name] = f"{name}: {type(exc).__name__}: {exc}"
    total = time.perf_counter() - t0
    for name in order:
        steps = golden_steps(name)
        error = errors.get(name)
        if error is None and not matches_golden(name, OUT / "presets" / name):
            error = f"{name}: outputs differ from the golden files"
        tally.add(steps, steps if error else 0, error)
    return total


def preset_summaries() -> list[dict]:
    return [
        json.loads((OUT / "presets" / name / "summary.json").read_text("utf-8"))
        for name in PRESETS
    ]


def presets_e2e(seed: int, seconds: float, tally: Tally) -> dict:
    order = preset_order(seed)
    preset_sweep(order[:1], tally)  # warm-up, untimed
    clock = timed_passes(lambda clock: preset_sweep(order, tally, clock.timed_pass), seconds)
    summaries = preset_summaries()
    e_exp = sum(s["energy_kwh"]["expected"] for s in summaries)
    e_star = sum(s["energy_kwh"]["delivered_optimal"] for s in summaries)
    return {"clock": clock, "energy_ratio": e_star / e_exp}


def presets_layers(seed: int, seconds: float, tally: Tally):
    """Alternate untraced and traced sweeps; returns the tracer and its facts."""
    order = preset_order(seed)
    preset_sweep(order[:1], tally)  # warm-up, untimed
    tracer = Tracer(ALL_POINTS)
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while not traced or (
        time.perf_counter() - start < seconds and tracer.count(STEP) < MAX_TRACED_STEPS
    ):
        untraced.append(preset_sweep(order, tally))
        with tracer:
            traced.append(preset_sweep(order, tally))
    counts: dict[str, int] = {}
    steps = 0
    for summary in preset_summaries():
        steps += summary["steps"]
        for flag, n in summary["status_counts"].items():
            counts[flag] = counts.get(flag, 0) + n
    return tracer, {
        "passes": len(traced),
        "rows_written": tracer.count(STEP),
        "status_counts": counts,
        "steps": steps,
        "gap": 1.0 - statistics.median(u / t for u, t in zip(untraced, traced)),
    }


# -- generated workloads: the library in a closed loop over a generated trace --


def check_pass(records, exc, first, setup: Setup, n: int) -> tuple[int, str | None]:
    """Failed steps of one pass: the step that raised, the steps left unrun,
    set-points outside their region, and records that differ from pass one."""
    failed = n - len(records)
    error = None if exc is None else f"step {len(records)}: {type(exc).__name__}: {exc}"
    if first is None:
        bad = infeasible_steps(records, setup)
        if bad and error is None:
            error = f"{bad} set-points outside their feasible region"
    else:
        bad = sum(a != b for a, b in zip(records, first))
        if bad and error is None:
            error = f"{bad} records differ between passes over the same trace"
    return failed + bad, error


def checked_pass(
    setup: Setup, trace, first, tally: Tally, timing=contextlib.nullcontext
) -> tuple[list[ControlRecord], float]:
    """Run one pass inside ``timing()``, then check it; returns its records and wall time."""
    t0 = time.perf_counter()
    with timing():
        records, exc = run_pass(setup, trace)
    elapsed = time.perf_counter() - t0
    tally.add(len(trace), *check_pass(records, exc, first, setup, len(trace)))
    return records, elapsed


def generated_e2e(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    setup = load_setup(workload)
    trace = make_trace(workload, seed)
    checked_pass(setup, trace[:WARMUP_STEPS], None, tally)
    first = None

    def one_pass(clock: CalibratedCalls) -> None:
        nonlocal first
        records, _ = checked_pass(setup, trace, first, tally, clock.timed_pass)
        if first is None:
            first = records

    clock = timed_passes(one_pass, seconds)
    report = simctl.energy_metrics(first, setup.scenario.alpha0, setup.cfg.battery.delta_t)
    return {"clock": clock, "energy_ratio": report.ratio_star}


def generated_layers(workload: str, seed: int, seconds: float, tally: Tally):
    """Alternate untraced and traced passes, then summarize and write the records."""
    tracer = Tracer(ALL_POINTS)
    with tracer:
        setup = load_setup(workload)
        trace = make_trace(workload, seed)
    checked_pass(setup, trace[:WARMUP_STEPS], None, tally)
    first = None
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while not traced or (
        time.perf_counter() - start < seconds and tracer.count(STEP) < MAX_TRACED_STEPS
    ):
        records, elapsed = checked_pass(setup, trace, first, tally)
        untraced.append(elapsed)
        if first is None:
            first = records
        with tracer:
            _, elapsed = checked_pass(setup, trace, first, tally)
        traced.append(elapsed)
    out_dir = OUT / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    with tracer:
        report = simctl.energy_metrics(first, setup.scenario.alpha0, setup.cfg.battery.delta_t)
        summary = simctl.summarize(setup.scenario, first, report)
        simctl.write_records(first, out_dir / "records.csv")
    return tracer, {
        "passes": len(traced),
        "rows_written": len(first),
        "status_counts": summary["status_counts"],
        "steps": summary["steps"],
        "gap": 1.0 - statistics.median(u / t for u, t in zip(untraced, traced)),
    }


# -- metrics -----------------------------------------------------------------


def e2e_metrics(run: dict, setup_s: float, tally: Tally) -> dict:
    clock = run["clock"]
    lat = per_step_medians(clock.latencies)
    return {
        "setup_s": (setup_s, "s"),
        "step_p50_us": (statistics.median(lat) / 1e3, "us"),
        "step_p99_us": (percentile(lat, 99) / 1e3, "us"),
        "steps_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
        "run_s": (statistics.median(clock.walls), "s"),
        "energy_ratio": (run["energy_ratio"], "ratio"),
        "ok_step_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(tracer, facts: dict) -> dict:

    steps = tracer.count(STEP)

    def us(name: str) -> float:
        return statistics.median(tracer.durations_ns(name)) / 1e3

    def per_step(name: str) -> float:
        return tracer.count(name) / steps

    project = tracer.durations_ns("optimizer.project")
    status = facts["status_counts"]
    return {
        "capability.build_region.calls": (tracer.count("capability.build_region") / facts["passes"], "calls/pass"),
        "capability.build_region_us": (us("capability.build_region"), "us"),
        "capability.contains.calls_per_step": (per_step("capability.contains"), "calls/step"),
        "capability.contains_us": (us("capability.contains"), "us"),
        "battery.dc_power_bounds_us": (us("battery.dc_power_bounds"), "us"),
        "battery.solve_vdc.calls_per_step": (per_step("battery.solve_vdc"), "calls/step"),
        "battery.solve_vdc_us": (us("battery.solve_vdc"), "us"),
        "battery.ttc_step_us": (us("battery.ttc_step"), "us"),
        "grid.predict_vac.calls_per_step": (per_step("grid.predict_vac"), "calls/step"),
        "grid.predict_vac_us": (us("grid.predict_vac"), "us"),
        "optimizer.project.calls_per_step": (len(project) / steps, "calls/step"),
        "optimizer.probe_yield": (steps / len(project), "ratio"),
        "optimizer.project_p50_us": (statistics.median(project) / 1e3, "us"),
        "optimizer.project_p99_us": (percentile(project, 99) / 1e3, "us"),
        "optimizer.project.share": (
            tracer.in_step_ns("optimizer.project") / sum(tracer.durations_ns(STEP)),
            "ratio",
        ),
        "optimizer.solve_step_us": (us(STEP), "us"),
        "optimizer.solve_step.self_us": (statistics.median(tracer.self_ns(STEP)) / 1e3, "us"),
        "optimizer.clipped_frac": (status.get(STATUS_CLIPPED, 0) / facts["steps"], "ratio"),
        "optimizer.clamp_frac": (status.get(STATUS_CLAMP, 0) / facts["steps"], "ratio"),
        "optimizer.fallback_frac": (status.get(STATUS_FALLBACK, 0) / facts["steps"], "ratio"),
        "simctl.write_records_us_per_row": (
            sum(tracer.durations_ns("simctl.write_records")) / 1e3 / facts["rows_written"],
            "us",
        ),
        "simctl.summarize_us": (us("simctl.summarize"), "us"),
        "simctl.generate_trace_ms": (us("simctl.generate_trace") / 1e3, "ms"),
        "trace.steps_per_s_gap": (facts["gap"], "ratio"),
    }


