"""The benchmark's traced run on a short input, as a Tier-1 guard.

``perfbench/run.py --trace 1`` wraps each layer's public functions with
``tracer.Tracer`` and reduces the spans with ``workloads.layer_metrics``.
Each metric needs spans of its layer, so a change that stops calling a
traced function where the tracer looks for it breaks the benchmark; these
tests fail first.  They only import from perfbench/ and write to tmp_path.
"""

import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    return tracer, workloads


def test_traced_undervoltage_run_gives_finite_layer_metrics(bench, tmp_path):
    tracer_mod, wl = bench
    setup = wl.load_setup("undervoltage")
    tracer = tracer_mod.Tracer(tracer_mod.ALL_POINTS)
    with tracer:
        trace = wl.make_trace("undervoltage", 101)[:30]
        records, exc = wl.run_pass(setup, trace)
        report = wl.simctl.energy_metrics(
            records, setup.scenario.alpha0, setup.cfg.battery.delta_t
        )
        summary = wl.simctl.summarize(setup.scenario, records, report)
        wl.simctl.write_records(records, tmp_path / "records.csv")
    assert exc is None and len(records) == 30
    facts = {
        "passes": 1,
        "rows_written": len(records),
        "status_counts": summary["status_counts"],
        "steps": summary["steps"],
        "gap": 0.0,
    }
    metrics = wl.layer_metrics(tracer, facts)
    assert metrics and all(math.isfinite(value) for value, _ in metrics.values()), metrics
    # Region membership runs only when a region is built: once per region.
    assert tracer.count("capability.contains") == tracer.count("capability.build_region")
    # The assumption loop skips every range pair that cannot agree: on these
    # steps only one pair can, so each step solves one projection.
    assert tracer.count("optimizer.project") == len(records)


def test_traced_preset_run_spans_each_cli_layer_once(bench, tmp_path):
    # The presets workload times ``bessctl run`` through main and _run, which
    # must look up these three functions as simctl globals for the tracer.
    tracer_mod, wl = bench
    tracer = tracer_mod.Tracer(tracer_mod.ALL_POINTS)
    with tracer:
        wl.run_preset("scenario1", tmp_path)
    for name in ("simctl.write_records", "simctl.run_scenario", "linefmt.load_run_config"):
        assert tracer.count(name) == 1, name
    assert wl.matches_golden("scenario1", tmp_path)
