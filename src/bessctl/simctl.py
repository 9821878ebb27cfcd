"""Closed-loop simulation front end.

Ingests or synthesizes measurement traces, runs the per-second control loop
over a horizon, computes the regulating-energy metrics

    E_exp = sum dt * |alpha0 * df_i|     expected from the droop law
    E*    = sum dt * |p*_i|              delivered by the optimal controller
    E_0   = sum dt * |naive_i|           delivered by the naive baseline

and emits one CSV of per-step records plus one JSON summary per run.  The
naive baseline delivers the droop target when it is feasible and trips to
0 kW otherwise, which is what an unprotected converter does when asked for
a set-point outside its envelope.

Scenario runs are independent of each other and deterministic for a fixed
seed, so batches can execute concurrently with one writer per run.

``bessctl`` has three commands: ``run`` writes one scenario's records.csv
and summary.json, ``gen-trace`` writes a synthetic trace CSV and
``metrics`` recomputes the energies from a records CSV.  Each exits with 0
on success, with 1 after ``Error: <message>`` on stderr, and with 2 on a
usage error.

Both CSV files are written the way ``csv.writer`` with its default dialect
would write them, byte for byte, without it: a header line, then one line
per row, its cells joined by commas, every line ending in CRLF, no cell
ever quoted.  No cell needs quoting, because none can hold a comma, a
double quote, CR or LF: floats are written as their shortest round-trip
``repr``, an anchor as ``%g/%g`` of its two voltages and the status as the
optimizer's flag constants joined by ``;``.  A record whose cell would need
quoting, which only a status flag read back from a hand-edited CSV can
hold, raises ValueError naming the column.  ``csv`` only reads.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from bessctl.battery import BatteryConfig, TtcParams, TtcState, builtin_ttc_params, load_ttc_params
from bessctl.capability import Anchor, CapabilityCurve, builtin_curves, index_curves, load_curves
from bessctl.grid import DroopConfig, GridSample, TransformerParams
from bessctl.linefmt import LineFormatError, parse_number, read_key_values
from bessctl.optimizer import (
    ControlRecord,
    ControllerConfig,
    SetpointController,
    STATUS_UNCHANGED,
)


class TraceError(ValueError):
    """Trace input unusable for the requested scenario."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation scenario: gains, weights, horizon and initial state."""

    alpha0: float
    beta0: float
    duration_s: float
    lambda_p: float = 1.0
    lambda_q: float = 1.0
    c_shrink: float = 1.0
    soc_init: float = 0.5
    trace: str | None = None

    def __post_init__(self) -> None:
        if not 0 < self.duration_s < math.inf:
            raise ValueError("duration_s must be positive and finite")
        if not 0 <= self.soc_init <= 1:
            raise ValueError("soc_init must lie in [0, 1]")


@dataclass(frozen=True)
class EnergyReport:
    """Regulating-energy totals [kWh] and their ratios to the expectation."""

    e_exp: float
    e_star: float
    e_0: float
    ratio_star: float | None
    ratio_0: float | None

    def __post_init__(self) -> None:
        if min(self.e_exp, self.e_star, self.e_0) < 0:
            raise ValueError("energies must be nonnegative")
        if self.e_star < self.e_0 - 1e-9:
            raise ValueError("optimal controller delivered less than the naive baseline")


def generate_trace(
    sigma_f: float,
    sigma_v: float,
    mu_f: float = 50.0,
    mu_v: float = 21.192,
    n: int = 300,
    seed: int = 0,
) -> list[GridSample]:
    """Synthetic per-second trace with independent Gaussian deviations."""
    if sigma_f < 0 or sigma_v < 0:
        raise ValueError("sigmas must be nonnegative")
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    freq = (mu_f + sigma_f * rng.standard_normal(n)).tolist()
    v_mv = (mu_v + sigma_v * rng.standard_normal(n)).tolist()
    return [GridSample(float(t), f, v) for t, (f, v) in enumerate(zip(freq, v_mv))]


def load_trace(path: str | Path) -> list[GridSample]:
    """Read a trace CSV with header ``timestamp_s,freq_hz,v_mv_kv``; a bad
    row raises TraceError naming ``path:line``."""
    columns = ["timestamp_s", "freq_hz", "v_mv_kv"]
    samples: list[GridSample] = []
    for where, row in _csv_rows(path, columns):
        try:
            sample = GridSample(*(float(row[key]) for key in columns))
        except ValueError as exc:  # a cell that is no number, or an invalid sample
            raise TraceError(f"{where}: {exc}") from None
        if samples and sample.timestamp <= samples[-1].timestamp:
            raise TraceError(f"{where}: timestamps must be strictly increasing")
        samples.append(sample)
    return samples


def _csv_rows(path: str | Path, columns: list[str]) -> Iterator[tuple[str, dict[str, str]]]:
    """Each row of the CSV at path with its ``path:line``.  A header that
    lacks one of columns, or a row whose cell count differs from the
    header's, raises TraceError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(columns).issubset(reader.fieldnames):
            raise TraceError(f"{path}: expected header with columns {columns}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            # DictReader fills the cells a short row lacks with None and keys
            # a long row's extra cells by None.
            if None in row or None in row.values():
                raise TraceError(f"{where}: expected {len(reader.fieldnames)} cells")
            yield where, row


def _write_csv(path: str | Path, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write the header and then lines, each a row's cells joined by commas
    and ending in CRLF, to the CSV at path."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(lines)


def write_trace(samples: Sequence[GridSample], path: str | Path) -> None:
    """Write samples as a trace CSV that load_trace reads; every cell is a
    float repr, which needs no quoting."""
    _write_csv(
        path,
        ["timestamp_s", "freq_hz", "v_mv_kv"],
        (f"{s.timestamp!r},{s.freq!r},{s.v_mv!r}\r\n" for s in samples),
    )


def parse_gen_spec(spec: str) -> dict[str, float]:
    """Parse a ``gen:key=value,...`` generator spec into generate_trace arguments.

    ``sigma_f`` and ``sigma_v`` are required; ``n`` and ``seed``, when given,
    must be finite integers, ``seed`` nonnegative, and are returned as ints.
    """
    if not spec.startswith("gen:"):
        raise TraceError(f"not a generator spec: {spec!r}")
    allowed = {"sigma_f", "sigma_v", "mu_f", "mu_v", "n", "seed"}
    kwargs: dict[str, float] = {}
    body = spec[len("gen:"):]
    if body:
        for item in body.split(","):
            key, sep, value = item.partition("=")
            if not sep or key not in allowed:
                raise TraceError(f"bad generator spec item {item!r}")
            if key in kwargs:
                raise TraceError(f"generator spec repeats key {key!r}")
            try:
                number = float(value)
            except ValueError:
                raise TraceError(f"generator spec item {item!r} is no number") from None
            if key in ("n", "seed"):
                if not number.is_integer():
                    raise TraceError(f"generator spec {key} must be a finite integer, got {number}")
                if key == "seed" and number < 0:
                    raise TraceError(f"generator spec item {item!r}: seed must be nonnegative")
                number = int(number)
            kwargs[key] = number
    missing = sorted({"sigma_f", "sigma_v"} - set(kwargs))
    if missing:
        raise TraceError(f"generator spec {spec!r} is missing required keys {missing}")
    return kwargs


def resolve_trace(spec: str, seed: int | None = None) -> list[GridSample]:
    """Turn a trace reference (CSV path or ``gen:`` spec) into samples.

    ``seed``, when given, replaces the spec's own seed.
    """
    if spec.startswith("gen:"):
        kwargs = parse_gen_spec(spec)
        if seed is not None:
            kwargs["seed"] = seed
        return generate_trace(**kwargs)
    return load_trace(spec)


def energy_metrics(
    records: Sequence[ControlRecord], alpha0: float, delta_t: float
) -> EnergyReport:
    """Discrete regulating-energy sums over a run, in kWh.  A delta_t that
    is not positive and finite, or an alpha0 that is not finite, raises
    ValueError naming it."""
    if not records:
        raise TraceError("no records to evaluate")
    if not 0.0 < delta_t < math.inf:
        raise ValueError(f"delta_t must be positive and finite, got {delta_t!r}")
    if not math.isfinite(alpha0):
        raise ValueError(f"alpha0 must be finite, got {alpha0!r}")
    scale = delta_t / 3600.0
    e_exp = sum(abs(alpha0 * r.dfreq) for r in records) * scale
    e_star = sum(abs(r.p_opt) for r in records) * scale
    e_0 = sum(abs(r.p_target) for r in records if r.target_feasible) * scale
    ratio_star = e_star / e_exp if e_exp > 0 else None
    ratio_0 = e_0 / e_exp if e_exp > 0 else None
    return EnergyReport(e_exp, e_star, e_0, ratio_star, ratio_0)


def run_scenario(
    scenario: ScenarioSpec,
    controller_cfg: ControllerConfig,
    curves: dict[Anchor, CapabilityCurve],
    bands: Sequence[TtcParams],
    trace: Sequence[GridSample] | None = None,
) -> tuple[list[ControlRecord], EnergyReport]:
    """Run the control loop over the scenario horizon and report energies.

    The horizon is always ``round(scenario.duration_s / delta_t)`` steps,
    whether the trace comes from the scenario or is supplied here. A
    supplied ``trace`` replaces only the scenario's ``trace`` key, not its
    ``duration_s``. A trace shorter than the horizon raises ``TraceError``;
    a longer one is cut to the horizon.  A ``soc_init`` outside the
    battery's [soc_min, soc_max] raises ValueError before the first step.
    """
    battery = controller_cfg.battery
    if not battery.soc_min <= scenario.soc_init <= battery.soc_max:
        raise ValueError(
            f"soc_init {scenario.soc_init} outside [soc_min, soc_max] = "
            f"[{battery.soc_min}, {battery.soc_max}]"
        )
    if trace is None:
        if scenario.trace is None:
            raise TraceError("scenario has no trace and none was supplied")
        trace = resolve_trace(scenario.trace)
    steps = int(round(scenario.duration_s / battery.delta_t))
    if len(trace) < steps:
        raise TraceError(f"trace has {len(trace)} samples, horizon needs {steps}")
    controller = SetpointController(controller_cfg, curves, bands)
    state = TtcState(0.0, 0.0, 0.0, scenario.soc_init)
    records: list[ControlRecord] = []
    for sample in trace[:steps]:
        record, state = controller.solve_step(sample, state)
        records.append(record)
    report = energy_metrics(records, scenario.alpha0, battery.delta_t)
    return records, report


def _anchor_str(anchor: Anchor | None) -> str:
    if anchor is None:
        return ""
    return f"{anchor[0]:g}/{anchor[1]:g}"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _anchor_from_str(text: str) -> Anchor | None:
    if not text:
        return None
    vdc, vac = text.split("/")
    return (_finite(vdc), _finite(vac))


def _optional_repr(value: float | None) -> str:
    return "" if value is None else repr(value)


def _optional_float(text: str) -> float | None:
    return _finite(text) if text else None


def _status_from_str(text: str) -> tuple[str, ...]:
    return tuple(text.split(";")) if text else ()


#: The records.csv format, one row per column in file order: header,
#: ControlRecord attribute (``sample.<field>`` for the GridSample's fields),
#: the function that writes its cell and the one that reads it back.  Every
#: float read back must be finite; GridSample checks its own fields.
_RECORD_COLUMNS = (
    ("timestamp_s", "sample.timestamp", repr, float),
    ("freq_hz", "sample.freq", repr, float),
    ("v_mv_kv", "sample.v_mv", repr, float),
    ("dfreq_hz", "dfreq", repr, _finite),
    ("dvac_v", "dvac", repr, _finite),
    ("p_target_kw", "p_target", repr, _finite),
    ("q_target_kvar", "q_target", repr, _finite),
    ("p_opt_kw", "p_opt", repr, _finite),
    ("q_opt_kvar", "q_opt", repr, _finite),
    ("vdc_pred_v", "vdc_pred", repr, _finite),
    ("vac_pred_v", "vac_pred", repr, _finite),
    ("curve_dc", "curve_dc", _anchor_str, _anchor_from_str),
    ("curve_ac", "curve_ac", _anchor_str, _anchor_from_str),
    ("alpha_star_kw_per_hz", "alpha_star", _optional_repr, _optional_float),
    ("beta_star_kvar_per_v", "beta_star", _optional_repr, _optional_float),
    ("status", "status", ";".join, _status_from_str),
)


def _record_lines(records: Iterable[ControlRecord]) -> Iterator[str]:
    """Each record's records.csv line, CRLF included.  A cell that would
    need quoting raises ValueError naming its column."""
    cells = operator.attrgetter(*(attr for _, attr, _, _ in _RECORD_COLUMNS))
    writers = [to_text for _, _, to_text, _ in _RECORD_COLUMNS]
    commas = len(_RECORD_COLUMNS) - 1
    join = ",".join
    for record in records:
        texts = [f(v) for f, v in zip(writers, cells(record))]
        line = join(texts)
        if line.count(",") != commas or '"' in line or "\r" in line or "\n" in line:
            header, text = next(
                (header, text)
                for (header, _, _, _), text in zip(_RECORD_COLUMNS, texts)
                if any(char in text for char in ',"\r\n')
            )
            raise ValueError(f"records.csv column {header} would need quoting: {text!r}")
        yield line + "\r\n"


def write_records(records: Sequence[ControlRecord], path: str | Path) -> None:
    """Write per-step records as CSV in the format the module docstring
    states.  The lines are made before the file is opened, so a record that
    is refused leaves no file behind."""
    lines = list(_record_lines(records))
    _write_csv(path, [header for header, _, _, _ in _RECORD_COLUMNS], lines)


def read_records(path: str | Path) -> list[ControlRecord]:
    """Read back a records CSV written by write_records; a bad row raises
    TraceError naming ``path:line``."""
    records: list[ControlRecord] = []
    for where, row in _csv_rows(path, [header for header, _, _, _ in _RECORD_COLUMNS]):
        if not row["curve_dc"]:
            raise TraceError(f"{where}: record without a DC curve")
        fields: dict[str, dict] = {"": {}, "sample": {}}
        try:
            for header, attr, _, from_text in _RECORD_COLUMNS:
                owner, _, name = attr.rpartition(".")
                fields[owner][name] = from_text(row[header])
            sample = GridSample(**fields["sample"])
        except ValueError as exc:  # a cell that is no finite number, or an invalid sample
            raise TraceError(f"{where}: {exc}") from None
        records.append(ControlRecord(sample=sample, **fields[""]))
    return records


def summarize(
    scenario: ScenarioSpec, records: Sequence[ControlRecord], report: EnergyReport
) -> dict:
    """Deterministic JSON-ready run summary."""
    status_counts: dict[str, int] = {}
    for record in records:
        for flag in record.status:
            status_counts[flag] = status_counts.get(flag, 0) + 1
    return {
        "scenario": {
            key: getattr(scenario, field)
            for key, (owner, field) in _CONFIG_KEYS.items()
            if owner is ScenarioSpec
        },
        "steps": len(records),
        "energy_kwh": {
            "expected": report.e_exp,
            "delivered_optimal": report.e_star,
            "delivered_naive": report.e_0,
            "ratio_optimal": report.ratio_star,
            "ratio_naive": report.ratio_0,
        },
        "status_counts": dict(sorted(status_counts.items())),
    }


#: The numeric scenario file keys, each mapped to the object it configures and
#: that object's field (the ``from_nameplate`` keyword for the transformer).
#: A key the file leaves out takes the field's default.
_CONFIG_KEYS = {
    "alpha0_kw_per_hz": (ScenarioSpec, "alpha0"),
    "beta0_kvar_per_v": (ScenarioSpec, "beta0"),
    "duration_s": (ScenarioSpec, "duration_s"),
    "lambda_p": (ScenarioSpec, "lambda_p"),
    "lambda_q": (ScenarioSpec, "lambda_q"),
    "c_shrink": (ScenarioSpec, "c_shrink"),
    "soc_init": (ScenarioSpec, "soc_init"),
    "f_ref_hz": (DroopConfig, "f_ref"),
    "v_ref_kv": (DroopConfig, "v_ref"),
    "c_max_ah": (BatteryConfig, "c_max_ah"),
    "eta": (BatteryConfig, "eta"),
    "soc_min": (BatteryConfig, "soc_min"),
    "soc_max": (BatteryConfig, "soc_max"),
    "vdc_min_v": (BatteryConfig, "vdc_min"),
    "vdc_max_v": (BatteryConfig, "vdc_max"),
    "delta_t_s": (BatteryConfig, "delta_t"),
    "turns_ratio": (TransformerParams, "n"),
    "v_lv_v": (TransformerParams, "v_lv"),
    "s_rated_kva": (TransformerParams, "s_rated_kva"),
    "u_k": (TransformerParams, "u_k"),
}
_CONFIG_REQUIRED = ("alpha0_kw_per_hz", "beta0_kvar_per_v", "duration_s", "c_max_ah")


def load_run_config(path: str | Path) -> tuple[ScenarioSpec, ControllerConfig]:
    """Load a scenario file into the scenario spec and controller configuration."""
    origin = str(path)
    raw = read_key_values(path)
    _, trace = raw.pop("trace", (0, None))
    fields: dict[type, dict[str, float]] = {owner: {} for owner, _ in _CONFIG_KEYS.values()}
    for key, (lineno, text) in raw.items():
        if key not in _CONFIG_KEYS:
            raise LineFormatError(origin, lineno, f"unknown key {key!r}")
        owner, field = _CONFIG_KEYS[key]
        fields[owner][field] = parse_number(text, origin, lineno)
    missing = sorted(set(_CONFIG_REQUIRED) - set(raw))
    if missing:
        raise LineFormatError(origin, 0, f"missing required keys {missing}")
    scenario = ScenarioSpec(trace=trace, **fields[ScenarioSpec])
    droop = DroopConfig(
        alpha0=scenario.alpha0,
        beta0=scenario.beta0,
        lambda_p=scenario.lambda_p,
        lambda_q=scenario.lambda_q,
        **fields[DroopConfig],
    )
    controller_cfg = ControllerConfig(
        droop=droop,
        battery=BatteryConfig(**fields[BatteryConfig]),
        transformer=TransformerParams.from_nameplate(**fields[TransformerParams]),
        shrink=scenario.c_shrink,
    )
    return scenario, controller_cfg


def builtin_scenario_path(name: str) -> Path:
    """Path of a scenario preset shipped with the package (e.g. ``scenario1``)."""
    return Path(str(resources.files(__package__).joinpath(f"data/scenarios/{name}.cfg")))


def _seed(text: str) -> int:
    """argparse type of --seed: numpy's generators take nonnegative ints only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _run(args: argparse.Namespace) -> None:
    """Run one scenario and write records.csv and summary.json."""
    scenario, cfg = load_run_config(args.scenario)
    curves = index_curves(builtin_curves() if args.curves is None else load_curves(args.curves))
    bands = builtin_ttc_params() if args.params is None else load_ttc_params(args.params)
    spec = scenario.trace if args.trace is None else args.trace
    trace = None if spec is None else resolve_trace(spec, args.seed)
    records, report = run_scenario(scenario, cfg, curves, bands, trace=trace)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_records(records, out / "records.csv")
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summarize(scenario, records, report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out / 'records.csv'} and {out / 'summary.json'}")


def _gen_trace(args: argparse.Namespace) -> None:
    """Generate a synthetic measurement trace CSV."""
    samples = generate_trace(args.sigma_f, args.sigma_v, args.mu_f, args.mu_v, args.n, args.seed)
    write_trace(samples, args.out)
    print(f"wrote {args.out}")


def _metrics(args: argparse.Namespace) -> None:
    """Recompute the energy metrics from a records CSV."""
    records = read_records(args.records)
    if not records:
        raise TraceError(f"{args.records}: no records")
    delta_t, alpha0 = args.delta_t, args.alpha0
    if delta_t is None:
        delta_t = records[1].sample.timestamp - records[0].sample.timestamp if records[1:] else 1.0
    if alpha0 is None:
        alpha0 = next((abs(r.p_target / r.dfreq) for r in records if abs(r.dfreq) > 1e-9), 0.0)
    report = energy_metrics(records, alpha0, delta_t)
    payload = {"e_exp_kwh": report.e_exp, "e_star_kwh": report.e_star, "e_0_kwh": report.e_0}
    payload.update(ratio_optimal=report.ratio_star, ratio_naive=report.ratio_0)
    print(json.dumps(payload, indent=2, sort_keys=True))


def _parser(prog_name: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog_name, description="Closed-loop converter set-point control simulation tools."
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, func, **kwargs):
        sub = commands.add_parser(name, help=func.__doc__, description=func.__doc__, **kwargs)
        sub.set_defaults(command=func)
        return sub

    run = command("run", _run)
    run.add_argument("--scenario", required=True)
    run.add_argument(
        "--trace",
        help="Trace CSV path or gen:k=v,...; replaces the scenario's trace key, "
        "the horizon stays its duration_s.",
    )
    run.add_argument("--curves", help="Curve file (default: built-in).")
    run.add_argument("--params", help="Battery parameter file (default: built-in).")
    run.add_argument("--out", required=True)
    run.add_argument("--seed", type=_seed, help="Seed override for generated traces.")

    gen = command("gen-trace", _gen_trace, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    gen.add_argument("--sigma-f", type=float, default=0.01782, help="Frequency sigma [Hz].")
    gen.add_argument("--sigma-v", type=float, default=0.0672, help="Voltage sigma [kV].")
    gen.add_argument("--mu-f", type=float, default=50.0, help="Frequency mean [Hz].")
    gen.add_argument("--mu-v", type=float, default=21.192, help="Voltage mean [kV].")
    gen.add_argument("--n", type=int, default=300, help="Number of 1 s samples.")
    gen.add_argument("--seed", type=_seed, default=0, help="Generator seed.")
    gen.add_argument("--out", required=True)

    metrics = command("metrics", _metrics)
    metrics.add_argument("--records", required=True)
    metrics.add_argument(
        "--alpha0", type=float, help="Droop gain [kW/Hz]; recovered from the records when omitted."
    )
    metrics.add_argument(
        "--delta-t", type=float, help="Step length [s]; inferred from timestamps when omitted."
    )
    return parser


def main(
    args: Sequence[str] | None = None, prog_name: str = "bessctl", standalone_mode: bool = True
) -> None:
    """Run the command that args (default: sys.argv[1:]) name.  With
    standalone_mode False, a ValueError or OSError propagates instead of
    exiting with 1."""
    parser = _parser(prog_name)
    namespace = parser.parse_args(args)
    try:
        namespace.command(namespace)
    except (ValueError, OSError) as exc:
        if not standalone_mode:
            raise
        parser.exit(1, f"Error: {exc}\n")
