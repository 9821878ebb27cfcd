"""Grid measurements, droop laws and LV-side voltage prediction.

Deviations follow the droop orientation (reference minus measurement): an
over-frequency yields a negative active-power target (the converter charges,
behaving as a load) and an over-voltage yields a negative reactive-power
target (inductive behaviour).  All operations here are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Deviation thresholds below which the realized droop gains are undefined.
FREQ_DEADBAND_HZ = 1e-6
VOLT_DEADBAND_V = 1e-3


@dataclass(frozen=True)
class GridSample:
    """One measurement: time [s], frequency [Hz], MV phase-to-phase voltage [kV]."""

    timestamp: float
    freq: float
    v_mv: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp):
            raise ValueError(f"timestamp must be finite, got {self.timestamp}")
        if not 45.0 < self.freq < 55.0:
            raise ValueError(f"frequency {self.freq} Hz outside the plausible (45, 55) window")
        if not 0 < self.v_mv < math.inf:
            raise ValueError(f"v_mv must be positive and finite, got {self.v_mv}")


@dataclass(frozen=True)
class DroopConfig:
    """Droop gains, references and projection weights.

    alpha0 is in kW/Hz against the frequency deviation; beta0 in kvar/V
    against the MV-side voltage deviation expressed in volts.
    """

    alpha0: float
    beta0: float
    f_ref: float = 50.0
    v_ref: float = 21.192
    lambda_p: float = 1.0
    lambda_q: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.alpha0 < math.inf and 0 < self.beta0 < math.inf):
            raise ValueError("droop gains must be positive and finite")
        if not math.isfinite(self.f_ref):
            raise ValueError(f"f_ref must be finite, got {self.f_ref}")
        if not 0 < self.v_ref < math.inf:
            raise ValueError(f"v_ref must be positive and finite, got {self.v_ref}")
        if not (math.isfinite(self.lambda_p) and math.isfinite(self.lambda_q)):
            raise ValueError("weights must be finite")
        if self.lambda_p < 0 or self.lambda_q < 0 or self.lambda_p + self.lambda_q == 0:
            raise ValueError("weights must be nonnegative and not both zero")


@dataclass(frozen=True)
class TransformerParams:
    """Step-up transformer data; x_t is the reactance referred to the LV side [ohm]."""

    n: float
    x_t: float

    def __post_init__(self) -> None:
        for name in ("n", "x_t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n <= 0:
            raise ValueError("turns ratio must be positive")
        if self.x_t < 0:
            raise ValueError("reactance must be nonnegative")

    @classmethod
    def from_nameplate(
        cls, n: float = 70.0, v_lv: float = 300.0, s_rated_kva: float = 630.0, u_k: float = 0.0628
    ) -> "TransformerParams":
        """Derive x_t from the short-circuit voltage: u_k * V_lv^2 / S_rated.

        The defaults are the transformer of the shipped scenario presets.
        """
        for name, value in (("v_lv", v_lv), ("s_rated_kva", s_rated_kva)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not math.isfinite(u_k):
            raise ValueError("u_k must be finite")
        return cls(n=n, x_t=u_k * v_lv * v_lv / (s_rated_kva * 1000.0))


def droop_targets(sample: GridSample, cfg: DroopConfig) -> tuple[float, float]:
    """Droop power targets (p0 [kW], q0 [kvar]) for one measurement."""
    p0 = -cfg.alpha0 * (sample.freq - cfg.f_ref)
    q0 = -cfg.beta0 * (sample.v_mv - cfg.v_ref) * 1000.0
    return p0, q0


def predict_vac(
    sample: GridSample, p0_kw: float, q0_kvar: float, xf: TransformerParams
) -> float:
    """LV-side AC voltage [V] expected at the given power exchange.

    The measured MV voltage is referred to the LV side through the turns
    ratio, and the drop over the transformer reactance is added via the
    Thevenin approximation of the upstream grid.
    """
    v_lv_m = sample.v_mv * 1000.0 / xf.n
    s_sq_w = (p0_kw * p0_kw + q0_kvar * q0_kvar) * 1e6
    return math.sqrt(v_lv_m * v_lv_m + xf.x_t * xf.x_t * s_sq_w / (3.0 * v_lv_m * v_lv_m))


def optimal_droops(
    p_star_kw: float, q_star_kvar: float, dfreq_hz: float, dvac_v: float
) -> tuple[float | None, float | None]:
    """Realized droop gains implied by the delivered set-point.

    Deviations use the droop orientation (reference minus measurement), so a
    set-point equal to the unclipped target reproduces the configured gains.
    Gains are None (undefined) when the deviation is inside the deadband.
    """
    alpha = p_star_kw / dfreq_hz if abs(dfreq_hz) > FREQ_DEADBAND_HZ else None
    beta = q_star_kvar / dvac_v if abs(dvac_v) > VOLT_DEADBAND_V else None
    return alpha, beta
