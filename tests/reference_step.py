"""The assumption loop without pruning, as a reference for solve_step.

``reference_solve_step`` probes every (DC range, AC range) pair in table
order, as the controller did before it learnt to skip the ranges that its
step's voltage bounds rule out.  Tests compare the two and check that every
probe made here lies inside those bounds.
"""

from bessctl.battery import (
    ac_from_dc,
    dc_from_ac,
    dc_power_bounds,
    open_circuit_voltage,
    params_for_soc,
    solve_vdc,
    ttc_step,
)
from bessctl.capability import AC_SELECTION, DC_SELECTION, build_region, select_ac
from bessctl.grid import droop_targets, optimal_droops, predict_vac
from bessctl.optimizer import (
    STATUS_CLAMP,
    STATUS_CLIPPED,
    STATUS_FALLBACK,
    STATUS_P_EXCEEDS,
    STATUS_UNCHANGED,
    _POINT_TOL,
    ControlRecord,
    Probe,
    ProjectionProblem,
    _status_switches,
    project,
)


def reference_solve_step(ctl, sample, state):
    """(record, new_state, probes) of one unpruned step of controller ctl;
    probes lists every Probe solved, in order."""
    cfg = ctl.cfg
    eta = cfg.battery.eta
    wp, wq = cfg.droop.lambda_p, cfg.droop.lambda_q
    p0, q0 = droop_targets(sample, cfg.droop)
    dfreq = cfg.droop.f_ref - sample.freq
    dvac = (cfg.droop.v_ref - sample.v_mv) * 1000.0
    params = params_for_soc(state.soc, ctl.bands)
    pdc_lo, pdc_hi = dc_power_bounds(state, params, cfg.battery)
    drive = open_circuit_voltage(state.soc, params) - state.vc_sum
    pac_lo = ac_from_dc(pdc_lo, eta)
    pac_hi = ac_from_dc(pdc_hi, eta)
    memo = {}

    def probe(dc_anchor, ac_anchor):
        key = (dc_anchor, ac_anchor)
        if key not in memo:
            anchors = [dc_anchor] + ([ac_anchor] if ac_anchor is not None else [])
            region = build_region([ctl.curves[a] for a in anchors], cfg.shrink)
            p, q = project(ProjectionProblem(p0, q0, wp, wq, region, pac_lo, pac_hi))
            p_dc = dc_from_ac(p, eta)
            vdc = solve_vdc(p_dc, drive, params.rs)
            vac = predict_vac(sample, p, q, cfg.transformer)
            memo[key] = Probe(p, q, p_dc, vdc, vac, dc_anchor, ac_anchor)
        return memo[key]

    probes = 0
    fallback = False
    for dc_lo, dc_hi, dc_anchor in DC_SELECTION:
        for ac_lo, ac_hi, ac_anchor, clamped in AC_SELECTION:
            probed = probe(dc_anchor, ac_anchor)
            probes += 1
            if ac_lo < probed.vac <= ac_hi:
                break
        else:
            continue
        if dc_lo < probed.vdc <= dc_hi:
            break
    else:
        ac_anchor, clamped = select_ac(probed.vac)
        probed = probe(DC_SELECTION[0][2], ac_anchor)
        fallback = True
    p_opt, q_opt = probed.p, probed.q

    flags = []
    unchanged = abs(p_opt - p0) <= _POINT_TOL and abs(q_opt - q0) <= _POINT_TOL
    flags.append(STATUS_UNCHANGED if unchanged else STATUS_CLIPPED)
    if clamped:
        flags.append(STATUS_CLAMP)
    if fallback:
        flags.append(STATUS_FALLBACK)
    elif probes > 1:
        flags.append(_status_switches(probes - 1))
    if abs(p_opt) > abs(p0) + _POINT_TOL:
        flags.append(STATUS_P_EXCEEDS)

    alpha_star, beta_star = optimal_droops(p_opt, q_opt, dfreq, dvac)
    record = ControlRecord(
        sample=sample,
        dfreq=dfreq,
        dvac=dvac,
        p_target=p0,
        q_target=q0,
        p_opt=p_opt,
        q_opt=q_opt,
        vdc_pred=probed.vdc,
        vac_pred=probed.vac,
        curve_dc=probed.dc_anchor,
        curve_ac=probed.ac_anchor,
        alpha_star=alpha_star,
        beta_star=beta_star,
        status=tuple(flags),
    )
    new_state = ttc_step(state, probed.p_dc, probed.vdc, params, cfg.battery)
    return record, new_state, list(memo.values())
