from __future__ import annotations

import ast
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ranslice
from ranslice.descriptors import ServiceType, Snssai
from ranslice.resources import (
    CalibrationError,
    CapacityBudget,
    ResourceModelParams,
    SliceLoad,
    UnderdeterminedError,
    VnicSaturatedError,
    calibrate_params,
    check_isolation,
    cu_vcpu_consumption,
    du_vcpu_consumption,
    estimate_prbs,
    vnic_mean_wait,
)

EMBB = Snssai(ServiceType.EMBB)
URLLC = Snssai(ServiceType.URLLC)
PARAMS = ResourceModelParams(c0=0.05, k=0.001, beta=0.35)


def load(prbs, m=6, cr=0.75, snssai=EMBB):
    return SliceLoad(snssai=snssai, prbs=prbs, modulation_order=m, code_rate=cr)


def test_zero_traffic_baseline():
    assert du_vcpu_consumption(load(0), PARAMS) == PARAMS.c0


def test_prb_linearity_finite_difference_oracle():
    # Second difference over an arithmetic PRB grid must vanish.
    c10, c20, c30 = (du_vcpu_consumption(load(p), PARAMS) for p in (10, 20, 30))
    assert abs((c30 - c20) - (c20 - c10)) < 1e-12


def test_modulation_exponential_ratio():
    for m in (2, 4):
        lo = du_vcpu_consumption(load(50, m=m), PARAMS) - PARAMS.c0
        hi = du_vcpu_consumption(load(50, m=m + 2), PARAMS) - PARAMS.c0
        assert hi / lo == pytest.approx(math.exp(2 * PARAMS.beta), rel=1e-12)


def test_code_rate_affinity():
    grid = [0.2, 0.5, 0.8]
    c1, c2, c3 = (du_vcpu_consumption(load(40, cr=cr), PARAMS) for cr in grid)
    assert abs((c3 - c2) - (c2 - c1)) < 1e-12


def test_consumption_monotone_in_each_factor():
    base = du_vcpu_consumption(load(40, m=4, cr=0.5), PARAMS)
    assert du_vcpu_consumption(load(41, m=4, cr=0.5), PARAMS) > base
    assert du_vcpu_consumption(load(40, m=6, cr=0.5), PARAMS) > base
    assert du_vcpu_consumption(load(40, m=4, cr=0.6), PARAMS) > base


def test_cu_scaled_baseline():
    assert cu_vcpu_consumption(load(0), PARAMS) == pytest.approx(
        PARAMS.cu_scale * PARAMS.c0, rel=1e-12)


def test_cu_below_du_for_identical_load():
    for prbs in (0, 10, 100):
        l = load(prbs)
        assert cu_vcpu_consumption(l, PARAMS) <= du_vcpu_consumption(l, PARAMS)


def test_cu_traffic_term_linear_in_prbs():
    # Doubling PRBs doubles (C - c0*scale).
    base = PARAMS.cu_scale * PARAMS.c0
    c1 = cu_vcpu_consumption(load(30), PARAMS) - base
    c2 = cu_vcpu_consumption(load(60), PARAMS) - base
    assert c2 == pytest.approx(2 * c1, rel=1e-12)


def test_slice_load_invariants():
    with pytest.raises(ValueError):
        load(-1)
    with pytest.raises(ValueError):
        load(10, m=5)
    with pytest.raises(ValueError):
        load(10, cr=0.0)
    with pytest.raises(ValueError):
        load(10, cr=1.2)


def test_vnic_wait_empty_system():
    assert vnic_mean_wait(0, PARAMS) == 0.0


def test_vnic_wait_half_load_closed_form():
    # lambda = mu/2  =>  W = 1/(mu - mu/2) - 1/mu = 1/mu.
    mu = PARAMS.vnic_service_rate
    prbs = int(mu / 2 / PARAMS.pkt_per_prb)
    assert PARAMS.pkt_per_prb * prbs == pytest.approx(mu / 2)
    assert vnic_mean_wait(prbs, PARAMS) == pytest.approx(1.0 / mu, rel=1e-12)


def test_vnic_saturation_boundary():
    prbs_at_mu = math.ceil(PARAMS.vnic_service_rate / PARAMS.pkt_per_prb)
    with pytest.raises(VnicSaturatedError):
        vnic_mean_wait(prbs_at_mu, PARAMS)


def test_vnic_wait_strictly_increasing_and_diverging():
    limit = int(PARAMS.vnic_service_rate / PARAMS.pkt_per_prb)
    waits = [vnic_mean_wait(p, PARAMS) for p in range(0, limit, 50)]
    assert all(b > a for a, b in zip(waits, waits[1:]))
    # divergence approaching the stability boundary
    assert vnic_mean_wait(limit - 1, PARAMS) > 100 * vnic_mean_wait(limit // 2, PARAMS)


def test_isolation_worked_example():
    # 65% + 15% on a 1-vCPU instance: 80% <= 100%, both under the cap.
    result = check_isolation({EMBB: 0.65, URLLC: 0.15},
                             CapacityBudget(vcpu_capacity=1.0, per_slice_cap=0.9))
    assert result.ok
    assert result.violations == ()


def test_isolation_sum_exceeds_capacity():
    result = check_isolation({EMBB: 0.65, URLLC: 0.45},
                             CapacityBudget(vcpu_capacity=1.0, per_slice_cap=0.9))
    assert not result.ok
    assert any("capacity" in v for v in result.violations)


def test_isolation_violations_name_the_capacity_then_the_slices_by_key():
    mmtc = Snssai(ServiceType.MMTC)
    result = check_isolation({URLLC: 0.95, mmtc: 0.1, EMBB: 0.92},
                             CapacityBudget(vcpu_capacity=1.5, per_slice_cap=0.6))
    assert result.violations == (
        "total consumption 1.9700 exceeds capacity 1.5000",
        f"slice {EMBB} consumption 0.9200 exceeds cap 0.9000",
        f"slice {URLLC} consumption 0.9500 exceeds cap 0.9000",
    )


def test_isolation_boundary_inclusive():
    budget = CapacityBudget(vcpu_capacity=1.0, per_slice_cap=0.8)
    assert check_isolation({EMBB: 0.8}, budget).ok
    assert not check_isolation({EMBB: 0.8 + 1e-9}, budget).ok


def test_isolation_monotone_removing_a_slice():
    rng = random.Random(7)
    budget = CapacityBudget(vcpu_capacity=2.0, per_slice_cap=0.7)
    slices = [EMBB, URLLC, Snssai(ServiceType.MMTC)]
    for _ in range(200):
        consumptions = {s: rng.uniform(0, 1.2) for s in slices}
        if check_isolation(consumptions, budget).ok:
            for drop in slices:
                remaining = {s: c for s, c in consumptions.items() if s != drop}
                if remaining:
                    assert check_isolation(remaining, budget).ok


def test_calibrate_two_anchor_exact_solve():
    # Oracle: explicit 2x2 solve k = (yA - yB)/(xA - xB), c0 = yA - k*xA.
    load_a = load(80, m=6, cr=0.8)
    load_b = load(30, m=4, cr=0.5, snssai=URLLC)
    beta = 0.35
    xa = 80 * 0.8 * math.exp(beta * 6)
    xb = 30 * 0.5 * math.exp(beta * 4)
    k_expected = (0.65 - 0.15) / (xa - xb)
    c0_expected = 0.65 - k_expected * xa

    result = calibrate_params([(load_a, 0.65), (load_b, 0.15)], beta=beta)
    assert result.params.k == pytest.approx(k_expected, rel=1e-9)
    assert result.params.c0 == pytest.approx(c0_expected, rel=1e-9)
    assert result.max_abs_residual < 1e-6
    assert du_vcpu_consumption(load_a, result.params) == pytest.approx(0.65, abs=1e-6)
    assert du_vcpu_consumption(load_b, result.params) == pytest.approx(0.15, abs=1e-6)


def test_calibrate_single_anchor_underdetermined():
    with pytest.raises(UnderdeterminedError):
        calibrate_params([(load(10), 0.2)])


def test_calibrate_identical_loads_underdetermined():
    with pytest.raises(UnderdeterminedError):
        calibrate_params([(load(10), 0.2), (load(10), 0.3)])


def test_calibrate_linear_sweep_zero_residual():
    # Synthetic anchors generated from the model itself must refit exactly.
    truth = ResourceModelParams(c0=0.08, k=0.0007, beta=0.3)
    anchors = [(load(p, m=4, cr=0.6), du_vcpu_consumption(load(p, m=4, cr=0.6), truth))
               for p in (10, 20, 30, 40, 50)]
    result = calibrate_params(anchors, beta=0.3)
    assert result.max_abs_residual < 1e-12
    assert result.params.c0 == pytest.approx(truth.c0, rel=1e-9)
    assert result.params.k == pytest.approx(truth.k, rel=1e-9)


def test_calibrate_clamps_negative_offset():
    # Anchors through the origin pull c0 below zero; the fit falls back
    # to c0 = 0 with k from the through-origin least squares.
    anchors = [(load(10, m=2, cr=1.0), 0.01), (load(100, m=2, cr=1.0), 0.2)]
    result = calibrate_params(anchors)
    assert result.params.c0 == 0.0
    assert result.params.k > 0


def test_calibrate_decreasing_anchors_rejected():
    with pytest.raises((CalibrationError, UnderdeterminedError)):
        calibrate_params([(load(10), 0.9), (load(200), 0.1), (load(400), 0.05)])


def test_calibrate_three_identical_anchors_underdetermined():
    with pytest.raises(UnderdeterminedError):
        calibrate_params([(load(40, m=4, cr=0.5), 0.2)] * 3)


def test_calibrate_zero_traffic_anchors_underdetermined():
    with pytest.raises(UnderdeterminedError):
        calibrate_params([(load(0, m=2, cr=0.3), 0.05), (load(0, m=8, cr=0.9), 0.07)])


def test_calibrate_anchors_one_prb_apart_fit():
    truth = ResourceModelParams(c0=0.05, k=0.001)
    anchors = [(load(p), du_vcpu_consumption(load(p), truth)) for p in (100, 101)]
    result = calibrate_params(anchors)
    assert result.params.c0 == pytest.approx(truth.c0, rel=1e-9)
    assert result.params.k == pytest.approx(truth.k, rel=1e-9)


def test_calibrate_tiny_traffic_terms_fit():
    # The squared deviations of these terms underflow to zero unless the
    # fit works on terms divided by their largest value.
    anchors = [(load(10, cr=1e-300), 0.1), (load(20, cr=1e-300), 0.2)]
    result = calibrate_params(anchors)
    assert result.params.k == pytest.approx(0.01 / (1e-300 * math.exp(0.35 * 6)), rel=1e-9)
    assert result.max_abs_residual < 1e-12


def test_model_params_refuse_a_beta_that_overflows_the_mcs_factor():
    # exp(beta * 8) is finite up to beta = log(DBL_MAX) / 8, about 88.72.
    assert ResourceModelParams(beta=88.0).beta == 88.0
    with pytest.raises(ValueError, match="beta"):
        ResourceModelParams(beta=89.0)
    anchors = [(load(80, m=2, cr=0.8), 0.65), (load(30, m=2, cr=0.5), 0.15)]
    with pytest.raises(CalibrationError, match="beta"):
        calibrate_params(anchors, beta=89.0)


@pytest.mark.parametrize("observed, beta", [
    (math.nan, None), (math.inf, None), (-math.inf, None),
    (0.15, math.nan), (0.15, math.inf), (0.15, 1000.0), (0.15, 0.0),
], ids=["nan", "inf", "-inf", "beta-nan", "beta-inf", "beta-overflow", "beta-zero"])
def test_calibrate_bad_input_is_a_calibration_error(observed, beta):
    anchors = [(load(80, m=6, cr=0.8), 0.65), (load(30, m=4, cr=0.5), observed)]
    with pytest.raises(CalibrationError):
        calibrate_params(anchors, beta=beta)


def exact_fit(points):
    """Reference least squares in exact rational arithmetic: the centred
    fit, then the through-origin refit when the offset comes out negative.
    Returns (c0, k, unclamped c0)."""
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    n = len(xs)
    x_mean, y_mean = sum(xs) / n, sum(ys) / n
    k = (sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
         / sum((x - x_mean) ** 2 for x in xs))
    c0 = raw_c0 = y_mean - k * x_mean
    if c0 < 0:
        c0 = Fraction(0)
        k = sum(x * y for x, y in zip(xs, ys)) / sum(x * x for x in xs)
    return c0, k, raw_c0


ANCHOR_LOADS = st.lists(
    st.tuples(st.integers(0, 273), st.sampled_from((2, 4, 6, 8)),
              st.floats(0.05, 1.0)),
    min_size=2, max_size=8, unique_by=lambda t: t[0])


@settings(max_examples=300, deadline=None)
@given(loads=ANCHOR_LOADS, c0=st.floats(-0.2, 0.5), k=st.floats(1e-5, 3e-3),
       noise=st.lists(st.floats(-0.05, 0.05), min_size=8, max_size=8))
def test_calibrate_matches_exact_least_squares(loads, c0, k, noise):
    anchors = []
    for (prbs, m, cr), e in zip(loads, noise):
        l = load(prbs, m=m, cr=cr)
        anchors.append((l, c0 + k * prbs * cr * math.exp(0.35 * m) + e))
    points = [(l.prbs * l.code_rate * math.exp(0.35 * l.modulation_order), y)
              for l, y in anchors]
    xs = [x for x, _ in points]
    # Distinct PRB counts can still meet at one traffic term; floats cannot
    # decide a sign far below their rounding error, so keep the c0 < 0 and
    # k <= 0 decisions clear of it.
    assume(max(xs) - min(xs) > 1e-6 * max(xs))
    ref_c0, ref_k, raw_c0 = exact_fit(points)
    scale = max(abs(y) for _, y in points) + abs(ref_k) * max(xs)
    assume(abs(raw_c0) > 1e-6 * scale and abs(ref_k) * max(xs) > 1e-6 * scale)
    if ref_k <= 0:
        with pytest.raises(CalibrationError):
            calibrate_params(anchors)
        return
    result = calibrate_params(anchors)
    assert result.params.c0 == pytest.approx(float(ref_c0), rel=1e-9)
    assert result.params.k == pytest.approx(float(ref_k), rel=1e-9)
    assert all(type(r) is float for r in result.residuals)
    assert len(result.residuals) == len(anchors)


def test_import_loads_only_yaml_beyond_the_standard_library():
    # PyYAML is the one runtime dependency: with it loaded, importing the
    # CLI adds only the package itself and standard-library modules.
    code = ("import sys, yaml; before = set(sys.modules); import ranslice.cli; "
            "print(sorted({name.partition('.')[0] for name in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names)))")
    env = dict(os.environ, PYTHONPATH=str(Path(ranslice.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == ["ranslice"]


def test_params_invariants():
    with pytest.raises(ValueError):
        ResourceModelParams(c0=-0.1)
    with pytest.raises(ValueError):
        ResourceModelParams(k=0.0)
    with pytest.raises(ValueError):
        ResourceModelParams(cu_scale=1.0)
    with pytest.raises(ValueError):
        CapacityBudget(vcpu_capacity=0.0)
    with pytest.raises(ValueError):
        CapacityBudget(vcpu_capacity=1.0, per_slice_cap=1.5)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["c0", "k", "beta", "vnic_service_rate", "pkt_per_prb"])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError):
        ResourceModelParams(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_budget_rejects_non_finite_capacity(value):
    with pytest.raises(ValueError):
        CapacityBudget(vcpu_capacity=value)


def test_estimate_prbs_monotone_and_positive():
    base = estimate_prbs(20.0, 6, 0.75, 1, 3.0)
    assert base >= 1
    assert estimate_prbs(40.0, 6, 0.75, 1, 3.0) >= base
    # higher numerology packs more symbols per PRB-second
    assert estimate_prbs(20.0, 6, 0.75, 2, 3.0) <= base
    assert estimate_prbs(0.0, 6, 0.75, 1, 3.0) == 0
