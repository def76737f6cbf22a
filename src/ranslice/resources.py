"""vCPU-consumption and vNIC waiting-time models, the isolation predicate
over shared instances, and coefficient calibration.

DU vCPU consumption follows the three measured trends for virtualized
baseband processing: exponential in modulation order, linear with an
offset in PRBs, linear in code rate. A single multiplicative traffic
term satisfies all three at once:

    C = c0 + k * prbs * code_rate * exp(beta * modulation_order)

There is no published CU model, so the CU uses the same family scaled by
``cu_scale`` (< 1: the CU processes fewer cycles per bit). The vNIC
buffer is an M/M/1 queue whose arrival rate grows linearly with the PRBs
routed through the VM.

Default coefficients are placeholders and should be overridden from the
configuration file or fitted with ``calibrate_params``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .descriptors import Snssai
from .descriptors.parse import closed
from .errors import RansliceError

MODULATION_ORDERS = (2, 4, 6, 8)

# NR resource grid: 12 subcarriers x 14 symbols per slot, 2^mu slots/ms.
_SYMBOLS_PER_PRB_PER_SEC_MU0 = 12 * 14 * 1000


class VnicSaturatedError(RansliceError):
    """Packet arrival rate at or beyond the vNIC service rate: the queue
    has no stationary regime and the waiting time is unbounded."""


class UnderdeterminedError(RansliceError):
    """Too few (or degenerate) anchor points to fit the free coefficients."""


class CalibrationError(RansliceError):
    """Anchors are inconsistent with the model shape (e.g. consumption
    decreasing in traffic)."""


@closed
@dataclass(frozen=True)
class ResourceModelParams:
    c0: float = 0.05            # vCPU-fraction baseline per slice per instance
    k: float = 0.001            # vCPU-fraction per PRB-equivalent traffic unit
    beta: float = 0.35          # per-modulation-order exponent
    cu_scale: float = 0.3       # CU consumption relative to the DU
    vnic_service_rate: float = field(default=1.0e5, metadata={"key": "vnic_mu"})  # packets/s
    pkt_per_prb: float = 125.0         # packets/s generated per allocated PRB

    def __post_init__(self):
        if not 0 <= self.c0 < math.inf:
            raise ValueError("c0 must be finite and >= 0")
        for name in ("k", "beta", "vnic_service_rate", "pkt_per_prb"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        try:                        # the MCS factor of the consumption models
            math.exp(self.beta * max(MODULATION_ORDERS))
        except OverflowError:
            raise ValueError(f"beta {self.beta:g} overflows exp(beta * "
                             f"{max(MODULATION_ORDERS)})") from None
        if not 0 < self.cu_scale < 1:
            raise ValueError("cu_scale must be in (0, 1)")


@dataclass(slots=True)
class SliceLoad:
    """Coarse-time-scale load of one slice subnet: allocated PRBs plus
    the average MCS assigned to its scheduled users."""

    snssai: Snssai
    prbs: int
    modulation_order: int
    code_rate: float

    def __post_init__(self):
        if self.prbs < 0:
            raise ValueError("prbs must be >= 0")
        if self.modulation_order not in MODULATION_ORDERS:
            raise ValueError(f"modulation_order must be one of {MODULATION_ORDERS}")
        if not 0 < self.code_rate <= 1:
            raise ValueError("code_rate must be in (0, 1]")


@closed
@dataclass(frozen=True)
class CapacityBudget:
    """Per-instance vCPU capacity (1.0 per vCPU of the VM flavour) and the
    per-slice consumption cap, as a fraction of that capacity."""

    vcpu_capacity: float = 1.0
    per_slice_cap: float = 0.9

    def __post_init__(self):
        if not 0 < self.vcpu_capacity < math.inf:
            raise ValueError("vcpu_capacity must be finite and > 0")
        if not 0 < self.per_slice_cap <= 1:
            raise ValueError("per_slice_cap must be in (0, 1]")


def du_vcpu_consumption(load: SliceLoad, p: ResourceModelParams) -> float:
    """vCPU fraction one slice consumes on a DU instance."""
    return p.c0 + p.k * load.prbs * load.code_rate * math.exp(p.beta * load.modulation_order)


def cu_vcpu_consumption(load: SliceLoad, p: ResourceModelParams) -> float:
    """vCPU fraction one slice consumes on a CU instance: same traffic
    dependence as the DU, scaled down by ``cu_scale``."""
    return p.cu_scale * du_vcpu_consumption(load, p)


def mm1_wait(arrival_rate: float, service_rate: float) -> float:
    """Mean waiting time in queue (excluding service) of an M/M/1 server:
    W = 1/(mu - lambda) - 1/mu."""
    if arrival_rate >= service_rate:
        raise VnicSaturatedError(
            f"arrival rate {arrival_rate:.1f} >= service rate {service_rate:.1f} pkt/s")
    return 1.0 / (service_rate - arrival_rate) - 1.0 / service_rate


def vnic_mean_wait(total_prbs: int, p: ResourceModelParams) -> float:
    """Mean waiting time (s) of packets in a vNIC buffer fed by
    ``total_prbs`` allocated PRBs. Raises VnicSaturatedError when the
    implied arrival rate reaches the service rate."""
    if total_prbs < 0:
        raise ValueError("total_prbs must be >= 0")
    return mm1_wait(p.pkt_per_prb * total_prbs, p.vnic_service_rate)


@dataclass(frozen=True)
class IsolationResult:
    ok: bool
    violations: tuple[str, ...] = ()


_ISOLATED = IsolationResult(ok=True)


def check_isolation(consumptions: Mapping[Snssai, float],
                    budget: CapacityBudget) -> IsolationResult:
    """Isolation predicate on one shared instance, from per-slice vCPU
    consumptions: the total may not exceed the instance capacity and no
    slice may exceed its cap. Boundaries are inclusive."""
    total = sum(consumptions.values())
    slice_limit = budget.per_slice_cap * budget.vcpu_capacity
    # Any NaN makes the total NaN, which fails the first comparison, so
    # NaN inputs take the full path below.
    if total <= budget.vcpu_capacity and max(consumptions.values(), default=0.0) <= slice_limit:
        return _ISOLATED
    violations: list[str] = []
    if total > budget.vcpu_capacity:
        violations.append(
            f"total consumption {total:.4f} exceeds capacity {budget.vcpu_capacity:.4f}")
    over = [s for s, used in consumptions.items() if used > slice_limit]
    for snssai in sorted(over, key=Snssai.key):
        violations.append(f"slice {snssai} consumption {consumptions[snssai]:.4f} "
                          f"exceeds cap {slice_limit:.4f}")
    return IsolationResult(ok=not violations, violations=tuple(violations))


def estimate_prbs(throughput_mbps: float, modulation_order: int, code_rate: float,
                  numerology_index: int, dl_ul_symbol_ratio: float) -> int:
    """PRBs needed to carry a downlink throughput at the given MCS.

    One PRB carries 12 * 14 * 1000 * 2^mu symbols/s, of which the
    downlink share is r / (1 + r) for a DL/UL symbol ratio r; each symbol
    carries modulation_order * code_rate information bits. Raises
    ValueError when the estimate is not a finite number of PRBs.
    """
    if throughput_mbps < 0:
        raise ValueError("throughput must be >= 0")
    if throughput_mbps == 0:
        return 0
    sym_per_sec = _SYMBOLS_PER_PRB_PER_SEC_MU0 * (2 ** numerology_index)
    dl_share = dl_ul_symbol_ratio / (1.0 + dl_ul_symbol_ratio)
    bits_per_prb = modulation_order * code_rate * sym_per_sec * dl_share
    prbs = throughput_mbps * 1e6 / bits_per_prb if bits_per_prb > 0 else math.inf
    if not math.isfinite(prbs):
        raise ValueError(f"PRB estimate is not finite: {throughput_mbps:g} Mbps "
                         f"at {bits_per_prb:g} bits/s per PRB")
    return max(1, math.ceil(prbs))


def _traffic_term(load: SliceLoad, beta: float) -> float:
    return load.prbs * load.code_rate * math.exp(beta * load.modulation_order)


@dataclass(frozen=True)
class CalibrationResult:
    params: ResourceModelParams
    residuals: tuple[float, ...]

    @property
    def max_abs_residual(self) -> float:
        return max((abs(r) for r in self.residuals), default=0.0)


def calibrate_params(anchors: Sequence[tuple[SliceLoad, float]],
                     base: ResourceModelParams = ResourceModelParams(),
                     beta: float | None = None) -> CalibrationResult:
    """Least-squares fit of (c0, k) to observed (load, vCPU-fraction)
    anchors, with beta fixed (from ``base`` unless overridden).

    The fit is the closed-form straight line through the centred
    anchors, on traffic terms divided by their largest value so that no
    square or sum under- or overflows. With two distinct anchors the
    system is exactly determined and the fitted model reproduces them to
    numerical precision. Raises UnderdeterminedError with fewer than two
    distinct anchor loads and CalibrationError on a non-finite anchor or
    when the fit leaves the admissible region (k <= 0). A slightly
    negative fitted c0 is clamped by refitting with c0 = 0.
    """
    n = len(anchors)
    if n < 2:
        raise UnderdeterminedError("need at least two anchor points to fit (c0, k)")
    beta_fixed = base.beta if beta is None else beta
    try:
        x = [_traffic_term(load, beta_fixed) for load, _ in anchors]
    except OverflowError as exc:
        raise CalibrationError(f"traffic term overflows with beta={beta_fixed}") from exc
    y = [observed for _, observed in anchors]
    if not all(map(math.isfinite, x + y)):
        raise CalibrationError("anchor observations and traffic terms must be finite")
    scale = max(map(abs, x))
    if max(x) - min(x) <= n * sys.float_info.epsilon * scale:
        raise UnderdeterminedError("anchor loads are not distinct enough to fit (c0, k)")
    u = [v / scale for v in x]
    u_mean = sum(u) / n
    y_mean = sum(y) / n
    slope = (sum((ui - u_mean) * (yi - y_mean) for ui, yi in zip(u, y))
             / sum((ui - u_mean) ** 2 for ui in u))
    c0 = y_mean - slope * u_mean
    if c0 < 0:
        c0 = 0.0
        slope = sum(ui * yi for ui, yi in zip(u, y)) / sum(ui * ui for ui in u)
    if not slope > 0:
        raise CalibrationError("anchors imply consumption non-increasing in traffic")
    try:
        params = replace(base, c0=c0, k=slope / scale, beta=beta_fixed)
    except ValueError as exc:
        raise CalibrationError(f"fitted coefficients are not admissible: {exc}") from exc
    residuals = tuple(yi - (c0 + slope * ui) for ui, yi in zip(u, y))
    return CalibrationResult(params=params, residuals=residuals)
