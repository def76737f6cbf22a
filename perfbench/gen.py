"""Seeded inputs for the benchmark workloads.

Descriptor documents are generated as YAML text, so that parsing them is
part of the measured set-up, exactly as for the shipped demo files. The
deployment shape and the mean load are fixed per workload; the seed
drives the random demand: the simulator seed, per-slice stream seeds
and, for the ramp, the diurnal phase and the whole arrival schedule.
"""

from __future__ import annotations

import math
import random

import yaml

SERVICE_CYCLE = ("eMBB", "uRLLC", "mMTC")

SLICE_PROFILES = {
    "eMBB": {"pdcp_duplication": False, "pdcp_ciphering": True, "rlc_mode": "AM",
             "rlc_segmentation": True, "numerology_index": 1,
             "harq_target": "spectral_efficiency", "dl_ul_symbol_ratio": 3.0},
    "uRLLC": {"pdcp_duplication": True, "pdcp_ciphering": False, "rlc_mode": "AM",
              "rlc_segmentation": False, "numerology_index": 2,
              "harq_target": "round_trip_time", "dl_ul_symbol_ratio": 1.0},
    "mMTC": {"pdcp_duplication": False, "pdcp_ciphering": True, "rlc_mode": "UM",
             "rlc_segmentation": False, "numerology_index": 0,
             "harq_target": "coverage", "dl_ul_symbol_ratio": 1.0},
}

# (modulation order, code rate) pairs an MCS mixture draws from.
MCS_CHOICES = ((4, 0.5), (6, 0.75), (6, 0.6), (8, 0.8))


def slice_names(n_slices: int) -> list[tuple[str, str | None]]:
    """(service_type, subtype) per slice; subtypes keep pairs unique."""
    return [(SERVICE_CYCLE[i % 3], None if i < 3 else f"v{i // 3 + 1}")
            for i in range(n_slices)]


def snssai_dict(service: str, subtype: str | None) -> dict:
    return {"service_type": service, **({"subtype": subtype} if subtype else {})}


def descriptor_documents(n_slices: int, du_counts: tuple[int, ...],
                         cu_vcpus: tuple[int, ...], du_vcpus: int,
                         n_rus: int = 2) -> list[str]:
    """One YAML document per slice (NSST, gNB NSD with the full IL
    product, CU VNFD) plus one with the shared DU VNFD, the auxiliary NSD
    mirroring the DU scale levels and the RU PNFDs."""
    docs = []
    for service, subtype in slice_names(n_slices):
        key = f"{service}.{subtype}" if subtype else service
        nsd = {
            "id": f"gnb-{key}",
            "cu_id": f"cu-{key}",
            "sa_cu": {"id": "sa-cu", "sls": [
                {"id": f"cu-sl-{i + 1}",
                 "constituents": [{"constituent_ref": "cu", "instance_count": 1,
                                   "flavour_ref": f"cu-{key}-fl-{i + 1}"}]}
                for i in range(len(cu_vcpus))]},
            "sa_du": {"id": "sa-du", "sls": [
                {"id": f"du-sl-{j + 1}",
                 "constituents": [{"constituent_ref": "du", "instance_count": count,
                                   "flavour_ref": "du-fl-1"}]}
                for j, count in enumerate(du_counts)]},
            "ils": [{"id": f"il-{i + 1}-{j + 1}", "cu_sl": f"cu-sl-{i + 1}",
                     "du_sl": f"du-sl-{j + 1}"}
                    for j in range(len(du_counts)) for i in range(len(cu_vcpus))],
            "cu_vnfd_ref": f"vnfd-cu-{key}",
            "du_vnfd_ref": "vnfd-du-shared",
            "ru_pnfd_refs": [f"pnfd-ru-{r + 1}" for r in range(n_rus)],
            "aux_nsd_ref": "aux-du",
        }
        doc = {
            "ran_nsst": {"id": f"nsst-{key}", "snssai": snssai_dict(service, subtype),
                         "slice_profile": dict(SLICE_PROFILES[service]),
                         "fcaps": {"monitoring": "basic"}, "gnb_nsd_ref": nsd["id"]},
            "gnb_nsd": nsd,
            "vnfd": {"id": f"vnfd-cu-{key}", "shared": False,
                     "ils": [{"id": f"cu-{key}-fl-{i + 1}", "vcpus": v,
                              "cpu_ghz": 2.4, "mem_gb": 4 * v}
                             for i, v in enumerate(cu_vcpus)]},
        }
        docs.append(yaml.safe_dump(doc, sort_keys=False))
    docs.append(yaml.safe_dump({
        "vnfd": {"id": "vnfd-du-shared", "shared": True,
                 "ils": [{"id": "du-fl-1", "vcpus": du_vcpus, "cpu_ghz": 2.2, "mem_gb": 4}]},
        "aux_nsd": {"id": "aux-du",
                    "ils": [{"id": f"du-sl-{j + 1}", "du_count": count, "du_il_ref": "du-fl-1"}
                            for j, count in enumerate(du_counts)]},
        "pnfd": [{"id": f"pnfd-ru-{r + 1}", "cps": [{"name": "fronthaul", "gbps": 25.0}]}
                 for r in range(n_rus)],
    }, sort_keys=False))
    return docs


def mcs_mixture(index: int) -> list[dict]:
    """Two MCS atoms per slice, fixed by the slice's position, so that the
    seed changes the draws but not the mean load."""
    a = MCS_CHOICES[index % len(MCS_CHOICES)]
    b = MCS_CHOICES[(index + 1) % len(MCS_CHOICES)]
    return [{"modulation_order": a[0], "code_rate": a[1], "p": 0.5},
            {"modulation_order": b[0], "code_rate": b[1], "p": 0.5}]


def config_document(seed: int, n_slices: int, ticks: int, rate: float, holding: float,
                    throughput_mbps: float, k: float) -> dict:
    """A simulation config mapping (the schema ``ranslice.config`` reads)
    with one profile per slice; the seed picks the simulator seed and the
    per-slice stream seeds."""
    rng = random.Random(f"config:{seed}")
    profiles = [{
        "snssai": snssai_dict(service, subtype),
        "drb_arrival_rate": rate,
        "mean_holding": holding,
        "qos": {"throughput_mbps": throughput_mbps, "latency_ms": 20.0, "reliability": 0.99},
        "mcs": mcs_mixture(i),
        "seed": rng.randrange(1 << 30),
    } for i, (service, subtype) in enumerate(slice_names(n_slices))]
    return {
        "ticks": ticks,
        "total_prbs": 273,
        "seed": rng.randrange(1 << 30),
        "budget": {"vcpu_capacity": 1.0, "per_slice_cap": 0.9},
        "resource": {"c0": 0.05, "k": k, "beta": 0.35, "cu_scale": 0.3,
                     "vnic_mu": 100000.0, "pkt_per_prb": 125.0},
        "scaling": {"hi": 0.8, "lo": 0.3, "window": 5, "cooldown": 3},
        "admission": {"vnic_delay_cap_ms": 5.0},
        "profiles": profiles,
    }


def poisson(rng: random.Random, lam: float) -> int:
    threshold = math.exp(-lam)
    k, p = 0, rng.random()
    while p > threshold:
        k += 1
        p *= rng.random()
    return k


def ramp_schedule(seed: int, n_slices: int, ticks: int, peak_rate: float,
                  trough: float, period: int, holding: float,
                  mcs_by_slice: list[list[dict]]) -> list[list[tuple[int, int, float, int]]]:
    """Per tick, the arrivals as (slice index, modulation order, code
    rate, holding ticks). Each slice's rate is a raised cosine between
    ``trough * peak_rate`` and ``peak_rate``; all slices share a seeded
    phase, each shifted by up to a tenth of the period, so the total load
    swings as a whole. Holding times are geometric with mean ``holding``."""
    rng = random.Random(f"ramp:{seed}")
    base = rng.random() * period
    phases = [base + (rng.random() - 0.5) * 0.2 * period for _ in range(n_slices)]
    p_depart = 1.0 / holding
    schedule = []
    for t in range(ticks):
        arrivals = []
        for s in range(n_slices):
            shape = 0.5 * (1.0 - math.cos(2.0 * math.pi * (t + phases[s]) / period))
            lam = peak_rate * (trough + (1.0 - trough) * shape)
            for _ in range(poisson(rng, lam)):
                u = rng.random()
                atom = mcs_by_slice[s][0] if u < mcs_by_slice[s][0]["p"] else mcs_by_slice[s][1]
                hold = 1 + int(math.log(1.0 - rng.random()) / math.log(1.0 - p_depart))
                arrivals.append((s, atom["modulation_order"], atom["code_rate"], hold))
        schedule.append(arrivals)
    return schedule
