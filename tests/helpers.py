"""Builders for descriptor documents and sim configs used across tests."""

from __future__ import annotations

import yaml

from ranslice.descriptors import DescriptorSet, parse_descriptor_set
from ranslice.orchestrator import ScalingThresholds
from ranslice.resources import CapacityBudget, ResourceModelParams
from ranslice.sim import DemandProfile, McsAtom, SimConfig
from ranslice.topology import DrbQos

SERVICE_CYCLE = ("eMBB", "uRLLC", "mMTC")

_PROFILE_DEFAULTS = {
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


def slice_plan(n_slices: int) -> list[tuple[str, str | None]]:
    """(service_type, subtype) pairs for n slices; subtypes keep the
    (service_type, subtype) pair unique past three slices."""
    plan = []
    for i in range(n_slices):
        service = SERVICE_CYCLE[i % 3]
        subtype = None if i < 3 else f"v{i // 3 + 1}"
        plan.append((service, subtype))
    return plan


def slice_key(service: str, subtype: str | None) -> str:
    return f"{service}.{subtype}" if subtype else service


def build_documents(n_slices: int = 2,
                    du_counts: tuple[int, ...] = (1, 2),
                    cu_vcpus: tuple[int, ...] = (1, 2),
                    du_vcpus: int = 1,
                    n_rus: int = 2,
                    full_il_product: bool = True,
                    shared_du: bool | None = None) -> list[str]:
    """A well-formed descriptor set with per-slice CU VNFDs and, by
    default (for two or more slices), one shared DU VNFD referenced by
    every slice's gNB NSD plus an auxiliary NSD mirroring the DU scale
    levels. A single slice gets a dedicated DU VNFD, since a shared VNFD
    referenced once is a validation finding.

    du_counts gives the DU instance count of each DU scale level;
    cu_vcpus the flavour size of each CU scale level. By default every
    (cu_sl, du_sl) pair is declared as an IL named ``il-<i>-<j>``.
    """
    if shared_du is None:
        shared_du = n_slices >= 2
    docs = []
    for service, subtype in slice_plan(n_slices):
        key = slice_key(service, subtype)
        snssai = {"service_type": service}
        if subtype:
            snssai["subtype"] = subtype
        nsst = {
            "id": f"nsst-{key}",
            "snssai": snssai,
            "slice_profile": dict(_PROFILE_DEFAULTS[service]),
            "fcaps": {"monitoring": "basic"},
            "gnb_nsd_ref": f"gnb-{key}",
        }
        sa_cu = {
            "id": "sa-cu",
            "sls": [
                {"id": f"cu-sl-{i + 1}",
                 "constituents": [{"constituent_ref": "cu", "instance_count": 1,
                                   "flavour_ref": f"cu-{key}-fl-{i + 1}"}]}
                for i in range(len(cu_vcpus))
            ],
        }
        du_vnfd_id = "vnfd-du-shared" if shared_du else f"vnfd-du-{key}"
        du_flavour_id = "du-fl-1" if shared_du else f"du-{key}-fl-1"
        sa_du = {
            "id": "sa-du",
            "sls": [
                {"id": f"du-sl-{j + 1}",
                 "constituents": [{"constituent_ref": "du", "instance_count": count,
                                   "flavour_ref": du_flavour_id}]}
                for j, count in enumerate(du_counts)
            ],
        }
        if full_il_product:
            ils = [{"id": f"il-{i + 1}-{j + 1}",
                    "cu_sl": f"cu-sl-{i + 1}", "du_sl": f"du-sl-{j + 1}"}
                   for j in range(len(du_counts)) for i in range(len(cu_vcpus))]
        else:
            ils = [{"id": "il-1-1", "cu_sl": "cu-sl-1", "du_sl": "du-sl-1"}]
        nsd = {
            "id": f"gnb-{key}",
            "cu_id": f"cu-{key}",
            "sa_cu": sa_cu,
            "sa_du": sa_du,
            "ils": ils,
            "cu_vnfd_ref": f"vnfd-cu-{key}",
            "du_vnfd_ref": du_vnfd_id,
            "ru_pnfd_refs": [f"pnfd-ru-{r + 1}" for r in range(n_rus)],
        }
        if shared_du:
            nsd["aux_nsd_ref"] = "aux-du"
        cu_vnfd = {
            "id": f"vnfd-cu-{key}",
            "shared": False,
            "ils": [{"id": f"cu-{key}-fl-{i + 1}", "vcpus": v, "cpu_ghz": 2.4, "mem_gb": 4 * v}
                    for i, v in enumerate(cu_vcpus)],
        }
        doc = {"ran_nsst": nsst, "gnb_nsd": nsd, "vnfd": cu_vnfd}
        if not shared_du:
            doc["vnfd"] = [cu_vnfd, {
                "id": du_vnfd_id,
                "shared": False,
                "ils": [{"id": du_flavour_id, "vcpus": du_vcpus,
                         "cpu_ghz": 2.2, "mem_gb": 4}],
            }]
        docs.append(yaml.safe_dump(doc, sort_keys=False))

    tail: dict = {
        "pnfd": [{"id": f"pnfd-ru-{r + 1}",
                  "cps": [{"name": "fronthaul", "gbps": 25.0}]}
                 for r in range(n_rus)],
    }
    if shared_du:
        tail["vnfd"] = {
            "id": "vnfd-du-shared",
            "shared": True,
            "ils": [{"id": "du-fl-1", "vcpus": du_vcpus, "cpu_ghz": 2.2, "mem_gb": 4}],
        }
        tail["aux_nsd"] = {
            "id": "aux-du",
            "ils": [{"id": f"du-sl-{j + 1}", "du_count": count, "du_il_ref": "du-fl-1"}
                    for j, count in enumerate(du_counts)],
        }
    docs.append(yaml.safe_dump(tail, sort_keys=False))
    return docs


def build_descriptor_set(**kwargs) -> DescriptorSet:
    return parse_descriptor_set(build_documents(**kwargs))


_SYM_MU0 = 12 * 14 * 1000


def tput_for_prbs(ds: DescriptorSet, snssai, prbs: int,
                  m: int = 6, cr: float = 0.75) -> float:
    """Throughput (Mb/s) that estimates to exactly ``prbs`` PRBs for the
    slice's numerology and symbol ratio."""
    profile = ds.nsst_for(snssai).slice_profile
    ratio = profile.dl_ul_symbol_ratio
    bits_per_prb = m * cr * _SYM_MU0 * (2 ** profile.numerology_index) * ratio / (1 + ratio)
    return (bits_per_prb * prbs - 1) / 1e6


def make_config(ds: DescriptorSet,
                ticks: int = 10,
                total_prbs: int = 273,
                params: ResourceModelParams | None = None,
                budget: CapacityBudget | None = None,
                thresholds: ScalingThresholds | None = None,
                arrival_rate: float = 0.0,
                initial_drbs: int = 0,
                throughput_mbps: float = 20.0,
                mean_holding: float = float("inf"),
                mcs: tuple[int, float] = (6, 0.75),
                seed: int = 1,
                scenario=None,
                vnic_delay_cap_ms: float = 5.0) -> SimConfig:
    """A SimConfig with one identical profile per declared slice."""
    profiles = []
    for i, snssai in enumerate(ds.snssais()):
        profiles.append(DemandProfile(
            snssai=snssai,
            drb_arrival_rate=arrival_rate,
            qos=DrbQos(throughput_mbps=throughput_mbps, latency_ms=20.0, reliability=0.99),
            mean_holding=mean_holding,
            mcs_distribution=(McsAtom(modulation_order=mcs[0], code_rate=mcs[1], p=1.0),),
            seed=i + 1,
            initial_drbs=initial_drbs,
        ))
    return SimConfig(
        ticks=ticks,
        total_prbs=total_prbs,
        budget=budget or CapacityBudget(vcpu_capacity=1.0, per_slice_cap=0.9),
        params=params or ResourceModelParams(),
        thresholds=thresholds or ScalingThresholds(),
        profiles=tuple(profiles),
        scenario=scenario,
        vnic_delay_cap_ms=vnic_delay_cap_ms,
        seed=seed,
    )
