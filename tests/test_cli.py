from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from corpus import CORPUS
from helpers import build_documents, slice_plan

import ranslice
from ranslice import cli, orchestrator, sim
from ranslice.cli import main
from ranslice.descriptors import validate


def write_descriptors(tmp_path, docs=None, subdir="descriptors"):
    d = tmp_path / subdir
    d.mkdir()
    for i, doc in enumerate(docs or build_documents()):
        text = doc if isinstance(doc, str) else yaml.safe_dump(doc)
        (d / f"doc-{i:02d}.yaml").write_text(text)
    return d


def write_config(tmp_path, **overrides):
    config = {
        "ticks": 15,
        "total_prbs": 273,
        "seed": 5,
        "budget": {"vcpu_capacity": 1.0, "per_slice_cap": 0.9},
        "resource": {"c0": 0.01, "k": 0.0001, "beta": 0.35, "cu_scale": 0.3,
                     "vnic_mu": 100000.0, "pkt_per_prb": 125.0},
        "scaling": {"hi": 0.8, "lo": 0.3, "window": 5, "cooldown": 3},
        "admission": {"vnic_delay_cap_ms": 5.0},
        "profiles": [
            {"snssai": {"service_type": "eMBB"}, "drb_arrival_rate": 0.5,
             "mean_holding": 6,
             "qos": {"throughput_mbps": 20.0, "latency_ms": 20.0, "reliability": 0.99},
             "mcs": [{"modulation_order": 6, "code_rate": 0.75, "p": 1.0}],
             "seed": 1},
            {"snssai": {"service_type": "uRLLC"}, "drb_arrival_rate": 0.3,
             "mean_holding": 4,
             "qos": {"throughput_mbps": 8.0, "latency_ms": 5.0, "reliability": 0.999},
             "mcs": [{"modulation_order": 4, "code_rate": 0.5, "p": 1.0}],
             "seed": 2},
        ],
    }
    config.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


def test_validate_clean_directory(tmp_path, capsys):
    d = write_descriptors(tmp_path)
    assert main(["validate", "--descriptors", str(d)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_validate_reports_findings(tmp_path, capsys):
    loaded = [yaml.safe_load(t) for t in build_documents()]
    for doc in loaded:
        if "gnb_nsd" in doc:
            del doc["gnb_nsd"]["aux_nsd_ref"]
    d = write_descriptors(tmp_path, loaded)
    assert main(["validate", "--descriptors", str(d)]) == 1
    assert "MissingAuxiliaryNsd" in capsys.readouterr().out


def test_validate_syntax_error_exit_one(tmp_path, capsys):
    d = tmp_path / "descriptors"
    d.mkdir()
    (d / "broken.yaml").write_text("vnfd: [oops")
    assert main(["validate", "--descriptors", str(d)]) == 1


def test_validate_missing_directory(tmp_path):
    assert main(["validate", "--descriptors", str(tmp_path / "nope")]) == 2


def test_simulate_writes_csv(tmp_path):
    d = write_descriptors(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "trace.csv"
    rc = main(["simulate", "--descriptors", str(d), "--config", str(cfg),
               "--scenario", "s4", "--out", str(out), "--format", "csv"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("tick,slice,prbs,du_util,cu_util,vnic_wait_ms,"
                        "admitted,rejected,vm_count,event")
    assert len(lines) == 1 + 15 * 2  # header + ticks x slices


def test_simulate_identical_runs_byte_identical(tmp_path):
    d = write_descriptors(tmp_path)
    cfg = write_config(tmp_path)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main(["simulate", "--descriptors", str(d), "--config", str(cfg),
                   "--scenario", "s2", "--seed", "42", "--out", str(out),
                   "--format", "json"])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_scenario_required(tmp_path):
    d = write_descriptors(tmp_path)
    cfg = write_config(tmp_path)  # no scenario key, no --scenario flag
    rc = main(["simulate", "--descriptors", str(d), "--config", str(cfg),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_simulate_config_error_exit_two(tmp_path):
    d = write_descriptors(tmp_path)
    cfg = write_config(tmp_path, ticks=0)
    rc = main(["simulate", "--descriptors", str(d), "--config", str(cfg),
               "--scenario", "s1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_simulate_ticks_override(tmp_path):
    d = write_descriptors(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "t.csv"
    rc = main(["simulate", "--descriptors", str(d), "--config", str(cfg),
               "--scenario", "s1", "--ticks", "3", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1 + 3 * 2


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_simulate_baseline_overload_exit_two(tmp_path, flags):
    # Twelve slices' c0 baselines overload the one shared 1-vCPU DU. The
    # typed error must hold without assert statements too (python -O).
    d = write_descriptors(tmp_path, build_documents(n_slices=12))
    profiles = [{"snssai": {"service_type": service, **({"subtype": sub} if sub else {})},
                 "drb_arrival_rate": 0.0, "mean_holding": 4,
                 "qos": {"throughput_mbps": 8.0, "latency_ms": 5.0, "reliability": 0.999},
                 "mcs": [{"modulation_order": 4, "code_rate": 0.5, "p": 1.0}],
                 "seed": i + 1}
                for i, (service, sub) in enumerate(slice_plan(12))]
    cfg = write_config(tmp_path, profiles=profiles,
                       resource={"c0": 0.1, "k": 0.0001, "beta": 0.35, "cu_scale": 0.3,
                                 "vnic_mu": 100000.0, "pkt_per_prb": 125.0})
    env = dict(os.environ, PYTHONPATH=str(Path(ranslice.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "ranslice.cli", "simulate", "--descriptors", str(d),
         "--config", str(cfg), "--scenario", "s2", "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: du-shared-1: isolation fails with no PRBs")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("field, value", [
    (("profiles", 0, "qos", "throughput_mbps"), math.nan),
    (("profiles", 0, "qos", "throughput_mbps"), math.inf),
    (("profiles", 1, "qos", "latency_ms"), math.nan),
    (("profiles", 0, "mcs", 0, "p"), math.nan),
    (("resource", "k"), math.nan),
    (("budget", "vcpu_capacity"), math.nan),
    (("admission", "vnic_delay_cap_ms"), math.nan),
], ids=["throughput-nan", "throughput-inf", "latency-nan", "mcs-p-nan", "k-nan",
        "vcpu-capacity-nan", "delay-cap-nan"])
def test_simulate_non_finite_config_exit_two(tmp_path, capsys, field, value):
    d = write_descriptors(tmp_path)
    cfg = write_config(tmp_path)
    raw = yaml.safe_load(cfg.read_text())
    target = raw
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    cfg.write_text(yaml.safe_dump(raw))
    out = tmp_path / "x.json"
    rc = main(["simulate", "--descriptors", str(d), "--config", str(cfg),
               "--scenario", "s2", "--out", str(out), "--format", "json"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    (("mcs", 0, "code_rate"), 5e-324),
    (("qos", "throughput_mbps"), 1e305),
], ids=["rate-subnormal", "throughput-1e305"])
@pytest.mark.parametrize("scenario", ["s1", "s4"])
def test_simulate_unrepresentable_prb_estimate_exit_two(tmp_path, capsys, field, value,
                                                        scenario):
    # Each value passes its own check, but the PRB estimate it gives is
    # not finite; the run stops before tick 0 with the atom's path.
    demo = Path(__file__).resolve().parent.parent / "demo"
    raw = yaml.safe_load((demo / "config.yaml").read_text())
    target = raw["profiles"][0]
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--descriptors", str(demo / "descriptors"), "--config", str(cfg),
               "--scenario", scenario, "--ticks", "3", "--out", str(out), "--format", "csv"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: profiles[0].mcs[0]: PRB estimate is not finite")
    assert not out.exists()


BAD_SNSSAIS = pytest.mark.parametrize("snssai, message", [
    ({"service_type": "broadband"}, "service_type: 'broadband' not one of"),
    ({"subtype": "video"}, "service_type: missing required field"),
    ({"service_type": "uRLLC", "subtype": 7}, "subtype: expected a string"),
    ("eMBB", "expected a mapping, got str"),
    ({"service_type": "eMBB", "subtyp": "video"},
     "unknown key 'subtyp'; expected one of service_type, subtype"),
], ids=["unknown-service-type", "missing-service-type", "non-string-subtype", "not-a-mapping",
        "unknown-key"])


@BAD_SNSSAIS
def test_simulate_bad_snssai_exit_two(tmp_path, capsys, snssai, message):
    d = write_descriptors(tmp_path)
    cfg = write_config(tmp_path)
    raw = yaml.safe_load(cfg.read_text())
    raw["profiles"][1]["snssai"] = snssai
    cfg.write_text(yaml.safe_dump(raw))
    rc = main(["simulate", "--descriptors", str(d), "--config", str(cfg),
               "--scenario", "s1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    # The path is named once, the field after it.
    assert err.startswith(f"error: profiles[1].snssai: {message}")
    assert err.count("snssai") == 1


@BAD_SNSSAIS
def test_calibrate_bad_snssai_exit_two(tmp_path, capsys, snssai, message):
    anchors = [
        {"prbs": 80, "modulation_order": 6, "code_rate": 0.8, "observed": 0.65},
        {"snssai": snssai, "prbs": 30, "modulation_order": 4, "code_rate": 0.5,
         "observed": 0.15}]
    path = tmp_path / "anchors.yaml"
    path.write_text(yaml.safe_dump(anchors))
    assert main(["calibrate", "--anchors", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}[1].snssai: {message}")
    assert err.count(str(path)) == 1 and err.count(".snssai") == 1


@pytest.mark.parametrize("command", [
    ["simulate", "--scenario", "s1"], ["compare", "--scenarios", "s1,s2"]],
    ids=["simulate", "compare"])
def test_descriptor_findings_are_printed_once(tmp_path, capsys, command):
    loaded = [yaml.safe_load(t) for t in build_documents()]
    for doc in loaded:
        if "vnfd" in doc:
            for flavour in doc["vnfd"]["ils"]:
                flavour["vcpus"] = 0
    d = write_descriptors(tmp_path, loaded)
    rc = main([command[0], "--descriptors", str(d), "--config", str(write_config(tmp_path)),
               *command[1:], "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    findings = [line for line in err if line.startswith("BadVcpuCount: ")]
    assert findings
    for line in findings:
        assert err.count(line) == 1, line


def test_compare_writes_summary(tmp_path):
    d = write_descriptors(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "summary.json"
    rc = main(["compare", "--descriptors", str(d), "--config", str(cfg),
               "--scenarios", "s1,s2,s3,s4", "--ticks", "5",
               "--out", str(out), "--format", "json"])
    assert rc == 0
    summaries = json.loads(out.read_text())
    assert [s["scenario"] for s in summaries] == ["s1", "s2", "s3", "s4"]


def test_compare_unknown_scenario_exit_two(tmp_path, capsys):
    d = write_descriptors(tmp_path)
    rc = main(["compare", "--descriptors", str(d), "--config", str(write_config(tmp_path)),
               "--scenarios", "s1,s5", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: scenarios: unknown scenario 's5' (expected s1, s2, s3 or s4)"]


@pytest.mark.parametrize("command, calls", [
    (["simulate", "--scenario", "s4"], 2), (["compare", "--scenarios", "s1,s2,s3,s4"], 5)],
    ids=["simulate", "compare"])
def test_a_command_validates_once_and_once_per_run(tmp_path, monkeypatch, command, calls):
    # The command validates the descriptors, then each run's orchestrator
    # does; sim.run does not again.
    seen = []
    for module in (cli, orchestrator, sim):
        monkeypatch.setattr(module, "validate", lambda ds: seen.append(ds) or validate(ds))
    demo = Path(__file__).resolve().parent.parent / "demo"
    rc = main([command[0], "--descriptors", str(demo / "descriptors"),
               "--config", str(demo / "config.yaml"), *command[1:], "--ticks", "3",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 0
    assert len(seen) == calls


def test_calibrate_fits_anchors(tmp_path, capsys):
    anchors = [
        {"snssai": {"service_type": "eMBB"}, "prbs": 80,
         "modulation_order": 6, "code_rate": 0.8, "observed": 0.65},
        {"snssai": {"service_type": "uRLLC"}, "prbs": 30,
         "modulation_order": 4, "code_rate": 0.5, "observed": 0.15},
    ]
    path = tmp_path / "anchors.yaml"
    path.write_text(yaml.safe_dump(anchors))
    out = tmp_path / "resource.yaml"
    rc = main(["calibrate", "--anchors", str(path), "--out", str(out)])
    assert rc == 0
    assert "fitted c0=" in capsys.readouterr().out
    section = yaml.safe_load(out.read_text())
    assert set(section["resource"]) == {"c0", "k", "beta", "cu_scale",
                                        "vnic_mu", "pkt_per_prb"}


def test_calibrate_underdetermined_exit_two(tmp_path):
    path = tmp_path / "anchors.yaml"
    path.write_text(yaml.safe_dump([
        {"prbs": 10, "modulation_order": 6, "code_rate": 0.75, "observed": 0.2}]))
    assert main(["calibrate", "--anchors", str(path)]) == 2


@pytest.mark.parametrize("observed, flags", [
    (math.nan, []), (math.inf, []), (0.15, ["--beta", "nan"]), (0.15, ["--beta", "1000"]),
], ids=["nan", "inf", "beta-nan", "beta-overflow"])
def test_calibrate_non_finite_anchor_exit_two(tmp_path, capsys, observed, flags):
    path = tmp_path / "anchors.yaml"
    path.write_text(yaml.safe_dump([
        {"prbs": 80, "modulation_order": 6, "code_rate": 0.8, "observed": 0.65},
        {"prbs": 30, "modulation_order": 4, "code_rate": 0.5, "observed": observed}]))
    out = tmp_path / "resource.yaml"
    assert main(["calibrate", "--anchors", str(path), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_calibrate_refuses_a_beta_that_overflows_the_models(tmp_path, capsys):
    # The anchors' own traffic terms are finite at m = 4 and 6; exp(100 * 8) is not.
    path = tmp_path / "anchors.yaml"
    path.write_text(yaml.safe_dump([
        {"prbs": 80, "modulation_order": 6, "code_rate": 0.8, "observed": 0.65},
        {"prbs": 30, "modulation_order": 4, "code_rate": 0.5, "observed": 0.15}]))
    out = tmp_path / "resource.yaml"
    assert main(["calibrate", "--anchors", str(path), "--out", str(out), "--beta", "100"]) == 2
    assert "beta" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_a_beta_that_overflows_the_models(tmp_path, capsys):
    d = write_descriptors(tmp_path)
    cfg = write_config(tmp_path, resource={"c0": 0.01, "k": 0.0001, "beta": 100.0})
    rc = main(["simulate", "--descriptors", str(d), "--config", str(cfg),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "resource" in capsys.readouterr().err


# Sets that validated clean before the DU-sharing rules moved into
# validation, each with the scenario it failed under.
@pytest.mark.parametrize("name, scenario", [
    ("unresolved-aux-on-unshared-du", "s4"), ("aux-flavour-on-unshared-du", "s4"),
    ("multi-constituent-dedicated-du-sl", "s1"), ("aux-over-two-du-vnfds", "s4"),
])
def test_simulate_reports_findings_on_du_sharing_rules(tmp_path, capsys, name, scenario):
    docs = next(docs for entry, docs, _ in CORPUS if entry == name)
    d = write_descriptors(tmp_path, docs)
    rc = main(["simulate", "--descriptors", str(d), "--config", str(write_config(tmp_path)),
               "--scenario", scenario, "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert not (tmp_path / "x.csv").exists()


# Sets that validated clean while two slices shared one key or a CU took
# an engine instance's id, each with its finding and the scenario whose
# trace and layout it broke.
@pytest.mark.parametrize("name, code, scenario", [
    ("empty-subtype-duplicates-a-slice-key", "DuplicateSnssai", "s1"),
    ("cu-id-of-an-engine-instance", "ReservedCuId", "s4"),
])
def test_validate_and_simulate_refuse_an_id_the_exports_share(tmp_path, capsys, name, code,
                                                               scenario):
    docs = next(docs for entry, docs, _ in CORPUS if entry == name)
    d = write_descriptors(tmp_path, docs)
    assert main(["validate", "--descriptors", str(d)]) == 1
    assert f"{code}: " in capsys.readouterr().out
    rc = main(["simulate", "--descriptors", str(d), "--config", str(write_config(tmp_path)),
               "--scenario", scenario, "--out", str(tmp_path / "x.json"), "--format", "json"])
    assert rc == 1
    assert code in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_validate_and_simulate_agree_on_an_empty_subtype(tmp_path, capsys):
    # An empty subtype is no subtype: the NSST's slice is the config's
    # {service_type: eMBB}, so both commands accept the pair.
    loaded = [yaml.safe_load(t) for t in build_documents(n_slices=1)]
    for doc in loaded:
        if "ran_nsst" in doc:
            doc["ran_nsst"]["snssai"] = {"service_type": "eMBB", "subtype": ""}
    d = write_descriptors(tmp_path, loaded)
    assert main(["validate", "--descriptors", str(d)]) == 0
    assert "no findings" in capsys.readouterr().out
    config = write_config(tmp_path)
    profiles = yaml.safe_load(config.read_text())["profiles"][:1]
    assert profiles[0]["snssai"] == {"service_type": "eMBB"}
    config = write_config(tmp_path, profiles=profiles)
    out = tmp_path / "trace.json"
    assert main(["simulate", "--descriptors", str(d), "--config", str(config),
                 "--scenario", "s1", "--out", str(out), "--format", "json"]) == 0
    assert json.loads(out.read_text())["ticks"][0]["slices"].keys() == {"eMBB"}


def test_calibrate_malformed_anchors_exit_two(tmp_path, capsys):
    path = tmp_path / "anchors.yaml"
    path.write_text("anchors: [oops")
    assert main(["calibrate", "--anchors", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("prbs", 80.9), ("prbs", "30"), ("modulation_order", 4.7), ("observed", True),
], ids=["prbs-float", "prbs-string", "modulation-float", "observed-bool"])
def test_calibrate_mistyped_anchor_field_exit_two(tmp_path, capsys, field, value):
    # Each value used to be coerced (80, 30, 4, 1.0) and fitted with exit 0.
    anchors = [
        {"prbs": 80, "modulation_order": 6, "code_rate": 0.8, "observed": 0.65},
        {"prbs": 30, "modulation_order": 4, "code_rate": 0.5, "observed": 0.15}]
    anchors[0][field] = value
    path = tmp_path / "anchors.yaml"
    path.write_text(yaml.safe_dump(anchors))
    out = tmp_path / "resource.yaml"
    assert main(["calibrate", "--anchors", str(path), "--out", str(out)]) == 2
    assert f"{path}[0].{field}: expected a" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_config_not_utf8_exit_two(tmp_path, capsys):
    d = write_descriptors(tmp_path)
    cfg = tmp_path / "config.yaml"
    cfg.write_bytes(b"ticks: 15\n# \xff\n")
    rc = main(["simulate", "--descriptors", str(d), "--config", str(cfg),
               "--scenario", "s1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert str(cfg) in capsys.readouterr().err


def test_descriptor_not_utf8_exit_one(tmp_path, capsys):
    d = write_descriptors(tmp_path)
    bad = d / "zz-latin1.yaml"
    bad.write_bytes("vnfd: {id: caf\xe9}\n".encode("latin-1"))
    rc = main(["simulate", "--descriptors", str(d), "--config", str(write_config(tmp_path)),
               "--scenario", "s1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, message", [
    ("resource", "vnic_service_rate", 5e4, "resource: unknown key 'vnic_service_rate'"),
    ("scaling", "windw", 50, "scaling: unknown key 'windw'"),
    (None, "admision", {"vnic_delay_cap_ms": 5.0}, "config: unknown key 'admision'"),
], ids=["field-name-for-vnic_mu", "misspelt-window", "misspelt-admission"])
def test_simulate_unknown_config_key_exit_two(tmp_path, capsys, section, key, value, message):
    # Each key used to be ignored: the run went ahead at vnic_mu 1e5,
    # window 5 and the default 2 ms delay cap.
    demo = Path(__file__).resolve().parent.parent / "demo"
    raw = yaml.safe_load((demo / "config.yaml").read_text())
    (raw[section] if section else raw)[key] = value
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--descriptors", str(demo / "descriptors"), "--config", str(cfg),
               "--scenario", "s4", "--ticks", "3", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}; expected one of ")
    assert not out.exists()
