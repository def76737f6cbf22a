"""Simulation configuration files.

A config file is a YAML mapping; README.md "Simulation config" shows one
with every key, and the defaults. ``SimConfig`` and the records it holds
are the schema: the file is read by the descriptors' field-driven reader,
each key's type and default taken from its dataclass field. A key the
schema does not name is an error. Errors carry the path of the offending
field.
"""

from __future__ import annotations

from typing import Any, Mapping

import yaml

from .descriptors import ServiceType, Snssai, load_yaml, parse_snssai
from .descriptors.parse import FieldError, get_field, read_record, write_record
from .resources import ResourceModelParams, SliceLoad
from .sim import ConfigError, SimConfig


def _config_error(exc: FieldError) -> ConfigError:
    """``exc`` as a ConfigError at its path (``config`` at the top level)."""
    return ConfigError(exc.path or "config", exc.message)


def resource_params_from_dict(m: Mapping[str, Any], path: str = "resource") -> ResourceModelParams:
    try:
        return read_record(ResourceModelParams, m, path)
    except FieldError as exc:
        raise _config_error(exc) from exc


resource_params_to_dict = write_record


def sim_config_from_dict(raw: Mapping[str, Any]) -> SimConfig:
    try:
        return read_record(SimConfig, raw)
    except FieldError as exc:
        raise _config_error(exc) from exc


def read_yaml_file(path: str) -> Any:
    """The YAML document in the file at ``path``. A file that is not
    UTF-8 text or not valid YAML is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return load_yaml(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(path, f"not UTF-8 text: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(path, f"invalid YAML: {exc}") from exc


def load_sim_config(path: str) -> SimConfig:
    raw = read_yaml_file(path)
    if raw is None:
        raise ConfigError(path, "empty configuration file")
    return sim_config_from_dict(raw)


def load_anchors(path: str) -> list[tuple[SliceLoad, float]]:
    """The calibration anchors in the YAML file at ``path``: a non-empty
    list of {snssai, prbs, modulation_order, code_rate, observed}, each
    read as a slice load and its observed vCPU consumption."""
    raw = read_yaml_file(path)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(path, "expected a non-empty YAML list of anchors")
    anchors = []
    for i, entry in enumerate(raw):
        where = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(where, "expected a mapping")
        try:
            # the fit does not depend on the slice identity
            snssai = (parse_snssai(entry["snssai"], f"{where}.snssai") if "snssai" in entry
                      else Snssai(ServiceType.EMBB))
            load = SliceLoad(
                snssai=snssai,
                prbs=get_field(entry, "prbs", int, where, required=True),
                modulation_order=get_field(entry, "modulation_order", int, where, required=True),
                code_rate=get_field(entry, "code_rate", float, where, required=True),
            )
            observed = get_field(entry, "observed", float, where, required=True)
        except FieldError as exc:
            raise _config_error(exc) from exc
        except ValueError as exc:
            raise ConfigError(where, f"bad anchor: {exc}") from exc
        anchors.append((load, observed))
    return anchors
