"""Sectioned JSON configuration, loaded and checked in one place.

One document with optional {retrieval, evolution, curriculum, proposer,
simulation} sections, each a dataclass beside the code that reads it, with
its defaults and a ``validate`` range check. ``load_section`` walks a
dataclass's fields and type hints, so an unknown key, a wrong type or an
out-of-range value becomes one ConfigInvalid before any graph work starts.
"""

from __future__ import annotations

import dataclasses
import logging
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Union, get_args, get_origin, get_type_hints

from .curriculum import CurriculumParams
from .errors import ConfigInvalid
from .evolution import EvolutionConfig
from .persistence import decode_json, read_text
from .proposer import ProposerParams
from .retrieval import RetrievalParams
from .simulate import SimConfig, default_sim_config

logger = logging.getLogger(__name__)

_SCALARS = {int: "an integer", float: "a finite number", str: "a string"}


@dataclass
class AppConfig:
    retrieval: RetrievalParams = field(default_factory=RetrievalParams)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    curriculum: CurriculumParams = field(default_factory=CurriculumParams)
    proposer: ProposerParams = field(default_factory=ProposerParams)
    simulation: SimConfig = field(default_factory=default_sim_config)

    def __post_init__(self) -> None:
        # the simulator shares the top-level sections instead of copying them
        self.simulation.retrieval = self.retrieval
        self.simulation.evolution = self.evolution
        self.simulation.curriculum = self.curriculum


def load_section(obj: Any, cls: type, where: str, base: Any = None) -> Any:
    """Build a ``cls`` from a JSON object; omitted fields keep ``base``'s values.

    Without a base, fields that have no default are required. Fields marked
    shared belong to a top-level section and are unknown here. The result's
    ``validate``, if it has one, runs last.
    """
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{where} must be an object")
    hints = get_type_hints(cls)
    settable = [f for f in dataclasses.fields(cls) if not f.metadata.get("shared")]
    unknown = set(obj) - {f.name for f in settable}
    if unknown:
        raise ConfigInvalid(f"unknown {where} field(s): {', '.join(sorted(unknown))}")
    values = {name: _convert(hints[name], value, f"{where}.{name}".lstrip("."),
                             getattr(base, name, None))
              for name, value in obj.items()}
    if base is not None:
        result = dataclasses.replace(base, **values)
    else:
        missing = [f.name for f in settable if f.name not in values
                   and f.default is f.default_factory is dataclasses.MISSING]
        if missing:
            raise ConfigInvalid(f"{where} needs field(s): {', '.join(missing)}")
        result = cls(**values)
    if hasattr(result, "validate"):
        result.validate()
    return result


def _convert(hint: Any, value: Any, where: str, base: Any = None) -> Any:
    """Check one JSON value against a type hint and return it as that type."""
    origin, args = get_origin(hint), get_args(hint)
    if dataclasses.is_dataclass(hint):
        return load_section(value, hint, where, base)
    if origin in (Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
        return _convert(hint, value, where)
    if origin is list and isinstance(value, list):
        return [_convert(args[0], item, f"{where}[{i}]")
                for i, item in enumerate(value)]
    if origin is tuple and isinstance(value, list) and len(value) == len(args):
        return tuple(_convert(arg, item, f"{where}[{i}]")
                     for i, (arg, item) in enumerate(zip(args, value)))
    # bool is an int subclass, so compare exact types; the bound also
    # rejects NaN, the infinities and integers too large for a float
    if hint is float and type(value) in (int, float) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    if hint in (int, str) and type(value) is hint:
        return value
    expected = ("an array" if origin is list else
                f"an array of {len(args)} numbers" if origin is tuple else
                _SCALARS.get(hint, str(hint)))
    raise ConfigInvalid(f"{where} must be {expected}, got {type(value).__name__}")


def load_app_config(path: str | Path | None, strict: bool = False) -> AppConfig:
    """Read a config file; a missing path yields pure defaults.

    An unknown top-level section is an error under ``strict`` and is ignored
    with a warning otherwise; inside a section every key must be known.
    """
    if path is None:
        return AppConfig()
    data = decode_json(read_text(path, ConfigInvalid), path)
    if not isinstance(data, dict):
        raise ConfigInvalid("config must be a JSON object")
    sections = {f.name for f in dataclasses.fields(AppConfig)}
    unknown = set(data) - sections
    if unknown:
        message = f"unknown config section(s): {', '.join(sorted(unknown))}"
        if strict:
            raise ConfigInvalid(message)
        logger.warning("%s (ignored)", message)
    known = {name: data[name] for name in sections & set(data)}
    return load_section(known, AppConfig, "", AppConfig())
