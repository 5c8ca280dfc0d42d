"""Every config dataclass applies the one field rule of `evonas.config`."""

import dataclasses
import importlib
import pkgutil

import pytest

import evonas
from evonas.batches import SyntheticBatchSpec
from evonas.config import ConfigError, check_fields
from evonas.evolution import ConfigError as EvolutionConfigError
from evonas.evolution import SearchConfig
from evonas.experiment import ExperimentConfig
from evonas.oracle import SyntheticSpec
from evonas.tensornet import SkeletonConfig
from evonas.zeroproxy import ProxyParams

# each class with the arguments it needs besides its defaults
CONFIGS = {
    SearchConfig: {},
    ExperimentConfig: {"benchmark": "bench.json"},
    SkeletonConfig: {},
    ProxyParams: {},
    SyntheticSpec: {"seed": 0},
    SyntheticBatchSpec: {},
}
# annotations the rule leaves to the class: sources, nested configs and tuples
OWN_CHECKS = {"object", "tuple", "SearchConfig", "SkeletonConfig", "ProxyParams"}


def test_config_error_is_one_class():
    assert EvolutionConfigError is ConfigError
    assert issubclass(ConfigError, ValueError)


def test_every_config_dataclass_is_listed():
    found = set()
    for info in pkgutil.iter_modules(evonas.__path__):
        module = importlib.import_module(f"evonas.{info.name}")
        found |= {obj for obj in vars(module).values()
                  if dataclasses.is_dataclass(obj) and isinstance(obj, type) and obj.__module__ == module.__name__
                  and obj.__name__.endswith(("Config", "Spec", "Params"))}
    assert found == set(CONFIGS)


def bad_values(cls):
    """(field, value) pairs the rule must refuse, one or two per field."""
    for f in dataclasses.fields(cls):
        assert f.type in {"int", "Optional[int]", "float", "bool", "str"} | OWN_CHECKS, (cls, f.name, f.type)
        if f.type in ("int", "Optional[int]", "float"):
            yield f.name, True
        if f.type in ("int", "Optional[int]") and f.name != "seed":
            yield f.name, 0
        if f.type == "bool":
            yield f.name, 1
        if f.type == "str":
            yield f.name, 5


@pytest.mark.parametrize("cls", list(CONFIGS), ids=lambda cls: cls.__name__)
def test_every_field_follows_the_rule(cls):
    base = CONFIGS[cls]
    cls(**base)
    cases = list(bad_values(cls))
    assert cases
    for name, value in cases:
        with pytest.raises(ConfigError, match=rf"^{name} must be"):
            cls(**{**base, name: value})


def test_rule_values():
    @dataclasses.dataclass
    class Knobs:
        count: "int" = 1
        seed: "int" = 0
        size: "Optional[int]" = None
        rate: "float" = 0.5
        on: "bool" = True
        name: "str" = "x"
        free: "object" = None

    check_fields(Knobs(count=3, seed=-2, size=4, rate=2, on=False, name="", free=1.5))
    for name, value in [("count", 2.0), ("count", True), ("count", 0), ("count", None), ("size", 0),
                        ("size", 1.0), ("rate", float("nan")), ("rate", float("-inf")), ("rate", "1"),
                        ("rate", False), ("rate", None), ("on", 0), ("on", None), ("name", None)]:
        with pytest.raises(ConfigError, match=rf"^{name} must be"):
            check_fields(Knobs(**{name: value}))
