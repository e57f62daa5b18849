"""Shared protocol constants, network description types and scenario config I/O.

All durations are stored internally in microseconds; powers in watts;
arrival rates in packets per second.  Scenario files mirror the reference
parameter table, where the frame and transmission slot are given in
milliseconds and the short control messages in microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import yaml

US_PER_MS = 1000.0
US_PER_S = 1_000_000.0

# PyYAML's libyaml pair where PyYAML was built with it, else the pure-Python
# pair: ~3-5x faster on plan files, with the same bytes and documents
# (README "Install" names the two edge cases where they differ).  The
# dumper writes only `hymac run --print-config`: `optimizer.dump_plan`
# writes plan files itself
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class ConfigError(ValueError):
    """Raised on an invalid scenario document or invalid type fields."""


@dataclass(frozen=True)
class TimingConstants:
    """Protocol timing and power constants (durations in us, powers in W)."""

    t_frame_us: float = 1000.0 * US_PER_MS
    t_r_us: float = 2.0 * US_PER_MS
    t_req_us: float = 22.2
    t_nof_us: float = 10.0
    t_anc_us: float = 10.0
    t_ack_us: float = 7.5
    sifs_us: float = 2.5
    bifs_us: float = 7.5
    delta_idle_us: float = 10.0
    p_tx_w: float = 1.5
    p_rx_w: float = 1.0
    p_idle_w: float = 0.5

    def __post_init__(self):
        for name in ("t_frame_us", "t_r_us", "t_req_us", "t_nof_us",
                     "t_anc_us", "t_ack_us", "sifs_us", "bifs_us",
                     "delta_idle_us", "p_tx_w", "p_rx_w", "p_idle_w"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and strictly positive")
        if self.t_r_us >= self.t_frame_us:
            raise ConfigError("transmission slot must be shorter than the frame")
        if self.t_req_us + self.sifs_us + self.t_ack_us + self.bifs_us >= self.t_frame_us:
            raise ConfigError("a single successful contention must fit in a frame")
        if self.room_us <= 0:
            raise ConfigError("NP and AP must leave room in the frame")

    @property
    def delta_coll_us(self) -> float:
        return self.t_req_us + self.bifs_us

    @property
    def delta_succ_us(self) -> float:
        return self.t_req_us + self.sifs_us + self.t_ack_us + self.bifs_us

    @property
    def room_us(self) -> float:
        """The frame budget (README, "Simulator"): what the notification
        and announcement periods (NP, AP) leave for the COP and the TOP."""
        return self.t_frame_us - (self.t_nof_us + self.t_anc_us)

    def fit(self, t_cop_us, cost_us=0.0):
        """The fit rule: the largest whole m with t_cop + m (cost + t_r)
        in the room, for ``t_cop_us`` of contention spent and ``cost_us``
        per further winner; negative where t_cop alone passes the room."""
        return np.floor((self.room_us - t_cop_us) / (cost_us + self.t_r_us))

    def contention_cap(self, room_us: float, success_extra_us: float = 0.0) -> float:
        """The contention cap: ``room_us`` less the longest slot, an idle
        one or a success (with ``success_extra_us`` of data); a collision
        is shorter.  A slot that starts before it ends in the room."""
        return room_us - max(self.delta_idle_us, self.delta_succ_us + success_extra_us)


@dataclass(frozen=True)
class ClassConfig:
    """Priority-class layout and contention parameters.

    Class index q = 1 is the lowest priority (smallest preliminary
    contending probability); class sizes are listed for q = 1..Q.
    """

    class_sizes: tuple[int, ...]
    p_inl: float
    alpha: float
    arrival_rate: float  # packets per second, identical for every device

    def __post_init__(self):
        if not self.class_sizes or any(k < 0 for k in self.class_sizes):
            raise ConfigError("class sizes must be a non-empty list of counts >= 0")
        if not 0.0 < self.p_inl <= 1.0:
            raise ConfigError("p_inl must lie in (0, 1]")
        if not 0.0 < self.alpha < math.inf:  # nan too
            raise ConfigError("alpha must be finite and strictly positive")
        if not (math.isfinite(self.arrival_rate) and self.arrival_rate >= 0):
            raise ConfigError("arrival rate (lambda) must be finite and nonnegative")
        object.__setattr__(self, "class_sizes", tuple(int(k) for k in self.class_sizes))

    @property
    def q_count(self) -> int:
        return len(self.class_sizes)

    @property
    def total_devices(self) -> int:
        return sum(self.class_sizes)

    def arrival_probability(self, tc: TimingConstants) -> float:
        """Probability that a device sees at least one arrival in a frame."""
        return -math.expm1(-self.arrival_rate * tc.t_frame_us / US_PER_S)


@dataclass(frozen=True)
class Scenario:
    """One fully resolved experiment description."""

    name: str
    timing: TimingConstants
    classes: ClassConfig
    variant: str = "hybrid"
    horizon: int = 200
    seeds: tuple[int, ...] = tuple(range(1, 11))

    def __post_init__(self):
        if self.variant not in ("hybrid", "csma", "tdma", "all"):
            raise ConfigError(f"unknown protocol variant {self.variant!r}")
        if self.horizon < 1:
            raise ConfigError("horizon must be at least one frame")
        try:
            seeds = tuple(int(s) for s in self.seeds)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"seeds must be integers, got {self.seeds!r}") from exc
        if not seeds:
            raise ConfigError("seeds must not be empty")
        if len(set(seeds)) != len(seeds):
            raise ConfigError("seeds must be distinct")
        if min(seeds) < 0:
            raise ConfigError(f"seeds must be nonnegative, got {min(seeds)}")
        object.__setattr__(self, "seeds", seeds)


# Scenario (de)serialization.  Keys in the `timing` section use the
# reference units: frame and data slot in ms, control messages in us.

_TIMING_KEYS_MS = {"t_frame": "t_frame_us", "t_r": "t_r_us"}
_TIMING_KEYS_US = {
    "t_req": "t_req_us", "t_nof": "t_nof_us", "t_anc": "t_anc_us",
    "t_ack": "t_ack_us", "sifs": "sifs_us", "bifs": "bifs_us",
    "delta_idle": "delta_idle_us",
}
_TIMING_KEYS_W = {"p_tx": "p_tx_w", "p_rx": "p_rx_w", "p_idle": "p_idle_w"}


def _known(doc, keys, section: str) -> dict:
    """``doc`` as a mapping whose keys all lie in ``keys``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} must be a mapping")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(map(str, unknown))}")
    return doc


def _is(value, kind) -> bool:
    """Whether ``value`` is an int (``kind=int``) or a number: any int or
    float.  A bool or a string is neither."""
    types = int if kind is int else (int, float)
    return isinstance(value, types) and not isinstance(value, bool)


def _number(doc: dict, key: str, default, section: str, kind=float):
    """``doc[key]``, or ``default`` when absent, as a ``kind``."""
    value = doc.get(key, default)
    if not _is(value, kind):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{section}.{key} must be {what}, got {value!r}")
    return kind(value)


def _integers(doc: dict, key: str, default, section: str) -> tuple[int, ...]:
    """``doc[key]``, or ``default`` when absent, as a tuple of ints."""
    value = doc.get(key, default)
    if not isinstance(value, (list, tuple)) or not all(_is(v, int) for v in value):
        raise ConfigError(f"{section}.{key} must be a list of integers, got {value!r}")
    return tuple(value)


def timing_from_dict(doc: dict) -> TimingConstants:
    keys = {**_TIMING_KEYS_MS, **_TIMING_KEYS_US, **_TIMING_KEYS_W}
    _known(doc, keys, "timing")
    return TimingConstants(**{
        attr: _number(doc, key, None, "timing") * (US_PER_MS if key in _TIMING_KEYS_MS else 1)
        for key, attr in keys.items() if key in doc})


def timing_to_dict(tc: TimingConstants) -> dict:
    doc = {key: getattr(tc, attr) / US_PER_MS for key, attr in _TIMING_KEYS_MS.items()}
    doc.update({key: getattr(tc, attr) for key, attr in _TIMING_KEYS_US.items()})
    doc.update({key: getattr(tc, attr) for key, attr in _TIMING_KEYS_W.items()})
    return doc


def scenario_from_dict(doc: dict, name: str = "scenario") -> Scenario:
    doc = _known(doc, ("name", "timing", "classes", "arrival", "protocol"), "scenario")
    timing = timing_from_dict(doc.get("timing", {}))
    cls = _known(doc.get("classes", {}), ("sizes", "p_inl", "alpha"), "classes")
    arrival = _known(doc.get("arrival", {}), ("lambda",), "arrival")
    proto = _known(doc.get("protocol", {}), ("variant", "horizon", "seeds"), "protocol")
    classes = ClassConfig(
        class_sizes=_integers(cls, "sizes", (1,), "classes"),
        p_inl=_number(cls, "p_inl", 0.1, "classes"),
        alpha=_number(cls, "alpha", 1.0, "classes"),
        arrival_rate=_number(arrival, "lambda", 1.0, "arrival"),
    )
    return Scenario(
        name=doc.get("name", name),
        timing=timing,
        classes=classes,
        variant=proto.get("variant", "hybrid"),
        horizon=_number(proto, "horizon", 200, "protocol", int),
        seeds=_integers(proto, "seeds", tuple(range(1, 11)), "protocol"),
    )


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "name": sc.name,
        "timing": timing_to_dict(sc.timing),
        "classes": {
            "sizes": list(sc.classes.class_sizes),
            "p_inl": sc.classes.p_inl,
            "alpha": sc.classes.alpha,
        },
        "arrival": {"lambda": sc.classes.arrival_rate},
        "protocol": {
            "variant": sc.variant,
            "horizon": sc.horizon,
            "seeds": list(sc.seeds),
        },
    }


def load_yaml(path):
    """The document of a YAML file.  A file that cannot be opened or
    decoded as UTF-8, or a syntax error, is a `ConfigError` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.load(fh, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path} is not valid YAML: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} cannot be read: {exc}") from exc


def dump_yaml(doc, stream) -> None:
    """``doc`` as YAML on ``stream``, keys in insertion order."""
    yaml.dump(doc, stream, Dumper=_YAML_DUMPER, sort_keys=False)


def load_scenario(path) -> Scenario:
    doc = load_yaml(path)
    return scenario_from_dict({} if doc is None else doc)
