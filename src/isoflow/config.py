"""JSON run configurations: loading, schema validation, object building.

Schema violations raise ConfigError, which the command line maps to exit
code 2 (as opposed to exit 1 for a numerical check that ran and failed).
"""
from __future__ import annotations

import json
import math
import os

from .algebra import AlgebraSpec, e2, oscillator, su2, su11
from .chain import ChainState
from .flows import FlowState, SignedScaled, Toda, UPolicy
from .representations import (E2, DiscreteSeriesPlus, Oscillator,
                              PrincipalSeries, RepresentationSpec, SU2)

DEFAULT_SEED = 12345


class ConfigError(ValueError):
    """Malformed configuration (schema, types, ranges)."""


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    return cfg


def _block(cfg, where: str) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError(f"missing or invalid {where!r} block "
                          "(must be a JSON object)")
    return cfg


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing key {key!r} in {where}")
    return cfg[key]


def _number(cfg: dict, key: str, where: str, default=None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing number {key!r} in {where}")
        return float(default)
    return _finite(cfg[key], f"{where}.{key}")


def _numbers(cfg: dict, key: str, where: str) -> tuple[float, ...]:
    """The array ``cfg[key]`` of finite numbers, as floats."""
    values = _require(cfg, key, where)
    if not isinstance(values, list):
        raise ConfigError(f"{where}.{key} must be an array")
    return tuple(_finite(v, f"{where}.{key}[{i}]") for i, v in enumerate(values))


def _finite(v, name: str) -> float:
    """The JSON number ``v`` as a float; ConfigError unless it is a finite
    number (json also reads NaN, Infinity and integers past the float
    range)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{name} must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {v!r}")
    return x


def integer(v, name: str, *, positive: bool = False) -> int:
    """The JSON number ``v`` as an int; ConfigError unless it is a finite
    number without a fractional part (10 or 10.0, not 2.5) and, with
    ``positive``, at least 1.  json reads true/false as booleans, which are
    not numbers here."""
    try:
        x = _finite(v, name)
    except ConfigError:
        x = math.nan
    if not x.is_integer() or (positive and x < 1):
        raise ConfigError(f"{name} must be {'a positive' if positive else 'an'} "
                          f"integer, got {v!r}")
    return int(v)


def _integer(cfg: dict, key: str, where: str, default=None) -> int:
    """``integer`` of ``cfg[key]``, which may be absent when there is a
    ``default``."""
    value = _require(cfg, key, where) if default is None else cfg.get(key, default)
    return integer(value, f"{where}.{key}")


def build_algebra(cfg: dict) -> AlgebraSpec:
    cfg = _block(cfg, "algebra")
    cls = _require(cfg, "class", "algebra")
    c = _number(cfg, "c", "algebra", default=None) if "c" in cfg else None
    makers = {"su2": su2, "su11": su11, "oscillator": oscillator, "e2": e2}
    if cls not in makers:
        raise ConfigError(f"unknown algebra class {cls!r}")
    try:
        return makers[cls]() if c is None else makers[cls](c)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_representation(cfg: dict) -> RepresentationSpec:
    cfg = _block(cfg, "representation")
    kind = _require(cfg, "type", "representation")
    try:
        if kind == "su2":
            return SU2(_number(cfg, "j", "representation"))
        if kind == "discrete_series":
            return DiscreteSeriesPlus(_number(cfg, "k", "representation"),
                                      _integer(cfg, "n_max", "representation"))
        if kind == "principal_series":
            return PrincipalSeries(_number(cfg, "rho", "representation"),
                                   _number(cfg, "eps", "representation"),
                                   _integer(cfg, "n_min", "representation"),
                                   _integer(cfg, "n_max", "representation"))
        if kind == "oscillator":
            return Oscillator(_number(cfg, "k", "representation"),
                              _number(cfg, "h", "representation"),
                              _integer(cfg, "n_max", "representation"))
        if kind == "e2":
            return E2(_number(cfg, "k", "representation"),
                      _integer(cfg, "n_min", "representation"),
                      _integer(cfg, "n_max", "representation"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown representation type {kind!r}")


def build_policy(cfg: dict) -> UPolicy:
    cfg = _block(cfg, "flow.policy")
    kind = _require(cfg, "type", "flow.policy")
    try:
        if kind == "toda":
            return Toda()
        if kind == "signed_scaled":
            sigma = cfg.get("sigma")
            if sigma not in (1, -1):
                raise ConfigError("flow.policy.sigma must be 1 or -1")
            gamma = cfg.get("gamma", 1.0)
            if isinstance(gamma, dict):
                ts = gamma.get("t")
                vals = gamma.get("values")
                if not isinstance(ts, list) or not isinstance(vals, list):
                    raise ConfigError("tabulated gamma needs lists 't' and 'values'")
                gamma = (tuple(float(v) for v in ts), tuple(float(v) for v in vals))
            elif isinstance(gamma, bool) or not isinstance(gamma, (int, float)):
                raise ConfigError("flow.policy.gamma must be a number or a table")
            return SignedScaled(sigma, gamma)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown policy type {kind!r}")


def build_flow(cfg: dict) -> tuple[FlowState, UPolicy, float, float, int]:
    cfg = _block(cfg, "flow")
    r0 = _number(cfg, "r0", "flow")
    s0 = _number(cfg, "s0", "flow")
    t0 = _number(cfg, "t0", "flow", default=0.0)
    dt = _number(cfg, "dt", "flow")
    t_end = _number(cfg, "t_end", "flow")
    record_every = _integer(cfg, "record_every", "flow", default=1)
    policy = build_policy(_require(cfg, "policy", "flow"))
    return FlowState(t0, r0, s0), policy, dt, t_end, record_every


def build_chain_state(cfg: dict) -> ChainState:
    cfg = _block(cfg, "chain")
    s = _numbers(cfg, "s", "chain")
    r = _numbers(cfg, "r", "chain")
    t0 = _number(cfg, "t0", "chain", default=0.0)
    try:
        return ChainState(t0, s, r)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_chain_flow(cfg: dict):
    """Read the chain block of a config: initial data plus the coupling
    constant g and step control.  Returns (state, g, dt, t_end, record_every).
    Omitting t_end yields a single-sample trajectory (static checks only)."""
    block = _block(cfg.get("chain"), "chain")
    state = build_chain_state(block)
    g = _number(block, "g", "chain", default=1.0)
    dt = _number(block, "dt", "chain", default=1e-3)
    t_end = _number(block, "t_end", "chain", default=state.t)
    record_every = _integer(block, "record_every", "chain", default=1)
    return state, g, dt, t_end, record_every


def check_list(cfg: dict, allowed: set[str]) -> list[dict]:
    checks = cfg.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("checks must be an array")
    out = []
    for item in checks:
        if not isinstance(item, dict):
            raise ConfigError("each check must be an object")
        name = _require(item, "name", "checks[]")
        if name not in allowed:
            raise ConfigError(f"unknown check {name!r}; allowed: {sorted(allowed)}")
        tol = _number(item, "tolerance", f"check {name}")
        if tol <= 0:
            raise ConfigError(f"check {name}: tolerance must be positive")
        out.append(item)
    return out


def output_dir(cfg: dict) -> str:
    """Resolve the output directory; the ISOFLOW_OUT environment variable
    overrides the config."""
    env = os.environ.get("ISOFLOW_OUT")
    if env:
        out = env
    else:
        block = cfg.get("output", {})
        if not isinstance(block, dict):
            raise ConfigError("output must be an object")
        out = block.get("dir", ".")
        if not isinstance(out, str):
            raise ConfigError("output.dir must be a string")
    os.makedirs(out, exist_ok=True)
    return out
