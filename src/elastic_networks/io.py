"""File formats: network JSON, run-config JSON, trajectory JSON and SVG.

Floating point data is serialized with repr, which round-trips doubles
exactly.
"""

import dataclasses
import json
import sys

import numpy as np

from .errors import ConfigurationError
from .solver import FlowParams, NetworkState, SolverConfig

NETWORK_FORMAT = "elastic-network/1"
TRAJECTORY_FORMAT = "elastic-network-trajectory/1"
# the keys a network file, a trajectory file and one of its frames may hold
_NETWORK_KEYS = {"format", "time", "curves", "endpoints", "lambda"}
_TRAJECTORY_KEYS = {"format", "endpoints", "lambda", "frames"}
_FRAME_KEYS = {"time", "curves"}
# side of the square SVG drawing and its blank border, in pixels
SVG_SIZE = 400
SVG_MARGIN = 20


def network_to_dict(state, params):
    return {
        "format": NETWORK_FORMAT,
        "time": state.time,
        "curves": state.nodes.tolist(),
        "endpoints": params.endpoints.tolist(),
        "lambda": params.lam.tolist(),
    }


def _require(value, kind, name):
    """value, if it is of the JSON kind (dict or list) the field name needs."""
    if not isinstance(value, kind):
        noun = "a JSON object" if kind is dict else "a JSON list"
        raise ConfigurationError(f"{name} must be {noun}, got {type(value).__name__}")
    return value


def _require_keys(data, allowed, kind):
    """data, if it holds no key outside allowed; kind names the file or part."""
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown {kind} keys: {sorted(unknown)}")
    return data


def _is_number(item):
    # float() would also take a bool or "0.5", and raises OverflowError on
    # an integer past the float range
    return type(item) is float or (type(item) is int
                                   and abs(item) <= sys.float_info.max)


def _require_numbers(value, name):
    """value, if it is nested lists of only JSON numbers (see _is_number)."""
    pending = [value]
    while pending:
        item = pending.pop()
        if type(item) is list:
            pending.extend(item)
        elif not _is_number(item):
            raise ConfigurationError(f"{name} must hold only JSON numbers, got {item!r}")
    return value


def network_from_dict(data):
    _require(data, dict, "a network file")
    if data.get("format") != NETWORK_FORMAT:
        raise ConfigurationError(
            f"unsupported network format {data.get('format')!r}"
        )
    _require_keys(data, _NETWORK_KEYS, "network")
    state = _state_from(data["curves"], data.get("time", 0.0))
    return state, _params_from(data, [state])


def _state_from(curves, time):
    """A state read from a file, with finite nodes and a finite time."""
    _require(curves, list, "curves")
    if not _is_number(time):
        raise ConfigurationError(f"time must be a JSON number, got {time!r}")
    return NetworkState(curves=_require_numbers(curves, "curves"), time=float(time))


def _params_from(data, states):
    """Flow parameters read from a file, with (q, n) endpoints for states."""
    params = FlowParams(endpoints=_require_numbers(data["endpoints"], "endpoints"),
                        lam=_require_numbers(data["lambda"], "lambda"))
    for state in states:
        params.require_fit(state)
    return params


def _write_json(path, data):
    # json.dumps runs the C encoder; json.dump writes through the Python one
    with open(path, "w") as fh:
        fh.write(json.dumps(data))


def save_network(path, state, params):
    _write_json(path, network_to_dict(state, params))


def load_network(path):
    with open(path) as fh:
        return network_from_dict(json.load(fh))


def save_config(path, config):
    _write_json(path, dataclasses.asdict(config))


def load_config(path):
    with open(path) as fh:
        data = _require(json.load(fh), dict, "a config file")
    return SolverConfig(**_require_keys(data, SolverConfig.__dataclass_fields__,
                                        "config"))


def _frame_to_dict(state):
    return {"time": state.time, "curves": state.nodes.tolist()}


def trajectory_to_dict(trajectory, params):
    return {
        "format": TRAJECTORY_FORMAT,
        "endpoints": params.endpoints.tolist(),
        "lambda": params.lam.tolist(),
        "frames": [_frame_to_dict(s) for s in trajectory],
    }


def trajectory_from_dict(data):
    _require(data, dict, "a trajectory file")
    if data.get("format") != TRAJECTORY_FORMAT:
        raise ConfigurationError(
            f"unsupported trajectory format {data.get('format')!r}"
        )
    _require_keys(data, _TRAJECTORY_KEYS, "trajectory")
    frames = []
    for frame in _require(data["frames"], list, "frames"):
        _require_keys(_require(frame, dict, "a frame"), _FRAME_KEYS, "frame")
        frames.append(_state_from(frame["curves"], frame["time"]))
    return frames, _params_from(data, frames)


def save_trajectory(path, trajectory, params):
    """Write the text of json.dumps(trajectory_to_dict(...)) one frame at a
    time, so only one frame's lists and text are held at once."""
    # the text of the frameless dict ends with the empty list: '[]}'
    head = json.dumps(trajectory_to_dict([], params))
    with open(path, "w") as fh:
        fh.write(head[:-2])
        for k, state in enumerate(trajectory):
            if k:
                fh.write(", ")
            fh.write(json.dumps(_frame_to_dict(state)))  # the C encoder, as _write_json
        fh.write(head[-2:])


def load_trajectory(path):
    with open(path) as fh:
        return trajectory_from_dict(json.load(fh))


def state_to_svg(state):
    """Render a planar network as an SVG drawing with one polyline per curve."""
    if state.n != 2:
        raise ConfigurationError("SVG output needs a planar network")
    lo = state.nodes.min(axis=(0, 1))
    hi = state.nodes.max(axis=(0, 1))
    span = max(float(np.max(hi - lo)), 1e-12)
    scale = (SVG_SIZE - 2 * SVG_MARGIN) / span
    pixels = (state.nodes - lo) * scale + SVG_MARGIN
    pixels[..., 1] = SVG_SIZE - pixels[..., 1]  # flip the y axis for screen coordinates

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">'
    ]
    for xy in pixels:
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in xy)
        lines.append(
            f'<polyline fill="none" stroke="black" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines)
