"""File formats: network JSON, run-config JSON, trajectory JSON and SVG.

Floating point data is serialized with repr, which round-trips doubles
exactly.
"""

import dataclasses
import json

import numpy as np

from .errors import ConfigurationError
from .solver import FlowParams, NetworkState, SolverConfig

NETWORK_FORMAT = "elastic-network/1"
TRAJECTORY_FORMAT = "elastic-network-trajectory/1"


def network_to_dict(state, params):
    return {
        "format": NETWORK_FORMAT,
        "time": state.time,
        "curves": state.nodes.tolist(),
        "endpoints": params.endpoints.tolist(),
        "lambda": params.lam.tolist(),
    }


def network_from_dict(data):
    if data.get("format") != NETWORK_FORMAT:
        raise ConfigurationError(
            f"unsupported network format {data.get('format')!r}"
        )
    state = _state_from(data["curves"], data.get("time", 0.0))
    return state, _params_from(data, [state])


def _state_from(curves, time):
    """A state read from a file, with finite nodes and a finite time."""
    try:
        time = float(time)
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"time must be a number, got {time!r}") from err
    state = NetworkState(curves=curves, time=time)
    if not (np.isfinite(time) and np.all(np.isfinite(state.nodes))):
        raise ConfigurationError("node coordinates and time must be finite")
    return state


def _params_from(data, states):
    """Flow parameters read from a file, with (q, n) endpoints for states."""
    params = FlowParams(endpoints=data["endpoints"], lam=data["lambda"])
    for state in states:
        if params.endpoints.shape != (state.q, state.n):
            raise ConfigurationError(
                f"endpoints must have the shape (q, n) = {(state.q, state.n)} "
                f"of the network, got {params.endpoints.shape}")
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
        data = json.load(fh)
    known = {f for f in SolverConfig.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    return SolverConfig(**data)


def trajectory_to_dict(trajectory, params):
    return {
        "format": TRAJECTORY_FORMAT,
        "endpoints": params.endpoints.tolist(),
        "lambda": params.lam.tolist(),
        "frames": [
            {"time": s.time, "curves": s.nodes.tolist()}
            for s in trajectory
        ],
    }


def trajectory_from_dict(data):
    if data.get("format") != TRAJECTORY_FORMAT:
        raise ConfigurationError(
            f"unsupported trajectory format {data.get('format')!r}"
        )
    frames = [_state_from(f["curves"], f["time"]) for f in data["frames"]]
    return frames, _params_from(data, frames)


def save_trajectory(path, trajectory, params):
    _write_json(path, trajectory_to_dict(trajectory, params))


def load_trajectory(path):
    with open(path) as fh:
        return trajectory_from_dict(json.load(fh))


def state_to_svg(state, size=400, margin=20):
    """Render a planar network as an SVG drawing with one polyline per curve."""
    if state.n != 2:
        raise ConfigurationError("SVG output needs a planar network")
    lo = state.nodes.min(axis=(0, 1))
    hi = state.nodes.max(axis=(0, 1))
    span = max(float(np.max(hi - lo)), 1e-12)
    scale = (size - 2 * margin) / span
    pixels = (state.nodes - lo) * scale + margin
    pixels[..., 1] = size - pixels[..., 1]  # flip the y axis for screen coordinates

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    for xy in pixels:
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in xy)
        lines.append(
            f'<polyline fill="none" stroke="black" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines)
