"""File formats: network JSON, run-config JSON, trajectory JSON and SVG.

Floating point data is serialized with repr, which round-trips doubles
exactly.
"""

import dataclasses
import json

import numpy as np

from .errors import ConfigurationError
from .geometry import CurveSamples
from .solver import FlowParams, NetworkState, SolverConfig

NETWORK_FORMAT = "elastic-network/1"
TRAJECTORY_FORMAT = "elastic-network-trajectory/1"


def network_to_dict(state, params):
    return {
        "format": NETWORK_FORMAT,
        "time": state.time,
        "curves": [c.nodes.tolist() for c in state.curves],
        "endpoints": params.endpoints.tolist(),
        "lambda": params.lam.tolist(),
    }


def network_from_dict(data):
    if data.get("format") != NETWORK_FORMAT:
        raise ConfigurationError(
            f"unsupported network format {data.get('format')!r}"
        )
    curves = [CurveSamples(np.asarray(c, dtype=float)) for c in data["curves"]]
    state = NetworkState(curves=curves, time=float(data.get("time", 0.0)))
    params = FlowParams(
        endpoints=np.asarray(data["endpoints"], dtype=float),
        lam=np.asarray(data["lambda"], dtype=float),
    )
    if params.endpoints.shape[0] != state.q:
        raise ConfigurationError("endpoint count does not match curve count")
    return state, params


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
            {"time": s.time, "curves": [c.nodes.tolist() for c in s.curves]}
            for s in trajectory
        ],
    }


def trajectory_from_dict(data):
    if data.get("format") != TRAJECTORY_FORMAT:
        raise ConfigurationError(
            f"unsupported trajectory format {data.get('format')!r}"
        )
    params = FlowParams(
        endpoints=np.asarray(data["endpoints"], dtype=float),
        lam=np.asarray(data["lambda"], dtype=float),
    )
    frames = [
        NetworkState(
            curves=[CurveSamples(np.asarray(c, dtype=float)) for c in f["curves"]],
            time=float(f["time"]),
        )
        for f in data["frames"]
    ]
    return frames, params


def save_trajectory(path, trajectory, params):
    _write_json(path, trajectory_to_dict(trajectory, params))


def load_trajectory(path):
    with open(path) as fh:
        return trajectory_from_dict(json.load(fh))


def state_to_svg(state, size=400, margin=20):
    """Render a planar network as an SVG drawing with one polyline per curve."""
    if state.n != 2:
        raise ConfigurationError("SVG output needs a planar network")
    pts = np.concatenate([c.nodes for c in state.curves])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = max(float(np.max(hi - lo)), 1e-12)
    scale = (size - 2 * margin) / span

    def to_pixels(nodes):
        xy = (nodes - lo) * scale + margin
        xy[:, 1] = size - xy[:, 1]  # flip the y axis for screen coordinates
        return xy

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    for c in state.curves:
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in to_pixels(c.nodes.copy()))
        lines.append(
            f'<polyline fill="none" stroke="black" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines)
