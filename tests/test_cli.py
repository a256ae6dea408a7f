"""File formats and the command-line interface (exit codes 0/1/2/3)."""

import json
import os

import numpy as np
import pytest

from elastic_networks import cli, fixtures, io, repar
from elastic_networks.errors import ConfigurationError, DiffeoBreakdownError
from elastic_networks.solver import SolverConfig


def _write_network(tmp_path, name, fixture):
    state, params = fixture
    path = str(tmp_path / name)
    io.save_network(path, state, params)
    return path


def _write_config(tmp_path, **kwargs):
    path = str(tmp_path / "config.json")
    io.save_config(path, SolverConfig(**kwargs))
    return path


def test_network_roundtrip(tmp_path):
    state, params = fixtures.triod_bent(N=48)
    path = _write_network(tmp_path, "net.json", (state, params))
    back_state, back_params = io.load_network(path)
    for a, b in zip(state.curves, back_state.curves):
        assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(params.endpoints, back_params.endpoints)
    assert np.array_equal(params.lam, back_params.lam)


def test_network_format_guard():
    with pytest.raises(ConfigurationError):
        io.network_from_dict({"format": "something-else"})


def _per_curve(state):
    # the per-curve serialization of a state's nodes, as a list per curve
    return [c.tolist() for c in state.nodes]


def test_json_text_equals_per_curve_serialization():
    from elastic_networks import solver
    state, params = fixtures.triod_bent(N=32)
    trajectory = solver.evolve(state, params,
                               SolverConfig(dt=1e-5, t_end=3e-5))
    ends, lam = params.endpoints.tolist(), params.lam.tolist()
    assert json.dumps(io.network_to_dict(state, params)) == json.dumps({
        "format": io.NETWORK_FORMAT, "time": state.time,
        "curves": _per_curve(state), "endpoints": ends, "lambda": lam})
    assert json.dumps(io.trajectory_to_dict(trajectory, params)) == json.dumps({
        "format": io.TRAJECTORY_FORMAT, "endpoints": ends, "lambda": lam,
        "frames": [{"time": s.time, "curves": _per_curve(s)}
                   for s in trajectory]})


def _spoil_endpoint_dimension(data):
    data["endpoints"] = [e + [0.0] for e in data["endpoints"]]


def _spoil_endpoint_rows(data):
    data["endpoints"][1] = data["endpoints"][1][:1]


def _spoil_time(data):
    data["time"] = "abc"


def _spoil_node(data):
    data["curves"][1][5][0] = float("nan")


def _spoil_lambda(data):
    data["lambda"][2] = float("nan")


def _spoil_endpoint(data):
    data["endpoints"][0][1] = float("inf")


@pytest.mark.parametrize("spoil", [_spoil_endpoint_dimension, _spoil_endpoint_rows,
                                   _spoil_time, _spoil_node, _spoil_lambda,
                                   _spoil_endpoint])
@pytest.mark.parametrize("command", [["check"], ["simulate", "--warn"]],
                         ids=["check", "simulate-warn"])
def test_malformed_network_file_is_invalid(tmp_path, capsys, spoil, command):
    state, params = fixtures.triod_bent(N=32)
    data = io.network_to_dict(state, params)
    spoil(data)
    path = str(tmp_path / "net.json")
    with open(path, "w") as fh:
        json.dump(data, fh)  # NaN and Infinity are written as such
    out = str(tmp_path / "run")
    argv = command + ["--network", path]
    if command[0] == "simulate":
        argv += ["--out", out]
    with pytest.raises(SystemExit) as exc_info:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exc_info.value.code == cli.EXIT_INVALID
    assert "invalid network file" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_config_roundtrip(tmp_path):
    config = SolverConfig(dt=2e-6, t_end=1e-5, store_every=3)
    path = str(tmp_path / "config.json")
    io.save_config(path, config)
    assert io.load_config(path) == config
    with open(path) as fh:
        data = json.load(fh)
    data["bogus"] = 1
    with open(path, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(ConfigurationError):
        io.load_config(path)


def test_trajectory_roundtrip(tmp_path):
    from elastic_networks import solver
    state, params = fixtures.triod_equilibrium(N=32)
    trajectory = solver.evolve(state, params,
                               SolverConfig(dt=1e-5, t_end=3e-5))
    path = str(tmp_path / "traj.json")
    io.save_trajectory(path, trajectory, params)
    frames, back_params = io.load_trajectory(path)
    assert len(frames) == len(trajectory)
    assert frames[-1].time == trajectory[-1].time
    assert np.array_equal(frames[-1].curves[0].nodes,
                          trajectory[-1].curves[0].nodes)


def test_svg_rendering():
    state, _ = fixtures.triod_bent(N=32)
    svg = io.state_to_svg(state)
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 3
    state3d, _ = fixtures.q4_spatial(N=32)
    with pytest.raises(ConfigurationError):
        io.state_to_svg(state3d)


def test_check_accepts_good_network(tmp_path, capsys):
    path = _write_network(tmp_path, "net.json", fixtures.triod_bent(N=64))
    code = cli.main(["check", "--network", path])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "non-collinearity condition (NC)" in out
    assert "junction complementary condition" in out
    assert "parabolicity margin" in out


def test_check_rejects_collinear_network(tmp_path, capsys):
    path = _write_network(tmp_path, "net.json", fixtures.collinear_bad(N=64))
    code = cli.main(["check", "--network", path])
    out = capsys.readouterr().out
    assert code == cli.EXIT_INVALID
    assert "FAIL" in out
    assert "(NC)" in out


def test_check_missing_file_is_io_error(tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["check", "--network", str(tmp_path / "missing.json")])
    assert exc_info.value.code == cli.EXIT_IO


def test_unparsable_network_is_io_error(tmp_path):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["check", "--network", path])
    assert exc_info.value.code == cli.EXIT_IO


def test_unknown_subcommand_is_parse_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["frobnicate"])
    assert exc_info.value.code == cli.EXIT_IO


def test_simulate_writes_outputs(tmp_path):
    net = _write_network(tmp_path, "net.json", fixtures.triod_bent(N=48))
    config = _write_config(tmp_path, dt=1e-5, t_end=5e-5)
    out = str(tmp_path / "run")
    code = cli.main(["simulate", "--network", net, "--config", config,
                     "--out", out, "--svg"])
    assert code == cli.EXIT_OK
    assert os.path.exists(os.path.join(out, "trajectory.json"))
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))
    assert os.path.exists(os.path.join(out, "frame_00000.svg"))
    frames, _ = io.load_trajectory(os.path.join(out, "trajectory.json"))
    assert len(frames) == 6  # initial frame plus five steps


def test_simulate_strict_rejects_collinear_before_stepping(tmp_path, capsys):
    net = _write_network(tmp_path, "net.json", fixtures.collinear_bad(N=48))
    out = str(tmp_path / "run")
    for mode in ([], ["--warn"]):
        code = cli.main(["simulate", "--network", net, "--out", out] + mode)
        err = capsys.readouterr().err
        assert code == cli.EXIT_INVALID
        assert "(NC)" in err
        assert not os.path.exists(out)


def test_simulate_breakdown_exit_code(tmp_path):
    net = _write_network(tmp_path, "net.json", fixtures.triod_bent(N=48))
    config = _write_config(tmp_path, dt=1e-5, t_end=5e-5, picard_max=1,
                           picard_tol=1e-16, picard_floor=1e-16)
    out = str(tmp_path / "run")
    code = cli.main(["simulate", "--network", net, "--config", config,
                     "--out", out])
    assert code == cli.EXIT_BREAKDOWN


def test_equivalence_small_run(tmp_path, capsys):
    net = _write_network(tmp_path, "net.json", fixtures.triod_bent_skewed(N=64))
    config = _write_config(tmp_path, dt=1e-5, t_end=2e-4)
    with pytest.warns(UserWarning, match="incompatible initial network"):
        code = cli.main(["equivalence", "--network", net, "--config", config,
                         "--tol", "2e-3"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "equivalence certificate" in out


@pytest.mark.filterwarnings("ignore:incompatible initial network")
def test_equivalence_breakdown_names_the_curve(tmp_path, capsys, monkeypatch):
    def breaking(run_a, run_b, lam):
        raise DiffeoBreakdownError(
            "recovered map of curve 2 lost monotonicity at t=2.000000e-05",
            time=2e-5, curve=2)

    monkeypatch.setattr(repar, "geometric_equivalence", breaking)
    net = _write_network(tmp_path, "net.json", fixtures.triod_bent(N=32))
    config = _write_config(tmp_path, dt=1e-5, t_end=2e-5)
    code = cli.main(["equivalence", "--network", net, "--config", config])
    assert code == cli.EXIT_BREAKDOWN
    assert "breakdown: recovered map of curve 2" in capsys.readouterr().err


def test_equivalence_rejects_collinear_network(tmp_path, capsys):
    net = _write_network(tmp_path, "net.json", fixtures.collinear_bad(N=48))
    code = cli.main(["equivalence", "--network", net])
    assert code == cli.EXIT_INVALID
    assert "(NC)" in capsys.readouterr().err


def test_trajectory_file_is_the_json_text_and_round_trips(tmp_path):
    from elastic_networks import solver
    state, params = fixtures.triod_bent(N=32)
    trajectory = solver.evolve(state, params,
                               SolverConfig(dt=1e-5, t_end=3e-5))
    path = tmp_path / "traj.json"
    io.save_trajectory(str(path), trajectory, params)
    expected = json.dumps(io.trajectory_to_dict(trajectory, params))
    assert path.read_bytes() == expected.encode()
    frames, back_params = io.load_trajectory(str(path))
    assert np.array_equal(back_params.endpoints, params.endpoints)
    assert np.array_equal(back_params.lam, params.lam)
    assert [f.time for f in frames] == [s.time for s in trajectory]
    for frame, state in zip(frames, trajectory):
        assert np.array_equal(frame.nodes, state.nodes)
