"""File formats and the command-line interface (exit codes 0/1/2/3)."""

import json
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from elastic_networks import (
    cli,
    diagnostics,
    fixtures,
    geometry,
    io,
    repar,
    studies,
    wellposed,
)
from elastic_networks.errors import ConfigurationError, DiffeoBreakdownError
from elastic_networks.geometry import NetworkState
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


def _spoil_curves_type(data):
    data["curves"] = 5


def _spoil_lambda_nesting(data):
    # (q, 1) would broadcast against the (q, n) tangents
    data["lambda"] = [[v] for v in data["lambda"]]


@pytest.mark.parametrize("spoil", [_spoil_endpoint_dimension, _spoil_endpoint_rows,
                                   _spoil_time, _spoil_node, _spoil_lambda,
                                   _spoil_endpoint, _spoil_curves_type,
                                   _spoil_lambda_nesting])
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


# (field, where in the file, a value that is no JSON number for a float)
NOT_JSON_NUMBERS = [
    ("time", ("time",), "0.5"), ("time", ("time",), True),
    ("lambda", ("lambda", 1), "1"), ("lambda", ("lambda",), [True, True, True]),
    ("curves", ("curves", 1, 5, 0), "0.25"), ("endpoints", ("endpoints", 0, 1), False),
    # no float holds it: float() raises OverflowError
    ("time", ("time",), 10**400), ("curves", ("curves", 0, 3, 1), -10**400),
]
NOT_JSON_NUMBERS_IDS = ["time-string", "time-bool", "lambda-string", "lambda-bools",
                        "node-string", "endpoint-bool", "time-huge-int",
                        "node-huge-int"]


def _replace(data, where, value):
    for key in where[:-1]:
        data = data[key]
    data[where[-1]] = value


@pytest.mark.parametrize("field, where, value", NOT_JSON_NUMBERS,
                         ids=NOT_JSON_NUMBERS_IDS)
def test_network_file_values_must_be_json_numbers(tmp_path, capsys, field, where,
                                                  value):
    state, params = fixtures.triod_bent(N=16)
    data = io.network_to_dict(state, params)
    _replace(data, where, value)
    path = str(tmp_path / "net.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["check", "--network", path])
    err = capsys.readouterr().err
    assert exc_info.value.code == cli.EXIT_INVALID
    assert f"invalid network file: {field} must" in err
    assert f"got {(value[0] if isinstance(value, list) else value)!r}" in err


@pytest.mark.parametrize("field, where, value", NOT_JSON_NUMBERS,
                         ids=NOT_JSON_NUMBERS_IDS)
def test_trajectory_file_values_must_be_json_numbers(field, where, value):
    data = _trajectory_json()
    # a frame holds the time and the curves; the file the parameters
    _replace(data["frames"][0] if where[0] in ("time", "curves") else data,
             where, value)
    with pytest.raises(ConfigurationError, match=f"^{field} must"):
        io.trajectory_from_dict(data)


def test_network_file_holding_a_list_is_invalid(tmp_path, capsys):
    path = str(tmp_path / "net.json")
    with open(path, "w") as fh:
        json.dump([1, 2], fh)
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["check", "--network", path])
    err = capsys.readouterr().err
    assert exc_info.value.code == cli.EXIT_INVALID
    assert "invalid network file" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("data", ["abc", [], None, 5],
                         ids=["string", "list", "null", "number"])
def test_config_file_that_is_no_object_is_invalid(tmp_path, capsys, data):
    net = _write_network(tmp_path, "net.json", fixtures.triod_bent(N=32))
    path = str(tmp_path / "config.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["simulate", "--network", net, "--config", path,
                  "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert exc_info.value.code == cli.EXIT_INVALID
    assert "invalid config file: a config file must be a JSON object" in err
    assert "Traceback" not in err


def _trajectory_json(**fields):
    state, params = fixtures.triod_bent(N=32)
    return {**io.trajectory_to_dict([state], params), **fields}


@pytest.mark.parametrize("data", [
    [1], _trajectory_json(frames=3), _trajectory_json(frames=[3]),
    _trajectory_json(frames=[{"time": 0.0, "curves": 4}]),
    _trajectory_json(format="something-else"),
], ids=["top-level-list", "frames-int", "frame-int", "frame-curves-int",
        "wrong-format"])
def test_trajectory_of_the_wrong_json_shape_is_rejected(data):
    with pytest.raises(ConfigurationError):
        io.trajectory_from_dict(data)


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


@pytest.mark.parametrize("fields", [
    {"dt": float("nan")}, {"dt": float("inf")}, {"t_end": float("inf")},
    {"picard_tol": float("nan")}, {"picard_floor": float("inf")},
    {"delta_guard_factor": float("nan")}, {"picard_max": 1.5},
    {"store_every": 2.5}, {"store_every": True}, {"dt": "abc"}, {"picard_max": None},
    {"dt": 1e-300, "t_end": 1e10}, {"picard_tol": 1e-12},
    {"dt": True, "t_end": 2}, {"dt": "1e-5"}, {"t_end": None},
    # JSON reads a 401-digit literal as an exact int that no float holds
    {"dt": 10**400}, {"t_end": 10**400},
], ids=["dt-nan", "dt-inf", "t_end-inf", "picard_tol-nan", "picard_floor-inf",
        "delta_guard_factor-nan", "picard_max-float", "store_every-float",
        "store_every-bool", "dt-string", "picard_max-null", "step-count-overflow",
        "unknown-key", "dt-bool", "dt-numeric-string", "t_end-null",
        "dt-int-past-float-range", "t_end-int-past-float-range"])
def test_invalid_config_values_are_rejected(tmp_path, capsys, fields):
    net = _write_network(tmp_path, "net.json", fixtures.triod_bent(N=32))
    path = str(tmp_path / "config.json")
    with open(path, "w") as fh:
        json.dump({"dt": 1e-5, "t_end": 3e-5, **fields}, fh)  # NaN, Infinity as such
    out = str(tmp_path / "run")
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["simulate", "--network", net, "--config", path, "--out", out])
    err = capsys.readouterr().err
    assert exc_info.value.code == cli.EXIT_INVALID
    assert "invalid config file" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)
    # a key that is no SolverConfig field, such as a setting that became a
    # solver constant, is named
    for key in set(fields) - set(SolverConfig.__dataclass_fields__):
        assert f"unknown config keys: [{key!r}]" in err
    # so is a dt or t_end that is no positive finite number
    for key in {"dt", "t_end"} & set(fields):
        value = fields[key]
        if isinstance(value, (bool, str, type(None))) or not 0 < value < float("inf"):
            assert f"{key} must be positive and finite, got {value!r}" in err


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


def test_check_fails_a_zero_speed_network_naming_curve_and_node(tmp_path, capsys):
    state, params = fixtures.triod_bent(N=32)
    nodes = state.nodes.copy()
    nodes[1, 4:9] = nodes[1, 4]  # curve 1 rests on one point over nodes 4-8
    path = _write_network(tmp_path, "net.json", (NetworkState(nodes), params))
    code = cli.main(["check", "--network", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID
    assert "Traceback" not in captured.err
    fail = [line for line in captured.out.splitlines() if line.startswith("[FAIL]")]
    assert len(fail) == 1
    assert fail[0].startswith("[FAIL] degenerate speed 0.000e+00 at node ")
    assert fail[0].endswith(" of curve 1")


@pytest.mark.parametrize("command", ["simulate", "equivalence"])
def test_run_commands_reject_a_zero_speed_network_as_invalid(tmp_path, capsys, command):
    # the initial network is the input: a vanishing speed there is invalid
    # input (exit 1), as check has it, not a runtime breakdown (exit 2)
    state, params = fixtures.triod_bent(N=32)
    nodes = state.nodes.copy()
    nodes[1, 4:9] = nodes[1, 4]
    path = _write_network(tmp_path, "net.json", (NetworkState(nodes), params))
    out = tmp_path / "run"
    argv = [command, "--network", path] + (
        ["--out", str(out)] if command == "simulate" else [])
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_INVALID
    assert err.startswith("error: initial network is not regular: degenerate speed "
                          "0.000e+00 at node ")
    assert err.rstrip().endswith(" of curve 1")
    assert not out.exists()


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


@pytest.mark.parametrize("kind", ["network", "config"])
def test_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, kind):
    # text that is not UTF-8, and JSON holding an integer of more digits
    # than Python converts (json.load raises a plain ValueError there)
    for content in (b"\xff\xfe\x00bad", b'{"time": ' + b"9" * 5000 + b"}"):
        paths = {"network": _write_network(tmp_path, "net.json",
                                           fixtures.triod_bent(N=32)),
                 "config": _write_config(tmp_path, dt=1e-5, t_end=2e-5)}
        with open(paths[kind], "wb") as fh:
            fh.write(content)
        out = str(tmp_path / "run")
        argv = (["check", "--network", paths["network"]] if kind == "network" else
                ["simulate", "--network", paths["network"], "--config",
                 paths["config"], "--out", out])
        with pytest.raises(SystemExit) as exc_info:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exc_info.value.code == cli.EXIT_IO
        assert f"error: cannot parse {kind} file" in err
        assert "Traceback" not in err
        assert not os.path.exists(out)


def test_simulate_output_below_a_file_is_io_error(tmp_path, capsys):
    net = _write_network(tmp_path, "net.json", fixtures.triod_bent(N=32))
    config = _write_config(tmp_path, dt=1e-5, t_end=2e-5)
    afile = tmp_path / "afile"
    afile.write_text("")
    code = cli.main(["simulate", "--network", net, "--config", config,
                     "--out", str(afile / "run")])
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("error: ")


def test_convergence_output_in_a_missing_directory_is_io_error(tmp_path, capsys,
                                                                monkeypatch):
    result = studies.StudyResult(levels=(32, 64), errors=(1e-3, 2.5e-4), rates=(2.0,))
    monkeypatch.setattr(studies, "spatial_convergence", lambda: result)
    code = cli.main(["convergence", "--out", str(tmp_path / "nodir" / "x.json")])
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("rates, code", [((1.0, 1.1), cli.EXIT_OK),
                                         ((0.8, 1.1), cli.EXIT_INVALID)],
                         ids=["order-met", "order-too-low"])
def test_temporal_convergence_prints_and_writes_the_study(tmp_path, capsys,
                                                          monkeypatch, rates, code):
    # the order is the least rate, here once above and once below
    # TEMPORAL_MIN_ORDER (0.9)
    result = studies.StudyResult(levels=(4e-6, 2e-6, 1e-6),
                                 errors=(4e-3, 2e-3, 1e-3), rates=rates)
    monkeypatch.setattr(studies, "temporal_convergence", lambda: result)
    out = tmp_path / "study.json"
    assert cli.main(["convergence", "--mode", "temporal", "--out", str(out)]) == code
    assert capsys.readouterr().out.splitlines() == [
        "level 4e-06: error 4.000000e-03", "level 2e-06: error 2.000000e-03",
        "level 1e-06: error 1.000000e-03", f"observed order: {rates[0]:.3f}"]
    assert json.loads(out.read_text()) == {"levels": [4e-6, 2e-6, 1e-6],
                                           "errors": [4e-3, 2e-3, 1e-3],
                                           "rates": list(rates)}


def test_network_path_that_is_a_directory_is_io_error(tmp_path, capsys):
    code = cli.main(["check", "--network", str(tmp_path)])
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("error: ")


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


def test_simulate_svg_stride_draws_every_other_frame(tmp_path):
    net = _write_network(tmp_path, "net.json", fixtures.triod_bent(N=32))
    config = _write_config(tmp_path, dt=1e-5, t_end=5e-5)
    out = tmp_path / "run"
    code = cli.main(["simulate", "--network", net, "--config", config,
                     "--out", str(out), "--svg", "--stride", "2"])
    assert code == cli.EXIT_OK
    frames, _ = io.load_trajectory(str(out / "trajectory.json"))
    assert sorted(path.name for path in out.glob("*.svg")) == [
        "frame_00000.svg", "frame_00001.svg", "frame_00002.svg"]
    for k, frame in enumerate(frames[::2]):  # frames 0, 2 and 4 of 6
        assert (out / f"frame_{k:05d}.svg").read_text() == io.state_to_svg(frame)


@pytest.mark.parametrize("stride", ["0", "-1"])
def test_simulate_rejects_a_stride_below_one_before_stepping(tmp_path, capsys, stride):
    net = _write_network(tmp_path, "net.json", fixtures.triod_bent(N=32))
    out = str(tmp_path / "run")
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["simulate", "--network", net, "--out", out, "--svg",
                  "--stride", stride])
    assert exc_info.value.code == cli.EXIT_IO
    assert "--stride" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_simulate_rejects_svg_of_a_spatial_network_before_stepping(tmp_path, capsys):
    net = _write_network(tmp_path, "net.json", fixtures.q4_spatial(N=32))
    config = _write_config(tmp_path, dt=1e-5, t_end=3e-5)
    out = str(tmp_path / "run")
    code = cli.main(["simulate", "--network", net, "--config", config,
                     "--out", out, "--svg"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INVALID
    assert "error: SVG output needs a planar network" in err
    assert not os.path.exists(out)


def test_simulate_strict_rejects_collinear_before_stepping(tmp_path, capsys):
    net = _write_network(tmp_path, "net.json", fixtures.collinear_bad(N=48))
    out = str(tmp_path / "run")
    for mode in ([], ["--warn"]):
        code = cli.main(["simulate", "--network", net, "--out", out] + mode)
        err = capsys.readouterr().err
        assert code == cli.EXIT_INVALID
        assert "(NC)" in err
        assert not os.path.exists(out)


def test_simulate_reports_nc_lost_mid_run_as_a_breakdown(tmp_path, capsys, monkeypatch):
    # the preflight's span passes; the span of the first accepted state fails
    from elastic_networks import junction
    span_dimension = junction.span_dimension
    spans = []

    def collinear_on_second(tangents):
        spans.append(tangents)
        return 1 if len(spans) == 2 else span_dimension(tangents)

    monkeypatch.setattr(junction, "span_dimension", collinear_on_second)
    net = _write_network(tmp_path, "net.json", fixtures.triod_bent(N=32))
    config = _write_config(tmp_path, dt=1e-5, t_end=5e-5)
    out = str(tmp_path / "run")
    code = cli.main(["simulate", "--network", net, "--config", config,
                     "--out", out])
    assert code == cli.EXIT_BREAKDOWN
    assert capsys.readouterr().err == (
        "breakdown: non-collinearity condition (NC) violated: the junction "
        "tangents are collinear in the step to t=1.000000e-05\n")
    assert not os.path.exists(out)


def test_simulate_breakdown_exit_code(tmp_path, monkeypatch):
    from elastic_networks import solver
    # a single Picard iterate with an unreachable tolerance fails the step
    monkeypatch.setattr(solver, "PICARD_MAX", 1)
    monkeypatch.setattr(solver, "PICARD_TOL", 1e-16)
    monkeypatch.setattr(solver, "PICARD_FLOOR", 1e-16)
    net = _write_network(tmp_path, "net.json", fixtures.triod_bent(N=48))
    config = _write_config(tmp_path, dt=1e-5, t_end=5e-5)
    out = str(tmp_path / "run")
    code = cli.main(["simulate", "--network", net, "--config", config,
                     "--out", out])
    assert code == cli.EXIT_BREAKDOWN


def test_simulate_regularity_breakdown_exit_code(tmp_path, capsys, monkeypatch):
    # a NaN node on the 10th bundle build, mid-run; a call that returns
    # the kept bundle builds none
    differentiate = geometry.finite_differences
    builds = []

    def failing(network):
        last = geometry._last
        if last is None or network.nodes is not last[0]:
            builds.append(network)
            if len(builds) == 10:
                nodes = network.nodes.copy()
                nodes[2, 4, 1] = np.nan  # a NetworkState would refuse it
                network = SimpleNamespace(nodes=nodes, time=network.time)
        return differentiate(network)

    monkeypatch.setattr(geometry, "finite_differences", failing)
    net = _write_network(tmp_path, "net.json", fixtures.triod_bent(N=32))
    config = _write_config(tmp_path, dt=1e-5, t_end=5e-5)
    out = str(tmp_path / "run")
    code = cli.main(["simulate", "--network", net, "--config", config,
                     "--out", out])
    assert code == cli.EXIT_BREAKDOWN
    # where, from the bundle, and when, from the time evolve stamps
    # (the 10th build is inside the second step's Picard iteration)
    assert ("breakdown: degenerate speed nan at node 3 of curve 2 in the step "
            "to t=2.000000e-05\n") in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("job", ["record_state", "check_compat_order0", "check"])
def test_a_job_outside_a_run_builds_its_state_once(tmp_path, capsys, monkeypatch, job):
    # finite_differences keeps the bundle of the state it differentiated
    # last, so the helpers one job calls on a state share one build
    state, params = fixtures.triod_bent(N=32)
    state = NetworkState(state.nodes)  # a node array not yet differentiated
    net = _write_network(tmp_path, "net.json", (state, params))
    product = geometry.csr_product
    builds = []

    def building(matrix, x):
        builds.append(x.tobytes())
        return product(matrix, x)

    monkeypatch.setattr(geometry, "csr_product", building)
    if job == "record_state":
        diagnostics.record_state(state, params)
    elif job == "check_compat_order0":
        wellposed.check_compat_order0(state, params)
    else:
        assert cli.main(["check", "--network", net]) == cli.EXIT_OK
        capsys.readouterr()
    assert builds == [state.nodes.tobytes()]


def test_check_prints_one_rendering_per_record(tmp_path, capsys):
    state, params = fixtures.triod_bent(N=48)
    path = _write_network(tmp_path, "net.json", (state, params))
    cli.main(["check", "--network", path])
    lines = capsys.readouterr().out.splitlines()
    records = wellposed.check_compat_order0(state, params)
    assert lines[:len(records)] == [f"[ok ] {rec}" for rec in records]
    assert "[ok ] third-order-sum[junction] = " in lines[len(records) - 4]
    assert lines[len(records) - 1].startswith(
        "[ok ] fourth-derivative-match[junction, curves 1 and 2] = ")


def _assert_cli_warnings(err, count):
    # the preflight warning in the CLI's style, not Python's
    # "<path>/solver.py:<line>: UserWarning: ..." with the source line
    lines = err.splitlines()
    assert len(lines) == count
    assert all(line.startswith("warning: incompatible initial network: ")
               for line in lines)
    assert "solver.py" not in err and "UserWarning" not in err


# shown, not raised, as without pytest's error filter
@pytest.mark.filterwarnings("default:incompatible initial network:UserWarning")
def test_equivalence_small_run(tmp_path, capsys):
    net = _write_network(tmp_path, "net.json", fixtures.triod_bent_skewed(N=64))
    config = _write_config(tmp_path, dt=1e-5, t_end=2e-4)
    code = cli.main(["equivalence", "--network", net, "--config", config,
                     "--tol", "2e-3"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert "equivalence certificate" in out
    _assert_cli_warnings(err, 2)  # one per run


@pytest.mark.filterwarnings("default:incompatible initial network:UserWarning")
def test_simulate_warn_prints_the_preflight_warning_in_cli_style(tmp_path, capsys):
    net = _write_network(tmp_path, "net.json", fixtures.triod_bent_skewed(N=64))
    config = _write_config(tmp_path, dt=1e-5, t_end=3e-5)
    out = str(tmp_path / "run")
    code = cli.main(["simulate", "--warn", "--network", net, "--config", config,
                     "--out", out])
    assert code == cli.EXIT_OK
    _assert_cli_warnings(capsys.readouterr().err, 1)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "abc"])
def test_equivalence_rejects_a_tolerance_not_finite_and_nonnegative(tmp_path, capsys, tol):
    net = _write_network(tmp_path, "net.json", fixtures.triod_bent(N=32))
    config = _write_config(tmp_path, dt=1e-5, t_end=2e-5)
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["equivalence", "--network", net, "--config", config, "--tol", tol])
    assert exc_info.value.code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert f"argument --tol: must be a finite number >= 0, got {tol!r}" in err


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


def _save_peak(path, trajectory, params):
    """tracemalloc's peak, in bytes, while io.save_trajectory runs."""
    tracemalloc.start()
    try:
        io.save_trajectory(path, trajectory, params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_writer_peak_does_not_grow_with_the_frames(tmp_path):
    # measured at N = 32, in units of one frame's JSON text: 12.60 at 20
    # frames and 12.68 at 200, each repeating to 0.01; a writer that builds
    # the whole text first peaks at 179 and 1565
    state, params = fixtures.triod_bent(N=32)
    frames = [NetworkState(state.nodes, time=1e-5 * k) for k in range(200)]
    path = str(tmp_path / "traj.json")
    assert _save_peak(path, frames, params) < 1.1 * _save_peak(path, frames[:20], params)
