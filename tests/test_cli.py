import csv
import json

import numpy as np
import pytest

from conftest import CASE_A, CASE_B, CASE_C_IN, CASE_K, CASE_Q, CASE_R, CASE_c_IN
from certnn.cli import main
from certnn.network import ReluNetwork, synth_satlqr
from certnn.polytope import Polytope


@pytest.fixture
def case_files(tmp_path):
    system = {
        "A": CASE_A.tolist(),
        "B": CASE_B.tolist(),
        "X": Polytope.box([-5.0, -5.0], [5.0, 5.0]).to_json(),
        "U_box": {"lb": [-1.0], "ub": [1.0]},
        "Q": CASE_Q.tolist(),
        "R": CASE_R.tolist(),
    }
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(system))

    # use the gain computed from (Q, R) so the LQR-match check is exact
    from certnn.control import LtiSystem, lqr

    K = lqr(LtiSystem(CASE_A, CASE_B), CASE_Q, CASE_R).K
    net = synth_satlqr(K, [-1.0], [1.0])
    net_path = tmp_path / "network.json"
    net.save(net_path)

    xin = Polytope(CASE_C_IN, 0.999 * CASE_c_IN)
    xin_path = tmp_path / "xin.json"
    xin_path.write_text(json.dumps(xin.to_json()))
    return str(sys_path), str(net_path), str(xin_path), tmp_path


def test_verify_certifies_case_study(case_files, capsys):
    sys_path, net_path, xin_path, tmp = case_files
    out = tmp / "out"
    code = main(
        [
            "verify", "--system", sys_path, "--network", net_path,
            "--xin", xin_path, "--out-dir", str(out), "--kmax", "10",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "verdict: LqrOptimalNearEq" in printed
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "LqrOptimalNearEq"
    assert cert["stability"]["k_star"] <= 10


def test_verify_failure_exit_code(case_files, tmp_path):
    sys_path, net_path, _, tmp = case_files
    # an initial set too large for invariance
    big = tmp_path / "big.json"
    big.write_text(json.dumps(Polytope.box([-5.0, -5.0], [5.0, 5.0]).to_json()))
    code = main(
        [
            "verify", "--system", sys_path, "--network", net_path,
            "--xin", str(big), "--out-dir", str(tmp / "out2"), "--kmax", "1",
        ]
    )
    assert code == 2


def test_missing_file_exit_code(case_files, tmp_path):
    sys_path, net_path, xin_path, tmp = case_files
    code = main(
        [
            "verify", "--system", str(tmp_path / "nope.json"), "--network", net_path,
            "--xin", xin_path, "--out-dir", str(tmp / "out3"),
        ]
    )
    assert code == 1


def test_dimension_mismatch_exit_code(case_files, tmp_path, capsys):
    sys_path, net_path, xin_path, tmp = case_files
    bad_net = ReluNetwork(
        [(np.ones((2, 3)), np.zeros(2)), (np.ones((1, 2)), np.zeros(1))]
    )
    bad_path = tmp_path / "bad_net.json"
    bad_net.save(bad_path)
    code = main(
        [
            "verify", "--system", sys_path, "--network", str(bad_path),
            "--xin", xin_path, "--out-dir", str(tmp / "out4"),
        ]
    )
    assert code == 1
    # sets of the wrong width are rejected when the system file is parsed,
    # before any MILP runs, and the message names the field
    system = json.loads(open(sys_path).read())
    wide_u = {k: v for k, v in system.items() if k != "U_box"}
    wide_u["U"] = Polytope.box([-1.0, -1.0], [1.0, 1.0]).to_json()
    wide_x = dict(system, X=Polytope.box(-np.ones(3), np.ones(3)).to_json())
    for field, bad in (("U", wide_u), ("X", wide_x)):
        path = tmp_path / f"wide_{field}.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(_verify_argv(str(path), net_path, xin_path, tmp / "out4")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: system field {field} has dimension ")
        assert err.count("\n") == 1


def test_retrofit_outputs_network(case_files, capsys):
    sys_path, net_path, _, tmp = case_files
    out = tmp / "retro"
    code = main(
        ["retrofit", "--system", sys_path, "--network", net_path, "--out-dir", str(out)]
    )
    assert code == 0
    assert "retrofit cost:" in capsys.readouterr().out
    new_net = ReluNetwork.load(out / "network_retrofit.json")
    # equilibrium feedback now matches the LQR gain from the system file
    from certnn.control import LtiSystem, lqr
    from certnn.verify import equilibrium_gain_bias

    K = lqr(LtiSystem(CASE_A, CASE_B), CASE_Q, CASE_R).K
    gain, bias = equilibrium_gain_bias(new_net)
    np.testing.assert_allclose(gain, -K, atol=1e-8)
    np.testing.assert_allclose(bias, 0.0, atol=1e-8)


def test_saturate_outputs_clamped_network(case_files):
    sys_path, _, _, tmp = case_files
    # an unclamped linear-feedback net
    raw = ReluNetwork(
        [
            (np.vstack([np.eye(2), -np.eye(2)]), np.full(4, 10.0)),
            (np.hstack([-CASE_K / 2.0, CASE_K / 2.0]).reshape(1, 4), np.zeros(1)),
        ]
    )
    raw_path = tmp / "raw.json"
    raw.save(raw_path)
    out = tmp / "sat"
    code = main(
        ["saturate", "--system", sys_path, "--network", str(raw_path), "--out-dir", str(out)]
    )
    assert code == 0
    sat = ReluNetwork.load(out / "network_saturated.json")
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-8, 8, 2)
        np.testing.assert_allclose(sat.eval(x), np.clip(raw.eval(x), -1, 1), atol=1e-9)


def test_regions_outputs(case_files, capsys):
    sys_path, net_path, xin_path, tmp = case_files
    out = tmp / "regions"
    code = main(
        [
            "regions", "--system", sys_path, "--network", net_path,
            "--xin", xin_path, "--out-dir", str(out),
        ]
    )
    assert code == 0
    data = json.loads((out / "regions.json").read_text())
    assert len(data) >= 1
    printed = capsys.readouterr().out
    assert f"regions: {len(data)}" in printed
    with open(out / "regions.csv") as f:
        header = next(csv.reader(f))
    assert header == ["region", "x1", "x2"]


def test_simulate_outputs_trajectory(case_files):
    sys_path, net_path, _, tmp = case_files
    out = tmp / "sim"
    code = main(
        [
            "simulate", "--system", sys_path, "--network", net_path,
            "--out-dir", str(out), "--x0", "0.5,-0.5", "--steps", "20",
        ]
    )
    assert code == 0
    with open(out / "trajectory.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["step", "x1", "x2", "u1"]
    assert len(rows) == 22  # header + 21 states
    assert float(rows[1][1]) == pytest.approx(0.5)


def test_simulate_bad_x0(case_files):
    sys_path, net_path, _, tmp = case_files
    code = main(
        [
            "simulate", "--system", sys_path, "--network", net_path,
            "--out-dir", str(tmp / "simbad"), "--x0", "1.0", "--steps", "5",
        ]
    )
    assert code == 1
    # a non-finite state is rejected before any trajectory is written
    for x0 in ("nan,1", "1,inf"):
        argv = [
            "simulate", "--system", sys_path, "--network", net_path,
            "--out-dir", str(tmp / "simbad"), "--x0", x0, "--steps", "5",
        ]
        assert main(argv) == 1
    assert not (tmp / "simbad" / "trajectory.csv").exists()


def test_sets_outputs(case_files):
    sys_path, net_path, xin_path, tmp = case_files
    out = tmp / "sets"
    code = main(
        [
            "sets", "--system", sys_path, "--network", net_path,
            "--xin", xin_path, "--out-dir", str(out), "--kmax", "10",
        ]
    )
    assert code == 0
    for name in ("r_lqr", "r_eq", "r_as", "x1_out", "xk_out"):
        assert (out / f"{name}.json").exists()
        assert (out / f"{name}.csv").exists()
    r_as = Polytope.from_json(json.loads((out / "r_as.json").read_text()))
    assert r_as.contains_point([0.0, 0.0])


def _verify_argv(sys_path, net_path, xin_path, out):
    return [
        "verify", "--system", sys_path, "--network", net_path,
        "--xin", str(xin_path), "--out-dir", str(out), "--kmax", "2",
    ]


def test_certificate_carries_replayable_witnesses(case_files):
    sys_path, net_path, _, tmp = case_files
    # the closed loop rotates this small box, so its corners leave it in one step
    X_in = Polytope.box([-0.02, -0.02], [0.02, 0.02])
    xin_path = tmp / "small.json"
    xin_path.write_text(json.dumps(X_in.to_json()))
    out = tmp / "small_out"
    main(_verify_argv(sys_path, net_path, xin_path, out))
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["invariance_ok"] is False
    assert len(cert["witnesses"]) >= 1
    net = ReluNetwork.load(net_path)
    for w in cert["witnesses"]:
        x0 = np.asarray(w)
        assert X_in.contains_point(x0, tol=1e-7)
        x1 = CASE_A @ x0 + CASE_B @ net.eval(x0)
        assert np.any(X_in.F @ x1 > X_in.g + 1e-9)


@pytest.mark.parametrize(
    "xin",
    [
        {"F": [[1.0, 0.0], [0.0, 1.0]], "g": [1.0, 1.0]},  # unbounded
        {"F": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], "g": [1.0, -2.0, 1.0, 1.0]},  # empty
    ],
    ids=["unbounded", "empty"],
)
def test_bad_initial_set_exit_code(case_files, tmp_path, capsys, xin):
    sys_path, net_path, _, tmp = case_files
    xin_path = tmp_path / "bad_xin.json"
    xin_path.write_text(json.dumps(xin))
    assert main(_verify_argv(sys_path, net_path, xin_path, tmp / "bad_out")) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_non_finite_system_exit_code(case_files, tmp_path, capsys):
    sys_path, net_path, xin_path, tmp = case_files
    with open(sys_path) as f:
        system = json.load(f)
    system["A"][0][0] = float("nan")
    nan_path = tmp_path / "nan_system.json"
    nan_path.write_text(json.dumps(system))  # json writes NaN and reads it back
    assert main(_verify_argv(str(nan_path), net_path, xin_path, tmp / "nan_out")) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_flag_exit_code(case_files, capsys):
    sys_path, net_path, xin_path, tmp = case_files
    # --tol is gone: the stability residuals are compared with verify.RESIDUAL_TOL
    for flag in (["--no-such-flag"], ["--tol", "1e-6"]):
        argv = _verify_argv(sys_path, net_path, xin_path, tmp / "flag_out") + flag
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "sets"])
@pytest.mark.parametrize("kmax", ["0", "-3"])
def test_kmax_must_be_positive(case_files, capsys, command, kmax):
    # a search over no horizon is a usage error, not a failed verification
    sys_path, net_path, xin_path, tmp = case_files
    argv = _verify_argv(sys_path, net_path, xin_path, tmp / "kmax_out")
    argv[0], argv[-1] = command, kmax
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --kmax") and err.count("\n") == 1
    assert not (tmp / "kmax_out").exists()


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_steps_must_be_positive(case_files, capsys, steps):
    sys_path, net_path, _, tmp = case_files
    out = tmp / "steps_out"
    argv = [
        "simulate", "--system", sys_path, "--network", net_path,
        "--out-dir", str(out), "--x0", "0.5,-0.5", "--steps", steps,
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --steps") and err.count("\n") == 1
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--kmax" in capsys.readouterr().out


def test_every_certnn_exception_is_a_certnn_error():
    import importlib
    import inspect
    import pkgutil

    import certnn
    from certnn.errors import CertnnError

    names = [info.name for info in pkgutil.iter_modules(certnn.__path__)]
    assert "tolerances" in names
    for module in (importlib.import_module(f"certnn.{name}") for name in names):
        for obj in vars(module).values():
            if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__.startswith("certnn"):
                assert issubclass(obj, CertnnError), obj


@pytest.mark.parametrize("content", ["null", '"abc"'], ids=["null", "string"])
def test_non_object_input_exit_code(case_files, tmp_path, capsys, content):
    sys_path, net_path, _, tmp = case_files
    xin_path = tmp_path / "scalar_xin.json"
    xin_path.write_text(content)
    assert main(_verify_argv(sys_path, net_path, xin_path, tmp / "scalar_out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("network", [[1, 2], {"layers": 3}, {"layers": [1, 2]}], ids=["list", "int", "ints"])
def test_malformed_network_exit_code(case_files, tmp_path, capsys, network):
    sys_path, _, xin_path, tmp = case_files
    net_path = tmp_path / "bad_layers.json"
    net_path.write_text(json.dumps(network))
    assert main(_verify_argv(sys_path, str(net_path), xin_path, tmp / "layers_out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [("X", [1, 2]), ("X", 3), ("U_box", [-1, 1]), ("U", "abc")],
    ids=["X-list", "X-int", "U_box-list", "U-string"],
)
def test_malformed_system_field_exit_code(case_files, tmp_path, capsys, field, value):
    sys_path, net_path, xin_path, tmp = case_files
    with open(sys_path) as f:
        system = json.load(f)
    if field == "U":
        del system["U_box"]
    system[field] = value
    bad_path = tmp_path / "bad_field.json"
    bad_path.write_text(json.dumps(system))
    assert main(_verify_argv(str(bad_path), net_path, xin_path, tmp / "field_out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("U_box", {"lb": [-1.0], "ub": [1.0, 1.0]}),
        ("X", {"F": Polytope.box([-5.0, -5.0], [5.0, 5.0]).F.tolist(), "g": [5.0, 5.0]}),
        ("Q", [[1.0]]),
        ("R", [[1.0, 0.0]]),
        ("Q", [[float("nan"), 0.0], [0.0, 2.0]]),
        ("A", [[float("inf"), 0.0], [0.0, 1.0]]),
    ],
    ids=["U_box-lengths", "X-short-g", "Q-1x1", "R-1x2", "Q-nan", "A-inf"],
)
def test_bad_shape_names_file_and_field(case_files, tmp_path, capsys, field, value):
    # a shape error inside a system field names the file and the field
    sys_path, net_path, xin_path, tmp = case_files
    system = dict(json.loads(open(sys_path).read()), **{field: value})
    path = tmp_path / f"bad_{field}.json"
    path.write_text(json.dumps(system))
    assert main(_verify_argv(str(path), net_path, xin_path, tmp / "shape_out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: system field {field}") and err.count("\n") == 1
    assert not (tmp / "shape_out").exists()


@pytest.mark.parametrize(
    "file, edit",
    [
        ("system", lambda d: d.update(A={})),
        ("system", lambda d: d.update(Q={"a": 1})),
        ("system", lambda d: d["U_box"].update(lb={})),
        ("xin", lambda d: d.update(F={})),
        ("network", lambda d: d["layers"][0].update(W={})),
    ],
    ids=["system-A", "system-Q", "system-U_box-lb", "xin-F", "network-W"],
)
def test_object_for_array_names_file(case_files, tmp_path, capsys, file, edit):
    # a JSON object where numbers belong is a bad input, not a traceback
    paths = dict(zip(("system", "network", "xin"), case_files[:3]))
    data = json.loads(open(paths[file]).read())
    edit(data)
    paths[file] = str(tmp_path / f"object_{file}.json")
    open(paths[file], "w").write(json.dumps(data))
    out = case_files[3] / "object_out"
    assert main(_verify_argv(paths["system"], paths["network"], paths["xin"], out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[file]}: ") and err.count("\n") == 1


def test_empty_input_box_exit_code(case_files, tmp_path, capsys):
    # lb > ub is an empty U: a bad input, rejected before any verification
    sys_path, net_path, xin_path, tmp = case_files
    with open(sys_path) as f:
        system = json.load(f)
    system["U_box"] = {"lb": [1.0], "ub": [-1.0]}
    empty_path = tmp_path / "empty_u.json"
    empty_path.write_text(json.dumps(system))
    assert main(_verify_argv(str(empty_path), net_path, xin_path, tmp / "empty_u_out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "U_box" in err and err.count("\n") == 1
    assert not (tmp / "empty_u_out").exists()


@pytest.mark.parametrize(
    "file, field",
    [
        ("system", "F"),  # X = {}
        ("system", "ub"),  # U_box without ub
        ("system", "A"),
        ("network", "W"),
        ("xin", "g"),
        ("k_source", "K"),
    ],
    ids=["system-X", "system-U_box", "system-A", "network", "xin", "k_source"],
)
def test_missing_field_names_file_and_field(case_files, tmp_path, capsys, file, field):
    sys_path, net_path, xin_path, tmp = case_files
    paths = {"system": sys_path, "network": net_path, "xin": xin_path}
    data = json.loads(open(paths[file]).read()) if file in paths else {}
    if file == "system":
        if field == "F":
            data["X"] = {}
        elif field == "ub":
            del data["U_box"]["ub"]
        else:
            del data[field]
    elif file == "network":
        del data["layers"][0]["W"]
    elif file == "xin":
        del data["g"]
    path = tmp_path / f"missing_{field}.json"
    path.write_text(json.dumps(data))
    paths[file] = str(path)
    if file == "k_source":
        argv = [
            "retrofit", "--system", sys_path, "--network", net_path,
            "--k-source", str(path), "--out-dir", str(tmp / "missing_out"),
        ]
    else:
        argv = _verify_argv(paths["system"], paths["network"], paths["xin"], tmp / "missing_out")
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: missing field '{field}'\n"


def _retrofit_argv(sys_path, net_path, k_source, out):
    return [
        "retrofit", "--system", sys_path, "--network", net_path,
        "--k-source", str(k_source), "--out-dir", str(out),
    ]


@pytest.mark.parametrize(
    "K",
    [{"a": 1}, [[0.25, 0.83, 0.1]], [0.25, 0.83, 0.1], [[float("nan"), 0.83]]],
    ids=["object", "1x3", "flat-3", "nan"],
)
def test_bad_gain_file_names_file_and_K(case_files, tmp_path, capsys, K):
    # a --k-source K that is not a finite n_u x n_x array is a bad input
    sys_path, net_path, _, tmp = case_files
    path = tmp_path / "gain.json"
    path.write_text(json.dumps({"K": K}))
    assert main(_retrofit_argv(sys_path, net_path, path, tmp / "gain_out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: K ") and err.count("\n") == 1
    assert not (tmp / "gain_out").exists()


@pytest.mark.parametrize("flat", [False, True], ids=["1x2", "flat"])
def test_gain_file_sets_equilibrium_gain(case_files, tmp_path, flat):
    # the LQR gain from a file retrofits as --k-source lqr does; with one
    # input a flat K reads as its one row
    from certnn.control import LtiSystem, lqr
    from certnn.verify import equilibrium_gain_bias

    sys_path, net_path, _, tmp = case_files
    K = lqr(LtiSystem(CASE_A, CASE_B), CASE_Q, CASE_R).K
    path = tmp_path / "gain.json"
    path.write_text(json.dumps({"K": (K.ravel() if flat else K).tolist()}))
    assert main(_retrofit_argv(sys_path, net_path, path, tmp / "gain_out")) == 0
    gain, bias = equilibrium_gain_bias(ReluNetwork.load(tmp / "gain_out" / "network_retrofit.json"))
    np.testing.assert_allclose(gain, -K, atol=1e-8)
    np.testing.assert_allclose(bias, 0.0, atol=1e-8)


@pytest.mark.parametrize(
    "role, content, line",
    [
        ("system", None, "{bad}: No such file or directory"),
        ("network", "directory", "{bad}: Is a directory"),
        ("system", b'{"A": "\xff"}', "{bad}: 'utf-8' codec can't decode byte 0xff"),
        ("out", b"", "{bad}: File exists"),
        ("out", "blocked", "{bad}/certificate.json: Is a directory"),
        ("xin", {"F": [[1.0, 0.0], [0.0]], "g": [1.0, 1.0]}, "{bad}: F must be"),
        ("xin", {"F": [[1.0, 0.0], [0.0, 1.0]], "g": ["a", 1.0]}, "{bad}: g must be"),
        ("xin", {"F": [[1.0, 0.0], [0.0, 1.0]], "g": ["0.5", "0.5"]}, "{bad}: g must be"),
        ("network", {"layers": [{"W": [[1.0, 0.0], [0.0]], "b": [0.0, 0.0]}]}, "{bad}: layer 0 W must be"),
        ("k_source", {"K": [[1.0], [1.0, 2.0]]}, "{bad}: K must be"),
        ("x0", "a,b", "--x0 must be"),
        (
            "network",
            ReluNetwork([(np.ones((2, 3)), np.zeros(2)), (np.ones((1, 2)), np.zeros(1))]).to_json(),
            "{bad}: network is 3->1 but plant expects 2->1",
        ),
        ("xin", Polytope.box(-np.ones(3), np.ones(3)).to_json(), "{bad}: X_in dimension 3"),
        (
            "system",
            {
                "A": CASE_A.tolist(),
                "B": CASE_B.tolist(),
                "X": Polytope.box([-5.0, -5.0], [5.0, 5.0]).to_json(),
                "U_box": {"lb": [1.0], "ub": [-1.0]},
            },
            "{bad}: U_box is empty",
        ),
    ],
    ids=[
        "missing", "directory", "not-utf8", "out-dir-file", "out-file-directory",
        "xin-F-ragged", "xin-g-string", "xin-g-number-string", "network-W-ragged", "K-ragged",
        "x0-text", "network-width", "xin-dimension", "U_box-empty",
    ],
)
def test_bad_file_or_flag_is_one_error_line(case_files, tmp_path, capsys, role, content, line):
    # an unreadable or bad input file, an unusable --out-dir or a bad --x0 exits 1 with
    # one error line that names the file (or the flag) and, for an array, its field
    sys_path, net_path, xin_path, tmp = case_files
    bad = tmp_path / "bad"
    if content == "directory":
        bad.mkdir()
    elif content == "blocked":  # the out-dir is fine, but certificate.json cannot be written
        (bad / "certificate.json").mkdir(parents=True)
    elif isinstance(content, bytes):
        bad.write_bytes(content)
    elif isinstance(content, dict):
        bad.write_text(json.dumps(content))
    out = tmp / "bad_out"
    if role == "k_source":
        argv = _retrofit_argv(sys_path, net_path, bad, out)
    elif role == "x0":
        argv = [
            "simulate", "--system", sys_path, "--network", net_path,
            "--out-dir", str(out), "--x0", content,
        ]
    else:
        paths = {"system": sys_path, "network": net_path, "xin": xin_path, "out": out}
        paths[role] = str(bad)
        argv = _verify_argv(paths["system"], paths["network"], paths["xin"], paths["out"])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + line.format(bad=bad)) and err.count("\n") == 1
