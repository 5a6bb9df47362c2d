import csv
import functools
import io
import json

import numpy as np
import pytest

from qbound import cli, reading, sdp
from conftest import fresh_python


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_grid_fractions():
    g = cli.parse_grid("0:4/3:25")
    assert len(g) == 25
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(4 / 3)
    assert cli.parse_grid("0.5:0.5:1") == [0.5]
    with pytest.raises(ValueError):
        cli.parse_grid("0:1")
    with pytest.raises(ValueError):
        cli.parse_grid("0:1:0")


def test_capacity_erasure_csv(capsys):
    code, out, _ = run(capsys, "capacity", "--cell", "erasure",
                       "--d", "2", "--q-grid", "0:1:3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("#")
    assert "quantity=covariant_cell_capacity" in lines[0]
    assert "base=bits" in lines[0]
    assert lines[1] == "q,value"
    vals = [float(l.split(",")[1]) for l in lines[2:]]
    assert vals[0] == pytest.approx(2.0, abs=1e-8)
    assert vals[1] == pytest.approx(1.0, abs=1e-8)
    assert vals[2] == pytest.approx(0.0, abs=1e-8)


def test_capacity_json_mirrors_csv(capsys):
    code, out, _ = run(capsys, "capacity", "--cell", "erasure",
                       "--format", "json", "--q-grid", "0:1:3")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["quantity"] == "covariant_cell_capacity"
    assert len(payload["rows"]) == 3
    assert payload["rows"][0]["value"] == pytest.approx(2.0, abs=1e-8)


def test_output_file_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = cli.main(["dynamics", "--preset", "gadc", "--omega", "5",
                         "--steps", "40", "--output", str(path)])
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()  # byte-identical reruns


def test_dynamics_base_is_nats(capsys):
    code, out, _ = run(capsys, "dynamics", "--preset", "damping",
                       "--steps", "4", "--t-max", "1")
    assert code == 0
    assert "base=nats" in out.split("\n")[0]


def test_secure_read_csv(capsys):
    code, out, _ = run(capsys, "secure-read", "--kind", "depolarizing")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "D_I,D_C,N_D_I,N_D_C"
    di, dc, ndi, ndc = (float(v) for v in lines[2].split(","))
    assert di == pytest.approx(dc, abs=1e-9)
    assert ndi == pytest.approx(1000 * di, abs=1e-12)


def test_rains_state_product(capsys):
    code, out, _ = run(capsys, "rains-state", "--state", "product")
    assert code == 0
    val = float(out.strip().split("\n")[-1].split(",")[-1])
    assert abs(val) < 1e-5


def test_private_rate_point(capsys):
    code, out, _ = run(capsys, "private-rate", "--q", "0.25")
    assert code == 0
    row = out.strip().split("\n")[-1].split(",")
    assert float(row[1]) == pytest.approx(1.5, abs=1e-8)
    assert float(row[2]) == pytest.approx(1.5, abs=1e-8)


def test_props_suite_passes(capsys):
    code, out, _ = run(capsys, "props")
    assert code == 0
    assert "fail" not in out


def test_parse_error_exit_code(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["capacity", "--q-grid", "bogus"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        cli.main(["no-such-command"])
    assert e.value.code == 2


@pytest.mark.parametrize("d", ["0", "1"])
@pytest.mark.parametrize("cmd", [["rains-channel", "--channel", "depolarizing"],
                                 ["capacity", "--cell", "depolarizing"],
                                 ["nonunitarity", "--channel", "depolarizing"]],
                         ids=["rains-channel", "capacity", "nonunitarity"])
def test_depolarizing_trivial_dimension_exit_code(capsys, cmd, d):
    with pytest.raises(SystemExit) as e:
        cli.main(cmd + ["--d", d])
    assert e.value.code == 2
    assert "d >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("d", ["0", "-1"])
@pytest.mark.parametrize("cmd", [["rains-channel", "--channel", "erasure"],
                                 ["capacity", "--cell", "erasure"],
                                 ["nonunitarity", "--channel", "erasure"],
                                 ["private-rate"],
                                 ["rains-state", "--state", "max-ent"],
                                 ["rains-channel", "--channel", "identity"],
                                 ["capacity", "--cell", "identity"],
                                 ["nonunitarity", "--channel", "identity"]],
                         ids=["rains-channel", "capacity", "nonunitarity",
                              "private-rate", "rains-state",
                              "rains-channel-identity", "capacity-identity",
                              "nonunitarity-identity"])
def test_erasure_empty_dimension_exit_code(capsys, cmd, d):
    with pytest.raises(SystemExit) as e:
        cli.main(cmd + ["--d", d])
    assert e.value.code == 2
    assert "d >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("d", ["0", "-1"])
def test_product_state_empty_dimension_exit_code(capsys, d):
    with pytest.raises(SystemExit) as e:
        cli.main(["rains-state", "--state", "product", "--d", d])
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--d" in out.err


@pytest.mark.parametrize("argv, option", [
    (["dynamics", "--t-max", "nan"], "--t-max"),
    (["dynamics", "--omega", "nan"], "--omega"),
    (["dynamics", "--t-max", "inf"], "--t-max"),
    (["private-rate", "--q", "1e400"], "--q"),
    (["rains-bidir", "--channel", "swap-dephasing", "--phi", "nan"], "--phi"),
    (["rains-state", "--state", "isotropic", "--param", "2"], "--param"),
    (["rains-state", "--state", "isotropic", "--param", "-0.5"], "--param"),
    (["dynamics", "--t-max", "-1"], "--t-max"),
    (["secure-read", "--eta0", "2"], "--eta0"),
    (["secure-read", "--eta1", "-0.34"], "--eta1"),
    (["secure-read", "--kind", "gadc", "--eta0", "-0.1"], "--eta0"),
    (["secure-read", "--kind", "gadc", "--eta1", "1.5"], "--eta1"),
], ids=["t-max-nan", "omega-nan", "t-max-inf", "q-overflow", "phi-nan",
        "param-above-1", "param-below-psd", "t-max-negative",
        "eta0-above-1", "eta1-below-cp", "gadc-eta0-negative",
        "gadc-eta1-above-1"])
def test_unusable_number_exit_code(capsys, argv, option):
    # a non-finite number, a non-PSD isotropic state (d = 2 needs
    # param >= -1/3), a negative time and a cell transmissivity outside its
    # channel's range (a qubit depolarizing cell takes eta >= -1/3, a GADC
    # eta >= 0) are refused, naming the option
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert option in out.err


@pytest.mark.parametrize("cmd", [["rains-channel", "--channel", "gadc",
                                  "--q", "0.2"],
                                 ["nonunitarity", "--channel", "dephasing",
                                  "--q", "0.5"]],
                         ids=["rains-channel-gadc", "nonunitarity-dephasing"])
def test_qubit_channel_rejects_other_dimension(capsys, cmd):
    with pytest.raises(SystemExit) as e:
        cli.main(cmd + ["--d", "3"])
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--d must be 2" in out.err


def test_dynamics_negative_steps_exit_code(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["dynamics", "--steps", "-1"])
    assert e.value.code == 2
    assert capsys.readouterr().out == ""


def test_numerical_failure_exit_code(monkeypatch, capsys):
    def boom(*a, **k):
        raise ArithmeticError("synthetic divergence")
    monkeypatch.setattr(cli.reading, "covariant_cell_capacity", boom)
    code, out, err = run(capsys, "capacity", "--cell", "erasure", "--q", "0")
    assert code == 3
    diag = json.loads(err.strip().split("\n")[-1])
    assert diag["error"] == "numerical_failure"
    assert diag["subcommand"] == "capacity"


def test_thermal_capacity_csv_quotes_photons(capsys):
    code, out, _ = run(capsys, "capacity", "--cell", "thermal",
                       "--photons", "0.1,2.0")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["photons", "value"]
    assert rows[2] == ["0.1,2.0", "0.329790236312"]


def test_unconverged_blahut_arimoto_exit_code(monkeypatch, capsys):
    short = functools.partial(reading.blahut_arimoto, max_iter=3)
    monkeypatch.setattr(reading, "blahut_arimoto", short)
    code, out, err = run(capsys, "capacity", "--cell", "thermal",
                         "--photons", "0.1,2.0")
    assert code == 3 and out == ""
    assert "Blahut-Arimoto" in json.loads(err)["detail"]


def test_stalled_sdp_exit_code(monkeypatch, capsys):
    def stalled(p, tol, max_iter):
        return sdp.SDPSolution(-1.0, -0.9, [np.eye(n) for n in p.blocks],
                               np.zeros(len(p.A)), 0.1, "numerical_limit",
                               max_iter)
    monkeypatch.setattr(sdp, "solve", stalled)
    code, out, err = run(capsys, "nonunitarity", "--q", "0.5")
    assert code == 3 and out == ""
    diag = json.loads(err.strip().split("\n")[-1])
    assert diag["subcommand"] == "nonunitarity"
    assert "numerical_limit" in diag["detail"]


def test_thread_cap_respected(monkeypatch, capsys):
    monkeypatch.setenv("QBOUND_THREADS", "2")
    code, out, _ = run(capsys, "capacity", "--cell", "erasure",
                       "--q-grid", "0:1:3")
    assert code == 0
    assert len(out.strip().split("\n")) == 5  # meta + header + 3 rows


@pytest.mark.parametrize("cmd", [["rains-bidir", "--p-grid", "0:1:5"],
                                 ["nonunitarity", "--q-grid", "0:1:3"],
                                 ["capacity", "--q-grid", "0:1:3"],
                                 ["private-rate", "--q-grid", "0:1:3"]],
                         ids=["rains-bidir", "nonunitarity", "capacity",
                              "private-rate"])
def test_sweep_bytes_independent_of_threads(monkeypatch, capsys, cmd):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("QBOUND_THREADS", threads)
        outputs.append(run(capsys, *cmd))
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]


def test_output_independent_of_blas_environment():
    # the CLI pins one BLAS thread before numpy loads: unset, OpenBLAS would
    # take one per core and change the last bits of the SDP values
    cnot = ["-m", "qbound.cli", "rains-bidir", "--channel", "cnot"]
    assert fresh_python(*cnot) == fresh_python(*cnot, OPENBLAS_NUM_THREADS="1")
    # in two worker threads the solver's deferred scipy import runs first
    # in the workers, a path no in-process call reaches
    sweep = ["-m", "qbound.cli", "rains-bidir", "--p-grid", "0:1:5"]
    assert fresh_python(*sweep, QBOUND_THREADS="2") \
        == fresh_python(*sweep, QBOUND_THREADS="1")
