import csv
import json
import math

import pytest

from hypervekua import HyperbolicNumber
from hypervekua.cli import main


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "potential": "zero",
        "domain": {"x_min": 0.0, "x_max": 1.0, "t_min": 0.0, "t_max": 1.0,
                   "nx": 11, "nt": 11},
        "center": [0.0, 0.0],
        "coefficient": [1.0, 0.0],
        "exponents": [3],
        "k_values": [1.0],
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def last_error(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])["error"]


def test_powers_zero_potential_matches_monomial(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["powers", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "power_m0_n3.csv")
    assert header == ["x", "t", "re", "im"]
    for x, t, re, im in rows:
        want_re = x ** 3 + 3 * x * t * t
        want_im = 3 * x * x * t + t ** 3
        assert abs(re - want_re) < 1e-10
        assert abs(im - want_im) < 1e-10
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["results"]["n3"]["residual_ok"] is True


def test_powers_closed_form_comparison_recorded(tmp_path):
    cfg = write_config(
        tmp_path, potential="const:1",
        domain={"x_min": -0.8, "x_max": 0.8, "t_min": -0.8, "t_max": 0.8,
                "nx": 9, "nt": 9},
        center=[0.1, 0.0], exponents=[1, 2])
    out = tmp_path / "out"
    assert main(["powers", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    n1 = summary["results"]["n1"]
    assert n1["closed_form_max_diff"] <= 1e-6
    assert n1["closed_form_ok"] is True
    n2 = summary["results"]["n2"]
    # exponent 2 only reports; the published formula is known not to match
    assert "closed_form_note" in n2
    assert n2["closed_form_max_diff"] > 1e-3
    header, _ = read_csv(out / "power_m0_n1.csv")
    assert header == ["x", "t", "re", "im", "re_closed", "im_closed"]


def test_powers_malformed_potential(tmp_path, capsys):
    cfg = write_config(tmp_path, potential="sech:oops")
    assert main(["powers", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert last_error(capsys)["code"] == "POTENTIAL_PARSE"


def test_modes_zero_potential_table(tmp_path):
    cfg = write_config(tmp_path, exponents=[1])
    out = tmp_path / "out"
    assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "modes_m0_n1.csv")
    assert header == ["x", "t", "n_plus", "n_minus", "r1", "r2"]
    for x, t, n_plus, n_minus, _, _ in rows:
        # W = z: u = x, v = t
        assert abs(n_plus - (x - t) / 2) < 1e-10
        assert abs(n_minus - (x + t) / 2) < 1e-10


def test_modes_sech_residual_within_tolerance(tmp_path):
    cfg = write_config(
        tmp_path, potential="sech:1:1",
        domain={"x_min": -0.8, "x_max": 0.8, "t_min": -0.8, "t_max": 0.8,
                "nx": 41, "nt": 41},
        center=[0.1, 0.0], exponents=[1],
        tolerances={"residual": 1e-2})
    out = tmp_path / "out"
    assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["n1"]["max_mode_residual"] <= 1e-2


def test_modes_center_out_of_domain(tmp_path, capsys):
    cfg = write_config(tmp_path, center=[5.0, 0.0])
    assert main(["modes", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert last_error(capsys)["code"] == "CENTER_OUT_OF_DOMAIN"


def test_spectral_zero_potential_constant_amplitude(tmp_path):
    cfg = write_config(tmp_path, x_range=[0.0, 1.0], k_values=[1.0])
    out = tmp_path / "out"
    assert main(["spectral", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "spectral_k1.csv")
    assert header == ["x", "re_n1", "im_n1", "re_n2", "im_n2", "conserved"]
    for row in rows:
        amp = math.hypot(row[1], row[2])
        assert abs(amp - 1.0) < 1e-10
        assert abs(row[5] - 1.0) < 1e-10


def test_spectral_sech_conservation(tmp_path):
    cfg = write_config(tmp_path, potential="sech:1:1", x_range=[-2.0, 2.0],
                       k_values=[1.0])
    out = tmp_path / "out"
    assert main(["spectral", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    drift = summary["results"]["k1"]["conservation_drift_per_unit_x"]
    assert drift <= 1e-8


def test_spectral_empty_k_list(tmp_path, capsys):
    cfg = write_config(tmp_path, k_values=[])
    assert main(["spectral", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert last_error(capsys)["code"] == "CONFIG_INVALID"


def test_spectral_step_too_large_surfaces_offending_k(tmp_path, capsys):
    cfg = write_config(tmp_path, potential="sech:4:1", x_range=[-3.0, 3.0],
                       k_values=[2.0], rk_step=0.5)
    assert main(["spectral", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = last_error(capsys)
    assert err["code"] == "STEP_TOO_LARGE"
    assert "k = 2" in err["message"]


def test_sequence_dump(tmp_path):
    cfg = write_config(
        tmp_path, potential="sech:1:1",
        domain={"x_min": -0.5, "x_max": 0.5, "t_min": -0.5, "t_max": 0.5,
                "nx": 5, "nt": 5},
        sequence_indices=[0, 1])
    out = tmp_path / "out"
    assert main(["sequence", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["period"] == 2
    assert set(manifest["pairs"]) == {"0", "1"}
    header, rows = read_csv(out / "pair_m0_coefficients.csv")
    assert header[:6] == ["x", "t", "a_re", "a_im", "b_re", "b_im"]
    for row in rows:
        x = row[0]
        s = 1.0 / math.cosh(x)
        assert abs(row[2]) < 1e-12            # a = 0
        assert abs(row[5] + s / 2) < 1e-12    # b = -s j / 2
    # every coefficient cell is the pair's CharCoefficients.at at its node
    from hypervekua import parse_potential, zs_sequence
    seq = zs_sequence(parse_potential("sech:1:1"))
    for m in (0, 1):
        co = seq.pair(m).coefficients()
        header, rows = read_csv(out / f"pair_m{m}_coefficients.csv")
        assert len(rows) == 25
        for x, t, *cells in rows:
            vals = co.at(HyperbolicNumber(x, t))
            assert cells == [part for c in vals for part in (c.re, c.im)]
    # field CSVs round-trip through the loader
    from hypervekua import load_field_csv
    f = load_field_csv(out / "pair_m0_F.csv")
    assert f.domain.nx == 5 and f.domain.nt == 5


def test_deterministic_output(tmp_path):
    cfg = write_config(tmp_path, potential="const:1", exponents=[1, 2],
                       center=[0.5, 0.5])
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["powers", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["powers", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("power_m0_n1.csv", "power_m0_n2.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    s1.pop("timestamp")
    s2.pop("timestamp")
    assert s1 == s2


def test_threads_do_not_change_results(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, potential="sech:1:1", exponents=[2],
                       center=[0.5, 0.5])
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    out3 = tmp_path / "env"
    assert main(["powers", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["powers", "--config", str(cfg), "--out", str(out2),
                 "--threads", "3"]) == 0
    monkeypatch.setenv("HYPERVEKUA_THREADS", "2")
    assert main(["powers", "--config", str(cfg), "--out", str(out3)]) == 0
    base = (out1 / "power_m0_n2.csv").read_bytes()
    assert (out2 / "power_m0_n2.csv").read_bytes() == base
    assert (out3 / "power_m0_n2.csv").read_bytes() == base


def test_tol_flag_overrides_residual(tmp_path):
    # impossible residual tolerance makes the command exit 1
    cfg = write_config(tmp_path, potential="sech:1:1", exponents=[1],
                       center=[0.5, 0.5])
    out = tmp_path / "out"
    code = main(["powers", "--config", str(cfg), "--out", str(out),
                 "--tol", "1e-18"])
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False


def test_bad_config_rejected(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["powers", "--config", str(path)]) == 2
    assert last_error(capsys)["code"] == "CONFIG_INVALID"
    cfg = write_config(tmp_path, domain={"nx": 2, "nt": 5})
    assert main(["powers", "--config", str(cfg)]) == 2
    assert last_error(capsys)["code"] == "CONFIG_INVALID"


@pytest.mark.parametrize("override", [
    pytest.param({"center": "ab"}, id="center-text"),
    pytest.param({"center": [1]}, id="center-one-number"),
    pytest.param({"init": 5}, id="init-scalar"),
    pytest.param({"exponents": "x"}, id="exponents-text"),
    pytest.param({"domain": 3}, id="domain-scalar"),
    pytest.param({"x_range": [1]}, id="x-range-one-number"),
    pytest.param({"threads": "a"}, id="threads-text"),
    pytest.param({"tolerances": []}, id="tolerances-list"),
    pytest.param({"tolerances": {"residual": "nan"}}, id="tolerance-nan"),
    pytest.param({"k_values": [None]}, id="k-null"),
    pytest.param({"sequence_index": 1.5}, id="sequence-index-fraction"),
    pytest.param({"rk_step": 0}, id="rk-step-zero"),
    pytest.param({"rk_step": "abc"}, id="rk-step-text"),
    pytest.param({"rk_step": -0.5}, id="rk-step-negative"),
    pytest.param({"sequence_indices": ["x"]}, id="sequence-indices-text"),
    pytest.param({"sequence_indices": 3}, id="sequence-indices-scalar"),
    pytest.param({"sequence_indices": [1.5]}, id="sequence-indices-fraction"),
    pytest.param({"exponents": -1}, id="exponents-none-up-to"),
    pytest.param({"exponents": []}, id="exponents-empty"),
    # both would be written as spectral_k1.csv and summarized as k1
    pytest.param({"k_values": [1.0000001, 1.0000002]}, id="k-values-collide"),
    # a misspelt key would otherwise fall back to its default silently
    pytest.param({"domain": {"x_min": 0.0, "x_max": 1.0, "t_min": 0.0,
                             "t_max": 1.0, "nx": 11, "nt": 11, "n_x": 5}},
                 id="domain-unknown-key"),
    pytest.param({"tolerances": {"residul": 1e-3}},
                 id="tolerances-unknown-key"),
    # a valid time-like rectangle, so only the flag's type is at fault
    pytest.param({"domain": {"x_min": 0.5, "x_max": 1.0, "t_min": 2.0,
                             "t_max": 3.0, "nx": 5, "nt": 5,
                             "timelike": "no"},
                  "center": [0.75, 2.5]}, id="timelike-text"),
    pytest.param({"exponents": True}, id="exponents-boolean"),
    pytest.param({"exponents": [True]}, id="exponent-boolean"),
])
def test_malformed_config_fields_rejected(tmp_path, capsys, override):
    cfg = write_config(tmp_path, **override)
    out = tmp_path / "out"
    assert main(["powers", "--config", str(cfg), "--out", str(out)]) == 2
    assert last_error(capsys)["code"] == "CONFIG_INVALID"
    assert not out.exists()


def test_powers_exponent_beyond_depth_cap(tmp_path, capsys):
    cfg = write_config(tmp_path, potential="sech:1:1", exponents=[100])
    out = tmp_path / "out"
    assert main(["powers", "--config", str(cfg), "--out", str(out)]) == 2
    assert last_error(capsys)["code"] == "DEPTH_EXCEEDED"


def test_check_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("[PASS]") == 9
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["results"]["runtime_ok"] is True


def test_threads_env_must_be_an_integer(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("HYPERVEKUA_THREADS", "two")
    assert main(["powers", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert last_error(capsys)["code"] == "CONFIG_INVALID"
