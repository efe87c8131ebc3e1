import json

import pytest

from nreflect.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, config, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


BCL = {"case": "bcl", "z": ["1", "2"]}
TWO_REFL_L3 = {"case": "two-reflection", "params": {"a": "1", "b": "2", "c": "3"},
               "L": 3, "z": ["1", "2", "4"]}


class TestVerify:
    def test_cybe_rational(self, capsys):
        code, out, _ = run(capsys, "verify", "cybe", "--r", "rational", "--n", "2")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass" and report["samples"] == 25

    def test_cybe_trig(self, capsys):
        code, out, _ = run(capsys, "verify", "cybe", "--r", "trig", "--samples", "5")
        assert code == 0

    def test_nre_case(self, capsys):
        code, out, _ = run(capsys, "verify", "nre", "--case", "id-2refl",
                           "--params", "a=1,b=2,c=3", "--samples", "5")
        assert code == 0
        assert json.loads(out)["case"] == "id-2refl"

    def test_nre_tampered_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "verify", "nre", "--case", "id-2refl",
                           "--params", "a=1,b=2,c=3", "--samples", "3", "--tamper", "g1-sign")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "fail"
        assert any("witness" in entry for entry in report["results"])

    def test_nunitarity(self, capsys):
        code, out, _ = run(capsys, "verify", "nunitarity", "--case", "linear-k-N2-diag-th2",
                           "--samples", "5")
        assert code == 0
        assert all("f" in e for e in json.loads(out)["results"])

    def test_compact(self, capsys):
        code, _, _ = run(capsys, "verify", "compact", "--case", "id-3refl", "--samples", "4")
        assert code == 0

    def test_symmetry_passes_for_theta_zero(self, capsys):
        code, _, _ = run(capsys, "verify", "symmetry", "--case", "linear-k-N2-diag-th0",
                         "--samples", "4")
        assert code == 0

    def test_symmetry_fails_for_theta_two(self, capsys):
        code, _, _ = run(capsys, "verify", "symmetry", "--case", "linear-k-N2-diag-th2",
                         "--samples", "4")
        assert code == 1

    def test_equivalence(self, capsys):
        code, _, _ = run(capsys, "verify", "equivalence", "--case", "id-3refl", "--samples", "4")
        assert code == 0

    def test_rbar_cybe(self, capsys):
        code, _, _ = run(capsys, "verify", "rbar-cybe", "--case", "id-2refl", "--samples", "3")
        assert code == 0

    def test_unknown_case_is_config_error(self, capsys):
        code, _, err = run(capsys, "verify", "nre", "--case", "nope")
        assert code == 2 and "catalog" in err

    def test_bad_params_is_config_error(self, capsys):
        code, _, _ = run(capsys, "verify", "nre", "--case", "id-2refl", "--params", "a=spam")
        assert code == 2

    def test_constraint_violation_is_config_error(self, capsys):
        code, _, err = run(capsys, "verify", "nre", "--case", "id-3refl", "--params", "c=0")
        assert code == 2 and "a^2" in err

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "cybe", "--samples", "3", "--out", str(out_path))
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["verdict"] == "pass"

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "verify", "nre", "--case", "id-2refl", "--samples", "5",
                         "--seed", "0xC0FFEE")
        _, out2, _ = run(capsys, "verify", "nre", "--case", "id-2refl", "--samples", "5",
                         "--seed", "0xC0FFEE")
        assert out1 == out2


class TestGaudin:
    def test_involution(self, capsys, tmp_path):
        config = write_config(tmp_path, TWO_REFL_L3)
        code, out, _ = run(capsys, "gaudin", "involution", "--config", config)
        assert code == 0
        assert json.loads(out)["samples"] == 3  # pairs (1,2), (1,3), (2,3)

    def test_hamiltonians_dump(self, capsys, tmp_path):
        config = write_config(tmp_path, BCL)
        code, out, _ = run(capsys, "gaudin", "hamiltonians", "--config", config)
        assert code == 0
        # BC_L coupling 1/(z1-z2) + 1/(z1+z2) = -2/3 on the pair term
        assert out.startswith("H_1 = ") and "2/3*s1+*s2-" in out

    def test_residue_equality(self, capsys, tmp_path):
        config = write_config(tmp_path, BCL)
        code, _, _ = run(capsys, "gaudin", "residue-equality", "--config", config)
        assert code == 0

    @pytest.mark.parametrize("sub", ["rbb", "lax", "mk"])
    def test_structural(self, capsys, tmp_path, sub):
        config = write_config(tmp_path, BCL)
        code, _, _ = run(capsys, "gaudin", sub, "--config", config, "--samples", "3")
        assert code == 0

    def test_trbrackets(self, capsys, tmp_path):
        config = write_config(tmp_path, BCL)
        code, _, _ = run(capsys, "gaudin", "trbrackets", "--config", config,
                         "--samples", "2", "--power", "2", "--power-q", "3")
        assert code == 0

    def test_duplicate_sites_exit_2(self, capsys, tmp_path):
        config = write_config(tmp_path, {"case": "bcl", "z": ["1", "1"]})
        code, _, err = run(capsys, "gaudin", "involution", "--config", config)
        assert code == 2
        assert "sites must be mutually distinct" in err

    def test_constraint_violation_exit_2(self, capsys, tmp_path):
        config = write_config(tmp_path, {"case": "three-reflection",
                                         "params": {"a": "1", "b": "3", "c": "0", "d": "1"},
                                         "z": ["2", "5"]})
        code, _, _ = run(capsys, "gaudin", "involution", "--config", config)
        assert code == 2

    def test_residue_equality_at_twelve_sites(self, capsys, tmp_path):
        z = [str(3 * i + 1) for i in range(12)]
        config = write_config(tmp_path, dict(TWO_REFL_L3, L=12, z=z))
        code, out, _ = run(capsys, "gaudin", "residue-equality", "--config", config)
        report = json.loads(out)
        assert code == 0 and report["samples"] == 12
        assert [entry["status"] for entry in report["results"]] == ["exact-zero"] * 12

    def test_missing_config_file(self, capsys):
        code, _, _ = run(capsys, "gaudin", "involution", "--config", "/nonexistent.json")
        assert code == 2


class TestSimulate:
    def test_basic_run(self, capsys, tmp_path):
        config = write_config(tmp_path, BCL)
        out_csv = tmp_path / "traj.csv"
        code, out, _ = run(capsys, "simulate", "--config", config, "--hamiltonian", "1",
                           "--t", "0.5", "--dt", "0.001", "--out", str(out_csv))
        assert code == 0
        assert "drift H2" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0].split(",")[0] == "t"

    def test_zero_dt_exit_2(self, capsys, tmp_path):
        config = write_config(tmp_path, BCL)
        code, _, _ = run(capsys, "simulate", "--config", config, "--t", "1",
                         "--dt", "0", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("index", ["0", "-1", "3", "5"])
    def test_hamiltonian_index_out_of_range_exit_2(self, capsys, tmp_path, index):
        config = write_config(tmp_path, BCL)
        code, out, err = run(capsys, "simulate", "--config", config, "--hamiltonian", index,
                             "--t", "0.01", "--dt", "0.001", "--out", str(tmp_path / "x.csv"))
        assert code == 2 and out == ""
        assert f"H_{index}" in err and "1..2" in err

    def test_explicit_state(self, capsys, tmp_path):
        config = write_config(tmp_path, BCL)
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps([[4.0, -1.5], [-4.0, -1.5], [0.0, 5.0],
                                          [-1.0, 4.5], [1.0, 4.5], [0.0, -6.0]]))
        code, out, _ = run(capsys, "simulate", "--config", config, "--t", "0.2",
                           "--dt", "0.001", "--out", str(tmp_path / "t.csv"),
                           "--state", str(state_path))
        assert code == 0

    def test_nan_abort_exit_3(self, capsys, tmp_path):
        # s1+ and s2- huge makes the quadratic field overflow on the first step
        config = write_config(tmp_path, BCL)
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps([[1e200, 0], [1, 0], [1, 0],
                                          [1, 0], [1e200, 0], [1, 0]]))
        code, out, err = run(capsys, "simulate", "--config", config, "--t", "5",
                             "--dt", "0.5", "--out", str(tmp_path / "t.csv"),
                             "--state", str(state_path))
        assert code == 3
        assert "aborted at t" in out
        assert "non-finite" in err


class TestCatalog:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        labels = [json.loads(line)["label"] for line in out.splitlines()]
        assert "id-2refl" in labels and "trig-3refl-poly-2" in labels
        assert len(labels) == len(set(labels))

    def test_every_label_verifiable(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        for line in out.splitlines():
            label = json.loads(line)["label"]
            code, _, _ = run(capsys, "verify", "nre", "--case", label, "--samples", "1")
            assert code in (0, 1)  # reachable; poly-2 legitimately fails


def test_bad_arguments_exit_2(capsys):
    assert main(["verify", "bogus-subject"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "nre", "--case", "id-2refl", "--samples", "0"],
    ["verify", "nre", "--case", "id-2refl", "--samples", "-3"],
    ["verify", "cybe", "--samples", "0"],
    ["gaudin", "rbb", "--config", "unused.json", "--samples", "0"],
])
def test_fewer_than_one_sample_is_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "--samples" in err and "at least 1" in err


def test_involution_with_no_pairs_is_not_a_pass(capsys, tmp_path):
    config = write_config(tmp_path, {"case": "bcl", "z": ["2"]})
    code, out, _ = run(capsys, "gaudin", "involution", "--config", config)
    report = json.loads(out)
    assert code == 1
    assert report["samples"] == 0 and report["verdict"] == "fail"
    assert report["reason"] == "nothing was checked"


@pytest.mark.parametrize("sub", ["trbrackets", "lax", "mk"])
@pytest.mark.parametrize("flag,value", [("--power", "0"), ("--power", "-1"), ("--power-q", "0")])
def test_power_below_one_is_config_error(capsys, tmp_path, sub, flag, value):
    # tr B^0 = 2 brackets to 0 with anything, and B^-1 needs a spin-polynomial
    # inverse: neither is a check, so p and q below 1 are refused up front
    config = write_config(tmp_path, BCL)
    code, out, err = run(capsys, "gaudin", sub, "--config", config, "--samples", "2", flag, value)
    assert code == 2 and out == ""
    assert flag in err and "at least 1" in err


@pytest.mark.parametrize("label,params,named", [
    ("id-3refl", "e=5", "'e'"),
    ("id-2refl", "foo=1", "'foo'"),
    ("trig-2refl-id", "n=3", "'n'"),
    ("linear-k-N2-diag-th2", "a=1", "'a'"),
    ("id-3refl", "n=3/2", "3/2"),
])
def test_params_the_case_does_not_take_are_config_errors(capsys, label, params, named):
    code, out, err = run(capsys, "verify", "nre", "--case", label, "--params", params, "--samples", "2")
    assert code == 2 and out == ""
    assert named in err


def test_params_the_case_takes_are_applied(capsys):
    code, out, _ = run(capsys, "verify", "nunitarity", "--case", "linear-k-N2-diag-th2",
                       "--params", "theta=3", "--samples", "2")
    assert code == 0 and json.loads(out)["case"] == "linear-k-N2-diag-th3"
    code, out, _ = run(capsys, "verify", "nre", "--case", "id-3refl", "--params", "n=3", "--samples", "2")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["verify", "nre", "--params", "a=1/0"],
    ["verify", "symmetry", "--omega", "1/0"],
    ["gaudin", "involution", "--config", "{zero_site}"],
])
def test_zero_denominator_is_config_error(capsys, tmp_path, argv):
    zero_site = write_config(tmp_path, {"case": "bcl", "z": ["1/0", "2"]})
    code, out, err = run(capsys, *(word.format(zero_site=zero_site) for word in argv))
    assert code == 2 and out == ""
    assert "zero denominator" in err and "1/0" in err


@pytest.mark.parametrize("argv,named", [
    (["verify", "cybe", "--case", "nope", "--params", "foo=1"], "--case, --params"),
    (["verify", "cybe", "--tamper", "g1-sign"], "--tamper"),
    (["verify", "cybe", "--omega", "-1"], "--omega"),
    (["verify", "cybe", "--r", "trig", "--n", "3"], "--n must be 2"),
    (["verify", "nre", "--r", "trig"], "--r"),
    (["verify", "compact", "--case", "id-3refl", "--n", "3"], "--n"),
    (["verify", "nunitarity", "--omega", "-1"], "--omega"),
])
def test_options_the_subject_does_not_read_are_config_errors(capsys, argv, named):
    code, out, err = run(capsys, *argv, "--samples", "1")
    assert code == 2 and out == ""
    assert named in err


def test_options_the_subject_reads_are_accepted(capsys):
    assert run(capsys, "verify", "cybe", "--r", "trig", "--n", "2", "--samples", "1")[0] == 0
    code, out, _ = run(capsys, "verify", "symmetry", "--case", "id-2refl", "--omega", "-1", "--samples", "1")
    assert code in (0, 1) and json.loads(out)["omega"] == "-1"


@pytest.mark.parametrize("flag,value", [("--t", "inf"), ("--t", "nan"), ("--dt", "inf"), ("--dt", "nan")])
def test_simulate_non_finite_time_is_config_error(capsys, tmp_path, flag, value):
    config = write_config(tmp_path, BCL)
    times = {"--t": "0.01", "--dt": "0.001", flag: value}
    code, out, err = run(capsys, "simulate", "--config", config, "--t", times["--t"], "--dt", times["--dt"],
                         "--out", str(tmp_path / "x.csv"))
    assert code == 2 and out == ""
    assert "finite" in err
