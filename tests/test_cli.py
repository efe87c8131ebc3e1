import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nreflect import cli, reflection, rmatrix
from nreflect.cli import entry, main
from nreflect.errors import PoleError
from nreflect.rmatrix import MAX_FACTOR_SIZE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, config, name="model.json"):
    """config as JSON, or as it is when it is already JSON text."""
    path = tmp_path / name
    path.write_text(config if isinstance(config, str) else json.dumps(config))
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

    def test_equivalence_away_from_the_defaults(self, capsys):
        # a valid three-reflection: 1 + 2 - 7 + 4 = 0
        code, out, _ = run(capsys, "verify", "equivalence", "--case", "id-3refl",
                           "--params", "a=1,b=7,c=-1,d=2")
        assert code == 0 and json.loads(out)["verdict"] == "pass"

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


    @pytest.mark.parametrize("state,named", [
        ([1, 2, 3, 4, 5, 6], "entry 0 is 1"),
        ([["x", 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]], 'entry 0 is ["x", 0]'),
        ([[0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0, 0]], "entry 5 is [0, 0, 0]"),
        ([[0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [True, 0]], "entry 5 is [true, 0]"),
        ({"a": 1}, "JSON list"),
    ], ids=["flat-numbers", "string-part", "triple", "boolean-part", "object"])
    def test_malformed_state_exit_2(self, capsys, tmp_path, state, named):
        config = write_config(tmp_path, BCL)
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(state))
        code, out, err = run(capsys, "simulate", "--config", config, "--t", "0.01", "--dt", "0.001",
                             "--out", str(tmp_path / "t.csv"), "--state", str(state_path))
        assert code == 2 and out == ""
        assert named in err and "[re, im]" in err


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


@pytest.mark.parametrize("n", ["0", "-2"])
def test_factor_size_below_one_is_config_error(capsys, n):
    code, out, err = run(capsys, "verify", "nre", "--case", "id-2refl", "--params", f"n={n}", "--samples", "1")
    assert code == 2 and out == ""
    assert "factor size n" in err and f"got {n}" in err


@pytest.mark.parametrize("argv", [
    ("nre", "--case", "id-2refl", "--params", "n=99999999"),
    ("rbar-cybe", "--case", "trivial", "--params", f"n={MAX_FACTOR_SIZE + 1}"),
    ("cybe", "--r", "rational", "--n", "99999999"),
    ("cybe", "--r", "rational", "--n", str(MAX_FACTOR_SIZE + 1)),
])
def test_factor_size_above_the_bound_is_config_error(monkeypatch, capsys, argv):
    # refused before anything of size n is built; the stub keeps a regression
    # from building the n^2 x n^2 permutation operator here
    built = []
    monkeypatch.setattr(rmatrix, "permutation_operator", built.append)
    code, out, err = run(capsys, "verify", *argv, "--samples", "1")
    assert code == 2 and out == "" and built == []
    assert f"factor size n must be at most {MAX_FACTOR_SIZE}, got" in err


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


@pytest.mark.parametrize("argv,named", [
    (["verify", "nre", "--params", "a"], "name=value"),
    (["verify", "nre", "--params", "a=z"], "cyclotomic order"),
    (["verify", "nre", "--params", "a="], "empty scalar"),
    (["verify", "nre", "--case", "trivial", "--tamper", "g1-sign"], "N >= 2"),
    (["verify", "nre", "--case", "id-2refl", "--params", "a=1,a=2"], "'a' is given more than once"),
])
def test_user_input_errors_name_the_input(capsys, argv, named):
    code, out, err = run(capsys, *argv, "--samples", "1")
    assert code == 2 and out == ""
    assert named in err


def test_an_empty_omega_is_an_empty_scalar(capsys):
    # --omega "" is refused as the empty --params value is, not read as the default zeta_N
    code, out, err = run(capsys, "verify", "symmetry", "--case", "linear-k-N3-diag-th2", "--omega", "",
                         "--samples", "1")
    assert (code, out, err) == (2, "", "error: empty scalar\n")


def test_an_empty_case_is_an_unknown_case(capsys):
    # --case "" is refused as an unknown catalog label, not read as the default id-2refl
    code, out, err = run(capsys, "verify", "nre", "--case", "", "--samples", "1")
    assert (code, out, err) == (2, "", "error: unknown catalog case ''; see catalog list\n")


@pytest.mark.parametrize("state,named", [
    ("[[NaN, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]", "finite"),
    ("[[0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]", "3 L"),
], ids=["nan", "five-values"])
def test_simulate_bad_state_values_are_config_errors(capsys, tmp_path, state, named):
    config = write_config(tmp_path, BCL)
    state_path = tmp_path / "state.json"
    state_path.write_text(state)
    code, out, err = run(capsys, "simulate", "--config", config, "--t", "0.01", "--dt", "0.001",
                         "--out", str(tmp_path / "t.csv"), "--state", str(state_path))
    assert code == 2 and out == ""
    assert named in err


@pytest.mark.parametrize("error", [KeyError, ValueError])
def test_a_fault_inside_a_residual_is_not_a_user_error(monkeypatch, error):
    # exit 2 is kept for bad input; an internal fault surfaces as itself
    def broken(*args):
        raise error("internal fault")

    monkeypatch.setattr(reflection, "nre_residual", broken)
    with pytest.raises(error, match="internal fault"):
        main(["verify", "nre", "--case", "id-2refl", "--samples", "1"])


def test_sampler_exhaustion_is_an_error_exit_2(monkeypatch, capsys):
    # a check with no admissible point ends with the sampler's message, not a traceback
    def nowhere(*point):
        raise PoleError(f"no value at {point}")

    monkeypatch.setattr(cli, "sampled_check", lambda case, subject, omega=None: (2, nowhere))
    code, out, err = run(capsys, "verify", "nre", "--case", "id-2refl", "--samples", "1")
    assert (code, out) == (2, "")
    assert err == "error: rejection sampling did not find an admissible point\n"


def test_the_console_entry_exits_4_on_an_internal_fault(monkeypatch, capsys):
    def broken(*args):
        raise KeyError("internal fault")

    monkeypatch.setattr(reflection, "nre_residual", broken)
    monkeypatch.setattr(sys, "argv", ["nreflect", "verify", "nre", "--case", "id-2refl", "--samples", "1"])
    with pytest.raises(SystemExit) as exited:
        entry()
    assert exited.value.code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "KeyError: 'internal fault'" in captured.err


@pytest.mark.parametrize("t,dt", [("inf", "0.001"), ("nan", "0.001"), ("0.01", "inf"), ("0.01", "nan"),
                                  ("1e300", "1e-300")])  # the last: t / dt overflows to an infinite step count
def test_simulate_non_finite_time_is_config_error(capsys, tmp_path, t, dt):
    config = write_config(tmp_path, BCL)
    code, out, err = run(capsys, "simulate", "--config", config, "--t", t, "--dt", dt,
                         "--out", str(tmp_path / "x.csv"))
    assert code == 2 and out == ""
    assert "finite" in err


def test_simulate_of_no_step_is_config_error(capsys, tmp_path):
    # t / dt rounds to 0 steps: no drift was measured, so nothing is reported
    config = write_config(tmp_path, BCL)
    out_csv = tmp_path / "x.csv"
    code, out, err = run(capsys, "simulate", "--config", config, "--t", "1e-9", "--dt", "0.001", "--out", str(out_csv))
    assert code == 2 and out == "" and not out_csv.exists()
    assert "rounds to 0 steps, got t_end = 1e-09, dt = 0.001" in err


@pytest.mark.parametrize("config,named", [
    ({"case": "two-reflection", "params": {"e": "5"}, "z": ["1", "2"]}, "'e'"),
    ({"case": "three-reflection", "params": {"e": "5"}, "z": ["2", "5"]}, "'e'"),
    ({"case": "bcl", "params": {"b": "5"}, "z": ["1", "2"]}, "'b'"),
    ({"case": "z3", "params": {"a": "5"}, "z": ["1", "2"]}, "'a'"),
    ({"case": "plain", "params": {"a": "5"}, "z": ["1", "2"]}, "'a'"),
    ('{"case": "bcl", "params": {"a": "1", "a": "2"}, "z": ["1", "2"]}', "key 'a' is given more than once"),
])
def test_model_params_the_kind_does_not_read_are_config_errors(capsys, tmp_path, config, named):
    code, out, err = run(capsys, "gaudin", "involution", "--config", write_config(tmp_path, config))
    assert code == 2 and out == ""
    assert named in err


@pytest.mark.parametrize("change,named", [
    ({"params": [1]}, "'params' must be a JSON object"),
    ({"z": "12"}, "non-empty site list"),
    ({"z": [True, 2]}, "True is not a number"),
    ({"L": None}, "L must be an integer, got None"),
    ({"L": 2.5}, "L must be an integer, got 2.5"),
], ids=["params-list", "z-string", "z-boolean", "L-null", "L-fraction"])
def test_malformed_model_config_is_config_error(capsys, tmp_path, change, named):
    config = write_config(tmp_path, dict(BCL, **change))
    code, out, err = run(capsys, "gaudin", "rbb", "--config", config, "--samples", "1")
    assert code == 2 and out == ""
    assert named in err


@pytest.mark.parametrize("key", ["parms", "Params", "sites", "l"])
def test_model_config_keys_other_than_case_params_L_z_are_config_errors(capsys, tmp_path, key):
    # a misspelled key must not run the model it leaves at its defaults
    config = {"case": "two-reflection", key: {"a": "5", "b": "2", "c": "3"}, "z": ["1", "2"]}
    code, out, err = run(capsys, "gaudin", "hamiltonians", "--config", write_config(tmp_path, config))
    assert code == 2 and out == ""
    assert f"error: model config has no key '{key}'; it takes case, params, L, z" in err


def test_a_model_past_the_spin_realization_is_a_config_error(capsys, tmp_path):
    # the Gaudin layer realizes gl(2) spins only, so a two-reflection model at n = 3 is refused
    config = {"case": "two-reflection", "params": {"n": "3"}, "z": ["1", "2"]}
    code, out, err = run(capsys, "gaudin", "hamiltonians", "--config", write_config(tmp_path, config))
    assert (code, out, err) == (2, "", "error: the spin realization needs n = 2\n")


def test_model_params_the_kind_reads_are_applied(capsys, tmp_path):
    # bcl's B does not depend on a != 0, so a = 0 is how to see that a is read
    bcl_a2 = write_config(tmp_path, dict(BCL, params={"a": "2"}), name="a2.json")
    assert run(capsys, "gaudin", "involution", "--config", bcl_a2)[0] == 0
    code, _, err = run(capsys, "gaudin", "involution", "--config",
                       write_config(tmp_path, dict(BCL, params={"a": "0"}), name="a0.json"))
    assert code == 2 and "a^2 + bc = 0" in err
    three = {"case": "three-reflection", "params": {"a": "1", "b": "3", "c": "-1", "d": "1"}, "z": ["2", "5"]}
    assert run(capsys, "gaudin", "involution", "--config", write_config(tmp_path, three, name="t.json"))[0] == 0


def test_cli_import_loads_no_numpy():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    probe = "import sys, nreflect.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
