"""Command-line interface: exit codes, JSON reports, determinism."""

import csv
import json
import os
import pathlib
import subprocess
import sys

import pytest

import quartic_nve
from quartic_nve import odes
from quartic_nve.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _src_env():
    """The environment with this package's source tree first on PYTHONPATH."""
    src = str(pathlib.Path(quartic_nve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestConditions:
    def test_quartic(self, capsys):
        code, out = run(capsys, "conditions", "--degree", "4")
        assert code == 0
        assert out.count("E(5,") == 3

    def test_constant(self, capsys):
        code, out = run(capsys, "conditions", "--degree", "0")
        assert code == 0
        assert "E(1,1) = alpha1" in out

    def test_negative_degree_usage_error(self, capsys):
        code, _ = run(capsys, "conditions", "--degree", "-1")
        assert code == 2

    def test_json_schema_fields(self, capsys):
        code, out = run(capsys, "conditions", "--degree", "4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "ok"
        assert [c["k"] for c in data["result"]["conditions"]] == [5, 3, 1]


class TestClassify:
    def test_member(self, capsys):
        code, out = run(capsys, "classify", "--potential", "1 + (x1^4+x1)*x2^2")
        assert code == 0
        assert "True" in out

    def test_nonmember_nonconstant_phi(self, capsys):
        code, _ = run(capsys, "classify", "--potential", "x1^2/2 + x1^4*x2^2")
        assert code == 1

    def test_degree_mismatch(self, capsys):
        # pullback vanishes but alpha has degree 1, not 4
        code, out = run(capsys, "classify", "--potential", "x2^2*x1", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["result"]["pullback_vanishes"] is True
        assert data["result"]["alpha_degree"] == 1
        assert data["result"]["member"] is False

    def test_parse_error_is_usage_error(self, capsys):
        code, _ = run(capsys, "classify", "--potential", "x1^(-1)")
        assert code == 2

    def test_invariant_violation_is_usage_error(self, capsys):
        code, _ = run(capsys, "classify", "--potential", "x2")
        assert code == 2

    @pytest.mark.parametrize("command", [["classify"],
                                         ["simulate", "--init", "1,0,0,0", "--T", "0.01"]])
    def test_deep_nesting_is_usage_error(self, capsys, command):
        deep = "(" * 2000 + "x1" + ")" * 2000
        code = main(command + ["--potential", deep])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: parentheses nested deeper than")
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["classify"], ["simulate", "--init", "1,0,0,0"]])
    def test_non_ascii_digit_is_usage_error(self, capsys, command):
        # str.isdigit accepts a superscript two and int() does not; the
        # tokenizer reads ASCII digits only
        code = main(command + ["--potential", "2\u00b2*x2^2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: unexpected character '\u00b2' (at position 1)\n"
        assert captured.out == ""

    def test_nesting_limit_parses(self, capsys):
        from quartic_nve.potential import MAX_NESTING
        nested = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
        code, out = run(capsys, "classify", "--potential", f"1 + {nested}*x2^2", "--json")
        assert code == 1
        assert json.loads(out)["result"]["alpha"] == "-2*x1"


class TestDeriveOdes:
    def test_emits_all(self, capsys):
        code, out = run(capsys, "derive-odes", "--emit", "L,NL,L2,NL2")
        assert code == 0
        for name in ("L:", "NL:", "L2:", "NL2:"):
            assert name in out

    def test_unknown_equation(self, capsys):
        code, _ = run(capsys, "derive-odes", "--emit", "L5")
        assert code == 2

    def test_centering_shift_text(self, capsys):
        code, out = run(capsys, "derive-odes", "--json")
        assert code == 0
        assert json.loads(out)["result"]["L2"]["centering_shift"] == "(-1/4*d) / (e)"


# the basis Wronskian as printed: numerator over the expanded denominator,
# both scaled so that the denominator's leading coefficient is 1
WRONSKIAN_TEXT = {
    "generic": "(81/512*b^3*c^3) / (x^15*e^5 + 5/2*x^13*c*e^4 + 5/4*x^12*b*e^4"
               " + 5/2*x^11*c^2*e^3 + 5/2*x^10*b*c*e^3 + 5/8*x^9*b^2*e^3"
               " + 5/4*x^9*c^3*e^2 + 15/8*x^8*b*c^2*e^2 + 15/16*x^7*b^2*c*e^2"
               " + 5/16*x^7*c^4*e + 5/32*x^6*b^3*e^2 + 5/8*x^6*b*c^3*e"
               " + 15/32*x^5*b^2*c^2*e + 1/32*x^5*c^5 + 5/32*x^4*b^3*c*e"
               " + 5/64*x^4*b*c^4 + 5/256*x^3*b^4*e + 5/64*x^3*b^2*c^3"
               " + 5/128*x^2*b^3*c^2 + 5/512*x*b^4*c + 1/1024*b^5)",
    "b0": "(9/8*c) / (x^15*e^5 + 5/2*x^13*c*e^4 + 5/2*x^11*c^2*e^3"
          " + 5/4*x^9*c^3*e^2 + 5/16*x^7*c^4*e + 1/32*x^5*c^5)",
    "c0": "(1/512) / (x^15*e^5 + 5/4*x^12*b*e^4 + 5/8*x^9*b^2*e^3"
          " + 5/32*x^6*b^3*e^2 + 5/256*x^3*b^4*e + 1/1024*b^5)",
}


class TestKernel:
    @pytest.mark.parametrize("case,dim", [("generic", 3), ("b0", 3), ("c0", 3)])
    def test_dimensions(self, capsys, case, dim):
        code, out = run(capsys, "kernel", "--case", case, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["result"]["dimension"] == dim
        assert len(data["result"]["numerators"]) == dim

    @pytest.mark.parametrize("case", ["generic", "b0", "c0"])
    def test_wronskian_text(self, capsys, case):
        code, out = run(capsys, "kernel", "--case", case, "--json")
        assert code == 0
        assert json.loads(out)["result"]["wronskian"] == WRONSKIAN_TEXT[case]


class TestVerify:
    def test_honest_run_exits_nonzero(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, out = run(capsys, "verify-quartic", "--trials", "2", "--seed", "0",
                        "--out", str(out_path))
        # the b = 0 branch is compatible, so the classical conclusion fails
        assert code == 1
        assert "compatible" in out
        data = json.loads(out_path.read_text())
        assert {b["name"]: b["verdict"] for b in data["branches"]} == {
            "generic": "incompatible", "b_zero": "compatible",
            "c_zero": "incompatible"}

    def test_zero_trials(self, capsys):
        code, _ = run(capsys, "verify-quartic", "--trials", "0")
        assert code == 1

    def test_negative_trials_usage_error(self, capsys):
        code = main(["verify-quartic", "--trials", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_degree_bound_too_small_fails_at_kernel(self, capsys, monkeypatch):
        # a numerator bound below the derived 6 leaves one kernel vector
        derive = odes.derive_ansatz
        monkeypatch.setattr(odes, "derive_ansatz",
                            lambda ode: derive(ode)._replace(numerator_degree_bound=4))
        code, out = run(capsys, "verify-quartic", "--trials", "1", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["status"] == "fail"
        assert data["stage"] == "kernel[generic]"
        assert data["result"]["failing_stage"] == "kernel[generic]"
        assert "kernel dimension 1" in data["result"]["conclusion"]
        schema = quartic_nve.cli.REPORT_SCHEMAS["verify-quartic"]["result"]
        assert _schema_mismatches(data["result"], schema) == []

    def test_json_flag_with_path(self, capsys, tmp_path):
        out_path = tmp_path / "cert2.json"
        code, out = run(capsys, "verify-quartic", "--trials", "1",
                        "--json", "--out", str(out_path))
        assert code == 1
        report = json.loads(out)
        assert report["command"] == "verify-quartic"
        assert json.loads(out_path.read_text()) == report["result"]

    def test_json_takes_no_path(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify-quartic", "--trials", "1", "--json", str(tmp_path / "c.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "c.json").exists()

    def test_deterministic_json(self, capsys):
        _, out1 = run(capsys, "verify-quartic", "--trials", "1", "--seed", "3", "--json")
        _, out2 = run(capsys, "verify-quartic", "--trials", "1", "--seed", "3", "--json")
        assert out1 == out2
        _, out3 = run(capsys, "verify-quartic", "--trials", "1", "--seed", "4", "--json")
        d1, d3 = json.loads(out1), json.loads(out3)
        t1 = d1["result"]["branches"][0]["trials"][0]["params"]
        t3 = d3["result"]["branches"][0]["trials"][0]["params"]
        assert t1 != t3
        assert d1["result"]["conclusion"] == d3["result"]["conclusion"]


class TestSimulate:
    def test_on_plane_csv(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _ = run(capsys, "simulate", "--potential", "x1^2/2 + (x1^4+1)*x2^2",
                      "--init", "1,0,0,0", "--dt", "1e-3", "--T", "1",
                      "--out", str(out_path))
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x1", "y1", "x2", "y2", "H"]
        assert len(rows) == 1002
        assert all(float(r[3]) == 0.0 for r in rows[1:])

    def test_member_degree_test(self, capsys):
        code, _ = run(capsys, "simulate", "--potential", "1 + (x1^4+1)*x2^2",
                      "--init", "0.5,1,0,0", "--T", "10", "--degree-test", "4")
        assert code == 0
        code, _ = run(capsys, "simulate", "--potential", "1 + (x1^4+1)*x2^2",
                      "--init", "0.5,1,0,0", "--T", "10", "--degree-test", "3")
        assert code == 1

    def test_bad_init(self, capsys):
        code, _ = run(capsys, "simulate", "--potential", "1", "--init", "1,2,3")
        assert code == 2

    def test_zero_step_usage_error(self, capsys):
        code = main(["simulate", "--potential", "1 + (x1^4+1)*x2^2",
                     "--init", "0.5,1,0,0", "--dt", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_short_degree_test_usage_error_writes_no_csv(self, capsys, tmp_path):
        out_path = tmp_path / "short.csv"
        code = main(["simulate", "--potential", "1 + (x1^4+1)*x2^2",
                     "--init", "0.5,1,0,0", "--T", "0.001", "--degree-test", "4",
                     "--out", str(out_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out_path.exists()

    @pytest.mark.parametrize("potential", ["-x1^4 + (x1^4+1)*x2^2",
                                           "-x1^6 + (x1^4+1)*x2^2"])
    def test_diverged_orbit_fails_without_degree_test(self, capsys, potential):
        argv = ["simulate", "--potential", potential, "--init", "1,1,0,0",
                "--T", "10", "--degree-test", "4"]
        code, out = run(capsys, *argv)
        assert code == 1
        assert "trajectory diverged and was truncated" in out
        assert "degree <=" not in out
        code, out = run(capsys, *argv, "--json")
        assert code == 1
        data = json.loads(out)
        assert (data["status"], data["stage"]) == ("fail", "divergence")
        assert data["result"]["diverged"] is True
        assert "degree_test" not in data["result"]

    # the last three are finite, but horizon / dt overflows the step count
    # limit: 1e300 steps would all be integrated and kept
    @pytest.mark.parametrize("flag, value", [("--T", "inf"), ("--T", "nan"),
                                             ("--dt", "nan"), ("--dt", "inf"),
                                             ("--init", "1,0,0,nan"),
                                             ("--init", "inf,0,0,0"),
                                             ("--dt", "5e-324"), ("--T", "1e308"),
                                             ("--dt", "1e-300")])
    def test_non_finite_input_usage_error(self, capsys, flag, value):
        args = {"--init": "1,0,0,0", "--dt": "1e-3", "--T": "1"}
        args[flag] = value
        code = main(["simulate", "--potential", "x1^2+x2^2"]
                    + [item for pair in args.items() for item in pair])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


def degree_test(potential, degree, x1y1, *extra):
    """argv of the numeric degree test from the plane point x1y1 = "x1,y1"."""
    return ["simulate", "--potential", potential, "--init", x1y1 + ",0,0",
            "--degree-test", str(degree)] + list(extra)


class TestDegreeTest:
    """`simulate --degree-test` from a point of the invariant plane."""

    def test_member_passes(self, capsys):
        code, out = run(capsys, *degree_test("1 + (x1^4+1)*x2^2", 4, "0.4,1.1", "--json"))
        assert code == 0
        data = json.loads(out)
        assert data["result"]["degree_test"]["pass"] is True
        assert data["result"]["degree_test"]["residual"] < 1e-6

    def test_too_short_horizon_usage_error(self, capsys):
        code = main(degree_test("1 + (x1^4+1)*x2^2", 4, "0.4,1.1", "--T", "0.001"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_degree_usage_error(self, capsys):
        # also on an orbit that diverges, where no degree test runs
        for potential, x1y1 in [("1 + (x1^4+1)*x2^2", "0.4,1.1"),
                                ("-x1^6 + (x1^4+1)*x2^2", "1,1")]:
            code = main(degree_test(potential, -1, x1y1, "--T", "1"))
            assert code == 2
            assert capsys.readouterr().err == "error: degree must be non-negative\n"

    @pytest.mark.parametrize("init, degree, message", [
        ("0.4,1.1,0,0", "-1", "degree must be non-negative"),
        ("0.4,1.1,0.1,0", "4", "--degree-test needs initial data on the invariant plane")])
    def test_bad_request_rejected_before_integrating(self, capsys, monkeypatch,
                                                     init, degree, message):
        import quartic_nve.cli as cli

        def integrate(*args):
            raise AssertionError("integrated before checking --degree-test")

        monkeypatch.setattr(cli, "integrate_hamilton", integrate)
        assert main(["simulate", "--potential", "1 + (x1^4+1)*x2^2", "--init", init,
                     "--degree-test", degree]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_nonmember_fails(self, capsys):
        code, out = run(capsys, *degree_test("x1^2/2 + x1^4*x2^2", 4, "0.9,0.7"))
        assert code == 1
        assert "degree <= 4 test: fail" in out
        assert "diverged" not in out

    @pytest.mark.parametrize("flag, value", [("--T", "inf"), ("--dt", "nan"),
                                             ("--init", "nan,1")])
    def test_non_finite_input_usage_error(self, capsys, flag, value):
        args = {"--init": "0.4,1.1", "--dt": "1e-3", "--T": "1"}
        args[flag] = value
        x1y1 = args.pop("--init")
        code = main(degree_test("1 + (x1^4+1)*x2^2", 4, x1y1,
                                *[item for pair in args.items() for item in pair]))
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", [["kernel", "--case", "b0"],
                                     ["verify-quartic", "--trials", "1"]])
def test_degree_bound_option_is_gone(capsys, command):
    # the ansatz is derived from L2, so there is no bound to set
    with pytest.raises(SystemExit) as exc:
        main(command + ["--degree-bound", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --degree-bound 8" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-quartic", "--trials", "1"],
    ["simulate", "--potential", "1 + (x1^4+1)*x2^2", "--init", "0.5,1,0,0", "--T", "0.01"],
])
def test_unwritable_out_usage_error(capsys, tmp_path, argv):
    out_path = tmp_path / "missing" / "out"
    code = main(argv + ["--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {out_path}:")
    assert captured.out == ""
    assert not out_path.parent.exists()


def test_help_schema(capsys):
    code, out = run(capsys, "--help-schema")
    assert code == 0
    schemas = json.loads(out)
    assert set(schemas) == {"conditions", "classify", "derive-odes", "kernel",
                            "verify-quartic", "simulate"}


def _schema_mismatches(value, schema, path="result"):
    """Paths where a report's keys differ from its schema; a schema key
    ending in "?" may be absent, and a string schema accepts any value."""
    if isinstance(schema, list):
        return [m for i, item in enumerate(value)
                for m in _schema_mismatches(item, schema[0], f"{path}[{i}]")]
    if not isinstance(schema, dict):
        return []
    fields = {k.rstrip("?"): sub for k, sub in schema.items()}
    required = {k for k in schema if not k.endswith("?")}
    out = [f"{path}: unexpected key {k}" for k in sorted(set(value) - set(fields))]
    out += [f"{path}: missing key {k}" for k in sorted(required - set(value))]
    return out + [m for k in sorted(set(value) & set(fields))
                  for m in _schema_mismatches(value[k], fields[k], f"{path}.{k}")]


@pytest.mark.parametrize("argv", [
    ["conditions", "--degree", "4", "--json"],
    ["classify", "--potential", "1 + (x1^4+x1)*x2^2", "--json"],
    ["derive-odes", "--json"],
    ["kernel", "--case", "b0", "--json"],
    ["verify-quartic", "--trials", "1", "--json"],
    ["verify-quartic", "--trials", "0", "--json"],
    ["simulate", "--potential", "1 + (x1^4+1)*x2^2", "--init", "0.5,1,0,0",
     "--T", "1", "--degree-test", "4", "--json"],
    ["simulate", "--potential", "-x1^4 + (x1^4+1)*x2^2", "--init", "1,1,0,0",
     "--degree-test", "4", "--json"],
])
def test_reports_match_their_schema(capsys, argv):
    from quartic_nve.cli import REPORT_SCHEMAS
    _, out = run(capsys, *argv)
    report = json.loads(out)
    assert report["command"] == argv[0]
    assert _schema_mismatches(report["result"], REPORT_SCHEMAS[argv[0]]["result"]) == []


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv, exit_code", [
    ("verify_trials20_seed0.json",
     ["verify-quartic", "--trials", "20", "--seed", "0", "--json"], 1),
    ("kernel_generic.json", ["kernel", "--case", "generic", "--json"], 0),
    ("kernel_b0.json", ["kernel", "--case", "b0", "--json"], 0),
    ("kernel_c0.json", ["kernel", "--case", "c0", "--json"], 0),
])
def test_golden_stdout(capsys, name, argv, exit_code):
    """Byte-for-byte stdout, transcript digests included."""
    code, out = run(capsys, *argv)
    assert code == exit_code
    assert out == (GOLDEN / name).read_text()


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_degree_test_command_is_gone(capsys):
    # the numeric degree test runs through simulate --degree-test
    with pytest.raises(SystemExit) as exc:
        main(["degree-test", "--potential", "1 + (x1^4+1)*x2^2", "--degree", "4",
              "--init", "0.4,1.1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "degree-test" in err


STARTUP_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now fails
import quartic_nve.cli as cli

facts = {}
for argv in (["conditions", "--degree", "4"],
             ["classify", "--potential", "1 + (x1^4+x1)*x2^2"],
             ["derive-odes", "--emit", "L2,NL2"],
             ["kernel", "--case", "b0", "--json"],
             ["verify-quartic", "--trials", "1", "--seed", "0", "--json"],
             ["simulate", "--potential", "1 + (x1^4+1)*x2^2", "--init", "0.5,1,0,0",
              "--T", "1", "--degree-test", "4", "--out", sys.argv[1]]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    facts[argv[0]] = [code, sys.modules.get("numpy") is not None]
facts["dynamics imported"] = "quartic_nve.dynamics" in sys.modules
print(json.dumps(facts))
"""


def test_exact_commands_never_import_numpy(tmp_path):
    """Every command, simulate included, runs with numpy unimportable; the
    CLI still imports quartic_nve.dynamics (tracers look it up in
    sys.modules)."""
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(tmp_path / "traj.csv")],
                          env=_src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)
    for command in ("conditions", "classify", "derive-odes", "kernel", "verify-quartic"):
        code, numpy_loaded = facts[command]
        assert code in (0, 1), (command, code)
        assert not numpy_loaded, f"{command} imported numpy"
    assert facts["dynamics imported"]
    assert facts["simulate"] == [0, False]
    assert (tmp_path / "traj.csv").read_text().count("\n") == 1002


IMPORT_PROBE = """
import json, sys
import quartic_nve.cli
print(json.dumps(sorted(sys.modules)))
"""


def test_cli_import_loads_every_module_and_no_dataclasses():
    """`import quartic_nve.cli` loads all seven modules, which tracers look
    up in sys.modules, and none of the introspection machinery that
    `dataclasses` pulls in."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {"dataclasses", "inspect"}
    modules = ("certify", "dynamics", "jets", "linsolve", "mpoly", "odes", "potential")
    assert {f"quartic_nve.{m}" for m in modules} <= loaded
