"""Tests of the benchmark itself: seeded inputs, the correctness gate, the
known-answer table and the metric lists and limits of BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import collections
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_gives_identical_inputs(workload):
    gen = inputs.GENERATORS[workload]
    first = inputs.dumps(gen(7, 64)).encode()
    assert first == inputs.dumps(gen(7, 64)).encode()
    assert inputs.dumps(gen(7, 10)) == inputs.dumps(gen(7, 64)[:10])
    assert first != inputs.dumps(gen(8, 64)).encode()


def test_decide_inputs_follow_the_mix_and_tiers():
    mix = collections.Counter(inputs.DECIDE_MIX)
    for tier in ("small", "tall"):
        assert len({mix[(branch, tier)] for branch in inputs.BRANCH_PARAMS}) == 1
    assert mix[("generic", "small")] == 3 * mix[("generic", "tall")]
    for inp, (branch, tier) in zip(inputs.decide_inputs(3, 24), inputs.DECIDE_MIX * 2):
        assert (inp["branch"], inp["tier"]) == (branch, tier)
        assert sorted(inp["point"]) == sorted(inputs.BRANCH_PARAMS[branch])
        values = inp["point"].values()
        if tier == "small":
            assert all(v.denominator == 1 and 0 < abs(v) <= 20 for v in values)
        else:
            assert all(max(abs(v.numerator), v.denominator) > 10 ** 4 for v in values)
            assert inp["point"]["e"].denominator == 1


def test_b_zero_table_matches_the_derivation():
    forms = run.derive_systems(["b_zero"])["b_zero"][2]
    assert gate.forms_data(forms) == gate.load_b_zero_conics()


def test_witness_check_needs_every_conic_to_vanish():
    conics = gate.load_b_zero_conics()
    point = {"c": Fraction(3), "e": Fraction(-5)}
    assert gate.check_witness(conics, point, [1, 0, 100]) is None
    assert gate.check_witness(conics, point, [2, 0, 200]) is None
    assert gate.check_witness(conics, point, [1, 0, 101]) is not None
    assert gate.check_witness(conics, point, None) is not None


def test_flipped_b_zero_verdict_drives_correct_ratio_below_one(monkeypatch):
    from quartic_nve import certify

    workload = run.Decide(seed=5, seconds=1)
    honest = certify.conic_incompatibility

    def flipped(forms, point):
        result = honest(forms, point)
        if "b" not in point:
            result = dataclasses.replace(result, verdict="incompatible", witness=None)
        return result

    monkeypatch.setattr(certify, "conic_incompatibility", flipped)
    workload.inputs = workload.inputs[:len(inputs.DECIDE_MIX)]
    durations, failures = run.run_ops(workload, seconds=60)
    metrics = run.end_to_end_metrics(durations, failures, [1.0], 1.0)
    assert metrics["correct_ratio"] < 1
    assert {inp["branch"] for _, inp, _ in failures} == {"b_zero"}


def test_verify_gate_rejects_a_flipped_b_zero_verdict():
    from quartic_nve import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["verify-quartic", "--trials", "1", "--seed", "3", "--json"])
    conics = gate.load_b_zero_conics()
    assert gate.check_verify_report(code, buf.getvalue(), conics) is None
    report = json.loads(buf.getvalue())
    b_zero = report["result"]["branches"][1]
    b_zero["verdict"] = b_zero["trials"][0]["verdict"] = "incompatible"
    assert gate.check_verify_report(code, json.dumps(report), conics) is not None
    assert gate.check_verify_report(0, buf.getvalue(), conics) is not None


def test_numeric_gate_matches_each_kind():
    member = {"kind": "member"}
    assert gate.check_numeric(member, (0.0, True, False, 1e-9, False)) is None
    assert gate.check_numeric(member, (0.0, True, True, 1e-9, False)) is not None
    assert gate.check_numeric(member, (1e-6, True, False, 1e-9, False)) is not None
    assert gate.check_numeric(member, (0.0, True, False, 5e-2, False)) is not None
    assert gate.check_numeric({"kind": "beta_member"}, (0.0, True, False, 5e-2, False)) is None
    assert gate.check_numeric({"kind": "non_member"}, (0.0, True, False, 1e-9, False)) is not None


def test_result_lists_match_benchmark_json():
    e2e = run.end_to_end_metrics([0.1, 0.2], [], [1.0], 1.0)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(e2e)
    per_layer = tracing.summarize(tracing.Tracer(), 0.0)
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(per_layer)


def test_benchmark_json_within_its_limits():
    assert SPEC["run_seconds"] in range(1, 61)
    assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable] + SPEC["command"][1:]
                          + ["--workload", "numeric", "--seed", "1", "--seconds", "1",
                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
