"""Correctness gate: every operation's output against a known answer.

Each check returns None when the output is right and a one-line reason
otherwise.  Exact checks evaluate polynomials here, in `Fraction`s, from
the raw (variables, terms) data, so a wrong witness cannot pass through the
program's own evaluation code.

The known answers:
  * generic and c_zero are incompatible, b_zero is compatible with the
    witness (K1:K2:K3) = (1:0:4e^2);
  * on every branch deg_x Q = 15 with 16 conics;
  * `verify-quartic` exits 1 with status ok, since the pipeline refutes the
    classical conclusion on b = 0;
  * members pass the degree-4 test and fail the degree-3 test with energy
    drift below 1e-8; non-members fail the degree-4 test; without an x2^3
    term the variational deviation stays below 1e-3.

`b_zero_conics.json` holds the 16 b = 0 conics as polynomials in (c, e);
`test_perfbench.py` re-derives them.  Regenerate with
`PYTHONPATH=src python3 perfbench/gate.py`.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

EXPECTED_VERDICTS = {"generic": "incompatible", "b_zero": "compatible",
                     "c_zero": "incompatible"}
EXPECTED_DEGENERATIONS = {"generic": ("b_zero", "c_zero"), "b_zero": ("c_zero",),
                          "c_zero": ()}
EXPECTED_Q_DEGREE = 15
EXPECTED_CONICS = 16
DRIFT_LIMIT = 1e-8
# Without an x2^3 term the transverse flow is linear in x2, so the NVE
# matches it up to O(delta); the module tests bound the deviation by 1e-3.
# With beta != 0 the deviation is first order and has no fixed bound.
VARIATIONAL_LIMIT = 1e-3

CONICS_FILE = Path(__file__).with_name("b_zero_conics.json")

# A polynomial as plain data: (variable names, [(exponents, coefficient)]).
Poly = Tuple[Tuple[str, ...], List[Tuple[Tuple[int, ...], Fraction]]]


def poly_data(p) -> Poly:
    """Plain data of an MPoly, read from its attributes."""
    return tuple(p.vars), [(tuple(e), Fraction(c)) for e, c in p.terms.items()]


def forms_data(forms) -> List[List[List[Poly]]]:
    return [[[poly_data(m) for m in row] for row in f.matrix] for f in forms]


def evaluate(poly: Poly, point: Dict[str, Fraction]) -> Fraction:
    names, terms = poly
    total = Fraction(0)
    for exps, coeff in terms:
        term = coeff
        for name, k in zip(names, exps):
            if k:
                term *= point[name] ** k
        total += term
    return total


def conic_value(matrix: Sequence[Sequence[Poly]], point: Dict[str, Fraction],
                k: Sequence[Fraction]) -> Fraction:
    return sum(evaluate(matrix[i][j], point) * k[i] * k[j]
               for i in range(3) for j in range(3))


def x_degree(q) -> int:
    names, terms = poly_data(q)
    if "x" not in names:
        return 0
    i = names.index("x")
    return max(e[i] for e, _ in terms)


def load_b_zero_conics() -> List[List[List[Poly]]]:
    raw = json.loads(CONICS_FILE.read_text())
    return [[[(tuple(entry["vars"]),
               [(tuple(e), Fraction(c)) for e, c in entry["terms"]])
              for entry in row] for row in conic] for conic in raw["conics"]]


def dump_b_zero_conics(conics) -> str:
    rows = [json.dumps([[{"vars": list(names), "terms": [[list(e), str(c)] for e, c in terms]}
                         for names, terms in row] for row in conic], sort_keys=True)
            for conic in conics]
    return '{"conics": [\n' + ",\n".join(rows) + "\n]}\n"


def check_witness(conics, point: Dict[str, Fraction],
                  witness: Optional[Sequence[Fraction]]) -> Optional[str]:
    """The b = 0 witness is (1:0:4e^2) and annihilates every conic."""
    if witness is None:
        return "compatible verdict without a witness"
    w = [Fraction(v) for v in witness]
    if w[0] == 0 or w[1] != 0 or w[2] != 4 * point["e"] ** 2 * w[0]:
        return f"witness {w} is not proportional to (1:0:4e^2)"
    for idx, conic in enumerate(conics):
        if conic_value(conic, point, w) != 0:
            return f"witness {w} does not annihilate conic {idx}"
    return None


def check_systems(systems: Dict[str, tuple]) -> Optional[str]:
    """Structure of the derived systems: {branch: (degeneration report, Q, forms)}."""
    for branch, (report, q, forms) in systems.items():
        got = tuple(b.name for b in report.branches)
        if got != EXPECTED_DEGENERATIONS[branch] or not report.complete:
            return f"{branch}: degeneration branches {got}, complete={report.complete}"
        if x_degree(q) != EXPECTED_Q_DEGREE or len(forms) != EXPECTED_CONICS:
            return f"{branch}: deg_x Q = {x_degree(q)} with {len(forms)} conics"
    return None


def check_decision(inp: Dict, result, conics) -> Optional[str]:
    branch = inp["branch"]
    if result.verdict != EXPECTED_VERDICTS[branch]:
        return f"{branch}: verdict {result.verdict}, expected {EXPECTED_VERDICTS[branch]}"
    if branch == "b_zero":
        return check_witness(conics, inp["point"], result.witness)
    return None


def check_verify_report(returncode: int, stdout: str, conics) -> Optional[str]:
    """`verify-quartic --trials 1 --json`: exit 1, status ok, known verdicts."""
    if returncode != 1:
        return f"exit code {returncode}, expected 1"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    result = report.get("result", {})
    if report.get("status") != "ok" or result.get("status") != "ok":
        return f"status {report.get('status')}/{result.get('status')}, expected ok"
    branches = result.get("branches", [])
    names = [b.get("name") for b in branches]
    if names != list(EXPECTED_VERDICTS):
        return f"branches {names}"
    for b in branches:
        name = b["name"]
        if b.get("q_degree") != EXPECTED_Q_DEGREE or b.get("num_equations") != EXPECTED_CONICS:
            return f"{name}: deg_x Q = {b.get('q_degree')} with {b.get('num_equations')} conics"
        trials = b.get("trials", [])
        if len(trials) != 1:
            return f"{name}: {len(trials)} trials, expected 1"
        if b.get("verdict") != EXPECTED_VERDICTS[name] or trials[0].get("verdict") != EXPECTED_VERDICTS[name]:
            return f"{name}: verdict {b.get('verdict')}, expected {EXPECTED_VERDICTS[name]}"
        if name == "b_zero":
            point = {k: Fraction(v) for k, v in trials[0]["params"].items()}
            witness = trials[0].get("witness")
            err = check_witness(conics, point, witness and [Fraction(v) for v in witness])
            if err:
                return f"b_zero at {trials[0]['params']}: {err}"
    return None


def check_numeric(inp: Dict, out: Tuple) -> Optional[str]:
    drift, ok4, ok3, variational, diverged = out
    if diverged:
        return "trajectory diverged"
    if not math.isfinite(variational) or (inp["kind"] != "beta_member"
                                          and variational >= VARIATIONAL_LIMIT):
        return f"variational deviation {variational:.3e}"
    if inp["kind"] == "non_member":
        return "degree-4 test passed on a non-member" if ok4 else None
    if not ok4 or ok3:
        return f"member: degree-4 test {ok4}, degree-3 test {ok3}"
    if not drift < DRIFT_LIMIT:
        return f"member: energy drift {drift:.3e}"
    return None


if __name__ == "__main__":
    import run

    CONICS_FILE.write_text(dump_b_zero_conics(forms_data(
        run.derive_systems(["b_zero"])["b_zero"][2])))
