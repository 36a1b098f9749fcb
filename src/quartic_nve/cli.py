"""Command-line front end.

Subcommands: conditions, classify, derive-odes, kernel, verify-quartic,
simulate (whose --degree-test runs the numeric degree test).  Every command
produces a Report that serialises to JSON ({"command", "inputs", "result",
"status"}); identical flags and seed give byte-identical output.  Exit
codes: 0 success, 1 negative verification/classification result or a
diverged trajectory, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Optional, Sequence

from .certify import NONINTEGRABILITY_NOTE, verify_quartic_theorem
from .dynamics import (NumericPotential, integrate_hamilton,
                       nve_coefficient_samples, polynomial_degree_test)
from .jets import conditions_vanish, generate_conditions
from .odes import (BRANCHES, branch_system, center_and_reduce, generic_quartic_system,
                   quotient_text, rational_basis, specialize_quartic)
from .potential import InvariantPlaneError, ParseError, parse_potential

# the kernel command's --case names of the BRANCHES rows
_CASES = dict(zip(("generic", "b0", "c0"), BRANCHES))

# a key ending in "?" names a field that only some reports carry
REPORT_SCHEMAS = {
    "conditions": {
        "result": {"degree": "int",
                   "conditions": [{"n": "int", "k": "int", "jet_poly": "canonical text"}]},
    },
    "classify": {
        "result": {"member": "bool", "phi": "text", "alpha": "text",
                   "alpha_degree": "int", "pullback_vanishes": "bool",
                   "nonintegrability_note": "cited text"},
    },
    "derive-odes": {
        "result": {"L?": {"unknown": "text", "order": "int",
                          "coefficients": ["canonical text"], "text": "equation text"},
                   "NL?": {"unknown": "text", "poly": "canonical text",
                           "text": "equation text"},
                   "L2?": {"unknown": "text", "order": "int",
                           "coefficients": ["canonical text"], "text": "equation text",
                           "centering_shift": "text"},
                   "NL2?": {"unknown": "text", "poly": "canonical text",
                            "text": "equation text"}},
    },
    "kernel": {
        "result": {"case": "|".join(_CASES), "dimension": "int",
                   "denominator": "text", "denominator_exponent": "int",
                   "extra_pole_order": "int", "numerator_degree_bound": "int",
                   "numerators": ["text"], "wronskian": "text"},
    },
    "verify-quartic": {
        "result": {"branches": [{"name": "str", "q_degree": "int",
                                 "num_equations": "int",
                                 "trials": [{"params": "map", "verdict": "str",
                                             "witness?": ["str"],
                                             "transcript_digest": "hex"}],
                                 "verdict": "str",
                                 "witness_summary?": "str"}],
                   "conclusion": "str", "theorem_form": "str",
                   "nonintegrability_note": "str", "seed": "int",
                   "status": "ok|fail", "notes": ["str"],
                   "failing_stage?": "str"},
    },
    "simulate": {
        "result": {"csv": "path", "samples": "int", "energy_drift": "float",
                   "plane_deviation": "float", "diverged": "bool",
                   "degree_test?": {"degree": "int", "pass": "bool", "residual": "float"}},
    },
}


def _report(command: str, inputs: dict, result, status: str = "ok", stage: str = "") -> dict:
    rep = {"command": command, "inputs": inputs, "result": result, "status": status}
    if stage:
        rep["stage"] = stage
    return rep


def _emit(report: dict, as_json: bool, text_lines: Optional[Sequence[str]] = None) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_lines or []:
            print(line)


def _write(path: str, dump) -> bool:
    """Call dump(fh) on path opened for writing; on an OS error print an
    error line and return False."""
    try:
        with open(path, "w", newline="") as fh:
            dump(fh)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def _cmd_conditions(args) -> int:
    if args.degree < 0:
        print("error: --degree must be non-negative", file=sys.stderr)
        return 2
    cond = generate_conditions(args.degree)
    payload = {"degree": cond.degree,
               "conditions": [{"n": n, "k": k, "jet_poly": p.to_text()}
                              for (n, k, p) in cond.conditions]}
    report = _report("conditions", {"degree": args.degree}, payload)
    lines = [f"conditions for NVE coefficient degree <= {args.degree}:"]
    lines += [f"  E({n},{k}) = {p.to_text()} = 0" for (n, k, p) in cond.conditions]
    _emit(report, args.json, lines)
    return 0


def _cmd_classify(args) -> int:
    try:
        pot = parse_potential(args.potential)
    except (ParseError, InvariantPlaneError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    vanishes = conditions_vanish(generate_conditions(4), pot.alpha, pot.phi)
    adeg = pot.alpha.degree("x1")
    member = vanishes and adeg == 4
    payload = {"member": member,
               "phi": pot.phi.to_text(),
               "alpha": pot.alpha.to_text(),
               "alpha_degree": adeg,
               "pullback_vanishes": vanishes,
               "nonintegrability_note": NONINTEGRABILITY_NOTE if member else ""}
    report = _report("classify", {"potential": args.potential}, payload)
    lines = [f"member of the quartic-NVE family: {member}",
             f"  phi = {payload['phi']}",
             f"  alpha = {payload['alpha']} (degree {adeg})",
             f"  fifth-derivative pullback vanishes: {vanishes}"]
    if member:
        lines.append(f"  note: {payload['nonintegrability_note']}")
    _emit(report, args.json, lines)
    return 0 if member else 1


def _cmd_derive_odes(args) -> int:
    wanted = [w.strip() for w in args.emit.split(",") if w.strip()]
    valid = {"L", "NL", "L2", "NL2"}
    bad = [w for w in wanted if w not in valid]
    if bad:
        print(f"error: unknown equations {bad}; choose from {sorted(valid)}", file=sys.stderr)
        return 2
    cond = generate_conditions(4)
    linear, nonlinear = specialize_quartic(cond)
    l2, nl2, mu = center_and_reduce(linear, nonlinear)
    out = {}
    if "L" in wanted:
        out["L"] = {"unknown": "phi(x1)", "order": linear.order,
                    "coefficients": [c.to_text() for c in linear.coeffs],
                    "text": linear.to_text().replace("u", "phi")}
    if "NL" in wanted:
        out["NL"] = {"unknown": "y = phi'(x1)", "poly": nonlinear.poly.to_text(),
                     "text": nonlinear.to_text()}
    if "L2" in wanted:
        out["L2"] = {"unknown": "y(x)", "order": l2.order,
                     "coefficients": [c.to_text() for c in l2.coeffs],
                     "text": l2.to_text().replace("u", "y"),
                     "centering_shift": quotient_text(*mu)}
    if "NL2" in wanted:
        out["NL2"] = {"unknown": "y(x)", "poly": nl2.poly.to_text(),
                      "text": nl2.to_text()}
    report = _report("derive-odes", {"emit": args.emit}, out)
    _emit(report, args.json, [f"{name}: {eq['text']}" for name, eq in out.items()])
    return 0


def _cmd_kernel(args) -> int:
    branch = _CASES[args.case]
    lb, _ = branch_system(branch, generic_quartic_system())
    basis = rational_basis(lb, branch.anchor)
    payload = {"case": args.case,
               "dimension": basis.dimension,
               "denominator": basis.denominator.to_text(),
               "denominator_exponent": basis.denominator_exponent,
               "extra_pole_order": basis.extra_pole_order,
               "numerator_degree_bound": basis.numerator_degree_bound,
               "numerators": [n.to_text() for n in basis.numerators],
               "wronskian": quotient_text(*basis.wronskian())}
    report = _report("kernel", {"case": args.case}, payload)
    lines = [f"case {args.case}: kernel dimension {basis.dimension}",
             f"  common denominator: "
             + (f"x^{basis.extra_pole_order} * " if basis.extra_pole_order else "")
             + f"({basis.denominator.to_text()})^{basis.denominator_exponent}"]
    lines += [f"  numerator: {n.to_text()}" for n in basis.numerators]
    lines.append(f"  wronskian: {payload['wronskian']}")
    _emit(report, args.json, lines)
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 0:
        print("error: --trials must be non-negative", file=sys.stderr)
        return 2
    cert = verify_quartic_theorem(trials=args.trials, seed=args.seed)
    payload = cert.to_json_dict()
    report = _report("verify-quartic", {"trials": args.trials, "seed": args.seed},
                     payload,
                     status="ok" if cert.status == "ok" else "fail",
                     stage=cert.failing_stage)
    if args.out and not _write(args.out,
                               lambda fh: json.dump(payload, fh, indent=2, sort_keys=True)):
        return 2
    lines = [f"status: {cert.status}" + (f" ({cert.failing_stage})" if cert.failing_stage else "")]
    for b in cert.branches:
        lines.append(f"  branch {b.branch.name}: deg_x Q = {b.q_degree}, "
                     f"{b.num_equations} conics, verdict {b.verdict}"
                     + (f" [{b.witness_summary}]" if b.witness_summary else ""))
    lines.append(f"conclusion: {cert.conclusion}")
    _emit(report, args.json, lines)
    return 0 if cert.matches_theorem else 1


def _parse_floats(text: str, n: int, what: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma-separated numbers")
    return [float(p) for p in parts]


def _write_trajectory(fh, traj) -> None:
    writer = csv.writer(fh)
    writer.writerow(["t", "x1", "y1", "x2", "y2", "H"])
    for t, s, h in zip(traj.times, traj.states, traj.energies):
        writer.writerow([repr(t)] + [repr(v) for v in s] + [repr(h)])


def _cmd_simulate(args) -> int:
    try:
        pot = parse_potential(args.potential)
        init = _parse_floats(args.init, 4, "--init")
        # checked before integrating, which costs time in proportion to --T
        if args.degree_test is not None:
            if init[2] != 0 or init[3] != 0:
                raise ValueError("--degree-test needs initial data on the invariant plane")
            if args.degree_test < 0:
                raise ValueError("degree must be non-negative")
    except (ParseError, InvariantPlaneError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    npot = NumericPotential.from_potential(pot)
    degree_test = None
    try:
        traj = integrate_hamilton(npot, init, args.dt, args.T)
        # a diverged orbit fails on its own; its truncated samples test nothing
        if args.degree_test is not None and not traj.diverged:
            ok, residual = polynomial_degree_test(
                nve_coefficient_samples(traj, npot), args.degree_test)
            degree_test = {"degree": args.degree_test, "pass": ok, "residual": residual}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {"csv": args.out or "",
               "samples": len(traj.states),
               "energy_drift": traj.energy_drift(),
               "plane_deviation": traj.max_plane_deviation(),
               "diverged": traj.diverged}
    if degree_test:
        payload["degree_test"] = degree_test
    if args.out and not _write(args.out, lambda fh: _write_trajectory(fh, traj)):
        return 2
    report = _report("simulate",
                     {"potential": args.potential, "init": args.init,
                      "dt": args.dt, "T": args.T, "out": args.out or ""},
                     payload, status="fail" if traj.diverged else "ok",
                     stage="divergence" if traj.diverged else "")
    lines = [f"samples: {payload['samples']}  energy drift: {payload['energy_drift']:.3e}"
             f"  plane deviation: {payload['plane_deviation']:.3e}"]
    if traj.diverged:
        lines.append("trajectory diverged and was truncated")
    if degree_test:
        lines.append(f"degree <= {args.degree_test} test: "
                     f"{'pass' if degree_test['pass'] else 'fail'} "
                     f"(residual {degree_test['residual']:.3e})")
    _emit(report, args.json, lines)
    return 1 if traj.diverged or (degree_test and not degree_test["pass"]) else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quartic-nve",
        description="Classify and certify invariant-plane Hamiltonians with "
                    "quartic polynomial normal variational equations.")
    ap.add_argument("--help-schema", action="store_true",
                    help="print the JSON report schemas and exit")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("conditions", help="emit the degree-d jet conditions")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_conditions)

    p = sub.add_parser("classify", help="test a potential for family membership")
    p.add_argument("--potential", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("derive-odes", help="print the specialised equations")
    p.add_argument("--emit", default="L,NL,L2,NL2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_derive_odes)

    p = sub.add_parser("kernel", help="rational solution basis per branch")
    p.add_argument("--case", choices=_CASES, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("verify-quartic", help="run the full certification pipeline")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default="",
                   help="write the certificate JSON to this path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="integrate Hamilton's equations")
    p.add_argument("--potential", required=True)
    p.add_argument("--init", required=True, help="x1,y1,x2,y2")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--out", default="", help="trajectory CSV path")
    p.add_argument("--degree-test", type=int, default=None,
                   help="test that alpha(x1(t)) has polynomial degree <= this; "
                        "needs --init x1,y1,0,0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.help_schema:
        print(json.dumps(REPORT_SCHEMAS, indent=2, sort_keys=True))
        return 0
    if not getattr(args, "command", None):
        ap.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
