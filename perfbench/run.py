"""quartic-nve benchmark: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload cold-verify|decide|numeric \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
The client sends its next operation only when the previous one has
returned, and only the call into the program is timed; input generation
and the correctness gate run outside the timed region.

  cold-verify  one op is one fresh `quartic-nve verify-quartic --trials 1
               --seed s --json` interpreter, so each op pays the whole
               derivation and no in-process cache can help.
  decide       the three conic systems are derived once during setup; one
               op is one `certify.conic_incompatibility` call on a seeded
               point of one branch, small or tall (see inputs.DECIDE_MIX).
  numeric      one op parses a seeded potential, integrates 10^4 RK4 steps,
               runs the degree-4 and degree-3 tests and one
               `variational_consistency` check of 1000 steps.

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 every input runs twice, untraced and traced; the difference is the
tracing overhead.  The last line holds the per-layer metrics, the spans go
to `.perfbench_out/`, and stderr shows the figures beside the ROADMAP
re-anchor ones.
"""

import time

T_START = time.perf_counter()  # setup_s is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 150
SETUP_PROBES = 2          # fresh interpreters that repeat the setup
DT, HORIZON = 1e-3, 10.0  # the CLI defaults of `simulate`
VARIATIONAL_HORIZON = 1.0
VARIATIONAL_DELTA = 1e-6


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Workload:
    """Setup runs in __init__.  Each workload sizes its input pool from the
    run's seconds, which caps its rate (16, 400 and 40 ops/s); a program
    that outruns the pool ends the run early, with its rate still right."""

    setup_error = None

    def after(self, tracer, index) -> None:
        """Called after each op, outside the timed region."""


class ColdVerify(Workload):
    def __init__(self, seed: int, seconds: int):
        import quartic_nve.cli  # noqa: F401  (compiles the modules the ops import)

        self.inputs = inputs.cold_verify_inputs(seed, 16 * seconds + 16)
        self.conics = gate.load_b_zero_conics()
        self.env = _child_env()
        self.spans_path = OUT / f"child-spans-{os.getpid()}.json"

    def op(self, inp, tracer):
        cli = ["verify-quartic", "--trials", "1", "--seed", str(inp["seed"]), "--json"]
        if tracer is None:
            cmd = [sys.executable, "-m", "quartic_nve.cli"] + cli
        else:
            cmd = [sys.executable, str(HERE / "shim.py"), str(self.spans_path)] + cli
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def after(self, tracer, index) -> None:
        if tracer is not None and self.spans_path.exists():
            tracer.absorb(self.spans_path, index)
            self.spans_path.unlink()

    def check(self, inp, out):
        return gate.check_verify_report(out[0], out[1], self.conics)


def derive_systems(names=None) -> dict:
    """{branch: (degeneration report, Q, conic forms)} from the public API,
    for the branches in `names` (all of them by default)."""
    from quartic_nve import certify, odes

    base = odes.generic_quartic_system()
    systems = {}
    for branch in odes.BRANCHES:
        if names is not None and branch.name not in names:
            continue
        lb, nb = odes.branch_system(branch, base)
        denom, pole = odes.ansatz_denominator(lb)
        basis = odes.rational_kernel(lb, denom, 3, pole, 8,
                                     anchor=odes.BRANCH_ANCHORS[branch.name])
        report = odes.degeneration_branches(basis)
        q = certify.build_Q(nb, basis)
        systems[branch.name] = (report, q, certify.extract_forms(q))
    return systems


class Decide(Workload):
    def __init__(self, seed: int, seconds: int):
        from quartic_nve import certify

        self.certify = certify
        self.inputs = inputs.decide_inputs(seed, 400 * seconds)
        systems = derive_systems()
        self.setup_error = gate.check_systems(systems)
        self.forms = {b: s[2] for b, s in systems.items()}
        self.conics = {b: gate.forms_data(f) for b, f in self.forms.items()}

    def op(self, inp, tracer):
        return self.certify.conic_incompatibility(self.forms[inp["branch"]], inp["point"])

    def check(self, inp, out):
        return gate.check_decision(inp, out, self.conics[inp["branch"]])


class Numeric(Workload):
    def __init__(self, seed: int, seconds: int):
        from quartic_nve import dynamics, potential

        self.dynamics, self.potential = dynamics, potential
        self.inputs = inputs.numeric_inputs(seed, 40 * seconds)

    def op(self, inp, tracer):
        dyn = self.dynamics
        npot = dyn.NumericPotential.from_potential(self.potential.parse_potential(inp["potential"]))
        traj = dyn.integrate_hamilton(npot, inp["init"], DT, HORIZON)
        samples = dyn.nve_coefficient_samples(traj, npot)
        ok4, _ = dyn.polynomial_degree_test(samples, 4)
        ok3, _ = dyn.polynomial_degree_test(samples, 3)
        variational = dyn.variational_consistency(npot, inp["init"], delta=VARIATIONAL_DELTA,
                                                  dt=DT, horizon=VARIATIONAL_HORIZON)
        return traj.energy_drift(), ok4, ok3, variational, traj.diverged

    def check(self, inp, out):
        return gate.check_numeric(inp, out)


WORKLOADS = {"cold-verify": ColdVerify, "decide": Decide, "numeric": Numeric}


def run_op(workload, index, inp, tracer, failures) -> float:
    """One op: time the call, then gate its output; returns the duration."""
    if tracer is not None:
        tracer.begin_op(index)
    start = time.perf_counter()
    try:
        out = workload.op(inp, tracer)
    except Exception as exc:  # a raising op is a failed op, not a crash
        out = exc
    end = time.perf_counter()
    if tracer is not None:
        tracer.end_op(index, start, end)
    workload.after(tracer, index)
    reason = f"raised {out!r}" if isinstance(out, Exception) else workload.check(inp, out)
    if reason:
        failures.append((index, inp, reason))
    return end - start


def run_ops(workload, seconds: float):
    """Closed loop over the workload's inputs for `seconds`.

    Returns (op durations in seconds, [(index, input, reason)] of failed ops).
    """
    durations, failures = [], []
    deadline = time.perf_counter() + seconds
    for index, inp in enumerate(workload.inputs):
        if time.perf_counter() >= deadline:
            break
        durations.append(run_op(workload, index, inp, None, failures))
    return durations, failures


def run_pairs(workload, seconds: float, tracer):
    """Each input untraced and traced, alternating which goes first, so that
    a drift in machine speed cancels out of the overhead."""
    plain, traced, failures = [], [], []
    deadline = time.perf_counter() + seconds
    for index, inp in enumerate(workload.inputs):
        if time.perf_counter() >= deadline:
            break
        for with_trace in ((False, True) if index % 2 else (True, False)):
            if with_trace:
                tracer.install()
                traced.append(run_op(workload, index, inp, tracer, failures))
                tracer.uninstall()
            else:
                plain.append(run_op(workload, index, inp, None, failures))
    return plain, traced, failures


def tail_ms(durations):
    """Highest of p99/p95/p90/p75 (nearest rank) with at least ten samples beyond it."""
    ordered = sorted(durations)
    for pct in (99, 95, 90, 75):
        rank = math.ceil(len(ordered) * pct / 100)
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1] * 1e3
    return None


def probe_setups(args) -> list:
    """Setup time of fresh interpreters that repeat this run's setup."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def report(attempted, failures, metrics, spec_key) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[spec_key]
    for index, inp, reason in failures[:20]:
        print(f"FAILED op {index}: {reason}; input {inputs.dumps(inp)}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in spec}}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="run the setup alone and print its duration")
    args = ap.parse_args(argv)
    if not (SRC / "quartic_nve" / "__init__.py").is_file():
        print(f"error: no quartic_nve package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    tracer = None
    if args.trace:
        import quartic_nve.cli  # noqa: F401  (every module, before wrapping)
        tracer = tracing.Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    setup_end = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_end - T_START}))
        return 0
    if workload.setup_error:
        print(f"FAILED setup: {workload.setup_error}", file=sys.stderr)
        return 1

    if args.trace:
        return measure_traced(args, workload, tracer, setup_end)
    return measure(args, workload, setup_end - T_START)


def end_to_end_metrics(durations, failures, setups, peak_rss_mb) -> dict:
    return {
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "correct_ratio": (len(durations) - len(failures)) / len(durations),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }


def measure(args, workload, setup_s: float) -> int:
    setups = [setup_s] + probe_setups(args)
    durations, failures = run_ops(workload, args.seconds)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cold-verify"
                               else resource.RUSAGE_SELF)
    metrics = end_to_end_metrics(durations, failures, setups, usage.ru_maxrss / 1024.0)
    tail = tail_ms(durations)
    print(f"{args.workload} seed {args.seed}: {len(durations)} ops, "
          f"p50 {metrics['op_p50_ms']:.1f} ms, "
          + (f"p{tail[0]} {tail[1]:.1f} ms" if tail else "tail n/a (too few ops)")
          + f", setups {['%.3f' % s for s in setups]} s", file=sys.stderr)
    return report(len(durations), failures, metrics, "end_to_end")


def measure_traced(args, workload, tracer, setup_end: float) -> int:
    tracer.end_op("setup", T_START, setup_end)
    tracer.uninstall()
    plain, traced, failures = run_pairs(workload, args.seconds, tracer)
    overhead = 100.0 * (sum(traced) - sum(plain)) / sum(plain)
    metrics = tracing.summarize(tracer, overhead)
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
    tracer.dump(trace_path, workload=args.workload, seed=args.seed, metrics=metrics,
                op_walls={str(k): v for k, v in tracer.op_walls.items()})
    print(f"{args.workload} seed {args.seed}: {len(plain)} ops untraced, "
          f"{len(traced)} traced; tracing overhead {overhead:.1f}%; spans in {trace_path}",
          file=sys.stderr)
    print("\n".join(tracing.reanchor_lines(metrics)), file=sys.stderr)
    return report(len(plain) + len(traced), failures, metrics, "per_layer")


if __name__ == "__main__":
    sys.exit(main())
