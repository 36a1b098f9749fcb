"""Acceptance suite: one test per criterion, one printed verdict line each.

Every criterion passes on a correct pipeline.  Criteria 5, 6, 7 and 10
assert the classification the exact pipeline proves where it differs from
the classical values; each verdict line states the classical value, the
proved value and the evidence that the classical one is wrong:

  5. deg_x Q = 15 with 16 conics on every branch, not 16/17 and 18/19; the
     classical 16/17 comes from the printed quadratic display, which fails
     on y = 1/x^3 with b = 0 while the recurrence-derived display solves it;
  6. the b = 0 branch is compatible, (K1:K2:K3) = (1:0:4e^2), i.e.
     y = K/x^3; generic and c = 0 stay incompatible;
  7. so the end-to-end conclusion adds the inverse-square family and
     verify-quartic exits 1;
 10. with beta = 0 the transverse dynamics is exactly linear and the
     variational deviation is second order in delta; the first-order window
     holds for beta != 0.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from conic_oracle import common_projective_zero_exists
from forms import form_poly, form_value
from lie import lie_derivative
from quartic_nve.certify import (EXPECTED_NUM_FORMS, EXPECTED_Q_DEGREE,
                                 EXTRA_FAMILY, THEOREM_CONCLUSION, build_Q,
                                 conic_incompatibility, extract_forms,
                                 verify_quartic_theorem)
from quartic_nve.dynamics import (NumericPotential, integrate_hamilton,
                                  nve_coefficient_samples,
                                  polynomial_degree_test,
                                  variational_consistency)
from quartic_nve.jets import (alpha_jet, conditions_vanish, enk_table,
                              generate_conditions)
from quartic_nve.mpoly import MPoly, poly_gcd
from quartic_nve.odes import (BRANCHES, DERIVED_NL_WEIGHTS,
                              PUBLISHED_NL_WEIGHTS, Y_JETS, LinearODE,
                              NonlinearODE, _product, branch_system, cancel,
                              center_and_reduce, degeneration_branches,
                              rational_basis, residual,
                              specialize_quartic, solves)
from quartic_nve.potential import parse_potential

RESULTS = []


def verdict(number: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def summary():
    yield
    print("\n=== acceptance summary ===")
    for line in RESULTS:
        print(line)


@pytest.fixture(scope="module")
def pipeline():
    linear, nonlinear = specialize_quartic(generate_conditions(4))
    l2, nl2, _ = center_and_reduce(linear, nonlinear)
    out = {}
    for br in BRANCHES:
        lb, nb = branch_system(br, (l2, nl2))
        basis = rational_basis(lb, br.anchor)
        out[br.name] = (lb, nb, basis)
    return linear, nonlinear, out


def test_criterion_1_recurrence_fidelity():
    t0 = time.monotonic()
    table = enk_table(8)
    power = MPoly.var(alpha_jet(0))
    ok = True
    for n in range(1, 9):
        power = lie_derivative(power)
        for k in range(0, n + 1):
            if power.coefficient("y1", k) != table.entry(n, k):
                ok = False
        if table.entry(n, n) != MPoly.var(alpha_jet(n)):
            ok = False
        for k in range(0, n + 1):
            if (n - k) % 2 == 1 and not table.entry(n, k).is_zero:
                ok = False
    elapsed = time.monotonic() - t0
    verdict(1, ok and elapsed < 5.0,
            f"table(8) == 8 iterated Lie derivatives, diagonal and parity "
            f"rules hold (exact, {elapsed:.2f} s)")


def test_criterion_2_linear_equation_reproduction():
    x1 = MPoly.var("x1")
    b, c, d, e = (MPoly.var(v) for v in "bcde")
    linear, _ = specialize_quartic(generate_conditions(4))
    expected = LinearODE("x1", (
        MPoly.zero(), 240 * e, 240 * e * x1 + 60 * d,
        60 * e * x1 ** 2 + 30 * d * x1 + 10 * c,
        4 * e * x1 ** 3 + 3 * d * x1 ** 2 + 2 * c * x1 + b)).normalized()
    ok = linear.normalized().coeffs == expected.coeffs
    verdict(2, ok, "all four coefficient polynomials match up to one "
                   "overall nonzero constant (exact)")


def test_criterion_3_kernel_dimensions(pipeline):
    t0 = time.monotonic()
    _, _, branches = pipeline
    ok = True
    details = []
    for name, (lb, _, basis) in branches.items():
        dim_ok = basis.dimension == 3
        res_ok = all(solves(lb, num, _product(basis.factors()))
                     for num in basis.numerators)
        ok = ok and dim_ok and res_ok
        details.append(f"{name}: dim {basis.dimension}, residuals "
                       f"{'zero' if res_ok else 'NONZERO'}")
    elapsed = time.monotonic() - t0
    verdict(3, ok and elapsed < 60.0,
            "; ".join(details) + f" (exact, {elapsed:.1f} s)")


def test_criterion_4_degeneration_locus(pipeline):
    b, c, e = (MPoly.var(v) for v in "bce")
    _, _, branches = pipeline
    gen = degeneration_branches(branches["generic"][2])
    div = poly_gcd(gen.content, b ** 3 * c ** 3) == b ** 3 * c ** 3
    set_ok = [br.name for br in gen.branches] == ["b_zero", "c_zero"]
    bz = degeneration_branches(branches["b_zero"][2])
    bz_ok = [br.name for br in bz.branches] == ["c_zero"]
    cz = degeneration_branches(branches["c_zero"][2])
    top = branches["c_zero"][2].numerator_wronskian().coefficient("x", 12)
    cz_ok = cz.branches == () and top == 512 * e ** 4
    verdict(4, div and set_ok and bz_ok and cz_ok,
            f"generic content {gen.content.to_text()} divisible by b^3*c^3, "
            f"branch set {{b=0, c=0}}; b=0 degenerates only at c=0; c=0 "
            f"never degenerates (x^12 coefficient {top.to_text()})")


def nl2_from_weights(w) -> NonlinearODE:
    """The centered quadratic condition with constant weights on (y^2, y*y',
    (y')^2, y*y'') against (alpha''', alpha'', alpha', alpha'), alpha = b*x
    + c*x^2 + e*x^4.  Unnormalised, so the printed weights give the printed
    display (72 e x, 14 c + 84 e x^2, 1, 1) term by term."""
    x = MPoly.var("x")
    a1 = (MPoly.var("b") * x + MPoly.var("c") * x ** 2
          + MPoly.var("e") * x ** 4).diff("x")
    a2 = a1.diff("x")
    a3 = a2.diff("x")
    y, yp, ypp = (MPoly.var(v) for v in Y_JETS)
    return NonlinearODE("x", w[0] * a3 * y ** 2 + w[1] * a2 * y * yp
                        + w[2] * a1 * yp ** 2 + w[3] * a1 * y * ypp)


def test_criterion_5_q_structure(pipeline):
    _, _, branches = pipeline
    printed = nl2_from_weights(PUBLISHED_NL_WEIGHTS)
    measured, from_printed = {}, {}
    for br in BRANCHES:
        lb, nb, basis = branches[br.name]
        q = build_Q(nb, basis)
        forms = extract_forms(q)   # raises if reassembly is inexact
        measured[br.name] = (q.degree("x"), len(forms))
        _, nb_printed = branch_system(br, (lb, printed))
        q = build_Q(nb_printed, basis)
        from_printed[br.name] = (q.degree("x"), len(extract_forms(q)))
    proved = (EXPECTED_Q_DEGREE, EXPECTED_NUM_FORMS)
    structure_ok = (proved == (15, 16)
                    and measured == {br.name: proved for br in BRANCHES})
    # the generic (16, 17) is the paper's own figure: the same pipeline
    # reproduces it from the printed display
    printed_ok = from_printed["generic"] == (16, 17)
    # which display is right is decided by exact residuals on y = 1/x^3 at b = 0
    x, e, one = MPoly.var("x"), MPoly.var("e"), MPoly.const(1)
    derived_ok = (nl2_from_weights(DERIVED_NL_WEIGHTS).normalized()
                  == branches["generic"][1]
                  and residual(branches["b_zero"][1], one, x ** 3)[0].is_zero)
    printed_num, ((_, k),) = residual(NonlinearODE("x", printed.poly.subs({"b": 0})),
                                      one, x ** 3)
    # S / x^(3K) == -96e / x^5, cross-multiplied
    refuted = printed_num * x ** 5 == -96 * e * x ** (3 * k)
    shown, pole = cancel(printed_num, ((x, 3 * k),))
    verdict(5, structure_ok and printed_ok and derived_ok and refuted,
            f"classical deg/forms (16,17) generic, (18,19) b_zero and c_zero; "
            f"proved {proved} on every branch; measured {measured}, "
            f"reassembly exact. "
            f"Evidence: the printed weights {PUBLISHED_NL_WEIGHTS} through the "
            f"same pipeline give {from_printed}, so the generic (16,17) is the "
            f"printed display's figure; the (18,19) is not reproduced by this "
            f"clearing (denom^7, times x^7 with an x-pole) and the paper's "
            f"clearing factor is not stated. At b = 0 the printed display "
            f"leaves residual {shown.to_text()}/"
            f"{_product(pole).to_text()} on y = 1/x^3, which the "
            f"recurrence-derived weights {DERIVED_NL_WEIGHTS} solve exactly")


def test_criterion_6_incompatibility(pipeline):
    t0 = time.monotonic()
    _, _, branches = pipeline
    rng_draw = {"generic": ("b", "c", "e"), "b_zero": ("c", "e"),
                "c_zero": ("b", "e")}
    tallies, forms_by, first_point = {}, {}, {}
    witnesses_ok = True
    for name, (lb, nb, basis) in branches.items():
        forms = forms_by[name] = extract_forms(build_Q(nb, basis))
        tally = Counter()
        for trial in range(20):
            rng = random.Random(f"acc6|{name}|{trial}")
            point = {}
            for p in rng_draw[name]:
                v = 0
                while v == 0:
                    v = rng.randint(-20, 20)
                point[p] = Fraction(v)
            first_point.setdefault(name, point)
            res = conic_incompatibility(forms, point)
            tally[res.verdict] += 1
            if name == "b_zero":
                witnesses_ok &= (res.witness == (1, 0, 4 * point["e"] ** 2)
                                 and all(form_value(f, res.witness, point).is_zero
                                         for f in forms))
        tallies[name] = dict(tally)
    expected = {"generic": {"incompatible": 20}, "b_zero": {"compatible": 20},
                "c_zero": {"incompatible": 20}}

    def oracle_zero(name, point):
        sp = [form_poly(f, point) for f in forms_by[name]]
        return common_projective_zero_exists([f for f in sp if not f.is_zero])[0]

    # independent brute-force oracle: the mandated generic (1, 1, 1) plus the
    # first seeded point of each degenerate branch
    points = [("generic", {"b": 1, "c": 1, "e": 1}),
              ("b_zero", first_point["b_zero"]),
              ("c_zero", first_point["c_zero"])]
    oracle = {f"{n} ({','.join(str(v) for v in pt.values())})": oracle_zero(n, pt)
              for n, pt in points}
    oracle_ok = list(oracle.values()) == [False, True, False]
    elapsed = time.monotonic() - t0
    ok = (tallies == expected and witnesses_ok and oracle_ok
          and elapsed < 600)
    verdict(6, ok,
            f"classical: incompatible at all 20 points of every branch; "
            f"proved: {expected}; measured {tallies}. Evidence: the b_zero "
            f"witnesses (K1:K2:K3) = (1:0:4e^2), i.e. y = 1/x^3, "
            f"{'annihilate' if witnesses_ok else 'do NOT all annihilate'} "
            f"every specialised conic; the brute-force enumeration oracle "
            f"finds a common zero {oracle} ({elapsed:.1f} s)")


def test_criterion_7_theorem_end_to_end(pipeline, monkeypatch):
    cert = verify_quartic_theorem(trials=20, seed=0)
    status_ok = cert.status == "ok" and not cert.failing_stage
    by_name = {bc.branch.name: bc for bc in cert.branches}
    verdicts = {name: bc.verdict for name, bc in by_name.items()}
    verdicts_ok = verdicts == {"generic": "incompatible",
                               "b_zero": "compatible",
                               "c_zero": "incompatible"}
    _, _, branches = pipeline
    _, nb, basis = branches["b_zero"]
    forms = extract_forms(build_Q(nb, basis))
    b_trials = by_name["b_zero"].trials if "b_zero" in by_name else ()
    witnesses_ok = len(b_trials) == 20 and all(
        t.witness is not None
        and all(form_value(f, t.witness, t.params).is_zero for f in forms)
        for t in b_trials)
    # cli.py exits 0 only when the certificate matches the classical theorem
    conclusion_ok = (EXTRA_FAMILY in cert.conclusion
                     and cert.conclusion != THEOREM_CONCLUSION
                     and not cert.matches_theorem)

    import quartic_nve.certify as certify
    l2, nl2 = certify.generic_quartic_system()
    delta = MPoly.var("x") * MPoly.var("e") * MPoly.var("y") ** 2
    monkeypatch.setattr(certify, "generic_quartic_system",
                        lambda: (l2, NonlinearODE(nl2.var, nl2.poly - delta)))
    mutated = verify_quartic_theorem(trials=1, seed=0)
    mutation_detected = (mutated.status == "fail"
                         and mutated.failing_stage.startswith("q-structure["))
    verdict(7, status_ok and verdicts_ok and witnesses_ok and conclusion_ok
            and mutation_detected,
            f"classical: unanimous incompatibility, conclusion "
            f"{THEOREM_CONCLUSION!r}, exit 0; proved: b_zero compatible, "
            f"generic and c_zero incompatible, a conclusion naming the "
            f"inverse-square family, hence exit 1 under README's exit-code "
            f"contract; measured: status {cert.status}, verdicts {verdicts}, "
            f"{len(b_trials)} b_zero witnesses "
            f"{'pass' if witnesses_ok else 'FAIL'} the re-check against every "
            f"specialised conic, conclusion "
            f"{'names' if EXTRA_FAMILY in cert.conclusion else 'OMITS'} the "
            f"family; the perturbed NL2 fails at stage "
            f"{mutated.failing_stage or mutated.status}")


def test_criterion_8_numeric_forward_check():
    rng = random.Random(88)
    ok = True
    details = []
    for i in range(10):
        coeffs = [rng.randint(-3, 3) for _ in range(4)]
        coeffs.append(rng.choice([1, 2, -1, -2]))
        terms = " + ".join(f"({c})*x1^{k}" for k, c in enumerate(coeffs) if c)
        pot = NumericPotential.from_potential(
            parse_potential(f"1 + ({terms})*x2^2"))
        init = (rng.uniform(0.3, 1.2), rng.uniform(0.4, 1.4), 0.0, 0.0)
        traj = integrate_hamilton(pot, init, 1e-3, 10.0)
        drift = traj.energy_drift()
        samples = nve_coefficient_samples(traj, pot)
        ok4, res4 = polynomial_degree_test(samples, 4)
        ok3, _ = polynomial_degree_test(samples, 3)
        case_ok = drift < 1e-8 and ok4 and res4 < 1e-6 and not ok3
        ok = ok and case_ok
        if not case_ok:
            details.append(f"member {i}: drift {drift:.2e}, d4 {ok4} "
                           f"(res {res4:.2e}), d3 {ok3}")
    verdict(8, ok,
            "10 random quartic members: energy drift < 1e-8, degree-4 test "
            "passes with residual < 1e-6, degree-3 test fails"
            + ("; failures: " + "; ".join(details) if details else ""))


def test_criterion_9_symbolic_numeric_agreement():
    pot_exact = parse_potential("x1^2/2 + x1^4*x2^2")
    symbolic_nonzero = not conditions_vanish(generate_conditions(4), pot_exact.alpha,
                                             pot_exact.phi)
    pot = NumericPotential.from_potential(pot_exact)
    traj = integrate_hamilton(pot, (0.9, 0.7, 0.0, 0.0), 1e-3, 10.0)
    samples = nve_coefficient_samples(traj, pot)
    ok4, _ = polynomial_degree_test(samples, 4)
    verdict(9, symbolic_nonzero and not ok4,
            "the E(5,k) conditions do not all vanish and the numeric "
            "degree-4 test fails on a generic trajectory")


def test_criterion_10_variational_consistency():
    pot = NumericPotential.from_potential(parse_potential("1 + (x1^4+1)*x2^2"))
    e1 = variational_consistency(pot, (0.5, 1.0, 0.0, 0.0), delta=1e-5,
                                 dt=1e-3, horizon=1.0)
    e2 = variational_consistency(pot, (0.5, 1.0, 0.0, 0.0), delta=5e-6,
                                 dt=1e-3, horizon=1.0)
    ratio = e1 / e2
    cubic = NumericPotential.from_potential(
        parse_potential("1 + (x1^4+1)*x2^2 + x2^3"))
    c1 = variational_consistency(cubic, (0.5, 1.0, 0.0, 0.0), delta=1e-5,
                                 dt=1e-3, horizon=1.0)
    c2 = variational_consistency(cubic, (0.5, 1.0, 0.0, 0.0), delta=5e-6,
                                 dt=1e-3, horizon=1.0)
    cubic_ratio = c1 / c2
    ok = 3.4 <= ratio <= 4.6 and 1.5 <= cubic_ratio <= 2.5
    verdict(10, ok,
            f"classical: halving delta from 1e-5 to 5e-6 halves the error "
            f"(window [1.5, 2.5]); proved for beta = 0: second order, window "
            f"[3.4, 4.6]; measured factor {ratio:.3f}. Evidence: dV/dx2 is exactly "
            f"linear in x2, so the only deviation is the O(delta^2) "
            f"back-reaction on x1; with beta != 0 (+ x2^3) the factor is "
            f"{cubic_ratio:.3f}, inside the first-order window [1.5, 2.5]")
