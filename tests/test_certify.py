"""Conic extraction, incompatibility verdicts, end-to-end certificates."""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from conic_oracle import common_projective_zero_exists
from forms import form_poly, form_value
from quartic_nve.certify import (EXPECTED_NUM_FORMS, EXPECTED_Q_DEGREE,
                                 IncompatibilityResult,
                                 THEOREM_CONCLUSION, build_Q,
                                 conic_incompatibility, extract_forms,
                                 verify_quartic_theorem)
from quartic_nve.jets import generate_conditions
from quartic_nve.mpoly import MPoly
from quartic_nve.odes import (BRANCHES, Branch, NonlinearODE, _product,
                              branch_system, center_and_reduce,
                              rational_basis, solves,
                              specialize_quartic)

x = MPoly.var("x")
b, c, e = (MPoly.var(v) for v in "bce")
K1, K2, K3 = (MPoly.var(k) for k in ("K1", "K2", "K3"))


@pytest.fixture(scope="module")
def pipeline():
    linear, nonlinear = specialize_quartic(generate_conditions(4))
    l2, nl2, _ = center_and_reduce(linear, nonlinear)
    out = {}
    for br in BRANCHES:
        lb, nb = branch_system(br, (l2, nl2))
        basis = rational_basis(lb, br.anchor)
        q = build_Q(nb, basis)
        out[br.name] = (lb, nb, basis, q, extract_forms(q))
    return out


class TestBuildQ:
    def test_structure(self, pipeline):
        for name in ("generic", "b_zero", "c_zero"):
            _, _, _, q, forms = pipeline[name]
            assert q.degree("x") == EXPECTED_Q_DEGREE, name
            assert len(forms) == EXPECTED_NUM_FORMS, name

    def test_zero_constants_give_zero(self, pipeline):
        _, _, _, q, _ = pipeline["generic"]
        assert q.subs({"K1": 0, "K2": 0, "K3": 0}).is_zero

    def test_homogeneity(self, pipeline):
        _, _, _, q, _ = pipeline["generic"]
        rng = random.Random(2)
        for _ in range(5):
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            point = {"x": Fraction(rng.randint(1, 5)),
                     "b": Fraction(rng.randint(1, 5)),
                     "c": Fraction(rng.randint(1, 5)),
                     "e": Fraction(rng.randint(1, 5)),
                     "K1": Fraction(rng.randint(-4, 4)),
                     "K2": Fraction(rng.randint(-4, 4)),
                     "K3": Fraction(rng.randint(-4, 4))}
            scaled = dict(point)
            for k in ("K1", "K2", "K3"):
                scaled[k] = point[k] * lam
            assert q.evaluate(scaled) == lam ** 2 * q.evaluate(point)

    def test_evaluation_oracle(self, pipeline):
        # independent route: evaluate the quadratic equation at the rational
        # solution numerically (exact fractions) and compare with Q
        for name in ("generic", "b_zero", "c_zero"):
            lb, nb, basis, q, _ = pipeline[name]
            rng = random.Random(4)
            for _ in range(5):
                pt = {"b": Fraction(rng.randint(1, 6)), "c": Fraction(rng.randint(1, 6)),
                      "e": Fraction(rng.randint(1, 6))}
                ks = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
                xv = Fraction(rng.randint(2, 9))
                den = _product(basis.factors())
                num = sum((k * n for k, n in zip(ks, basis.numerators)), MPoly.zero())
                point = dict(pt)
                point["x"] = xv

                def ev(p, shift=0):
                    # evaluate d^shift/dx^shift of num/den at the rational point
                    n_, d_ = num, den
                    for _ in range(shift):
                        n_, d_ = (n_.diff("x") * d_ - n_ * d_.diff("x")), d_ * d_
                    return n_.evaluate(point) / d_.evaluate(point)

                y0, y1, y2 = ev(num), ev(num, 1), ev(num, 2)
                nl_val = Fraction(0)
                for exps, coeff in nb.poly.terms.items():
                    val = coeff
                    for i, v in enumerate(nb.poly.vars):
                        if exps[i] == 0:
                            continue
                        if v == "y":
                            val *= y0 ** exps[i]
                        elif v == "yp":
                            val *= y1 ** exps[i]
                        elif v == "ypp":
                            val *= y2 ** exps[i]
                        else:
                            val *= point[v] ** exps[i]
                    nl_val += val
                # clearing factor denom^7, times x^7 on the branch with an x-pole
                clear = basis.denominator.evaluate(point) ** 7
                if name == "b_zero":
                    assert basis.extra_pole_order == 3
                    clear *= xv ** 7
                qpt = dict(point)
                qpt.update({"K1": ks[0], "K2": ks[1], "K3": ks[2]})
                assert q.evaluate(qpt) == nl_val * clear

    def test_inexact_clearing_detected(self, pipeline):
        # a basis claiming a pole its numerators do not support leaves an
        # uncleared denominator, which must raise, not truncate
        lb, nb, basis, _, _ = pipeline["generic"]
        bad = basis._replace(extra_pole_order=3)
        with pytest.raises(AssertionError):
            build_Q(nb, bad)


class TestExtractForms:
    def test_reassembly_and_symmetry(self, pipeline):
        for name in ("generic", "b_zero", "c_zero"):
            _, _, _, q, forms = pipeline[name]
            recon = MPoly.zero()
            for f in forms:
                piece = form_poly(f)
                if f.index:
                    piece = piece * MPoly.var("x", f.index)
                recon = recon + piece
            assert recon == q
            for f in forms:
                for i in range(3):
                    for j in range(3):
                        assert f.matrix[i][j] == f.matrix[j][i]

    def test_single_form_example(self):
        q = (K1 + K2) ** 2 * x
        forms = extract_forms(q)
        assert len(forms) == 2  # indices 0 and 1, index 0 is the zero form
        # K1^2, K2^2, K3^2, K1K2, K1K3, K2K3 coefficients of K1^2 + 2 K1K2 + K2^2
        assert forms[1].row == tuple(map(MPoly.const, (1, 1, 0, 2, 0, 0)))
        m = forms[1].matrix
        assert m[0][0] == MPoly.const(1)
        assert m[0][1] == MPoly.const(1)
        assert m[1][1] == MPoly.const(1)
        assert m[2][2].is_zero

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            extract_forms(K1 ** 2 + K1)


def _product_form(idx, ka, kb):
    """The conic ka*kb at x-power idx, read by extract_forms."""
    return extract_forms(MPoly.var(ka) * MPoly.var(kb) * x ** idx)[idx]


def _diag_form(idx, kname):
    return _product_form(idx, kname, kname)


def _random_line(rng, through=None):
    """Random integer linear form in K, vanishing at `through` if given."""
    while True:
        u = [rng.randint(-3, 3) for _ in range(3)]
        if through is not None:
            p = through
            u = [u[1] * p[2] - u[2] * p[1], u[2] * p[0] - u[0] * p[2],
                 u[0] * p[1] - u[1] * p[0]]
        if any(u):
            return u[0] * K1 + u[1] * K2 + u[2] * K3


def _random_conic(rng, points):
    """Random integer conic through each of at most two projective points:
    a sum of products L*M with L through the first and M through the second."""
    through = list(points) + [None] * (2 - len(points))
    while True:
        conic = sum((_random_line(rng, through[0]) * _random_line(rng, through[1])
                     for _ in range(2)), MPoly.zero())
        if not conic.is_zero:
            return conic


class TestConicIncompatibility:
    def test_diagonal_forms_incompatible(self):
        forms = [_diag_form(i, k) for i, k in enumerate(("K1", "K2", "K3"))]
        res = conic_incompatibility(forms, {})
        assert res.verdict == "incompatible"

    def test_dataclasses_replace_flips_a_verdict(self):
        # perfbench's gate test flips a verdict this way; a raise there
        # would count as a failed op and pass without reaching the gate
        import dataclasses
        forms = [_product_form(0, "K1", "K2"), _product_form(1, "K1", "K3")]
        res = conic_incompatibility(forms, {})
        flipped = dataclasses.replace(res, verdict="incompatible", witness=None)
        assert type(flipped) is IncompatibilityResult
        assert flipped == res._replace(verdict="incompatible", witness=None)

    def test_shared_plane_compatible(self):
        forms = [_product_form(0, "K1", "K2"), _product_form(1, "K1", "K3")]
        res = conic_incompatibility(forms, {})
        assert res.verdict == "compatible"
        # any reported witness must be a genuine common zero
        w = res.witness
        assert w is not None
        for f in forms:
            assert form_value(f, w).is_zero
        # the plane K1 = 0 is a common zero set; (0:1:0) belongs to it
        assert all(form_value(f, (0, 1, 0)).is_zero for f in forms)

    def test_coordinate_triangle_compatible(self):
        # three independent conics (kernel dimension 3) meeting at the
        # coordinate points
        forms = [_product_form(0, "K1", "K2"), _product_form(1, "K1", "K3"),
                 _product_form(2, "K2", "K3")]
        res = conic_incompatibility(forms, {})
        assert res.verdict == "compatible"
        assert res.witness is not None
        assert all(form_value(f, res.witness).is_zero for f in forms)

    def test_irrational_common_zero_is_compatible(self):
        # the common zeros (1 : 0 : +-sqrt 2) have no rational representative
        conics = [K2 ** 2, K1 * K2, K2 * K3, K3 ** 2 - 2 * K1 ** 2]
        res = conic_incompatibility([extract_forms(p)[0] for p in conics], {})
        assert res.verdict == "compatible"
        assert res.witness is None
        exists, why = common_projective_zero_exists(conics)
        assert exists, why

    def test_needs_two_forms(self):
        with pytest.raises(ValueError):
            conic_incompatibility([_diag_form(0, "K1")], {})

    def test_missing_parameter_named(self, pipeline):
        # every parameter the forms carry and the point lacks is named;
        # parameters the forms do not carry are accepted
        forms = pipeline["c_zero"][4]
        with pytest.raises(ValueError, match=r"lacks parameter\(s\) e$"):
            conic_incompatibility(forms, {"b": 1})
        with pytest.raises(ValueError, match=r"lacks parameter\(s\) b, e$"):
            conic_incompatibility(forms, {"c": 1})
        assert conic_incompatibility(forms, {"b": 1, "c": 1, "e": 1}).verdict == "incompatible"

    def test_generic_branch_point(self, pipeline):
        _, _, _, _, forms = pipeline["generic"]
        res = conic_incompatibility(forms, {"b": 1, "c": 1, "e": 1})
        assert res.verdict == "incompatible"
        assert len(res.digest) == 16

    def test_generic_point_confirmed_by_enumeration_oracle(self, pipeline):
        # mandated independent check: enumerate the intersection points of
        # the first two conics and test each against every remaining one
        _, _, _, _, forms = pipeline["generic"]
        sp = [form_poly(f, {"b": 1, "c": 1, "e": 1}) for f in forms]
        sp = [f for f in sp if not f.is_zero]
        exists, why = common_projective_zero_exists(sp)
        assert not exists, why

    def test_b_zero_branch_compatible_with_inverse_square_witness(self, pipeline):
        # the classical incompatibility claim fails here: (1 : 0 : 4e^2) is a
        # common zero, corresponding to y = 1/x^3
        # the two tall points (witness entries near 4e18) pin a run time
        # that stays bounded as the coefficients grow
        _, _, _, _, forms = pipeline["b_zero"]
        for pt in ({"c": 1, "e": 1}, {"c": 2, "e": -3}, {"c": -5, "e": 7},
                   {"c": 3, "e": 10 ** 9 + 7},
                   {"c": 3, "e": Fraction(10 ** 9 + 7, 10 ** 6 + 3)}):
            start = time.perf_counter()
            res = conic_incompatibility(forms, pt)
            assert time.perf_counter() - start < 5
            assert res.verdict == "compatible"
            assert res.witness == (1, 0, 4 * pt["e"] ** 2)
            for f in forms:
                assert form_value(f, res.witness, pt).is_zero
            sp = [form_poly(f, pt) for f in forms]
            exists, _ = common_projective_zero_exists([f for f in sp if not f.is_zero])
            assert exists

    def test_c_zero_branch_incompatible(self, pipeline):
        _, _, _, _, forms = pipeline["c_zero"]
        for pt in ({"b": 1, "e": 1}, {"b": -4, "e": 3}):
            res = conic_incompatibility(forms, pt)
            assert res.verdict == "incompatible"
            sp = [form_poly(f, pt) for f in forms]
            exists, _ = common_projective_zero_exists([f for f in sp if not f.is_zero])
            assert not exists

    def test_oracle_agreement_random(self, pipeline):
        rng = random.Random(17)
        _, _, _, _, forms = pipeline["generic"]
        for _ in range(6):
            pt = {v: Fraction(rng.choice([k for k in range(-9, 10) if k]))
                  for v in ("b", "c", "e")}
            res = conic_incompatibility(forms, pt)
            sp = [form_poly(f, pt) for f in forms]
            exists, _ = common_projective_zero_exists([f for f in sp if not f.is_zero])
            assert (res.verdict == "incompatible") == (not exists)
        # rational points, denominators 2-9, on every branch: each row is
        # scaled to integers by its own denominator powers
        for br in BRANCHES:
            _, _, _, _, forms = pipeline[br.name]
            for _ in range(3):
                pt = {v: Fraction(rng.choice([k for k in range(-9, 10) if k]),
                                  rng.randint(2, 9)) for v in br.live}
                res = conic_incompatibility(forms, pt)
                sp = [form_poly(f, pt) for f in forms]
                exists, why = common_projective_zero_exists([f for f in sp if not f.is_zero])
                assert res.verdict == ("compatible" if exists else "incompatible"), (pt, why)
                if res.witness is not None:
                    assert all(form_value(f, res.witness, pt).is_zero for f in forms)

    def test_oracle_agreement_random_systems_every_nullity(self):
        # 2-6 random conics through 0, 1 or 2 random rational points: the
        # number of conics and of points spreads the kernel dimension of the
        # coefficient rows over 0, 1, 2 and >= 3
        rng = random.Random(29)
        nullities = set()
        for _ in range(120):
            points = []
            count = rng.randint(0, 2)
            while len(points) < count:
                p = [rng.randint(-3, 3) for _ in range(3)]
                if any(p):
                    points.append(p)
            conics = [_random_conic(rng, points) for _ in range(rng.randint(2, 6))]
            res = conic_incompatibility([extract_forms(q)[0] for q in conics], {})
            exists, why = common_projective_zero_exists(conics)
            assert res.verdict == ("compatible" if exists else "incompatible"), why
            if res.witness is not None:
                k = dict(zip(("K1", "K2", "K3"), res.witness))
                assert all(q.evaluate(k) == 0 for q in conics)
            nullity = next(int(line.rsplit(" ", 1)[1]) for line in res.transcript
                           if line.startswith("rank "))
            nullities.add(min(nullity, 3))
        assert nullities == {0, 1, 2, 3}

    def test_rational_point_transcripts_pinned(self, pipeline):
        # one sha256 over (verdict, witness, description, transcript) of
        # decisions at rational points: the pipeline branches at denominators
        # 2-9 and at the decide benchmark's tall heights (b, c near 10^6 /
        # 10^6, e an integer near 10^6), and random conic systems over Q[b, c]
        # through 0-2 parametric points, at every nullity
        rng = random.Random(31)

        def small(p=None):
            return Fraction(rng.choice([k for k in range(-20, 21) if k]), rng.randint(2, 9))

        def tall(p):
            n = rng.choice((-1, 1)) * rng.randint(5 * 10 ** 5, 2 * 10 ** 6)
            return Fraction(n) if p == "e" else Fraction(n, rng.randint(5 * 10 ** 5, 2 * 10 ** 6))

        decisions = []
        for br in BRANCHES:
            forms = pipeline[br.name][4]
            for draw in [small] * 4 + [tall] * 2:
                pt = {p: draw(p) for p in br.live}
                decisions.append(conic_incompatibility(forms, pt))

        def coeff():
            return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

        nullities = set()
        for _ in range(60):
            points = [[coeff() + coeff() * b + coeff() * c * b for _ in range(3)]
                      for _ in range(rng.randint(0, 2))]
            conics = [_random_conic(rng, points) for _ in range(rng.randint(2, 6))]
            forms = extract_forms(sum((q * x ** i for i, q in enumerate(conics)),
                                      MPoly.zero()))
            for pt in ({"b": small(), "c": small()}, {"b": tall("b"), "c": tall("c")}):
                res = conic_incompatibility(forms, pt)
                decisions.append(res)
                nullities.add(min(3, next(int(line.rsplit(" ", 1)[1])
                                          for line in res.transcript
                                          if line.startswith("rank "))))
        assert nullities == {0, 1, 2, 3}
        text = "\n".join(repr((r.verdict, r.witness and tuple(map(str, r.witness)),
                               r.witness_description, r.transcript)) for r in decisions)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8f1aad95c6b7d1c44c43e208b534fa428fde15bbdedeab87817ec861f4c32642")


class TestInverseSquareWitness:
    def test_symbolic_solution_of_both_equations(self, pipeline):
        # y = 1/x^3 solves the b = 0 linear and quadratic equations for all
        # parameter values: an exact refutation of the classical claim
        lb, nb, basis, _, _ = pipeline["b_zero"]
        num = basis.denominator ** 3          # (c + 2 e x^2)^3
        den = MPoly.var("x", 3) * basis.denominator ** 3
        # num/den reduces to 1/x^3
        assert solves(lb, num, den)
        assert solves(nb, num, den)
        assert solves(nb, MPoly.const(1), MPoly.var("x", 3))

    def test_witness_matches_basis_combination(self, pipeline):
        # K = (1, 0, 4e^2) against the anchored basis reassembles to
        # (c + 2 e x^2)^3 over x^3 (c + 2 e x^2)^3, i.e. exactly 1/x^3
        _, _, basis, _, _ = pipeline["b_zero"]
        combo = basis.numerators[0] + 4 * e ** 2 * basis.numerators[2]
        assert combo == basis.denominator ** 3

    def test_numeric_confirmation_quartic_degree(self):
        # independent dynamics oracle: for phi = -1/(2 x^2) the square of the
        # plane coordinate is quadratic in t, so alpha(x1(t)) with even quartic
        # alpha is a polynomial of degree four along every trajectory
        import numpy as np

        def rhs(s):
            xq, vq = s
            return np.array([vq, -1.0 / xq ** 3])

        state = np.array([1.0, 0.7])
        dt = 1e-4
        samples = []
        for _ in range(20000):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * dt * k1)
            k3 = rhs(state + 0.5 * dt * k2)
            k4 = rhs(state + dt * k3)
            state = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            samples.append(state[0] ** 4 + state[0] ** 2)
        arr = np.array(samples)[::2000]
        d5 = np.diff(arr, n=5)
        d4 = np.diff(arr, n=4)
        scale = np.max(np.abs(arr))
        assert np.max(np.abs(d5)) / scale < 1e-10
        assert np.max(np.abs(d4)) / scale > 1e-5


class TestVerifyQuarticTheorem:
    def test_honest_certificate(self):
        cert = verify_quartic_theorem(trials=3, seed=1)
        assert cert.status == "ok"
        by_name = {bc.branch.name: bc for bc in cert.branches}
        assert by_name["generic"].verdict == "incompatible"
        assert by_name["c_zero"].verdict == "incompatible"
        assert by_name["b_zero"].verdict == "compatible"
        assert not cert.matches_theorem
        assert "1:0:4e^2" in cert.conclusion
        for bc in cert.branches:
            assert bc.q_degree == EXPECTED_Q_DEGREE
            assert bc.num_equations == bc.q_degree + 1
            assert len(bc.trials) == 3

    def test_determinism(self):
        a = verify_quartic_theorem(trials=2, seed=5).to_json_dict()
        assert a == verify_quartic_theorem(trials=2, seed=5).to_json_dict()
        other = verify_quartic_theorem(trials=2, seed=6).to_json_dict()
        params_a = a["branches"][0]["trials"]
        params_o = other["branches"][0]["trials"]
        assert params_a != params_o  # different points, same verdicts

    def test_zero_trials_unevaluated(self):
        cert = verify_quartic_theorem(trials=0, seed=0)
        assert all(bc.verdict == "unevaluated" for bc in cert.branches)
        assert not cert.matches_theorem

    def test_mutation_detected(self, monkeypatch):
        # perturbing one coefficient of the centered quadratic equation
        # (the analogue of the classical display's 72 -> 71) breaks the
        # structural gate and the certificate fails
        import quartic_nve.certify as certify
        l2, nl2 = certify.generic_quartic_system()
        delta = MPoly.var("x") * MPoly.var("e") * MPoly.var("y") ** 2
        monkeypatch.setattr(certify, "generic_quartic_system",
                            lambda: (l2, NonlinearODE(nl2.var, nl2.poly - delta)))
        cert = verify_quartic_theorem(trials=1, seed=0)
        assert cert.status == "fail"
        assert cert.failing_stage.startswith("q-structure")
        assert not cert.matches_theorem

    def test_wrong_witness_detected(self, monkeypatch):
        # a b = 0 decision that reports a wrong witness must fail the
        # certificate at the witness re-check, not pass into the conclusion
        import quartic_nve.certify as certify
        honest = certify.conic_incompatibility

        def lying(forms, specialization):
            result = honest(forms, specialization)
            if "b" in specialization:
                return result
            wrong = (Fraction(1), Fraction(0), 4 * specialization["e"] ** 2 + 1)
            return IncompatibilityResult("compatible", wrong, "wrong witness",
                                         result.transcript)

        monkeypatch.setattr(certify, "conic_incompatibility", lying)
        cert = verify_quartic_theorem(trials=1, seed=0)
        assert cert.status == "fail"
        assert cert.failing_stage == "witness[b_zero]"

    @pytest.mark.parametrize("wrong", [(0, 1, 0), (1, 1, 1), (1, 0, None)])
    def test_wrong_witness_names_first_failing_conic(self, monkeypatch, pipeline, wrong):
        # the witness is re-checked against Q; the conic named is the first
        # whose Veronese row the witness does not annihilate
        import quartic_nve.certify as certify
        honest = certify.conic_incompatibility
        point = certify._draw_specialization(BRANCHES[1], 0, 0)
        witness = tuple(Fraction(4 * point["e"] ** 2 + 1 if w is None else w)
                        for w in wrong)

        def lying(forms, specialization):
            result = honest(forms, specialization)
            if "b" in specialization:
                return result
            return IncompatibilityResult("compatible", witness, "wrong witness",
                                         result.transcript)

        monkeypatch.setattr(certify, "conic_incompatibility", lying)
        cert = verify_quartic_theorem(trials=1, seed=0)
        first = next(f.index for f in pipeline["b_zero"][4]
                     if form_value(f, witness, point))
        assert cert.failing_stage == "witness[b_zero]"
        assert cert.conclusion == (
            f"verification aborted: reported witness fails conic {first}")

    def test_degeneration_disagreement_detected(self, monkeypatch):
        # a report that names a component its row does not expect fails the
        # certificate at that row's degeneration stage
        import quartic_nve.certify as certify
        honest = certify.degeneration_branches

        def extra_child(basis):
            report = honest(basis)
            return report._replace(branches=report.branches + (Branch("e_zero", {"e": 0}),))

        monkeypatch.setattr(certify, "degeneration_branches", extra_child)
        cert = verify_quartic_theorem(trials=1, seed=0)
        assert cert.status == "fail"
        assert cert.failing_stage == "degeneration[generic]"
        assert cert.conclusion == (
            "verification aborted: degeneration branches ('b_zero', 'c_zero', 'e_zero'), "
            "expected ('b_zero', 'c_zero')")

    def test_json_round_trip(self):
        cert = verify_quartic_theorem(trials=1, seed=2)
        blob = json.dumps(cert.to_json_dict(), indent=2, sort_keys=True)
        data = json.loads(blob)
        assert set(data) >= {"branches", "conclusion", "theorem_form",
                             "nonintegrability_note", "seed", "status"}
        assert json.dumps(data, indent=2, sort_keys=True) == blob
