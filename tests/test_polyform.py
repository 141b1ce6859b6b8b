import random
from fractions import Fraction

import pytest

from twoside.exact_core import DomainError
from twoside.polyform import (Const, Var, builtin_identities,
                              cauchy_schwarz_check, evaluate, identity_check,
                              incircle_tangent_check,
                              incircle_tangent_symbolic,
                              mixture_concentration, poly_normalize,
                              pythagoras_printed_check,
                              pythagoras_rearrangement_check)
from oracles import run_builtin_suite


class TestNormalForm:
    def test_square_of_sum(self):
        a, b = Var("a"), Var("b")
        p = poly_normalize((a + b) ** 2, ("a", "b"))
        assert p.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_every_term_with_every_term(self):
        a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")
        p = poly_normalize((a + b) * (c + d), ("a", "b", "c", "d"))
        assert p.terms == {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1,
                           (0, 1, 1, 0): 1, (0, 1, 0, 1): 1}

    def test_cancellation_to_zero(self):
        a = Var("a")
        p = poly_normalize(Const(0) * a + Const(3) - Const(3), ("a",))
        assert p.terms == {}

    def test_undeclared_variable(self):
        with pytest.raises(DomainError):
            poly_normalize(Var("x") + Var("y"), ("x",))

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            Var("x") ** -1

    def test_uniqueness_against_random_evaluation(self):
        # Normal-form equality must agree with pointwise equality at random
        # rational points.
        a, b, c = Var("a"), Var("b"), Var("c")
        pairs = [
            ((a + b) * (a - b), a * a - b * b, True),
            ((a + b + c) ** 2,
             a ** 2 + b ** 2 + c ** 2 + 2 * (a * b + a * c + b * c), True),
            ((a + b) ** 2, a * a + b * b, False),
        ]
        rng = random.Random(7)
        for lhs, rhs, equal in pairs:
            lp = poly_normalize(lhs, ("a", "b", "c"))
            rp = poly_normalize(rhs, ("a", "b", "c"))
            assert (lp == rp) is equal
            agree = True
            for _ in range(20):
                env = {v: Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                       for v in ("a", "b", "c")}
                if evaluate(lhs, env) != evaluate(rhs, env):
                    agree = False
            assert agree is equal


class TestIdentitySuite:
    def test_all_builtins_pass(self):
        for name, report in run_builtin_suite().items():
            assert report.passed, name
            assert report.witness is None

    def test_cube_expansion(self):
        a, b = Var("a"), Var("b")
        rhs = a ** 3 + 3 * a ** 2 * b + 3 * a * b ** 2 + b ** 3
        assert identity_check((a + b) ** 3, rhs, ("a", "b")).passed

    def test_square_difference(self):
        a, b = Var("a"), Var("b")
        assert identity_check((a - b) ** 2,
                              a ** 2 - 2 * a * b + b ** 2, ("a", "b")).passed

    def test_failing_identity_has_small_witness(self):
        a, b = Var("a"), Var("b")
        report = identity_check((a + b) ** 2, a ** 2 + b ** 2, ("a", "b"))
        assert not report.passed
        assert report.witness == (1, 1)

    def test_perturbed_identities_fail_with_witness(self):
        for name, (lhs, rhs, vs) in builtin_identities().items():
            perturbed = rhs + Var(vs[0])
            report = identity_check(lhs, perturbed, vs)
            assert not report.passed, name
            assert report.witness is not None


class TestPythagoras:
    def test_corrected_identity_is_polynomial_zero(self):
        report = pythagoras_rearrangement_check()
        assert report.passed
        assert report.detail["area_345_whole"] == Fraction(49, 2)
        assert report.detail["area_345_pieces"] == Fraction(49, 2)

    def test_printed_form_fails(self):
        report = pythagoras_printed_check()
        assert not report.passed
        assert report.witness is not None
        # the witness point really separates the two sides
        a, b, c = (Fraction(v) for v in report.witness)
        assert (a + b) ** 2 != (2 * a * b + c * c) / 2


class TestCauchySchwarz:
    def test_orthogonal(self):
        report = cauchy_schwarz_check(1, 0, 0, 1)
        assert report.passed
        assert report.lhs == 0 and report.rhs == 1
        assert report.detail["equality"] is False

    def test_proportional_equality(self):
        report = cauchy_schwarz_check(1, 2, 2, 4)
        assert report.passed
        assert report.lhs == report.rhs
        assert report.detail["equality"] is True

    def test_generic(self):
        report = cauchy_schwarz_check(1, 2, 3, 5)
        assert (report.lhs, report.rhs) == (169, 170)
        assert report.passed

    def test_equality_iff_proportional_sweep(self):
        rng = random.Random(11)
        for _ in range(10_000):
            a1, a2, b1, b2 = (Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                              for _ in range(4))
            report = cauchy_schwarz_check(a1, a2, b1, b2)
            assert report.passed
            assert report.detail["equality"] == (a1 * b2 - a2 * b1 == 0)
            assert (report.lhs == report.rhs) == report.detail["equality"]


class TestMixture:
    def test_solution_satisfies_mass_balance(self):
        m1, m2, c2, c_mix = (Fraction(13, 10), Fraction(8, 10),
                             Fraction(15), Fraction(10))
        x = mixture_concentration(m1, m2, c2, c_mix)
        assert m1 * x / 100 + m2 * c2 / 100 == (m1 + m2) * c_mix / 100
        assert x == Fraction(90, 13)

    def test_no_second_component(self):
        assert mixture_concentration(1, 0, 99, 25) == 25

    def test_symmetric_mix(self):
        assert mixture_concentration(1, 1, 10, 20) == 30

    def test_degenerate(self):
        with pytest.raises(DomainError):
            mixture_concentration(0, 1, 10, 10)


class TestIncircleTangents:
    def test_isoceles_symmetry(self):
        assert incircle_tangent_check(5, 5, 6, 2).passed

    def test_345_value(self):
        report = incircle_tangent_check(3, 4, 5, 2)
        assert report.passed
        assert report.lhs == Fraction(1, 2) and report.rhs == Fraction(1, 2)

    def test_symbolic_zero(self):
        assert incircle_tangent_symbolic().passed

    def test_triangle_inequality_enforced(self):
        with pytest.raises(DomainError):
            incircle_tangent_check(1, 2, 5, 1)
