import random
from fractions import Fraction

import pytest

from twoside.exact_core import DomainError
from twoside.polyform import (BUILTIN_IDENTITIES, Polynomial,
                              builtin_identity, cauchy_schwarz_check,
                              identity_check, incircle_tangent_check,
                              incircle_tangent_symbolic,
                              mixture_concentration,
                              pythagoras_printed_check,
                              pythagoras_rearrangement_check, variables)
from oracles import run_builtin_suite


class TestNormalForm:
    def test_square_of_sum(self):
        a, b = variables("a", "b")
        p = (a + b) ** 2
        assert p.vars == ("a", "b")
        assert p.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_every_term_with_every_term(self):
        a, b, c, d = variables("a", "b", "c", "d")
        p = (a + b) * (c + d)
        assert p.terms == {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1,
                           (0, 1, 1, 0): 1, (0, 1, 0, 1): 1}

    def test_cancellation_to_zero(self):
        [a] = variables("a")
        p = 0 * a + 3 - 3
        assert p.terms == {}
        assert str(p) == "0"

    def test_undeclared_variable(self):
        [x] = variables("x")
        _, y = variables("x", "y")
        with pytest.raises(DomainError):
            x + y

    @pytest.mark.parametrize("combine", [
        lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q,
        lambda p, q: identity_check(p, q)],
        ids=["add", "sub", "mul", "identity_check"])
    def test_mixed_variable_tuples_refused(self, combine):
        [a] = variables("a")
        a_of_ab, _ = variables("a", "b")
        [b] = variables("b")
        for p, q in ((a, a_of_ab), (a_of_ab, a), (a, b), (0 * a, b)):
            with pytest.raises(DomainError, match="cannot combine"):
                combine(p, q)

    @pytest.mark.parametrize("names", [("a", "a"), ("a", "")])
    def test_variable_names_nonempty_and_distinct(self, names):
        with pytest.raises(DomainError):
            variables(*names)

    def test_negative_exponent_rejected(self):
        [x] = variables("x")
        with pytest.raises(DomainError):
            x ** -1

    @pytest.mark.parametrize("exponent", [Fraction(1, 2), Fraction(2), 2.0,
                                          "2"])
    def test_non_int_exponent_rejected(self, exponent):
        [x] = variables("x")
        with pytest.raises(DomainError):
            x ** exponent

    def test_zeroth_power_is_one(self):
        a, b = variables("a", "b")
        assert ((a + b) ** 0).terms == {(0, 0): 1}

    @pytest.mark.parametrize("constant", [2, Fraction(1, 2), Fraction(-3)])
    def test_constants_on_each_side_of_product(self, constant):
        a, b = variables("a", "b")
        want = {(1, 1): Fraction(constant)}
        assert (constant * a * b).terms == want
        assert (a * b * constant).terms == want
        assert (a * constant * b).terms == want
        assert constant * a * b == a * b * constant

    @pytest.mark.parametrize("constant", [2, Fraction(1, 2)])
    def test_constants_on_each_side_of_sum(self, constant):
        [a] = variables("a")
        want = {(1,): 1, (0,): Fraction(constant)}
        assert (a + constant).terms == want
        assert (constant + a).terms == want
        assert (a - constant).terms == {(1,): 1, (0,): -Fraction(constant)}

    @pytest.mark.parametrize("other", [1.5, 1j, "a", None])
    def test_other_operands_refused(self, other):
        # floats never enter a comparison, not even as coefficients
        [a] = variables("a")
        for combine in (lambda: a * other, lambda: other * a,
                        lambda: a + other, lambda: a - other):
            with pytest.raises(DomainError):
                combine()

    def test_normal_form_holds_no_zero_terms(self):
        p = Polynomial(("a",), {(0,): 0, (1,): Fraction(2, 4)})
        assert p.terms == {(1,): Fraction(1, 2)}
        assert p.at((4,)) == 2

    def test_uniqueness_against_random_evaluation(self):
        # Normal-form equality must agree with pointwise equality at random
        # rational points, evaluated in plain Fraction arithmetic.
        pairs = [
            (lambda a, b, c: (a + b) * (a - b), lambda a, b, c: a * a - b * b,
             True),
            (lambda a, b, c: (a + b + c) ** 2,
             lambda a, b, c: a ** 2 + b ** 2 + c ** 2
             + 2 * (a * b + a * c + b * c), True),
            (lambda a, b, c: (a + b) ** 2, lambda a, b, c: a * a + b * b,
             False),
            (lambda a, b, c: Fraction(1, 2) * (a - c) * 4,
             lambda a, b, c: 2 * a - c * 2, True),
        ]
        rng = random.Random(7)
        polys = variables("a", "b", "c")
        for lhs, rhs, equal in pairs:
            assert (lhs(*polys) == rhs(*polys)) is equal
            agree = True
            for _ in range(20):
                point = [Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                         for _ in range(3)]
                if lhs(*point) != rhs(*point):
                    agree = False
            assert agree is equal


class TestIdentitySuite:
    def test_all_builtins_pass(self):
        for name, report in run_builtin_suite().items():
            assert report.passed, name
            assert report.witness is None

    def test_cube_expansion(self):
        a, b = variables("a", "b")
        rhs = a ** 3 + 3 * a ** 2 * b + 3 * a * b ** 2 + b ** 3
        report = identity_check((a + b) ** 3, rhs)
        assert report.passed
        assert report.params == ("a", "b")

    def test_square_difference(self):
        a, b = variables("a", "b")
        assert identity_check((a - b) ** 2,
                              a ** 2 - 2 * a * b + b ** 2).passed

    def test_failing_identity_has_small_witness(self):
        a, b = variables("a", "b")
        report = identity_check((a + b) ** 2, a ** 2 + b ** 2)
        assert not report.passed
        assert report.witness == (1, 1)

    def test_perturbed_identities_fail_with_witness(self):
        for name in BUILTIN_IDENTITIES:
            lhs, rhs = builtin_identity(name)
            first = variables(*lhs.vars)[0]
            report = identity_check(lhs, rhs + first)
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
