"""Symbol evaluation, Taylor arithmetic, validation and parsing."""

import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest

import compdiff as cd
from compdiff.errors import (DivisionByZeroConstantTerm, ExpOfSingularSeries,
                             NonFinite, ParseError)
from compdiff.series import (CATALOGUE, Const, Exp, Expr, OneMinusZPower,
                             Product, Reciprocal, Symbol, Var, _eval,
                             _series_exp, _taylor)
from oracles import contour_coefficients

CHI = Symbol("flat_perturbation", Exp(Product((Const(-1.0), OneMinusZPower(-0.5)))))


def _eval_on_mpmath(expr, z):
    """The pointwise interpreter on a one-element object array of mpmath numbers,
    as ``boundary_rho_mp`` runs it."""
    return _eval(expr, np.array([z], dtype=object),
                 np.frompyfunc(mpmath.exp, 1, 1))[0]


class TestEvaluate:
    def test_half_map_at_one(self):
        assert cd.evaluate(cd.half_map(), 1) == 1

    def test_corner_at_zero(self):
        assert cd.evaluate(cd.corner_map(), 0) == 0.5

    def test_corner_at_half(self):
        value = cd.evaluate(cd.corner_map(), 0.5)
        assert abs(value - 1 / (1 + math.sqrt(0.5))) < 1e-15
        assert abs(value - 0.585786) < 1e-6

    def test_corner_branch_point_limit(self):
        assert cd.evaluate(cd.corner_map(), 1) == 1
        assert cd.evaluate(cd.corner_perturbation(0.01), 1) == 1

    def test_principal_branch(self):
        z = 0.3 + 0.4j
        got = cd.evaluate(cd.weight_power(0.5), z)
        assert abs(got - cmath.sqrt(1 - z)) < 1e-15

    def test_negative_power_blows_up_at_one(self):
        bad = Symbol("inv_gap", OneMinusZPower(-0.5))
        with pytest.raises(NonFinite):
            cd.evaluate(bad, 1)

    def test_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            cd.evaluate(cd.half_map(), 1.5)

    def test_mobius_involution(self):
        tau = cd.mobius(0.4 + 0.1j)
        for z in (0.0, 0.3 - 0.2j, 0.7j):
            assert abs(cd.evaluate(tau, cd.evaluate(tau, z)) - z) < 1e-14


class TestMpmathEvaluation:
    # hand-written formulas with the double constants the builders store
    CASES = {
        "half_map": (cd.half_map(), lambda z: 0.5 * (1 + z)),
        "power_perturbation": (
            cd.power_perturbation(3, 0.005),
            lambda z: 0.5 * (1 + z) + 0.005 * cmath.exp(1j * math.pi * 3.0)
            * (1 - z) ** mpmath.mpf(3.0)),
        "corner_map": (cd.corner_map(),
                       lambda z: 1 / (1 + mpmath.sqrt(1 - z))),
        "corner_perturbation": (
            cd.corner_perturbation(0.01),
            lambda z: 1 / (1 + mpmath.sqrt(1 - z))
            + 0.01 * mpmath.exp(-1 / mpmath.sqrt(1 - z))),
        "mobius": (cd.mobius(0.3 + 0.2j),
                   lambda z: (complex(0.3, 0.2) - z) / (1 - complex(0.3, -0.2) * z)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_formula_near_the_contact_point(self, name):
        symbol, formula = self.CASES[name]
        with mpmath.workdps(60):
            for k in range(0, 31, 3):
                for t in (10.0 ** -k, -(10.0 ** -k)):
                    z = mpmath.exp(1j * mpmath.mpf(t))
                    want = formula(z)
                    got = _eval_on_mpmath(symbol.expr, z)
                    assert abs(got - want) <= 1e-45 * abs(want), (name, t)

    @pytest.mark.parametrize("beta", [0.5, 0.0, -0.5])
    def test_radial_limit_at_the_branch_point(self, beta):
        # the double path's limits; mpmath itself raises ZeroDivisionError
        # for 0 ** -0.5
        expr = OneMinusZPower(beta)
        double = _eval(expr, np.array([1.0 + 0j]))[0]
        with mpmath.workdps(60):
            assert _eval_on_mpmath(expr, mpmath.mpc(1)) == double


class TestTaylor:
    def test_half_map(self):
        np.testing.assert_allclose(cd.taylor_array(cd.half_map(), 4),
                                   [0.5, 0.5, 0, 0], atol=1e-15)

    def test_binomial_sqrt(self):
        np.testing.assert_allclose(cd.taylor_array(cd.weight_power(0.5), 4),
                                   [1, -0.5, -0.125, -0.0625], atol=1e-15)

    def test_dilation(self):
        np.testing.assert_allclose(cd.taylor_array(cd.dilation(0.3), 3),
                                   [0, 0.3, 0], atol=1e-15)

    def test_corner_head(self):
        # 1/(1 + sqrt(1-z)): phi(0) = 1/2, phi'(0) = 1/8
        coeffs = cd.taylor_array(cd.corner_map(), 3)
        assert abs(coeffs[0] - 0.5) < 1e-15
        assert abs(coeffs[1] - 0.125) < 1e-15

    def test_reciprocal_of_vanishing_constant_term(self):
        bad = Symbol("pole", Reciprocal(Var()))
        with pytest.raises(DivisionByZeroConstantTerm):
            cd.taylor_array(bad, 4)

    def test_exp_of_singular_series(self):
        bad = Symbol("exp_inf", Exp(Const(float("inf"))))
        with pytest.raises(ExpOfSingularSeries):
            cd.taylor_array(bad, 4)

    def test_chi_exp_recurrence_head(self):
        # chi = exp(-(1-z)^{-1/2}): c0 = e^-1, c1 = -e^-1/2, c2 = -e^-1/4
        coeffs = cd.taylor_array(CHI, 3)
        e = math.exp(-1)
        np.testing.assert_allclose(coeffs, [e, -e / 2, -e / 4], rtol=1e-14)

    def test_self_map_coefficients_inside_ball(self):
        # sum |c_k|^2 = ||phi||_H2^2 <= sup |phi|^2 <= 1 for self-maps
        for symbol in (cd.half_map(), cd.corner_map(),
                       cd.corner_perturbation(0.01),
                       cd.power_perturbation(3, 0.005), cd.mobius(0.3),
                       cd.dilation(0.9)):
            coeffs = cd.taylor_array(symbol, 256)
            assert np.sum(np.abs(coeffs) ** 2) <= 1 + 1e-9, symbol.name

    # coefficient k of exp(u) and of 1/u reads only u_0..u_k, so the inner
    # series of an Exp or Reciprocal node needs no order beyond n
    @pytest.mark.parametrize("symbol", [
        cd.corner_map(), cd.corner_perturbation(0.01), cd.mobius(0.3 + 0.2j)],
        ids=lambda s: s.name)
    @pytest.mark.parametrize("n", [8, 129, 1024])
    def test_prefix_of_the_longer_expansion_bit_for_bit(self, symbol, n):
        short = cd.taylor_array(symbol, n)
        assert short.tobytes() == cd.taylor_array(symbol, 2 * n)[:n].tobytes()


class TestInvariants:
    def test_cauchy_product_associativity(self):
        # every ordered catalogue pair, third factor cycling through the list
        symbols = [cd.identity(), cd.constant(0.4 - 0.1j), cd.half_map(),
                   cd.corner_map(), cd.corner_perturbation(0.01),
                   cd.dilation(0.3 + 0.2j), cd.power_perturbation(3, 0.005),
                   cd.weight_power(1.5), cd.mobius(0.3)]
        for i, si in enumerate(symbols):
            for j, sj in enumerate(symbols):
                f, g = si.expr, sj.expr
                h = symbols[(i + j) % len(symbols)].expr
                left = Product((Product((f, g)), h))
                right = Product((f, Product((g, h))))
                a = _taylor(left, 64)
                b = _taylor(right, 64)
                np.testing.assert_allclose(a, b, atol=1e-12,
                                           err_msg=f"{si.name} * {sj.name}")

    def test_exp_matches_contour_extraction(self):
        # r^-j floating noise limits the contour oracle itself past j ~ 30,
        # so the 1e-8 agreement is checked where the oracle is trustworthy
        n = 32
        ser = cd.taylor_array(CHI, n)
        con = contour_coefficients(CHI, n, radius=0.5, oversampling=8)
        rel = np.abs(ser - con) / np.abs(con)
        assert rel[: n // 2 + 1].max() < 1e-8

    def test_exp_with_explicit_4n_margin(self):
        n = 32
        inner = _taylor(Product((Const(-1.0), OneMinusZPower(-0.5))), 4 * n)
        explicit = _series_exp(inner)[:n]
        con = contour_coefficients(CHI, n)
        rel = np.abs(explicit - con) / np.abs(con)
        assert rel[: n // 2 + 1].max() < 1e-8

    def test_corner_perturbation_boundary_expansion(self):
        # 1 - |psi(e^it)|^2 = sqrt(2) |t|^(1/2) (1 + o(1)) near the contact
        psi = cd.corner_perturbation(0.01)
        t = np.geomspace(1e-6, 1e-3, 64)
        t = np.concatenate([-t, t])
        values = cd.eval_boundary(psi, t)
        ratio = (1 - np.abs(values) ** 2) / np.sqrt(np.abs(t))
        assert ratio.min() >= 1.2 and ratio.max() <= 1.6


class TestValidation:
    def test_half_map_passes(self):
        report = cd.validate_self_map(cd.half_map())
        assert report.passed
        assert abs(report.max_modulus - 1) < 1e-9

    def test_dilation_two_fails(self):
        report = cd.validate_self_map(cd.dilation(2))
        assert not report.passed
        assert report.max_modulus == pytest.approx(2.0)

    def test_corner_perturbation_passes_with_expansion(self):
        report = cd.validate_self_map(cd.corner_perturbation(0.01))
        assert report.passed


class TestCatalogue:
    def test_power_perturbation_parameter_ranges(self):
        with pytest.raises(ValueError):
            cd.power_perturbation(2.0, 0.005)
        with pytest.raises(ValueError):
            cd.power_perturbation(3.0, 0.05)

    def test_corner_perturbation_small_c(self):
        with pytest.raises(ValueError):
            cd.corner_perturbation(0.5)

    def test_mobius_requires_interior_parameter(self):
        with pytest.raises(ValueError):
            cd.mobius(1.0)

    def test_every_node_type_is_built_by_the_catalogue(self):
        # a node no builder creates is reachable from tests alone
        def node_types(expr):
            yield type(expr)
            for field in dataclasses.fields(expr):
                value = getattr(expr, field.name)
                for child in value if isinstance(value, tuple) else (value,):
                    if isinstance(child, Expr):
                        yield from node_types(child)

        arguments = {"identity": {}, "constant": {"c": 0.5},
                     "dilation": {"a": 0.5}, "half_map": {},
                     "power_perturbation": {"alpha": 3, "c": 0.005},
                     "corner_map": {}, "corner_perturbation": {"c": 0.01},
                     "weight_power": {"alpha": 1}, "mobius": {"a": 0.5}}
        assert arguments.keys() == CATALOGUE.keys()
        built = {node for name, builder in CATALOGUE.items()
                 for node in node_types(builder(**arguments[name]).expr)}
        assert set(Expr.__subclasses__()) <= built


class TestParser:
    def test_named_with_params(self):
        s = cd.parse_symbol("power_perturbation(alpha=3, c=0.005)")
        assert s == cd.power_perturbation(3, 0.005)
        assert abs(cd.evaluate(s, 0) - cd.evaluate(cd.power_perturbation(3, 0.005), 0)) == 0

    def test_bare_and_empty_parens(self):
        assert cd.parse_symbol("half_map") == cd.half_map()
        assert cd.parse_symbol("half_map()") == cd.half_map()

    def test_scientific_notation_value(self):
        s = cd.parse_symbol("power_perturbation(alpha=3, c=5e-3)")
        assert s == cd.power_perturbation(3, 0.005)

    def test_complex_value(self):
        s = cd.parse_symbol("constant(c=0.1+0.2i)")
        assert cd.evaluate(s, 0.5) == 0.1 + 0.2j
        s = cd.parse_symbol("dilation(a=-0.5i)")
        assert cd.evaluate(s, 0.5) == -0.25j
        # unsigned imaginary parts parse like the signed ones
        s = cd.parse_symbol("dilation(a=0.5i)")
        assert cd.evaluate(s, 0.5) == 0.25j
        s = cd.parse_symbol("dilation(a=i)")
        assert cd.evaluate(s, 0.5) == 0.5j
        s = cd.parse_symbol("constant(c=1e-3i)")
        assert cd.evaluate(s, 0.5) == 1e-3j

    @pytest.mark.parametrize("value", ["1+e5i", "+E+0i", "1j", "(1+2i)",
                                       "infi", "1_0i"])
    def test_malformed_complex_value_is_a_parse_error(self, value):
        with pytest.raises(ParseError, match="cannot parse value"):
            cd.parse_symbol(f"constant(c={value})")

    @pytest.mark.parametrize("spec", ["dilation(a=0.1 5)",
                                      "constant(c=1 e-3)",
                                      "constant(c=1e - 3)",
                                      "constant(c=0.5 i)",
                                      "constant(c=- 0.5)"])
    def test_whitespace_inside_a_number_is_a_parse_error(self, spec):
        with pytest.raises(ParseError, match="cannot parse value"):
            cd.parse_symbol(spec)

    def test_spaces_around_the_joining_sign_and_the_ends(self):
        assert cd.parse_symbol("mobius(a=0.3 + 0.2i)") == cd.mobius(0.3 + 0.2j)
        assert cd.parse_symbol("constant(c=1e-3 -2i)") == cd.constant(1e-3 - 2j)
        assert cd.parse_symbol("dilation(a= 0.15 )") == cd.dilation(0.15)

    def test_unknown_symbol_named_in_error(self):
        with pytest.raises(ParseError, match="frobnicate"):
            cd.parse_symbol("frobnicate(x=1)")

    def test_malformed_value_named_in_error(self):
        with pytest.raises(ParseError, match="zap"):
            cd.parse_symbol("dilation(a=zap)")

    def test_missing_key(self):
        with pytest.raises(ParseError):
            cd.parse_symbol("dilation(0.5)")

    def test_bad_parameter_name(self):
        with pytest.raises(ParseError):
            cd.parse_symbol("dilation(q=0.5)")
