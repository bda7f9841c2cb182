import math

import numpy as np
import pytest

from passlab.signals import Signal, parse_signal, parse_signal_vector


class TestSignal:
    def test_sine_and_derivative(self):
        s = Signal.sine(freq=2.0, coef=3.0)
        t = 0.7
        assert abs(s(t) - 3 * math.sin(2 * t)) < 1e-14
        ds = s.derivative()
        assert abs(ds(t) - 6 * math.cos(2 * t)) < 1e-14

    def test_poly_exp_derivative(self):
        s = Signal([])
        s = Signal.monomial(2).scale(1.0)
        f = Signal([a for a in s.atoms])
        # d/dt (t^2 e^{-t}) = 2 t e^{-t} - t^2 e^{-t}
        from passlab.signals import Atom
        g = Signal([Atom(1.0, power=2, rate=-1.0)])
        dg = g.derivative()
        t = 1.3
        expected = 2 * t * math.exp(-t) - t * t * math.exp(-t)
        assert abs(dg(t) - expected) < 1e-14

    def test_high_order_derivatives_close(self):
        from passlab.signals import Atom
        g = Signal([Atom(0.5, power=1, rate=-0.3, trig="cos", freq=2.0)])
        # numeric check of the 3rd derivative via finite differences
        t = 0.9
        h = 1e-3
        d3 = g.deriv(3)
        fd = (g(t + 2 * h) - 2 * g(t + h) + 2 * g(t - h) - g(t - 2 * h)) / (2 * h**3)
        assert abs(d3(t) - fd) < 1e-5

    def test_vectorized_evaluation(self):
        s = Signal.cosine() + Signal.constant(2.0)
        t = np.linspace(0, 1, 5)
        assert np.allclose(s(t), np.cos(t) + 2.0)


class TestParser:
    def test_simple_atoms(self):
        assert abs(parse_signal("sin(t)")(0.5) - math.sin(0.5)) < 1e-14
        assert abs(parse_signal("cos(2t)")(0.5) - math.cos(1.0)) < 1e-14
        assert abs(parse_signal("t^2")(3.0) - 9.0) < 1e-14
        assert abs(parse_signal("exp(-t)")(1.0) - math.exp(-1)) < 1e-14
        assert abs(parse_signal("1")(0.0) - 1.0) < 1e-14

    def test_products_and_sums(self):
        f = parse_signal("2*t*exp(-0.5t)-0.25")
        t = 1.7
        assert abs(f(t) - (2 * t * math.exp(-0.5 * t) - 0.25)) < 1e-13
        g = parse_signal("sin(t)+0.5*cos(2t)")
        assert abs(g(t) - (math.sin(t) + 0.5 * math.cos(2 * t))) < 1e-13
        # a "*" inside parentheses does not split factors
        for starred, plain in [("sin(2.5*t)", "sin(2.5t)"),
                               ("exp(-0.5*t)", "exp(-0.5t)"),
                               ("t^2*exp(-0.5*t)", "t^2*exp(-0.5t)")]:
            assert parse_signal(starred).atoms == parse_signal(plain).atoms

    def test_leading_minus(self):
        f = parse_signal("-sin(t)")
        assert abs(f(0.3) + math.sin(0.3)) < 1e-14

    def test_scientific_notation(self):
        f = parse_signal("2e-3*t")
        assert abs(f(2.0) - 4e-3) < 1e-16

    def test_vector(self):
        u = parse_signal_vector("sin(t); 0")
        assert len(u) == 2
        assert abs(u[1](1.0)) == 0.0

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_signal("tan(t)")
        with pytest.raises(ValueError):
            parse_signal("")
