import math
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import rand_fullrank_pair, rand_nonsingular

from passlab.behavior import (Decomposition, DecompositionError,
                              NotPositiveRealError, coupling_condition_direct,
                              decompose, passive_partition)
from passlab.poly import Poly, bdf_phi
from passlab.polymatrix import PolyMat, delta
from passlab.prpair import PASS, check_pair
from passlab.signals import Atom, Signal

S = Poly.x()


def image_representation(dec: Decomposition) -> tuple[PolyMat, PolyMat]:
    """The (M, N) pair with i = M(d/dt) w, v = N(d/dt) w spanning the
    controllable part; consistency Ptil M == Qtil N is re-verified."""
    if not (dec.Ptil @ dec.M == dec.Qtil @ dec.N):
        raise AssertionError("image representation inconsistent with the pair")
    return dec.M, dec.N


class TestDecompose:
    def test_scalar_common_factor(self):
        dec = decompose(PolyMat([[(S + 1) ** 2]]), PolyMat([[(S + 1) * S]]))
        assert dec.F[0, 0].monic() == S + 1
        assert dec.Ptil[0, 0].monic() == (S + 1)
        assert dec.Qtil[0, 0].monic() == S

    def test_coprime_normalises_F_to_identity(self):
        dec = decompose(PolyMat([[S + 2]]), PolyMat([[S + 1]]))
        assert dec.F == PolyMat.identity(1)
        assert dec.Ptil == PolyMat([[S + 2]])
        assert dec.Qtil == PolyMat([[S + 1]])

    def test_degenerate_zero_pair_rejected(self):
        Z = PolyMat([[Poly.zero()]])
        with pytest.raises(DecompositionError, match="normalrank deficient"):
            decompose(Z, Z)

    def test_rank_deficient_pair_rejected(self):
        P = PolyMat([[S, S + 1], [2 * S, 2 * S + 2]])
        Q = PolyMat([[S * S, Poly.one()], [2 * S * S, Poly.constant(2)]])
        with pytest.raises(DecompositionError, match="normalrank deficient"):
            decompose(P, Q)

    def test_exact_identities_100_random_pairs(self):
        """The two defining identities hold exactly (zero residual, rational
        arithmetic) on random pairs with a planted common factor."""
        rng = random.Random(314)
        done = 0
        while done < 100:
            n = rng.randint(1, 3)
            F = rand_nonsingular(rng, n, 1)
            P0, Q0 = rand_fullrank_pair(rng, n, 2)
            P, Q = F @ P0, F @ Q0
            try:
                dec = decompose(P, Q)  # constructor verifies the double inverse
            except DecompositionError:
                continue
            assert dec.factor_identity_holds(P, Q)
            eye = PolyMat.identity(2 * n)
            What = PolyMat.block([[dec.Ptil, -dec.Qtil], [dec.U, dec.V]])
            W = PolyMat.block([[dec.X, dec.M], [dec.Y, dec.N]])
            assert What @ W == eye
            assert W @ What == eye
            done += 1


class TestImageRepresentation:
    def test_consistency_scalar(self):
        dec = decompose(PolyMat([[S + 2]]), PolyMat([[S + 1]]))
        M, N = image_representation(dec)
        assert dec.Ptil @ M == dec.Qtil @ N

    def test_capacitor(self):
        dec = decompose(PolyMat([[Poly.one()]]), PolyMat([[S]]))
        M, N = image_representation(dec)
        # i = dw/dt, v = w up to unimodular freedom
        assert (dec.Ptil @ M == dec.Qtil @ N)
        assert M[0, 0].degree + N[0, 0].degree == 1

    def test_transformer_constant_kernel(self):
        P = PolyMat.constant([[0, 0], [2, 1]])
        Q = PolyMat.constant([[1, -2], [0, 0]])
        dec = decompose(P, Q)
        M, N = image_representation(dec)
        assert all(e.degree <= 0 for row in M.entries + N.entries for e in row)


class TestPartition:
    def test_transformer(self):
        P = PolyMat.constant([[0, 0], [2, 1]])
        Q = PolyMat.constant([[1, -2], [0, 0]])
        part = passive_partition(P, Q)
        assert part.Qio == PolyMat.constant([[1, 0], [0, -1]])
        assert part.Pio == PolyMat.constant([[0, 2], [2, 0]])
        assert check_pair(part.Pio, part.Qio).overall == PASS

    def test_capacitor_current_input(self):
        part = passive_partition(PolyMat([[Poly.one()]]), PolyMat([[S]]))
        # the max-degree determinant term comes from Q, so the input is the
        # current and the proper transfer is 1/s
        assert part.Qio == PolyMat([[S]])
        assert part.Pio == PolyMat([[Poly.one()]])
        assert part.input_ports_current == (0,)

    def test_resistor_tie_break(self):
        part = passive_partition(PolyMat.identity(1), PolyMat.identity(1))
        assert part.Qio.det().degree == 0  # either choice valid, must verify

    def test_rejects_non_pr_pair(self):
        f = S * S + 1
        with pytest.raises(NotPositiveRealError):
            passive_partition(PolyMat([[f * (S + 1)]]), PolyMat([[f * S]]))

    def test_invariants_on_random_pr_pairs(self):
        """Partition invariants + the partitioned pair is again positive real."""
        cases = [
            (PolyMat([[S + 1]]), PolyMat([[S]])),
            (PolyMat([[Poly.one()]]), PolyMat([[S]])),
            (PolyMat([[S]]), PolyMat([[Poly.one()]])),   # inductor: improper pair
            (PolyMat.constant([[0, 0], [2, 1]]), PolyMat.constant([[1, -2], [0, 0]])),
            (PolyMat([[S + 2, Poly.zero()], [Poly.zero(), Poly.one()]]),
             PolyMat([[S + 1, Poly.zero()], [Poly.zero(), S]])),
        ]
        for P, Q in cases:
            v = check_pair(P, Q)
            if v.overall != PASS:
                continue
            part = passive_partition(P, Q, verdict=v)
            n = P.rows
            assert part.T1.T @ part.T1 + part.T2.T @ part.T2 == PolyMat.identity(n)
            assert part.S1 @ part.S1.T == PolyMat.identity(2 * n)
            assert part.Pio.hstack(-part.Qio) == P.hstack(-Q) @ part.S1
            assert delta(part.Pio.hstack(-part.Qio)) == part.Qio.det().degree
            assert check_pair(part.Pio, part.Qio).overall == PASS


class TestEnergyIdentity:
    def test_bdf_boundary_formula_matches_quadrature(self):
        """For the controllable scalar example, the integration-by-parts
        identity with the divided-difference kernel reproduces the energy
        integral to 1e-6:

        int (M w)(N w) dt = int w * (M* N w) dt + [L_{Phi_M}(w, N w)]
        """
        dec = decompose(PolyMat([[S + 1]]), PolyMat([[S]]))
        M, N = image_representation(dec)
        Mp, Np = M[0, 0], N[0, 0]
        phi = bdf_phi(Mp)
        w = Signal([Atom(0.7, power=2, rate=-0.4, trig="sin", freq=1.3),
                    Atom(-0.3, power=0, rate=-0.2, trig="cos", freq=0.7)])

        def apply_poly(p, sig):
            out = Signal.zero()
            for k, c in enumerate(p.coeffs):
                out = out + sig.deriv(k).scale(float(c))
            return out

        i_sig = apply_poly(Mp, w)
        v_sig = apply_poly(Np, w)
        mstar_v = apply_poly(Mp.star(), v_sig)

        t0, t1, h = 0.0, 6.0, 1e-3
        ts = np.arange(0, round((t1 - t0) / h) + 1) * h + t0
        from scipy.integrate import simpson
        lhs = simpson(i_sig(ts) * v_sig(ts), x=ts)
        rhs_int = simpson(w(ts) * mstar_v(ts), x=ts)

        def boundary(t):
            acc = 0.0
            for i, row in enumerate(phi.grid):
                for j, c in enumerate(row):
                    if c != 0:
                        acc += float(c) * w.deriv(i)(t) * v_sig.deriv(j)(t)
            return acc

        rhs = rhs_int + boundary(t1) - boundary(t0)
        assert abs(lhs - rhs) < 1e-6
