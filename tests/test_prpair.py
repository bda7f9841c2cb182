import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from check_pair_ref import check_condition2_ref
from conftest import (corpus, pool_pairs, rand_fullrank_pair, rand_nonsingular,
                      rand_poly, rand_polymat)
from test_certificate import coupled_rc
from test_pass_path import outcome

import passlab.poly
import passlab.prpair
from passlab.behavior import (DecompositionError, coupling_condition_direct,
                              decompose)
from passlab.jsonio import parse_ss
from passlab.poly import Poly, find_negative_point
from passlab.polymatrix import PolyMat, charpoly, normalrank
from passlab.prpair import (FAIL, INCONCLUSIVE, PASS, _axis_violation,
                            _pr_density, axis_psd, check_condition1,
                            check_condition2, check_condition3, check_pair,
                            pr_form)
from passlab.statespace import realize_behavior

S = Poly.x()
OSC_FACTOR = S * S + 1


def spectral_pairs():
    """(name, P, Q, expected overall) covering all spec examples."""
    one = Poly.one()
    return [
        ("controllable", PolyMat([[S + 1]]), PolyMat([[S]]), PASS),
        ("uncontrollable-oscillator", PolyMat([[OSC_FACTOR * (S + 1)]]),
         PolyMat([[OSC_FACTOR * S]]), FAIL),
        ("hidden-lossless", PolyMat([[S + 1]]), PolyMat([[(S + 1) * S]]), FAIL),
        ("capacitor", PolyMat([[one]]), PolyMat([[S]]), PASS),
        ("resistor", PolyMat.identity(1), PolyMat.identity(1), PASS),
        ("transformer", PolyMat.constant([[0, 0], [2, 1]]),
         PolyMat.constant([[1, -2], [0, 0]]), PASS),
    ]


class TestCondition2:
    def test_shared_oscillator_factor_fails_with_axis_witness(self):
        v = check_condition2(PolyMat([[OSC_FACTOR * (S + 1)]]), PolyMat([[OSC_FACTOR * S]]))
        assert v.status == FAIL
        lams = [w.lam for w in v.witnesses]
        assert any(abs(z - 1j) < 1e-6 for z in lams)
        assert any(abs(z + 1j) < 1e-6 for z in lams)
        assert all(w.reverified for w in v.witnesses)

    def test_coprime_passes(self):
        assert check_condition2(PolyMat([[S + 1]]), PolyMat([[S]])).status == PASS

    def test_transformer_passes(self):
        P = PolyMat.constant([[0, 0], [2, 1]])
        Q = PolyMat.constant([[1, -2], [0, 0]])
        assert check_condition2(P, Q).status == PASS

    def test_normalrank_deficient_immediate_fail(self):
        P = PolyMat([[S, S], [S, S]])
        Q = PolyMat([[S, S], [S, S]])
        v = check_condition2(P, Q)
        assert v.status == FAIL and "normalrank" in v.detail


class TestCondition1:
    def test_controllable_scalar(self):
        v = check_condition1(PolyMat([[S + 1]]), PolyMat([[S]]))
        assert v.status == PASS

    def test_remark_2x2_axis_indefinite(self):
        P = PolyMat([[Poly.zero(), S + 1], [Poly.zero(), Poly.zero()]])
        Q = PolyMat([[Poly.zero(), Poly.zero()], [Poly.zero(), S + 2]])
        v = check_condition1(P, Q)
        assert v.status == FAIL
        w = v.witnesses[0]
        assert w.kind == "axis-indefinite" and abs(w.lam.real) < 1e-9
        # witness re-check: the quadratic form is strictly negative
        H = pr_form(P, Q, w.lam)
        z = np.array(w.vector)
        assert np.real(z.conj() @ H @ z) < 0

    def test_short_circuit_identity(self):
        v = check_condition1(PolyMat.identity(2), PolyMat.identity(2))
        assert v.status == PASS

    def test_rhp_determinant_zero_with_cond2_pass(self):
        # P = s, Q = s - 2: density -2s^2 is PSD on the axis, the pair is
        # coprime (condition 2 holds), but det(P+Q) = 2s - 2 has the RHP
        # zero +1, where the form turns negative.
        P, Q = PolyMat([[S]]), PolyMat([[S - 2]])
        v = check_condition1(P, Q)
        assert v.status == FAIL
        w = v.witnesses[0]
        assert w.kind == "rhp-direction" and w.value < 0
        assert abs(w.lam - 1.0) < 1e-9

    def test_negative_resistor_fails_on_axis(self):
        v = check_condition1(PolyMat([[Poly.constant(-1)]]), PolyMat.identity(1))
        assert v.status == FAIL

    def test_near_axis_violation_is_inconclusive(self):
        # G = 1 + 1/(s - a), a = 1e-12: PQ*+QP* = -2a(1 - a) < 0 at w = 0
        # exactly, but the float view of Phi(j0) is inside the PSD floor
        a = Fraction(1, 10**12)
        v = check_condition1(PolyMat([[S + 1 - a]]), PolyMat([[S - a]]))
        assert v.status == INCONCLUSIVE and not v.witnesses
        assert v.detail.startswith("exact axis violation not visible numerically")
        assert "w* = 0" in v.detail and "is -2e-12" in v.detail

    def test_axis_zero_without_negative_direction_is_inconclusive(self):
        # passive (A = -a < 0, C = B^T, D = 1) with a = 1e-300: the zero of
        # det(P+Q) near -1e-300 is tagged axis robustly, yet no direction
        # with negative energy shows there
        ss = parse_ss({"kind": "ss", "A": [["-1e-300"]], "B": [["1e-300"]],
                       "C": [["1e-300"]], "D": [["1"]]})
        P, Q = realize_behavior(ss)
        v = check_condition1(P, Q)
        assert v.status == INCONCLUSIVE and not v.witnesses
        assert v.detail == ("no strictly negative direction at the closed-RHP "
                            "zeros of det(P+Q): -1e-300+0j (axis)")
        assert check_pair(P, Q).overall == INCONCLUSIVE

    def test_detail_follows_the_rank_condition_status(self):
        # the common factor h = q s - q - 1 (q the prime of `shown_coprime`)
        # puts a zero of det(P+Q) near 1 where the float view of [P -Q] sees
        # no rank drop: condition 2 is inconclusive, not failed.  A pair
        # that shares the factor s - 2 fails condition 2.
        q = passlab.poly._SQUAREFREE_PRIME
        h = q * S - q - 1
        tail = "; condition 1 is not decided separately"
        v = check_pair(PolyMat([[h * (q * S + 1)]]), PolyMat([[h * (S + 1)]]))
        assert (v.cond1.status, v.cond2.status) == (INCONCLUSIVE, INCONCLUSIVE)
        assert v.cond1.detail == ("det(P+Q) vanishes on the closed right "
                                  "half-plane where the rank condition is "
                                  "undecided" + tail)
        v = check_pair(PolyMat([[(S - 2) * (S + 2)]]),
                       PolyMat([[(S - 2) * (S + 1)]]))
        assert (v.cond1.status, v.cond2.status) == (INCONCLUSIVE, FAIL)
        assert v.cond1.detail == ("det(P+Q) vanishes on the closed right "
                                  "half-plane where the rank condition "
                                  "already fails" + tail)

    @pytest.mark.parametrize("eps", [Fraction(1, 10**9), Fraction(1, 10**12)])
    def test_witness_only_right_of_the_axis(self, eps):
        # G = 1 + eps/s is passive; det(P+Q) = 2s + eps vanishes at -eps/2,
        # inside the band, where PQ* + QP* reads -eps^2/2 < 0.  The twin
        # with -eps is not passive, and its witness sits at +eps/2.
        v = check_pair(PolyMat([[S + eps]]), PolyMat([[S]]))
        assert v.overall == INCONCLUSIVE and not v.all_witnesses()
        assert v.cond1.detail.startswith("no strictly negative direction")
        v = check_pair(PolyMat([[S - eps]]), PolyMat([[S]]))
        assert v.overall == FAIL
        assert [w.lam.real > 0 for w in v.all_witnesses()] == [True]

    def test_symmetry_under_swap(self):
        """The defining expression is symmetric in (P, Q)."""
        rng = random.Random(12)
        for _ in range(10):
            P, Q = rand_fullrank_pair(rng, rng.randint(1, 2), 2)
            a = check_condition1(P, Q).status
            b = check_condition1(Q, P).status
            assert a == b


class TestCondition1SamplingOracle:
    def test_verdict_consistent_with_halfplane_sampling(self):
        """Independent check of the boundary+analyticity route: sample the
        Hermitian form P(lam)Q(lam)^H + Q(lam)P(lam)^H over a grid in the
        closed right half-plane.  A pass must never exhibit a sampled
        negative eigenvalue; a fail witness must reproduce one."""
        rng = random.Random(424242)
        grid = [complex(re, im) for re in (0.0, 0.05, 0.4, 1.3, 3.0)
                for im in (-2.5, -0.9, 0.0, 0.7, 2.1)]
        checked_pass = checked_fail = 0
        while checked_pass < 12 or checked_fail < 12:
            P, Q = rand_fullrank_pair(rng, rng.randint(1, 2), 2)
            v = check_condition1(P, Q)
            if v.status == PASS:
                worst = min(np.linalg.eigvalsh(
                    (pr_form(P, Q, z) + pr_form(P, Q, z).conj().T) / 2)[0]
                    for z in grid)
                scale = max(np.linalg.norm(pr_form(P, Q, z)) for z in grid)
                assert worst >= -1e-8 * (1.0 + scale), (P, Q, worst)
                checked_pass += 1
            elif v.status == FAIL and v.witnesses:
                w = v.witnesses[0]
                if w.lam is None or w.vector is None:
                    continue
                z = np.array(w.vector)
                val = np.real(z.conj() @ pr_form(P, Q, w.lam) @ z)
                assert val < 0, (P, Q, val)
                checked_fail += 1


def axis_violation_by_minors(Phi: PolyMat):
    """Reference: the former axis test, every principal minor of the
    para-Hermitian Phi, smallest subsets first, each decided on the axis by
    `find_negative_point`.  Returns (subset, h, w*) for the first minor
    negative somewhere, or None."""
    n = Phi.rows
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            minor = Phi.submatrix(subset, subset).det()
            if minor.is_zero:
                continue
            h = minor.real_on_axis()
            wstar = find_negative_point(h)
            if wstar is not None:
                return subset, h, wstar
    return None


def para_hermitian_density(rng: random.Random, n: int) -> PolyMat:
    """PQ* + QP* for P = T P0, Q = T, that is T (P0 + P0*) T*, with
    P0 = L L* + K - K* + c E: L L* is PSD on the axis, K - K* para-skew, and
    E constant symmetric with a zero diagonal.  With c = 0 the density is
    PSD on the axis; with c != 0 and T = I its diagonal still is, so a
    failure shows first at a minor of size 2 or more."""
    L = rand_polymat(rng, n, n, 1, 3)
    K = rand_polymat(rng, n, n, 1, 3)
    E = [[0 if i == j else rng.randint(-3, 3) for j in range(n)] for i in range(n)]
    E = [[E[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    c = rng.choice((0, 0, 1, 2))
    P0 = L @ L.star() + K - K.star() + PolyMat.constant(E) * c
    T = PolyMat.identity(n) if rng.random() < 0.6 else rand_polymat(rng, n, n, 1, 2)
    P, Q = T @ P0, T
    return P @ Q.star() + Q @ P.star()


def principal_minor_sums(M: PolyMat) -> list[Poly]:
    """E_0, ..., E_n: the sums of the k x k principal minors, by brute force."""
    n = M.rows
    return [sum((M.submatrix(sub, sub).det()
                 for sub in itertools.combinations(range(n), k)), Poly.zero())
            for k in range(n + 1)]


class TestAxisPsd:
    def test_matches_minor_scan(self):
        """Old-equals-new: the diagonal scan plus the characteristic
        polynomial name the same (subset, h, w*) as the full minor scan, on
        passes, failures at a 1 x 1 minor and failures first seen at size 2
        or more."""
        rng = random.Random(271828)
        seen = {"pass": 0, "size 1": 0, "size >= 2": 0}
        for k in range(72):
            n = 1 + k % 6
            if k % 3 == 2:
                P, Q = rand_fullrank_pair(rng, n, 1)
                Phi = P @ Q.star() + Q @ P.star()
            else:
                Phi = para_hermitian_density(rng, n)
            want = axis_violation_by_minors(Phi)
            assert _axis_violation(Phi) == want, Phi
            assert axis_psd(Phi) == ((True, None) if want is None
                                     else (False, want[2]))
            seen["pass" if want is None else
                 "size 1" if len(want[0]) == 1 else "size >= 2"] += 1
        assert min(seen.values()) >= 8, seen

    def test_two_negative_eigenvalues(self):
        """[[1, 2, 2], [2, 1, 2], [2, 2, 1]] has the eigenvalues 5, -1, -1:
        its diagonal and its determinant are positive, and only E_2 = -9
        shows the failure."""
        Phi = PolyMat.constant([[1, 2, 2], [2, 1, 2], [2, 2, 1]])
        want = ((0, 1), Poly.constant(-3), Fraction(0))
        assert axis_violation_by_minors(Phi) == want
        assert _axis_violation(Phi) == want

    def test_pass_takes_no_minor(self, monkeypatch):
        """On a density PSD on the whole axis, the diagonal and the
        characteristic polynomial decide: no determinant is taken."""
        P, Q = realize_behavior(coupled_rc(6))
        Phi = P @ Q.star() + Q @ P.star()

        def no_det(self):
            raise AssertionError("a principal minor was taken")

        monkeypatch.setattr(PolyMat, "det", no_det)
        assert _axis_violation(Phi) is None

    def test_charpoly_gives_principal_minor_sums(self):
        """(-1)^k c_k of det(tI - M) is E_k, on square matrices n = 0..5,
        some with zero rows and columns, and not para-Hermitian."""
        rng = random.Random(314159)
        for draw in range(36):
            n = draw % 6
            rows = [[rand_poly(rng, 2, 4) for _ in range(n)] for _ in range(n)]
            if n and draw % 4 == 1:
                rows[rng.randrange(n)] = [Poly.zero()] * n
            if n and draw % 4 == 3:
                j = rng.randrange(n)
                rows = [[Poly.zero() if i == j else e for i, e in enumerate(r)]
                        for r in rows]
            M = PolyMat(rows, cols=n)
            c = charpoly(M)
            assert len(c) == n + 1 and c[0] == Poly.one()
            assert [-ck if k & 1 else ck for k, ck in enumerate(c)] == \
                principal_minor_sums(M)
            assert c[n] == (-M).det()
        assert charpoly(PolyMat([], cols=0)) == [Poly.one()]
        assert charpoly(PolyMat.zeros(3, 3)) == [Poly.one()] + [Poly.zero()] * 3

    def test_transformer_zero_density(self):
        P = PolyMat.constant([[0, 0], [2, 1]])
        Q = PolyMat.constant([[1, -2], [0, 0]])
        Phi = P @ Q.star() + Q @ P.star()
        ok, _ = axis_psd(Phi)
        assert ok and Phi.is_zero

    def test_rejects_non_para_hermitian(self):
        with pytest.raises(ValueError):
            axis_psd(PolyMat([[S]]))


class TestCondition3:
    def test_hidden_lossless_mode(self):
        v = check_condition3(PolyMat([[S + 1]]), PolyMat([[(S + 1) * S]]))
        assert v.status == FAIL
        w = v.witnesses[0]
        assert abs(w.lam - (-1)) < 1e-6
        assert w.reverified

    def test_squared_factor_full_normalrank(self):
        v = check_condition3(PolyMat([[(S + 1) ** 2]]), PolyMat([[(S + 1) * S]]))
        assert v.status == PASS

    def test_capacitor_controllable(self):
        v = check_condition3(PolyMat([[Poly.one()]]), PolyMat([[S]]))
        assert v.status == PASS


class TestCheckPair:
    @pytest.mark.parametrize("name,P,Q,expected", spectral_pairs())
    def test_catalog(self, name, P, Q, expected):
        assert check_pair(P, Q).overall == expected

    def test_uncontrollable_oscillator_blames_condition2(self):
        v = check_pair(PolyMat([[OSC_FACTOR * (S + 1)]]), PolyMat([[OSC_FACTOR * S]]))
        assert v.cond2.status == FAIL and v.overall == FAIL

    def test_scaling_invariance(self):
        rng = random.Random(13)
        c = Fraction(3, 2)
        for _ in range(8):
            P, Q = rand_fullrank_pair(rng, rng.randint(1, 2), 2)
            v1 = check_pair(P, Q)
            v2 = check_pair(P * c, Q * c)
            assert (v1.cond1.status, v1.cond2.status, v1.cond3.status) == \
                   (v2.cond1.status, v2.cond2.status, v2.cond3.status)

    def test_witnesses_reverify(self):
        for _, P, Q, expected in spectral_pairs():
            v = check_pair(P, Q)
            for w in v.all_witnesses():
                assert w.reverified


class TestInconclusiveEscalation:
    def test_near_axis_zero_reports_inconclusive(self):
        """A rank-drop point whose region tag flips when the axis band widens
        tenfold must produce an inconclusive verdict, not pass/fail."""
        a = Fraction(5, 10**9)
        g = S * S + 2 * a * S + (a * a + 1)  # zeros at -5e-9 +/- j
        P = PolyMat([[g * (S + 1)]])
        Q = PolyMat([[g * S]])
        v = check_pair(P, Q)
        assert v.cond2.status == INCONCLUSIVE
        assert v.overall == INCONCLUSIVE

    def test_clearly_stable_zero_still_passes(self):
        g = S * S + 2 * S + 2  # zeros at -1 +/- j, far from the band
        P = PolyMat([[g * (S + 1)]])
        Q = PolyMat([[g * S]])
        assert check_pair(P, Q).cond2.status == PASS


class TestCouplingAgreement:
    """The syzygy-rank form of the coupling condition agrees with the
    divisibility form on the decomposition, whenever condition 2 holds."""

    def _instances(self):
        rng = random.Random(2718)
        # family (b): lossless controllable scaled by a common factor
        factors = [Poly.one(), S + 1, S + 2, (S + 1) * (S + 2), S + Fraction(1, 2)]
        for f in factors:
            yield PolyMat([[f * 1]]), PolyMat([[f * S]])       # capacitor
            yield PolyMat([[f * S]]), PolyMat([[f * 1]])       # inductor
        # family (c): n = 2 diagonal mixes of lossless and resistive ports
        for f in factors:
            yield (PolyMat([[f * 1, Poly.zero()], [Poly.zero(), S + 3]]),
                   PolyMat([[f * S, Poly.zero()], [Poly.zero(), Poly.one()]]))
        # families (a) and (d), interleaved for as long as the test needs
        while True:
            yield rand_fullrank_pair(rng, rng.randint(1, 3), rng.randint(1, 3))
            F = rand_nonsingular(rng, 1, 1)
            P0, Q0 = rand_fullrank_pair(rng, 1, 2)
            yield F @ P0, F @ Q0

    def test_agreement_on_100_instances(self):
        checked = 0
        for P, Q in self._instances():
            if checked >= 100:
                break
            if check_condition2(P, Q).status != PASS:
                continue
            try:
                dec = decompose(P, Q)
            except DecompositionError:
                continue
            direct = coupling_condition_direct(dec)
            syzygy = check_condition3(P, Q).status == PASS
            assert direct == syzygy, (P, Q)
            checked += 1
        assert checked == 100


class TestCheckPairSharesDensity:
    def test_matches_public_conditions(self):
        """check_pair builds PQ* + QP* once for conditions 1 and 3; its
        verdict equals the one each public condition gives on its own."""
        rng = random.Random(1729)
        pairs = [(P, Q) for _, P, Q, _ in spectral_pairs()]
        pairs += [rand_fullrank_pair(rng, rng.randint(1, 3), rng.randint(1, 3))
                  for _ in range(30)]
        pairs.append((PolyMat([[S, S], [S, S]]), PolyMat([[S, S], [S, S]])))
        statuses = set()
        for P, Q in pairs:
            c2 = check_condition2(P, Q)
            want = (check_condition1(P, Q), c2, check_condition3(P, Q))
            v = check_pair(P, Q)
            assert (v.cond1, v.cond2, v.cond3) == want
            statuses.add(v.cond3.status)
        assert {PASS, FAIL} <= statuses


# -- condition 2 from coprime determinants, PQ* + QP* on integers -------------


def mixed_denominators(rng: random.Random, M: PolyMat) -> PolyMat:
    """M with each entry scaled by its own p/q, p, q <= 9, or zeroed (one
    in ten)."""
    return PolyMat([[e * Fraction(rng.randint(1, 9), rng.randint(1, 9))
                     if rng.random() >= 0.1 else Poly.zero() for e in row]
                    for row in M.entries], cols=M.cols)


def planted(rng: random.Random, f: Poly, n: int) -> tuple[PolyMat, PolyMat]:
    """(F P0, F Q0) with a common left factor F = T diag(f, 1, ..., 1), T
    constant and nonsingular, so det F = c f."""
    P0, Q0 = rand_fullrank_pair(rng, n, 2)
    while True:
        T = PolyMat.constant([[rng.randint(-3, 3) for _ in range(n)]
                              for _ in range(n)])
        if not T.det().is_zero:
            break
    D = PolyMat([[f if i == j == 0 else Poly.one() if i == j else Poly.zero()
                  for j in range(n)] for i in range(n)])
    return T @ D @ P0, T @ D @ Q0


PRIME = passlab.poly._SQUAREFREE_PRIME  # the prime of `shown_coprime`
BAND = Fraction(1, 10**10)  # a tenth of the default axis band


class TestCondition2FromCoprimeDeterminants:
    """`check_condition2` passes pairs with coprime det P and det Q before
    its `minor_gcd` sweep; on every pair it must give the sweep's verdict,
    detail and witnesses, or raise what the sweep raises."""

    @staticmethod
    def assert_old_equals_new(pairs):
        for label, P, Q in pairs:
            new = outcome(check_condition2, P, Q)
            assert new == outcome(check_condition2_ref, P, Q), label

    def test_reference_pool(self):
        self.assert_old_equals_new(pair[:3] for pair in pool_pairs())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_random_rational_pairs(self, n):
        rng = random.Random(8675309 + n)
        pairs = []
        for k in range(12):
            P, Q = rand_fullrank_pair(rng, n, rng.randint(1, 2))
            pairs.append((f"n={n} #{k}", mixed_denominators(rng, P),
                          mixed_denominators(rng, Q)))
        self.assert_old_equals_new(pairs)

    @pytest.mark.parametrize("f,status", [
        (S - 2, FAIL), (S * S - S + 3, FAIL),           # open RHP
        (S, FAIL), (S * S + 4, FAIL),                   # on the axis
        (S - BAND, FAIL), (S + BAND, FAIL),             # in the axis band
        (S + 50 * BAND, INCONCLUSIVE),                  # in the tenfold band
        (S + 3, PASS), (S * S + 2 * S + 5, PASS)])      # open LHP
    def test_planted_common_factor(self, f, status):
        rng = random.Random(31337)
        pairs = [(f"n={n} #{k}", *planted(rng, f, n))
                 for n in (1, 2, 3) for k in range(3)]
        self.assert_old_equals_new(pairs)
        assert {check_condition2(P, Q).status for _, P, Q in pairs} == {status}

    def test_singular_det_p(self):
        P = PolyMat([[S + 1, S + 1], [2 * S, 2 * S]])
        Q = PolyMat([[S, Poly.one()], [Poly.zero(), S + 2]])
        assert P.det().is_zero
        self.assert_old_equals_new([("det P = 0", P, Q), ("det Q = 0", Q, P),
                                    ("both", P, P)])

    def test_prime_divides_the_leading_coefficient(self):
        # common factor q s - q - 1 (zero near 1, in the open RHP): it is 1
        # less a multiple of q, a unit modulo q, so its images modulo q are
        # coprime, and only the leading-coefficient rule keeps the proof
        # from passing the pair
        h = PRIME * S - PRIME - 1
        pairs = [("hidden", PolyMat([[h * (S + 2)]]), PolyMat([[3 * h]])),
                 ("lc(det P) only, coprime", PolyMat([[PRIME * S + 1]]),
                  PolyMat([[S + 5]])),
                 ("lc(det P) only, shared", PolyMat([[(S - 2) * (PRIME * S + 1)]]),
                  PolyMat([[(S - 2) * (S - 1)]])),
                 ("shared h, coprime minors",
                  PolyMat([[h, Poly.zero()], [Poly.zero(), S + 1]]),
                  PolyMat([[7 * h, Poly.one()], [Poly.zero(), PRIME * S]]))]
        self.assert_old_equals_new(pairs)
        assert [check_condition2(P, Q).status for _, P, Q in pairs] == \
            [FAIL, PASS, FAIL, PASS]
        # the float rank re-check at the zero of h does not see the exact
        # rank drop: the frozen reference raises, the body says inconclusive
        # and shows both views
        P, Q = PolyMat([[h * (PRIME * S + 1)]]), PolyMat([[h * (S - 1)]])
        assert outcome(check_condition2_ref, P, Q) == (
            "AssertionError", "rank-drop witness failed re-verification")
        v = check_condition2(P, Q)
        assert v.status == INCONCLUSIVE and v.witnesses == ()
        assert v.detail == (
            "exact rank drop not visible numerically at the closed-RHP zeros "
            "of the maximal-minor gcd: at lambda = 1+0j the float smallest "
            "singular value of [P -Q] is 1, above its cut 2e-06")

    def test_no_ports(self):
        E = PolyMat([], cols=0)
        self.assert_old_equals_new([("n=0", E, E)])
        assert check_condition2(E, E).status == PASS

    def test_pool_needs_no_sweep(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("minor_gcd swept a pool pair")

        monkeypatch.setattr(passlab.prpair, "minor_gcd", refuse)
        for label, P, Q, want in pool_pairs():
            v = check_pair(P, Q)
            assert (v.cond1.status, v.cond2.status, v.cond3.status) == want, label


def density_by_polys(P: PolyMat, Q: PolyMat) -> PolyMat:
    """PQ* + QP* built from Poly objects: X = PQ*, then X + X*."""
    X = P @ Q.star()
    return X + X.star()


def assert_same_density(P: PolyMat, Q: PolyMat):
    got, want = _pr_density(P, Q), density_by_polys(P, Q)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    for a, b in zip(itertools.chain(*got.entries), itertools.chain(*want.entries)):
        assert (a.num, a.den) == (b.num, b.den)


class TestDensityOnIntegers:
    """`_pr_density` works on integer rows; its entries must be the
    numerators and denominators of the Poly-object form."""

    @pytest.mark.parametrize("n", range(7))
    def test_random_rational_pairs(self, n):
        rng = random.Random(4242 + n)
        for _ in range(6):
            P, Q = (mixed_denominators(rng, PolyMat(
                [[rand_poly(rng, 3) for _ in range(n)] for _ in range(n)],
                cols=n)) for _ in "PQ")
            if n:  # a zero row, in P here and in Q below
                rows = list(P.entries)
                rows[rng.randrange(n)] = (Poly.zero(),) * n
                P = PolyMat(rows, cols=n)
            assert_same_density(P, Q)
            assert_same_density(Q, P)

    def test_corpus_pairs(self):
        for _, ss in corpus():
            assert_same_density(*realize_behavior(ss))

    def test_reference_pool(self):
        for _, P, Q, _ in pool_pairs():
            assert_same_density(P, Q)
