"""Shared generators for randomized checks, the polynomial references
`si_matrix` and `left_coprime` that realizations are checked against, and
the float transfer function and Krylov rank tests of a state-space system,
and the benchmark's reference pool of random pairs.  Everything is seeded."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import settings

from passlab.poly import Poly
from passlab.polymatrix import PolyMat, _fmatmul, _frank, minor_gcd, normalrank
from passlab.statespace import StateSpace, observability_matrix, shifted_solve

# Same examples on every run, and no per-example deadline: big-coefficient
# examples must not flake on a slow host.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def si_matrix(A_exact) -> PolyMat:
    """The polynomial matrix sI - A, exact."""
    d = len(A_exact)
    s = Poly.x()
    return PolyMat([[s - A_exact[i][j] if i == j else Poly.constant(-A_exact[i][j])
                     for j in range(d)] for i in range(d)])


def left_coprime(A: PolyMat, B: PolyMat) -> bool:
    """Full row rank of [A B] at every complex point: a constant nonzero gcd
    of maximal minors (a zero gcd is normalrank deficiency)."""
    return minor_gcd(A.hstack(B)).degree == 0


def transfer_at(ss: StateSpace, z: complex) -> np.ndarray:
    """G(z) = D + C (zI - A)^-1 B, in floats."""
    return ss.D + ss.C @ shifted_solve(ss.A, ss.B, [z])[0]


def observable(ss: StateSpace) -> bool:
    """rank [C; C A; ...; C A^(d-1)] = d, exact."""
    return ss.d == 0 or _frank(observability_matrix(ss)) == ss.d


def controllable(ss: StateSpace) -> bool:
    """rank [B  A B  ...  A^(d-1) B] = d, exact."""
    cols = [list(r) for r in ss.B_exact]
    krylov = [row[:] for row in cols]
    for _ in range(ss.d - 1):
        cols = _fmatmul(ss.A_exact, cols)
        for row, new in zip(krylov, cols):
            row.extend(new)
    return ss.d == 0 or _frank(krylov) == ss.d


POOL = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "pairs.json"


def pool_pairs() -> list[tuple[str, PolyMat, PolyMat, tuple[str, ...]]]:
    """The random pairs of the benchmark's reference pool, read only:
    (label, P, Q, recorded (cond1, cond2, cond3) statuses)."""
    return [(f"pool #{i}",
             *(PolyMat([[Poly([Fraction(c) for c in e]) for e in row]
                        for row in rec[k]]) for k in "PQ"),
             tuple(rec["verdict"]))
            for i, rec in enumerate(json.loads(POOL.read_text()))]


def rand_poly(rng: random.Random, max_deg: int, coeff_bound: int = 5,
              nonzero: bool = False) -> Poly:
    while True:
        deg = rng.randint(0, max_deg)
        p = Poly([Fraction(rng.randint(-coeff_bound, coeff_bound))
                  for _ in range(deg + 1)])
        if not nonzero or not p.is_zero:
            return p


def rand_polymat(rng: random.Random, rows: int, cols: int,
                 max_deg: int, coeff_bound: int = 5) -> PolyMat:
    return PolyMat([[rand_poly(rng, max_deg, coeff_bound) for _ in range(cols)]
                    for _ in range(rows)])


def rand_fullrank_pair(rng: random.Random, n: int, max_deg: int
                       ) -> tuple[PolyMat, PolyMat]:
    """Random square (P, Q) with normalrank [P -Q] = n."""
    while True:
        P = rand_polymat(rng, n, n, max_deg)
        Q = rand_polymat(rng, n, n, max_deg)
        if normalrank(P.hstack(-Q)) == n:
            return P, Q


def rand_nonsingular(rng: random.Random, n: int, max_deg: int) -> PolyMat:
    while True:
        F = rand_polymat(rng, n, n, max_deg)
        if not F.det().is_zero:
            return F


def siso_sweep_system(rng: random.Random, d: int, D=((1,),)) -> StateSpace:
    """A = -(M M^T + I) + S - S^T, B random, C = B^T, entries p/q with
    |p|, q <= 3, and D = 1 unless given: passive when D + D^T >= 0, with
    X = I solving the KYP inequality."""
    rat = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    M = [[rat() for _ in range(d)] for _ in range(d)]
    S = [[rat() for _ in range(d)] for _ in range(d)]
    B = [[rat()] for _ in range(d)]
    A = [[-(sum(M[i][k] * M[j][k] for k in range(d)) + (i == j))
          + S[i][j] - S[j][i] for j in range(d)] for i in range(d)]
    return StateSpace.from_arrays(A, B, [[b[0] for b in B]], D)


def jordan_system(C, D) -> StateSpace:
    """One Jordan block at -1 of size len(C[0]), B the last unit vector."""
    d = len(C[0])
    A = [[-1 if i == j else int(j == i + 1) for j in range(d)] for i in range(d)]
    B = [[int(i == d - 1)] for i in range(d)]
    return StateSpace.from_arrays(A, B, C, D)


def corpus():
    """30 small systems: passive and not, controllable and not, observable
    and not, stable, lossless, static; all within the supported
    spectral-factorization sub-cases."""
    systems = []

    def add(name, A, B, C, D):
        systems.append((name, StateSpace.from_arrays(A, B, C, D)))

    add("rc", [[-1]], [[1]], [[1]], [[1]])
    add("rc-gain", [[-2]], [[1]], [[3]], [[1]])
    add("rc-weak", [[-0.5]], [[1]], [[0.25]], [[2]])
    add("integrator-d", [[0]], [[1]], [[1]], [[1]])
    add("capacitor", [[0]], [[1]], [[1]], [[0]])
    add("oscillator", [[0, 1], [-1, 0]], [[0], [1]], [[0, 1]], [[0]])
    add("oscillator-2", [[0, 2], [-2, 0]], [[0], [1]], [[0, 1]], [[0]])
    add("static-resistor", np.zeros((0, 0)), np.zeros((0, 1)),
        np.zeros((1, 0)), [[1]])
    add("static-2port", np.zeros((0, 0)), np.zeros((0, 2)),
        np.zeros((2, 0)), [[1, 0], [0, 2]])
    add("hidden-stable", [[-1, 0], [0, -2]], [[1], [0]], [[1, 1]], [[1]])
    add("unobservable", [[-1, 0], [0, -3]], [[1], [1]], [[1, 0]], [[1]])
    add("complex-pair", [[-1, 1], [-1, -1]], [[0], [1]], [[1, 0]], [[1]])
    add("second-order", [[0, 1], [-2, -3]], [[0], [1]], [[1, 0]], [[1]])
    add("rl-series", [[-1]], [[1]], [[-1]], [[1]])  # G = 1 - 1/(s+1), PR
    add("two-rc-diagonal", [[-1, 0], [0, -2]], [[1, 0], [0, 1]],
        [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    add("stable-gain", [[-3]], [[2]], [[2]], [[1]])
    add("lossless-integrator-pair", [[0, 0], [0, -1]], [[1], [1]],
        [[1, 1]], [[1]])
    add("cap-with-leak", [[-0.1]], [[1]], [[1]], [[0]])
    add("double-rc", [[-1, 0], [0, -2]], [[1], [1]], [[1, 1]], [[1]])
    add("prop-half", [[-1]], [[1]], [[0.5]], [[0.5]])
    # non-passive members
    add("uncont-oscillator", [[0, 0, 1], [0, 0, 1], [0, -1, 0]], [[1], [0], [0]],
        [[1, 1, 0]], [[1]])
    add("neg-resistor", np.zeros((0, 0)), np.zeros((0, 1)),
        np.zeros((1, 0)), [[-1]])
    add("unstable", [[1]], [[1]], [[1]], [[1]])
    add("neg-gain", [[-1]], [[1]], [[-3]], [[1]])
    add("too-much-gain", [[-1]], [[1]], [[-1]], [[0.5]])
    add("unstable-hidden", [[1, 0], [0, -1]], [[0], [1]], [[1, 1]], [[1]])
    add("oscillator-neg", [[0, 1], [-1, 0]], [[0], [1]], [[0, -1]], [[0]])
    add("derivative-ish", [[-1]], [[1]], [[-2]], [[1]])
    add("weak-d", [[-1]], [[1]], [[-1.5]], [[1]])
    add("axis-unstable-pair", [[0, 1], [-1, 0]], [[0], [1]], [[1, 0]], [[0]])
    assert len(systems) == 30
    return systems
