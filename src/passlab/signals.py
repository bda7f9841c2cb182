"""Closed-form smooth test signals.

A Signal is a finite sum of atoms  c * t^k * exp(a*t) * trig(b*t)  with
trig one of {1, sin, cos}.  The class is closed under differentiation,
which the trajectory checks rely on: boundary terms of integration-by-
parts identities need exact derivatives of every order.

A tiny parser accepts CLI expressions such as "sin(t)", "2*cos(3t)",
"sin(2.5*t)", "t^2*exp(-0.5t) - 0.25", "sin(t)+0.5*cos(2t)".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Atom:
    coef: float
    power: int = 0
    rate: float = 0.0
    trig: str | None = None  # None, "sin" or "cos"
    freq: float = 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        val = self.coef * np.ones_like(t)
        if self.power:
            val = val * t ** self.power
        if self.rate:
            val = val * np.exp(self.rate * t)
        if self.trig == "sin":
            val = val * np.sin(self.freq * t)
        elif self.trig == "cos":
            val = val * np.cos(self.freq * t)
        return val

    def derivative(self) -> list["Atom"]:
        out = []
        if self.power:
            out.append(Atom(self.coef * self.power, self.power - 1,
                            self.rate, self.trig, self.freq))
        if self.rate:
            out.append(Atom(self.coef * self.rate, self.power,
                            self.rate, self.trig, self.freq))
        if self.trig == "sin":
            out.append(Atom(self.coef * self.freq, self.power,
                            self.rate, "cos", self.freq))
        elif self.trig == "cos":
            out.append(Atom(-self.coef * self.freq, self.power,
                            self.rate, "sin", self.freq))
        return out


class Signal:
    """Finite sum of atoms; immutable; closed under d/dt."""

    __slots__ = ("atoms",)

    def __init__(self, atoms=()):
        object.__setattr__(self, "atoms",
                           tuple(a for a in atoms if a.coef != 0))

    def __setattr__(self, *a):
        raise AttributeError("Signal is immutable")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for a in self.atoms:
            out = out + a(t)
        return out if out.shape else float(out)

    def derivative(self) -> "Signal":
        out = []
        for a in self.atoms:
            out.extend(a.derivative())
        return Signal(out)

    def deriv(self, order: int) -> "Signal":
        s = self
        for _ in range(order):
            s = s.derivative()
        return s

    def __add__(self, other: "Signal") -> "Signal":
        return Signal(self.atoms + other.atoms)

    def __neg__(self) -> "Signal":
        return Signal(Atom(-a.coef, a.power, a.rate, a.trig, a.freq)
                      for a in self.atoms)

    def __sub__(self, other: "Signal") -> "Signal":
        return self + (-other)

    def scale(self, c: float) -> "Signal":
        return Signal(Atom(c * a.coef, a.power, a.rate, a.trig, a.freq)
                      for a in self.atoms)

    # -- convenience constructors ------------------------------------------

    @staticmethod
    def zero() -> "Signal":
        return Signal()

    @staticmethod
    def constant(c: float) -> "Signal":
        return Signal([Atom(float(c))])

    @staticmethod
    def monomial(k: int, coef: float = 1.0) -> "Signal":
        return Signal([Atom(float(coef), power=k)])

    @staticmethod
    def sine(freq: float = 1.0, coef: float = 1.0) -> "Signal":
        return Signal([Atom(float(coef), trig="sin", freq=float(freq))])

    @staticmethod
    def cosine(freq: float = 1.0, coef: float = 1.0) -> "Signal":
        return Signal([Atom(float(coef), trig="cos", freq=float(freq))])

    @staticmethod
    def exponential(rate: float, coef: float = 1.0) -> "Signal":
        return Signal([Atom(float(coef), rate=float(rate))])


_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_COEF = rf"(?:{_NUM}|[-+])"  # bare sign means +/- 1
_FACTOR_RES = [
    ("num", re.compile(rf"({_NUM})$")),
    ("t", re.compile(r"t$")),
    ("tpow", re.compile(r"t\^(\d+)$")),
    ("trig", re.compile(rf"(sin|cos)\(\s*({_COEF})?\s*\*?\s*t\s*\)$")),
    ("exp", re.compile(rf"exp\(\s*({_COEF})?\s*\*?\s*t\s*\)$")),
]


def _coef_value(text: str | None) -> float:
    if text is None:
        return 1.0
    if text == "-":
        return -1.0
    if text == "+":
        return 1.0
    return float(text)


def _top_level(text: str):
    """(index, char) for each character outside every pair of parentheses."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            yield i, ch


def parse_signal(text: str):
    """Parse a sum of products of atoms into a Signal.

    Raises ValueError on anything outside the supported grammar.
    """
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty signal expression")
    # split the top level into signed terms
    terms: list[str] = []
    start = 0
    for i, ch in _top_level(text):
        if ch in "+-" and i > start and text[i - 1] not in "eE*^(+-":
            terms.append(text[start:i])
            start = i
    terms.append(text[start:])

    atoms = []
    for term in terms:
        sign = 1.0
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ValueError("dangling sign in signal expression")
        coef, power, rate, trig, freq = sign, 0, 0.0, None, 0.0
        cuts = [i for i, ch in _top_level(term) if ch == "*"]
        factors = [term[a + 1:b] for a, b in zip([-1] + cuts, cuts + [len(term)])]
        for factor in factors:
            if not factor:
                raise ValueError(f"empty factor in {term!r}")
            for kind, rx in _FACTOR_RES:
                m = rx.match(factor)
                if m:
                    break
            else:
                raise ValueError(f"unknown signal atom {factor!r}")
            if kind == "num":
                coef *= float(m.group(1))
            elif kind == "t":
                power += 1
            elif kind == "tpow":
                power += int(m.group(1))
            elif kind == "trig":
                if trig is not None:
                    raise ValueError("at most one trig factor per term")
                trig = m.group(1)
                freq = _coef_value(m.group(2))
            elif kind == "exp":
                rate += _coef_value(m.group(1))
        atoms.append(Atom(coef, power, rate, trig, freq))
    return Signal(atoms)


def parse_signal_vector(text: str) -> list:
    """Semicolon-separated channel expressions, e.g. "sin(t); 0"."""
    return [parse_signal(part) for part in text.split(";")]
