"""Theoretical bound formulae from Figure 1 of the paper.

These functions turn the paper's asymptotic statements into concrete numbers
that the experiment harness and the test-suite compare against measured
quantities.  Because the statements are ``O(·)`` bounds, each function also
exposes the *leading expression* (without constants); callers multiply by a
documented slack constant when asserting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "TheoremBound",
    "vertex_cover_bound",
    "set_cover_f_bound",
    "set_cover_greedy_bound",
    "mis_bound",
    "maximal_clique_bound",
    "matching_bound",
    "matching_mu0_bound",
    "b_matching_bound",
    "colouring_bound",
    "harmonic",
]


def harmonic(k: int) -> float:
    """``H_k``."""
    return sum(1.0 / i for i in range(1, max(0, int(k)) + 1))


@dataclass(frozen=True)
class TheoremBound:
    """A Figure-1 row turned into numbers.

    Attributes
    ----------
    name:
        The theorem / row this bound corresponds to.
    approximation:
        Guaranteed approximation ratio (≥ 1; for colouring this is the
        guaranteed colour count instead).
    rounds:
        Leading round-count expression (no hidden constant).
    space_per_machine:
        Leading per-machine space expression in words (no hidden constant).
    """

    name: str
    approximation: float
    rounds: float
    space_per_machine: float


def vertex_cover_bound(n: int, m: int, mu: float) -> TheoremBound:
    """Theorem 2.4 with ``f = 2``: 2-approx, ``O(c/µ)`` rounds, ``O(n^{1+µ})`` space."""
    c = max(mu, math.log(max(m, 2)) / math.log(max(n, 2)) - 1.0)
    return TheoremBound(
        name="Theorem 2.4 (weighted vertex cover)",
        approximation=2.0,
        rounds=c / mu,
        space_per_machine=2.0 * float(n) ** (1.0 + mu),
    )


def set_cover_f_bound(n: int, m: int, f: int, mu: float) -> TheoremBound:
    """Theorem 2.4 (general ``f``): ``f``-approx, ``O((c/µ)²)`` rounds, ``O(f·n^{1+µ})`` space.

    The approximation is floored at 1: with no elements (``f = 0``) the
    empty cover is optimal, while an ``f``-approximation would be 0.
    """
    c = max(mu, math.log(max(m, 2)) / math.log(max(n, 2)) - 1.0)
    return TheoremBound(
        name="Theorem 2.4 (weighted set cover)",
        approximation=max(1.0, float(f)),
        rounds=(c / mu) ** 2,
        space_per_machine=float(f) * float(n) ** (1.0 + mu),
    )


def set_cover_greedy_bound(
    n: int, m: int, delta: int, mu: float, epsilon: float, weight_ratio: float = 1.0
) -> TheoremBound:
    """Theorem 4.6: ``(1+ε)H_∆``-approx, ``O(log Φ · log_{1+ε}(∆·w_max/w_min) · log n / (µ² log² m))`` rounds.

    The approximation is floored at 1: with no elements (``∆ = 0``) the
    empty cover is optimal, while ``(1+ε)H_0`` would be 0.
    """
    phi = max(2.0, float(n) * float(m))
    weight_term = max(2.0, delta * max(1.0, weight_ratio))
    rounds = (
        math.log(phi)
        * (math.log(weight_term) / math.log(1.0 + epsilon))
        * math.log(max(n, 2))
        / (mu**2 * math.log(max(m, 2)) ** 2)
    )
    return TheoremBound(
        name="Theorem 4.6 (greedy weighted set cover)",
        approximation=max(1.0, (1.0 + epsilon) * harmonic(delta)),
        rounds=rounds,
        space_per_machine=float(m) ** (1.0 + mu) * math.log(max(n, 2)),
    )


def mis_bound(n: int, m: int, mu: float, *, simple: bool = False) -> TheoremBound:
    """Theorem A.3 (``O(c/µ)`` rounds) or Theorem 3.3 (``O(1/µ²)`` rounds) for MIS."""
    c = max(mu, math.log(max(m, 2)) / math.log(max(n, 2)) - 1.0)
    rounds = (1.0 / mu**2) if simple else (c / mu)
    return TheoremBound(
        name="Theorem 3.3 (simple MIS)" if simple else "Theorem A.3 (improved MIS)",
        approximation=1.0,
        rounds=rounds,
        space_per_machine=float(n) ** (1.0 + mu),
    )


def maximal_clique_bound(n: int, mu: float) -> TheoremBound:
    """Corollary B.1: maximal clique in ``O(1/µ)`` rounds, ``O(n^{1+µ})`` space."""
    return TheoremBound(
        name="Corollary B.1 (maximal clique)",
        approximation=1.0,
        rounds=1.0 / mu,
        space_per_machine=float(n) ** (1.0 + mu),
    )


def matching_bound(n: int, m: int, mu: float) -> TheoremBound:
    """Theorem 5.6: 2-approx weighted matching, ``O(c/µ)`` rounds, ``O(n^{1+µ})`` space."""
    c = max(mu, math.log(max(m, 2)) / math.log(max(n, 2)) - 1.0)
    return TheoremBound(
        name="Theorem 5.6 (weighted matching)",
        approximation=2.0,
        rounds=c / mu,
        space_per_machine=float(n) ** (1.0 + mu),
    )


def matching_mu0_bound(n: int, m: int) -> TheoremBound:
    """Theorem C.2: 2-approx weighted matching with ``O(n)`` space in ``O(log n)`` rounds."""
    return TheoremBound(
        name="Theorem C.2 (matching, linear space)",
        approximation=2.0,
        rounds=math.log(max(n, 2)),
        space_per_machine=float(n),
    )


def b_matching_bound(n: int, m: int, b: int, mu: float, epsilon: float) -> TheoremBound:
    """Theorem D.3: ``(3 − 2/max(2,b) + 2ε)``-approx b-matching.

    The space term ``b·log(1/ε)·n^{1+µ}`` floors its log factor at 1, as the
    driver floors its budget factor, so the bound stays positive for ε ≥ 1.
    """
    c = max(mu, math.log(max(m, 2)) / math.log(max(n, 2)) - 1.0)
    ratio = 3.0 - 2.0 / max(2, b) + 2.0 * epsilon
    log_factor = max(1.0, math.log(1.0 / max(epsilon, 1e-9)))
    return TheoremBound(
        name="Theorem D.3 (weighted b-matching)",
        approximation=ratio,
        rounds=c / mu,
        space_per_machine=b * log_factor * float(n) ** (1.0 + mu),
    )


def colouring_bound(n: int, m: int, delta: int, mu: float, *, edges: bool = False) -> TheoremBound:
    """Theorems 6.4 / 6.6: ``(1 + o(1))∆`` colours in ``O(1)`` rounds.

    The ``approximation`` field holds the guaranteed colour count
    ``(1 + n^{−µ/2}·sqrt(6 ln n) + n^{−µ})·∆ + κ`` of Corollary 6.3 (the
    ``+κ`` accounts for the +1 colour each of the κ groups may add).
    """
    nn = max(n, 3)
    c = max(mu, math.log(max(m, 2)) / math.log(nn) - 1.0)
    kappa = max(1.0, nn ** ((c - mu) / 2.0))
    slack = 1.0 + nn ** (-mu / 2.0) * math.sqrt(6.0 * math.log(nn)) + nn ** (-mu)
    colours = slack * max(1, delta) + kappa
    return TheoremBound(
        name="Theorem 6.6 (edge colouring)" if edges else "Theorem 6.4 (vertex colouring)",
        approximation=colours,
        rounds=3.0,
        space_per_machine=float(nn) ** (1.0 + mu),
    )
