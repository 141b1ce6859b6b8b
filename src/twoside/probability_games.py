"""Dice and coin games solved three ways: exact chains, series, simulation.

The exact values come from rational linear algebra or dynamic programming;
the series route produces a bracket (partial sum plus a proven tail bound)
that must contain the exact value; the Monte Carlo route is a seeded
splitmix64 simulation compared against the exact value on a 3-sigma soft
gate (WARN, not FAIL, between 3 and 4 sigma).  The simulation takes trials
in cache-sized blocks and advances each block's splitmix states in place,
so its working memory is O(block), not O(trials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from ._lazy import np
from .analysis_brackets import geometric_series_sum
from .exact_core import Bracket, Cap, DomainError, root_bracket
from .rng import GAMMA, MASK64, MIX_1, MIX_2
from .report import IdentityReport, report_check, sigma_gate

__all__ = [
    "ModelError",
    "AbsorbingChain",
    "absorbing_chain_solve",
    "dice_chain",
    "dice_game",
    "dice_series_bracket",
    "coin_game_exact",
    "coin_game_closed_form",
    "coin_game_series_partial",
    "coin_series_tail_bracket",
    "coin_series_index_reports",
    "MonteCarloReport",
]


class ModelError(ValueError):
    """The chain description is inconsistent or absorption is unreachable."""


@dataclass(frozen=True)
class AbsorbingChain:
    """Finite chain with absorbing win/lose states and exact probabilities."""

    transitions: Mapping[str, tuple[tuple[Fraction, str], ...]]
    win: frozenset
    lose: frozenset

    def __post_init__(self):
        cleaned = {
            state: tuple((Fraction(p), target) for p, target in moves)
            for state, moves in self.transitions.items()
        }
        object.__setattr__(self, "transitions", cleaned)
        object.__setattr__(self, "win", frozenset(self.win))
        object.__setattr__(self, "lose", frozenset(self.lose))
        if self.win & self.lose:
            raise ModelError("win and lose sets overlap")
        absorbing = self.win | self.lose
        if absorbing & set(self.transitions):
            raise ModelError("absorbing states cannot have transitions")
        for state, moves in self.transitions.items():
            if sum(p for p, _ in moves) != 1:
                raise ModelError(f"probabilities at {state!r} do not sum to 1")
            if any(p < 0 for p, _ in moves):
                raise ModelError(f"negative probability at {state!r}")
            for _, target in moves:
                if target not in absorbing and target not in self.transitions:
                    raise ModelError(f"unknown target state {target!r}")


def absorbing_chain_solve(chain: AbsorbingChain) -> dict:
    """Exact win probability per transient state by Gaussian elimination."""
    transient = list(chain.transitions)
    index = {s: i for i, s in enumerate(transient)}
    size = len(transient)
    # (I - Q) p = r, where Q holds transient-to-transient mass and r the
    # one-step win mass.
    matrix = [[Fraction(0)] * size for _ in range(size)]
    rhs = [Fraction(0)] * size
    for s, moves in chain.transitions.items():
        i = index[s]
        matrix[i][i] += 1
        for p, target in moves:
            if target in chain.win:
                rhs[i] += p
            elif target not in chain.lose:
                matrix[i][index[target]] -= p
    for col in range(size):
        pivot = next((r for r in range(col, size) if matrix[r][col] != 0), None)
        if pivot is None:
            raise ModelError("singular system: absorption unreachable")
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / matrix[col][col]
        matrix[col] = [v * inv for v in matrix[col]]
        rhs[col] *= inv
        for r in range(size):
            if r != col and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b
                             for a, b in zip(matrix[r], matrix[col])]
                rhs[r] -= factor * rhs[col]
    return {s: rhs[index[s]] for s in transient}


def dice_chain() -> AbsorbingChain:
    """Start state S (first player rolls), C1 (second player rolls)."""
    sixth = Fraction(1, 6)
    return AbsorbingChain(
        transitions={
            "S": ((sixth, "A-wins"), (1 - sixth, "C1")),
            "C1": ((sixth, "B-wins"), (1 - sixth, "S")),
        },
        win={"A-wins"},
        lose={"B-wins"},
    )


#: Most series terms a game adds.  Each term's numerator grows with its
#: index; at this cap, in one process on a 2-core x86-64 container with
#: Python 3.11, `prob coin` takes about 0.03 s and `check prob.dice` 0.07 s.
SERIES_MAX_TERMS = 10 ** 4
SERIES_TERMS_CAP = Cap("SERIES_MAX_TERMS", SERIES_MAX_TERMS, least=0)


#: Most trials a game simulates.  At this cap a fresh `prob dice` process
#: takes about 6.5 s on a 2-core x86-64 container with Python 3.11 and
#: numpy 2.4.
MC_MAX_TRIALS = 10 ** 8
MC_TRIALS_CAP = Cap("MC_MAX_TRIALS", MC_MAX_TRIALS)


def dice_series_bracket(terms: int) -> Bracket:
    """Partial sum of (1/6)(25/36)^k plus the exact geometric tail."""
    return geometric_series_sum(Fraction(1, 6), Fraction(25, 36), terms)


# --- the n-th head coin game -----------------------------------------------------

def coin_game_exact(n: int) -> Fraction:
    """Probability the starter throws the n-th head, by backward DP.

    One fair flip per turn, alternating; with x the value after the next
    head, the flipper's win probability solves w = x/2 + (1 - w)/2.  With
    k heads to go, w is an integer a over 3^k, and w = (2 - x)/3 becomes
    a <- 2·3^k - a.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    a, power = 2, 3  # one head to go: 2/3
    for _ in range(n - 1):
        a = 2 * power - a
        power *= 3
    return Fraction(a, power)


def coin_game_closed_form(n: int) -> Fraction:
    if n < 1:
        raise DomainError("n must be a positive integer")
    return Fraction(1, 2) * (1 + Fraction((-1) ** (n + 1), 3 ** n))


def coin_game_series_partial(n: int, l_start: int, l_max: int) -> Fraction:
    """Partial sum of C(2L, n-1) / 2^(2L+1) over l_start <= L <= l_max."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    if l_start < 0 or l_max < l_start:
        raise DomainError("need 0 <= l_start <= l_max")
    # Each term is the integer C(2L, n-1)·4^(l_max-L) over the one
    # denominator 2^(2·l_max+1), summed by Horner's rule, so the sum is
    # normalised once, at the end.  Terms with 2L < n-1 are 0; from the
    # first nonzero one, C(a+2, m) = C(a, m)·(a+1)(a+2)/((a+1-m)(a+2-m)),
    # taken as two exact divisions through C(a+1, m).
    m = n - 1
    level = max(l_start, (m + 1) // 2)
    num = 0
    if level <= l_max:
        term = math.comb(2 * level, m)
        num = term
        for a in range(2 * level, 2 * l_max, 2):
            term = term * (a + 1) // (a + 1 - m)
            term = term * (a + 2) // (a + 2 - m)
            num = (num << 2) + term
    return Fraction(num, 2 ** (2 * l_max + 1))


def coin_series_tail_bracket(n: int, l_start: int, l_max: int) -> Bracket:
    """[partial, partial + tail bound] for the series from l_start.

    The term ratio (2L+1)(2L+2) / (4 (2L+1-m)(2L+2-m)) with m = n-1
    decreases in L, so once it is below 1 at L = l_max the remaining terms
    are dominated by a geometric series with that ratio, which needs
    l_max >= max(n, l_start).
    """
    m = n - 1
    if l_max < max(n, l_start):
        raise DomainError(f"l_max must be at least max(n, l_start) = "
                          f"{max(n, l_start)}, not {l_max}")
    partial = coin_game_series_partial(n, l_start, l_max)
    two_l = 2 * l_max
    ratio = Fraction((two_l + 1) * (two_l + 2),
                     4 * (two_l + 1 - m) * (two_l + 2 - m))
    if ratio >= 1:
        raise DomainError("l_max too small to bound the tail")
    first_omitted = Fraction(math.comb(2 * (l_max + 1), m),
                             2 ** (2 * (l_max + 1) + 1))
    return Bracket(partial, partial + first_omitted / (1 - ratio))


#: The lower summation indices `coin_series_index_reports` tries, and the
#: last index it sums before bounding the tail.
_INDEX_CANDIDATES = (0, 1)
_INDEX_L_MAX = 60


def coin_series_index_reports(n: int) -> list[IdentityReport]:
    """Which lower summation index makes the series meet the DP value.

    Nothing is silently corrected: one report per candidate start index
    compares a rigorous bracket, as its string, with the exact value, which
    either lies inside it or provably does not.
    """
    exact = coin_game_exact(n)
    reports = []
    for l_start in _INDEX_CANDIDATES:
        bracket = coin_series_tail_bracket(n, l_start, _INDEX_L_MAX)
        reports.append(report_check((n, l_start), str(bracket), exact,
                                    bracket.contains(exact)))
    return reports


# --- seeded Monte Carlo ------------------------------------------------------------

_DICE_LIMIT = (1 << 64) - ((1 << 64) % 6)
# Trials simulated together: each block's state, draw and scratch words
# (8 bytes a trial each) stay cache-sized whatever the trial count.
_MC_BLOCK = 1 << 16


def _premix64_np(z, out, tmp):
    """splitmix64's output function without its last step, y ^ (y >> 31),
    written into out.  y >> 31 has bit 63 clear, so that step leaves bit 63
    as it is: a caller that reads bit 63 alone may stop here.

    out and tmp are scratch arrays of z's length; z itself is not changed.
    """
    np.right_shift(z, np.uint64(30), out=out)
    out ^= z
    out *= np.uint64(MIX_1)
    np.right_shift(out, np.uint64(27), out=tmp)
    out ^= tmp
    out *= np.uint64(MIX_2)
    return out


def _mix64_np(z, out=None, tmp=None):
    """splitmix64 output of every word of z, written into out.

    out and tmp are scratch arrays of z's length, made here when not
    given; z itself is not changed.
    """
    if out is None:
        out, tmp = np.empty_like(z), np.empty_like(z)
    _premix64_np(z, out, tmp)
    np.right_shift(out, np.uint64(31), out=tmp)
    out ^= tmp
    return out


def _blocks(trials: int, seed: int):
    """(z, out, tmp) per block of trials: z holds trial t's splitmix state
    seed XOR t, out and tmp are uninitialised scratch of the same length."""
    for start in range(0, trials, _MC_BLOCK):
        z = np.arange(start, min(start + _MC_BLOCK, trials), dtype=np.uint64)
        z ^= np.uint64(seed & MASK64)
        yield z, np.empty_like(z), np.empty_like(z)


def monte_carlo_dice(trials: int, seed: int) -> int:
    """Starter wins in the first-six dice game; returns the hit count.

    Trial t reads its own splitmix64 substream seeded with seed XOR t; die
    rolls reject raw 64-bit draws at or above the top multiple of six.
    Trials run in blocks of ``_MC_BLOCK``: a block's states advance in
    place by GAMMA per draw.  After each roll the block keeps the states
    at the ascending indices of the trials still playing, so every trial
    keeps its stream, and working memory is O(block), not O(trials).
    """
    if trials < 1:
        raise DomainError("trials must be positive")
    hits = 0
    for z, out, tmp in _blocks(trials, seed):
        starter_turn = True
        while z.size:
            z += np.uint64(GAMMA)
            draws = _mix64_np(z, out[:z.size], tmp[:z.size])
            while draws.max() >= np.uint64(_DICE_LIMIT):
                bad = draws >= np.uint64(_DICE_LIMIT)
                z[bad] += np.uint64(GAMMA)
                draws[bad] = _mix64_np(z[bad])
            # draws % 6 in place: numpy's uint64 remainder by a scalar is
            # several times slower than its floor division.
            multiple = tmp[:z.size]
            np.floor_divide(draws, np.uint64(6), out=multiple)
            multiple *= np.uint64(6)
            draws -= multiple
            alive = np.flatnonzero(draws != np.uint64(5))
            if starter_turn:
                hits += z.size - alive.size
            z = z.take(alive)
            starter_turn = not starter_turn
    return hits


def monte_carlo_coin(n: int, trials: int, seed: int) -> int:
    """Starter wins in the n-th head coin game; one bit per flip.

    Substreams as in ``monte_carlo_dice``, in blocks of ``_MC_BLOCK`` whose
    states advance in place; a block's head counts are kept at the same
    indices as its states, so working memory is O(block), not O(trials).
    A flip reads bit 63 of the draw alone, so it stops at ``_premix64_np``.
    """
    if trials < 1:
        raise DomainError("trials must be positive")
    if n < 1:
        raise DomainError("n must be a positive integer")
    hits = 0
    for z, out, tmp in _blocks(trials, seed):
        heads = np.zeros(z.size, dtype=np.min_scalar_type(n))
        starter_turn = True
        while z.size:
            z += np.uint64(GAMMA)
            draws = _premix64_np(z, out[:z.size], tmp[:z.size])
            heads += draws >= np.uint64(1 << 63)
            alive = np.flatnonzero(heads != n)
            if starter_turn:
                hits += z.size - alive.size
            z, heads = z.take(alive), heads.take(alive)
            starter_turn = not starter_turn
    return hits


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    hits: int
    estimate: Fraction
    three_sigma: Bracket
    deviation: Fraction
    status: str


def _gate(exact: Fraction, hits: int, trials: int) -> MonteCarloReport:
    estimate = Fraction(hits, trials)
    deviation = abs(estimate - exact)
    variance = exact * (1 - exact) / trials
    sigma = root_bracket(variance, 2, Fraction(1, 10 ** 12))
    return MonteCarloReport(trials, hits, estimate, sigma.scale(3), deviation,
                            sigma_gate(deviation, sigma))


def _game_report(terms: int, exact: Fraction, closed: Fraction,
                 series: Bracket, mc: MonteCarloReport) -> IdentityReport:
    """The exact value equals the closed form and lies in the series
    bracket; the simulation gates the result."""
    return report_check((terms,), exact, series,
                        exact == closed and series.contains(exact),
                        {"mc": mc.status}, mc.status)


def dice_game(trials: int, terms: int = 40,
              seed: int = 42) -> tuple[IdentityReport, MonteCarloReport]:
    """Chain-solved value against closed form 6/11 and the series bracket,
    gated by the simulation."""
    exact = absorbing_chain_solve(dice_chain())["S"]
    series = dice_series_bracket(terms)
    mc = _gate(exact, monte_carlo_dice(trials, seed), trials)
    return _game_report(terms, exact, Fraction(6, 11), series, mc), mc


def coin_game(n: int, trials: int, terms: int = 60,
              seed: int = 42) -> tuple[IdentityReport, MonteCarloReport]:
    """Exact DP value against the closed form and the (index-0) series
    bracket, gated by the simulation."""
    exact = coin_game_exact(n)
    series = coin_series_tail_bracket(n, 0, terms)
    mc = _gate(exact, monte_carlo_coin(n, trials, seed), trials)
    return _game_report(terms, exact, coin_game_closed_form(n), series, mc), mc
