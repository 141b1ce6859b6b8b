from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from twoside import probability_games
from twoside.exact_core import DomainError
from twoside.probability_games import (AbsorbingChain, ModelError,
                                       MonteCarloReport,
                                       absorbing_chain_solve, coin_game,
                                       coin_game_closed_form, coin_game_exact,
                                       coin_game_series_partial,
                                       coin_series_index_reports,
                                       coin_series_tail_bracket, dice_chain,
                                       dice_game, dice_series_bracket,
                                       monte_carlo_coin, monte_carlo_dice,
                                       _gate)
from twoside.report import FAIL, PASS, WARN, IdentityReport
from twoside.rng import GAMMA, MASK64, MIX_1, MIX_2, mix64
from oracles import (coin_game_series_partial_fraction,
                     reference_monte_carlo_coin, reference_monte_carlo_dice)


class TestChainSolve:
    def test_dice_chain_values(self):
        solution = absorbing_chain_solve(dice_chain())
        assert solution["S"] == Fraction(6, 11)
        assert solution["C1"] == Fraction(5, 11)

    def test_immediate_win(self):
        chain = AbsorbingChain({"S": ((Fraction(1), "W"),)}, {"W"}, set())
        assert absorbing_chain_solve(chain)["S"] == 1

    def test_first_head_game(self):
        half = Fraction(1, 2)
        chain = AbsorbingChain(
            {"A": ((half, "A-wins"), (half, "B")),
             "B": ((half, "B-wins"), (half, "A"))},
            {"A-wins"}, {"B-wins"})
        assert absorbing_chain_solve(chain)["A"] == Fraction(2, 3)

    def test_win_lose_partition_sums_to_one(self):
        chain = dice_chain()
        to_win = absorbing_chain_solve(chain)
        flipped = AbsorbingChain(chain.transitions, chain.lose, chain.win)
        to_lose = absorbing_chain_solve(flipped)
        for state in chain.transitions:
            assert to_win[state] + to_lose[state] == 1

    def test_validation_errors(self):
        with pytest.raises(ModelError):
            AbsorbingChain({"S": ((Fraction(1, 2), "W"),)}, {"W"}, set())
        with pytest.raises(ModelError):
            AbsorbingChain({"S": ((Fraction(1), "W"),),
                            "W": ((Fraction(1), "S"),)}, {"W"}, set())
        with pytest.raises(ModelError):
            AbsorbingChain({"S": ((Fraction(1), "X"),)}, {"W"}, set())

    def test_singular_system(self):
        chain = AbsorbingChain(
            {"S": ((Fraction(1), "S2"),), "S2": ((Fraction(1), "S"),)},
            {"W"}, set())
        with pytest.raises(ModelError):
            absorbing_chain_solve(chain)


class TestDiceSeries:
    def test_every_bracket_contains_exact(self):
        for terms in range(0, 41):
            assert dice_series_bracket(terms).contains(Fraction(6, 11))

    def test_width_at_40(self):
        assert dice_series_bracket(40).width <= Fraction(1, 10 ** 6)

    def test_game_report(self):
        report, mc = dice_game(trials=1_000, terms=40)
        assert report.lhs == Fraction(6, 11)     # the chain-solved value
        assert report.rhs.contains(report.lhs)   # inside the series bracket
        assert report.params == (40,)
        assert mc.trials == 1_000
        assert mc.estimate == Fraction(mc.hits, 1_000)
        assert report.detail == {"mc": mc.status}

    def test_game_requires_a_simulation(self):
        with pytest.raises(TypeError):
            dice_game(terms=40)
        for trials in (0, -1):
            with pytest.raises(DomainError):
                dice_game(trials=trials)
            with pytest.raises(DomainError):
                coin_game(2, trials=trials)


class TestCoinGame:
    def test_first_values(self):
        assert coin_game_exact(1) == Fraction(2, 3)
        assert coin_game_exact(2) == Fraction(4, 9)

    def test_closed_form_values(self):
        assert coin_game_closed_form(1) == Fraction(2, 3)
        assert coin_game_closed_form(2) == Fraction(4, 9)
        assert coin_game_closed_form(3) == Fraction(14, 27)

    def test_dp_equals_closed_form(self):
        for n in range(1, 301):
            assert coin_game_exact(n) == coin_game_closed_form(n)

    def test_deviation_from_half_shrinks(self):
        deltas = [abs(coin_game_exact(n) - Fraction(1, 2))
                  for n in range(1, 10)]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            coin_game_exact(0)


class TestCoinSeries:
    def test_partial_from_zero_approaches_two_thirds(self):
        partial = coin_game_series_partial(1, 0, 30)
        assert abs(partial - Fraction(2, 3)) < Fraction(1, 2 ** 60)

    def test_partial_from_one_approaches_one_sixth(self):
        partial = coin_game_series_partial(1, 1, 30)
        assert abs(partial - Fraction(1, 6)) < Fraction(1, 2 ** 60)

    def test_single_term(self):
        assert coin_game_series_partial(1, 0, 0) == Fraction(1, 2)

    @pytest.mark.parametrize("n", [*range(1, 14), 50, 200, 2000])
    def test_partial_matches_fraction_loop(self, n):
        # Starts below (n - 1) / 2 lie before the first nonzero term.
        first = -(-(n - 1) // 2)
        for l_start in sorted({0, 1, 2, first, n}):
            for l_max in sorted({0, 1, 2, 3, 5, 8, 13, 21, 34, 60, 100, 127,
                                 200, l_start, n, n + 7}):
                if l_max >= l_start:
                    assert coin_game_series_partial(n, l_start, l_max) == \
                        coin_game_series_partial_fraction(n, l_start, l_max)

    def test_tail_bracket_is_rigorous(self):
        for n in range(1, 13):
            bracket = coin_series_tail_bracket(n, 0, 60)
            assert bracket.contains(coin_game_exact(n))

    def test_tail_bracket_needs_l_max_past_n(self):
        for n, l_start, l_max in ((10, 0, 3), (3, 0, 2), (2, 5, 4), (1, 0, 0)):
            with pytest.raises(DomainError, match="l_max must be at least"):
                coin_series_tail_bracket(n, l_start, l_max)
        assert coin_series_tail_bracket(3, 0, 3).contains(coin_game_exact(3))

    @pytest.mark.parametrize("n", [0, -3])
    def test_series_refuses_n_below_one(self, n):
        for series in (coin_game_series_partial, coin_series_tail_bracket):
            with pytest.raises(DomainError, match="n must be a positive"):
                series(n, 0, 5)

    def test_index_report(self):
        index_0, index_1 = coin_series_index_reports(1)
        assert index_0.params == (1, 0) and index_1.params == (1, 1)
        assert index_0.passed is True
        assert index_1.passed is False
        for n in range(2, 13):
            later = coin_series_index_reports(n)
            assert later[0].passed and later[1].passed


def unmix64(y: int) -> int:
    """The word z with mix64(z) == y: each xorshift and odd multiply of
    splitmix64's output function undone in reverse order."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x
    y = unshift(y, 31) * pow(MIX_2, -1, 1 << 64) & MASK64
    y = unshift(y, 27) * pow(MIX_1, -1, 1 << 64) & MASK64
    return unshift(y, 30)


_WORDS = st.lists(st.integers(0, MASK64), min_size=1, max_size=64)
# zero, the words either side of bit 63, and all ones
_EDGE_WORDS = [0, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1]


class TestMixSplit:
    @given(_WORDS)
    @example(_EDGE_WORDS)
    def test_mix_matches_mix64(self, words):
        z = np.array(words, dtype=np.uint64)
        assert probability_games._mix64_np(z).tolist() == \
            [mix64(w) for w in words]
        assert z.tolist() == words

    @given(_WORDS)
    @example(_EDGE_WORDS)
    def test_premix_keeps_bit_63_of_mix64(self, words):
        z = np.array(words, dtype=np.uint64)
        premix = probability_games._premix64_np(z, np.empty_like(z),
                                                np.empty_like(z))
        top = premix >> np.uint64(63)
        assert top.tolist() == [mix64(w) >> 63 for w in words]
        assert z.tolist() == words


class TestMonteCarlo:
    def test_deterministic(self):
        assert monte_carlo_dice(10, 7) == monte_carlo_dice(10, 7)
        assert monte_carlo_coin(2, 10, 7) == monte_carlo_coin(2, 10, 7)

    def test_vectorized_matches_reference(self):
        assert monte_carlo_dice(400, 11) == reference_monte_carlo_dice(400, 11)
        assert monte_carlo_coin(3, 400, 11) == \
            reference_monte_carlo_coin(3, 400, 11)

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("seed", [1, 2**63 + 5, -3])
    def test_dice_rejections_match_reference(self, seed, block, monkeypatch):
        # A limit of 6 * 2^61 rejects a quarter of all raw draws; the real
        # limit rejects 4 in 2^64, so no other test reaches the redraw.
        limit = 6 << 61
        monkeypatch.setattr(probability_games, "_DICE_LIMIT", limit)
        if block is not None:
            monkeypatch.setattr(probability_games, "_MC_BLOCK", block)
        for trials in (1, 50, 300):
            assert monte_carlo_dice(trials, seed) == \
                reference_monte_carlo_dice(trials, seed, limit)

    @pytest.mark.parametrize("word", [-1, 0, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dice_draw_at_the_limit(self, k, word):
        # Seed the one trial so that its k-th raw draw is limit + word:
        # redrawn at and above the limit, kept just below it.
        limit = probability_games._DICE_LIMIT
        assert mix64(unmix64(limit + word)) == limit + word
        seed = (unmix64(limit + word) - k * GAMMA) & MASK64
        assert monte_carlo_dice(1, seed) == reference_monte_carlo_dice(1, seed)
        if word == 0:
            # keeping that draw would change the winner
            assert reference_monte_carlo_dice(1, seed) != \
                reference_monte_carlo_dice(1, seed, limit + 6)

    # With a block of 1, every block's last round keeps no index at all.
    @pytest.mark.parametrize("block", [1, 7, 16])
    def test_block_boundaries_match_reference(self, block, monkeypatch):
        monkeypatch.setattr(probability_games, "_MC_BLOCK", block)
        # below one block, exactly one, a multiple, and across several
        for trials in (1, max(block - 1, 1), block, 2 * block, 5 * block + 3):
            for seed in (11, 2**63 + 5):
                assert monte_carlo_dice(trials, seed) == \
                    reference_monte_carlo_dice(trials, seed)
                for n in (1, 2, 3):
                    assert monte_carlo_coin(n, trials, seed) == \
                        reference_monte_carlo_coin(n, trials, seed)

    def test_dice_estimate_close(self):
        _, report = dice_game(trials=40_000, seed=42)
        assert report.status in (PASS, WARN)
        assert report.estimate == Fraction(report.hits, 40_000)

    def test_coin_estimate_close(self):
        _, report = coin_game(2, trials=40_000, seed=42)
        assert report.status in (PASS, WARN)

    def test_gate_statuses(self):
        # hits at the expectation -> PASS; 3.5 sigma off -> WARN; far -> FAIL
        exact = Fraction(1, 2)
        trials = 10_000
        sigma = Fraction(1, 200)  # sqrt(1/4 / 10^4)
        center = trials // 2
        assert _gate(exact, center, trials).status == PASS
        off = int(center + 3.5 * float(sigma) * trials)
        assert _gate(exact, off, trials).status == WARN
        assert _gate(exact, center + trials // 10, trials).status == FAIL

    def test_coin_game_report_with_mc(self):
        report, mc = coin_game(2, terms=60, trials=2_000, seed=42)
        assert isinstance(report, IdentityReport)
        assert isinstance(mc, MonteCarloReport)
        assert report.rhs.contains(report.lhs)
        assert mc.trials == 2_000
