"""Tests for the Even-Goldreich-Lempel baseline (E8 support)."""

import pytest

from repro.baselines import expected_messages, run_egl
from repro.errors import ProtocolError
from repro.games.library import chicken_game, consensus_game
from repro.sim import RandomScheduler


class TestEgl:
    def test_samples_valid_cells(self):
        spec = chicken_game()
        cells = set(spec.mediator_dist((0, 0)))
        for seed in range(30):
            actions, _messages = run_egl(spec, epsilon=0.3, seed=seed)
            assert actions in cells

    def test_distribution_roughly_uniform(self):
        spec = chicken_game()
        counts = {}
        for seed in range(180):
            actions, _ = run_egl(spec, epsilon=0.4, seed=seed)
            counts[actions] = counts.get(actions, 0) + 1
        assert len(counts) == 3
        for count in counts.values():
            assert 30 <= count <= 100

    def test_message_count_scales_inversely_with_epsilon(self):
        spec = chicken_game()
        loose = expected_messages(spec, 0.5, trials=60)
        for epsilon in (0.05, 0.02):
            tight = expected_messages(spec, epsilon, trials=60)
            assert tight > 4 * loose, epsilon

    def test_message_count_matches_geometric_mean(self):
        spec = chicken_game()
        eps = 0.25
        measured = expected_messages(spec, eps, trials=200)
        # Each round costs 2 messages, E[rounds] = 1/eps (+1 for round 0).
        assert measured == pytest.approx(2 / eps + 2, rel=0.35)

    def test_works_under_async_scheduler(self):
        spec = chicken_game()
        actions, _ = run_egl(spec, 0.2, seed=3, scheduler=RandomScheduler(1))
        assert actions in set(spec.mediator_dist((0, 0)))

    def test_rejects_non_two_player(self):
        with pytest.raises(ProtocolError):
            run_egl(consensus_game(4), 0.1)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ProtocolError):
            run_egl(chicken_game(), 0.0)

    def test_rejects_non_uniform_dist(self):
        spec = chicken_game()
        spec.mediator_dist = lambda reports: {("C", "C"): 0.9, ("D", "D"): 0.1}
        with pytest.raises(ProtocolError):
            run_egl(spec, 0.1)
