"""Unit tests for the lazy threshold grid (SieveStreaming's Theta set)."""

import math

import pytest

from repro.core.thresholds import SieveSet, ThresholdSet


class TestSieveSet:
    def test_add_and_membership(self):
        sieve = SieveSet()
        sieve.add("a")
        assert "a" in sieve
        assert len(sieve) == 1
        assert sieve.nodes == ["a"]

    def test_duplicate_rejected(self):
        sieve = SieveSet()
        sieve.add("a")
        with pytest.raises(ValueError):
            sieve.add("a")

    def test_copy_is_independent(self):
        sieve = SieveSet()
        sieve.add("a")
        sieve.cached_value = 5.0
        dup = sieve.copy()
        dup.add("b")
        dup.cached_value = 9.0
        assert sieve.nodes == ["a"]
        assert sieve.cached_value == 5.0
        assert dup.nodes == ["a", "b"]

    def test_key_tracks_members_and_is_shared_on_copy(self):
        sieve = SieveSet()
        assert sieve.key == frozenset()
        sieve.add("a")
        sieve.add("b")
        assert sieve.key == frozenset({"a", "b"})
        dup = sieve.copy()
        assert dup.key is sieve.key  # immutable, so shared, not rebuilt
        dup.add("c")
        assert sieve.key == frozenset({"a", "b"})
        assert dup.key == frozenset({"a", "b", "c"})

    def test_restore_rebuilds_order_and_key(self):
        sieve = SieveSet.restore(["b", "a"], 4.0)
        assert sieve.nodes == ["b", "a"]
        assert sieve.key == frozenset({"a", "b"})
        assert sieve.cached_value == 4.0
        with pytest.raises(ValueError):
            SieveSet.restore(["a", "a"], 0.0)


class TestThresholdWindow:
    def test_empty_until_delta(self):
        grid = ThresholdSet(k=5, epsilon=0.1)
        assert len(grid) == 0

    def test_window_covers_delta_to_2k_delta(self):
        grid = ThresholdSet(k=5, epsilon=0.1)
        grid.update_delta(10.0)
        thresholds = [t for t, _ in grid.items()]
        # Thresholds are (1+eps)^i / 2k with (1+eps)^i spanning [10, 100].
        assert min(thresholds) == pytest.approx(10.0 / 10.0, rel=0.1)
        assert max(thresholds) <= 100.0 / 10.0 * (1.0 + 1e-9)

    def test_grid_size_logarithmic(self):
        grid = ThresholdSet(k=10, epsilon=0.1)
        grid.update_delta(50.0)
        expected = math.log(2 * 10) / math.log(1.1)
        assert abs(len(grid) - expected) <= 2

    def test_thresholds_ascending_in_items(self):
        grid = ThresholdSet(k=4, epsilon=0.2)
        grid.update_delta(7.0)
        thresholds = [t for t, _ in grid.items()]
        assert thresholds == sorted(thresholds)

    def test_items_is_the_cached_order_of_the_live_sets(self):
        grid = ThresholdSet(k=4, epsilon=0.2)
        grid.update_delta(7.0)
        order = grid.items()
        assert order is grid.items()  # no per-call rebuild
        assert [sieve for _, sieve in order] == [
            grid._sieves[e] for e in sorted(grid._sieves)
        ]
        assert [t for t, _ in order] == [
            grid.threshold_value(e) for e in sorted(grid._sieves)
        ]
        grid.update_delta(70.0)  # re-window: the order follows
        assert [sieve for _, sieve in grid.items()] == [
            grid._sieves[e] for e in sorted(grid._sieves)
        ]

    def test_copy_order_points_at_the_copies(self):
        grid = ThresholdSet(k=3, epsilon=0.2)
        grid.update_delta(5.0)
        dup = grid.copy()
        assert [t for t, _ in dup.items()] == [t for t, _ in grid.items()]
        assert [sieve for _, sieve in dup.items()] == [
            dup._sieves[e] for e in sorted(dup._sieves)
        ]
        assert all(
            mine is not theirs
            for (_, mine), (_, theirs) in zip(dup.items(), grid.items())
        )

    def test_restore_rebuilds_the_order(self):
        grid = ThresholdSet(k=3, epsilon=0.2)
        grid.update_delta(5.0)
        exponents = list(grid._sieves)
        shuffled = {e: SieveSet() for e in reversed(exponents)}
        restored = ThresholdSet.restore(3, 0.2, grid.delta, shuffled)
        assert restored.delta == grid.delta
        assert [t for t, _ in restored.items()] == [t for t, _ in grid.items()]
        # sets() keeps the given iteration order (the query tie-break).
        assert list(restored.sets()) == list(shuffled.values())

    def test_update_delta_ignores_smaller(self):
        grid = ThresholdSet(k=5, epsilon=0.1)
        assert grid.update_delta(10.0)
        assert not grid.update_delta(5.0)
        assert grid.delta == 10.0


class TestLazyMaintenance:
    def test_sets_preserved_when_still_in_window(self):
        grid = ThresholdSet(k=5, epsilon=0.1)
        grid.update_delta(10.0)
        # Pick a threshold near the top of the window and populate it.
        top_exponent = max(e for e in grid._sieves)
        grid._sieves[top_exponent].add("survivor")
        grid.update_delta(11.0)  # small bump: top exponent stays in window
        assert "survivor" in grid._sieves[top_exponent]

    def test_sets_dropped_when_leaving_window(self):
        grid = ThresholdSet(k=5, epsilon=0.1)
        grid.update_delta(1.0)
        low_exponent = min(grid._sieves)
        grid._sieves[low_exponent].add("doomed")
        grid.update_delta(1000.0)  # window jumps far upward
        assert low_exponent not in grid._sieves

    def test_new_thresholds_start_empty(self):
        grid = ThresholdSet(k=5, epsilon=0.1)
        grid.update_delta(1.0)
        grid.update_delta(100.0)
        new_exponents = [e for e in grid._sieves if not grid._sieves[e].nodes]
        assert new_exponents  # freshly entered thresholds are empty

    def test_copy_deep(self):
        grid = ThresholdSet(k=3, epsilon=0.2)
        grid.update_delta(5.0)
        exponent = min(grid._sieves)
        grid._sieves[exponent].add("x")
        dup = grid.copy()
        dup._sieves[exponent].add("y")
        assert "y" not in grid._sieves[exponent]
        assert dup.delta == grid.delta


class TestValidation:
    def test_bad_k(self):
        with pytest.raises(ValueError):
            ThresholdSet(k=0, epsilon=0.1)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            ThresholdSet(k=5, epsilon=0.0)
        with pytest.raises(ValueError):
            ThresholdSet(k=5, epsilon=1.0)

    def test_threshold_value_formula(self):
        grid = ThresholdSet(k=5, epsilon=0.5)
        assert grid.threshold_value(3) == pytest.approx(1.5**3 / 10.0)
