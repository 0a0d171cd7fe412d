"""Tests for the equivalence checker and the cost-model registry."""

import math

import pytest

from repro.baselines.costmodels import SORTER_MODELS, TABLE2_ROWS
from repro.circuits import CircuitBuilder, equivalent, lower_to_gates, prune_dead
from repro.core import build_mux_merger_sorter, build_prefix_sorter
from repro.core.fish_sorter import FishSorter


class TestEquivalent:
    def test_self_equivalence(self):
        net = build_mux_merger_sorter(8)
        assert equivalent(net, net)

    def test_lowered_equivalence(self):
        net = build_mux_merger_sorter(8)
        assert equivalent(net, lower_to_gates(net))

    def test_optimized_equivalence(self):
        net = build_prefix_sorter(8)
        assert equivalent(net, prune_dead(net))

    def test_detects_difference(self):
        a = build_mux_merger_sorter(8)
        b = build_prefix_sorter(8)  # same function -> equivalent!
        assert equivalent(a, b)
        # different function: identity vs sorter
        builder = CircuitBuilder()
        ws = builder.add_inputs(8)
        ident = builder.build(list(ws))
        assert not equivalent(a, ident)

    def test_interface_mismatch(self):
        a = build_mux_merger_sorter(8)
        b = build_mux_merger_sorter(16)
        assert not equivalent(a, b)

    def test_wide_interface_random_path(self):
        a = build_mux_merger_sorter(32)
        b = build_prefix_sorter(32)
        assert equivalent(a, b)  # random + corner path (n > 14)


class TestSorterModels:
    @pytest.mark.parametrize("key", sorted(SORTER_MODELS))
    def test_models_positive_and_monotone(self, key):
        m = SORTER_MODELS[key]
        assert m.cost(64) > 0 and m.depth(64) > 0 and m.time(64) > 0
        assert m.cost(4096) > m.cost(64)
        assert m.name and m.cost_expr and m.source

    def test_fish_model_linear(self):
        m = SORTER_MODELS["fish"]
        assert m.cost(2 ** 20) / 2 ** 20 < 25

    def test_model_vs_measured_bounds(self):
        # claimed models upper-bound (or closely track) the measured costs
        assert build_mux_merger_sorter(256).cost() <= SORTER_MODELS[
            "mux_merger"
        ].cost(256)
        fish = FishSorter(256)
        assert fish.cost() <= SORTER_MODELS["fish"].cost(256) * 1.05


class TestTable2Rows:
    @pytest.mark.parametrize("key", sorted(TABLE2_ROWS))
    def test_rows_complete(self, key):
        r = TABLE2_ROWS[key]
        assert r.construction and r.cost_expr and r.time_expr
        assert r.cost(1024) > 0 and r.time(1024) > 0

    def test_this_paper_wins_cost_at_scale(self):
        n = 2.0 ** 20
        ours = TABLE2_ROWS["this_paper"].cost(n)
        for key, r in TABLE2_ROWS.items():
            if key != "this_paper":
                assert ours < r.cost(n), key

    def test_benes_fastest_depth_class(self):
        # Benes row: O(lg n) depth but slow routing; ours O(lg^3 n) both
        n = 2.0 ** 16
        assert TABLE2_ROWS["benes"].time(n) > TABLE2_ROWS["this_paper"].time(n)


class TestFishGroupSorterVariants:
    @pytest.mark.parametrize("kind", ["mux_merger", "prefix", "batcher"])
    def test_all_variants_sort(self, kind, rng):
        import numpy as np

        fs = FishSorter(64, group_sorter=kind)
        for _ in range(10):
            x = rng.integers(0, 2, 64).astype(np.uint8)
            out, _ = fs.sort(x)
            assert np.array_equal(out, np.sort(x))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown group sorter"):
            FishSorter(64, group_sorter="timsort")

    def test_batcher_group_crossover(self):
        """A finding the asymptotics hide: at practical group sizes
        (n/k = 128 here) Batcher's (lg^2 r)/4-constant sorter is
        *cheaper* than the 4 r lg r mux-merger — the mux-merger only
        wins for groups beyond r ~ 2^16.  The paper's choice is
        asymptotically right but not constant-optimal at small n."""
        import math

        default = FishSorter(1024).cost()
        batcher = FishSorter(1024, group_sorter="batcher").cost()
        assert batcher < default  # measured: Batcher group wins here
        # and the model crossover: 4 r lg r < r lg^2 r / 4  <=>  lg r > 16
        r = 2.0 ** 17
        assert 4 * r * math.log2(r) < r * math.log2(r) ** 2 / 4
