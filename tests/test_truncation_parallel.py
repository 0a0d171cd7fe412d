"""Tests for (n,m)-concentrator truncation and chunked exhaustive verification."""

import numpy as np
import pytest

from repro.analysis import verify_sorter_exhaustive
from repro.baselines.batcher import build_odd_even_merge_sorter
from repro.core import build_mux_merger_sorter
from repro.networks.concentrator import SortingConcentrator, check_concentration


class TestTruncatedConcentrator:
    @pytest.mark.parametrize("m", [1, 2, 4, 7])
    def test_correct_for_all_masks_within_capacity(self, m, rng):
        c = SortingConcentrator(8, m)
        pays = np.arange(8, dtype=np.int64)
        for mask in range(256):
            req = np.array([(mask >> (7 - i)) & 1 for i in range(8)], dtype=np.uint8)
            if int(req.sum()) > m:
                continue
            res = c.concentrate(req, pays)
            assert check_concentration(req, pays, res)

    def test_never_costs_more(self):
        for m in (2, 4, 8):
            c = SortingConcentrator(16, m)
            assert c.cost() <= c.full_cost

    def test_batcher_backend_prunes_substantially(self):
        """Comparator networks specialize well: an (16,2)-concentrator
        over Batcher drops ~1/3 of the full sorter."""
        c = SortingConcentrator(16, 2, sorter=build_odd_even_merge_sorter(16))
        assert c.cost() < 0.75 * c.full_cost

    def test_mux_merger_prunes_little(self):
        """Honest negative: the mux-merger's top-level OUT-SWAP touches
        every output, so truncation barely helps — the adaptive design
        trades specializability for total cost."""
        c = SortingConcentrator(16, 2)
        assert c.cost() >= 0.9 * c.full_cost

    def test_truncate_false_keeps_full(self):
        c = SortingConcentrator(16, 4, truncate=False)
        assert c.cost() == c.full_cost
        assert len(c.netlist.outputs) == 16

    def test_truncated_output_count(self):
        c = SortingConcentrator(16, 4)
        assert len(c.netlist.outputs) == 4


class TestParallelVerification:
    """The exhaustive verifier splits ``2**n`` inputs into chunks of
    ``2**batch_bits`` rows; a many-chunk split changes neither verdict."""

    def test_accepts_correct_sorter(self):
        net = build_mux_merger_sorter(16)
        assert verify_sorter_exhaustive(net, batch_bits=10)

    def test_rejects_broken_sorter(self):
        from repro.circuits import CircuitBuilder

        b = CircuitBuilder()
        ws = b.add_inputs(10)
        net = b.build(list(ws))  # identity
        assert not verify_sorter_exhaustive(net, batch_bits=8)
