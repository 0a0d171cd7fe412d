"""Differential fuzzing: every interpreter/transform agrees on random circuits.

For each random netlist, five views must agree bit for bit:

1. the vectorized simulator (reference),
2. the register-transfer pipelined executor,
3. the gate-lowered netlist,
4. the dead-pruned netlist,
5. a JSON serialization round-trip.

Plus payload/tag consistency between the plain and payload simulators.
"""

import numpy as np
import pytest

from repro.circuits import (
    PipelinedNetlist,
    exhaustive_inputs,
    lower_to_gates,
    prune_dead,
    simulate,
    simulate_payload,
)
from repro.circuits.fuzz import random_netlist
from repro.circuits.serialize import from_json, to_json

SEEDS = list(range(12))


def _batch(net, rng):
    n = len(net.inputs)
    if n <= 10:
        return exhaustive_inputs(n)
    return rng.integers(0, 2, (64, n)).astype(np.uint8)


@pytest.mark.parametrize("seed", SEEDS)
def test_lowered_and_optimized_and_serialized_agree(seed):
    rng = np.random.default_rng(seed)
    net = random_netlist(rng, n_inputs=6, n_elements=40)
    batch = _batch(net, rng)
    ref = simulate(net, batch)
    assert np.array_equal(simulate(lower_to_gates(net), batch), ref)
    assert np.array_equal(simulate(prune_dead(net), batch), ref)
    assert np.array_equal(simulate(from_json(to_json(net)), batch), ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_pipeline_agrees(seed):
    rng = np.random.default_rng(1000 + seed)
    net = random_netlist(rng, n_inputs=5, n_elements=25)
    batch = rng.integers(0, 2, (6, 5)).astype(np.uint8)
    ref = simulate(net, batch)
    pipe = PipelinedNetlist(net)
    outs, makespan = pipe.run([row.tolist() for row in batch])
    assert np.array_equal(np.array(outs, dtype=np.uint8), ref)
    assert makespan == len(batch) - 1 + pipe.latency


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_payload_tags_match_plain_simulation(seed):
    rng = np.random.default_rng(2000 + seed)
    net = random_netlist(rng, n_inputs=6, n_elements=30)
    batch = _batch(net, rng)
    pays = np.tile(
        np.arange(len(net.inputs), dtype=np.int64), (batch.shape[0], 1)
    )
    tags, _ = simulate_payload(net, batch, pays)
    assert np.array_equal(tags, simulate(net, batch))


def test_fuzzer_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_netlist(rng, n_inputs=0)
    net = random_netlist(rng, n_elements=0, allow_constants=False)
    assert net.cost() == 0


def test_fuzzer_reproducible():
    a = random_netlist(np.random.default_rng(7), n_elements=20)
    b = random_netlist(np.random.default_rng(7), n_elements=20)
    assert to_json(a) == to_json(b)
