"""Block records and the block-structured JIT.

The load-bearing guarantees:

* **closure** — a :meth:`CircuitBuilder.block` whose elements read a
  wire that is neither an input, a constant nor driven inside raises
  :class:`BuildError`, so a recorded block can become a function;
* **differential** — plans that call one function per repeated block
  shape agree with the engine and the interpreter, bit for bit;
* **sharing is structural** — an instance edited in place gets its own
  digest and never reuses a healthy shape's function; a later netlist
  reuses the shapes an earlier compile made;
* **records are annotation** — rewrites that move elements drop them,
  checkers without the control duplicate keep them, and serialization
  round-trips them.
"""

import json

import numpy as np
import pytest

from repro.circuits import jit
from repro.circuits.builder import CircuitBuilder
from repro.circuits.checkers import with_checkers
from repro.circuits.elements import SWITCH4, Element
from repro.circuits.faults import StuckAt, apply_fault
from repro.circuits.opt import prune_dead
from repro.circuits.serialize import from_json, to_json
from repro.circuits.simulate import simulate_engine, simulate_interpreted
from repro.core.mux_merger import build_mux_merger_sorter
from repro.core.prefix_sorter import build_prefix_sorter
from repro.errors import BuildError


def _rows(rng, batch, n):
    return rng.integers(0, 2, size=(batch, n)).astype(np.uint8)


class TestBlockRecords:
    def test_sorter_records_nest_and_cover_the_netlist(self):
        net = build_mux_merger_sorter(16)
        top = net.blocks[-1]
        assert (top.kind, top.size, top.start, top.stop) == (
            "mux_merger_sorter", 16, 0, len(net.elements))
        assert top.inputs == net.inputs and top.outputs == net.outputs
        kinds = {(b.kind, b.size) for b in net.blocks}
        assert ("mux_merger", 16) in kinds and ("mux_merger", 2) in kinds
        assert ("mux_merger_sorter", 2) in kinds

    def test_prefix_blocks_emit_sorted_wires_and_count(self):
        net = build_prefix_sorter(8)
        top = net.blocks[-1]
        assert top.kind == "prefix_sorter" and top.size == 8
        assert top.outputs[:8] == net.outputs
        assert len(top.outputs) == 8 + 4  # lg 8 + 1 count bits

    def test_undeclared_read_raises(self):
        b = CircuitBuilder()
        x, y, z = b.add_inputs(3)
        with pytest.raises(BuildError, match="reads wire"):
            with b.block("bad", [x, y]) as blk:
                blk.outputs = [b.and_(x, z)]

    def test_read_of_nested_internal_wire_raises(self):
        b = CircuitBuilder()
        x, y = b.add_inputs(2)
        with pytest.raises(BuildError, match="reads wire"):
            with b.block("outer", [x, y]) as outer:
                with b.block("inner", [x, y]) as inner:
                    hidden = b.and_(x, y)
                    inner.outputs = [b.not_(hidden)]
                outer.outputs = [b.or_(inner.outputs[0], hidden)]

    def test_output_must_be_driven_inside(self):
        b = CircuitBuilder()
        x, y = b.add_inputs(2)
        with pytest.raises(BuildError, match="not driven"):
            with b.block("pass", [x, y]) as blk:
                blk.outputs = [b.and_(x, y), x]
        with pytest.raises(BuildError, match="never set"):
            with b.block("empty", [x]):
                pass

    def test_constants_are_readable(self):
        b = CircuitBuilder()
        x, y = b.add_inputs(2)
        one = b.const(1)
        with b.block("ok", [x, y]) as blk:
            blk.outputs = [b.and_(b.xor(x, y), one)]
        assert b.build(blk.outputs).blocks[0].outputs == tuple(blk.outputs)

    def test_records_do_not_touch_accounting(self):
        net = build_mux_merger_sorter(16)
        payload = json.loads(to_json(net))
        del payload["blocks"]
        bare = from_json(json.dumps(payload))
        assert not bare.blocks
        assert (net.cost(), net.depth(), net.stats()) == (
            bare.cost(), bare.depth(), bare.stats())

    def test_serialize_round_trips_records(self):
        net = build_mux_merger_sorter(16)
        back = from_json(to_json(net))
        assert back.blocks == net.blocks
        payload = json.loads(to_json(net))
        del payload["blocks"]  # a file written without records
        assert from_json(json.dumps(payload)).blocks == ()

    def test_checkers_keep_records_only_without_control(self):
        net = build_mux_merger_sorter(64)
        assert with_checkers(net).netlist.blocks == net.blocks
        assert with_checkers(net, control=True).netlist.blocks == ()

    def test_rewrites_drop_records(self):
        net = build_mux_merger_sorter(16)
        assert apply_fault(net, StuckAt(net.inputs[0], 1)).blocks == ()
        assert prune_dead(net).blocks == ()


class TestBlockPlans:
    @pytest.mark.parametrize("build, n", [
        (build_mux_merger_sorter, 128),
        (build_mux_merger_sorter, 256),
        (build_prefix_sorter, 256),
    ])
    def test_interpreter_engine_jit_agree(self, rng, build, n):
        net = build(n)
        plan = jit.compile_jit(net)
        assert plan.stats["functions"] > 1
        for batch in (1, 256):
            rows = _rows(rng, batch, n)
            ref = simulate_interpreted(net, rows)
            assert np.array_equal(ref, simulate_engine(net, rows))
            assert np.array_equal(ref, plan.execute(rows))

    @pytest.mark.parametrize("build, executed", [
        (build_mux_merger_sorter, 137_202),
        (build_prefix_sorter, 93_475),
    ])
    def test_n1024_matches_engine(self, rng, build, executed):
        """Same executed ops as the one-function kernel, at most a
        quarter of them compiled, and the engine's answers."""
        net = build(1024)
        plan = jit.compile_jit(net)
        assert plan.n_ops == executed
        assert 4 * plan.stats["compiled_ops"] <= plan.n_ops
        rows = _rows(rng, 64, 1024)
        assert np.array_equal(plan.execute(rows), simulate_engine(net, rows))

    def test_n64_stays_one_function(self):
        net = build_mux_merger_sorter(64)
        for variant in (net, with_checkers(net).netlist,
                        with_checkers(net, control=True).netlist):
            plan = jit.compile_jit(variant)
            assert plan.stats["functions"] == 1
            assert plan.stats["compiled_ops"] == plan.n_ops
        assert jit.compile_jit(net).n_ops == 4482

    def test_edited_instance_gets_its_own_function(self, rng):
        net = build_mux_merger_sorter(256)
        healthy = jit.compile_jit(net)  # puts the sorter64 shape in cache
        layout = jit._layout(net)
        sorters = [i for i, b in enumerate(net.blocks)
                   if (b.kind, b.size) == ("mux_merger_sorter", 64)]
        assert len({layout.digests[i] for i in sorters}) == 1
        victim = net.blocks[sorters[1]]
        k = next(i for i in range(victim.start, victim.stop)
                 if net.elements[i].kind == SWITCH4)
        e = net.elements[k]
        net.elements[k] = Element(e.kind, e.ins, tuple(reversed(e.outs)),
                                  e.params)
        edited = jit._layout(net)
        assert edited.digests[sorters[1]] != layout.digests[sorters[0]]
        assert edited.digests[sorters[0]] == layout.digests[sorters[0]]
        plan = jit.compile_jit(net)
        rows = _rows(rng, 256, 256)
        ref = simulate_interpreted(net, rows)
        assert np.array_equal(plan.execute(rows), ref)
        assert not np.array_equal(healthy.execute(rows), ref)

    def test_later_netlist_reuses_earlier_shapes(self):
        jit.clear_memory_cache()
        big = jit.compile_jit(build_mux_merger_sorter(1024))
        shapes = jit.cache_info()["shapes"]
        small = jit.compile_jit(build_mux_merger_sorter(256))
        assert jit.cache_info()["shapes"] == shapes
        fresh = [f for f in small._functions
                 if all(f is not g for g in big._functions)]
        assert [f.name for f in fresh] == ["_jit_kernel"]
        assert small.stats["functions"] == 3

    def test_inconsistent_records_compile_flat(self, rng):
        """A record whose region is not closed (hand-edited netlist)
        makes the netlist compile as one function, still correctly."""
        net = build_mux_merger_sorter(256)
        victim = next(b for b in net.blocks
                      if (b.kind, b.size) == ("mux_merger_sorter", 64))
        assert net.inputs[-1] not in victim.inputs
        k = victim.stop - 1
        e = net.elements[k]
        net.elements[k] = Element(e.kind, (net.inputs[-1],) + e.ins[1:],
                                  e.outs, e.params)
        assert jit._layout(net) is None
        plan = jit.compile_jit(net)
        assert plan.stats["functions"] == 1
        rows = _rows(rng, 64, 256)
        assert np.array_equal(plan.execute(rows),
                              simulate_interpreted(net, rows))


class TestKernelCode:
    def test_locals_are_recycled(self):
        prog = jit.eliminate_dead(jit.lower(build_mux_merger_sorter(64)))
        src = jit.codegen(prog)
        names = {tok for tok in src.replace("(", " ").replace(")", " ")
                 .replace(",", " ").split() if tok[0] == "v"
                 and tok[1:].isdigit()}
        assert len(names) < 200 < prog.n_ops

    def test_single_row_result_is_writable(self, rng):
        net = build_mux_merger_sorter(64)
        row = _rows(rng, 1, 64)
        out = jit.compile_jit(net).execute(row)
        assert out.dtype == np.uint8 and out.shape == (1, 64)
        assert out.flags.writeable
        assert np.array_equal(out, simulate_interpreted(net, row))

    def test_run_program_follows_calls(self, rng):
        net = build_mux_merger_sorter(256)
        layout = jit._layout(net)
        top = jit.compile_jit(net)._top
        progs = {}
        for i in set(layout.is_call):
            blk = net.blocks[i]
            calls = [(net.blocks[j], f"_jit_{layout.digests[j][:16]}")
                     for j in layout.calls_in(layout.children[i])]
            progs[f"_jit_{layout.digests[i][:16]}"] = jit._lower_region(
                net, blk.inputs, blk.start, blk.stop, blk.outputs, calls,
                True)
        calls = [(net.blocks[j], f"_jit_{layout.digests[j][:16]}")
                 for j in layout.top]
        prog = jit._lower_region(net, net.inputs, 0, len(net.elements),
                                 net.outputs, calls, True)
        rows = _rows(rng, 8, 256)
        ins = [int("".join(str(b) for b in rows[::-1, k]), 2)
               for k in range(256)]
        assert jit.run_program(prog, ins, 8, progs) == list(
            top.fn(tuple(ins), 0xFF))
