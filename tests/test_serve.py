"""Property and end-to-end tests for the serving front-end (repro.serve).

The four ISSUE-mandated properties, plus service correctness:

* **no starvation** — every lane the coalescer accepts is flushed no
  later than ``max_delay_s`` after it arrived (age bound), for arbitrary
  arrival schedules (hypothesis drives a virtual clock);
* **lane bounds** — every flushed batch has ``1 <= lanes <= max_lanes``
  and one single width;
* **credits never negative** — the gate's available count stays within
  ``[0, capacity]`` under any acquire/release interleaving, and
  over-release raises instead of corrupting the pool;
* **deterministic shed** — replaying a seeded overload schedule yields
  byte-identical shed decisions.

End-to-end: every accepted sort/concentrate/route answer is checked
against ground truth (``np.sort`` / stable argsort), sheds appear under
a starved credit pool, and the obs registry exposes the serve metrics.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import BuildError
from repro.serve import (
    BatchCoalescer,
    CreditGate,
    FabricExecutor,
    Lane,
    ServeConfig,
    SortingService,
    concentrate_request,
    lanes_for,
    route_request,
    serve_requests,
    sort_request,
)

seeds = st.integers(0, 2**31 - 1)


def _lane(width: int, rng: np.random.Generator) -> Lane:
    return Lane(width=width, bits=rng.integers(0, 2, width).astype(np.uint8))


# ---------------------------------------------------------------------------
# Coalescer properties
# ---------------------------------------------------------------------------


class TestCoalescer:
    @given(
        seed=seeds,
        max_lanes=st.integers(1, 32),
        n_events=st.integers(1, 120),
    )
    @settings(max_examples=60)
    def test_no_starvation_and_lane_bounds(self, seed, max_lanes, n_events):
        """Age bound: a lane is never held past max_delay_s; every flush
        respects [1, max_lanes] and is single-width."""
        rng = np.random.default_rng(seed)
        delay = 1.0
        co = BatchCoalescer(max_lanes=max_lanes, max_delay_s=delay)
        now = 0.0
        enqueued = {}  # id(lane) -> enqueue time
        flushed = {}  # id(lane) -> flush time

        def account(batches):
            assert isinstance(batches, list)
            for batch in batches:
                assert 1 <= len(batch) <= max_lanes
                assert all(lane.width == batch.width for lane in batch.lanes)
                assert batch.rows().shape == (len(batch), batch.width)
                for lane in batch.lanes:
                    flushed[id(lane)] = now

        for _ in range(n_events):
            now += float(rng.uniform(0, 0.6))
            # The service's loop shape: poll ages before admitting more.
            account(co.poll(now))
            lane = _lane(int(rng.choice([4, 8, 16])), rng)
            enqueued[id(lane)] = now
            account(co.add(lane, now))
        # Keep polling on the same cadence until everything has aged out.
        end = now + delay + 0.6
        while now < end and co.depth:
            now += 0.3
            account(co.poll(now))
        account(co.drain(now))

        assert co.depth == 0
        assert set(flushed) == set(enqueued)
        # A lane flushes at the first poll after its age bound; polls above
        # are never more than 0.6 apart, so that is the starvation slack.
        slack = 0.6 + 1e-9
        for key, t0 in enqueued.items():
            assert flushed[key] - t0 <= delay + slack

    @given(seed=seeds, max_lanes=st.integers(1, 16))
    @settings(max_examples=40)
    def test_full_bucket_flushes_immediately(self, seed, max_lanes):
        rng = np.random.default_rng(seed)
        co = BatchCoalescer(max_lanes=max_lanes, max_delay_s=1e9)
        for i in range(max_lanes - 1):
            assert co.add(_lane(8, rng), float(i)) == []
        (batch,) = co.add(_lane(8, rng), float(max_lanes))
        assert len(batch) == max_lanes
        assert batch.reason == "full"
        assert batch.fill == pytest.approx(1.0)
        assert co.depth == 0

    def test_next_deadline_tracks_oldest_lane(self):
        rng = np.random.default_rng(0)
        co = BatchCoalescer(max_lanes=8, max_delay_s=0.5)
        assert co.next_deadline() is None
        co.add(_lane(4, rng), 10.0)
        co.add(_lane(16, rng), 11.0)
        assert co.next_deadline() == pytest.approx(10.5)
        assert co.poll(10.4) == []
        batches = co.poll(10.5)
        assert [b.width for b in batches] == [4]
        assert co.next_deadline() == pytest.approx(11.5)

    def test_widths_never_mix(self):
        rng = np.random.default_rng(1)
        co = BatchCoalescer(max_lanes=64, max_delay_s=0.0)
        for width in (4, 8, 4, 16, 8):
            co.add(_lane(width, rng), 0.0)
        batches = co.poll(0.0)
        assert sorted(len(b) for b in batches) == [1, 2, 2]
        for batch in batches:
            assert len({lane.width for lane in batch.lanes}) == 1

    def test_rejects_bad_lane_and_config(self):
        with pytest.raises(BuildError):
            BatchCoalescer(max_lanes=0)
        with pytest.raises(BuildError):
            BatchCoalescer(max_delay_s=-1.0)
        co = BatchCoalescer()
        with pytest.raises(BuildError):
            co.add(Lane(width=8, bits=np.zeros(4, dtype=np.uint8)), 0.0)


# ---------------------------------------------------------------------------
# Admission-control properties
# ---------------------------------------------------------------------------


class TestCreditGate:
    @given(
        seed=seeds,
        capacity=st.integers(1, 64),
        n_ops=st.integers(1, 300),
    )
    @settings(max_examples=80)
    def test_credits_bounded_forever(self, seed, capacity, n_ops):
        """0 <= available <= capacity after any acquire/release schedule,
        and accounting identities hold exactly."""
        rng = np.random.default_rng(seed)
        gate = CreditGate(capacity)
        held = []  # lane counts we still owe back
        for _ in range(n_ops):
            if held and rng.random() < 0.4:
                gate.release(held.pop())
            else:
                lanes = int(rng.integers(1, capacity + 1))
                if gate.try_acquire(lanes):
                    held.append(lanes)
            snap = gate.snapshot()
            assert 0 <= snap["available"] <= capacity
            assert snap["in_flight"] == sum(held)
            assert snap["available"] + snap["in_flight"] == capacity
        for lanes in held:
            gate.release(lanes)
        assert gate.available == capacity

    def test_over_release_raises(self):
        gate = CreditGate(4)
        assert gate.try_acquire(3)
        gate.release(3)
        with pytest.raises(BuildError):
            gate.release(1)
        assert gate.available == 4  # pool uncorrupted

    def test_oversized_request_refused_loudly(self):
        gate = CreditGate(4)
        with pytest.raises(BuildError):
            gate.try_acquire(5)
        with pytest.raises(BuildError):
            gate.try_acquire(0)

    @given(seed=seeds)
    @settings(max_examples=30)
    def test_shed_decisions_deterministic(self, seed):
        """The same seeded overload schedule sheds the same requests —
        the gate is a pure function of its call sequence."""

        def run_schedule():
            rng = np.random.default_rng(seed)
            gate = CreditGate(16)
            decisions = []
            held = []
            for _ in range(200):
                lanes = int(rng.integers(1, 9))
                ok = gate.try_acquire(lanes)
                decisions.append(ok)
                if ok:
                    held.append(lanes)
                # Releases also come from the seeded stream, so the whole
                # schedule (not just arrivals) is reproducible.
                if held and rng.random() < 0.25:
                    gate.release(held.pop(0))
            return decisions, gate.snapshot()

        first, snap1 = run_schedule()
        second, snap2 = run_schedule()
        assert first == second
        assert snap1 == snap2
        assert not all(first)  # the schedule genuinely oversubscribes


# ---------------------------------------------------------------------------
# Executor: checked batches, recovery never lies
# ---------------------------------------------------------------------------


class TestFabricExecutor:
    def test_batch_rows_all_sorted(self, rng):
        ex = FabricExecutor("mux_merger")
        rows = rng.integers(0, 2, (70, 16)).astype(np.uint8)
        out = ex.run_batch(16, rows)
        assert np.array_equal(out.data, np.sort(rows, axis=1))
        assert out.accepted.all()
        assert out.recovered == 0
        assert out.lanes == 70

    def test_rejects_fish_and_bad_width(self):
        with pytest.raises(BuildError):
            FabricExecutor("fish")
        with pytest.raises(BuildError):
            FabricExecutor("no_such_net")
        ex = FabricExecutor()
        with pytest.raises(BuildError):
            ex.checked(12)  # not a power of two

    def test_pad_width(self):
        ex = FabricExecutor()
        assert ex.pad_width(1) == 2
        assert ex.pad_width(5) == 8
        assert ex.pad_width(64) == 64


# ---------------------------------------------------------------------------
# Service end-to-end
# ---------------------------------------------------------------------------


def _small_config(**kw) -> ServeConfig:
    base = dict(max_lanes=16, max_delay_s=0.001, credits=64)
    base.update(kw)
    return ServeConfig(**base)


class TestServiceEndToEnd:
    def test_sort_concentrate_route_all_verified(self, rng):
        requests, truths = [], []
        for _ in range(12):
            bits = rng.integers(0, 2, int(rng.integers(3, 20)))
            requests.append(sort_request(bits))
            truths.append(("sort", np.sort(bits)))
        for _ in range(6):
            mask = rng.integers(0, 2, int(rng.integers(2, 16)))
            requests.append(concentrate_request(mask))
            truths.append(("concentrate", mask))
        for _ in range(6):
            perm = rng.permutation(16)
            requests.append(route_request(perm))
            truths.append(("route", perm))

        responses = serve_requests(requests, _small_config())
        assert len(responses) == len(requests)
        for resp, (kind, truth) in zip(responses, truths):
            assert resp.ok, resp.error
            assert resp.kind == kind
            if kind == "sort":
                assert np.array_equal(resp.result, truth)
            elif kind == "concentrate":
                k = int(truth.sum())
                assert resp.granted == k
                assert resp.result[:k].all() and not resp.result[k:].any()
            else:  # route: result[j] is the source reaching output j
                assert np.array_equal(truth[resp.result], np.arange(truth.size))

    def test_batching_actually_happens(self, rng):
        reqs = [sort_request(rng.integers(0, 2, 16)) for _ in range(64)]
        responses = serve_requests(reqs, _small_config(max_lanes=16))
        assert all(r.ok for r in responses)
        assert max(r.batch_lanes for r in responses) > 1

    def test_shed_under_starved_credits(self, rng):
        """A pool sized for one batch floods -> explicit sheds with retry
        hints, and every accepted answer is still correct."""

        async def flood():
            cfg = _small_config(max_lanes=4, credits=4, max_delay_s=0.05)
            async with SortingService(cfg) as svc:
                reqs = [sort_request(rng.integers(0, 2, 8), tag=str(i))
                        for i in range(40)]
                return reqs, await svc.submit_many(reqs)

        reqs, responses = asyncio.run(flood())
        sheds = [r for r in responses if r.shed]
        oks = [r for r in responses if r.ok]
        assert sheds, "overload never shed"
        assert oks, "overload accepted nothing"
        assert len(sheds) + len(oks) == len(responses)
        for resp in sheds:
            assert resp.retry_after_s > 0
            assert resp.result is None
        by_tag = {r.tag: r for r in responses}
        for req in reqs:
            resp = by_tag[req.tag]
            if resp.ok:
                assert np.array_equal(
                    resp.result, np.sort(req.payload)
                ), "accepted-but-wrong answer"

    def test_broken_fabric_reports_alarm_names(self, rng, monkeypatch):
        """On a faulty fabric every answer is still correct, and a
        response names the alarms that fired on its lanes exactly when
        it was recovered."""
        import dataclasses

        from repro.circuits import OutputSwap, apply_fault

        checked = FabricExecutor("mux_merger").checked(16)
        broken = dataclasses.replace(
            checked, netlist=apply_fault(checked.netlist, OutputSwap(13)))
        monkeypatch.setattr(FabricExecutor, "checked", lambda self, w: broken)
        reqs = [sort_request(rng.integers(0, 2, 16)) for _ in range(40)]
        responses = serve_requests(reqs, _small_config())

        assert any(r.recovered for r in responses)
        names = set(checked.alarm_names) | {"invariant"}
        for req, resp in zip(reqs, responses):
            assert np.array_equal(resp.result, np.sort(req.payload))
            assert bool(resp.detections) == resp.recovered
            assert set(resp.detections) <= names

    def test_route_charges_lg_n_credits(self):
        assert lanes_for(route_request(np.arange(16))) == 4
        assert lanes_for(sort_request([1, 0])) == 1

        async def oversized():
            # lg(64) = 6 lanes can never fit a 4-credit pool: loud refusal.
            async with SortingService(_small_config(max_lanes=4, credits=4)) as svc:
                await svc.submit(route_request(np.arange(64)))

        with pytest.raises(BuildError):
            asyncio.run(oversized())

    def test_cancelled_submits_return_their_credits(self, rng):
        """Cancelled, shed and completed submits all give their credits
        back: after stop() the gate holds its whole capacity again."""

        async def run():
            cfg = _small_config(max_lanes=4, credits=8, max_delay_s=0.05)
            async with SortingService(cfg) as svc:
                def sort16():
                    return svc.submit(sort_request(rng.integers(0, 2, 16)))

                assert (await sort16()).ok  # builds the width-16 fabric
                for _ in range(3):  # cancelled while awaiting the age flush
                    with pytest.raises(asyncio.TimeoutError):
                        await asyncio.wait_for(sort16(), 0.001)
                for _ in range(200):  # their lanes age-flush and run
                    await asyncio.sleep(0.01)
                    if svc.gate.available == svc.gate.capacity:
                        break
                assert svc.gate.available == svc.gate.capacity
                # Three sorts and the route's first lane fill one batch;
                # the route is cancelled while its other lanes still wait.
                sorts = [asyncio.ensure_future(sort16()) for _ in range(3)]
                await asyncio.sleep(0)
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        svc.submit(route_request(rng.permutation(16))), 0.02)
                assert all(r.ok for r in await asyncio.gather(*sorts))
                flood = await svc.submit_many(
                    [sort_request(rng.integers(0, 2, 16)) for _ in range(20)])
                assert any(r.shed for r in flood)
                assert any(r.ok for r in flood)
            return svc.gate

        gate = asyncio.run(asyncio.wait_for(run(), 60))
        assert gate.available == gate.capacity

    def test_submit_requires_started_service(self):
        svc = SortingService(_small_config())
        with pytest.raises(BuildError):
            asyncio.run(svc.submit(sort_request([1, 0])))

    def test_config_rejects_undersized_credits(self):
        with pytest.raises(BuildError):
            ServeConfig(max_lanes=128, credits=64)

    def test_stats_accounting(self, rng):
        reqs = [sort_request(rng.integers(0, 2, 8)) for _ in range(10)]

        async def run():
            async with SortingService(_small_config()) as svc:
                await svc.submit_many(reqs)
                return dict(svc.stats)

        stats = asyncio.run(run())
        assert stats["requests"] == 10
        assert stats["ok"] == 10
        assert stats["shed"] == 0
        assert stats["lanes"] == 10
        assert stats["batches"] >= 1


class TestServiceMetrics:
    def test_prometheus_exposition(self, rng, tmp_path):
        obs.enable(trace_path=str(tmp_path / "trace.jsonl"))
        try:
            reqs = [sort_request(rng.integers(0, 2, 8)) for _ in range(8)]
            reqs.append(route_request(rng.permutation(8)))
            responses = serve_requests(reqs, _small_config())
            assert all(r.ok for r in responses)
            text = obs.OBS.registry.to_prometheus()
        finally:
            obs.disable()
        for metric in (
            "repro_serve_requests_total",
            "repro_serve_request_latency_seconds",
            "repro_serve_batch_fill",
            "repro_serve_queue_depth",
            "repro_serve_credits_available",
            "repro_serve_batches_total",
            "repro_serve_lanes_total",
        ):
            assert metric in text, f"missing {metric} in exposition"
        assert 'kind="route"' in text
