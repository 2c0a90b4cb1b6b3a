"""The tail replay is unobservable: the same answers on plain ints.

Once every partition is resolved no probe can charge a block, and
``AccurateSearch`` finishes the bisection over two short lists cut once
from ``(u, v]``: the resolved candidates and the values the stream term
steps at, the term ranked once per cell between two of them
(docs/THEORY.md, "Resolved partitions").  ``FullBisection`` is the
search with the replay switched off — every remaining step ranks
through ``_estimate`` and the stream callable, as the loop did before —
and on identically built systems every ``QueryResult`` field but
``wall_seconds`` must be equal.
"""

import dataclasses

import numpy as np
import pytest

from repro import ClusterEngine, EngineConfig, HybridQuantileEngine
from repro.core import query_path
from repro.core.epoch import StreamView
from repro.core.filters import AccurateSearch
from repro.sketches.base import rank_for_phi
from repro.storage import BlockCache, SimulatedDisk

PHIS = (0.001, 0.02, 0.31, 0.5, 0.5004, 0.86, 0.995, 1.0)


class FullBisection(AccurateSearch):
    """Ranks every remaining step through ``_estimate``: the loop as it
    ran before the replay, one stream-rank call per step."""

    def _replay(self, u, v, rho_v, iterations):
        while v > u + 1:
            z = (u + v) // 2
            iterations += 1
            rho, probe = self._estimate(z)
            reached = rho >= self._rank
            if reached:
                v, rho_v = z, rho
            else:
                u = z
            self._narrow(z, reached, probe)
        return v, rho_v, iterations


def fields(result):
    """Every ``QueryResult`` field but the wall-clock one."""
    out = dataclasses.asdict(result)
    del out["wall_seconds"]
    return out


def feed(system, seed, steps=6, size=3000, universe=1 << 40, live=1500,
         zipf=False):
    rng = np.random.default_rng(seed)

    def batch(n):
        if zipf:
            return np.minimum(rng.zipf(1.3, n), universe).astype(np.int64)
        return rng.integers(0, universe, n)

    for _ in range(steps):
        system.stream_update_many(batch(size))
        system.end_time_step()
    if live:
        system.stream_update_many(batch(live))
    return system


def answers(build, search_cls, monkeypatch, scopes=({},), phis=PHIS):
    """Accurate answers over ``scopes`` (plus one shared-cache batch),
    the replays run and the stream-rank calls made."""
    monkeypatch.setattr(query_path, "AccurateSearch", search_cls)
    replays, calls = [], []
    replay, rank = search_cls._replay, StreamView.rank

    def counting_replay(search, *args):
        replays.append(1)
        return replay(search, *args)

    def counting_rank(view, value):
        calls.append(1)
        return rank(view, value)

    monkeypatch.setattr(search_cls, "_replay", counting_replay)
    monkeypatch.setattr(StreamView, "rank", counting_rank)
    system = build()
    out = [
        fields(system.quantile(phi, "accurate", **scope))
        for scope in scopes
        for phi in phis
    ]
    out += map(fields, system.quantile_many(phis[:4], "accurate"))
    system.close()
    monkeypatch.undo()
    return out, len(replays), len(calls)


def engine(**overrides):
    def build():
        config = EngineConfig(
            epsilon=0.01, kappa=3, block_elems=64, **overrides
        )
        return feed(HybridQuantileEngine(config=config), seed=5)

    return build


def cluster():
    config = EngineConfig(
        epsilon=0.01, kappa=3, block_elems=64, sketch_backend="kll"
    )
    return feed(ClusterEngine(shards=3, config=config), seed=6, steps=5)


def stream_only():
    return feed(HybridQuantileEngine(epsilon=0.01), seed=9, steps=0, live=5000)


SCOPED = ({}, {"window_steps": 2}, {"step_range": (1, 3)})

CASES = [
    pytest.param(engine(), SCOPED, id="gk"),
    pytest.param(engine(sketch_backend="kll"), SCOPED, id="kll"),
    pytest.param(cluster, SCOPED, id="cluster3-kll"),
    pytest.param(engine(probe_budget=6), ({},), id="probe-budget-6"),
    pytest.param(engine(block_cache=False), ({},), id="no-block-cache"),
    pytest.param(engine(shared_cache_blocks=64), ({},), id="shared-tier"),
    pytest.param(
        lambda: feed(
            HybridQuantileEngine(epsilon=0.005, kappa=4, block_elems=128),
            seed=7, steps=8, size=4000, universe=1 << 62, live=2000,
        ),
        ({},),
        id="universe-2^62",
    ),
    pytest.param(
        lambda: feed(
            HybridQuantileEngine(epsilon=0.005, kappa=4, block_elems=128),
            seed=8, steps=8, size=4000, universe=1 << 30, live=2000,
            zipf=True,
        ),
        ({}, {"window_steps": 2}),
        id="zipf",
    ),
    pytest.param(stream_only, ({},), id="stream-only"),
]


@pytest.mark.parametrize("build, scopes", CASES)
def test_same_results_as_the_full_bisection(build, scopes, monkeypatch):
    want, _, full_calls = answers(build, FullBisection, monkeypatch, scopes)
    got, _, calls = answers(build, AccurateSearch, monkeypatch, scopes)
    assert got == want
    assert calls <= full_calls


@pytest.mark.parametrize(
    "build",
    [engine(), cluster, stream_only],
    ids=["gk", "cluster3-kll", "stream-only"],
)
def test_the_replay_bites_and_ranks_the_stream_per_cell(build, monkeypatch):
    _, _, full_calls = answers(build, FullBisection, monkeypatch)
    got, replays, calls = answers(build, AccurateSearch, monkeypatch)
    iterations = sum(result["iterations"] for result in got)
    assert replays >= len(got) // 2
    assert full_calls >= iterations
    assert calls * 2 <= iterations


def test_adjacent_filters_from_the_start(monkeypatch):
    """Three distinct values: most targets get ``v = u + 1`` at once, and
    the search ranks ``v`` without a step."""

    def build():
        return feed(
            HybridQuantileEngine(epsilon=0.01, block_elems=16),
            seed=10, steps=3, size=500, universe=3, live=300,
        )

    want, _, _ = answers(build, FullBisection, monkeypatch)
    got, _, _ = answers(build, AccurateSearch, monkeypatch)
    assert got == want
    assert any(result["iterations"] == 0 for result in got)


def test_a_search_given_only_the_rank_function_ranks_every_step(monkeypatch):
    """How the frozen benchmark stages a search: ``stream_rank_fn`` and
    no step values.  The replay calls it at every step and answers as
    the engine does."""
    system = engine()()
    calls, replays = [], []
    rank, replay = StreamView.rank, AccurateSearch._replay

    def counting_rank(view, value):
        calls.append(value)
        return rank(view, value)

    def counting_replay(search, *args):
        replays.append(1)
        return replay(search, *args)

    monkeypatch.setattr(StreamView, "rank", counting_rank)
    monkeypatch.setattr(AccurateSearch, "_replay", counting_replay)
    for phi in PHIS:
        with system.pin() as handle:
            outcomes = []
            for search_cls in (AccurateSearch, FullBisection):
                del calls[:]
                outcomes.append(
                    search_cls(
                        partitions=handle.partitions,
                        stream_summary=handle.stream_summary(),
                        combined=handle.combined(),
                        config=system.config,
                        rank=rank_for_phi(phi, handle.n_total),
                        stream_rank_fn=handle.stream_rank,
                        cache=BlockCache(system.disk),
                        executor=system.query_executor,
                    ).run()
                )
                steps = outcomes[-1].iterations
                assert len(calls) in (steps, steps + 1)
            assert outcomes[0] == outcomes[1]
        result = system.quantile(phi, "accurate")
        assert (result.value, result.estimated_rank, result.iterations) == (
            outcomes[0].value,
            outcomes[0].estimated_rank,
            outcomes[0].iterations,
        )
    assert len(replays) >= len(PHIS)
    system.close()


# -- a stream term that is not monotone -----------------------------------------


class Stub:
    """Filters ``(0, 1024)`` and no partitions: the replay runs every
    step; snapping returns the value itself."""

    minimum = 0

    def generate_filters(self, rank):
        return 0, 1024

    def largest_at_most(self, value):
        return value


STEPS = np.array([100, 300, 500, 700], dtype=np.int64)
#: the stream term per cell: it *falls* across 500 (90 -> 60).
TERMS = (0.0, 40.0, 90.0, 60.0, 120.0)


class JumpToCrossing(AccurateSearch):
    """The tempting shortcut: jump to the first step value whose rho
    reaches the target.  Right only for a monotone term."""

    def _replay(self, u, v, rho_v, iterations):
        for value in [int(s) for s in self._stream_steps if u < s <= v] + [v]:
            rho = self._stream_rank(value)
            if rho >= self._rank:
                return value, rho, iterations + 1
        return v, rho_v, iterations


def stub_search(search_cls, calls, rank=80):
    def term(value):
        calls.append(value)
        return TERMS[int(np.searchsorted(STEPS, value, "right"))]

    stub = Stub()
    return search_cls(
        partitions=[],
        stream_summary=stub,
        combined=stub,
        config=EngineConfig(epsilon=0.01),
        rank=rank,
        cache=BlockCache(SimulatedDisk()),
        stream_rank_fn=term,
        stream_steps=STEPS,
    )


@pytest.mark.parametrize("rank", [1, 50, 80, 95, 120])
def test_a_falling_stream_term_is_replayed_not_jumped(rank):
    calls, full_calls = [], []
    got = stub_search(AccurateSearch, calls, rank).run()
    want = stub_search(FullBisection, full_calls, rank).run()
    assert got == want
    assert len(full_calls) == want.iterations
    # Once per cell the bisection visits.
    cells = {int(np.searchsorted(STEPS, z, "right")) for z in full_calls}
    assert len(calls) == len(cells) < want.iterations


def test_the_jump_shortcut_answers_differently_on_a_falling_term():
    """The stub above tells the shortcut apart: at rank 80 the crossing
    bisection finds is 700, the first step value reaching 80 is 300."""
    want = stub_search(FullBisection, [], 80).run()
    jumped = stub_search(JumpToCrossing, [], 80).run()
    assert want.value == 700
    assert jumped.value == 300
