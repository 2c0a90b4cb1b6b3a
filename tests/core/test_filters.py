"""Tests for the accurate-response search machinery (Algorithm 8)."""

import numpy as np

from repro.core.bounds import CombinedSummary
from repro.core.config import EngineConfig
from repro.core.filters import AccurateSearch
from repro.core.summaries import PartitionSummary, StreamSummary
from repro.sketches import GKSketch
from repro.storage import SimulatedDisk, SortedRun
from repro.warehouse import Partition


def build_search(rng, rank, config=None, partitions=3, size=2000,
                 stream=2000):
    config = config or EngineConfig(epsilon=0.02, block_elems=16)
    disk = SimulatedDisk(block_elems=config.block_elems)
    parts = []
    datas = []
    for _ in range(partitions):
        data = rng.integers(0, 10**6, size)
        datas.append(data)
        run = SortedRun(disk, np.sort(data.astype(np.int64)))
        p = Partition(level=0, start_step=1, end_step=1, run=run)
        p.summary = PartitionSummary.build(p, config.epsilon1)
        parts.append(p)
    stream_data = rng.integers(0, 10**6, stream)
    datas.append(stream_data)
    gk = GKSketch(config.epsilon2 / 2.0)
    gk.update_many(stream_data)
    ss = StreamSummary.extract(gk, config.epsilon2)
    combined = CombinedSummary.build([p.summary for p in parts], ss)
    search = AccurateSearch(
        partitions=parts,
        stream_summary=ss,
        combined=combined,
        config=config,
        rank=rank,
    )
    everything = np.sort(np.concatenate(datas).astype(np.int64))
    return search, everything, disk


class TestAccurateSearch:
    def test_outcome_within_guarantee(self, rng):
        config = EngineConfig(epsilon=0.02, block_elems=16)
        m = 2000
        for rank in (1, 500, 4000, 7999):
            search, everything, _ = build_search(rng, rank, config)
            outcome = search.run()
            high = int(np.searchsorted(everything, outcome.value, side="right"))
            low = int(np.searchsorted(everything, outcome.value, side="left")) + 1
            err = max(0, low - rank, rank - high)
            assert err <= 1.5 * config.epsilon * m + 2

    def test_estimated_rank_close_to_truth(self, rng):
        config = EngineConfig(epsilon=0.02, block_elems=16)
        search, everything, _ = build_search(rng, 3000, config)
        outcome = search.run()
        true = int(np.searchsorted(everything, outcome.value, side="right"))
        assert abs(outcome.estimated_rank - true) <= config.epsilon2 * 2000 + 2

    def test_value_is_real_element(self, rng):
        search, everything, _ = build_search(rng, 2500)
        outcome = search.run()
        assert outcome.value in everything

    def test_charges_disk_blocks(self, rng):
        search, _, disk = build_search(rng, 2500)
        before = disk.stats.counters.random_reads
        outcome = search.run()
        assert outcome.random_blocks > 0
        assert (
            disk.stats.counters.random_reads - before
            == outcome.random_blocks
        )

    def test_iteration_depth_bounded_by_log_universe(self, rng):
        search, _, _ = build_search(rng, 2500)
        outcome = search.run()
        assert outcome.iterations <= 64

    def test_probe_budget_limits_search(self, rng):
        """The budget stops further bisection; the in-flight estimate
        may still add a bounded number of blocks."""
        inner = np.random.default_rng(4242)
        config = EngineConfig(epsilon=0.0005, block_elems=4, probe_budget=2)
        search, everything, _ = build_search(inner, 2500, config)
        capped = search.run()
        inner = np.random.default_rng(4242)
        free_config = EngineConfig(epsilon=0.0005, block_elems=4)
        free_search, _, _ = build_search(inner, 2500, free_config)
        free = free_search.run()
        assert capped.random_blocks <= free.random_blocks
        assert capped.value in everything

    def test_no_partitions_stream_only(self, rng):
        config = EngineConfig(epsilon=0.02, block_elems=16)
        search, everything, disk = build_search(
            rng, 500, config, partitions=0, stream=2000
        )
        outcome = search.run()
        assert outcome.random_blocks == 0
        high = int(np.searchsorted(everything, outcome.value, side="right"))
        low = int(np.searchsorted(everything, outcome.value, side="left")) + 1
        err = max(0, low - 500, 500 - high)
        assert err <= 1.5 * config.epsilon * 2000 + 2
