"""A served quick batch costs what the system's own quick read costs.

The coalescer answers a batch off the current TS through the pin-free
path ``quantile_many(..., "quick")`` takes: it calls ``pin()`` only for
the batch that runs an epoch's shared-tier warming pass, exactly once.
Its answers must equal ``quantile_many``'s at the same state on every
field but ``wall_seconds``, and each request must carry the epoch of
the TS its group read (a cluster's is the shard-epoch tuple).
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterEngine
from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine
from repro.serving import QueryService
from .conftest import build_filled_engine

PHIS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.5)


def fields(result):
    row = dataclasses.asdict(result)
    row.pop("wall_seconds")
    return row


@pytest.fixture
def pins(monkeypatch):
    """Every ``pin()`` call on an engine or a cluster, in order."""
    calls = []
    for cls in (HybridQuantileEngine, ClusterEngine):

        def counting(self, _pin=cls.pin):
            calls.append(type(self).__name__)
            return _pin(self)

        monkeypatch.setattr(cls, "pin", counting)
    return calls


def two_shard_cluster():
    config = EngineConfig(epsilon=0.02, block_elems=64, sketch_backend="kll")
    cluster = ClusterEngine(shards=2, config=config)
    rng = np.random.default_rng(5)
    for _ in range(4):
        cluster.stream_update_many(rng.integers(0, 10**6, 1200))
        cluster.end_time_step()
    cluster.stream_update_many(rng.integers(0, 10**6, 800))
    return cluster


def serve_batch(service, system, window):
    """Serve one paused-then-resumed batch of quick requests (full scope
    and ``window``); returns them with the epoch each group read."""
    reads = []
    current_ts = system._current_ts

    def recording_read(*scope):
        read = current_ts(*scope)
        reads.append((scope[0], read[3]))
        return read

    system._current_ts = recording_read
    try:
        service.pause()
        requests = [service.submit(phi) for phi in PHIS]
        requests += [service.submit(phi, window_steps=window) for phi in PHIS]
        service.resume()
        for request in requests:
            request.result(timeout=10.0)
    finally:
        del system._current_ts
    return requests, dict(reads)


def check_batch(system, requests, read_epochs, window):
    """Answers equal ``quantile_many``'s; epochs are the reads' and a
    pin's at the same state."""
    assert len(read_epochs) == 2  # one read per window scope
    with system.pin() as view:
        epoch = view.epoch
    for scope in (None, window):
        want = system.quantile_many(list(PHIS), "quick", window_steps=scope)
        served = [r for r in requests if r.window_steps == scope]
        assert [fields(r.result()) for r in served] == list(map(fields, want))
        assert {r.epoch for r in served} == {read_epochs[scope]} == {epoch}


@pytest.mark.parametrize("build", [build_filled_engine, two_shard_cluster])
def test_a_served_batch_pins_nothing(build, pins):
    system = build()
    try:
        window = system.available_window_sizes()[0]
        # The state the batch reads: on a cluster this first read
        # gathers the shards, as a first ``cluster.quantile`` would.
        system.quantile_many(list(PHIS), "quick")
        pins.clear()
        with QueryService(system) as service:
            requests, read_epochs = serve_batch(service, system, window)
            assert pins == []
            assert service.metrics_snapshot().coalesced_batches == 1
        check_batch(system, requests, read_epochs, window)
        if isinstance(system, ClusterEngine):
            assert isinstance(requests[0].epoch, tuple)
    finally:
        system.close()


def test_only_the_warming_batch_pins_once_per_epoch(pins):
    config = EngineConfig(
        epsilon=0.02, kappa=3, block_elems=64, shared_cache_blocks=256
    )
    rng = np.random.default_rng(11)
    with HybridQuantileEngine(config=config) as engine:
        for _ in range(4):
            engine.stream_update_many(rng.integers(0, 10**6, 1200))
            engine.end_time_step()
        engine.stream_update_many(rng.integers(0, 10**6, 800))
        window = engine.available_window_sizes()[0]
        with QueryService(engine) as service:
            for seal in (False, True):
                if seal:  # a new epoch warms again
                    engine.end_time_step()
                    engine.stream_update_many(rng.integers(0, 10**6, 300))
                for expected_pins in (1, 0):
                    pins.clear()
                    requests, epochs = serve_batch(service, engine, window)
                    assert len(pins) == expected_pins
                    check_batch(engine, requests, epochs, window)
            snapshot = service.metrics_snapshot()
        assert snapshot.warm_passes == 2
        assert snapshot.warm_blocks > 0
        assert snapshot.coalesced_batches == 4
