"""Quick readers racing a writer and a sealer on one background engine.

A quick answer pins nothing: it reads the (layout, stream) pair under
the seal lock, as ``pin()`` does, and answers off the immutable TS of
that pair.  Its correctness rests on the pair being consistent, so
here a writer thread appends, a sealer thread ends steps (the archiver
adopts them in the background) and two reader threads ask every quick
door.  Every answer goes through ``bench.oracle.Oracle.verify`` against
the writes' ack windows: a write acked before the query was submitted
must be seen, one started after it completed must not.
"""

import sys
import threading
import time
from dataclasses import replace

import numpy as np

from bench.oracle import PRELOADED, Answer, Oracle
from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine

WRITES = 300
PHIS = (0.05, 0.5, 0.95)


def loosened(result):
    """The quick bound counted twice, as tests/test_differential.py and
    the layout machines count it: ``eps1 * n + eps2 * m`` is exceeded on
    short streams (ROADMAP item 1)."""
    return replace(result, rank_error_bound=2 * result.rank_error_bound)


def test_quick_readers_race_a_writer_and_a_sealer():
    config = EngineConfig(
        epsilon=0.05, kappa=2, block_elems=16, ingest_mode="background"
    )
    engine = HybridQuantileEngine(config=config)
    preload = np.random.default_rng(0).integers(0, 10**6, 500)
    engine.stream_update_many(preload)
    engine.end_time_step()
    writes = [(PRELOADED, PRELOADED, preload)]
    answers = []
    done = threading.Event()
    errors = []

    def guarded(work):
        def run():
            try:
                work()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                done.set()

        return threading.Thread(target=run)

    def writer():
        rng = np.random.default_rng(1)
        for turn in range(WRITES):
            if turn % 7 == 0:
                values = np.asarray([rng.integers(0, 10**6)])
                start = time.perf_counter()
                engine.stream_update(int(values[0]))
            else:
                values = rng.integers(0, 10**6, int(rng.integers(1, 80)))
                start = time.perf_counter()
                engine.stream_update_many(values)
            writes.append((start, time.perf_counter(), values))
            time.sleep(0.002)  # let seals and reads interleave
        done.set()

    def sealer():
        while not done.wait(0.01):
            engine.end_time_step()

    def reader(seed):
        def read():
            rng = np.random.default_rng(seed)
            while not done.is_set():
                door = int(rng.integers(0, 3))
                submit = time.perf_counter()
                if door == 0:
                    phi = float(rng.uniform(0.01, 1.0))
                    got = [(phi, engine.quantile(phi, "quick"))]
                elif door == 1:
                    got = list(zip(PHIS, engine.quantile_many(PHIS, "quick")))
                else:
                    rank = int(rng.integers(1, 500))
                    got = [(0.0, engine.query_rank(rank, "quick"))]
                finished = time.perf_counter()
                answers.extend(
                    Answer("quick", phi, submit, finished, loosened(result))
                    for phi, result in got
                )

        return read

    threads = [guarded(writer), guarded(sealer)]
    threads += [guarded(reader(seed)) for seed in (2, 3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave inside the read and the seal
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        engine.flush()
        stats = engine.epoch_stats
        assert stats.seal_bumps > 5 and stats.adopt_bumps > 0
        assert (stats.peak_pins, stats.live_pins) == (0, 0)
        assert len(answers) > 50
        verdict = Oracle().verify(writes, answers)
        assert not verdict.failures, verdict.failures[:5]
        engine.check_invariants()
    finally:
        engine.close()
