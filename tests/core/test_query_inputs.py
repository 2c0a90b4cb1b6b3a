"""Query doors refuse what a cast would read as another question.

``int(2.7)`` is rank 2, ``int("5")`` rank 5 and ``True`` rank 1 or
phi 1; a string phi failed late with an unrelated comparison error.  A
rank must be an ``int`` or a numpy integer, a phi a real number in
(0, 1], and neither may be a bool — checked once in ``answer_rank``
(every rank door) and in ``rank_for_phi`` / ``QueryService.submit``
(every phi door), so the error names the argument.
"""

import numpy as np
import pytest

from repro import cli
from repro.baselines import StrawmanEngine
from repro.cluster import ClusterEngine
from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine
from repro.serving import QueryService


def fill(system):
    system.stream_update_many(np.arange(1, 1001))
    system.end_time_step()
    system.stream_update_many(np.arange(2001, 2101))
    return system


def single_engine():
    return fill(HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16))


def cluster():
    config = EngineConfig(epsilon=0.05, block_elems=16, sketch_backend="kll")
    return fill(ClusterEngine(shards=2, config=config))


def strawman():
    return fill(StrawmanEngine(epsilon=0.05, block_elems=16))


def pinned():
    engine = single_engine()
    return engine.pin()


rank_doors = pytest.mark.parametrize(
    "make",
    [single_engine, cluster, strawman, pinned],
    ids=["engine", "cluster", "strawman", "handle"],
)
phi_doors = pytest.mark.parametrize(
    "make", [single_engine, cluster, pinned], ids=["engine", "cluster", "handle"]
)


@rank_doors
@pytest.mark.parametrize(
    "rank", [2.7, np.float64(3.9), "5", True, np.True_, None],
    ids=["float", "np-float", "str", "bool", "np-bool", "none"],
)
def test_a_rank_that_is_no_integer_is_refused(make, rank):
    system = make()
    with pytest.raises(TypeError, match="rank"):
        system.query_rank(rank, "quick")
    with pytest.raises(TypeError, match="rank"):
        system.query_rank(rank, "accurate")


@rank_doors
def test_integer_ranks_still_answer(make):
    system = make()
    answers = {
        system.query_rank(rank, "quick").value
        for rank in (500, np.int64(500), np.int32(500), np.uint16(500))
    }
    assert len(answers) == 1


@phi_doors
@pytest.mark.parametrize(
    "phi, error",
    [
        (True, TypeError),
        (np.True_, TypeError),
        ("0.5", TypeError),
        (None, TypeError),
        (0.0, ValueError),
        (1.5, ValueError),
        (float("nan"), ValueError),
    ],
    ids=["bool", "np-bool", "str", "none", "zero", "above-one", "nan"],
)
def test_a_phi_that_is_no_fraction_is_refused(make, phi, error):
    system = make()
    for mode in ("quick", "accurate"):
        with pytest.raises(error, match="phi"):
            system.quantile(phi, mode)
        with pytest.raises(error, match="phi"):
            system.quantile_many([0.5, phi], "quick")


@phi_doors
def test_real_phis_still_answer(make):
    system = make()
    answers = {
        system.quantile(phi, "quick").value
        for phi in (0.5, np.float64(0.5), np.float32(0.5))
    }
    assert len(answers) == 1
    assert system.quantile(1, "quick").target_rank == 1100


@pytest.mark.parametrize(
    "phi, error",
    [(True, TypeError), (np.True_, TypeError), ("0.5", TypeError),
     (1.5, ValueError)],
    ids=["bool", "np-bool", "str", "above-one"],
)
def test_the_service_refuses_before_queueing(phi, error):
    service = QueryService(single_engine())
    try:
        with pytest.raises(error, match="phi"):
            service.quantile(phi)
        assert service.metrics_snapshot().queue_depth == 0
        assert service.quantile(0.5).target_rank == 550
    finally:
        service.close()


@pytest.fixture
def warehouse(tmp_path):
    directory = tmp_path / "wh"
    assert cli.main(["init", str(directory), "--epsilon", "0.05",
                     "--kappa", "3"]) == 0
    batch = tmp_path / "batch.npy"
    np.save(batch, np.arange(1, 1001, dtype=np.int64))
    assert cli.main(["ingest", str(directory), str(batch), "--archive"]) == 0
    return directory


@pytest.mark.parametrize(
    "extra",
    [["--phi", "0.5", "1.5"], ["--phi", "0.5", "--window", "7"]],
    ids=["phi-out-of-range", "unaligned-window"],
)
def test_cli_query_refuses_before_printing_a_table(warehouse, capsys, extra):
    capsys.readouterr()
    assert cli.main(["query", str(warehouse), *extra]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
