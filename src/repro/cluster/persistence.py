"""Cluster durability: per-shard checkpoints plus one manifest.

A cluster checkpoint is one engine checkpoint per shard (a
``shard-XX/`` directory each) plus a ``cluster.json`` manifest
recording the shard count, the router (so restored ingest routes
identically) and the engine config.  It commits through the engine
checkpoint's protocol (:mod:`repro.persistence.checkpoint`): every
shard is staged under ``<dir>.tmp``, the manifest is written last as
the completeness marker, and one rename commits the lot, so a crash
mid-save leaves exactly the previous checkpoint or the new one.
:func:`restore_shards` rejoins a running cluster's quarantined shards
from such a checkpoint.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional

from ..core.engine import HybridQuantileEngine
from ..faults.plan import FaultPlan
from ..ingest.wal import WalError
from ..persistence.checkpoint import (
    begin_stage,
    commit_stage,
    config_from_state,
    load_engine,
    recover_checkpoint,
    stage_engine,
)
from ..persistence.warehouse_store import PersistenceError
from ..storage.fsutil import atomic_write_json
from .engine import ClusterEngine, ShardErrors, shard_dir
from .router import ShardRouter

MANIFEST_FILE = "cluster.json"
_CLUSTER_FORMAT = "repro-cluster-v1"


def save_cluster(cluster: ClusterEngine, directory: "str | Path") -> Path:
    """Checkpoint every shard under ``directory``; returns its path.

    Layout: ``shard-00/ .. shard-NN/`` (each a full engine checkpoint)
    plus ``cluster.json``.  All of it is staged and committed as one
    checkpoint, and each shard's WAL is truncated only after the
    commit.
    """
    if cluster.quarantined_shards:
        raise PersistenceError(
            "cannot checkpoint a cluster with quarantined shards "
            f"{sorted(cluster.quarantined_shards)}: their state lives "
            "only in the WAL; restore them first"
        )
    root = Path(directory)
    stage = begin_stage(root, MANIFEST_FILE)
    watermarks = [
        stage_engine(shard, shard_dir(stage, index), shard_dir(root, index))
        for index, shard in enumerate(cluster.shards)
    ]
    manifest = {
        "format": _CLUSTER_FORMAT,
        "shards": cluster.num_shards,
        "router": cluster.router.to_manifest(),
        "config": dataclasses.asdict(cluster.config),
        "step": cluster.steps_sealed,
    }
    atomic_write_json(stage / MANIFEST_FILE, manifest)
    commit_stage(stage, root)
    for shard, wal_lsn in zip(cluster.shards, watermarks):
        if wal_lsn is not None:
            shard.wal.truncate(wal_lsn)
    return root


def load_cluster(
    directory: "str | Path",
    wal_dir: "Optional[str | Path]" = None,
    fault_plan: FaultPlan = FaultPlan(),
) -> ClusterEngine:
    """Restore a cluster checkpointed by :func:`save_cluster`.

    Checks the router and rebuilds the config from the manifest,
    restores each shard engine from its own directory (its disk failing
    on the shard's own :meth:`FaultPlan.for_shard
    <repro.faults.plan.FaultPlan.for_shard>` schedule when
    ``fault_plan`` is given) and builds the facade over them, at the
    step they sealed.

    With ``wal_dir``, each shard rolls forward from its own
    ``shard-NN/`` WAL after its checkpoint loads, recovering every
    batch and seal acked after the checkpoint.
    """
    root = recover_checkpoint(directory, MANIFEST_FILE)
    manifest = _read_manifest(root)
    if manifest.get("format") != _CLUSTER_FORMAT:
        raise PersistenceError(
            f"unknown cluster format {manifest.get('format')!r}"
        )
    shards = int(manifest["shards"])
    config = config_from_state(manifest["config"])
    # The router follows from the shard count; reading it refuses a
    # manifest that routes some other way.
    if ShardRouter.from_manifest(manifest["router"]).shards != shards:
        raise PersistenceError("manifest's router and shard count differ")
    engines: List[HybridQuantileEngine] = []
    try:
        for index in range(shards):
            engines.append(_load_shard(root, index, fault_plan, wal_dir))
        return ClusterEngine(
            shards=shards,
            config=config,
            engines=engines,
            fault_plan=fault_plan,
            wal_dir=wal_dir,
        )
    except BaseException:
        for engine in engines:
            engine.close()
        raise


def restore_shards(
    cluster: ClusterEngine, directory: "str | Path"
) -> List[int]:
    """Rejoin every quarantined shard from a :func:`save_cluster`
    checkpoint; returns the shards that rejoined, in id order.

    A save that died mid-commit first rolls forward or back as a whole.
    Each quarantined shard then loads from its ``shard-NN/`` directory
    as :func:`load_cluster` loads it, rolling forward from its WAL
    under ``cluster.wal_root``, and :meth:`rejoin_shard
    <repro.cluster.engine.ClusterEngine.rejoin_shard>` swaps it in.  A
    shard whose restore raises stays quarantined with its WAL writer
    given back, or with none when the writer refuses its log (mid-log
    damage, left untouched).  Every shard is tried first: one error
    re-raises unchanged, several as
    :class:`~repro.cluster.engine.ShardErrors`.
    A caller that wants retries wraps the call.
    """
    root = recover_checkpoint(directory, MANIFEST_FILE)
    restored: List[int] = []
    errors: Dict[int, BaseException] = {}
    for index in sorted(cluster.quarantined_shards):
        # load_engine opens the directory's one live writer itself.
        cluster.release_wal(index)
        engine = None
        try:
            engine = _load_shard(
                root, index, cluster.fault_plan, cluster.wal_root
            )
            cluster.rejoin_shard(index, engine)
        except BaseException as exc:  # noqa: BLE001 - attempt all first
            if engine is not None:
                engine.close()
            errors[index] = exc
            try:
                cluster.reopen_wal(index)
            except WalError:
                pass  # the restore re-raises the damage when retried
        else:
            restored.append(index)
    ShardErrors.raise_joined("restore_shards", errors)
    return restored


def _load_shard(
    root: Path,
    index: int,
    fault_plan: FaultPlan,
    wal_dir: "Optional[str | Path]",
) -> HybridQuantileEngine:
    return load_engine(
        shard_dir(root, index),
        fault_plan=fault_plan.for_shard(index),
        wal_dir=None if wal_dir is None else shard_dir(wal_dir, index),
    )


def _read_manifest(root: Path) -> dict:
    try:
        return json.loads((root / MANIFEST_FILE).read_text())
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"garbled cluster manifest: {exc}") from exc

