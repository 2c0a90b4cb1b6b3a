"""Cluster durability: per-shard checkpoints plus one manifest.

A cluster checkpoint is N independent engine checkpoints (one
``shard-XX/`` directory each, written by the crash-consistent
:func:`~repro.persistence.checkpoint.save_engine`) plus a
``cluster.json`` manifest recording the shard count, the router (so
restored ingest routes identically) and the engine config.  The
manifest is staged to a temp file and committed with one rename
*after* every shard directory exists, so a crash mid-save leaves
either a complete previous checkpoint or a complete new one — the
same discipline the per-engine checkpoint follows internally.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import List, Optional

from ..faults.plan import FaultPlan
from ..persistence.checkpoint import config_from_state, load_engine, save_engine
from ..persistence.warehouse_store import PersistenceError
from .engine import ClusterEngine, new_shard_disk, shard_dir
from .router import ShardRouter

_MANIFEST_FILE = "cluster.json"
_CLUSTER_FORMAT = "repro-cluster-v1"


def save_cluster(cluster: ClusterEngine, directory: "str | Path") -> Path:
    """Checkpoint every shard under ``directory``; returns its path.

    Layout: ``shard-00/ .. shard-NN/`` (each a full engine checkpoint)
    plus ``cluster.json``.  The manifest is written last, atomically,
    so its presence certifies that every shard directory is complete.
    """
    if cluster.quarantined_shards:
        raise PersistenceError(
            "cannot checkpoint a cluster with quarantined shards "
            f"{sorted(cluster.quarantined_shards)}: their state lives "
            "only in the WAL; restore them first"
        )
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for index, shard in enumerate(cluster.shards):
        save_engine(shard, shard_dir(root, index))
    manifest = {
        "format": _CLUSTER_FORMAT,
        "shards": cluster.num_shards,
        "router": cluster.router.to_manifest(),
        "config": dataclasses.asdict(cluster.config),
        "step": cluster.steps_sealed,
    }
    tmp = root / (_MANIFEST_FILE + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2))
    os.replace(tmp, root / _MANIFEST_FILE)
    return root


def load_cluster(
    directory: "str | Path",
    wal_dir: "Optional[str | Path]" = None,
    fault_plan: Optional[FaultPlan] = None,
) -> ClusterEngine:
    """Restore a cluster checkpointed by :func:`save_cluster`.

    Checks the router and rebuilds the config from the manifest,
    restores each shard engine from its own directory (each on a fresh
    simulated disk — or a fault-plan-wrapped one when ``fault_plan`` is
    given) and reassembles the facade with the lockstep step counter
    intact.

    With ``wal_dir``, each shard rolls forward from its own
    ``shard-NN/`` WAL after its checkpoint loads, recovering every
    batch acked after the checkpoint; the cluster step advances to the
    replayed engines' sealed-step count when the WAL carried seals past
    the manifest.
    """
    root = Path(directory)
    manifest_path = root / _MANIFEST_FILE
    if not manifest_path.exists():
        raise PersistenceError(f"no cluster manifest in {root}")
    manifest = json.loads(manifest_path.read_text())
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
    engines = []
    for index in range(shards):
        checkpoint = shard_dir(root, index)
        if not checkpoint.exists():
            raise PersistenceError(
                f"manifest names {shards} shards but {checkpoint} is missing"
            )
        engines.append(
            load_engine(
                checkpoint,
                disk=new_shard_disk(fault_plan, config, index),
                wal_dir=(
                    shard_dir(wal_dir, index)
                    if wal_dir is not None
                    else None
                ),
            )
        )
    cluster = ClusterEngine(
        shards=shards,
        config=config,
        engines=engines,
        wal_dir=wal_dir,
    )
    cluster.fault_plan = fault_plan
    # WAL replay may have sealed steps past the manifest's snapshot.
    cluster._step = max(
        int(manifest["step"]),
        max(engine.steps_sealed for engine in engines),
    )
    return cluster


def list_shard_dirs(directory: "str | Path") -> List[Path]:
    """The checkpoint's shard directories, in shard order."""
    root = Path(directory)
    manifest = json.loads((root / _MANIFEST_FILE).read_text())
    return [shard_dir(root, i) for i in range(int(manifest["shards"]))]
