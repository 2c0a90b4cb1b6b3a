"""Durability: warehouse directories, sketch serialization, checkpoints."""

from .checkpoint import (
    SimulatedCrash,
    load_engine,
    recover_checkpoint,
    save_engine,
)
from .serialization import (
    SerializationError,
    dump_gk,
    dump_kll,
    dump_sketch,
    load_gk,
    load_kll,
    load_stream_sketch,
)
from .warehouse_store import PersistenceError, load_store, save_store

__all__ = [
    "SimulatedCrash",
    "load_engine",
    "recover_checkpoint",
    "save_engine",
    "SerializationError",
    "dump_gk",
    "dump_kll",
    "dump_sketch",
    "load_gk",
    "load_kll",
    "load_stream_sketch",
    "PersistenceError",
    "load_store",
    "save_store",
]
