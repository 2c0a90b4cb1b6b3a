"""Binary serialization for the streaming sketches.

A data-stream warehouse restarts: the stream sketch's state must
survive, or the current time step's accuracy guarantee is lost.  These
functions serialize the GK and KLL sketches (the two the engine can
hold) to compact, versioned byte strings (NumPy archives under the
hood) and restore them exactly — a round-tripped sketch answers every
query identically (for KLL that includes the compaction RNG state, so
post-restore ingest also replays bit-for-bit).

``dump_sketch``/``load_stream_sketch`` are the backend-agnostic entry
points the checkpoint layer uses: the dump dispatches on the sketch
type, the load sniffs the format tag.
"""

from __future__ import annotations

import copy
import io
import json

import numpy as np

from ..sketches.gk import GKSketch
from ..sketches.kll import KLLSketch

_GK_FORMAT = "repro-gk-v1"
_KLL_FORMAT = "repro-kll-v1"


class SerializationError(ValueError):
    """Raised when a payload is not a valid serialized sketch."""


def _pack(header: dict, arrays: "dict[str, np.ndarray]") -> bytes:
    buffer = io.BytesIO()
    np.savez(
        buffer,
        header=np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        ),
        **arrays,
    )
    return buffer.getvalue()


def _unpack(data: bytes, expected_format: str):
    try:
        archive = np.load(io.BytesIO(data), allow_pickle=False)
        header = json.loads(bytes(archive["header"]).decode("utf-8"))
    except Exception as exc:
        raise SerializationError(f"not a serialized sketch: {exc}") from exc
    if header.get("format") != expected_format:
        raise SerializationError(
            f"expected {expected_format}, found {header.get('format')!r}"
        )
    return header, archive


def dump_gk(sketch: GKSketch) -> bytes:
    """Serialize a GK sketch (tuples plus counters) to bytes."""
    header = {
        "format": _GK_FORMAT,
        "epsilon": sketch.epsilon,
        "n": sketch.n,
    }
    values, rmin, rmax = sketch._arrays()
    return _pack(
        header,
        {"values": values, "g": np.diff(rmin, prepend=0), "delta": rmax - rmin},
    )


def load_gk(data: bytes) -> GKSketch:
    """Restore a GK sketch serialized by :func:`dump_gk`."""
    header, archive = _unpack(data, _GK_FORMAT)
    sketch = GKSketch(header["epsilon"])
    # The arrays are the restored state (see GKSketch): a sketch that
    # only bulk-absorbs afterwards never builds the lists.
    values = archive["values"].astype(np.int64)
    rmin = np.cumsum(archive["g"], dtype=np.int64)
    sketch._query_arrays = (values, rmin, rmin + archive["delta"])
    sketch._columns = None
    sketch._n = int(header["n"])
    if rmin.size and rmin[-1] > sketch._n:
        raise SerializationError("inconsistent GK payload: sum(g) > n")
    return sketch


def dump_kll(sketch: KLLSketch) -> bytes:
    """Serialize a KLL sketch (level buffers plus RNG state) to bytes.

    The compaction generator's full bit-generator state rides in the
    header, so a restored sketch continues the exact coin-flip sequence
    the original would have drawn — post-restore ingest is bit-identical
    to an uninterrupted run.
    """
    header = {
        "format": _KLL_FORMAT,
        "epsilon": sketch.epsilon,
        "k": sketch.k,
        "seed": sketch._seed,
        "n": sketch.n,
        "min": sketch._min,
        "max": sketch._max,
        "levels": len(sketch._levels),
        "rng_state": sketch._rng.bit_generator.state,
    }
    arrays = {f"level_{h}": level for h, level in enumerate(sketch._levels)}
    return _pack(header, arrays)


def load_kll(data: bytes) -> KLLSketch:
    """Restore a KLL sketch serialized by :func:`dump_kll`."""
    header, archive = _unpack(data, _KLL_FORMAT)
    sketch = KLLSketch(
        header["epsilon"], k=int(header["k"]), seed=int(header["seed"])
    )
    sketch._levels = [
        archive[f"level_{h}"].astype(np.int64)
        for h in range(int(header["levels"]))
    ] or sketch._levels
    sketch._n = int(header["n"])
    sketch._min = None if header["min"] is None else int(header["min"])
    sketch._max = None if header["max"] is None else int(header["max"])
    sketch._rng.bit_generator.state = copy.deepcopy(header["rng_state"])
    if sketch.retained() > sketch._n:
        raise SerializationError("inconsistent KLL payload: retained > n")
    if sketch._n > 0 and sketch._min is None:
        raise SerializationError("inconsistent KLL payload: n > 0, no min")
    return sketch


def dump_sketch(sketch) -> bytes:
    """Serialize any supported stream sketch (dispatch on type)."""
    if isinstance(sketch, GKSketch):
        return dump_gk(sketch)
    if isinstance(sketch, KLLSketch):
        return dump_kll(sketch)
    raise SerializationError(
        f"no serializer for sketch type {type(sketch).__name__}"
    )


def sniff_format(data: bytes) -> str:
    """Format tag of a serialized sketch payload (without loading it)."""
    try:
        archive = np.load(io.BytesIO(data), allow_pickle=False)
        header = json.loads(bytes(archive["header"]).decode("utf-8"))
    except Exception as exc:
        raise SerializationError(f"not a serialized sketch: {exc}") from exc
    return str(header.get("format"))


def load_stream_sketch(data: bytes):
    """Restore a serialized sketch, dispatching on its format tag."""
    loaders = {_GK_FORMAT: load_gk, _KLL_FORMAT: load_kll}
    tag = sniff_format(data)
    if tag not in loaders:
        raise SerializationError(f"unknown sketch format {tag!r}")
    return loaders[tag](data)
