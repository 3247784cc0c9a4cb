"""(De)serialization of :class:`~repro.codecs.base.CompressedBlock` objects.

Three payload shapes serialize natively, keeping their compression benefit on
disk:

``irregular``
    Retained indices/values of an :class:`~repro.data.timeseries.
    IrregularSeries` (CAMEO and the line simplifiers).
``values``
    A verbatim ``float64`` array (the raw codec and short segments).
``bits``
    The ``(bytes, bit_length, count)`` triple of the XOR codecs
    (hex-encoded; the payload bytes round-trip exactly).

The functional-approximation codecs (PMC, SWING, Sim-Piece, FFT) keep Python
closures as payloads, which are not portable.  :func:`payload_to_document`
refuses them — the durable store's segment files keep that strict behaviour —
while :func:`block_to_document` can *materialize* such a block instead: the
document stores the model's reconstruction (``dense``) next to the original
bits accounting, so a CLI ``compress`` → ``decompress`` round trip reproduces
``codec.decode(block)`` exactly even though the on-disk form is not the
model itself.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

import numpy as np

from ..compressors.base import CompressedModel
from ..data.timeseries import IrregularSeries
from ..exceptions import DecompressionError, StorageError
from .base import CompressedBlock

__all__ = [
    "payload_to_document",
    "payload_from_document",
    "block_to_document",
    "block_from_document",
    "save_block_json",
    "load_block_json",
    "BLOCK_FORMAT",
]

#: Marker stored in every serialized block document.
BLOCK_FORMAT = "repro.codec-block"
_FORMAT_VERSION = 1


def _jsonify(value):
    """Recursively convert numpy scalars/arrays to native JSON types.

    Metadata dictionaries routinely carry ``np.float64`` deviations or small
    arrays; stringifying them (``json.dumps(default=str)``) would silently
    change their type across a save/load round trip, so they are normalized
    explicitly instead.  Genuinely unserializable values still raise.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


# ---------------------------------------------------------------------- #
# payloads
# ---------------------------------------------------------------------- #
def payload_to_document(payload) -> dict:
    """Serialize a natively-persistable block payload to a JSON-able dict.

    Raises :class:`~repro.exceptions.StorageError` for payload types without
    a portable encoded form (the model-based codecs); see
    :func:`block_to_document` for the materializing alternative.
    """
    if isinstance(payload, IrregularSeries):
        return {
            "type": "irregular",
            "indices": payload.indices.tolist(),
            "values": payload.values.tolist(),
            "original_length": payload.original_length,
            "name": payload.name,
            "metadata": payload.metadata,
        }
    if isinstance(payload, np.ndarray):
        return {"type": "values", "values": payload.tolist()}
    if (isinstance(payload, tuple) and len(payload) == 3
            and isinstance(payload[0], (bytes, bytearray))):
        data, bit_length, count = payload
        return {"type": "bits", "data": bytes(data).hex(),
                "bit_length": int(bit_length), "count": int(count)}
    raise StorageError(
        f"payload of type {type(payload).__name__} cannot be persisted; "
        "store the series with a persistable codec (cameo, a line "
        "simplifier, gorilla, chimp or raw) instead")


def payload_from_document(document: dict):
    """Inverse of :func:`payload_to_document` (plus the ``dense`` form)."""
    kind = document.get("type")
    if kind == "irregular":
        return IrregularSeries(
            indices=np.asarray(document["indices"], dtype=np.int64),
            values=np.asarray(document["values"], dtype=np.float64),
            original_length=int(document["original_length"]),
            name=str(document.get("name", "compressed")),
            metadata=dict(document.get("metadata", {})))
    if kind == "values":
        return np.asarray(document["values"], dtype=np.float64)
    if kind == "bits":
        return (bytes.fromhex(document["data"]), int(document["bit_length"]),
                int(document["count"]))
    if kind == "dense":
        values = np.asarray(document["values"], dtype=np.float64)
        return CompressedModel(
            reconstruct=lambda: values.copy(),
            stored_values=int(document.get("stored_values", values.size)),
            original_length=values.size,
            name=str(document.get("name", "model")),
            metadata=dict(document.get("metadata", {})))
    raise StorageError(f"unknown payload type {kind!r} in document")


# ---------------------------------------------------------------------- #
# blocks
# ---------------------------------------------------------------------- #
def block_to_document(block: CompressedBlock, *,
                      materialize: Callable[[], np.ndarray] | None = None) -> dict:
    """Serialize a block (header + payload) to a JSON-able dict.

    ``materialize`` — typically ``lambda: codec.decode(block)`` — enables the
    ``dense`` fallback for payloads without a portable encoded form; without
    it such payloads raise :class:`~repro.exceptions.StorageError`.
    """
    if isinstance(block.payload, CompressedModel):
        if materialize is None:
            # Same refusal as payload_to_document, for a uniform error path.
            payload_document = payload_to_document(block.payload)
        else:
            model = block.payload
            payload_document = {
                "type": "dense",
                "values": np.asarray(materialize(), dtype=np.float64).tolist(),
                "stored_values": int(model.stored_values),
                "name": model.name,
                "metadata": model.metadata,
            }
    else:
        payload_document = payload_to_document(block.payload)
    return _jsonify({
        "format": BLOCK_FORMAT,
        "version": _FORMAT_VERSION,
        "codec": block.codec,
        "length": int(block.length),
        "bits": int(block.bits),
        "lossless": bool(block.lossless),
        "metadata": block.metadata,
        "payload": payload_document,
    })


def block_from_document(document: dict) -> CompressedBlock:
    """Inverse of :func:`block_to_document`."""
    if document.get("format") != BLOCK_FORMAT:
        raise DecompressionError("not a repro.codec-block document")
    if int(document.get("version", 0)) > _FORMAT_VERSION:
        raise DecompressionError(
            f"codec-block version {document.get('version')} is newer than "
            f"supported ({_FORMAT_VERSION})")
    try:
        return CompressedBlock(
            codec=str(document["codec"]),
            payload=payload_from_document(document["payload"]),
            length=int(document["length"]),
            bits=int(document["bits"]),
            lossless=bool(document["lossless"]),
            metadata=dict(document.get("metadata", {})))
    except (KeyError, ValueError, TypeError) as exc:
        raise DecompressionError(f"cannot parse codec-block document: {exc}") from exc


def save_block_json(block: CompressedBlock, path, *,
                    materialize: Callable[[], np.ndarray] | None = None) -> Path:
    """Write the JSON document of ``block`` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = block_to_document(block, materialize=materialize)
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def load_block_json(path) -> CompressedBlock:
    """Read a block document written by :func:`save_block_json`."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DecompressionError(f"cannot read codec block from {path}: {exc}") from exc
    return block_from_document(document)
