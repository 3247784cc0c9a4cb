"""Byte-level pin of the durable (v2) on-disk format.

A fixed operation script writes raw, gorilla and cameo series through
:class:`DurableStore` — sealing on append, an explicit flush, and a
buffered tail left in the WAL — and every file it leaves behind is
compared against a recorded sha256.  Any refactor of the manifest,
segment-document or WAL code that changes a single byte fails here.

The input values are multiples of 1/8, so segment summaries are exact
sums whatever the summation order; CAMEO's wall-clock statistic is
frozen so its segment metadata is reproducible.
"""

from __future__ import annotations

import hashlib
import types

import numpy as np

import repro.core.compressor as compressor_module
from repro.storage import DurableStore

#: sha256 of every file the script leaves (the advisory lock file, which
#: holds the writer's pid, is excluded).
EXPECTED = {
    "manifest.json": "523e7159d95517d666ea3716b73d3ef7c7c3d8848338f038c138b5f20a60935c",
    "manifest.json.prev": "e9c8eff782fb796020eca0b24fe8b7def76f540e33fb3b6a5cd1a0802cb6c581",
    "segments/00/gorilla-48f262a6/seg-000000.json": "3125c163042b820154911df17a64fdeeb14902a402027d772ae30c6b94009216",
    "segments/00/gorilla-48f262a6/seg-000001.json": "ab1624c0de82367c7f992b4631e3756bf28d5148336dcf4c78d63a4928810c59",
    "segments/00/gorilla-48f262a6/seg-000002.json": "52f61a5317fb56c40fdad64c4f1dea03c3e206743d1786b4e364110102d11870",
    "segments/01/cameo-47f0f86b/seg-000000.json": "d38337acd38b37a23dd281a5a83873854a52955c9aa95c795c92707bdfde10a8",
    "segments/01/raw-4fe47aa7/seg-000000.json": "cd7fc71de7e06d03e891110b7d3eed38c55d265039755e55d4492394128647d0",
    "segments/01/raw-4fe47aa7/seg-000001.json": "3ba2a7a38ad1765dd6d0eddf0ae52aa10613133d5f096e330ac68b97322c6eed",
    "wal/shard-00.000001.wal": "694d87342cda68223167a171bdce8023c6ec03fbe459ac0270c9d9137619b3c8",
    "wal/shard-00.000002.wal": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "wal/shard-01.000001.wal": "10f4d16019acd7a3e44cba58fbec881f7aac83db8ee71065f3a4d03458c03494",
    "wal/shard-01.000002.wal": "2941cbc3d97f706fc3f789273e8f15563af3cd6366be2a7e5aac96feb92298eb",
}


def _values(n: int, phase: float) -> np.ndarray:
    t = np.arange(n)
    return np.round(8 * (4 + 2 * np.sin(2 * np.pi * t / 12 + phase))) / 8


def _run_script(root) -> None:
    with DurableStore.create(root, default_segment_size=16, shards=2) as store:
        store.create_series("raw", codec="raw", metadata={"unit": "C"})
        store.create_series("gorilla", codec="gorilla", segment_size=8)
        store.create_series("cameo", codec="cameo",
                            codec_options={"max_lag": 4, "epsilon": 0.05})
        store.append("raw", _values(40, 0.0))       # two seals + buffered tail
        store.append("gorilla", _values(20, 1.0))   # two seals + 4 buffered
        store.flush("gorilla")                      # short segment
        store.append("cameo", _values(24, 2.0))     # one seal + buffered tail
        store.append("raw", [0.5, 0.25])            # tail grows in the WAL


def _digests(root) -> dict[str, str]:
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != ".lock"}


def test_v2_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(compressor_module, "time",
                        types.SimpleNamespace(perf_counter=lambda: 0.0))
    root = tmp_path / "store"
    _run_script(root)
    assert _digests(root) == EXPECTED
