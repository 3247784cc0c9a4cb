"""Reading and migrating the legacy v1 store format.

``data/v1_store`` is a small monolithic v1 store (a single footer-less
``manifest.json``) written by the former v1 writer: a raw series (with
``{"unit": "C"}`` metadata) and a gorilla series that both keep a buffered
tail, and a flushed cameo series (``max_lag=8, epsilon=0.05``), all with
32-point segments.  ``data/v1_store_expected.json`` records each series'
reconstruction and footprint as the writer held them.

Opening a v1 directory with :class:`DurableStore` migrates it to the v2
layout in place, so every test works on a copy of the fixture.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.storage import DurableStore, QueryEngine

DATA = Path(__file__).parent / "data"


def _seasonal(n: int, phase: float) -> np.ndarray:
    """The generator the fixture's inputs were drawn from."""
    t = np.arange(n)
    return np.round(8 * (30 + 6 * np.sin(2 * np.pi * t / 24 + phase))) / 8


#: Inputs of the lossless series (the cameo series drew 120 values at
#: phase 2.0; its reconstruction is recorded in the expected file).
INPUTS = {"raw-series": _seasonal(72, 0.0),
          "gorilla-series": _seasonal(90, 1.0)}


@pytest.fixture()
def root(tmp_path):
    directory = tmp_path / "store"
    shutil.copytree(DATA / "v1_store", directory)
    return directory


@pytest.fixture(scope="module")
def expected():
    return json.loads((DATA / "v1_store_expected.json").read_text())


def _manifest(root) -> dict:
    return json.loads((root / "manifest.json").read_text())


def _rewrite(root, manifest: dict) -> None:
    (root / "manifest.json").write_text(json.dumps(manifest, default=float))


class TestV1RoundTrip:
    def test_fixture_is_a_v1_manifest(self, root, expected):
        manifest = _manifest(root)
        assert manifest["format"] == "repro.timeseries-store"
        assert manifest["version"] == 1
        assert set(manifest["series"]) == set(expected)

    def test_open_migrates_and_preserves_reconstructions(self, root, expected):
        with DurableStore.open(root) as store:
            assert store.recovery.migrated_from_v1
            assert store.list_series() == sorted(expected)
            for name, record in expected.items():
                assert np.array_equal(store.read(name), record["values"])
                assert store.length(name) == record["points"]
        # The rewrite is the v2 layout now: segment files exist and the
        # next open is an ordinary clean recovery.
        assert list(root.glob("segments/*/*/seg-*.json"))
        assert b"\n#crc32c=" in (root / "manifest.json").read_bytes()
        with DurableStore.open(root) as again:
            assert again.recovery.clean
            assert not again.recovery.migrated_from_v1
            for name, record in expected.items():
                assert np.array_equal(again.read(name), record["values"])

    def test_lossless_series_reconstruct_their_inputs(self, root):
        with DurableStore.open(root) as store:
            for name in ("raw-series", "gorilla-series"):
                assert np.array_equal(store.read(name), INPUTS[name])

    def test_footprint_and_metadata_survive(self, root, expected):
        with DurableStore.open(root) as store:
            for name, record in expected.items():
                info = store.info(name)
                assert info.codec == record["codec"]
                assert info.points == record["points"]
                assert info.segments == record["segments"]
                assert info.buffered_points == record["buffered_points"]
                assert info.encoded_bits == record["encoded_bits"]
                assert info.metadata == record["metadata"]

    def test_migrated_store_accepts_new_appends(self, root):
        extra = _seasonal(96, 0.5)
        with DurableStore.open(root) as store:
            store.append("cameo-series", extra)
            store.flush("cameo-series")
            assert store.length("cameo-series") == 120 + extra.size
        with DurableStore.open(root) as again:
            # The bound still applies to newly sealed segments: the
            # reconstruction of the appended range stays close to it.
            tail = again.read("cameo-series", 120)
            nrmse = np.sqrt(np.mean((tail - extra) ** 2)) / np.ptp(extra)
            assert nrmse < 0.2

    def test_queries_work_on_the_memory_view(self, root):
        with DurableStore.open(root) as store:
            engine = QueryEngine(store.memory)
            result = engine.aggregate("raw-series", "mean")
            assert result.value == pytest.approx(np.mean(INPUTS["raw-series"]))
            # Summaries were carried over, so fully covered segments need
            # no decoding.
            covered = engine.aggregate("raw-series", "sum", start=0, stop=32)
            assert covered.segments_decoded == 0

    def test_empty_v1_store_migrates(self, tmp_path):
        root = tmp_path / "empty"
        root.mkdir()
        (root / "manifest.json").write_text(json.dumps(
            {"format": "repro.timeseries-store", "version": 1,
             "default_segment_size": 1024, "series": {}}))
        with DurableStore.open(root) as migrated:
            assert migrated.recovery.migrated_from_v1
            assert migrated.list_series() == []
        with DurableStore.open(root) as again:
            assert again.recovery.clean
            again.create_series("late", codec="raw")
            again.append("late", [1.0, 2.0, 3.0])


class TestV1ManifestValidation:
    """Every rejected v1 manifest raises StorageError with a clear message."""

    def _fails(self, root, pattern):
        with pytest.raises(StorageError, match=pattern):
            DurableStore.open(root)

    def test_non_contiguous_segment_starts_rejected(self, root):
        manifest = _manifest(root)
        manifest["series"]["cameo-series"]["segments"][1]["start"] = 999
        _rewrite(root, manifest)
        self._fails(root, r"series 'cameo-series': segment 1 starts at 999, "
                          r"expected 32 \(segments must be contiguous from 0\)")

    def test_reordered_segments_rejected(self, root):
        manifest = _manifest(root)
        manifest["series"]["cameo-series"]["segments"].reverse()
        _rewrite(root, manifest)
        self._fails(root, r"series 'cameo-series': segment 0 starts at 96, "
                          r"expected 0 \(segments must be contiguous from 0\)")

    def test_summary_count_disagreement_rejected(self, root):
        manifest = _manifest(root)
        manifest["series"]["cameo-series"]["segments"][0]["summary"]["count"] = 7
        _rewrite(root, manifest)
        self._fails(root, "series 'cameo-series': segment 0 length 32 "
                          "disagrees with its summary count 7")

    def test_non_positive_segment_length_rejected(self, root):
        manifest = _manifest(root)
        segment = manifest["series"]["raw-series"]["segments"][0]
        segment["length"] = 0
        _rewrite(root, manifest)
        self._fails(root, "segment must contain at least one value")

    def test_overlong_buffer_rejected(self, root):
        manifest = _manifest(root)
        entry = manifest["series"]["raw-series"]
        entry["buffer"] = [0.0] * (entry["segment_size"] + 1)
        _rewrite(root, manifest)
        self._fails(root, "series 'raw-series': buffered tail holds 33 values "
                          "but the segment size is 32; a buffer that long "
                          "should have been sealed")

    def test_malformed_series_entry_names_the_series(self, root):
        manifest = _manifest(root)
        del manifest["series"]["gorilla-series"]["codec"]
        _rewrite(root, manifest)
        self._fails(root, r"manifest\.json: series 'gorilla-series' has a "
                          r"malformed manifest entry: KeyError\('codec'\)")

    def test_series_entry_must_be_object(self, root):
        manifest = _manifest(root)
        manifest["series"]["gorilla-series"] = ["not", "an", "object"]
        _rewrite(root, manifest)
        self._fails(root, "series 'gorilla-series': manifest entry is not "
                          "an object")

    def test_series_catalog_must_be_object(self, root):
        manifest = _manifest(root)
        manifest["series"] = ["not", "a", "mapping"]
        _rewrite(root, manifest)
        self._fails(root, r"manifest\.json: manifest series catalog is not "
                          r"an object")

    def test_truncated_manifest_raises_clearly(self, root):
        path = root / "manifest.json"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        self._fails(root, "cannot read store manifest at .*: truncated-footer"
                          ": no checksum footer found; fallback "
                          "manifest.json.prev: missing")

    def test_foreign_json_rejected(self, root):
        (root / "manifest.json").write_text(
            json.dumps({"format": "something-else"}))
        self._fails(root, "cannot read store manifest at .*: truncated-footer")

    def test_newer_footerless_version_rejected(self, root):
        manifest = _manifest(root)
        manifest["version"] = 99
        _rewrite(root, manifest)
        self._fails(root, "cannot read store manifest at .*: truncated-footer")

    def test_missing_manifest(self, tmp_path):
        self._fails(tmp_path / "nothing-here", "no store manifest in")
