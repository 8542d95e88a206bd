"""Tests for the storage substrate: serialization, KV store, fragments."""

import os
import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import StorageCorruptionError, StorageError
from repro.storage import (
    FragmentStore,
    KVStore,
    decode_dewey,
    decode_fragment,
    decode_text,
    decode_varint,
    encode_dewey,
    encode_fragment,
    encode_text,
    encode_varint,
)
from repro.xmltree import XMLNode, XMLTree, build_tree, encode_tree

from conftest import random_tree


def _round_trip(root):
    """Encode ``root``'s tree, serialize the subtree and decode it."""
    document = encode_tree(XMLTree(root))
    data = encode_fragment(root, document.schema)
    again, components, offset = decode_fragment(data)
    assert components == {}  # no deletes, so no stored component
    assert offset == len(data)
    return again


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**21, 2**40])
    def test_roundtrip(self, value):
        data = encode_varint(value)
        decoded, offset = decode_varint(data, 0)
        assert decoded == value
        assert offset == len(data)

    def test_rejects_negative(self):
        with pytest.raises(StorageError):
            encode_varint(-1)

    def test_truncated(self):
        with pytest.raises(StorageError):
            decode_varint(b"\x80", 0)

    @given(st.integers(0, 2**62))
    def test_roundtrip_property(self, value):
        decoded, _ = decode_varint(encode_varint(value), 0)
        assert decoded == value


class TestTextAndDewey:
    @given(st.text(max_size=60))
    def test_text_roundtrip(self, value):
        decoded, _ = decode_text(encode_text(value), 0)
        assert decoded == value

    @given(st.lists(st.integers(0, 10_000), min_size=0, max_size=10))
    def test_dewey_roundtrip(self, components):
        code = tuple(components)
        decoded, _ = decode_dewey(encode_dewey(code), 0)
        assert decoded == code

    def test_truncated_string(self):
        data = encode_text("hello")[:-2]
        with pytest.raises(StorageError):
            decode_text(data, 0)


class TestFragmentSerialization:
    def test_roundtrip_structure(self):
        tree = build_tree(("a", [("b", ["c", "d"]), "e"]))
        tree.root.attributes["id"] = "1"
        tree.root.children[1].text = "some text"
        again = _round_trip(tree.root)
        assert again.structurally_equal(tree.root)

    def test_roundtrip_preserves_sibling_order(self):
        root = XMLNode("r")
        for label in "cba":
            root.new_child(label)
        again = _round_trip(root)
        assert [child.label for child in again.children] == list("cba")

    @pytest.mark.parametrize("seed", range(6))
    def test_roundtrip_random_trees(self, seed):
        tree = random_tree(random.Random(seed), max_nodes=40)
        again = _round_trip(tree.root)
        assert again.structurally_equal(tree.root)

    def test_unicode_and_escaping(self):
        node = XMLNode("α", text="ünïcode ✓", attributes={"k": "v&<>'\""})
        again = _round_trip(node)
        assert again.structurally_equal(node)


class TestKVStore:
    def test_in_memory_basics(self):
        store = KVStore()
        assert store.in_memory
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        assert b"k" in store and b"missing" not in store
        assert len(store) == 1
        assert store.delete(b"k")
        assert not store.delete(b"k")
        assert store.get(b"k") is None

    def test_overwrite_updates_size(self):
        store = KVStore()
        store.put(b"k", b"1234")
        store.put(b"k", b"12")
        assert store.stored_bytes == len(b"k") + 2

    def test_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "db")
        with KVStore(path) as store:
            store.put(b"a", b"1")
            store.put(b"b", b"2")
            store.delete(b"a")
        with KVStore(path) as store:
            assert store.get(b"a") is None
            assert store.get(b"b") == b"2"
            assert len(store) == 1

    def test_recovery_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "db")
        with KVStore(path) as store:
            store.put(b"a", b"1")
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")  # torn partial record
        with KVStore(path) as store:
            assert store.get(b"a") == b"1"
            store.put(b"b", b"2")
        with KVStore(path) as store:
            assert store.get(b"b") == b"2"

    def test_corruption_detected(self, tmp_path):
        path = str(tmp_path / "db")
        with KVStore(path) as store:
            store.put(b"a", b"abcdefgh")
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0xFF  # flip a payload byte under the CRC
        open(path, "wb").write(bytes(data))
        with pytest.raises(StorageCorruptionError):
            KVStore(path)

    def test_compaction_reclaims_space(self, tmp_path):
        path = str(tmp_path / "db")
        with KVStore(path) as store:
            for round_ in range(20):
                store.put(b"k", f"value-{round_}".encode())
            before = store.file_bytes
            store.compact()
            after = store.file_bytes
            assert after < before
            assert store.get(b"k") == b"value-19"
        with KVStore(path) as store:
            assert store.get(b"k") == b"value-19"

    def test_failed_compaction_drops_index_of_old_log(
        self, tmp_path, monkeypatch
    ):
        # Regression (xmvrlint L7): compact() swaps in the rewritten log
        # before re-scanning it.  If the re-scan fails, the index and
        # length must not keep offsets into the old log — reads would
        # return bytes from the wrong records.
        path = str(tmp_path / "db")
        store = KVStore(path)
        store.put(b"gone", b"x" * 64)
        store.put(b"gone", b"y" * 8)
        store.put(b"kept", b"value")

        def corrupt(self):
            raise StorageCorruptionError("bad checksum at offset 0")

        monkeypatch.setattr(KVStore, "_recover", corrupt)
        with pytest.raises(StorageCorruptionError):
            store.compact()
        assert store.get(b"kept") is None
        assert len(store) == 0
        assert store.stored_bytes == 0
        assert store.file_bytes == 0
        store.close()
        monkeypatch.undo()
        with KVStore(path) as reopened:
            assert reopened.get(b"kept") == b"value"

    def test_scan_prefix(self):
        store = KVStore()
        store.put(b"x:1", b"a")
        store.put(b"x:2", b"b")
        store.put(b"y:1", b"c")
        found = dict(store.scan_prefix(b"x:"))
        assert found == {b"x:1": b"a", b"x:2": b"b"}

    @pytest.mark.parametrize("persistent", [False, True])
    def test_random_operations_match_dict(self, tmp_path, persistent):
        path = str(tmp_path / "db") if persistent else None
        rng = random.Random(11)
        store = KVStore(path)
        model: dict[bytes, bytes] = {}
        for _ in range(300):
            key = f"k{rng.randrange(20)}".encode()
            action = rng.random()
            if action < 0.6:
                value = os.urandom(rng.randrange(0, 30))
                store.put(key, value)
                model[key] = value
            elif action < 0.8:
                assert store.get(key) == model.get(key)
            else:
                assert store.delete(key) == (key in model)
                model.pop(key, None)
        assert {k: store.get(k) for k in model} == model
        assert len(store) == len(model)
        store.close()


class TestFragmentStore:
    def _entries(self, tree):
        doc = encode_tree(tree)
        return [(node.dewey, node) for node in tree.iter_nodes()
                if node.label == "b"], doc

    def test_materialize_and_read_back(self):
        tree = build_tree(("r", [("a", [("b", ["c"])]), ("b", ["d"])]))
        entries, doc = self._entries(tree)
        store = FragmentStore()
        assert store.materialize("v", entries, doc.schema)
        fragments = store.fragments("v")
        assert [f.code for f in fragments] == sorted(e[0] for e in entries)
        assert fragments[0].root.label == "b"
        assert store.fragment_count("v") == 2
        assert store.fragment_bytes("v") > 0
        assert store.is_materialized("v")

    def test_cap_marks_view_unusable(self):
        tree = build_tree(("r", [("b", ["c"] * 50)]))
        entries, doc = self._entries(tree)
        store = FragmentStore(cap_bytes=10)
        assert not store.materialize("big", entries, doc.schema)
        assert store.is_capped("big")
        assert not store.is_materialized("big")
        assert store.fragments("big") == []

    def test_duplicate_view_rejected(self):
        schema = encode_tree(build_tree(("r", []))).schema
        store = FragmentStore()
        store.materialize("v", [], schema)
        with pytest.raises(StorageError):
            store.materialize("v", [], schema)

    def test_drop(self):
        tree = build_tree(("r", [("b", ["c"])]))
        entries, doc = self._entries(tree)
        store = FragmentStore()
        store.materialize("v", entries, doc.schema)
        store.drop("v")
        assert store.fragments("v") == []
        assert store.view_ids() == []
        store.drop("v")  # idempotent

    def test_manifest_writers_evict_warm_cache(self):
        # White-box regression for the L15 gap: a manifest rewrite
        # (store or mark-capped) must drop the view's warm-cache entry,
        # not rely on every caller routing through drop() first.
        tree = build_tree(("r", [("b", ["c"])]))
        entries, doc = self._entries(tree)
        store = FragmentStore()
        sentinel = object()
        store._cache["v"] = [sentinel]
        store.materialize("v", entries, doc.schema)
        fragments = store.fragments("v")
        assert sentinel not in fragments
        assert [f.code for f in fragments] == [e[0] for e in entries]

        capped = FragmentStore(cap_bytes=1)
        capped._cache["big"] = [sentinel]
        assert not capped.materialize("big", entries, doc.schema)
        assert capped.fragments("big") == []

    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "frags")
        tree = build_tree(("r", [("b", ["c"]), ("b", [])]))
        entries, doc = self._entries(tree)
        with KVStore(path) as kv:
            store = FragmentStore(kv)
            store.materialize("v", entries, doc.schema)
        with KVStore(path) as kv:
            store = FragmentStore(kv)
            assert store.is_materialized("v")
            assert len(store.fragments("v")) == 2
            assert store.fragments("v")[0].root.label == "b"

    def test_codes_sorted(self):
        tree = build_tree(("r", [("b", []), ("a", [("b", [])])]))
        doc = encode_tree(tree)
        entries = [
            (node.dewey, node)
            for node in reversed(list(tree.iter_nodes()))
            if node.label == "b"
        ]
        store = FragmentStore()
        store.materialize("v", entries, doc.schema)
        codes = store.codes("v")
        assert codes == sorted(codes)


class TestKVStoreConcurrency:
    """The store serialises its append/put path: racing writers share
    one OS file handle (seek-to-end + write), so without the internal
    lock they could interleave and tear a record mid-log."""

    def test_concurrent_writers_never_tear_a_record(self, tmp_path):
        import threading

        path = str(tmp_path / "concurrent.kv")
        writers, per_writer = 8, 50
        with KVStore(path) as store:
            def writer(index):
                for serial in range(per_writer):
                    key = f"w{index}:{serial}".encode()
                    value = (f"payload-{index}-{serial}-".encode()
                             + bytes([index]) * (32 + serial))
                    store.put(key, value)
                    assert store.get(key) is not None

            pool = [threading.Thread(target=writer, args=(index,))
                    for index in range(writers)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            assert len(store) == writers * per_writer

        # Recovery replays the whole log: any torn or interleaved
        # record would raise StorageError/StorageCorruptionError here.
        with KVStore(path) as store:
            assert len(store) == writers * per_writer
            for index in range(writers):
                for serial in range(per_writer):
                    key = f"w{index}:{serial}".encode()
                    expected = (f"payload-{index}-{serial}-".encode()
                                + bytes([index]) * (32 + serial))
                    assert store.get(key) == expected

    def test_concurrent_readers_and_writers_round_trip(self, tmp_path):
        import threading

        path = str(tmp_path / "mixed.kv")
        stop = threading.Event()
        errors = []
        with KVStore(path) as store:
            store.put(b"hot", b"v0")

            def reader():
                try:
                    while not stop.is_set():
                        value = store.get(b"hot")
                        assert value is not None
                        assert value.startswith(b"v")
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            pool = [threading.Thread(target=reader) for _ in range(4)]
            for thread in pool:
                thread.start()
            for version in range(200):
                store.put(b"hot", f"v{version}".encode())
            stop.set()
            for thread in pool:
                thread.join()
        assert not errors, errors
