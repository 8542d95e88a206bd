"""Tests for the fragment store's warm-read cache and related behavior."""

from repro.matching import evaluate
from repro.storage import FragmentStore, KVStore
from repro.xmltree import build_tree, encode_tree


def _materialized_store(spec, view_expr):
    from repro.core import View

    doc = encode_tree(build_tree(spec))
    store = FragmentStore()
    view = View.from_xpath("V", view_expr)
    answers = evaluate(view.pattern, doc.tree)
    store.materialize("V", [(n.dewey, n) for n in answers], doc.schema)
    return doc, store


class TestWarmCache:
    def test_second_read_returns_same_objects(self):
        _doc, store = _materialized_store(
            ("r", [("a", ["b"]), ("a", ["b"])]), "//a"
        )
        first = store.fragments("V")
        second = store.fragments("V")
        assert first is second

    def test_cache_invalidated_on_drop(self):
        _doc, store = _materialized_store(("r", [("a", ["b"])]), "//a")
        store.fragments("V")
        store.drop("V")
        assert store.fragments("V") == []

    def test_cached_roots_keep_reencoded_codes(self):
        """rewrite() stamps Dewey codes onto cached fragment roots; a
        later read must still be consistent (idempotent re-encode)."""
        from repro import MaterializedViewSystem

        doc = encode_tree(build_tree(
            ("r", [("s", ["t", ("p", ["q"])]), ("s", ["t", "p"])])
        ))
        system = MaterializedViewSystem(doc)
        system.register_view("V", "//s[t]/p")
        first = system.answer("//s[t]/p")
        second = system.answer("//s[t]/p[q]")
        third = system.answer("//s[t]/p")
        assert first.codes == third.codes
        assert second.codes == system.direct_codes("//s[t]/p[q]")

    def test_cache_not_shared_between_views(self):
        from repro.core import View

        doc = encode_tree(build_tree(("r", [("a", ["b"]), ("c", ["d"])])))
        store = FragmentStore()
        for view_id, expr in (("VA", "//a"), ("VC", "//c")):
            view = View.from_xpath(view_id, expr)
            answers = evaluate(view.pattern, doc.tree)
            store.materialize(
                view_id, [(n.dewey, n) for n in answers], doc.schema
            )
        assert store.fragments("VA")[0].root.label == "a"
        assert store.fragments("VC")[0].root.label == "c"

    def test_reopen_from_disk_bypasses_stale_cache(self, tmp_path):
        path = str(tmp_path / "frags.db")
        from repro.core import View

        doc = encode_tree(build_tree(("r", [("a", ["b"])])))
        with KVStore(path) as kv:
            store = FragmentStore(kv)
            view = View.from_xpath("V", "//a")
            answers = evaluate(view.pattern, doc.tree)
            store.materialize("V", [(n.dewey, n) for n in answers], doc.schema)
            store.fragments("V")  # warm
        with KVStore(path) as kv:
            fresh = FragmentStore(kv)
            fragments = fresh.fragments("V")
            assert len(fragments) == 1
            assert fragments[0].root.label == "a"


class TestRacingDecoders:
    """Scheduler threads share the cached Fragment objects, so two of
    them can decode one cold fragment at once.  Each must get a label
    index over the tree it stamped, with the document's codes — also
    after a delete left a gap that sibling order cannot derive."""

    @staticmethod
    def _gapped_fragment():
        from repro.storage import Fragment

        doc = encode_tree(build_tree(
            ("r", [("a", ["x", "y", ("b", ["z"]), "x", "y"])])
        ))
        a = doc.tree.root.children[0]
        a.children[1].detach()  # the later siblings keep their codes
        store = FragmentStore()
        store.materialize("V", [(a.dewey, a)], doc.schema)
        stored = store.fragments("V")[0]
        expected = [n.dewey for n in a.iter_subtree()]
        return doc, expected, lambda: Fragment(stored.code, stored.payload)

    @staticmethod
    def _codes(index):
        nodes = list(index.root.iter_subtree())
        assert index.nodes == nodes  # the index is over that very tree
        return [n.dewey for n in nodes]

    def test_decoder_finishing_inside_another_decode(self, monkeypatch):
        import repro.storage.fragments as fragments_module

        doc, expected, fresh = self._gapped_fragment()
        fragment = fresh()
        original = fragments_module.decode_fragment
        inner: list = []

        def decode_while_another_finishes(buffer, offset):
            decoded = original(buffer, offset)
            if not inner:  # the second reader runs between this
                inner.append(None)  # decode and its publication
                inner.append(self._codes(fragment.coded_index(doc.schema)))
            return decoded

        monkeypatch.setattr(
            fragments_module, "decode_fragment", decode_while_another_finishes
        )
        outer = self._codes(fragment.coded_index(doc.schema))
        assert inner[1] == expected
        assert outer == expected
        assert self._codes(fragment.coded_index(doc.schema)) == expected
        assert self._codes(fragment.subtree_index()) == expected

    def test_two_threads_decode_one_fragment(self):
        import sys
        import threading

        doc, expected, fresh = self._gapped_fragment()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                fragment = fresh()
                barrier = threading.Barrier(2)
                seen: list = []

                def read():
                    barrier.wait()
                    seen.append(self._codes(fragment.coded_index(doc.schema)))

                threads = [threading.Thread(target=read) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert seen == [expected, expected]
                assert self._codes(fragment.coded_index(doc.schema)) == expected
        finally:
            sys.setswitchinterval(interval)
