"""Fragment patching: splice a delta into stored view fragments.

The patcher rewrites a view's :class:`FragmentStore` entry without
re-evaluating the pattern over the whole document.  Three ingredients,
all keyed on packed Dewey byte order (which *is* document order):

* **range delete** — fragments whose packed code falls inside the
  deleted subtree's ``[low, high)`` range are dropped;
* **content re-encode** — fragments rooted at an ancestor-or-self of
  the edit anchor serialize bytes from inside the edited region, so
  their payloads are re-encoded from the live tree (their answer-set
  membership is unchanged — the resolver proved it);
* **splice insert** — for patchable patterns the view is evaluated only
  against the inserted subtree plus its ancestor chain, and the answers
  that land inside the subtree's packed range are encoded and merged.

Everything else reuses the stored payload bytes verbatim.  The merged
payload list is sorted by packed code before storing, which reproduces
exactly the code-ordered layout :meth:`FragmentStore.materialize`
produces — the ``XMVR_CHECK=1`` contract asserts byte-identity against
a fresh re-materialization after every patch.

Cap accounting matches ``materialize``: if the patched payloads exceed
``cap_bytes`` the view is marked capped and the caller evicts it from
the answerable pool.
"""

from __future__ import annotations

from ..errors import EncodingError
from ..matching.evaluate import evaluate
from ..storage.fragments import FragmentStore
from ..storage.serialize import encode_dewey, encode_fragment
from ..xmltree.builder import EncodedDocument
from ..xmltree.dewey import PackedCode, packed_is_prefix
from ..core.view import View
from .delta import SubtreeDelta

__all__ = ["FragmentPatcher"]


class FragmentPatcher:
    """Patch one view's fragments in place for one delta."""

    def __init__(self, fragments: FragmentStore, document: EncodedDocument) -> None:
        self.fragments = fragments
        self.document = document

    def patch(self, view: View, delta: SubtreeDelta, splice: bool) -> bool:
        """Apply ``delta`` to ``view``'s stored fragments.

        ``splice=True`` additionally evaluates the pattern against the
        edited subtree and merges new in-range answers (sound only for
        patchable patterns — the resolver decides).  Returns the same
        cap verdict as ``materialize``: False means the view no longer
        fits and must leave the answerable pool.
        """
        low, high = delta.packed_range()
        schema = self.document.schema
        merged: list[tuple[PackedCode, bytes]] = []
        for fragment in self.fragments.fragments(view.view_id):
            packed = fragment.packed
            if delta.operation == "delete" and low <= packed < high:
                continue
            if packed_is_prefix(packed, delta.anchor_packed):
                live = self.document.node_by_code(fragment.code)
                if live is None:
                    raise EncodingError(
                        f"fragment root {fragment.code} vanished during patch"
                    )
                merged.append(
                    (
                        packed,
                        encode_dewey(fragment.code)
                        + encode_fragment(live, schema),
                    )
                )
            else:
                merged.append((packed, fragment.payload))
        if splice and delta.operation == "insert":
            root = delta.subtree_root
            universe = list(root.iter_subtree()) + list(root.ancestors())
            for node in evaluate(view.pattern, self.document.tree, universe):
                packed_node = node.dewey_packed
                if node.dewey is None or packed_node is None:
                    continue
                if low <= packed_node < high:
                    merged.append(
                        (
                            packed_node,
                            encode_dewey(node.dewey)
                            + encode_fragment(node, schema),
                        )
                    )
        merged.sort(key=lambda item: item[0])
        return self.fragments.replace(
            view.view_id, [payload for _, payload in merged]
        )
