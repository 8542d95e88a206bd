"""Parallel view materialization (process-pool registration fast path).

Registering 1000+ views dominates benchmark setup: each view's pattern
is evaluated against the whole base tree and every answer subtree is
serialized.  That work is embarrassingly parallel and pure, so
``MaterializedViewSystem.register_views`` can farm it out to a
``concurrent.futures`` process pool.

The payload shipped to each worker is small and picklable:

* once per worker (pool initializer): the base document as one
  fragment-encoded byte string plus its pickled schema.  The worker
  rebuilds the tree and stamps the parent's codes back onto it
  (:func:`repro.xmltree.builder.stamp_codes`): Dewey assignment is
  deterministic in sibling order, and the encoding carries the
  components it cannot derive — those of siblings after a deleted one
  — so worker-side codes are identical to the parent's (a test asserts
  serial/parallel equivalence end to end, after a delete too);
* per batch: ``(view_id, xpath)`` string pairs and the fragment cap.

Each worker returns, per view, the already-encoded fragment payloads in
code order (each ``encode_dewey(code) + encode_fragment(subtree)``,
exactly what :meth:`FragmentStore.materialize` would have produced), or
``None`` when the view overflows the cap — bounding the bytes sent back
over IPC at roughly the cap per view.  The parent only stores bytes and
updates VFILTER; it never re-evaluates.

When the pool cannot be created or dies (sandboxes without fork/spawn
support, single-core boxes, pickling regressions), callers fall back to
the serial path — the pool work is pure, so nothing has been registered
yet and the fallback starts from a clean slate.
"""

from __future__ import annotations

import os
import pickle

from ..matching.evaluate import evaluate
from ..storage.serialize import decode_fragment, encode_dewey, encode_fragment
from ..xmltree.builder import EncodedDocument, stamp_codes
from ..xmltree.schema import DocumentSchema
from ..xmltree.tree import XMLTree
from ..xpath.parser import parse_xpath

__all__ = [
    "MIN_PARALLEL_VIEWS",
    "default_workers",
    "document_payload",
    "evaluate_views_parallel",
]

#: Below this many views the pool's startup cost wins; stay serial.
MIN_PARALLEL_VIEWS = 16

#: Per-worker document handle, set by the pool initializer.
_WORKER_DOCUMENT: EncodedDocument | None = None


def default_workers() -> int:
    """Worker count honoring ``REPRO_REGISTER_WORKERS`` (0 = serial)."""
    env = os.environ.get("REPRO_REGISTER_WORKERS")
    if env is not None:
        try:
            return max(0, int(env))
        except ValueError:
            return 0
    return os.cpu_count() or 1


def document_payload(document: EncodedDocument) -> tuple[bytes, bytes]:
    """Serialize a document for shipping to pool workers."""
    return (
        encode_fragment(document.tree.root, document.schema),
        pickle.dumps(document.schema, protocol=pickle.HIGHEST_PROTOCOL),
    )


def _init_worker(tree_payload: bytes, schema_blob: bytes) -> None:
    global _WORKER_DOCUMENT
    root, components, _ = decode_fragment(tree_payload)
    schema: DocumentSchema = pickle.loads(schema_blob)
    stamp_codes(root, (0,), schema, components)
    _WORKER_DOCUMENT = EncodedDocument(XMLTree(root), schema)


def _materialize_batch(
    batch: list[tuple[str, str]], cap_bytes: int
) -> list[tuple[str, list[bytes] | None]]:
    """Evaluate a batch of views in the worker; returns encoded
    fragment payloads in code order, or None for a capped view."""
    assert _WORKER_DOCUMENT is not None, "pool initializer did not run"
    schema = _WORKER_DOCUMENT.schema
    results: list[tuple[str, list[bytes] | None]] = []
    for view_id, expression in batch:
        pattern = parse_xpath(expression)
        answers = evaluate(pattern, _WORKER_DOCUMENT.tree)
        entries = sorted(
            (node.dewey, node) for node in answers if node.dewey is not None
        )
        payloads: list[bytes] | None = []
        total = 0
        for code, node in entries:
            payload = encode_dewey(code) + encode_fragment(node, schema)
            total += len(payload)
            if total > cap_bytes:
                payloads = None
                break
            payloads.append(payload)
        results.append((view_id, payloads))
    return results


def evaluate_views_parallel(
    document: EncodedDocument,
    expressions: list[tuple[str, str]],
    cap_bytes: int,
    workers: int,
) -> dict[str, list[bytes] | None]:
    """Evaluate + encode all views in a process pool.

    Returns ``{view_id: payloads_or_None}`` for every input view, in no
    particular order.  Raises on any pool failure; callers catch and
    fall back to the serial path (no side effects have happened).
    """
    from concurrent.futures import ProcessPoolExecutor

    tree_payload, schema_blob = document_payload(document)
    # Batches ~4× the worker count balance scheduling against IPC.
    batch_count = max(1, min(len(expressions), workers * 4))
    step = (len(expressions) + batch_count - 1) // batch_count
    batches = [
        expressions[start : start + step]
        for start in range(0, len(expressions), step)
    ]
    results: dict[str, list[bytes] | None] = {}
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(tree_payload, schema_blob),
    ) as pool:
        futures = [
            pool.submit(_materialize_batch, batch, cap_bytes)
            for batch in batches
        ]
        for future in futures:
            for view_id, payloads in future.result():
                results[view_id] = payloads
    return results
