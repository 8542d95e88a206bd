"""Wire protocol: JSON request parsing, response encoding, error maps.

Kept separate from the HTTP server so the in-process load driver and
the tests can exercise exactly the encoding the server ships, without
sockets.  Status mapping:

========================================  ======
:class:`ProtocolError` (malformed body)   400
:class:`~repro.errors.XPathSyntaxError`   400
:class:`~repro.errors.PatternError`       400
duplicate view id (``DuplicateViewError``)  409
``ViewNotAnswerableError``                422
:class:`AdmissionRejectedError`           503 (+ ``Retry-After``)
:class:`DeadlineExceededError`            504 (+ ``Retry-After``)
edit-path ``ValueError``/``EncodingError``  400
any other :class:`~repro.errors.ReproError`  500
========================================  ======
"""

from __future__ import annotations

import json
from typing import Any

from ..core.system import AnswerOutcome
from ..errors import (
    DuplicateViewError,
    EncodingError,
    PatternError,
    ReproError,
    ViewNotAnswerableError,
    XPathSyntaxError,
)
from ..xmltree.dewey import DeweyCode, format_code, parse_code
from ..xmltree.tree import XMLNode
from .scheduler import AdmissionRejectedError, DeadlineExceededError

__all__ = [
    "ProtocolError",
    "encode_outcome",
    "error_payload",
    "parse_edit_request",
    "parse_query_request",
    "parse_register_request",
]

_STRATEGIES = ("HV", "MV", "MN", "CB")


class ProtocolError(ReproError):
    """A request the protocol layer rejects before touching the engine."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _parse_json_object(raw: bytes) -> dict[str, Any]:
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"request body is not JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    return payload


def _required_string(payload: dict[str, Any], field: str) -> str:
    value = payload.get(field)
    if not isinstance(value, str) or not value.strip():
        raise ProtocolError(f"field {field!r} must be a non-empty string")
    return value.strip()


def parse_query_request(raw: bytes) -> tuple[str, str, float | None]:
    """``{"query": ..., "strategy"?: ..., "timeout_ms"?: ...}`` →
    (query, strategy, timeout seconds or None)."""
    payload = _parse_json_object(raw)
    query = _required_string(payload, "query")
    strategy = payload.get("strategy", "HV")
    if strategy not in _STRATEGIES:
        raise ProtocolError(
            f"unknown strategy {strategy!r}; use one of {_STRATEGIES}"
        )
    timeout_ms = payload.get("timeout_ms")
    timeout: float | None = None
    if timeout_ms is not None:
        if not isinstance(timeout_ms, (int, float)) or timeout_ms <= 0:
            raise ProtocolError("timeout_ms must be a positive number")
        timeout = float(timeout_ms) / 1e3
    return query, strategy, timeout


def _parse_subtree(payload: Any, depth: int = 0) -> XMLNode:
    """Build an :class:`XMLNode` subtree from its JSON rendering:
    ``{"label": ..., "text"?: ..., "attributes"?: {...},
    "children"?: [...]}``."""
    if depth > 64:
        raise ProtocolError("subtree nesting exceeds 64 levels")
    if not isinstance(payload, dict):
        raise ProtocolError("subtree must be a JSON object")
    label = payload.get("label")
    if not isinstance(label, str) or not label:
        raise ProtocolError("subtree field 'label' must be a non-empty string")
    text = payload.get("text")
    if text is not None and not isinstance(text, str):
        raise ProtocolError("subtree field 'text' must be a string")
    attributes = payload.get("attributes")
    if attributes is not None:
        if not isinstance(attributes, dict) or not all(
            isinstance(key, str) and isinstance(value, str)
            for key, value in attributes.items()
        ):
            raise ProtocolError(
                "subtree field 'attributes' must map strings to strings"
            )
    node = XMLNode(label, text, attributes)
    children = payload.get("children", [])
    if not isinstance(children, list):
        raise ProtocolError("subtree field 'children' must be a list")
    for child in children:
        node.add_child(_parse_subtree(child, depth + 1))
    return node


def parse_edit_request(raw: bytes) -> tuple[str, DeweyCode, XMLNode | None]:
    """``{"op": "insert", "parent": <code>, "subtree": {...}}`` or
    ``{"op": "delete", "node": <code>}`` →
    (op, anchor code, subtree or None).

    Dewey codes use the dotted form ``/query`` answers already emit
    (e.g. ``"0.8.6"``).
    """
    payload = _parse_json_object(raw)
    op = payload.get("op")
    if op not in ("insert", "delete"):
        raise ProtocolError("field 'op' must be 'insert' or 'delete'")
    anchor_field = "parent" if op == "insert" else "node"
    try:
        code = parse_code(_required_string(payload, anchor_field))
    except EncodingError as error:
        raise ProtocolError(str(error)) from None
    if op == "delete":
        return op, code, None
    if "subtree" not in payload:
        raise ProtocolError("insert requests require a 'subtree' object")
    return op, code, _parse_subtree(payload["subtree"])


def parse_register_request(raw: bytes) -> tuple[str, str]:
    """``{"view_id": ..., "expression": ...}`` → (view_id, expression)."""
    payload = _parse_json_object(raw)
    return (
        _required_string(payload, "view_id"),
        _required_string(payload, "expression"),
    )


def encode_outcome(outcome: AnswerOutcome) -> dict[str, Any]:
    """JSON-safe rendering of an answer (codes as dotted strings)."""
    return {
        "codes": [format_code(code) for code in outcome.codes],
        "count": len(outcome.codes),
        "strategy": outcome.strategy,
        "views": outcome.view_ids,
        "plan_cache_hit": outcome.plan_cache_hit,
        "epoch": outcome.epoch_seq,
        "elapsed_ms": outcome.total_seconds * 1e3,
    }


def error_payload(
    error: BaseException,
) -> tuple[int, dict[str, Any], dict[str, str]]:
    """(HTTP status, JSON body, extra headers) for a failure."""
    headers: dict[str, str] = {}
    body: dict[str, Any] = {
        "error": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, ProtocolError):
        status = error.status
    elif isinstance(error, (XPathSyntaxError, PatternError)):
        status = 400
    elif isinstance(error, ViewNotAnswerableError):
        status = 422
        body["uncovered"] = sorted(
            str(obligation) for obligation in error.uncovered
        )
    elif isinstance(error, AdmissionRejectedError):
        status = 503
        headers["Retry-After"] = f"{error.retry_after:.3f}"
        body["retry_after"] = error.retry_after
    elif isinstance(error, DeadlineExceededError):
        status = 504
        retry_after = max(error.retry_after, 0.01)
        headers["Retry-After"] = f"{retry_after:.3f}"
        body["retry_after"] = retry_after
    elif isinstance(error, DuplicateViewError):
        status = 409
    elif isinstance(error, (ValueError, EncodingError)):
        # Edit-path caller errors: unknown Dewey code, root deletion,
        # already-attached subtree.
        status = 400
    else:
        status = 500
    return status, body, headers
