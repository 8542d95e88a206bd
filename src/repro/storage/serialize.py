"""Compact binary serialization for storage records.

The paper persists VFILTER in Berkeley DB and view fragments in Berkeley
DB XML; this module provides the equivalent wire formats for our
embedded store:

* varint-encoded unsigned integers (LEB128),
* length-prefixed UTF-8 strings,
* extended Dewey codes (varint count + varint components),
* XML subtrees (preorder stream with child counts; a node carries its
  extended Dewey component only when sibling order cannot derive it).

All decoders take ``(buffer, offset)`` and return ``(value,
new_offset)`` so records can be composed without intermediate copies.
"""

from __future__ import annotations

from ..errors import StorageError
from ..xmltree.dewey import DeweyCode
from ..xmltree.schema import DocumentSchema
from ..xmltree.tree import XMLNode

#: The one-byte varints, 0-127 (counts and flags are nearly always one).
_ONE_BYTE = tuple(bytes((value,)) for value in range(0x80))

__all__ = [
    "encode_varint",
    "decode_varint",
    "encode_text",
    "decode_text",
    "encode_dewey",
    "decode_dewey",
    "encode_fragment",
    "decode_fragment",
]


def encode_varint(value: int) -> bytes:
    """LEB128-encode a non-negative integer."""
    if value < 0:
        raise StorageError("varint cannot encode negative values")
    if value < 0x80:
        return _ONE_BYTE[value]
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(buffer: bytes, offset: int) -> tuple[int, int]:
    """Decode a LEB128 integer; returns ``(value, new_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(buffer):
            raise StorageError("truncated varint")
        byte = buffer[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise StorageError("varint too long")


def encode_text(value: str) -> bytes:
    raw = value.encode("utf-8")
    return encode_varint(len(raw)) + raw


def decode_text(buffer: bytes, offset: int) -> tuple[str, int]:
    length, offset = decode_varint(buffer, offset)
    end = offset + length
    if end > len(buffer):
        raise StorageError("truncated string")
    return buffer[offset:end].decode("utf-8"), end


def encode_dewey(code: DeweyCode) -> bytes:
    parts = [encode_varint(len(code))]
    parts.extend(encode_varint(component) for component in code)
    return b"".join(parts)


def decode_dewey(buffer: bytes, offset: int) -> tuple[DeweyCode, int]:
    count, offset = decode_varint(buffer, offset)
    components: list[int] = []
    for _ in range(count):
        component, offset = decode_varint(buffer, offset)
        components.append(component)
    return tuple(components), offset


#: Bits of a node's flags varint in the fragment encoding.
_HAS_TEXT = 1
_HAS_COMPONENT = 2


def encode_fragment(root: XMLNode, schema: DocumentSchema) -> bytes:
    """Serialize a subtree: preorder, each node as
    ``label, flags, text?, component?, attrs, child-count``.

    Extended Dewey assignment derives a child's code from its previous
    sibling's, so a decoder rebuilds every code from the root's alone
    (:func:`repro.xmltree.builder.stamp_codes`) — unless a sibling was
    deleted: deletes do not renumber, so the next sibling keeps a
    component the rule would not give it.  Such a node carries its
    component explicitly, so a subtree without gaps stores no
    component at all.  Every node must carry its code, under the
    document ``schema``.
    """
    parts: list[bytes] = []
    explicit: set[XMLNode] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        text = node.text
        flags = _HAS_TEXT if text is not None else 0
        if explicit and node in explicit:
            flags |= _HAS_COMPONENT
        parts.append(encode_text(node.label))
        parts.append(_ONE_BYTE[flags])
        if text is not None:
            parts.append(encode_text(text))
        if flags & _HAS_COMPONENT:
            assert node.dewey is not None
            parts.append(encode_varint(node.dewey[-1]))
        parts.append(encode_varint(len(node.attributes)))
        for name, value in node.attributes.items():
            parts.append(encode_text(name))
            parts.append(encode_text(value))
        children = node.children
        parts.append(encode_varint(len(children)))
        if children:
            _mark_gaps(node, schema, explicit)
            stack.extend(reversed(children))
    return b"".join(parts)


def _mark_gaps(
    node: XMLNode, schema: DocumentSchema, explicit: set[XMLNode]
) -> None:
    """Add to ``explicit`` each child whose component is not the one
    derived from its previous sibling's.

    Every component a schema assigns is congruent to its label's
    residue modulo the parent's fanout ``k``, so the derived one — the
    smallest such value above the previous sibling's — equals the
    actual one exactly when the two siblings are at most ``k`` apart.
    """
    fanout = schema.fanout(node.label)
    previous = -1
    for child in node.children:
        assert child.dewey is not None
        component = child.dewey[-1]
        if component - previous > fanout:
            explicit.add(child)
        previous = component


def decode_fragment(
    buffer: bytes, offset: int = 0
) -> tuple[XMLNode, dict[XMLNode, int], int]:
    """Inverse of :func:`encode_fragment`; returns ``(root, components,
    new_offset)``.

    Nodes are decoded without codes; ``components`` maps each node that
    carries an explicit Dewey component to it (empty when none does) —
    pass both to :func:`repro.xmltree.builder.stamp_codes`."""
    components: dict[XMLNode, int] = {}

    def read_node(offset: int) -> tuple[XMLNode, int, int]:
        label, offset = decode_text(buffer, offset)
        flags, offset = decode_varint(buffer, offset)
        text: str | None = None
        if flags & _HAS_TEXT:
            text, offset = decode_text(buffer, offset)
        component: int | None = None
        if flags & _HAS_COMPONENT:
            component, offset = decode_varint(buffer, offset)
        attr_count, offset = decode_varint(buffer, offset)
        attributes: dict[str, str] = {}
        for _ in range(attr_count):
            name, offset = decode_text(buffer, offset)
            value, offset = decode_text(buffer, offset)
            attributes[name] = value
        child_count, offset = decode_varint(buffer, offset)
        node = XMLNode(label, text=text, attributes=attributes)
        if component is not None:
            components[node] = component
        return node, child_count, offset

    root, root_children, offset = read_node(offset)
    # Explicit stack of (node, remaining children) to avoid recursion.
    stack: list[tuple[XMLNode, int]] = [(root, root_children)]
    while stack:
        parent, remaining = stack[-1]
        if remaining == 0:
            stack.pop()
            continue
        stack[-1] = (parent, remaining - 1)
        child, grandchildren, offset = read_node(offset)
        parent.add_child(child)
        if grandchildren:
            stack.append((child, grandchildren))
    return root, components, offset
