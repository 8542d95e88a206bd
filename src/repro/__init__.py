"""``repro`` — Multiple Materialized View Selection for XPath Query
Rewriting (ICDE 2008), reproduced as a complete Python library.

Quickstart::

    from repro import MaterializedViewSystem, encode_tree, parse_xml

    doc = encode_tree(parse_xml(xml_text))
    system = MaterializedViewSystem(doc)
    system.register_view("V1", "s[t]/p")
    system.register_view("V4", "s[p]/f")
    outcome = system.answer("s[f//i][t]/p")   # heuristic HV strategy
    print(outcome.view_ids, outcome.codes)

See DESIGN.md for the architecture and EXPERIMENTS.md for the
reproduction of the paper's evaluation.
"""

from .core import (
    AnswerOutcome,
    MaterializedViewSystem,
    Selection,
    VFilter,
    View,
    coverage_units,
    covers_query,
    leaf_cover_labels,
    obligations_of,
    select_heuristic,
    select_minimum,
)
from .delta import DocumentEditor, MaintenanceReport
from .errors import (
    DuplicateViewError,
    EncodingError,
    PatternError,
    ReproError,
    RewritingError,
    SchemaError,
    StorageCorruptionError,
    StorageError,
    ViewNotAnswerableError,
    XMLParseError,
    XPathSyntaxError,
)
from .xmltree import (
    DocumentSchema,
    EncodedDocument,
    FiniteStateTransducer,
    XMLNode,
    XMLTree,
    build_tree,
    encode_tree,
    parse_xml,
    parse_xml_file,
    serialize,
)
from .xpath import (
    Axis,
    PathPattern,
    TreePattern,
    decompose,
    normalize,
    parse_xpath,
)

__version__ = "1.0.0"

__all__ = [
    "AnswerOutcome",
    "Axis",
    "DocumentEditor",
    "DocumentSchema",
    "EncodedDocument",
    "DuplicateViewError",
    "EncodingError",
    "MaintenanceReport",
    "FiniteStateTransducer",
    "MaterializedViewSystem",
    "PathPattern",
    "PatternError",
    "ReproError",
    "RewritingError",
    "SchemaError",
    "Selection",
    "StorageCorruptionError",
    "StorageError",
    "TreePattern",
    "VFilter",
    "View",
    "ViewNotAnswerableError",
    "XMLNode",
    "XMLParseError",
    "XMLTree",
    "XPathSyntaxError",
    "build_tree",
    "coverage_units",
    "covers_query",
    "decompose",
    "encode_tree",
    "leaf_cover_labels",
    "normalize",
    "obligations_of",
    "parse_xml",
    "parse_xml_file",
    "parse_xpath",
    "select_heuristic",
    "select_minimum",
    "serialize",
    "__version__",
]
