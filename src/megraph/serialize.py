"""JSON serialization for graphs, cospans, and e-graphs.

Graph documents carry ``vertices``, ``edges`` (id, label, sources, targets)
and ``parents`` (child, parent, component); children are written as ``"v3"``
or ``"e7"`` since vertex and edge ids live in separate spaces.  Cospan
documents add the four interface fields.  ``dumps_cospan`` numbers by
position, so its documents round-trip byte for byte.  E-graph documents
carry ``classes`` with their nodes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _str
from typing import Any, Iterable

from .core import EHypergraph
from .cospan import ExtendedCospan
from .egraph import EGraph, ENode


class SerializationError(Exception):
    pass


HIERARCHICAL = "#box"


def _parse_child(ref: str) -> tuple[str, int]:
    if not ref or ref[0] not in "ve" or not ref[1:].isdigit():
        raise SerializationError(f"bad child reference {ref!r}")
    return ref[0], int(ref[1:])


_JSON_TYPES = {list: "list", int: "integer", str: "string"}
_INT = frozenset({int})


def _typed(x: Any, kind: type, what: str) -> Any:
    """``x`` when it is a JSON value of ``kind``; ``true``, ``false`` and
    ``1.0`` are not integers."""
    if type(x) is not kind:
        raise SerializationError(f"{what} must be a JSON {_JSON_TYPES[kind]}, not {x!r:.40}")
    return x


def _ints(x: Any, what: str) -> list[int]:
    """``x`` when it is a JSON list of integers."""
    if type(x) is not list or not _INT.issuperset(map(type, x)):
        raise SerializationError(f"{what} must be a JSON list of integers, not {x!r:.40}")
    return x


def graph_from_doc(doc: dict[str, Any]) -> tuple[EHypergraph, dict[int, int]]:
    """The graph of a document, and the map from document vertex ids to
    graph vertex ids (interface fields refer to document ids).  Every list
    must be a JSON list, every id and component a JSON integer and every
    label a JSON string."""
    g = EHypergraph()
    try:
        vmap: dict[int, int] = {}
        for v in _ints(doc["vertices"], "vertices"):
            if v in vmap:
                raise SerializationError(f"duplicate vertex id {v}")
            vmap[v] = g.add_vertex()
        emap: dict[int, int] = {}
        for ed in _typed(doc["edges"], list, "edges"):
            eid, label = ed["id"], ed["label"]
            # Checked inline, as this loop runs once per edge; ``_typed`` raises.
            if type(eid) is not int or type(label) is not str:
                _typed(eid, int, "edge id")
                _typed(label, str, "edge label")
            if eid in emap:
                raise SerializationError(f"duplicate edge id {eid}")
            emap[eid] = g.add_edge(
                None if label == HIERARCHICAL else label,
                [vmap[v] for v in _ints(ed["sources"], "sources")],
                [vmap[v] for v in _ints(ed["targets"], "targets")],
            )
        for pd in _typed(doc.get("parents", []), list, "parents"):
            kind, i = _parse_child(str(pd["child"]))
            ids, nest, comps = (
                (vmap, g.vparent, g.vcomp) if kind == "v" else (emap, g.eparent, g.ecomp)
            )
            if ids[i] in nest:
                raise SerializationError(f"duplicate parent entry for {kind}{i}")
            nest[ids[i]] = emap[_typed(pd["parent"], int, "parent")]
            comps[ids[i]] = _typed(pd["component"], int, "component")
        return g, vmap
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed graph document: {exc}") from exc


def cospan_from_doc(doc: dict[str, Any]) -> ExtendedCospan:
    g, vmap = graph_from_doc(doc)
    try:
        return ExtendedCospan(
            g,
            tuple(vmap[v] for v in _ints(doc.get("int_in", []), "int_in")),
            tuple(vmap[v] for v in _ints(doc.get("int_out", []), "int_out")),
            tuple(_ints(doc.get("ext_in", []), "ext_in")),
            tuple(_ints(doc.get("ext_out", []), "ext_out")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed cospan document: {exc}") from exc


def _array(items: Iterable[str], indent: str) -> str:
    """A JSON array of encoded items, laid out as ``json.dumps(indent=2)``
    lays out an array that opens on a line indented by ``indent``."""
    inner = "\n" + indent + "  "
    body = ("," + inner).join(items)
    return "[" + inner + body + "\n" + indent + "]" if body else "[]"


_EDGE = ('{\n      "id": %d,\n      "label": %s,\n      "sources": %s,\n'
         '      "targets": %s\n    }')
_PARENT = '{\n      "child": "%s%s",\n      "parent": %s,\n      "component": %d\n    }'
_COSPAN = ('{\n  "vertices": %s,\n  "edges": %s,\n  "parents": %s,\n  "int_in": %s,\n'
           '  "int_out": %s,\n  "ext_in": %s,\n  "ext_out": %s\n}\n')


def dumps_cospan(c: ExtendedCospan) -> str:
    """The document of ``c``, byte for byte as ``json.dumps(doc, indent=2)``
    lays it out plus a newline, written straight from the carrier.

    Ids are positions in ``vertices`` and ``edges``.  Keys come in the order
    ``vertices``, ``edges`` (``id``, ``label``, ``sources``, ``targets``; a
    box is labelled ``"#box"``), ``parents``, ``int_in``, ``int_out``,
    ``ext_in``, ``ext_out``.  ``parents`` lists nested vertices, then nested
    edges, in carrier order, as ``child`` (``"v3"``, ``"e7"``), ``parent``
    and ``component``, skipping a parent that is not an edge of the carrier.
    Strings go through ``json``'s C encoder.  The test oracle
    ``dumps_cospan_oracle`` builds the same text through ``json.dumps``."""
    g = c.carrier
    vnum = {v: str(i) for i, v in enumerate(g.vertices)}
    enum = {e: str(i) for i, e in enumerate(g.edges)}
    label, source, target = g.label, g.source, g.target
    edges = [
        _EDGE % (i, _str(HIERARCHICAL if label[e] is None else label[e]),
                 _array([vnum[v] for v in source[e]], "      "),
                 _array([vnum[v] for v in target[e]], "      "))
        for i, e in enumerate(g.edges)
    ]
    parents = [
        _PARENT % (kind, num[x], enum[parent[x]], comp[x])
        for kind, xs, num, parent, comp in (("v", g.vertices, vnum, g.vparent, g.vcomp),
                                            ("e", g.edges, enum, g.eparent, g.ecomp))
        for x in xs if parent.get(x) in enum
    ]
    return _COSPAN % (
        _array(vnum.values(), "  "), _array(edges, "  "), _array(parents, "  "),
        _array([vnum[v] for v in c.int_in], "  "), _array([vnum[v] for v in c.int_out], "  "),
        _array(map(str, c.ext_in), "  "), _array(map(str, c.ext_out), "  "),
    )


def loads_cospan(text: str) -> ExtendedCospan:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SerializationError("top-level document must be an object")
    return cospan_from_doc(doc)


# ---------------------------------------------------------------------------
# E-graphs
# ---------------------------------------------------------------------------


def egraph_from_doc(doc: dict[str, Any]) -> EGraph:
    """The e-graph of a document; ``SerializationError`` when it is malformed
    (lists, ids and heads must be JSON lists, integers and strings) or breaks
    the e-graph invariants.

    The invariants are checked while the e-graph is built, as the hashcons
    is filled.  Every listed class id is its own union-find root and every
    child is checked to be listed, so every node is already canonical, and
    every node goes into the hashcons.  ``EGraph.check_invariants`` can then
    only find a node that two classes hold: it reports congruent nodes, and
    the hashcons naming the wrong class for one of them.  So rejecting a
    node that the hashcons already holds under another class rejects
    exactly the documents that ``check_invariants`` would."""
    eg = EGraph()
    try:
        classes = _typed(doc["classes"], list, "classes")
        for cd in classes:
            cid = _typed(cd["id"], int, "class id")
            if cid in eg.classes:
                raise SerializationError(f"duplicate class id {cid}")
            eg._uf[cid] = cid
            eg.classes[cid] = set()
            eg._next = max(eg._next, cid + 1)
        for cd in classes:
            cid = cd["id"]
            if not _typed(cd["nodes"], list, "nodes"):
                raise SerializationError(f"class {cid} has no nodes")
            for nd in cd["nodes"]:
                n = ENode(_typed(nd["head"], str, "head"),
                          tuple(_ints(nd["children"], "children")))
                unknown = next((ch for ch in n.children if ch not in eg.classes), None)
                if unknown is not None:
                    raise SerializationError(
                        f"node {n!r} of class {cid} names unknown class {unknown}"
                    )
                other = eg.hashcons.setdefault(n, cid)
                if other != cid:
                    raise SerializationError(
                        f"e-graph document violates invariants: congruent nodes {n!r} "
                        f"in distinct classes {other} and {cid}"
                    )
                eg.classes[cid].add(n)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed e-graph document: {exc}") from exc
    return eg


def loads_egraph(text: str) -> EGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SerializationError("top-level document must be an object")
    return egraph_from_doc(doc)


_NODE = '{\n          "head": %s,\n          "children": %s\n        }'
_CLASS = '{\n      "id": %d,\n      "nodes": %s\n    }'


def dumps_egraph(eg: EGraph) -> str:
    """The document of ``eg``, byte for byte as ``json.dumps(doc, indent=2)``
    lays it out, plus a newline, written directly as ``dumps_cospan`` is.

    ``classes`` lists the classes in ``class_ids`` order, each as ``id`` and
    ``nodes``; a node is ``head`` and ``children``, in ``nodes`` order.  The
    test oracle ``dumps_egraph_oracle`` builds the same text through
    ``json.dumps``."""
    classes = [
        _CLASS % (c, _array([_NODE % (_str(n.head), _array(map(str, n.children), "          "))
                             for n in eg.nodes(c)], "      "))
        for c in eg.class_ids()
    ]
    return '{\n  "classes": %s\n}\n' % _array(classes, "  ")
