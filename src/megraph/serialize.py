"""JSON serialization for graphs, cospans, and e-graphs.

Graph documents carry ``vertices``, ``edges`` (id, label, sources, targets)
and ``parents`` (child, parent, component); children are written as ``"v3"``
or ``"e7"`` since vertex and edge ids live in separate spaces.  Cospan
documents add the four interface fields.  Round-trips are exact after
canonical renumbering.  E-graph documents carry ``classes`` with their nodes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _str
from typing import Any, Iterable

from .core import EHypergraph, copy_into
from .cospan import ExtendedCospan
from .egraph import EGraph, ENode


class SerializationError(Exception):
    pass


HIERARCHICAL = "#box"


def _child_ref(kind: str, i: int) -> str:
    return f"{kind}{i}"


def _parse_child(ref: str) -> tuple[str, int]:
    if not ref or ref[0] not in "ve" or not ref[1:].isdigit():
        raise SerializationError(f"bad child reference {ref!r}")
    return ref[0], int(ref[1:])


def graph_to_doc(g: EHypergraph) -> dict[str, Any]:
    parents = []
    for v in g.vertices:
        if v in g.vparent:
            parents.append(
                {"child": _child_ref("v", v), "parent": g.vparent[v],
                 "component": g.vcomp[v]}
            )
    for e in g.edges:
        if e in g.eparent:
            parents.append(
                {"child": _child_ref("e", e), "parent": g.eparent[e],
                 "component": g.ecomp[e]}
            )
    return {
        "vertices": list(g.vertices),
        "edges": [
            {
                "id": e,
                "label": HIERARCHICAL if g.label[e] is None else g.label[e],
                "sources": list(g.source[e]),
                "targets": list(g.target[e]),
            }
            for e in g.edges
        ],
        "parents": parents,
    }


def graph_from_doc(doc: dict[str, Any]) -> tuple[EHypergraph, dict[int, int]]:
    """The graph of a document, and the map from document vertex ids to
    graph vertex ids (interface fields refer to document ids)."""
    g = EHypergraph()
    try:
        vmap: dict[int, int] = {}
        for v in doc["vertices"]:
            if int(v) in vmap:
                raise SerializationError(f"duplicate vertex id {v}")
            vmap[int(v)] = g.add_vertex()
        emap: dict[int, int] = {}
        for ed in doc["edges"]:
            if int(ed["id"]) in emap:
                raise SerializationError(f"duplicate edge id {ed['id']}")
            label = ed["label"]
            emap[int(ed["id"])] = g.add_edge(
                None if label == HIERARCHICAL else str(label),
                [vmap[int(v)] for v in ed["sources"]],
                [vmap[int(v)] for v in ed["targets"]],
            )
        for pd in doc.get("parents", []):
            kind, i = _parse_child(str(pd["child"]))
            ids, nest, comps = (
                (vmap, g.vparent, g.vcomp) if kind == "v" else (emap, g.eparent, g.ecomp)
            )
            if ids[i] in nest:
                raise SerializationError(f"duplicate parent entry for {kind}{i}")
            nest[ids[i]] = emap[int(pd["parent"])]
            comps[ids[i]] = int(pd["component"])
        return g, vmap
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed graph document: {exc}") from exc


def cospan_to_doc(c: ExtendedCospan) -> dict[str, Any]:
    doc = graph_to_doc(c.carrier)
    doc["int_in"] = list(c.int_in)
    doc["int_out"] = list(c.int_out)
    doc["ext_in"] = list(c.ext_in)
    doc["ext_out"] = list(c.ext_out)
    return doc


def cospan_from_doc(doc: dict[str, Any]) -> ExtendedCospan:
    g, vmap = graph_from_doc(doc)
    try:
        return ExtendedCospan(
            g,
            tuple(vmap[int(v)] for v in doc.get("int_in", [])),
            tuple(vmap[int(v)] for v in doc.get("int_out", [])),
            tuple(int(p) for p in doc.get("ext_in", [])),
            tuple(int(p) for p in doc.get("ext_out", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed cospan document: {exc}") from exc


def canonical_renumber(c: ExtendedCospan) -> ExtendedCospan:
    """Rebuild with vertex/edge ids 0..n-1 in allocation order."""
    ng = EHypergraph()
    vmap, _ = copy_into(ng, c.carrier)
    return ExtendedCospan(
        ng,
        tuple(vmap[v] for v in c.int_in),
        tuple(vmap[v] for v in c.int_out),
        tuple(c.ext_in),
        tuple(c.ext_out),
    )


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
    """The document of ``c`` after canonical renumbering, byte for byte
    ``json.dumps(cospan_to_doc(canonical_renumber(c)), indent=2) + "\\n"``,
    written straight from the carrier: ids are positions in ``vertices`` and
    ``edges``, and strings go through the C encoder of ``json``."""
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
    # A parent that is not an edge of the carrier is not written, as
    # ``canonical_renumber`` does not copy it.
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


def egraph_to_doc(eg: EGraph) -> dict[str, Any]:
    return {
        "classes": [
            {
                "id": c,
                "nodes": [
                    {"head": n.head, "children": list(n.children)}
                    for n in eg.nodes(c)
                ],
            }
            for c in eg.class_ids()
        ]
    }


def egraph_from_doc(doc: dict[str, Any]) -> EGraph:
    """The e-graph of a document; ``SerializationError`` when it is malformed
    or breaks the e-graph invariants.

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
        for cd in doc["classes"]:
            cid = int(cd["id"])
            if cid in eg.classes:
                raise SerializationError(f"duplicate class id {cid}")
            eg._uf[cid] = cid
            eg.classes[cid] = set()
            eg._next = max(eg._next, cid + 1)
        for cd in doc["classes"]:
            cid = int(cd["id"])
            if not cd["nodes"]:
                raise SerializationError(f"class {cid} has no nodes")
            for nd in cd["nodes"]:
                n = ENode(str(nd["head"]), tuple(int(x) for x in nd["children"]))
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
    """Byte for byte ``json.dumps(egraph_to_doc(eg), indent=2) + "\\n"``,
    written directly as ``dumps_cospan`` is."""
    classes = [
        _CLASS % (c, _array([_NODE % (_str(n.head), _array(map(str, n.children), "          "))
                             for n in eg.nodes(c)], "      "))
        for c in eg.class_ids()
    ]
    return '{\n  "classes": %s\n}\n' % _array(classes, "  ")
