"""Abstract rewriting on finite oriented graphs: Newman's diamond lemma.

Vertices stand for expressions, edges for single reduction steps.  On a
finite graph the descending chain condition is acyclicity; together with
the local diamond condition it forces one unique sink per weakly
connected component, reached by every maximal path.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .coeff import Value, _set


class GraphError(Exception):
    pass


class OrientedGraph(Value):
    __slots__ = _fields = ("vertices", "edges")

    def __init__(self, vertices: frozenset, edges: frozenset):  # edges: (source, target)
        vertices, edges = frozenset(vertices), frozenset(edges)
        for u, v in edges:
            if u not in vertices or v not in vertices:
                raise GraphError(f"edge ({u}, {v}) leaves the vertex set")
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)

    @classmethod
    def from_edges(cls, edges, vertices=()) -> "OrientedGraph":
        edges = frozenset(edges)
        verts = set(vertices)
        for u, v in edges:
            verts.add(u)
            verts.add(v)
        return cls(verts, edges)

    def successors(self, v) -> set:
        return {b for a, b in self.edges if a == v}

    def descendants(self, v) -> set:
        """Vertices reachable from v, including v."""
        seen = {v}
        stack = [v]
        while stack:
            for w in self.successors(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen


class TerminationResult(namedtuple("TerminationResult", "terminating cycle")):
    """cycle: a directed cycle, first vertex repeated at the end, or None."""

    __slots__ = ()


def check_termination(graph: OrientedGraph) -> TerminationResult:
    """A finite graph terminates iff it is acyclic; returns a witness cycle.

    Depth-first from each unvisited vertex in repr order: path is the
    current path, depth the index of each of its vertices, so an edge back
    into the path closes the cycle path[depth[w]:] + (w,)."""
    done = set()
    for root in sorted(graph.vertices, key=repr):
        if root in done:
            continue
        path, depth = [root], {root: 0}
        stack = [iter(sorted(graph.successors(root), key=repr))]
        while stack:
            for w in stack[-1]:
                if w in depth:
                    return TerminationResult(False, (*path[depth[w]:], w))
                if w not in done:
                    depth[w] = len(path)
                    path.append(w)
                    stack.append(iter(sorted(graph.successors(w), key=repr)))
                    break
            else:
                v = path.pop()
                del depth[v]
                done.add(v)
                stack.pop()
    return TerminationResult(True, None)


DiamondResult = namedtuple("DiamondResult", "holds failing_vertex")


def check_local_diamond(graph: OrientedGraph) -> DiamondResult:
    """Any two out-edges of a vertex must lead to a common descendant."""
    for v in sorted(graph.vertices, key=repr):
        below = [graph.descendants(w) for w in sorted(graph.successors(v), key=repr)]
        if any(not a & b for a, b in combinations(below, 2)):
            return DiamondResult(False, v)
    return DiamondResult(True, None)


ComponentVerdict = namedtuple("ComponentVerdict", "vertices sink")


class NewmanVerdict(namedtuple("NewmanVerdict", "ok failure witness components")):
    """failure is "termination" or "diamond" when not ok, with its witness;
    components holds one ComponentVerdict per component when ok."""

    __slots__ = ()


def newman_verdict(graph: OrientedGraph) -> NewmanVerdict:
    """Unique sink per component when both hypotheses hold.

    Verifies the conclusion directly: every vertex must reach exactly one
    sink.  Then two vertices are weakly connected iff they share their
    sink, so the components are the vertices grouped by it, in order of
    their least vertex.
    """
    term = check_termination(graph)
    if not term.terminating:
        return NewmanVerdict(False, "termination", term.cycle, ())
    diamond = check_local_diamond(graph)
    if not diamond.holds:
        return NewmanVerdict(False, "diamond", diamond.failing_vertex, ())
    groups: dict = {}  # sink -> the vertices that reach it
    for v in sorted(graph.vertices, key=repr):
        sinks = [w for w in graph.descendants(v) if not graph.successors(w)]
        if len(sinks) != 1:
            raise AssertionError(f"{v} reaches {len(sinks)} sinks "
                                 "despite both hypotheses holding")
        groups.setdefault(sinks[0], []).append(v)
    return NewmanVerdict(True, None, None, tuple(
        ComponentVerdict(frozenset(vs), sink) for sink, vs in groups.items()))


def parse_graph(text: str) -> OrientedGraph:
    """Edge list, one ``u -> v`` per line: one arrow between two names
    without blanks; a bare name declares a vertex."""
    edges = []
    vertices = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            names = [side.split() for side in line.split("->")]
            if list(map(len, names)) != [1, 1]:
                raise GraphError(f"line {lineno}: malformed edge {raw!r}")
            edges.append((names[0][0], names[1][0]))
        else:
            if len(line.split()) != 1:
                raise GraphError(f"line {lineno}: expected 'u -> v' or a vertex name")
            vertices.append(line)
    return OrientedGraph.from_edges(edges, vertices)
