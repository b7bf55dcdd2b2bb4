"""Abstract rewriting on finite oriented graphs: Newman's diamond lemma.

Vertices stand for expressions, edges for single reduction steps.  On a
finite graph the descending chain condition is acyclicity; together with
the local diamond condition it forces one unique sink per weakly
connected component, reached by every maximal path.
"""

from __future__ import annotations

from collections import namedtuple

from .coeff import Value, _set


class GraphError(Exception):
    pass


class OrientedGraph(Value):
    __slots__ = _fields = ("vertices", "edges")

    def __init__(self, vertices: frozenset, edges: frozenset):  # edges: (source, target)
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
        return cls(frozenset(verts), edges)

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
    """A finite graph terminates iff it is acyclic; returns a witness cycle."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in graph.vertices}
    parent = {}
    for root in sorted(graph.vertices, key=repr):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(sorted(graph.successors(root), key=repr)))]
        color[root] = GRAY
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == WHITE:
                    color[w] = GRAY
                    parent[w] = v
                    stack.append((w, iter(sorted(graph.successors(w), key=repr))))
                    advanced = True
                    break
                if color[w] == GRAY:
                    cycle = [w]
                    cur = v
                    while cur != w:
                        cycle.append(cur)
                        cur = parent[cur]
                    cycle.append(w)
                    cycle = cycle[::-1]
                    return TerminationResult(False, tuple(cycle))
            if not advanced:
                color[v] = BLACK
                stack.pop()
    return TerminationResult(True, None)


DiamondResult = namedtuple("DiamondResult", "holds failing_vertex")


def check_local_diamond(graph: OrientedGraph) -> DiamondResult:
    """Any two out-edges of a vertex must lead to a common descendant."""
    for v in sorted(graph.vertices, key=repr):
        succ = sorted(graph.successors(v), key=repr)
        for i in range(len(succ)):
            di = graph.descendants(succ[i])
            for j in range(i + 1, len(succ)):
                if not di & graph.descendants(succ[j]):
                    return DiamondResult(False, v)
    return DiamondResult(True, None)


ComponentVerdict = namedtuple("ComponentVerdict", "vertices sink")


class NewmanVerdict(namedtuple("NewmanVerdict", "ok failure witness components")):
    """failure is "termination" or "diamond" when not ok, with its witness;
    components holds one ComponentVerdict per component when ok."""

    __slots__ = ()


def _weak_components(graph: OrientedGraph) -> list[frozenset]:
    neighbours: dict = {v: set() for v in graph.vertices}
    for u, v in graph.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    seen = set()
    components = []
    for root in sorted(graph.vertices, key=repr):
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        components.append(frozenset(comp))
    return components


def newman_verdict(graph: OrientedGraph) -> NewmanVerdict:
    """Unique sink per component when both hypotheses hold.

    Verifies the conclusion directly: from every vertex, the set of
    reachable sinks must be exactly the component's sink.
    """
    term = check_termination(graph)
    if not term.terminating:
        return NewmanVerdict(False, "termination", term.cycle, ())
    diamond = check_local_diamond(graph)
    if not diamond.holds:
        return NewmanVerdict(False, "diamond", diamond.failing_vertex, ())
    components = []
    for comp in _weak_components(graph):
        sinks = {v for v in comp if not graph.successors(v)}
        if len(sinks) != 1:
            raise GraphError(f"component {sorted(comp, key=repr)} has {len(sinks)} sinks "
                             "despite both hypotheses holding")
        (sink,) = sinks
        for v in comp:
            reachable_sinks = {w for w in graph.descendants(v)
                               if not graph.successors(w)}
            if reachable_sinks != {sink}:
                raise GraphError(f"maximal path from {v} escapes the sink {sink}")
        components.append(ComponentVerdict(comp, sink))
    return NewmanVerdict(True, None, None, tuple(components))


def parse_graph(text: str) -> OrientedGraph:
    """Edge list, one ``u -> v`` per line; a bare token declares a vertex."""
    edges = []
    vertices = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            left, _, right = line.partition("->")
            u, v = left.strip(), right.strip()
            if not u or not v:
                raise GraphError(f"line {lineno}: malformed edge {raw!r}")
            edges.append((u, v))
        else:
            if len(line.split()) != 1:
                raise GraphError(f"line {lineno}: expected 'u -> v' or a vertex name")
            vertices.append(line)
    return OrientedGraph.from_edges(edges, vertices)
