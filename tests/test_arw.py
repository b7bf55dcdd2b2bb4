import random
from itertools import product

import pytest

from ncrewrite.arw import (
    GraphError,
    OrientedGraph,
    check_local_diamond,
    check_termination,
    newman_verdict,
    parse_graph,
)

DIAMOND = OrientedGraph.from_edges([("a", "b"), ("a", "c"),
                                    ("b", "d"), ("c", "d")])
FORK = OrientedGraph.from_edges([("a", "b"), ("a", "c")])


def test_termination_chain():
    g = OrientedGraph.from_edges([("a", "b"), ("b", "c")])
    assert check_termination(g).terminating


def test_termination_cycle():
    g = OrientedGraph.from_edges([("a", "b"), ("b", "a")])
    result = check_termination(g)
    assert not result.terminating
    cycle = result.cycle
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {"a", "b"}
    # the witness is a real directed cycle
    for u, v in zip(cycle, cycle[1:]):
        assert (u, v) in g.edges


def test_termination_empty():
    assert check_termination(OrientedGraph(frozenset(), frozenset())).terminating


def test_diamond_holds():
    assert check_local_diamond(DIAMOND).holds


def test_diamond_fails_on_fork():
    result = check_local_diamond(FORK)
    assert not result.holds
    assert result.failing_vertex == "a"


def test_diamond_vacuous_on_chain():
    g = OrientedGraph.from_edges([("a", "b"), ("b", "c")])
    assert check_local_diamond(g).holds


def test_newman_diamond():
    verdict = newman_verdict(DIAMOND)
    assert verdict.ok
    assert [c.sink for c in verdict.components] == ["d"]


def test_newman_two_components():
    g = OrientedGraph.from_edges(
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
         ("p", "q"), ("p", "r"), ("q", "s"), ("r", "s")])
    verdict = newman_verdict(g)
    assert verdict.ok
    assert sorted(c.sink for c in verdict.components) == ["d", "s"]


def test_newman_reports_failed_hypothesis():
    verdict = newman_verdict(FORK)
    assert not verdict.ok
    assert verdict.failure == "diamond"
    assert verdict.witness == "a"
    cyclic = OrientedGraph.from_edges([("a", "b"), ("b", "a")])
    assert newman_verdict(cyclic).failure == "termination"


def _random_dag(rng, n):
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                edges.add((i, j))
    return edges


def diamond_completion(edges, n):
    """Funnel each weak component's sinks into a fresh bottom vertex, which
    makes any two diverging edges meet again."""
    edges = set(edges)
    neighbours = {v: set() for v in range(n)}
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    seen = set()
    fresh = n
    for root in range(n):
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
        sinks = [v for v in comp if not any(u == v for u, _ in edges)]
        if len(comp) > 1 or sinks != [root]:
            for s in sinks:
                edges.add((s, fresh))
            fresh += 1
    return edges


@pytest.mark.parametrize("seed", range(15))
def test_newman_on_completed_random_dags(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    edges = diamond_completion(_random_dag(rng, n), n)
    graph = OrientedGraph.from_edges(edges, range(n))
    verdict = newman_verdict(graph)
    assert verdict.ok
    # one sink per component, and every maximal path lands on it
    for comp in verdict.components:
        sinks = [v for v in comp.vertices if not graph.successors(v)]
        assert sinks == [comp.sink]
        stack = [(v,) for v in comp.vertices]
        while stack:
            path = stack.pop()
            nxt = graph.successors(path[-1])
            if not nxt:
                assert path[-1] == comp.sink
            else:
                stack.extend(path + (w,) for w in sorted(nxt))


def test_parse_graph_roundtrip():
    g = parse_graph("a -> b\nb -> c\n# comment\nlonely\n")
    assert g.vertices == {"a", "b", "c", "lonely"}
    assert g.edges == {("a", "b"), ("b", "c")}


def test_parse_graph_errors():
    with pytest.raises(GraphError):
        parse_graph("a ->")
    with pytest.raises(GraphError):
        parse_graph("a b c")


@pytest.mark.parametrize("line", ["a -> b -> c", "a b -> c", "a -> b c", "a->b->c", "->"])
def test_parse_graph_edge_line_holds_one_arrow_between_two_names(line):
    with pytest.raises(GraphError, match=r"^line 2: malformed edge"):
        parse_graph(f"x -> y\n{line}\n")


def test_parse_graph_arrow_without_blanks_is_an_edge():
    assert parse_graph("a->b\n b ->c # comment\n").edges == {("a", "b"), ("b", "c")}


def test_edge_outside_vertices_rejected():
    with pytest.raises(GraphError):
        OrientedGraph(frozenset({"a"}), frozenset({("a", "b")}))


# Reference Newman checks, each done the direct way: the weak components
# by their own traversal, the witness cycle rebuilt from a parent map under
# a colour map, and the descendants walked afresh for every pair of
# successors.  arw's checks must agree with them, cycle tuples included.

def weak_components(graph) -> list[frozenset]:
    neighbours = {v: set() for v in graph.vertices}
    for u, v in graph.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    seen, components = set(), []
    for root in sorted(graph.vertices, key=repr):
        if root in seen:
            continue
        comp, stack = {root}, [root]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        components.append(frozenset(comp))
    return components


def reference_termination(graph):
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
            for w in it:
                if color[w] == WHITE:
                    color[w] = GRAY
                    parent[w] = v
                    stack.append((w, iter(sorted(graph.successors(w), key=repr))))
                    break
                if color[w] == GRAY:
                    cycle, cur = [w], v
                    while cur != w:
                        cycle.append(cur)
                        cur = parent[cur]
                    cycle.append(w)
                    return (False, tuple(reversed(cycle)))
            else:
                color[v] = BLACK
                stack.pop()
    return (True, None)


def reference_diamond(graph):
    for v in sorted(graph.vertices, key=repr):
        succ = sorted(graph.successors(v), key=repr)
        for i in range(len(succ)):
            for j in range(i + 1, len(succ)):
                if not graph.descendants(succ[i]) & graph.descendants(succ[j]):
                    return (False, v)
    return (True, None)


def reference_verdict(graph):
    term = reference_termination(graph)
    if not term[0]:
        return (False, "termination", term[1], ())
    diamond = reference_diamond(graph)
    if not diamond[0]:
        return (False, "diamond", diamond[1], ())
    components = []
    for comp in weak_components(graph):
        (sink,) = {v for v in comp if not graph.successors(v)}
        for v in comp:
            assert {w for w in graph.descendants(v) if not graph.successors(w)} == {sink}
        components.append((comp, sink))
    return (True, None, None, tuple(components))


def _random_graph(rng, kind, names):
    """A seeded graph on up to 11 vertices: "acyclic", "cyclic" (edges both
    ways) or "completed" (acyclic, each weak component's sinks funnelled
    into one fresh sink, so Newman's hypotheses mostly hold), often with
    several components; vertices are ints, or strs when names is set."""
    n = rng.randint(0, 11)
    p = rng.choice((0.1, 0.2, 0.35))
    edges = {(i, j) for i in range(n) for j in range(n)
             if i != j and (kind == "cyclic" or i < j) and rng.random() < p}
    if kind == "completed":
        edges = diamond_completion(edges, n)
    graph = OrientedGraph.from_edges(edges, range(n))
    if names:
        label = {v: f"v{rng.randrange(1000)}_{v}" for v in graph.vertices}
        graph = OrientedGraph.from_edges({(label[u], label[v]) for u, v in graph.edges},
                                         label.values())
    return graph


@pytest.mark.parametrize("kind,names", product(("acyclic", "cyclic", "completed"), (False, True)))
def test_newman_checks_match_the_reference(kind, names):
    rng = random.Random(f"{kind} {names}")
    for _ in range(850):
        graph = _random_graph(rng, kind, names)
        term = check_termination(graph)
        assert term == reference_termination(graph)
        if not term.terminating:  # the witness is a real directed cycle
            assert all((u, v) in graph.edges for u, v in zip(term.cycle, term.cycle[1:]))
        assert check_local_diamond(graph) == reference_diamond(graph)
        assert newman_verdict(graph) == reference_verdict(graph)


def test_components_are_the_weak_components():
    rng = random.Random(18)
    several = 0
    for _ in range(1000):
        graph = _random_graph(rng, "completed", rng.random() < 0.5)
        verdict = newman_verdict(graph)
        if verdict.ok:
            assert [c.vertices for c in verdict.components] == weak_components(graph)
            several += len(verdict.components) > 1
    assert several > 300
