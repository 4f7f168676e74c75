import itertools
import random
from collections import Counter
from typing import NamedTuple

import pytest

import repvol
from repvol import InvariantViolation, pieces
from repvol.graphs import (
    BadReflection, GraphError, GroupTooLarge, IncompleteRotation,
    NotBipartite, NotConnected, NotRegular, NotSphere, NotValidated,
    Reflection, ReflectionGraph, ValenceMismatch, VertexStabilizerNontrivial,
    WrongValence,
    bigon_bound_check, cycle_reflection_graph, g_replicant,
    graph_from_json_dict, graph_isomorphic, graph_to_json_dict,
    lattice_reflection_graph, product_p1, torus_boundary_check, trace_faces,
    validate_reflection_graph,
)
import repvol.graphs as graphs_module


def cube_reflection_graph():
    verts = list(range(8))
    edges = [(v, v ^ (1 << b)) for v in verts for b in range(3)
             if v < v ^ (1 << b)]
    reflections = []
    for b in range(3):
        mapping = {v: v ^ (1 << b) for v in verts}
        swaps = [(v, v ^ (1 << b)) for v in verts if v < v ^ (1 << b)]
        reflections.append(Reflection(mapping, swaps))
    return ReflectionGraph(verts, edges, reflections)


def k33_reflection_graph():
    a = ["a0", "a1", "a2"]
    b = ["b0", "b1", "b2"]
    reflections = []
    for shift in range(3):
        mapping = {}
        for i in range(3):
            mapping[a[i]] = b[(i + shift) % 3]
            mapping[b[(i + shift) % 3]] = a[i]
        reflections.append(Reflection(
            mapping, [(a[i], b[(i + shift) % 3]) for i in range(3)]))
    return ReflectionGraph(a + b, [(x, y) for x in a for y in b], reflections)


def dipole(count, planar=True):
    """``count`` parallel edges between u and v.

    The planar rotation reverses the order at v, giving all bigons on a
    sphere.  Otherwise the last two ends at v are swapped, which merges
    faces and pushes the embedding onto a torus.
    """
    edges = [("u", "v")] * count
    ends_v = [(i, 1) for i in range(count)]
    if planar:
        ends_v.reverse()
    else:
        ends_v[-1], ends_v[-2] = ends_v[-2], ends_v[-1]
    rotation = {"u": [(i, 0) for i in range(count)], "v": ends_v}
    return edges, rotation


def grid_torus(rows=2, cols=2, rng=None):
    """The rows x cols square grid on a torus.

    With ``rng``, the edge order, the vertex order and the first entry of
    every cyclic order are shuffled, which changes no face.
    """
    hidx, vidx, edges = {}, {}, []
    for i in range(rows):
        for j in range(cols):
            hidx[(i, j)] = len(edges)
            edges.append(((i, j), (i, (j + 1) % cols)))
    for i in range(rows):
        for j in range(cols):
            vidx[(i, j)] = len(edges)
            edges.append(((i, j), ((i + 1) % rows, j)))
    rotation = {}
    for i in range(rows):
        for j in range(cols):
            rotation[(i, j)] = [
                (hidx[(i, j)], 0), (vidx[((i - 1) % rows, j)], 1),
                (hidx[(i, (j - 1) % cols)], 1), (vidx[(i, j)], 0)]
    if rng is None:
        return edges, rotation
    perm = list(range(len(edges)))
    rng.shuffle(perm)
    shuffled = [None] * len(edges)
    for old, new in enumerate(perm):
        shuffled[new] = edges[old]
    vertices = list(rotation)
    rng.shuffle(vertices)
    turned = {}
    for v in vertices:
        ends = [(perm[e], s) for e, s in rotation[v]]
        k = rng.randrange(4)
        turned[v] = ends[k:] + ends[:k]
    return shuffled, turned


def octahedron():
    edges, eidx = [], {}
    for w in (1, 2, 3, 4):
        eidx[(0, w)] = len(edges)
        edges.append((0, w))
    for w in (1, 2, 3, 4):
        eidx[(w, 5)] = len(edges)
        edges.append((w, 5))
    for u, w in ((1, 2), (2, 3), (3, 4), (1, 4)):
        eidx[(u, w)] = len(edges)
        edges.append((u, w))
    orders = {0: [1, 2, 3, 4], 5: [4, 3, 2, 1],
              1: [0, 4, 5, 2], 2: [0, 1, 5, 3],
              3: [0, 2, 5, 4], 4: [0, 3, 5, 1]}
    rotation = {}
    for v, nbrs in orders.items():
        ends = []
        for w in nbrs:
            e = eidx[(min(v, w), max(v, w))]
            ends.append((e, 0 if v < w else 1))
        rotation[v] = ends
    return edges, rotation


# validation

def test_c6_validates():
    g = cycle_reflection_graph(6)
    report = validate_reflection_graph(g)
    assert report.valence == 2
    assert report.group_order == 6
    assert report.parts == ((0, 2, 4), (1, 3, 5))
    assert report.edge_classes == (((0, 1), (2, 3), (4, 5)),
                                   ((0, 5), (1, 2), (3, 4)))
    assert validate_reflection_graph(g) is report


def test_c6_orbit_oracle():
    # independent oracle: close the three midpoint reflections under
    # explicit composition, then take edge orbits by brute force
    size = 6
    gens = [{v: (2 * a + 1 - v) % size for v in range(size)}
            for a in range(3)]
    ident = {v: v for v in range(size)}
    elements = [ident]
    seen = {tuple(sorted(ident.items()))}
    frontier = [ident]
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = {v: g[p[v]] for v in range(size)}
                key = tuple(sorted(q.items()))
                if key not in seen:
                    seen.add(key)
                    elements.append(q)
                    fresh.append(q)
        frontier = fresh
    assert len(elements) == 6
    for p in elements:
        assert p == ident or all(p[v] != v for v in range(size))
    orbits = set()
    for u in range(size):
        v = (u + 1) % size
        orbits.add(frozenset(tuple(sorted((p[u], p[v]))) for p in elements))
    assert orbits == {frozenset({(0, 1), (2, 3), (4, 5)}),
                      frozenset({(0, 5), (1, 2), (3, 4)})}
    report = validate_reflection_graph(cycle_reflection_graph(6))
    assert {frozenset(c) for c in report.edge_classes} == orbits


def test_cycles_orbit_stabilizer():
    for size in (4, 6, 8, 10, 12):
        report = validate_reflection_graph(cycle_reflection_graph(size))
        assert report.valence == 2
        assert report.group_order == size
        assert len(report.edge_classes) == 2
        evens = {e for e in report.edge_classes[0]}
        assert all(min(e) % 2 == 0 for e in evens)


def test_lattice_validates():
    for rows, cols in ((4, 4), (6, 4), (4, 6)):
        g = lattice_reflection_graph(rows, cols)
        report = validate_reflection_graph(g)
        assert report.valence == 4
        assert len(report.edge_classes) == 4
        assert report.group_order == rows * cols == len(g.vertices)


def test_cube_and_k33_validate():
    report = validate_reflection_graph(cube_reflection_graph())
    assert (report.valence, report.group_order) == (3, 8)
    assert len(report.edge_classes) == 3
    report = validate_reflection_graph(k33_reflection_graph())
    assert (report.valence, report.group_order) == (3, 6)
    assert len(report.edge_classes) == 3


def test_a_mapping_listed_twice_validates_as_listed_once():
    # a repeated permutation adds no generator, whatever subset of its
    # edges the repeat is tagged with
    for g in (cycle_reflection_graph(8), lattice_reflection_graph(4, 6),
              cube_reflection_graph(), k33_reflection_graph()):
        expected = validate_reflection_graph(g)
        listed = list(g.reflections)
        for k, refl in enumerate(listed):
            for swaps in (refl.swaps, refl.swaps[-1:]):
                repeat = Reflection(refl.mapping, swaps)
                for where in (k, k + 1, len(listed)):
                    twice = ReflectionGraph(
                        g.vertices, g.edges,
                        listed[:where] + [repeat] + listed[where:])
                    assert validate_reflection_graph(twice) == expected


def test_a_repeated_mapping_has_its_own_tags_checked():
    g = cycle_reflection_graph(8)
    first = g.reflections[0]   # v -> 1 - v, tagged (0, 1) and (4, 5)
    extra = dict(first.mapping, stray=0)
    cases = [
        (Reflection(first.mapping, [(0, 2)]),
         "reflection 4 tags (0, 2), which is not an edge"),
        (Reflection(first.mapping, [(0, 1), (1, 2)]),
         "reflection 4 does not transpose its tagged edge (1, 2)"),
        (Reflection(first.mapping, []),
         "reflection 4 is tagged with no edge"),
        (Reflection(extra, first.swaps),
         "reflection 4 is not a permutation of the vertex set"),
    ]
    for repeat, message in cases:
        bad = ReflectionGraph(g.vertices, g.edges,
                              list(g.reflections) + [repeat])
        with pytest.raises(BadReflection) as info:
            validate_reflection_graph(bad)
        assert str(info.value) == message


def test_c5_not_bipartite():
    g = ReflectionGraph(range(5), [(v, (v + 1) % 5) for v in range(5)], [])
    with pytest.raises(NotBipartite):
        validate_reflection_graph(g)


def test_loop_not_bipartite():
    g = ReflectionGraph([0, 1], [(0, 1), (1, 1)], [])
    with pytest.raises(NotBipartite):
        validate_reflection_graph(g)


def test_disconnected_checked_after_bipartite():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4)]
    g = ReflectionGraph(range(8), edges, [])
    with pytest.raises(NotConnected):
        validate_reflection_graph(g)
    with pytest.raises(NotConnected):
        validate_reflection_graph(ReflectionGraph([], [], []))


def test_irregular():
    g = ReflectionGraph(range(3), [(0, 1), (1, 2)], [])
    with pytest.raises(NotRegular):
        validate_reflection_graph(g)
    with pytest.raises(NotRegular):
        validate_reflection_graph(ReflectionGraph([0], [], []))


def c6_with(reflection):
    return ReflectionGraph(range(6), [(v, (v + 1) % 6) for v in range(6)],
                           [reflection])


def test_bad_reflections():
    size = 6
    rho0 = {v: (1 - v) % size for v in range(size)}
    cases = [
        (Reflection({v: 0 for v in range(size)}, [(0, 1)]),
         "not a permutation"),
        (Reflection({v: (v + 1) % size for v in range(size)}, [(0, 1)]),
         "not an involution"),
        (Reflection({0: 2, 2: 0, 1: 1, 3: 3, 4: 4, 5: 5}, [(0, 1)]),
         "on its own side"),
        (Reflection({0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}, [(0, 1)]),
         "does not preserve"),
        (Reflection(rho0, [(0, 2)]), "not an edge"),
        (Reflection(rho0, [(1, 2)]), "transpose"),
        (Reflection(rho0, []), "tagged with no edge"),
    ]
    for reflection, needle in cases:
        with pytest.raises(BadReflection) as err:
            validate_reflection_graph(c6_with(reflection))
        assert needle in str(err.value)
    # rho0 alone is sound but leaves four edges without a reflection
    with pytest.raises(BadReflection) as err:
        validate_reflection_graph(
            c6_with(Reflection(rho0, [(0, 1), (3, 4)])))
    assert "no distinguished reflection" in str(err.value)


@pytest.mark.parametrize("mapping, message", [
    ({0: 2, 1: 3, 2: 0, 3: 5, 4: 4, 5: 1},
     "reflection 0 keeps 0 on its own side"),
    ({0: 1, 1: 2, 2: 0, 3: 4, 4: 3, 5: 5},
     "reflection 0 is not an involution"),
], ids=["own side first", "no involution first"])
def test_the_first_vertex_failing_either_axiom_is_refused(mapping, message):
    # vertex 0 fails one axiom and a later vertex the other: the refusal is
    # the one met first in vertex order
    with pytest.raises(BadReflection) as err:
        validate_reflection_graph(c6_with(Reflection(mapping, [(0, 1)])))
    assert str(err.value) == message


RHO0 = {v: (1 - v) % 6 for v in range(6)}   # fixes no vertex of C6


@pytest.mark.parametrize("swaps, message", [
    ([(0, 2)], "reflection 0 tags (0, 2), which is not an edge"),
    ([(1, 3)], "reflection 0 tags (1, 3), which is not an edge"),
    ([(3, 1)], "reflection 0 tags (3, 1), which is not an edge"),
    ([(0, 0)], "reflection 0 tags (0, 0), which is not an edge"),
    ([(1, 1)], "reflection 0 tags (1, 1), which is not an edge"),
    ([(0, 1), (2, 1)],
     "reflection 0 does not transpose its tagged edge (2, 1)"),
    ([(1, 0), (4, 3)], "edge (0, 5) has no distinguished reflection"),
], ids=["colour-0 pair", "colour-1 pair", "colour-1 pair reversed",
        "colour-0 loop", "colour-1 loop", "reversed edge not transposed",
        "reversed edges"])
def test_tags_are_looked_up_from_their_colour_0_end(swaps, message):
    # edges are keyed by one int from their colour-0 end: a pair of one
    # colour or a loop is no edge, and an edge named from either end is
    # the same edge
    with pytest.raises(BadReflection) as err:
        validate_reflection_graph(c6_with(Reflection(RHO0, swaps)))
    assert str(err.value) == message


def test_an_edge_tagged_from_either_end_validates_alike():
    graph = cycle_reflection_graph(8)
    reversed_tags = ReflectionGraph(
        graph.vertices, graph.edges,
        [Reflection(r.mapping, [(b, a) for a, b in r.swaps])
         for r in graph.reflections])
    assert (validate_reflection_graph(reversed_tags)
            == validate_reflection_graph(graph))


def test_the_first_edge_not_preserved_is_named():
    # v -> v ^ 1 keeps the edge (0, 1) but takes (0, 5), the next edge in
    # stored order, to (1, 4)
    with pytest.raises(BadReflection) as err:
        validate_reflection_graph(
            c6_with(Reflection({v: v ^ 1 for v in range(6)}, [(0, 1)])))
    assert str(err.value) == "reflection 0 does not preserve the edge (0, 5)"


def test_vertex_stabilizer_detected():
    cube = cube_reflection_graph()

    def swap12(v):
        return (v & 1) | (((v >> 2) & 1) << 1) | (((v >> 1) & 1) << 2)

    tau = {v: swap12(v) ^ 1 for v in range(8)}
    extra = Reflection(tau, [(0, 1), (6, 7)])
    bad = ReflectionGraph(cube.vertices, cube.edges,
                          cube.reflections + (extra,))
    with pytest.raises(VertexStabilizerNontrivial):
        validate_reflection_graph(bad)


def test_group_cap(monkeypatch):
    monkeypatch.setattr(repvol, "COPY_LIMIT", 4)
    with pytest.raises(GroupTooLarge):
        validate_reflection_graph(cycle_reflection_graph(6))


def test_non_free_action_refused_before_group_cap(monkeypatch):
    # the cube with a vertex-fixing symmetry is invalid whatever the cap
    cube = cube_reflection_graph()

    def swap12(v):
        return (v & 1) | (((v >> 2) & 1) << 1) | (((v >> 1) & 1) << 2)

    extra = Reflection({v: swap12(v) ^ 1 for v in range(8)},
                       [(0, 1), (6, 7)])
    bad = ReflectionGraph(cube.vertices, cube.edges,
                          cube.reflections + (extra,))
    monkeypatch.setattr(repvol, "COPY_LIMIT", 4)
    with pytest.raises(VertexStabilizerNontrivial):
        validate_reflection_graph(bad)


def test_group_cap_is_exact(monkeypatch):
    monkeypatch.setattr(repvol, "COPY_LIMIT", 5)
    with pytest.raises(GroupTooLarge):
        validate_reflection_graph(cycle_reflection_graph(6))
    monkeypatch.setattr(repvol, "COPY_LIMIT", 6)
    assert validate_reflection_graph(
        cycle_reflection_graph(6)).group_order == 6


def test_c1000_validates():
    report = validate_reflection_graph(cycle_reflection_graph(1000))
    assert report.group_order == 1000
    assert len(report.edge_classes) == 2


PEAK_RSS = """
import resource, sys
from repvol.graphs import cycle_reflection_graph, validate_reflection_graph
validate_reflection_graph(cycle_reflection_graph(2000))
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10))
"""


def test_c2000_is_built_and_validated_in_under_100_mb():
    # a graph keeps one position tuple per reflection, not a label dict:
    # 48 MB peak, against 224 MB when every mapping was stored as a dict
    pytest.importorskip("resource")
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 100


def _relabelled(graph, rng):
    """The same graph under fresh labels, with every input order shuffled."""
    labels = rng.sample(range(10 * len(graph.vertices)), len(graph.vertices))
    lab = dict(zip(graph.vertices, labels))
    vertices = [lab[v] for v in graph.vertices]
    edges = [(lab[u], lab[v]) if rng.random() < 0.5 else (lab[v], lab[u])
             for u, v in graph.edges]
    reflections = [
        Reflection({lab[k]: lab[w] for k, w in r.mapping.items()},
                   [(lab[a], lab[b]) for a, b in r.swaps])
        for r in graph.reflections]
    for items in (vertices, edges, reflections):
        rng.shuffle(items)
    return ReflectionGraph(vertices, edges, reflections, graph.ambient)


def _brute_force_report(graph):
    """(group order, edge classes, parts, valence) by listing the group.

    Elements are closed under composition as label dicts; None if some
    nontrivial element fixes a vertex; edge classes are the images of
    each edge under every element, ordered like the validator's (by
    smallest edge position).
    """
    verts = list(graph.vertices)
    gens = [r.mapping for r in graph.reflections]
    ident = {v: v for v in verts}
    elements = {tuple(verts): ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = {v: g[p[v]] for v in verts}
                key = tuple(q[v] for v in verts)
                if key not in elements:
                    elements[key] = q
                    fresh.append(q)
        frontier = fresh
    for p in elements.values():
        if p is not ident and any(p[v] == v for v in verts):
            return None

    position = {}
    for k, (u, v) in enumerate(graph.edges):
        position[(u, v)] = position[(v, u)] = k
    orbits = {frozenset(position[(p[u], p[v])] for p in elements.values())
              for u, v in graph.edges}
    classes = tuple(tuple(graph.edges[k] for k in sorted(orbit))
                    for orbit in sorted(orbits, key=min))

    adj = {v: [] for v in verts}
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    side = {verts[0]: 0}
    stack = [verts[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in side:
                side[w] = 1 - side[u]
                stack.append(w)
    parts = tuple(tuple(v for v in verts if side[v] == s) for s in (0, 1))
    return len(elements), classes, parts, len(adj[verts[0]])


def test_validation_matches_brute_force_group():
    rng = random.Random(4913)
    cases = [cycle_reflection_graph(n) for n in range(4, 50, 2)]
    cases += [lattice_reflection_graph(4, 4),
               lattice_reflection_graph(8, 16),
               cube_reflection_graph(), k33_reflection_graph()]
    cases.append(product_p1(product_p1(
        _validated(cycle_reflection_graph(8)))))
    for size in (4, 6):
        chain = [_validated(cycle_reflection_graph(size))]
        for _ in range(3):
            chain.append(product_p1(chain[-1]))
        cases += chain
    for graph in cases:
        for g in (graph, _relabelled(graph, rng)):
            report = validate_reflection_graph(g)
            got = (report.group_order, report.edge_classes, report.parts,
                   report.valence)
            assert got == _brute_force_report(g)
            assert report.group_order == len(g.vertices)


def _side_swapping_involutions(graph):
    """Every edge-preserving involution of ``graph`` that swaps its sides.

    Automorphisms are listed by backtracking over a breadth-first vertex
    order, each vertex checked for adjacency against all mapped ones.
    """
    verts = graph.vertices
    adj = {v: set() for v in verts}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    order = [verts[0]]
    for u in order:
        order += [w for w in sorted(adj[u], key=verts.index)
                  if w not in order]
    side = {verts[0]: 0}
    for u in order:
        for w in adj[u]:
            side.setdefault(w, 1 - side[u])

    found = []

    def extend(mapping):
        if len(mapping) == len(order):
            if all(mapping[mapping[v]] == v and side[mapping[v]] != side[v]
                   for v in verts):
                found.append(dict(mapping))
            return
        u = order[len(mapping)]
        for c in verts:
            if c not in mapping.values() and all(
                    (mapping[w] in adj[c]) == (w in adj[u]) for w in mapping):
                mapping[u] = c
                extend(mapping)
                del mapping[u]

    extend({})
    return found


def test_non_free_validation_matches_brute_force():
    # extra reflections drawn from the side-swapping involutions that
    # transpose an edge, tagged with a random nonempty set of those edges
    rng = random.Random(2718)
    bases = [cycle_reflection_graph(n) for n in range(4, 13, 2)]
    bases += [cube_reflection_graph(), k33_reflection_graph()]
    outcomes = {"free": 0, "not free": 0}
    for base in bases:
        extras = []
        for tau in _side_swapping_involutions(base):
            swaps = [(a, b) for a, b in base.edges if tau[a] == b]
            if swaps:
                extras.append((tau, swaps))
        for _ in range(12):
            added = []
            for tau, swaps in rng.sample(extras, rng.randint(1, 2)):
                tags = rng.sample(swaps, rng.randint(1, len(swaps)))
                added.append(Reflection(tau, tags))
            graph = ReflectionGraph(base.vertices, base.edges,
                                    base.reflections + tuple(added))
            for g in (graph, _relabelled(graph, rng)):
                expected = _brute_force_report(g)
                if expected is None:
                    outcomes["not free"] += 1
                    with pytest.raises(VertexStabilizerNontrivial):
                        validate_reflection_graph(g)
                    continue
                outcomes["free"] += 1
                report = validate_reflection_graph(g)
                assert (report.group_order, report.edge_classes,
                        report.parts, report.valence) == expected
    assert min(outcomes.values()) > 20


def test_construction_errors():
    with pytest.raises(GraphError):
        ReflectionGraph([0, 0], [], [])
    with pytest.raises(GraphError):
        ReflectionGraph([0, 1], [(0, 1), (1, 0)], [])
    with pytest.raises(GraphError):
        ReflectionGraph([0, 1], [(0, 2)], [])
    with pytest.raises(GraphError):
        ReflectionGraph([0, 1], [(0, 1)], [], ambient="R3")
    with pytest.raises(GraphError):
        cycle_reflection_graph(5)
    with pytest.raises(GraphError):
        cycle_reflection_graph(2)
    with pytest.raises(GraphError):
        lattice_reflection_graph(2, 4)
    with pytest.raises(GraphError):
        lattice_reflection_graph(4, 5)


def test_sizes_must_be_integers():
    # int() would build C6 for 6.9 and a 4 x 4 lattice for 4.5 x 4
    for size in (6.9, 6.0, True, "6"):
        with pytest.raises(GraphError, match="^cycle size must be an even "
                           "integer of at least 4$"):
            cycle_reflection_graph(size)
    for rows, cols in ((4.5, 4), (4, 4.0), (4, "4"), (float("inf"), 4)):
        with pytest.raises(GraphError, match="^lattice dimensions must be "
                           "even integers of at least 4$"):
            lattice_reflection_graph(rows, cols)
    edges, rotation = dipole(4)
    for n in (1.5, 1.0, True, float("inf")):
        with pytest.raises(GraphError) as info:
            bigon_bound_check(edges, rotation, n)
        assert str(info.value) == "n must be an integer, got %r" % (n,)
    assert bigon_bound_check(edges, rotation, 1).passed


# replicants

def test_cycle_replicant_matches_replicate():
    for size in (4, 6, 8):
        for template in (pieces.saucer_template("1/4"),
                         pieces.cylindrical_template("3")):
            g = cycle_reflection_graph(size)
            validate_reflection_graph(g)
            built = g_replicant(g, template)
            assert built.group_order == size
            direct = pieces.replicate(template, (size,))
            result = pieces.isomorphic(built.complex, direct)
            assert result.isomorphic
            assert pieces.verify_isomorphism(built.complex, direct,
                                             result.witness)


def test_prism_replicant_counts():
    g = product_p1(_validated(cycle_reflection_graph(6)))
    y = pieces.PieceTemplate(
        "Y", ((1, 2), (1, 2), (1, 2)),
        (((1, 1), (2, 1)), ((1, 2), (3, 1)), ((2, 2), (3, 2))))
    built = g_replicant(g, y)
    assert len(built.complex.copies) == 12
    assert len(built.complex.gluings) == 18
    assert built.group_order == 12
    assert not built.complex.unglued_slots()


def _validated(g):
    validate_reflection_graph(g)
    return g


def test_lattice_replicant_matches_replicate():
    g = _validated(lattice_reflection_graph(4, 4))
    template = pieces.square_template("B")
    built = g_replicant(g, template)
    assert built.group_order == 16
    direct = pieces.replicate(template, (4, 4))
    result = pieces.isomorphic(built.complex, direct)
    assert result.isomorphic
    assert pieces.verify_isomorphism(built.complex, direct, result.witness)


def test_replicant_guards():
    fresh = cycle_reflection_graph(6)
    saucer = pieces.saucer_template("t")
    with pytest.raises(NotValidated):
        g_replicant(fresh, saucer)
    g = _validated(cycle_reflection_graph(6))
    with pytest.raises(ValenceMismatch):
        g_replicant(g, pieces.square_template("sq"))


# products

def test_product_p1_prism():
    prism = product_p1(_validated(cycle_reflection_graph(6)))
    report = prism._report
    assert report is not None
    assert len(prism.vertices) == 12
    assert report.valence == 3
    assert report.group_order == 12
    assert len(report.edge_classes) == 3
    assert len(report.parts[0]) == len(report.parts[1]) == 6


def test_product_p1_chain_to_lattice():
    for n in (2, 3):
        g = _validated(cycle_reflection_graph(2 * n))
        prism = product_p1(g)
        hyper = product_p1(prism)
        assert len(hyper.vertices) == 8 * n
        assert hyper._report.valence == 4
        assert hyper._report.group_order == 8 * n
        lattice = _validated(lattice_reflection_graph(2 * n, 4))
        mapping = graph_isomorphic(hyper, lattice)
        assert mapping is not None
        edge_set = set(lattice.edges)
        for u, v in hyper.edges:
            image = (mapping[u], mapping[v])
            assert image in edge_set or image[::-1] in edge_set


def test_product_requires_validation():
    with pytest.raises(NotValidated):
        product_p1(cycle_reflection_graph(6))


def reference_product_p1(graph):
    """``product_p1`` built from label dicts: each lifted mapping looks up
    every vertex's image in the reflection's mapping."""
    layers = (0, 1)
    vertices = [(v, i) for i in layers for v in graph.vertices]
    edges = [((u, i), (v, i)) for i in layers for u, v in graph.edges]
    edges += [((v, 0), (v, 1)) for v in graph.vertices]
    reflections = []
    for refl in graph.reflections:
        mapping = {(v, i): (refl.mapping[v], i)
                   for i in layers for v in graph.vertices}
        swaps = [((a, i), (b, i)) for i in layers for a, b in refl.swaps]
        reflections.append(Reflection(mapping, swaps))
    flip = {(v, i): (v, 1 - i) for i in layers for v in graph.vertices}
    vertical = [((v, 0), (v, 1)) for v in graph.vertices]
    reflections.append(Reflection(flip, vertical))
    out = ReflectionGraph(vertices, edges, reflections, graph.ambient)
    validate_reflection_graph(out)
    return out


def test_product_p1_agrees_with_the_label_dict_reference():
    bases = [cycle_reflection_graph(size) for size in range(4, 13, 2)]
    bases += [lattice_reflection_graph(4, 4), lattice_reflection_graph(6, 8),
              nested_cycle()]
    for base in bases:
        validate_reflection_graph(base)
        got, want = product_p1(base), reference_product_p1(base)
        assert got.vertices == want.vertices
        assert got.edges == want.edges
        assert ([(r.mapping, r.swaps) for r in got.reflections]
                == [(r.mapping, r.swaps) for r in want.reflections])
        assert got._report == want._report


def test_graph_isomorphic_rejects():
    a = _validated(cycle_reflection_graph(6))
    b = _validated(cycle_reflection_graph(8))
    assert graph_isomorphic(a, b) is None
    path = (range(4), [(0, 1), (1, 2), (2, 3)])
    star = (range(4), [(0, 1), (0, 2), (0, 3)])
    assert graph_isomorphic(path, star) is None
    assert graph_isomorphic(path, (range(4), [(3, 2), (0, 1), (2, 1)]))
    # same degrees, so only an exhausted search can refuse
    hexagon = (range(6), [(v, (v + 1) % 6) for v in range(6)])
    triangles = (range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert graph_isomorphic(hexagon, triangles) is None
    # answered None, though the first graph is no graph
    with pytest.raises(GraphError, match="^duplicate vertex 0$"):
        graph_isomorphic(([0, 0, 1], [(0, 1)]), (range(3), [(0, 1)]))


@pytest.mark.parametrize("edges, message", [
    ([(0, 5)], "edge (0, 5) has an endpoint that is not a vertex"),
    ([(0, 1), (0, [1])], "edge (0, [1]) has an endpoint that is not a vertex"),
    ([(0, 1), (0, 1, 2)], "edge 1 must be a pair, got (0, 1, 2)"),
    ([5], "edge 0 must be a pair, got 5"),
    ([(0, 1), (1, 0)], "duplicate edge (0, 1)"),
], ids=["unknown endpoint", "unhashable endpoint", "edge of three",
        "no pair", "repeated edge"])
def test_graph_isomorphic_refuses_malformed_edges(edges, message):
    # a bare KeyError, TypeError or ValueError before; either side
    good = (range(2), [(0, 1)])
    for a, b in (((range(2), edges), good), (good, (range(2), edges))):
        with pytest.raises(GraphError) as info:
            graph_isomorphic(a, b)
        assert str(info.value) == message


@pytest.mark.parametrize("graph, message", [
    (([[0]], []), "vertex 0 is not hashable: [0]"),
    (((0, 1),), "a graph must be a pair, got ((0, 1),)"),
    (5, "a graph must be a pair, got 5"),
    ((5, []), "a graph must be a pair of vertices and edges, got (5, [])"),
], ids=["unhashable vertex", "one item", "not iterable", "no vertex list"])
def test_graph_isomorphic_refuses_malformed_pairs(graph, message):
    # a bare TypeError or ValueError before; either side
    good = (range(1), [])
    for a, b in ((graph, good), (good, graph)):
        with pytest.raises(GraphError) as info:
            graph_isomorphic(a, b)
        assert str(info.value) == message


def test_graph_isomorphic_does_not_recurse():
    rng = random.Random(1000)
    size = 1000
    labels = rng.sample(range(10 * size), size)
    edges = [(labels[v], labels[(v + 1) % size]) for v in range(size)]
    rng.shuffle(edges)
    copy = (rng.sample(labels, size), edges)
    cycle = (range(size), [(v, (v + 1) % size) for v in range(size)])
    mapping = graph_isomorphic(cycle, copy)
    assert mapping is not None
    assert sorted(mapping) == list(range(size))
    assert sorted(mapping.values()) == sorted(labels)
    edge_set = {frozenset(e) for e in edges}
    assert all(frozenset((mapping[u], mapping[v])) in edge_set
               for u, v in cycle[1])


def scan_all_isomorphic(a, b):
    """The search before candidates were checked against u's mapped
    neighbours only: each candidate is compared with every mapped
    vertex."""
    va, ma, adj_a = graphs_module._adjacency_sets(a)
    vb, mb, adj_b = graphs_module._adjacency_sets(b)
    if len(va) != len(vb) or ma != mb:
        return None
    if sorted(map(len, adj_a)) != sorted(map(len, adj_b)):
        return None
    order = []
    seen = set()
    for root in range(len(va)):
        if root not in seen:
            seen.add(root)
            queue = [root]
            for u in queue:
                for w in sorted(adj_a[u]):
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            order += queue
    mapping = {}

    def search(k):
        if k == len(order):
            return True
        u = order[k]
        mapped = [mapping[w] for w in adj_a[u] if w in mapping]
        candidates = set(range(len(vb)))
        for img in mapped:
            candidates &= adj_b[img]
        for c in sorted(candidates - set(mapping.values())):
            if len(adj_b[c]) != len(adj_a[u]):
                continue
            if any((mapping[w] in adj_b[c]) != (w in adj_a[u])
                   for w in mapping):
                continue
            mapping[u] = c
            if search(k + 1):
                return True
            del mapping[u]
        return False

    if not search(0):
        return None
    return {va[u]: vb[c] for u, c in mapping.items()}


def degree_preserving_shuffle(rng, edges, swaps):
    """``edges`` after ``swaps`` tries at a double edge swap: the same
    degree sequence, often another graph."""
    edges = [tuple(e) for e in edges]
    present = {frozenset(e) for e in edges}
    for _ in range(swaps):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if len({a, b, c, d}) < 4 or frozenset((a, d)) in present \
                or frozenset((c, b)) in present:
            continue
        present -= {frozenset((a, b)), frozenset((c, d))}
        present |= {frozenset((a, d)), frozenset((c, b))}
        edges[i], edges[j] = (a, d), (c, b)
    return edges


def test_graph_isomorphic_matches_the_scan_of_every_mapped_vertex():
    rng = random.Random(2718)
    verdicts = Counter()
    for _ in range(300):
        n = rng.randint(4, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, rng.randint(n - 1, min(len(pairs),
                                                         2 * n)))
        other = degree_preserving_shuffle(rng, edges, rng.choice((0, 40)))
        labels = rng.sample(range(100), n)
        other = [(labels[u], labels[v]) for u, v in other]
        rng.shuffle(other)
        a = (range(n), edges)
        b = (rng.sample(labels, n), other)
        got = graph_isomorphic(a, b)
        assert got == scan_all_isomorphic(a, b)
        verdicts[got is not None] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50


def brute_force_isomorphic(a, b):
    """Whether some bijection of positions carries the edges of ``a``
    onto those of ``b``, trying every permutation."""
    (va, ea), (vb, eb) = a, b
    if len(va) != len(vb):
        return False
    pa, pb = {v: i for i, v in enumerate(va)}, {v: i for i, v in enumerate(vb)}
    edges_b = {frozenset((pb[u], pb[v])) for u, v in eb}
    return len(ea) == len(eb) and any(
        {frozenset((p[pa[u]], p[pa[v]])) for u, v in ea} == edges_b
        for p in itertools.permutations(range(len(va))))


def assert_isomorphism(mapping, a, b):
    """``mapping`` is a bijection of a's vertices onto b's that carries
    each edge of ``a`` onto an edge of ``b`` and meets every one."""
    (va, ea), (vb, eb) = a, b
    assert sorted(mapping) == sorted(va)
    assert sorted(mapping.values()) == sorted(vb)
    images = [frozenset((mapping[u], mapping[v])) for u, v in ea]
    edges_b = {frozenset(e) for e in eb}
    assert all(image in edges_b for image in images)
    assert len(set(images)) == len(edges_b)


def test_graph_isomorphic_agrees_with_every_permutation():
    graphs = []
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for k in range(len(pairs) + 1):
            graphs += ((range(n), list(edges))
                       for edges in itertools.combinations(pairs, k))
    assert len(graphs) == 1 + 1 + 2 + 8 + 64
    verdicts = Counter()
    for a in graphs:
        for b in graphs:
            mapping = graph_isomorphic(a, b)
            assert (mapping is not None) == brute_force_isomorphic(a, b)
            if mapping is not None:
                assert_isomorphism(mapping, a, b)
            verdicts[mapping is not None] += 1
    assert verdicts[True] > 300


def test_graph_isomorphic_agrees_with_every_permutation_with_loops():
    rng = random.Random(3141)
    verdicts = Counter()
    for _ in range(150):
        n = rng.randint(5, 6)
        pairs = list(itertools.combinations_with_replacement(range(n), 2))
        m = rng.randint(n - 1, 2 * n)
        edges = rng.sample(pairs, m)
        labels = rng.sample(range(100), n)
        if rng.random() < 0.5:  # a relabelled copy, or a random graph
            other = [(labels[u], labels[v]) for u, v in edges]
        else:
            other = [(labels[u], labels[v]) for u, v in rng.sample(pairs, m)]
        rng.shuffle(other)
        a, b = (range(n), edges), (rng.sample(labels, n), other)
        mapping = graph_isomorphic(a, b)
        assert (mapping is not None) == brute_force_isomorphic(a, b)
        if mapping is not None:
            assert_isomorphism(mapping, a, b)
        verdicts[mapping is not None] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50


# serialization

def nested_cycle():
    """The 6-cycle relabelled with tuples nested two deep."""
    c6 = cycle_reflection_graph(6)
    nest = {v: ("v", (v, (v % 2,))) for v in c6.vertices}
    return ReflectionGraph(
        [nest[v] for v in c6.vertices],
        [(nest[u], nest[v]) for u, v in c6.edges],
        [Reflection({nest[k]: nest[w] for k, w in r.mapping.items()},
                    [(nest[a], nest[b]) for a, b in r.swaps])
         for r in c6.reflections])


def test_graph_json_roundtrip():
    import json
    c6 = cycle_reflection_graph(6)
    for g in (c6, product_p1(_validated(cycle_reflection_graph(4))),
              k33_reflection_graph(), nested_cycle()):
        data = graph_to_json_dict(g)
        # lists all the way down: no tuple survives into the dictionary
        assert json.loads(json.dumps(data)) == data
        back = graph_from_json_dict(data)
        assert back.vertices == g.vertices
        assert back.edges == g.edges
        assert back.ambient == g.ambient
        assert graph_to_json_dict(back) == data
        report = validate_reflection_graph(back)
        assert report == validate_reflection_graph(g)


def test_graph_json_malformed():
    with pytest.raises(GraphError):
        graph_from_json_dict({"vertices": [0, 1]})
    with pytest.raises(GraphError):
        graph_from_json_dict({"vertices": [0, 1], "edges": [[0]],
                              "reflections": []})


@pytest.mark.parametrize("build, message", [
    (lambda: ReflectionGraph([0, 1], [(0, 1), (0, 1, 2)], []),
     "edge 1 must be a pair, got (0, 1, 2)"),
    (lambda: ReflectionGraph([0, 1], [(0, [1])], []),
     "edge (0, [1]) has an endpoint that is not a vertex"),
    (lambda: ReflectionGraph([0, 1], [(0, 1)], [{"swaps": [(0, 1)]}]),
     "reflection 0 has no mapping"),
    (lambda: ReflectionGraph([0, 1], [(0, 1)], [({0: 1, 1: 0}, [(0, 1)]), 5]),
     "reflection 1 must be a pair, got 5"),
    (lambda: ReflectionGraph([0, 1], [(0, 1)],
                             [({0: 1, 1: 0}, [(0, 1), (0, 1, 0)])]),
     "reflection 0: swap 1 must be a pair, got (0, 1, 0)"),
    (lambda: ReflectionGraph([0, 1], [(0, 1)], [{"mapping": [(0, 1, 0)]}]),
     "reflection 0: mapping must be a dict or pairs of vertices, got "
     "[(0, 1, 0)]"),
    (lambda: Reflection({0: 1}, [(0, 1, 2)]),
     "swap 0 must be a pair, got (0, 1, 2)"),
    (lambda: graph_from_json_dict({"vertices": [0, {"a": 1}], "edges": [],
                                   "reflections": []}),
     "vertex 1 is not hashable: {'a': 1}"),
    (lambda: graph_from_json_dict({"vertices": [0, 1],
                                   "edges": [[0, 1], [1, 0, 1]],
                                   "reflections": []}),
     "edge 1 must be a pair, got (1, 0, 1)"),
    (lambda: graph_from_json_dict({
        "vertices": [0, 1], "edges": [[0, 1]],
        "reflections": [{"mapping": [[0, 1], [1, 0]],
                         "swaps": [[0, 1, 0]]}]}),
     "reflection 0: swap 0 must be a pair, got (0, 1, 0)"),
], ids=["edge of three", "unhashable endpoint", "no mapping",
        "reflection of another kind", "swap of three", "mapping of threes",
        "bare reflection", "json object vertex", "json edge of three",
        "json swap of three"])
def test_graph_parts_of_the_wrong_shape_are_refused_by_index(build, message):
    # each of these ended in a bare KeyError, TypeError or ValueError, or
    # in "too many values to unpack" from the JSON reader
    with pytest.raises(GraphError) as info:
        build()
    assert str(info.value) == message


def test_edges_are_stored_by_their_end_positions():
    # each edge oriented lower position first, sorted by that pair
    graph = ReflectionGraph("abcd", [("d", "a"), ("c", "b"), ("b", "a"),
                                     ("d", "c")], ())
    assert graph.edges == (("a", "b"), ("a", "d"), ("b", "c"), ("c", "d"))


@pytest.mark.parametrize("value, text", [
    (Reflection({0: 1, 1: 0}, [(0, 1)]), "Reflection(2 vertices, 1 swaps)"),
    (cycle_reflection_graph(4),
     "ReflectionGraph(4 vertices, 4 edges, 2 reflections, S3)"),
], ids=["reflection", "graph"])
def test_graph_reprs(value, text):
    assert repr(value) == text


def test_a_face_report_equals_no_other_type():
    report = trace_faces(*dipole(4))
    assert report != tuple(report)
    assert not report == "report"


UNHASHABLE_IMAGE = {"vertices": [0, 1], "edges": [[0, 1]],
                    "reflections": [{"mapping": [[0, {}], [1, 0]],
                                     "swaps": [[0, 1]]}]}
UNHASHABLE_TAG = {"vertices": [0, 1], "edges": [[0, 1]],
                  "reflections": [{"mapping": [[0, 1], [1, 0]],
                                   "swaps": [[0, {}]]}]}


@pytest.mark.parametrize("data, message", [
    (UNHASHABLE_IMAGE, "reflection 0 is not a permutation of the vertex set"),
    (UNHASHABLE_TAG, "reflection 0 tags (0, {}), which is not an edge"),
], ids=["mapping value", "swap endpoint"])
def test_unhashable_reflection_parts_are_refused(data, message):
    # both ended in a bare "TypeError: unhashable type: 'dict'"
    graph = graph_from_json_dict(data)
    with pytest.raises(BadReflection) as info:
        validate_reflection_graph(graph)
    assert str(info.value) == message


def reference_graph_from_json_dict(data):
    """The JSON reader reading every mapping entry by entry, each label
    recast with ``_vertex_in``: the reference ``graph_from_json_dict``
    must agree with, graph for graph and error for error."""
    vertex_in, pair_in = graphs_module._vertex_in, graphs_module._pair_in
    try:
        vertices = [vertex_in(v) for v in data["vertices"]]
        edges = [pair_in(e) for e in data["edges"]]
        reflections = [({vertex_in(k): vertex_in(w)
                         for k, w in item["mapping"]},
                        [pair_in(swap) for swap in item["swaps"]])
                       for item in data["reflections"]]
        ambient = data.get("ambient", "S3")
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError("malformed graph JSON: %s" % exc) from None
    return ReflectionGraph(vertices, edges, reflections, ambient)


def typed(x):
    """``x`` with the exact type of every value in it, at any depth."""
    if isinstance(x, dict):
        return dict, [(typed(k), typed(w)) for k, w in x.items()]
    if isinstance(x, (list, tuple)):
        return type(x), [typed(y) for y in x]
    return type(x), x


def read_outcome(reader, data):
    """What ``reader`` makes of ``data``: every part of the graph with its
    types and order, or the class and message of its refusal."""
    try:
        g = reader(data)
    except Exception as exc:
        return type(exc), str(exc)
    return (typed(g.vertices), typed(g.edges), g.ambient,
            [(typed(r.mapping), typed(r.swaps)) for r in g.reflections])


class HashableList(list):
    """A list subclass that can be a dict key."""
    def __hash__(self):
        return hash(tuple(self))


class ListLabel(list):
    pass


def one_mapping(mapping):
    """A two-vertex graph whose one reflection has ``mapping``."""
    return {"vertices": [0, 1], "edges": [[0, 1]],
            "reflections": [{"mapping": mapping, "swaps": [[0, 1]]}]}


# name: (a new copy of the mapping, whether the reader refuses it)
MAPPINGS = {
    "list key": (lambda: [[HashableList([0]), 1], [1, 0]], False),
    "list subclass value": (lambda: [[0, ListLabel([1, [2]])], [1, 0]],
                            False),
    "list value": (lambda: [[0, [1]], [1, 0]], False),
    "list in a tuple value": (lambda: [[0, (1, [2])], [1, 0]], False),
    "repeated keys": (lambda: [[0, 1], [1, 0], [0, 0], [1.0, 1], [True, 5]],
                      False),
    "tuple entries": (lambda: [(0, 1), (1, 0)], False),
    "tuple": (lambda: ([0, 1], [1, 0]), False),
    "generator": (lambda: (p for p in [[0, 1], [1, 0]]), False),
    "dict": (lambda: {0: 1, 1: 0}, True),
    "dict of pairs": (lambda: {(0, 1): None, (1, 0): None}, False),
    "string": (lambda: "01", True),
    "string entries": (lambda: ["01", "10"], False),
    "iterator entries": (lambda: [iter([0, 1]), iter([1])], True),
    "entry of one": (lambda: [[0, 1], [1]], True),
    "entry of three": (lambda: [[0, 1], [1, 0, 1]], True),
    "int": (lambda: 5, True),
    "int entry": (lambda: [[0, 1], 5], True),
    "unhashable key": (lambda: [[0, 1], [{}, 0]], True),
    "unhashable nested key": (lambda: [[[0, {}], 1], [1, 0]], True),
    "unhashable value": (lambda: [[0, {}], [1, 0]], False),
}


def test_the_reader_agrees_with_the_reference_on_every_cli_fixture(tmp_path):
    import json
    import cli_parity
    cli_parity.build_fixtures(str(tmp_path))
    paths = sorted(tmp_path.glob("graph-*.json"))
    assert len(paths) > 20
    for path in paths:
        data = json.loads(path.read_text())
        assert (read_outcome(graph_from_json_dict, data)
                == read_outcome(reference_graph_from_json_dict, data)), path


def test_the_reader_agrees_with_the_reference_on_nested_labels():
    data = graph_to_json_dict(nested_cycle())
    assert (read_outcome(graph_from_json_dict, data)
            == read_outcome(reference_graph_from_json_dict, data))
    back = graph_from_json_dict(data)
    assert [r.mapping for r in back.reflections] \
        == [r.mapping for r in nested_cycle().reflections]


def test_every_read_cli_fixture_returns_its_mappings(tmp_path):
    # a mapping stored as a permutation is written back over the vertices,
    # and one that is no permutation is returned as it was given
    import json
    import cli_parity
    cli_parity.build_fixtures(str(tmp_path))
    vertex_in = graphs_module._vertex_in
    validated = 0
    for path in sorted(tmp_path.glob("graph-*.json")):
        data = json.loads(path.read_text())
        try:
            g = graph_from_json_dict(data)
        except GraphError:
            continue
        given = [{vertex_in(k): vertex_in(w) for k, w in item["mapping"]}
                 for item in data["reflections"]]
        assert [dict(r.mapping) for r in g.reflections] == given, path
        try:
            validate_reflection_graph(g)
        except GraphError:
            continue
        validated += 1
    assert validated >= 5


def test_a_mapping_that_is_no_permutation_is_kept_as_given():
    g = cycle_reflection_graph(8)
    first = g.reflections[0]
    stray = Reflection(dict(first.mapping, stray=0), first.swaps)
    backwards = Reflection(sorted(stray.mapping.items(), key=repr,
                                  reverse=True), first.swaps)
    for marker in (stray, backwards):
        bad = ReflectionGraph(g.vertices, g.edges,
                              list(g.reflections) + [marker])
        kept = bad.reflections[-1]
        assert kept is not marker
        assert list(kept.mapping.items()) == list(marker.mapping.items())
        assert kept.swaps == marker.swaps
        data = graph_to_json_dict(bad)
        assert data["reflections"][-1] == {
            "mapping": [[k, w] for k, w in marker.mapping.items()],
            "swaps": [list(swap) for swap in marker.swaps]}
        assert graph_to_json_dict(graph_from_json_dict(data)) == data
        with pytest.raises(BadReflection) as info:
            validate_reflection_graph(bad)
        assert str(info.value) == \
            "reflection 4 is not a permutation of the vertex set"


def test_a_marker_changed_after_the_build_leaves_the_graph_as_built():
    g = cycle_reflection_graph(8)
    first = g.reflections[0]
    for as_reflection in (False, True):
        given = dict(first.mapping, stray=0)
        marker = Reflection(given, first.swaps) if as_reflection \
            else (given, list(first.swaps))
        bad = ReflectionGraph(g.vertices, g.edges,
                              list(g.reflections) + [marker])
        data = graph_to_json_dict(bad)
        assert data["reflections"][-1]["mapping"][-1] == ["stray", 0]
        held = marker.mapping if as_reflection else given
        for mapping in (held, bad.reflections[-1].mapping):
            mapping[0] = 5
            del mapping["stray"]
        if as_reflection:
            marker.swaps = ()
        assert bad.reflections[-1] is not bad.reflections[-1]
        assert graph_to_json_dict(bad) == data
        with pytest.raises(BadReflection) as info:
            validate_reflection_graph(bad)
        assert str(info.value) == \
            "reflection 4 is not a permutation of the vertex set"


def test_a_validated_graph_cannot_be_changed_through_what_it_returns():
    g = _validated(cycle_reflection_graph(6))
    data = graph_to_json_dict(g)
    g.reflections[0].mapping[0] = 0
    assert graph_to_json_dict(g) == data
    validate_reflection_graph(
        ReflectionGraph(g.vertices, g.edges, g.reflections))
    with pytest.raises(AttributeError):
        g.reflections = ()
    assert g.reflections[0] is not g.reflections[0]


@pytest.mark.parametrize("name", list(MAPPINGS))
def test_the_reader_agrees_with_the_reference_on_every_mapping(name):
    make, refused = MAPPINGS[name]
    new = read_outcome(graph_from_json_dict, one_mapping(make()))
    assert new == read_outcome(reference_graph_from_json_dict,
                               one_mapping(make()))
    assert (new[0] is GraphError
            and new[1].startswith("malformed graph JSON: ")) == refused


def test_a_mapping_of_plain_labels_is_not_read_label_by_label(monkeypatch):
    calls = []
    vertex_in = graphs_module._vertex_in

    def counted(v):
        calls.append(v)
        return vertex_in(v)

    monkeypatch.setattr(graphs_module, "_vertex_in", counted)
    g = cycle_reflection_graph(8)
    graph_from_json_dict(graph_to_json_dict(g))
    swaps = sum(len(r.swaps) for r in g.reflections)
    # the vertices, both ends of every edge and swap, and no mapping entry
    assert len(calls) == len(g.vertices) + 2 * len(g.edges) + 2 * swaps


# face tracing

def test_trace_faces_fixtures():
    edges, rotation = dipole(4)
    report = trace_faces(edges, rotation)
    assert report.vector == ((2, 4),)
    assert report.euler == 2
    assert report.bipartite

    edges, rotation = dipole(4, planar=False)
    report = trace_faces(edges, rotation)
    assert report.vector == ((2, 1), (6, 1))
    assert report.euler == 0

    edges, rotation = grid_torus()
    report = trace_faces(edges, rotation)
    assert report.vector == ((4, 4),)
    assert report.euler == 0
    assert report.bipartite

    edges, rotation = octahedron()
    report = trace_faces(edges, rotation)
    assert report.vector == ((3, 8),)
    assert report.euler == 2
    assert not report.bipartite

    loops = [("w", "w")] * 3
    rotation = {"w": [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]}
    report = trace_faces(loops, rotation)
    assert report.vector == ((3, 2),)
    assert report.euler == 0
    assert not report.bipartite


def test_trace_faces_cube_squares():
    edges = []
    for v in range(8):
        for b in range(3):
            w = v ^ (1 << b)
            if v < w:
                edges.append((v, w))
    index = {e: k for k, e in enumerate(edges)}
    rotation = {}
    for v in range(8):
        bits = [0, 1, 2] if bin(v).count("1") % 2 == 0 else [2, 1, 0]
        ends = []
        for b in bits:
            w = v ^ (1 << b)
            ends.append((index[(min(v, w), max(v, w))], 0 if v < w else 1))
        rotation[v] = ends
    report = trace_faces(edges, rotation)
    assert report.vector == ((4, 6),)
    assert report.euler == 2
    assert report.bipartite


def test_trace_faces_k4_triangles():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    index = {e: k for k, e in enumerate(edges)}
    orders = {0: [1, 2, 3], 1: [0, 3, 2], 2: [0, 1, 3], 3: [0, 2, 1]}
    rotation = {}
    for v, nbrs in orders.items():
        rotation[v] = [(index[(min(v, w), max(v, w))], 0 if v < w else 1)
                       for w in nbrs]
    report = trace_faces(edges, rotation)
    assert report.vector == ((3, 4),)
    assert report.euler == 2
    assert not report.bipartite


def test_trace_faces_random_invariants():
    rng = random.Random(1812)
    for _ in range(60):
        order = rng.randrange(2, 6)
        count = rng.randrange(1, 9)
        edges = [tuple(rng.sample(range(order), 2)) if rng.random() < 0.8
                 else (v := rng.randrange(order), v)
                 for _ in range(count)]
        ends = {v: [] for v in range(order)}
        for e, (u, v) in enumerate(edges):
            ends[u].append((e, 0))
            ends[v].append((e, 1))
        rotation = {}
        for v, mine in ends.items():
            if not mine:
                continue
            rng.shuffle(mine)
            rotation[v] = mine
        report = trace_faces(edges, rotation)
        assert sum(length * n for length, n in report.vector) == 2 * count
        assert sum(n for _, n in report.vector) == len(report.faces)
        assert report.euler % 2 == 0
        darts = [d for face in report.faces for d in face]
        assert sorted(darts) == sorted((e, s) for e in range(count)
                                       for s in (0, 1))


def test_incomplete_rotation():
    edges = [("u", "v")]
    cases = [
        ({"u": [(0, 0)]},
         "end (0, 1) is missing from the rotation at 'v'"),
        ({"u": [(0, 0), (0, 0)], "v": [(0, 1)]},
         "end (0, 0) appears more than once"),
        ({"u": [(0, 1)], "v": [(0, 0)]},
         "end (0, 1) listed at 'u' but edge 0 puts it at 'v'"),
        ({"u": [(0, 0), (1, 0)], "v": [(0, 1)]},
         "unknown edge end (1, 0) at 'u'"),
        ({"u": [(0, 0)], "v": [(0, 2)]},
         "unknown edge end (0, 2) at 'v'"),
        # int() would trace these as (0, 1), or fail naming no end
        ({"u": [(0, 0)], "v": [(0.9, True)]},
         "unknown edge end (0.9, True) at 'v'"),
        ({"u": [(0, 0)], "v": [(0, True)]},
         "unknown edge end (0, True) at 'v'"),
        ({"u": [("x", 0)], "v": [(0, 1)]},
         "unknown edge end ('x', 0) at 'u'"),
        ({"u": [(0, 0)], "v": [("0", "1")]},
         "unknown edge end ('0', '1') at 'v'"),
    ]
    for rotation, message in cases:
        with pytest.raises(IncompleteRotation) as info:
            trace_faces(edges, rotation)
        assert str(info.value) == message


@pytest.mark.parametrize("edge", [(0,), ("u", "v", "w"), 5, None],
                         ids=["one entry", "three entries", "int", "None"])
def test_an_edge_that_is_not_a_pair_is_refused_by_index(edge):
    # a short edge ended in a bare IndexError, a long one in a bare
    # ValueError and a number in a bare TypeError
    edges, rotation = dipole(4)
    edges[2] = edge
    message = "edge 2 must be a pair, got %r" % (edge,)
    for call in (trace_faces, torus_boundary_check,
                 lambda e, r: bigon_bound_check(e, r, 1)):
        with pytest.raises(GraphError) as info:
            call(edges, rotation)
        assert type(info.value) is GraphError
        assert str(info.value) == message
    with pytest.raises(GraphError, match=r"^edge 0 must be a pair, got "
                       r"\(0, 1, 2\)$"):
        trace_faces([(0, 1, 2)], {0: [(0, 0)], 1: [(0, 1)]})


@pytest.mark.parametrize("edges, rotation, kind, message", [
    ([(0, 1)], {0: [(0,)], 1: [(0, 1)]}, IncompleteRotation,
     "edge end (0,) at 0 is not a pair"),
    ([(0, 1)], {0: [(0, 0)], 1: [(0, 1, 0)]}, IncompleteRotation,
     "edge end (0, 1, 0) at 1 is not a pair"),
    ([(0, 1)], {0: [(0, 0)], 1: [5]}, IncompleteRotation,
     "edge end 5 at 1 is not a pair"),
    ([(0, 1)], {0: 5, 1: [(0, 1)]}, IncompleteRotation,
     "the rotation at 0 is not a list of edge ends"),
    ([(0, 1)], {0: {(0, 0)}, 1: [(0, 1)]}, IncompleteRotation,
     "the rotation at 0 is not a list of edge ends"),
    ([(0, 1)], [(0, [(0, 0)]), (1, [(0, 1)])], GraphError,
     "rotation must be a dict, got list"),
    (None, {}, GraphError, "edges must be a sequence of pairs, got None"),
], ids=["short end", "long end", "int end", "int rotation", "set rotation",
        "rotation list", "edges None"])
def test_malformed_rotations_are_refused_by_name(edges, rotation, kind,
                                                 message):
    # each ended in a bare ValueError, TypeError or AttributeError, but
    # the set, which was traced in its arbitrary iteration order
    for call in (trace_faces, torus_boundary_check,
                 lambda e, r: bigon_bound_check(e, r, 1)):
        with pytest.raises(GraphError) as info:
            call(edges, rotation)
        assert type(info.value) is kind
        assert str(info.value) == message


def reference_faces(edges, rotation):
    """Face tracing on (e, s) tuples, kept as the reference the integer
    dart tracer must agree with, result for result and error for error."""
    pairs = []
    for i, e in enumerate(edges):
        try:
            u, v = e
        except (TypeError, ValueError):
            raise GraphError("edge %d must be a pair, got %r" % (i, e)) \
                from None
        pairs.append((u, v))
    edges = pairs
    place = {}
    rings = {}
    for v, ends in rotation.items():
        if not isinstance(ends, (list, tuple)):
            raise IncompleteRotation(
                "the rotation at %r is not a list of edge ends" % (v,))
        rings[v] = []
        for i, end in enumerate(ends):
            try:
                e, s = end
            except (TypeError, ValueError):
                raise IncompleteRotation(
                    "edge end %r at %r is not a pair" % (end, v)) from None
            if type(e) is not int or type(s) is not int \
                    or not 0 <= e < len(edges) or s not in (0, 1):
                raise IncompleteRotation(
                    "unknown edge end (%r, %r) at %r" % (e, s, v))
            if edges[e][s] != v:
                raise IncompleteRotation(
                    "end (%d, %d) listed at %r but edge %d puts it at %r"
                    % (e, s, v, e, edges[e][s]))
            if (e, s) in place:
                raise IncompleteRotation(
                    "end (%d, %d) appears more than once" % (e, s))
            place[(e, s)] = (v, i)
            rings[v].append((e, s))
    for e in range(len(edges)):
        for s in (0, 1):
            if (e, s) not in place:
                raise IncompleteRotation(
                    "end (%d, %d) is missing from the rotation at %r"
                    % (e, s, edges[e][s]))

    faces = []
    traced = set()
    for start in sorted(place):
        if start in traced:
            continue
        walk = []
        dart = start
        while True:
            walk.append(dart)
            traced.add(dart)
            e, s = dart
            v, i = place[(e, 1 - s)]
            ends = rings[v]
            dart = ends[(i + 1) % len(ends)]
            if dart == start:
                break
        faces.append(tuple(walk))

    lengths = Counter(len(f) for f in faces)
    euler = len(rotation) - len(edges) + len(faces)

    # a plain breadth-first two-colouring on labels, shared with nothing
    # in the module under test
    adj = {v: [] for v in rotation}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colour = {}
    bipartite = True
    reached = 0
    for root in rotation:
        if root in colour:
            continue
        colour[root] = 0
        queue = [root]
        for u in queue:
            for w in adj[u]:
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    queue.append(w)
                elif colour[w] == colour[u]:
                    bipartite = False
        reached = reached or len(queue)
    if bipartite and any(k % 2 for k in lengths):
        raise InvariantViolation(
            "odd face lengths %s on a bipartite graph"
            % sorted(k for k in lengths if k % 2))

    return graphs_module.FaceReport(
        tuple(faces), tuple(sorted(lengths.items())), euler,
        bipartite), reached


def random_rotation_system(rng):
    """A random rotation system with loops, repeated edges and vertices
    whose rotation is empty, in a shuffled vertex order."""
    order = rng.randrange(1, 7)
    edges = []
    for _ in range(rng.randrange(10)):
        roll = rng.random()
        if roll < 0.2 or order == 1:
            v = rng.randrange(order)
            edges.append((v, v))
        elif roll < 0.4 and edges:
            edges.append(rng.choice(edges))
        else:
            edges.append(tuple(rng.sample(range(order), 2)))
    ends = {v: [] for v in range(order)}
    for e, (u, v) in enumerate(edges):
        ends[u].append((e, 0))
        ends[v].append((e, 1))
    vertices = list(ends)
    rng.shuffle(vertices)
    rotation = {}
    for v in vertices:
        rng.shuffle(ends[v])
        rotation[v] = ends[v]
    return edges, rotation


def corrupt(rng, edges, rotation):
    """``(edges, rotation)`` with one random fault; the inputs are left
    as they are."""
    edges = list(edges)
    rotation = {v: list(ends) for v, ends in rotation.items()}
    vertices = list(rotation) or ["stray"]
    v = rng.choice(vertices)
    rotation.setdefault(v, [])
    listed = [u for u in vertices if rotation[u]]
    kind = rng.randrange(11)
    if kind == 0 and listed:  # an end listed twice
        u = rng.choice(listed)
        rotation[rng.choice(listed)].append(rng.choice(rotation[u]))
    elif kind == 1 and listed:  # an end left out
        u = rng.choice(listed)
        rotation[u].pop(rng.randrange(len(rotation[u])))
    elif kind == 2 and listed:  # an end moved to another vertex
        u = rng.choice(listed)
        rotation[v].append(rotation[u].pop(rng.randrange(len(rotation[u]))))
    elif kind == 3:  # an edge that does not exist
        rotation[v].insert(0, (rng.choice([-1, len(edges)]), 0))
    elif kind == 4 and edges:  # an end other than 0 or 1
        rotation[v].append((rng.randrange(len(edges)), 2))
    elif kind == 5 and listed:  # an end that is no integer
        u = rng.choice(listed)
        i = rng.randrange(len(rotation[u]))
        e, s = rotation[u][i][0], rotation[u][i][-1]
        rotation[u][i] = rng.choice([("x", s), (e, None), (e, 1.5),
                                     (str(e), str(s)), (e,), (e, s, 0)])
    elif kind == 6 and edges:  # an edge that is not a pair
        e = rng.randrange(len(edges))
        pair = edges[e] if isinstance(edges[e], tuple) else (v, v)
        edges[e] = rng.choice([pair[:1], pair + (0,), (), 7])
    elif kind == 7:  # a vertex that no edge ends at
        rotation["stray"] = [(0, 0)] if edges else []
    elif kind == 8 and listed:  # a rotation reversed
        u = rng.choice(listed)
        rotation[u].reverse()
    elif kind == 9:  # an edge without ends
        edges.append((v, v))
    else:  # two faults at once, so that their order shows
        return corrupt(rng, *corrupt(rng, edges, rotation))
    return edges, rotation


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_face_tracing_matches_reference(monkeypatch):
    rng = random.Random(4410)
    systems = [grid_torus(r, c, rng) for r, c in
               [(1, 1), (1, 3), (2, 2), (3, 3), (4, 6), (51, 50)]]
    systems += [dipole(count, planar) for count in range(2, 9)
                for planar in (True, False)]
    systems += [grid_torus(), octahedron(),
                ([("w", "w")] * 3,
                 {"w": [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]}),
                ([], {}), ([], {"a": []}), ([], {"a": [], "b": []})]
    randoms = [random_rotation_system(rng) for _ in range(600)]
    systems += randoms
    for edges, rotation in systems[:] + randoms:
        for _ in range(2):
            systems.append(corrupt(rng, edges, rotation))

    calls = [lambda e, r: graphs_module._faces(e, r), torus_boundary_check,
             lambda e, r: bigon_bound_check(e, r, 1),
             lambda e, r: bigon_bound_check(e, r, 3)]
    refused = set()
    for edges, rotation in systems:
        new = [outcome(call, edges, rotation) for call in calls]
        with monkeypatch.context() as patch:
            patch.setattr(graphs_module, "_faces", reference_faces)
            old = [outcome(call, edges, rotation) for call in calls]
        assert new == old, (edges, rotation)
        if isinstance(new[0], tuple) and len(new[0]) == 2 \
                and isinstance(new[0][0], type):
            refused.add(new[0][0])
    # a rotation end that is not a pair is refused by name, an edge that
    # is not a pair by index
    assert refused == {IncompleteRotation, GraphError}


class Edge(NamedTuple):
    u: object
    v: object


# name: the edges of a system given in that shape
EDGE_SHAPES = {
    "list of tuples": list,
    "tuple of tuples": tuple,
    "list of lists": lambda edges: [list(e) for e in edges],
    "list of named tuples": lambda edges: [Edge(*e) for e in edges],
    "list subclass": ListLabel,
    "generator": lambda edges: (e for e in edges),
    "dict": lambda edges: {e: None for e in edges},
    "an edge of three": lambda edges: [edges[0] + (0,)] + list(edges[1:]),
    "an edge of one": lambda edges: list(edges[:-1]) + [edges[-1][:1]],
    "an int edge": lambda edges: list(edges[:-1]) + [7],
    "a string": lambda edges: "uv",
}


@pytest.mark.parametrize("shape", list(EDGE_SHAPES))
def test_edges_of_every_shape_are_read_as_the_reference_reads_them(shape):
    # a list or tuple of tuple pairs is checked at C speed, anything else
    # edge by edge; both read what the reference reads
    make = EDGE_SHAPES[shape]
    for edges, rotation in (dipole(4), grid_torus(2, 3), octahedron()):
        new = outcome(graphs_module._faces, make(edges), rotation)
        assert new == outcome(reference_faces, make(edges), rotation)


@pytest.mark.parametrize("rows, cols", [(200, 200), (51, 50)])
def test_face_list_is_built_from_the_report_alone(rows, cols):
    # the faces are listed on first access, after the caller's edges and
    # rotation are gone
    edges, rotation = grid_torus(rows, cols, random.Random(rows + cols))
    expected = reference_faces(edges, rotation)[0]
    report = trace_faces(edges, rotation)
    edges.clear()
    rotation.clear()
    assert report.faces == expected.faces
    assert report.vector == expected.vector == ((4, rows * cols),)
    assert report.bipartite == (rows % 2 == 0 and cols % 2 == 0)
    assert report == expected
    rebuilt = graphs_module.FaceReport(report.faces, report.vector,
                                       report.euler, report.bipartite)
    assert report == rebuilt and not report != rebuilt
    assert hash(report) == hash(rebuilt)
    assert repr(report) == repr(rebuilt)
    assert tuple(report) == (expected.faces, expected.vector, 0,
                             expected.bipartite)


# bigon bound

def test_bigon_bound_dipoles():
    for n in (1, 2, 3):
        edges, rotation = dipole(2 * (n + 1))
        check = bigon_bound_check(edges, rotation, n)
        assert check.passed
        assert check.bigons == check.required == 2 * (n + 1)
        assert check.report.euler == 2


def test_bigon_bound_fails_on_octahedron():
    edges, rotation = octahedron()
    check = bigon_bound_check(edges, rotation, 1)
    assert not check.passed
    assert check.bigons == 0
    assert check.required == 4


def test_bigon_bound_guards():
    edges, rotation = dipole(4)
    with pytest.raises(GraphError):
        bigon_bound_check(edges, rotation, 0)
    with pytest.raises(WrongValence):
        bigon_bound_check(edges, rotation, 2)
    edges, rotation = dipole(4, planar=False)
    with pytest.raises(NotSphere):
        bigon_bound_check(edges, rotation, 1)


def test_wrong_valence_names_the_vertex_of_least_repr():
    # "v" is listed first; both checks name "u", the least by repr
    edges, rotation = dipole(4)
    rotation = {"v": rotation["v"], "u": rotation["u"]}
    with pytest.raises(WrongValence,
                       match="^vertex 'u' has valence 4, expected 6$"):
        bigon_bound_check(edges, rotation, 2)
    theta = [("u", "v")] * 3
    rot = {"v": [(0, 1), (1, 1), (2, 1)], "u": [(0, 0), (1, 0), (2, 0)]}
    verdict = torus_boundary_check(theta, rot)
    assert (verdict.reason, verdict.detail) == (
        "WrongValence", "vertex 'u' has valence 3, expected 4")


# torus boundary

def test_torus_boundary_grid_accepts():
    edges, rotation = grid_torus()
    verdict = torus_boundary_check(edges, rotation)
    assert verdict.compatible
    assert verdict.reason == "CompatibleSquares"
    assert verdict.report.vector == ((4, 4),)


def test_torus_boundary_accepts_quadrangulated_dipole():
    # same cyclic order at both vertices: two square faces on the torus
    edges = [("u", "v")] * 4
    rotation = {"u": [(i, 0) for i in range(4)],
                "v": [(i, 1) for i in range(4)]}
    verdict = torus_boundary_check(edges, rotation)
    assert verdict.compatible
    assert verdict.report.vector == ((4, 2),)


def test_torus_boundary_rejections():
    edges, rotation = dipole(4, planar=False)
    verdict = torus_boundary_check(edges, rotation)
    assert (verdict.compatible, verdict.reason) == (False, "BigonFace")

    loops = [("w", "w")] * 3
    rot = {"w": [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]}
    verdict = torus_boundary_check(loops, rot)
    assert (verdict.compatible, verdict.reason) == (False, "OddCycle")

    theta = [("u", "v")] * 3
    rot = {"u": [(0, 0), (1, 0), (2, 0)], "v": [(0, 1), (1, 1), (2, 1)]}
    verdict = torus_boundary_check(theta, rot)
    assert (verdict.compatible, verdict.reason) == (False, "WrongValence")

    edges, rotation = dipole(4)
    verdict = torus_boundary_check(edges, rotation)
    assert (verdict.compatible, verdict.reason) == (False, "ChiMismatch")

    pairs = [("a", "b"), ("a", "b"), ("c", "d"), ("c", "d")]
    rot = {"a": [(0, 0), (1, 0)], "b": [(1, 1), (0, 1)],
           "c": [(2, 0), (3, 0)], "d": [(3, 1), (2, 1)]}
    verdict = torus_boundary_check(pairs, rot)
    assert (verdict.compatible, verdict.reason) == (False, "NotConnected")
