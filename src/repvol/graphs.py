"""Bipartite reflection graphs and the face combinatorics behind the bounds.

A reflection graph is a finite connected r-valent bipartite graph carrying
a set of involutions ("reflections") that exchange the two vertex classes,
preserve the edge set, and are each tagged with the edges they transpose.
The group the reflections generate must move every vertex freely.  As
every edge is transposed by its tagged reflection, that is the same as
splitting the edges into exactly r orbits, and the group then has one
element per vertex.  Placing a copy of an r-faced piece template at every
vertex and gluing neighbours along face k for the k-th edge orbit yields
a gluing complex whose volume bound divides by the group order;
``g_replicant`` builds that complex.  ``product_p1`` doubles a
validated graph into two layers joined by vertical edges, raising the
valence by one; iterated on an even cycle it produces prism and hyperprism
graphs.

The second half of the module works with rotation systems on multigraphs.
``trace_faces`` recovers the faces of the induced closed surface, and two
checks built on it decide whether a diagram supports the cell structures
the volume estimates need: ``bigon_bound_check`` on spheres and
``torus_boundary_check`` on tori.  Bipartiteness and connectivity, in the
validator and in the rotation-system checks alike, come from one
breadth-first two-colouring.
"""

from collections import Counter, deque
from fractions import Fraction
from typing import NamedTuple

from . import InvariantViolation, pieces
from .bounds import AMBIENTS


class GraphError(ValueError):
    """A graph, reflection, or rotation input is malformed."""


class NotBipartite(GraphError):
    """The graph has an odd cycle or a loop."""


class NotConnected(GraphError):
    """The graph is empty or falls into several components."""


class NotRegular(GraphError):
    """Vertex valences disagree, or the graph has no edges."""


class BadReflection(GraphError):
    """A reflection violates its axioms, or an edge has no reflection."""


class VertexStabilizerNontrivial(GraphError):
    """Some nontrivial generated symmetry fixes a vertex."""


class ValenceMismatch(GraphError):
    """Template face count differs from the graph valence."""


class NotValidated(GraphError):
    """The operation needs a graph that passed validation first."""


class IncompleteRotation(GraphError):
    """A rotation system misses, misplaces, or repeats an edge end."""


class WrongValence(GraphError):
    """A vertex valence differs from what the check requires."""


class NotSphere(GraphError):
    """The traced surface is not a 2-sphere."""


class GroupTooLarge(RuntimeError):
    """The reflection group has more than pieces.COPY_LIMIT elements."""


def _norm_edge(pos, u, v):
    return (u, v) if pos[u] <= pos[v] else (v, u)


class Reflection:
    """An involution of the vertex set tagged with edges it transposes.

    ``mapping`` takes any dict or pair sequence; ``swaps`` is the sequence
    of distinguished edges.  Axioms are checked by the graph's validator,
    not here.
    """

    __slots__ = ("mapping", "swaps")

    def __init__(self, mapping, swaps):
        self.mapping = dict(mapping)
        self.swaps = tuple((a, b) for a, b in swaps)

    def __repr__(self):
        return "Reflection(%d vertices, %d swaps)" % (
            len(self.mapping), len(self.swaps))


class ReflectionGraph:
    """A finite simple graph with reflections, validated lazily.

    Vertices may be any hashable labels.  Edges are unordered pairs of
    vertices, stored with endpoints ordered by vertex position; duplicate
    edges are rejected here, loops are kept and fail validation later.
    ``reflections`` accepts Reflection objects, (mapping, swaps) pairs, or
    dicts with those keys.  ``ambient`` names the manifold the replicant
    links live in.  Construction checks shape only; call
    ``validate_reflection_graph`` for the real audit, whose report is
    cached on the instance.
    """

    __slots__ = ("vertices", "edges", "reflections", "ambient",
                 "_pos", "_report")

    def __init__(self, vertices, edges, reflections, ambient="S3"):
        self.vertices = tuple(vertices)
        pos = {}
        for v in self.vertices:
            if v in pos:
                raise GraphError("duplicate vertex %r" % (v,))
            pos[v] = len(pos)
        self._pos = pos
        if ambient not in AMBIENTS:
            raise GraphError("unknown ambient %r" % (ambient,))
        self.ambient = ambient

        seen = set()
        normal = []
        for edge in edges:
            u, v = edge
            if u not in pos or v not in pos:
                raise GraphError(
                    "edge %r has an endpoint that is not a vertex" % (edge,))
            e = _norm_edge(pos, u, v)
            if e in seen:
                raise GraphError("duplicate edge %r" % (e,))
            seen.add(e)
            normal.append(e)
        normal.sort(key=lambda e: (pos[e[0]], pos[e[1]]))
        self.edges = tuple(normal)

        coerced = []
        for item in reflections:
            if isinstance(item, Reflection):
                coerced.append(item)
            elif isinstance(item, dict):
                coerced.append(Reflection(item["mapping"],
                                          item.get("swaps", ())))
            else:
                mapping, swaps = item
                coerced.append(Reflection(mapping, swaps))
        self.reflections = tuple(coerced)
        self._report = None

    def __repr__(self):
        return "ReflectionGraph(%d vertices, %d edges, %d reflections, %s)" % (
            len(self.vertices), len(self.edges), len(self.reflections),
            self.ambient)


class ValidationReport(NamedTuple):
    """What validation established: valence, group order, orbits, parts."""
    valence: int
    group_order: int
    edge_classes: tuple
    parts: tuple


def _two_colour(vertices, adj):
    """Breadth-first two-colouring of ``adj``, one component after another.

    ``vertices`` may be any iterable, and ``adj`` anything indexable by its
    vertices that yields their neighbours: a dict, or a list when the
    vertices are range(n).  Roots are taken in ``vertices`` order and
    neighbours in ``adj`` order.
    Returns the colour (0 or 1) of every vertex, the size of the first
    vertex's component, and ``odd``: () on a bipartite graph, otherwise a
    1-tuple holding the first vertex found on an edge whose ends share a
    colour (a loop counts).  The traversal keeps going past that vertex.
    """
    colour = {}
    first = 0
    odd = ()
    for root in vertices:
        if root in colour:
            continue
        colour[root] = 0
        queue = [root]
        for u in queue:
            for w in adj[u]:
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    queue.append(w)
                elif not odd and colour[w] == colour[u]:
                    odd = (w,)
        if not first:
            first = len(colour)
    return colour, first, odd


def validate_reflection_graph(graph):
    """Audit ``graph`` against the reflection-graph contract.

    Checks run in a fixed order: bipartiteness, connectivity, regularity,
    then per reflection the permutation/involution/class-swap/edge-
    preservation axioms and tag correctness, then tag coverage of every
    edge, then the generated group G: no nontrivial element may fix a
    vertex, which is the same as the edge orbits ("classes") numbering
    exactly the valence, and |G| must not exceed pieces.COPY_LIMIT.

    The group is not listed.  Once every edge is tagged, each edge is
    transposed by a generator, so on a connected graph G is transitive
    on the vertices and every class meets every vertex.  If the classes
    number the valence, each meets a vertex v once; an element fixing v
    preserves classes, so it fixes v's edges and hence its neighbours,
    and by connectivity it fixes everything.  If G acts freely, an
    element carrying the edge (v, a) onto an edge at v either fixes v,
    and is the identity, or maps a to v, agreeing there with the edge's
    tagged reflection, and is that reflection; either way the edge comes
    back to itself, so each class meets v once.  A free transitive action
    has |G| = n, and the stage is a breadth-first search for the classes
    over the generators, O(n * generators).  Stabilizers are conjugate
    under a transitive action, so a refusal names the first vertex.  The
    report is cached on the instance and returned on later calls without
    rechecking.
    """
    if graph._report is not None:
        return graph._report
    if not graph.vertices:
        raise NotConnected("the graph has no vertices")
    pos = graph._pos
    n = len(graph.vertices)

    adj = {v: [] for v in graph.vertices}
    for u, v in graph.edges:
        if u == v:
            raise NotBipartite("loop at %r" % (u,))
        adj[u].append(v)
        adj[v].append(u)

    color, reached, odd = _two_colour(graph.vertices, adj)
    if odd:
        raise NotBipartite("odd cycle through %r" % odd)
    if reached != n:
        raise NotConnected("%d of %d vertices reachable from %r"
                           % (reached, n, graph.vertices[0]))

    degrees = {len(adj[v]) for v in graph.vertices}
    if len(degrees) != 1:
        raise NotRegular("valences %s" % sorted(degrees))
    valence = degrees.pop()
    if valence == 0:
        raise NotRegular("the graph has no edges")

    vertex_set = set(graph.vertices)
    edge_set = set(graph.edges)
    tagged = set()
    perms = []
    for idx, refl in enumerate(graph.reflections):
        mapping = refl.mapping
        if set(mapping) != vertex_set or set(mapping.values()) != vertex_set:
            raise BadReflection(
                "reflection %d is not a permutation of the vertex set" % idx)
        for v in graph.vertices:
            if mapping[mapping[v]] != v:
                raise BadReflection("reflection %d is not an involution" % idx)
            if color[mapping[v]] == color[v]:
                raise BadReflection(
                    "reflection %d keeps %r on its own side" % (idx, v))
        for u, v in graph.edges:
            if _norm_edge(pos, mapping[u], mapping[v]) not in edge_set:
                raise BadReflection(
                    "reflection %d does not preserve the edge %r"
                    % (idx, (u, v)))
        if not refl.swaps:
            raise BadReflection("reflection %d is tagged with no edge" % idx)
        for a, b in refl.swaps:
            if a not in pos or b not in pos or \
                    _norm_edge(pos, a, b) not in edge_set:
                raise BadReflection(
                    "reflection %d tags %r, which is not an edge"
                    % (idx, (a, b)))
            if mapping[a] != b:
                raise BadReflection(
                    "reflection %d does not transpose its tagged edge %r"
                    % (idx, (a, b)))
            tagged.add(_norm_edge(pos, a, b))
        perms.append(tuple(pos[mapping[v]] for v in graph.vertices))

    for edge in graph.edges:
        if edge not in tagged:
            raise BadReflection(
                "edge %r has no distinguished reflection" % (edge,))

    generators = sorted(set(perms))
    ends = [(pos[u], pos[v]) for u, v in graph.edges]
    edge_index = {e: k for k, e in enumerate(ends)}
    class_of = [None] * len(ends)
    classes = []
    for start in range(len(ends)):
        if class_of[start] is not None:
            continue
        class_of[start] = len(classes)
        members = [start]
        for k in members:
            a, b = ends[k]
            for gen in generators:
                x, y = gen[a], gen[b]
                j = edge_index[(x, y) if x < y else (y, x)]
                if class_of[j] is None:
                    class_of[j] = len(classes)
                    members.append(j)
        classes.append(tuple(graph.edges[k] for k in sorted(members)))

    if len(classes) != valence:
        raise VertexStabilizerNontrivial(
            "a nontrivial symmetry fixes the vertex %r" % (graph.vertices[0],))
    if n > pieces.COPY_LIMIT:
        raise GroupTooLarge(
            "the reflection group exceeds %d elements" % pieces.COPY_LIMIT)

    parts = (tuple(v for v in graph.vertices if color[v] == 0),
             tuple(v for v in graph.vertices if color[v] == 1))
    report = ValidationReport(valence, n, tuple(classes), parts)
    graph._report = report
    return report


class GReplicant(NamedTuple):
    """A replicant complex and the group order its volume divides by."""
    complex: object
    group_order: int


def g_replicant(graph, template):
    """Place a copy of ``template`` at every vertex, glued along edges.

    The k-th edge class (classes ordered by their smallest edge) glues
    along face k+1 of both neighbouring copies, so the template must have
    exactly as many faces as the graph valence.  Copy labels are vertex
    positions.
    """
    report = graph._report
    if report is None:
        raise NotValidated("validate the graph before building a replicant")
    if len(template.faces) != report.valence:
        raise ValenceMismatch(
            "template %r has %d faces but the graph is %d-valent"
            % (template.id, len(template.faces), report.valence))
    face_of = {}
    for k, cls in enumerate(report.edge_classes):
        for edge in cls:
            face_of[edge] = k + 1
    pos = graph._pos
    copies = [(template, (i,)) for i in range(len(graph.vertices))]
    gluings = [(((pos[u],), face_of[(u, v)]), ((pos[v],), face_of[(u, v)]))
               for u, v in graph.edges]
    return GReplicant(pieces.GluingComplex(copies, gluings),
                      report.group_order)


def product_p1(graph):
    """Double a validated graph into two layers joined by vertical edges.

    Each reflection lifts to act on both layers at once, with its tags
    duplicated upstairs and downstairs; one new reflection swaps the
    layers and is tagged with every vertical edge.  The result has twice
    the vertices, valence r+1, and is validated before it is returned.
    """
    if graph._report is None:
        raise NotValidated("validate the graph before taking a product")
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


def cycle_reflection_graph(size, ambient="S3"):
    """The even cycle on ``size`` >= 4 vertices with its edge reflections.

    Reflection a (one per antipodal edge pair, a = 0..size/2-1) maps v to
    2a+1-v and is tagged with the two edges it transposes.  Together they
    generate a dihedral group of order ``size`` acting freely, and the
    edges fall into two classes, alternating around the cycle.
    """
    if type(size) is not int or size < 4 or size % 2:
        raise GraphError("cycle size must be an even integer of at least 4")
    vertices = range(size)
    edges = [(v, (v + 1) % size) for v in vertices]
    half = size // 2
    reflections = []
    for a in range(half):
        mapping = {v: (2 * a + 1 - v) % size for v in vertices}
        swaps = [(a, a + 1),
                 ((a + half) % size, (a + half + 1) % size)]
        reflections.append(Reflection(mapping, swaps))
    return ReflectionGraph(vertices, edges, reflections, ambient)


def lattice_reflection_graph(rows, cols, ambient="S3"):
    """The torus grid of two even cycles with row and column reflections.

    Vertices are (i, j) with i mod ``rows`` and j mod ``cols``; both
    dimensions must be even and at least 4 (a 2-cycle would double its
    edges).  One reflection per antipodal pair of row circles flips i,
    one per pair of column circles flips j, each tagged with every edge
    it transposes.  Four edge classes result, matching the valence.
    """
    if type(rows) is not int or type(cols) is not int or rows < 4 \
            or rows % 2 or cols < 4 or cols % 2:
        raise GraphError(
            "lattice dimensions must be even integers of at least 4")
    vertices = [(i, j) for i in range(rows) for j in range(cols)]
    edges = []
    for i, j in vertices:
        edges.append(((i, j), ((i + 1) % rows, j)))
        edges.append(((i, j), (i, (j + 1) % cols)))
    reflections = []
    for a in range(rows // 2):
        mapping = {(i, j): ((2 * a + 1 - i) % rows, j) for i, j in vertices}
        swaps = []
        for i in (a, (a + rows // 2) % rows):
            swaps += [((i, j), ((i + 1) % rows, j)) for j in range(cols)]
        reflections.append(Reflection(mapping, swaps))
    for b in range(cols // 2):
        mapping = {(i, j): (i, (2 * b + 1 - j) % cols) for i, j in vertices}
        swaps = []
        for j in (b, (b + cols // 2) % cols):
            swaps += [((i, j), (i, (j + 1) % cols)) for i in range(rows)]
        reflections.append(Reflection(mapping, swaps))
    return ReflectionGraph(vertices, edges, reflections, ambient)


def _recast(v, kind, make):
    """Rebuild the ``kind`` container ``v``, and every ``kind`` container
    nested in it at any depth, with ``make``."""
    frames = [(iter(v), [])]    # (items still to read, items recast)
    while True:
        items, done = frames[-1]
        for x in items:
            if isinstance(x, kind):
                frames.append((iter(x), []))
                break
            done.append(x)
        else:
            frames.pop()
            if not frames:
                return make(done)
            frames[-1][1].append(make(done))


def _vertex_out(v):
    return _recast(v, tuple, list) if isinstance(v, tuple) else v


def _vertex_in(v):
    return _recast(v, list, tuple) if isinstance(v, list) else v


def graph_to_json_dict(graph):
    """Serialize a ReflectionGraph; tuples become lists, at any depth."""
    pos = graph._pos
    order = len(pos)
    return {
        "vertices": _vertex_out(graph.vertices),
        "edges": _vertex_out(graph.edges),
        "reflections": [
            {"mapping": [[_vertex_out(k), _vertex_out(w)]
                         for k, w in sorted(
                             r.mapping.items(),
                             key=lambda kv: (pos.get(kv[0], order),
                                             repr(kv[0])))],
             "swaps": _vertex_out(r.swaps)}
            for r in graph.reflections],
        "ambient": graph.ambient,
    }


def graph_from_json_dict(data):
    """Rebuild a ReflectionGraph from its JSON dictionary."""
    try:
        vertices = [_vertex_in(v) for v in data["vertices"]]
        edges = [(_vertex_in(u), _vertex_in(v)) for u, v in data["edges"]]
        reflections = [
            Reflection({_vertex_in(k): _vertex_in(w)
                        for k, w in item["mapping"]},
                       [(_vertex_in(a), _vertex_in(b))
                        for a, b in item["swaps"]])
            for item in data["reflections"]]
        ambient = data.get("ambient", "S3")
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError("malformed graph JSON: %s" % exc) from None
    return ReflectionGraph(vertices, edges, reflections, ambient)


def _plain_graph(g):
    if isinstance(g, ReflectionGraph):
        return g.vertices, g.edges
    vertices, edges = g
    return tuple(vertices), tuple(tuple(e) for e in edges)


def graph_isomorphic(a, b):
    """Search for a vertex bijection of ``a`` onto ``b`` preserving edges.

    Accepts ReflectionGraph instances or (vertices, edges) pairs; only
    the underlying simple graphs are compared, reflections are ignored.
    Backtracking, on an explicit stack, over a breadth-first vertex order
    with iff-adjacency pruning against everything already mapped; meant
    for the small graphs handled here.  Returns a mapping dict, or None.
    """
    va, ea = _plain_graph(a)
    vb, eb = _plain_graph(b)
    if len(va) != len(vb) or len(ea) != len(eb):
        return None
    adj_a = {v: set() for v in va}
    for u, v in ea:
        adj_a[u].add(v)
        adj_a[v].add(u)
    adj_b = {v: set() for v in vb}
    for u, v in eb:
        adj_b[u].add(v)
        adj_b[v].add(u)
    if sorted(len(s) for s in adj_a.values()) != \
            sorted(len(s) for s in adj_b.values()):
        return None
    pos_a = {v: i for i, v in enumerate(va)}
    pos_b = {v: i for i, v in enumerate(vb)}

    order = []
    seen = set()
    for root in va:
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in sorted(adj_a[u], key=pos_a.get):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)

    mapping = {}
    used = set()

    def images(u):
        # candidate images of u, lazily filtered against what is mapped
        # when the search reaches them
        mapped = [mapping[w] for w in adj_a[u] if w in mapping]
        if mapped:
            candidates = set(adj_b[mapped[0]])
            for img in mapped[1:]:
                candidates &= adj_b[img]
        else:
            candidates = set(vb)
        degree = len(adj_a[u])
        for c in sorted(candidates - used, key=pos_b.get):
            if len(adj_b[c]) != degree:
                continue
            if any((mapping[w] in adj_b[c]) != (w in adj_a[u])
                   for w in mapping):
                continue
            yield c

    # pending[k] yields the untried images of order[k]; order[:k] is mapped
    pending = []
    while len(mapping) < len(order):
        u = order[len(mapping)]
        if len(pending) == len(mapping):
            pending.append(images(u))
        for c in pending[-1]:
            mapping[u] = c
            used.add(c)
            break
        else:
            pending.pop()
            if not pending:
                return None
            used.discard(mapping.pop(order[len(pending) - 1]))
    return mapping


class FaceReport(NamedTuple):
    """Faces of the closed surface a rotation system induces."""
    faces: tuple
    vector: tuple
    euler: int
    bipartite: bool


def trace_faces(edges, rotation):
    """Trace the faces of the ribbon graph (edges, rotation).

    ``edges`` lists unordered vertex pairs; repeated pairs and loops are
    allowed, and edges are identified by position.  ``rotation`` maps
    every vertex to the cyclic order of its incident edge ends as
    (edge_index, end) with end in {0, 1}; end s of edge e must sit at the
    vertex edges[e][s], and every end must appear exactly once overall.

    A dart (e, s) leaves the vertex holding end s.  Travelling it lands
    on end (e, 1-s), and the face continues with the next entry after
    that end in the host's cyclic list.  Returns the faces as dart
    tuples, the sorted (length, count) vector, the Euler characteristic
    V - E + F, and whether the underlying multigraph is bipartite.

    Faces come in the order of their least dart, darts compared as
    (e, s) tuples, and each face starts at its least dart.  The run time
    is linear in the number of vertices and edge ends.
    """
    return _faces(edges, rotation)[0]


def _faces(edges, rotation):
    """``trace_faces`` and the size of the first vertex's component.

    Works on integer darts: end (e, s) is dart 2e + s, so d ^ 1 is the
    other end of d's edge.  One pass over ``rotation`` records ``host``,
    the index of the vertex holding each end, and ``after``, the end that
    follows it in that vertex's cyclic order; the face after dart d goes
    on with after[d ^ 1].  2e + s sorts as (e, s) does, so tracing from
    each untraced dart in turn meets the faces in the order of their
    least dart.  The (e, s) tuples are the converted ends themselves.
    """
    edges = [tuple(e) for e in edges]
    # tuples, not lists, here and in ``adj``: the collector stops tracking
    # a tuple of ints, so a large system adds little to its later passes
    rotation = {v: tuple([(int(e), int(s)) for e, s in ends])
                for v, ends in rotation.items()}
    m = len(edges)
    host = [-1] * (2 * m)
    after = [0] * (2 * m)
    pairs = [None] * (2 * m)
    for i, (v, ends) in enumerate(rotation.items()):
        ring = []
        for end in ends:
            e, s = end
            if not 0 <= e < m or s not in (0, 1):
                raise IncompleteRotation(
                    "unknown edge end (%r, %r) at %r" % (e, s, v))
            if edges[e][s] != v:
                raise IncompleteRotation(
                    "end (%d, %d) listed at %r but edge %d puts it at %r"
                    % (e, s, v, e, edges[e][s]))
            d = 2 * e + s
            if host[d] >= 0:
                raise IncompleteRotation(
                    "end (%d, %d) appears more than once" % (e, s))
            host[d] = i
            pairs[d] = end
            ring.append(d)
        for j, d in enumerate(ring):
            after[ring[j - 1]] = d
    if -1 in host:
        e, s = divmod(host.index(-1), 2)
        raise IncompleteRotation(
            "end (%d, %d) is missing from the rotation at %r"
            % (e, s, edges[e][s]))

    traced = bytearray(2 * m)
    faces = []
    for start in range(2 * m):
        if traced[start]:
            continue
        walk = []
        d = start
        while not traced[d]:
            traced[d] = 1
            walk.append(pairs[d])
            d = after[d ^ 1]
        faces.append(tuple(walk))

    lengths = Counter(len(f) for f in faces)
    euler = len(rotation) - m + len(faces)

    for _, _ in edges:  # an edge longer than a pair fails to unpack
        pass
    adj = [tuple([host[(2 * e + s) ^ 1] for e, s in ends])
           for ends in rotation.values()]
    _, reached, odd = _two_colour(range(len(rotation)), adj)
    if not odd and any(k % 2 for k in lengths):
        raise InvariantViolation(
            "odd face lengths %s on a bipartite graph"
            % sorted(k for k in lengths if k % 2))

    return FaceReport(tuple(faces), tuple(sorted(lengths.items())),
                      euler, not odd), reached


class BigonCheck(NamedTuple):
    """Outcome of the sphere bigon-count estimate."""
    passed: bool
    bigons: int
    required: int
    report: FaceReport


def bigon_bound_check(edges, rotation, n):
    """Check f2 >= 2(n+1) for a 2(n+1)-valent rotation system on a sphere.

    Raises WrongValence unless every vertex carries exactly 2(n+1) edge
    ends, and NotSphere unless the traced surface has Euler
    characteristic 2.  The exact identity

        sum over face lengths k of  f_k (2(n+1) - nk) / (2(n+1))  =  2,

    the Euler count rewritten per face, is recomputed in Fractions as a
    guard before the bigon count is compared against 2(n+1).
    """
    if type(n) is not int:
        raise GraphError("n must be an integer, got %r" % (n,))
    if n < 1:
        raise GraphError("n must be at least 1")
    report = trace_faces(edges, rotation)
    want = 2 * (n + 1)
    offenders = [v for v in rotation if len(rotation[v]) != want]
    if offenders:
        v = min(offenders, key=repr)
        raise WrongValence("vertex %r has valence %d, expected %d"
                           % (v, len(rotation[v]), want))
    if report.euler != 2:
        raise NotSphere("Euler characteristic %d" % report.euler)
    total = sum((Fraction(want - n * k, want) * count
                 for k, count in report.vector), Fraction(0))
    if total != 2:
        raise InvariantViolation(
            "the Euler identity sums to %s, not 2" % total)
    bigons = dict(report.vector).get(2, 0)
    return BigonCheck(bigons >= want, bigons, want, report)


class TorusVerdict(NamedTuple):
    """Whether a rotation system gives a square decomposition of a torus."""
    compatible: bool
    reason: str
    detail: str
    report: FaceReport


def torus_boundary_check(edges, rotation):
    """Decide whether a rotation system decomposes a torus into squares.

    The checks run in order and the first failure names the verdict:
    NotConnected, ChiMismatch (Euler characteristic must vanish),
    BigonFace, OddCycle (the graph must be bipartite), WrongValence
    (4 everywhere), NonSquareFace.  Success reports CompatibleSquares.
    """
    report, reached = _faces(edges, rotation)
    if not rotation:
        return TorusVerdict(False, "NotConnected",
                            "the graph has no vertices", report)
    if reached != len(rotation):
        return TorusVerdict(False, "NotConnected",
                            "%d of %d vertices reachable"
                            % (reached, len(rotation)), report)

    if report.euler != 0:
        return TorusVerdict(False, "ChiMismatch",
                            "Euler characteristic %d, expected 0"
                            % report.euler, report)
    lengths = dict(report.vector)
    if lengths.get(2):
        return TorusVerdict(False, "BigonFace",
                            "%d bigon faces obstruct a square decomposition"
                            % lengths[2], report)
    if not report.bipartite:
        return TorusVerdict(False, "OddCycle",
                            "the graph carries an odd cycle", report)
    offenders = [v for v in rotation if len(rotation[v]) != 4]
    if offenders:
        v = min(offenders, key=repr)
        return TorusVerdict(False, "WrongValence",
                            "vertex %r has valence %d, expected 4"
                            % (v, len(rotation[v])), report)
    if set(lengths) != {4}:
        other = sorted(k for k in lengths if k != 4)
        return TorusVerdict(False, "NonSquareFace",
                            "face lengths %s present" % other, report)
    return TorusVerdict(True, "CompatibleSquares",
                        "every face is a square on a torus", report)
