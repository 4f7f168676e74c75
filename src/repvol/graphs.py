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

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import repvol
from . import AMBIENTS, InvariantViolation, LimitExceeded


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


class GroupTooLarge(LimitExceeded):
    """The reflection group has more than repvol.COPY_LIMIT elements."""


def _pair(item, name, *where):
    """``item`` unpacked as two entries, else a GraphError naming it as
    ``name % where``."""
    try:
        a, b = item
    except (TypeError, ValueError):
        raise GraphError("%s must be a pair, got %r"
                         % (name % where, item)) from None
    return a, b


def _unhashable_vertex(i, v):
    return GraphError("vertex %d is not hashable: %r" % (i, v))


def _edge_ends(edge, k, pos):
    """Edge ``k`` unpacked as two vertices of ``pos``, else a GraphError
    naming it."""
    u, v = _pair(edge, "edge %d", k)
    try:
        known = u in pos and v in pos
    except TypeError:   # no vertex is unhashable
        known = False
    if not known:
        raise GraphError(
            "edge %r has an endpoint that is not a vertex" % (edge,))
    return u, v


class Reflection:
    """An involution of the vertex set tagged with edges it transposes.

    ``mapping`` takes any dict or pair sequence; ``swaps`` is the sequence
    of distinguished edges.  Only their shape is checked here; axioms are
    checked by the graph's validator.
    """

    __slots__ = ("mapping", "swaps")

    def __init__(self, mapping, swaps):
        try:
            self.mapping = dict(mapping)
        except (TypeError, ValueError):
            raise GraphError("mapping must be a dict or pairs of vertices, "
                             "got %r" % (mapping,)) from None
        self.swaps = tuple(_pair(swap, "swap %d", j)
                           for j, swap in enumerate(swaps))

    def __repr__(self):
        return "Reflection(%d vertices, %d swaps)" % (
            len(self.mapping), len(self.swaps))


class ReflectionGraph:
    """A finite simple graph with reflections, validated lazily.

    Vertices may be any hashable labels.  Edges are unordered pairs of
    vertices, stored with endpoints ordered by vertex position; duplicate
    edges are rejected here, loops are kept and fail validation later.
    ``reflections`` accepts Reflection objects, (mapping, swaps) pairs, or
    dicts with a mapping and optional swaps.  ``ambient`` names the
    manifold the replicant links live in.  Construction checks shape
    only, and refuses a part of the wrong shape with a GraphError naming
    its index; call ``validate_reflection_graph`` for the real audit,
    whose report is cached on the instance.
    """

    __slots__ = ("vertices", "edges", "reflections", "ambient",
                 "_pos", "_report")

    def __init__(self, vertices, edges, reflections, ambient="S3"):
        self.vertices = tuple(vertices)
        pos = {}
        for i, v in enumerate(self.vertices):
            try:
                known = v in pos
            except TypeError:
                raise _unhashable_vertex(i, v) from None
            if known:
                raise GraphError("duplicate vertex %r" % (v,))
            pos[v] = len(pos)
        self._pos = pos
        if ambient not in AMBIENTS:
            raise GraphError("unknown ambient %r" % (ambient,))
        self.ambient = ambient

        seen = set()
        for i, edge in enumerate(edges):
            u, v = _edge_ends(edge, i, pos)
            e = (u, v) if pos[u] <= pos[v] else (v, u)
            if e in seen:
                raise GraphError("duplicate edge %r" % (e,))
            seen.add(e)
        self.edges = tuple(sorted(seen, key=lambda e: (pos[e[0]], pos[e[1]])))

        coerced = []
        for k, item in enumerate(reflections):
            if not isinstance(item, Reflection):
                if isinstance(item, dict):
                    if "mapping" not in item:
                        raise GraphError("reflection %d has no mapping" % k)
                    item = item["mapping"], item.get("swaps", ())
                mapping, swaps = _pair(item, "reflection %d", k)
                try:
                    item = Reflection(mapping, swaps)
                except GraphError as exc:
                    raise GraphError("reflection %d: %s" % (k, exc)) from None
            coerced.append(item)
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


def _two_colour(first, after, host):
    """Breadth-first two-colouring of a graph given by its darts.

    Dart d sits at vertex host[d], and d ^ 1 is the other end of its
    edge, so d leads to the neighbour host[d ^ 1].  The darts at vertex i
    form the chain first[i], after[first[i]], ..., which ends at -1 or
    where it comes back to first[i]; first[i] is -1 at a vertex with no
    darts.  Roots are taken in order, one component after another, and
    neighbours in chain order.  Returns the list of colours (0 or 1), the
    size of the first component, and ``odd``: None on a bipartite graph,
    otherwise the first vertex found on an edge whose ends share a colour
    (a loop counts).  The traversal keeps going past that vertex.
    """
    colour = [-1] * len(first)
    reached = 0
    odd = None
    for root in range(len(first)):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        queue = [root]
        for u in queue:
            c = colour[u]
            start = d = first[u]
            while d >= 0:
                w = host[d ^ 1]
                if colour[w] < 0:
                    colour[w] = 1 - c
                    queue.append(w)
                elif odd is None and colour[w] == c:
                    odd = w
                d = after[d]
                if d == start:
                    break
        if not reached:
            reached = len(queue)
    return colour, reached, odd


def validate_reflection_graph(graph):
    """Audit ``graph`` against the reflection-graph contract.

    Checks run in a fixed order: bipartiteness, connectivity, regularity,
    then per reflection the permutation/involution/class-swap/edge-
    preservation axioms and tag correctness, then tag coverage of every
    edge, then the generated group G: no nontrivial element may fix a
    vertex, which is the same as the edge orbits ("classes") numbering
    exactly the valence, and |G| must not exceed repvol.COPY_LIMIT.
    Every check reads vertex positions; each reflection is read once into
    ``perm``, perm[i] the position of vertex i's image.  The
    edge-preservation check keeps what it looks up, ``image``, image[k]
    the position of edge k's image, once per distinct perm.  Labels
    return in refusals and the report.

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
    that reads image[k] of each distinct generator for each edge k, with
    no vertex pair looked up again.  Stabilizers are conjugate
    under a transitive action, so a refusal names the first vertex.  The
    report is cached on the instance and returned on later calls without
    rechecking.
    """
    if graph._report is not None:
        return graph._report
    vertices = graph.vertices
    if not vertices:
        raise NotConnected("the graph has no vertices")
    pos = graph._pos
    n = len(vertices)

    ends = [(pos[u], pos[v]) for u, v in graph.edges]
    host = []   # edge k's ends are the darts 2k and 2k + 1
    for a, b in ends:
        if a == b:
            raise NotBipartite("loop at %r" % (vertices[a],))
        host += (a, b)
    first = [-1] * n
    after = [-1] * len(host)
    degree = [0] * n
    for d in range(len(host) - 1, -1, -1):
        v = host[d]
        after[d] = first[v]
        first[v] = d
        degree[v] += 1

    color, reached, odd = _two_colour(first, after, host)
    if odd is not None:
        raise NotBipartite("odd cycle through %r" % (vertices[odd],))
    if reached != n:
        raise NotConnected("%d of %d vertices reachable from %r"
                           % (reached, n, vertices[0]))

    degrees = set(degree)
    if len(degrees) != 1:
        raise NotRegular("valences %s" % sorted(degrees))
    valence = degrees.pop()
    if valence == 0:
        raise NotRegular("the graph has no edges")

    edge_index = {e: k for k, e in enumerate(ends)}
    tagged = bytearray(len(ends))
    images = {}     # perm -> image[k], the position of edge k's image
    for idx, refl in enumerate(graph.reflections):
        mapping = refl.mapping
        try:    # a vertex left out, or an image that is no vertex
            perm = tuple([pos[mapping[v]] for v in vertices])
        except (KeyError, TypeError):
            perm = ()
        if len(mapping) != n or len(set(perm)) != n:
            raise BadReflection(
                "reflection %d is not a permutation of the vertex set" % idx)
        for a, b in enumerate(perm):
            if perm[b] != a:
                raise BadReflection(
                    "reflection %d is not an involution" % idx)
            if color[b] == color[a]:
                raise BadReflection(
                    "reflection %d keeps %r on its own side"
                    % (idx, vertices[a]))
        image = []
        for k, (a, b) in enumerate(ends):
            x, y = perm[a], perm[b]
            j = edge_index.get((x, y) if x < y else (y, x))
            if j is None:
                raise BadReflection(
                    "reflection %d does not preserve the edge %r"
                    % (idx, graph.edges[k]))
            image.append(j)
        images[perm] = image
        if not refl.swaps:
            raise BadReflection("reflection %d is tagged with no edge" % idx)
        for swap in refl.swaps:
            try:
                x, y = pos[swap[0]], pos[swap[1]]
                k = edge_index[(x, y) if x < y else (y, x)]
            except (KeyError, TypeError):
                raise BadReflection(
                    "reflection %d tags %r, which is not an edge"
                    % (idx, swap)) from None
            if perm[x] != y:
                raise BadReflection(
                    "reflection %d does not transpose its tagged edge %r"
                    % (idx, swap))
            tagged[k] = 1

    if 0 in tagged:
        raise BadReflection("edge %r has no distinguished reflection"
                            % (graph.edges[tagged.index(0)],))

    generators = list(images.values())
    class_of = [None] * len(ends)
    classes = []
    for start in range(len(ends)):
        if class_of[start] is not None:
            continue
        class_of[start] = len(classes)
        members = [start]
        for k in members:
            for image in generators:
                j = image[k]
                if class_of[j] is None:
                    class_of[j] = len(classes)
                    members.append(j)
        classes.append(tuple(graph.edges[k] for k in sorted(members)))

    if len(classes) != valence:
        raise VertexStabilizerNontrivial(
            "a nontrivial symmetry fixes the vertex %r" % (vertices[0],))
    if n > repvol.COPY_LIMIT:
        raise GroupTooLarge(
            "the reflection group exceeds %d elements" % repvol.COPY_LIMIT)

    parts = (tuple(v for v, c in zip(vertices, color) if c == 0),
             tuple(v for v, c in zip(vertices, color) if c == 1))
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
    from . import pieces
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


def _pair_in(p):
    """A JSON edge or swap as a pair of vertices; any other value as
    ``_vertex_in`` reads it, for the constructor to refuse by index."""
    if type(p) is list and len(p) == 2:
        return _vertex_in(p[0]), _vertex_in(p[1])
    return _vertex_in(p)


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
        edges = [_pair_in(e) for e in data["edges"]]
        reflections = [({_vertex_in(k): _vertex_in(w)
                         for k, w in item["mapping"]},
                        [_pair_in(swap) for swap in item["swaps"]])
                       for item in data["reflections"]]
        ambient = data.get("ambient", "S3")
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError("malformed graph JSON: %s" % exc) from None
    return ReflectionGraph(vertices, edges, reflections, ambient)


def _adjacency_sets(g):
    """The vertices of ``g``, its edge count and neighbour position sets;
    a (vertices, edges) pair has its vertices and edges checked as the
    constructor does, else a GraphError."""
    if isinstance(g, ReflectionGraph):
        g = g.vertices, g.edges
    vertices, edges = _pair(g, "a graph")
    try:
        vertices, edges = tuple(vertices), tuple(edges)
    except TypeError:
        raise GraphError("a graph must be a pair of vertices and edges, "
                         "got %r" % (g,)) from None
    pos = {}
    for i, v in enumerate(vertices):
        try:
            pos[v] = i
        except TypeError:
            raise _unhashable_vertex(i, v) from None
    if len(pos) != len(vertices):
        raise GraphError("a graph lists a vertex twice")
    adj = [set() for _ in vertices]
    for k, edge in enumerate(edges):
        u, v = _edge_ends(edge, k, pos)
        a, b = pos[u], pos[v]
        adj[a].add(b)
        adj[b].add(a)
    return vertices, len(edges), adj


def graph_isomorphic(a, b):
    """Search for a vertex bijection of ``a`` onto ``b`` preserving edges.

    Accepts ReflectionGraph instances or (vertices, edges) pairs; only
    the underlying simple graphs are compared, reflections are ignored.
    Backtracking, on an explicit stack, over a breadth-first vertex order
    with iff-adjacency pruning against everything already mapped; meant
    for the small graphs handled here, run on vertex positions.  Returns
    a dict of labels or None; a pair listing a vertex twice is refused.
    """
    va, ma, adj_a = _adjacency_sets(a)
    vb, mb, adj_b = _adjacency_sets(b)
    if len(va) != len(vb) or ma != mb:
        return None
    if sorted(map(len, adj_a)) != sorted(map(len, adj_b)):
        return None

    order = []
    seen = bytearray(len(va))
    for root in range(len(va)):
        if seen[root]:
            continue
        seen[root] = 1
        queue = [root]
        for u in queue:
            for w in sorted(adj_a[u]):
                if not seen[w]:
                    seen[w] = 1
                    queue.append(w)
        order += queue

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
            candidates = set(range(len(vb)))
        degree = len(adj_a[u])
        for c in sorted(candidates - used):
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
    return {va[u]: vb[c] for u, c in mapping.items()}


class FaceReport:
    """Faces of the closed surface a rotation system induces.

    ``vector`` is the sorted (length, count) pairs of the face lengths,
    ``euler`` the Euler characteristic V - E + F and ``bipartite``
    whether the underlying multigraph is bipartite.  ``faces`` lists the
    faces as tuples of (edge, end) darts.  A report from ``trace_faces``
    counts its faces and derives that list on first access: until then
    it keeps the tracer's ``after`` list (one int per edge end, nothing
    of the caller's ``edges`` or ``rotation``), and it drops the list
    once the faces are built.  A report is read-only; it iterates, compares
    and hashes as the tuple (faces, vector, euler, bipartite), so it
    equals one built from those four values.
    """
    __slots__ = ("_faces", "_after", "_vector", "_euler", "_bipartite")

    def __init__(self, faces, vector, euler, bipartite):
        self._faces = faces
        self._after = None
        self._vector = vector
        self._euler = euler
        self._bipartite = bipartite

    @classmethod
    def _traced(cls, after, vector, euler, bipartite):
        report = cls(None, vector, euler, bipartite)
        report._after = after
        return report

    @property
    def faces(self):
        after = self._after
        if after is not None:
            self._faces = _face_list(after)
            self._after = None
        return self._faces

    vector = property(lambda self: self._vector)
    euler = property(lambda self: self._euler)
    bipartite = property(lambda self: self._bipartite)

    def __iter__(self):
        return iter((self.faces, self._vector, self._euler, self._bipartite))

    def __eq__(self, other):
        if not isinstance(other, FaceReport):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return ("FaceReport(faces=%r, vector=%r, euler=%r, bipartite=%r)"
                % tuple(self))


def _face_list(after):
    """The faces traced from ``after`` as ``_faces`` counts them: from
    each untraced dart in turn, dart d written as (d >> 1, d & 1)."""
    traced = bytearray(len(after))
    faces = []
    for start in range(len(after)):
        if traced[start]:
            continue
        walk = []
        d = start
        while not traced[d]:
            traced[d] = 1
            walk.append((d >> 1, d & 1))
            d = after[d ^ 1]
        faces.append(tuple(walk))
    return tuple(faces)


def trace_faces(edges, rotation):
    """Trace the faces of the ribbon graph (edges, rotation).

    ``edges`` lists unordered vertex pairs; repeated pairs and loops are
    allowed, and edges are identified by position.  ``rotation`` is a
    dict mapping every vertex to the cyclic order of its incident edge
    ends, a list or tuple of (edge_index, end) pairs with end in {0, 1};
    end s of edge e must sit at the vertex edges[e][s], and every end
    must appear exactly once overall.

    A dart (e, s) leaves the vertex holding end s.  Travelling it lands
    on end (e, 1-s), and the face continues with the next entry after
    that end in the host's cyclic list.  Returns a ``FaceReport``: the
    sorted (length, count) vector, the Euler characteristic V - E + F,
    and whether the underlying multigraph is bipartite, all counted as
    the faces are traced, and the faces as dart tuples, derived on
    first access.

    Faces come in the order of their least dart, darts compared as
    (e, s) tuples, and each face starts at its least dart.  The run time
    is linear in the number of vertices and edge ends, and so is the
    first access to ``faces``.

    Refuses with GraphError ``edges`` that are no sequence of pairs, an
    edge that is no pair (by index) and a ``rotation`` that is no dict;
    with IncompleteRotation a vertex whose rotation is no list or tuple,
    an end that is no pair, an unknown end, an end at the wrong vertex,
    and an end listed twice or missing.
    """
    return _faces(edges, rotation)[0]


def _faces(edges, rotation):
    """``trace_faces`` and the size of the first vertex's component.

    Works on integer darts: end (e, s) is dart 2e + s, so d ^ 1 is the
    other end of d's edge.  One pass over ``rotation`` unpacks each end
    once and records ``host``, the position of the vertex holding each
    end, ``after``, the end that follows it at that vertex, and
    ``first``, the first end listed at each vertex (-1 if none).  A
    vertex's ring is its ``after`` chain from ``first``; no container is
    built per vertex, so a large system gives the collector no
    per-vertex objects to promote.  The face after dart d goes on with
    after[d ^ 1]; 2e + s sorts as (e, s) does, so tracing from each
    untraced dart in turn meets the faces in the order of their least
    dart.  The trace only counts each face's length and builds no
    container per face or dart; the report keeps ``after`` to list the
    faces if they are read.  The two-colouring walks the same chains.
    An end whose edge or side is not a plain int is refused by name, so
    0.9 is not read as edge 0, nor True as side 1.
    """
    try:
        # a tuple pair is kept, not copied: a large system holds many
        edges = [e if type(e) is tuple and len(e) == 2
                 else _pair(e, "edge %d", i) for i, e in enumerate(edges)]
    except TypeError:
        raise GraphError("edges must be a sequence of pairs, got %r"
                         % (edges,)) from None
    if not isinstance(rotation, dict):
        raise GraphError("rotation must be a dict, got %s"
                         % type(rotation).__name__)
    m = len(edges)
    host = [-1] * (2 * m)
    after = [0] * (2 * m)
    first = [-1] * len(rotation)
    for i, (v, ends) in enumerate(rotation.items()):
        if not isinstance(ends, (list, tuple)):
            raise IncompleteRotation(
                "the rotation at %r is not a list of edge ends" % (v,))
        head = prev = -1
        for end in ends:
            try:
                e, s = end
            except (TypeError, ValueError):
                raise IncompleteRotation(
                    "edge end %r at %r is not a pair" % (end, v)) from None
            if type(e) is not int or type(s) is not int \
                    or not 0 <= e < m or s not in (0, 1):
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
            if prev < 0:
                head = d
            else:
                after[prev] = d
            prev = d
        if head >= 0:
            after[prev] = head
            first[i] = head
    if -1 in host:
        e, s = divmod(host.index(-1), 2)
        raise IncompleteRotation(
            "end (%d, %d) is missing from the rotation at %r"
            % (e, s, edges[e][s]))

    traced = bytearray(2 * m)
    sizes = []
    for start in range(2 * m):
        if traced[start]:
            continue
        k = 0
        d = start
        while not traced[d]:
            traced[d] = 1
            k += 1
            d = after[d ^ 1]
        sizes.append(k)

    lengths = Counter(sizes)
    euler = len(rotation) - m + len(sizes)

    _, reached, odd = _two_colour(first, after, host)
    if odd is None and any(k % 2 for k in lengths):
        raise InvariantViolation(
            "odd face lengths %s on a bipartite graph"
            % sorted(k for k in lengths if k % 2))

    return FaceReport._traced(after, tuple(sorted(lengths.items())),
                              euler, odd is None), reached


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
    (4 everywhere).  Success reports CompatibleSquares.
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
    # now E = 2V and F = V, and F faces of even length >= 4 whose
    # lengths sum to 2E = 4F are all squares
    return TorusVerdict(True, "CompatibleSquares",
                        "every face is a square on a torus", report)
