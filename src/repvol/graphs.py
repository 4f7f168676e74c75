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
from operator import itemgetter
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


def _read_reflection(mapping, swaps, where=""):
    """(mapping, swaps) read once: an exact dict mapping as it is, any other
    through one ``dict()`` call, and the swaps paired into a tuple; else a
    GraphError whose message starts with ``where``."""
    if type(mapping) is not dict:
        try:
            mapping = dict(mapping)
        except (TypeError, ValueError):
            raise GraphError("%smapping must be a dict or pairs of vertices, "
                             "got %r" % (where, mapping)) from None
    try:
        numbered = enumerate(swaps)
    except TypeError:
        raise GraphError("%sswaps must be a sequence of pairs, got %r"
                         % (where, swaps)) from None
    return mapping, tuple(_pair(swap, "%sswap %d", where, j)
                          for j, swap in numbered)


class Reflection:
    """An involution of the vertex set tagged with edges it transposes.

    ``mapping`` takes any dict or pair sequence, kept as a dict of its own;
    ``swaps`` is the sequence of distinguished edges.  Only their shape is
    checked here; axioms are checked by the graph's validator.
    """

    __slots__ = ("mapping", "swaps")

    def __init__(self, mapping, swaps):
        self.mapping, self.swaps = _read_reflection(mapping, swaps)
        if self.mapping is mapping:     # never the caller's dict
            self.mapping = dict(mapping)

    def __repr__(self):
        return "Reflection(%d vertices, %d swaps)" % (
            len(self.mapping), len(self.swaps))


class ReflectionGraph:
    """A finite simple graph with reflections, validated lazily.

    Vertices may be any hashable labels.  Edges are unordered pairs of
    vertices, each end looked up once: an edge is keyed by its (lower,
    higher) end positions, stored with its ends in that order, and the
    edges are kept sorted by that key.  Duplicate edges are rejected
    here; loops are kept and fail validation later.
    ``reflections`` accepts Reflection objects, (mapping, swaps) pairs, or
    dicts with a mapping and optional swaps.  ``ambient`` names the
    manifold the replicant links live in.  Construction checks shape
    only, and refuses a part of the wrong shape with a GraphError naming
    its index; call ``validate_reflection_graph`` for the real audit,
    whose report is cached on the instance.  Every reflection goes
    through one reader: its mapping, an exact dict read in place and any
    other through one ``dict()`` call, becomes its one stored form (perm,
    swaps), perm[i] the position of vertex i's image.  A mapping that is
    no permutation is kept as a copy in a Reflection of its own: a marker
    the validator refuses.  ``reflections`` is read-only, and each read
    returns new Reflections: per perm, in vertex order, and per marker,
    in the order it was given.
    """

    __slots__ = ("vertices", "edges", "_reflections", "ambient",
                 "_pos", "_report")

    def __init__(self, vertices, edges, reflections, ambient="S3"):
        self.vertices = vertices = tuple(vertices)
        pos = {}
        for i, v in enumerate(vertices):
            try:
                first = pos.setdefault(v, i)
            except TypeError:
                raise GraphError("vertex %d is not hashable: %r"
                                 % (i, v)) from None
            if first != i:
                raise GraphError("duplicate vertex %r" % (v,))
        self._pos = pos
        if ambient not in AMBIENTS:
            raise GraphError("unknown ambient %r" % (ambient,))
        self.ambient = ambient

        by_ends = {}    # (lower, higher) end position -> oriented edge
        for i, edge in enumerate(edges):
            u, v = _pair(edge, "edge %d", i)
            try:
                a, b = pos[u], pos[v]
            except (KeyError, TypeError):   # no vertex is unhashable
                raise GraphError("edge %r has an endpoint that is not a "
                                 "vertex" % (edge,)) from None
            key, e = ((a, b), (u, v)) if a <= b else ((b, a), (v, u))
            if by_ends.setdefault(key, e) is not e:
                raise GraphError("duplicate edge %r" % (e,))
        self.edges = tuple(by_ends[key] for key in sorted(by_ends))

        stored = []
        for k, item in enumerate(reflections):
            if isinstance(item, Reflection):
                item = item.mapping, item.swaps
            elif isinstance(item, dict):
                if "mapping" not in item:
                    raise GraphError("reflection %d has no mapping" % k)
                item = item["mapping"], item.get("swaps", ())
            mapping, swaps = _read_reflection(
                *_pair(item, "reflection %d", k), "reflection %d: " % k)
            try:    # a vertex left out, or an image that is no vertex
                perm = tuple(map(pos.__getitem__,
                                 map(mapping.__getitem__, vertices)))
            except (KeyError, TypeError):
                perm = ()
            if len(mapping) == len(vertices) == len(set(perm)):
                stored.append((perm, swaps))
            else:   # a marker, copied so that no caller can change it
                stored.append(Reflection(mapping, swaps))
        self._reflections = tuple(stored)
        self._report = None

    @property
    def reflections(self):
        label = self.vertices.__getitem__
        return tuple(Reflection(r.mapping, r.swaps)
                     if isinstance(r, Reflection) else
                     Reflection(zip(self.vertices, map(label, r[0])), r[1])
                     for r in self._reflections)

    def __repr__(self):
        return "ReflectionGraph(%d vertices, %d edges, %d reflections, %s)" % (
            len(self.vertices), len(self.edges), len(self._reflections),
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
    Checks read vertex positions and the perm stored for each
    reflection; a marker is refused as no permutation at its turn.  Edge
    k is looked up by one int, a * n + b for its ends at positions a
    (colour 0) and b (colour 1), so a pair of one colour matches no
    edge, and image[k], the position of its image, is kept once per
    distinct perm.  Labels return in refusals and the report.

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

    # each edge colour-0 end first; a reflection that passed the class
    # swap check maps (a, b) to (perm[b], perm[a]), colour-0 end first
    sides = [(a, b) if color[a] == 0 else (b, a) for a, b in ends]
    edge_index = {a * n + b: k for k, (a, b) in enumerate(sides)}
    tagged = bytearray(len(ends))
    images = {}     # perm -> image[k], the position of edge k's image
    identity = tuple(range(n))
    flipped = tuple(1 - c for c in color)
    for idx, entry in enumerate(graph._reflections):
        if isinstance(entry, Reflection):
            raise BadReflection(
                "reflection %d is not a permutation of the vertex set" % idx)
        perm, swaps = entry
        take = itemgetter(*perm)    # n >= 2 here, so it returns tuples
        if take(perm) != identity or take(color) != flipped:
            for a, b in enumerate(perm):    # name the first failing vertex
                if perm[b] != a:
                    raise BadReflection(
                        "reflection %d is not an involution" % idx)
                if color[b] == color[a]:
                    raise BadReflection(
                        "reflection %d keeps %r on its own side"
                        % (idx, vertices[a]))
        image = [edge_index.get(perm[b] * n + perm[a]) for a, b in sides]
        if None in image:
            raise BadReflection(
                "reflection %d does not preserve the edge %r"
                % (idx, graph.edges[image.index(None)]))
        images[perm] = image
        if not swaps:
            raise BadReflection("reflection %d is tagged with no edge" % idx)
        for swap in swaps:
            try:
                x, y = pos[swap[0]], pos[swap[1]]
                # a pair of one colour gives no edge key
                k = edge_index[x * n + y if color[x] == 0 else y * n + x]
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
    positions.  Every vertex meets every class once, so class k is a full
    partner column for face k+1 of the pieces' mirror writer.
    """
    from . import pieces
    report = graph._report
    if report is None:
        raise NotValidated("validate the graph before building a replicant")
    if len(template.faces) != report.valence:
        raise ValenceMismatch(
            "template %r has %d faces but the graph is %d-valent"
            % (template.id, len(template.faces), report.valence))
    pos = graph._pos
    columns = []
    for edges in report.edge_classes:
        column = [None] * len(pos)
        for u, v in edges:
            a, b = pos[u], pos[v]
            column[a], column[b] = b, a
        columns.append(column)
    copies = tuple((template, (i,)) for i in range(len(pos)))
    return GReplicant(pieces.GluingComplex._mirror(copies, columns),
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
    n = len(graph.vertices)
    vertices = [(v, i) for i in layers for v in graph.vertices]
    edges = [((u, i), (v, i)) for i in layers for u, v in graph.edges]
    vertical = [((v, 0), (v, 1)) for v in graph.vertices]

    def reflections():
        for perm, swaps in graph._reflections:
            yield (zip(vertices, [vertices[p + i * n]
                                  for i in layers for p in perm]),
                   [((a, i), (b, i)) for i in layers for a, b in swaps])
        yield zip(vertices, vertices[n:] + vertices[:n]), vertical
    out = ReflectionGraph(vertices, edges + vertical, reflections(),
                          graph.ambient)
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
    reflections = (({v: (2 * a + 1 - v) % size for v in vertices},
                    [(a, a + 1), ((a + half) % size, (a + half + 1) % size)])
                   for a in range(half))
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

    def reflections():
        for a in range(rows // 2):
            yield ({(i, j): ((2 * a + 1 - i) % rows, j) for i, j in vertices},
                   [((i, j), ((i + 1) % rows, j))
                    for i in (a, a + rows // 2) for j in range(cols)])
        for b in range(cols // 2):
            yield ({(i, j): (i, (2 * b + 1 - j) % cols) for i, j in vertices},
                   [((i, j), (i, (j + 1) % cols))
                    for j in (b, b + cols // 2) for i in range(rows)])
    return ReflectionGraph(vertices, edges, reflections(), ambient)


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
    """Serialize a ReflectionGraph; tuples become lists, at any depth.
    Each mapping is written in vertex order, or a marker's as given."""
    return {
        "vertices": _vertex_out(graph.vertices),
        "edges": _vertex_out(graph.edges),
        "reflections": [{"mapping": _vertex_out(tuple(r.mapping.items())),
                         "swaps": _vertex_out(r.swaps)}
                        for r in graph.reflections],
        "ambient": graph.ambient,
    }


def _mapping_in(pairs):
    """A JSON mapping as a dict of vertices: one ``dict()`` call on a list
    of list or tuple entries, kept if no key or value is a list; else
    entry by entry through ``_vertex_in``, which raises what it raises.
    Entries of other types never reach ``dict()``, which could use up an
    iterator entry that the second reading needs."""
    if type(pairs) is list and set(map(type, pairs)) <= {list, tuple}:
        try:
            mapping = dict(pairs)
        except (TypeError, ValueError):
            pass
        else:
            kinds = set(map(type, mapping))
            kinds.update(map(type, mapping.values()))
            if not any(issubclass(kind, list) for kind in kinds):
                return mapping
    return {_vertex_in(k): _vertex_in(w) for k, w in pairs}


def graph_from_json_dict(data):
    """Rebuild a ReflectionGraph from its JSON dictionary.

    Each reflection's mapping, a JSON list of pairs, is built with one
    ``dict()`` call; labels are recast from lists to tuples only in a
    mapping where a list appears as a key or a value.
    """
    try:
        vertices = [_vertex_in(v) for v in data["vertices"]]
        edges = [_pair_in(e) for e in data["edges"]]
        reflections = [(_mapping_in(item["mapping"]),
                        [_pair_in(swap) for swap in item["swaps"]])
                       for item in data["reflections"]]
        ambient = data.get("ambient", "S3")
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError("malformed graph JSON: %s" % exc) from None
    return ReflectionGraph(vertices, edges, reflections, ambient)


def _adjacency_sets(g):
    """The vertices of ``g``, its edge count and neighbour position sets.
    A (vertices, edges) pair is read by the ReflectionGraph constructor,
    which refuses what it refuses; a ReflectionGraph is read as it is."""
    if not isinstance(g, ReflectionGraph):
        vertices, edges = _pair(g, "a graph")
        try:
            vertices, edges = tuple(vertices), tuple(edges)
        except TypeError:
            raise GraphError("a graph must be a pair of vertices and edges, "
                             "got %r" % (g,)) from None
        g = ReflectionGraph(vertices, edges, ())
    pos = g._pos
    adj = [set() for _ in pos]
    for u, v in g.edges:
        a, b = pos[u], pos[v]
        adj[a].add(b)
        adj[b].add(a)
    return g.vertices, len(g.edges), adj


def graph_isomorphic(a, b):
    """Search for a vertex bijection of ``a`` onto ``b`` preserving edges.

    Accepts ReflectionGraph instances or (vertices, edges) pairs; only
    the underlying simple graphs are compared, reflections are ignored.
    Backtracking, on an explicit stack, over a breadth-first vertex order
    with iff-adjacency pruning against everything already mapped (a
    candidate touches exactly the images of u's mapped neighbours); meant
    for the small graphs handled here, run on vertex positions.  Returns
    a dict of labels or None.  A pair is read as ReflectionGraph reads
    its vertices and edges, so one that repeats a vertex or an edge, or
    has an edge end that is no vertex, is refused with a GraphError.
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
            # c touches the images of u's mapped neighbours, so it must
            # touch no other mapped image: O(valence), not O(|mapping|)
            if len(adj_b[c]) != degree or len(adj_b[c] & used) != len(mapped):
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
        if type(edges) not in (list, tuple):
            edges = list(edges)
    except TypeError:
        raise GraphError("edges must be a sequence of pairs, got %r"
                         % (edges,)) from None
    # a list or tuple of tuple pairs is used as it is, checked at C speed;
    # anything else is read edge by edge, tuple pairs kept, not copied
    if not (set(map(type, edges)) <= {tuple} and set(map(len, edges)) <= {2}):
        edges = [e if type(e) is tuple and len(e) == 2
                 else _pair(e, "edge %d", i) for i, e in enumerate(edges)]
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


def _wrong_valence(rotation, want):
    """Why not every vertex of ``rotation`` has ``want`` edge ends,
    naming the least offender by repr, or None."""
    if set(map(len, rotation.values())) <= {want}:
        return None
    v = min((v for v, ring in rotation.items() if len(ring) != want),
            key=repr)
    return "vertex %r has valence %d, expected %d" % (v, len(rotation[v]),
                                                      want)


class BigonCheck(NamedTuple):
    """Outcome of the sphere bigon-count estimate."""
    passed: bool
    bigons: int
    required: int
    report: FaceReport


def bigon_bound_check(edges, rotation, n):
    """Check f2 >= 2(n+1) for a 2(n+1)-valent rotation system on a sphere.

    Raises WrongValence unless every vertex carries exactly 2(n+1) edge
    ends, and NotSphere unless the traced surface is connected and has
    Euler characteristic 2.  The exact identity

        sum over face lengths k of  f_k (2(n+1) - nk) / (2(n+1))  =  2,

    the Euler count rewritten per face, is recomputed in Fractions as a
    guard before the bigon count is compared against 2(n+1).
    """
    if type(n) is not int:
        raise GraphError("n must be an integer, got %r" % (n,))
    if n < 1:
        raise GraphError("n must be at least 1")
    report, reached = _faces(edges, rotation)
    want = 2 * (n + 1)
    wrong = _wrong_valence(rotation, want)
    if wrong:
        raise WrongValence(wrong)
    # a sphere beside a torus also counts 2 + 0
    if reached != len(rotation):
        raise NotSphere("%d of %d vertices reachable"
                        % (reached, len(rotation)))
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
    wrong = _wrong_valence(rotation, 4)
    if wrong:
        return TorusVerdict(False, "WrongValence", wrong, report)
    # now E = 2V and F = V, and F faces of even length >= 4 whose
    # lengths sum to 2E = 4F are all squares
    return TorusVerdict(True, "CompatibleSquares",
                        "every face is a square on a torus", report)
