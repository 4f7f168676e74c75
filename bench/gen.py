"""Seeded input generators and independent reference values.

Nothing here imports repvol.  Every expected value the benchmark checks
an operation against is computed in this module (or read straight from
the shipped volume table), never by the function under test.
"""

import json
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction


# ------------------------------------------------------------------ words

def walk_word(rng, order):
    """A uniformly random valid index sequence of the given order (> 2).

    Walks the mark automaton: a step up needs mark 0, a step down needs
    mark 1, a repeat flips the mark.  The walk must close (net step 0 mod
    order, final mark equal to the first), so each step is drawn in
    proportion to the number of closed completions it leaves; no
    candidate is ever rejected.
    """
    n = order
    mark0 = rng.randint(0, 1)
    # ways[k][(d, m)]: closed completions of k more steps from net
    # displacement d with current mark m.
    ways = [{(d, m): int(d == 0 and m == mark0)
             for d in range(n) for m in (0, 1)}]
    for _ in range(n):
        prev = ways[-1]
        ways.append({(d, m): sum(prev[(d + s) % n, mm]
                                 for s, mm in _moves(m))
                     for d in range(n) for m in (0, 1)})
    seq = [rng.randint(1, n)]
    d, m = 0, mark0
    for k in range(n, 0, -1):
        moves = _moves(m)
        weights = [ways[k - 1][(d + s) % n, mm] for s, mm in moves]
        s, m = rng.choices(moves, weights)[0]
        d = (d + s) % n
        if k > 1:
            seq.append((seq[-1] - 1 + s) % n + 1)
    return tuple(seq)


def _moves(mark):
    return ((1, 0), (0, 1)) if mark == 0 else ((-1, 1), (0, 0))


def letter_coefficients(seq):
    """The counting formula: coefficient of x_i is q_i / 2m."""
    out = {}
    for i in seq:
        out[i] = out.get(i, 0) + 1
    return {i: Fraction(q, len(seq)) for i, q in out.items()}


def _canon(t):
    d = t + t
    return min(d[s:s + len(t)] for s in range(len(t)))


def halving_graph(seq, limit):
    """Non-constant words reachable by halving, with their successors.

    Returns None once more than ``limit`` words are reachable.  The
    node count equals the number of steps a reduction certificate of
    ``seq`` records.
    """
    root = _canon(tuple(seq))
    m = len(root) // 2
    adj = {}
    todo = [root]
    while todo:
        w = todo.pop()
        if w in adj or len(set(w)) == 1:
            continue
        if len(adj) == limit:
            return None
        kids = [_canon(h + h[::-1]) for h in (w[:m], w[m:])]
        adj[w] = [k for k in kids if len(set(k)) > 1]
        todo.extend(kids)
    return adj


def largest_cycle_class(adj):
    """Size of the largest strongly connected component (iterative)."""
    index, low, on, stack = {}, {}, set(), []
    best = 0
    for root in adj:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = len(index)
                stack.append(v)
                on.add(v)
            kids = adj[v]
            if i < len(kids):
                work.append((v, i + 1))
                w = kids[i]
                if w not in index:
                    work.append((w, 0))
                elif w in on:
                    low[v] = min(low[v], index[w])
                continue
            if low[v] == index[v]:
                size = 0
                while True:
                    w = stack.pop()
                    on.discard(w)
                    size += 1
                    if w == v:
                        break
                best = max(best, size)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return best


# ----------------------------------------------------------------- graphs

def _relabel(rng, count):
    return rng.sample(range(10 * count), count)


def _graph_dict(rng, vertices, edges, reflections):
    """Shuffle vertex, edge and reflection order into a graph JSON dict."""
    vertices = list(vertices)
    edges = [list(e) if rng.random() < 0.5 else [e[1], e[0]] for e in edges]
    reflections = [{"mapping": sorted(map(list, mapping.items())),
                    "swaps": [list(s) for s in swaps]}
                   for mapping, swaps in reflections]
    for items in (vertices, edges, reflections):
        rng.shuffle(items)
    return {"vertices": vertices, "edges": edges,
            "reflections": reflections, "ambient": "S3"}


def cycle_graph(rng, size):
    """Even cycle with its edge reflections, vertices relabelled."""
    lab = _relabel(rng, size)
    edges = [(lab[v], lab[(v + 1) % size]) for v in range(size)]
    half = size // 2
    reflections = []
    for a in range(half):
        mapping = {lab[v]: lab[(2 * a + 1 - v) % size] for v in range(size)}
        swaps = [(lab[a], lab[a + 1]),
                 (lab[(a + half) % size], lab[(a + half + 1) % size])]
        reflections.append((mapping, swaps))
    return _graph_dict(rng, lab, edges, reflections)


def lattice_graph(rng, rows, cols):
    """Torus grid of two even cycles with row and column reflections."""
    lab = _relabel(rng, rows * cols)

    def at(i, j):
        return lab[(i % rows) * cols + j % cols]

    edges = [(at(i, j), at(i + 1, j)) for i in range(rows)
             for j in range(cols)]
    edges += [(at(i, j), at(i, j + 1)) for i in range(rows)
              for j in range(cols)]
    reflections = []
    for a in range(rows // 2):
        mapping = {at(i, j): at(2 * a + 1 - i, j)
                   for i in range(rows) for j in range(cols)}
        swaps = [(at(i, j), at(i + 1, j)) for i in (a, a + rows // 2)
                 for j in range(cols)]
        reflections.append((mapping, swaps))
    for b in range(cols // 2):
        mapping = {at(i, j): at(i, 2 * b + 1 - j)
                   for i in range(rows) for j in range(cols)}
        swaps = [(at(i, j), at(i, j + 1)) for j in (b, b + cols // 2)
                 for i in range(rows)]
        reflections.append((mapping, swaps))
    return _graph_dict(rng, lab, edges, reflections)


def cube_with_fixing_symmetry(rng):
    """The cube plus a reflection whose group fixes vertices."""
    lab = _relabel(rng, 8)

    def swap12(v):
        return (v & 1) | (((v >> 2) & 1) << 1) | (((v >> 1) & 1) << 2)

    edges = [(lab[v], lab[v ^ (1 << b)]) for v in range(8) for b in range(3)
             if v < v ^ (1 << b)]
    reflections = [({lab[v]: lab[v ^ (1 << b)] for v in range(8)},
                    [(lab[v], lab[v ^ (1 << b)]) for v in range(8)
                     if v < v ^ (1 << b)]) for b in range(3)]
    reflections.append(({lab[v]: lab[swap12(v) ^ 1] for v in range(8)},
                        [(lab[0], lab[1]), (lab[6], lab[7])]))
    return _graph_dict(rng, lab, edges, reflections)


def cycle_missing_reflection(rng, size):
    """A cycle with one edge reflection dropped: two edges go untagged."""
    data = cycle_graph(rng, size)
    data["reflections"].pop(rng.randrange(len(data["reflections"])))
    return data


def hyperprism_and_lattice(rng, size):
    """C_size x C_4 built two ways, as plain (vertices, edges) pairs."""
    hv = [(v, i, j) for v in range(size) for i in (0, 1) for j in (0, 1)]
    he = [((v, i, j), ((v + 1) % size, i, j)) for v, i, j in hv]
    he += [((v, 0, j), (v, 1, j)) for v in range(size) for j in (0, 1)]
    he += [((v, i, 0), (v, i, 1)) for v in range(size) for i in (0, 1)]
    lab = _relabel(rng, 4 * size)
    lv = lab[:]
    rng.shuffle(lv)
    le = [(lab[v * 4 + k], lab[((v + 1) % size) * 4 + k])
          for v in range(size) for k in range(4)]
    le += [(lab[v * 4 + k], lab[v * 4 + (k + 1) % 4])
           for v in range(size) for k in range(4)]
    rng.shuffle(le)
    return (hv, he), (lv, le)


def is_edge_isomorphism(mapping, a, b):
    (va, ea), (vb, eb) = a, b
    if mapping is None or sorted(mapping) != sorted(va) or \
            sorted(mapping.values()) != sorted(vb):
        return False
    target = {frozenset(e) for e in eb}
    return {frozenset((mapping[u], mapping[v])) for u, v in ea} == target


def grid_torus(rng, rows, cols):
    """Rotation system of the rows x cols square grid on a torus.

    Edge order is shuffled and each cyclic order starts at a random
    position, which changes neither the surface nor its faces.
    """
    edges, hidx, vidx = [], {}, {}
    for i in range(rows):
        for j in range(cols):
            hidx[i, j] = len(edges)
            edges.append(((i, j), (i, (j + 1) % cols)))
            vidx[i, j] = len(edges)
            edges.append(((i, j), ((i + 1) % rows, j)))
    perm = list(range(len(edges)))
    rng.shuffle(perm)
    new_edges = [None] * len(edges)
    for old, new in enumerate(perm):
        new_edges[new] = edges[old]
    rotation = {}
    for i in range(rows):
        for j in range(cols):
            ends = [(perm[hidx[i, j]], 0),
                    (perm[vidx[(i - 1) % rows, j]], 1),
                    (perm[hidx[i, (j - 1) % cols]], 1),
                    (perm[vidx[i, j]], 0)]
            k = rng.randrange(4)
            rotation[i, j] = ends[k:] + ends[:k]
    return new_edges, rotation


def dipole(rng, count, planar=True):
    """``count`` parallel edges between two vertices.

    The planar rotation reverses the order at v (all bigons on a
    sphere); otherwise two ends at v are swapped, pushing the
    embedding onto a torus.
    """
    edges = [("u", "v")] * count
    ends_v = [(i, 1) for i in range(count)]
    if planar:
        ends_v.reverse()
    else:
        ends_v[-1], ends_v[-2] = ends_v[-2], ends_v[-1]
    k = rng.randrange(count)
    ends_u = [(i, 0) for i in range(count)]
    return edges, {"u": ends_u[k:] + ends_u[:k], "v": ends_v}


# ------------------------------------------------------------------ links

def load_table(path):
    """The shipped volume table, keyed as the bound rules look it up.

    Values are exact Fractions; a recorded zero (certified not
    hyperbolic) reads as 0, an absent row as a missing key.
    """
    with open(path) as f:
        data = json.load(f)
    table = {}
    for row in data["entries"]:
        key = (row["family"], row["conway"], row["ambient"],
               tuple(row["signature"]), row.get("orientation", "standard"))
        table[key] = Fraction(Decimal(row["volume"]))
    return table, {c: Decimal(v) for c, v in data["limits"].items()}


def table_total(table, ambient, slots):
    """Sum of recorded volumes for (family, conway, demand) slots.

    None when any slot has no positive volume at exactly its demand,
    which is when the bound must be refused.
    """
    total = Fraction(0)
    for family, conway, demand in slots:
        volume = table.get((family, conway, ambient, demand, "standard"))
        if not volume:
            return None
        total += volume
    return total


def fixed(value, places=8):
    """Fixed-point text of a Fraction or Decimal, half-even rounding."""
    with localcontext() as ctx:
        ctx.prec = 50
        if isinstance(value, Fraction):
            value = Decimal(value.numerator) / Decimal(value.denominator)
        return str(Decimal(value).quantize(Decimal(1).scaleb(-places),
                                           rounding=ROUND_HALF_EVEN))


_FRACTIONS = ("1/3", "2/3", "1/4", "3/4", "2/5", "3/5", "1/5", "3/7",
              "5/8", "2/9")


def arborescent_expression(rng, leaves):
    """Expression text and the verdict it must get.

    Kinds: a rational (integer plus one fraction, so the value is known
    exactly), a sum of non-integer rationals (not rational), and sums
    carrying a loop tangle that rules hyperbolicity out.
    """
    kind = rng.choice(("rational", "montesinos", "loop", "top-loop"))
    if kind == "rational":
        frac = rng.choice(_FRACTIONS + ("1/2", "-1/2"))
        shift = rng.randint(-2, 2)
        value = Fraction(frac) + shift
        text = "sum(rat(%d), rat(%s))" % (shift, frac)
        if value.denominator == 1:
            return text, "EntirelyNonHyperbolic"
        if abs(value.numerator) == 1 and value.denominator == 2:
            return text, "Principally6"
        return text, "Principally4"
    parts = ["rat(%s)" % rng.choice(_FRACTIONS) for _ in range(leaves)]
    parts = ["refl(%s)" % p if rng.random() < 0.3 else p for p in parts]
    if kind == "loop":
        parts.insert(rng.randrange(len(parts)),
                     "refl(q(%d))" % rng.randint(2, 4))
    elif kind == "top-loop":
        parts.insert(rng.randrange(len(parts)), "q(1)")
    text = parts[0]
    for p in parts[1:]:
        text = "sum(%s, %s)" % (text, p)
    return text, ("Principally2" if kind == "montesinos"
                  else "EntirelyNonHyperbolic")


def saucer_template_dict(label):
    return {"id": "saucer " + label, "faces": [[1, 2], [1, 2]],
            "strands": [[[1, 1], [1, 2]], [[2, 1], [2, 2]]]}


def square_template_dict(label):
    return {"id": "square " + label, "faces": [[1], [1], [1], [1]],
            "strands": [[[1, 1], [2, 1]], [[3, 1], [4, 1]]]}
