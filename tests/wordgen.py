"""Word generators and independent solvers of the halving equations.

The oracle works on plain index tuples with its own rotation and doubling
code and solves the halving equations by dense elimination over the whole
reachable system at once.  It shares no solver logic with
repvol.words.reduce(), which is the point: the two must agree anyway.

The sparse eliminator (components_sinks_first() and solve_component())
solves a certificate's step equations exactly, one strongly connected
component at a time.  replay_certificate() does not solve them: it checks
that the system has one solution and reads that solution off the counting
formula, so the tests hold it to this eliminator, which is fast enough
for certificates of a few thousand steps where the dense oracle is not.
"""

import math
from fractions import Fraction

from repvol.words import CertificateError, WordError, validate_word


def all_valid_words(order):
    """Every valid word of the given order, canonical and deduplicated."""
    seen = set()
    stack = [(start,) for start in range(1, order + 1)]
    while stack:
        seq = stack.pop()
        if len(seq) == order:
            try:
                seen.add(validate_word(order, seq))
            except WordError:
                pass
            continue
        last = seq[-1]
        for d in (-1, 0, 1):
            stack.append(seq + ((last - 1 + d) % order + 1,))
    return sorted(seen, key=lambda w: w.indices)


def random_valid_word(rng, order):
    """Rejection-sample a valid word of the given order.

    Every inner step is -1, 0 or +1 by construction, so a candidate whose
    closing step (last letter back to the first) is anything else is
    rejected before validate_word() sees it.  The rng draws are the same
    either way.
    """
    while True:
        seq = [rng.randint(1, order)]
        for _ in range(order - 1):
            seq.append((seq[-1] - 1 + rng.choice((-1, 0, 1))) % order + 1)
        if (seq[0] - seq[-1]) % order not in (0, 1, order - 1):
            continue
        try:
            return validate_word(order, seq)
        except WordError:
            continue


def _canon(t):
    n = len(t)
    d = t + t
    return min(tuple(d[s:s + n]) for s in range(n))


def _own_split(word):
    """The two doubled halves of a canonical index tuple, oracle-side."""
    m = len(word) // 2
    out = []
    for half in (word[:m], word[m:]):
        out.append(_canon(half + tuple(reversed(half))))
    return out


def oracle_coefficients(indices):
    """Letter coefficients of a word by global linear elimination.

    ``indices`` is any index tuple of a valid word.  Collects the words
    reachable through repeated halving, sets up one equation
    2*w = d1 + d2 per non-constant word, and solves the whole system over
    Fraction.  Returns {subscript: Fraction}.
    """
    root = _canon(tuple(indices))
    order = len(root)
    reachable = []
    seenr = set()
    frontier = [root]
    while frontier:
        w = frontier.pop()
        if w in seenr or len(set(w)) == 1:
            continue
        seenr.add(w)
        reachable.append(w)
        frontier.extend(_own_split(w))
    if not reachable:  # root is constant
        return {root[0]: Fraction(1)}

    idx = {w: k for k, w in enumerate(reachable)}
    n = len(reachable)
    rows = []
    for w in reachable:
        a = [Fraction(0)] * n
        b = [Fraction(0)] * order
        a[idx[w]] += 2
        for d in _own_split(w):
            if len(set(d)) == 1:
                b[d[0] - 1] += 1
            else:
                a[idx[d]] -= 1
        rows.append(a + b)

    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        scale = rows[col][col]
        rows[col] = [x / scale for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]

    sol = rows[idx[root]][n:]
    return {k + 1: sol[k] for k in range(order) if sol[k]}


def components_sinks_first(successors):
    """Strongly connected components of a graph, each after all it reaches.

    Nodes are 0..n-1 and ``successors[v]`` lists the nodes v points to.
    Tarjan's algorithm (1972) on an explicit stack, so depth is not bounded
    by recursion.  Returns a list of components, each a list of nodes in
    reverse discovery order.
    """
    n = len(successors)
    number = [0] * n    # discovery number from 1; 0 = not yet discovered
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    count = 0
    for root in range(n):
        if number[root]:
            continue
        count += 1
        number[root] = low[root] = count
        stack.append(root)
        on_stack[root] = True
        path = [(root, iter(successors[root]))]
        while path:
            v, pending = path[-1]
            for u in pending:
                if not number[u]:
                    count += 1
                    number[u] = low[u] = count
                    stack.append(u)
                    on_stack[u] = True
                    path.append((u, iter(successors[u])))
                    break
                if on_stack[u] and number[u] < low[v]:
                    low[v] = number[u]
            else:
                path.pop()
                if path:
                    parent = path[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == number[v]:
                    component = []
                    while True:
                        u = stack.pop()
                        on_stack[u] = False
                        component.append(u)
                        if u == v:
                            break
                    components.append(component)
    return components


def solve_component(component, successors, constants, solved):
    """Solve one component's step equations by exact elimination.

    Row k reads 2*w_k - (its produced words inside the component) =
    (its constant produced words) + (its other produced words).  The last
    are in ``solved`` already and enter as letter vectors.  Columns
    0..k-1 are the component's words and column -i is subscript i.  Rows
    hold integers: each is scaled to clear its denominators and divided
    by its content after every update, which stays exact and costs far
    less than Fraction arithmetic.  Gauss-Jordan leaves each row with its
    own word and letters only, and ``solved[v]`` becomes that word's
    letter vector as (denominator, {subscript: numerator}).

    Most components are one word.  Its row holds only its own column
    (2*scale, less scale per self-loop) and letters, so elimination
    checks its diagonal and has no other row to update.
    """
    local = {v: k for k, v in enumerate(component)}
    rows = []
    for v in component:
        outside = [solved[u] for u in successors[v] if u not in local]
        scale = math.lcm(*(den for den, _ in outside))
        row = {local[v]: 2 * scale}
        for u in successors[v]:
            if u in local:
                col = local[u]
                row[col] = row.get(col, 0) - scale
        for i in constants[v]:
            row[-i] = row.get(-i, 0) + scale
        for den, nums in outside:
            factor = scale // den
            for i, x in nums.items():
                row[-i] = row.get(-i, 0) + factor * x
        rows.append({c: x for c, x in row.items() if x})

    holders = {}
    for r, row in enumerate(rows):
        for c in row:
            if c >= 0:
                holders.setdefault(c, set()).add(r)
    # Forward references mostly point at later-discovered words, so
    # eliminating in reverse discovery order keeps fill-in small.
    for col in range(len(rows)):
        pivot = rows[col]
        diagonal = pivot.get(col)
        if not diagonal:
            raise CertificateError("singular step system")
        for r in holders.pop(col):
            if r == col:
                continue
            factor = rows[r].pop(col)
            row = {c: diagonal * x for c, x in rows[r].items()}
            for c, x in pivot.items():
                if c == col:
                    continue
                value = row.get(c, 0) - factor * x
                if value:
                    row[c] = value
                    if c >= 0:
                        holders[c].add(r)
                else:
                    del row[c]
                    if c >= 0:
                        holders[c].discard(r)
            content = math.gcd(*row.values())
            if content > 1:
                row = {c: x // content for c, x in row.items()}
            rows[r] = row
    for v, k in local.items():
        row = rows[k]
        den = row[k]
        nums = {-c: x for c, x in row.items() if c < 0}
        g = math.gcd(den, *nums.values())
        if den < 0:
            g = -g
        solved[v] = (den // g, {i: x // g for i, x in nums.items()})
