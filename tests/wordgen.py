"""Word generators and an independent reduction oracle for the tests.

The oracle works on plain index tuples with its own rotation and doubling
code and solves the halving equations by dense elimination over the whole
reachable system at once.  It shares no solver logic with
repvol.words.reduce(), which is the point: the two must agree anyway.
"""

from fractions import Fraction

from repvol.words import WordError, validate_word


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
