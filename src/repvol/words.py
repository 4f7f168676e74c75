"""Cyclic words of twisted letters and their exact reduction.

A *cyclic word* of order 2m is a cyclic sequence of 2m letters drawn from
T_1, ..., T_{2m}, each possibly carrying a reflection mark.  Subscripts of
cyclically consecutive letters may differ only by +1, 0 or -1 mod 2m, and
the marks are forced by those steps: an ascending pair is unmarked, a
descending pair is marked on both letters, and a repeated subscript flips
the mark.  Words are stored by their subscript sequence alone and marks are
re-derived on validation.  The one genuine ambiguity is order 2, where
+1 == -1 mod 2 makes T_1 T_2 and its marked twin distinct representatives
of the same word; the chosen representative is remembered there and nowhere
else.

Every valid word w satisfies the halving relation

    2*w  =  a1.rev(a1)  +  a2.rev(a2)

where a1 and a2 are the two halves of the canonical rotation of w, cut at
positions 0 and m.  Iterating the relation rewrites w as an exact rational
combination of the constant words x_i = T_i^{2m}, and the coefficient of
x_i always equals (number of occurrences of letter i in w) / 2m.  reduce()
runs the iteration, records a replayable certificate, and checks the result
against that counting formula.
"""

import sys
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from . import InvariantViolation


class WordError(ValueError):
    """Base class for cyclic-word validation failures."""


class LengthMismatch(WordError):
    """Sequence length does not match the stated order, or the order is bad."""


class DeltaOutOfRange(WordError):
    """A subscript, or a consecutive subscript step, is outside the rules."""


class FlagInconsistent(WordError):
    """No assignment of reflection marks satisfies the step rules."""


class BadCut(WordError):
    """A split position that does not cut the word into two halves."""


class NonTermination(RuntimeError):
    """The halving iteration exceeded its proven work bound.

    This cannot happen for a valid word; it converts the termination
    argument into a runtime assertion.
    """


class MissingBasisVolume(LookupError):
    """A letter with nonzero coefficient has no volume assigned."""


def _deltas(order, indices):
    n = len(indices)
    return [(indices[(k + 1) % n] - indices[k]) % order for k in range(n)]


def _derive_flags(order, indices, reflected=False):
    """Reflection marks for an index sequence, or raise.

    Returns a tuple of booleans (True = marked).  ``reflected`` selects the
    representative when nothing forces the first mark, which happens exactly
    for constant words and for the ascending order-2 word.
    """
    n = len(indices)
    deltas = _deltas(order, indices)
    down = order - 1
    for k, d in enumerate(deltas):
        if d not in (0, 1, down):
            raise DeltaOutOfRange(
                "step from T{} to T{} is not +1, 0 or -1 mod {}".format(
                    indices[k], indices[(k + 1) % n], order))
    # Parity of mark k relative to mark 0: repeats flip, steps preserve.
    rel = [0] * n
    for k in range(n - 1):
        rel[k + 1] = rel[k] ^ (1 if deltas[k] == 0 else 0)
    # The parity chain always closes up for legal deltas (the number of
    # repeats in a closed walk is even), so only value conflicts remain.
    first = None  # forced value of mark 0, if any
    if order > 2:
        for k, d in enumerate(deltas):
            if d == 1:
                forced = rel[k]  # mark k must be False
            elif d == down:
                forced = rel[k] ^ 1  # mark k must be True
            else:
                continue
            if first is None:
                first = forced
            elif first != forced:
                raise FlagInconsistent(
                    "ascending and descending steps impose clashing marks "
                    "on {}".format(list(indices)))
    if first is None:
        first = 1 if reflected else 0
    return tuple(bool(first ^ r) for r in rel)


def _min_rotation(seq):
    n = len(seq)
    doubled = list(seq) + list(seq)
    best = None
    for s in range(n):
        cand = tuple(doubled[s:s + n])
        if best is None or cand < best:
            best = cand
    return best


class CyclicWord:
    """A validated cyclic word, stored in canonical (lex-least) rotation.

    Create instances with validate_word(); the constructor trusts its
    arguments.  Equality and hashing use (order, indices) only, so the two
    order-2 representatives compare equal, as they should: they name the
    same word.
    """

    __slots__ = ("order", "indices", "flags")

    def __init__(self, order, indices, flags):
        self.order = order
        self.indices = indices
        self.flags = flags

    def __eq__(self, other):
        if not isinstance(other, CyclicWord):
            return NotImplemented
        return self.order == other.order and self.indices == other.indices

    def __hash__(self):
        return hash((self.order, self.indices))

    def __repr__(self):
        return "CyclicWord({}, {})".format(self.order, list(self.indices))

    def __str__(self):
        return " ".join(
            "T{}{}".format(i, "^R" if f else "")
            for i, f in zip(self.indices, self.flags))

    @property
    def is_constant(self):
        return len(set(self.indices)) == 1

    def letter_counts(self):
        """Occurrences of each subscript, e.g. {1: 8, 2: 2}."""
        return dict(Counter(self.indices))

    def reverse(self):
        """The reversed word, canonicalized.  An involution."""
        rep = self.flags[0] if self.order == 2 else False
        return validate_word(self.order, tuple(reversed(self.indices)),
                             reflected=rep)

    def to_json_dict(self):
        d = {"order": self.order, "indices": list(self.indices)}
        if self.order == 2 and self.flags[0]:
            d["reflected"] = True
        return d

    @classmethod
    def from_json_dict(cls, d):
        return validate_word(d["order"], d["indices"],
                             reflected=bool(d.get("reflected", False)))


def validate_word(order, indices, reflected=False):
    """Validate an index sequence and return the canonical CyclicWord.

    Raises LengthMismatch for a bad order or a sequence of the wrong
    length, DeltaOutOfRange for subscripts or steps outside the rules, and
    FlagInconsistent when no marking satisfies the step rules.

    >>> validate_word(4, [2, 2, 1, 1]).indices
    (1, 1, 2, 2)
    >>> validate_word(4, [1, 2, 1, 2])
    Traceback (most recent call last):
        ...
    repvol.words.FlagInconsistent: ...
    """
    if not isinstance(order, int) or order < 2 or order % 2:
        raise LengthMismatch("order must be a positive even integer, "
                             "got {!r}".format(order))
    indices = tuple(indices)
    if len(indices) != order:
        raise LengthMismatch("expected {} letters, got {}".format(
            order, len(indices)))
    for i in indices:
        if not isinstance(i, int) or not 1 <= i <= order:
            raise DeltaOutOfRange(
                "letter subscript {!r} outside 1..{}".format(i, order))
    _derive_flags(order, indices, reflected)  # validity of the input as given
    canon = _min_rotation(indices)
    return CyclicWord(order, canon, _derive_flags(order, canon, reflected))


class WordVector:
    """A formal rational combination of cyclic words.

    Zero coefficients are dropped eagerly.  Instances are treated as
    immutable; arithmetic returns new vectors.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for w, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[w] = c

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return WordVector(out)

    def scale(self, c):
        c = Fraction(c)
        return WordVector({w: c * v for w, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, WordVector) and self.terms == other.terms

    def __repr__(self):
        parts = ["{}*{!r}".format(c, w) for w, c in sorted(
            self.terms.items(), key=lambda t: (t[0].order, t[0].indices))]
        return "WordVector({})".format(" + ".join(parts) or "0")

    def constant_part(self):
        """Coefficients of the constant words, as {subscript: Fraction}."""
        return {w.indices[0]: c for w, c in self.terms.items()
                if w.is_constant}

    def non_constant_words(self):
        return [w for w in self.terms if not w.is_constant]


class SplitResult(NamedTuple):
    word: CyclicWord
    cut: tuple
    halves: tuple      # two index tuples of length m
    produced: tuple    # two CyclicWords, the doubled halves


class ReductionStep(NamedTuple):
    word: CyclicWord
    cut: tuple
    halves: tuple
    produced: tuple


class SolvedCycle(NamedTuple):
    word: CyclicWord
    self_coefficient: Fraction
    value: WordVector


def split_relation(word, at=0):
    """Cut ``word`` at positions (at, at + m) and double both halves.

    Returns a SplitResult whose ``produced`` words satisfy
    2*word = produced[0] + produced[1], hence for every subscript i
    2*q_i(word) = q_i(produced[0]) + q_i(produced[1]).

    ``at`` indexes into the canonical rotation; anything outside
    0..order-1 raises BadCut.
    """
    if not isinstance(at, int) or not 0 <= at < word.order:
        raise BadCut("cut position {!r} outside 0..{}".format(
            at, word.order - 1))
    m = word.order // 2
    doubled = word.indices + word.indices
    a1 = doubled[at:at + m]
    a2 = doubled[at + m:at + 2 * m]
    produced = tuple(validate_word(word.order, half + tuple(reversed(half)))
                     for half in (a1, a2))
    return SplitResult(word, (at, at + m), (a1, a2), produced)


def count_single_mountain_words(order):
    """Number of distinct palindromic words of single-mountain shape.

    These are the valid words of the form
    T_j^{2a_1} T_{j+1}^{a_2} ... T_{j+i-1}^{2a_i} ... T_{j+1}^{a_2}
    with a_1 + ... + a_i = m.  Each one is recovered uniquely from its
    ascending parameterization (start at the lower pole j and read
    upward), so the count is 2m lower-pole choices times the number of
    admissible run-length compositions (a_1, ..., a_i) of m.

    Not every composition yields a valid word: a middle run T_k^{a}
    (0 < k position < i-1) is entered ascending and left ascending, so
    both its boundary letters must be unmarked, while the a - 1 repeats
    inside the run each flip the mark.  That forces every middle part to
    be odd.  The two pole exponents are unconstrained.  First failing
    composition is (1, 2, 1) at m = 4; for m <= 3 every composition is
    admissible and the count coincides with m * 2^m.

    Counted here by a small DP: f(s) = number of finite sequences of odd
    parts summing to s (f(0) = 1 for the empty middle), then
    compositions = 1 + sum over pole pairs (a_1, a_i) of f(m - a_1 - a_i),
    the leading 1 being the single-run case i = 1.  Cross-checked against
    brute-force enumeration in the test suite.
    """
    m = order // 2
    f = [0] * (m + 1)
    f[0] = 1
    for s in range(1, m + 1):
        f[s] = sum(f[s - o] for o in range(1, s + 1, 2))
    compositions = 1
    for a1 in range(1, m):
        for ai in range(1, m - a1 + 1):
            compositions += f[m - a1 - ai]
    return 2 * m * compositions


class ReductionCertificate:
    """A replayable transcript of one reduction.

    ``steps`` holds every halving application in the order performed;
    ``solved_cycles`` the frames where a word re-entered its own expansion
    and was solved for (word, self-coefficient, resulting vector);
    ``coefficients`` the final combination over constant-word subscripts.
    Replaying: the step equations w = (p1 + p2) / 2 determine the result by
    exact linear elimination, independent of the recursion that found them;
    see replay_certificate().
    """

    def __init__(self, word, coefficients, steps, solved_cycles):
        self.word = word
        self.coefficients = dict(coefficients)
        self.steps = tuple(steps)
        self.solved_cycles = tuple(solved_cycles)

    def to_json_dict(self):
        def wd(w):
            return w.to_json_dict()

        return {
            "word": wd(self.word),
            "coefficients": {str(i): str(c) for i, c in
                             sorted(self.coefficients.items())},
            "steps": [{
                "word": wd(s.word),
                "cut": list(s.cut),
                "halves": [list(h) for h in s.halves],
                "produced": [wd(p) for p in s.produced],
            } for s in self.steps],
            "solved_cycles": [{
                "word": wd(s.word),
                "self_coefficient": str(s.self_coefficient),
                "value": {
                    "letters": {str(i): str(c) for i, c in
                                sorted(s.value.constant_part().items())},
                    "words": [[wd(w), str(c)] for w, c in
                              sorted(((w, c) for w, c in s.value.terms.items()
                                      if not w.is_constant),
                                     key=lambda t: t[0].indices)],
                },
            } for s in self.solved_cycles],
        }


def _constant_word(order, subscript):
    return validate_word(order, (subscript,) * order)


def reduce(word):
    """Rewrite ``word`` over the constant words x_i = T_i^{2m}, exactly.

    Returns (coefficients, certificate) where coefficients maps subscripts
    to Fractions.  The iteration applies split_relation() depth first,
    solving a word for itself whenever its expansion returns to it; the
    result is checked against the counting formula q_i(word) / 2m and a
    disagreement raises InvariantViolation (it would mean a bug, not bad
    input).  Exceeding 4x the single-mountain word count in halving steps
    raises NonTermination.

    >>> w = validate_word(10, [1,1,1,1,1,1,1,1,2,2])
    >>> coeffs, cert = reduce(w)
    >>> sorted(coeffs.items())
    [(1, Fraction(4, 5)), (2, Fraction(1, 5))]
    """
    order = word.order
    budget = 4 * count_single_mountain_words(order)
    state = {"splits": 0}
    cache = {}
    steps = []
    solved = []
    active = set()
    half = Fraction(1, 2)

    def resolve(vec, seen):
        # Substitute cached values for any popped words.  A cached vector
        # only mentions words that were ancestors of its frame when it
        # popped, so the substitution chain runs strictly down the old
        # stack and terminates.  Words still on the stack stay symbolic;
        # the frame that owns them will solve them.
        out = WordVector()
        for w, c in vec.terms.items():
            if w.is_constant or w in active:
                out = out + WordVector({w: c})
            else:
                if w not in seen:
                    seen[w] = resolve(cache[w], seen)
                out = out + seen[w].scale(c)
        return out

    def expand(w):
        if w.is_constant:
            return WordVector({w: Fraction(1)})
        if w in active:
            return WordVector({w: Fraction(1)})
        if w in cache:
            return resolve(cache[w], {})
        active.add(w)
        state["splits"] += 1
        if state["splits"] > budget:
            raise NonTermination(
                "exceeded {} halving steps at order {}".format(budget, order))
        s = split_relation(w)
        steps.append(ReductionStep(*s))
        vec = expand(s.produced[0]).scale(half) + \
            expand(s.produced[1]).scale(half)
        active.discard(w)
        c = vec.terms.pop(w, Fraction(0))
        vec = WordVector(vec.terms)
        if c:
            if c >= 1:
                raise NonTermination(
                    "self-coefficient {} leaves nothing to solve".format(c))
            vec = vec.scale(Fraction(1) / (1 - c))
            solved.append(SolvedCycle(w, c, vec))
        cache[w] = vec
        return vec

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 30000))
    try:
        vec = expand(word)
    finally:
        sys.setrecursionlimit(limit)
    leftover = vec.non_constant_words()
    if leftover:
        raise InvariantViolation(
            "non-constant words survived: {}".format(leftover))
    coefficients = vec.constant_part()

    counts = word.letter_counts()
    expected = {i: Fraction(q, order) for i, q in counts.items()}
    if coefficients != expected:
        raise InvariantViolation(
            "iteration result {} disagrees with counting formula {}".format(
                coefficients, expected))

    cert = ReductionCertificate(word, coefficients, steps, solved)
    return coefficients, cert


class CertificateError(ValueError):
    """A certificate that does not replay to its claimed result."""


def replay_certificate(cert):
    """Recompute a certificate's coefficients from its steps alone.

    Each step is first re-derived: the word must validate and
    split_relation() must reproduce the recorded cut, halves and produced
    words.  The step equations w = (p1 + p2)/2 are then solved by exact
    Gaussian elimination (no recursion, no memo, nothing shared with
    reduce()) and the coefficients of the certificate's root word are
    returned.  Raises CertificateError on any mismatch.
    """
    words = []
    eqs = {}
    for step in cert.steps:
        w = validate_word(step.word.order, step.word.indices)
        s = split_relation(w, step.cut[0])
        if s.cut != tuple(step.cut) or s.halves != tuple(step.halves) \
                or s.produced != tuple(step.produced):
            raise CertificateError(
                "step for {!r} does not re-derive".format(w))
        if w not in eqs:
            words.append(w)
            eqs[w] = s.produced
        elif eqs[w] != s.produced:
            raise CertificateError(
                "conflicting equations recorded for {!r}".format(w))
    if cert.word not in eqs:
        # A basis word reduces to itself with nothing to solve; its
        # certificate is empty and replays to the unit coefficient.
        if cert.word.is_constant and not cert.steps \
                and not cert.solved_cycles:
            return {cert.word.indices[0]: Fraction(1)}
        raise CertificateError("no step splits the root word")

    index = {w: k for k, w in enumerate(words)}
    n = len(words)
    half = Fraction(1, 2)
    zero = Fraction(0)
    # Sparse rows of [A | B]: columns < n are unknown words, columns
    # n.. are constant subscripts.  Row k is the equation for words[k],
    # so its diagonal holds 1 minus any self-produced halves.
    letters = sorted({i for w in words for i in w.letter_counts()})
    lcol = {i: n + k for k, i in enumerate(letters)}
    rows = []
    for w in words:
        row = {index[w]: Fraction(1)}
        for p in eqs[w]:
            if p.is_constant:
                col = lcol[p.indices[0]]
                row[col] = row.get(col, zero) + half
            elif p in index:
                col = index[p]
                row[col] = row.get(col, zero) - half
            else:
                raise CertificateError(
                    "produced word {!r} has no equation and is not "
                    "constant".format(p))
        rows.append({c: v for c, v in row.items() if v})

    holders = {}
    for r, row in enumerate(rows):
        for c in row:
            if c < n:
                holders.setdefault(c, set()).add(r)
    # Sweep unknowns in reverse discovery order: forward references
    # mostly point at later words, so fill-in stays small.
    for col in range(n - 1, -1, -1):
        pivot = rows[col]
        scale = pivot.get(col)
        if not scale:
            raise CertificateError("singular step system")
        if scale != 1:
            for c in pivot:
                pivot[c] /= scale
        for r in list(holders.get(col, ())):
            if r == col:
                continue
            row = rows[r]
            factor = row.pop(col, None)
            if factor is None:
                continue
            for c, v in pivot.items():
                if c == col:
                    continue
                value = row.get(c, zero) - factor * v
                if value:
                    row[c] = value
                    if c < n:
                        holders.setdefault(c, set()).add(r)
                else:
                    row.pop(c, None)
                    if c < n:
                        holders.setdefault(c, set()).discard(r)
        holders.pop(col, None)
    root = rows[index[cert.word]]
    return {letters[c - n]: v for c, v in root.items() if c >= n}


def verify_certificate(cert):
    """Replay ``cert`` and check it against its claimed coefficients.

    Also sanity-checks the recorded cycle solves (self-coefficients must
    lie strictly between 0 and 1).  Returns True or raises
    CertificateError.
    """
    for cyc in cert.solved_cycles:
        if not 0 < cyc.self_coefficient < 1:
            raise CertificateError(
                "cycle solve for {!r} has self-coefficient {}".format(
                    cyc.word, cyc.self_coefficient))
    replayed = replay_certificate(cert)
    claimed = {i: Fraction(c) for i, c in cert.coefficients.items()}
    if replayed != claimed:
        raise CertificateError(
            "replay gives {}, certificate claims {}".format(
                replayed, claimed))
    return True


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        # round-trip through repr so 0.1 means the decimal people typed
        return Fraction(repr(value))
    return Fraction(value)  # Decimal lands here


def bound_from_reduction(coefficients, basis_volumes):
    """Combine reduction coefficients with per-letter volumes, exactly.

    ``basis_volumes`` maps subscripts to volumes (Fraction, int, Decimal,
    decimal string or float).  Letters with nonzero coefficient and no
    volume raise MissingBasisVolume.  Returns a Fraction.

    >>> bound_from_reduction({1: Fraction(4, 5), 2: Fraction(1, 5)},
    ...                      {1: 10, 2: 5})
    Fraction(9, 1)
    """
    missing = sorted(i for i, c in coefficients.items()
                     if c and i not in basis_volumes)
    if missing:
        raise MissingBasisVolume(
            "no volume for letters {}".format(missing))
    total = Fraction(0)
    for i, c in coefficients.items():
        if c:
            total += Fraction(c) * _as_fraction(basis_volumes[i])
    return total
