"""Cyclic words of twisted letters and their exact reduction.

A *cyclic word* of order 2m is a cyclic sequence of 2m letters drawn from
T_1, ..., T_{2m}, each possibly carrying a reflection mark.  Subscripts of
cyclically consecutive letters may differ only by +1, 0 or -1 mod 2m, and
the marks are forced by those steps: an ascending pair is unmarked, a
descending pair is marked on both letters, and a repeated subscript flips
the mark.  Words are stored by their subscript sequence alone and marks are
re-derived on each access.  The one genuine ambiguity is order 2, where
+1 == -1 mod 2 makes T_1 T_2 and its marked twin distinct representatives
of the same word; one stored bit remembers the chosen representative, and
only words with no forced mark read it.

Every valid word w satisfies the halving relation

    2*w  =  a1.rev(a1)  +  a2.rev(a2)

where a1 and a2 are the two halves of the canonical rotation of w, cut at
positions 0 and m.  Iterating the relation rewrites w as an exact rational
combination of the constant words x_i = T_i^{2m}, and the coefficient of
x_i always equals (number of occurrences of letter i in w) / 2m.  reduce()
runs the iteration, records a replayable certificate, and checks the result
against that counting formula.
"""

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from . import InvariantViolation, LimitExceeded


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


class NonTermination(LimitExceeded):
    """The halving iteration exceeded its proven work bound.

    This cannot happen for a valid word; it converts the termination
    argument into a runtime assertion.
    """


class MissingBasisVolume(LookupError):
    """A letter with nonzero coefficient has no volume assigned."""


def _derive_flags(order, indices, reflected=False):
    """Reflection marks for an index sequence, or raise.

    Returns a tuple of booleans (True = marked).  ``reflected`` selects the
    representative when nothing forces the first mark, which happens exactly
    for constant words and for the ascending order-2 word.
    """
    n = len(indices)
    down = order - 1
    deltas = [(b - a) % order
              for a, b in zip(indices, indices[1:] + indices[:1])]
    if not {0, 1, down}.issuperset(deltas):
        k = next(k for k, d in enumerate(deltas) if d not in (0, 1, down))
        raise DeltaOutOfRange(
            "step from T{} to T{} is not +1, 0 or -1 mod {}".format(
                indices[k], indices[(k + 1) % n], order))
    # rel is the parity of mark k relative to mark 0: repeats flip, steps
    # preserve.  The chain always closes up for legal deltas (the number
    # of repeats in a closed walk is even), so only value conflicts remain.
    rel = 0
    marks = []
    first = None  # forced value of mark 0, if any
    forcing = order > 2
    for d in deltas:
        marks.append(rel)
        if d == 0:
            rel ^= 1
        elif forcing:
            # an ascending step needs mark k False, a descending one True
            forced = rel if d == 1 else rel ^ 1
            if first is None:
                first = forced
            elif first != forced:
                raise FlagInconsistent(
                    "ascending and descending steps impose clashing marks "
                    "on {}".format(list(indices)))
    if first is None:
        first = 1 if reflected else 0
    return tuple([bool(first ^ r) for r in marks])


def _least_rotation(seq):
    """Where the lexicographically least rotation of a tuple starts, in O(n).

    Duval's Lyndon factorization (1983) run over ``seq + seq``: the last
    factor that starts inside the first copy starts the least rotation.

    >>> _least_rotation((2, 1, 2, 1))
    1
    """
    n = len(seq)
    doubled = seq + seq
    end = 2 * n
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < end:
            a, b = doubled[k], doubled[j]
            if a < b:
                k = i
            elif a == b:
                k += 1
            else:
                break
            j += 1
        while i <= k:
            i += j - k
    return start


def _least_mirror_rotation(half):
    """The least rotation of ``half + half[::-1]``, as a tuple.

    A least rotation starts where a maximal cyclic run of the least
    letter starts, so only those rotations are compared, each as one
    slice of the doubled mirror.  Their positions are read off the half:
    a run of the half that starts at k > 0 starts one at k in the mirror,
    and one that ends at j < m - 1 starts one at 2m - 1 - j, in the
    reversed copy.  Positions 0 and m start none: each continues a run
    across a join, and both joins are repeats.  The first rotation taken
    starts at the first least letter of the half; for a constant half it
    is the only one, and elsewhere one extra rotation moves no minimum.
    Costs O(m * runs); see split_relation().

    >>> _least_mirror_rotation((2, 1, 1, 2, 3))  # the run ending at j = 2
    (1, 1, 2, 2, 1, 1, 2, 3, 3, 2)
    """
    low = min(half)
    m = len(half)
    rev = half[::-1]
    n = 2 * m
    mirror = half + rev
    doubled = mirror + mirror
    k = half.index(low)
    last = m - 1 - rev.index(low)
    best = doubled[k:k + n]
    while True:
        # k starts a run of ``low`` in the half; move it past the run
        k += 1
        while k < m and half[k] == low:
            k += 1
        if k == m:
            return best
        # the run ended at j = k - 1, so a run starts at 2m - 1 - j
        rotation = doubled[n - k:2 * n - k]
        if rotation < best:
            best = rotation
        if k > last:
            return best
        k = half.index(low, k)
        rotation = doubled[k:k + n]
        if rotation < best:
            best = rotation


class CyclicWord:
    """A validated cyclic word, stored in canonical (lex-least) rotation.

    It holds ``order``, ``indices`` and ``reflected``, the representative
    bit that only words with no forced mark read (constant words and
    order 2); ``flags`` is derived on each access.
    Create instances with validate_word(); the constructor trusts its
    arguments, and every method assumes ``indices`` is a valid word in
    least rotation (is_constant reads only its two ends).  Code that
    receives a word from outside, such as replay_certificate(), validates
    it first.  Equality and hashing use (order, indices) only, so the two
    order-2 representatives compare equal, as they should: they name the
    same word.
    """

    __slots__ = ("order", "indices", "reflected", "_hash")

    def __init__(self, order, indices, reflected=False):
        self.order = order
        self.indices = indices
        self.reflected = reflected
        self._hash = hash((order, indices))

    @property
    def flags(self):
        return _derive_flags(self.order, self.indices, self.reflected)

    def __eq__(self, other):
        if not isinstance(other, CyclicWord):
            return NotImplemented
        return self.order == other.order and self.indices == other.indices

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "CyclicWord({}, {})".format(self.order, list(self.indices))

    def __str__(self):
        return " ".join(
            "T{}{}".format(i, "^R" if f else "")
            for i, f in zip(self.indices, self.flags))

    @property
    def is_constant(self):
        # In least rotation a word that is not constant ends on a letter
        # above its first, else rotating that letter to the front would
        # give a smaller rotation.
        return self.indices[0] == self.indices[-1]

    def letter_counts(self):
        """Occurrences of each subscript, e.g. {1: 8, 2: 2}."""
        return dict(Counter(self.indices))

    def reverse(self):
        """The reversed word, canonicalized.  An involution."""
        return validate_word(self.order, tuple(reversed(self.indices)),
                             reflected=self.order == 2 and self.reflected)

    def to_json_dict(self):
        d = {"order": self.order, "indices": list(self.indices)}
        if self.order == 2 and self.reflected:
            d["reflected"] = True
        return d

    @classmethod
    def from_json_dict(cls, d):
        """Read and validate a word; WordError if malformed."""
        try:
            order, indices = d["order"], tuple(d["indices"])
            reflected = d.get("reflected", False)
        except (AttributeError, KeyError, TypeError) as exc:
            raise WordError("malformed word JSON: %s %s"
                            % (type(exc).__name__, exc)) from None
        if type(reflected) is not bool:
            # bool() would read the string "false" as true
            raise WordError("malformed word JSON: reflected must be true "
                            "or false, got %r" % (reflected,))
        return validate_word(order, indices, reflected=reflected)


def validate_word(order, indices, reflected=False):
    """Validate an index sequence and return the canonical CyclicWord.

    Raises LengthMismatch for a bad order or a sequence of the wrong
    length, DeltaOutOfRange for subscripts or steps outside the rules, and
    FlagInconsistent when no marking satisfies the step rules.  Subscripts
    must be plain ints: True equals 1, but would print as TTrue.

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
        if type(i) is not int or not 1 <= i <= order:
            raise DeltaOutOfRange(
                "letter subscript {!r} outside 1..{}".format(i, order))
    _derive_flags(order, indices, reflected)   # raises if no marking fits
    # The marks follow the letters round the cycle, so the canonical
    # rotation derives the same rotation of them.  Where no step forces
    # a mark, the word is constant (its least rotation starts at 0) or
    # has order 2 (all marks equal), and ``reflected`` lands on the same
    # canonical letter either way.
    k = _least_rotation(indices)
    return CyclicWord(order, indices[k:] + indices[:k], reflected)


class SplitResult(NamedTuple):
    word: CyclicWord
    cut: tuple
    halves: tuple      # two index tuples of length m
    produced: tuple    # two CyclicWords, the doubled halves


class SolvedCycle(NamedTuple):
    word: CyclicWord
    self_coefficient: Fraction
    # word as {CyclicWord: Fraction} over constant words and the words
    # whose frames were still open when it was solved
    value: dict


def split_relation(word, at=0, memo=None):
    """Cut ``word`` at positions (at, at + m) and double both halves.

    Returns a SplitResult whose ``produced`` words satisfy
    2*word = produced[0] + produced[1], hence for every subscript i
    2*q_i(word) = q_i(produced[0]) + q_i(produced[1]).

    ``at`` indexes into the canonical rotation and must be a plain int
    in 0..order-1, else BadCut: True equals 1, but a certificate would
    write its cut as [true, ...].

    ``word`` is trusted to be valid, as every word from validate_word()
    or split_relation() is.  A doubled half a.rev(a) of a valid word is
    then valid too (the steps of rev(a) are those of a negated, and both
    joins are repeats), so the produced words are only put into least
    rotation, never re-validated; their marks are derived on access.
    A hand-built CyclicWord that breaks the step rules is untrusted input
    and gives an unspecified result: validate it first.  replay_certificate()
    relies on this: it validates the root and any step word that no earlier
    re-derived step produced, and trusts the produced words.

    Each produced word is the least rotation of its doubled half, found
    by comparing, as tuple slices, only the rotations that start a run of
    the least letter (_least_mirror_rotation()).  That costs O(order *
    runs), not O(order): the halves of a near-periodic word of order
    80 000 take seconds, where Duval's scan takes milliseconds.
    validate_word() reads words from outside, so it keeps Duval.  Only
    halves of valid words come here, from reduce() and the replay, and
    at orders where the scan costs more than Duval the reduction's own
    steps cost far more again.

    ``memo``, if given, maps each half already doubled to its produced
    word and is filled in here, so a half met again returns that same
    CyclicWord without another least-rotation pass.  reduce() and
    replay_certificate() each pass a fresh dict per call: a half of plain
    ints determines its word, and only a valid word's halves go in, but a
    dict kept between calls would grow without end and would let reduce()
    and the replay that checks it share state.
    """
    if type(at) is not int or not 0 <= at < word.order:
        raise BadCut("cut position {!r} is not an int in 0..{}".format(
            at, word.order - 1))
    if memo is None:
        memo = {}
    m = word.order // 2
    indices = word.indices
    if at:
        indices = indices[at:] + indices[:at]
    a1, a2 = indices[:m], indices[m:]
    produced = []
    for half in (a1, a2):
        p = memo.get(half)
        if p is None:
            p = memo[half] = CyclicWord(word.order,
                                        _least_mirror_rotation(half))
        produced.append(p)
    return SplitResult(word, (at, at + m), (a1, a2), tuple(produced))


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
    and was solved for (word, self-coefficient, and the resulting
    {CyclicWord: Fraction} combination);
    ``coefficients`` the final combination over constant-word subscripts.
    Replaying: the step equations w = (p1 + p2) / 2 have exactly one
    solution when every step word reaches, through the words it produces,
    a word that produces a constant word, and the letter counts of each
    word over the order are that solution; see replay_certificate().
    Replay reads no value recorded in ``solved_cycles``.
    """

    def __init__(self, word, coefficients, steps, solved_cycles):
        self.word = word
        self.coefficients = dict(coefficients)
        self.steps = tuple(steps)
        self.solved_cycles = tuple(solved_cycles)

    def to_json_dict(self):
        cycles = []
        for s in self.solved_cycles:
            terms = sorted(s.value.items(), key=lambda t: t[0].indices)
            cycles.append({
                "word": s.word.to_json_dict(),
                "self_coefficient": str(s.self_coefficient),
                "value": {
                    "letters": {str(w.indices[0]): str(c)
                                for w, c in terms if w.is_constant},
                    "words": [[w.to_json_dict(), str(c)]
                              for w, c in terms if not w.is_constant],
                },
            })
        return {
            "word": self.word.to_json_dict(),
            "coefficients": {str(i): str(c) for i, c in
                             sorted(self.coefficients.items())},
            "steps": [{
                "word": s.word.to_json_dict(),
                "cut": list(s.cut),
                "halves": [list(h) for h in s.halves],
                "produced": [p.to_json_dict() for p in s.produced],
            } for s in self.steps],
            "solved_cycles": cycles,
        }


def _add_into(acc, terms, factor):
    """acc[w] += factor * x for each (w, x) in terms."""
    for w, x in terms:
        acc[w] = acc.get(w, 0) + x * factor


def _lowest_terms(den, acc):
    """(den, acc) with the gcd of den and every numerator divided out."""
    g = math.gcd(den, *acc.values())
    if g > 1:
        return den // g, {w: x // g for w, x in acc.items()}
    return den, acc


def reduce(word):
    """Rewrite ``word`` over the constant words x_i = T_i^{2m}, exactly.

    Returns (coefficients, certificate) where coefficients maps subscripts
    to Fractions.  The iteration applies split_relation() depth first, on
    an explicit stack, solving a word for itself whenever its expansion
    returns to it; the result is checked against the counting formula
    q_i(word) / 2m and a disagreement raises InvariantViolation (it would
    mean a bug, not bad input).  Exceeding 4x the single-mountain word
    count in halving steps raises NonTermination.

    Every combination is held fraction-free, as a pair (den, {key: int})
    in lowest terms, so a frame's solve w = rest / (2*den - self) divides
    nothing.  Keys are ints: the word split at step t is t, and the
    constant word x_i is -i.  Words and Fractions are built back only for
    the solved cycles and the result.  A popped word's cached value is
    rewritten with the resolved values of the popped words it mentions
    whenever it is read, so each substitution is made once.

    >>> w = validate_word(10, [1,1,1,1,1,1,1,1,2,2])
    >>> coeffs, cert = reduce(w)
    >>> sorted(coeffs.items())
    [(1, Fraction(4, 5)), (2, Fraction(1, 5))]
    """
    order = word.order
    budget = 4 * count_single_mountain_words(order)
    doubled = {}  # half -> its produced word, for split_relation()
    index = {}    # split word -> its step
    cache = []    # step -> (den, {key: int}), None while its frame is open
    frames = []   # [step, iterator over its produced words, den, sum]
    steps = []
    solved = []

    def word_of(k):
        return steps[k].word if k >= 0 else CyclicWord(order, (-k,) * order)

    def resolve(t):
        # Substitute resolved values for the popped steps in cache[t] and
        # write each result back.  A cached vector only mentions steps
        # that were ancestors of its frame when it popped, so the
        # substitution chain runs strictly down the old stack and
        # terminates.  Steps whose frames are open stay symbolic; the
        # frame that owns them will solve them.  A resolved value mentions
        # only constants and open frames, which were such ancestors too,
        # so writing it back keeps that rule.  The chain is walked in
        # post-order, each popped step resolved once per call.
        done = set()
        path = [(t, iter(cache[t][1]))]
        while path:
            owner, pending = path[-1]
            for k in pending:
                if k >= 0 and k not in done and cache[k] is not None:
                    path.append((k, iter(cache[k][1])))
                    break
            else:
                path.pop()
                den, nums = cache[owner]
                popped = [k for k in nums if k in done]
                if popped:
                    # out is over den * up, up the lcm of the denominators
                    # of the values substituted
                    up = math.lcm(*(cache[k][0] for k in popped))
                    out = {k: c * up for k, c in nums.items()
                           if k not in done}
                    for k in popped:
                        d, sub = cache[k]
                        _add_into(out, sub.items(), nums[k] * (up // d))
                    cache[owner] = _lowest_terms(den * up, out)
                done.add(owner)
        return cache[t]

    def enter(w):
        # w's vector when it is already known, else push w's frame and
        # return None.
        if w.is_constant:
            return 1, {-w.indices[0]: 1}
        t = index.get(w)
        if t is None:
            if len(steps) >= budget:
                raise NonTermination("exceeded {} halving steps at order {}"
                                     .format(budget, order))
            t = index[w] = len(steps)
            s = split_relation(w, memo=doubled)
            steps.append(s)
            cache.append(None)
            frames.append([t, iter(s.produced), 1, {}])
            return None
        if cache[t] is None:
            return 1, {t: 1}
        return resolve(t)

    vec = enter(word)
    while frames:
        frame = frames[-1]
        if vec is not None:
            d, nums = vec
            den, acc = frame[2], frame[3]
            if den % d:
                # rescale the sum to the lcm of the two denominators
                up = d // math.gcd(den, d)
                for u in acc:
                    acc[u] *= up
                frame[2] = den = den * up
            _add_into(acc, nums.items(), den // d)
        p = next(frame[1], None)
        if p is not None:
            vec = enter(p)
            continue
        frames.pop()
        t, _, den, acc = frame
        # w = acc / (2*den), and acc may hold w itself: w = c*w + rest
        # with c = self / (2*den), so w = rest / (2*den - self)
        own = acc.pop(t, 0)
        if own >= 2 * den:
            raise NonTermination(
                "self-coefficient {} leaves nothing to solve".format(
                    Fraction(own, 2 * den)))
        vec = cache[t] = _lowest_terms(2 * den - own, acc)
        if own:
            value = {word_of(k): Fraction(x, vec[0])
                     for k, x in vec[1].items()}
            solved.append(SolvedCycle(steps[t].word, Fraction(own, 2 * den),
                                      value))

    den, nums = vec
    leftover = [word_of(k) for k in nums if k >= 0]
    if leftover:
        raise InvariantViolation(
            "non-constant words survived: {}".format(leftover))
    coefficients = {-k: Fraction(x, den) for k, x in nums.items()}

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

    The root word must validate, and each step is re-derived: its word
    must be valid and split_relation() must reproduce the recorded cut,
    halves and produced words.  A word is known valid, with no call to
    validate_word(), when it is the root or a word that an earlier
    re-derived step produced (a doubled half of a valid word is valid;
    see split_relation()) and it holds plain ints; every other step word
    is validated.  Steps of a certificate from reduce() run depth first,
    so only its root is validated.

    The step equations w = (p1 + p2)/2, one per step word, then fix the
    result without being solved.  Written x = Qx + b over the step words,
    Q is sub-stochastic: each produced word that is not constant has
    weight 1/2 in its producer's row, and a constant one leaks its 1/2
    into b.  Such a system has exactly one solution iff every state
    reaches a leaking row; otherwise some closed class of words keeps the
    eigenvalue 1 (Kemeny and Snell, Finite Markov Chains, 1960, absorbing
    chains).  So replay searches back from the words that produce a
    constant word and refuses the system as singular when the search
    misses a step word, the steps that nothing produces included.  The
    letter counts q(w) / order satisfy every re-derived step, because
    2*q(w) = q(p1) + q(p2) and the constant word T_i^order has
    q = order * e_i; the one solution is therefore q(root) / order.  The
    search is linear in the number of steps, uses no recursion, and no
    helper, memo or cache shared with reduce().  Returns the coefficients
    of the certificate's root word; raises CertificateError on any
    mismatch.
    """
    root = validate_word(cert.word.order, cert.word.indices)
    # Known-valid word -> itself.  A hit must also hold plain ints: a
    # float or bool equal to a trusted order or subscript still goes to
    # validate_word, which refuses both, so no half in ``doubled`` holds
    # one.
    trusted = {root: root}
    doubled = {}  # half -> its produced word, for split_relation()
    index = {}
    eqs = []
    for step in cert.steps:
        w = step.word
        known = trusted.get(w) if type(w) is CyclicWord else None
        if known is not None and type(w.order) is int \
                and set(map(type, w.indices)) == {int}:
            w = known
        else:
            w = validate_word(w.order, w.indices)
        s = split_relation(w, step.cut[0], memo=doubled)
        if s.cut != tuple(step.cut) or s.halves != tuple(step.halves) \
                or s.produced != tuple(step.produced):
            raise CertificateError(
                "step for {!r} does not re-derive".format(w))
        if w not in index:
            index[w] = len(eqs)
            eqs.append(s.produced)
            for p in s.produced:
                trusted[p] = p
        elif eqs[index[w]] != s.produced:
            raise CertificateError(
                "conflicting equations recorded for {!r}".format(w))
    if root not in index:
        # A basis word reduces to itself with nothing to solve; its
        # certificate is empty and replays to the unit coefficient.
        if root.is_constant and not cert.steps and not cert.solved_cycles:
            return {root.indices[0]: Fraction(1)}
        raise CertificateError("no step splits the root word")

    # A word leaks when it produces a constant word.  Search back from the
    # leaking words along "is produced by" edges.
    producers = [[] for _ in eqs]
    seen = [False] * len(eqs)
    for v, produced in enumerate(eqs):
        for p in produced:
            if p.is_constant:
                seen[v] = True
            elif p in index:
                producers[index[p]].append(v)
            else:
                raise CertificateError(
                    "produced word {!r} has no equation and is not "
                    "constant".format(p))
    reached = [v for v, leaks in enumerate(seen) if leaks]
    for v in reached:  # grows while it is read: a breadth-first queue
        for u in producers[v]:
            if not seen[u]:
                seen[u] = True
                reached.append(u)
    if len(reached) < len(eqs):
        raise CertificateError("singular step system")
    return {i: Fraction(q, root.order)
            for i, q in sorted(root.letter_counts().items())}


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
    if isinstance(value, float):
        # round-trip through repr so 0.1 means the decimal people typed
        return Fraction(repr(value))
    return Fraction(value)


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
