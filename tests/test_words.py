import functools
import hashlib
import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest

from repvol import words
from repvol.words import (
    BadCut, CertificateError, DeltaOutOfRange, FlagInconsistent,
    LengthMismatch, MissingBasisVolume, ReductionCertificate,
    bound_from_reduction, count_single_mountain_words, reduce,
    replay_certificate, split_relation, validate_word, verify_certificate,
)

from wordgen import (
    all_valid_words, components_sinks_first, oracle_coefficients,
    random_valid_word, solve_component,
)


def W(order, *indices):
    return validate_word(order, indices)


# validation

def test_canonical_rotation_is_lex_least():
    w = W(4, 2, 2, 1, 1)
    assert w.indices == (1, 1, 2, 2)
    assert W(10, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1).indices == \
        (1, 1, 1, 1, 1, 1, 1, 1, 2, 2)


def test_canonicalization_idempotent():
    for w in all_valid_words(6):
        again = validate_word(w.order, w.indices)
        assert again.indices == w.indices
        assert again.flags == w.flags


def test_flags_forced_by_steps():
    w = W(4, 1, 2, 2, 1)
    assert w.indices == (1, 1, 2, 2)
    # as entered, [1, 2, 2, 1] carries marks (F, F, T, T); the canonical
    # rotation starts at the last letter, so the stored marks rotate too
    assert w.flags == (True, False, False, True)
    asc = W(4, 1, 2, 3, 4)
    assert asc.flags == (False, False, False, False)
    desc = W(4, 4, 3, 2, 1)
    assert desc.indices == (1, 4, 3, 2)
    assert all(desc.flags)


def test_flag_clash_rejected():
    with pytest.raises(FlagInconsistent):
        W(4, 1, 2, 2, 2)
    with pytest.raises(FlagInconsistent):
        W(4, 1, 2, 1, 2)


def test_delta_out_of_range():
    with pytest.raises(DeltaOutOfRange):
        W(4, 1, 3, 1, 3)
    with pytest.raises(DeltaOutOfRange):
        W(4, 1, 2, 7, 2)


def test_bool_subscripts_are_refused():
    # True == 1, so [True, True, 2, 2] was a valid word that printed as
    # TTrue^R TTrue T2 T2^R
    for indices in ([True, True, 2, 2], [2, 2, 1, True]):
        with pytest.raises(DeltaOutOfRange) as info:
            validate_word(4, indices)
        assert str(info.value) == "letter subscript True outside 1..4"


def test_length_and_order_checks():
    with pytest.raises(LengthMismatch):
        W(4, 1, 2, 2)
    with pytest.raises(LengthMismatch):
        validate_word(5, [1, 2, 3, 2, 1])
    with pytest.raises(LengthMismatch):
        validate_word(0, [])


def test_order_two_keeps_its_representative():
    plain = validate_word(2, [1, 2])
    marked = validate_word(2, [1, 2], reflected=True)
    assert plain == marked            # same word in the quotient
    assert plain.flags == (False, False)
    assert marked.flags == (True, True)
    d = marked.to_json_dict()
    assert d.get("reflected") is True
    assert words.CyclicWord.from_json_dict(d).flags == (True, True)


@pytest.mark.parametrize("reflected", ["false", "true", 0, 1, None, [True]])
def test_word_json_reflected_must_be_a_bool(reflected):
    # bool() read the string "false" as true, and the word was written
    # back as "reflected": true
    with pytest.raises(words.WordError,
                       match="reflected must be true or false, got %s"
                       % re.escape(repr(reflected))):
        words.CyclicWord.from_json_dict(
            {"order": 2, "indices": [1, 2], "reflected": reflected})


def test_constant_word_mark_alternation():
    w = W(6, 3, 3, 3, 3, 3, 3)
    assert w.flags == (False, True, False, True, False, True)
    # the two alternating markings are rotations of each other, so the
    # reflected representative is not a distinct word here
    assert validate_word(6, w.indices, reflected=True) == w


def test_canonical_marks_are_the_input_marks_rotated():
    # a word keeps only its subscripts and the reflected bit, and derives
    # its marks on the canonical rotation; they must be the marks of the
    # input, rotated the same way
    for order in (2, 4, 6, 8):
        for w in all_valid_words(order):
            for k in range(order):
                rotated = w.indices[k:] + w.indices[:k]
                start = words._least_rotation(rotated)
                for rep in (False, True):
                    marks = words._derive_flags(order, rotated, rep)
                    assert validate_word(order, rotated, reflected=rep).flags \
                        == marks[start:] + marks[:start]


@pytest.mark.parametrize("order, indices, text, data, back", [
    (2, (2, 1), "T1^R T2^R", {"order": 2, "indices": [1, 2],
                              "reflected": True}, "T1^R T2^R"),
    (2, (2, 2), "T2^R T2", {"order": 2, "indices": [2, 2],
                            "reflected": True}, "T2^R T2"),
    (4, (3, 3, 3, 3), "T3^R T3 T3^R T3", {"order": 4, "indices": [3] * 4},
     "T3 T3^R T3 T3^R"),
    (6, (1,) * 6, "T1^R T1 T1^R T1 T1^R T1", {"order": 6, "indices": [1] * 6},
     "T1 T1^R T1 T1^R T1 T1^R"),
])
def test_unforced_words_keep_their_representative(order, indices, text, data,
                                                  back):
    # Only words with no forced mark read the stored reflected bit.  An
    # order-2 word keeps its representative through reverse() and JSON; a
    # constant word of higher order comes back as the unmarked-first
    # rotation of the same word, whose JSON is the same.
    def marks(text):
        return tuple(letter.endswith("^R") for letter in text.split())

    w = validate_word(order, indices, reflected=True)
    assert (w.flags, str(w), w.to_json_dict()) == (marks(text), text, data)
    loaded = words.CyclicWord.from_json_dict(json.loads(json.dumps(data)))
    for again in (w.reverse(), loaded, w.reverse().reverse()):
        assert again == w
        assert (again.flags, str(again), again.to_json_dict()) == \
            (marks(back), back, data)


def test_least_rotation_matches_brute_force():
    rng = random.Random(1983)
    cases = [(1,), (3, 3, 3), (1, 2, 1, 2), (2, 1, 2, 1), (2, 2, 1, 2, 2, 1),
             (1, 1, 2, 1, 1, 2, 1), (3, 1, 3, 1, 3)]
    for _ in range(3000):
        n = rng.randint(1, 24)
        alphabet = rng.randint(1, 4)
        seq = tuple(rng.randint(1, alphabet) for _ in range(n))
        cases.append(seq)
        cases.append(seq[:rng.randint(1, 4)] * rng.randint(2, 6))
    for seq in cases:
        k = words._least_rotation(seq)
        assert 0 <= k < len(seq)
        assert seq[k:] + seq[:k] == \
            min(seq[s:] + seq[:s] for s in range(len(seq)))


def test_is_constant_reads_the_ends_of_the_least_rotation():
    # In least rotation a word is constant exactly when it starts and ends
    # on the same letter; checked on every word of orders 2 to 10.
    for order in range(2, 11, 2):
        for w in all_valid_words(order):
            assert w.is_constant == (len(set(w.indices)) == 1)


def test_letter_counts():
    w = W(10, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2)
    assert w.letter_counts() == {1: 8, 2: 2}


# reversal

def test_reverse_examples():
    asc = W(4, 1, 2, 3, 4)
    assert asc.reverse().indices == (1, 4, 3, 2)
    assert asc.reverse().reverse() == asc


def test_reverse_involution_everywhere():
    for order in (2, 4, 6):
        for w in all_valid_words(order):
            assert w.reverse().reverse() == w


def test_reverse_fixes_order_two():
    for rep in (False, True):
        w = validate_word(2, [1, 2], reflected=rep)
        assert w.reverse().flags == w.flags


# splitting

def test_split_conservation_all_cuts():
    rng = random.Random(0x5EED)
    sample = all_valid_words(6) + [random_valid_word(rng, 12)
                                   for _ in range(25)]
    for w in sample:
        counts = w.letter_counts()
        for at in range(w.order):
            s = split_relation(w, at)
            combined = {}
            for p in s.produced:
                for i, q in p.letter_counts().items():
                    combined[i] = combined.get(i, 0) + q
            assert combined == {i: 2 * q for i, q in counts.items()}


def test_split_bad_cut():
    w = W(4, 1, 1, 2, 2)
    with pytest.raises(BadCut):
        split_relation(w, 4)
    with pytest.raises(BadCut):
        split_relation(w, -1)


def test_split_words_match_validate_word():
    # split_relation builds its words without validating them; they must
    # be exactly what validate_word makes of the same doubled halves
    for order in range(2, 11, 2):
        for w in all_valid_words(order):
            for at in range(order):
                s = split_relation(w, at)
                for half, p in zip(s.halves, s.produced):
                    ref = validate_word(order, half + half[::-1])
                    assert p.indices == ref.indices
                    assert p.flags == ref.flags


def test_split_with_a_memo_gives_the_same_words():
    # one dict per order, so halves repeat across words and cuts
    for order in range(2, 11, 2):
        memo = {}
        for w in all_valid_words(order):
            for at in range(order):
                plain = split_relation(w, at)
                shared = split_relation(w, at, memo=memo)
                assert shared == plain
                assert [p.flags for p in shared.produced] == \
                    [p.flags for p in plain.produced]
                for half, p in zip(shared.halves, shared.produced):
                    assert memo[half] is p
                again = split_relation(w, at, memo=memo)
                assert all(a is b for a, b in
                           zip(again.produced, shared.produced))
    # without a memo every call builds its words afresh
    w = W(10, *V4)
    assert split_relation(w).produced[1] is not split_relation(w).produced[1]


def test_split_produces_valid_mirror_words():
    rng = random.Random(7)
    for _ in range(50):
        w = random_valid_word(rng, 16)
        s = split_relation(w)
        for p in s.produced:
            assert p == p.reverse()


# the frozen worked example, order 10

V4 = (1, 1, 1, 1, 1, 1, 1, 1, 2, 2)
V3 = (1, 1, 1, 1, 1, 1, 2, 2, 2, 2)
V1 = (1, 1, 2, 2, 2, 2, 2, 2, 2, 2)
V2 = (1, 1, 1, 1, 2, 2, 2, 2, 2, 2)
X1 = (1,) * 10
X2 = (2,) * 10


def test_halving_chain_of_the_ten_letter_example():
    w = validate_word(10, V4)
    chain = {
        V4: (X1, V3),
        V3: (X1, V1),
        V1: (V2, X2),
        V2: (V4, X2),
    }
    for src, (p1, p2) in chain.items():
        s = split_relation(validate_word(10, src))
        assert (s.produced[0].indices, s.produced[1].indices) == (p1, p2)

    coeffs, cert = reduce(w)
    assert coeffs == {1: Fraction(4, 5), 2: Fraction(1, 5)}
    assert [st.word.indices for st in cert.steps] == [V4, V3, V1, V2]
    assert len(cert.solved_cycles) == 1
    cyc = cert.solved_cycles[0]
    assert cyc.word.indices == V4
    assert cyc.self_coefficient == Fraction(1, 16)
    assert cyc.value == {W(10, *X1): Fraction(4, 5),
                         W(10, *X2): Fraction(1, 5)}


# reduction against the counting formula and the oracle

def test_reduce_constant_word():
    coeffs, cert = reduce(W(6, 2, 2, 2, 2, 2, 2))
    assert coeffs == {2: Fraction(1)}
    assert cert.steps == ()


def test_reduce_exhaustive_small_orders():
    for order in (2, 4, 6):
        for w in all_valid_words(order):
            coeffs, cert = reduce(w)
            assert coeffs == {i: Fraction(q, order)
                              for i, q in w.letter_counts().items()}
            if cert.steps:
                assert verify_certificate(cert)


def test_reduce_agrees_with_elimination_oracle():
    for order in (4, 6):
        for w in all_valid_words(order):
            assert reduce(w)[0] == oracle_coefficients(w.indices)
    rng = random.Random(0xABCDEF)
    eights = all_valid_words(8)
    for w in rng.sample(eights, 60):
        assert reduce(w)[0] == oracle_coefficients(w.indices)
    for _ in range(40):
        w = random_valid_word(rng, rng.choice((12, 16, 20)))
        assert reduce(w)[0] == oracle_coefficients(w.indices)


def test_each_word_split_exactly_once_per_reduction():
    rng = random.Random(31337)
    for _ in range(200):
        w = random_valid_word(rng, rng.choice((8, 12, 16, 20)))
        _, cert = reduce(w)
        split_words = [st.word for st in cert.steps]
        assert len(split_words) == len(set(split_words))


# A walk-built order-28 word whose depth-first reduction runs 120 frames
# deep (1360 halving steps).
DEEP_28 = (5, 6, 6, 5, 4, 4, 4, 4, 5, 5, 4, 3, 2, 1, 28, 28, 28, 28, 1, 2, 3,
           3, 2, 2, 2, 2, 3, 4)


def _counting_formula(indices):
    n = len(indices)
    return {i: Fraction(indices.count(i), n) for i in set(indices)}


def test_reduce_leaves_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("reduce changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    coeffs, cert = reduce(validate_word(28, DEEP_28))
    assert coeffs == _counting_formula(DEEP_28)
    assert len(cert.steps) == 1360


def test_reduce_and_replay_under_a_low_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        coeffs, cert = reduce(validate_word(28, DEEP_28))
        assert verify_certificate(cert)
    finally:
        sys.setrecursionlimit(limit)
    assert coeffs == _counting_formula(DEEP_28)


def test_split_budget_has_headroom():
    rng = random.Random(99)
    worst = 0
    for _ in range(100):
        w = random_valid_word(rng, 20)
        worst = max(worst, len(reduce(w)[1].steps))
    assert worst * 4 < 4 * count_single_mountain_words(20)


# certificates

def test_certificate_replay_independent_of_reduce():
    rng = random.Random(42)
    for _ in range(30):
        w = random_valid_word(rng, 14)
        coeffs, cert = reduce(w)
        assert replay_certificate(cert) == coeffs


def test_basis_word_certificate_is_empty_and_replays():
    coeffs, cert = reduce(W(6, 2, 2, 2, 2, 2, 2))
    assert coeffs == {2: Fraction(1)}
    assert cert.steps == () and cert.solved_cycles == ()
    assert replay_certificate(cert) == coeffs
    assert verify_certificate(cert)


def test_tampered_certificate_is_rejected():
    w = validate_word(10, V4)
    _, cert = reduce(w)

    bad = words.ReductionCertificate(
        cert.word, {1: Fraction(1, 2), 2: Fraction(1, 2)},
        cert.steps, cert.solved_cycles)
    with pytest.raises(CertificateError):
        verify_certificate(bad)

    truncated = words.ReductionCertificate(
        cert.word, cert.coefficients, cert.steps[:-1], cert.solved_cycles)
    with pytest.raises(CertificateError):
        verify_certificate(truncated)

    st = cert.steps[0]
    forged = words.SplitResult(st.word, st.cut, st.halves,
                               (st.produced[1], st.produced[0]))
    with pytest.raises(CertificateError):
        verify_certificate(words.ReductionCertificate(
            cert.word, cert.coefficients, (forged,) + cert.steps[1:],
            cert.solved_cycles))


def test_forged_root_word_is_validated_before_replay():
    # (1, 2, 2, 1) starts and ends on T1 but is no constant word; its
    # least rotation (1, 1, 2, 2) has no step, so the claim is refused.
    forged = ReductionCertificate(words.CyclicWord(4, (1, 2, 2, 1)),
                                  {1: Fraction(1)}, (), ())
    with pytest.raises(CertificateError):
        verify_certificate(forged)


# Its certificate has 1792 steps, and 382 of its words form one strongly
# connected class.  Replay used to eliminate over every word at once and
# took about 20 s here.
LARGE_CLASS_34 = (2, 2, 2, 2, 3, 3, 2, 1, 34, 34, 1, 2, 2, 2, 2, 1, 34, 33,
                  33, 33, 33, 33, 33, 33, 32, 32, 33, 34, 1, 2, 3, 3, 2, 2)


def _class_of(cert, start):
    """Words ``start`` reaches that also reach it, by two searches."""
    forward, backward = {}, {}
    for st in cert.steps:
        for p in st.produced:
            if not p.is_constant:
                forward.setdefault(st.word, []).append(p)
                backward.setdefault(p, []).append(st.word)

    def reached(edges):
        seen, todo = {start}, [start]
        while todo:
            for u in edges.get(todo.pop(), ()):
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        return seen

    return reached(forward) & reached(backward)


def test_large_strongly_connected_class_replays():
    _, cert = reduce(validate_word(34, LARGE_CLASS_34))
    assert len(cert.steps) == 1792
    assert replay_certificate(cert) == _counting_formula(LARGE_CLASS_34)
    assert verify_certificate(cert)

    # the replay's own component split only names a member; the class
    # itself is found by the searches above
    split_words = [st.word for st in cert.steps]
    position = {w: k for k, w in enumerate(split_words)}
    successors = [[position[p] for p in st.produced if not p.is_constant]
                  for st in cert.steps]
    largest = max(components_sinks_first(successors), key=len)
    big_class = _class_of(cert, split_words[largest[0]])
    assert len(big_class) == 382
    k = next(k for k, w in enumerate(split_words)
             if w in big_class and w != cert.word)
    dropped = ReductionCertificate(
        cert.word, cert.coefficients, cert.steps[:k] + cert.steps[k + 1:],
        cert.solved_cycles)
    with pytest.raises(CertificateError):
        verify_certificate(dropped)


def test_certificate_json_shape():
    w = validate_word(10, V4)
    _, cert = reduce(w)
    d = cert.to_json_dict()
    assert d["word"] == {"order": 10, "indices": list(V4)}
    assert d["coefficients"] == {"1": "4/5", "2": "1/5"}
    assert len(d["steps"]) == 4
    assert d["solved_cycles"][0]["self_coefficient"] == "1/16"


# SHA-256 of json.dumps(cert.to_json_dict(), sort_keys=True), fixed so
# that a refactor of reduce() or of the certificate cannot change the bytes
GOLDEN_CERTIFICATES = [
    (LARGE_CLASS_34,
     "56b89e702f536a3015921bf2f34a81067eab918c3e0f433c6b9a843d098ce4aa"),
    (V4, "327b6527887ad85495c07cae704942e7a8d23316081ff1cc4f6b314ea00fabc8"),
    ((2,) * 6,
     "9417a3e77a3f2e2f3375c6b88c082e7201a315d4cd1d52959559ed773902335d"),
    ((1, 1, 2, 2),
     "6c7dc20cdf73ccaace8bf0e555596c532ed90dac212f01046f39c37b53c86767"),
    ((6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 8, 7),
     "479b5814c07d2dbbd4a8e8427afa0fd5532234364f65dd2d5cf9d345022a5993"),
    ((1, 1, 16, 16, 1, 2, 3, 3, 2, 2, 2, 2, 2, 1, 16, 16),
     "5a70e751ed283797910259ee65e248fec86a35bca568f46aea60d07bec90364c"),
    # order 40: 3103 steps and 310 solved cycles
    ((38, 38, 39, 40, 40, 40, 1, 2, 2, 1, 40, 40, 1, 1, 1, 1, 1, 2, 2, 1,
      1, 2, 2, 2, 2, 1, 1, 1, 40, 40, 1, 2, 3, 3, 2, 1, 1, 1, 40, 39),
     "c055afe553a17540362c12b0832e7c5ae04e9797f68c367eab4647735fb63c04"),
]


@pytest.mark.parametrize("indices, digest", GOLDEN_CERTIFICATES)
def test_certificate_bytes_are_pinned(indices, digest):
    _, cert = reduce(validate_word(len(indices), indices))
    text = json.dumps(cert.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# single-mountain count used by the termination guard

def _single_mountain_words(order):
    """Enumerate T_j^{2a1} ... T_{j+i-1}^{2ai} ... words by construction.

    Tries every run-length composition and lets validate_word decide
    which ones carry a consistent marking, so the admissibility rule in
    count_single_mountain_words is checked against the flag machinery
    rather than restated here.
    """
    m = order // 2
    found = set()
    for j in range(1, order + 1):
        for span in range(1, m + 1):
            for comp in _compositions(m, span):
                seq = []
                for k, a in enumerate(comp):
                    reps = 2 * a if k in (0, span - 1) else a
                    seq.extend([(j - 1 + k) % order + 1] * reps)
                if span > 1:
                    for k in range(span - 2, 0, -1):
                        seq.extend([(j - 1 + k) % order + 1] * comp[k])
                try:
                    w = validate_word(order, seq)
                except words.FlagInconsistent:
                    assert any(a % 2 == 0 for a in comp[1:-1])
                    continue
                assert all(a % 2 == 1 for a in comp[1:-1])
                found.add(w)
    return found


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_single_mountain_count_formula():
    for order in (2, 4, 6, 8, 10):
        enumerated = _single_mountain_words(order)
        assert len(enumerated) == count_single_mountain_words(order)
        for w in enumerated:
            assert w == w.reverse()


# numeric combination

def test_bound_from_reduction_example():
    total = bound_from_reduction({1: Fraction(4, 5), 2: Fraction(1, 5)},
                                 {1: 10, 2: 5})
    assert total == Fraction(9)


def test_bound_from_reduction_exact_strings():
    total = bound_from_reduction({1: Fraction(1, 2), 2: Fraction(1, 2)},
                                 {1: "3.25", 2: "1/4"})
    assert total == Fraction(7, 4)


def test_bound_missing_volume():
    with pytest.raises(MissingBasisVolume):
        bound_from_reduction({1: Fraction(1)}, {2: 5})


# reduce on integer numerators and replay that trusts the words it derived,
# each against the version it replaced

def reference_reduce(word):
    """reduce() over {CyclicWord: Fraction} vectors, as it was written
    before it kept integer numerators; the parity tests below hold the
    fraction-free reduce() to it."""
    order = word.order
    budget = 4 * count_single_mountain_words(order)
    one, half = Fraction(1), Fraction(1, 2)
    cache, active, frames, steps, solved = {}, set(), [], [], []

    def add_term(out, w, x):
        old = out.get(w)
        if old is None:
            out[w] = x
        else:
            x += old
            if x:
                out[w] = x
            else:
                del out[w]

    def resolve(vec):
        done = {}
        path = [(None, iter(vec))]
        while path:
            owner, pending = path[-1]
            for w in pending:
                if not (w.is_constant or w in active or w in done):
                    path.append((w, iter(cache[w])))
                    break
            else:
                path.pop()
                out = {}
                for w, c in (vec if owner is None else cache[owner]).items():
                    if w.is_constant or w in active:
                        add_term(out, w, c)
                    else:
                        for u, x in done[w].items():
                            add_term(out, u, c * x)
                if owner is None:
                    return out
                done[owner] = out

    def enter(w):
        if w.is_constant or w in active:
            return {w: one}
        if w in cache:
            return resolve(cache[w])
        if len(steps) >= budget:
            raise words.NonTermination(
                "exceeded {} halving steps at order {}".format(budget, order))
        active.add(w)
        s = split_relation(w)
        steps.append(s)
        frames.append((w, iter(s.produced), {}))
        return None

    vec = enter(word)
    while frames:
        w, produced, acc = frames[-1]
        if vec is not None:
            for u, x in vec.items():
                add_term(acc, u, x)
        p = next(produced, None)
        if p is not None:
            vec = enter(p)
            continue
        frames.pop()
        active.discard(w)
        c = acc.pop(w, 0) * half
        if c >= 1:
            raise words.NonTermination(
                "self-coefficient {} leaves nothing to solve".format(c))
        scale = half / (1 - c)
        acc = {u: scale * x for u, x in acc.items()}
        if c:
            solved.append(words.SolvedCycle(w, c, acc))
        cache[w] = acc
        vec = acc
    coefficients = {w.indices[0]: c for w, c in vec.items()}
    return coefficients, ReductionCertificate(word, coefficients, steps,
                                              solved)


def reference_replay(cert):
    """replay_certificate() as it was written when it validated every
    step word; the new replay must accept, refuse and name the first
    error exactly as this does."""
    root = validate_word(cert.word.order, cert.word.indices)
    index = {}
    eqs = []
    for step in cert.steps:
        w = validate_word(step.word.order, step.word.indices)
        s = split_relation(w, step.cut[0])
        if s.cut != tuple(step.cut) or s.halves != tuple(step.halves) \
                or s.produced != tuple(step.produced):
            raise CertificateError(
                "step for {!r} does not re-derive".format(w))
        if w not in index:
            index[w] = len(eqs)
            eqs.append(s.produced)
        elif eqs[index[w]] != s.produced:
            raise CertificateError(
                "conflicting equations recorded for {!r}".format(w))
    if root not in index:
        if root.is_constant and not cert.steps and not cert.solved_cycles:
            return {root.indices[0]: Fraction(1)}
        raise CertificateError("no step splits the root word")
    successors = [[] for _ in eqs]
    constants = [[] for _ in eqs]
    for v, produced in enumerate(eqs):
        for p in produced:
            if p.is_constant:
                constants[v].append(p.indices[0])
            elif p in index:
                successors[v].append(index[p])
            else:
                raise CertificateError(
                    "produced word {!r} has no equation and is not "
                    "constant".format(p))
    solved = [None] * len(eqs)
    for component in components_sinks_first(successors):
        solve_component(component, successors, constants, solved)
    den, nums = solved[index[root]]
    return {i: Fraction(x, den) for i, x in sorted(nums.items())}


def _walk_word(rng, order):
    """A random valid word of any even order: a walk that only takes
    steps its current mark allows, redrawn until it closes up."""
    while True:
        seq = [rng.randint(1, order)]
        mark = rng.random() < 0.5
        first = mark
        for _ in range(order - 1):
            step = rng.choice((0, -1 if mark else 1))
            mark = (not mark) if step == 0 else mark
            seq.append((seq[-1] - 1 + step) % order + 1)
        try:
            return validate_word(order, seq, reflected=first)
        except words.WordError:
            continue


def _parity_words():
    rng = random.Random(20211111)
    found = [validate_word(len(w), w) for w in (V4, DEEP_28, LARGE_CLASS_34)]
    for order in range(8, 35, 2):
        found += [_walk_word(rng, order) for _ in range(2)]
    return found


PARITY_WORDS = _parity_words()


@functools.lru_cache(maxsize=None)
def _reduced(word):
    return reduce(word)


def _outcome(replay, cert):
    try:
        return replay(cert)
    except Exception as exc:
        return type(exc), str(exc)


def test_walk_words_cover_orders_8_to_34():
    assert {w.order for w in PARITY_WORDS} == set(range(8, 35, 2))
    assert sum(1 for w in PARITY_WORDS if not w.is_constant) >= 28


def test_fraction_free_reduce_matches_fraction_reduce():
    for w in PARITY_WORDS:
        coeffs, cert = _reduced(w)
        ref_coeffs, ref = reference_reduce(w)
        assert coeffs == ref_coeffs
        assert all(type(c) is Fraction for c in coeffs.values())
        assert cert.steps == ref.steps  # word, cut, halves, produced
        assert cert.solved_cycles == ref.solved_cycles
        for cyc in cert.solved_cycles:
            assert type(cyc.self_coefficient) is Fraction
            assert all(type(c) is Fraction for c in cyc.value.values())
        assert cert.to_json_dict() == ref.to_json_dict()


def _orphan_word(cert):
    """A valid non-constant word of the certificate's order that no step
    splits."""
    order = cert.word.order
    split = {st.word for st in cert.steps}
    for j in range(2, order + 1):
        w = validate_word(order, (j - 1,) * (order - 2) + (j, j))
        if w not in split:
            return w


def _corruptions(cert):
    """Certificates that differ from ``cert`` in one recorded fact, at its
    first, middle and last step (the middle one only past 300 steps, to
    keep the test quick)."""
    steps, order = cert.steps, cert.word.order
    m = order // 2
    middle = len(steps) // 2
    positions = {middle} if len(steps) > 300 else \
        {0, middle, len(steps) - 1}

    def swap(k, step):
        return ReductionCertificate(cert.word, cert.coefficients,
                                    steps[:k] + (step,) + steps[k + 1:],
                                    cert.solved_cycles)

    def insert(k, step):
        return ReductionCertificate(cert.word, cert.coefficients,
                                    steps[:k] + (step,) + steps[k:],
                                    cert.solved_cycles)

    out = []
    for k in sorted(positions):
        st = steps[k]
        out.append(("wrong cut", swap(k, st._replace(cut=(1, 1 + m)))))
        a1, a2 = st.halves
        out.append(("wrong half", swap(k, st._replace(halves=(a2, a1)))))
        out.append(("swapped produced", swap(k, st._replace(
            produced=st.produced[::-1]))))
        other = split_relation(st.word, 1)
        out.append(("conflicting equation", insert(k + 1, other)))
        out.append(("dropped step", ReductionCertificate(
            cert.word, cert.coefficients, steps[:k] + steps[k + 1:],
            cert.solved_cycles)))
        out.append(("produced word with no equation", ReductionCertificate(
            cert.word, cert.coefficients, steps[:k + 1],
            cert.solved_cycles)))
        # the same word, hand-built with a float subscript, a float order
        # or bool subscripts; with the bools a wrong cut makes replay name
        # the word it read
        w = st.word
        floated = w.indices[:-1] + (float(w.indices[-1]),)
        out.append(("float subscript", swap(k, st._replace(
            word=words.CyclicWord(order, floated)))))
        out.append(("float order", swap(k, st._replace(
            word=words.CyclicWord(float(order), w.indices)))))
        if 1 in w.indices:
            bools = tuple(True if i == 1 else i for i in w.indices)
            out.append(("bool subscript", swap(k, st._replace(
                word=words.CyclicWord(order, bools), cut=(1, 1 + m)))))
    # orphan steps: an invalid word, and a valid one nothing produces
    clash = words.CyclicWord(order, (1, 2) * m)
    out.append(("invalid orphan", insert(len(steps), words.SplitResult(
        clash, (0, m), (clash.indices[:m], clash.indices[m:]),
        steps[0].produced))))
    out.append(("valid orphan", insert(1, split_relation(
        _orphan_word(cert)))))
    return out


def test_replay_matches_the_validate_every_step_replay():
    named = {validate_word(28, DEEP_28), validate_word(34, LARGE_CLASS_34)}
    checked = 0
    for w in PARITY_WORDS:
        coeffs, cert = _reduced(w)
        assert replay_certificate(cert) == reference_replay(cert) == coeffs
        # of the long certificates, only the two named words' are corrupted
        if not cert.steps or len(cert.steps) > 1000 and w not in named:
            continue
        for name, bad in _corruptions(cert):
            expected = _outcome(reference_replay, bad)
            assert _outcome(replay_certificate, bad) == expected, name
            checked += 1
    assert checked > 500


def test_replay_refuses_hand_built_words_equal_to_trusted_ones():
    _, cert = reduce(validate_word(10, V4))
    st = cert.steps[1]
    cases = [
        (words.CyclicWord(10, (1.0,) + st.word.indices[1:]),
         DeltaOutOfRange, "letter subscript 1.0 outside 1..10"),
        (words.CyclicWord(10.0, st.word.indices), LengthMismatch,
         "order must be a positive even integer, got 10.0"),
    ]
    for word, error, message in cases:
        assert word == st.word and hash(word) == hash(st.word)
        bad = ReductionCertificate(
            cert.word, cert.coefficients,
            cert.steps[:1] + (st._replace(word=word),) + cert.steps[2:],
            cert.solved_cycles)
        for replay in (replay_certificate, reference_replay):
            with pytest.raises(error) as info:
                replay(bad)
            assert str(info.value) == message
    # 32.0 as the order of a root word's step, as in a hand-edited file
    _, cert = _reduced(PARITY_WORDS[-1])
    assert cert.word.order == 34
    st = cert.steps[0]
    bad = ReductionCertificate(
        cert.word, cert.coefficients,
        (st._replace(word=words.CyclicWord(34.0, st.word.indices)),)
        + cert.steps[1:], cert.solved_cycles)
    assert _outcome(replay_certificate, bad) == (
        LengthMismatch, "order must be a positive even integer, got 34.0")


def _count_validations(monkeypatch):
    calls = []
    real = words.validate_word

    def counted(order, indices, reflected=False):
        calls.append(tuple(indices))
        return real(order, indices, reflected)

    monkeypatch.setattr(words, "validate_word", counted)
    return calls


def test_replay_validates_only_words_it_did_not_derive(monkeypatch):
    certs = [_reduced(w)[1] for w in PARITY_WORDS]
    calls = _count_validations(monkeypatch)
    for cert in certs:
        calls.clear()
        replay_certificate(cert)
        assert calls == [cert.word.indices]
    # an orphan whose doubled halves are constant, so the replay succeeds
    cert = next(c for c in certs if c.word.order == 12)
    block = validate_word(12, (1,) * 6 + (2,) * 6)
    assert block not in {st.word for st in cert.steps}
    orphan = ReductionCertificate(
        cert.word, cert.coefficients,
        cert.steps[:1] + (split_relation(block),) + cert.steps[1:],
        cert.solved_cycles)
    calls.clear()
    assert replay_certificate(orphan) == cert.coefficients
    assert calls == [cert.word.indices, block.indices]


def _self_loop_steps():
    """Step lists whose first word produces itself: a cut other than 0,
    which reduce() never makes but a certificate may record, followed by
    reduce()'s steps for the other produced word."""
    out = []
    for w in all_valid_words(10):
        for at in range(1, 10):
            s = split_relation(w, at)
            if s.produced.count(w) == 1:
                other = next(p for p in s.produced if p != w)
                rest = reduce(other)[1].steps
                out.append((s,) + tuple(st for st in rest if st.word != w))
    return out


def test_every_solved_word_matches_its_counting_formula():
    # The test-side eliminator gives every word of a component, not just
    # the root, its own letter counts over the order, in lowest terms:
    # the solution that replay_certificate() reads off without solving
    step_lists = [_reduced(w)[1].steps for w in PARITY_WORDS]
    step_lists += [reduce(w)[1].steps for order in range(2, 11, 2)
                   for w in all_valid_words(order)]
    step_lists += _self_loop_steps()
    kinds = set()
    for steps in step_lists:
        index, eqs = {}, []
        for st in steps:
            if st.word not in index:
                index[st.word] = len(eqs)
                eqs.append(st)
        successors = [[index[p] for p in st.produced if not p.is_constant]
                      for st in eqs]
        constants = [[p.indices[0] for p in st.produced if p.is_constant]
                     for st in eqs]
        solved = [None] * len(eqs)
        for component in components_sinks_first(successors):
            solve_component(component, successors, constants, solved)
            v = component[0]
            kinds.add("larger" if len(component) > 1 else
                      "self-loop" if v in successors[v] else "one word")
        for st, vector in zip(eqs, solved):
            counts = st.word.letter_counts()
            g = math.gcd(st.word.order, *counts.values())
            assert vector == (st.word.order // g,
                              {i: q // g for i, q in counts.items()})
        if steps:
            root = steps[0].word
            assert replay_certificate(ReductionCertificate(
                root, {}, steps, ())) == _counting_formula(root.indices)
    assert kinds == {"one word", "self-loop", "larger"}


def test_a_word_that_produces_only_itself_is_singular():
    # 2w = w + w says nothing: the one-word row has a zero diagonal
    w = W(4, 1, 1, 2, 2)
    s = split_relation(w, 1)
    assert s.produced == (w, w)
    cert = ReductionCertificate(w, {1: Fraction(1, 2), 2: Fraction(1, 2)},
                                [s], [])
    with pytest.raises(CertificateError, match="^singular step system$"):
        replay_certificate(cert)


def test_an_orphan_step_that_produces_only_itself_is_singular():
    # nothing produces (1, 1, 2, 2) here, but it is still an equation word,
    # and 2w = w + w leaves it undetermined
    _, cert = reduce(W(4, 1, 4, 3, 2))
    orphan = split_relation(W(4, 1, 1, 2, 2), 1)
    assert orphan.word not in {st.word for st in cert.steps}
    bad = ReductionCertificate(cert.word, cert.coefficients,
                               cert.steps + (orphan,), cert.solved_cycles)
    for replay in (replay_certificate, reference_replay):
        with pytest.raises(CertificateError, match="^singular step system$"):
            replay(bad)


def test_replay_validates_once_and_splits_once_per_step(monkeypatch):
    _, cert = _reduced(validate_word(34, LARGE_CLASS_34))
    validations = _count_validations(monkeypatch)
    splits = []
    real = words.split_relation

    def counted(word, at=0, memo=None):
        splits.append(word)
        return real(word, at, memo)

    monkeypatch.setattr(words, "split_relation", counted)
    assert replay_certificate(cert) == _counting_formula(LARGE_CLASS_34)
    assert validations == [cert.word.indices]
    assert splits == [st.word for st in cert.steps]
    assert len(splits) == 1792


def test_replay_agrees_with_the_sparse_eliminator_and_the_oracle():
    for order in range(2, 11, 2):
        for w in all_valid_words(order):
            cert = _reduced(w)[1]
            assert replay_certificate(cert) == reference_replay(cert) \
                == oracle_coefficients(w.indices)
    # test_replay_matches_the_validate_every_step_replay holds every
    # parity word's replay to the eliminator; the dense oracle takes a
    # second or more past about 60 steps
    for w in PARITY_WORDS:
        cert = _reduced(w)[1]
        if len(cert.steps) <= 60:
            assert replay_certificate(cert) == oracle_coefficients(w.indices)
