import collections
import itertools
import json
import random
import time
import tracemalloc

import pytest

import repvol
from repvol import bounds, graphs, pieces
from repvol.pieces import (
    ComponentCount, EndpointMismatch, GluingComplex, OddDimension, OddLength,
    PieceError, PieceTemplate, ReplicantSchedule, ScheduleMismatch,
    SizeExceeded, TooFewStrands, build_bracelet, build_cylinder_stack,
    build_torus_lattice, count_components, cylindrical_template, isomorphic,
    replicate, saucer_template, split_union, square_template, template_union,
    verify_isomorphism,
)


def components_oracle(complex):
    """Independent count via union-find over endpoint nodes."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(x, y):
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    degree = {}
    for template, label in complex.copies:
        for a, b in template.strands:
            join(label + a, label + b)
            degree[label + a] = degree.get(label + a, 0) + 1
            degree[label + b] = degree.get(label + b, 0) + 1
    for g in complex.gluings:
        for x, y in g.pairing:
            na, nb = g.a[0] + (g.a[1], x), g.b[0] + (g.b[1], y)
            join(na, nb)
            degree[na] = degree.get(na, 0) + 1
            degree[nb] = degree.get(nb, 0) + 1

    loose_roots = {find(n) for n, d in degree.items() if d == 1}
    all_roots = {find(n) for n in parent}
    closed = len(all_roots - loose_roots)
    closed += sum(t.closed_components for t, _ in complex.copies)
    return ComponentCount(closed, len(loose_roots))


def random_template(rng, ell):
    counts = [rng.choice([0, 1, 2, 3]) for _ in range(2 * ell)]
    endpoints = [(f + 1, x) for f, n in enumerate(counts)
                 for x in range(1, n + 1)]
    if len(endpoints) % 2:
        counts[rng.randrange(2 * ell)] += 1
        endpoints = [(f + 1, x) for f, n in enumerate(counts)
                     for x in range(1, n + 1)]
    rng.shuffle(endpoints)
    strands = [(endpoints[i], endpoints[i + 1])
               for i in range(0, len(endpoints), 2)]
    return PieceTemplate("rnd", [range(1, n + 1) for n in counts], strands,
                         closed_components=rng.choice([0, 0, 1]))


# templates

def test_template_validation():
    with pytest.raises(PieceError):
        PieceTemplate("labels", ((2, 1), (1, 2)), ())
    with pytest.raises(PieceError):
        PieceTemplate("unmatched", ((1,), (1,)), ())
    with pytest.raises(PieceError):
        PieceTemplate("fixed", ((1, 2), (1, 2)),
                      (((1, 1), (1, 1)), ((1, 2), (2, 1))))
    with pytest.raises(PieceError):
        PieceTemplate("twice", ((1, 2), (1, 2)),
                      (((1, 1), (1, 2)), ((1, 1), (2, 1))))
    with pytest.raises(PieceError):
        PieceTemplate("offface", ((1,), (1,)), (((1, 1), (2, 5)),))


def test_template_integer_fields_must_be_ints():
    # int() would read 1.9 as 1 and overflow on infinity; bool is an int
    good = saucer_template("s").to_json_dict()
    inf = float("inf")
    cases = [
        ("faces", [[1.9, 2.2], [1, 2]], "face labels", (1.9, 2.2)),
        ("faces", [[1, 2], [True, 2]], "face labels", (True, 2)),
        ("strands", [[[1, 1.0], [1, 2]], [[2, 1], [2, 2]]], "strand ends",
         (1, 1.0)),
        ("strands", [[[1, 1], [1, 2]], [[2, 1], ["2", 2]]], "strand ends",
         ("2", 2)),
        ("free_boundary", [0, 1.5], "free_boundary", (0, 1.5)),
        ("interfaces", [inf], "interfaces", (inf,)),
    ]
    for field, value, name, shown in cases:
        with pytest.raises(PieceError) as info:
            PieceTemplate.from_json_dict(dict(good, **{field: value}))
        assert str(info.value) == "%s must be integers, got %r" % (name,
                                                                   shown)
    for count in (2.9, inf, True, "1"):
        with pytest.raises(PieceError) as info:
            PieceTemplate.from_json_dict(dict(good, closed_components=count))
        assert str(info.value) == ("closed_components must be an integer, "
                                   "got %r" % (count,))
    assert PieceTemplate.from_json_dict(good) == saucer_template("s")


@pytest.mark.parametrize("strands, message", [
    ([[[1, 1, 99], [1, 2]], [[2, 1], [2, 2]]],
     "strand ends must be pairs, got (1, 1, 99)"),
    ([[[1, 1], [1, 2]], [[2, 1], [2]]], "strand ends must be pairs, got (2,)"),
    ([[[1, 1], [1, 2], [2, 1]], [[2, 1], [2, 2]]],
     "strands must be pairs, got [[1, 1], [1, 2], [2, 1]]"),
    ([[[1, 1], [1, 2]], 5], "strands must be pairs, got 5"),
])
def test_template_strands_and_ends_must_be_pairs(strands, message):
    # reading a[0] and a[1] dropped the 99; unpacking three ends raised a
    # ValueError that named no field
    data = dict(saucer_template("s").to_json_dict(), strands=strands)
    for build in (lambda: PieceTemplate.from_json_dict(data),
                  lambda: PieceTemplate("s", data["faces"], strands)):
        with pytest.raises(PieceError) as info:
            build()
        assert type(info.value) is PieceError
        assert str(info.value) == message


@pytest.mark.parametrize("count", [True, 2.5, "2"])
def test_cylindrical_strand_count_must_be_an_int(count):
    # True built one strand and 2.5 raised a TypeError from range()
    with pytest.raises(PieceError, match="strand_count must be an integer"):
        cylindrical_template("x", count)


@pytest.mark.parametrize("build, message", [
    (lambda good: dict(good, free_boundary=[0, -1]),
     "genus tags must be nonnegative"),
    (lambda good: dict(good, closed_components=-1),
     "closed component count must be nonnegative"),
    (lambda good: dict(good, interfaces=[-1]),
     "interface counts must be nonnegative"),
], ids=["genus", "closed components", "interfaces"])
def test_template_counts_must_be_nonnegative(build, message):
    good = saucer_template("s").to_json_dict()
    with pytest.raises(PieceError) as info:
        PieceTemplate.from_json_dict(build(good))
    assert type(info.value) is PieceError
    assert str(info.value) == message


def test_cylindrical_piece_needs_a_strand():
    with pytest.raises(PieceError) as info:
        cylindrical_template("x", 0)
    assert str(info.value) == "a cylindrical piece needs at least one strand"


def test_template_equality_and_roundtrip():
    t = saucer_template("1/2")
    assert t == PieceTemplate.from_json_dict(t.to_json_dict())
    assert t != saucer_template("1/3")
    assert t.ell == 1
    assert t.mate((1, 1)) == (1, 2)

    sq = square_template("2")
    assert sq.ell == 2
    assert sq.interfaces == (1, 1)


def test_template_with_unpaired_face():
    y = PieceTemplate("Y", ((1, 2), (1, 2), (1, 2)),
                      (((1, 1), (2, 1)), ((1, 2), (3, 1)), ((2, 2), (3, 2))))
    assert y.ell == 1
    assert y.interfaces == (1,)
    assert y == PieceTemplate.from_json_dict(y.to_json_dict())
    with pytest.raises(ScheduleMismatch):
        replicate(y, (2,))


def test_template_union_shapes():
    u = template_union(saucer_template("a"), cylindrical_template("b"))
    assert u.faces == ((1, 2, 3, 4), (1, 2, 3, 4))
    assert ((1, 3), (2, 3)) in u.strands
    assert ((1, 1), (1, 2)) in u.strands
    with pytest.raises(PieceError):
        template_union(saucer_template("a"), square_template("b"))


# replication

def test_replicate_cycle_pattern():
    c = replicate(saucer_template("1/2"), (6,))
    assert len(c.copies) == 6
    neighbors = {}
    for g in c.gluings:
        neighbors.setdefault(g.a[0], set()).add(g.b[0])
        neighbors.setdefault(g.b[0], set()).add(g.a[0])
    for i in range(6):
        assert neighbors[(i,)] == {((i - 1) % 6,), ((i + 1) % 6,)}
    odd_face = {g for g in c.gluings if g.a[1] == 1}
    assert {(g.a[0], g.b[0]) for g in odd_face} == \
        {((0,), (1,)), ((2,), (3,)), ((4,), (5,))}


def test_replicate_copy_counts():
    sq = square_template("2")
    assert len(replicate(sq, (2, 4)).copies) == 8
    assert len(replicate(sq, (4, 6)).copies) == 24
    assert len(replicate(saucer_template("s"), (8,)).copies) == 8


def test_replicate_grid_pattern():
    c = replicate(square_template("2"), (2, 2))
    assert len(c.copies) == 4
    assert len(c.gluings) == 8
    glued = {}
    for g in c.gluings:
        glued.setdefault(g.a[0], []).append(g.b[0])
        glued.setdefault(g.b[0], []).append(g.a[0])
    for label, others in glued.items():
        assert len(others) == 4
        assert set(others) == {(label[0] ^ 1, label[1]),
                               (label[0], label[1] ^ 1)}


def test_replicate_closes_every_slot():
    rng = random.Random(7)
    for schedule in ((2,), (4,), (2, 2), (2, 4)):
        t = random_template(rng, len(schedule))
        c = replicate(t, schedule)
        assert c.unglued_slots() == []
        assert len(c.gluings) * 2 == sum(
            len(tpl.faces) for tpl, _ in c.copies)


def test_schedule_validation():
    t = square_template("2")
    with pytest.raises(ScheduleMismatch):
        replicate(t, (2,))
    with pytest.raises(ScheduleMismatch):
        replicate(t, (2, 3))
    with pytest.raises(ScheduleMismatch):
        replicate(t, (2, 0))
    with pytest.raises(ScheduleMismatch):
        replicate(t, ReplicantSchedule((2, 2), (1, 1)))
    with pytest.raises(ScheduleMismatch):
        replicate(t, 6)


def test_schedule_entries_must_be_integers():
    # int() would build 6 copies for 6.9 and 4 for "4"
    t = square_template("2")
    for schedule in [(2, 6.9), (2.0, 2), ("4", 2), (True, 2), (2, None)]:
        with pytest.raises(ScheduleMismatch) as info:
            replicate(t, schedule)
        assert str(info.value) == (
            "schedule entries must be integers, got %r" % (schedule,))
    for order in [(1.0, 2), ("2", "1"), (True, 2)]:
        with pytest.raises(ScheduleMismatch) as info:
            replicate(t, ReplicantSchedule((2, 4), order))
        assert str(info.value) == (
            "order entries must be integers, got %r" % (order,))
    assert len(replicate(t, ReplicantSchedule((2, 4), (2, 1))).copies) == 8


def test_replicate_refuses_schedules_above_the_copy_limit():
    # The product is checked before a single copy is labeled: expanding
    # (10**20,) would try to allocate every copy.
    limit = repvol.COPY_LIMIT
    tracemalloc.start()
    try:
        for template, schedule in [
                (saucer_template("s"), (10 ** 20,)),
                (saucer_template("s"), (limit + 2,)),
                (square_template("2"), (2, limit)),
                (square_template("2"), (limit, 2)),
                (square_template("2"), (1000, 1002)),
                (square_template("2"), ReplicantSchedule((2, limit), (2, 1)))]:
            start = time.perf_counter()
            with pytest.raises(SizeExceeded) as info:
                replicate(template, schedule)
            assert time.perf_counter() - start < 0.1
            indices = getattr(schedule, "indices", schedule)
            assert str(info.value) == ("schedule %r makes more than %d "
                                       "copies" % (indices, limit))
        assert tracemalloc.get_traced_memory()[1] < 10 ** 6
    finally:
        tracemalloc.stop()


def test_one_copy_limit_read_at_call_time(monkeypatch):
    # Lattice slots, replicant copies and reflection group elements are
    # all capped by repvol.COPY_LIMIT; at the limit each is still built.
    monkeypatch.setattr(repvol, "COPY_LIMIT", 36)
    square = {"arrangement": "lattice", "ambient": "TxI", "slot": "2"}
    assert bounds.parse_link_spec(dict(square, rows=6, cols=6)).rows == 6
    with pytest.raises(bounds.ArrangementInvalid) as info:
        bounds.parse_link_spec(dict(square, rows=37, cols=1))
    assert str(info.value) == "a 37 x 1 lattice has more than 36 slots"

    assert len(replicate(saucer_template("s"), (36,)).copies) == 36
    assert len(replicate(square_template("2"), (6, 6)).copies) == 36
    with pytest.raises(SizeExceeded) as info:
        replicate(square_template("2"), (6, 8))
    assert str(info.value) == "schedule (6, 8) makes more than 36 copies"

    order = graphs.validate_reflection_graph(
        graphs.cycle_reflection_graph(36)).group_order
    assert order == 36
    with pytest.raises(graphs.GroupTooLarge) as info:
        graphs.validate_reflection_graph(graphs.cycle_reflection_graph(38))
    assert str(info.value) == "the reflection group exceeds 36 elements"


def test_replicate_order_independence():
    t = square_template("2")
    one = replicate(t, ReplicantSchedule((2, 4), (1, 2)))
    two = replicate(t, ReplicantSchedule((2, 4), (2, 1)))
    assert one != two
    result = isomorphic(one, two)
    assert result.isomorphic
    assert verify_isomorphism(one, two, result.witness)


# isomorphism

def test_isomorphic_identity_and_sizes():
    c = replicate(saucer_template("x"), (4,))
    result = isomorphic(c, c)
    assert result.isomorphic
    assert result.witness == {label: label for _, label in c.copies}

    other = replicate(saucer_template("x"), (6,))
    assert not isomorphic(c, other).isomorphic


def test_isomorphic_respects_pairings():
    t = cylindrical_template("two")
    straight = replicate(t, (2,))
    twisted = GluingComplex(
        list(straight.copies),
        [(((0,), 1), ((1,), 1), ((1, 2), (2, 1))),
         (((1,), 2), ((0,), 2))])
    assert not isomorphic(straight, twisted).isomorphic
    assert isomorphic(twisted, twisted).isomorphic


def test_isomorphic_finds_relabeling():
    t = saucer_template("y")
    c = replicate(t, (6,))
    shifted = GluingComplex(
        [(t, ((label[0] + 2) % 6,)) for _, label in c.copies],
        [((((g.a[0][0] + 2) % 6,), g.a[1]),
          (((g.b[0][0] + 2) % 6,), g.b[1]))
         for g in c.gluings])
    result = isomorphic(c, shifted)
    assert result.isomorphic
    assert verify_isomorphism(c, shifted, result.witness)


def test_isomorphic_size_guard():
    c = replicate(saucer_template("big"), (10002,))
    with pytest.raises(SizeExceeded):
        isomorphic(c, c)


@pytest.mark.parametrize("n", [50, 100])
def test_large_square_replicants_are_isomorphic(n):
    # 100 x 100 is exactly ISO_COPY_LIMIT copies
    sq = square_template("2")
    natural = replicate(sq, (n, n))
    transposed = replicate(sq, ReplicantSchedule((n, n), (2, 1)))
    result = isomorphic(natural, transposed)
    assert result.isomorphic
    assert verify_isomorphism(natural, transposed, result.witness)


def random_complex(rng, pool, size):
    """``size`` copies drawn from ``pool``, some face slots glued at random."""
    copies = [(rng.choice(pool), (i,)) for i in range(size)]
    faces = {(label, f + 1): len(face)
             for template, label in copies
             for f, face in enumerate(template.faces)}
    free = list(faces)
    rng.shuffle(free)
    gluings = []
    while free and rng.random() < 0.85:
        side = free.pop()
        partners = [s for s in free if faces[s] == faces[side]]
        if not partners:
            continue
        other = rng.choice(partners)
        free.remove(other)
        images = list(range(1, faces[side] + 1))
        rng.shuffle(images)
        gluings.append((side, other, list(enumerate(images, 1))))
    return GluingComplex(copies, gluings)


def relabeled(rng, c):
    """The same complex under fresh copy labels, listed in a new order."""
    labels = [label for _, label in c.copies]
    numbers = rng.sample(range(10, 10 + 3 * len(labels)), len(labels))
    fresh = {label: (k,) for label, k in zip(labels, numbers)}
    copies = [(t, fresh[label]) for t, label in c.copies]
    rng.shuffle(copies)
    gluings = [((fresh[g.a[0]], g.a[1]), (fresh[g.b[0]], g.b[1]), g.pairing)
               for g in c.gluings]
    rng.shuffle(gluings)
    return GluingComplex(copies, gluings)


def brute_force_isomorphic(a, b):
    def half_gluings(c, name):
        out = set()
        for g in c.gluings:
            out.add(((name[g.a[0]], g.a[1]), (name[g.b[0]], g.b[1]),
                     tuple(sorted(g.pairing))))
            out.add(((name[g.b[0]], g.b[1]), (name[g.a[0]], g.a[1]),
                     tuple(sorted((y, x) for x, y in g.pairing))))
        return out

    labels_a = [label for _, label in a.copies]
    labels_b = [label for _, label in b.copies]
    if len(labels_a) != len(labels_b):
        return False
    target = half_gluings(b, {label: label for label in labels_b})
    for images in itertools.permutations(labels_b):
        name = dict(zip(labels_a, images))
        if all(b.template_of(name[label]) == t for t, label in a.copies) \
                and half_gluings(a, name) == target:
            return True
    return False


def brute_force_pairs():
    """Complex pairs for the brute-force test, and how many of them lead
    as fixed pairs that colour refinement cannot tell apart."""
    rng = random.Random(404)
    pool = [saucer_template("s"), cylindrical_template("c", 1),
            cylindrical_template("c", 2), square_template("q"),
            random_template(rng, 1)]
    # Colour refinement passes all three pairs: it cannot tell a 4-cycle
    # from two 2-cycles, and colours are numbered per complex, so they do
    # not show which face is glued or which template sits in a copy.
    s = saucer_template("s")
    pairs = [
        (replicate(s, (4,)),
         GluingComplex([(s, (i,)) for i in range(4)],
                       [(((0,), 1), ((1,), 1)), (((0,), 2), ((1,), 2)),
                        (((2,), 1), ((3,), 1)), (((2,), 2), ((3,), 2))])),
        (GluingComplex([(s, (0,)), (s, (1,))], [(((0,), 1), ((1,), 1))]),
         GluingComplex([(s, (0,)), (s, (1,))], [(((0,), 2), ((1,), 2))])),
        (GluingComplex([(s, (0,)), (pool[1], (1,))], []),
         GluingComplex([(s, (0,)), (pool[2], (1,))], [])),
    ]
    fixed = len(pairs)
    for _ in range(600):
        size = rng.randint(1, 5)
        choices = pool[:rng.randint(1, len(pool))]
        a = random_complex(rng, choices, size)
        roll = rng.random()
        if roll < 0.5:
            b = relabeled(rng, a)
        else:
            if roll < 0.75:
                choices = [t for t, _ in a.copies]
            b = relabeled(rng, random_complex(rng, choices, size))
        pairs.append((a, b))
    return pairs, fixed


def test_isomorphic_matches_brute_force():
    pairs, fixed = brute_force_pairs()
    verdicts = []
    for a, b in pairs:
        result = isomorphic(a, b)
        assert result.isomorphic == brute_force_isomorphic(a, b)
        if result.isomorphic:
            assert verify_isomorphism(a, b, result.witness)
        verdicts.append(result.isomorphic)
    assert not any(verdicts[:fixed])
    assert 100 < sum(verdicts) < len(verdicts) - 100


def rebuilt_verify(a, b, witness):
    """Witness check by rebuilding b under the map and comparing."""
    if sorted(witness) != sorted(label for _, label in a.copies):
        return False
    if sorted(witness.values()) != sorted(label for _, label in b.copies):
        return False
    for template, label in a.copies:
        if b.template_of(witness[label]) != template:
            return False
    mapped = [((witness[g.a[0]], g.a[1]), (witness[g.b[0]], g.b[1]),
               g.pairing) for g in a.gluings]
    return GluingComplex(
        [(b.template_of(label), label) for _, label in b.copies],
        mapped) == GluingComplex(list(b.copies), list(b.gluings))


def template_bijection(rng, a, b):
    """A random copy map keeping templates, or None if none exists."""
    images = {}
    for template, label in b.copies:
        images.setdefault(template, []).append(label)
    for group in images.values():
        rng.shuffle(group)
    out = {}
    for template, label in a.copies:
        if not images.get(template):
            return None
        out[label] = images[template].pop()
    return out


def lands_on_unglued_slot(a, b, witness):
    return any(b.glued_partner((witness[label], face)) is None
               for (label, face) in (g.a for g in a.gluings))


def witness_cases(rng, a, b):
    """(name, witness) pairs: right, wrong in each way, and not maps."""
    found = isomorphic(a, b)
    if found.isomorphic:
        yield "correct", found.witness
    base = found.witness if found.isomorphic \
        else template_bijection(rng, a, b)
    if base is None:
        base = dict(zip((label for _, label in a.copies),
                        (label for _, label in b.copies)))
    labels = list(base)
    for _ in range(4):
        guess = template_bijection(rng, a, b)
        if guess is not None:
            name = "to unglued" if lands_on_unglued_slot(a, b, guess) \
                else "bijection"
            yield name, guess
    if len(labels) >= 2:
        x, y = rng.sample(labels, 2)
        swapped = dict(base)
        swapped[x], swapped[y] = base[y], base[x]
        same = a.template_of(x) == a.template_of(y)
        yield "swapped" if same else "template swap", swapped
        merged = dict(base)
        merged[x] = base[y]
        yield "not bijective", merged
    dropped = dict(base)
    dropped.pop(labels[0])
    yield "not bijective", dropped
    extra = dict(base)
    extra[(-1,)] = (-1,)
    yield "not bijective", extra


def mixed_face_counts(rng):
    """Mirror-built complexes whose copies have different face counts,
    each paired with a relabeled copy: their columns are padded past a
    smaller copy's last face and unglued past the mirror's faces."""
    for c, _, _ in mirror_built_cases():
        if len({len(t.faces) for t, _ in c.copies}) > 1:
            yield c, relabeled(rng, c)


def test_verify_isomorphism_matches_rebuilt_check():
    rng = random.Random(91)
    pairs, _ = brute_force_pairs()
    mixed = list(mixed_face_counts(rng))
    assert len(mixed) == 3
    pairs += mixed
    seen = collections.Counter()
    for a, b in pairs:
        cases = list(witness_cases(rng, a, b))
        # Drop one gluing: equal copies, different gluing counts.
        if a.gluings:
            fewer = GluingComplex(list(a.copies), list(a.gluings[1:]))
            identity = {label: label for _, label in a.copies}
            for left, right in ((a, fewer), (fewer, a)):
                expected = rebuilt_verify(left, right, identity)
                assert verify_isomorphism(left, right, identity) == expected
                seen["gluing counts", expected] += 1
        for name, witness in cases:
            expected = rebuilt_verify(a, b, witness)
            assert verify_isomorphism(a, b, witness) == expected
            seen[name, expected] += 1
    assert seen["correct", True] > 100
    assert seen["gluing counts", False] > 300
    for name in ("to unglued", "swapped", "template swap", "not bijective"):
        assert seen[name, False] > 50, name
    assert seen["bijection", True] > 20
    assert seen["swapped", True] > 20  # swapping like copies can be fine
    assert sum(n for (_, ok), n in seen.items() if not ok) > 1000


def test_a_changed_partner_map_leaves_the_complex_alone():
    # glued_partner handed out the complex's own pairing dict: this edit
    # made isomorphic and verify_isomorphism refuse an equal complex
    a = replicate(saucer_template("s"), (4,))
    b = replicate(saucer_template("s"), (4,))
    _, m = a.glued_partner(((0,), 1))
    m[1], m[2] = 2, 1
    assert a.glued_partner(((0,), 1)) == (((1,), 1), {1: 1, 2: 2})
    identity = {label: label for _, label in a.copies}
    assert a == b
    assert isomorphic(a, b) == (True, identity)
    assert verify_isomorphism(a, b, identity)


def test_one_gluing_more_on_either_side_is_refused():
    # the gluing counts are no longer compared first: both searches must
    # see the extra gluing face by face
    t = saucer_template("s")
    copies = [(t, (i,)) for i in range(4)]
    fewer = GluingComplex(copies, [(((0,), 1), ((1,), 1)),
                                   (((2,), 2), ((3,), 2))])
    more = GluingComplex(copies, [(((0,), 1), ((1,), 1)),
                                  (((2,), 2), ((3,), 2)),
                                  (((1,), 2), ((2,), 1))])
    identity = {label: label for _, label in copies}
    assert verify_isomorphism(fewer, fewer, identity)
    for a, b in ((fewer, more), (more, fewer)):
        assert isomorphic(a, b) == (False, None)
        assert verify_isomorphism(a, b, identity) is False
        for image in itertools.permutations(range(4)):
            witness = {(i,): (j,) for i, j in enumerate(image)}
            assert verify_isomorphism(a, b, witness) is False


@pytest.mark.parametrize("change", [
    lambda w: {**w, (3,): [3]},
    lambda w: {**w, (3,): "3"},
    lambda w: None,
    lambda w: {**w, (3,): (3.0,)},
    lambda w: {(0,): (0,), (1,): (1,), (2,): (2,), (3.0,): (3,)},
    lambda w: {**w, (1,): (True,)},
    lambda w: {**w, (3,): (99,)},
], ids=["list image", "string image", "None", "float image", "float key",
        "bool image", "unknown image"])
def test_verify_isomorphism_refuses_a_malformed_witness(change):
    # a list, a string or None raised a bare TypeError from sorted(), and
    # the float label (3.0,) was taken for the copy (3,)
    a = replicate(saucer_template("s"), (4,))
    identity = {label: label for _, label in a.copies}
    assert verify_isomorphism(a, a, identity)
    assert verify_isomorphism(a, a, change(identity)) is False


def test_bracelets_of_other_shapes_are_not_isomorphic():
    # two 2-copy bracelets against one 4-copy bracelet: the root's two
    # faces reach one copy on one side and two on the other; and two
    # templates alternating against two in pairs: the second copy
    # reached holds another template
    s, t = saucer_template("s"), saucer_template("t")
    two = build_bracelet([s, s])
    shift = lambda side: ((side[0][0] + 2,), side[1])
    twice = GluingComplex(
        [*two.copies, *((template, (label[0] + 2,))
                        for template, label in two.copies)],
        [*two.gluings, *((shift(g.a), shift(g.b), g.pairing)
                         for g in two.gluings)])
    assert len(twice.copies) == len(twice.gluings) == 4
    for a, b in ((twice, build_bracelet([s] * 4)),
                 (build_bracelet([s, t, s, t]), build_bracelet([s, t, t, s]))):
        assert isomorphic(a, b) == (False, None)
        assert isomorphic(b, a) == (False, None)


def test_templates_sharing_an_id_cannot_be_written():
    saucer = saucer_template("x")
    other = PieceTemplate(saucer.id, ((1, 2, 3), (1, 2, 3)),
                          [((1, k), (2, k)) for k in (1, 2, 3)])
    pair = GluingComplex([(saucer, (0,)), (other, (1,))], [])
    with pytest.raises(PieceError) as info:
        pair.to_json_dict()
    assert str(info.value) == "distinct templates share id 'saucer x'"


def first_fit_witness(a, b):
    """The full scan: each root of ``a``, in ``a.copies`` order, takes
    the first unused image of its colour in ``b.copies`` order that
    propagates.  The private helpers work on copy positions; the
    witness maps labels.  For isomorphic complexes only."""
    base = pieces._template_index((a, b))
    colors_a = pieces._refine_colors(a, base)
    colors_b = pieces._refine_colors(b, base)
    queues = {}
    for image, colour in enumerate(colors_b):
        queues.setdefault(colour, []).append(image)
    start = dict.fromkeys(queues, 0)
    witness, used = {}, set()
    for root, colour in enumerate(colors_a):
        if root in witness:
            continue
        queue = queues[colour]
        # A used prefix would be skipped image by image; skip it at once.
        while queue[start[colour]] in used:
            start[colour] += 1
        for image in queue[start[colour]:]:
            if image in used:
                continue
            trial = pieces._propagate(a, b, root, image)
            if trial is not None:
                break
        else:
            raise AssertionError("no image propagates")
        witness.update(trial)
        used.update(trial.values())
    return {a.copies[x][1]: b.copies[y][1] for x, y in witness.items()}


def cycles_and_singletons(rng, lengths, singles):
    """Saucer cycles of the given lengths plus unglued copies, shuffled."""
    s = saucer_template("s")
    copies, gluings = [], []
    numbers = rng.sample(range(10 ** 6), sum(lengths) + singles)
    for length in lengths:
        ring = [(numbers.pop(),) for _ in range(length)]
        copies += [(s, label) for label in ring]
        for i in range(0, length, 2):
            gluings.append(((ring[i], 1), (ring[i + 1], 1)))
            gluings.append(((ring[i + 1], 2), (ring[(i + 2) % length], 2)))
    copies += [(s, (numbers.pop(),)) for _ in range(singles)]
    rng.shuffle(copies)
    return GluingComplex(copies, gluings)


def test_witness_follows_the_full_scan_order():
    pairs, _ = brute_force_pairs()
    rng = random.Random(17)
    sq = square_template("2")
    for n in (10, 20, 30, 40):
        pairs.append((replicate(sq, (n, n)),
                      replicate(sq, ReplicantSchedule((n, n), (2, 1)))))
    # Cycles of every length share one colour, so roots try cycles of
    # the wrong length before the right one.
    for _ in range(20):
        lengths = [rng.choice((2, 4, 6, 8)) for _ in range(rng.randint(1, 8))]
        a = cycles_and_singletons(rng, lengths, rng.randint(0, 5))
        pairs.append((a, relabeled(rng, a)))
    pairs += mixed_face_counts(rng)
    matched = 0
    for a, b in pairs:
        result = isomorphic(a, b)
        if result.isomorphic:
            assert result.witness == first_fit_witness(a, b)
            matched += 1
    assert matched > 300


def counting_trials(monkeypatch):
    trials = []
    real = pieces._propagate

    def propagate(a, b, root, image):
        trials.append(root)
        return real(a, b, root, image)

    monkeypatch.setattr(pieces, "_propagate", propagate)
    return trials


def test_many_unglued_copies_match_without_rescanning(monkeypatch):
    # 10 000 singleton components of one template: the full scan skipped
    # every used copy again for each root (2.8 s); each root now takes
    # the front of its colour's queue.
    t = saucer_template("s")
    a = GluingComplex([(t, (i,)) for i in range(pieces.ISO_COPY_LIMIT)], [])
    b = GluingComplex(list(reversed(a.copies)), [])
    trials = counting_trials(monkeypatch)
    result = isomorphic(a, b)
    assert result.isomorphic
    assert len(trials) == len(a.copies)
    assert verify_isomorphism(a, b, result.witness)
    assert result.witness == first_fit_witness(a, b)
    last = len(a.copies) - 1
    assert result.witness == {(i,): (last - i,) for i in range(last + 1)}


def counting_refinements(monkeypatch):
    refined = []
    real = pieces._refine_colors

    def refine(complex, base):
        refined.append(len(complex.copies))
        return real(complex, base)

    monkeypatch.setattr(pieces, "_refine_colors", refine)
    return refined


def test_a_match_that_never_misses_refines_nothing(monkeypatch):
    # Every first image propagates, so the template-coloured scan is the
    # whole search; refinement would leave the witness as it is.
    sq = square_template("2")
    for n in (10, 20, 30, 40):
        a = replicate(sq, (n, n))
        b = replicate(sq, ReplicantSchedule((n, n), (2, 1)))
        with monkeypatch.context() as patch:
            refined = counting_refinements(patch)
            result = isomorphic(a, b)
        assert refined == []
        assert result.isomorphic
        assert result.witness == first_fit_witness(a, b)


def cross_wired(c):
    """``c`` with its first face-1 and first face-3 gluings trading their
    second sides."""
    gluings = list(c.gluings)
    one = next(k for k, g in enumerate(gluings) if g.a[1] == 1)
    three = next(k for k, g in enumerate(gluings) if g.a[1] == 3)
    g1, g3 = gluings[one], gluings[three]
    gluings[one] = (g1.a, g3.b, g1.pairing)
    gluings[three] = (g3.a, g1.b, g3.pairing)
    return GluingComplex(c.copies, gluings)


def test_a_near_miss_is_refused_after_one_failed_propagation(monkeypatch):
    plain = replicate(square_template("2"), (20, 20))
    crossed = cross_wired(plain)
    assert [g.pairing for g in crossed.gluings] == \
        [((1, 1),)] * len(plain.gluings)
    assert crossed != plain
    for a, b in ((plain, crossed), (crossed, plain)):
        with monkeypatch.context() as patch:
            trials = counting_trials(patch)
            refined = counting_refinements(patch)
            assert isomorphic(a, b) == (False, None)
        assert len(trials) <= 1
        assert refined == [400, 400]


# bracelets

def test_homogeneous_bracelet_is_the_replicant():
    t = saucer_template("1/4")
    for count in (2, 4, 6, 8):
        bracelet = build_bracelet([t] * count)
        assert bracelet == replicate(t, (count,))
        result = isomorphic(bracelet, replicate(t, (count,)))
        assert result.isomorphic
        assert result.witness == {(i,): (i,) for i in range(count)}


def test_mixed_bracelet_valid():
    cycle = [saucer_template("1/4")] * 5 + [saucer_template("1/5")]
    bracelet = build_bracelet(cycle)
    assert len(bracelet.copies) == 6
    assert bracelet.unglued_slots() == []
    for g in bracelet.gluings:
        assert len(g.pairing) == 2


def test_label_identity_gluing_needs_equal_endpoint_counts():
    copies = [(square_template("q"), (0,)), (saucer_template("s"), (1,))]
    for gluing, counts in (((((0,), 1), ((1,), 1)), (1, 2)),
                           ((((1,), 2), ((0,), 3)), (2, 1))):
        with pytest.raises(EndpointMismatch) as info:
            GluingComplex(copies, [gluing])
        assert str(info.value) == (
            "faces %r and %r carry %d and %d endpoints" % (gluing + counts))


def test_bracelet_rejections():
    t = saucer_template("a")
    with pytest.raises(OddLength):
        build_bracelet([t] * 5)
    with pytest.raises(OddLength):
        build_bracelet([])

    wide = cylindrical_template("wide", 3)
    with pytest.raises(EndpointMismatch):
        build_bracelet([t, wide])

    thin = cylindrical_template("thin", 1)
    with pytest.raises(TooFewStrands):
        build_bracelet([thin, thin])

    # the first bad connection in cycle order is named
    with pytest.raises(EndpointMismatch,
                       match="^tangles 2 and 3 meet with 2 and 3 endpoints$"):
        build_bracelet([t, t, t, wide, t, t])


# a template with fewer than two faces has no face pair to meet across
@pytest.mark.parametrize("build, message", [
    (build_bracelet, "bracelet tangles need a face pair"),
    (build_cylinder_stack, "stacked tangles need a face pair"),
], ids=["bracelet", "stack"])
@pytest.mark.parametrize("faces, strands", [
    ((), ()), (((1, 2),), (((1, 1), (1, 2)),)),
], ids=["no face", "one face"])
def test_builders_need_a_face_pair(build, message, faces, strands):
    bare = PieceTemplate("bare", faces, strands)
    with pytest.raises(PieceError) as info:
        build([bare, bare])
    assert type(info.value) is PieceError
    assert str(info.value) == message


# lattices

def test_lattice_matches_replicant():
    sq = square_template("2")
    for height, width in ((2, 2), (2, 4), (4, 2), (4, 6)):
        lattice = build_torus_lattice([[sq] * width] * height)
        assert lattice == replicate(sq, (height, width))


def test_lattice_rejections():
    sq = square_template("2")
    with pytest.raises(OddDimension):
        build_torus_lattice([[sq] * 3, [sq] * 3])
    with pytest.raises(OddDimension):
        build_torus_lattice([[sq, sq]])
    with pytest.raises(PieceError):
        build_torus_lattice([[sq, sq], [sq]])
    with pytest.raises(PieceError):
        build_torus_lattice([[saucer_template("s")] * 2] * 2)

    # cells are checked row-major, rows before columns, so the wrap from
    # (0, 3) to (0, 0) is the first bad gluing, ahead of (0, 3) to (1, 3)
    wide = template_union(sq, sq)
    grid = [[sq] * 4 for _ in range(2)]
    grid[0][3] = grid[1][2] = wide
    with pytest.raises(EndpointMismatch,
                       match=r"^cells \(0, 3\) and \(0, 0\) meet with "
                             r"unequal endpoints$"):
        build_torus_lattice(grid)


def test_lattice_copy_count():
    sq = square_template("h")
    lattice = build_torus_lattice([[sq] * 2] * 4)
    assert len(lattice.copies) == 8
    assert lattice.unglued_slots() == []


# cylinder stacks

def test_cylinder_stack_wraps():
    t = cylindrical_template("t")
    stack = build_cylinder_stack([t, t, t])
    assert len(stack.gluings) == 3
    assert stack.unglued_slots() == []
    assert count_components(stack) == ComponentCount(2, 0)

    solo = build_cylinder_stack([t])
    assert count_components(solo) == ComponentCount(2, 0)

    with pytest.raises(EndpointMismatch):
        build_cylinder_stack([t, cylindrical_template("w", 3)])
    with pytest.raises(PieceError):
        build_cylinder_stack([])


# component counting

def test_single_strand_replicant_closes_up():
    strand = cylindrical_template("strand", 1)
    c = replicate(strand, (2,))
    assert count_components(c) == ComponentCount(1, 0)


def test_chain_replicants():
    for n in range(1, 4):
        c = replicate(saucer_template("1/2"), (2 * n,))
        assert count_components(c) == ComponentCount(2 * n, 0)


def test_disjoint_loop_replicant():
    loop = PieceTemplate("loop", ((), ()), (), closed_components=1)
    c = replicate(loop, (2,))
    assert count_components(c) == ComponentCount(2, 0)


def test_open_strands_reported_separately():
    t = square_template("open")
    c = GluingComplex([(t, (0,)), (t, (1,))], [(((0,), 1), ((1,), 1))])
    assert count_components(c) == ComponentCount(0, 3)


def test_component_count_matches_oracle():
    rng = random.Random(2024)
    for _ in range(40):
        ell = rng.choice([1, 2])
        t = random_template(rng, ell)
        schedule = tuple(rng.choice([2, 4]) for _ in range(ell))
        c = replicate(t, schedule)
        assert count_components(c) == components_oracle(c)
    bracelet = build_bracelet([saucer_template("1/4")] * 5 +
                              [saucer_template("1/5")])
    assert count_components(bracelet) == components_oracle(bracelet)
    # random gluings of mixed templates: shuffled pairings, unglued faces
    # that end paths, glued cycles and loops recorded on the templates
    pool = [random_template(rng, 2) for _ in range(4)]
    pool += [cylindrical_template("c", 3)] * 2
    pool.append(PieceTemplate("loop", ((1,), (1,), (), ()),
                              (((1, 1), (2, 1)),), closed_components=1))
    shown = collections.Counter()
    for _ in range(120):
        c = random_complex(rng, pool, rng.randint(1, 12))
        count = count_components(c)
        assert count == components_oracle(c)
        loops = sum(t.closed_components for t, _ in c.copies)
        shown["open"] += count.open > 0
        shown["cycles"] += count.closed > loops
        shown["loops"] += loops > 0
        shown["mixed"] += len({id(t) for t, _ in c.copies}) > 1
        shown["shuffled"] += any(x != y for g in c.gluings
                                 for x, y in g.pairing)
    assert len(shown) == 5 and min(shown.values()) >= 20, shown


def test_component_count_marks_endpoints_in_one_bytearray():
    # a set of (position, endpoint) tuples held over 5 MB here
    c = replicate(square_template("2"), (100, 100))
    tracemalloc.start()
    try:
        assert count_components(c) == ComponentCount(200, 0)
        assert tracemalloc.get_traced_memory()[1] < 5 * 10 ** 5
    finally:
        tracemalloc.stop()


def test_component_count_is_isomorphism_invariant():
    rng = random.Random(5)
    for _ in range(10):
        t = random_template(rng, 2)
        one = replicate(t, ReplicantSchedule((2, 4), (1, 2)))
        two = replicate(t, ReplicantSchedule((2, 4), (2, 1)))
        assert isomorphic(one, two).isomorphic
        assert count_components(one) == count_components(two)


# disjoint unions

def test_union_replicant_splits_componentwise():
    rng = random.Random(11)
    for schedule in ((2,), (4,)):
        p = random_template(rng, 1)
        q = saucer_template("1/2")
        u = template_union(p, q)
        whole = replicate(u, schedule)
        left, right = split_union(whole, p, q)
        assert isomorphic(left, replicate(p, schedule)).isomorphic
        assert isomorphic(right, replicate(q, schedule)).isomorphic
        total = count_components(whole)
        parts_closed = count_components(left).closed + \
            count_components(right).closed
        assert total.closed == parts_closed
        assert total.open == 0


def test_split_union_rejects_other_complexes():
    p = saucer_template("p")
    q = cylindrical_template("q")
    with pytest.raises(PieceError):
        split_union(replicate(p, (2,)), p, q)


def test_split_union_refuses_a_gluing_across_the_parts():
    # endpoints 1-2 of each union face are the left part's, 3-4 the right's
    s = saucer_template("s")
    u = template_union(s, s)
    crossed = GluingComplex(
        [(u, (0,)), (u, (1,))],
        [(((0,), 1), ((1,), 1), [(1, 3), (2, 4), (3, 1), (4, 2)])])
    with pytest.raises(PieceError, match=r"^gluing .* mixes the union's "
                                         r"parts$"):
        split_union(crossed, s, s)


# complex plumbing

def test_complex_validation():
    t = saucer_template("v")
    with pytest.raises(PieceError):
        GluingComplex([(t, (0,)), (t, (0,))], [])
    with pytest.raises(PieceError):
        GluingComplex([(t, (0,))], [(((0,), 1), ((0,), 1))])
    with pytest.raises(PieceError):
        GluingComplex([(t, (0,)), (t, (1,))],
                      [(((0,), 1), ((1,), 1)),
                       (((0,), 1), ((1,), 2))])
    with pytest.raises(PieceError):
        GluingComplex([(t, (0,)), (t, (1,))],
                      [(((0,), 1), ((1,), 1), ((1, 1), (2, 1)))])
    with pytest.raises(PieceError):
        GluingComplex([(t, (0,))], [(((0,), 1), ((2,), 1))])


def test_gluing_order_and_sides_do_not_matter():
    # the face table is the complex: gluings given in another order, each
    # written from its other side, build an equal complex that writes out
    # the same gluings, JSON and hash
    rng = random.Random(18)
    cases = [replicate(square_template("2"), (2, 4)),
             replicate(random_template(rng, 2), ReplicantSchedule((4, 2),
                                                                  (2, 1))),
             build_cylinder_stack([cylindrical_template("c", 3)] * 3),
             relabeled(rng, replicate(saucer_template("s"), (6,)))]
    pool = [saucer_template("s"), cylindrical_template("c", 3),
            square_template("2"), random_template(rng, 2)]
    cases += [random_complex(rng, pool, 8) for _ in range(20)]
    for c in cases:
        flipped = [(g.b, g.a, [(y, x) for x, y in g.pairing])
                   for g in reversed(c.gluings)]
        again = GluingComplex(list(c.copies), flipped)
        assert again == c and hash(again) == hash(c)
        assert again.gluings == c.gluings
        assert again.to_json_dict() == c.to_json_dict()
        sides = [[(c._position[label], face) for label, face in (g.a, g.b)]
                 for g in c.gluings]
        assert all(a < b for a, b in sides)
        assert sides == sorted(sides)


def test_a_slot_glued_twice_is_named_from_its_lower_side():
    t = saucer_template("v")
    copies = [(t, (i,)) for i in range(3)]
    first = (((0,), 1), ((1,), 1))
    for second, side in [((((1,), 1), ((0,), 1)), ((0,), 1)),
                         ((((2,), 1), ((0,), 1)), ((0,), 1)),
                         ((((0,), 2), ((1,), 1)), ((1,), 1)),
                         ((((1,), 1), ((2,), 2)), ((1,), 1))]:
        with pytest.raises(PieceError) as info:
            GluingComplex(copies, [first, second])
        assert str(info.value) == "face slot %r glued twice" % (side,)


def mirror_oracle(copies, sizes, pairs):
    """The mirror pattern written out by labels, through the validating
    constructor: axis j steps copy 2i to 2i+1 across face 2k-1 and copy
    2i-1 to 2i across face 2k, k = pairs[j], cyclically."""
    gluings = []
    for label in itertools.product(*map(range, sizes)):
        for axis, (size, k) in enumerate(zip(sizes, pairs)):
            if label[axis] % 2:
                continue
            step = [label[:axis] + ((label[axis] + d) % size,) +
                    label[axis + 1:] for d in (1, -1)]
            gluings.append(((label, 2 * k - 1), (step[0], 2 * k - 1)))
            gluings.append(((step[1], 2 * k), (label, 2 * k)))
    return GluingComplex(copies, gluings)


def mirror_built_cases():
    """(complex from a mirror builder, its grid sizes, its face pairs)."""
    rng = random.Random(31)
    s, sq = saucer_template("s"), square_template("2")
    one_pair = [s, cylindrical_template("c", 1), cylindrical_template("c", 3),
                template_union(s, cylindrical_template("c", 2))]
    for t in one_pair:
        for n in (2, 4, 6):
            yield replicate(t, (n,)), (n,), (1,)
    two_pairs = [sq, template_union(sq, square_template("3"))]
    for t in two_pairs:
        for indices in ((2, 2), (2, 4), (6, 4)):
            for order in itertools.permutations((1, 2)):
                sizes = tuple(indices[k - 1] for k in order)
                yield (replicate(t, ReplicantSchedule(indices, order)),
                       sizes, order)
    t = random_template(rng, 3)
    for indices in ((2, 4, 2), (4, 6, 8)):
        for order in itertools.permutations((1, 2, 3)):
            sizes = tuple(indices[k - 1] for k in order)
            yield (replicate(t, ReplicantSchedule(indices, order)), sizes,
                   order)
    yield replicate(sq, (10, 8)), (10, 8), (1, 2)
    pool = [s, saucer_template("t"), cylindrical_template("c", 2)]
    for count in (2, 4, 8):
        yield (build_bracelet([rng.choice(pool) for _ in range(count)]),
               (count,), (1,))
    # four-faced tangles leave their second face pair unglued
    pool.append(template_union(sq, square_template("3")))
    tangles = [pool[i % 4] for i in range(10)]
    yield build_bracelet(tangles), (10,), (1,)
    # a six-faced cell leaves its third face pair unglued
    cube = PieceTemplate("cube", ((1,),) * 6,
                         [((f, 1), (f + 1, 1)) for f in (1, 3, 5)])
    for height, width in ((2, 2), (2, 6), (4, 4)):
        grid = [[rng.choice([sq, square_template("3"), cube])
                 for _ in range(width)] for _ in range(height)]
        yield build_torus_lattice(grid), (height, width), (1, 2)
    # one template with faces past those the mirror glues
    yield build_bracelet([pool[3]] * 4), (4,), (1,)
    yield build_torus_lattice([[cube] * 2] * 2), (2, 2), (1, 2)


def test_mirror_builders_match_the_validating_constructor():
    # the builders fill their face table directly; the constructor reads
    # the same gluings through every check
    cases = 0
    for c, sizes, pairs in mirror_built_cases():
        rebuilt = GluingComplex(list(c.copies), list(c.gluings))
        for other in (rebuilt, mirror_oracle(list(c.copies), sizes, pairs)):
            assert c == other and hash(c) == hash(other)
            assert c.to_json_dict() == other.to_json_dict()
            assert (c._other, c._carry) == (other._other, other._carry)
            label, face_count = c.copies[0][1], len(c.copies[0][0].faces)
            missing = [(label, 0), (label, face_count + 1), (label, 1.5),
                       ((-1,) * len(label), 1), ((99,) * len(label), 1)]
            for side in c.slots() + missing:
                assert c.glued_partner(side) == other.glued_partner(side)
            assert c.unglued_slots() == other.unglued_slots()
        cases += 1
    assert cases == 12 + 12 + 12 + 1 + 4 + 3 + 2


def test_template_of_names_a_label_that_names_no_copy():
    # a missing label raised a bare KeyError, an unhashable one TypeError
    c = replicate(saucer_template("s"), (2,))
    assert c.template_of((1,)) == saucer_template("s")
    for label in [(9,), [0], (0.5,), None]:
        with pytest.raises(PieceError) as info:
            c.template_of(label)
        assert str(info.value) == "no copy is labelled %r" % (label,)
    assert c.glued_partner(((9,), 1)) is None


def test_the_empty_complex():
    e = GluingComplex([], [])
    assert verify_isomorphism(e, e, {})
    assert isomorphic(e, e) == (True, {})
    assert count_components(e) == (0, 0)
    assert e.gluings == () and e.unglued_slots() == []
    assert repr(e) == "GluingComplex(0 copies, 0 gluings)"
    assert e == e and hash(e) == hash(GluingComplex([], []))
    again = GluingComplex.from_json_dict(json.loads(json.dumps(
        e.to_json_dict())))
    assert again == e and hash(again) == hash(e)


def test_complex_json_roundtrip():
    bracelet = build_bracelet([saucer_template("1/4")] * 5 +
                              [saucer_template("1/5")])
    again = GluingComplex.from_json_dict(bracelet.to_json_dict())
    assert again == bracelet

    c = replicate(square_template("2"), (2, 2))
    assert GluingComplex.from_json_dict(c.to_json_dict()) == c


GLUING = {"a": [[0], 1], "b": [[1], 1], "pairing": [[1, 1], [2, 2]]}


@pytest.mark.parametrize("field, value, message", [
    ("copies", [["saucer S", [0.7]], ["saucer S", [1]]],
     "copy labels must be integers, got (0.7,)"),
    ("copies", [["saucer S", [float("inf")]], ["saucer S", [1]]],
     "copy labels must be integers, got (inf,)"),
    ("gluings", [dict(GLUING, a=[[0], 1.9])],
     "gluing face numbers must be integers, got 1.9"),
    ("gluings", [dict(GLUING, b=[[1.0], 1])],
     "gluing copy labels must be integers, got (1.0,)"),
    ("gluings", [dict(GLUING, pairing=[[1.2, 1], [2.8, 2]])],
     "pairing labels must be integers, got (1.2, 1)"),
])
def test_complex_json_fields_must_be_integers(field, value, message):
    # int() read 0.7 as 0 and 1.9 as 1, and overflowed on infinity
    data = build_bracelet([saucer_template("S")] * 2).to_json_dict()
    data[field] = value
    with pytest.raises(PieceError) as info:
        GluingComplex.from_json_dict(data)
    assert type(info.value) is PieceError
    assert str(info.value) == message


@pytest.mark.parametrize("gluing, message", [
    (dict(GLUING, a=[[0], 1, 99]),
     "gluing sides must be pairs, got [[0], 1, 99]"),
    (dict(GLUING, b=[[1]]), "gluing sides must be pairs, got [[1]]"),
    (dict(GLUING, a=5), "gluing sides must be pairs, got 5"),
    (dict(GLUING, pairing=[[1, 1, 7], [2, 2]]),
     "pairing entries must be pairs, got [1, 1, 7]"),
    (dict(GLUING, pairing=[[1, 1], 2]),
     "pairing entries must be pairs, got 2"),
])
def test_gluing_sides_and_pairing_entries_must_be_pairs(gluing, message):
    # reading side[0] and side[1] dropped the 99; unpacking [1, 1, 7]
    # raised a ValueError that named no field
    data = build_bracelet([saucer_template("S")] * 2).to_json_dict()
    data["gluings"] = [gluing]
    copies = [(saucer_template("S"), (0,)), (saucer_template("S"), (1,))]
    for build in (lambda: GluingComplex.from_json_dict(data),
                  lambda: GluingComplex(copies, [(gluing["a"], gluing["b"],
                                                  gluing["pairing"])])):
        with pytest.raises(PieceError) as info:
            build()
        assert type(info.value) is PieceError
        assert str(info.value) == message


@pytest.mark.parametrize("item", [(((0,), 1),),
                                  (((0,), 1), ((1,), 1), None, None)])
def test_gluing_items_have_two_or_three_entries(item):
    # unpacking a 1- or 4-tuple raised a ValueError that named no field
    copies = [(saucer_template("S"), (0,)), (saucer_template("S"), (1,))]
    with pytest.raises(PieceError) as info:
        GluingComplex(copies, [item])
    assert str(info.value) == ("gluings must have 2 or 3 entries, got %r"
                               % (item,))


@pytest.mark.parametrize("change, message", [
    ({"gluings": [dict(GLUING, pairing=None)]},
     "gluing pairings must be arrays, got None"),
    ({"gluings": [dict(GLUING, pairing=5)]},
     "gluing pairings must be arrays, got 5"),
    ({"copies": [["saucer S", 0], ["saucer S", [1]]]},
     "copy labels must be arrays of integers, got 0"),
    ({"gluings": [dict(GLUING, a=[5, 1])]},
     "gluing copy labels must be arrays of integers, got 5"),
    ({"copies": [[["saucer S"], [0]]]},
     "copy references missing template ['saucer S']"),
])
def test_complex_json_names_a_part_that_is_not_an_array(change, message):
    # each ended in a bare TypeError from list(), tuple() or a dict lookup
    data = build_bracelet([saucer_template("S")] * 2).to_json_dict()
    data.update(change)
    with pytest.raises(PieceError) as info:
        GluingComplex.from_json_dict(data)
    assert type(info.value) is PieceError
    assert str(info.value) == message


@pytest.mark.parametrize("copies, gluings, message", [
    ([(saucer_template("S"), (0,))], [5],
     "gluings must have 2 or 3 entries, got 5"),
    ([5], [], "copies must be pairs, got 5"),
    ([(saucer_template("S"), 0)], [], "copy labels must be arrays of "
                                      "integers, got 0"),
    ([(saucer_template("S"), (0,)), (saucer_template("S"), (1,))],
     [(((0,), 1), ((1,), 1), 5)], "gluing pairings must be arrays, got 5"),
    ([("saucer S", (0,))], [], "copies must reference PieceTemplate objects"),
])
def test_complex_names_a_copy_or_gluing_of_the_wrong_kind(copies, gluings,
                                                          message):
    # each ended in a bare TypeError from len(), unpacking or iteration
    with pytest.raises(PieceError) as info:
        GluingComplex(copies, gluings)
    assert type(info.value) is PieceError
    assert str(info.value) == message


@pytest.mark.parametrize("change, message", [
    ({"templates": None}, "gluing complex templates must be an object, "
                          "got None"),
    ({"templates": []}, "gluing complex templates must be an object, "
                        "got []"),
    ({"copies": {}}, "gluing complex copies must be an array, got {}"),
    ({"gluings": 3}, "gluing complex gluings must be an array, got 3"),
    ({"copies": [["saucer S"]]}, "copies must be pairs, got ['saucer S']"),
    ({"gluings": [[[0], 1]]},
     "gluings must be objects with a, b and pairing, got [[0], 1]"),
    ({"gluings": [{"a": [[0], 1], "b": [[1], 1]}]},
     "gluings must be objects with a, b and pairing, got "
     "{'a': [[0], 1], 'b': [[1], 1]}"),
])
def test_complex_json_names_its_malformed_part(change, message):
    # a missing "templates" raised KeyError, and a list there
    # AttributeError, which the command line does not treat as a refusal
    data = build_bracelet([saucer_template("S")] * 2).to_json_dict()
    data.update(change)
    with pytest.raises(PieceError) as info:
        GluingComplex.from_json_dict(data)
    assert str(info.value) == message


def test_complex_json_must_be_an_object_with_templates():
    data = build_bracelet([saucer_template("S")] * 2).to_json_dict()
    del data["templates"]
    for malformed, shown in ((data, "templates must be an object, got None"),
                             ([], "must be a JSON object, got []")):
        with pytest.raises(PieceError) as info:
            GluingComplex.from_json_dict(malformed)
        assert str(info.value).endswith(shown)


SAUCER = saucer_template("1/4")


@pytest.mark.parametrize("value, text", [
    (SAUCER, "PieceTemplate(id='saucer 1/4', ell=1)"),
    (replicate(SAUCER, (4,)), "GluingComplex(4 copies, 4 gluings)"),
    (build_cylinder_stack([cylindrical_template("c")] * 3),
     "GluingComplex(3 copies, 3 gluings)"),
    (GluingComplex([(SAUCER, (0,)), (SAUCER, (1,))], [(((0,), 1), ((1,), 1))]),
     "GluingComplex(2 copies, 1 gluings)"),
], ids=["template", "replicant", "stack", "half glued"])
def test_piece_reprs(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", [SAUCER, replicate(SAUCER, (2,))],
                         ids=["template", "complex"])
def test_pieces_equal_no_other_type(value):
    assert value != value.to_json_dict()
    assert not value == 5
