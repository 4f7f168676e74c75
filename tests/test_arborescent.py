import random
from fractions import Fraction

import pytest

from repvol.arborescent import (
    ENTIRELY_NON_HYPERBOLIC, PRINCIPALLY_2, PRINCIPALLY_4, PRINCIPALLY_6,
    Classification, ConwayRational, ParseError, QLoop, RationalLeaf, Reflect,
    Rotate90, Sum,
    canonicalize, classify, contains_qloop, expr_from_json_dict,
    expr_to_json_dict, is_rational, leaf, parse_conway, parse_expr,
    principal_signature, rational_from_quotients,
)


def fraction_oracle(quotients):
    """Rightmost-first continued fraction over Fraction; None on 1/0.

    An intermediate zero makes the next step infinite, and the step
    after that lands back on the integer part (1/inf contributes 0).
    """
    value = Fraction(quotients[0])
    for c in quotients[1:]:
        if value is None:
            value = Fraction(c)
        elif value == 0:
            value = None
        else:
            value = c + 1 / value
    return value


# notation

def test_parse_basics():
    assert parse_conway("3") == ConwayRational(3, 1, (3,))
    assert parse_conway("2 1").numerator == 3
    assert parse_conway("2 1").denominator == 2
    assert parse_conway("inf") == ConwayRational(1, 0)
    assert parse_conway("1/2")[:2] == (1, 2)
    assert parse_conway("-6/4")[:2] == (-3, 2)
    assert parse_conway("  4   2 ").fraction == Fraction(9, 4)


def test_the_infinity_tangle_has_no_fraction():
    with pytest.raises(ZeroDivisionError):
        ConwayRational(1, 0).fraction


def test_parse_rejects_junk():
    for bad in ("", "2 x", "1/0/2", "x/2", "--3", "sum(2)"):
        with pytest.raises(ParseError):
            parse_conway(bad)
    with pytest.raises(ParseError):
        parse_conway("0/0")


@pytest.mark.parametrize("quotients", [[2.9, 1.5], [float("inf")], [True]])
def test_quotients_must_be_integers(quotients):
    # int() read [2.9, 1.5] as the tangle "2 1" and overflowed on infinity
    with pytest.raises(ParseError) as info:
        rational_from_quotients(quotients)
    assert str(info.value) == ("quotients must be integers, got %r"
                               % (tuple(quotients),))


def test_an_empty_quotient_sequence_is_refused():
    with pytest.raises(ParseError) as info:
        rational_from_quotients([])
    assert str(info.value) == "empty quotient sequence"


def test_quotients_match_fraction_oracle():
    rng = random.Random(99)
    for _ in range(300):
        quotients = [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
        value = rational_from_quotients(quotients)
        expected = fraction_oracle(quotients)
        if expected is None:
            assert value.is_infinity
        else:
            assert value.fraction == expected


def test_notation_round_trip():
    for text in ("3", "2 1", "-4 2", "inf", "1/2", "7/3", "0"):
        value = parse_conway(text)
        again = parse_conway(value.text())
        assert (again.numerator, again.denominator) == \
            (value.numerator, value.denominator)


# expressions

def test_canonicalize_pushes_reflection_down():
    e = Reflect(Sum(leaf("3/2"), QLoop(2)))
    c = canonicalize(e)
    assert c == Sum(RationalLeaf(ConwayRational(-3, 2)), QLoop(2))

    assert canonicalize(Reflect(Reflect(leaf("5/3")))) == \
        canonicalize(leaf("5/3"))
    assert canonicalize(Rotate90(leaf("3/2"))) == \
        RationalLeaf(ConwayRational(-2, 3))


def test_canonicalize_left_associates():
    a, b, c = leaf("1/2"), leaf("1/3"), leaf("1/4")
    assert canonicalize(Sum(a, Sum(b, c))) == \
        Sum(Sum(canonicalize(a), canonicalize(b)), canonicalize(c))


def test_canonicalize_right_nested_sum_is_linear(monkeypatch):
    import repvol.arborescent as arborescent
    leaves = [leaf("%d/%d" % (k, k + 1)) for k in range(1, 201)]
    right = leaves[-1]
    for node in reversed(leaves[:-1]):
        right = Sum(node, right)
    left = leaves[0]
    for node in leaves[1:]:
        left = Sum(left, node)
    calls = 0
    original = arborescent.canonicalize

    def counted(expr):
        nonlocal calls
        calls += 1
        return original(expr)

    monkeypatch.setattr(arborescent, "canonicalize", counted)
    verdict = classify(right)
    nodes = 2 * len(leaves) - 1
    assert calls <= 4 * nodes
    assert verdict == classify(left)
    assert original(right) == original(left) == left


def _nested_sum_texts(parts):
    """The right-nested and the left-nested sum of ``parts``, as text."""
    right = ("".join("sum(%s, " % p for p in parts[:-1]) + parts[-1]
             + ")" * (len(parts) - 1))
    left = ("sum(" * (len(parts) - 1) + parts[0]
            + "".join(", %s)" % p for p in parts[1:]))
    return right, left


def _sum_factors(tree):
    """Top-level factors of a left-associated sum, left to right.

    Walked by hand: ``==``, ``repr`` and ``json.dumps`` on a tuple tree
    10^4 levels deep recurse in C and raise RecursionError.
    """
    factors = []
    while isinstance(tree, Sum):
        factors.append(tree.right)
        tree = tree.left
    factors.append(tree)
    return factors[::-1]


MIXED_PARTS = {
    "rat(3/2)": RationalLeaf(ConwayRational(3, 2)),
    "refl(rat(5/3))": RationalLeaf(ConwayRational(-5, 3)),
    "rot(rat(2/5))": RationalLeaf(ConwayRational(-5, 2)),
    "refl(rot(rat(2 1)))": RationalLeaf(ConwayRational(2, 3)),
    "rot(sum(rat(1/2), q(1)))": Rotate90(Sum(RationalLeaf(
        ConwayRational(1, 2)), QLoop(1))),
}


@pytest.mark.parametrize("kind", ["rational", "mixed", "top-loop"])
def test_deep_sums_left_and_right_nested(kind):
    n = 10 ** 4
    rng = random.Random(n)
    note = classify(leaf("1/3")).reasons[-1]
    if kind == "rational":
        ints = [rng.randint(-3, 3) for _ in range(n - 1)]
        parts = ["rat(%d)" % k for k in ints] + ["rat(1/3)"]
        factors = [RationalLeaf(ConwayRational(k, 1, (k,))) for k in ints]
        factors.append(RationalLeaf(ConwayRational(1, 3)))
        value = sum(ints) + Fraction(1, 3)
        rational = (True, ConwayRational(value.numerator, 3))
        verdict = Classification(PRINCIPALLY_4, (
            "non-integer rational tangle %s, not the clasp" % value, note))
    else:
        parts = [rng.choice(sorted(MIXED_PARTS)) for _ in range(n)]
        factors = [MIXED_PARTS[p] for p in parts]
        rational = (False, None)
        verdict = Classification(PRINCIPALLY_2, (
            "non-rational with no disqualifying loop", note))
        if kind == "top-loop":
            # the reason names the rightmost top-level loop
            for at, m in ((100, 2), (7000, 1)):
                parts.insert(at, "q(%d)" % m)
                factors.insert(at, QLoop(m))
            verdict = Classification(ENTIRELY_NON_HYPERBOLIC, (
                "sum with a top-level loop factor Q_1", note))
    for text in _nested_sum_texts(parts):
        tree = parse_expr(text)
        assert _sum_factors(canonicalize(tree)) == factors
        assert is_rational(tree) == rational
        assert classify(tree) == verdict


def test_deeply_nested_reflections():
    for depth, numerator in ((1500, 2), (1501, -2)):
        tree = parse_expr("refl(" * depth + "rat(2/3)" + ")" * depth)
        assert canonicalize(tree) == RationalLeaf(
            ConwayRational(numerator, 3))
        assert classify(tree).verdict == PRINCIPALLY_4
        again = expr_from_json_dict(expr_to_json_dict(tree))
        for node in (tree, again):
            for _ in range(depth):
                assert isinstance(node, Reflect)
                node = node.child
            assert node == RationalLeaf(ConwayRational(2, 3))


def test_node_equality_hash_and_repr_do_not_recurse():
    # Tuple equality and the namedtuple repr recurse once per level and
    # raise RecursionError near depth 1000.
    for depth in (1500, 10 ** 4):
        text = "refl(rot(" * depth + "sum(rat(2/3), q(1))" + "))" * depth
        tree, again = parse_expr(text), parse_expr(text)
        assert tree == again and not tree != again
        assert hash(tree) == hash(again)
        assert repr(tree) == (
            "Reflect(child=Rotate90(child=" * depth
            + "Sum(left=RationalLeaf(value=%r), right=QLoop(m=1))"
            % (ConwayRational(2, 3),) + "))" * depth)
        other = parse_expr(text.replace("q(1)", "q(2)"))
        assert tree != other and not tree == other


def test_nodes_compare_by_type_as_well_as_fields():
    # As plain tuples, Rotate90(x) == Reflect(x) and QLoop(3) == (3,),
    # with equal hashes.
    x = leaf("1/3")
    pairs = [(Rotate90(x), Reflect(x)), (QLoop(3), (3,)),
             (Sum(x, QLoop(2)), (x, QLoop(2))), (Sum(x, QLoop(2)),
                                                 Sum(x, (2,))),
             (Reflect(Rotate90(x)), Reflect(Reflect(x)))]
    for a, b in pairs:
        assert a != b and b != a
        assert not a == b and not b == a
        assert hash(a) != hash(b)
    assert RationalLeaf(ConwayRational(1, 3)) != RationalLeaf((1, 3, ()))
    assert QLoop(3) != 3 and QLoop(3) == QLoop(3)
    assert len({Rotate90(x), Reflect(x), Rotate90(x)}) == 2


def test_node_repr_is_the_namedtuple_repr():
    value = ConwayRational(3, 2, (2, 1))
    tree = Sum(RationalLeaf(value), Rotate90(Reflect(QLoop(3))))
    assert repr(tree) == (
        "Sum(left=RationalLeaf(value=%r), right=Rotate90(child=Reflect("
        "child=QLoop(m=3))))" % (value,))
    assert repr(Sum("a", None)) == "Sum(left='a', right=None)"


def test_bad_node_is_named_under_its_reflection_parity():
    with pytest.raises(ParseError, match=r"node: None$"):
        canonicalize(Sum(leaf("1"), Reflect(Reflect(None))))
    with pytest.raises(ParseError, match=r"node: Reflect\(child=None\)$"):
        classify(Reflect(Sum(leaf("1"), Rotate90(None))))


def test_only_expression_nodes_are_written():
    with pytest.raises(ParseError, match=r"^not an arborescent expression "
                                         r"node: 5$"):
        expr_to_json_dict(5)


def test_is_rational_sum_rule():
    ok, value = is_rational(Sum(leaf("2"), leaf("3/2")))
    assert ok and (value.numerator, value.denominator) == (7, 2)

    ok, value = is_rational(Sum(leaf("3/2"), leaf("3/2")))
    assert not ok and value is None

    assert not is_rational(QLoop(1))[0]
    assert not is_rational(Sum(leaf("2"), QLoop(1)))[0]

    ok, value = is_rational(Rotate90(Sum(leaf("1"), leaf("3/2"))))
    assert ok and (value.numerator, value.denominator) == (-2, 5)


def test_a_sum_with_the_infinity_tangle_is_infinite():
    # an integer tangle plus the infinity tangle 1/0 is 1/0
    for expr in (Sum(leaf("inf"), leaf("3")), Sum(leaf("3"), leaf("inf")),
                 parse_expr("sum(rat(inf), rat(3))")):
        ok, value = is_rational(expr)
        assert ok and (value.numerator, value.denominator) == (1, 0)


def test_contains_qloop():
    assert contains_qloop(Sum(QLoop(2), leaf("3/2")), 2)
    assert contains_qloop(Reflect(Sum(leaf("3"), Rotate90(QLoop(5)))), 2)
    assert not contains_qloop(leaf("1/2"), 2)
    assert not contains_qloop(Sum(leaf("3/2"), leaf("5/2")), 1)


@pytest.mark.parametrize("m", [2.5, True, 2.0, "2", None])
def test_a_loop_size_that_is_no_int_is_refused(m):
    # classify(QLoop(2.5)) gave the reason "Q_2" and QLoop(True) "Q_1";
    # every reader now refuses as expr_from_json_dict does
    message = "qloop m must be an integer, got %r" % (m,)
    with pytest.raises(ParseError) as info:
        expr_from_json_dict({"kind": "qloop", "m": m})
    assert str(info.value) == message
    for expr in (QLoop(m), Sum(leaf("3/2"), Rotate90(QLoop(m)))):
        for call in (classify, canonicalize, is_rational,
                     lambda e: contains_qloop(e, 1)):
            with pytest.raises(ParseError) as info:
                call(expr)
            assert str(info.value) == message


# classification

def test_classify_integers_and_infinity():
    for notation in ("4", "0", "-7", "inf", "1/1"):
        result = classify(leaf(notation))
        assert result.verdict == ENTIRELY_NON_HYPERBOLIC
        assert result.reasons
    assert classify(Sum(leaf("2"), leaf("3"))).verdict == \
        ENTIRELY_NON_HYPERBOLIC


def test_classify_loops():
    anything = leaf("3/2")
    assert classify(Sum(QLoop(1), anything)).verdict == \
        ENTIRELY_NON_HYPERBOLIC
    assert classify(Sum(anything, QLoop(1))).verdict == \
        ENTIRELY_NON_HYPERBOLIC
    assert classify(QLoop(1)).verdict == ENTIRELY_NON_HYPERBOLIC
    assert classify(Sum(anything, Sum(QLoop(3), anything))).verdict == \
        ENTIRELY_NON_HYPERBOLIC
    deep = Sum(anything, Rotate90(Sum(QLoop(2), anything)))
    assert classify(deep).verdict == ENTIRELY_NON_HYPERBOLIC


def test_classify_rationals():
    assert classify(leaf("1/2")).verdict == PRINCIPALLY_6
    assert classify(leaf("-1/2")).verdict == PRINCIPALLY_6
    for notation in ("1/3", "1/4", "1/5", "2 1", "7/3"):
        assert classify(leaf(notation)).verdict == PRINCIPALLY_4
    assert classify(Sum(leaf("3/2"), leaf("3/2"))).verdict == PRINCIPALLY_2


def test_classify_reflection_and_sign_invariant():
    fixtures = [leaf("1/2"), leaf("1/4"), leaf("3"),
                Sum(leaf("3/2"), leaf("3/2")), Sum(QLoop(1), leaf("5/2")),
                QLoop(2)]
    for e in fixtures:
        assert classify(Reflect(e)).verdict == classify(e).verdict
    assert classify(leaf("-1/4")).verdict == classify(leaf("1/4")).verdict


def test_every_classification_carries_the_syntactic_note():
    for e in (leaf("4"), leaf("1/2"), QLoop(2),
              Sum(leaf("3/2"), leaf("3/2"))):
        result = classify(e)
        assert any("syntactically" in r for r in result.reasons)


def test_principal_signature():
    assert principal_signature(classify(leaf("1/2"))) == (6,)
    assert principal_signature(classify(leaf("1/4"))) == (4,)
    assert principal_signature(
        classify(Sum(leaf("3/2"), leaf("3/2")))) == (2,)
    assert principal_signature(classify(leaf("3"))) is None


def test_nonninteger_rational_never_entirely_nonhyperbolic():
    rng = random.Random(4)
    for _ in range(100):
        p = rng.randint(-30, 30)
        q = rng.randint(2, 12)
        if p % q == 0 or p == 0:
            continue
        verdict = classify(RationalLeaf(ConwayRational(p, q))).verdict
        assert verdict in (PRINCIPALLY_4, PRINCIPALLY_6)


# expression syntax and serialization

def test_parse_expr_forms():
    assert parse_expr("rat(2 1)") == RationalLeaf(parse_conway("2 1"))
    assert parse_expr("q(3)") == QLoop(3)
    e = parse_expr("sum(rat(1/2), refl(rot(q(2))))")
    assert e == Sum(RationalLeaf(ConwayRational(1, 2)),
                    Reflect(Rotate90(QLoop(2))))
    assert classify(parse_expr("rat(1/2)")).verdict == PRINCIPALLY_6
    assert parse_expr(" sum( rat(1/2) ,\n refl( q(2) ) ) ") == Sum(
        RationalLeaf(ConwayRational(1, 2)), Reflect(QLoop(2)))


def test_parse_expr_rejects_junk():
    for bad in ("rat(2", "sum(rat(2))", "q(x)", "q(0)", "frob(1)",
                "sum(rat(2), rat(3)) tail", ""):
        with pytest.raises(ParseError):
            parse_expr(bad)


def test_expr_json_loop_size_must_be_an_integer():
    # int() would read 2.9 as Q_2 and overflow on infinity
    for m in (2.9, float("inf"), True, "2"):
        with pytest.raises(ParseError) as info:
            expr_from_json_dict({"kind": "sum",
                                 "left": {"kind": "rational", "conway": "1"},
                                 "right": {"kind": "qloop", "m": m}})
        assert str(info.value) == "qloop m must be an integer, got %r" % (m,)
    assert expr_from_json_dict({"kind": "qloop", "m": 2}) == QLoop(2)


@pytest.mark.parametrize("data, message", [
    ({"kind": "sum"}, "sum node has no left"),
    ({"kind": "sum", "left": {"kind": "qloop", "m": 2}},
     "sum node has no right"),
    ({"kind": "rational"}, "rational node has no conway"),
    ({"kind": "reflect", "child": {"kind": "qloop"}}, "qloop node has no m"),
    ([], "expression must be a JSON object, got []"),
    ({"kind": "rotate90", "child": [1]},
     "rotate90 child must be a JSON object, got [1]"),
    ({"kind": "sum", "left": {"kind": "qloop", "m": 2}, "right": "q(2)"},
     "sum right must be a JSON object, got 'q(2)'"),
    ({"kind": [1]}, "unknown expression kind [1]"),
    ({"kind": "sum", "left": {"kind": "qloop", "m": 2},
      "right": {"kind": {"a": 1}}}, "unknown expression kind {'a': 1}"),
])
def test_expr_json_names_its_malformed_node(data, message):
    # a missing field raised KeyError, a list AttributeError, and an
    # unhashable kind TypeError
    with pytest.raises(ParseError) as info:
        expr_from_json_dict(data)
    assert str(info.value) == message


def test_expr_json_round_trip():
    fixtures = [
        parse_expr("sum(rat(1/2), q(2))"),
        parse_expr("refl(sum(rat(2 1), rot(rat(3))))"),
        QLoop(4),
    ]
    for e in fixtures:
        again = expr_from_json_dict(expr_to_json_dict(e))
        assert canonicalize(again) == canonicalize(e)
        assert classify(again) == classify(e)
