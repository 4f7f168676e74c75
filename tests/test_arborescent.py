import random
from fractions import Fraction

import pytest

from repvol.arborescent import (
    ENTIRELY_NON_HYPERBOLIC, PRINCIPALLY_2, PRINCIPALLY_4, PRINCIPALLY_6,
    ConwayRational, ParseError, QLoop, RationalLeaf, Reflect, Rotate90, Sum,
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


def test_parse_rejects_junk():
    for bad in ("", "2 x", "1/0/2", "x/2", "--3", "sum(2)"):
        with pytest.raises(ParseError):
            parse_conway(bad)
    with pytest.raises(ParseError):
        parse_conway("0/0")


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


def test_is_rational_sum_rule():
    ok, value = is_rational(Sum(leaf("2"), leaf("3/2")))
    assert ok and (value.numerator, value.denominator) == (7, 2)

    ok, value = is_rational(Sum(leaf("3/2"), leaf("3/2")))
    assert not ok and value is None

    assert not is_rational(QLoop(1))[0]
    assert not is_rational(Sum(leaf("2"), QLoop(1)))[0]

    ok, value = is_rational(Rotate90(Sum(leaf("1"), leaf("3/2"))))
    assert ok and (value.numerator, value.denominator) == (-2, 5)


def test_contains_qloop():
    assert contains_qloop(Sum(QLoop(2), leaf("3/2")), 2)
    assert contains_qloop(Reflect(Sum(leaf("3"), Rotate90(QLoop(5)))), 2)
    assert not contains_qloop(leaf("1/2"), 2)
    assert not contains_qloop(Sum(leaf("3/2"), leaf("5/2")), 1)


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


def test_parse_expr_rejects_junk():
    for bad in ("rat(2", "sum(rat(2))", "q(x)", "q(0)", "frob(1)",
                "sum(rat(2), rat(3)) tail", ""):
        with pytest.raises(ParseError):
            parse_expr(bad)


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
