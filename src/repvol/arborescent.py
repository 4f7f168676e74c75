"""Rational tangle notation and the arborescent hyperbolicity classifier.

Rational tangles are named by integer sequences (evaluated as continued
fractions, rightmost entry outermost) or directly as fractions "p/q";
two notations describe the same tangle exactly when the fractions agree.
Arborescent expressions extend these leaves with loop tangles Q_m, tangle
sums, and rotation/reflection decorations.

classify() sorts an expression into one of four bins: entirely
non-hyperbolic, or principally 2-, 4-, or 6-hyperbolic, meaning the
smallest even replication count whose replicant is hyperbolic.  Loop
containment is decided syntactically on the canonicalized tree, which is
the checkable fragment of the geometric condition; every verdict carries
a note to that effect.
"""

import math
import re
from fractions import Fraction
from typing import NamedTuple


class ParseError(ValueError):
    """Unreadable tangle notation or expression text."""


class ConwayRational(NamedTuple):
    """A rational tangle as a reduced fraction.

    ``numerator/denominator`` with denominator >= 0; the infinity tangle
    is 1/0.  ``quotients`` preserves the notation the tangle was written
    in, when it was given as an integer sequence.
    """
    numerator: int
    denominator: int
    quotients: tuple = ()

    @property
    def fraction(self):
        if self.denominator == 0:
            raise ZeroDivisionError("the infinity tangle has no fraction")
        return Fraction(self.numerator, self.denominator)

    @property
    def is_infinity(self):
        return self.denominator == 0

    @property
    def is_integer_tangle(self):
        """Integer tangles and the infinity tangle."""
        return self.denominator in (0, 1)

    def text(self):
        if self.quotients:
            return " ".join(str(q) for q in self.quotients)
        if self.denominator == 0:
            return "inf"
        if self.denominator == 1:
            return str(self.numerator)
        return "%d/%d" % (self.numerator, self.denominator)

    def __str__(self):
        return self.text()


def _reduced(p, q, quotients=()):
    if p == 0 and q == 0:
        raise ParseError("0/0 is not a tangle")
    if q == 0:
        return ConwayRational(1, 0, quotients)
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    return ConwayRational(p, q, quotients)


def rational_from_quotients(quotients):
    """Evaluate an integer sequence, rightmost entry outermost.

    "2 1" means 1 + 1/2.  Computed on numerator/denominator pairs so
    intermediate infinities (from zero entries) are fine.
    """
    quotients = tuple(int(c) for c in quotients)
    if not quotients:
        raise ParseError("empty quotient sequence")
    p, q = quotients[0], 1
    for c in quotients[1:]:
        p, q = c * p + q, p
    return _reduced(p, q, quotients)


def parse_conway(text):
    """Read "3", "2 1", "-4 2", "p/q", or "inf"."""
    text = " ".join(str(text).split())
    if not text:
        raise ParseError("empty tangle notation")
    if text == "inf":
        return ConwayRational(1, 0)
    if "/" in text:
        m = re.fullmatch(r"(-?\d+)\s*/\s*(-?\d+)", text)
        if not m:
            raise ParseError("bad fraction notation %r" % text)
        return _reduced(int(m.group(1)), int(m.group(2)))
    try:
        quotients = [int(tok) for tok in text.split()]
    except ValueError:
        raise ParseError("bad tangle notation %r" % text) from None
    return rational_from_quotients(quotients)


class RationalLeaf(NamedTuple):
    value: ConwayRational


class QLoop(NamedTuple):
    """The loop tangle with m encircled strand pairs; a primitive leaf."""
    m: int


class Sum(NamedTuple):
    left: object
    right: object


class Rotate90(NamedTuple):
    child: object


class Reflect(NamedTuple):
    child: object


def leaf(notation):
    """Shorthand: a rational leaf from notation text."""
    return RationalLeaf(parse_conway(notation))


def _negated(value):
    return _reduced(-value.numerator, value.denominator)


def _inverted_negated(value):
    # quarter-turn of a rational tangle
    if value.denominator == 0:
        return ConwayRational(0, 1)
    return _reduced(-value.denominator, value.numerator)


def canonicalize(expr):
    """Push reflections to the leaves and left-associate sums.

    Reflection negates a rational leaf and fixes a loop leaf; a quarter
    turn of a rational leaf folds into the leaf.  Rotations above
    non-rational subtrees stay as decoration nodes.
    """
    if isinstance(expr, RationalLeaf):
        return expr
    if isinstance(expr, QLoop):
        if expr.m < 1:
            raise ParseError("loop tangles need m >= 1")
        return expr
    if isinstance(expr, Sum):
        out = canonicalize(expr.left)
        for factor in reversed(_top_level_factors(canonicalize(expr.right))):
            out = Sum(out, factor)
        return out
    if isinstance(expr, Rotate90):
        child = canonicalize(expr.child)
        if isinstance(child, RationalLeaf):
            return RationalLeaf(_inverted_negated(child.value))
        return Rotate90(child)
    if isinstance(expr, Reflect):
        inner = expr.child
        if isinstance(inner, Reflect):
            return canonicalize(inner.child)
        if isinstance(inner, Sum):
            return canonicalize(Sum(Reflect(inner.left),
                                    Reflect(inner.right)))
        if isinstance(inner, Rotate90):
            return canonicalize(Rotate90(Reflect(inner.child)))
        if isinstance(inner, QLoop):
            return canonicalize(inner)
        if isinstance(inner, RationalLeaf):
            return RationalLeaf(_negated(inner.value))
    raise ParseError("not an arborescent expression node: %r" % (expr,))


def is_rational(expr):
    """Decide rationality; returns (flag, ConwayRational or None).

    A sum of rationals is rational exactly when one side is an integer
    tangle, in which case the fractions add.  Loop tangles are never
    rational; a quarter turn inverts and negates the fraction.
    """
    expr = canonicalize(expr)
    return _rational_value(expr)


def _rational_value(expr):
    if isinstance(expr, RationalLeaf):
        return True, expr.value
    if isinstance(expr, QLoop):
        return False, None
    if isinstance(expr, Rotate90):
        ok, value = _rational_value(expr.child)
        if not ok:
            return False, None
        return True, _inverted_negated(value)
    if isinstance(expr, Sum):
        ok_l, left = _rational_value(expr.left)
        ok_r, right = _rational_value(expr.right)
        if not (ok_l and ok_r):
            return False, None
        integer_side = (left.denominator == 1 or right.denominator == 1)
        if not integer_side:
            return False, None
        if left.denominator == 0 or right.denominator == 0:
            return True, ConwayRational(1, 0)
        return True, _reduced(
            left.numerator * right.denominator
            + right.numerator * left.denominator,
            left.denominator * right.denominator)
    raise ParseError("not an arborescent expression node: %r" % (expr,))


def contains_qloop(expr, min_m):
    """Syntactic subterm search for a loop tangle with m >= min_m."""
    expr = canonicalize(expr)
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, QLoop) and node.m >= min_m:
            return True
        if isinstance(node, Sum):
            stack.extend((node.left, node.right))
        elif isinstance(node, (Rotate90, Reflect)):
            stack.append(node.child)
    return False


ENTIRELY_NON_HYPERBOLIC = "EntirelyNonHyperbolic"
PRINCIPALLY_2 = "Principally2"
PRINCIPALLY_4 = "Principally4"
PRINCIPALLY_6 = "Principally6"

_SYNTACTIC_NOTE = ("loop containment decided syntactically on the "
                   "canonicalized tree; hidden loop factors are not "
                   "detected")


class Classification(NamedTuple):
    verdict: str
    reasons: tuple

    def to_json_dict(self):
        return {"verdict": self.verdict, "reasons": list(self.reasons)}


def _top_level_factors(expr):
    out = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Sum):
            stack.extend((node.left, node.right))
        else:
            out.append(node)
    return out


def classify(expr):
    """Sort an arborescent expression into its hyperbolicity bin.

    Entirely non-hyperbolic: integer or infinity tangles, any sum with a
    top-level loop factor (a bare loop counts, being its own sum with
    the zero tangle), or any expression containing a loop with m >= 2.
    Otherwise: principally 2-hyperbolic when non-rational, principally
    6-hyperbolic for the clasp fraction 1/2 (either sign), and
    principally 4-hyperbolic for every other non-integer rational.
    """
    expr = canonicalize(expr)
    reasons = []

    rational, value = _rational_value(expr)
    if rational and value.is_integer_tangle:
        reasons.append("integer or infinity tangle (%s)" % value.text())
        return Classification(ENTIRELY_NON_HYPERBOLIC,
                              (*reasons, _SYNTACTIC_NOTE))
    loop_factors = [node for node in _top_level_factors(expr)
                    if isinstance(node, QLoop)]
    if loop_factors:
        reasons.append("sum with a top-level loop factor Q_%d"
                       % loop_factors[0].m)
        return Classification(ENTIRELY_NON_HYPERBOLIC,
                              (*reasons, _SYNTACTIC_NOTE))
    if contains_qloop(expr, 2):
        reasons.append("contains a loop tangle Q_m with m >= 2")
        return Classification(ENTIRELY_NON_HYPERBOLIC,
                              (*reasons, _SYNTACTIC_NOTE))
    if not rational:
        reasons.append("non-rational with no disqualifying loop")
        return Classification(PRINCIPALLY_2, (*reasons, _SYNTACTIC_NOTE))
    if (abs(value.numerator), value.denominator) == (1, 2):
        reasons.append("the clasp tangle 1/2")
        return Classification(PRINCIPALLY_6, (*reasons, _SYNTACTIC_NOTE))
    reasons.append("non-integer rational tangle %s, not the clasp"
                   % value.text())
    return Classification(PRINCIPALLY_4, (*reasons, _SYNTACTIC_NOTE))


def principal_signature(classification):
    """Replication signature realizing the verdict; None when none does."""
    return {
        PRINCIPALLY_2: (2,),
        PRINCIPALLY_4: (4,),
        PRINCIPALLY_6: (6,),
        ENTIRELY_NON_HYPERBOLIC: None,
    }[classification.verdict]


def parse_expr(text):
    """Read expression syntax: rat(2 1), q(3), sum(a, b), rot(a), refl(a)."""
    expr, rest = _parse_expr(str(text).strip())
    if rest.strip():
        raise ParseError("trailing input %r" % rest.strip())
    return expr


def _parse_expr(text):
    m = re.match(r"\s*([a-z0-9]+)\s*\(", text)
    if not m:
        raise ParseError("expected an expression at %r" % text[:30])
    head, rest = m.group(1), text[m.end():]
    if head == "rat":
        depth = rest.find(")")
        if depth < 0:
            raise ParseError("unclosed rat(...)")
        return RationalLeaf(parse_conway(rest[:depth])), rest[depth + 1:]
    if head == "q":
        depth = rest.find(")")
        if depth < 0:
            raise ParseError("unclosed q(...)")
        try:
            m_value = int(rest[:depth])
        except ValueError:
            raise ParseError("q(...) takes an integer") from None
        if m_value < 1:
            raise ParseError("loop tangles need m >= 1")
        return QLoop(m_value), rest[depth + 1:]
    if head == "sum":
        left, rest = _parse_expr(rest)
        rest = rest.lstrip()
        if not rest.startswith(","):
            raise ParseError("sum(...) takes two arguments")
        right, rest = _parse_expr(rest[1:])
        rest = rest.lstrip()
        if not rest.startswith(")"):
            raise ParseError("unclosed sum(...)")
        return Sum(left, right), rest[1:]
    if head in ("rot", "refl"):
        child, rest = _parse_expr(rest)
        rest = rest.lstrip()
        if not rest.startswith(")"):
            raise ParseError("unclosed %s(...)" % head)
        node = Rotate90 if head == "rot" else Reflect
        return node(child), rest[1:]
    raise ParseError("unknown expression head %r" % head)


def expr_to_json_dict(expr):
    if isinstance(expr, RationalLeaf):
        return {"kind": "rational", "conway": expr.value.text()}
    if isinstance(expr, QLoop):
        return {"kind": "qloop", "m": expr.m}
    if isinstance(expr, Sum):
        return {"kind": "sum", "left": expr_to_json_dict(expr.left),
                "right": expr_to_json_dict(expr.right)}
    if isinstance(expr, Rotate90):
        return {"kind": "rotate90", "child": expr_to_json_dict(expr.child)}
    if isinstance(expr, Reflect):
        return {"kind": "reflect", "child": expr_to_json_dict(expr.child)}
    raise ParseError("not an arborescent expression node: %r" % (expr,))


def expr_from_json_dict(data):
    kind = data.get("kind")
    if kind == "rational":
        return RationalLeaf(parse_conway(data["conway"]))
    if kind == "qloop":
        return QLoop(int(data["m"]))
    if kind == "sum":
        return Sum(expr_from_json_dict(data["left"]),
                   expr_from_json_dict(data["right"]))
    if kind == "rotate90":
        return Rotate90(expr_from_json_dict(data["child"]))
    if kind == "reflect":
        return Reflect(expr_from_json_dict(data["child"]))
    raise ParseError("unknown expression kind %r" % kind)
