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
import sys
from fractions import Fraction
from itertools import zip_longest
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
    quotients = tuple(quotients)
    if any(type(c) is not int for c in quotients):
        # int() would read 2.9 as 2 and overflow on infinity
        raise ParseError("quotients must be integers, got %r" % (quotients,))
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
        top, bottom = m.group(1, 2)
        try:
            p, q = int(top), int(bottom)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError(
                "fraction <%d digits>/<%d digits> has more digits than this "
                "interpreter reads as an integer (%d)"
                % (len(top.lstrip("-")), len(bottom.lstrip("-")),
                   sys.get_int_max_str_digits())) from None
        return _reduced(p, q)
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


_NODES = (RationalLeaf, QLoop, Sum, Rotate90, Reflect)


def _tokens(node):
    """The tree under ``node`` in preorder: each node's type, then its
    fields' tokens; a field that is no node is one (type, value) token.
    Each node type has a fixed arity, so equal streams mean equal trees.
    Walked on an explicit stack, so deep trees do not recurse."""
    stack = [node]
    while stack:
        item = stack.pop()
        if type(item) in _NODES:
            yield type(item)
            stack += reversed(item)
        else:
            yield type(item), item


def _node_eq(self, other):
    """Nodes are equal when their types and fields are, all the way
    down; a node never equals a plain tuple or a node of another type.
    The token streams are compared up to the first difference."""
    if not isinstance(other, tuple):
        return NotImplemented
    return all(a == b for a, b in zip_longest(_tokens(self), _tokens(other)))


def _node_ne(self, other):
    equal = _node_eq(self, other)
    return equal if equal is NotImplemented else not equal


def _node_hash(self):
    """Hash of the token stream, as a tuple."""
    return hash(tuple(_tokens(self)))


def _node_repr(self):
    """The namedtuple repr, written from an explicit stack."""
    parts = []
    stack = [(self, False)]     # (item, whether it is literal text)
    while stack:
        item, text = stack.pop()
        if text:
            parts.append(item)
        elif type(item) in _NODES:
            stack.append((")", True))
            for i in reversed(range(len(item))):
                stack += ((item[i], False),
                          ("%s%s=" % (", " if i else "", item._fields[i]),
                           True))
            stack.append((type(item).__name__ + "(", True))
        else:
            parts.append(repr(item))
    return "".join(parts)


for _node in _NODES:
    _node.__eq__, _node.__ne__ = _node_eq, _node_ne
    _node.__hash__, _node.__repr__ = _node_hash, _node_repr
del _node


def leaf(notation):
    """Shorthand: a rational leaf from notation text."""
    return RationalLeaf(parse_conway(notation))


_CLOSE = object()   # on the stack below a Rotate90's child, and the root


def _walk(expr):
    """One pass on an explicit stack: the canonical tree, the root's
    top-level factors left to right, the rational value (None when not
    rational) and the sizes of all loop tangles.

    Reflections travel down as a parity bit.  Each Sum is flattened,
    left to right, into the (factor, value) list of the nearest
    enclosing Rotate90, or of the root.  When a list closes it is folded
    once into a left-associated Sum and its value.
    """
    lists = [[]]        # the root's list, then one per open Rotate90
    loops = []
    stack = [(_CLOSE, False), (expr, False)]
    while True:
        node, odd = stack.pop()
        if node is _CLOSE:
            items = lists.pop()
            tree, value = items[0]
            for factor, right in items[1:]:
                tree = Sum(tree, factor)
                if value is None or right is None or not (
                        value.denominator == 1 or right.denominator == 1):
                    value = None
                elif value.denominator == 0 or right.denominator == 0:
                    value = ConwayRational(1, 0)
                else:
                    value = _reduced(
                        value.numerator * right.denominator
                        + right.numerator * value.denominator,
                        value.denominator * right.denominator)
            if not lists:
                return tree, [factor for factor, _ in items], value, loops
            if value is not None:   # a quarter turn inverts and negates
                value = (ConwayRational(0, 1) if value.denominator == 0 else
                         _reduced(-value.denominator, value.numerator))
            node = (RationalLeaf(value) if isinstance(tree, RationalLeaf)
                    else Rotate90(tree))
            lists[-1].append((node, value))
        elif isinstance(node, Sum):
            stack += ((node.right, odd), (node.left, odd))
        elif isinstance(node, Reflect):
            stack.append((node.child, not odd))
        elif isinstance(node, Rotate90):
            lists.append([])
            stack += ((_CLOSE, odd), (node.child, odd))
        elif isinstance(node, RationalLeaf):
            if odd:
                node = RationalLeaf(_reduced(-node.value.numerator,
                                             node.value.denominator))
            lists[-1].append((node, node.value))
        elif isinstance(node, QLoop):
            if type(node.m) is not int:   # 2.5 would read as Q_2, True as Q_1
                raise ParseError("qloop m must be an integer, got %r"
                                 % (node.m,))
            if node.m < 1:
                raise ParseError("loop tangles need m >= 1")
            loops.append(node.m)
            lists[-1].append((node, None))
        else:
            raise ParseError("not an arborescent expression node: %r"
                             % (Reflect(node) if odd else node,))


def canonicalize(expr):
    """Push reflections to the leaves and left-associate sums.

    Reflection negates a rational leaf and fixes a loop leaf; a quarter
    turn of a rational leaf folds into the leaf.  Rotations above
    non-rational subtrees stay as decoration nodes.
    """
    return _walk(expr)[0]


def is_rational(expr):
    """Decide rationality; returns (flag, ConwayRational or None).

    A sum of rationals is rational exactly when one side is an integer
    tangle, in which case the fractions add.  Loop tangles are never
    rational; a quarter turn inverts and negates the fraction.
    """
    value = _walk(expr)[2]
    return value is not None, value


def contains_qloop(expr, min_m):
    """Syntactic subterm search for a loop tangle with m >= min_m."""
    return any(m >= min_m for m in _walk(expr)[3])


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


def classify(expr):
    """Sort an arborescent expression into its hyperbolicity bin.

    Entirely non-hyperbolic: integer or infinity tangles, any sum with a
    top-level loop factor (a bare loop counts, being its own sum with
    the zero tangle), or any expression containing a loop with m >= 2.
    Otherwise: principally 2-hyperbolic when non-rational, principally
    6-hyperbolic for the clasp fraction 1/2 (either sign), and
    principally 4-hyperbolic for every other non-integer rational.
    """
    _, factors, value, loops = _walk(expr)
    top_loops = [factor.m for factor in factors if isinstance(factor, QLoop)]
    verdict = ENTIRELY_NON_HYPERBOLIC
    if value is not None and value.is_integer_tangle:
        reason = "integer or infinity tangle (%s)" % value.text()
    elif top_loops:
        reason = "sum with a top-level loop factor Q_%d" % top_loops[-1]
    elif any(m >= 2 for m in loops):
        reason = "contains a loop tangle Q_m with m >= 2"
    elif value is None:
        verdict = PRINCIPALLY_2
        reason = "non-rational with no disqualifying loop"
    elif (abs(value.numerator), value.denominator) == (1, 2):
        verdict = PRINCIPALLY_6
        reason = "the clasp tangle 1/2"
    else:
        verdict = PRINCIPALLY_4
        reason = ("non-integer rational tangle %s, not the clasp"
                  % value.text())
    return Classification(verdict, (reason, _SYNTACTIC_NOTE))


def principal_signature(classification):
    """Replication signature realizing the verdict; None when none does."""
    return {
        PRINCIPALLY_2: (2,),
        PRINCIPALLY_4: (4,),
        PRINCIPALLY_6: (6,),
        ENTIRELY_NON_HYPERBOLIC: None,
    }[classification.verdict]


_HEAD = re.compile(r"\s*([a-z0-9]+)\s*\(")
_SPACE = re.compile(r"\s*")


def parse_expr(text):
    """Read expression syntax: rat(2 1), q(3), sum(a, b), rot(a), refl(a)."""
    text = str(text).strip()
    pos = 0
    built = []
    # what the text must hold next, last first: None for an expression,
    # (separator, error message), or the class that closes an open node
    todo = [None]
    while todo:
        step = todo.pop()
        if isinstance(step, tuple):
            pos = _SPACE.match(text, pos).end()
            if not text.startswith(step[0], pos):
                raise ParseError(step[1])
            pos += 1
        elif step is not None:
            arity = len(step._fields)
            built[-arity:] = [step(*built[-arity:])]
        else:
            m = _HEAD.match(text, pos)
            if not m:
                raise ParseError("expected an expression at %r"
                                 % text[pos:pos + 30])
            head, pos = m.group(1), m.end()
            if head == "sum":
                todo += (Sum, (")", "unclosed sum(...)"), None,
                         (",", "sum(...) takes two arguments"), None)
            elif head in ("rot", "refl"):
                todo += (Rotate90 if head == "rot" else Reflect,
                         (")", "unclosed %s(...)" % head), None)
            elif head in ("rat", "q"):
                close = text.find(")", pos)
                if close < 0:
                    raise ParseError("unclosed %s(...)" % head)
                if head == "rat":
                    built.append(RationalLeaf(parse_conway(text[pos:close])))
                else:
                    try:
                        m_value = int(text[pos:close])
                    except ValueError:
                        raise ParseError("q(...) takes an integer") from None
                    if m_value < 1:
                        raise ParseError("loop tangles need m >= 1")
                    built.append(QLoop(m_value))
                pos = close + 1
            else:
                raise ParseError("unknown expression head %r" % head)
    rest = text[pos:].strip()
    if rest:
        raise ParseError("trailing input %r" % rest)
    return built[0]


def expr_to_json_dict(expr):
    root = {}
    stack = [(expr, root)]
    while stack:
        node, out = stack.pop()
        if isinstance(node, RationalLeaf):
            out.update(kind="rational", conway=node.value.text())
        elif isinstance(node, QLoop):
            out.update(kind="qloop", m=node.m)
        elif isinstance(node, Sum):
            out.update(kind="sum", left={}, right={})
            stack += ((node.right, out["right"]), (node.left, out["left"]))
        elif isinstance(node, (Rotate90, Reflect)):
            kind = "rotate90" if isinstance(node, Rotate90) else "reflect"
            out.update(kind=kind, child={})
            stack.append((node.child, out["child"]))
        else:
            raise ParseError("not an arborescent expression node: %r"
                             % (node,))
    return root


# The fields each kind of expression node reads besides "kind".
_NODE_FIELDS = {"rational": ("conway",), "qloop": ("m",),
                "sum": ("left", "right"), "rotate90": ("child",),
                "reflect": ("child",)}


def expr_from_json_dict(data):
    """Read an expression tree; ParseError naming a malformed node."""
    built = []
    # (dict, key) of a node still to read, last first, or (class, None)
    # to build once its children are built
    todo = [((data,), 0)]
    while todo:
        holder, key = todo.pop()
        if key is None:
            arity = len(holder._fields)
            built[-arity:] = [holder(*built[-arity:])]
            continue
        data = holder[key]
        if not isinstance(data, dict):
            part = "%s %s" % (holder["kind"], key) if key else "expression"
            raise ParseError("%s must be a JSON object, got %r"
                             % (part, data))
        kind = data.get("kind")
        if not isinstance(kind, str) or kind not in _NODE_FIELDS:
            raise ParseError("unknown expression kind %r" % (kind,))
        for field in _NODE_FIELDS[kind]:
            if field not in data:
                raise ParseError("%s node has no %s" % (kind, field))
        if kind == "rational":
            built.append(RationalLeaf(parse_conway(data["conway"])))
        elif kind == "qloop":
            if type(data["m"]) is not int:
                raise ParseError("qloop m must be an integer, got %r"
                                 % (data["m"],))
            built.append(QLoop(data["m"]))
        elif kind == "sum":
            todo += ((Sum, None), (data, "right"), (data, "left"))
        elif kind == "rotate90":
            todo += ((Rotate90, None), (data, "child"))
        else:  # reflect
            todo += ((Reflect, None), (data, "child"))
    return built[0]
