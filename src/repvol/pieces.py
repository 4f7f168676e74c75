"""Combinatorial pieces and the gluing complexes built from them.

A piece is modeled by a PieceTemplate: an even number of face slots, each
carrying ordered endpoint labels, a perfect matching of all endpoints into
strands, free boundary components tagged by genus, and a count of closed
components.  Copies of templates glued face-to-face form a GluingComplex.

Replication reflects a piece repeatedly across its face pairs.  A mirror
copy is modeled by the same template (reflection fixes the glued face
pointwise), so every gluing produced here pairs equal endpoint labels.
One writer fills that mirror pattern for a grid of copies.  Bracelets
and torus lattices are the same pattern filled with mixed tangles, which
is what makes a homogeneous bracelet or lattice literally the replicant
complex of its tangle; cylinder stacks glue by translation instead.

Strands are matchings only; there is no crossing-level diagram here, and
no geometry.  Tracing strand matchings across gluing bijections counts
link components.
"""

import collections
import itertools
import math
import operator
from typing import NamedTuple

import repvol
from . import LimitExceeded, shape_refusal

ISO_COPY_LIMIT = 10 ** 4


class PieceError(ValueError):
    """A template, schedule, complex, or builder input is malformed."""


class ScheduleMismatch(PieceError):
    """Replication schedule does not fit the template."""


class OddLength(PieceError):
    """Bracelets need an even number of tangles, at least two."""


class OddDimension(PieceError):
    """Lattice dimensions must be even and at least two."""


class EndpointMismatch(PieceError):
    """Glued faces carry different numbers of endpoints."""


class TooFewStrands(PieceError):
    """A bracelet connection carries fewer than two strands."""


class SizeExceeded(LimitExceeded):
    """A replicant or an isomorphism search is above its copy limit."""


def _ints(field, values):
    """``values`` as a tuple of ints, else a PieceError naming ``field``.

    int() would read 1.9 as 1 and overflow on infinity; bool is an int
    subclass.
    """
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise PieceError("%s must be integers, got %r" % (field, values))
    return values


def _pair(field, value):
    """``value`` unpacked as two items, else a PieceError naming ``field``.

    Indexing [0] and [1] would drop a third item without a word.
    """
    try:
        a, b = value
    except (TypeError, ValueError):
        raise PieceError("%s must be pairs, got %r" % (field, value)) \
            from None
    return a, b


def _label(field, label):
    """A copy label as a tuple of ints, else a PieceError naming ``field``.

    tuple() of a number would raise a bare TypeError.
    """
    if not isinstance(label, (tuple, list)):
        raise PieceError("%s must be arrays of integers, got %r"
                         % (field, label))
    return _ints(field, label)


def _side(side):
    """A gluing side as (copy label, face number), both checked integer."""
    label, face = _pair("gluing sides", side)
    if type(face) is not int:
        raise PieceError("gluing face numbers must be integers, got %r"
                         % (face,))
    return _label("gluing copy labels", label), face


class PieceTemplate:
    """An abstract piece: face slots, strand matching, boundary data.

    ``faces`` is a sequence of endpoint-label lists; labels are 1-based
    and consecutive within each face.  Faces pair up as (1, 2), (3, 4),
    ...; ``ell`` counts the complete pairs, and a trailing unpaired face
    is allowed (graph replicants place tangles of odd valence, which
    reflection doubling never touches).  ``interfaces`` counts the
    circle/arc components of the 1-manifold shared by each pair.
    ``strands`` is a fixed-point free perfect matching on the endpoints
    (face, label); ``closed components`` counts loops that never touch a
    face.  ``free_boundary`` lists genus tags for the boundary away from
    the faces; it is carried through but never interpreted.
    """

    __slots__ = ("id", "faces", "strands", "free_boundary",
                 "closed_components", "interfaces", "_mate", "_mirrored")

    def __init__(self, id, faces, strands, free_boundary=(),
                 closed_components=0, interfaces=None):
        faces = tuple(_ints("face labels", face) for face in faces)
        for face in faces:
            if face != tuple(range(1, len(face) + 1)):
                raise PieceError(
                    "face endpoint labels must read 1..n, got %r" % (face,))
        self.id = str(id)
        self.faces = faces

        mate = {}
        normalized = []
        for pair in strands:
            a, b = (_pair("strand ends", _ints("strand ends", end))
                    for end in _pair("strands", pair))
            for face_no, label in (a, b):
                if not 1 <= face_no <= len(faces):
                    raise PieceError("strand endpoint on missing face %d"
                                     % face_no)
                if label not in faces[face_no - 1]:
                    raise PieceError("strand endpoint %r not on face %d"
                                     % ((face_no, label), face_no))
            if a == b:
                raise PieceError("strand endpoints must be distinct")
            if a in mate or b in mate:
                raise PieceError("endpoint matched twice in %r" % (pair,))
            mate[a] = b
            mate[b] = a
            normalized.append(tuple(sorted((a, b))))
        everything = {(f + 1, label)
                      for f, face in enumerate(faces) for label in face}
        missing = everything - set(mate)
        if missing:
            raise PieceError("unmatched endpoints: %s" % sorted(missing))
        self.strands = tuple(sorted(normalized))
        self._mate = mate
        # what a mirror gluing carries across each face, made once so
        # that every complex built from this template shares it
        self._mirrored = tuple((f, tuple(zip(face, face)))
                               for f, face in enumerate(faces, 1))

        self.free_boundary = _ints("free_boundary", free_boundary)
        if any(g < 0 for g in self.free_boundary):
            raise PieceError("genus tags must be nonnegative")
        if type(closed_components) is not int:
            raise PieceError("closed_components must be an integer, got %r"
                             % (closed_components,))
        self.closed_components = closed_components
        if self.closed_components < 0:
            raise PieceError("closed component count must be nonnegative")
        if interfaces is None:
            interfaces = (1,) * self.ell
        self.interfaces = _ints("interfaces", interfaces)
        if len(self.interfaces) != self.ell:
            raise PieceError("need one interface count per face pair")
        if any(c < 0 for c in self.interfaces):
            raise PieceError("interface counts must be nonnegative")

    @property
    def ell(self):
        return len(self.faces) // 2

    def mate(self, endpoint):
        """Other end of the strand leaving ``endpoint`` = (face, label)."""
        return self._mate[endpoint]

    def _key(self):
        return (self.id, self.faces, self.strands, self.free_boundary,
                self.closed_components, self.interfaces)

    def __eq__(self, other):
        if not isinstance(other, PieceTemplate):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "PieceTemplate(id=%r, ell=%d)" % (self.id, self.ell)

    def to_json_dict(self):
        return {
            "id": self.id,
            "faces": [list(face) for face in self.faces],
            "strands": [[list(a), list(b)] for a, b in self.strands],
            "free_boundary": list(self.free_boundary),
            "closed_components": self.closed_components,
            "interfaces": list(self.interfaces),
        }

    @classmethod
    def from_json_dict(cls, data):
        """Read and check a template; PieceError if malformed."""
        try:
            return cls(data["id"], data["faces"], data["strands"],
                       data.get("free_boundary", ()),
                       data.get("closed_components", 0),
                       data.get("interfaces"))
        except (AttributeError, LookupError, TypeError) as exc:
            # the constructor raises these only while reading its input
            raise PieceError("malformed piece template JSON: %s %s"
                             % (type(exc).__name__, exc)) from None


def saucer_template(label):
    """Two-face piece whose strands turn back within each face.

    The slot shape of a reciprocal tangle: two endpoints per face, each
    face carrying one arc that enters and leaves on the same side.
    """
    return PieceTemplate("saucer " + str(label), ((1, 2), (1, 2)),
                         (((1, 1), (1, 2)), ((2, 1), (2, 2))))


def cylindrical_template(label, strand_count=2):
    """Two-face piece whose strands pass straight through."""
    if type(strand_count) is not int:
        raise PieceError("strand_count must be an integer, got %r"
                         % (strand_count,))
    if strand_count < 1:
        raise PieceError("a cylindrical piece needs at least one strand")
    labels = tuple(range(1, strand_count + 1))
    return PieceTemplate("cylinder " + str(label), (labels, labels),
                         tuple(((1, k), (2, k)) for k in labels))


def square_template(label):
    """Four one-endpoint faces, opposite faces paired, two strands.

    Face order is top, bottom, left, right, so pair 1 runs vertically
    and pair 2 horizontally.  The matching joins opposite faces; the
    actual over/under pattern of a square tangle is not modeled.
    """
    return PieceTemplate("square " + str(label),
                         ((1,), (1,), (1,), (1,)),
                         (((1, 1), (2, 1)), ((3, 1), (4, 1))))


def template_union(left, right, id=None):
    """Disjoint union of two pieces with the same number of face pairs.

    Face slot j of the union carries left's endpoints followed by
    right's, relabeled consecutively; strands, boundary components,
    closed loops, and interface counts combine accordingly.
    """
    if left.ell != right.ell:
        raise PieceError("union requires equal face pair counts, got %d and %d"
                         % (left.ell, right.ell))
    faces = tuple(tuple(range(1, len(a) + len(b) + 1))
                  for a, b in zip(left.faces, right.faces))

    def shift(endpoint):
        face_no, label = endpoint
        return (face_no, label + len(left.faces[face_no - 1]))

    strands = list(left.strands)
    strands += [(shift(a), shift(b)) for a, b in right.strands]
    if id is None:
        id = "%s + %s" % (left.id, right.id)
    return PieceTemplate(
        id, faces, strands,
        left.free_boundary + right.free_boundary,
        left.closed_components + right.closed_components,
        tuple(a + b for a, b in zip(left.interfaces, right.interfaces)))


class ReplicantSchedule(NamedTuple):
    """Even reflection counts per face pair, and the order to apply them.

    ``order`` permutes 1..ell and names which face pair is replicated
    first; an empty order means natural order.  Different orders label
    the copies differently but give isomorphic complexes.
    """
    indices: tuple
    order: tuple = ()


def _normalize_schedule(schedule, ell):
    if isinstance(schedule, ReplicantSchedule):
        indices, order = schedule.indices, schedule.order
    elif isinstance(schedule, (tuple, list)):
        indices, order = schedule, ()
    else:
        raise ScheduleMismatch("schedule must be a tuple of even counts "
                               "or a ReplicantSchedule")
    # int() would read 6.9 as 6 and "4" as 4; bool is an int subclass
    indices, order = tuple(indices), tuple(order)
    if any(type(n) is not int for n in indices):
        raise ScheduleMismatch("schedule entries must be integers, got %r"
                               % (indices,))
    if any(type(k) is not int for k in order):
        raise ScheduleMismatch("order entries must be integers, got %r"
                               % (order,))
    if len(indices) != ell:
        raise ScheduleMismatch("schedule length %d does not match %d face "
                               "pair(s)" % (len(indices), ell))
    if any(n <= 0 or n % 2 for n in indices):
        raise ScheduleMismatch("schedule entries must be positive and even, "
                               "got %r" % (indices,))
    order = order or tuple(range(1, ell + 1))
    if sorted(order) != list(range(1, ell + 1)):
        raise ScheduleMismatch("order must permute 1..%d, got %r"
                               % (ell, order))
    return indices, order


class Gluing(NamedTuple):
    """One face-to-face identification inside a complex.

    Sides are (copy label, face number); ``pairing`` maps side a's
    endpoint labels to side b's, stored sorted by the a-label.
    """
    a: tuple
    b: tuple
    pairing: tuple


class GluingComplex:
    """Copies of piece templates with face slots glued in pairs.

    ``copies`` is a sequence of (template, label) with distinct labels,
    each label a tuple of integers.  ``gluings`` pair face slots, at most
    one gluing per slot, with an endpoint bijection per gluing (omit the
    bijection for the label-identity).

    The face columns are the only stored form of the gluings.  Face
    number f has two columns, read by copy position (index into
    ``copies``): ``_other[f - 1]`` holds the position each copy's face f
    is glued to, -1 where unglued, and ``_carry[f - 1]`` what the gluing
    carries, (other face, pairing read from this side, sorted), None
    where unglued.  There is a column pair for each face of the copy
    with the most faces; a copy with fewer reads as unglued past its
    last face.  Copies glued alike may share one carried object.
    Readers work on positions, a column at a time where they can; the
    ``gluings`` property writes the columns out as labelled Gluings,
    each once, from its lower (position, face) side.
    """

    __slots__ = ("copies", "_position", "_other", "_carry")

    def __init__(self, copies, gluings):
        copies = tuple((template, _label("copy labels", label))
                       for template, label in
                       (_pair("copies", copy) for copy in copies))
        position = {}
        for template, label in copies:
            if not isinstance(template, PieceTemplate):
                raise PieceError("copies must reference PieceTemplate objects")
            if label in position:
                raise PieceError("duplicate copy label %r" % (label,))
            position[label] = len(position)
        self.copies = copies
        self._position = position

        width = max((len(template.faces) for template, _ in copies),
                    default=0)
        other = [[-1] * len(copies) for _ in range(width)]
        carry = [[None] * len(copies) for _ in range(width)]
        for item in gluings:
            if not isinstance(item, (tuple, list)) or len(item) not in (2, 3):
                raise PieceError("gluings must have 2 or 3 entries, got %r"
                                 % (item,))
            side_a, side_b, pairing = (*item, None)[:3]
            side_a = _side(side_a)
            side_b = _side(side_b)
            face_a = self._face_labels(side_a)
            face_b = self._face_labels(side_b)
            if side_a == side_b:
                raise PieceError("cannot glue a face slot to itself")
            if pairing is None:
                if len(face_a) != len(face_b):
                    raise EndpointMismatch(
                        "faces %r and %r carry %d and %d endpoints"
                        % (side_a, side_b, len(face_a), len(face_b)))
                pairing = tuple(zip(face_a, face_b))
            elif not isinstance(pairing, (tuple, list)):
                raise PieceError("gluing pairings must be arrays, got %r"
                                 % (pairing,))
            else:
                pairing = tuple(
                    _ints("pairing labels", _pair("pairing entries", p))
                    for p in pairing)
                if sorted(x for x, _ in pairing) != list(face_a) or \
                        sorted(y for _, y in pairing) != list(face_b):
                    raise PieceError(
                        "pairing is not a bijection between %r and %r"
                        % (side_a, side_b))
            x, face_x = position[side_a[0]], side_a[1]
            y, face_y = position[side_b[0]], side_b[1]
            # the columns find a slot glued twice; name the lower side first
            for here, face_no, side in sorted([(x, face_x, side_a),
                                               (y, face_y, side_b)]):
                if other[face_no - 1][here] >= 0:
                    raise PieceError("face slot %r glued twice" % (side,))
            other[face_x - 1][x] = y
            carry[face_x - 1][x] = face_y, tuple(sorted(pairing))
            other[face_y - 1][y] = x
            carry[face_y - 1][y] = face_x, tuple(sorted((b, a)
                                                        for a, b in pairing))
        self._other = tuple(map(tuple, other))
        self._carry = tuple(map(tuple, carry))

    @classmethod
    def _mirror(cls, copies, sizes, pairs):
        """``copies``, distinct and in ``itertools.product`` order over
        ``range(sizes[j])``, glued in the replicant mirror pattern: axis j
        reflects across face pair k = ``pairs[j]``, so copy 2i meets copy
        2i+1 across face 2k-1 and copy 2i-1 meets copy 2i across face 2k,
        cyclically.  ``pairs`` permutes 1..len(pairs); later faces stay
        unglued.  Trusted: the caller has checked that glued faces carry
        equal endpoint counts.

        The step to a copy's partner across a face depends on its
        coordinate on the face's axis alone, so a face's partner column
        is the positions plus the steps repeated.  Each distinct template
        carries one identity gluing per face, shared down the column.
        """
        self = cls.__new__(cls)
        self.copies = copies
        count = len(copies)
        # one int object per position, shared by every entry naming it
        positions = list(range(count))
        self._position = dict(zip(map(operator.itemgetter(1), copies),
                                  positions))
        templates = list(map(operator.itemgetter(0), copies))
        distinct = dict(zip(map(id, templates), templates))
        glued = 2 * len(pairs)
        if len(distinct) == 1:
            carry = [(c,) * count for c in templates[0]._mirrored[:glued]]
        else:
            kinds = list(map(operator.attrgetter("_mirrored"), templates))
            carry = [tuple(map(operator.itemgetter(f), kinds))
                     for f in range(glued)]
        width = max((len(t.faces) for t in distinct.values()), default=0)
        carry += [(None,) * count] * (width - glued)
        other = [None] * glued + [(-1,) * count] * (width - glued)
        stride = count
        for n, k in zip(sizes, pairs):
            stride //= n
            # steps from coordinates 0..n-1 across faces 2k-1 and 2k
            for face, steps in ((2 * k - 1, [1, -1] * (n // 2)),
                                (2 * k, [n - 1, *[1, -1] * (n // 2 - 1),
                                         1 - n])):
                steps = list(itertools.chain.from_iterable(
                    itertools.repeat(d * stride, stride) for d in steps))
                steps *= count // (n * stride)
                other[face - 1] = tuple(map(
                    positions.__getitem__,
                    map(operator.add, positions, steps)))
        self._other = tuple(other)
        self._carry = tuple(carry)
        return self

    @property
    def gluings(self):
        """The gluings in (position, face) order of their lower side."""
        copies = self.copies
        out = []
        for face_no, others, carries in zip(itertools.count(1), self._other,
                                            self._carry):
            # x <= y: the lower side, or a gluing within one copy
            for x in itertools.compress(itertools.count(), map(
                    operator.le, itertools.count(), others)):
                y = others[x]
                face_y, pairing = carries[x]
                if x < y or face_no < face_y:
                    out.append((x, Gluing((copies[x][1], face_no),
                                          (copies[y][1], face_y), pairing)))
        # stable: each copy's faces stay in column order
        out.sort(key=operator.itemgetter(0))
        return tuple(map(operator.itemgetter(1), out))

    def _face_labels(self, side):
        label, face_no = side
        if label not in self._position:
            raise PieceError("gluing references missing copy %r" % (label,))
        faces = self.template_of(label).faces
        if not 1 <= face_no <= len(faces):
            raise PieceError("copy %r has no face %d" % (label, face_no))
        return faces[face_no - 1]

    def template_of(self, label):
        """The template of copy ``label``; PieceError if no copy has it."""
        try:
            return self.copies[self._position[label]][0]
        except (KeyError, TypeError):
            raise PieceError("no copy is labelled %r" % (label,)) from None

    def glued_partner(self, side):
        """(other side, label map) for a glued slot, else None."""
        label, face_no = side
        here = self._position.get(label)
        if here is None or type(face_no) is not int or \
                not 1 <= face_no <= len(self.copies[here][0].faces):
            return None
        other = self._other[face_no - 1][here]
        if other < 0:
            return None
        face_y, pairing = self._carry[face_no - 1][here]
        return (self.copies[other][1], face_y), dict(pairing)

    def slots(self):
        out = []
        for template, label in self.copies:
            out.extend((label, f + 1) for f in range(len(template.faces)))
        return out

    def unglued_slots(self):
        return [(label, f + 1)
                for x, (template, label) in enumerate(self.copies)
                for f in range(len(template.faces)) if self._other[f][x] < 0]

    def __eq__(self, other):
        if not isinstance(other, GluingComplex):
            return NotImplemented
        return self.copies == other.copies and \
            self._other == other._other and self._carry == other._carry

    def __hash__(self):
        return hash((self.copies, self._other, self._carry))

    def __repr__(self):
        # no face glues to itself, so each gluing fills two faces
        glued = sum(len(others) - others.count(-1) for others in self._other)
        return "GluingComplex(%d copies, %d gluings)" % (
            len(self.copies), glued // 2)

    def to_json_dict(self):
        table = {}
        for template, _ in self.copies:
            if table.get(template.id, template) != template:
                raise PieceError("distinct templates share id %r"
                                 % template.id)
            table[template.id] = template
        return {
            "templates": {tid: t.to_json_dict()
                          for tid, t in sorted(table.items())},
            "copies": [[t.id, list(label)] for t, label in self.copies],
            "gluings": [{"a": [list(g.a[0]), g.a[1]],
                         "b": [list(g.b[0]), g.b[1]],
                         "pairing": [list(p) for p in g.pairing]}
                        for g in self.gluings],
        }

    @classmethod
    def from_json_dict(cls, data):
        """Read and check a complex; PieceError naming a malformed part."""
        if not isinstance(data, dict):
            raise PieceError("a gluing complex must be a JSON object, got %r"
                             % (data,))
        for key, kind, name in (("templates", dict, "an object"),
                                ("copies", list, "an array"),
                                ("gluings", list, "an array")):
            if not isinstance(data.get(key), kind):
                raise PieceError("gluing complex %s must be %s, got %r"
                                 % (key, name, data.get(key)))
        table = {tid: PieceTemplate.from_json_dict(td)
                 for tid, td in data["templates"].items()}
        copies = []
        for tid, label in (_pair("copies", copy) for copy in data["copies"]):
            if not isinstance(tid, str) or tid not in table:
                raise PieceError("copy references missing template %r"
                                 % (tid,))
            copies.append((table[tid], label))
        gluings = []
        for g in data["gluings"]:
            if not (isinstance(g, dict) and g.keys() >= {"a", "b", "pairing"}):
                raise PieceError("gluings must be objects with a, b and "
                                 "pairing, got %r" % (g,))
            # a null pairing is an error here, not the label-identity
            if g["pairing"] is None:
                raise PieceError("gluing pairings must be arrays, got None")
            gluings.append((g["a"], g["b"], g["pairing"]))
        return cls(copies, gluings)


def replicate(template, schedule):
    """Reflect a piece per its schedule, one face pair at a time.

    Copies are labeled by index tuples, one coordinate per face pair in
    schedule order, and glued in the mirror pattern of
    GluingComplex._mirror().  Every face slot ends up glued exactly once;
    free boundary is untouched.  A schedule of more than
    ``repvol.COPY_LIMIT`` copies is refused before any copy is labeled.
    """
    if len(template.faces) % 2:
        raise ScheduleMismatch(
            "replication reflects across face pairs; template %r has an "
            "unpaired face" % template.id)
    indices, order = _normalize_schedule(schedule, template.ell)
    if math.prod(indices) > repvol.COPY_LIMIT:
        raise SizeExceeded("schedule %r makes more than %d copies"
                           % (indices, repvol.COPY_LIMIT))
    sizes = [indices[k - 1] for k in order]
    labels = itertools.product(*map(range, sizes))
    copies = tuple(zip(itertools.repeat(template), labels))
    return GluingComplex._mirror(copies, sizes, order)


def build_bracelet(tangles):
    """Close an even cycle of saucer tangles into one complex.

    Consecutive tangles meet across a mirror face, in the replicant
    pattern: copy 2i glues its first face to copy 2i+1's first face,
    copy 2i+1 its second face to copy 2i+2's second face, around the
    cycle.  A homogeneous bracelet is therefore equal to the tangle's
    cyclic replicant.  Every connection must carry at least two strands.
    """
    tangles = list(tangles)
    count = len(tangles)
    refusal = shape_refusal("bracelet", count)
    if refusal is not None:
        raise OddLength(refusal)
    for i, tangle in enumerate(tangles):
        j = (i + 1) % count
        face_no = 1 if i % 2 == 0 else 2
        if tangle.ell < 1 or tangles[j].ell < 1:
            raise PieceError("bracelet tangles need a face pair")
        here = tangle.faces[face_no - 1]
        there = tangles[j].faces[face_no - 1]
        if len(here) != len(there):
            raise EndpointMismatch(
                "tangles %d and %d meet with %d and %d endpoints"
                % (i, j, len(here), len(there)))
        if len(here) < 2:
            raise TooFewStrands(
                "connection between tangles %d and %d carries %d strand(s)"
                % (i, j, len(here)))
    return GluingComplex._mirror(
        tuple((tangle, (i,)) for i, tangle in enumerate(tangles)),
        (count,), (1,))


def build_torus_lattice(grid):
    """Glue a doubly even grid of four-faced pieces with wraparound.

    Rows run along face pair 1 and columns along face pair 2, with the
    replicant mirror pattern in both directions, so a grid filled with
    one template equals its (rows, columns)-replicant.  Gluings are
    checked in the pattern's order (row-major, rows before columns), and
    the first with unequal endpoint counts is refused.
    """
    rows = [list(row) for row in grid]
    height = len(rows)
    if height == 0 or any(len(row) != len(rows[0]) for row in rows):
        raise PieceError("lattice grid must be rectangular")
    width = len(rows[0])
    refusal = shape_refusal("lattice", height * width, height, width)
    if refusal is not None:
        raise OddDimension(refusal)
    cells = list(itertools.chain.from_iterable(rows))
    distinct = dict(zip(map(id, cells), cells))
    if any(t.ell < 2 for t in distinct.values()):
        raise PieceError("lattice cells need two face pairs")
    counts = {key: tuple(map(len, t.faces[:4]))
              for key, t in distinct.items()}

    def meet(a, b, face):
        if counts[id(rows[a[0]][a[1]])][face - 1] != \
                counts[id(rows[b[0]][b[1]])][face - 1]:
            raise EndpointMismatch("cells %r and %r meet with unequal "
                                   "endpoints" % (a, b))

    # cells whose faces all carry alike cannot meet unequally
    if len(set(counts.values())) > 1:
        for r, c in itertools.product(range(height), range(width)):
            if r % 2 == 0:
                meet((r, c), (r + 1, c), 1)
                meet(((r - 1) % height, c), (r, c), 2)
            if c % 2 == 0:
                meet((r, c), (r, c + 1), 3)
                meet((r, (c - 1) % width), (r, c), 4)
    copies = tuple(zip(cells, itertools.product(range(height), range(width))))
    return GluingComplex._mirror(copies, (height, width), (1, 2))


def build_cylinder_stack(tangles):
    """Stack cylindrical tangles end to end and close the loop.

    Copy i's second face glues to copy i+1's first face by translation
    (equal labels), cyclically; a single tangle closes onto itself.
    """
    tangles = list(tangles)
    refusal = shape_refusal("cylinder-stack", len(tangles))
    if refusal is not None:
        raise PieceError(refusal)
    gluings = []
    for i, tangle in enumerate(tangles):
        j = (i + 1) % len(tangles)
        if tangle.ell < 1 or tangles[j].ell < 1:
            raise PieceError("stacked tangles need a face pair")
        if len(tangle.faces[1]) != len(tangles[j].faces[0]):
            raise EndpointMismatch(
                "tangles %d and %d meet with %d and %d endpoints"
                % (i, j, len(tangle.faces[1]), len(tangles[j].faces[0])))
        gluings.append((((i,), 2), ((j,), 1)))
    return GluingComplex(
        [(tangle, (i,)) for i, tangle in enumerate(tangles)], gluings)


class ComponentCount(NamedTuple):
    closed: int
    open: int


def count_components(complex):
    """Closed and open strand components of a complex.

    Each endpoint has one strand edge (inside its copy) and at most one
    gluing edge, so components are paths, which end at unglued faces,
    or cycles.  A walk follows a strand, then its gluing, and so on,
    from each endpoint not yet passed: back at its start it has passed a
    cycle; stopped at an unglued face it is on a path, which a second
    walk finishes the other way.  Closed loops recorded on the templates
    count as closed components of every copy.

    Each distinct template numbers its endpoints face by face and lists,
    per endpoint, the strand's other end with that end's face columns,
    so a step across a gluing reads the partner and what the gluing
    carries from the columns by position.  Passed endpoints are marked
    in one bytearray at position * ``width`` (the most endpoints of any
    template) + number; the unused tail of a smaller template is marked
    as it is found.
    """
    copies = complex.copies
    columns = list(zip(complex._other, complex._carry))
    templates = list(map(operator.itemgetter(0), copies))
    distinct = dict(zip(map(id, templates), templates))
    width = max((len(t._mate) for t in distinct.values()), default=0)
    kinds = {}
    for key, t in distinct.items():
        # start[f] + label numbers endpoint (f, label)
        start = [None, *itertools.accumulate(map(len, t.faces), initial=-1)]
        ends = [None] * len(t._mate)
        for (f, x), (g, y) in t._mate.items():
            ends[start[f] + x] = (start[g] + y, *columns[g - 1], y - 1)
        kinds[key] = ends, start
    kinds = list(map(kinds.__getitem__, map(id, templates)))
    seen = bytearray(len(copies) * width)

    def walk(here, e):
        # True when the walk stops at an unglued face
        ends, start = kinds[here]
        at = here * width
        while not seen[at + e]:
            seen[at + e] = 1
            # the strand's other end, its face's columns, its label
            e, others, carries, x = ends[e]
            seen[at + e] = 1
            carried = carries[here]
            if carried is None:
                return True
            face_no, pairing = carried
            here = others[here]
            ends, start = kinds[here]
            at = here * width
            e = start[face_no] + pairing[x][1]
        return False

    closed = sum(map(operator.attrgetter("closed_components"), templates))
    open_count = 0
    i = seen.find(0)
    while i >= 0:
        here, e = divmod(i, width)
        ends = kinds[here][0]
        if e >= len(ends):
            seen[i] = 1
        elif not walk(here, e):
            closed += 1
        else:
            open_count += 1
            # e's own face columns and label
            _, others, carries, x = ends[ends[e][0]]
            carried = carries[here]
            if carried is not None:
                face_no, pairing = carried
                there = others[here]
                walk(there, kinds[there][1][face_no] + pairing[x][1])
        i = seen.find(0, i + 1)
    return ComponentCount(closed, open_count)


class IsoResult(NamedTuple):
    isomorphic: bool
    witness: dict


def _template_index(complexes):
    """Each template's place among the distinct templates, keyed by
    id(): hashing a template hashes every one of its fields."""
    by_id = {id(t): t for c in complexes for t, _ in c.copies}
    index = {t: i for i, t in enumerate(sorted(set(by_id.values()),
                                               key=PieceTemplate._key))}
    return {key: index[t] for key, t in by_id.items()}


def _refine_colors(complex, base):
    """Refined colours of the copies, a list by copy position.

    A copy's signature is its colour, then, face by face, its partner's
    colour (-1 where unglued) and what the gluing carries: one zip of
    the columns.  Equal partner colours mean both faces are glued or
    neither, so sorting never compares a carried gluing with None.
    """
    colors = [base[id(template)] for template, _ in complex.copies]
    count = len(set(colors))
    while True:
        # position -1, an unglued face's partner, reads colour -1
        around = [*colors, -1]
        signatures = list(zip(colors, *itertools.chain.from_iterable(
            (map(around.__getitem__, others), carries)
            for others, carries in zip(complex._other, complex._carry))))
        palette = {s: i for i, s in enumerate(sorted(set(signatures)))}
        colors = list(map(palette.__getitem__, signatures))
        if len(palette) == count:
            return colors
        count = len(palette)


def _propagate(a, b, root, image):
    """Extend root -> image along glued faces over root's component.

    Works on copy positions.  Returns the map, or None at the first
    disagreement: template, partner face, endpoint pairing, glued state,
    or a repeated image.  A map returned covers a whole component of
    ``b``, so later trials, which start from unused images, never reach
    its images.
    """
    trial = {root: image}
    taken = {image}
    stack = [root]
    columns = list(zip(a._other, a._carry, b._other, b._carry))
    while stack:
        here = stack.pop()
        there = trial[here]
        template, image_template = a.copies[here][0], b.copies[there][0]
        if template is not image_template and template != image_template:
            return None
        for others, carries, image_others, image_carries in columns:
            # what both faces carry: face and pairing, or None if unglued
            carried, image_carried = carries[here], image_carries[there]
            if carried is not image_carried and carried != image_carried:
                return None
            other = others[here]
            if other < 0:
                continue
            image_other = image_others[there]
            if other in trial:
                if trial[other] != image_other:
                    return None
            elif image_other in taken:
                return None
            else:
                trial[other] = image_other
                taken.add(image_other)
                stack.append(other)
    return trial


def _first_fit(a, b, colors_a, colors_b, patient):
    """The witness by copy positions: each root of ``a`` in order takes
    the first unused image of its colour, in ``b.copies`` order, that
    propagates.  None when a root finds no image, or, unless
    ``patient``, at the first image that does not propagate.

    Each colour keeps a queue of ``b``'s copies in ``b.copies`` order,
    and a root scans only its own colour's queue.  Used images are
    popped off the front before each scan, so many unglued copies of
    one template match in linear time; the candidate order, and with
    it the witness, is that of a scan of all of ``b.copies``.
    """
    queues = collections.defaultdict(collections.deque)
    for image, colour in enumerate(colors_b):
        queues[colour].append(image)
    witness = {}
    used = set()
    for root, colour in enumerate(colors_a):
        if root in witness:
            continue
        queue = queues[colour]
        while queue and queue[0] in used:
            queue.popleft()
        for image in queue:
            if image in used:
                continue
            trial = _propagate(a, b, root, image)
            if trial is not None:
                break
            if not patient:
                return None
        else:
            return None
        witness.update(trial)
        used.update(trial.values())
    return witness


def isomorphic(a, b):
    """Search for a copy relabeling carrying a's gluings onto b's.

    The bijection must preserve templates, face numbers, and endpoint
    pairings.  Returns the witness map on success.  Complexes above
    ISO_COPY_LIMIT copies are refused.

    Glued face f maps to glued face f, so the image of one copy fixes
    the map on its component.  Each component of ``a`` is rooted at its
    first copy, and the first unused image of the same colour (in
    ``b.copies`` order) that propagates is kept; isomorphism of
    components is an equivalence, so keeping the first loses nothing.

    The first scan colours copies by template alone and gives up at the
    first image that does not propagate.  Only then are both sides
    colour-refined and scanned again, trying every image of the root's
    refined colour.  The witness is the same either way: a refined
    class lies inside its template class, and when the complexes are
    isomorphic an image that propagates from a root has the root's
    refined colour, so both scans keep the same first image.  A scan
    that completes is a checked isomorphism, so a match that never
    misses costs no refinement.  Refinement refuses near misses at once:
    against a square replicant with two gluings cross-wired (face 1 to
    face 3), the refined colour counts differ after one failed
    propagation.  Trying every copy as the root's image instead, each
    propagating deep before failing, takes 5 s rather than 0.6 s at
    60 x 60.
    """
    if len(a.copies) > ISO_COPY_LIMIT or len(b.copies) > ISO_COPY_LIMIT:
        raise SizeExceeded("refusing isomorphism search above %d copies"
                           % ISO_COPY_LIMIT)
    if len(a.copies) != len(b.copies):
        return IsoResult(False, None)
    base = _template_index((a, b))
    colors_a = [base[id(template)] for template, _ in a.copies]
    colors_b = [base[id(template)] for template, _ in b.copies]
    if sorted(colors_a) != sorted(colors_b):
        return IsoResult(False, None)
    witness = _first_fit(a, b, colors_a, colors_b, patient=False)
    if witness is None:
        colors_a = _refine_colors(a, base)
        colors_b = _refine_colors(b, base)
        if sorted(colors_a) != sorted(colors_b):
            return IsoResult(False, None)
        witness = _first_fit(a, b, colors_a, colors_b, patient=True)
        if witness is None:
            return IsoResult(False, None)
    label = operator.itemgetter(1)
    return IsoResult(True, dict(zip(map(label, map(a.copies.__getitem__,
                                                   witness)),
                                    map(label, map(b.copies.__getitem__,
                                                   witness.values())))))


def verify_isomorphism(a, b, witness):
    """Check that a witness map really carries a onto b.

    The map must be a dict from a's copy labels onto b's, each label a
    tuple of ints, that keeps templates, and each face of ``a`` must land
    on a face of ``b`` glued alike: both unglued, or glued to the image
    face with the same endpoint pairing.  The gluings then correspond one
    to one.  Anything else, however malformed, is False.

    The witness becomes ``to``, the image position of each of a's
    positions, with -1 appended so that an unglued face (-1) maps to
    -1.  One itemgetter of ``to`` reads each of b's face columns, and
    then b's templates, in a's order; each must equal a's, partner
    positions read through ``to``.  Partners are compared first and
    one by one, as a wrong witness mostly breaks a gluing early on.
    """
    if not isinstance(witness, dict) or \
            not len(witness) == len(a.copies) == len(b.copies):
        return False
    labels = [*witness, *witness.values()]
    # equality would find the copy (3,) under the key (3.0,) or (True,)
    if not {tuple} >= set(map(type, labels)) or \
            not {int} >= set(map(type, itertools.chain.from_iterable(labels))):
        return False
    to = list(map(b._position.get, map(witness.get, map(
        operator.itemgetter(1), a.copies))))
    if None in to or len(set(to)) != len(to):
        return False
    # an itemgetter of one position returns a bare item, and of none
    # fails; one copy or none can only map onto itself
    pick = operator.itemgetter(*to) if len(to) > 1 else tuple
    to.append(-1)
    for others, carries, image_others, image_carries in zip(
            a._other, a._carry, b._other, b._carry):
        if not all(map(operator.eq, pick(image_others),
                       map(to.__getitem__, others))) or \
                pick(image_carries) != carries:
            return False
    template = operator.itemgetter(0)
    image_templates = list(map(template, b.copies))
    return pick(image_templates) == tuple(map(template, a.copies))


def split_union(complex, left, right):
    """Undo a template union copywise.

    Every copy of ``complex`` must be over the disjoint union of
    ``left`` and ``right``; returns the two restricted complexes, which
    share the original copy labels.  Gluings must not pair a left
    endpoint with a right endpoint.
    """
    union = template_union(left, right)
    for template, label in complex.copies:
        if template._key()[1:] != union._key()[1:]:
            raise PieceError("copy %r is not over the union of the given "
                             "templates" % (label,))

    cut = {face_no: len(left.faces[face_no - 1])
           for face_no in range(1, len(union.faces) + 1)}

    def restrict(gluings, keep_left):
        out = []
        for g in gluings:
            boundary = cut[g.a[1]]
            pairs = []
            for x, y in g.pairing:
                if (x <= boundary) != (y <= cut[g.b[1]]):
                    raise PieceError("gluing %r mixes the union's parts"
                                     % (g,))
                if (x <= boundary) == keep_left:
                    if keep_left:
                        pairs.append((x, y))
                    else:
                        pairs.append((x - boundary, y - cut[g.b[1]]))
            out.append((g.a, g.b, pairs))
        return out

    left_copies = [(left, label) for _, label in complex.copies]
    right_copies = [(right, label) for _, label in complex.copies]
    return (GluingComplex(left_copies, restrict(complex.gluings, True)),
            GluingComplex(right_copies, restrict(complex.gluings, False)))
