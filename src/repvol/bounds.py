"""Volume database, hyperbolicity certification, and bound dispatch.

The shipped database records replicant volumes for three tangle families
(rational-square, integer-cylindrical, reciprocal-saucer) keyed by Conway
notation, ambient manifold, replication signature, and orientation, plus
limit volumes for the reciprocal family.  A signature is the tuple of
even replication counts; for two-index signatures the first coordinate
is the direction the tables fix at 2.  Volumes are exact decimal strings
as printed; a stored zero marks certified non-hyperbolicity at that
signature, which is different from an absent row.

certify_hyperbolic() grounds a hyperbolicity claim in a recorded entry
and transports it by the two replication-monotonicity rules (saucer
tangles: one index; square tangles in tetrahedra: componentwise), or
falls back to the arborescent classifier.  lower_bound() dispatches a
composite-link description to the matching bound rule and sums the
recorded volumes at exactly the demanded signature; hyperbolicity may
transport across signatures but volumes never do.

Totals are exact Fractions, formed over one common denominator and
normalised once, and rendered fixed-point.
"""

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

import repvol
from . import AMBIENTS, FAMILIES, Uncertified, shape_refusal

ARRANGEMENTS = ("bracelet", "lattice", "cylinder-stack", "custom")

BORROMEAN_VOLUME = Decimal("7.32772474")
V_OCT = Decimal("3.66386238")
V_TET = Decimal("1.01494161")

EQUALITY_NOTE = ("equality holds exactly when every decomposition surface "
                 "is totally geodesic; stacks of rational thickened-cylinder "
                 "tangles attain it")


class BoundsError(ValueError):
    """Malformed database content, key, or link description."""


class NotFound(LookupError):
    """No database row at the requested key."""


class UncertifiedTangle(BoundsError, Uncertified):
    """A slot could not be certified, or lacks the needed volume."""

    def __init__(self, message, slot=None):
        super().__init__(message)
        self.slot = slot


class ArrangementInvalid(BoundsError):
    """The link description does not realize a supported arrangement."""


class BadTwistNumber(BoundsError):
    """Twist-number formulas need at least two twist regions."""


class _NonHyperbolic:
    """Marker for a zero table entry: certified not hyperbolic there."""

    __slots__ = ()

    def __repr__(self):
        return "NON_HYPERBOLIC"


NON_HYPERBOLIC = _NonHyperbolic()


class TangleRef(NamedTuple):
    family: str
    conway: str
    ambient: str
    orientation: str = "standard"


class Entry(NamedTuple):
    volume: object
    provenance: str


def _normalize_conway(text):
    """Collapse whitespace and drop leading minus signs (a reflection,
    whose volume is the same) so a tangle keys to its unreflected row."""
    out = " ".join(str(text).split()).lstrip("- ")
    if not out:
        raise BoundsError("empty tangle notation")
    return out


def _normalize_signature(signature):
    try:
        out = tuple(int(n) for n in signature)
    except (TypeError, ValueError, OverflowError):
        raise BoundsError("signature must be a tuple of even counts") \
            from None
    # int() would read 2.9, "2" and True as counts; bool is an int subclass
    if any(type(n) is not int for n in signature):
        raise BoundsError("signature entries must be integers, got %r"
                          % (signature,))
    if not out or any(n <= 0 or n % 2 for n in out):
        raise BoundsError("signature entries must be positive and even, "
                          "got %r" % (signature,))
    return out


def _check_names(family, ambient):
    if family not in FAMILIES:
        raise BoundsError("unknown family %r" % (family,))
    if ambient not in AMBIENTS:
        raise BoundsError("unknown ambient %r" % (ambient,))


def _key(family, conway, ambient, signature, orientation):
    _check_names(family, ambient)
    return (family, _normalize_conway(conway), ambient,
            _normalize_signature(signature), str(orientation))


def _positive(value, what, numbers):
    """``value`` as a finite positive Decimal, or a BoundsError opening
    with ``what``.  Decimal would read the list [0, [1], 0] as the
    triple (sign, digits, exponent) of 1, and True as 1."""
    try:
        if isinstance(value, (bool, list, tuple)):
            raise TypeError
        number = Decimal(value)
    except (TypeError, ValueError, ArithmeticError):
        raise BoundsError("%s must be %s, got %r" % (what, numbers, value)) \
            from None
    if not number.is_finite():
        raise BoundsError("%s must be finite, got %s" % (what, number))
    if number <= 0:
        raise BoundsError("%s must be positive, got %s" % (what, number))
    return number


def _unpack(item, size, name, shape):
    """``item`` as a tuple of ``size`` entries, else a BoundsError saying
    the ``name`` must be ``shape``."""
    try:
        out = tuple(item)
    except TypeError:
        out = ()
    if len(out) != size:
        raise BoundsError("%s must be %s, got %r" % (name, shape, item))
    return out


_CERTIFIED_LIMIT = 4096  # certification outcomes one table keeps


class VolumeDB:
    """Immutable volume table plus limit volumes.

    ``entries`` maps (family, conway, ambient, signature, orientation)
    to an Entry whose volume is a positive Decimal or NON_HYPERBOLIC;
    ``limits`` maps reciprocal-tangle notation to the volume its
    replicants approach from below.  Rows are also indexed by column,
    (family, conway, ambient, orientation), each column mapping its
    signatures to entries in insertion order.

    A table also keeps, privately, up to _CERTIFIED_LIMIT outcomes of
    certifying a bound slot or compose factor (_certified_entry), keyed
    by (TangleRef, signature): the certificate, the entry and its exact
    Fraction volume, or the text of the refusal.  The key's fields are
    exact strs and its signature a tuple of ints, made so where they
    enter: parse_link_spec for bound slots, compose_bound for factors.
    The rows are never changed after construction and extended() builds
    a new table with no outcomes, so a kept outcome cannot go stale.
    """

    def __init__(self, entries, limits):
        table = {}
        columns = {}
        for i, (key, entry) in enumerate(dict(entries).items()):
            try:
                key = _key(*_unpack(key, 5, "key", "(family, conway, "
                                    "ambient, signature, orientation)"))
                volume, provenance = _unpack(entry, 2, "entry",
                                             "a (volume, provenance) pair")
                if volume is not NON_HYPERBOLIC:
                    volume = _positive(volume, "volumes", "numbers")
                if key in table:
                    raise BoundsError("duplicate entry for %r" % (key,))
            except BoundsError as exc:
                raise BoundsError("volume table row %d: %s" % (i, exc)) \
                    from None
            table[key] = Entry(volume, str(provenance))
            family, conway, ambient, signature, orientation = key
            columns.setdefault((family, conway, ambient, orientation),
                               {})[signature] = table[key]
        self.entries = table
        self._columns = columns
        limits = dict(limits)
        named = {}  # normalised tangle -> the limit key first naming it
        for c in limits:
            try:
                tangle = _normalize_conway(c)
            except BoundsError:
                raise BoundsError("volume table limits: the limit key %r "
                                  "names no tangle" % (c,)) from None
            if tangle in named:
                raise BoundsError(
                    "volume table limits: %r and %r both give the limit "
                    "for %s" % (named[tangle], c, tangle))
            named[tangle] = c
        self.limits = {
            tangle: _positive(limits[c], "volume table limits: the limit "
                              "for %s" % tangle, "a number")
            for tangle, c in named.items()}
        self._certified = {}

    @classmethod
    def from_json_dict(cls, data, provenance="user"):
        """Read a table dict as in the JSON file; BoundsError if malformed."""
        entries = {}
        where = "volume table"  # the part being read, named in a refusal
        try:
            for i, row in enumerate(data.get("entries", ())):
                where = "volume table row %d" % i
                key = (row["family"], row["conway"], row["ambient"],
                       tuple(row["signature"]),
                       row.get("orientation", "standard"))
                volume = str(row["volume"])
                value = NON_HYPERBOLIC if Decimal(volume) == 0 else volume
                if key in entries:
                    raise BoundsError("%s repeats row %d"
                                      % (where, list(entries).index(key)))
                entries[key] = (value, row.get("provenance", provenance))
            where = "volume table limits"
            limits = {}
            for c, v in data.get("limits", {}).items():
                if isinstance(v, (list, tuple)):
                    # Decimal would read [0, [1], 0] as the triple
                    # (sign, digits, exponent) of 1
                    raise ValueError(v)
                limits[c] = Decimal(str(v))
        except BoundsError:  # a ValueError: keep the refusal above
            raise
        except KeyError as missing:
            raise BoundsError("%s has no %s field" % (where, missing)) \
                from None
        except (AttributeError, TypeError, ValueError,
                ArithmeticError) as exc:
            raise BoundsError("malformed %s (%s)"
                              % (where, type(exc).__name__)) from None
        return cls(entries, limits)

    @classmethod
    def load(cls, path, provenance="user"):
        with open(path) as f:
            return cls.from_json_dict(json.load(f), provenance)

    @classmethod
    def builtin(cls):
        text = resources.files("repvol").joinpath(
            "data/tables1-4.json").read_text()
        return cls.from_json_dict(json.loads(text), provenance="builtin")

    def query(self, family, conway, ambient, signature,
              orientation="standard"):
        return self.entry(family, conway, ambient, signature,
                          orientation).volume

    def entry(self, family, conway, ambient, signature,
              orientation="standard"):
        key = _key(family, conway, ambient, signature, orientation)
        try:
            return self.entries[key]
        except KeyError:
            raise NotFound("no entry for %r" % (key,)) from None

    def recorded_signatures(self, family, conway, ambient,
                            orientation="standard"):
        """Signature -> Entry for one column, as a fresh dict."""
        column = (family, _normalize_conway(conway), ambient, orientation)
        try:
            return dict(self._columns.get(column, ()))
        except TypeError:  # an unhashable family or orientation names none
            return {}

    def limit_for(self, conway):
        return self.limits.get(_normalize_conway(conway))

    def extended(self, rows, provenance="user"):
        """New database with extra entry rows (dicts as in the JSON file)."""
        merged = dict(self.entries)
        addition = VolumeDB.from_json_dict({"entries": rows}, provenance)
        for key, entry in addition.entries.items():
            if key in merged:
                raise BoundsError("entry already recorded for %r" % (key,))
            merged[key] = entry
        return VolumeDB(merged, self.limits)

    def to_json_dict(self):
        entries = []
        for key in sorted(self.entries):
            family, conway, ambient, signature, orientation = key
            entry = self.entries[key]
            volume = "0" if entry.volume is NON_HYPERBOLIC \
                else str(entry.volume)
            entries.append({
                "family": family, "conway": conway, "ambient": ambient,
                "signature": list(signature), "orientation": orientation,
                "volume": volume, "provenance": entry.provenance,
            })
        return {"version": 1, "entries": entries,
                "limits": {c: str(v) for c, v in sorted(self.limits.items())}}


class RuleStep(NamedTuple):
    rule: str
    detail: str


class HyperbolicityCertificate(NamedTuple):
    """A grounded hyperbolicity claim with its derivation chain."""
    tangle: object
    signature: tuple
    basis: str
    chain: tuple


class UnknownHyperbolicity(NamedTuple):
    """No certification rule fired; never a negative claim."""
    tangle: object
    signature: tuple
    reason: str
    counterevidence: tuple = ()


def _componentwise_leq(a, b):
    return len(a) == len(b) and all(x <= y for x, y in zip(a, b))


def _monotonicity_rule(tangle, signature):
    if len(signature) == 1 and tangle.family == "reciprocal-saucer":
        return ("saucer-monotonicity",
                "a tangle hyperbolic at one even replication count stays "
                "hyperbolic at every larger one")
    if len(signature) == 2 and tangle.family == "rational-square" \
            and tangle.ambient == "S3":
        return ("tetrahedral-monotonicity",
                "a square tangle in a tetrahedron hyperbolic at one "
                "signature stays hyperbolic at componentwise larger ones")
    return None


def certify_hyperbolic(db, tangle, signature):
    """Ground a hyperbolicity claim for ``tangle`` at ``signature``.

    Grounds at the smallest recorded positive signature at or below the
    request (so certificates survive later rows being dropped), citing
    the entry directly when it sits at the requested signature and the
    applicable monotonicity rule otherwise.  With no usable row, a
    reciprocal tangle falls back to the arborescent classifier.  Returns
    UnknownHyperbolicity, with counterevidence where the tables or the
    classifier point the other way, when nothing fires.
    """
    tangle = TangleRef(*tangle)
    signature = _normalize_signature(signature)
    recorded = db.recorded_signatures(tangle.family, tangle.conway,
                                      tangle.ambient, tangle.orientation)
    monotone = _monotonicity_rule(tangle, signature)

    grounds = []
    for sig, entry in recorded.items():
        if entry.volume is NON_HYPERBOLIC:
            continue
        if sig == signature:
            grounds.append(sig)
        elif monotone and _componentwise_leq(sig, signature):
            grounds.append(sig)
    if grounds:
        ground = min(grounds, key=lambda s: (sum(s), s))
        entry = recorded[ground]
        chain = [RuleStep(
            "database-entry",
            "%s %s in %s recorded hyperbolic at %r with volume %s [%s]"
            % (tangle.family, tangle.conway, tangle.ambient, ground,
               entry.volume, entry.provenance))]
        if ground == signature:
            return HyperbolicityCertificate(tangle, signature,
                                            "DatabaseEntry", tuple(chain))
        chain.append(RuleStep(monotone[0], "%s; %r extends to %r"
                              % (monotone[1], ground, signature)))
        return HyperbolicityCertificate(tangle, signature, "Monotonicity",
                                        tuple(chain))

    counterevidence = []
    zero = recorded.get(signature)
    if zero is not None and zero.volume is NON_HYPERBOLIC:
        counterevidence.append(
            "recorded as not hyperbolic at %r" % (signature,))

    if tangle.family == "reciprocal-saucer" and len(signature) == 1:
        from . import arborescent
        try:
            value = arborescent.parse_conway(tangle.conway)
        except arborescent.ParseError:
            value = None
        if value is not None:
            verdict = arborescent.classify(
                arborescent.RationalLeaf(value))
            principal = arborescent.principal_signature(verdict)
            if principal is not None and not counterevidence \
                    and principal[0] <= signature[0]:
                chain = [RuleStep(
                    "classification",
                    "arborescent verdict %s: %s"
                    % (verdict.verdict, "; ".join(verdict.reasons)))]
                if principal != signature:
                    chain.append(RuleStep(
                        monotone[0], "%s; %r extends to %r"
                        % (monotone[1], principal, signature)))
                return HyperbolicityCertificate(
                    tangle, signature, "Classification", tuple(chain))
            if principal is None:
                counterevidence.append(
                    "classified entirely non-hyperbolic")
            elif principal[0] > signature[0]:
                counterevidence.append(
                    "classified principally %d-hyperbolic, above the "
                    "requested %r" % (principal[0], signature))

    return UnknownHyperbolicity(
        tangle, signature,
        "no recorded entry or rule grounds hyperbolicity at %r"
        % (signature,), tuple(counterevidence))


class Term(NamedTuple):
    family: str
    conway: str
    signature: tuple
    volume: Decimal
    provenance: str
    basis: str


class ClassicalBound(NamedTuple):
    name: str
    kind: str
    value: Decimal


class BoundReport(NamedTuple):
    """One volume lower bound: rule, terms (slot i's is terms[i]), total."""
    name: str
    arrangement: str
    ambient: str
    rule: str
    terms: tuple
    total: Fraction
    equality_note: str
    comparisons: tuple = ()
    reference_volume: str = None

    def to_json_dict(self, places=8):
        out = {
            "name": self.name,
            "arrangement": self.arrangement,
            "ambient": self.ambient,
            "rule": self.rule,
            "terms": [{
                "slot": i,
                "family": t.family, "conway": t.conway,
                "signature": list(t.signature), "volume": str(t.volume),
                "provenance": t.provenance, "basis": t.basis,
            } for i, t in enumerate(self.terms)],
            "total": format_fixed(self.total, places),
            "total_exact": "%d/%d" % (self.total.numerator,
                                      self.total.denominator),
            "equality_note": self.equality_note,
        }
        if self.comparisons:
            out["comparisons"] = [
                {"name": c.name, "kind": c.kind,
                 "value": format_fixed(c.value, places)}
                for c in self.comparisons]
        if self.reference_volume is not None:
            out["reference_volume"] = {
                "value": self.reference_volume,
                "note": "externally computed reference; not derived here",
            }
        return out

    def to_markdown(self, places=8):
        lines = ["# Volume lower bound: %s" % self.name, ""]
        lines.append("- arrangement: %s in %s" % (self.arrangement,
                                                  self.ambient))
        lines.append("- rule: %s" % self.rule)
        lines.append("")
        lines.append("| slot | tangle | signature | volume | basis |")
        lines.append("| --- | --- | --- | --- | --- |")
        for i, t in enumerate(self.terms):
            lines.append("| %s | %s %s | %s | %s | %s |" % (
                i, t.family, t.conway,
                "(%s)" % ", ".join(str(n) for n in t.signature),
                t.volume, t.basis))
        lines.append("")
        lines.append("**Total: %s**" % format_fixed(self.total, places))
        lines.append("")
        lines.append("Note: %s." % self.equality_note)
        for c in self.comparisons:
            lines.append("- %s (%s): %s" % (c.name, c.kind,
                                            format_fixed(c.value, places)))
        if self.reference_volume is not None:
            lines.append("")
            lines.append("Reference volume %s (externally computed; "
                         "not derived here)." % self.reference_volume)
        return "\n".join(lines) + "\n"


def format_fixed(value, places=8):
    """Render a Fraction or Decimal fixed-point, banker's rounding.

    The rounding is exact at any size: round() of a Fraction rounds half
    to even, and a Decimal built from an int keeps every digit.  The
    digits come from Decimal, not from str() of the int, which refuses
    more than sys.get_int_max_str_digits() digits, and are written with
    the "f" format, since str() of a Decimal writes 0 and values below
    10**-6 in scientific notation."""
    if not 1 <= places <= 12:
        raise BoundsError("places must be within 1..12")
    scaled = round(Fraction(value) * 10 ** places)
    sign, digits, _ = Decimal(scaled).as_tuple()
    return format(Decimal((sign, digits, -places)), "f")


class SlotSpec(NamedTuple):
    family: str
    conway: str
    orientation: str
    signature: tuple  # () unless the arrangement is custom


class _Arrangement(NamedTuple):
    family: str     # what a slot defaults to
    elsewhere: str  # the refusal of an ambient not in rules
    rules: dict     # ambient -> (bound rule, LinkSpec -> signature)


_FIXED = {
    "bracelet": _Arrangement(
        "reciprocal-saucer", "bracelet bounds hold in S3, not %s",
        {"S3": ("bracelet-cycle-bound", lambda s: (len(s.slots),))}),
    "lattice": _Arrangement(
        "rational-square", "lattice bounds hold in S3, TxI, or S2xS1, not %s",
        {"S3": ("torus-lattice-bound", lambda s: (s.cols, s.rows)),
         "TxI": ("cube-decomposition-bound", lambda s: (2, 2)),
         "S2xS1": ("sphere-product-lattice-bound", lambda s: (2, s.rows))}),
    "cylinder-stack": _Arrangement(
        "integer-cylindrical",
        "cylinder stacks close up in TxI or the solid torus, not %s",
        {"TxI": ("thickened-torus-stack-bound", lambda s: (2,)),
         "SolidTorus": ("solid-torus-stack-bound", lambda s: (2,))}),
}


class LinkSpec(NamedTuple):
    name: str
    arrangement: str
    ambient: str
    slots: tuple
    rows: int = 0
    cols: int = 0
    reference_volume: str = None


def parse_link_spec(data):
    """Check a link description, a dict (JSON schema in README) or a
    hand-built LinkSpec read in its dict form, and return its LinkSpec.

    The one checker of link descriptions; every refusal is a BoundsError
    naming the slot or field.  Of the gluing, only the count and shape of
    the slots can be wrong: the templates glued (saucers, squares,
    cylinders) always meet with equal endpoint counts.

    A link lists a few tangles many times, so each slot is checked once,
    at its first index, and its repeats share that one SlotSpec.  A
    string slot repeats when an equal exact str recurs; any other slot
    (a dict or a SlotSpec, such as the shared SlotSpecs of a parsed
    LinkSpec passed back in) when the same object recurs.  The slots
    list holds every object for the whole check, so no id is reused,
    and one object always checks the same way.  Each SlotSpec's
    family, conway and orientation and the LinkSpec's ambient are exact
    strs, even where the description held a str subclass.
    """
    if isinstance(data, LinkSpec):
        data = data._asdict()
    if not isinstance(data, dict):
        raise BoundsError("a link description is a JSON object, got %s"
                          % type(data).__name__)
    arrangement = data.get("arrangement")
    if arrangement not in ARRANGEMENTS:
        raise ArrangementInvalid("unknown arrangement %r" % (arrangement,))
    ambient = data.get("ambient")
    if ambient not in AMBIENTS:
        raise BoundsError("unknown ambient %r" % (ambient,))
    ambient = str(ambient)
    fixed = _FIXED.get(arrangement)

    raw_slots = data.get("slots")
    repeat = 1
    rows, cols = data.get("rows", 0), data.get("cols", 0)
    # int() would read 2.9 as 2 and overflow on infinity; bool is an int
    if type(rows) is not int or type(cols) is not int:
        raise ArrangementInvalid("rows and cols must be integers, got %r "
                                 "and %r" % (rows, cols))
    if arrangement == "lattice":
        if rows <= 0 or cols <= 0:
            raise ArrangementInvalid("a lattice needs rows and cols")
        if rows * cols > repvol.COPY_LIMIT:
            raise ArrangementInvalid(
                "a %d x %d lattice has more than %d slots"
                % (rows, cols, repvol.COPY_LIMIT))
        if raw_slots is None and "slot" in data:
            # one slot for every cell: check it once, as slot 0, and
            # repeat its SlotSpec
            raw_slots, repeat = [data["slot"]], rows * cols
        elif not isinstance(raw_slots, (list, tuple)) \
                or len(raw_slots) != rows * cols:
            raise ArrangementInvalid(
                "a %d x %d lattice needs %d slots (row-major)"
                % (rows, cols, rows * cols))
    elif raw_slots is None:
        raise BoundsError("link description needs slots")
    elif not isinstance(raw_slots, (list, tuple)):
        raise BoundsError("slots must be a list, got %r" % (raw_slots,))

    slots = []
    checked = {}  # an exact-str slot, or id() of any other -> its SlotSpec
    for i, raw in enumerate(raw_slots):
        key = raw if type(raw) is str else id(raw)
        spec = checked.get(key)
        if spec is not None:
            slots.append(spec)
            continue
        if isinstance(raw, str):
            raw = {"conway": raw}
        elif isinstance(raw, SlotSpec):
            raw = raw._asdict()
        elif not isinstance(raw, dict):
            raise BoundsError("slot %d must be a string or an object" % i)
        family = raw.get("family", fixed.family if fixed else None)
        if family is None:
            raise BoundsError("slot %d needs an explicit family" % i)
        if family not in FAMILIES:
            raise BoundsError("slot %d: unknown family %r" % (i, family))
        signature = raw.get("signature", ())
        if not isinstance(signature, (list, tuple)):
            raise BoundsError("slot %d: signature must be a list" % i)
        if arrangement == "custom":
            if not signature:
                raise BoundsError(
                    "custom slots need explicit signatures (slot %d)" % i)
            try:
                signature = _normalize_signature(signature)
            except BoundsError as exc:
                raise BoundsError("slot %d: %s" % (i, exc)) from None
        elif signature:
            raise BoundsError("only custom arrangements take per-slot "
                              "signatures (slot %d)" % i)
        conway = raw.get("conway")
        if not isinstance(conway, str):
            raise BoundsError("slot %d: conway must be a string" % i)
        orientation = raw.get("orientation", "standard")
        if not isinstance(orientation, str):
            raise BoundsError("slot %d: orientation must be a string" % i)
        try:
            conway = _normalize_conway(conway)
        except BoundsError as exc:
            raise BoundsError("slot %d: %s" % (i, exc)) from None
        checked[key] = SlotSpec(str(family), conway, str(orientation),
                                tuple(signature))
        slots.append(checked[key])
    slots *= repeat

    refusal = shape_refusal(arrangement, len(slots), rows, cols)
    if refusal is not None:
        raise ArrangementInvalid(refusal)
    if fixed and ambient not in fixed.rules:
        raise ArrangementInvalid(fixed.elsewhere % ambient)

    name = data.get("name", arrangement)
    if not isinstance(name, str):
        raise BoundsError("name must be a string, got %r" % (name,))
    reference = data.get("reference_volume")
    if reference is not None and (
            isinstance(reference, bool)
            or not isinstance(reference, (str, int, float, Decimal,
                                          Fraction))):
        raise BoundsError("reference_volume must be a string or a number, "
                          "got %r" % (reference,))
    return LinkSpec(name, arrangement, ambient, tuple(slots), rows, cols,
                    str(reference) if reference is not None else None)


def _demanded_signatures(spec):
    """The bound rule of a checked spec and the signature of each slot."""
    if spec.arrangement == "custom":
        return "declared-decomposition-bound", [s.signature
                                                for s in spec.slots]
    rule, demand = _FIXED[spec.arrangement].rules[spec.ambient]
    return rule, [demand(spec)] * len(spec.slots)


def _certify_entry(db, ref, signature):
    """(certificate, entry, Fraction volume) for a slot or factor, or the
    text of its refusal."""
    verdict = certify_hyperbolic(db, ref, signature)
    if isinstance(verdict, UnknownHyperbolicity):
        return "; ".join(verdict.counterevidence) or verdict.reason
    try:
        entry = db.entry(ref.family, ref.conway, ref.ambient, signature,
                         ref.orientation)
    except NotFound:
        return ("certified hyperbolic at %r but no volume is recorded there"
                % (signature,))
    if entry.volume is NON_HYPERBOLIC:
        return "recorded as not hyperbolic at %r" % (signature,)
    return verdict, entry, Fraction(entry.volume)


def _certified_entry(db, ref, signature, label, slot=None):
    """Certify a link slot or compose factor and fetch its volume entry,
    as (certificate, entry, exact Fraction volume); a refusal opens with
    ``label`` and the tangle, and carries ``slot``.

    The outcome is computed once per table and (ref, signature) and kept
    on the table (see VolumeDB); a kept refusal is raised as a new
    UncertifiedTangle under this call's label and slot.  Every key is
    exact where it enters: parse_link_spec and _tangle_operand make each
    TangleRef field a str, and signatures are normalised int tuples, so
    no two keys that compare equal read different rows (2 == 2.0, but
    the conways 2 and 2.0 read as the rows "2" and "2.0")."""
    key = (ref, signature)
    outcome = db._certified.get(key)
    if outcome is None:
        outcome = _certify_entry(db, ref, signature)
        if len(db._certified) < _CERTIFIED_LIMIT:
            db._certified[key] = outcome
    if type(outcome) is str:
        raise UncertifiedTangle("%s (%s %s): %s" % (label, ref.family,
                                                    ref.conway, outcome),
                                slot=slot)
    return outcome


def lower_bound(db, spec, comparisons=()):
    """Dispatch a link description to its bound rule and sum the terms.

    The description, a dict or a hand-built LinkSpec, first passes the
    one checker, parse_link_spec().  Every slot must be certifiable at
    the signature the rule demands, and the volume must be recorded at
    exactly that signature.  Slot reflections share the unreflected
    tangle's database key, so a reflected slot needs no separate row.

    Each distinct (slot, demand) is certified and looked up once per
    table, not once per call: the table keeps the outcome (see
    VolumeDB).  Every slot repeating a key shares one Term.  The total
    adds each distinct exact volume times its slot count over one
    common denominator, the lcm of the volumes' denominators, so only
    the sum is normalised (an empty arrangement totals Fraction(0)).
    Terms stay in slot order, and a refusal names the first failing
    slot.
    """
    spec = parse_link_spec(spec)
    rule, demands = _demanded_signatures(spec)

    known = {}  # (slot, demand) -> [Term, exact volume, slots sharing it]
    terms = []
    for i, key in enumerate(zip(spec.slots, demands)):
        shared = known.get(key)
        if shared is None:
            slot, demand = key
            ref = TangleRef(slot.family, slot.conway, spec.ambient,
                            slot.orientation)
            verdict, entry, volume = _certified_entry(
                db, ref, demand, "slot %d" % i, slot=i)
            shared = known[key] = [
                Term(slot.family, slot.conway, demand, entry.volume,
                     entry.provenance, verdict.basis), volume, 0]
        shared[2] += 1
        terms.append(shared[0])
    kept = known.values()
    den = math.lcm(*(volume.denominator for _, volume, _ in kept))
    total = Fraction(sum(volume.numerator * (den // volume.denominator)
                         * count for _, volume, count in kept), den)
    return BoundReport(spec.name, spec.arrangement, spec.ambient, rule,
                       tuple(terms), total, EQUALITY_NOTE,
                       tuple(comparisons), spec.reference_volume)


class ComposedBound(NamedTuple):
    """A certified composite with its additive or averaged bound."""
    certificate: HyperbolicityCertificate
    bound: Fraction
    rule: str


def _tangle_operand(operand):
    """A ComposedBound as is; else a TangleRef of known names, each
    field made a str (the conway 2 reads as "2", as the table does)."""
    if isinstance(operand, ComposedBound):
        return operand
    if not isinstance(operand, (tuple, list)) or not 3 <= len(operand) <= 4:
        raise BoundsError("a tangle operand must be a ComposedBound or a "
                          "(family, conway, ambient[, orientation]) "
                          "sequence, got %r" % (operand,))
    ref = TangleRef(*operand)
    _check_names(ref.family, ref.ambient)
    return TangleRef(*map(str, ref))


def _factor(db, operand, signature, ambient, rule):
    if isinstance(operand, ComposedBound):
        if operand.rule != rule:
            raise BoundsError("composite built by the %s rule cannot "
                              "join a %s chain" % (operand.rule, rule))
        return operand
    if operand.ambient != ambient:
        raise BoundsError("factor ambient %s does not match the rule's %s"
                          % (operand.ambient, ambient))
    verdict, _, volume = _certified_entry(db, operand, signature, "factor")
    return ComposedBound(verdict, volume, rule)


_FACE_COUNTS = {"reciprocal-saucer": 2, "integer-cylindrical": 2,
                "rational-square": 1}


def _check_composable(a, b):
    def count(operand):
        tangle = operand.certificate.tangle \
            if isinstance(operand, ComposedBound) else operand
        if isinstance(tangle, TangleRef):
            return _FACE_COUNTS[tangle.family]
        return None  # composite of composites: counts already matched

    ca, cb = count(a), count(b)
    if ca is not None and cb is not None and ca != cb:
        from .pieces import EndpointMismatch
        raise EndpointMismatch(
            "factors meet with %d and %d strand endpoints" % (ca, cb))


def compose_bound(db, tangle_a, tangle_b=None, rule="thickened-cylinder",
                  signature=(2,)):
    """Certify a two-factor composite and bound its volume.

    rule "thickened-cylinder": both factors certified at (2,) in TxI;
    the boundary between them separates, so the bound is the sum.  rule
    "saucer": factors certified at double the target signature; the
    target replicant decomposes into the factors' doubled replicants and
    the bound averages the two.  A missing second factor returns the
    first unchanged (one-fold composition).
    """
    signature = _normalize_signature(signature)
    if rule == "thickened-cylinder":
        ambient, ground_sig = "TxI", (2,)
        if signature != (2,):
            raise BoundsError("thickened-cylinder composition is a "
                              "2-volume rule")
    elif rule == "saucer":
        if len(signature) != 1:
            raise BoundsError("saucer composition takes a one-index "
                              "signature")
        if isinstance(tangle_a, ComposedBound) \
                or isinstance(tangle_b, ComposedBound):
            # the averaged rule needs every factor's volume at the
            # doubled signature; an already-averaged bound has lost it
            raise BoundsError("saucer composition does not chain; give "
                              "tangle references")
        ambient, ground_sig = "S3", (2 * signature[0],)
    else:
        raise BoundsError("unknown composition rule %r" % (rule,))

    tangle_a = _tangle_operand(tangle_a)
    if tangle_b is None:
        return _factor(db, tangle_a, signature, ambient, rule)
    tangle_b = _tangle_operand(tangle_b)

    _check_composable(tangle_a, tangle_b)
    left = _factor(db, tangle_a, ground_sig, ambient, rule)
    right = _factor(db, tangle_b, ground_sig, ambient, rule)

    def label(side):
        tangle = side.certificate.tangle
        if isinstance(tangle, TangleRef):
            return tangle.conway
        return tangle

    name = "%s o %s" % (label(left), label(right))
    if rule == "thickened-cylinder":
        step = RuleStep("stack-composition",
                        "the separating boundary keeps both factors "
                        "2-hyperbolic and their 2-volumes add")
        bound = left.bound + right.bound
    else:
        step = RuleStep("cyclic-composition",
                        "the %r-replicant of the composite decomposes "
                        "into the factors' %r-replicants; the bound "
                        "averages their volumes" % (signature, ground_sig))
        bound = (left.bound + right.bound) / 2
    certificate = HyperbolicityCertificate(
        name, signature, "Composition",
        left.certificate.chain + right.certificate.chain + (step,))
    return ComposedBound(certificate, bound, rule)


def classical_bounds(twist_number, category):
    """Twist-number volume bounds for diagram comparison lines."""
    if type(twist_number) is not int:
        raise BoundsError("twist number must be an integer, got %r"
                          % (twist_number,))
    t = twist_number
    if t < 2:
        raise BadTwistNumber("twist-number formulas need t >= 2, got %d"
                             % t)
    if category not in ("alternating", "montesinos"):
        raise BoundsError("unknown category %r" % (category,))
    with localcontext() as ctx:
        # digits enough for t times a constant, halved: nothing rounds
        ctx.prec = t.bit_length() // 3 + 12
        out = [
            ClassicalBound("alternating-twist lower", "lower",
                           V_OCT * (t - 2) / 2),
            ClassicalBound("alternating-twist upper", "upper",
                           10 * V_TET * (t - 1)),
        ]
        if category == "montesinos":
            out.append(ClassicalBound("montesinos-family lower", "lower",
                                      V_OCT * t / 2))
    return out


class Violation(NamedTuple):
    kind: str
    subject: str
    detail: str


def limit_check(db):
    """Reciprocal entries must sit strictly below their limit volumes.

    Also checks each limit against the ceiling they approach (the
    Borromean rings volume).  Returns the violations found.
    """
    out = []
    for key, entry in sorted(db.entries.items()):
        family, conway, ambient, signature, orientation = key
        if family != "reciprocal-saucer" or entry.volume is NON_HYPERBOLIC:
            continue
        limit = db.limit_for(conway)
        if limit is not None and entry.volume >= limit:
            out.append(Violation(
                "entry-above-limit", conway,
                "entry %s at %r is not below the limit %s"
                % (entry.volume, signature, limit)))
    for conway, limit in sorted(db.limits.items()):
        if limit >= BORROMEAN_VOLUME:
            out.append(Violation(
                "limit-above-ceiling", conway,
                "limit %s is not below %s" % (limit, BORROMEAN_VOLUME)))
    return out


def column_monotonicity(db):
    """Data observation: reciprocal volumes grow with the signature.

    This is a check on the shipped numbers, not a derived rule; only
    hyperbolicity, never volume, is known to transport along increasing
    signatures.  Zero rows participate as zero.
    """
    # Columns in the order of their least one-index row among the
    # sorted table keys.
    columns = {}
    for (family, conway, ambient, orientation), rows in db._columns.items():
        firsts = [sig for sig in rows if len(sig) == 1]
        if family == "reciprocal-saucer" and firsts:
            columns[family, conway, ambient, min(firsts), orientation] = rows
    out = []
    for (_, conway, _, _, _), recorded in sorted(columns.items()):
        values = []
        for sig in sorted(s for s in recorded if len(s) == 1):
            entry = recorded[sig]
            values.append((sig, Decimal(0)
                           if entry.volume is NON_HYPERBOLIC
                           else entry.volume))
        for (sig_a, val_a), (sig_b, val_b) in zip(values, values[1:]):
            if val_a >= val_b:
                out.append(Violation(
                    "column-not-increasing", conway,
                    "value %s at %r does not exceed %s at %r"
                    % (val_b, sig_b, val_a, sig_a)))
    return out
