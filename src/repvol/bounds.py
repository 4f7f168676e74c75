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

Totals are computed as exact Fractions and rendered fixed-point.
"""

import json
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from . import arborescent
from .pieces import EndpointMismatch

FAMILIES = ("rational-square", "integer-cylindrical", "reciprocal-saucer")
AMBIENTS = ("TxI", "SolidTorus", "S3", "S2xS1")
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


class UncertifiedTangle(BoundsError):
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
    """Collapse whitespace; a leading minus (the tangle's reflection)
    keys to the unreflected row, mirror volumes being equal."""
    out = " ".join(str(text).split())
    if out.startswith("-") and len(out) > 1:
        out = out[1:].lstrip()
    if not out:
        raise BoundsError("empty tangle notation")
    return out


def _normalize_signature(signature):
    try:
        out = tuple(int(n) for n in signature)
    except TypeError:
        raise BoundsError("signature must be a tuple of even counts") \
            from None
    if not out or any(n <= 0 or n % 2 for n in out):
        raise BoundsError("signature entries must be positive and even, "
                          "got %r" % (signature,))
    return out


def _key(family, conway, ambient, signature, orientation):
    if family not in FAMILIES:
        raise BoundsError("unknown family %r" % family)
    if ambient not in AMBIENTS:
        raise BoundsError("unknown ambient %r" % ambient)
    return (family, _normalize_conway(conway), ambient,
            _normalize_signature(signature), str(orientation))


class VolumeDB:
    """Immutable volume table plus limit volumes.

    ``entries`` maps (family, conway, ambient, signature, orientation)
    to an Entry whose volume is a positive Decimal or NON_HYPERBOLIC;
    ``limits`` maps reciprocal-tangle notation to the volume its
    replicants approach from below.
    """

    def __init__(self, entries, limits):
        table = {}
        for key, entry in dict(entries).items():
            key = _key(*key)
            volume, provenance = entry
            if volume is not NON_HYPERBOLIC:
                volume = Decimal(volume)
                if volume <= 0:
                    raise BoundsError("volumes must be positive, got %s"
                                      % volume)
            if key in table:
                raise BoundsError("duplicate entry for %r" % (key,))
            table[key] = Entry(volume, str(provenance))
        self.entries = table
        self.limits = {_normalize_conway(c): Decimal(v)
                       for c, v in dict(limits).items()}
        for conway, limit in self.limits.items():
            if limit <= 0:
                raise BoundsError("limit volumes must be positive")

    @classmethod
    def from_json_dict(cls, data, provenance="user"):
        entries = {}
        for row in data.get("entries", ()):
            key = (row["family"], row["conway"], row["ambient"],
                   tuple(row["signature"]),
                   row.get("orientation", "standard"))
            volume = str(row["volume"])
            value = NON_HYPERBOLIC if Decimal(volume) == 0 else volume
            entries[key] = (value, row.get("provenance", provenance))
        return cls(entries, data.get("limits", {}))

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
        conway = _normalize_conway(conway)
        return {key[3]: entry for key, entry in self.entries.items()
                if key[:3] == (family, conway, ambient)
                and key[4] == orientation}

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

    def to_json_dict(self):
        tangle = self.tangle
        if isinstance(tangle, TangleRef):
            tangle = dict(tangle._asdict())
        return {"tangle": tangle, "signature": list(self.signature),
                "basis": self.basis,
                "chain": [{"rule": s.rule, "detail": s.detail}
                          for s in self.chain]}


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
                    rule = _monotonicity_rule(tangle, signature)
                    chain.append(RuleStep(
                        rule[0], "%s; %r extends to %r"
                        % (rule[1], principal, signature)))
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
    slot: object
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
    """One volume lower bound: rule, per-slot terms, exact total."""
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
                "slot": list(t.slot) if isinstance(t.slot, tuple)
                else t.slot,
                "family": t.family, "conway": t.conway,
                "signature": list(t.signature), "volume": str(t.volume),
                "provenance": t.provenance, "basis": t.basis,
            } for t in self.terms],
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
        for t in self.terms:
            lines.append("| %s | %s %s | %s | %s | %s |" % (
                t.slot, t.family, t.conway,
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
    """Render a Fraction or Decimal fixed-point, banker's rounding."""
    if not 1 <= places <= 12:
        raise BoundsError("places must be within 1..12")
    with localcontext() as ctx:
        ctx.prec = 50
        if isinstance(value, Fraction):
            value = Decimal(value.numerator) / Decimal(value.denominator)
        else:
            value = Decimal(value)
        return str(value.quantize(Decimal(1).scaleb(-places),
                                  rounding=ROUND_HALF_EVEN))


class SlotSpec(NamedTuple):
    family: str
    conway: str
    orientation: str
    signature: tuple  # () unless the arrangement is custom


_DEFAULT_FAMILY = {
    "bracelet": "reciprocal-saucer",
    "lattice": "rational-square",
    "cylinder-stack": "integer-cylindrical",
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
    """Read a link description dict (see the JSON schema in README)."""
    arrangement = data.get("arrangement")
    if arrangement not in ARRANGEMENTS:
        raise ArrangementInvalid("unknown arrangement %r" % (arrangement,))
    ambient = data.get("ambient")
    if ambient not in AMBIENTS:
        raise BoundsError("unknown ambient %r" % (ambient,))

    raw_slots = data.get("slots")
    rows = int(data.get("rows", 0))
    cols = int(data.get("cols", 0))
    if arrangement == "lattice":
        if rows <= 0 or cols <= 0:
            raise ArrangementInvalid("a lattice needs rows and cols")
        if raw_slots is None and "slot" in data:
            raw_slots = [data["slot"]] * (rows * cols)
        if raw_slots is None or len(raw_slots) != rows * cols:
            raise ArrangementInvalid(
                "a %d x %d lattice needs %d slots (row-major)"
                % (rows, cols, rows * cols))
    elif raw_slots is None:
        raise BoundsError("link description needs slots")

    slots = []
    for i, raw in enumerate(raw_slots):
        if isinstance(raw, str):
            raw = {"conway": raw}
        family = raw.get("family", _DEFAULT_FAMILY.get(arrangement))
        if family is None:
            raise BoundsError("slot %d needs an explicit family" % i)
        signature = tuple(raw.get("signature", ()))
        if arrangement == "custom":
            if not signature:
                raise BoundsError(
                    "custom slots need explicit signatures (slot %d)" % i)
            signature = _normalize_signature(signature)
        elif signature:
            raise BoundsError("only custom arrangements take per-slot "
                              "signatures (slot %d)" % i)
        slots.append(SlotSpec(family, _normalize_conway(raw["conway"]),
                              raw.get("orientation", "standard"),
                              signature))
    reference = data.get("reference_volume")
    return LinkSpec(data.get("name", arrangement), arrangement, ambient,
                    tuple(slots), rows, cols,
                    str(reference) if reference is not None else None)


def _check_arrangement(spec):
    """Refuse a slot count or grid shape the arrangement cannot glue up.

    Bracelets, lattices and stacks glue fixed templates (saucers, squares,
    two-strand cylinders) whose glued faces always carry equal endpoint
    counts, so the count and shape of the slots are all that can be wrong.
    """
    count = len(spec.slots)
    if spec.arrangement == "bracelet":
        if count < 2 or count % 2:
            raise ArrangementInvalid("a bracelet needs an even number of "
                                     "tangles, at least two, got %d" % count)
    elif spec.arrangement == "lattice":
        rows, cols = spec.rows, spec.cols
        if rows < 1 or count != rows * cols:
            raise ArrangementInvalid("lattice grid must be rectangular")
        if rows < 2 or cols < 2 or rows % 2 or cols % 2:
            raise ArrangementInvalid("lattice dimensions must be even and at "
                                     "least 2 x 2, got %d x %d" % (rows, cols))
    elif spec.arrangement == "cylinder-stack" and not count:
        raise ArrangementInvalid("a cylinder stack needs at least one tangle")


def _demanded_signatures(spec):
    if spec.arrangement == "bracelet":
        if spec.ambient != "S3":
            raise ArrangementInvalid("bracelet bounds hold in S3, not %s"
                                     % spec.ambient)
        demand = (len(spec.slots),)
        return "bracelet-cycle-bound", [demand] * len(spec.slots)
    if spec.arrangement == "lattice":
        if spec.ambient == "S3":
            demand = (spec.cols, spec.rows)
            return "torus-lattice-bound", [demand] * len(spec.slots)
        if spec.ambient == "TxI":
            return "cube-decomposition-bound", [(2, 2)] * len(spec.slots)
        if spec.ambient == "S2xS1":
            demand = (2, spec.rows)
            return "sphere-product-lattice-bound", \
                [demand] * len(spec.slots)
        raise ArrangementInvalid("lattice bounds hold in S3, TxI, or "
                                 "S2xS1, not %s" % spec.ambient)
    if spec.arrangement == "cylinder-stack":
        if spec.ambient == "TxI":
            return "thickened-torus-stack-bound", [(2,)] * len(spec.slots)
        if spec.ambient == "SolidTorus":
            return "solid-torus-stack-bound", [(2,)] * len(spec.slots)
        raise ArrangementInvalid("cylinder stacks close up in TxI or the "
                                 "solid torus, not %s" % spec.ambient)
    return "declared-decomposition-bound", [s.signature for s in spec.slots]


def lower_bound(db, spec, comparisons=()):
    """Dispatch a link description to its bound rule and sum the terms.

    Every slot must be certifiable at the signature the rule demands,
    and the volume must be recorded at exactly that signature.  Slot
    reflections share the unreflected tangle's database key, so a
    reflected slot needs no separate row.
    """
    if not isinstance(spec, LinkSpec):
        spec = parse_link_spec(spec)
    _check_arrangement(spec)
    rule, demands = _demanded_signatures(spec)

    terms = []
    total = Fraction(0)
    for i, (slot, demand) in enumerate(zip(spec.slots, demands)):
        ref = TangleRef(slot.family, slot.conway, spec.ambient,
                        slot.orientation)
        verdict = certify_hyperbolic(db, ref, demand)
        if isinstance(verdict, UnknownHyperbolicity):
            detail = "; ".join(verdict.counterevidence) or verdict.reason
            raise UncertifiedTangle(
                "slot %d (%s %s): %s" % (i, slot.family, slot.conway,
                                         detail), slot=i)
        try:
            entry = db.entry(slot.family, slot.conway, spec.ambient,
                             demand, slot.orientation)
        except NotFound:
            raise UncertifiedTangle(
                "slot %d (%s %s): certified hyperbolic at %r but no "
                "volume is recorded there" % (i, slot.family, slot.conway,
                                              demand), slot=i) from None
        if entry.volume is NON_HYPERBOLIC:
            raise UncertifiedTangle(
                "slot %d (%s %s): recorded as not hyperbolic at %r"
                % (i, slot.family, slot.conway, demand), slot=i)
        terms.append(Term(i, slot.family, slot.conway, demand,
                          entry.volume, entry.provenance, verdict.basis))
        total += Fraction(entry.volume)
    return BoundReport(spec.name, spec.arrangement, spec.ambient, rule,
                       tuple(terms), total, EQUALITY_NOTE,
                       tuple(comparisons), spec.reference_volume)


class ComposedBound(NamedTuple):
    """A certified composite with its additive or averaged bound."""
    certificate: HyperbolicityCertificate
    bound: Fraction
    rule: str


def _factor(db, operand, signature, ambient, rule):
    if isinstance(operand, ComposedBound):
        if operand.rule != rule:
            raise BoundsError("composite built by the %s rule cannot "
                              "join a %s chain" % (operand.rule, rule))
        return operand
    ref = TangleRef(*operand)
    if ref.ambient != ambient:
        raise BoundsError("factor ambient %s does not match the rule's %s"
                          % (ref.ambient, ambient))
    verdict = certify_hyperbolic(db, ref, signature)
    if isinstance(verdict, UnknownHyperbolicity):
        raise UncertifiedTangle("factor %s %s: %s"
                                % (ref.family, ref.conway, verdict.reason))
    try:
        volume = db.query(ref.family, ref.conway, ref.ambient, signature,
                          ref.orientation)
    except NotFound:
        raise UncertifiedTangle(
            "factor %s %s: no recorded volume at %r"
            % (ref.family, ref.conway, signature)) from None
    if volume is NON_HYPERBOLIC:
        raise UncertifiedTangle("factor %s %s: recorded as not hyperbolic "
                                "at %r" % (ref.family, ref.conway, signature))
    return ComposedBound(verdict, Fraction(volume), rule)


_FACE_COUNTS = {"reciprocal-saucer": 2, "integer-cylindrical": 2,
                "rational-square": 1}


def _check_composable(a, b):
    def count(operand):
        if isinstance(operand, ComposedBound):
            tangle = operand.certificate.tangle
            if isinstance(tangle, TangleRef):
                return _FACE_COUNTS[tangle.family]
            return None  # composite of composites: counts already matched
        return _FACE_COUNTS[TangleRef(*operand).family]

    ca, cb = count(a), count(b)
    if ca is not None and cb is not None and ca != cb:
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

    if tangle_b is None:
        return _factor(db, tangle_a, signature, ambient, rule)

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
    t = int(twist_number)
    if t < 2:
        raise BadTwistNumber("twist-number formulas need t >= 2, got %d"
                             % t)
    if category not in ("alternating", "montesinos"):
        raise BoundsError("unknown category %r" % (category,))
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
    out = []
    seen = set()
    for key in sorted(db.entries):
        family, conway, ambient, signature, orientation = key
        if family != "reciprocal-saucer" or len(signature) != 1:
            continue
        column = (family, conway, ambient, orientation)
        if column in seen:
            continue
        seen.add(column)
        recorded = db.recorded_signatures(family, conway, ambient,
                                          orientation)
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
