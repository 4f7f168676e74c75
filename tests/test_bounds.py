"""Tests for the volume database, certification rules, and bound dispatch."""

import json
import itertools
import random
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import repvol
from repvol import arborescent, bounds, pieces


@pytest.fixture(scope="module")
def db():
    return bounds.VolumeDB.builtin()


def test_builtin_shape(db):
    assert len(db.entries) == 55
    assert len(db.limits) == 4
    assert all(e.provenance == "builtin" for e in db.entries.values())


def test_query_tetrahedral_bigon(db):
    value = db.query("rational-square", "2", "S3", (2, 2))
    assert value == Decimal("3.13223067")


def test_query_clasp(db):
    value = db.query("reciprocal-saucer", "1/2", "S3", (6,))
    assert value == Decimal("2.44257492")


def test_query_zero_row_is_marker_not_absence(db):
    value = db.query("reciprocal-saucer", "1/2", "S3", (4,))
    assert value is bounds.NON_HYPERBOLIC


def test_non_hyperbolic_repr():
    assert repr(bounds.NON_HYPERBOLIC) == "NON_HYPERBOLIC"


def test_query_missing(db):
    with pytest.raises(bounds.NotFound):
        db.query("reciprocal-saucer", "1/7", "S3", (4,))
    with pytest.raises(bounds.NotFound):
        db.query("rational-square", "2", "S3", (2, 2),
                 orientation="rotated")


def test_query_normalizes_notation(db):
    assert db.query("rational-square", "  2   1 ", "S3",
                    (2, 2)) == Decimal("5.81283664")
    # a leading minus is the reflection, which shares its mirror's volume
    assert db.query("reciprocal-saucer", "-1/2", "S3",
                    (6,)) == Decimal("2.44257492")


def test_normalize_conway_is_idempotent(db):
    for text in ("1/4", "-1/4", "--1/9", "- - 2 1", " -2  1 ", "2 1",
                 "- -- 1/3"):
        once = bounds._normalize_conway(text)
        assert bounds._normalize_conway(once) == once
        assert not once.startswith("-")
    assert bounds._normalize_conway("--1/9") == "1/9"
    assert bounds._normalize_conway("- - 2 1") == "2 1"
    for empty in ("", "  ", "-", "- -"):
        with pytest.raises(bounds.BoundsError, match="empty tangle notation"):
            bounds._normalize_conway(empty)
    assert set(db.extended([]).entries) == set(db.entries)
    extended = db.extended([{
        "family": "reciprocal-saucer", "conway": "--1/9", "ambient": "S3",
        "signature": [8], "volume": "3.0"}])
    assert extended.query("reciprocal-saucer", "1/9", "S3", (8,)) \
        == Decimal("3.0")
    assert set(extended.extended([]).entries) == set(extended.entries)


def test_db_validation(db):
    with pytest.raises(bounds.BoundsError):
        bounds.VolumeDB({("no-such-family", "2", "S3", (2,), "standard"):
                         ("1.5", "user")}, {})
    with pytest.raises(bounds.BoundsError):
        bounds.VolumeDB({("rational-square", "2", "Nowhere", (2,),
                          "standard"): ("1.5", "user")}, {})
    with pytest.raises(bounds.BoundsError):
        bounds.VolumeDB({("rational-square", "2", "S3", (3,), "standard"):
                         ("1.5", "user")}, {})
    with pytest.raises(bounds.BoundsError):
        bounds.VolumeDB({("rational-square", "2", "S3", (2,), "standard"):
                         ("-1.5", "user")}, {})
    with pytest.raises(bounds.BoundsError):
        db.extended([{"family": "rational-square", "conway": "2",
                      "ambient": "S3", "signature": [2, 2],
                      "volume": "9.9"}])


def test_db_refusals_name_the_row():
    row = {"family": "reciprocal-saucer", "conway": "1/4", "ambient": "S3",
           "signature": [6], "volume": "1.0"}
    cases = [
        (dict(row, volume="2.0"), "volume table row 1 repeats row 0"),
        (dict(row, conway="-1/4"), "volume table row 1: duplicate entry "
         "for ('reciprocal-saucer', '1/4', 'S3', (6,), 'standard')"),
        (dict(row, signature=["6", "6"]), "volume table row 1: signature "
         "entries must be integers, got ('6', '6')"),
        (dict(row, signature=[8], volume="-1.0"),
         "volume table row 1: volumes must be positive, got -1.0"),
    ]
    for second, message in cases:
        with pytest.raises(bounds.BoundsError) as info:
            bounds.VolumeDB.from_json_dict({"entries": [row, second]})
        assert str(info.value) == message
    assert len(bounds.VolumeDB.builtin().entries) == 55


def test_db_limits_read_as_written():
    # a float limit reads as its JSON text, as a float volume does, not as
    # its binary expansion
    db = bounds.VolumeDB.from_json_dict({"entries": [], "limits": {
        "1/4": 0.1, "1/5": "6.5", "1/6": 7}})
    assert db.limits == {"1/4": Decimal("0.1"), "1/5": Decimal("6.5"),
                         "1/6": Decimal(7)}


def test_db_constructor_refusals_name_the_row_or_limit():
    # Called directly, the constructor leaked a bare InvalidOperation or
    # ValueError, read the list [0, [1], 0] as 1, and refused a negative
    # limit without naming it.
    key = ("reciprocal-saucer", "1/4", "S3", (6,), "standard")
    row = "volume table row 0: volumes must be "
    limit = "volume table limits: the limit for 1/4 must be "
    cases = [
        ({key: ("abc", "user")}, {}, row + "numbers, got 'abc'"),
        ({key: ([0, [1], 0], "user")}, {}, row + "numbers, got [0, [1], 0]"),
        ({key: (True, "user")}, {}, row + "numbers, got True"),
        ({key: ({}, "user")}, {}, row + "numbers, got {}"),
        ({key: ("-2", "user")}, {}, row + "positive, got -2"),
        ({}, {"1/4": "abc"}, limit + "a number, got 'abc'"),
        ({}, {"1/4": [1, 2]}, limit + "a number, got [1, 2]"),
        ({}, {"-1/4": (0, (1,), 0)}, limit + "a number, got (0, (1,), 0)"),
        ({}, {"1/4": "-1"}, limit + "positive, got -1"),
        ({}, {"1/4": 0}, limit + "positive, got 0"),
        ({}, {"1/4": Decimal("NaN")}, limit + "finite, got NaN"),
    ]
    for entries, limits, message in cases:
        with pytest.raises(bounds.BoundsError) as info:
            bounds.VolumeDB(entries, limits)
        assert str(info.value) == message
    db = bounds.VolumeDB({key: (Decimal("5.5"), "user")},
                         {"-1/4": 7, "1/5": "6.5"})
    assert db.query(*key) == Decimal("5.5")
    assert db.limits == {"1/4": Decimal(7), "1/5": Decimal("6.5")}


def test_db_refuses_malformed_keys_and_entries_by_row():
    # a key of the wrong length or shape leaked a bare TypeError, an entry
    # that is no pair a bare ValueError or TypeError
    key = ("reciprocal-saucer", "1/4", "S3", (6,), "standard")
    shape = ("volume table row 1: key must be (family, conway, ambient, "
             "signature, orientation), got ")
    pair = "volume table row 1: entry must be a (volume, provenance) pair, "
    other = ("reciprocal-saucer", "1/5", "S3", (6,), "standard")
    cases = [
        (other[:4], ("1.0", "user"), shape + repr(other[:4])),
        (other + ("x",), ("1.0", "user"), shape + repr(other + ("x",))),
        (5, ("1.0", "user"), shape + "5"),
        (other, ("1.0", "user", "extra"),
         pair + "got ('1.0', 'user', 'extra')"),
        (other, ("1.0",), pair + "got ('1.0',)"),
        (other, 7, pair + "got 7"),
    ]
    for second, entry, message in cases:
        with pytest.raises(bounds.BoundsError) as info:
            bounds.VolumeDB({key: ("1.0", "user"), second: entry}, {})
        assert str(info.value) == message


def test_db_refuses_limits_naming_one_tangle_or_none():
    # "-1/4" normalises to "1/4": the last value won, so the negative
    # limit was never checked; an empty key named no limit in its refusal
    both = ("volume table limits: '1/4' and '-1/4' both give the limit "
            "for 1/4")
    cases = [
        ({"1/4": "-1", "-1/4": "7"}, both),
        ({"1/4": "7", "-1/4": "7"}, both),
        ({"1/5": "6", " 1/4": "7", "- -1/4": "8"},
         "volume table limits: ' 1/4' and '- -1/4' both give the limit "
         "for 1/4"),
        ({" - ": "7"}, "volume table limits: the limit key ' - ' names no "
         "tangle"),
    ]
    for limits, message in cases:
        for load in (lambda: bounds.VolumeDB({}, limits),
                     lambda: bounds.VolumeDB.from_json_dict(
                         {"entries": [], "limits": limits})):
            with pytest.raises(bounds.BoundsError) as info:
                load()
            assert str(info.value) == message


def test_db_json_round_trip(db):
    again = bounds.VolumeDB.from_json_dict(db.to_json_dict())
    assert again.entries == db.entries
    assert again.limits == db.limits
    json.dumps(db.to_json_dict())


def test_certify_direct_entry(db):
    ref = bounds.TangleRef("reciprocal-saucer", "1/3", "S3")
    cert = bounds.certify_hyperbolic(db, ref, (4,))
    assert isinstance(cert, bounds.HyperbolicityCertificate)
    assert cert.basis == "DatabaseEntry"
    assert len(cert.chain) == 1
    assert cert.chain[0].rule == "database-entry"
    assert "3.13223067" in cert.chain[0].detail


def test_certify_monotone_grounds_at_smallest(db):
    ref = bounds.TangleRef("reciprocal-saucer", "1/3", "S3")
    cert = bounds.certify_hyperbolic(db, ref, (8,))
    assert cert.basis == "Monotonicity"
    assert "(4,)" in cert.chain[0].detail
    assert "3.13223067" in cert.chain[0].detail
    assert cert.chain[1].rule == "saucer-monotonicity"


def test_certify_clasp_unknown_with_counterevidence(db):
    ref = bounds.TangleRef("reciprocal-saucer", "1/2", "S3")
    verdict = bounds.certify_hyperbolic(db, ref, (4,))
    assert isinstance(verdict, bounds.UnknownHyperbolicity)
    joined = " ".join(verdict.counterevidence)
    assert "not hyperbolic at (4,)" in joined
    assert "principally 6" in joined


def test_signature_entries_must_be_integers(db):
    # int() would read 2.9 and "2" as 2 and True as 1
    ref = bounds.TangleRef("rational-square", "2", "S3")
    for signature in [(2.9, 2), (2.0, 2), ("2", "2"), (True, 2)]:
        with pytest.raises(bounds.BoundsError, match="must be integers"):
            bounds.certify_hyperbolic(db, ref, signature)
    saucer = bounds.TangleRef("reciprocal-saucer", "1/4", "S3")
    with pytest.raises(bounds.BoundsError, match="must be integers"):
        bounds.compose_bound(db, saucer, saucer, rule="saucer",
                             signature=(4.0,))
    row = {"family": "reciprocal-saucer", "conway": "1/4", "ambient": "S3",
           "signature": [6.0], "volume": "5.0"}
    with pytest.raises(bounds.BoundsError, match="must be integers"):
        bounds.VolumeDB.from_json_dict({"entries": [row]})


def test_certify_tetrahedral_componentwise(db):
    ref = bounds.TangleRef("rational-square", "2", "S3")
    direct = bounds.certify_hyperbolic(db, ref, (2, 2))
    assert direct.basis == "DatabaseEntry"
    for signature in [(2, 4), (4, 2), (4, 4), (2, 8), (10, 6)]:
        cert = bounds.certify_hyperbolic(db, ref, signature)
        assert cert.basis == "Monotonicity", signature
        assert cert.chain[1].rule == "tetrahedral-monotonicity"
        assert "(2, 2)" in cert.chain[0].detail


def test_certify_rules_do_not_cross_ambient_or_family(db):
    # the componentwise rule is specific to square tangles in S3
    cube = bounds.TangleRef("rational-square", "2", "TxI")
    assert isinstance(bounds.certify_hyperbolic(db, cube, (2, 4)),
                      bounds.UnknownHyperbolicity)
    cyl = bounds.TangleRef("integer-cylindrical", "2", "TxI")
    assert isinstance(bounds.certify_hyperbolic(db, cyl, (4,)),
                      bounds.UnknownHyperbolicity)
    assert bounds.certify_hyperbolic(db, cyl, (2,)).basis == "DatabaseEntry"


def test_certify_classification_fallback(db):
    ref = bounds.TangleRef("reciprocal-saucer", "1/7", "S3")
    cert = bounds.certify_hyperbolic(db, ref, (4,))
    assert cert.basis == "Classification"
    assert cert.chain[0].rule == "classification"
    lifted = bounds.certify_hyperbolic(db, ref, (6,))
    assert lifted.basis == "Classification"
    assert lifted.chain[-1].rule == "saucer-monotonicity"
    low = bounds.certify_hyperbolic(db, ref, (2,))
    assert isinstance(low, bounds.UnknownHyperbolicity)
    assert any("principally 4" in c for c in low.counterevidence)
    integer = bounds.TangleRef("reciprocal-saucer", "3", "S3")
    gone = bounds.certify_hyperbolic(db, integer, (4,))
    assert isinstance(gone, bounds.UnknownHyperbolicity)
    assert any("entirely non-hyperbolic" in c for c in gone.counterevidence)


def test_certify_survives_row_removal(db):
    ref = bounds.TangleRef("reciprocal-saucer", "1/3", "S3")
    full = bounds.certify_hyperbolic(db, ref, (8,))
    kept = {key: entry for key, entry in db.entries.items()
            if not (key[1] == "1/3" and key[3] != (4,))}
    reduced = bounds.VolumeDB(kept, db.limits)
    assert bounds.certify_hyperbolic(reduced, ref, (8,)) == full


def test_removal_never_upgrades_unknown(db):
    cases = [
        (bounds.TangleRef("reciprocal-saucer", "1/2", "S3"), (4,)),
        (bounds.TangleRef("reciprocal-saucer", "1/7", "S3"), (2,)),
        (bounds.TangleRef("rational-square", "2", "TxI"), (2, 4)),
        (bounds.TangleRef("integer-cylindrical", "2", "TxI"), (4,)),
    ]
    empty = bounds.VolumeDB({}, {})
    for ref, signature in cases:
        assert isinstance(bounds.certify_hyperbolic(db, ref, signature),
                          bounds.UnknownHyperbolicity)
        assert isinstance(bounds.certify_hyperbolic(empty, ref, signature),
                          bounds.UnknownHyperbolicity)


BRACELET6 = {
    "name": "six-bracelet",
    "arrangement": "bracelet",
    "ambient": "S3",
    "slots": ["1/4", "1/4", "1/4", "1/4", "1/4", "1/5"],
}


def test_bracelet_example(db):
    report = bounds.lower_bound(db, BRACELET6)
    assert report.total == Fraction(Decimal("32.78581694"))
    assert bounds.format_fixed(report.total) == "32.78581694"
    assert report.rule == "bracelet-cycle-bound"
    assert len(report.terms) == 6
    assert all(t.signature == (6,) for t in report.terms)
    assert all(t.basis == "Monotonicity" for t in report.terms)
    assert all(t.provenance == "builtin" for t in report.terms)


def test_bracelet_rotation_and_reflection_invariance(db):
    base = bounds.lower_bound(db, BRACELET6).total
    slots = BRACELET6["slots"]
    for shift in range(1, 6):
        rotated = dict(BRACELET6, slots=slots[shift:] + slots[:shift])
        assert bounds.lower_bound(db, rotated).total == base
    mirrored = dict(BRACELET6, slots=["-1/4"] + slots[1:])
    assert bounds.lower_bound(db, mirrored).total == base


def test_lattice_example(db):
    spec = {"arrangement": "lattice", "ambient": "S3",
            "rows": 2, "cols": 2, "slot": "2"}
    report = bounds.lower_bound(db, spec)
    assert report.total == 4 * Fraction(Decimal("3.13223067"))
    assert abs(report.total - Fraction(Decimal("12.5289226"))) < \
        Fraction(1, 10**5)
    assert report.rule == "torus-lattice-bound"
    assert all(t.signature == (2, 2) for t in report.terms)
    assert all(t.basis == "DatabaseEntry" for t in report.terms)


def test_cube_lattice_demands_two_two(db):
    spec = {"arrangement": "lattice", "ambient": "TxI",
            "rows": 4, "cols": 2, "slot": "2"}
    report = bounds.lower_bound(db, spec)
    assert report.rule == "cube-decomposition-bound"
    assert all(t.signature == (2, 2) for t in report.terms)
    assert report.total == 8 * Fraction(Decimal("4.3692852"))


def counting_normalizer(monkeypatch):
    calls = []
    real = bounds._normalize_conway

    def counted(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(bounds, "_normalize_conway", counted)
    return calls


def test_lattice_slot_shorthand_is_read_once(db, monkeypatch):
    # the shorthand used to copy its text into every cell and normalize
    # each copy again
    shorthand = {"arrangement": "lattice", "ambient": "TxI",
                 "rows": 30, "cols": 20, "slot": " 2   1"}
    explicit = dict(shorthand, slots=[" 2   1"] * 600)
    del explicit["slot"]
    expected = bounds.lower_bound(db, explicit)
    calls = counting_normalizer(monkeypatch)
    spec = bounds.parse_link_spec(shorthand)
    assert calls == [" 2   1"]
    assert spec.slots == bounds.parse_link_spec(explicit).slots
    assert spec.slots[0].conway == "2 1"
    assert bounds.lower_bound(db, shorthand) == expected
    bad = dict(shorthand, slot={"conway": "2", "orientation": 3})
    with pytest.raises(bounds.BoundsError,
                       match="^slot 0: orientation must be a string$"):
        bounds.parse_link_spec(bad)


def test_a_parsed_spec_is_checked_once_per_slot_object(monkeypatch):
    # a parsed LinkSpec shares one SlotSpec among a tangle's repeats, and
    # passing it back in used to check each repeat again
    kinds = [bounds.SlotSpec("reciprocal-saucer", conway, "standard", ())
             for conway in ("1/2", "1/4", "1/6")]
    spec = bounds.LinkSpec("ring", "bracelet", "S3",
                           tuple(kinds[i % 3] for i in range(1000)))
    calls = counting_normalizer(monkeypatch)
    assert bounds.parse_link_spec(spec) == spec
    assert calls == ["1/2", "1/4", "1/6"]


def test_a_dict_slot_is_checked_once_per_object(monkeypatch):
    slot = {"conway": "1/4"}
    shared = {"arrangement": "bracelet", "ambient": "S3", "slots": [slot] * 4}
    distinct = dict(shared, slots=[dict(slot) for _ in range(4)])
    calls = counting_normalizer(monkeypatch)
    parsed = bounds.parse_link_spec(shared)
    assert calls == ["1/4"]
    assert bounds.parse_link_spec(distinct) == parsed
    assert calls == ["1/4"] * 5


def test_cylinder_stack_example(db):
    spec = {"arrangement": "cylinder-stack", "ambient": "TxI",
            "slots": ["2", "3"]}
    report = bounds.lower_bound(db, spec)
    assert report.rule == "thickened-torus-stack-bound"
    assert report.total == Fraction(Decimal("5.33348957")) \
        + Fraction(Decimal("7.32772475"))


def test_solid_torus_stack_needs_user_rows(db):
    spec = {"arrangement": "cylinder-stack", "ambient": "SolidTorus",
            "slots": ["2"]}
    with pytest.raises(bounds.UncertifiedTangle) as info:
        bounds.lower_bound(db, spec)
    assert info.value.slot == 0


def test_custom_figure_example(db):
    extended = db.extended([
        {"family": "integer-cylindrical", "conway": "6 1",
         "ambient": "TxI", "signature": [2], "volume": "20.1481"},
        {"family": "rational-square", "conway": "3 1 2",
         "ambient": "TxI", "signature": [2, 2], "volume": "7.2889"},
    ])
    spec = {
        "name": "thickened-torus-figure",
        "arrangement": "custom",
        "ambient": "TxI",
        "slots": [
            {"family": "integer-cylindrical", "conway": "6 1",
             "signature": [2]},
            {"family": "rational-square", "conway": "3 1 2",
             "signature": [2, 2]},
            {"family": "rational-square", "conway": "3 1 2",
             "signature": [2, 2]},
        ],
        "reference_volume": "34.7259",
    }
    report = bounds.lower_bound(extended, spec)
    assert report.total == Fraction(Decimal("34.7259"))
    assert report.rule == "declared-decomposition-bound"
    assert [t.provenance for t in report.terms] == ["user"] * 3
    rendered = report.to_json_dict()
    assert rendered["reference_volume"]["value"] == "34.7259"
    assert "not derived here" in rendered["reference_volume"]["note"]


def test_uncertified_slot_is_named(db):
    spec = {"arrangement": "bracelet", "ambient": "S3",
            "slots": ["1/2", "1/3", "1/3", "1/3"]}
    with pytest.raises(bounds.UncertifiedTangle) as info:
        bounds.lower_bound(db, spec)
    assert info.value.slot == 0
    assert "1/2" in str(info.value)


def test_certified_but_unrecorded_volume(db):
    # 1/4 certifies at (12,) by monotonicity, but no volume sits there
    spec = {"arrangement": "bracelet", "ambient": "S3",
            "slots": ["1/4"] * 12}
    with pytest.raises(bounds.UncertifiedTangle) as info:
        bounds.lower_bound(db, spec)
    assert "no volume is recorded" in str(info.value)


def test_arrangement_rejections(db):
    bad = [
        {"arrangement": "bracelet", "ambient": "S3",
         "slots": ["1/4"] * 5},
        {"arrangement": "bracelet", "ambient": "TxI",
         "slots": ["1/4"] * 4},
        {"arrangement": "lattice", "ambient": "S3", "rows": 1, "cols": 2,
         "slots": ["2", "2"]},
        {"arrangement": "lattice", "ambient": "S3", "slot": "2"},
        {"arrangement": "cylinder-stack", "ambient": "S3", "slots": ["2"]},
        {"arrangement": "mystery", "ambient": "S3", "slots": ["2"]},
        {"arrangement": "cylinder-stack", "ambient": "TxI", "slots": []},
    ]
    square = bounds.SlotSpec("rational-square", "2", "standard", ())
    bad += [bounds.LinkSpec("ragged", "lattice", "S3", (square,) * 3, 2, 2),
            bounds.LinkSpec("extra", "lattice", "S3", (square,) * 5, 2, 2),
            bounds.LinkSpec("flat", "lattice", "S3", (), 0, 2)]
    for spec in bad:
        with pytest.raises(bounds.ArrangementInvalid):
            bounds.lower_bound(db, spec)


REFUSAL_TABLE = Path(__file__).with_name("arrangement_refusals.txt")
TABLE_SLOTS = {"bracelet": "1/4", "cylinder-stack": "2",
               "custom": {"family": "reciprocal-saucer", "conway": "1/4",
                          "signature": [2]}}


def parse_outcome(spec):
    try:
        bounds.parse_link_spec(spec)
    except bounds.BoundsError as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return "ok"


def test_arrangement_refusals_match_the_recorded_table():
    # Every arrangement in every ambient, at the sizes around each shape
    # rule: bracelets, stacks and custom slots 0-7, lattices 0-5 x 0-5.
    rows = [line.split(" | ") for line in
            REFUSAL_TABLE.read_text().splitlines()
            if not line.startswith("#")]
    assert len(rows) == 4 * (8 + 8 + 8 + 36)
    for case, recorded in rows:
        arrangement, ambient, size = case.split()
        spec = {"arrangement": arrangement, "ambient": ambient}
        if arrangement == "lattice":
            spec["rows"], spec["cols"] = map(int, size.split("x"))
            spec["slot"] = "2"
        else:
            spec["slots"] = [TABLE_SLOTS[arrangement]] * int(size)
        assert parse_outcome(spec) == recorded, case


def test_builders_and_checker_refuse_a_shape_in_the_same_words():
    saucer = pieces.saucer_template("1/4")
    square = pieces.square_template("2")
    cylinder = pieces.cylindrical_template("2")
    cases = []
    for n in range(8):
        cases.append((pieces.build_bracelet, [saucer] * n,
                      {"arrangement": "bracelet", "ambient": "S3",
                       "slots": ["1/4"] * n}))
        cases.append((pieces.build_cylinder_stack, [cylinder] * n,
                      {"arrangement": "cylinder-stack", "ambient": "TxI",
                       "slots": ["2"] * n}))
    for r, c in itertools.product(range(1, 6), repeat=2):
        cases.append((pieces.build_torus_lattice, [[square] * c] * r,
                      {"arrangement": "lattice", "ambient": "S3",
                       "rows": r, "cols": c, "slot": "2"}))
    refused = 0
    for build, tangles, spec in cases:
        try:
            build(tangles)
        except pieces.PieceError as exc:
            refused += 1
            assert parse_outcome(spec) == "ArrangementInvalid: %s" % exc
        else:
            assert parse_outcome(spec) == "ok"
    assert refused == 5 + 1 + 21


MALFORMED_SPECS = [
    ({"arrangement": "bracelet", "ambient": "S3", "slots": [1, "1/4"]},
     "slot 0 must be a string or an object"),
    ({"arrangement": "bracelet", "ambient": "S3", "slots": ["1/4", None]},
     "slot 1 must be a string or an object"),
    ({"arrangement": "bracelet", "ambient": "S3", "slots": 7},
     "slots must be a list, got 7"),
    ({"arrangement": "lattice", "ambient": "S3", "rows": 2, "cols": 2,
      "slots": "2222"}, "a 2 x 2 lattice needs 4 slots"),
    ([1, 2], "a link description is a JSON object, got list"),
    ({"arrangement": "custom", "ambient": "S3", "slots": [
        {"family": "rational-square", "conway": "2", "signature": 5}]},
     "slot 0: signature must be a list"),
    ({"arrangement": "bracelet", "ambient": "S3",
      "slots": [{"conway": "1/4", "family": ["x"]}] * 4},
     "slot 0: unknown family ['x']"),
    ({"arrangement": "bracelet", "ambient": "S3",
      "slots": ["1/4", {"conway": "1/4", "family": 1}]},
     "slot 1: unknown family 1"),
    ({"arrangement": "bracelet", "ambient": "S3",
      "slots": [{"conway": "1/4", "orientation": 1}] * 4},
     "slot 0: orientation must be a string"),
    ({"arrangement": "bracelet", "ambient": "S3",
      "slots": [{"conway": "1/4", "orientation": True}] * 4},
     "slot 0: orientation must be a string"),
    ({"arrangement": "bracelet", "ambient": "S3",
      "slots": [{"family": "reciprocal-saucer"}] * 4},
     "slot 0: conway must be a string"),
    ({"arrangement": "lattice", "ambient": "S3", "rows": None, "cols": 2,
      "slot": "2"}, "rows and cols must be integers"),
] + [
    ({"arrangement": "lattice", "ambient": "S3", "rows": rows, "cols": 2,
      "slot": "2"}, "rows and cols must be integers, got %r and 2" % (rows,))
    for rows in [2.9, 2.0, float("inf"), "2", True]
] + [
    ({"arrangement": "custom", "ambient": "S3", "slots": [
        {"family": "rational-square", "conway": "2", "signature": [2, 2]},
        {"family": "rational-square", "conway": "2", "signature": sig}]},
     "slot 1: " + message)
    for sig, message in [
        ([2.9, "2"], "signature entries must be integers, got [2.9, '2']"),
        ([2.0, 2], "signature entries must be integers, got [2.0, 2]"),
        (["2", "2"], "signature entries must be integers, got ['2', '2']"),
        ([True, 2], "signature entries must be integers, got [True, 2]"),
        ([float("inf"), 2], "signature must be a tuple of even counts"),
        ([[2], 2], "signature must be a tuple of even counts"),
        ([1, 1], "signature entries must be positive and even, got [1, 1]"),
    ]
] + [
    # a JSON object name printed as a Python dict; a list reference
    # volume turned into the string "[1]"
    ({"arrangement": "bracelet", "ambient": "S3", "slots": ["1/4"] * 4,
      "name": name}, "name must be a string, got %r" % (name,))
    for name in [{"a": 1}, ["x"], 7, None]
] + [
    ({"arrangement": "bracelet", "ambient": "S3", "slots": ["1/4"] * 4,
      "reference_volume": ref},
     "reference_volume must be a string or a number, got %r" % (ref,))
    for ref in [[1], {"v": 1}, True]
] + [
    ({"arrangement": "bracelet", "ambient": "S3", "slots": ["1/3", " - "]},
     "slot 1: empty tangle notation"),
]


def test_names_and_reference_volumes_that_are_kept():
    spec = {"arrangement": "bracelet", "ambient": "S3", "slots": ["1/4"] * 4}
    parsed = bounds.parse_link_spec(spec)
    assert (parsed.name, parsed.reference_volume) == ("bracelet", None)
    for ref, kept in [("32.98", "32.98"), (33, "33"), (32.5, "32.5"),
                      (Decimal("32.98"), "32.98")]:
        parsed = bounds.parse_link_spec(dict(spec, name="b4",
                                             reference_volume=ref))
        assert (parsed.name, parsed.reference_volume) == ("b4", kept)


def test_malformed_descriptions_are_refused_before_certifying(db,
                                                              monkeypatch):
    calls = counting_certifier(monkeypatch)
    for spec, message in MALFORMED_SPECS:
        for call in (bounds.parse_link_spec, lambda s: bounds.lower_bound(
                db, s)):
            with pytest.raises(bounds.BoundsError) as info:
                call(spec)
            assert not isinstance(info.value, bounds.UncertifiedTangle)
            assert str(info.value).startswith(message)
    assert calls == []


def test_lattice_slot_limit_refuses_before_expanding(db, monkeypatch):
    calls = counting_certifier(monkeypatch)
    limit = repvol.COPY_LIMIT
    listed = ["2"] * (limit + 1)
    for rows, cols, slots in [(limit + 1, 1, None), (1, limit + 1, None),
                              (10 ** 20, 2, None), (2, 10 ** 20, None),
                              (limit + 1, 1, listed)]:
        spec = {"arrangement": "lattice", "ambient": "TxI", "rows": rows,
                "cols": cols}
        if slots is None:
            spec["slot"] = "2"
        else:
            spec["slots"] = slots
        start = time.perf_counter()
        with pytest.raises(bounds.ArrangementInvalid) as info:
            bounds.lower_bound(db, spec)
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == ("a %d x %d lattice has more than %d "
                                   "slots" % (rows, cols, limit))
    assert calls == []


def test_lattice_rows_and_cols_must_be_integers(db):
    # int() would bound "rows": 2.9 as 2 rows and overflow on infinity
    for rows, cols in [(2.9, 2), (2, float("inf")), (True, 2), (2, "2")]:
        spec = {"arrangement": "lattice", "ambient": "S3", "rows": rows,
                "cols": cols, "slot": "2"}
        with pytest.raises(bounds.ArrangementInvalid) as info:
            bounds.lower_bound(db, spec)
        assert str(info.value) == ("rows and cols must be integers, got "
                                   "%r and %r" % (rows, cols))


def test_hand_built_spec_is_refused_as_its_dict(db):
    square = bounds.SlotSpec("rational-square", "2", "standard", ())
    saucer = bounds.SlotSpec("reciprocal-saucer", "1/4", "standard", ())
    cylinder = bounds.SlotSpec("integer-cylindrical", "2", "standard", ())
    specs = [
        bounds.LinkSpec("ragged", "lattice", "S3", (square,) * 3, 2, 2),
        bounds.LinkSpec("odd", "lattice", "S3", (square,) * 6, 2, 3),
        bounds.LinkSpec("three", "bracelet", "S3", (saucer,) * 3),
        bounds.LinkSpec("flat", "bracelet", "TxI", (saucer,) * 4),
        bounds.LinkSpec("open", "cylinder-stack", "S3", (cylinder,)),
        bounds.LinkSpec("empty", "cylinder-stack", "TxI", ()),
        bounds.LinkSpec("bare", "bracelet", "S3", None),
        bounds.LinkSpec("typo", "bracelet", "S3",
                        (saucer._replace(conway=4),) * 4),
        bounds.LinkSpec("ok", "lattice", "TxI", (square,) * 4, 2, 2),
    ]
    for spec in specs:
        as_dict = dict(spec._asdict())
        if spec.slots is not None:
            as_dict["slots"] = [dict(s._asdict()) for s in spec.slots]
        assert outcome(bounds.lower_bound, db, spec) \
            == outcome(bounds.lower_bound, db, as_dict)
    assert isinstance(bounds.lower_bound(db, specs[-1]), bounds.BoundReport)


def test_link_spec_parse_errors(db):
    with pytest.raises(bounds.BoundsError):
        bounds.parse_link_spec({"arrangement": "bracelet",
                                "ambient": "Nowhere", "slots": ["1/4"]})
    with pytest.raises(bounds.BoundsError):
        bounds.parse_link_spec({"arrangement": "bracelet", "ambient": "S3"})
    with pytest.raises(bounds.BoundsError):
        bounds.parse_link_spec({
            "arrangement": "custom", "ambient": "TxI",
            "slots": [{"family": "rational-square", "conway": "2"}]})
    with pytest.raises(bounds.BoundsError):
        bounds.parse_link_spec({
            "arrangement": "custom", "ambient": "TxI",
            "slots": [{"conway": "2", "signature": [2, 2]}]})
    with pytest.raises(bounds.BoundsError):
        bounds.parse_link_spec({
            "arrangement": "bracelet", "ambient": "S3",
            "slots": [{"conway": "1/4", "signature": [4]}] * 4})


def test_compose_additive(db):
    ref = bounds.TangleRef("integer-cylindrical", "2", "TxI")
    certificate, bound, rule = bounds.compose_bound(db, ref, ref)
    assert bound == Fraction(Decimal("10.66697914"))
    assert certificate.basis == "Composition"
    assert certificate.signature == (2,)
    assert certificate.chain[-1].rule == "stack-composition"
    assert rule == "thickened-cylinder"


def test_compose_degenerate(db):
    ref = bounds.TangleRef("integer-cylindrical", "2", "TxI")
    composed = bounds.compose_bound(db, ref)
    assert composed.bound == Fraction(Decimal("5.33348957"))
    assert composed.certificate.basis == "DatabaseEntry"


def test_compose_associative(db):
    a = bounds.TangleRef("integer-cylindrical", "2", "TxI")
    b = bounds.TangleRef("integer-cylindrical", "3", "TxI")
    c = bounds.TangleRef("integer-cylindrical", "4", "TxI")
    left = bounds.compose_bound(db, bounds.compose_bound(db, a, b), c)
    right = bounds.compose_bound(db, a, bounds.compose_bound(db, b, c))
    total = sum(Fraction(db.query("integer-cylindrical", n, "TxI", (2,)))
                for n in "234")
    assert left.bound == right.bound == total


def test_compose_saucer_average(db):
    a = bounds.TangleRef("reciprocal-saucer", "1/3", "S3")
    b = bounds.TangleRef("reciprocal-saucer", "1/4", "S3")
    composed = bounds.compose_bound(db, a, b, rule="saucer",
                                    signature=(4,))
    expected = (Fraction(Decimal("4.85098130"))
                + Fraction(Decimal("5.72360375"))) / 2
    assert composed.bound == expected
    assert composed.bound == Fraction(Decimal("5.287292525"))
    assert composed.certificate.signature == (4,)
    assert composed.certificate.chain[-1].rule == "cyclic-composition"
    # each factor grounded at (4,) and lifted to the doubled signature
    details = " ".join(s.detail for s in composed.certificate.chain)
    assert "(8,)" in details


def test_compose_errors(db):
    cyl = bounds.TangleRef("integer-cylindrical", "2", "TxI")
    square = bounds.TangleRef("rational-square", "2", "TxI")
    saucer = bounds.TangleRef("reciprocal-saucer", "1/3", "S3")
    with pytest.raises(pieces.EndpointMismatch):
        bounds.compose_bound(db, cyl, square)
    with pytest.raises(bounds.BoundsError):
        bounds.compose_bound(db, cyl, saucer)
    with pytest.raises(bounds.UncertifiedTangle):
        bounds.compose_bound(db, saucer,
                             bounds.TangleRef("reciprocal-saucer", "1/2",
                                              "S3"),
                             rule="saucer", signature=(2,))
    with pytest.raises(bounds.BoundsError):
        bounds.compose_bound(db, cyl, cyl, rule="mystery")
    with pytest.raises(bounds.BoundsError):
        bounds.compose_bound(db, cyl, cyl, signature=(4,))
    averaged = bounds.compose_bound(db, saucer, saucer, rule="saucer",
                                    signature=(4,))
    with pytest.raises(bounds.BoundsError):
        bounds.compose_bound(db, averaged, cyl)
    with pytest.raises(bounds.BoundsError):
        bounds.compose_bound(db, averaged, saucer, rule="saucer",
                             signature=(4,))


def test_saucer_composition_takes_one_index(db):
    saucer = bounds.TangleRef("reciprocal-saucer", "1/3", "S3")
    for operands in ((saucer,), (saucer, saucer)):
        with pytest.raises(bounds.BoundsError) as info:
            bounds.compose_bound(db, *operands, rule="saucer",
                                 signature=(2, 2))
        assert type(info.value) is bounds.BoundsError
        assert str(info.value) == ("saucer composition takes a one-index "
                                   "signature")


def test_compose_refuses_unknown_names(db):
    cyl = bounds.TangleRef("integer-cylindrical", "2", "TxI")
    saucer = bounds.TangleRef("reciprocal-saucer", "1/3", "S3")
    for good, rule, signature in ((cyl, "thickened-cylinder", (2,)),
                                  (saucer, "saucer", (4,))):
        for field, value in (("family", "mystery"), ("ambient", "Nowhere"),
                             ("family", ["x"])):
            bad = good._replace(**{field: value})
            for operands in ((bad,), (bad, good), (good, bad)):
                with pytest.raises(bounds.BoundsError) as info:
                    bounds.compose_bound(db, *operands, rule=rule,
                                         signature=signature)
                assert type(info.value) is bounds.BoundsError
                assert str(info.value) == "unknown %s %r" % (field, value)


@pytest.mark.parametrize("operand", [
    5, None, ("reciprocal-saucer",), "abc", {"family": "reciprocal-saucer"},
    ("reciprocal-saucer", "1/3", "S3", "standard", "extra"),
], ids=["int", "None", "one entry", "string", "dict", "five entries"])
def test_compose_refuses_an_operand_that_is_no_tangle(db, operand):
    # 5 and a one-entry tuple raised bare TypeErrors, None an
    # AttributeError, and a three-letter string read as family "a"
    saucer = bounds.TangleRef("reciprocal-saucer", "1/3", "S3")
    message = ("a tangle operand must be a ComposedBound or a (family, "
               "conway, ambient[, orientation]) sequence, got %r"
               % (operand,))
    cases = [(operand,), (operand, saucer)]
    if operand is not None:  # a missing second factor is one-fold
        cases.append((saucer, operand))
    for operands in cases:
        with pytest.raises(bounds.BoundsError) as info:
            bounds.compose_bound(db, *operands, rule="saucer",
                                 signature=(4,))
        assert type(info.value) is bounds.BoundsError
        assert str(info.value) == message
    # a list is a sequence like a tuple
    assert bounds.compose_bound(db, list(saucer), rule="saucer",
                                signature=(4,)) == \
        bounds.compose_bound(db, saucer, rule="saucer", signature=(4,))


def test_compose_factor_refusals_name_the_factor(db):
    clasp = bounds.TangleRef("reciprocal-saucer", "1/2", "S3")
    with pytest.raises(bounds.UncertifiedTangle) as info:
        bounds.compose_bound(db, clasp, rule="saucer", signature=(4,))
    assert str(info.value) == (
        "factor (reciprocal-saucer 1/2): recorded as not hyperbolic at (4,); "
        "classified principally 6-hyperbolic, above the requested (4,)")
    assert info.value.slot is None
    unrecorded = bounds.TangleRef("reciprocal-saucer", "1/4", "S3")
    with pytest.raises(bounds.UncertifiedTangle) as info:
        bounds.compose_bound(db, unrecorded, rule="saucer", signature=(12,))
    assert str(info.value) == (
        "factor (reciprocal-saucer 1/4): certified hyperbolic at (12,) but "
        "no volume is recorded there")


def test_classical_alternating_t6():
    lower, upper = bounds.classical_bounds(6, "alternating")
    assert lower.kind == "lower" and upper.kind == "upper"
    assert abs(lower.value - Decimal("7.3276")) < Decimal("5e-4")
    assert lower.value == 2 * bounds.V_OCT
    assert upper.value == 50 * bounds.V_TET


def test_classical_montesinos_t6():
    named = bounds.classical_bounds(6, "montesinos")
    assert len(named) == 3
    family = named[-1]
    assert family.kind == "lower"
    assert abs(family.value - Decimal("10.9914")) < Decimal("5e-4")
    assert family.value == 3 * bounds.V_OCT


def test_classical_degenerate_and_bad():
    lower, _ = bounds.classical_bounds(2, "alternating")
    assert lower.value == 0
    for t in (1, 0, -3):
        with pytest.raises(bounds.BadTwistNumber):
            bounds.classical_bounds(t, "alternating")
    with pytest.raises(bounds.BoundsError):
        bounds.classical_bounds(6, "mystery")
    # int() would read 2.9 as t = 2 and overflow on infinity
    for t in (2.9, float("inf"), True, "6"):
        with pytest.raises(bounds.BoundsError) as info:
            bounds.classical_bounds(t, "alternating")
        assert str(info.value) == ("twist number must be an integer, got %r"
                                   % (t,))


def test_classical_bounds_are_exact_at_any_twist_number():
    for t in (10 ** 20, 10 ** 38, 10 ** 41):
        values = [c.value for c in bounds.classical_bounds(t, "montesinos")]
        assert values == [Fraction(bounds.V_OCT) * (t - 2) / 2,
                          10 * Fraction(bounds.V_TET) * (t - 1),
                          Fraction(bounds.V_OCT) * t / 2]
    # the 28-digit default context gave 183193118999999999996.33613760
    lower = bounds.classical_bounds(10 ** 20, "alternating")[0]
    assert bounds.format_fixed(lower.value) \
        == "183193118999999999996.33613762"


def test_limit_check_shipped_clean(db):
    assert bounds.limit_check(db) == []


def test_limit_check_forged_entry(db):
    forged = dict(db.entries)
    key = ("reciprocal-saucer", "1/3", "S3", (6,), "standard")
    forged[key] = bounds.Entry(Decimal("5.4"), "user")
    violations = bounds.limit_check(bounds.VolumeDB(forged, db.limits))
    assert len(violations) == 1
    assert violations[0].kind == "entry-above-limit"
    assert violations[0].subject == "1/3"
    assert "5.33489567" in violations[0].detail


def test_limit_check_empty_and_ceiling():
    assert bounds.limit_check(bounds.VolumeDB({}, {})) == []
    high = bounds.VolumeDB({}, {"1/9": "7.4"})
    assert [v.kind for v in bounds.limit_check(high)] \
        == ["limit-above-ceiling"]
    edge = bounds.VolumeDB({}, {"1/9": "7.32772474"})
    assert len(bounds.limit_check(edge)) == 1


def test_column_monotonicity_is_a_data_check(db):
    assert bounds.column_monotonicity(db) == []
    forged = dict(db.entries)
    key = ("reciprocal-saucer", "1/4", "S3", (8,), "standard")
    forged[key] = bounds.Entry(Decimal("5.0"), "user")
    flagged = bounds.column_monotonicity(bounds.VolumeDB(forged, db.limits))
    assert [v.kind for v in flagged] == ["column-not-increasing"]
    assert flagged[0].subject == "1/4"


def test_classifier_agrees_with_recorded_rows(db):
    for conway in ["1/2", "1/3", "1/4", "1/5"]:
        principal = arborescent.principal_signature(
            arborescent.classify(arborescent.leaf(conway)))
        for m in (2, 3, 4, 5):
            recorded = db.query("reciprocal-saucer", conway, "S3", (2 * m,))
            hyperbolic = recorded is not bounds.NON_HYPERBOLIC
            assert hyperbolic == (principal[0] <= 2 * m)


def test_format_fixed():
    assert bounds.format_fixed(Fraction(1, 3)) == "0.33333333"
    assert bounds.format_fixed(Fraction(1, 3), 4) == "0.3333"
    assert bounds.format_fixed(Decimal("0.125"), 2) == "0.12"
    assert bounds.format_fixed(Decimal("0.135"), 2) == "0.14"
    # exact at any size, past the digits of any fixed precision
    assert bounds.format_fixed(Fraction(10 ** 60, 3), 12) \
        == "3" * 60 + "." + "3" * 12
    assert bounds.format_fixed(Decimal("1E+50") + Decimal("0.5E-12"), 12) \
        == "1" + "0" * 50 + "." + "0" * 12
    for places in (0, 13):
        with pytest.raises(bounds.BoundsError):
            bounds.format_fixed(Fraction(1, 3), places)


def test_format_fixed_writes_no_exponent():
    # str() of a Decimal wrote these as 0E-8 and 1.0E-7
    assert bounds.format_fixed(0) == "0.00000000"
    assert bounds.format_fixed(Fraction(1, 10 ** 7)) == "0.00000010"
    assert bounds.format_fixed(Fraction(-1, 10 ** 9)) == "0.00000000"
    assert bounds.format_fixed(10 ** 30, 2) == "1" + "0" * 30 + ".00"
    # more digits than str() of an int writes by default
    assert bounds.format_fixed(Fraction(10 ** 5000, 3), 3) \
        == "3" * 5000 + "." + "3" * 3


def test_report_renderings(db):
    comparisons = bounds.classical_bounds(6, "alternating")
    report = bounds.lower_bound(db, BRACELET6, comparisons=comparisons)
    rendered = report.to_json_dict()
    assert rendered["total"] == "32.78581694"
    assert len(rendered["terms"]) == 6
    assert rendered["equality_note"].startswith("equality holds")
    assert len(rendered["comparisons"]) == 2
    json.dumps(rendered)

    markdown = report.to_markdown()
    assert "32.78581694" in markdown
    assert "| 0 | reciprocal-saucer 1/4 | (6) | 5.38411452 |" in markdown
    assert "totally geodesic" in markdown

    once = json.dumps(bounds.lower_bound(db, BRACELET6).to_json_dict(),
                      sort_keys=True)
    twice = json.dumps(bounds.lower_bound(db, BRACELET6).to_json_dict(),
                       sort_keys=True)
    assert once == twice


# each distinct slot certified once

def per_slot_lower_bound(db, spec):
    """The per-slot loop: certify and look up every slot on its own."""
    spec = bounds.parse_link_spec(spec)
    rule, demands = bounds._demanded_signatures(spec)
    terms = []
    total = Fraction(0)
    for i, (slot, demand) in enumerate(zip(spec.slots, demands)):
        ref = bounds.TangleRef(slot.family, slot.conway, spec.ambient,
                               slot.orientation)
        verdict = bounds.certify_hyperbolic(db, ref, demand)
        if isinstance(verdict, bounds.UnknownHyperbolicity):
            detail = "; ".join(verdict.counterevidence) or verdict.reason
            raise bounds.UncertifiedTangle(
                "slot %d (%s %s): %s" % (i, slot.family, slot.conway,
                                         detail), slot=i)
        try:
            entry = db.entry(slot.family, slot.conway, spec.ambient,
                             demand, slot.orientation)
        except bounds.NotFound:
            raise bounds.UncertifiedTangle(
                "slot %d (%s %s): certified hyperbolic at %r but no "
                "volume is recorded there" % (i, slot.family, slot.conway,
                                              demand), slot=i) from None
        if entry.volume is bounds.NON_HYPERBOLIC:
            raise bounds.UncertifiedTangle(
                "slot %d (%s %s): recorded as not hyperbolic at %r"
                % (i, slot.family, slot.conway, demand), slot=i)
        terms.append(bounds.Term(slot.family, slot.conway, demand,
                                 entry.volume, entry.provenance,
                                 verdict.basis))
        total += Fraction(entry.volume)
    return bounds.BoundReport(spec.name, spec.arrangement, spec.ambient,
                              rule, tuple(terms), total, bounds.EQUALITY_NOTE,
                              (), spec.reference_volume)


PARITY_ROWS = [
    {"family": "integer-cylindrical", "conway": c, "ambient": "SolidTorus",
     "signature": [2], "volume": v} for c, v in (("2", "3.1"), ("3", "4.2"))
] + [
    {"family": "rational-square", "conway": c, "ambient": "S2xS1",
     "signature": sig, "volume": v}
    for c, sig, v in (("2", [2, 2], "2.5"), ("2", [2, 4], "2.9"),
                      ("3", [2, 2], "3.5"), ("2 1", [2, 6], "0"))
] + [
    {"family": "reciprocal-saucer", "conway": "1/4", "ambient": "S3",
     "signature": [6], "orientation": "rotated", "volume": "5.1"},
    {"family": "reciprocal-saucer", "conway": "1/6", "ambient": "S3",
     "signature": [4], "volume": "0"},
    {"family": "reciprocal-saucer", "conway": "1/6", "ambient": "S3",
     "signature": [6], "volume": "5.9"},
]

# Reflections ("-"), unrecorded tangles ("6", "1/7"), a recorded zero
# ("1/2" at (4,)) and certified-but-unrecorded signatures (bracelets of 12,
# squares at (2, 8)) all appear.
_POOLS = {
    "reciprocal-saucer": ("1/2", "1/3", "1/4", "-1/4", "1/5", "1/6", "1/7"),
    "rational-square": ("2", "-2", "3", "4", "5", "2 1", "- 2  1", "6"),
    "integer-cylindrical": ("2", "-2", "3", "4", "5", "6"),
}
_SHAPES = (("bracelet", "S3"), ("lattice", "S3"), ("lattice", "TxI"),
           ("lattice", "S2xS1"), ("cylinder-stack", "TxI"),
           ("cylinder-stack", "SolidTorus"), ("custom", "S3"),
           ("custom", "S2xS1"))


def random_link_spec(rng):
    arrangement, ambient = rng.choice(_SHAPES)
    spec = {"arrangement": arrangement, "ambient": ambient}
    if arrangement == "lattice":
        spec["rows"], spec["cols"] = rng.choice((2, 4, 6)), \
            rng.choice((2, 4, 6))
        count = spec["rows"] * spec["cols"]
    elif arrangement == "bracelet":
        count = rng.choice((2, 4, 6, 8, 10, 12))
    else:
        count = rng.randint(1, 12)
    # Draw from a few tangles so that slots repeat.
    distinct = rng.randint(1, 3)
    menu = []
    for _ in range(distinct):
        fixed = bounds._FIXED.get(arrangement)
        family = fixed.family if fixed else rng.choice(
            ("rational-square", "reciprocal-saucer"))
        slot = {"family": family, "conway": rng.choice(_POOLS[family])}
        if family == "reciprocal-saucer" and rng.random() < 0.2:
            slot["orientation"] = "rotated"
        if arrangement == "custom":
            slot["signature"] = ([2, rng.choice((2, 4, 6, 8))]
                                 if family == "rational-square"
                                 else [rng.choice((4, 6, 8, 10, 12))])
        menu.append(slot)
    spec["slots"] = [dict(rng.choice(menu)) for _ in range(count)]
    return spec


def outcome(fn, db, spec):
    try:
        return fn(db, spec)
    except bounds.BoundsError as exc:
        return type(exc), str(exc), getattr(exc, "slot", None)


def test_lower_bound_matches_per_slot_loop(db):
    rng = random.Random(2024)
    extended = db.extended(PARITY_ROWS)
    kinds = Counter()
    for _ in range(1500):
        spec = random_link_spec(rng)
        for table in (db, extended):
            expected = outcome(per_slot_lower_bound, table, spec)
            assert outcome(bounds.lower_bound, table, spec) == expected
            if isinstance(expected, bounds.BoundReport):
                kinds["report"] += 1
            else:
                kinds[expected[1].split(": ", 1)[-1][:20]] += 1
    # Reports and every kind of refusal occur.
    assert kinds["report"] > 300
    assert kinds["recorded as not hype"] > 20
    assert kinds["certified hyperbolic"] > 20
    assert sum(kinds.values()) - kinds["report"] > 300


# Volumes written to 1, 2, 3, 0, 3 and 1 decimal places, beside builtin
# volumes of 7 and 8 places, so that the terms' denominators differ and
# the largest (8, of 2.125) is no multiple of another (5, of 1.6).
PLACES_ROWS = [
    {"family": "reciprocal-saucer", "conway": "1/11", "ambient": "S3",
     "signature": [4], "volume": "0.5"},
    {"family": "reciprocal-saucer", "conway": "1/13", "ambient": "S3",
     "signature": [4], "volume": "1.25"},
    {"family": "rational-square", "conway": "7", "ambient": "TxI",
     "signature": [2, 2], "volume": "2.125"},
    {"family": "rational-square", "conway": "8", "ambient": "TxI",
     "signature": [2, 2], "volume": "3"},
    {"family": "integer-cylindrical", "conway": "7", "ambient": "TxI",
     "signature": [2], "volume": "7.000"},
    {"family": "integer-cylindrical", "conway": "8", "ambient": "TxI",
     "signature": [2], "volume": "1.6"},
]


@pytest.mark.parametrize("spec", [
    BRACELET6,
    {"arrangement": "bracelet", "ambient": "S3",
     "slots": ["1/11", "1/13", "1/4", "-1/11"]},
    {"arrangement": "lattice", "ambient": "TxI", "rows": 2, "cols": 4,
     "slots": ["7", "8", "2", "7", "3", "-8", "4", "2"]},
    {"arrangement": "lattice", "ambient": "S3", "rows": 2, "cols": 2,
     "slot": "2"},
    {"arrangement": "cylinder-stack", "ambient": "TxI",
     "slots": ["7", "2", "7", "3"]},
    {"arrangement": "custom", "ambient": "TxI", "slots": [
        {"family": "integer-cylindrical", "conway": "7", "signature": [2]},
        {"family": "rational-square", "conway": "7", "signature": [2, 2]},
        {"family": "rational-square", "conway": "2", "signature": [2, 2]},
        {"family": "rational-square", "conway": "7", "signature": [2, 2]}]},
    {"arrangement": "custom", "ambient": "TxI", "slots": [
        {"family": "integer-cylindrical", "conway": "7", "signature": [2]},
        {"family": "rational-square", "conway": "7", "signature": [2, 2]},
        {"family": "integer-cylindrical", "conway": "8", "signature": [2]},
        {"family": "rational-square", "conway": "8", "signature": [2, 2]}]},
], ids=["builtin bracelet", "bracelet", "TxI lattice", "builtin S3 lattice",
        "cylinder-stack", "custom", "custom of user rows"])
def test_the_total_is_the_exact_sum_of_its_terms(db, spec):
    report = bounds.lower_bound(db.extended(PLACES_ROWS), spec)
    expected = sum(map(Fraction, (t.volume for t in report.terms)))
    assert type(report.total) is Fraction
    assert report.total == expected
    assert report.to_json_dict()["total_exact"] == "%d/%d" % (
        expected.numerator, expected.denominator)


def test_an_empty_custom_arrangement_totals_zero(db):
    report = bounds.lower_bound(db, {"arrangement": "custom",
                                     "ambient": "S3", "slots": []})
    assert type(report.total) is Fraction
    assert report.total == Fraction(0)
    assert report.to_json_dict()["total_exact"] == "0/1"


def test_lower_bound_odd_slot_fields_match_per_slot_loop(db):
    # A slot field that is not a string is malformed input: refused by
    # the checker as a BoundsError naming the slot, the same for a dict
    # and for the hand-built LinkSpec it stands for.  String fields give
    # what the per-slot loop gives.
    extended = db.extended([
        {"family": "reciprocal-saucer", "conway": "1/4", "ambient": "S3",
         "signature": [6], "orientation": "1", "volume": "5.0"}])
    odd = [["x"], {"y": 1}, None, 1, True, 1.0, "1"]
    strings = 0
    for value in odd:
        for other in odd:
            for field in ("family", "orientation"):
                fields = [{"family": "reciprocal-saucer", "conway": "1/4",
                           "orientation": "standard", field: v}
                          for v in (value, other)] * 3
                spec = {"arrangement": "bracelet", "ambient": "S3",
                        "slots": [{"conway": "1/4", field: value},
                                  {"conway": "1/4", field: other}] * 3}
                hand = bounds.LinkSpec(
                    "bracelet", "bracelet", "S3",
                    tuple(bounds.SlotSpec(signature=(), **f)
                          for f in fields))
                for table in (db, extended):
                    got = outcome(bounds.lower_bound, table, spec)
                    assert outcome(bounds.lower_bound, table, hand) == got
                    if isinstance(value, str) and isinstance(other, str):
                        strings += 1
                        assert got == outcome(per_slot_lower_bound, table,
                                              spec)
                    else:
                        assert got[0] is bounds.BoundsError
                        assert got[1].startswith("slot ")
                        assert field in got[1]
    assert strings == 4
    # Hand-built custom slots: a conway that is not a string, or a
    # signature that is not a list or tuple of even counts, is refused as
    # its dict form is; string conways give what the per-slot loop gives.
    conways = [["2"], 2, 2.0, True, 1.0, "2", "-2"]
    signatures = [[2, 2], (2, 2), (2.0, 2), "22", ([2], 2), None, (1, 1),
                  (True, True), [2, 4]]
    kinds = Counter()
    pairs = itertools.product(conways, signatures, repeat=2)
    for first, first_sig, second, second_sig in pairs:
        slots = (
            bounds.SlotSpec("rational-square", first, "standard", first_sig),
            bounds.SlotSpec("rational-square", second, "standard",
                            second_sig))
        spec = bounds.LinkSpec("odd", "custom", "S3", slots * 2)
        expected = outcome(per_slot_lower_bound, db, spec)
        assert outcome(bounds.lower_bound, db, spec) == expected
        as_dict = {"name": "odd", "arrangement": "custom", "ambient": "S3",
                   "slots": [s._asdict() for s in slots * 2]}
        assert outcome(bounds.lower_bound, db, as_dict) == expected
        if isinstance(expected, bounds.BoundReport):
            kinds["report"] += 1
            assert isinstance(first, str) and isinstance(second, str)
        else:
            assert expected[0] is not bounds.UncertifiedTangle \
                or isinstance(first, str) and isinstance(second, str)
            kinds[expected[1].split(": ", 1)[-1][:20]] += 1
    assert kinds["report"] > 30
    assert kinds["conway must be a str"] > 100
    assert kinds["signature must be a "] > 100


# Strings repeat, an object slot names the same tangle as a string in
# another orientation, and a SlotSpec slot names a third.
MIXED_SLOTS = [{"conway": "2", "orientation": "rotated"}, "2", "3", "-2",
               {"conway": "2"}, " 2  1", "2",
               bounds.SlotSpec("rational-square", "5", "standard", ()),
               "3", {"conway": "4"}, "2", {"conway": "2",
                                          "orientation": "rotated"},
               "2 1", "-2", "3", "2"]
ROTATED_ROW = {"family": "rational-square", "conway": "2", "ambient": "TxI",
               "signature": [2, 2], "orientation": "rotated",
               "volume": "9.5"}


def test_each_distinct_string_slot_is_checked_once(db):
    table = db.extended([ROTATED_ROW])
    spec = {"arrangement": "lattice", "ambient": "TxI", "rows": 4,
            "cols": 4, "slots": MIXED_SLOTS}
    parsed = bounds.parse_link_spec(spec)
    # Read independently of the checker: a string is a standard slot of
    # the lattice's family, an object says what it differs in.
    expected = []
    for raw in MIXED_SLOTS:
        if isinstance(raw, str):
            raw = {"conway": raw}
        elif isinstance(raw, bounds.SlotSpec):
            raw = raw._asdict()
        expected.append(bounds.SlotSpec(
            "rational-square", " ".join(raw["conway"].split()).lstrip("- "),
            raw.get("orientation", "standard"), ()))
    assert parsed.slots == tuple(expected)
    for i, j in itertools.combinations(range(len(MIXED_SLOTS)), 2):
        if isinstance(MIXED_SLOTS[i], str) and MIXED_SLOTS[i] == \
                MIXED_SLOTS[j]:
            assert parsed.slots[i] is parsed.slots[j]
    report = bounds.lower_bound(table, spec)
    assert report == per_slot_lower_bound(table, spec)
    volumes = {("2", "standard"): "4.3692852", ("2", "rotated"): "9.5",
               ("3", "standard"): "6.26446133", ("4", "standard"): "7.37277416",
               ("5", "standard"): "8.05714498",
               ("2 1", "standard"): "7.48167784"}
    assert report.total == sum(Fraction(volumes[s.conway, s.orientation])
                               for s in expected)


def test_a_repeated_bad_string_is_refused_at_its_first_index(db):
    cases = [
        ({"arrangement": "lattice", "ambient": "TxI", "rows": 2, "cols": 2,
          "slots": ["2", " - ", "3", " - "]},
         bounds.BoundsError, "slot 1: empty tangle notation", None),
        ({"arrangement": "custom", "ambient": "S3", "slots": [
            {"family": "rational-square", "conway": "2",
             "signature": [2, 2]}, "1/4", "1/4"]},
         bounds.BoundsError, "slot 1 needs an explicit family", None),
        ({"arrangement": "lattice", "ambient": "TxI", "rows": 2, "cols": 4,
          "slots": ["2", "3", "7", {"conway": "7"}, "2", "7", "7", "3"]},
         bounds.UncertifiedTangle, "slot 2 (rational-square 7): ", 2),
    ]
    for spec, kind, message, slot in cases:
        got = outcome(bounds.lower_bound, db, spec)
        assert got[0] is kind
        assert got[1].startswith(message)
        assert got[2] == slot
        assert got == outcome(per_slot_lower_bound, db, spec)


def counting_certifier(monkeypatch):
    calls = []
    real = bounds.certify_hyperbolic

    def certify(db, tangle, signature):
        calls.append((tuple(tangle), signature))
        return real(db, tangle, signature)

    monkeypatch.setattr(bounds, "certify_hyperbolic", certify)
    return calls


def test_repeated_slot_is_certified_once(monkeypatch):
    db = bounds.VolumeDB.builtin()  # the module's table keeps outcomes
    calls = counting_certifier(monkeypatch)
    spec = {"arrangement": "lattice", "ambient": "TxI", "rows": 200,
            "cols": 200, "slot": "2 1"}
    report = bounds.lower_bound(db, spec)
    assert len(calls) == 1
    assert bounds.lower_bound(db, spec) == report
    assert len(calls) == 1  # once per table, not once per call
    assert len(report.terms) == 40000
    assert report.total == 40000 * Fraction(Decimal("7.48167784"))
    assert report.terms[-1] == bounds.Term(
        "rational-square", "2 1", (2, 2), Decimal("7.48167784"),
        "builtin", "DatabaseEntry")


def test_slots_with_one_key_share_one_term(db):
    spec = {"arrangement": "lattice", "ambient": "TxI", "rows": 200,
            "cols": 200, "slot": "2 1"}
    assert len({id(t) for t in bounds.lower_bound(db, spec).terms}) == 1
    rng = random.Random(5)
    slots = [rng.choice(("2", "3", "-3", "2 1")) for _ in range(36)]
    spec = {"arrangement": "lattice", "ambient": "TxI", "rows": 6,
            "cols": 6, "slots": slots}
    assert len({id(t) for t in bounds.lower_bound(db, spec).terms}) == 3


def test_mixed_slots_are_certified_once_each(monkeypatch):
    db = bounds.VolumeDB.builtin()  # the module's table keeps outcomes
    calls = counting_certifier(monkeypatch)
    rng = random.Random(5)
    slots = [rng.choice(("2", "3", "-3", "2 1")) for _ in range(36)]
    spec = {"arrangement": "lattice", "ambient": "TxI", "rows": 6,
            "cols": 6, "slots": slots}
    assert bounds.lower_bound(db, spec) == per_slot_lower_bound(db, spec)
    distinct = {bounds._normalize_conway(s) for s in slots}
    assert len(distinct) == 3
    assert len(calls) == 3 + 36  # once each here, once per slot in the loop
    bounds.lower_bound(db, spec)
    assert len(calls) == 3 + 36

    del calls[:]
    custom = {"arrangement": "custom", "ambient": "S3", "slots": [
        {"family": "rational-square", "conway": c, "signature": sig}
        for c, sig in (("2", [2, 2]), ("2", [2, 4]), ("2", [2, 2]),
                       ("3", [2, 2]), ("2", [2, 4]))]}
    report = bounds.lower_bound(db, custom)
    assert sorted(calls) == sorted(
        {(("rational-square", c, "S3", "standard"), sig)
         for c, sig in (("2", (2, 2)), ("2", (2, 4)), ("3", (2, 2)))})
    assert bounds.lower_bound(db, custom) == report
    assert len(calls) == 3


# the outcomes a table keeps

# "7" in S3 and "1/9" are hyperbolic at a recorded signature, so by
# monotonicity at a larger one, where the row records zero: certified,
# yet refused for its volume.
ZERO_ABOVE_ROWS = [
    {"family": "rational-square", "conway": "7", "ambient": "S3",
     "signature": [2, 2], "volume": "5.0"},
    {"family": "rational-square", "conway": "7", "ambient": "S3",
     "signature": [2, 4], "volume": "0"},
    {"family": "reciprocal-saucer", "conway": "1/9", "ambient": "S3",
     "signature": [4], "volume": "5.0"},
    {"family": "reciprocal-saucer", "conway": "1/9", "ambient": "S3",
     "signature": [8], "volume": "0"},
]


def refusal(call):
    with pytest.raises(bounds.UncertifiedTangle) as info:
        call()
    return info.value


def test_a_zero_row_refuses_a_certified_slot_once_per_table(db,
                                                            monkeypatch):
    table = db.extended(ZERO_ABOVE_ROWS)
    calls = counting_certifier(monkeypatch)
    good = {"family": "rational-square", "conway": "2", "signature": [2, 4]}
    bad = {"family": "rational-square", "conway": "7", "signature": [2, 4]}
    cases = [([good, bad], 1), ([good, bad], 1), ([bad, good], 0)]
    seen = []
    for slots, slot in cases:
        spec = {"arrangement": "custom", "ambient": "S3", "slots": slots}
        expected = outcome(per_slot_lower_bound, table, spec)
        del calls[:]
        error = refusal(lambda: bounds.lower_bound(table, spec))
        assert (type(error), str(error), error.slot) == expected
        assert str(error) == ("slot %d (rational-square 7): recorded as "
                              "not hyperbolic at (2, 4)" % slot)
        assert error.slot == slot
        seen.append((error, len(calls)))
    # certified on the first call only; each refusal is its own object
    assert [count for _, count in seen] == [2, 0, 0]
    assert len({id(error) for error, _ in seen}) == 3

    saucer = bounds.TangleRef("reciprocal-saucer", "1/9", "S3")
    seen = []
    for _ in range(2):
        del calls[:]
        error = refusal(lambda: bounds.compose_bound(
            table, saucer, saucer, rule="saucer", signature=(4,)))
        assert type(error) is bounds.UncertifiedTangle
        assert str(error) == ("factor (reciprocal-saucer 1/9): recorded as "
                              "not hyperbolic at (8,)")
        assert error.slot is None
        seen.append((error, len(calls)))
    assert [count for _, count in seen] == [1, 0]
    assert seen[0][0] is not seen[1][0]


def test_the_conways_2_and_2_0_are_kept_under_their_own_rows():
    # 2 == 2.0 and they hash alike, but the conways read as the rows "2"
    # and "2.0": only the first is recorded
    two = ("integer-cylindrical", 2, "TxI")
    two_float = ("integer-cylindrical", 2.0, "TxI")

    def compose(table, ref):
        return outcome(lambda t, r: bounds.compose_bound(t, r), table, ref)

    refs = (two, two_float)
    fresh = [compose(bounds.VolumeDB.builtin(), ref) for ref in refs]
    assert fresh[0].bound == Fraction(Decimal("5.33348957"))
    assert fresh[1] == (
        bounds.UncertifiedTangle, "factor (integer-cylindrical 2.0): no "
        "recorded entry or rule grounds hyperbolicity at (2,)", None)
    for order in ((0, 1), (1, 0)):
        table = bounds.VolumeDB.builtin()
        for k in order:
            assert compose(table, refs[k]) == fresh[k]


class Name(str):
    """A str subclass, such as a hand-built description may hold."""


def test_keys_are_made_exact_strings_where_they_enter(monkeypatch):
    # a str subclass or the conway 2 once kept no outcome, so each call
    # certified again; the certificate now names the conway "2"
    table = bounds.VolumeDB.builtin()
    calls = counting_certifier(monkeypatch)
    spec = {"arrangement": "bracelet", "ambient": Name("S3"),
            "slots": [{"family": Name("reciprocal-saucer"),
                       "conway": Name("1/3"),
                       "orientation": Name("standard")}] + ["1/3"] * 5}
    parsed = bounds.parse_link_spec(spec)
    assert type(parsed.ambient) is str
    assert {type(field) for slot in parsed.slots
            for field in slot[:3]} == {str}
    report = bounds.lower_bound(table, spec)
    assert bounds.lower_bound(table, spec) == report
    assert report.total == 6 * Fraction(Decimal("4.45025692"))
    assert len(calls) == 1
    composed = bounds.compose_bound(table, ("integer-cylindrical", 2, "TxI"))
    tangle = composed.certificate.tangle
    assert tangle == ("integer-cylindrical", "2", "TxI", "standard")
    assert {type(field) for field in tangle} == {str}
    assert bounds.compose_bound(table, ("integer-cylindrical", "2",
                                        "TxI")) == composed
    assert len(calls) == 2


def test_outcomes_past_the_kept_bound_are_still_right(db, monkeypatch):
    monkeypatch.setattr(bounds, "_CERTIFIED_LIMIT", 3)
    table = db.extended(PARITY_ROWS)
    rng = random.Random(77)
    specs = [random_link_spec(rng) for _ in range(60)]
    for _ in range(2):  # the second pass reads what the first kept
        for spec in specs:
            assert outcome(bounds.lower_bound, table, spec) \
                == outcome(per_slot_lower_bound, table, spec)
    assert len(table._certified) == 3


# the column index

def scanned_signatures(db, family, conway, ambient, orientation="standard"):
    conway = bounds._normalize_conway(conway)
    return {key[3]: entry for key, entry in db.entries.items()
            if key[:3] == (family, conway, ambient)
            and key[4] == orientation}


def test_recorded_signatures_is_a_fresh_dict(db):
    first = db.recorded_signatures("reciprocal-saucer", "1/4", "S3")
    assert len(first) == 4
    first.clear()
    first[(4,)] = "forged"
    again = db.recorded_signatures("reciprocal-saucer", "1/4", "S3")
    assert again == scanned_signatures(db, "reciprocal-saucer", "1/4", "S3")
    assert len(again) == 4


def test_column_index_matches_full_scan(db):
    extended = db.extended(PARITY_ROWS + [
        {"family": "reciprocal-saucer", "conway": "1/4", "ambient": "S3",
         "signature": [2], "orientation": "rotated", "volume": "1.0"},
        {"family": "rational-square", "conway": "2", "ambient": "S3",
         "signature": [2, 8], "volume": "3.7"}])
    for table in (db, extended):
        columns = {(f, c, a, o) for f, c, a, _, o in table.entries}
        columns |= {("rational-square", "7", "S3", "standard"),
                    ("reciprocal-saucer", "1/4", "TxI", "standard"),
                    ("reciprocal-saucer", "1/4", "S3", "mirrored")}
        for family, conway, ambient, orientation in sorted(columns):
            for spelled in (conway, "-" + conway, " %s " % conway):
                got = table.recorded_signatures(family, spelled, ambient,
                                                orientation)
                want = scanned_signatures(table, family, spelled, ambient,
                                          orientation)
                assert list(got.items()) == list(want.items())
    assert extended.recorded_signatures(
        "rational-square", "2", "S3", ["unhashable"]) == {}


def sorted_scan_monotonicity(db):
    """The full-table check: sort every key, first sighting per column."""
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
        recorded = scanned_signatures(db, family, conway, ambient,
                                      orientation)
        values = []
        for sig in sorted(s for s in recorded if len(s) == 1):
            entry = recorded[sig]
            values.append((sig, Decimal(0)
                           if entry.volume is bounds.NON_HYPERBOLIC
                           else entry.volume))
        for (sig_a, val_a), (sig_b, val_b) in zip(values, values[1:]):
            if val_a >= val_b:
                out.append(bounds.Violation(
                    "column-not-increasing", conway,
                    "value %s at %r does not exceed %s at %r"
                    % (val_b, sig_b, val_a, sig_a)))
    return out


def test_column_monotonicity_matches_sorted_scan(db):
    assert bounds.column_monotonicity(db) == sorted_scan_monotonicity(db) \
        == []

    def row(conway, sig, volume, orientation="standard", ambient="S3"):
        return {"family": "reciprocal-saucer", "conway": conway,
                "ambient": ambient, "signature": sig,
                "orientation": orientation, "volume": volume}

    # Orientations of one tangle whose least rows differ ("b" sorts
    # after "a" but its least row comes first), a column with a two-index
    # row, a zero row, another ambient, and "--1/9", a reflected
    # reflection that keys into the "1/9" column like any reflection.
    data = db.to_json_dict()
    data["entries"] += [
        row("1/4", [6], "5.1", "rotated"), row("1/4", [4], "5.3", "rotated"),
        row("1/3", [8], "2.0", "a"), row("1/3", [6], "2.5", "b"),
        row("1/3", [10], "2.4", "b"), row("1/3", [2, 2], "1.0", "a"),
        row("1/3", [12], "0", "a"),
        row("--1/9", [8], "3.0"), row("1/9", [6], "3.5"),
        row("1/9", [4], "0"), row("1/9", [10], "3.4"),
        row("1/5", [6], "1.0", ambient="SolidTorus"),
        row("1/5", [4], "2.0", ambient="SolidTorus"),
    ]
    forged = bounds.VolumeDB.from_json_dict(data)
    flagged = bounds.column_monotonicity(forged)
    assert flagged == sorted_scan_monotonicity(forged)
    assert [v.subject for v in flagged] \
        == ["1/3", "1/3", "1/4", "1/5", "1/9"]
    assert [v.detail.split()[1] for v in flagged[:2]] == ["2.4", "0"]
    assert "value 3.0 at (8,)" in flagged[-1].detail
