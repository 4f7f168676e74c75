"""End-to-end tests of the command-line interface."""

import json
import os
import random
import re
import subprocess
import sys

import pytest

import repvol
from repvol import bounds, cli, graphs, pieces, words

import cli_parity

V4_INDICES = "1,1,1,1,1,1,1,1,2,2"

BRACELET6 = dict(cli_parity.MORE_SPECS)["bracelet6"]
LATTICE2X2 = {"name": "lattice2x2-bigon", "arrangement": "lattice",
              "ambient": "S3", "rows": 2, "cols": 2, "slot": "2"}
CLASP_BRACELET = {"name": "clasp4", "arrangement": "bracelet",
                  "ambient": "S3", "slots": ["1/2", "1/4", "1/4", "1/4"]}


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture()
def bracelet6(tmp_path):
    return write_json(tmp_path / "bracelet6.json", BRACELET6)


@pytest.fixture()
def c6_path(tmp_path):
    graph = graphs.cycle_reflection_graph(6)
    return write_json(tmp_path / "c6.json", graphs.graph_to_json_dict(graph))


@pytest.fixture()
def saucer_path(tmp_path):
    template = pieces.saucer_template("S")
    return write_json(tmp_path / "saucer.json", template.to_json_dict())


def test_reduce_inline(capsys):
    code, out, err = run(capsys, ["reduce", "--order", "10",
                                  "--indices", V4_INDICES])
    assert code == 0
    assert out == "T1: 4/5, T2: 1/5\n"
    assert err == ""


def test_reduce_basis_word(capsys):
    code, out, _ = run(capsys, ["reduce", "--order", "4",
                                "--indices", "1,1,1,1"])
    assert code == 0
    assert out == "T1: 1\n"


def test_reduce_word_file(capsys, tmp_path):
    path = write_json(tmp_path / "w.json",
                      {"order": 10, "indices": [1, 1, 1, 1, 1, 1, 1, 1, 2, 2]})
    code, out, _ = run(capsys, ["reduce", path])
    assert code == 0
    assert out == "T1: 4/5, T2: 1/5\n"


def test_reduce_invalid_indices_exit_2(capsys):
    code, out, err = run(capsys, ["reduce", "--order", "4",
                                  "--indices", "1,3,1,3"])
    assert code == 2
    assert out == ""
    assert err.startswith("DeltaOutOfRange:")


def test_library_recursion_error_exit_2(capsys, monkeypatch):
    def deep(word):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(words, "reduce", deep)
    code, out, err = run(capsys, ["reduce", "--order", "10",
                                  "--indices", V4_INDICES])
    assert code == 2
    assert out == ""
    assert err == "RecursionError: maximum recursion depth exceeded\n"


@pytest.mark.parametrize("module, name, error, argv, code", [
    (words, "reduce", words.NonTermination,
     ["reduce", "--order", "10", "--indices", V4_INDICES], 2),
    (graphs, "validate_reflection_graph", graphs.GroupTooLarge,
     ["graph", "validate", "{graph}"], 2),
    (pieces, "replicate", pieces.SizeExceeded,
     ["replicate", "{template}", "--schedule", "2"], 2),
    (bounds, "lower_bound", bounds.UncertifiedTangle, ["bound", "{spec}"], 3),
], ids=["NonTermination", "GroupTooLarge", "SizeExceeded",
        "UncertifiedTangle"])
def test_library_refusal_exit_codes(capsys, monkeypatch, c6_path, saucer_path,
                                    bracelet6, module, name, error, argv,
                                    code):
    def refuse(*args):
        raise error("refused here")

    monkeypatch.setattr(module, name, refuse)
    argv = [a.format(graph=c6_path, template=saucer_path, spec=bracelet6)
            for a in argv]
    assert run(capsys, argv) == (code, "",
                                 "%s: refused here\n" % error.__name__)


# Prints the library layers a `python -m repvol.cli` run imported.
LAYERS_LOADED = """
import runpy, sys
try:
    runpy.run_module("repvol.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(sorted(m.split(".")[1] for m in sys.modules
             if m.startswith("repvol.")))
"""


@pytest.mark.parametrize("argv, layers, refusal", [
    (["reduce", "--order", "10", "--indices", V4_INDICES], ["words"], ""),
    (["classify", "rat(2 1)"], ["arborescent"], ""),
    (["replicate", "{template}", "--schedule", "2"], ["pieces"], ""),
    (["bound", "{spec}"], ["bounds"], ""),
    (["report", "{spec}"], ["bounds"], ""),
    # no recorded entry grounds (2,), so the slot reaches the classifier
    (["bound", "{pair}"], ["arborescent", "bounds"], "UncertifiedTangle"),
    (["graph", "validate", "{graph}"], ["graphs"], ""),
    (["graph", "product", "{graph}"], ["graphs"], ""),
    (["graph", "replicant", "{graph}", "--template", "{template}"],
     ["graphs", "pieces"], ""),
    (["db", "check"], ["bounds"], ""),
], ids=["reduce", "classify", "replicate", "bound", "report",
        "bound-classifier", "graph", "graph-product", "graph-replicant",
        "db"])
def test_each_command_loads_only_its_layers(tmp_path, c6_path, saucer_path,
                                            bracelet6, argv, layers,
                                            refusal):
    pair = write_json(tmp_path / "pair.json",
                      {"arrangement": "bracelet", "ambient": "S3",
                       "slots": ["1/4", "1/4"]})
    argv = [a.format(graph=c6_path, template=saucer_path, spec=bracelet6,
                     pair=pair) for a in argv]
    src = os.path.dirname(os.path.dirname(repvol.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("RV_DB", None)
    proc = subprocess.run([sys.executable, "-c", LAYERS_LOADED, *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr.split(":")[0] == refusal
    assert proc.stdout.splitlines()[-1] == repr(layers)


def test_reduce_argument_combinations(capsys, tmp_path):
    path = write_json(tmp_path / "w.json", {"order": 4, "indices": [1] * 4})
    code, _, err = run(capsys, ["reduce", path, "--order", "4"])
    assert code == 2 and "UsageError" in err
    code, _, err = run(capsys, ["reduce"])
    assert code == 2
    code, _, err = run(capsys, ["reduce", "--order", "4",
                                "--indices", "a,b"])
    assert code == 2 and "UsageError" in err


def test_reduce_certificate_plain(capsys):
    code, out, _ = run(capsys, ["reduce", "--order", "10",
                                "--indices", V4_INDICES, "--certificate"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "T1: 4/5, T2: 1/5"
    assert lines[1] == "certificate:"
    assert any(") / 2  [cut " in line for line in lines)
    assert any(line.startswith("  solved ") for line in lines)
    assert lines[-1] == "replay: ok"


def test_reduce_json_deterministic(capsys):
    argv = ["--format", "json", "reduce", "--order", "10",
            "--indices", V4_INDICES, "--certificate"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    _, second, _ = run(capsys, argv)
    assert first == second
    data = json.loads(first)
    assert data["coefficients"] == {"1": "4/5", "2": "1/5"}
    assert data["word"]["order"] == 10
    assert data["certificate"]["coefficients"] == data["coefficients"]


def test_cli_output_matches_the_recorded_digests(tmp_path):
    # every command of tests/cli_parity.py; when an output change is
    # intended, that script rewrites the digests
    recorded = [line for line in cli_parity.DIGESTS.read_text().splitlines()
                if not line.startswith("#")]
    was = {line.rsplit(" | ", 3)[0]: line for line in recorded}
    lines, moved = [], []
    for argv, line, out, err in cli_parity.replay(str(tmp_path)):
        lines.append(line)
        old = was.get(json.dumps(argv))
        if line != old:
            moved.append("repvol %s: exit %s -> %s\n%s" % (
                " ".join(argv), old and old.rsplit(" | ", 3)[1],
                line.rsplit(" | ", 3)[1],
                "".join("    %s\n" % text
                        for text in (out + err).splitlines()[:4])))
    if moved:
        pytest.fail("%d commands print other bytes:\n%s"
                    % (len(moved), "".join(moved)), pytrace=False)
    assert lines == recorded


def pinned_run(tmp_path, monkeypatch, argv):
    # (exit code, stdout SHA-256) of a tests/cli_parity.py command; these
    # pins are fixed by hand, so rewriting the digests file cannot move them
    cli_parity.build_fixtures(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return cli_parity.digest(argv.split())[0].split(" | ")[1:3]


@pytest.mark.parametrize("fmt, digest", [
    ("plain",
     "56bee77c2ed61037da128331847c3f5e64f7931e3bab0c8eafad4c71c9acbdd5"),
    ("json",
     "7e0cb81334d95c272e0c85eb3531ad7bc9282510931cb247695454d623793a7f"),
    ("markdown",
     "a23b4f9e1c8bef1207251a3d993f213f629e4bf21ce1129d19899a4cf3f81b4f"),
])
def test_reduce_certificate_output_is_pinned(tmp_path, monkeypatch, fmt,
                                             digest):
    argv = "reduce word-v4.json --certificate --format " + fmt
    assert pinned_run(tmp_path, monkeypatch, argv) == ["0", digest]


@pytest.mark.parametrize("argv, digest", [
    ("replicate template-square.json --schedule 2,4",
     "734e1dd8ef55949be0008bd1037a594d79c37c0868a3ebfb3440d0ff629f413e"),
    ("replicate template-cylinder-3.json --schedule 4",
     "a423e4a570be28d271883d757894547b89b969ce57d610a9c868fe0cf1bcd2c7"),
    ("graph replicant graph-c6.json --template template-saucer.json",
     "b64b3cb1ff43a14500d832bdb19777c013c07da08ea2b4f85e6f0581c51752e3"),
], ids=["square-2x4", "cylinder-3-strands", "c6-saucer"])
def test_complex_output_is_pinned(tmp_path, monkeypatch, argv, digest):
    assert pinned_run(tmp_path, monkeypatch, argv) == ["0", digest]


@pytest.mark.parametrize("argv, digest", [
    ("graph validate graph-lattice.json --format json",
     "6c1b8b78c1649f99dcdef376b12a7f77bfe7438ae83f74bdefbe0479ae71ab0d"),
    ("graph product graph-lattice.json",
     "200d1978138c4f97fe8649a241a510e5d28f4b85af69594a648c5a1d9a7ca434"),
], ids=["validate-json", "product"])
def test_lattice_graph_output_is_pinned(tmp_path, monkeypatch, argv, digest):
    # the 4x4 lattice, whose vertices are tuples
    assert pinned_run(tmp_path, monkeypatch, argv) == ["0", digest]


def test_classify_clasp(capsys):
    code, out, _ = run(capsys, ["classify", "rat(1/2)"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Principally6"
    assert "principal signature: (6)" in lines


def test_classify_verdicts(capsys):
    for expr, verdict in [("rat(3)", "EntirelyNonHyperbolic"),
                          ("rat(1/4)", "Principally4"),
                          ("sum(rat(3/2), rat(3/2))", "Principally2"),
                          ("sum(q(1), rat(1/3))", "EntirelyNonHyperbolic")]:
        code, out, _ = run(capsys, ["classify", expr])
        assert code == 0
        assert out.splitlines()[0] == verdict


def test_classify_json(capsys):
    code, out, _ = run(capsys, ["--format", "json", "classify", "rat(1/4)"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Principally4"
    assert data["principal_signature"] == [4]
    code, out, _ = run(capsys, ["--format", "json", "classify", "rat(5)"])
    assert json.loads(out)["principal_signature"] is None


def test_classify_parse_error(capsys):
    code, _, err = run(capsys, ["classify", "rat("])
    assert code == 2
    assert err.startswith("ParseError:")


def test_classify_deep_expression(capsys):
    parts = ["rat(%d/%d)" % (k, k + 1) for k in range(1, 1201)]
    text = ("".join("sum(%s, " % p for p in parts[:-1]) + parts[-1]
            + ")" * (len(parts) - 1))
    code, out, err = run(capsys, ["classify", text])
    assert code == 0
    assert out.splitlines()[0] == "Principally2"
    assert err == ""


def test_bound_bracelet6(capsys, bracelet6):
    code, out, _ = run(capsys, ["bound", bracelet6, "--compare", "t=6"])
    assert code == 0
    lines = out.splitlines()
    assert "total: 32.78581694" in lines
    assert any("7.32772476" in l and "alternating-twist lower" in l
               for l in lines)
    assert any("10.99158714" in l and "montesinos-family lower" in l
               for l in lines)
    assert any("32.9819" in l and "externally computed" in l for l in lines)


def test_bound_lattice_bigon(capsys, tmp_path):
    path = write_json(tmp_path / "lattice.json", LATTICE2X2)
    code, out, _ = run(capsys, ["bound", path])
    assert code == 0
    assert "total: 12.52892268" in out.splitlines()


def test_bound_json_deterministic(capsys, bracelet6):
    argv = ["--format", "json", "bound", bracelet6, "--compare", "t=6"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    _, second, _ = run(capsys, argv)
    assert first == second
    data = json.loads(first)
    assert data["total"] == "32.78581694"
    assert len(data["terms"]) == 6
    assert len(data["comparisons"]) == 3


def test_bound_slot_numbers_follow_slot_order(capsys, tmp_path):
    # slots 0, 2 and 1, 4 share a term each; every format still numbers
    # the slots 0..n-1
    path = write_json(tmp_path / "custom.json", {
        "arrangement": "custom", "ambient": "S3", "slots": [
            {"family": "rational-square", "conway": c, "signature": sig}
            for c, sig in (("2", [2, 2]), ("2", [2, 4]), ("2", [2, 2]),
                           ("3", [2, 2]), ("2", [2, 4]))]})
    _, out, _ = run(capsys, ["bound", path])
    assert [line.split(":")[0] for line in out.splitlines()
            if line.startswith("  slot ")] == \
        ["  slot %d" % i for i in range(5)]
    _, out, _ = run(capsys, ["report", path])
    assert [line.split(" | ")[0] for line in out.splitlines()
            if line.startswith("| ") and "rational-square" in line] == \
        ["| %d" % i for i in range(5)]
    _, out, _ = run(capsys, ["bound", path, "--format", "json"])
    terms = json.loads(out)["terms"]
    assert [t["slot"] for t in terms] == list(range(5))
    assert [t["conway"] for t in terms] == ["2", "2", "2", "3", "2"]
    assert [t["signature"] for t in terms] == [[2, 2], [2, 4], [2, 2],
                                               [2, 2], [2, 4]]


def test_json_output_is_json_dumps_across_writes(capsys, tmp_path):
    # 1600 terms make 56 036 encoder chunks, so four writes
    spec = {"arrangement": "lattice", "ambient": "TxI", "rows": 40,
            "cols": 40, "slot": "2 1"}
    path = write_json(tmp_path / "lattice.json", spec)
    code, out, _ = run(capsys, ["bound", path, "--format", "json"])
    report = bounds.lower_bound(bounds.VolumeDB.builtin(), spec)
    assert code == 0
    assert out == json.dumps(report.to_json_dict(), indent=2,
                             sort_keys=True) + "\n"


def joined_plain_report(report, places=8):
    """The plain text of a report as it was written before reports were
    streamed: every line built, then joined."""
    lines = ["%s: %s in %s, rule %s" % (report.name, report.arrangement,
                                        report.ambient, report.rule)]
    for i, t in enumerate(report.terms):
        lines.append("  slot %s: %s %s (%s) = %s [%s, %s]" % (
            i, t.family, t.conway, ", ".join(str(n) for n in t.signature),
            t.volume, t.basis, t.provenance))
    lines.append("total: %s" % bounds.format_fixed(report.total, places))
    lines.append("note: %s." % report.equality_note)
    for c in report.comparisons:
        lines.append("compare %s (%s): %s" %
                     (c.name, c.kind, bounds.format_fixed(c.value, places)))
    if report.reference_volume is not None:
        lines.append("reference volume %s (externally computed; not "
                     "derived here)" % report.reference_volume)
    return "\n".join(lines)


def joined_markdown(report, places=8):
    """BoundReport.to_markdown() as it was written before reports were
    streamed."""
    lines = ["# Volume lower bound: %s" % report.name, "",
             "- arrangement: %s in %s" % (report.arrangement,
                                          report.ambient),
             "- rule: %s" % report.rule, "",
             "| slot | tangle | signature | volume | basis |",
             "| --- | --- | --- | --- | --- |"]
    for i, t in enumerate(report.terms):
        lines.append("| %s | %s %s | %s | %s | %s |" % (
            i, t.family, t.conway,
            "(%s)" % ", ".join(str(n) for n in t.signature),
            t.volume, t.basis))
    lines += ["", "**Total: %s**" % bounds.format_fixed(report.total,
                                                         places),
              "", "Note: %s." % report.equality_note]
    for c in report.comparisons:
        lines.append("- %s (%s): %s" % (c.name, c.kind,
                                        bounds.format_fixed(c.value, places)))
    if report.reference_volume is not None:
        lines.append("")
        lines.append("Reference volume %s (externally computed; "
                     "not derived here)." % report.reference_volume)
    return "\n".join(lines) + "\n"


def dumped(obj):
    return json.JSONEncoder(indent=2, sort_keys=True).encode(obj) + "\n"


def test_streamed_reports_are_the_joined_text_at_size(capsys, tmp_path):
    # 14 400 slots over four tangles, more than three blocks of slot
    # lines; a user row puts "%", a quote, a backslash, non-ASCII letters
    # and the text the JSON writer cuts at in a conway and a provenance,
    # and a newline in the provenance
    user = '5%d "slot": 0 \\ \u00e9'
    table = bounds.VolumeDB.builtin().to_json_dict()
    table["entries"].append({
        "family": "rational-square", "conway": user, "ambient": "TxI",
        "signature": [2, 2], "volume": "3.25",
        "provenance": '100%s "slot": 0,\n\\ "terms": [] \u00fc'})
    db_path = write_json(tmp_path / "table.json", table)
    rng = random.Random(120)
    lattice = {"name": "lattice %d", "arrangement": "lattice",
               "ambient": "TxI", "rows": 120, "cols": 120,
               "slots": [rng.choice(("2 1", " 2  1", "-3", user))
                         for _ in range(14400)],
               "reference_volume": "1e5"}
    batch = tmp_path / "batch"
    batch.mkdir()
    files = {"a-lattice.json": lattice, "b-bracelet.json": BRACELET6,
             "c-clasp.json": CLASP_BRACELET, "d-empty.json": {
                 "arrangement": "custom", "ambient": "S3", "slots": []},
             "e-malformed.json": {"arrangement": "lattice"}}
    for name, data in files.items():
        write_json(batch / name, data)
    path = write_json(tmp_path / "lattice.json", lattice)
    db = bounds.VolumeDB.load(db_path)
    comparisons = tuple(bounds.classical_bounds(6, "montesinos"))
    report = bounds.lower_bound(db, lattice, comparisons)
    options = ["--db", db_path, "--compare", "t=6"]
    assert {t.conway for t in report.terms} == {"2 1", "3", user}
    for fmt, text in (("plain", joined_plain_report(report) + "\n"),
                      ("markdown", joined_markdown(report)),
                      ("json", dumped(report.to_json_dict()))):
        assert run(capsys, ["bound", path, "--format", fmt] + options) \
            == (0, text, "")
        assert "".join(report.render(fmt)) + "\n" * (fmt == "json") == text

    rows, blocks = [], []
    for name, data in files.items():
        try:
            one = bounds.lower_bound(db, data, comparisons)
        except bounds.BoundsError as exc:
            rows.append({"file": name, "error": {
                "type": type(exc).__name__, "message": str(exc)}})
            blocks.append("== %s ==\nerror %s: %s"
                          % (name, type(exc).__name__, exc))
        else:
            rows.append({"file": name, "report": one.to_json_dict()})
            blocks.append((name, one))
    assert [row["file"] for row in rows if "error" in row] == [
        "c-clasp.json", "e-malformed.json"]
    assert run(capsys, ["bound", str(batch), "--format", "json"]
               + options) == (2, dumped({"results": rows}), "")
    for fmt, render in (("plain", joined_plain_report),
                        ("markdown", lambda r: joined_markdown(r)[:-1])):
        text = "\n\n".join(
            block if isinstance(block, str) else
            "== %s ==\n%s" % (block[0], render(block[1]))
            for block in blocks) + "\n"
        assert run(capsys, ["bound", str(batch), "--format", fmt]
                   + options) == (2, text, "")


def test_bound_uncertified_exit_3(capsys, tmp_path):
    path = write_json(tmp_path / "clasp4.json", CLASP_BRACELET)
    code, out, err = run(capsys, ["bound", path])
    assert code == 3
    assert out == ""
    assert err.startswith("UncertifiedTangle:")


def test_bound_bad_compare(capsys, bracelet6):
    code, _, err = run(capsys, ["bound", bracelet6, "--compare", "six"])
    assert code == 2 and "UsageError" in err


def test_bound_compare_longer_than_int_reads_is_refused_by_name(
        capsys, bracelet6):
    # one digit over the interpreter's limit ended in a bare ValueError
    # from int(), and at the limit printing the comparisons did
    was = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, ["bound", bracelet6,
                                      "--compare", "t=" + "9" * 4301])
        assert (code, out) == (2, "")
        assert err == ("UsageError: comparison t=<4301 digits> has more "
                       "digits than this interpreter reads as an integer "
                       "(4300)\n")
        for fmt in ("plain", "json", "markdown"):
            code, out, err = run(capsys, [
                "bound", bracelet6, "--compare", "t=" + "9" * 4300,
                "--precision", "12", "--format", fmt])
            assert (code, err) == (0, "")
            assert re.search(r"\d{4301}\.\d{12}\b", out)
    finally:
        sys.set_int_max_str_digits(was)


def test_a_fraction_longer_than_int_reads_is_refused_by_name(
        capsys, tmp_path):
    # int() of the digits ended in a bare ValueError, which the bound's
    # classifier fallback did not catch; "1/x" was refused as unreadable
    from repvol import arborescent
    was = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        slot = "1/" + "9" * 5000
        with pytest.raises(arborescent.ParseError) as info:
            arborescent.parse_conway(slot)
        assert str(info.value) == (
            "fraction <1 digits>/<5000 digits> has more digits than this "
            "interpreter reads as an integer (4300)")
        for slots in ([slot] * 4, ["1/x"] * 4):
            spec = dict(CLASP_BRACELET, name="long", slots=slots)
            with pytest.raises(bounds.UncertifiedTangle):
                bounds.lower_bound(bounds.VolumeDB.builtin(), spec)
            path = write_json(tmp_path / "long.json", spec)
            code, out, err = run(capsys, ["bound", path])
            assert (code, out) == (3, "")
            assert err.startswith("UncertifiedTangle: slot 0 ")
        code, out, err = run(capsys, ["classify", "rat(%s)" % slot])
        assert (code, out) == (2, "")
        assert err == "ParseError: %s\n" % info.value
    finally:
        sys.set_int_max_str_digits(was)


def test_bound_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["bound", str(tmp_path / "absent.json")])
    assert code == 2
    assert "FileNotFoundError" in err


def test_bound_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = run(capsys, ["bound", str(path)])
    assert code == 2
    assert "JSONDecodeError" in err


def custom_square(signature):
    return {"arrangement": "custom", "ambient": "S3", "slots": [
        {"family": "rational-square", "conway": "2", "signature": signature}]}


MALFORMED_BOUND_SPECS = {
    "slot-number": {"arrangement": "bracelet", "ambient": "S3",
                    "slots": [4, "1/4"]},
    "slot-null": {"arrangement": "bracelet", "ambient": "S3",
                  "slots": ["1/4", None]},
    "slots-seven": {"arrangement": "bracelet", "ambient": "S3", "slots": 7},
    "top-array": [1, 2],
    "signature-five": custom_square(5),
    "family-list": {"arrangement": "bracelet", "ambient": "S3",
                    "slots": [{"conway": "1/4", "family": ["x"]}] * 4},
    "family-one": {"arrangement": "bracelet", "ambient": "S3",
                   "slots": [{"conway": "1/4", "family": 1}] * 4},
    "orientation-one": {"arrangement": "bracelet", "ambient": "S3",
                        "slots": [{"conway": "1/4", "orientation": 1}] * 4},
    "orientation-true": {"arrangement": "bracelet", "ambient": "S3",
                         "slots": [{"conway": "1/4",
                                    "orientation": True}] * 4},
    "no-conway": {"arrangement": "bracelet", "ambient": "S3",
                  "slots": [{"family": "reciprocal-saucer"}] * 4},
    "signature-float-string": custom_square([2.9, "2"]),
    "signature-float": custom_square([2.0, 2]),
    "signature-strings": custom_square(["2", "2"]),
    "signature-true": custom_square([True, 2]),
    "signature-infinity": custom_square([float("inf"), 2]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BOUND_SPECS))
def test_bound_malformed_description_exit_2(capsys, tmp_path, case):
    path = write_json(tmp_path / "spec.json", MALFORMED_BOUND_SPECS[case])
    code, out, err = run(capsys, ["bound", path])
    assert code == 2 and out == ""
    name, message = err.rstrip("\n").split(": ", 1)
    assert issubclass(getattr(bounds, name), bounds.BoundsError)
    assert name != "UncertifiedTangle"
    assert "slot" in message or "description" in message


def test_bound_signature_entries_must_be_integers(capsys, tmp_path):
    path = write_json(tmp_path / "spec.json", custom_square([2.9, "2"]))
    code, out, err = run(capsys, ["bound", path])
    assert (code, out) == (2, "")
    assert err == ("BoundsError: slot 0: signature entries must be "
                   "integers, got [2.9, '2']\n")


@pytest.mark.parametrize("rows", [2.9, float("inf")])
def test_bound_lattice_rows_must_be_integers(capsys, tmp_path, rows):
    path = write_json(tmp_path / "spec.json", dict(LATTICE2X2, rows=rows))
    code, out, err = run(capsys, ["bound", path])
    assert (code, out) == (2, "")
    assert err == ("ArrangementInvalid: rows and cols must be integers, "
                   "got %r and 2\n" % rows)


def test_bound_oversized_lattice_exits_2(capsys, tmp_path):
    path = write_json(tmp_path / "spec.json",
                      dict(LATTICE2X2, rows=10 ** 20))
    code, out, err = run(capsys, ["bound", path])
    assert (code, out) == (2, "")
    assert err == ("ArrangementInvalid: a %d x 2 lattice has more than %d "
                   "slots\n" % (10 ** 20, repvol.COPY_LIMIT))


def test_batch_bound_malformed_descriptions(capsys, tmp_path):
    d = tmp_path / "specs"
    d.mkdir()
    for case, data in MALFORMED_BOUND_SPECS.items():
        write_json(d / (case + ".json"), data)
    write_json(d / "good.json", BRACELET6)
    code, out, _ = run(capsys, ["bound", str(d)])
    assert code == 2
    assert out.count("\nerror BoundsError: ") == len(MALFORMED_BOUND_SPECS)
    assert "== good.json ==\nbracelet6:" in out


def test_batch_bound_jobs_deterministic(capsys, tmp_path):
    d = tmp_path / "specs"
    d.mkdir()
    write_json(d / "b-lattice.json", LATTICE2X2)
    write_json(d / "a-bracelet.json", BRACELET6)
    code, out, _ = run(capsys, ["--format", "json", "bound", str(d)])
    assert code == 0
    rows = json.loads(out)["results"]
    assert [r["file"] for r in rows] == ["a-bracelet.json", "b-lattice.json"]
    assert rows[0]["report"]["total"] == "32.78581694"


def test_batch_bound_mixed_results(capsys, tmp_path):
    d = tmp_path / "specs"
    d.mkdir()
    write_json(d / "good.json", BRACELET6)
    write_json(d / "refused.json", CLASP_BRACELET)
    code, out, _ = run(capsys, ["bound", str(d)])
    assert code == 3
    assert "== good.json ==" in out
    assert "error UncertifiedTangle:" in out
    (d / "broken.json").write_text("{")
    code, out, _ = run(capsys, ["--format", "json", "bound", str(d)])
    assert code == 2
    rows = json.loads(out)["results"]
    assert rows[0]["error"]["type"] == "JSONDecodeError"
    assert rows[2]["error"]["type"] == "UncertifiedTangle"
    assert set(rows[1]["report"]) >= {"terms", "total"}


DEEP_JSON = "[" * 100000 + "]" * 100000


def refuse_spec_named_limit(monkeypatch):
    """Make lower_bound raise SizeExceeded for the spec named "limit"."""
    real = bounds.lower_bound

    def lower_bound(db, spec, comparisons=()):
        if spec.get("name") == "limit":
            raise pieces.SizeExceeded("a replicant above the copy limit")
        return real(db, spec, comparisons)

    monkeypatch.setattr(bounds, "lower_bound", lower_bound)


def test_batch_bound_reports_too_deep_json(capsys, tmp_path):
    # the stdlib decoder's RecursionError used to abort the whole batch
    d = tmp_path / "specs"
    d.mkdir()
    write_json(d / "good.json", BRACELET6)
    (d / "deep.json").write_text(DEEP_JSON)
    code, out, err = run(capsys, ["bound", str(d)])
    assert (code, err) == (2, "")
    assert out.startswith("== deep.json ==\nerror RecursionError: ")
    assert "\n\n== good.json ==\nbracelet6:" in out


def test_batch_bound_reports_limit_refusal(capsys, monkeypatch, tmp_path):
    refuse_spec_named_limit(monkeypatch)
    d = tmp_path / "specs"
    d.mkdir()
    write_json(d / "good.json", BRACELET6)
    write_json(d / "limit.json", dict(BRACELET6, name="limit"))
    code, out, err = run(capsys, ["bound", str(d)])
    assert (code, err) == (2, "")
    assert out.startswith("== good.json ==\nbracelet6:")
    assert out.endswith("\n\n== limit.json ==\nerror SizeExceeded: "
                        "a replicant above the copy limit\n")


@pytest.mark.parametrize("kind", ["malformed", "limit", "uncertified",
                                  "too-deep"])
def test_single_file_and_batch_exit_codes_agree(capsys, monkeypatch,
                                                tmp_path, kind):
    refuse_spec_named_limit(monkeypatch)
    d = tmp_path / "specs"
    d.mkdir()
    write_json(d / "good.json", BRACELET6)
    path = d / "bad.json"
    if kind == "too-deep":
        path.write_text(DEEP_JSON)
    else:
        write_json(path, {"malformed": MALFORMED_BOUND_SPECS["slots-seven"],
                          "limit": dict(BRACELET6, name="limit"),
                          "uncertified": CLASP_BRACELET}[kind])
    single, _, err = run(capsys, ["bound", str(path)])
    batch, out, _ = run(capsys, ["bound", str(d)])
    assert single == batch == (3 if kind == "uncertified" else 2)
    name = err.split(":")[0]
    assert "== bad.json ==\nerror %s: " % name in out


def test_batch_bound_empty_dir(capsys, tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    code, _, err = run(capsys, ["bound", str(d)])
    assert code == 2 and "UsageError" in err


def test_report_markdown(capsys, bracelet6):
    code, out, _ = run(capsys, ["report", bracelet6, "--compare", "t=6"])
    assert code == 0
    assert out.startswith("# Volume lower bound: bracelet6")
    assert "**Total: 32.78581694**" in out
    assert "| 5 | reciprocal-saucer 1/5 | (6) | 5.86524434 |" in out


def test_graph_validate_plain(capsys, c6_path):
    code, out, err = run(capsys, ["graph", "validate", c6_path])
    assert code == 0
    assert out == "valid, |G|=6, edge classes: 2\n"
    assert err == ""


def test_graph_validate_json(capsys, c6_path):
    code, out, _ = run(capsys, ["--format", "json", "graph", "validate",
                                c6_path])
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    assert data["group_order"] == 6
    assert data["valence"] == 2
    assert data["parts"] == [[0, 2, 4], [1, 3, 5]]


def test_graph_validate_rejects(capsys, tmp_path):
    odd = graphs.ReflectionGraph(
        range(5), [(i, (i + 1) % 5) for i in range(5)], [])
    path = write_json(tmp_path / "c5.json", graphs.graph_to_json_dict(odd))
    code, _, err = run(capsys, ["graph", "validate", path])
    assert code == 2
    assert err.startswith("NotBipartite:")


def test_graph_validate_names_an_object_vertex(capsys, tmp_path):
    # printed a bare "TypeError: unhashable type: 'dict'"
    path = write_json(tmp_path / "g.json", {"vertices": [0, {"a": 1}],
                                            "edges": [], "reflections": []})
    code, out, err = run(capsys, ["graph", "validate", path])
    assert (code, out) == (2, "")
    assert err == "GraphError: vertex 1 is not hashable: {'a': 1}\n"


def test_graph_validate_refuses_an_unhashable_image(capsys, tmp_path):
    # printed a "TypeError: unhashable type: 'dict'" traceback, exit 1
    path = write_json(tmp_path / "g.json", {
        "vertices": [0, 1], "edges": [[0, 1]],
        "reflections": [{"mapping": [[0, {}], [1, 0]], "swaps": [[0, 1]]}]})
    code, out, err = run(capsys, ["graph", "validate", path])
    assert (code, out) == (2, "")
    assert err == ("BadReflection: reflection 0 is not a permutation of "
                   "the vertex set\n")


def test_graph_validate_too_deep_json_exit_2(capsys, tmp_path):
    # the stdlib JSON decoder recurses once per nested array
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run(capsys, ["graph", "validate", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("RecursionError: ")


def test_graph_replicant_matches_library(capsys, c6_path, saucer_path):
    code, out, _ = run(capsys, ["graph", "replicant", c6_path,
                                "--template", saucer_path])
    assert code == 0
    data = json.loads(out)
    assert data["group_order"] == 6
    built = pieces.GluingComplex.from_json_dict(data["complex"])
    expected = pieces.replicate(pieces.saucer_template("S"), (6,))
    assert pieces.isomorphic(built, expected)


def test_graph_product(capsys, c6_path):
    code, out, _ = run(capsys, ["graph", "product", c6_path])
    assert code == 0
    product = graphs.graph_from_json_dict(json.loads(out))
    report = graphs.validate_reflection_graph(product)
    assert len(product.vertices) == 12
    assert report.valence == 3
    assert report.group_order == 12


def test_replicate_matches_library(capsys, saucer_path):
    code, out, _ = run(capsys, ["replicate", saucer_path,
                                "--schedule", "6"])
    assert code == 0
    built = pieces.GluingComplex.from_json_dict(json.loads(out))
    expected = pieces.replicate(pieces.saucer_template("S"), (6,))
    assert pieces.isomorphic(built, expected)


@pytest.mark.parametrize("template", [
    [1],
    {"id": "x", "faces": 5, "strands": []},
    {"id": "x", "faces": [[1, 2], [1, 2]], "strands": [[1, 2]]},
])
def test_replicate_malformed_template_exit_2(capsys, tmp_path, template):
    path = write_json(tmp_path / "template.json", template)
    code, _, err = run(capsys, ["replicate", path, "--schedule", "2"])
    assert code == 2
    assert err.startswith("PieceError: malformed piece template JSON")


@pytest.mark.parametrize("field, value, message", [
    ("closed_components", float("inf"),
     "closed_components must be an integer, got inf"),
    ("closed_components", 2.9,
     "closed_components must be an integer, got 2.9"),
    ("faces", [[1.9, 2.2], [1, 2]], "face labels must be integers, got "
     "(1.9, 2.2)"),
])
def test_replicate_non_integer_template_field_exit_2(capsys, tmp_path, field,
                                                     value, message):
    # int() overflowed on infinity (a traceback, exit 1) and read 1.9 as 1
    template = dict(pieces.saucer_template("S").to_json_dict(),
                    **{field: value})
    path = write_json(tmp_path / "template.json", template)
    code, out, err = run(capsys, ["replicate", path, "--schedule", "2"])
    assert (code, out, err) == (2, "", "PieceError: %s\n" % message)


def test_replicate_oversized_schedule_exits_2(capsys, saucer_path):
    code, out, err = run(capsys, ["replicate", saucer_path, "--schedule",
                                  str(10 ** 20)])
    assert (code, out) == (2, "")
    assert err == ("SizeExceeded: schedule (%d,) makes more than %d copies\n"
                   % (10 ** 20, repvol.COPY_LIMIT))


def test_replicate_template_errors_keep_their_class(capsys, tmp_path):
    path = write_json(tmp_path / "template.json",
                      {"id": "x", "faces": [[1, 2]], "strands": []})
    code, _, err = run(capsys, ["replicate", path, "--schedule", "2"])
    assert code == 2
    assert err.startswith("PieceError: unmatched endpoints")


def test_reduce_bool_subscripts_exit_2(capsys, tmp_path):
    # true == 1 was read as a subscript printed "TTrue"
    path = write_json(tmp_path / "word.json",
                      {"order": 4, "indices": [True, True, 2, 2]})
    code, out, err = run(capsys, ["reduce", path])
    assert (code, out) == (2, "")
    assert err == "DeltaOutOfRange: letter subscript True outside 1..4\n"


@pytest.mark.parametrize("word", [[4], {"order": 4, "indices": 5},
                                  {"indices": [1, 1, 2, 2]}])
def test_reduce_malformed_word_file_exit_2(capsys, tmp_path, word):
    path = write_json(tmp_path / "word.json", word)
    code, _, err = run(capsys, ["reduce", path])
    assert code == 2
    assert err.startswith("WordError: malformed word JSON")


def test_reduce_reflected_must_be_a_bool(capsys, tmp_path):
    path = write_json(tmp_path / "word.json",
                      {"order": 2, "indices": [1, 2], "reflected": "false"})
    assert run(capsys, ["reduce", path]) == (
        2, "", "WordError: malformed word JSON: reflected must be true or "
               "false, got 'false'\n")


@pytest.mark.parametrize("table, message", [
    ([], "malformed volume table (AttributeError)"),
    ({"entries": [5]}, "malformed volume table row 0 (TypeError)"),
    ({"entries": [{"family": "reciprocal-saucer", "conway": "1/4",
                   "ambient": "S3", "signature": [6], "volume": "abc"}]},
     "malformed volume table row 0 (InvalidOperation)"),
    ({"entries": [{"family": "reciprocal-saucer", "ambient": "S3",
                   "signature": [6], "volume": "1.0"}]},
     "volume table row 0 has no 'conway' field"),
    ({"entries": [], "limits": {"1/4": "abc"}},
     "malformed volume table limits (InvalidOperation)"),
    ({"entries": [{"family": "reciprocal-saucer", "conway": "1/4",
                   "ambient": "S3", "signature": [6], "volume": v}
                  for v in ("1.0", "2.0")]},
     "volume table row 1 repeats row 0"),
    ({"entries": [], "limits": {"1/4": [1, 2]}},
     "malformed volume table limits (ValueError)"),
    ({"entries": [], "limits": {"1/4": [0, [1], 0]}},
     "malformed volume table limits (ValueError)"),
] + [
    ({"entries": [{"family": "reciprocal-saucer", "conway": "1/4",
                   "ambient": "S3", "signature": [6], "volume": v}]},
     "volume table row 0: volumes must be finite, got %s" % shown)
    for v, shown in ((float("nan"), "NaN"), ("NaN", "NaN"),
                     ("Infinity", "Infinity"), (float("inf"), "Infinity"))
] + [
    ({"entries": [], "limits": {"1/4": v}},
     "volume table limits: the limit for 1/4 must be finite, got %s" % shown)
    for v, shown in ((float("nan"), "NaN"), ("NaN", "NaN"),
                     ("Infinity", "Infinity"))
] + [
    ({"entries": [], "limits": {"1/4": True}},
     "malformed volume table limits (InvalidOperation)"),
] + [
    ({"entries": [], "limits": {"1/4": v}},
     "volume table limits: the limit for 1/4 must be positive, got %s" % v)
    for v in ("-1", 0)
])
def test_db_malformed_table_exit_2(capsys, tmp_path, table, message):
    path = write_json(tmp_path / "table.json", table)
    code, _, err = run(capsys, ["--db", path, "db", "check"])
    assert code == 2
    assert err == "BoundsError: %s\n" % message


def test_db_query_single(capsys):
    code, out, _ = run(capsys, ["db", "query", "--family",
                                "reciprocal-saucer", "--conway", "1/4",
                                "--ambient", "S3", "--signature", "6"])
    assert code == 0
    assert out == "(6): 5.38411452 [builtin]\nlimit: 6.13813879\n"


def test_db_query_column(capsys):
    code, out, _ = run(capsys, ["db", "query", "--family",
                                "reciprocal-saucer", "--conway", "1/2",
                                "--ambient", "S3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(4): non-hyperbolic [builtin]"
    assert lines[1] == "(6): 2.44257492 [builtin]"
    assert lines[-1] == "limit: 3.66386237"


def test_db_query_missing(capsys):
    code, _, err = run(capsys, ["db", "query", "--family",
                                "reciprocal-saucer", "--conway", "1/7",
                                "--ambient", "S3"])
    assert code == 2
    assert err.startswith("NotFound:")


def test_db_check_clean(capsys):
    code, out, _ = run(capsys, ["db", "check"])
    assert code == 0
    assert out == "no violations\n"


def test_db_check_reports_violation(capsys, tmp_path):
    data = bounds.VolumeDB.builtin().to_json_dict()
    for row in data["entries"]:
        if (row["family"] == "reciprocal-saucer" and row["conway"] == "1/2"
                and row["signature"] == [6]):
            row["volume"] = "3.9"
    path = write_json(tmp_path / "bad.json", data)
    code, out, _ = run(capsys, ["--db", path, "db", "check"])
    assert code == 0
    assert "no violations" not in out
    assert "violation entry-above-limit 1/2:" in out


def test_db_flag_and_env(capsys, tmp_path, monkeypatch):
    data = bounds.VolumeDB.builtin().to_json_dict()
    data["entries"] = [row for row in data["entries"]
                       if row["conway"] != "1/5"]
    path = write_json(tmp_path / "trimmed.json", data)
    query = ["db", "query", "--family", "reciprocal-saucer",
             "--conway", "1/5", "--ambient", "S3", "--signature", "6"]

    monkeypatch.setenv("RV_DB", path)
    code, _, err = run(capsys, query)
    assert code == 2 and err.startswith("NotFound:")

    full_data = bounds.VolumeDB.builtin().to_json_dict()
    for row in full_data["entries"]:
        row.pop("provenance")
    full = write_json(tmp_path / "full.json", full_data)
    code, out, _ = run(capsys, ["--db", full] + query)
    assert code == 0
    assert out.splitlines()[0] == "(6): 5.86524434 [user]"


def test_precision_flag(capsys, bracelet6):
    code, out, _ = run(capsys, ["--precision", "4", "bound", bracelet6])
    assert code == 0
    assert "total: 32.7858" in out.splitlines()
    late = run(capsys, ["bound", bracelet6, "--precision", "4"])
    assert late[1] == out


def test_precision_out_of_range(capsys, bracelet6):
    with pytest.raises(SystemExit) as exc:
        run(capsys, ["--precision", "13", "bound", bracelet6])
    assert exc.value.code == 2


def test_format_position_irrelevant(capsys, c6_path):
    early = run(capsys, ["--format", "json", "graph", "validate", c6_path])
    late = run(capsys, ["graph", "validate", c6_path, "--format", "json"])
    assert early == late


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, ["frobnicate"])
    assert exc.value.code == 2
