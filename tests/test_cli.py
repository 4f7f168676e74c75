"""End-to-end tests of the command-line interface."""

import hashlib
import json

import pytest

from repvol import bounds, cli, graphs, pieces

V4_INDICES = "1,1,1,1,1,1,1,1,2,2"

BRACELET6 = {"name": "bracelet6", "arrangement": "bracelet", "ambient": "S3",
             "slots": ["1/4"] * 5 + ["1/5"], "reference_volume": "32.9819"}
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

    monkeypatch.setattr(cli.words, "reduce", deep)
    code, out, err = run(capsys, ["reduce", "--order", "10",
                                  "--indices", V4_INDICES])
    assert code == 2
    assert out == ""
    assert err == "RecursionError: maximum recursion depth exceeded\n"


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


@pytest.mark.parametrize("fmt, digest", [
    ("plain",
     "56bee77c2ed61037da128331847c3f5e64f7931e3bab0c8eafad4c71c9acbdd5"),
    ("json",
     "7e0cb81334d95c272e0c85eb3531ad7bc9282510931cb247695454d623793a7f"),
    ("markdown",
     "a23b4f9e1c8bef1207251a3d993f213f629e4bf21ce1129d19899a4cf3f81b4f"),
])
def test_reduce_certificate_output_is_pinned(capsys, fmt, digest):
    # SHA-256 of stdout, fixed so that certificate output cannot drift
    code, out, _ = run(capsys, ["--format", fmt, "reduce", "--order", "10",
                                "--indices", V4_INDICES, "--certificate"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_bound_uncertified_exit_3(capsys, tmp_path):
    path = write_json(tmp_path / "clasp4.json", CLASP_BRACELET)
    code, out, err = run(capsys, ["bound", path])
    assert code == 3
    assert out == ""
    assert err.startswith("UncertifiedTangle:")


def test_bound_bad_compare(capsys, bracelet6):
    code, _, err = run(capsys, ["bound", bracelet6, "--compare", "six"])
    assert code == 2 and "UsageError" in err


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
                   "slots\n" % (10 ** 20, pieces.COPY_LIMIT))


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
                   % (10 ** 20, pieces.COPY_LIMIT))


def test_replicate_template_errors_keep_their_class(capsys, tmp_path):
    path = write_json(tmp_path / "template.json",
                      {"id": "x", "faces": [[1, 2]], "strands": []})
    code, _, err = run(capsys, ["replicate", path, "--schedule", "2"])
    assert code == 2
    assert err.startswith("PieceError: unmatched endpoints")


@pytest.mark.parametrize("word", [[4], {"order": 4, "indices": 5},
                                  {"indices": [1, 1, 2, 2]}])
def test_reduce_malformed_word_file_exit_2(capsys, tmp_path, word):
    path = write_json(tmp_path / "word.json", word)
    code, _, err = run(capsys, ["reduce", path])
    assert code == 2
    assert err.startswith("WordError: malformed word JSON")


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
