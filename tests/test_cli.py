import json
import time
from enum import IntEnum
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from colorlie import catalog, cli, fileio
from colorlie.algebra import ColorAlgebra, structure_constants_from_table
from colorlie.cli import main, run
from colorlie.errors import ParseError, ValidationError
from colorlie.fileio import Records, Residues, json_text, parse_algebra, serialize_algebra
from colorlie.grading import GradingGroup

from test_known_space import _jacobi_breaking_sl2

ALL_NAMES = ("sl2", "heis3", "aff2", "abelian(3)", "abelian(0)", "colorSl2", "osp12")
DATA_DIR = Path(__file__).resolve().parent / "data"


def test_round_trip_parse_of_serialized(tmp_path):
    for name in ALL_NAMES:
        a = catalog.get(name)
        text = serialize_algebra(a)
        b = parse_algebra(text)
        assert b == a, name
        assert b.names == a.names, name
        # canonical files survive a parse/serialize cycle byte for byte
        assert serialize_algebra(b) == text, name


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse_algebra("{not json")
    with pytest.raises(ParseError):
        parse_algebra(json.dumps({"group": {"orders": []}}))
    doc = json.loads(serialize_algebra(catalog.get("sl2")))
    doc["extra"] = 1
    with pytest.raises(ParseError):
        parse_algebra(json.dumps(doc))


def test_parse_rejects_unknown_names():
    doc = json.loads(serialize_algebra(catalog.get("sl2")))
    doc["brackets"][0]["left"] = "bogus"
    with pytest.raises(ParseError):
        parse_algebra(json.dumps(doc))


def test_parse_rejects_wrong_degree_component():
    doc = json.loads(serialize_algebra(catalog.get("colorSl2")))
    # [x, y] must land in the (1,1) component; pointing it at x breaks grading
    doc["brackets"][0]["result"] = {"x": "1"}
    with pytest.raises(ValidationError) as err:
        parse_algebra(json.dumps(doc))
    assert err.value.location is not None
    # the parser reports the first violation the axiom check lists
    a = catalog.get("colorSl2")
    index = {name: i for i, name in enumerate(a.names)}
    table = {
        (index[b["left"]], index[b["right"]]): {index[k]: v for k, v in b["result"].items()}
        for b in doc["brackets"]
    }
    constants = structure_constants_from_table(a.group, a.bichar, a.degrees, table, a.dim)
    broken = ColorAlgebra(a.group, a.bichar, a.degrees, constants, names=a.names)
    assert err.value.location == broken.check_axioms().grading[0]


def test_parsed_file_check_axioms_reuses_the_grading_scan(monkeypatch):
    expected = catalog.get("osp12").check_axioms()
    a = parse_algebra(serialize_algebra(catalog.get("osp12")))
    # the grading scan is the only reader of the degree table on this path:
    # the parser ran it, and check_axioms takes its result from there
    monkeypatch.setattr(
        ColorAlgebra, "degree_table", lambda self: pytest.fail("grading scanned twice")
    )
    report = a.check_axioms()
    assert (report.grading, report.antisymmetry, report.jacobi) == (
        expected.grading,
        expected.antisymmetry,
        expected.jacobi,
    )
    assert report.ok


def test_parse_cross_checks_redundant_pairs():
    doc = json.loads(serialize_algebra(catalog.get("sl2")))
    # [e, f] = h is listed; adding an inconsistent [f, e] must be rejected
    doc["brackets"].append({"left": "f", "right": "e", "result": {"h": "1"}})
    with pytest.raises(ValidationError):
        parse_algebra(json.dumps(doc))
    # while the consistent complement is fine
    doc["brackets"][-1]["result"] = {"h": "-1"}
    assert parse_algebra(json.dumps(doc)) == catalog.get("sl2")


def test_parse_rejects_invalid_bicharacter(tmp_path, capsys):
    doc = {
        "group": {"orders": [3]},
        "bicharacter": {"exponents": [[1]]},
        "basis": [{"name": "a", "degree": [0]}],
        "brackets": [],
    }
    with pytest.raises(ValidationError):
        parse_algebra(json.dumps(doc))
    # the file check runs before ColorAlgebra's own, so the message is located
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["check", str(path)]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: invalid bicharacter: ")
    assert err.endswith(" (at bicharacter)\n")


def test_cli_rejects_a_bracket_listed_twice(tmp_path, capsys):
    doc = json.loads(serialize_algebra(catalog.get("sl2")))
    doc["brackets"].append(dict(doc["brackets"][0]))
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    assert run(["check", str(path)]) == (2, "")
    left, right = doc["brackets"][0]["left"], doc["brackets"][0]["right"]
    last = len(doc["brackets"]) - 1
    assert capsys.readouterr().err == (
        f"error: bracket [{left}, {right}] listed twice (at brackets[{last}])\n"
    )


def test_cli_check_catalog():
    code, out = run(["check", "catalog:sl2"])
    assert code == 0
    assert "axioms: ok" in out


def test_cli_check_json_shape():
    code, out = run(["check", "catalog:osp12", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["command"] == ["check", "catalog:osp12"]
    assert len(report["fingerprint"]) == 64


def test_cli_check_failing_file(tmp_path):
    # a diagonal bracket in a trivially graded algebra violates antisymmetry
    doc = {
        "group": {"orders": []},
        "bicharacter": {"exponents": []},
        "basis": [{"name": "a", "degree": []}, {"name": "b", "degree": []}],
        "brackets": [{"left": "a", "right": "a", "result": {"b": "1"}}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(["check", str(path), "--json"])
    assert code == 1
    report = json.loads(out)
    assert report["violations"]["antisymmetry"]


def test_cli_invariants():
    code, out = run(["invariants", "catalog:heis3", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["derived_dim"] == 1
    assert report["center_dim"] == 1
    assert report["perfect"] is False


def test_cli_der():
    code, out = run(["der", "catalog:sl2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["total_dim"] == 3
    code, out = run(["der", "catalog:colorSl2", "--n", "3", "--json"])
    assert json.loads(out)["total_dim"] == 3


def test_cli_verify_pass_and_fail():
    code, out = run(["verify", "catalog:sl2", "--n", "3", "--lemmas", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["part1"]["equal"] is True
    assert report["part2"]["equal"] is True
    assert all(
        entry.get("passed") or "precondition_failed" in entry
        for entry in report["lemmas"].values()
    )

    code, out = run(["verify", "catalog:heis3", "--n", "3", "--json"])
    assert code == 1
    report = json.loads(out)
    assert report["part1"]["preconditions_hold"] is False
    assert report["part2"]["preconditions_hold"] is False


def test_cli_verify_lemmas_skip_delta_at_n2():
    code, out = run(["verify", "catalog:sl2", "--n", "2", "--lemmas", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["lemmas"]["delta_membership"] == {"skipped": "defined only for n >= 3"}


def test_cli_verify_max_n_cap():
    code, _ = run(["verify", "catalog:aff2", "--n", "5"])
    assert code == 2  # exceeds the default cap
    code, _ = run(["der", "catalog:aff2", "--n", "5", "--max-n", "5"])
    assert code == 0


def test_cli_exit_code_2():
    code, _ = run(["check", "catalog:doesnotexist"])
    assert code == 2
    code, _ = run(["check", "/nonexistent/file.json"])
    assert code == 2
    code, _ = run(["--bogus-flag"])
    assert code == 2
    code, _ = run(["catalog", "emit"])
    assert code == 2


def test_cli_caps_the_abelian_dimension(capsys):
    for argv in (
        ["check", "catalog:abelian(" + "9" * 5000 + ")"],
        ["catalog", "emit", "abelian(99999999)"],
        ["der", f"catalog:abelian({catalog.ABELIAN_MAX_DIM + 1})", "--n", "2"],
    ):
        started = time.perf_counter()
        assert run(argv) == (2, ""), argv
        assert time.perf_counter() - started < 1.0, argv
        assert capsys.readouterr().err.startswith("error:"), argv
    top = catalog.ABELIAN_MAX_DIM
    for name in (f"abelian({top})", f"abelian(0{top})"):
        assert run(["check", f"catalog:{name}"])[0] == 0, name


def test_cli_prints_catalog_errors_unquoted(capsys):
    capped = f"error: catalog entry abelian(N) takes N <= {catalog.ABELIAN_MAX_DIM}\n"
    top = catalog.ABELIAN_MAX_DIM + 1
    for argv, err in (
        (["check", f"catalog:abelian({top})"], capped),
        (["catalog", "emit", f"abelian({top})"], capped),
        (
            ["check", "catalog:nope"],
            f"error: unknown catalog entry 'nope'; available: {', '.join(catalog.names())}\n",
        ),
    ):
        assert run(argv) == (2, ""), argv
        assert capsys.readouterr().err == err, argv


def test_cli_catalog_emit_without_a_name_prints_an_error_line(capsys):
    assert run(["catalog", "emit"]) == (2, "")
    assert capsys.readouterr().err == "error: catalog emit requires a NAME\n"


def _der_human_lines(report: dict) -> list:
    # the human layout of `der`, rebuilt from its (golden-pinned) JSON report
    lines = [f"target: {report['target']} (fingerprint {report['fingerprint'][:12]})"]
    for block in report["blocks"]:
        lines.append(f"degree {tuple(block['degree'])}: dim {block['dim']}")
        for idx, mat in enumerate(block["basis_maps"]):
            lines.append(f"  basis map {idx + 1}:")
            lines.extend("    [" + ", ".join(row) + "]" for row in mat)
    lines.append(f"total dim: {report['total_dim']}")
    return lines


@pytest.mark.parametrize("name", ALL_NAMES + ("cheis3z60.json",))
def test_cli_der_human_output_matches_its_json_report(name):
    # catalog entries, and a file graded by Z60 x Z60 (3,600 degrees)
    target = str(DATA_DIR / name) if name.endswith(".json") else f"catalog:{name}"
    for n in ("2", "3"):
        argv = ["der", target, "--n", n]
        code, out = run(argv)
        json_code, json_out = run(argv + ["--json"])
        assert code == json_code == 0
        *lines, elapsed = out.splitlines()
        assert lines == _der_human_lines(json.loads(json_out)), (name, n)
        # one line per degree of the group
        degrees = sum(line.startswith("degree ") for line in lines)
        assert degrees == cli._load_target(target).group.size, (name, n)
        assert elapsed.startswith("elapsed: ") and elapsed.endswith("s")
        assert out.endswith("\n")
    if name == "cheis3z60.json":
        assert degrees == 3600


def test_run_builds_the_parser_once(monkeypatch, capsys):
    calls = []
    original = cli.build_parser

    def counted():
        calls.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._cached_parser.cache_clear()
    # a usage error on the freshly built parser, then again on the kept one
    usage = ["der", "catalog:sl2", "--n", "two"]
    assert run(usage) == (2, "")
    fresh_err = capsys.readouterr().err
    assert fresh_err.startswith("usage: colorlie der")
    assert run(["check", "catalog:sl2", "--json"])[0] == 0
    assert run(["der", "catalog:sl2", "--n", "3"])[0] == 0
    assert run(["verify", "catalog:sl2", "--n", "2", "--part", "1"])[0] == 0
    assert run(usage) == (2, "")
    assert capsys.readouterr().err == fresh_err
    assert len(calls) == 1


def test_main_returns_the_exit_code_and_writes_stdout(capsys):
    argv = ["check", "catalog:sl2", "--json"]
    assert main(argv) == 0
    assert capsys.readouterr().out == run(argv)[1]
    assert main(["verify", "catalog:heis3", "--n", "2"]) == 1
    assert capsys.readouterr().out.startswith("target: catalog:heis3")
    assert main(["check", "catalog:nope"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("n", (2, 3))
def test_cli_verify_reports_non_lie_input(n, tmp_path):
    # perfect, centerless and antisymmetric, but not Jacobi
    broken = _jacobi_breaking_sl2()
    path = tmp_path / "jacobi.json"
    path.write_text(serialize_algebra(broken))
    code, out = run(["verify", str(path), "--n", str(n), "--lemmas", "--json"])
    assert code == 1
    report = json.loads(out)
    assert report["part1"]["preconditions_hold"] is True
    assert report["part2"]["preconditions_hold"] is False
    assert "axioms" in report["part2"]["error"]
    assert set(report["lemmas"]) == {
        "closure", "inner_ideal", "centralizer_trivial", "delta_membership", "ad_compat"
    }


def test_cli_part1_fails_on_an_algebra_that_fails_the_axioms():
    # catalog:sl2 with [h, f] = -3f: perfect, centerless, antisymmetric, not Jacobi
    path = str(DATA_DIR / "jacobi_broken_sl2.json")
    code, out = run(["check", path, "--json"])
    assert code == 1
    assert [0, 1, 2] in json.loads(out)["violations"]["jacobi"]
    code, out = run(["verify", path, "--n", "2", "--part", "1", "--json"])
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["part1"]["delta_fixed_point"] is None
    assert report["part1"]["equal"] is True
    code, out = run(["verify", path, "--n", "2", "--part", "1"])
    assert code == 1
    assert "FAIL (preconditions_hold=True, axioms_ok=False, equal=True, dims 1/1)" in out


def test_cli_rejects_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"group": {"orders": []}, "basis": "\xe9"}'.encode("latin-1"))
    code, out = run(["check", str(path)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error:")


def test_cli_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out = run(["check", str(path)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error:")


def test_parse_rejects_booleans_as_integers(tmp_path, capsys):
    base = json.loads(serialize_algebra(catalog.get("colorSl2")))
    for where in ("orders", "exponents", "degree"):
        doc = json.loads(json.dumps(base))
        if where == "orders":
            doc["group"]["orders"][0] = True
        elif where == "exponents":
            doc["bicharacter"]["exponents"][0][1] = True
        else:
            doc["basis"][0]["degree"][0] = True
        with pytest.raises(ParseError):
            parse_algebra(json.dumps(doc))
        path = tmp_path / f"{where}.json"
        path.write_text(json.dumps(doc))
        assert run(["check", str(path)]) == (2, ""), where
        assert capsys.readouterr().err.startswith("error:"), where


@pytest.mark.parametrize("side", ("left", "right"))
@pytest.mark.parametrize("value", (["e"], {"e": "1"}, [], {}, 0, 1.5, None))
def test_parse_rejects_a_bracket_side_that_is_not_a_string(side, value, tmp_path, capsys):
    # an array or object used to reach the name lookup and raise "unhashable type"
    doc = json.loads(serialize_algebra(catalog.get("sl2")))
    doc["brackets"][0][side] = value
    with pytest.raises(ParseError, match=rf"^brackets\[0\]\.{side} must be a string$"):
        parse_algebra(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for call in (run, main):
        result = call(["check", str(path)])
        assert result == ((2, "") if call is run else 2)
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: brackets[0].{side} must be a string\n"


def test_cli_catalog_list_and_emit(tmp_path):
    code, out = run(["catalog", "list"])
    assert code == 0
    assert "sl2" in out and "abelian(N)" in out

    code, out = run(["catalog", "emit", "colorSl2"])
    assert code == 0
    path = tmp_path / "csl2.json"
    path.write_text(out)
    code2, out2 = run(["check", str(path)])
    assert code2 == 0
    # emitted document is exactly the canonical serialization
    assert out == serialize_algebra(catalog.get("colorSl2"))


def test_cli_machine_reports_are_deterministic():
    for argv in (
        ["verify", "catalog:sl2", "--n", "3", "--lemmas", "--json"],
        ["verify", "catalog:colorSl2", "--n", "4", "--lemmas", "--json"],
        ["der", "catalog:osp12", "--n", "2", "--json"],
        ["check", "catalog:osp12", "--json"],
    ):
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        assert (code1, out1) == (code2, out2)


# keys that a %-template or a str.format template would misread, and
# keys that need escaping
_json_keys = st.one_of(
    st.text(),
    st.sampled_from(["%", "%s", "%%d", "{", "{0}", "}", '"', "é", "\u2028", "a\\b"]),
)


def _same_key_set_dicts(children):
    # dicts over one key set, each inserted in an order of its own
    def dicts(keys):
        one = st.permutations(keys).flatmap(
            lambda order: st.tuples(*[children] * len(order)).map(
                lambda values: dict(zip(order, values))
            )
        )
        return st.lists(one, max_size=4)

    return st.lists(_json_keys, unique=True, max_size=4).flatmap(dicts)


def _json_values(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_json_keys, children, max_size=4),
        _same_key_set_dicts(children),
    )


_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.text(),  # any code point: non-ASCII, control characters, lone surrogates
    st.sampled_from(["", "é", "z^2 - 1/2", '"\\', "\u2028\U0001F600"]),
    # runs of one leaf type, and int runs broken by bools: bool is not int
    st.sampled_from(
        [st.integers(-3, 3), st.booleans(), st.text(max_size=3), st.none()]
    ).flatmap(lambda leaf: st.lists(leaf, max_size=5)),
    st.lists(st.one_of(st.integers(0, 1), st.booleans()), max_size=5),
)


@given(st.recursive(_json_leaves, _json_values, max_leaves=30))
def test_json_writer_matches_the_stdlib(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_json_writer_matches_the_stdlib_on_long_lists():
    # longer than a batch of items, with the shapes of the per-degree reports
    blocks = [
        {
            "degree": [i % 7, -i],
            "dim": i % 3,
            "equal": i % 5 == 0,
            "basis_maps": [] if i % 4 else [[str(i), "0"], ["%", "é"]],
        }
        for i in range(700)
    ]
    mixed = [
        [i, True] if i % 3 == 0 else {"a": [], "b": {"c": i}} if i % 3 == 1 else ()
        for i in range(600)
    ]
    for obj in (blocks, {"blocks": blocks, "mixed": mixed}, [blocks, mixed]):
        assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "obj",
    [
        # dicts of one length whose key sets differ: the key-set test misses
        [{"a": 1, "b": 2}, {"a": 3, "c": 4}, {"b": 5, "c": [6]}, {"a": 7, "b": 8}],
        [{"a": 0}, {"b": 0}, {"a": True}],
        # a dict that holds the first's keys and more, between two that do not
        [{"a": 1}, {"a": 2, "b": 3}, {"a": 4}],
        # equal-length lists mixing int and bool
        [[0, True], [1, False], [True, 2], [3, 4]],
        [[1], [True], [0], [False]],
        # an int column broken by one bool, in dicts and in lists
        [{"x": i, "y": [i]} for i in range(9)] + [{"x": True, "y": [False]}],
        [[i, -i] for i in range(9)] + [[1, True]],
        # ints far beyond 64 bits
        [[10**30, -(10**30)], [0, -1]],
        [{"k": 10**30}, {"k": -(10**30)}, {"k": 2**64}],
        # list and tuple degrees, over more than one batch of items
        [
            {"degree": [i, -i] if i % 3 else (i, -i), "dim": i % 4, "equal": i % 5 == 0}
            for i in range(fileio._BATCH * 2 + 7)
        ],
        # lists of several lengths, over more than one batch
        [list(range(i % 4)) for i in range(fileio._BATCH + 9)],
    ],
)
def test_json_writer_matches_the_stdlib_on_the_template_paths(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)
    assert json_text({"blocks": obj}) == json.dumps({"blocks": obj}, indent=2, sort_keys=True)


# runs of lists of one length and of dicts of one size, over few keys, so
# that key sets repeat and collide
_short_keys = st.sampled_from(["a", "b", "c", "%s"])
_slot_leaves = st.one_of(
    st.integers(-3, 3),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
)


@given(
    st.integers(0, 3).flatmap(
        lambda size: st.lists(
            st.one_of(
                st.lists(_slot_leaves, min_size=size, max_size=size),
                st.lists(_slot_leaves, min_size=size, max_size=size).map(tuple),
                st.dictionaries(_short_keys, _slot_leaves, min_size=size, max_size=size),
                st.dictionaries(
                    _short_keys,
                    st.lists(st.integers(-2, 2), min_size=size, max_size=size),
                    min_size=size,
                    max_size=size,
                ),
            ),
            max_size=12,
        )
    )
)
def test_json_writer_matches_the_stdlib_on_runs_of_one_shape(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_json_writer_template_cache_stays_bounded():
    bound = fileio._dict_template.cache_info().maxsize
    obj = [{f"k{i}": i, "x": [i]} for i in range(bound + 50)]
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)
    assert fileio._dict_template.cache_info().currsize <= bound


@pytest.mark.parametrize(
    "obj",
    [
        1.5,
        Fraction(1, 2),
        {1, 2},
        b"x",
        [0, 1.0],
        {"a": {"b": object()}},
        {1: 0},
        [IntEnum("E", "A").A],
        # a non-str key in the second dict of a same-shape list
        [{"a": 0, "b": 1}, {"a": 0, 1: 1}],
        # a float after a run of ints
        [0, 1, 2, 1.5],
    ],
)
def test_json_writer_rejects_other_types(obj):
    with pytest.raises(TypeError):
        json_text(obj)


# -- Records: lists of dicts held as columns ----------------------------------


def _assert_same_text(got: str, want: str) -> None:
    # where two long texts part, rather than pytest's diff of them, which can run for minutes
    if got != want:
        at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
        start = max(at - 60, 0)
        pytest.fail(f"texts part at {at}: {got[start:at + 60]!r} != {want[start:at + 60]!r}")


# the values of one key: a kind per key, as the per-degree reports have them,
# or kinds mixed down the column
_record_kinds = [
    st.integers(-3, 3),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    # degrees, and basis maps as nested lists of str
    st.lists(st.integers(0, 59), min_size=2, max_size=2),
    st.lists(st.lists(st.lists(st.sampled_from(["0", "1", "-z^2 + 1/2", "%s", "é"]), max_size=2), max_size=2), max_size=2),
]
_record_kinds.append(st.one_of(*_record_kinds))


@given(st.data())
@settings(deadline=None)
def test_json_writer_matches_the_stdlib_on_records(data):
    # keys in drawn order, so unsorted, and keys that need escaping
    keys = data.draw(st.lists(_json_keys, min_size=1, max_size=4, unique=True), "keys")
    kinds = [data.draw(st.sampled_from(_record_kinds)) for _ in keys]
    # a few drawn rows, repeated out to a row count on either side of a batch
    pool = data.draw(st.lists(st.tuples(*kinds), min_size=1, max_size=8), "pool")
    count = data.draw(st.sampled_from([0, 1, fileio._BATCH, fileio._BATCH + 1, 600]), "count")
    rows = [pool[i % len(pool)] for i in range(count)]
    records = Records(keys, iter(rows))
    dicts = [dict(zip(keys, row)) for row in rows]
    assert len(records) == count
    assert list(records) == dicts and records == dicts and records == Records(keys, rows)
    one = Records(keys, rows[:1])
    for obj, plain in (
        (records, dicts),
        ({"blocks": records, "n": count}, {"blocks": dicts, "n": count}),
        ([records, one, records, 0], [dicts, dicts[:1], dicts, 0]),
    ):
        _assert_same_text(json_text(obj), json.dumps(plain, indent=2, sort_keys=True))


@pytest.mark.parametrize("count", (0, 1, 256, 257, 600))
def test_records_in_the_report_shape_match_the_stdlib(count):
    keys = ("dim", "degree", "basis_maps")
    rows = [(i % 3, [i % 60, i // 60], [[str(i), "0"]] * (i % 2)) for i in range(count)]
    dicts = [dict(zip(keys, row)) for row in rows]
    for obj, plain in ((Records(keys, rows), dicts), ({"blocks": Records(keys, rows)}, {"blocks": dicts})):
        _assert_same_text(json_text(obj), json.dumps(plain, indent=2, sort_keys=True))


def test_records_refuse_bad_keys_and_rows():
    # a key that is not a str: the writer's TypeError, as for a dict
    for keys in (("a", 1), (None,), (b"a", "b")):
        with pytest.raises(TypeError):
            json_text(Records(keys, [(0,) * len(keys)]))
        with pytest.raises(TypeError):
            json_text([{"x": Records(keys, [(0,) * len(keys)])}])
    # no key, or a key twice
    for keys in ((), ("a", "a"), ("a", "b", "a")):
        with pytest.raises(ValueError):
            Records(keys, [])
    # rows of several lengths
    with pytest.raises(ValueError):
        Records(("a", "b"), [(0, 1), (2,)])
    # sliced, as the writer batches it, but not indexed
    records = Records(("a",), [(0,), (1,), (2,)])
    assert records[1:] == [{"a": 1}, {"a": 2}] and records[:0] == []
    with pytest.raises(TypeError):
        records[0]
    # rows of one value for two keys: refused where they are read
    short = Records(("a", "b"), [(0,), (1,)])
    with pytest.raises(ValueError):
        json_text(short)
    with pytest.raises(ValueError):
        list(short)


# -- Records with a residue column: written in runs -------------------------


@pytest.mark.parametrize("orders", [(), (1,), (5,), (3, 4), (2, 3, 2)])
def test_residue_column_lists_the_group_in_order(orders):
    column = Residues(orders)
    expected = [list(g.residues) for g in GradingGroup(orders).elements()]
    first, second = list(column), list(column)
    assert first == second == expected and len(column) == len(expected)
    # fresh lists on every pass, none shared within a pass either
    assert all(x is not y for x, y in zip(first, second))
    assert len(set(map(id, first))) == len(first)
    records = Records._of(("degree", "dim"), (column, [0] * len(expected)))
    assert records == [{"degree": degree, "dim": 0} for degree in expected]
    assert list(records) == [{"degree": degree, "dim": 0} for degree in expected]


def test_records_refuse_a_second_residue_column_and_columns_of_other_lengths():
    for columns in (
        (Residues((2, 3)), Residues((2, 3))),
        (Residues((2, 3)), [0] * 5),
        (Residues((2, 3)), [0] * 7),
        ([0] * 6, Residues((2, 3)), [0] * 5),
    ):
        keys = tuple("abc"[:len(columns)])
        with pytest.raises(ValueError):
            json_text(Records._of(keys, columns))


# group orders of each rank up to 3, orders of 1 among them
_group_orders = st.one_of(
    st.sampled_from([(), (1,), (1, 1), (1, 7), (4, 1, 3)]),
    st.integers(1, 600).map(lambda k: (k,)),
    st.tuples(st.integers(1, 30), st.integers(1, 30)),
    st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
)
# the values beside a degree: 0, False and None, 1 and True, equal values with other
# texts; basis maps as nested lists of str; strings with quotes and the template's % and %s
_run_values = st.one_of(
    st.integers(-2, 2),
    st.booleans(),
    st.none(),
    st.lists(st.lists(st.sampled_from(["0", "1/2", "%s", "é", "-z^2 + 1"]), max_size=2), max_size=2),
    st.sampled_from(["", "%", "%s", "%%s", '"', "\\", "é", "\u2028", "\U0001F600"]),
)


def _retyped(value):
    # 0 and False, 1 and True: equal, with different texts
    if type(value) is bool:
        return int(value)
    return {0: False, 1: True}.get(value, value) if type(value) is int else value


@given(st.data())
@settings(deadline=None)
def test_json_writer_matches_the_stdlib_on_records_with_a_residue_column(data):
    orders = data.draw(_group_orders, "orders")
    size = prod(orders)
    keys = data.draw(st.lists(_json_keys, min_size=1, max_size=4, unique=True), "keys")
    at = data.draw(st.integers(0, len(keys) - 1), "residue key")
    row_values = st.tuples(*[_run_values] * (len(keys) - 1))
    # one shared zero row, as DerivationSpace._columns prefills its lists, and at drawn
    # indices rows from a pool: at the ends, either side of a 256-row boundary, anywhere,
    # over one to three adjacent indices
    zero = data.draw(row_values, "zero row")
    rows = [zero] * size
    # with the zero row retyped, equal to it but written otherwise
    pool = data.draw(st.lists(row_values, min_size=1, max_size=3), "pool") + [tuple(map(_retyped, zero))]
    ends = sorted({0, size - 1} | {i for i in (255, 256, 257, 511, 512) if i < size})
    for _ in range(data.draw(st.integers(0, 6), "rows set")):
        start = data.draw(st.one_of(st.sampled_from(ends), st.integers(0, size - 1)))
        stop = min(start + data.draw(st.integers(1, 3)), size)
        rows[start:stop] = [data.draw(st.sampled_from(pool))] * (stop - start)
    columns = [list(column) for column in zip(*rows)]
    records = Records._of(tuple(keys), tuple(columns[:at] + [Residues(orders)] + columns[at:]))
    degrees = [list(g.residues) for g in GradingGroup(orders).elements()]
    dicts = [dict(zip(keys, row[:at] + (degree,) + row[at:])) for degree, row in zip(degrees, rows)]
    assert len(records) == size and records == dicts
    for obj, plain in (
        (records, dicts),
        ({"blocks": records, "n": size}, {"blocks": dicts, "n": size}),
        ([records, 0, records], [dicts, 0, dicts]),
    ):
        _assert_same_text(json_text(obj), json.dumps(plain, indent=2, sort_keys=True))


def test_long_records_are_written_a_batch_of_rows_at_a_time():
    # 90,000 degrees: no write holds more than a batch of rows, so the list is never
    # held as text all at once
    dims = [0] * 90_000
    for i in (0, 1, 255, 256, 70_000, 89_999):
        dims[i] = 1
    records = Records._of(("degree", "dim"), (Residues((300, 300)), dims))
    writes = []

    class Spy:
        write = writes.append

    fileio._write(records, Spy(), "\n")
    assert max(text.count('"degree"') for text in writes) <= fileio._BATCH
    assert json.loads("".join(writes)) == list(records)
