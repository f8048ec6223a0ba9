import argparse
import io
import json
import os
import re
import time

import pytest

from vermahom import cli
from vermahom.aset import ascent_set_word, replay_certificate
from vermahom.cache import CACHE_DIR_ENV, AscentSetCache
from vermahom.cli import main, parse_query
from vermahom.criteria import Engine
from vermahom.errors import DomainError, ValidationError
from vermahom.integral import integral_data
from vermahom.rootsystem import Root, RootSystemSpec, build_root_system, parse_weight
from vermahom.weyl import (
    enumerate_group,
    from_word,
    inverse,
    longest_element,
    multiply,
    parse_word,
)


@pytest.fixture(autouse=True)
def isolated_cache_env(monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _word(rs, text):
    return from_word(rs, parse_word(text, rs.rank))


@pytest.mark.parametrize("argv, slot, bad", [
    pytest.param(["aset", "A2", "121", "(-1,-1)", "--certificates",
                  "--format", "json"], 2, "124", id="aset"),
    pytest.param(["hom-verma", "A2", "e", "(1,1)", "s1 s2", "(1,1)",
                  "--format", "tsv"], 5, "(1,banana)", id="hom-verma"),
    pytest.param(["hom-ps", "A1", "e", "(1)", "e", "(-1)", "--lambda", "(1)",
                  "--format", "json"], 4, "s2", id="hom-ps"),
    pytest.param(["integral", "A2", "(1/2,1/2)"], 2, "(1/2)", id="integral"),
    pytest.param(["table", "A1", "--mu-orbit", "(1)", "--w-all",
                  "--format", "tsv"], 3, "(x)", id="table"),
    pytest.param(["selfcheck", "--types", "A1", "--rank-bound", "2",
                  "--grid-radius", "1"], 2, "A1,Q1", id="selfcheck"),
])
def test_parse_query_yields_library_objects(capsys, monkeypatch, argv, slot, bad):
    # parse_query turns each argument into what the library's own parsers
    # make of the same text, so run() has nothing left to parse
    ns = parse_query(argv)
    if ns.command == "selfcheck":
        assert ns.types == [RootSystemSpec.parse("A1")]
    else:
        rs = build_root_system(argv[1])
        assert ns.root_system is rs
        lam = argv[argv.index("--lambda") + 1] if "--lambda" in argv else None
        if ns.command == "integral":
            lam = argv[2]
        assert getattr(ns, "lam", None) == (
            None if lam is None else parse_weight(lam, rs.rank))
    if ns.command == "aset":
        word = parse_word(argv[2], rs.rank)
        assert (ns.word, ns.context) == (word, None)
        assert ns.letters == tuple(rs.simple_roots[i - 1] for i in word)
        assert ns.mu == parse_weight(argv[3], rs.rank)
    elif ns.command in ("hom-verma", "hom-ps"):
        assert (ns.w1, ns.mu1, ns.w2, ns.mu2) == (
            _word(rs, argv[2]), parse_weight(argv[3], rs.rank),
            _word(rs, argv[4]), parse_weight(argv[5], rs.rank))
    elif ns.command == "table":
        assert ns.mu_orbit == parse_weight(argv[3], rs.rank)
    # a malformed word, weight or type fails inside parse_query: exit 2
    broken = argv[:slot] + [bad] + argv[slot + 1:]
    with pytest.raises(ValidationError):
        parse_query(broken)
    monkeypatch.setattr(cli, "run", None)
    code, out, err = run_cli(capsys, broken)
    assert (code, out) == (2, "") and err.startswith("error: ")


# (argv, human stdout, TSV stdout with "|" for each tab)
PINNED_OUTPUT = [
    pytest.param(
        ["aset", "A2", "121", "(-1,-1)", "--certificates"],
        "(-2,1)  3  (0,1)\n"
        "(-1,-1)    \n"
        "(-1,2)  1,3  (1,0);(0,1)\n"
        "(1,-2)  1  (1,0)\n"
        "(1,1)  1,2,3  (1,0);(1,1);(0,1)\n"
        "(2,-1)  1,2  (1,0);(1,1)\n",
        """\
element|positions|roots
(-2,1)|3|(0,1)
(-1,-1)||
(-1,2)|1,3|(1,0);(0,1)
(1,-2)|1|(1,0)
(1,1)|1,2,3|(1,0);(1,1);(0,1)
(2,-1)|1,2|(1,0);(1,1)
""", id="aset-certificates"),
    pytest.param(["integral", "A2", "(1/2,1/2)"], """\
group_order: 2
lambda: (1/2,1/2)
longest_element: s1 s2 s1
longest_integral_length: 1
positive_roots: [[1, 1]]
root_system: A2
simple_system: [[1, 1]]
stabilizer_generators: []
""", """\
group_order|2
lambda|(1/2,1/2)
longest_element|s1 s2 s1
longest_integral_length|1
positive_roots|[[1, 1]]
root_system|A2
simple_system|[[1, 1]]
stabilizer_generators|[]
""", id="integral"),
    pytest.param(["table", "A1", "--mu-orbit", "(1)", "--no-cache"], """\
16 rows
e  (-1)  e  (-1)  true  (-1)
e  (-1)  e  (1)  true  (-1)
e  (-1)  s1  (-1)  false  -
e  (-1)  s1  (1)  true  (-1)
e  (1)  e  (-1)  false  -
e  (1)  e  (1)  true  (1)
e  (1)  s1  (-1)  true  (1)
e  (1)  s1  (1)  false  -
s1  (-1)  e  (-1)  true  (-1)
s1  (-1)  e  (1)  true  (-1)
s1  (-1)  s1  (-1)  true  (1)
s1  (-1)  s1  (1)  true  (-1)
s1  (1)  e  (-1)  true  (-1)
s1  (1)  e  (1)  true  (-1)
s1  (1)  s1  (-1)  false  -
s1  (1)  s1  (1)  true  (-1)
""", """\
w1|mu1|w2|mu2|hom_nonzero|witness
e|(-1)|e|(-1)|true|(-1)
e|(-1)|e|(1)|true|(-1)
e|(-1)|s1|(-1)|false|
e|(-1)|s1|(1)|true|(-1)
e|(1)|e|(-1)|false|
e|(1)|e|(1)|true|(1)
e|(1)|s1|(-1)|true|(1)
e|(1)|s1|(1)|false|
s1|(-1)|e|(-1)|true|(-1)
s1|(-1)|e|(1)|true|(-1)
s1|(-1)|s1|(-1)|true|(1)
s1|(-1)|s1|(1)|true|(-1)
s1|(1)|e|(-1)|true|(-1)
s1|(1)|e|(1)|true|(-1)
s1|(1)|s1|(-1)|false|
s1|(1)|s1|(1)|true|(-1)
""", id="table-twisted-verma"),
    pytest.param(["table", "A1", "--mu-orbit", "(0)", "--criterion",
                  "principal-series", "--lambda", "(0)", "--no-cache"], """\
4 rows
e  (0)  e  (0)  true  (0)
e  (0)  s1  (0)  true  (0)
s1  (0)  e  (0)  true  (0)
s1  (0)  s1  (0)  true  (0)
""", """\
w1|mu1|w2|mu2|hom_nonzero|witness
e|(0)|e|(0)|true|(0)
e|(0)|s1|(0)|true|(0)
s1|(0)|e|(0)|true|(0)
s1|(0)|s1|(0)|true|(0)
""", id="table-principal-series"),
]


@pytest.mark.parametrize("argv, human, tsv", PINNED_OUTPUT)
def test_human_and_tsv_bytes_are_pinned(capsys, argv, human, tsv):
    assert run_cli(capsys, argv + ["--format", "human"]) == (0, human, "")
    assert run_cli(capsys, argv + ["--format", "tsv"]) == (
        0, tsv.replace("|", "\t"), "")


def test_hom_verma_reflexive(capsys):
    code, out, err = run_cli(
        capsys, ["hom-verma", "A2", "e", "(1,1)", "e", "(1,1)"]
    )
    assert code == 0
    assert "hom_nonzero: true" in out


def test_hom_verma_witness_certificates(capsys):
    code, out, _ = run_cli(
        capsys,
        ["hom-verma", "A2", "e", "(-1,-1)", "e", "(1,1)",
         "--certificates", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hom_nonzero"] is True
    certs = payload["witness_certificates"]
    assert certs["left"]["positions"] == []
    assert certs["right"]["base"] == "(-1,-1)"
    # a vanishing Hom carries no certificates
    code, out, _ = run_cli(
        capsys,
        ["hom-verma", "A2", "e", "(2,2)", "e", "(1,1)",
         "--certificates", "--format", "json"],
    )
    assert json.loads(out)["witness_certificates"] is None


def _replay_json(rs, cert, translate):
    reached = replay_certificate(
        rs, tuple(Root(tuple(c)) for c in cert["word"]),
        parse_weight(cert["base"], rs.rank), cert["positions"],
    )
    return str(translate.act(reached))


@pytest.mark.parametrize("argv", [
    ["hom-verma", "B2", "s1 s2", "(-1,-1)", "s2 s1", "(1,1)"],
    ["hom-ps", "B2", "e", "(0,1)", "s1 s2", "(-1,1)", "--lambda", "(0,1)"],
])
def test_witness_certificates_through_the_cache(capsys, tmp_path, argv):
    argv = argv + ["--certificates", "--format", "json"]
    cache = ["--cache-dir", str(tmp_path)]
    _, plain, _ = run_cli(capsys, argv + ["--no-cache"])
    code, cold, err = run_cli(capsys, argv + cache)
    assert code == 0
    # certificates are built from the sets the verdict already computed, so
    # the cache is asked once per distinct ascent set and not again for the
    # certificates; both sides of the twisted query read one set
    asks = {"hom-verma": 1, "hom-ps": 2}[argv[0]]
    assert err == f"cache: 0 hits, {asks} misses\n"
    _, warm, _ = run_cli(capsys, argv + cache)
    assert plain == cold == warm

    payload = json.loads(plain)
    assert payload["hom_nonzero"] is True
    certs = payload["witness_certificates"]
    rs = build_root_system(argv[1])
    w1 = from_word(rs, parse_word(argv[2], rs.rank))
    w2 = from_word(rs, parse_word(argv[4], rs.rank))
    if argv[0] == "hom-verma":
        left, right = w1, multiply(w2, longest_element(rs))
    else:
        lam = parse_weight(argv[7], rs.rank)
        wl = integral_data(rs, lam).longest_element
        u = from_word(rs, parse_word(certs["right"]["stabilizer"], rs.rank))
        left, right = multiply(inverse(w1), wl), multiply(u, inverse(w2))
    assert certs["left"]["positions"] and certs["right"]["positions"]
    assert _replay_json(rs, certs["left"], left) == payload["witness"]
    assert _replay_json(rs, certs["right"], right) == payload["witness"]


def test_hom_ps_examples(capsys):
    code, out, _ = run_cli(
        capsys,
        ["hom-ps", "A1", "e", "(1)", "e", "(-1)", "--lambda", "(1)", "--format", "json"],
    )
    assert code == 0 and json.loads(out)["hom_nonzero"] is True
    code, out, _ = run_cli(
        capsys,
        ["hom-ps", "A1", "e", "(-1)", "e", "(1)", "--lambda", "(1)", "--format", "json"],
    )
    assert code == 0 and json.loads(out)["hom_nonzero"] is False


def test_hom_ps_normalize_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        ["hom-ps", "A1", "s1", "(1)", "s1", "(1)", "--lambda", "(-1)",
         "--normalize", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hom_nonzero"] is True
    assert payload["parameters"]["lambda"] == "(1)"
    # without the flag, a non-dominant lambda is a precondition violation
    code, _, err = run_cli(
        capsys, ["hom-ps", "A1", "s1", "(1)", "s1", "(1)", "--lambda", "(-1)"]
    )
    assert code == 2 and "normalize_principal_series" in err


def test_aset_output_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        ["aset", "A2", "s1 s2 s1", "(-1,-1)", "--certificates", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    rs = build_root_system("A2")
    letters = tuple(rs.simple_roots[i - 1] for i in (1, 2, 1))
    expected = ascent_set_word(rs, letters, rs.weight((-1, -1)))
    assert set(payload["elements"]) == {str(w) for w in expected.elements}
    assert payload["certificates"][str(expected.base)]["positions"] == []


def test_aset_with_integral_context(capsys):
    code, out, _ = run_cli(
        capsys,
        ["aset", "A2", "1", "(-1,-1)", "--lambda", "(1/2,1/2)", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["elements"]) == {"(-1,-1)", "(1,1)"}


def test_integral_summary(capsys):
    code, out, _ = run_cli(
        capsys, ["integral", "A2", "(1/2,1/2)", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["simple_system"] == [[1, 1]]
    assert payload["group_order"] == 2
    assert payload["longest_integral_length"] == 1


def test_integral_group_order_is_counted_not_listed(capsys):
    # E7 at rho and the D8 system of E8 at (1/2,...) have millions of
    # elements; their orders come from root heights, so nothing is listed
    started = time.perf_counter()
    for argv, order, longest in [
        (["integral", "E6", "(1,1,1,1,1,1)"], 51840, 36),
        (["integral", "E7", "(1,1,1,1,1,1,1)"], 2903040, 63),
        (["integral", "E8", "(" + ",".join(["1/2"] * 8) + ")"], 5160960, 56),
    ]:
        code, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["group_order"] == order
        assert payload["longest_integral_length"] == longest
    assert time.perf_counter() - started < 5.0


def test_verdict_formats_carry_identical_content(capsys):
    argv = ["hom-verma", "B2", "s1", "(1,1)", "e", "(1,1)"]
    _, json_out, _ = run_cli(capsys, argv + ["--format", "json"])
    _, tsv_out, _ = run_cli(capsys, argv + ["--format", "tsv"])
    payload = json.loads(json_out)
    header, row = [line.split("\t") for line in tsv_out.strip().splitlines()]
    tsv = dict(zip(header, row))
    assert tsv["hom_nonzero"] == str(payload["hom_nonzero"]).lower()
    assert tsv["witness"] == (payload["witness"] or "")
    assert tsv["left_set"].split(";") == payload["left_set"]
    assert tsv["right_set"].split(";") == payload["right_set"]


def test_output_determinism(capsys):
    argv = ["table", "A1", "--mu-orbit", "(1)", "--w-all", "--format", "json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_table_row_counts(capsys):
    code, out, _ = run_cli(
        capsys, ["table", "A1", "--mu-orbit", "(1)", "--w-all", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    # |W|^2 * |orbit|^2 = 4 * 4
    assert payload["row_count"] == 16 == len(payload["rows"])
    code, out, _ = run_cli(
        capsys,
        ["table", "A1", "--mu-orbit", "(1)", "--w-all", "--format", "tsv"],
    )
    assert len(out.strip().splitlines()) == 17  # header + rows


def test_table_principal_series(capsys):
    code, out, _ = run_cli(
        capsys,
        ["table", "A1", "--mu-orbit", "(2)", "--criterion", "principal-series",
         "--lambda", "(1)", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["row_count"] == 16


@pytest.mark.parametrize("argv, message", [
    (["table", "A1", "--mu-orbit", "(1)", "--lambda", "(1/2)"],
     "table --lambda requires --criterion principal-series"),
    (["table", "A1", "--mu-orbit", "(1)", "--criterion", "twisted-verma",
      "--lambda", "(0)", "--format", "json"],
     "table --lambda requires --criterion principal-series"),
    (["table", "A1", "--mu-orbit", "(1)", "--criterion", "principal-series"],
     "table --criterion principal-series requires --lambda"),
])
def test_table_lambda_goes_with_the_principal_series_criterion(
        capsys, argv, message):
    code, out, err = run_cli(capsys, argv + ["--no-cache"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_exit_codes(capsys):
    # parse failure
    code, _, _ = run_cli(capsys, ["hom-verma", "A2", "e", "(1,banana)", "e", "(1,1)"])
    assert code == 2
    # both words are parsed before either weight, so the word is reported
    code, _, err = run_cli(
        capsys, ["hom-verma", "A2", "e", "(1,banana)", "s9", "(1,1)"])
    assert code == 2 and err == "error: word 's9' uses index 9 outside 1..2\n"
    # enumeration bound exceeded
    code, _, err = run_cli(
        capsys, ["table", "E8", "--mu-orbit", "(1,1,1,1,1,1,1,1)", "--w-all"]
    )
    assert code == 3 and "bound" in err
    # precondition violation
    code, _, _ = run_cli(
        capsys, ["hom-ps", "A1", "e", "(1)", "e", "(1)", "--lambda", "(-2)"]
    )
    assert code == 2


@pytest.mark.parametrize("word", ["s\u00b2", "\u00b2", "\u2460"])
def test_unicode_digits_that_int_rejects_are_a_parse_error(capsys, word):
    # str.isdigit() holds for superscript and circled digits, which int()
    # rejects; such a word is malformed, not a crash
    code, out, err = run_cli(
        capsys, ["hom-verma", "A2", word, "(1,1)", "e", "(1,1)"])
    assert (code, out, err) == (2, "", f"error: cannot parse word {word!r}\n")


def test_selfcheck_cli(capsys):
    code, out, _ = run_cli(
        capsys, ["selfcheck", "--types", "A1", "--grid-radius", "1"]
    )
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())


@pytest.mark.parametrize("types", ["", ",", "A1,", " "])
def test_selfcheck_parses_every_given_types_value(capsys, types):
    # an empty value is a malformed type list, not "no list given"
    code, out, err = run_cli(capsys, ["selfcheck", "--types", types])
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse Cartan type {types.split(',')[-1]!r}\n"


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_selfcheck_rejects_a_rank_bound_that_selects_no_type(capsys, bound):
    # a bound below every default type's rank would check nothing and pass
    code, out, err = run_cli(capsys, ["selfcheck", "--rank-bound", bound])
    assert (code, out) == (2, "")
    assert err == (f"error: rank bound {bound} is below the rank of every "
                   "default type\n")


def test_selfcheck_rank_bound_also_bounds_the_given_types(capsys):
    # a given bound is not ignored next to --types: nothing is swept
    argv = ["selfcheck", "--types", "A2", "--rank-bound", "1", "--grid-radius",
            "1"]
    assert run_cli(capsys, argv) == (
        2, "", "error: type A2 has rank 2, above the rank bound 1\n")
    # without --rank-bound the given types are not bounded
    assert parse_query(["selfcheck", "--types", "B4"]).rank_bound is None


# -- persistent cache ---------------------------------------------------------


def test_cache_roundtrip_and_hits(capsys, tmp_path):
    argv = ["hom-verma", "A2", "e", "(1,1)", "e", "(-1,-1)", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code, first, err1 = run_cli(capsys, argv)
    assert code == 0
    assert "cache:" in err1 and " 0 hits" in err1
    assert (tmp_path / "aset_cache.json").exists()
    code, second, err2 = run_cli(capsys, argv)
    assert code == 0
    assert first == second
    hits = int(err2.split("cache: ")[1].split(" hits")[0])
    assert hits > 0 and "0 misses" in err2


def test_cache_transparency_no_cache_flag(capsys, tmp_path):
    base = ["aset", "B2", "1212", "(-1,-1)", "--format", "json"]
    _, cached, _ = run_cli(capsys, base + ["--cache-dir", str(tmp_path)])
    _, fresh, _ = run_cli(
        capsys, base + ["--cache-dir", str(tmp_path), "--no-cache"]
    )
    assert cached == fresh


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    run_cli(capsys, ["aset", "A1", "1", "(-3)"])
    assert (tmp_path / "aset_cache.json").exists()


def test_corrupted_cache_ignored(capsys, tmp_path):
    path = tmp_path / "aset_cache.json"
    path.write_text("{not json", encoding="utf-8")
    argv = ["aset", "A2", "121", "(-1,-1)", "--cache-dir", str(tmp_path)]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and "warning" in err
    code2, out2, _ = run_cli(capsys, argv)
    assert out2 == out  # rewritten cache reproduces the same output


def test_version_mismatch_ignored(capsys, tmp_path):
    path = tmp_path / "aset_cache.json"
    path.write_text(json.dumps({"version": "something-else", "entries": {}}))
    code, _, err = run_cli(
        capsys, ["aset", "A2", "121", "(-1,-1)", "--cache-dir", str(tmp_path)]
    )
    assert code == 0 and "unknown version" in err


def test_version_one_cache_ignored_and_rewritten(capsys, tmp_path):
    # version-1 entries carried certificates; a version-2 run must neither
    # trust nor keep them, even for a key it asks for
    rs = build_root_system("A2")
    letters = tuple(rs.simple_roots[i - 1] for i in (1, 2, 1))
    mu = rs.weight((-1, -1))
    path = tmp_path / "aset_cache.json"
    stale = {"elements": ["(-1,-1)"], "certificates": {"(-1,-1)": []}}
    path.write_text(json.dumps({
        "version": "vermahom-aset-cache-1",
        "entries": {AscentSetCache.key(rs, letters, mu): stale},
    }))
    argv = ["aset", "A2", "121", "(-1,-1)", "--certificates", "--format", "json"]
    _, fresh, _ = run_cli(capsys, argv + ["--no-cache"])
    code, out, err = run_cli(capsys, argv + ["--cache-dir", str(tmp_path)])
    assert code == 0 and out == fresh
    assert "unknown version" in err and "0 hits, 1 misses" in err
    raw = json.loads(path.read_text())
    assert raw["version"] == "vermahom-aset-cache-2"
    entry = raw["entries"][AscentSetCache.key(rs, letters, mu)]
    assert entry == {"elements": sorted(json.loads(fresh)["elements"])}
    code, out, err = run_cli(capsys, argv + ["--cache-dir", str(tmp_path)])
    assert code == 0 and out == fresh
    assert "warning" not in err and "1 hits, 0 misses" in err


@pytest.mark.parametrize("argv", [
    ["aset", "A1", "1", "(-3)", "--certificates"],
    ["hom-verma", "A1", "e", "(-3)", "e", "(3)", "--certificates"],
])
def test_unreachable_cached_member_fails_on_certificate_read(
    capsys, tmp_path, argv
):
    # both queries read the certificates of the word s1 at (-3); the cached
    # entry claims a member that word cannot reach
    rs = build_root_system("A1")
    letters = (rs.simple_roots[0],)
    mu = rs.weight((-3,))
    cache = AscentSetCache(str(tmp_path))
    cache.put(rs, letters, mu, ascent_set_word(rs, letters, mu))
    cache.save()
    path = tmp_path / "aset_cache.json"
    raw = json.loads(path.read_text())
    raw["entries"][AscentSetCache.key(rs, letters, mu)]["elements"].append("(5)")
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, argv + ["--cache-dir", str(tmp_path)])
    assert code == 1 and out == ""
    assert "error: " in err and "corrupt" in err
    assert "Traceback" not in err


def test_verify_cache_mode(capsys, tmp_path):
    argv = ["hom-verma", "B2", "e", "(1,1)", "e", "(1,1)",
            "--cache-dir", str(tmp_path)]
    run_cli(capsys, argv)
    code, _, _ = run_cli(capsys, argv + ["--verify-cache"])
    assert code == 0


def test_verify_cache_detects_tampering(capsys, tmp_path):
    rs = build_root_system("A1")
    letters = (rs.simple_roots[0],)
    mu = rs.weight((-3,))
    cache = AscentSetCache(str(tmp_path))
    good = ascent_set_word(rs, letters, mu)
    cache.put(rs, letters, mu, good)
    cache.save()
    # tamper: drop one element but keep the entry shape valid
    raw = json.loads((tmp_path / "aset_cache.json").read_text())
    key = next(iter(raw["entries"]))
    raw["entries"][key]["elements"] = ["(-3)"]
    (tmp_path / "aset_cache.json").write_text(json.dumps(raw))
    # both read the word s1 at (-3): directly, and as the right side of the
    # twisted query, through the engine's memo
    for argv in (["aset", "A1", "1", "(-3)"],
                 ["hom-verma", "A1", "e", "(-3)", "e", "(3)"]):
        code, out, err = run_cli(
            capsys, argv + ["--cache-dir", str(tmp_path), "--verify-cache"]
        )
        assert code == 1 and out == "" and "verification failed" in err


@pytest.mark.parametrize("argv", [
    ["table", "B2", "--mu-orbit", "(0,1)", "--format", "tsv"],
    ["table", "B2", "--mu-orbit", "(0,1)", "--criterion", "principal-series",
     "--lambda", "(0,1)", "--format", "json"],
])
def test_table_output_and_cache_use_per_distinct_side(capsys, tmp_path, argv):
    cache = ["--cache-dir", str(tmp_path)]
    _, plain, _ = run_cli(capsys, argv + ["--no-cache"])
    code, cold, err = run_cli(capsys, argv + cache)
    assert code == 0 and cold == plain
    # each distinct ascent set of the |W| * |orbit| left and right sides is
    # asked for once: a cold run misses once per entry it saves, and a warm
    # run hits once per entry (the two sides share words here)
    rs = build_root_system("B2")
    group = enumerate_group(rs)
    orbit = {w.act(rs.weight((0, 1))) for w in group}
    entries = json.loads((tmp_path / "aset_cache.json").read_text())["entries"]
    assert 0 < len(entries) < 2 * len(group) * len(orbit)
    assert err == f"cache: 0 hits, {len(entries)} misses\n"
    code, warm, err = run_cli(capsys, argv + cache)
    assert code == 0 and warm == plain
    assert err == f"cache: {len(entries)} hits, 0 misses\n"
    code, verified, _ = run_cli(capsys, argv + cache + ["--verify-cache"])
    assert code == 0 and verified == plain


def test_runs_with_different_cache_dirs_fill_their_own(capsys, tmp_path):
    argv = ["hom-verma", "B2", "s1", "(-1,-1)", "s2", "(1,1)", "--format", "json"]
    outputs = []
    for name in ("one", "two"):
        code, out, err = run_cli(capsys, argv + ["--cache-dir", str(tmp_path / name)])
        assert code == 0 and err == "cache: 0 hits, 2 misses\n"
        outputs.append(out)
    assert outputs[0] == outputs[1]
    one, two = (
        json.loads((tmp_path / name / "aset_cache.json").read_text())["entries"]
        for name in ("one", "two")
    )
    assert len(one) == 2 and one == two


def test_cached_certificates_are_read_only(tmp_path):
    rs = build_root_system("A2")
    letters = tuple(rs.simple_roots)
    mu = rs.weight((-1, -1))
    cache = AscentSetCache(str(tmp_path))
    cache.put(rs, letters, mu, ascent_set_word(rs, letters, mu))
    got = cache.get(rs, letters, mu)
    before = dict(got.certificates)
    with pytest.raises(TypeError):
        got.certificates[rs.rho] = ()
    assert cache.get(rs, letters, mu).certificates == before


@pytest.mark.parametrize("case", ["foreign context", "letter", "rank"])
def test_cache_hits_and_misses_check_arguments_alike(tmp_path, case):
    # an engine checks before its memo and its cache: a hit raises what a
    # miss raises, and the cache is not asked for a bad query
    a2, b2 = build_root_system("A2"), build_root_system("B2")
    letters = (a2.simple_roots[0],)
    cache = AscentSetCache(str(tmp_path))
    if case == "rank":
        # never a hit: a cached entry's members parse at the system's rank
        hit, miss = parse_weight("(1)", 1), parse_weight("(2)", 1)
    else:
        hit, miss = a2.rho, a2.weight((2, 2))
    context = {
        "foreign context": integral_data(b2, b2.rho),
        # the integral simple system of (1/2,1/2) is the root (1,1) alone
        "letter": integral_data(a2, parse_weight("(1/2,1/2)", 2)),
    }.get(case)
    for engine in (Engine(), Engine(cache)):
        engine.ascent_set_word(a2, letters, a2.rho)
        messages = []
        for call, mu in ((ascent_set_word, hit), (engine.ascent_set_word, hit),
                         (engine.ascent_set_word, miss)):
            with pytest.raises(DomainError) as info:
                call(a2, letters, mu, context)
            messages.append(str(info.value))
        assert len(set(messages)) == 1
    assert (cache.hits, cache.misses) == (0, 1)


def test_concurrent_cache_saves_do_not_collide(tmp_path, monkeypatch):
    # a second cache on the same directory saves between the first cache's
    # write and its rename: both saves succeed and leave one whole file
    rs = build_root_system("A2")
    letters = tuple(rs.simple_roots)
    first = AscentSetCache(str(tmp_path))
    second = AscentSetCache(str(tmp_path))
    first.put(rs, letters, rs.rho, ascent_set_word(rs, letters, rs.rho))
    second.put(rs, letters[:1], rs.rho, ascent_set_word(rs, letters[:1], rs.rho))
    real_replace = os.replace

    def replace_after_second_save(src, dst):
        monkeypatch.setattr(os, "replace", real_replace)
        second.save()
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_after_second_save)
    first.save()
    assert os.listdir(tmp_path) == ["aset_cache.json"]
    reloaded = AscentSetCache(str(tmp_path))
    assert reloaded.load_warning is None
    assert reloaded.entries == first.entries  # the last rename wins


@pytest.mark.parametrize("argv", [
    ["aset", "A2", "121", "(-1,-1)"],
    ["hom-verma", "A1", "e", "(1)", "e", "(1)"],
    ["table", "A1", "--mu-orbit", "(1)", "--format", "tsv"],
], ids=["aset", "hom-verma", "table"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_unwritable_cache_dir_still_prints_the_answer(capsys, tmp_path, argv,
                                                      below):
    # a regular file where the cache directory should be: the load and the
    # save each warn, and stdout and the exit code are the uncached run's
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    directory = blocker / "sub" if below else blocker
    _, fresh, _ = run_cli(capsys, argv + ["--no-cache"])
    code, out, err = run_cli(capsys, argv + ["--cache-dir", str(directory)])
    assert (code, out) == (0, fresh)
    lines = err.splitlines()
    assert lines[-2].startswith("warning: cannot save cache file "
                                + str(directory / "aset_cache.json") + ": ")
    assert re.fullmatch(r"cache: \d+ hits, [1-9]\d* misses", lines[-1])
    assert blocker.read_text(encoding="utf-8") == "not a directory"


def test_failed_cache_save_leaves_no_temporary_file(tmp_path, monkeypatch):
    rs = build_root_system("A1")
    letters = tuple(rs.simple_roots)
    cache = AscentSetCache(str(tmp_path))
    cache.put(rs, letters, rs.rho, ascent_set_word(rs, letters, rs.rho))

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        cache.save()
    assert os.listdir(tmp_path) == []


def test_cache_entry_without_its_base_weight_is_a_miss(capsys, tmp_path):
    # the empty subsequence is admissible, so every ascent set holds its
    # base weight; an entry without it is recomputed and rewritten
    argv = ["hom-verma", "A1", "e", "(-3)", "e", "(3)", "--format", "json"]
    cache = ["--cache-dir", str(tmp_path)]
    _, fresh, _ = run_cli(capsys, argv + ["--no-cache"])
    run_cli(capsys, argv + cache)
    path = tmp_path / "aset_cache.json"
    whole = json.loads(path.read_text())
    emptied = {key: {"elements": []} for key in whole["entries"]}
    path.write_text(json.dumps({**whole, "entries": emptied}))
    code, out, err = run_cli(capsys, argv + cache)
    assert code == 0 and out == fresh
    assert err == f"cache: 0 hits, {len(emptied)} misses\n"
    assert json.loads(path.read_text()) == whole


@pytest.mark.parametrize("elements", [[1], [["(1)"]], ["(1)", {"x": 1}]])
def test_cache_entry_with_a_non_string_member_is_a_miss(
        capsys, tmp_path, elements):
    argv = ["aset", "A1", "1", "(1)"]
    cache = ["--cache-dir", str(tmp_path)]
    _, fresh, _ = run_cli(capsys, argv + ["--no-cache"])
    run_cli(capsys, argv + cache)
    path = tmp_path / "aset_cache.json"
    whole = json.loads(path.read_text())
    (key,) = whole["entries"]
    corrupt = {**whole, "entries": {key: {"elements": elements}}}
    path.write_text(json.dumps(corrupt))
    code, out, err = run_cli(capsys, argv + cache)
    assert (code, out, err) == (0, fresh, "cache: 0 hits, 1 misses\n")
    assert json.loads(path.read_text()) == whole


def _full_parser_only(monkeypatch):
    """Make every parse go through a fresh full parser, the reference that
    each subcommand's own parser must match."""
    monkeypatch.setattr(cli, "_parser",
                        lambda command=None: cli._build_parser())


def test_shared_parser_matches_a_fresh_one(capsys, monkeypatch):
    # one parser per subcommand serves every call in the process; no call may
    # leave state behind that a later one sees, errors and --help included
    calls = [
        ["hom-verma", "A2", "e", "(1,1)", "--format", "xml"],
        ["hom-ps", "--help"],
        ["hom-ps", "A2", "s1", "(1,1)", "s1", "(1,1)", "--lambda", "(-1,0)",
         "--normalize", "--certificates", "--format", "json", "--no-cache"],
        # without --normalize the same lambda is not dominant: exit 2
        ["hom-ps", "A2", "s1", "(1,1)", "s1", "(1,1)", "--lambda", "(-1,0)"],
        # usage errors found by a subcommand's own parser, said by the full one
        ["hom-ps", "A2", "s1", "(1,1)", "s1", "(1,1)"],
        ["hom-ps", "A2", "s1", "(1,1)", "s1", "(1,1)", "--lambda", "(1,0)",
         "--bogus"],
        ["table", "A1", "--mu-orbit", "(1)", "--criterion", "principal-series",
         "--lambda", "(1)", "--format", "json", "--no-cache"],
        ["table", "A1", "--mu-orbit", "(1)"],
        ["table", "A1", "--mu-orbit", "(1)", "--criterion", "both"],
        ["selfcheck", "--types", "A1", "--rank-bound", "2", "--grid-radius",
         "1", "--seed", "3"],
        ["selfcheck", "--types", "A1", "--grid-radius", "1"],
        ["selfcheck", "--rank-bound", "two"],
        ["--help"],
    ]
    assert cli._parser() is cli._parser()
    assert cli._parser("table") is cli._parser("table")
    shared = [run_cli(capsys, argv) for argv in calls]
    assert [code for code, _, _ in shared] == [2, 0, 0, 2, 2, 2, 0, 0, 2, 0, 0,
                                               2, 0]
    _full_parser_only(monkeypatch)
    assert [run_cli(capsys, argv) for argv in calls] == shared
    monkeypatch.undo()
    assert cli._parser().format_help() == cli._build_parser().format_help()


# Argument lists whose parse or usage message could differ between a
# subcommand's own parser and the full one: help, usage errors of every
# kind, option forms, and a few that run.
PARSER_CORPUS = [
    [],
    ["--help"],
    ["-h"],
    *([name, "--help"] for name in (
        "aset", "hom-verma", "hom-ps", "integral", "table", "selfcheck")),
    ["hom-verma", "A2", "-h", "e"],
    ["hom-verma", "--", "--help"],
    ["frobnicate", "A2"],
    ["--format", "json", "hom-verma", "A1", "e", "(1)", "e", "(1)"],
    ["-x"],
    ["--"],
    ["hom-verma"],
    ["hom-verma", "A2", "e", "(1,1)", "e"],
    ["hom-verma", "A1", "e", "(1)", "e", "(1)", "extra"],
    ["hom-verma", "A1", "e", "(1)", "e", "(1)", "--bogus"],
    ["hom-verma", "A1", "e", "(1)", "e", "(1)", "--c"],
    ["hom-verma", "A1", "e", "(1)", "e", "(1)", "--format"],
    ["hom-verma", "A1", "e", "(1)", "e", "(1)", "--format", "xml"],
    ["hom-verma", "A1", "e", "(1)", "e", "(1)", "--form", "json",
     "--no-c"],
    ["hom-verma", "A1", "e", "(1)", "e", "(1)", "--format=tsv", "--no-cache"],
    ["hom-verma", "--format", "json", "--no-cache", "A1", "e", "(1)", "e",
     "(-1)"],
    ["hom-verma", "A1", "e", "(1)", "--", "e", "(-1)", "--no-cache"],
    ["hom-verma", "A1", "e", "(1)", "e", "(1)", "--", "--no-cache"],
    ["hom-ps", "A1", "e", "(1)", "e", "(-1)"],
    ["hom-ps", "A1", "e", "(1)", "e", "(-1)", "--lambda"],
    ["hom-ps", "A1", "e", "(1)", "e", "(-1)", "--lambda", "(1)", "--norm",
     "--format", "json", "--no-cache"],
    ["aset", "A2", "12", "(-1,-1)", "--certificates", "--no-cache"],
    ["aset", "A2", "12", "(-1,-1)", "--lambda=(1/2,1/2)", "--no-cache"],
    ["aset", "A2", "1x", "(-1,-1)"],
    ["integral", "A2", "(1/2,1/2)", "--no-cache"],
    ["integral", "A2", "(1/2,1/2)", "--format", "json"],
    ["integral", "A2"],
    ["table", "A1", "--w-all"],
    ["table", "A1", "--mu-orbit", "(1)", "--criterion", "both"],
    ["table", "A1", "--mu-orbit", "(1)", "--crit", "principal-series"],
    ["selfcheck", "extra"],
    ["selfcheck", "--grid-radius", "1.5"],
    ["selfcheck", "--rank-bound"],
    ["selfcheck", "--types", "A1", "--rank-bound", "0"],
]


def test_parser_corpus_matches_the_full_parser(capsys, monkeypatch):
    # every argument list gives the same exit code, stdout and stderr as
    # when the full parser parses it, whichever parsers ran before it
    assert len(PARSER_CORPUS) >= 38
    runs = []
    for order in (PARSER_CORPUS, PARSER_CORPUS[::-1]):
        cli._parser.cache_clear()
        runs.append([run_cli(capsys, argv) for argv in order])
    _full_parser_only(monkeypatch)
    full = [run_cli(capsys, argv) for argv in PARSER_CORPUS]
    assert runs[0] == full
    assert runs[1] == full[::-1]
    assert {code for code, _, _ in full} == {0, 2}


def test_first_call_builds_only_its_subcommands_parser(capsys, monkeypatch):
    # the full parser holds six subparsers; one hom-verma call needs one
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    argv = ["hom-verma", "A1", "e", "(1)", "e", "(-1)", "--format", "json",
            "--no-cache"]
    assert run_cli(capsys, argv)[0] == 0
    assert len(built) == 2
    run_cli(capsys, argv)
    assert len(built) == 2
    # a usage error is said by the full parser, built once for it
    assert run_cli(capsys, argv[:3])[0] == 2
    assert len(built) == 2 + 7


def test_cache_file_format_is_pinned(capsys, tmp_path):
    # the file is json.dump of {"version", "entries"} with sorted keys and
    # default separators; a faster encoder must keep these bytes
    argv = ["table", "A2", "--mu-orbit", "(-1,0)", "--format", "tsv",
            "--cache-dir", str(tmp_path)]
    code, _, err = run_cli(capsys, argv)
    misses = int(re.fullmatch(r"cache: \d+ hits, (\d+) misses\n", err)[1])
    assert code == 0 and misses > 0
    raw = (tmp_path / "aset_cache.json").read_bytes()
    payload = json.loads(raw)
    assert sorted(payload) == ["entries", "version"]
    assert len(payload["entries"]) == misses
    assert payload["version"] == "vermahom-aset-cache-2"
    expected = io.StringIO()
    json.dump({"version": payload["version"], "entries": payload["entries"]},
              expected, sort_keys=True)
    assert raw == expected.getvalue().encode("utf-8")
