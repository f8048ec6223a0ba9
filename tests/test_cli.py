import json
import os
import re

import pytest

from vermahom.aset import ascent_set_word, replay_certificate
from vermahom.cache import CACHE_DIR_ENV, AscentSetCache
from vermahom.cli import main, parse_query
from vermahom.integral import integral_data
from vermahom.rootsystem import Root, RootSystemSpec, build_root_system, parse_weight
from vermahom.weyl import (
    format_word,
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


@pytest.mark.parametrize("argv", [
    ["aset", "A2", "121", "(-1,-1)", "--certificates", "--format", "json"],
    ["hom-verma", "A2", "e", "(1,1)", "s1 s2", "(1,1)", "--format", "tsv"],
    ["hom-ps", "A1", "e", "(1)", "e", "(-1)", "--lambda", "(1)", "--format", "json"],
    ["integral", "A2", "(1/2,1/2)"],
    ["table", "A1", "--mu-orbit", "(1)", "--w-all", "--format", "tsv"],
    ["selfcheck", "--types", "A1", "--rank-bound", "2", "--grid-radius", "1"],
])
def test_query_roundtrip(argv):
    # a parsed query holds canonical text, which parses back to itself
    query = parse_query(argv)
    if query.root_system:
        rank = build_root_system(query.root_system).rank
        for word in query.words:
            assert format_word(parse_word(word, rank)) == word
        for text in (*query.weights, query.lam, query.mu_orbit):
            if text is not None:
                assert str(parse_weight(text, rank)) == text
    for name in query.types:
        assert str(RootSystemSpec.parse(name)) == name


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
    # the cache is asked once per side and not again for the certificates
    hits, misses = map(int, re.fullmatch(
        r"cache: (\d+) hits, (\d+) misses\n", err).groups())
    assert hits + misses == 2
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


def test_exit_codes(capsys):
    # parse failure
    code, _, _ = run_cli(capsys, ["hom-verma", "A2", "e", "(1,banana)", "e", "(1,1)"])
    assert code == 2
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


def test_selfcheck_cli(capsys):
    code, out, _ = run_cli(
        capsys, ["selfcheck", "--types", "A1", "--grid-radius", "1"]
    )
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())


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
    raw["entries"][key]["certificates"] = {"(-3)": []}
    (tmp_path / "aset_cache.json").write_text(json.dumps(raw))
    code, _, err = run_cli(
        capsys,
        ["aset", "A1", "1", "(-3)", "--cache-dir", str(tmp_path), "--verify-cache"],
    )
    assert code == 1 and "verification failed" in err


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
