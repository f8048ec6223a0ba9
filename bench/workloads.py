"""What one op of each workload is, and how its outputs are checked.

Ops call the package through module attributes (``criteria.hom_...``), so
the tracer's wrappers apply when it is installed.  ``parse`` turns the text
input of one op into library objects; it is part of set-up.  Each op
returns its raw output, ``record`` turns that into the canonical text that is
digested and compared, and ``check`` returns an error message or ``None``.
Checks run after the timed passes, with tracing removed.
"""

from __future__ import annotations

import contextlib
import io
import json

from vermahom import aset, cli, criteria, integral, oracle, rootsystem, weyl


class OpFailed(Exception):
    """An op returned a nonzero exit code or an unusable result."""


def _verdict_record(verdict) -> str:
    return json.dumps([verdict.to_dict(), verdict.certificates_dict()],
                      sort_keys=True)


def _verdict_consistency(verdict) -> str | None:
    common = verdict.left_set & verdict.right_set
    if verdict.hom_nonzero != bool(common):
        return "hom_nonzero disagrees with the intersection"
    if verdict.ext_all_vanish == verdict.hom_nonzero:
        return "ext_all_vanish is not the negation of hom_nonzero"
    if verdict.witness != (min(common) if common else None):
        return "witness is not the least common weight"
    if (verdict.left_certificate is None) == verdict.hom_nonzero:
        return "certificate presence disagrees with the verdict"
    return None


def _replay(rs, cert):
    return aset.replay_certificate(rs, cert["word"], cert["base"],
                                   cert["positions"])


def _word(rs, text):
    return weyl.from_word(rs, weyl.parse_word(text, rs.rank))


def _cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


# -- ps-stream ----------------------------------------------------------------


class PsStream:
    """One op is one ``hom_principal_series`` call; a quarter of the queries
    start from a non-dominant lambda and are normalized first."""

    cli_output = False

    def parse(self, q: dict, cache_dir: str):
        rs = rootsystem.build_root_system(q["type"])
        return (
            rootsystem.parse_weight(q["lam"], rs.rank),
            _word(rs, q["w1"]), rootsystem.parse_weight(q["mu1"], rs.rank),
            _word(rs, q["w2"]), rootsystem.parse_weight(q["mu2"], rs.rank),
            q["normalize"],
        )

    def run(self, query):
        lam, w1, mu1, w2, mu2, normalize = query
        if normalize:
            lam1, w1, mu1 = criteria.normalize_principal_series(lam, w1, mu1)
            lam2, w2, mu2 = criteria.normalize_principal_series(lam, w2, mu2)
            if lam1 != lam2:
                raise OpFailed("the two sides normalize to different lambdas")
            lam = lam1
        return lam, w1, w2, criteria.hom_principal_series(lam, w1, mu1, w2, mu2)

    def record(self, query, output) -> str:
        return _verdict_record(output[3])

    def check(self, query, output) -> str | None:
        lam, w1, w2, verdict = output
        problem = _verdict_consistency(verdict)
        if problem or not verdict.hom_nonzero:
            return problem
        rs = w1.rs
        wl = integral.integral_data(rs, lam).longest_element
        left = weyl.multiply(weyl.inverse(w1), wl).act(
            _replay(rs, verdict.left_certificate))
        right_cert = verdict.right_certificate
        u = _word(rs, right_cert["stabilizer"])
        right = u.act(weyl.inverse(w2).act(_replay(rs, right_cert)))
        if left != verdict.witness or right != verdict.witness:
            return f"certificates replay to {left} and {right}, not {verdict.witness}"
        return None


# -- linkage-rank4 ------------------------------------------------------------


class LinkageRank4:
    """One op is ``hom_twisted_verma(e, mu1, e, mu2)`` plus its strong-linkage
    confirmation ``bgg_verma_hom``."""

    cli_output = False

    def parse(self, p: dict, cache_dir: str):
        rs = rootsystem.build_root_system(p["type"])
        return (rs, rootsystem.parse_weight(p["mu1"], rs.rank),
                rootsystem.parse_weight(p["mu2"], rs.rank))

    def run(self, pair):
        rs, mu1, mu2 = pair
        e = weyl.identity(rs)
        return (criteria.hom_twisted_verma(e, mu1, e, mu2),
                oracle.bgg_verma_hom(rs, mu1, mu2))

    def record(self, pair, output) -> str:
        verdict, (linked, _) = output
        return _verdict_record(verdict) + json.dumps(linked)

    def check(self, pair, output) -> str | None:
        rs, mu1, mu2 = pair
        verdict, (linked, chain) = output
        if verdict.hom_nonzero != linked:
            return f"criterion says {verdict.hom_nonzero}, linkage says {linked}"
        if linked:
            oracle.validate_chain(rs, chain)
            if chain.start != mu2 or chain.end != mu1:
                return "linkage chain does not join the pair"
        problem = _verdict_consistency(verdict)
        if problem or not verdict.hom_nonzero:
            return problem
        w0 = weyl.longest_element(rs)
        left = _replay(rs, verdict.left_certificate)
        right = w0.act(_replay(rs, verdict.right_certificate))
        if left != verdict.witness or right != verdict.witness:
            return f"certificates replay to {left} and {right}, not {verdict.witness}"
        return None


# -- cli-cache ----------------------------------------------------------------


class CliCache:
    """One op is one CLI call with ``--cache-dir D``: mostly ``hom-verma``,
    some ``hom-ps --normalize`` and one ``table --w-all`` per batch.

    The cold pass starts from an empty directory, so every call loads the
    file, misses, computes and rewrites it; the warm pass replays the batch
    and only reads.
    """

    cli_output = True

    def parse(self, argv, cache_dir: str):
        rootsystem.build_root_system(argv[1])
        return [*argv, "--cache-dir", cache_dir]

    def run(self, argv):
        return _cli(argv)

    def record(self, argv, output) -> str:
        return output

    def check(self, argv, output) -> str | None:
        if argv[0] == "table":
            problem = _table_linkage(argv, output)
            if problem:
                return problem
        else:
            json.loads(output)
        uncached = _cli([*argv[:-2], "--no-cache"])
        if uncached != output:
            return "cached stdout differs from a --no-cache run"
        return None


def _table_rows(argv, output):
    """``(w1, mu1, w2, mu2, hom_nonzero)`` of each row of a ``table`` call."""
    if argv[argv.index("--format") + 1] == "json":
        return [(r["w1"], r["mu1"], r["w2"], r["mu2"], r["hom_nonzero"])
                for r in json.loads(output)["rows"]]
    header, *rows = [line.split("\t") for line in output.splitlines()]
    if header[:5] != ["w1", "mu1", "w2", "mu2", "hom_nonzero"]:
        raise OpFailed("table output lacks the expected header")
    return [(w1, mu1, w2, mu2, nonzero == "true")
            for w1, mu1, w2, mu2, nonzero, *_ in rows]


def _table_linkage(argv, output) -> str | None:
    """Identity-twist rows of a ``table`` must agree with ``bgg_verma_hom``."""
    rs = rootsystem.build_root_system(argv[1])
    checked = 0
    for w1, mu1, w2, mu2, nonzero in _table_rows(argv, output):
        if w1 != "e" or w2 != "e":
            continue
        linked, _ = oracle.bgg_verma_hom(
            rs, rootsystem.parse_weight(mu1, rs.rank),
            rootsystem.parse_weight(mu2, rs.rank))
        if nonzero != linked:
            return f"table row {mu1} {mu2} says {nonzero}, linkage says {linked}"
        checked += 1
    return None if checked else "table has no identity-twist row"


WORKLOADS = {
    "ps-stream": PsStream(),
    "linkage-rank4": LinkageRank4(),
    "cli-cache": CliCache(),
}
