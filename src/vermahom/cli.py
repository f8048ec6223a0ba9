"""Command-line front end.

Subcommands: ``aset`` (ascent-set of a word at a weight), ``hom-verma`` and
``hom-ps`` (the two Hom-existence queries), ``integral`` (integral subsystem
summary), ``table`` (verdicts over a whole orbit/group sweep) and
``selfcheck`` (the oracle sweeps).  Output is deterministic: identical
queries produce byte-identical stdout, with or without the persistent cache
(cache statistics go to stderr).

Exit codes: 0 decided/ok, 1 selfcheck counterexample or cache verification
failure, 2 parse or precondition violation, 3 enumeration bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .aset import ascent_set_word, inversion_sequence
from .cache import CACHE_DIR_ENV, AscentSetCache, cached_aset_fn
from .criteria import hom_principal_series, hom_twisted_verma
from .errors import (
    DomainError,
    EnumerationBound,
    PreconditionError,
    ValidationError,
)
from .integral import (
    dominant_representative,
    integral_data,
    integral_group_elements,
    integral_length,
    reduce_parameters,
)
from .oracle import run_selfcheck
from .rootsystem import RootSystemSpec, build_root_system, parse_weight
from .weyl import (
    canonical_reduced_word,
    enumerate_group,
    format_word,
    from_word,
    inverse,
    length,
    multiply,
    parse_word,
)

FORMATS = ("human", "json", "tsv")


@dataclass(frozen=True)
class Query:
    """A parsed CLI invocation, with words and weights in canonical text."""

    command: str
    root_system: str = ""
    words: tuple[str, ...] = ()
    weights: tuple[str, ...] = ()
    lam: Optional[str] = None
    criterion: str = "twisted-verma"
    mu_orbit: Optional[str] = None
    w_all: bool = False
    certificates: bool = False
    normalize: bool = False
    output_format: str = "human"
    no_cache: bool = False
    cache_dir: Optional[str] = None
    verify_cache: bool = False
    rank_bound: int = 3
    grid_radius: int = 2
    seed: int = 0
    types: tuple[str, ...] = ()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vermahom",
        description="Exact Hom-existence criteria over root-system data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, cache=True):
        p.add_argument("--format", default="human", choices=FORMATS)
        if cache:
            p.add_argument("--no-cache", action="store_true")
            p.add_argument("--cache-dir", default=None)
            p.add_argument("--verify-cache", action="store_true")

    p = sub.add_parser("aset", help="ascent set of a word at a weight")
    p.add_argument("root_system")
    p.add_argument("word")
    p.add_argument("mu")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="take letters from the integral simple system of "
                        "this weight (1-based positions)")
    p.add_argument("--certificates", action="store_true")
    add_common(p)

    p = sub.add_parser("hom-verma", help="Hom between twisted Verma modules")
    p.add_argument("root_system")
    p.add_argument("w1")
    p.add_argument("mu1")
    p.add_argument("w2")
    p.add_argument("mu2")
    p.add_argument("--certificates", action="store_true")
    add_common(p)

    p = sub.add_parser("hom-ps", help="Hom between principal series")
    p.add_argument("root_system")
    p.add_argument("w1")
    p.add_argument("mu1")
    p.add_argument("w2")
    p.add_argument("mu2")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--normalize", action="store_true",
                   help="normalize the parameters to a dominant, in-subgroup "
                        "form before deciding")
    p.add_argument("--certificates", action="store_true")
    add_common(p)

    p = sub.add_parser("integral", help="integral subsystem summary")
    p.add_argument("root_system")
    p.add_argument("lam", metavar="lambda")
    add_common(p, cache=False)

    p = sub.add_parser("table", help="verdicts over a full orbit/group sweep")
    p.add_argument("root_system")
    p.add_argument("--mu-orbit", required=True,
                   help="seed weight; both weight slots range over its orbit")
    p.add_argument("--w-all", action="store_true",
                   help="both group slots range over the whole group")
    p.add_argument("--criterion", default="twisted-verma",
                   choices=("twisted-verma", "principal-series"))
    p.add_argument("--lambda", dest="lam", default=None)
    add_common(p)

    p = sub.add_parser("selfcheck", help="run the oracle sweeps")
    p.add_argument("--types", default=None,
                   help="comma-separated Cartan types to sweep")
    p.add_argument("--rank-bound", type=int, default=3)
    p.add_argument("--grid-radius", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    return parser


def parse_query(argv: Sequence[str]) -> Query:
    ns = _build_parser().parse_args(list(argv))
    command = ns.command
    kwargs: dict = {"command": command}
    if command != "selfcheck":
        spec = RootSystemSpec.parse(ns.root_system)
        rs = build_root_system(spec)
        kwargs["root_system"] = str(spec)
        kwargs["output_format"] = ns.format
    if command in ("aset", "hom-verma", "hom-ps", "table"):
        kwargs["no_cache"] = ns.no_cache
        kwargs["cache_dir"] = ns.cache_dir
        kwargs["verify_cache"] = ns.verify_cache
    lam = getattr(ns, "lam", None)
    if lam is not None:
        kwargs["lam"] = str(parse_weight(lam, rs.rank))
    if command == "aset":
        if lam is not None:
            data = integral_data(rs, parse_weight(lam, rs.rank))
            word_rank = len(data.simple_roots)
        else:
            word_rank = rs.rank
        word = parse_word(ns.word, word_rank)
        kwargs["words"] = (format_word(word),)
        kwargs["weights"] = (str(parse_weight(ns.mu, rs.rank)),)
        kwargs["certificates"] = ns.certificates
    elif command in ("hom-verma", "hom-ps"):
        kwargs["words"] = (
            format_word(parse_word(ns.w1, rs.rank)),
            format_word(parse_word(ns.w2, rs.rank)),
        )
        kwargs["weights"] = (
            str(parse_weight(ns.mu1, rs.rank)),
            str(parse_weight(ns.mu2, rs.rank)),
        )
        kwargs["certificates"] = ns.certificates
        if command == "hom-ps":
            kwargs["normalize"] = ns.normalize
    elif command == "table":
        kwargs["mu_orbit"] = str(parse_weight(ns.mu_orbit, rs.rank))
        kwargs["w_all"] = ns.w_all
        kwargs["criterion"] = ns.criterion
    elif command == "selfcheck":
        if ns.types:
            types = tuple(
                str(RootSystemSpec.parse(t)) for t in ns.types.split(",")
            )
        else:
            types = ()
        kwargs["types"] = types
        kwargs["rank_bound"] = ns.rank_bound
        kwargs["grid_radius"] = ns.grid_radius
        kwargs["seed"] = ns.seed
    return Query(**kwargs)


# -- output helpers ---------------------------------------------------------


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _tsv(rows: list[list[str]]) -> str:
    return "\n".join("\t".join(row) for row in rows)


def _verdict_output(verdict, fmt: str, certificates: bool = False) -> str:
    d = verdict.to_dict()
    certs = verdict.certificates_dict() if certificates else None
    if fmt == "json":
        if certificates:
            d["witness_certificates"] = certs
        return _emit_json(d)
    params = d["parameters"]
    if fmt == "tsv":
        header = ["kind", "root_system", "lambda", "w1", "mu1", "w2", "mu2",
                  "hom_nonzero", "ext_all_vanish", "witness",
                  "left_set", "right_set", "notes"]
        row = [params["kind"], params["root_system"],
               params.get("lambda", ""), params["w1"], params["mu1"],
               params["w2"], params["mu2"], str(d["hom_nonzero"]).lower(),
               str(d["ext_all_vanish"]).lower(), d["witness"] or "",
               ";".join(d["left_set"]), ";".join(d["right_set"]),
               ";".join(params["notes"])]
        if certificates:
            header.append("witness_certificates")
            row.append("" if certs is None else json.dumps(certs, sort_keys=True))
        return _tsv([header, row])
    lines = [f"kind: {params['kind']}", f"root system: {params['root_system']}"]
    if "lambda" in params:
        lines.append(f"lambda: {params['lambda']}")
    lines.append(f"w1: {params['w1']}   mu1: {params['mu1']}")
    lines.append(f"w2: {params['w2']}   mu2: {params['mu2']}")
    lines.append(f"hom_nonzero: {str(d['hom_nonzero']).lower()}")
    lines.append(f"ext_all_vanish: {str(d['ext_all_vanish']).lower()}")
    lines.append(f"witness: {d['witness'] or '-'}")
    lines.append("left set:  " + " ".join(d["left_set"]))
    lines.append("right set: " + " ".join(d["right_set"]))
    for note in params["notes"]:
        lines.append(f"note: {note}")
    if certs is not None:
        for side in ("left", "right"):
            cert = certs[side]
            positions = ",".join(str(p) for p in cert["positions"]) or "-"
            lines.append(
                f"{side} witness chain: base {cert['base']} positions {positions}"
            )
    return "\n".join(lines)


def _sorted_elements(rs, elements):
    return sorted(elements, key=lambda w: (length(w), canonical_reduced_word(w)))


class _CacheSession:
    """Resolves the persistent cache for one invocation."""

    def __init__(self, query: Query):
        directory = None
        if not query.no_cache:
            directory = query.cache_dir or os.environ.get(CACHE_DIR_ENV)
        self.cache = AscentSetCache(directory) if directory else None
        if self.cache and self.cache.load_warning:
            print(f"warning: {self.cache.load_warning}", file=sys.stderr)
        self.fn = (
            cached_aset_fn(self.cache, verify=query.verify_cache)
            if self.cache else None
        )

    def finish(self) -> None:
        if self.cache:
            self.cache.save()
            print(
                f"cache: {self.cache.hits} hits, {self.cache.misses} misses",
                file=sys.stderr,
            )


def _run_aset(query: Query) -> int:
    rs = build_root_system(query.root_system)
    mu = parse_weight(query.weights[0], rs.rank)
    if query.lam is not None:
        data = integral_data(rs, parse_weight(query.lam, rs.rank))
        simples = data.simple_roots
        context = data
    else:
        simples = rs.simple_roots
        context = None
    indices = parse_word(query.words[0], len(simples))
    letters = tuple(simples[i - 1] for i in indices)
    session = _CacheSession(query)
    fn = session.fn or ascent_set_word
    result = fn(rs, letters, mu, context)
    session.finish()
    elements = sorted(result.elements)
    betas = inversion_sequence(rs, letters)
    if query.output_format == "json":
        payload = {
            "root_system": str(rs.spec),
            "word": query.words[0],
            "mu": str(mu),
            "elements": [str(w) for w in elements],
        }
        if query.lam is not None:
            payload["lambda"] = query.lam
        if query.certificates:
            payload["certificates"] = {
                str(w): {
                    "positions": list(cert),
                    "roots": [list(betas[p - 1].coords) for p in cert],
                }
                for w, cert in result.certificates.items()
            }
        print(_emit_json(payload))
        return 0
    rows = []
    if query.output_format == "tsv":
        header = ["element"]
        if query.certificates:
            header += ["positions", "roots"]
        rows.append(header)
    for w in elements:
        row = [str(w)]
        if query.certificates:
            cert = result.certificates[w]
            row.append(",".join(str(p) for p in cert))
            row.append(";".join(str(betas[p - 1]) for p in cert))
        rows.append(row)
    if query.output_format == "tsv":
        print(_tsv(rows))
    else:
        for row in rows:
            print("  ".join(row))
    return 0


def _run_hom(query: Query) -> int:
    rs = build_root_system(query.root_system)
    w1 = from_word(rs, parse_word(query.words[0], rs.rank))
    w2 = from_word(rs, parse_word(query.words[1], rs.rank))
    mu1 = parse_weight(query.weights[0], rs.rank)
    mu2 = parse_weight(query.weights[1], rs.rank)
    session = _CacheSession(query)
    if query.command == "hom-verma":
        verdict = hom_twisted_verma(w1, mu1, w2, mu2, aset_word_fn=session.fn)
    else:
        lam = parse_weight(query.lam, rs.rank)
        if query.normalize:
            lam, (w1, mu1), (w2, mu2) = _normalize_query(rs, lam, w1, mu1, w2, mu2)
        verdict = hom_principal_series(
            lam, w1, mu1, w2, mu2, aset_word_fn=session.fn
        )
    session.finish()
    print(_verdict_output(verdict, query.output_format, query.certificates))
    return 0


def _normalize_query(rs, lam, w1, mu1, w2, mu2):
    """Rewrite a full Hom query over a dominant weight with subgroup twists.

    Uses one dominant representative for the shared weight, then trades each
    group element for the integral-subgroup element inducing the same
    positive system, adjusting the companion weight accordingly.
    """
    dom, u = dominant_representative(rs, lam)
    u_inv = inverse(u)
    sides = []
    for w, mu in ((w1, mu1), (w2, mu2)):
        v = multiply(w, u_inv)
        wp = reduce_parameters(v, dom)
        mup = multiply(wp, inverse(v)).act(mu)
        sides.append((wp, mup))
    return dom, sides[0], sides[1]


def _run_integral(query: Query) -> int:
    rs = build_root_system(query.root_system)
    lam = parse_weight(query.lam, rs.rank)
    data = integral_data(rs, lam)
    try:
        order = len(integral_group_elements(data))
    except EnumerationBound:
        order = None
    payload = {
        "root_system": str(rs.spec),
        "lambda": str(lam),
        "positive_roots": [list(r.coords) for r in data.positive_roots],
        "simple_system": [list(r.coords) for r in data.simple_roots],
        "stabilizer_generators": [list(r.coords) for r in data.stabilizer_gens],
        "longest_element": str(data.longest_element),
        "longest_integral_length": integral_length(data.longest_element, data),
        "group_order": order,
    }
    if query.output_format == "json":
        print(_emit_json(payload))
    elif query.output_format == "tsv":
        rows = [[key, json.dumps(value) if isinstance(value, list) else str(value)]
                for key, value in sorted(payload.items())]
        print(_tsv(rows))
    else:
        for key, value in sorted(payload.items()):
            print(f"{key}: {value}")
    return 0


def _run_table(query: Query) -> int:
    rs = build_root_system(query.root_system)
    mu0 = parse_weight(query.mu_orbit, rs.rank)
    session = _CacheSession(query)
    rows = []
    if query.criterion == "twisted-verma":
        group = _sorted_elements(rs, enumerate_group(rs))
        orbit = sorted({w.act(mu0) for w in group})
        for w1 in group:
            for m1 in orbit:
                for w2 in group:
                    for m2 in orbit:
                        verdict = hom_twisted_verma(
                            w1, m1, w2, m2, aset_word_fn=session.fn
                        )
                        rows.append((w1, m1, w2, m2, verdict))
    else:
        if query.lam is None:
            raise PreconditionError("table --criterion principal-series "
                                    "requires --lambda")
        lam = parse_weight(query.lam, rs.rank)
        data = integral_data(rs, lam)
        group = sorted(
            integral_group_elements(data),
            key=lambda w: (integral_length(w, data), w.matrix),
        )
        orbit = sorted({w.act(mu0) for w in group})
        for m in orbit:
            if not (m - lam).is_integral():
                raise DomainError("orbit weight leaves lambda + weight lattice")
        for w1 in group:
            for m1 in orbit:
                for w2 in group:
                    for m2 in orbit:
                        verdict = hom_principal_series(
                            lam, w1, m1, w2, m2, aset_word_fn=session.fn
                        )
                        rows.append((w1, m1, w2, m2, verdict))
    session.finish()
    if query.output_format == "json":
        payload = {
            "kind": query.criterion,
            "root_system": str(rs.spec),
            "row_count": len(rows),
            "rows": [
                {
                    "w1": str(w1), "mu1": str(m1),
                    "w2": str(w2), "mu2": str(m2),
                    "hom_nonzero": v.hom_nonzero,
                    "witness": None if v.witness is None else str(v.witness),
                }
                for w1, m1, w2, m2, v in rows
            ],
        }
        print(_emit_json(payload))
        return 0
    table = [["w1", "mu1", "w2", "mu2", "hom_nonzero", "witness"]]
    for w1, m1, w2, m2, v in rows:
        table.append([
            str(w1), str(m1), str(w2), str(m2),
            str(v.hom_nonzero).lower(),
            "" if v.witness is None else str(v.witness),
        ])
    if query.output_format == "tsv":
        print(_tsv(table))
    else:
        print(f"{len(rows)} rows")
        for row in table[1:]:
            print("  ".join(cell or "-" for cell in row))
    return 0


def _run_selfcheck(query: Query) -> int:
    reports = run_selfcheck(
        types=list(query.types) or None,
        rank_bound=query.rank_bound,
        grid_radius=query.grid_radius,
        seed=query.seed,
    )
    failed = False
    for report in reports:
        print(report.line())
        failed = failed or not report.passed
    return 1 if failed else 0


def run(query: Query) -> int:
    """Execute a parsed query; deterministic output per query."""
    if query.command == "aset":
        return _run_aset(query)
    if query.command in ("hom-verma", "hom-ps"):
        return _run_hom(query)
    if query.command == "integral":
        return _run_integral(query)
    if query.command == "table":
        return _run_table(query)
    if query.command == "selfcheck":
        return _run_selfcheck(query)
    raise ValidationError(f"unknown command {query.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        query = parse_query(argv)
    except SystemExit as exc:  # argparse reports its own errors
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(query)
    except (ValidationError, DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationBound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
