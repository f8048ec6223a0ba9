"""Command-line front end.

Subcommands: ``aset`` (ascent-set of a word at a weight), ``hom-verma`` and
``hom-ps`` (the two Hom-existence queries), ``integral`` (integral subsystem
summary), ``table`` (verdicts over a whole orbit/group sweep) and
``selfcheck`` (the oracle sweeps).  :func:`parse_query` parses and validates
each argument once, into the library objects the subcommands read.  Each
subcommand builds one JSON payload and one list of rows, and one emitter
prints them as JSON, TSV or human lines.  Output is deterministic: identical
queries produce byte-identical stdout, with or without the persistent cache
(cache statistics go to stderr).  A run with a cache decides through an
:class:`~vermahom.criteria.Engine` of its own, which asks the cache once per
distinct side.  The argument parser is built once per process, on first
use rather than at import, and every :func:`parse_query` reuses it.

Exit codes: 0 decided/ok, 1 selfcheck counterexample or cache verification
failure, 2 parse or precondition violation, 3 enumeration bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache, partial
from typing import Callable, Iterable, Optional, Sequence

from .aset import ascent_set_word
from .cache import CACHE_DIR_ENV, AscentSetCache
from .criteria import DEFAULT, Engine, hom_principal_series, hom_twisted_verma
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
    orbit,
    parse_word,
)

FORMATS = ("human", "json", "tsv")


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
                   help="accepted for compatibility: the table always spans "
                        "the whole group in both group slots")
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


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: built on first use, then reused."""
    return _build_parser()


def parse_query(argv: Sequence[str]) -> argparse.Namespace:
    """Parse ``argv`` with the process's one parser, then replace each text
    argument by the library object it names, parsed and validated once: the
    root system, twists, weights, ``selfcheck`` types, and for ``aset`` the
    word's indices, its ``letters`` and their ``context``.  Lambda is parsed
    first, then words, then weights, so the first malformed argument in that
    order is the one reported."""
    ns = _parser().parse_args(list(argv))
    if ns.command == "selfcheck":
        ns.types = ([RootSystemSpec.parse(t) for t in ns.types.split(",")]
                    if ns.types else None)
        return ns
    ns.root_system = rs = build_root_system(ns.root_system)
    if getattr(ns, "lam", None) is not None:
        ns.lam = parse_weight(ns.lam, rs.rank)
    if ns.command == "aset":
        ns.context = None if ns.lam is None else integral_data(rs, ns.lam)
        simples = (rs if ns.context is None else ns.context).simple_roots
        ns.word = parse_word(ns.word, len(simples))
        ns.letters = tuple(simples[i - 1] for i in ns.word)
        ns.mu = parse_weight(ns.mu, rs.rank)
    elif ns.command in ("hom-verma", "hom-ps"):
        ns.w1, ns.w2 = (from_word(rs, parse_word(w, rs.rank))
                        for w in (ns.w1, ns.w2))
        ns.mu1, ns.mu2 = (parse_weight(mu, rs.rank) for mu in (ns.mu1, ns.mu2))
    elif ns.command == "table":
        ns.mu_orbit = parse_weight(ns.mu_orbit, rs.rank)
    return ns


def _emit(fmt: str, payload: Callable[[], dict], rows: list[list[str]],
          human: Callable[[], Iterable[str]]) -> None:
    """Print one subcommand's result: ``payload()`` as JSON, ``rows`` (header
    first) as TSV, or the lines ``human()`` makes from them."""
    if fmt == "json":
        lines = [json.dumps(payload(), indent=2, sort_keys=True)]
    else:
        lines = map("\t".join, rows) if fmt == "tsv" else human()
    sys.stdout.write("".join(line + "\n" for line in lines))


def _open_cache(ns: argparse.Namespace) -> Optional[AscentSetCache]:
    """The invocation's persistent cache, if any; load warnings go to stderr."""
    directory = None if ns.no_cache else (
        ns.cache_dir or os.environ.get(CACHE_DIR_ENV))
    if not directory:
        return None
    cache = AscentSetCache(directory, verify=ns.verify_cache)
    if cache.load_warning:
        print(f"warning: {cache.load_warning}", file=sys.stderr)
    return cache


def _close_cache(cache: Optional[AscentSetCache]) -> None:
    """Save the invocation's cache and report its counts on stderr."""
    if cache is not None:
        cache.save()
        print(f"cache: {cache.hits} hits, {cache.misses} misses", file=sys.stderr)


def _run_aset(ns: argparse.Namespace) -> int:
    rs = ns.root_system
    cache = _open_cache(ns)
    fetch = ascent_set_word if cache is None else cache.ascent_set_word
    result = fetch(rs, ns.letters, ns.mu, ns.context)
    _close_cache(cache)
    betas = result.inversion
    rows = [["element", "positions", "roots"] if ns.certificates else ["element"]]
    for w in sorted(result.elements):
        row = [str(w)]
        if ns.certificates:
            cert = result.certificates[w]
            row.append(",".join(str(p) for p in cert))
            row.append(";".join(str(betas[p - 1]) for p in cert))
        rows.append(row)

    def payload() -> dict:
        out = {"root_system": str(rs.spec), "word": format_word(ns.word),
               "mu": str(ns.mu), "elements": [row[0] for row in rows[1:]]}
        if ns.lam is not None:
            out["lambda"] = str(ns.lam)
        if ns.certificates:
            out["certificates"] = {
                str(w): {"positions": list(cert),
                         "roots": [list(betas[p - 1].coords) for p in cert]}
                for w, cert in result.certificates.items()
            }
        return out

    _emit(ns.format, payload, rows, lambda: map("  ".join, rows[1:]))
    return 0


def _run_hom(ns: argparse.Namespace) -> int:
    w1, mu1, w2, mu2 = ns.w1, ns.mu1, ns.w2, ns.mu2
    cache = _open_cache(ns)
    engine = DEFAULT if cache is None else Engine(cache)
    if ns.command == "hom-verma":
        verdict = hom_twisted_verma(w1, mu1, w2, mu2, engine=engine)
    else:
        lam = ns.lam
        if ns.normalize:
            lam, (w1, mu1), (w2, mu2) = _normalize_query(
                ns.root_system, lam, w1, mu1, w2, mu2)
        verdict = hom_principal_series(lam, w1, mu1, w2, mu2, engine=engine)
    _close_cache(cache)
    d = verdict.to_dict()
    params = d["parameters"]
    certs = verdict.certificates_dict() if ns.certificates else None
    # the TSV header and row, in column order; only "lambda" may be absent
    cells = {key: params.get(key, "") for key in
             ("kind", "root_system", "lambda", "w1", "mu1", "w2", "mu2")}
    cells.update(
        hom_nonzero=str(d["hom_nonzero"]).lower(),
        ext_all_vanish=str(d["ext_all_vanish"]).lower(),
        witness=d["witness"] or "",
        left_set=";".join(d["left_set"]),
        right_set=";".join(d["right_set"]),
        notes=";".join(params["notes"]),
    )
    if ns.certificates:
        d["witness_certificates"] = certs
        cells["witness_certificates"] = (
            "" if certs is None else json.dumps(certs, sort_keys=True))

    def human() -> list[str]:
        lines = [f"kind: {cells['kind']}", f"root system: {cells['root_system']}"]
        if cells["lambda"]:
            lines.append(f"lambda: {cells['lambda']}")
        lines += [
            f"w1: {cells['w1']}   mu1: {cells['mu1']}",
            f"w2: {cells['w2']}   mu2: {cells['mu2']}",
            f"hom_nonzero: {cells['hom_nonzero']}",
            f"ext_all_vanish: {cells['ext_all_vanish']}",
            f"witness: {cells['witness'] or '-'}",
            "left set:  " + " ".join(d["left_set"]),
            "right set: " + " ".join(d["right_set"]),
        ]
        lines += [f"note: {note}" for note in params["notes"]]
        if certs is not None:
            for side in ("left", "right"):
                cert = certs[side]
                positions = ",".join(str(p) for p in cert["positions"]) or "-"
                lines.append(f"{side} witness chain: base {cert['base']} "
                             f"positions {positions}")
        return lines

    _emit(ns.format, lambda: d, [list(cells), list(cells.values())], human)
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


def _run_integral(ns: argparse.Namespace) -> int:
    rs, lam = ns.root_system, ns.lam
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
    # integer lists print the same through json.dumps and str()
    rows = [[key, json.dumps(value) if isinstance(value, list) else str(value)]
            for key, value in sorted(payload.items())]
    _emit(ns.format, lambda: payload, rows,
          lambda: (f"{key}: {value}" for key, value in rows))
    return 0


def _run_table(ns: argparse.Namespace) -> int:
    rs, mu0 = ns.root_system, ns.mu_orbit
    cache = _open_cache(ns)
    engine = DEFAULT if cache is None else Engine(cache)
    if ns.criterion == "twisted-verma":
        group = sorted(enumerate_group(rs),
                       key=lambda w: (length(w), canonical_reduced_word(w)))
        mus = sorted(orbit(rs, {mu0}, rs.simple_roots))
        decide = hom_twisted_verma
    else:
        if ns.lam is None:
            raise PreconditionError("table --criterion principal-series "
                                    "requires --lambda")
        data = integral_data(rs, ns.lam)
        group = sorted(
            integral_group_elements(data),
            key=lambda w: (integral_length(w, data), w.matrix),
        )
        # integral reflections keep lambda + P, so mu0 speaks for its orbit
        if not (mu0 - ns.lam).is_integral():
            raise DomainError("orbit weight leaves lambda + weight lattice")
        mus = sorted(orbit(rs, {mu0}, data.simple_roots))
        decide = partial(hom_principal_series, ns.lam)
    # each group element and orbit weight is formatted once, not once a row
    slots = [(w, m, str(w), str(m)) for w in group for m in mus]
    rows = [["w1", "mu1", "w2", "mu2", "hom_nonzero", "witness"]]
    for w1, m1, *names1 in slots:
        for w2, m2, *names2 in slots:
            v = decide(w1, m1, w2, m2, engine=engine)
            rows.append([*names1, *names2, str(v.hom_nonzero).lower(),
                         "" if v.witness is None else str(v.witness)])
    _close_cache(cache)

    def payload() -> dict:
        return {
            "kind": ns.criterion,
            "root_system": str(rs.spec),
            "row_count": len(rows) - 1,
            "rows": [
                {"w1": w1, "mu1": m1, "w2": w2, "mu2": m2,
                 "hom_nonzero": nonzero == "true", "witness": witness or None}
                for w1, m1, w2, m2, nonzero, witness in rows[1:]
            ],
        }

    def human() -> Iterable[str]:
        yield f"{len(rows) - 1} rows"
        for row in rows[1:]:
            yield "  ".join(cell or "-" for cell in row)

    _emit(ns.format, payload, rows, human)
    return 0


def _run_selfcheck(ns: argparse.Namespace) -> int:
    reports = run_selfcheck(types=ns.types, rank_bound=ns.rank_bound,
                            grid_radius=ns.grid_radius, seed=ns.seed)
    for report in reports:
        print(report.line())
    return 0 if all(report.passed for report in reports) else 1


_COMMANDS = {
    "aset": _run_aset,
    "hom-verma": _run_hom,
    "hom-ps": _run_hom,
    "integral": _run_integral,
    "table": _run_table,
    "selfcheck": _run_selfcheck,
}


def run(query: argparse.Namespace) -> int:
    """Execute a query from :func:`parse_query`; deterministic output per
    query."""
    return _COMMANDS[query.command](query)


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
