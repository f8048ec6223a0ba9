"""Seeded input generator for the benchmark workloads.

Runs in the orchestrating process, never in a measuring interpreter, and
hands each session only text: Cartan types, words such as ``"s1 s2"`` and
weights such as ``"(1,-1/2)"``.  A session's inputs are a list of chunks,
each a list of op inputs; a chunk is timed cold and then replayed warm.
Session ``k`` of a run with seed ``n`` is drawn from its own generator
seeded by ``(workload, n, k)``, so the inputs of a session do not depend on
how many sessions ran before it.

The generator uses the package only to pick valid inputs (group elements,
dominant weights, orbit points); every string it emits is a public ``str``
form, so inputs stay fixed as long as those forms do.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from vermahom import (
    build_root_system,
    enumerate_group,
    in_integral_group,
    integral_data,
    longest_element,
    multiply,
    normalize_principal_series,
    stabilizer_elements,
)
from vermahom.rootsystem import Weight

# Session sizes fix the work one measuring interpreter does, so peak memory,
# per-layer counts and output digests are per-session constants.
PS_CHUNKS = 8
PS_CHUNK_SIZE = 128
PS_TYPES = ("A2", "B2", "G2")
PS_NORMALIZE_SHARE = 0.25
LINKAGE_TYPES = ("B4", "C4", "D4", "A5")
LINKAGE_RANDOM_PAIRS = 8
CLI_CACHE_TYPE = "B3"
CLI_CACHE_BATCH = 100
CLI_PS_TYPE = "A2"
CLI_PS_OPS = 9  # of the batch, hom-ps --normalize calls
# Two table sweeps per batch, the slowest ops in it: with at least two per
# hundred, the 99th latency percentile falls among them and not on the
# seed-dependent tail of the other calls.
CLI_TABLES = (
    ["table", "B2", "--mu-orbit", "(0,0)", "--w-all", "--format", "tsv"],
    ["table", "B2", "--mu-orbit", "(0,0)", "--w-all", "--format", "json"],
)


def _w(coords) -> str:
    return str(Weight(tuple(Fraction(c) for c in coords)))


def _rng(workload: str, seed: int, session: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{session}")


@lru_cache(maxsize=None)
def _group(cartan: str):
    return enumerate_group(build_root_system(cartan))


@lru_cache(maxsize=None)
def _integral_group(cartan: str, lam: Weight):
    data = integral_data(build_root_system(cartan), lam)
    return tuple(w for w in _group(cartan) if in_integral_group(w, data))


@lru_cache(maxsize=None)
def _stabilizer(cartan: str, lam: Weight):
    data = integral_data(build_root_system(cartan), lam)
    return tuple(sorted(stabilizer_elements(data), key=str))


def _regular_dominant(rng: random.Random, rank: int) -> list[int]:
    return [rng.randint(1, 3) for _ in range(rank)]


LAMBDA_KINDS = ("regular", "singular", "nonintegral")


def _dominant_lambda(rng: random.Random, rank: int,
                     kind: str | None = None) -> list[Fraction]:
    kind = kind or rng.choice(LAMBDA_KINDS)
    if kind == "regular":
        return [Fraction(rng.randint(1, 3)) for _ in range(rank)]
    if kind == "singular":
        coords = [Fraction(rng.randint(0, 3)) for _ in range(rank)]
        coords[rng.randrange(rank)] = Fraction(0)
        return coords
    choices = [Fraction(n, d) for n, d in
               ((0, 1), (1, 2), (1, 1), (3, 2), (2, 1), (1, 3), (2, 3))]
    coords = [rng.choice(choices) for _ in range(rank)]
    coords[rng.randrange(rank)] = rng.choice(
        [Fraction(1, 2), Fraction(3, 2), Fraction(1, 3), Fraction(2, 3)])
    return coords


def _offset(rng: random.Random, lam: Weight) -> Weight:
    return Weight(tuple(c + rng.randint(-2, 2) for c in lam.coords))


def _ps_query(rng: random.Random, cartan: str, kind: str,
              normalize: bool) -> dict:
    if normalize:
        return _ps_nondominant_query(rng, cartan, kind)
    rs = build_root_system(cartan)
    lam = Weight(tuple(_dominant_lambda(rng, rs.rank, kind)))
    group = _integral_group(cartan, lam)
    stab = _stabilizer(cartan, lam)
    w1 = multiply(rng.choice(group), rng.choice(stab))
    w2 = multiply(rng.choice(group), rng.choice(stab))
    return {"type": cartan, "lam": str(lam), "w1": str(w1),
            "mu1": str(_offset(rng, lam)), "w2": str(w2),
            "mu2": str(_offset(rng, lam)), "normalize": False}


def _ps_nondominant_query(rng: random.Random, cartan: str, kind: str) -> dict:
    """A query stated over a non-dominant lambda, as ``hom-ps --normalize``
    receives it.  Both sides must normalize to the same dominant weight;
    when a random ``w2`` does not, ``w2 = w1`` does."""
    rs = build_root_system(cartan)
    group = _group(cartan)
    lam = rs.rho
    while rs.is_dominant(lam):
        lam0 = Weight(tuple(_dominant_lambda(rng, rs.rank, kind)))
        lam = rng.choice(group).act(lam0)
    w1, w2 = rng.choice(group), rng.choice(group)
    mu1, mu2 = _offset(rng, lam), _offset(rng, lam)
    if (normalize_principal_series(lam, w1, mu1)[0]
            != normalize_principal_series(lam, w2, mu2)[0]):
        w2 = w1
    return {"type": cartan, "lam": str(lam), "w1": str(w1), "mu1": str(mu1),
            "w2": str(w2), "mu2": str(mu2), "normalize": True}


def ps_stream(seed: int, session: int) -> list[list]:
    """A stream of independent principal-series queries over A2, B2, G2.

    Every session holds each root system, kind of lambda and normalizing
    share in fixed proportions, in seeded order: the seed picks the weights
    and group elements, not the mix, so the slow tail of a run does not
    depend on how many costly kinds the seed happened to draw.
    """
    rng = _rng("ps-stream", seed, session)
    normalize = round(1 / PS_NORMALIZE_SHARE)
    strata = [(cartan, kind, k == 0) for cartan in PS_TYPES
              for kind in LAMBDA_KINDS for k in range(normalize)]
    size = PS_CHUNKS * PS_CHUNK_SIZE
    mix = (strata * -(-size // len(strata)))[:size]
    rng.shuffle(mix)
    queries = [_ps_query(rng, *stratum) for stratum in mix]
    return [queries[i:i + PS_CHUNK_SIZE]
            for i in range(0, size, PS_CHUNK_SIZE)]


def linkage_rank4(seed: int, session: int) -> list[list]:
    """Identity-twist weight pairs in rank 4-5, one heavy pair per type.

    The heavy pair is ``(w0 mu, mu)`` for a regular dominant integral ``mu``
    (the anchor ``(-rho, rho)`` in session 0): its right ascent set is the
    whole orbit, so its cost barely depends on the seed.  The light pairs
    are ``(mu, w0 mu)`` and random weights against an antidominant weight.
    """
    rng = _rng("linkage-rank4", seed, session)
    pairs = []
    for cartan in LINKAGE_TYPES:
        rs = build_root_system(cartan)
        w0 = longest_element(rs)
        if session == 0:
            mu = rs.rho
        else:
            mu = Weight(tuple(Fraction(c) for c in
                              _regular_dominant(rng, rs.rank)))
        pairs.append({"type": cartan, "mu1": str(w0.act(mu)),
                      "mu2": str(mu)})
        pairs.append({"type": cartan, "mu1": str(mu),
                      "mu2": str(w0.act(mu))})
        for _ in range(LINKAGE_RANDOM_PAIRS):
            mu1 = _w(rng.randint(-3, 3) for _ in range(rs.rank))
            nu = Weight(tuple(Fraction(c) for c in
                              _regular_dominant(rng, rs.rank)))
            pairs.append({"type": cartan, "mu1": mu1,
                          "mu2": str(w0.act(nu))})
    return [pairs]


def cli_cache(seed: int, session: int) -> list[list]:
    """A batch of distinct CLI queries for one cache directory.

    Mostly ``hom-verma`` over B3; also ``hom-ps --normalize`` over A2
    (``dominant_representative``, ``reduce_parameters``) and two
    ``table --w-all`` sweeps over B2 (``enumerate_group``, ``length``).
    """
    rng = _rng("cli-cache", seed, session)
    rs = build_root_system(CLI_CACHE_TYPE)
    names = [str(w) for w in _group(CLI_CACHE_TYPE)]
    seen = set()
    queries = []
    while len(queries) < CLI_CACHE_BATCH - CLI_PS_OPS - len(CLI_TABLES):
        q = (rng.choice(names),
             _w(rng.randint(-2, 2) for _ in range(rs.rank)),
             rng.choice(names),
             _w(rng.randint(-2, 2) for _ in range(rs.rank)))
        if q not in seen:
            seen.add(q)
            queries.append(["hom-verma", CLI_CACHE_TYPE, *q, "--format", "json"])
    ps_rank = build_root_system(CLI_PS_TYPE).rank
    ps_group = _group(CLI_PS_TYPE)
    for _ in range(CLI_PS_OPS):
        # the series (w lam, mu) needs mu congruent to w lam
        lam = rng.choice(ps_group).act(
            Weight(tuple(_dominant_lambda(rng, ps_rank))))
        w1, w2 = rng.choice(ps_group), rng.choice(ps_group)
        queries.append([
            "hom-ps", CLI_PS_TYPE,
            str(w1), str(_offset(rng, w1.act(lam))),
            str(w2), str(_offset(rng, w2.act(lam))),
            "--lambda", str(lam), "--normalize", "--format", "json"])
    rng.shuffle(queries)
    # the sweeps' cost grows with the cache file they load and rewrite, so
    # they sit at fixed places in the batch, a third and two thirds in
    for k, table in enumerate(CLI_TABLES, 1):
        queries.insert(k * CLI_CACHE_BATCH // (len(CLI_TABLES) + 1),
                       list(table))
    return [queries]


GENERATORS = {
    "ps-stream": ps_stream,
    "linkage-rank4": linkage_rank4,
    "cli-cache": cli_cache,
}
WORKLOADS = tuple(GENERATORS)


def session_inputs(workload: str, seed: int, session: int) -> list[list]:
    """The text inputs of one session; identical for identical arguments."""
    return GENERATORS[workload](seed, session)
