#!/usr/bin/env python3
"""Sweep every twisted-Verma Hom verdict over a group x orbit grid and
summarize how often the Hom space is nonzero per pair of word lengths.

Usage: orbit_table_summary.py [TYPE] [MU]
       orbit_table_summary.py B2 "(1,1)"
"""

import sys
from collections import Counter

from vermahom import (
    build_root_system,
    enumerate_group,
    hom_twisted_verma,
    length,
    orbit,
    parse_weight,
)


def main(argv):
    name = argv[0] if argv else "A2"
    rs = build_root_system(name)
    mu0 = parse_weight(argv[1], rs.rank) if len(argv) > 1 else rs.rho
    group = enumerate_group(rs)
    lengths = {w: length(w) for w in group}
    mus = sorted(orbit(rs, {mu0}, rs.simple_roots))
    nonzero = Counter()
    total = Counter()
    for w1 in group:
        for w2 in group:
            key = (lengths[w1], lengths[w2])
            for m1 in mus:
                for m2 in mus:
                    total[key] += 1
                    if hom_twisted_verma(w1, m1, w2, m2).hom_nonzero:
                        nonzero[key] += 1
    rows = len(group) ** 2 * len(mus) ** 2
    print(f"{name}: |W| = {len(group)}, orbit of {mu0} has {len(mus)} "
          f"weights, {rows} verdicts")
    for key in sorted(total):
        print(f"  l(w1)={key[0]} l(w2)={key[1]}: "
              f"{nonzero[key]}/{total[key]} nonzero")


if __name__ == "__main__":
    main(sys.argv[1:])
