"""Persistent, content-addressed cache of ascent-set results.

One JSON file per cache directory, carrying a format version.  Keys are
SHA-256 digests of the canonical query serialization (Cartan type, word
letters, base weight), so entries are self-describing and collisions across
root systems are impossible.  An entry holds the members only: certificates
follow from the word and the base weight, and are rebuilt when first read.
A file with the wrong version or unreadable content is ignored with a
warning and simply rewritten on save; entries that do not parse count as
misses, and so do entries without their base weight (the empty subsequence
is admissible, so the base is always a member).  Members that the word
cannot reach make the first certificate read raise :class:`RuntimeError`.
Cache use never changes results: :meth:`AscentSetCache.ascent_set_word`
recomputes on a miss with the ordinary code path, and a cache opened with
``verify`` recomputes every hit as well and compares.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Optional, Sequence

from .aset import AscentSet, ascent_set_word
from .integral import IntegralData
from .rootsystem import Root, RootSystem, Weight, parse_weight

CACHE_VERSION = "vermahom-aset-cache-2"
CACHE_DIR_ENV = "VERMAHOM_CACHE_DIR"
_FILENAME = "aset_cache.json"


class AscentSetCache:
    """Load/store ascent sets under a directory; see the module docstring."""

    def __init__(self, directory: str, verify: bool = False):
        self.directory = directory
        self.verify = verify
        self.path = os.path.join(directory, _FILENAME)
        self.entries: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self.load_warning: Optional[str] = None
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            return
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.load_warning = f"ignoring unreadable cache file {self.path}"
            return
        if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
            self.load_warning = (
                f"ignoring cache file {self.path} with unknown version"
            )
            return
        entries = data.get("entries")
        if isinstance(entries, dict):
            self.entries = entries

    @staticmethod
    def key(rs: RootSystem, letters: Sequence[Root], mu: Weight) -> str:
        payload = json.dumps(
            {
                "rs": str(rs.spec),
                "letters": [list(a.coords) for a in letters],
                "mu": str(mu),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def get(
        self, rs: RootSystem, letters: Sequence[Root], mu: Weight
    ) -> Optional[AscentSet]:
        raw = self.entries.get(self.key(rs, letters, mu))
        if raw is None:
            return None
        try:
            elements = frozenset(
                parse_weight(text, rs.rank) for text in raw["elements"]
            )
        except (AttributeError, KeyError, TypeError, ValueError):
            return None  # AttributeError: a member that is not a string
        if mu not in elements:
            return None
        return AscentSet(rs, tuple(letters), mu, elements)

    def ascent_set_word(
        self, rs: RootSystem, letters: Sequence[Root], mu: Weight,
        context: Optional[IntegralData] = None,
    ) -> AscentSet:
        """:func:`~vermahom.aset.ascent_set_word` through this cache: a hit
        is returned (recomputed and compared first, with ``verify``), a
        miss is computed and stored."""
        got = self.get(rs, letters, mu)
        if got is None:
            self.misses += 1
            got = ascent_set_word(rs, letters, mu, context)
            self.put(rs, letters, mu, got)
            return got
        self.hits += 1
        if self.verify:
            # equal members give equal certificates: both follow from the
            # word and the base weight
            fresh = ascent_set_word(rs, letters, mu, context)
            if fresh.elements != got.elements:
                raise RuntimeError(
                    "cache verification failed for "
                    f"{rs.spec} word={[str(a) for a in letters]} mu={mu}"
                )
        return got

    def put(
        self, rs: RootSystem, letters: Sequence[Root], mu: Weight, result: AscentSet
    ) -> None:
        self.entries[self.key(rs, letters, mu)] = {
            "elements": sorted(str(w) for w in result.elements),
        }
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        os.makedirs(self.directory, exist_ok=True)
        # a temporary file of its own per save, so concurrent writers never
        # share one; the last rename wins and the file is always whole
        fd, tmp = tempfile.mkstemp(
            prefix=_FILENAME + ".", suffix=".tmp", dir=self.directory
        )
        try:
            # one dumps() call runs json's C encoder; dump() to a file would
            # encode chunk by chunk in Python, with the same bytes
            text = json.dumps(
                {"version": CACHE_VERSION, "entries": self.entries},
                sort_keys=True,
            )
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, self.path)
        except BaseException:
            os.unlink(tmp)
            raise
        self._dirty = False

