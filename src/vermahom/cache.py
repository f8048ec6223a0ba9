"""Persistent, content-addressed cache of ascent-set results.

One JSON file per cache directory, carrying a format version.  Keys are
SHA-256 digests of the canonical query serialization (Cartan type, word
letters, base weight), so entries are self-describing and collisions across
root systems are impossible.  A file with the wrong version or unreadable
content is ignored with a warning and simply rewritten on save; corrupt
individual entries count as misses.  Cache use never changes results: the
wrapper recomputes on miss with the ordinary code path, and an optional
verify mode recomputes on hit as well and compares.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from types import MappingProxyType
from typing import Optional, Sequence

from .aset import AscentSet, ascent_set_word
from .rootsystem import Root, RootSystem, Weight, parse_weight

CACHE_VERSION = "vermahom-aset-cache-1"
CACHE_DIR_ENV = "VERMAHOM_CACHE_DIR"
_FILENAME = "aset_cache.json"


class AscentSetCache:
    """Load/store ascent sets under a directory; see the module docstring."""

    def __init__(self, directory: str):
        self.directory = directory
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
            certificates = {
                parse_weight(text, rs.rank): tuple(int(p) for p in positions)
                for text, positions in raw["certificates"].items()
            }
            elements = frozenset(
                parse_weight(text, rs.rank) for text in raw["elements"]
            )
            if elements != frozenset(certificates):
                return None
        except (KeyError, TypeError, ValueError):
            return None
        return AscentSet(
            word=tuple(letters),
            base=mu,
            elements=elements,
            certificates=MappingProxyType(dict(sorted(certificates.items()))),
        )

    def put(
        self, rs: RootSystem, letters: Sequence[Root], mu: Weight, result: AscentSet
    ) -> None:
        self.entries[self.key(rs, letters, mu)] = {
            "elements": sorted(str(w) for w in result.elements),
            "certificates": {
                str(w): list(cert)
                for w, cert in sorted(result.certificates.items())
            },
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
            with open(fd, "w", encoding="utf-8") as fh:
                json.dump(
                    {"version": CACHE_VERSION, "entries": self.entries},
                    fh,
                    sort_keys=True,
                )
            os.replace(tmp, self.path)
        except BaseException:
            os.unlink(tmp)
            raise
        self._dirty = False


def cached_aset_fn(cache: AscentSetCache, verify: bool = False):
    """An ``ascent_set_word``-compatible callable backed by ``cache``.

    With ``verify`` set, hits are recomputed and compared, so a stale or
    tampered cache is detected instead of trusted.
    """

    def fn(rs, letters, mu, context=None):
        got = cache.get(rs, letters, mu)
        if got is not None:
            cache.hits += 1
            if verify:
                fresh = ascent_set_word(rs, letters, mu, context)
                if (fresh.elements != got.elements
                        or fresh.certificates != got.certificates):
                    raise RuntimeError(
                        "cache verification failed for "
                        f"{rs.spec} word={[str(a) for a in letters]} mu={mu}"
                    )
            return got
        cache.misses += 1
        fresh = ascent_set_word(rs, letters, mu, context)
        cache.put(rs, letters, mu, fresh)
        return fresh

    return fn
