"""Per-layer tracing installed from outside the package.

Wraps the public functions of each layer, in every ``vermahom`` module
namespace that binds them and on the classes for methods, and keeps in
memory:

- per function: call count and self time (elapsed minus wrapped callees);
- ``lru_cache`` hit ratios, from ``cache_info()`` deltas;
- spans (name, start, end, parent span, op id) for the coarse boundaries
  cli, criteria, aset, integral, cache and oracle.  The leaf arithmetic in
  rootsystem and weyl runs millions of times per op, so it is aggregated
  only.

Installing fails loudly when a listed function is missing or no longer bound
where it is expected: a refactor must re-point the table below instead of
silently zeroing a counter.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field


class TraceInstallError(RuntimeError):
    """A traced function is missing or bound somewhere unexpected."""


# (module, attribute, metric name, modules expected to bind the function).
# Methods are ``Class.method`` and are wrapped on the class.  The binders are
# the namespaces the package imports the function into; "" is the package.
TARGETS = (
    ("rootsystem", "RootSystem.pairing", "pairing", ()),
    ("rootsystem", "RootSystem.reflect", "reflect", ()),
    ("rootsystem", "RootSystem.is_dominant", "is_dominant", ()),
    ("rootsystem", "RootSystem.in_root_lattice", "in_root_lattice", ()),
    ("weyl", "multiply", "multiply",
     ("", "aset", "cli", "criteria", "integral", "oracle")),
    ("weyl", "reflection", "reflection", ("", "aset", "integral", "oracle")),
    ("weyl", "WeylElem.act", "act", ()),
    ("weyl", "WeylElem.act_on_root", "act_on_root", ()),
    ("weyl", "length", "length", ("", "cli", "oracle")),
    ("weyl", "longest_element", "longest_element", ("", "criteria", "oracle")),
    ("weyl", "enumerate_group", "enumerate_group",
     ("", "cli", "integral", "oracle")),
    ("weyl", "inverse", "inverse",
     ("", "cli", "criteria", "integral", "oracle")),
    ("weyl", "canonical_reduced_word", "canonical_reduced_word",
     ("", "cli", "oracle")),
    ("integral", "integral_data", "integral_data",
     ("", "cli", "criteria", "oracle")),
    ("integral", "in_integral_group", "in_integral_group", ("", "criteria")),
    ("integral", "canonical_integral_word", "canonical_integral_word",
     ("", "aset")),
    ("integral", "stabilizer_elements", "stabilizer_elements",
     ("", "criteria", "oracle")),
    ("integral", "dominant_representative", "dominant_representative",
     ("", "cli", "criteria")),
    ("integral", "reduce_parameters", "reduce_parameters",
     ("", "cli", "criteria")),
    ("aset", "ascent_set_word", "ascent_set_word",
     ("", "cache", "cli", "oracle")),
    ("aset", "ascent_set", "ascent_set", ("", "criteria")),
    ("criteria", "hom_twisted_verma", "hom_twisted_verma",
     ("", "cli", "oracle")),
    ("criteria", "hom_principal_series", "hom_principal_series",
     ("", "cli", "oracle")),
    ("criteria", "normalize_principal_series", "normalize_principal_series",
     ("",)),
    ("criteria", "HomVerdict.certificates_dict", "certificates_dict", ()),
    ("cache", "AscentSetCache.__init__", "load", ()),
    ("cache", "AscentSetCache.get", "get", ()),
    ("cache", "AscentSetCache.key", "key", ()),
    ("cache", "AscentSetCache.put", "put", ()),
    ("cache", "AscentSetCache.save", "save", ()),
    ("oracle", "bgg_verma_hom", "bgg_verma_hom", ()),
    ("cli", "parse_query", "parse_query", ()),
    ("cli", "run", "run", ()),
)

SPAN_MODULES = frozenset({"cli", "criteria", "aset", "integral", "cache",
                          "oracle"})
HIT_RATIO = frozenset({"weyl.inverse", "weyl.canonical_reduced_word",
                       "integral.integral_data"})


@dataclass
class _Stat:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class _Counts:
    verdicts: int = 0
    nonzero: int = 0
    certificates_built: int = 0
    certificate_reads: int = 0
    translated_elems: int = 0
    letters_in: int = 0
    elements_out: int = 0
    aset_keys: set = field(default_factory=set)
    load_bytes: int = 0
    save_bytes: int = 0
    file_states: dict = field(default_factory=dict)  # path -> _file_state
    caches: list = field(default_factory=list)
    stdout_bytes: int = 0


def _module(name: str):
    full = "vermahom" + ("." + name if name else "")
    mod = sys.modules.get(full)
    if mod is None:
        raise TraceInstallError(f"module {full} is not imported")
    return mod


def _file_size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _file_state(path: str):
    """Identity of a file's current contents; ``os.replace`` changes it."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_mtime_ns, st.st_size


class Tracer:
    """Holds the wrappers' state; ``install``/``uninstall`` patch the package."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.counts = _Counts()
        self.spans: list[tuple] = []
        self.op_id = -1
        self._child = [0.0]   # time spent in wrapped callees, per frame
        self._span_stack = [-1]
        self._patches: list[tuple] = []
        self._lru: dict[str, tuple] = {}

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        for module, attr, name, binders in TARGETS:
            metric = f"{module}.{name}"
            mod = _module(module)
            owner, _, method = attr.rpartition(".")
            if owner:
                cls = getattr(mod, owner, None)
                raw = None if cls is None else cls.__dict__.get(method)
                if raw is None:
                    raise TraceInstallError(f"vermahom.{module}.{attr} is missing")
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrap(metric, module, fn)
                self._patch(cls, method, raw,
                            staticmethod(wrapped) if is_static else wrapped)
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                raise TraceInstallError(f"vermahom.{module}.{attr} is missing")
            for binder in binders:
                if getattr(_module(binder), attr, None) is not fn:
                    raise TraceInstallError(
                        f"vermahom.{module}.{attr} is no longer bound in "
                        f"vermahom{'.' + binder if binder else ''}")
            if metric in HIT_RATIO:
                if not hasattr(fn, "cache_info"):
                    raise TraceInstallError(
                        f"vermahom.{module}.{attr} has no lru cache to report")
                self._lru[metric] = (fn, fn.cache_info())
            wrapped = self._wrap(metric, module, fn)
            for modname, other in list(sys.modules.items()):
                if (modname == "vermahom" or modname.startswith("vermahom.")) \
                        and getattr(other, attr, None) is fn:
                    self._patch(other, attr, fn, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr, original, replacement) -> None:
        setattr(target, attr, replacement)
        self._patches.append((target, attr, original))

    def _wrap(self, metric: str, module: str, fn):
        stat = self.stats.setdefault(metric, _Stat())
        observe = _OBSERVERS.get(metric)
        counts = self.counts
        child = self._child
        clock = time.perf_counter
        if module not in SPAN_MODULES:
            def leaf(*args, **kwargs):
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat.self_s += dt - child.pop()
                    stat.calls += 1
                    child[-1] += dt
            return leaf

        spans = self.spans
        span_stack = self._span_stack

        def spanned(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = span_stack[-1]
            span_stack.append(span_id)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stat.self_s += dt - child.pop()
                stat.calls += 1
                child[-1] += dt
                span_stack.pop()
                spans[span_id] = (span_id, metric, t0, t1, parent, self.op_id)
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result
        return spanned

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for metric, stat in self.stats.items():
            if metric == "criteria.certificates_dict":
                continue
            out[metric + ".calls"] = stat.calls
            out[metric + ".self_s"] = stat.self_s
        for metric, (fn, before) in self._lru.items():
            after = fn.cache_info()
            hits = after.hits - before.hits
            misses = after.misses - before.misses
            out[metric + ".hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        c = self.counts
        calls = self.stats["aset.ascent_set_word"].calls
        out["aset.ascent_set_word.distinct_ratio"] = (
            len(c.aset_keys) / calls if calls else 0.0)
        out["aset.letters_in"] = c.letters_in
        out["aset.elements_out"] = c.elements_out
        out["criteria.nonzero_frac"] = c.nonzero / c.verdicts if c.verdicts else 0.0
        out["criteria.cert_read_ratio"] = (
            c.certificate_reads / c.certificates_built
            if c.certificates_built else 0.0)
        out["criteria.translated_elems"] = c.translated_elems
        out["cache.load.bytes"] = c.load_bytes
        out["cache.save.bytes"] = c.save_bytes
        out["cache.file_kb"] = sum(
            _file_size(path) for path in {cache.path for cache in c.caches}
        ) / 1024
        out["cache.hits"] = sum(cache.hits for cache in c.caches)
        out["cache.misses"] = sum(cache.misses for cache in c.caches)
        out["cli.stdout_bytes"] = c.stdout_bytes
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_aset_word(counts, args, kwargs, result) -> None:
    letters = tuple(_arg(args, kwargs, 1, "letters"))
    counts.letters_in += len(letters)
    counts.elements_out += len(result.elements)
    counts.aset_keys.add((letters, _arg(args, kwargs, 2, "mu")))


def _observe_verdict(counts, args, kwargs, verdict) -> None:
    counts.verdicts += 1
    counts.nonzero += verdict.hom_nonzero
    counts.certificates_built += verdict.left_certificate is not None
    counts.translated_elems += len(verdict.left_set) + len(verdict.right_set)


def _observe_cert_read(counts, args, kwargs, result) -> None:
    counts.certificate_reads += 1


def _observe_load(counts, args, kwargs, result) -> None:
    cache = args[0]
    counts.caches.append(cache)
    counts.load_bytes += _file_size(cache.path)
    counts.file_states[cache.path] = _file_state(cache.path)


def _observe_save(counts, args, kwargs, result) -> None:
    # save() returns at once when nothing changed: count only real writes
    path = args[0].path
    state = _file_state(path)
    if state != counts.file_states.get(path):
        counts.file_states[path] = state
        counts.save_bytes += _file_size(path)


_OBSERVERS = {
    "aset.ascent_set_word": _observe_aset_word,
    "criteria.hom_twisted_verma": _observe_verdict,
    "criteria.hom_principal_series": _observe_verdict,
    "criteria.certificates_dict": _observe_cert_read,
    "cache.load": _observe_load,
    "cache.save": _observe_save,
}
