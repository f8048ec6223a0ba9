"""Tests of the benchmark itself (not of the package).

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
They use small hand-made sessions, so they take well under a minute.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import vermahom  # noqa: E402
from vermahom import criteria, weyl  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TraceInstallError, Tracer  # noqa: E402


def _first(queries, counts):
    """The first ``counts[kind]`` queries of each CLI command kind."""
    return [q for kind, n in counts.items()
            for q in [q for q in queries if q[0] == kind][:n]]


# Small sessions that finish in about a second each.
SMALL = {
    "ps-stream": [gen.session_inputs("ps-stream", 3, 0)[0][:24]],
    "linkage-rank4": [[
        {"type": "B4", "mu1": "(1,1,1,1)", "mu2": "(-1,-1,-1,-1)"},
        {"type": "A5", "mu1": "(0,2,-1,3,1)", "mu2": "(-1,-2,-1,-1,-3)"},
    ]],
    "cli-cache": [_first(gen.session_inputs("cli-cache", 3, 0)[0],
                         {"hom-verma": 4, "hom-ps": 1, "table": 2})],
}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_seeded(workload):
    def inputs(seed):
        return [gen.session_inputs(workload, seed, k) for k in range(3)]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_runs_repeat_and_match_untraced(workload):
    os.makedirs(run.OUT, exist_ok=True)
    runner = run.Runner(workload, 0, time.monotonic())
    chunks = SMALL[workload]
    plain = runner.session(chunks)
    first = runner.session(chunks, trace=True)
    second = runner.session(chunks, trace=True)
    for result in (plain, first, second):
        assert result["failures"] == []
    assert plain["digest"] == first["digest"] == second["digest"]
    calls = {k: v for k, v in first["layers"].items() if k.endswith(".calls")}
    assert calls == {k: second["layers"][k] for k in calls}
    assert sum(calls.values()) > 0


def test_op_medians_take_each_ops_median_over_repeats_and_replays():
    def session(cold, *warm, host=1):
        def refs(latencies):
            return [run.REFERENCE_S * host] * (len(latencies) + 1)
        return {"passes": [{"chunk": 0, "warm": False, "latencies": cold,
                            "references": refs(cold)}]
                + [{"chunk": 0, "warm": True, "latencies": w,
                    "references": refs(w)} for w in warm]}

    repeats = [session([3.0, 1.0, None], [0.5, 0.2, 0.1], [0.4, 0.3, 0.2]),
               session([2.0, 4.0, None], [0.6, 0.1, None], [0.5, 0.4, 0.3]),
               session([5.0, 2.0, None], [0.7, 0.2, 0.2], [0.1, 0.2, 0.3])]
    def check(medians, expected):
        assert medians.keys() == expected.keys()
        for key, values in expected.items():
            assert medians[key] == pytest.approx(values)

    expected = {(0, False): [3.0, 2.0], (0, True): [0.5, 0.2, 0.2]}
    check(run.op_medians(repeats), expected)
    # a session on a host twice as slow counts at half its timings
    repeats[1] = session([4.0, 8.0, None], [1.2, 0.2, None], [1.0, 0.8, 0.6],
                         host=2)
    check(run.op_medians(repeats), expected)
    check(run.op_medians(repeats, scaled=False),
          {(0, False): [4.0, 2.0], (0, True): [0.6, 0.2, 0.2]})
    # an op counts at the mean host speed of its two boundaries
    p = {"latencies": [1.0, 1.0], "references": [run.REFERENCE_S,
                                                 3 * run.REFERENCE_S,
                                                 run.REFERENCE_S]}
    assert run.scaled_latencies(p) == pytest.approx([0.5, 0.5])


def _flip(verdict):
    verdict.hom_nonzero = not verdict.hom_nonzero
    verdict.ext_all_vanish = not verdict.ext_all_vanish
    return verdict


def test_linkage_check_rejects_a_wrong_verdict(monkeypatch):
    real = criteria.hom_twisted_verma
    monkeypatch.setattr(criteria, "hom_twisted_verma",
                        lambda *a, **k: _flip(real(*a, **k)))
    wl = workloads.LinkageRank4()
    pair = wl.parse({"type": "B4", "mu1": "(-1,-1,-1,-1)",
                     "mu2": "(1,1,1,1)"}, "")
    assert "linkage says True" in wl.check(pair, wl.run(pair))


def test_ps_check_rejects_a_wrong_witness(monkeypatch):
    real = criteria.hom_principal_series

    def stub(*args, **kwargs):
        verdict = real(*args, **kwargs)
        verdict.witness = max(verdict.left_set)
        return verdict

    monkeypatch.setattr(criteria, "hom_principal_series", stub)
    wl = workloads.PsStream()
    query = wl.parse({"type": "A2", "lam": "(1,1)", "w1": "e",
                      "mu1": "(1,1)", "w2": "s1 s2 s1", "mu2": "(-1,-1)",
                      "normalize": False}, "")
    out = wl.run(query)
    assert out[3].hom_nonzero and len(out[3].left_set) > 1
    assert "witness" in wl.check(query, out)


def test_cli_cache_check_rejects_changed_bytes(tmp_path):
    wl = workloads.CliCache()
    argv = wl.parse(SMALL["cli-cache"][0][0], str(tmp_path))
    output = wl.run(argv)
    assert wl.check(argv, output) is None
    assert "--no-cache" in wl.check(argv, output.replace("false", "true"))


@pytest.mark.parametrize("fmt,row,wrong", [
    ("tsv", "e\t(0,0)\te\t(0,0)\ttrue", "e\t(0,0)\te\t(0,0)\tfalse"),
    ("json", '"hom_nonzero": true', '"hom_nonzero": false'),
])
def test_cli_cache_check_rejects_a_wrong_table_row(tmp_path, fmt, row, wrong):
    wl = workloads.CliCache()
    argv = wl.parse(["table", "A2", "--mu-orbit", "(0,0)", "--w-all",
                     "--format", fmt], str(tmp_path))
    output = wl.run(argv)
    assert wl.check(argv, output) is None
    assert row in output
    bad = output.replace(row, wrong, 1)
    assert "linkage says True" in wl.check(argv, bad)


def test_tracer_counts_only_saves_that_write(tmp_path):
    from vermahom import aset, cache, rootsystem
    rs = rootsystem.build_root_system("A2")
    letters = list(rs.simple_roots)
    tracer = Tracer()
    tracer.install()
    try:
        store = cache.AscentSetCache(str(tmp_path))
        store.put(rs, letters, rs.rho, aset.ascent_set_word(rs, letters, rs.rho))
        store.save()
        written = tracer.counts.save_bytes
        store.save()  # nothing changed: returns without writing
    finally:
        tracer.uninstall()
    size = os.path.getsize(store.path)
    assert written == size > 0
    assert tracer.metrics()["cache.save.bytes"] == size
    assert tracer.metrics()["cache.file_kb"] == size / 1024


def test_tracer_fails_loudly_on_a_missing_function(monkeypatch):
    monkeypatch.delattr(weyl, "canonical_reduced_word")
    with pytest.raises(TraceInstallError, match="missing"):
        Tracer().install()
    # a failed install leaves no wrapper behind
    assert criteria.hom_twisted_verma.__module__ == "vermahom.criteria"
    assert weyl.WeylElem.act.__module__ == "vermahom.weyl"


def test_tracer_fails_loudly_on_a_moved_binding(monkeypatch):
    monkeypatch.setattr(vermahom.cli, "multiply", lambda u, v: u)
    with pytest.raises(TraceInstallError, match="no longer bound"):
        Tracer().install()


def test_run_fails_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ps-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
