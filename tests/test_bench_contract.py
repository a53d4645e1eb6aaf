"""The calls the benchmark in ``bench/`` makes into the library.

The benchmark is versioned apart from the library and calls it by name and
keyword: ``orbit_reconstruct(b, t, k_terms=K)``, ``group_boas(b, r,
k_terms=K)``, ``group_boas(b, r, tol=1e-6)`` and the rest.  This test builds
every workload at reduced size from the checked-in ``bench/`` sources, so a
renamed function or keyword fails here first, and runs the group-orbit
requests of ``oracle-series`` against their oracles (at full size, also
against a cap on their orbit fetches), runs its full-size Boas requests
against their oracles and caps on their peak memory and on the points at
which they evaluate f, and checks that every work counter of
``bench/tracing.py`` hooks a function that exists, since a hook on a
renamed function reads 0 without an error.  It only reads ``bench/``.
"""

import importlib
import inspect
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads")


def test_every_workload_builds_its_requests(workloads, tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(0, tmp_path / name, small=True)
        assert wl.requests(), name


def test_group_orbit_requests_meet_their_oracles(workloads, tmp_path):
    wl = workloads.WORKLOADS["oracle-series"](0, tmp_path, small=True)
    requests = [req for req in wl.requests() if req.layer == "grouporbit"]
    assert {req.kind for req in requests} == {
        "orbit_reconstruct", "orbit_vt", "recover_initial", "group_boas"}
    missed = []
    for req in requests:
        err, _ = req.check(req.run())
        if not err <= req.tol:
            missed.append(f"{req.label}: {err:.3e} > {req.tol:.3e}")
    assert not missed, missed


def test_full_size_group_requests_fetch_under_1000_orbit_samples(workloads, tmp_path):
    # the K=4096 group requests of the full-size benchmark keep only the
    # orbit samples whose weight can move the sum
    wl = workloads.WORKLOADS["oracle-series"](0, tmp_path)
    calls = {"orbit": 0}

    def counting(fn, kind):
        def wrapped(*args):
            calls[kind] = calls.get(kind, 0) + 1
            return fn(*args)
        return wrapped

    requests = [req for req in wl.requests(counting)
                if req.layer == "grouporbit" and "K=4096" in req.label]
    assert len(requests) == 36
    for req in requests:
        calls["orbit"] = 0
        err, _ = req.check(req.run())
        assert calls["orbit"] <= 1000, (req.label, calls["orbit"])
        assert err <= req.tol, (req.label, err, req.tol)


def test_full_size_boas_requests_peak_under_4_mib(workloads, tmp_path):
    # at tol=1e-6 the standard series needs up to K = 810 570 shifts; walked
    # in blocks of shifts, no request holds a K-long table (whole tables
    # peaked at up to 56 MiB)
    wl = workloads.WORKLOADS["oracle-series"](0, tmp_path)
    requests = [req for req in wl.requests()
                if req.kind in ("boas_derivative", "boas_derivative_fast")]
    assert len(requests) == 14
    for req in requests:
        tracemalloc.start()
        try:
            result = req.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err, _ = req.check(result)
        assert err <= req.tol, (req.label, err, req.tol)
        assert peak <= 4 << 20, (req.label, peak / 2 ** 20)


def test_full_size_boas_requests_evaluate_f_at_most_128_times(workloads, tmp_path):
    # the local engine reads f at the translates with a nonzero weight, about
    # 50 at tol=1e-6; the paper's series read 2K of them, K up to 810 570
    wl = workloads.WORKLOADS["oracle-series"](0, tmp_path)
    points = {"n": 0}

    def counting(fn, kind):
        if kind not in ("f", "df"):
            return fn

        def wrapped(x):
            points["n"] += np.asarray(x).size
            return fn(x)
        return wrapped

    requests = [req for req in wl.requests(counting)
                if req.kind in ("boas_derivative", "boas_derivative_fast")]
    assert len(requests) == 14
    for req in requests:
        points["n"] = 0
        err, _ = req.check(req.run())
        assert points["n"] <= 128, (req.label, points["n"])
        assert err <= req.tol, (req.label, err, req.tol)


def test_every_hook_names_a_public_library_function():
    tracing = _bench_module("tracing")
    for qual in tracing.HOOKS:
        layer, name = qual.split(".")
        assert layer in tracing.LAYERS, qual
        mod = importlib.import_module(f"bandlimit.{layer}")
        fn = getattr(mod, name, None)
        # Tracer.install wraps exactly these: public functions defined there
        assert (inspect.isfunction(fn) and not name.startswith("_")
                and fn.__module__ == mod.__name__), qual
