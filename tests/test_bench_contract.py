"""The calls the benchmark in ``bench/`` makes into the library.

The benchmark is versioned apart from the library and calls it by name and
keyword: ``orbit_reconstruct(b, t, k_terms=K)``, ``group_boas(b, r,
k_terms=K)``, ``group_boas(b, r, tol=1e-6)`` and the rest.  This test builds
every workload at reduced size from the checked-in ``bench/`` sources, so a
renamed function or keyword fails here first, and runs the group-orbit
requests of ``oracle-series`` against their oracles.  It only reads
``bench/``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
        yield workloads
    finally:
        sys.path.remove(str(BENCH))


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
