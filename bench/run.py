"""Layered benchmark for bandlimit.

    python3 bench/run.py --workload oracle-series --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  One client in one process drives the
library as a closed loop: it sends a request (a CLI command through
``bandlimit.cli.main`` or one public library call), waits for it, checks the
output against a closed-form oracle, and sends the next.  BLAS is pinned to
one thread.  Workloads, with their request lists, are in workloads.py.

--trace 0 times whole passes over the request list and prints the end-to-end
metrics.  --trace 1 runs one untraced and one traced pass, checks that their
outputs are bit-identical, and prints per-layer metrics; the spans go to
.bench_work/<workload>/trace-seed<n>.jsonl.gz.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Fixture files
and a result record with the environment go under .bench_work/.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Nominal seconds of one untraced pass on a 2-vCPU x86-64 VM.  A run makes
#: max(1, round(seconds / nominal)) passes, so the number of requests, and
#: with it the rank the tail percentile is read at, depends on --seconds alone.
PASS_SECONDS = {"cli-sampled": 5.5, "oracle-series": 8.5, "dht-window": 1.0}
SETUP_PROBES = 9
#: Seconds the calibration kernel takes on a quiet 2-vCPU x86-64 VM; times
#: are reported at this host speed (see calibrate).
CAL_REF_S = 0.004
TAIL_BEYOND = 10
BUSY_CPUS = 0.3
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, glibc malloc.h

END_TO_END = (("wall_s", "s"), ("req_p50_ms", "ms"), ("req_tail_ms", "ms"),
              ("ok_frac", "frac"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def pin_allocator() -> None:
    """Keep freed memory in glibc's heap instead of handing it back.

    By default glibc returns large freed blocks to the kernel, and whether the
    next large temporary faults in fresh pages depends on what happens to sit
    at the top of the heap, such as the tracer's span arrays.  On a 2-vCPU
    x86-64 VM, page faults made the Fejer reconstruct request take 0.56 s or
    1.6 s from one pass to the next, and 2 s with a wide spread when every
    large block was mapped anew.  A fixed policy (map only blocks above
    32 MiB, never trim) makes passes measure the library's computation, the
    same traced or not.  Other C libraries are left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 1 << 30)


def calibrate() -> float:
    """Seconds for a fixed mix of the three kinds of work the library does:
    small numpy calls in a Python loop, plain Python arithmetic, and long
    BLAS dot products.

    It calls nothing in bandlimit, so only the host's speed moves it.  On a
    shared 2-vCPU VM that speed drifted by up to 40% within minutes, and
    scaling each request's time by CAL_REF_S / calibrate() cut the spread of
    ten-run pass times from 11-25% to 2-6%.
    """
    import numpy as np
    x = np.arange(2000.0)
    y = np.linspace(0.0, 1.0, 1 << 18)
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(1, 60):
        acc += float(np.sum(np.sin(x * (1.0 / k))))
    for i in range(10000):
        acc += i * i % 7
    for _ in range(24):
        acc += float(np.dot(y, y))
    return time.perf_counter() - t0


@dataclass
class Outcome:
    label: str
    layer: str
    seconds: float
    err: float
    tol: float
    ratio: bool
    digest: bytes
    failure: str
    host_s: float = math.nan  # calibration time around the request
    started: float = math.nan  # perf_counter when the request was sent
    known_defect: str = ""

    @property
    def scaled(self) -> float:
        """Seconds at the reference host speed."""
        return self.seconds * CAL_REF_S / self.host_s

    @property
    def failed(self) -> bool:
        return bool(self.failure)

    @property
    def unexpected(self) -> bool:
        """Failed other than by a registered defect missing its oracle."""
        return self.failed and not (self.known_defect and self.failure.startswith("oracle error"))


def run_pass(requests, tracer=None):
    """Send each request, wait for it, then check it against its oracle.

    The host's speed is calibrated before the first request and after each
    one; a request's host_s is the mean of the two around it.
    """
    clock = time.perf_counter
    outcomes = []
    host_before = calibrate()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request_id = i
        t0 = clock()
        try:
            result, failure = req.run(), ""
        except Exception as exc:  # a request that raises counts as failed
            result, failure = None, f"raised {exc!r}"
        seconds = clock() - t0
        if tracer is not None:
            tracer.request_id = -1
        err, digest = math.nan, b""
        if not failure:
            try:
                err, digest = req.check(result)
            except Exception as exc:
                failure = f"check: {exc}"
        if not failure and not err <= req.tol:
            failure = f"oracle error {err:.3e} exceeds {req.tol:.3e}"
        host_after = calibrate()
        outcomes.append(Outcome(req.label, req.layer, seconds, err, req.tol, req.ratio,
                                digest, failure, (host_before + host_after) / 2, t0,
                                req.known_defect))
        host_before = host_after
    return outcomes


def first_of_each_kind(requests):
    seen = {}
    for req in requests:
        seen.setdefault(req.kind, req)
    return list(seen.values())


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, count); with too few samples, the median.
    """
    v = sorted(values)
    n = len(v)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else (n + 1) // 2
    return v[rank - 1], 100.0 * rank / n, n


def busy_cpus() -> float:
    """CPUs' worth of work the rest of the machine did while this process
    slept for a quarter of a second; nan where /proc/stat is missing."""
    def snapshot():
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
        return sum(ticks), ticks[3] + ticks[4]  # all, idle + iowait
    try:
        total0, idle0 = snapshot()
        time.sleep(0.25)
        total1, idle1 = snapshot()
    except (OSError, ValueError, IndexError):
        return math.nan
    total = total1 - total0
    return (total - (idle1 - idle0)) / total * os.cpu_count() if total else math.nan


def environment():
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
        "busy_cpus_start": busy_cpus(),
        "machine": platform.machine(),
    }


def probe_setup(workload: str, seed: int) -> int:
    """Child process: import the package, then warm up each request kind."""
    t0 = time.perf_counter()
    import bandlimit  # noqa: F401
    import bandlimit.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads
    reqs = workloads.WORKLOADS[workload](seed, WORK / workload / "small", small=True).requests()
    warm_s = 0.0
    for req in first_of_each_kind(reqs):
        t0 = time.perf_counter()
        req.run()
        warm_s += time.perf_counter() - t0
    print(json.dumps({"import_s": import_s, "warm_s": warm_s}))
    return 0


def setup_probe(workload: str, seed: int) -> float:
    """Import time plus one warm-up per kind, in a fresh process."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--probe-setup",
                           "--workload", workload, "--seed", str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    return got["import_s"] + got["warm_s"]


def report_failures(outcomes):
    """Mark every failed check loudly; a registered defect says so."""
    for i, o in enumerate(outcomes):
        if o.failed:
            msg = f"!!! CHECK FAILED: request {i} [{o.label}]: {o.failure}"
            if not o.unexpected:
                msg += f" (known defect: {o.known_defect})"
            print(msg)
            print(msg, file=sys.stderr)
    for label in sorted({o.label for o in outcomes if o.known_defect and not o.failed}):
        print(f"note: [{label}] met its oracle; its registered defect no longer shows")


def timed_run(wl, passes: int, probe):
    """Passes over the request list, with the set-up probes spread between
    them so that they sample the whole run, not one moment of it.

    Times are scaled to the reference host speed (see calibrate): each
    request's latency is its median over the passes; the pass time sums
    them and req_p50_ms is their median.  The tail reads the pooled
    passes x requests sample, since it needs ten samples beyond it and
    some request lists are shorter than that.
    """
    requests = wl.requests()
    per_pass, outcomes, setup, reference = [], [], [], None
    cpu = wall = 0.0
    for p in range(passes + 1):
        for _ in range(SETUP_PROBES * (p + 1) // (passes + 1) - SETUP_PROBES * p // (passes + 1)):
            host_before = calibrate()
            seconds = probe()
            setup.append(seconds * CAL_REF_S / ((host_before + calibrate()) / 2))
        if p == passes:
            break
        cpu0, wall0 = time.process_time(), time.perf_counter()
        got = run_pass(requests)
        cpu += time.process_time() - cpu0
        wall += time.perf_counter() - wall0
        per_pass.append(got)
        digests = [o.digest for o in got]
        if reference is None:
            reference = digests
        elif digests != reference:
            print("!!! CHECK FAILED: outputs differ between passes of the same inputs")
            outcomes.append(Outcome("determinism", "-", 0.0, math.nan, 0.0, False, b"",
                                    "outputs differ between passes"))
        outcomes.extend(got)
    scaled = [[o.scaled for o in got] for got in per_pass]
    per_request = [statistics.median(col) for col in zip(*scaled)]
    tail_ms, tail_pct, n = tail([1e3 * t for row in scaled for t in row])
    failed = sum(o.failed for o in outcomes)
    metrics = {
        "wall_s": sum(per_request),
        "req_p50_ms": 1e3 * statistics.median(per_request),
        "req_tail_ms": tail_ms,
        "ok_frac": (len(outcomes) - failed) / len(outcomes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"passes": passes, "requests": n, "req_tail_percentile": tail_pct,
            "fail_frac": failed / len(outcomes), "cpu_over_wall": cpu / wall,
            "latencies_s": [[o.seconds for o in got] for got in per_pass],
            "host_s": [[o.host_s for o in got] for got in per_pass],
            "setup_samples_s": setup}
    return outcomes, metrics, info


def traced_run(wl, spans_path: Path):
    import numpy as np
    from tracing import CALLBACK, COUNTERS, ERR_LAYERS, LAYERS, Tracer, frame_cost

    base = run_pass(wl.requests())
    tracer = Tracer()
    requests = wl.requests(tracer.callback)
    origin = time.perf_counter()
    tracer.install()
    try:
        traced = run_pass(requests, tracer)
    finally:
        tracer.uninstall()
    outcomes = base + traced
    mismatched = [o.label for o, t in zip(base, traced) if o.digest != t.digest]
    for label in mismatched:
        print(f"!!! CHECK FAILED: traced output differs from untraced for [{label}]")

    sp = tracer.span_arrays()
    mask = sp["request"] >= 0
    request, parent, layer_idx = sp["request"][mask], sp["parent"][mask], sp["layer"][mask]
    names = list(LAYERS) + [CALLBACK]
    wall = sum(o.seconds for o in traced)
    base_wall = sum(o.seconds for o in base)

    # Per request, wall time splits into layer self times, callback time,
    # tracer time, and time outside every span (the benchmark's own request
    # handling).  The split holds when each span lies inside its parent's
    # timed call and each root span inside the request's own timing, which
    # run_pass reads apart from the spans; every term is then >= 0.
    n_req = len(traced)
    buckets = names + ["trace", "outside"]
    split = np.zeros((n_req, len(buckets)))
    np.add.at(split, (request, layer_idx), sp["self"][mask])
    np.add.at(split[:, len(names)], request, sp["trace"][mask])
    req_wall = np.array([o.seconds for o in traced])
    req_start = np.array([o.started for o in traced])
    is_root = parent < 0
    enter, leave = sp["enter"][mask], sp["leave"][mask]
    root_req = request[is_root]
    split[:, -1] = req_wall - np.bincount(root_req, weights=(leave - enter)[is_root],
                                          minlength=n_req)
    nested = ~is_root
    outside_parent = int(np.sum((enter[nested] < sp["start"][parent[nested]])
                                | (leave[nested] > sp["end"][parent[nested]])))
    outside_request = int(np.sum((enter[is_root] < req_start[root_req])
                                 | (leave[is_root] > req_start[root_req] + req_wall[root_req]
                                    + 1e-9)))
    negative = int(np.sum(split < -1e-9))
    consistent = outside_parent == outside_request == negative == 0
    if not consistent:
        print(f"!!! CHECK FAILED: span accounting does not add up: {outside_parent} spans "
              f"outside their parent call, {outside_request} root spans outside their "
              f"request, {negative} negative terms")

    totals = split.sum(axis=0)
    metrics = {}
    for i, layer in enumerate(LAYERS):
        metrics[f"{layer}.calls"] = tracer.calls[layer]
        metrics[f"{layer}.self_s"] = float(totals[i])
        metrics[f"{layer}.self_share"] = float(totals[i]) / wall
        metrics[f"{layer}.failures"] = tracer.failures[layer]
    for layer in ERR_LAYERS:
        ratios = [o.err / o.tol for o in traced if o.layer == layer and o.ratio and not o.failed]
        metrics[f"{layer}.err_over_tol_p50"] = statistics.median(ratios) if ratios else 0.0
    for name in COUNTERS:
        metrics[name] = tracer.counts[name]
    metrics["callback.f_s"] = float(totals[len(LAYERS)])
    metrics["callback.f_share"] = metrics["callback.f_s"] / wall
    # the two passes run at different moments, so compare them at one host speed
    metrics["trace.overhead_frac"] = (sum(o.scaled for o in traced)
                                      / sum(o.scaled for o in base) - 1.0)

    # per request kind: untraced and traced times, and where the traced time went
    kinds = {}
    for i, (b, t) in enumerate(zip(base, traced)):
        k = kinds.setdefault(b.label, {"n": 0, "untraced_ms": [], "traced_ms": [],
                                       "split_s": np.zeros(len(buckets))})
        k["n"] += 1
        k["untraced_ms"].append(1e3 * b.seconds)
        k["traced_ms"].append(1e3 * t.seconds)
        k["split_s"] += split[i]
    per_kind = {label: {"n": k["n"],
                        "untraced_ms_p50": statistics.median(k["untraced_ms"]),
                        "traced_ms_p50": statistics.median(k["traced_ms"]),
                        "split_s": {buckets[j]: float(v) for j, v in enumerate(k["split_s"])
                                    if v > 0}}
                for label, k in kinds.items()}

    n_spans = tracer.write_jsonl(spans_path, origin)
    if mismatched or not consistent:
        outcomes.append(Outcome("trace", "-", 0.0, math.nan, 0.0, False, b"",
                                "traced run inconsistent"))
    info = {"traced_wall_s": wall, "untraced_wall_s": base_wall,
            "tracer_s": float(totals[-2]), "outside_spans_s": float(totals[-1]),
            "frame_cost_est_s": n_spans * frame_cost(),
            "spans": n_spans, "spans_file": str(spans_path), "per_kind": per_kind}
    return outcomes, metrics, info


def metric_units(trace: bool):
    if not trace:
        return dict(END_TO_END)
    from tracing import per_layer_units
    return per_layer_units()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-sampled", "oracle-series", "dht-window"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "bandlimit" / "__init__.py").is_file():
        print(f"error: bandlimit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_allocator()
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)

    env = environment()
    if env["busy_cpus_start"] > BUSY_CPUS:
        print(f"warning: other processes kept {env['busy_cpus_start']:.2f} CPUs busy at "
              "start; timings will be inflated", file=sys.stderr)
    import bandlimit
    if not Path(bandlimit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported bandlimit from {bandlimit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    wl = cls(args.seed, workdir / "full")
    oracles_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # full-size warm-up, so that allocator and cache state are those of a
    # process that has served each kind before
    for req in first_of_each_kind(wl.requests()):
        req.run()

    if args.trace:
        outcomes, metrics, info = traced_run(wl, workdir / f"trace-seed{args.seed}.jsonl.gz")
    else:
        passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
        outcomes, metrics, info = timed_run(
            wl, passes, lambda: setup_probe(args.workload, args.seed))
        if info["cpu_over_wall"] < 0.9:
            print(f"warning: the benchmark had the CPU {100 * info['cpu_over_wall']:.0f}% of "
                  "the time it ran; another process is busy", file=sys.stderr)
    # what the process held once the oracles were built, before any request
    info["peak_rss_after_oracles_mb"] = oracles_rss_mb
    failed = sum(o.failed for o in outcomes)
    unexpected = sum(o.unexpected for o in outcomes)
    report_failures(outcomes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {len(outcomes)} requests, {failed} failed, "
          f"{failed - unexpected} of them registered defects")
    print("environment " + json.dumps(env))
    if not args.trace:
        for name, unit in END_TO_END:
            print(f"  {name:<14} {metrics[name]:.6g} {unit}")
        print(f"  req_tail_ms is p{info['req_tail_percentile']:.1f} of {info['requests']} "
              f"requests; fail_frac {info['fail_frac']:.6g}; passes {info['passes']}")
    else:
        for name, value in metrics.items():
            print(f"  {name:<34} {value:.6g}")
        print(f"  tracer bookkeeping {info['tracer_s']:.3f} s, outside spans "
              f"{info['outside_spans_s']:.3f} s of {info['traced_wall_s']:.3f} s traced; about "
              f"{info['frame_cost_est_s']:.3f} s more of wrapper frames is in callers' self time")
        print("per request kind (untraced / traced ms, traced seconds by layer, tracer "
              "and outside spans):")
        for label, k in info["per_kind"].items():
            layers = ", ".join(f"{l} {s:.4f}" for l, s in
                               sorted(k["split_s"].items(), key=lambda kv: -kv[1]))
            print(f"  {label:<44} n={k['n']:<3} {k['untraced_ms_p50']:9.2f} / "
                  f"{k['traced_ms_p50']:9.2f}  [{layers}]")
        print(f"  {info['spans']} spans written to {info['spans_file']}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "metrics": metrics, "info": info,
              "failures": [{"label": o.label, "failure": o.failure, "known_defect": o.known_defect}
                           for o in outcomes if o.failed]}
    (WORK / args.workload / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n")

    units = metric_units(args.trace)
    print(json.dumps({"correct": unexpected == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
