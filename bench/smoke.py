"""Self-test of the benchmark at reduced size.

    python3 bench/smoke.py

For each workload it runs every request kind at reduced size, untraced and
traced, and checks that

* every request meets its oracle, or misses it as a registered defect
  (listed), and the traced outputs match the untraced;
* every end-to-end and per-layer metric BENCHMARK.json names comes out,
  with the unit BENCHMARK.json gives it;
* a deliberately perturbed result counts as a failure.

Prints one line per workload and exits 0 when everything holds, 1 otherwise.
"""

import dataclasses
import json
import sys

import run  # sets the BLAS thread variables before numpy loads

PERTURB = 1.0


def perturbed(req):
    """The same request with its result pushed PERTURB off the oracle."""
    def run_off():
        result = req.run()
        if req.output is None:
            return result + PERTURB
        with open(req.output, newline="") as fh:
            lines = fh.readlines()
        row = lines[1].rstrip("\r\n")
        cols = row.split(",")
        cols[1] = repr(float(cols[1]) + PERTURB)
        lines[1] = ",".join(cols) + lines[1][len(row):]
        with open(req.output, "w", newline="") as fh:
            fh.writelines(lines)
        return result
    return dataclasses.replace(req, run=run_off)


def declared(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def check_workload(name, spec):
    import workloads
    problems = []
    wl = workloads.WORKLOADS[name](0, run.WORK / "smoke" / name, small=True)

    outcomes, metrics, _ = run.timed_run(wl, 1, lambda: run.setup_probe(name, 0))
    traced, layer_metrics, _ = run.traced_run(wl, run.WORK / "smoke" / f"{name}.jsonl.gz")
    for o in outcomes + traced:
        if o.unexpected:
            problems.append(f"{o.label}: {o.failure}")
    defects = sorted({o.label for o in outcomes + traced if o.failed and not o.unexpected})
    for trace, got, key in ((False, metrics, "end_to_end"), (True, layer_metrics, "per_layer")):
        have = run.metric_units(trace)
        missing = set(have) - set(got)
        if missing:
            problems.append(f"{key} metrics not reported: {sorted(missing)}")
        if have != declared(spec, key):
            problems.append(f"{key} metrics differ from BENCHMARK.json: "
                            f"{sorted(set(have.items()) ^ set(declared(spec, key).items()))}")

    bad = run.run_pass([perturbed(wl.requests()[0])])[0]
    if not bad.failure.startswith("oracle error"):
        problems.append(f"perturbed {bad.label} was not caught by its oracle check: "
                        f"{bad.failure or 'passed'}")
    return problems, len(outcomes) + len(traced), bad.failure, defects


def main() -> int:
    if not (run.SRC / "bandlimit" / "__init__.py").is_file():
        print(f"error: bandlimit sources not found under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.pin_allocator()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failed = False
    for w in spec["workloads"]:
        problems, n, caught, defects = check_workload(w["name"], spec)
        failed |= bool(problems)
        state = "FAIL" if problems else "ok"
        print(f"{state:4} {w['name']}: {n} requests; perturbed result caught: {caught}")
        if defects:
            print(f"     registered defects that missed their oracle: {', '.join(defects)}")
        for p in problems:
            print(f"     !!! {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
