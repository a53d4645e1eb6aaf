"""Command-line front end.

    bandlimit differentiate --input samples.csv --output out.csv --order 2 --tol 1e-3
    bandlimit reconstruct   --input samples.csv --output out.csv
    bandlimit dht --action orbit --t 0.5 --input seq.csv --output out.csv
    bandlimit verify --suite favard [--format json]

Each command takes only the flags it reads, spelled out in full.  Exit
codes: 0 success, 1 verification failure, 2 malformed input,
3 tolerance unachievable.  Identical configuration and inputs produce
byte-identical outputs: summation orders are fixed, and randomized suites
draw from an explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .dht import (
    SeqWindow,
    dht_power,
    hilbert_apply,
    hilbert_group,
)
from .errors import ReconstructionUnsoundError, ToleranceError
from .grouporbit import (
    BernsteinVector,
    OrbitSamples,
    exponential_type,
    group_boas,
    orbit_reconstruct,
    recover_initial,
    rotation_instance,
)
from .inequalities import favard_constant, lks_check, plancherel_polya_checks
from .sampling import _is_critical, make_reference, wks_eval_grid
from .seqio import (
    InputFormatError,
    read_samples,
    read_sequence,
    write_sequence,
    write_table,
)

_PI = math.pi

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_TOLERANCE = 3


@dataclass
class RunConfig:
    """A parsed command line; the defaults of every flag live here (a
    command leaves the fields it takes no flag for at their defaults, which
    its footer still echoes)."""

    command: str
    input: Optional[str] = None
    output: Optional[str] = None
    action: Optional[str] = None
    suite: Optional[str] = None
    sigma: float = 1.0
    h: float = 1.0
    order: Optional[int] = None
    t: float = 0.0
    tol: float = 1e-3
    seed: int = 0
    fmt: str = "text"
    xmin: Optional[float] = None
    xmax: Optional[float] = None
    num: int = 101
    expand: Optional[int] = None

    def __post_init__(self):
        if self.order is None:
            # left out: H itself for dht power, else 0; an explicit dht
            # power order 0 is refused by dht_power
            self.order = 1 if self.action == "power" else 0
        if not self.tol > 0.0:
            raise ValueError("--tol must be positive")
        # the verify suites run in this range (pp skips h sigma outside [1e-2, pi]);
        # at 1e300 or 1e-300 lks, group, bernstein and pp overflow or underflow
        for name in ("sigma", "h"):
            if not 1e-15 <= getattr(self, name) <= 1e15:
                raise ValueError(f"--{name} must be positive and finite, in [1e-15, 1e15]")
        if self.num < 2:
            raise ValueError("--num must be at least 2")


def _echo(cfg: RunConfig, extra: Optional[Dict] = None) -> Dict:
    base = {"version": __version__, "command": cfg.command}
    for key in ("action", "input", "order", "t", "tol", "seed"):
        value = getattr(cfg, key, None)
        if value is not None:
            base[key] = value
    if extra:
        base.update(extra)
    return base


# ---------------------------------------------------------------------------
# differentiate / reconstruct
# ---------------------------------------------------------------------------

def _grid(cfg: RunConfig, s) -> np.ndarray:
    span_lo = s.k_min * s.h
    span_hi = s.k_max * s.h
    width = span_hi - span_lo
    xmin = cfg.xmin if cfg.xmin is not None else span_lo + 0.3 * width
    xmax = cfg.xmax if cfg.xmax is not None else span_hi - 0.3 * width
    if not (span_lo < xmin < xmax < span_hi):
        raise InputFormatError("requested grid leaves the sampled interval")
    return np.linspace(xmin, xmax, cfg.num)


def cmd_differentiate(cfg: RunConfig) -> int:
    """Cardinal series of f^(r) at every grid point, with its tail."""
    s = read_samples(cfg.input)
    grid = _grid(cfg, s)
    values, tails = wks_eval_grid(s, cfg.order, grid, cfg.tol, with_tail=True)
    footer = _echo(cfg, {"sigma": s.sigma, "h": s.h, "max_tail": float(tails.max()),
                         "tail_kind": "certified"})
    write_table(cfg.output, ["x", "value", "tail"], (grid, values, tails), footer)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dht
# ---------------------------------------------------------------------------

def cmd_dht(cfg: RunConfig) -> int:
    a = read_sequence(cfg.input)
    extra: Dict = {"n0": a.n0, "len": len(a)}
    if cfg.action == "apply":
        out, norm = hilbert_apply(a, cfg.expand), a.norm()
        extra["schur_ratio"] = out.norm() / (_PI * norm) if norm else 0.0
    elif cfg.action in ("orbit", "vt"):  # vt: the same trajectory, a bare footer
        out = hilbert_group(cfg.t, a, cfg.expand)
        if cfg.action == "orbit":
            lo, hi = out.norm_bracket()
            extra["isometry_residual"] = max(abs(lo - a.norm()) - out.tail_l2, 0.0)
            extra["norm_bracket_lo"] = lo
            extra["norm_bracket_hi"] = hi
    elif cfg.action == "power":
        out = dht_power(a, cfg.order, cfg.expand)
    else:
        raise InputFormatError(f"unknown dht action {cfg.action!r}")
    write_sequence(cfg.output, out, _echo(cfg, extra))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool


@dataclass
class SuiteReport:
    suite: str
    checks: List[Check] = field(default_factory=list)
    skipped: bool = False
    note: str = ""

    def add(self, name: str, lhs: float, rhs: float, tol: float = 0.0) -> None:
        slack = rhs - lhs
        self.checks.append(Check(name, float(lhs), float(rhs),
                                 float(slack), bool(lhs <= rhs + tol)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _suite_favard(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("favard")
    targets = {0: 1.0, 1: _PI / 2.0, 2: _PI ** 2 / 8.0}
    for j, want in targets.items():
        rep.add(f"K{j}", abs(favard_constant(j) - want), 1e-10)
    c12 = favard_constant(1) ** 2 / favard_constant(2)
    rep.add("C_1_2", abs(c12 - 2.0), 1e-10)
    evens = [favard_constant(2 * j) for j in range(0, 7)]
    odds = [favard_constant(2 * j + 1) for j in range(0, 7)]
    rep.add("even_increasing", max(a - b for a, b in zip(evens, evens[1:])), 0.0)
    rep.add("even_bracket", max(max(evens) - 4.0 / _PI, 1.0 - min(evens)), 0.0)
    rep.add("odd_decreasing", max(b - a for a, b in zip(odds, odds[1:])), 0.0)
    rep.add("odd_bracket", max(max(odds) - _PI / 2.0, _PI / 4.0 - min(odds)), 0.0)
    return rep


def _suite_pp(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("pp")
    try:
        _is_critical(cfg.h, cfg.sigma)
    except ReconstructionUnsoundError:
        rep.note = (f"h={cfg.h} exceeds pi/sigma={_PI / cfg.sigma}: outside the "
                    "sampled-norm contract")
    # below h sigma = 1e-2 the Fejer p=1 tail allowance 8/(sigma^2 h W), W = 20 000,
    # nears its slack 2 pi h; they meet at h sigma = sqrt(4/(pi W)), about 8e-3
    if cfg.h * cfg.sigma < 1e-2:
        rep.note = f"h*sigma={cfg.h * cfg.sigma} is below 1e-2: too fine for the 20000-step window"
    if rep.note:
        rep.skipped = True
        rep.note += ", suite skipped"
        return rep
    # one evaluation of each reference per shift serves all its p
    combos = [("fejer", (1.0, 2.0, math.inf)), ("sinc", (2.0, math.inf)),
              ("sin", (math.inf,)), ("cos", (math.inf,)), ("const", (math.inf,))]
    for kind, ps in combos:
        f = make_reference(kind, cfg.sigma)
        reports = plancherel_polya_checks(f, cfg.h, ps, window=20_000,
                                          shifts=[j * cfg.h / 16 for j in range(16)])
        for p, r in zip(ps, reports):
            rep.add(f"{kind}_p{p}_lower", r.lower, r.middle_hi, tol=1e-9)
            rep.add(f"{kind}_p{p}_upper", r.middle_hi, r.upper, tol=1e-9)
    return rep


def _suite_lks(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("lks")
    sigma = cfg.sigma
    for (k, n) in ((1, 2), (1, 3), (2, 3)):
        norms = (1.0, sigma ** k, sigma ** n)  # rotation-block norms are exact powers
        r = lks_check(norms, k, n)
        rep.add(f"k{k}_n{n}", r.lhs, r.rhs, tol=1e-12 * max(1.0, r.rhs))
    return rep


def _suite_bernstein(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("bernstein")
    sigma = cfg.sigma
    grid = np.linspace(-6.0 / sigma, 6.0 / sigma, 301)
    from .boas import bernstein_ratio
    # derivatives to 1e-4 sigma^m: a tenth of the bound's slack at any sigma
    for kind in ("sin", "cos"):
        f = make_reference(kind, sigma)
        for m in (1, 2):
            ratio = bernstein_ratio(f, m, math.inf, grid, tol=1e-4 * sigma ** m)
            rep.add(f"{kind}_m{m}_pinf", ratio, sigma ** m * (1.0 + 1e-3))
    f = make_reference("fejer", sigma)
    wide = np.linspace(-40.0 / sigma, 40.0 / sigma, 1201)
    ratio = bernstein_ratio(f, 1, 2.0, wide, tol=1e-4 * sigma)
    rep.add("fejer_m1_p2", ratio, sigma * (1.0 + 1e-3))
    return rep


def _suite_group(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("group")
    inst = rotation_instance([cfg.sigma])
    v = np.array([0.8, -0.6])
    b = BernsteinVector(inst, v, cfg.sigma)
    rep.add("bernstein_bounds", 0.0 if b.validate(depth=8) else 1.0, 0.0, tol=0.5)
    w = v.copy()
    for r in (1, 2, 3):
        w = inst.generator(w)  # D^r v, of norm sigma^r: tol and bound scale with it
        got = group_boas(b, r, tol=1e-7 * cfg.sigma ** r)
        rep.add(f"boas_power_r{r}", float(np.max(np.abs(got - w))), 1e-6 * cfg.sigma ** r)
    est = exponential_type(inst, v, k_max=60)
    rep.add("exponential_type", abs(est.estimate - cfg.sigma), 1e-9 * cfg.sigma)
    t = 0.7 / cfg.sigma  # the same phase sigma t at every sigma
    exact = inst.orbit(t, v)
    rep.add("orbit_reconstruct",
            float(np.max(np.abs(orbit_reconstruct(b, t, tol=1e-7) - exact))), 1e-6)
    samples = OrbitSamples.from_bernstein(b, t)
    rep.add("recover_initial",
            float(np.max(np.abs(recover_initial(samples, tol=1e-7) - v))), 1e-6)
    return rep


def _suite_dht_law(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("dht-law")
    rng = np.random.default_rng(cfg.seed)
    vals = rng.standard_normal(33)
    vals -= vals.mean()
    a = SeqWindow(n0=-16, values=vals / np.linalg.norm(vals))
    # isometry across a t grid
    worst = 0.0
    for t in np.linspace(-2.4, 2.4, 9):
        out = hilbert_group(float(t), a, expand=3000)
        lo, hi = out.norm_bracket()
        worst = max(worst, abs(hi - a.norm()), max(a.norm() - hi, 0.0))
    rep.add("isometry_bracket", worst, 5e-4)
    # group law, integer-mixed pairs are exact; generic pair via wide first hop
    for s_t in ((1.0, 0.5), (2.0, 0.3), (-1.0, 0.7)):
        s_, t_ = s_t
        inner = hilbert_group(t_, a, expand=2000)
        two = hilbert_group(s_, inner, expand=0)
        one = hilbert_group(s_ + t_, a, expand=2000)
        lo = max(two.n0, one.n0) + 4
        ln = min(two.n_last, one.n_last) - 4 - lo + 1
        diff = np.max(np.abs(two.on_range(lo, ln) - one.on_range(lo, ln)))
        rep.add(f"group_law_{s_}_{t_}", float(diff), 1e-9)
    # Schur strictness
    strict = True
    for _ in range(20):
        w = rng.standard_normal(17)
        aw = SeqWindow(n0=-8, values=w)
        hw = hilbert_apply(aw, expand=600)
        strict &= math.hypot(hw.norm(), hw.tail_l2) < _PI * aw.norm()
    rep.add("schur_strict", 0.0 if strict else 1.0, 0.0, tol=0.5)
    # whole-space growth bound
    w = a
    ok = True
    for k in range(1, 5):
        w = hilbert_apply(w, expand=400)
        ok &= w.norm() <= _PI ** k * a.norm() * (1.0 + 1e-9)
    rep.add("power_growth", 0.0 if ok else 1.0, 0.0, tol=0.5)
    return rep


_SUITES = {
    "favard": _suite_favard,
    "pp": _suite_pp,
    "lks": _suite_lks,
    "bernstein": _suite_bernstein,
    "group": _suite_group,
    "dht-law": _suite_dht_law,
}


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.suite not in _SUITES:
        raise InputFormatError(
            f"unknown suite {cfg.suite!r}; choose from {', '.join(sorted(_SUITES))}")
    rep = _SUITES[cfg.suite](cfg)
    payload = {
        "suite": rep.suite,
        "version": __version__,
        "skipped": rep.skipped,
        "note": rep.note,
        "checks": [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs,
                    "slack": c.slack, "pass": c.passed} for c in rep.checks],
    }
    if cfg.fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        if rep.skipped:
            print(f"suite {rep.suite}: SKIPPED ({rep.note})")
        for c in rep.checks:
            state = "PASS" if c.passed else "FAIL"
            print(f"[{state}] {rep.suite}.{c.name}: lhs={c.lhs:.6e} "
                  f"rhs={c.rhs:.6e} slack={c.slack:.3e}")
    if rep.skipped:
        return EXIT_OK
    return EXIT_OK if rep.passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was.  No
    # abbreviations: a prefix such as --h would otherwise stand for --help.
    parser = argparse.ArgumentParser(
        prog="bandlimit",
        description="sampling, differentiation, and orbit tools for "
                    "bandlimited signals", allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag left out parses to None and takes its RunConfig default
    flags = dict.fromkeys(("input", "output", "suite"), {"required": True})
    flags.update(dict.fromkeys(("t", "tol", "xmin", "xmax", "sigma", "h"), {"type": float}))
    flags.update(dict.fromkeys(("order", "num", "expand", "seed"), {"type": int}))
    flags["action"] = {"choices": ("apply", "orbit", "power", "vt"), "default": "apply"}
    flags["format"] = {"dest": "fmt", "choices": ("text", "json")}
    grid = ("tol", "xmin", "xmax", "num")
    commands = {
        "differentiate": ("derivative of a sampled signal",
                          ("input", "output", "order") + grid),
        "reconstruct": ("cardinal-series reconstruction", ("input", "output") + grid),
        "dht": ("discrete Hilbert transform operations",
                ("input", "output", "action", "t", "order", "tol", "expand")),
        "verify": ("run a named verification suite",
                   ("suite", "sigma", "h", "seed", "format")),
    }
    for name, (help_, names) in commands.items():
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        for flag in names:
            p.add_argument(f"--{flag}", **flags[flag])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    kwargs = {k: v for k, v in vars(ns).items() if v is not None}
    try:
        cfg = RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if cfg.command in ("differentiate", "reconstruct"):
            return cmd_differentiate(cfg)
        if cfg.command == "dht":
            return cmd_dht(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        print(f"error: unknown command {cfg.command!r}", file=sys.stderr)
        return EXIT_INPUT
    except (InputFormatError, OSError) as exc:
        # OSError: a path that is missing, a directory or unreadable; its
        # message names the path
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ToleranceError, ReconstructionUnsoundError) as exc:
        print(f"tolerance error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
