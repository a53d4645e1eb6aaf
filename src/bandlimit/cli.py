"""Command-line front end.

    bandlimit differentiate --input samples.csv --output out.csv --order 2 --tol 1e-3
    bandlimit reconstruct   --input samples.csv --output out.csv
    bandlimit dht --action orbit --t 0.5 --input seq.csv --output out.csv
    bandlimit verify --suite favard [--format json]

Each command takes only the flags it reads, spelled out in full.  Exit
codes: 0 success, 1 verification failure, 2 bad input or unwritable output,
3 tolerance unachievable.  Identical configuration and inputs produce
byte-identical outputs: summation orders are fixed, and randomized suites
draw from an explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .dht import SeqWindow, dht_power, hilbert_apply, hilbert_group
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
from .seqio import (InputFormatError, read_samples, read_sequence, write_sequence,
                    write_table)

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
        if self.seed < 0:
            raise ValueError("--seed must be >= 0")


def _echo(cfg: RunConfig, extra: Optional[Dict] = None) -> Dict:
    base = {"version": __version__, "command": cfg.command}
    for key in ("action", "input", "order", "t", "tol", "seed"):
        value = getattr(cfg, key, None)
        if value is not None:
            base[key] = value
    base.update(extra or {})
    return base


def _write(writer, path, *args) -> int:
    """``writer(path, *args)``; an output it cannot write or refuses is an output error."""
    try:
        writer(path, *args)
    except (OSError, ValueError) as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


# ---------------------------------------------------------------------------
# differentiate / reconstruct
# ---------------------------------------------------------------------------

def _grid(cfg: RunConfig, s) -> np.ndarray:
    span_lo, span_hi = s.k_min * s.h, s.k_max * s.h
    width = span_hi - span_lo
    xmin = cfg.xmin if cfg.xmin is not None else span_lo + 0.3 * width
    xmax = cfg.xmax if cfg.xmax is not None else span_hi - 0.3 * width
    if span_lo < xmax <= xmin < span_hi:
        raise InputFormatError(f"grid start xmin = {xmin} is not below its end xmax = {xmax}")
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
    return _write(write_table, cfg.output, ["x", "value", "tail"], (grid, values, tails),
                  footer)


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
    return _write(write_sequence, cfg.output, out, _echo(cfg, extra))


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteReport:
    """A suite's checks, each the record verify prints: {name, lhs, rhs, slack, pass}.
    A check passes when lhs <= rhs: rhs holds every allowance, ``note`` names those
    no certificate gives yet, and slack is the margin the check passed or failed by."""

    suite: str
    checks: List[Dict] = field(default_factory=list)
    skipped: bool = False
    note: str = ""

    def add(self, name: str, lhs: float, rhs: float) -> None:
        lhs, rhs = float(lhs), float(rhs)
        self.checks.append({"name": name, "lhs": lhs, "rhs": rhs, "slack": rhs - lhs,
                            "pass": lhs <= rhs})


def _suite_favard(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("favard")
    # K_j is its exact value rounded once, each target 3 roundings at most: 2 ulps
    for j, want in {0: 1.0, 1: _PI / 2.0, 2: _PI ** 2 / 8.0}.items():
        rep.add(f"K{j}", abs(favard_constant(j) - want), 2.0 * math.ulp(want))
    # five roundings of at most 2^-53 relative each, of 2: 10 2^-53 < 4 ulp(2)
    c12 = favard_constant(1) ** 2 / favard_constant(2)
    rep.add("C_1_2", abs(c12 - 2.0), 4.0 * math.ulp(2.0))
    evens = [favard_constant(2 * j) for j in range(0, 7)]
    odds = [favard_constant(2 * j + 1) for j in range(0, 7)]
    rep.add("even_increasing", max(a - b for a, b in zip(evens, evens[1:])), 0.0)
    rep.add("even_bracket", max(max(evens) - 4.0 / _PI, 1.0 - min(evens)), 0.0)
    rep.add("odd_decreasing", max(b - a for a, b in zip(odds, odds[1:])), 0.0)
    rep.add("odd_bracket", max(max(odds) - _PI / 2.0, _PI / 4.0 - min(odds)), 0.0)
    return rep


def _fejer_value_error(sigma: float, h: float, window: int) -> float:
    """Bound on h sum_k |v_k - f(x - kh)| over |k| <= window for the Fejer
    reference's lattice values v_k, 0 <= x < h <= pi/sigma: each is within
    32 u (1 + |sigma x| + |sigma kh|) env(x - kh), summed by integral
    comparison (README "What `verify` checks").  Needs (window + 1) h sigma >= 2."""
    return 32 * 2.0 ** -53 * ((66.4 + 8 * math.log((window + 1) * h * sigma / 2)) / sigma
                              + 27.9 * h)


def _suite_pp(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("pp")
    window = 20_000
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
        return SuiteReport("pp", skipped=True, note=rep.note + ", suite skipped")
    rep.note = ("*_pinf_lower allows 1e-9: the certified gap of the sampled sup, "
                "sigma^2 (h/16)^2 sup|f|/8, is 4.9e-4 at sigma h = 1 (ROADMAP item 23)")
    # the p = 1, 2 middle: 2W + 1 powers summed, then scaled, tailed and rooted, so
    # Higham's gamma_n = nu/(1 - nu), nu = n 2^-53, n = 2W + 1 + 4, bounds its rounding
    nu = (2 * window + 5) * 2.0 ** -53
    # p = 1 (Fejer) also adds the values' own error; the root of p = 2 leaves W
    # ulps of the count for it (README "What `verify` checks")
    own = _fejer_value_error(cfg.sigma, cfg.h, window)
    # one evaluation of each reference per shift serves all its p
    combos = [("fejer", (1.0, 2.0, math.inf)), ("sinc", (2.0, math.inf)),
              ("sin", (math.inf,)), ("cos", (math.inf,)), ("const", (math.inf,))]
    for kind, ps in combos:
        f = make_reference(kind, cfg.sigma)
        reports = plancherel_polya_checks(f, cfg.h, ps, window=window,
                                          shifts=[j * cfg.h / 16 for j in range(16)])
        for p, r in zip(ps, reports):
            if p == math.inf:
                bound = r.middle_hi + 1e-9
            else:
                bound = (r.middle_hi + (own if p == 1.0 else 0.0)) * (1.0 + nu / (1.0 - nu))
            rep.add(f"{kind}_p{p}_lower", r.lower, bound)
            rep.add(f"{kind}_p{p}_upper", r.middle_hi, r.upper)
    return rep


def _suite_lks(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("lks")
    sigma = cfg.sigma
    for (k, n) in ((1, 2), (1, 3), (2, 3)):
        norms = (1.0, sigma ** k, sigma ** n)  # rotation-block norms are exact powers
        r = lks_check(norms, k, n)  # C_{k,n} >= 9/8 leaves 12 % over the roundings
        rep.add(f"k{k}_n{n}", r.lhs, r.rhs)
    return rep


def _suite_bernstein(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("bernstein", note="each ratio allows 1e-3 sigma^m: bernstein_ratio "
                      "is an estimate until ROADMAP item 10 certifies it")
    sigma = cfg.sigma
    grid = np.linspace(-6.0 / sigma, 6.0 / sigma, 301)
    from .boas import bernstein_ratio
    # derivatives to 1e-4 sigma^m: a tenth of the allowance at any sigma
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
    rep = SuiteReport("group", note="exponential_type allows 1e-9 sigma: its estimate "
                      "carries no certificate (ROADMAP item 4)")
    inst = rotation_instance([cfg.sigma])
    v = np.array([0.8, -0.6])
    b = BernsteinVector(inst, v, cfg.sigma)
    w = v.copy()

    def err(got, want):
        return float(np.max(np.abs(got - want)))
    # each engine call certifies its error to the tol it asks for: the check's rhs
    for r in (1, 2, 3):
        w = inst.generator(w)  # D^r v, of norm sigma^r: the tol scales with it
        tol = 1e-7 * cfg.sigma ** r
        rep.add(f"boas_power_r{r}", err(group_boas(b, r, tol=tol), w), tol)
    est = exponential_type(inst, v, k_max=60).estimate
    rep.add("exponential_type", abs(est - cfg.sigma), 1e-9 * cfg.sigma)
    t = 0.7 / cfg.sigma  # the same phase sigma t at every sigma
    rep.add("orbit_reconstruct", err(orbit_reconstruct(b, t, tol=1e-7), inst.orbit(t, v)), 1e-7)
    samples = OrbitSamples.from_bernstein(b, t)
    rep.add("recover_initial", err(recover_initial(samples, tol=1e-7), v), 1e-7)
    return rep


def _suite_dht_law(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("dht-law", note="isometry_bracket allows 5e-4 and group_law_* 1e-9: "
                      "the outputs' far field is not certified yet (ROADMAP item 5)")
    rng = np.random.default_rng(cfg.seed)
    vals = rng.standard_normal(33)
    vals -= vals.mean()
    a = SeqWindow(n0=-16, values=vals / np.linalg.norm(vals))
    # isometry across a t grid
    worst = 0.0
    for t in np.linspace(-2.4, 2.4, 9):
        out = hilbert_group(float(t), a, expand=3000)
        worst = max(worst, abs(out.norm_bracket()[1] - a.norm()))
    rep.add("isometry_bracket", worst, 5e-4)
    # group law, integer-mixed pairs are exact; generic pair via wide first hop
    for s_, t_ in ((1.0, 0.5), (2.0, 0.3), (-1.0, 0.7)):
        inner = hilbert_group(t_, a, expand=2000)
        two = hilbert_group(s_, inner, expand=0)
        one = hilbert_group(s_ + t_, a, expand=2000)
        lo = max(two.n0, one.n0) + 4
        ln = min(two.n_last, one.n_last) - 4 - lo + 1
        diff = np.max(np.abs(two.on_range(lo, ln) - one.on_range(lo, ln)))
        rep.add(f"group_law_{s_}_{t_}", float(diff), 1e-9)
    # ||H w|| < pi ||w|| and ||H^k a|| <= pi^k ||a||, each its worst ratio against 1
    worst = 0.0
    for _ in range(20):
        aw = SeqWindow(n0=-8, values=rng.standard_normal(17))
        hw = hilbert_apply(aw, expand=600)
        worst = max(worst, math.hypot(hw.norm(), hw.tail_l2) / (_PI * aw.norm()))
    rep.add("schur_strict", worst, 1.0)
    w, worst = a, 0.0
    for k in range(1, 5):
        w = hilbert_apply(w, expand=400)
        worst = max(worst, w.norm() / (_PI ** k * a.norm()))
    rep.add("power_growth", worst, 1.0)
    return rep


_SUITES = {"favard": _suite_favard, "pp": _suite_pp, "lks": _suite_lks,
           "bernstein": _suite_bernstein, "group": _suite_group, "dht-law": _suite_dht_law}


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.suite not in _SUITES:
        raise InputFormatError(
            f"unknown suite {cfg.suite!r}; choose from {', '.join(sorted(_SUITES))}")
    rep = _SUITES[cfg.suite](cfg)
    if cfg.fmt == "json":
        print(json.dumps({"suite": rep.suite, "version": __version__, "skipped": rep.skipped,
                          "note": rep.note, "checks": rep.checks}, indent=2))
    else:
        if rep.note:
            print(f"suite {rep.suite}: " + (f"SKIPPED ({rep.note})" if rep.skipped else rep.note))
        for c in rep.checks:
            print(f"[{'PASS' if c['pass'] else 'FAIL'}] {rep.suite}.{c['name']}: "
                  f"lhs={c['lhs']:.6e} rhs={c['rhs']:.6e} slack={c['slack']:.3e}")
    return EXIT_OK if rep.skipped or all(c["pass"] for c in rep.checks) else EXIT_VERIFY_FAILED


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
        # -1e-05 and -inf are values, not flags: argparse's own pattern takes neither
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$|^-inf$")
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
        return cmd_verify(cfg)  # the parser admits no other command
    except (InputFormatError, OSError) as exc:
        # OSError: an input path that is missing, a directory or unreadable;
        # its message names the path
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
