"""Command-line front end: design / spectrum / bounds / simulate / verify.

Each command reads or writes JSON system descriptions and CSV tables.  A
command that writes files writes them atomically (temp + rename) and finishes
with a run manifest listing every produced file and every parsed input.
Exit codes: 0 success, 1 internal failure or a failed verify check, 2 invalid
flags or inputs, 3 inconclusive spectrum/certification, 141 (a shell's SIGPIPE
status) a closed stdout.  The cause of an exit 1, 2 or 3 goes to stderr
whatever --json or --quiet say; a closed stdout leaves stderr empty.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from pathlib import Path

from . import LocalizationError, __version__


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    tmp.replace(path)


#: Parsed values that steer the output rather than the computation.
_PLUMBING = ("command", "func", "out_dir", "json", "quiet")


def _utc_now() -> str:
    """The current UTC time in ISO 8601 to the microsecond, ending +00:00."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + f".{micros:06d}+00:00"


class _Run:
    """One command's output: stdout lines, the --json payload, and the files
    written into --out-dir, which finish() lists in manifest.json together
    with the parsed inputs (a command adds the values it resolves itself)."""

    def __init__(self, args: argparse.Namespace):
        self.command, self.as_json, self.quiet = args.command, args.json, args.quiet
        self.out_dir = Path(args.out_dir) if "out_dir" in args else None  # verify writes none
        self.inputs = {k: v for k, v in vars(args).items() if k not in _PLUMBING}
        self.outputs: list[str] = []
        self.payload: dict = {}

    def say(self, line: str) -> None:
        if not (self.quiet or self.as_json):
            print(line)

    def write(self, name: str, text: str) -> None:
        if not self.outputs:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        _write_atomic(self.out_dir / name, text)
        self.outputs.append(str(self.out_dir / name))

    def finish(self) -> None:
        if self.outputs:
            manifest = {"command": self.command, "inputs": self.inputs, "outputs": self.outputs,
                        "tool_version": __version__, "timestamp": _utc_now()}
            _write_atomic(self.out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
        if self.as_json:
            print(json.dumps(self.payload, indent=2))


def _load_system(path: str):
    from .quasipoly import RetardedSystem

    try:
        return RetardedSystem.from_json(Path(path).read_text())
    except FileNotFoundError:
        raise ValueError(f"system file not found: {path}") from None
    except (KeyError, TypeError, OverflowError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed system file {path}: {exc}") from None


def _default_s0(sys_) -> float:
    from .quasipoly import dominant_root_from_trace

    return dominant_root_from_trace(sys_.n, sys_.a[-1], sys_.tau)


def _shift(args, sys_) -> float:
    """--s0, or else the root that the trace identity assigns; finite."""
    s0 = args.s0 if args.s0 is not None else _default_s0(sys_)
    if not math.isfinite(s0):
        raise ValueError(f"shift s0 must be finite, got {s0}")
    return s0


# --- design -------------------------------------------------------------------


def cmd_design(args, run: _Run) -> int:
    from .quasipoly import mid_coefficients, trace_residual

    sys_ = mid_coefficients(args.n, args.s0, args.tau)
    run.write("system.json", sys_.to_json() + "\n")

    lines = [f"order n = {sys_.n}, delay tau = {sys_.tau}, assigned root s0 = {args.s0}"]
    lines += [f"  a[{k}]     = {sys_.a[k]: .15g}" for k in range(sys_.n)]
    lines += [f"  alpha[{k}] = {sys_.alpha[k]: .15g}" for k in range(sys_.n)]
    identity = trace_residual(sys_, args.s0)
    lines.append(f"trace identity s0 + a[n-1]/n + n/tau = {identity:.3e}")
    run.write("design.txt", "\n".join(lines) + "\n")

    for line in lines:
        run.say(line)
    run.payload = {"system": sys_.to_json_dict(), "trace_identity": identity}
    return 0


def _certificate_doc(cert, tau: float) -> dict | None:
    """The s-plane facts of the exact design's disc certificate at delay tau,
    the --json record of a dominance verdict: every root but the 2n-fold one
    at s0 has Re s <= s0 - gap.  None where there is no certificate."""
    return None if cert is None else {"gap": -cert.re_min / tau, "discs": len(cert.discs)}


# --- spectrum -----------------------------------------------------------------


def cmd_spectrum(args, run: _Run) -> int:
    from .spectral import Rectangle, Root, SpectrumReport, certify_dominance, find_roots, roots_to_csv

    sys_ = _load_system(args.system)
    s0 = _shift(args, sys_)
    region = Rectangle(
        args.re_min if args.re_min is not None else s0 - 5.0,
        args.re_max if args.re_max is not None else s0 + 1.0,
        args.im_min if args.im_min is not None else -30.0,
        args.im_max if args.im_max is not None else 30.0,
    )

    q = sys_.quasipolynomial()
    roots = find_roots(q, region)
    if not roots:
        raise LocalizationError(f"no roots in region {region}")
    cert = _certificate_doc(certify_dominance(sys_, s0), sys_.tau)

    # the located roots of the region; where the theorem certifies s0, its
    # 2n-fold root is the dominant one, whatever cluster the search found
    report = SpectrumReport.from_roots(roots, region)
    report = report.replace(
        dominant=report.dominant if cert is None else Root(complex(s0), 2 * sys_.n, abs(q(s0))),
        strictly_dominant=cert is not None,
    )

    run.write("roots.csv", roots_to_csv(report.roots))
    run.write("spectrum.json", report.to_json() + "\n")

    run.say(f"{len(report.roots)} root locations, total multiplicity "
            f"{sum(r.multiplicity for r in report.roots)}")
    run.say(f"spectral abscissa in region: {report.spectral_abscissa:.9g}")
    if cert is None:
        run.say(f"s0 = {s0} is not certified: the system normalized at s0 is not the MID design, "
                "so the paper's theorem says nothing about its dominance")
    else:
        run.say(f"exact MID design: the {2 * sys_.n}-fold root s0 is strictly dominant, "
                f"every other root has Re s <= s0 - {cert['gap']:.9g} ({cert['discs']} discs)")
    run.payload = report.to_json_dict() | {"s0": s0, "certificate": cert}
    run.inputs |= {"s0": s0, "region": region.to_json_dict()}
    return 0


# --- bounds -------------------------------------------------------------------


#: The rows of --all: (method, norm, power), in table order.
_ALL_BOUNDS = (
    [("rho", None, 1)]
    + [("norm-power", norm, p) for p in (1, 2) for norm in ("one", "frobenius", "infinity")]
    + [(m, norm, 1) for m in ("mori-kokame", "tissir-hmamed") for norm in ("one", "two", "infinity")]
    + [("lemma3", None, None)]
)


#: Who takes each tuning flag of bounds (--all, a --method, or --curves, whose
#: curves start at --sigma-min) and its value when not given (None: required).
_BOUNDS_FLAGS = {
    "power": {"norm-power": 1},
    "sigma_min": {"--all": 0.0, "rho": 0.0, "norm-power": 0.0, "--curves": 0.0},
    "norm": {"norm-power": "frobenius", "mori-kokame": None, "tissir-hmamed": None},
}


def _resolve_bounds_flags(args, run: _Run) -> None:
    """Refuse a tuning flag that nothing of the command takes; set the others,
    in args and in the manifest, to the values used."""
    method = "--all" if args.all else args.method
    users = [method] + ["--curves"] * args.curves
    for flag, takers in _BOUNDS_FLAGS.items():  # --norm last: a refusal comes first
        value = getattr(args, flag)
        user = next((user for user in users if user in takers), None)
        if user is None and value is not None:
            *rest, last = [t if t.startswith("--") else f"--method {t}" for t in takers]
            names = f"{', '.join(rest)} or {last}" if rest else last
            raise ValueError(f"--{flag.replace('_', '-')} {value} applies to {names} only, not {method}")
        if user is not None:
            if value is None and takers[user] is None:
                raise ValueError(f"--method {method} needs --norm one|two|infinity")
            run.inputs[flag] = takers[user] if value is None else value
            setattr(args, flag, run.inputs[flag])


def _bounds_rows(args, pair):
    from . import bounds

    def rows(method, norm, power):
        if method == "lemma3":
            rep = bounds.lemma3_analytic_bound(pair)  # ValueError outside the standard pair
            return [(f"lemma3-{step}", "frobenius", 2, 0.0, getattr(rep, step), 0)
                    for step in ("coarse", "refined", "certified")]
        r = (bounds.bound_spectral_radius_curve(pair, args.sigma_min) if method == "rho"
             else bounds.bound_norm_power(pair, norm, power, args.sigma_min) if method == "norm-power"
             else bounds.bound_mori_kokame(pair, norm) if method == "mori-kokame"
             else bounds.bound_tissir_hmamed(pair, norm))
        return [(r.method.value, r.norm.value, r.power, r.sigma_min, r.value, r.kernel_points)]

    if not args.all:
        return rows(args.method, args.norm, args.power)
    table = []
    for method, norm, power in _ALL_BOUNDS:
        try:
            table += rows(method, norm, power)
        except ValueError:
            if method != "lemma3":
                raise  # the analytic chain covers the standard pair only
    return table


def cmd_bounds(args, run: _Run) -> int:
    from .bounds import boundary_curve, standard_pair
    from .quasipoly import companion, normalize
    import numpy as np

    if args.standard_pair:
        if args.system:
            raise ValueError(f"--standard-pair replaces the system file; got both --standard-pair and {args.system}")
        if args.s0 is not None:
            raise ValueError("--s0 shifts a system file; the standard pair is normalized already")
        pair = standard_pair()
    elif args.system:
        sys_ = _load_system(args.system)
        s0 = _shift(args, sys_)
        nsys = normalize(sys_, s0)
        pair = companion(nsys.b, nsys.beta)
    else:
        raise ValueError("provide a system file or --standard-pair")

    if not args.all and args.method is None:
        raise ValueError("provide --method or --all")
    if args.all and args.method is not None:
        raise ValueError(f"--all and --method {args.method} exclude each other: --all emits every method's rows")
    _resolve_bounds_flags(args, run)
    rows = _bounds_rows(args, pair)

    lines = ["method,norm,power,sigma_min,value"]
    for method, norm, power, smin, value, _ in rows:
        lines.append(f"{method},{norm},{power},{smin:.17g},{value:.17g}")
    files = {"bounds.csv": lines}

    if args.curves:
        sigmas = np.arange(args.sigma_min, args.sigma_min + 3.0 + 1e-9, 0.02)
        curves = [("rho", None, 1)]
        curves += [(f"norm-power-{norm}-p2", norm, 2) for norm in ("one", "frobenius", "infinity")]
        for name, norm, power in curves:
            body = ["sigma,omega_boundary"]
            body += [f"{s:.9g},{w:.9g}" for s, w in boundary_curve(pair, sigmas, norm, power)]
            files[f"curve_{name}.csv"] = body
    for name, body in files.items():  # written after every curve: a refused one leaves no file
        run.write(name, "\n".join(body) + "\n")

    for line in lines:
        run.say(line)
    run.payload = {
        "rows": [
            {"method": m, "norm": n, "power": p, "sigma_min": s, "value": v, "kernel_points": k}
            for m, n, p, s, v, k in rows
        ]
    }
    return 0


# --- simulate -----------------------------------------------------------------


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _resolve_histories(spec: str):
    from . import sim

    if spec == "all":
        return [(name, sim.builtin_history(name)) for name in sim.BUILTIN_HISTORY_NAMES]
    if spec in sim.BUILTIN_HISTORY_NAMES:
        return [(spec, sim.builtin_history(spec))]
    if spec.startswith("const:"):
        try:
            value = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad constant history {spec!r}") from None
        return [("const", sim.constant(value))]
    if spec.startswith("file:"):
        path = Path(spec.split(":", 1)[1])
        if not path.exists():
            raise ValueError(f"history file not found: {path}")
        text = path.read_text()
        first = text[: len(text) - len(text.lstrip())].count("\n") + 1  # line of rows[0]
        rows = [r.split(",") for r in text.strip().splitlines()]
        if rows and not any(_is_float(cell) for cell in rows[0]):
            rows, first = rows[1:], first + 1  # a header: no cell is a number
        times, values = [], []
        for line, r in enumerate(rows, first):
            try:
                if len(r) < 2:
                    raise ValueError("needs two columns, time and value")
                t, v = float(r[0]), float(r[1])
                if not (math.isfinite(t) and math.isfinite(v)):
                    raise ValueError(f"time and value must be finite, got {t}, {v}")
            except ValueError as exc:
                raise ValueError(f"history file {path}, line {line}: {exc}") from None
            times.append(t)
            values.append(v)
        return [("custom", sim.sampled(times, values))]
    raise ValueError(f"unknown history kind {spec!r}")


def cmd_simulate(args, run: _Run) -> int:
    from . import sim

    if not math.isfinite(args.t_start):
        raise ValueError(f"t_start must be finite, got {args.t_start}")
    sys_ = _load_system(args.system)
    histories = _resolve_histories(args.history)

    rates = {}
    steps = {}
    for name, hist in histories:
        try:
            traj = sim.simulate(sys_, hist, args.t_end, args.step)
        except sim.SimulationError as exc:
            raise ValueError(
                f"history {name}: {exc}: the solution leaves the float range "
                f"before --t-end {args.t_end:g}"
            ) from None
        steps[name] = traj.times.size - 1
        run.write(f"sol_{name}.csv", traj.plot_csv())
        run.write(f"traj_{name}.csv", traj.to_csv())
        try:
            rate = sim.decay_rate(traj, args.t_start)
        except ValueError as exc:
            rate, shown = None, f"n/a ({exc})"
        else:
            shown = f"{rate:+.6f}"
        rates[name] = rate
        run.say(f"history {name}: decay rate over [{args.t_start:g}, {args.t_end:g}] = {shown}")

    warnings = []
    scale = sim.step_scale(sys_, traj.step)
    if scale > 1.0:
        warnings.append(
            f"step {traj.step:g} times the spectral radius of A0 is {scale:.3g} > 1: "
            "RK4 does not resolve this system at that step, so the decay rates are unreliable"
        )
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)
    run.payload = {"decay_rates": rates, "step": traj.step, "steps": steps, "warnings": warnings}
    return 0


# --- verify -------------------------------------------------------------------


def cmd_verify(args, run: _Run) -> int:
    from .quasipoly import mid_deviation, multiplicity_at, normalize, trace_residual
    from .spectral import certify_dominance

    sys_ = _load_system(args.system)
    s0 = _shift(args, sys_)
    n = sys_.n

    m = multiplicity_at(sys_.quasipolynomial(), s0)
    checks = [("multiplicity", m == 2 * n, f"multiplicity at s0 is {m}, want {2 * n}")]

    # the two facts certify_dominance judges the exact design by
    facts = (f"s0 + a[n-1]/n + n/tau = {trace_residual(sys_, s0):.3e}, "
             f"max relative deviation {mid_deviation(normalize(sys_, s0)):.3e}")
    try:
        cert = _certificate_doc(certify_dominance(sys_, s0), sys_.tau)
    except LocalizationError as exc:
        cert = None
        checks.append(("dominance", None, str(exc)))
    else:
        if cert is None:
            detail = (f"strictly dominant: False, not the MID design at s0 ({facts}), "
                      f"so s0 is no root of multiplicity {2 * n}")
        else:
            detail = (f"strictly dominant: True, spectral abscissa {s0:.9g}, every other root has "
                      f"Re s <= s0 - {cert['gap']:.9g} (exact MID design, {facts}, {cert['discs']} discs)")
        checks.append(("dominance", cert is not None, detail))

    # ok is True (pass), False (failed) or None (inconclusive)
    all_ok = all(ok for _, ok, _ in checks)
    failed = any(ok is not None and not ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        label = "INCONCLUSIVE" if ok is None else "PASS" if ok else "FAIL"
        line = f"{label} {name}: {detail}"
        run.say(line)
        if not ok:
            print(line, file=sys.stderr)
    verdict = "all checks passed" if all_ok else "FAILURES detected" if failed else "inconclusive"
    run.say(f"verdict: {verdict}")
    run.payload = {
        "s0": s0,
        "checks": [{"name": n_, "passed": None if ok is None else bool(ok), "detail": d}
                   for n_, ok, d in checks],
        "passed": all_ok,
        "certificate": cert,
    }
    return 0 if all_ok else 1 if failed else 3


# --- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Takes any negative float literal (-1e-05, -inf) as a value, not an option name."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)  # add_subparsers builds its parsers from this class
        # private argparse state: Python 3.11 matches only -1 and -1.5 here
        self._negative_number_matcher = re.compile(r"(?i)^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="midspec",
        description="Design, localize, bound, and simulate single-delay "
        "retarded equations with an assigned dominant root of maximal multiplicity.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, writes=True):
        if writes:
            p.add_argument("--out-dir", default=".", help="output directory (default: .)")
        p.add_argument("--json", action="store_true", help="machine-readable stdout")
        p.add_argument("--quiet", action="store_true", help="suppress normal output")

    p = sub.add_parser("design", help="assign a root of maximal multiplicity 2n")
    p.add_argument("--n", type=int, required=True, help="equation order (>= 1)")
    p.add_argument("--s0", type=float, required=True, help="root to assign")
    p.add_argument("--tau", type=float, required=True, help="delay (> 0)")
    common(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("spectrum", help="locate roots and certify dominance")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--s0", type=float, default=None, help="claimed dominant root")
    p.add_argument("--re-min", type=float, default=None)
    p.add_argument("--re-max", type=float, default=None)
    p.add_argument("--im-min", type=float, default=None)
    p.add_argument("--im-max", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bounds", help="a priori |Im root| bounds")
    p.add_argument("system", nargs="?", default=None, help="system JSON file")
    p.add_argument("--standard-pair", action="store_true",
                   help="use the normalized quartic design's companion pair")
    p.add_argument("--s0", type=float, default=None)
    p.add_argument(
        "--method",
        choices=["rho", "norm-power", "mori-kokame", "tissir-hmamed", "lemma3"],
        default=None,
    )
    p.add_argument("--norm", choices=["one", "two", "frobenius", "infinity"],
                   help="for norm-power (default frobenius), mori-kokame, tissir-hmamed")
    p.add_argument("--power", type=int, help="for norm-power only (default 1)")
    p.add_argument("--sigma-min", type=float, help="for --all, rho, norm-power, --curves (default 0)")
    p.add_argument("--all", action="store_true", help="emit the full bound table suite")
    p.add_argument("--curves", action="store_true", help="also export boundary curves")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="method-of-steps simulation")
    p.add_argument("system", help="system JSON file")
    p.add_argument(
        "--history",
        required=True,
        help="y01|y02|y03|y04|all|const:<v>|file:<path>",
    )
    p.add_argument("--t-end", type=float, default=40.0)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--t-start", type=float, default=10.0, help="decay-fit start time")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="one-shot design checks")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--s0", type=float, default=None)
    common(p, writes=False)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = _Run(args)
    try:
        code = args.func(args, run)
        run.finish()
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:  # nobody reads stdout: what is left of it goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # the status a shell reports for SIGPIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LocalizationError as exc:  # spectrum's root search or certificate gave up
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
