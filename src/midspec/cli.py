"""Command-line front end: design / spectrum / bounds / simulate / verify.

Each command reads or writes JSON system descriptions and CSV tables.  A
command that writes files writes them atomically (temp + rename) and finishes
with a run manifest listing every produced file and every parsed input.
Exit codes: 0 success, 1 internal failure, 2 invalid flags or inputs,
3 inconclusive spectrum/certification.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

__version__ = "0.1.0"


_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _positive_int(text: str | None) -> int | None:
    try:
        value = int(text)
    except (TypeError, ValueError):
        return None
    return value if value > 0 else None


def _apply_thread_cap() -> None:
    """MIDSPEC_THREADS caps the BLAS pools, the only internal parallelism.

    Each pool variable becomes the smaller of its inherited value and the cap;
    an unset or malformed one becomes the cap.  A cap lowers, never raises.
    Unset or empty means no cap.  Must run before numpy is imported.
    """
    raw = os.environ.get("MIDSPEC_THREADS")
    if not raw:
        return
    cap = _positive_int(raw)
    if cap is None:
        raise ValueError(f"MIDSPEC_THREADS must be a positive integer, got {raw!r}")
    for var in _BLAS_THREAD_VARS:
        inherited = _positive_int(os.environ.get(var))
        os.environ[var] = str(cap if inherited is None else min(inherited, cap))


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
                        "tool_version": __version__,
                        "timestamp": _utc_now()}
            _write_atomic(self.out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
        if self.as_json:
            print(json.dumps(self.payload, indent=2))


def _load_system(path: str):
    from .quasipoly import RetardedSystem

    try:
        return RetardedSystem.from_json(Path(path).read_text())
    except FileNotFoundError:
        raise ValueError(f"system file not found: {path}") from None
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
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
    from .quasipoly import mid_coefficients

    sys_ = mid_coefficients(args.n, args.s0, args.tau)
    run.write("system.json", sys_.to_json() + "\n")

    lines = [f"order n = {sys_.n}, delay tau = {sys_.tau}, assigned root s0 = {args.s0}"]
    for k in range(sys_.n):
        lines.append(f"  a[{k}]     = {sys_.a[k]: .15g}")
    for k in range(sys_.n):
        lines.append(f"  alpha[{k}] = {sys_.alpha[k]: .15g}")
    identity = args.s0 + sys_.a[-1] / sys_.n + sys_.n / sys_.tau
    lines.append(f"trace identity s0 + a[n-1]/n + n/tau = {identity:.3e}")
    run.write("design.txt", "\n".join(lines) + "\n")

    for line in lines:
        run.say(line)
    run.payload = {"system": sys_.to_json_dict(), "trace_identity": identity}
    return 0


def _certificate_doc(report) -> dict | None:
    """The --json record of a dominance verdict from the exact design's disc
    certificate; None when it came from a root search (or none was made)."""
    if report is None or report.gap is None:
        return None
    return {"gap": report.gap, "discs": report.discs}


# --- spectrum -----------------------------------------------------------------


def cmd_spectrum(args, run: _Run) -> int:
    from .spectral import (
        LocalizationError,
        Rectangle,
        SpectrumReport,
        certify_dominance,
        find_roots,
        roots_to_csv,
    )

    sys_ = _load_system(args.system)
    s0 = _shift(args, sys_)
    region = Rectangle(
        args.re_min if args.re_min is not None else s0 - 5.0,
        args.re_max if args.re_max is not None else s0 + 1.0,
        args.im_min if args.im_min is not None else -30.0,
        args.im_max if args.im_max is not None else 30.0,
    )

    q = sys_.quasipolynomial()
    try:
        roots = find_roots(q, region)
    except LocalizationError as exc:
        run.say(f"inconclusive: {exc}")
        return 3
    if not roots:
        run.say("no roots in region")
        return 3

    try:
        cert = certify_dominance(sys_, s0)
    except LocalizationError as exc:
        run.say(f"inconclusive: {exc}")
        return 3

    # the located roots of the region, judged by the certified verdict
    base = SpectrumReport.from_roots(roots, region)
    strictly = cert.strictly_dominant
    report = base.replace(
        dominant=cert.dominant if strictly else base.dominant, strictly_dominant=strictly
    )

    run.write("roots.csv", roots_to_csv(report.roots))
    run.write("spectrum.json", report.to_json() + "\n")

    run.say(f"{len(report.roots)} root locations, total multiplicity "
            f"{sum(r.multiplicity for r in report.roots)}")
    run.say(f"spectral abscissa in region: {report.spectral_abscissa:.9g}")
    run.say(f"strictly dominant at s0 = {s0:.9g}: {report.strictly_dominant}")
    if cert.gap is not None:
        run.say(f"exact MID design: the {2 * sys_.n}-fold root s0 is strictly dominant, "
                f"every other root has Re s <= s0 - {cert.gap:.9g} ({cert.discs} discs)")
    run.payload = report.to_json_dict() | {"s0": s0, "certificate": _certificate_doc(cert)}
    run.inputs |= {"s0": s0, "region": region.to_json_dict()}
    return 0


# --- bounds -------------------------------------------------------------------


#: The rows of --all: (method, norm, power), in table order.
_ALL_BOUNDS = (
    [("rho", "frobenius", 1)]
    + [("norm-power", norm, p) for p in (1, 2) for norm in ("one", "frobenius", "infinity")]
    + [(m, norm, 1) for m in ("mori-kokame", "tissir-hmamed") for norm in ("one", "two", "infinity")]
    + [("lemma3", "frobenius", 2)]
)


def _bounds_rows(args, pair):
    from .bounds import (
        bound_mori_kokame,
        bound_norm_power,
        bound_spectral_radius_curve,
        bound_tissir_hmamed,
        lemma3_analytic_bound,
    )

    reports = {
        "rho": lambda norm, power: bound_spectral_radius_curve(pair, args.sigma_min),
        "norm-power": lambda norm, power: bound_norm_power(pair, norm, power, args.sigma_min),
        "mori-kokame": lambda norm, power: bound_mori_kokame(pair, norm),
        "tissir-hmamed": lambda norm, power: bound_tissir_hmamed(pair, norm),
    }

    def rows(method, norm, power):
        if method == "lemma3":
            rep = lemma3_analytic_bound(pair)  # ValueError outside the standard pair
            return [(f"lemma3-{step}", "frobenius", 2, 0.0, getattr(rep, step), 0)
                    for step in ("coarse", "refined", "certified")]
        r = reports[method](norm, power)
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
    from .bounds import boundary_curve
    from .spectral import standard_pair, companion_pair
    from .quasipoly import normalize
    import numpy as np

    if args.standard_pair:
        pair = standard_pair()
    elif args.system:
        sys_ = _load_system(args.system)
        s0 = _shift(args, sys_)
        pair = companion_pair(normalize(sys_, s0))
    else:
        raise ValueError("provide a system file or --standard-pair")

    if not args.all and args.method is None:
        raise ValueError("provide --method or --all")

    rows = _bounds_rows(args, pair)

    lines = ["method,norm,power,sigma_min,value"]
    for method, norm, power, smin, value, _ in rows:
        lines.append(f"{method},{norm},{power},{smin:.17g},{value:.17g}")
    run.write("bounds.csv", "\n".join(lines) + "\n")

    if args.curves:
        sigmas = np.arange(args.sigma_min, args.sigma_min + 3.0 + 1e-9, 0.02)
        curves = [("rho", None, 1)]
        curves += [(f"norm-power-{norm}-p2", norm, 2) for norm in ("one", "frobenius", "infinity")]
        for name, norm, power in curves:
            body = ["sigma,omega_boundary"]
            body += [f"{s:.9g},{w:.9g}" for s, w in boundary_curve(pair, sigmas, norm, power)]
            run.write(f"curve_{name}.csv", "\n".join(body) + "\n")

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
        rows = [r.split(",") for r in path.read_text().strip().splitlines()]
        if rows and not _is_float(rows[0][0]):
            rows = rows[1:]  # header
        if any(len(r) < 2 for r in rows):
            raise ValueError(f"history file {path} needs two columns, time and value")
        times = [float(r[0]) for r in rows]
        values = [float(r[1]) for r in rows]
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
    from .quasipoly import (
        MID_MATCH_TOL,
        factorization_residual,
        mid_deviation,
        multiplicity_at,
        normalize,
    )
    from .spectral import LocalizationError, certify_dominance

    sys_ = _load_system(args.system)
    s0 = _shift(args, sys_)
    n = sys_.n
    checks: list[tuple[str, bool, str]] = []

    q = sys_.quasipolynomial()
    m = multiplicity_at(q, s0)
    checks.append(("multiplicity", m == 2 * n, f"multiplicity at s0 is {m}, want {2 * n}"))

    identity = s0 + sys_.a[-1] / n + n / sys_.tau
    ok = abs(identity) <= 1e-12 * max(1.0, abs(s0))
    checks.append(("trace-identity", ok, f"s0 + a[n-1]/n + n/tau = {identity:.3e}"))

    dev = mid_deviation(normalize(sys_, s0))
    checks.append(
        ("normalization-universality", dev < MID_MATCH_TOL, f"max relative deviation {dev:.3e}")
    )

    worst = max(factorization_residual(n, z) for z in (1.0, 2j * math.pi, 0.7 - 0.3j))
    checks.append(
        ("factorization-residual", worst < 1e-12, f"max relative residual {worst:.3e}")
    )

    cert = None
    try:
        cert = certify_dominance(sys_, s0)
        detail = (f"strictly dominant: {cert.strictly_dominant}, "
                  f"spectral abscissa {cert.spectral_abscissa:.9g}")
        if cert.gap is not None:
            detail += (f", every other root has Re s <= s0 - {cert.gap:.9g} "
                       f"(exact MID design, {cert.discs} discs)")
        checks.append(("dominance", cert.strictly_dominant, detail))
    except LocalizationError as exc:
        checks.append(("dominance", None, f"inconclusive: {exc}"))

    # ok is True (pass), False (failed) or None (inconclusive)
    all_ok = all(ok for _, ok, _ in checks)
    failed = any(ok is not None and not ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        label = "INCONCLUSIVE" if ok is None else "PASS" if ok else "FAIL"
        run.say(f"{label} {name}: {detail}")
    if all_ok:
        run.say("verdict: all checks passed")
    else:
        run.say("verdict: " + ("FAILURES detected" if failed else "inconclusive"))
    run.payload = {
        "s0": s0,
        "checks": [{"name": n_, "passed": None if ok is None else bool(ok), "detail": d}
                   for n_, ok, d in checks],
        "passed": all_ok,
        "certificate": _certificate_doc(cert),
    }
    return 0 if all_ok else 1 if failed else 3


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--norm", choices=["one", "two", "frobenius", "infinity"], default="frobenius")
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--sigma-min", type=float, default=0.0)
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
    try:
        _apply_thread_cap()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    run = _Run(args)
    try:
        code = args.func(args, run)
        run.finish()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
