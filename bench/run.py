"""midspec benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout of the repository; the package is imported from its
src/ directory.  With --trace 0 the workload runs as a sequence of fresh
`python -m midspec.cli` processes, one at a time, in passes over the same
seeded inputs (at least two, and until --seconds have elapsed), and the
end-to-end metrics are printed.  With --trace 1 the
same invocations run inside this process, once untraced and once with spans
around every public function of each layer, and the per-layer metrics are
printed.  Every output is checked by an oracle from checks.py.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Pin the BLAS pools before numpy loads, here and (through os.environ) in
# every child.  MIDSPEC_THREADS cannot do this: its setdefault loses to an
# inherited value.
THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREADS)

import argparse
import contextlib
import io
import json
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

SETUP_REPEATS = 3
MIN_PASSES = 2
SETUP_IMPORT = "import midspec.cli, midspec.quasipoly, midspec.spectral, midspec.bounds, midspec.sim"
CHILD_TIMEOUT = 150.0
IMPORT_PROBES = ("quasipoly", "spectral", "bounds", "sim")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = [
    "quasipoly.import_s",
    "quasipoly.mid_coefficients_s",
    "quasipoly.multiplicity_at_s",
    "quasipoly.factorization_residual_n2_s",
    "quasipoly.eval_array_s",
    "quasipoly.eval_array_calls",
    "quasipoly.eval_points",
    "quasipoly.scalar_evals",
    "spectral.import_s",
    "spectral.find_roots_s",
    "spectral.find_roots_calls",
    "spectral.certify_dominance_s",
    "spectral.roots_located",
    "spectral.localization_errors",
    "bounds.import_s",
    "bounds.bound_norm_power_s",
    "bounds.bound_norm_power_calls",
    "bounds.bound_spectral_radius_curve_s",
    "bounds.bound_tissir_hmamed_s",
    "bounds.bound_mori_kokame_s",
    "bounds.lemma3_analytic_bound_s",
    "sim.import_s",
    "sim.simulate_s",
    "sim.simulate_calls",
    "sim.steps",
    "sim.decay_rate_s",
    "sim.decay_rate_misses",
    "sim.csv_s",
    "sim.csv_bytes",
    "cli.command_s",
    "cli.self_s",
    "cli.bytes_written",
]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if "bytes" in name else "count"


@dataclass
class Child:
    wall: float
    code: int
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ, **THREADS)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def run_child(args: list[str], env: dict, cwd: Path) -> Child:
    """Run one process to completion; wall time from spawn to reap, peak RSS
    from os.wait4.  A child still running after CHILD_TIMEOUT is killed."""
    with open(cwd / "child.out", "w+") as out, open(cwd / "child.err", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=cwd)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0, out.read(), err.read())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def metadata(workload: str, seed: int, trace: int) -> dict:
    import mpmath
    import numpy
    import scipy

    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_sha": sha,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def failure_reason(inv, code: int, stdout: str, stderr: str) -> str | None:
    if code != 0:
        last = (stderr.strip().splitlines() or stdout.strip().splitlines() or [""])[-1]
        return f"exit {code}: {last}"
    return inv.check(stdout)


# --- end to end ---------------------------------------------------------------


def measure_end_to_end(name: str, seed: int, seconds: float):
    env = child_env()
    work = fresh_dir(WORK / f"e2e-{name}")
    setup = []
    for _ in range(SETUP_REPEATS):
        child = run_child([sys.executable, "-c", SETUP_IMPORT], env, work)
        if child.code != 0:
            raise RuntimeError(f"importing midspec failed: {child.stderr.strip()}")
        setup.append(child.wall)
    print(f"setup: {SETUP_REPEATS} fresh imports, " + ", ".join(f"{s:.3f}" for s in setup) + " s")

    # Every pass repeats the same seeded invocations.  Other load on a shared
    # host slows a process by up to 1.6x for seconds at a time; the fastest
    # repeat of an invocation is the one least disturbed by it.
    build = WORKLOADS[name][0]
    best: list[float] = []
    rss, failures = [], []
    attempted = passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        p = build(random.Random(seed), fresh_dir(work / "pass"))
        walls = []
        for inv in p.invocations:
            child = run_child([sys.executable, "-m", "midspec.cli", *inv.argv], env, work)
            walls.append(child.wall)
            rss.append(child.rss_mb)
            attempted += 1
            reason = failure_reason(inv, child.code, child.stdout, child.stderr)
            if reason:
                failures.append(f"{' '.join(inv.argv)}: {reason}")
        best = [min(a, b) for a, b in zip(best, walls)] if best else walls
        passes += 1
        print(f"pass {passes}: " + ", ".join(
            f"{inv.command} {w:.3f}" for inv, w in zip(p.invocations, walls)) + " s")
    shutil.rmtree(work / "pass", ignore_errors=True)

    for command in dict.fromkeys(inv.command for inv in p.invocations):
        total = sum(w for inv, w in zip(p.invocations, best) if inv.command == command)
        print(f"{command}_s: {total:.4f} s (fastest of {passes} repeats per invocation, summed)")
    report_failures(attempted, failures)
    report_decay(p.decay_errors)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(best),
        "peak_rss_mb": max(rss),
    }
    return metrics, attempted, failures, True


def report_failures(attempted: int, failures: list[str]) -> None:
    print(f"fail_ratio: {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    for line in failures:
        print(f"FAILED {line}")


def report_decay(errors: list[float]) -> int:
    """Print how far the reported decay rates lie from s0; returns the number
    beyond the criterion-12 tolerance."""
    misses = sum(e > checks.DECAY_TOL for e in errors)
    if errors:
        print(f"decay rate vs s0: max |error| {max(errors):.4f} over {len(errors)} histories, "
              f"{misses} beyond {checks.DECAY_TOL}")
    return misses


# --- traced, in process -------------------------------------------------------


def snapshot(out: Path) -> dict[str, bytes]:
    """Every output file by relative path, with the output directory spelled
    <out> and manifest timestamps dropped."""
    files = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes().replace(str(out).encode(), b"<out>")
        if path.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("timestamp", None)
            data = json.dumps(doc, sort_keys=True).encode()
        files[str(path.relative_to(out))] = data
    return files


def invoke(inv, cli, tracer=None) -> tuple[float, str | None]:
    """One invocation through cli.main in this process, instrumented when a
    tracer is given; returns the time in cli.main and the failure, if any."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracing.instrumented(tracer))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        t0 = time.perf_counter()
        try:
            code = cli.main(list(inv.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - t0
    reason = failure_reason(inv, code, out.getvalue(), err.getvalue())
    return elapsed, reason and f"{' '.join(inv.argv)}: {reason}"


@dataclass
class TracedRun:
    untraced_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    tracers: list[tracing.Tracer] = field(default_factory=list)
    passes: list = field(default_factory=list)  # the traced workloads.Pass objects
    failures: list[str] = field(default_factory=list)
    # output files that differ between the traced and the untraced pass
    mismatched: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return 2 * sum(len(p.invocations) for p in self.passes)


def traced_run(name: str, seed: int, seconds: float, work: Path) -> TracedRun:
    """An untraced and a traced in-process pass over the same seeded inputs,
    repeated until `seconds` have elapsed (at least once).

    The two passes write to separate directories and take turns invocation by
    invocation, so that both see the same load on the host and their time
    difference is the tracing overhead.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for module in tracing.MODULES:  # import outside the timed passes
        __import__(f"midspec.{module}")
    cli = sys.modules["midspec.cli"]
    build = WORKLOADS[name][0]
    run = TracedRun()
    start = time.perf_counter()
    while not run.tracers or time.perf_counter() - start < seconds:
        plain = build(random.Random(seed), fresh_dir(work / "plain"))
        traced = build(random.Random(seed), fresh_dir(work / "traced"))
        tracer = tracing.Tracer()
        times = {None: 0.0, tracer: 0.0}
        for k, pair in enumerate(zip(plain.invocations, traced.invocations)):
            tracer.invocation = k
            turns = [(pair[0], None), (pair[1], tracer)]
            for inv, t in turns if k % 2 == 0 else reversed(turns):
                elapsed, failure = invoke(inv, cli, t)
                times[t] += elapsed
                if failure:
                    run.failures.append(failure)
        run.untraced_s.append(times[None])
        run.traced_s.append(times[tracer])
        run.tracers.append(tracer)
        run.passes.append(traced)
        a, b = snapshot(work / "plain"), snapshot(work / "traced")
        run.mismatched += sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))
    for sub in ("plain", "traced"):
        shutil.rmtree(work / sub, ignore_errors=True)
    return run


def measure_traced(name: str, seed: int, seconds: float):
    env = child_env()
    work = fresh_dir(WORK / f"trace-{name}")
    imports = {f"{m}.import_s": tracing.import_seconds(m, env) for m in IMPORT_PROBES}
    run = traced_run(name, seed, seconds, work)

    layers = [tracing.layer_values(t) for t in run.tracers]
    values = dict(imports)
    for metric in layers[0]:
        series = [layer[metric] for layer in layers]
        if layer_unit(metric) == "s":
            values[metric] = statistics.median(series)
        else:
            values[metric] = series[0]
            if len(set(series)) > 1:
                print(f"warning: {metric} differs between traced passes: {series}")
    values["sim.decay_rate_misses"] = report_decay(run.passes[0].decay_errors)

    plain, traced = sum(run.untraced_s), sum(run.traced_s)
    overhead = traced / plain - 1.0
    print(f"tracing overhead: {traced:.3f} s traced vs {plain:.3f} s untraced "
          f"in process ({overhead:+.1%} over {len(run.traced_s)} interleaved passes)")
    print(f"spans recorded per pass: {len(run.tracers[0].spans)}")
    report_failures(run.attempted, run.failures)
    for f in run.mismatched:
        print(f"MISMATCH traced and untraced outputs differ: {f}")
    (work / "spans.json").write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "overhead": overhead,
        "counts": dict(run.tracers[0].counts),
        "spans": run.tracers[0].to_json(),
    }))
    metrics = {m: values[m] for m in PER_LAYER}
    return metrics, run.attempted, run.failures, not run.mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "midspec" / "cli.py").is_file():
        print(f"error: no midspec sources under {SRC}", file=sys.stderr)
        return 2

    print("meta " + json.dumps(metadata(args.workload, args.seed, args.trace)))
    measure = measure_traced if args.trace else measure_end_to_end
    metrics, attempted, failures, consistent = measure(args.workload, args.seed, args.seconds)
    units = {m: layer_unit(m) for m in PER_LAYER} | END_TO_END
    print(json.dumps({
        "correct": consistent and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
