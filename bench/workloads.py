"""The benchmark's workloads: sequences of midspec CLI invocations.

A workload builds one pass of invocations from a random.Random seeded by
--seed; every designed system draws its root s0 uniformly from [-1.0, 0.5],
the range the acceptance grid covers.  Order n and delay tau stay fixed per
workload because they set its character; the delay-1 normalization makes the
cost of localization and certification independent of s0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

S0_RANGE = (-1.0, 0.5)
HISTORIES = ("y01", "y02", "y03", "y04")
T_END = 40.0


@dataclass(frozen=True)
class Invocation:
    command: str
    argv: tuple[str, ...]
    check: Callable[[str], str | None]  # stdout -> None if the output is right


@dataclass
class Pass:
    invocations: list[Invocation] = field(default_factory=list)
    # |reported decay rate - s0| for every simulated history
    decay_errors: list[float] = field(default_factory=list)

    def design(self, out: Path, n: int, s0: float, tau: float) -> Path:
        argv = ("design", "--n", str(n), "--s0", repr(s0), "--tau", repr(tau), "--out-dir", str(out))
        self.invocations.append(
            Invocation("design", argv, lambda _: checks.check_design(out, n, s0, tau))
        )
        return out / "system.json"

    def spectrum(self, system: Path, n: int, s0: float) -> None:
        out = system.parent
        argv = ("spectrum", str(system), "--out-dir", str(out))
        self.invocations.append(
            Invocation("spectrum", argv, lambda _: checks.check_spectrum(out, n, s0))
        )

    def simulate(self, system: Path, s0: float) -> None:
        out = system.parent
        argv = ("simulate", str(system), "--history", "all", "--t-end", repr(T_END), "--out-dir", str(out))

        def check(stdout: str) -> str | None:
            verdict, rates = checks.check_simulate(out, stdout, system, HISTORIES, T_END)
            self.decay_errors += [abs(r - s0) for r in rates]
            return verdict

        self.invocations.append(Invocation("simulate", argv, check))

    def verify(self, system: Path) -> None:
        self.invocations.append(Invocation("verify", ("verify", str(system)), checks.check_verify))


def _s0(rng: random.Random) -> float:
    return rng.uniform(*S0_RANGE)


def showcase_n3(rng: random.Random, out: Path) -> Pass:
    p = Pass()
    s0 = _s0(rng)
    system = p.design(out, 3, s0, 2.5)
    p.spectrum(system, 3, s0)
    p.simulate(system, s0)
    p.verify(system)
    return p


def bounds_tables(rng: random.Random, out: Path) -> Pass:
    p = Pass()
    p.invocations.append(
        Invocation(
            "bounds",
            ("bounds", "--standard-pair", "--all", "--out-dir", str(out)),
            lambda _: checks.check_bounds(out),
        )
    )
    return p


VERIFY_ORDERS = (1, 2, 3, 4)


def verify_orders(rng: random.Random, out: Path) -> Pass:
    p = Pass()
    for n in VERIFY_ORDERS:
        system = p.design(out / f"n{n}", n, _s0(rng), 2.5)
        p.verify(system)
    return p


def simulate_dense(rng: random.Random, out: Path) -> Pass:
    p = Pass()
    s0 = _s0(rng)
    system = p.design(out, 3, s0, 0.5)
    p.simulate(system, s0)
    return p


# name -> (pass builder, why); the why lines are repeated in BENCHMARK.json.
WORKLOADS: dict[str, tuple[Callable[[random.Random, Path], Pass], str]] = {
    "showcase-n3": (
        showcase_n3,
        "the README pipeline design/spectrum/simulate/verify at n=3, tau=2.5: the real user path, time spread over all five modules",
    ),
    "bounds-tables": (
        bounds_tables,
        "bounds --standard-pair --all: one process dominated by the feasibility sweeps; spectral and sim idle as controls",
    ),
    "verify-orders": (
        verify_orders,
        "design plus verify for n=1..4 at tau=2.5: grows the order and pays eight process start-ups",
    ),
    "simulate-dense": (
        simulate_dense,
        "design plus simulate --history all at n=3, tau=0.5: 160k RK4 steps and 12 MB of CSV; bounds and spectral idle",
    ),
}
