"""Seeded workload generator for the spin1topo benchmark.

Inputs are drawn the way users write them: frequencies in round MHz with
hr = 10 MHz as in the README and scripts/, ranges starting at 0 (the CLI
default), ramps of 0.5 us and 10 us.  A workload is a sequence of rounds with
a fixed composition; the seed only picks values inside each slot.  Fixing the
composition keeps the mix of cheap and expensive operations the same from one
seed to the next, so a run's medians move with the code, not with the draw.

Inputs that failed at the reference commit (exit code or exception recorded
in golden/) are known defects, such as the degenerate start at h0 = 0,
g = hr.  The timed rounds draw again in their place, so no timed op is
expected to fail; the defects run in a separate probe of each run
(defect_probe) and are counted there.  Unconverged flux escalation does not
fail an op and stays in the timed mix.

Every value is a pure function of (workload, seed, round index), so a replay
of the same seed sees the same inputs.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HR_MHZ = 10.0
FAST_RAMP_US = 0.5
SLOW_RAMP_US = 10.0
COUPLINGS = ("g", "j_z", "j_02")
# spin1topo.phases.SWEEPABLE, in its order; kept here so generating inputs
# needs no import of the package.
SWEEPABLE = ("h0", "g", "j_z", "j_02")
PAIRS = tuple(
    (SWEEPABLE[i], SWEEPABLE[j]) for i in range(len(SWEEPABLE)) for j in range(i + 1, len(SWEEPABLE))
)
AXIS_MAX_MHZ = (10.0, 20.0, 30.0)
BACKGROUND_MHZ = (2.0, 5.0, 10.0)
H0_MHZ = (0.0, 5.0, 10.0, 15.0, 20.0)
COUPLING_MHZ = (5.0, 10.0, 15.0, 20.0)
RAMP_BACKGROUND_MHZ = (2.0, 5.0)
PHI_NONZERO = (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)
# Dynamical CLI diagrams are 3x3 (h0, g) grids as in the README.  Those whose
# g axis contains hr put a cell on the degenerate start h0 = 0, g = hr, and
# the CLI exits 3 on them; the defect probe runs one such grid, and each
# round runs three that avoid it.
DYNAMICAL_FAILING_Y_MAX = 20.0
DYNAMICAL_PASSING_Y_MAX = 30.0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Why each workload is in the benchmark; BENCHMARK.json carries the same text.
WORKLOADS = {
    "analytic-grid": (
        "In-process serial phase_diagram(method='analytic') on 3x3 grids of every SWEEPABLE pair, "
        "h0 = 0 slices included: phases and _batch_curvature do the work, the ramp engine none"
    ),
    "ramp-sweep": (
        "In-process simulate_ramp, single and coupled, 0.5 us and 10 us, phi = 0 and phi != 0: "
        "simulate_ramp and its midpoint eigh do the work, the Weyl scan none"
    ),
    "cli-mix": (
        "python -m spin1topo.cli runs at the default --jobs (weyl, ramps, analytic and dynamical "
        "phase-diagram): pays interpreter, numpy and pool start-up and CSV/JSON/SVG output"
    ),
}


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    kind is "diagram" or "ramp" (in-process) or "cli" (subprocess).  args
    holds user-unit values (MHz, us, rad) for in-process ops; for CLI ops it
    holds the argv after the module name, with output files named by
    placeholders of the form {out}/<name>.
    """

    kind: str
    args: dict = field(hash=False)

    def key(self) -> str:
        """Stable identity of the input, shared with the golden records."""
        if self.kind == "cli":
            return " ".join(self.args["argv"])
        items = sorted((k, v) for k, v in self.args.items() if k != "phi")
        return self.kind + ":" + ",".join(f"{k}={_fmt(v)}" for k, v in items)


def _fmt(v) -> str:
    return f"{v:.12g}" if isinstance(v, float) else str(v)


@dataclass(frozen=True)
class Slot:
    """One position in a round: an op built from one value of each axis.

    Each axis is a list of dicts of arguments.  A round takes one value per
    axis, drawn without replacement in blocks of the axis length, so over a
    run every value of an axis is used about equally often; the seed sets
    the order within each block.
    """

    build: Callable[[dict], Op]
    axes: tuple[list[dict], ...]

    def candidates(self) -> list[Op]:
        rows = [{}]
        for axis in self.axes:
            rows = [{**row, **value} for row in rows for value in axis]
        return [self.build(row) for row in rows]

    def draw(self, tag: str, index: int) -> Op:
        args = {}
        for a, axis in enumerate(self.axes):
            block, position = divmod(index, len(axis))
            order = list(range(len(axis)))
            random.Random(f"{tag}|{a}|{block}").shuffle(order)
            args.update(axis[order[position]])
        return self.build(args)


def _axis(name: str, values) -> list[dict]:
    return [{name: v} for v in values]


def _analytic_slots() -> list[Slot]:
    """Twelve slots: every SWEEPABLE pair, without and with a background coupling.

    Ranges are square, as in the README.  A slot's values form one axis, so
    a block of rounds runs every (range, background) combination once.
    """
    slots = []
    ranges = [{"x_max": v, "y_max": v} for v in AXIS_MAX_MHZ]
    for x, y in PAIRS:
        def build(args, x=x, y=y):
            return Op("diagram", {"x": x, "y": y, "steps": 3, "hr": HR_MHZ, **args})

        backgrounds = [{c: v} for c in COUPLINGS if c not in (x, y) for v in BACKGROUND_MHZ]
        slots.append(Slot(build, (ranges,)))
        slots.append(Slot(build, ([{**r, **b} for r in ranges for b in backgrounds],)))
    return slots


def _ramp_slots() -> list[Slot]:
    """Twelve slots: {single, coupled} x {0.5 us, 10 us} x {phi = 0, phi != 0},
    with the four single-spin slots twice.

    Single-spin ramps all cost about the same; running eight of them against
    four coupled ones puts the median among them, away from the edge between
    the two kinds.  A coupled system has one main coupling and, half of the
    time, a weaker background coupling of another kind.
    """
    slots = []
    main = [{c: v} for c in COUPLINGS for v in COUPLING_MHZ]
    backgrounds = [{}] * len(RAMP_BACKGROUND_MHZ) + [{"bg": v} for v in RAMP_BACKGROUND_MHZ]
    for system in ("single", "coupled"):
        for t_ramp in (FAST_RAMP_US, SLOW_RAMP_US):
            for phis in ((0.0,), PHI_NONZERO):
                def build(args, system=system, t_ramp=t_ramp):
                    args = dict(args)
                    bg = args.pop("bg", None)
                    if bg is not None:
                        main_name = next(c for c in COUPLINGS if c in args)
                        args[COUPLINGS[(COUPLINGS.index(main_name) + 1) % 3]] = bg
                    return Op("ramp", {"system": system, "hr": HR_MHZ, "t_ramp": t_ramp, **args})

                axes = (_axis("h0", H0_MHZ), _axis("phi", phis))
                if system == "coupled":
                    axes += (main, backgrounds)
                slots += [Slot(build, axes)] * (2 if system == "single" else 1)
    return slots


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _cli(argv: list[str], outputs: list[str] = ()) -> Op:
    return Op("cli", {"argv": argv + ["--hr", _fmt(HR_MHZ)], "outputs": list(outputs)})


def _cli_slots() -> tuple[list[Slot], list[Slot]]:
    """The timed slots and the slots only the defect probe draws from.

    Ten timed slots per round, in this order: weyl, single-ramp, analytic
    phase-diagram, coupled-ramp four times and three dynamical
    phase-diagrams that avoid the degenerate start.  The probe's slot is the
    dynamical phase-diagram that hits it.

    The composition is fixed so that the median falls among the coupled
    ramps and the tail (ten samples beyond it) among the dynamical
    diagrams, for any run of MIN_ROUNDS rounds or more; a seed then moves the
    latency figures only through the values it draws.
    """
    times = _axis("t", (FAST_RAMP_US, SLOW_RAMP_US))
    h0s = _axis("h0", H0_MHZ)
    couplings = [{"c": c, "v": v} for c in COUPLINGS for v in COUPLING_MHZ]

    def weyl(a):
        if a["c"] == "single":
            return _cli(["weyl", "--family", "single", "--h0", _fmt(a["h0"])])
        return _cli(["weyl", "--h0", _fmt(a["h0"]), _flag(a["c"]), _fmt(a["v"])])

    def single(a):
        f = a["f"]
        return _cli(["single-ramp", "--h0", _fmt(a["h0"]), "--t-ramp", _fmt(a["t"]), "--format", f,
                     "--out", "{out}/single." + f], ["single." + f])

    def coupled(a):
        return _cli(["coupled-ramp", "--h0", _fmt(a["h0"]), _flag(a["c"]), _fmt(a["v"]), "--t-ramp", _fmt(a["t"]),
                     "--out", "{out}/coupled.csv"], ["coupled.csv"])

    def analytic(a):
        f = a["f"]
        return _cli(["phase-diagram", "--x", a["x"], "--y", a["y"], "--x-max", _fmt(a["xm"]), "--y-max",
                     _fmt(a["ym"]), "--steps", "3", "--method", "analytic", "--format", f,
                     "--out", "{out}/diagram." + f, "--svg", "{out}/diagram.svg"], ["diagram." + f, "diagram.svg"])

    def dynamical(a):
        return _cli(["phase-diagram", "--x", "h0", "--y", "g", "--x-max", _fmt(a["xm"]), "--y-max", _fmt(a["ym"]),
                     "--steps", "3", "--method", "dynamical", "--t-ramp", _fmt(a["t"]),
                     "--out", "{out}/dynamical.csv"], ["dynamical.csv"])

    formats = _axis("f", ("csv", "json"))
    x_maxes = _axis("xm", AXIS_MAX_MHZ)
    ranges = [{"xm": x, "ym": y} for x in AXIS_MAX_MHZ[1:] for y in AXIS_MAX_MHZ[1:]]
    pairs = [{"x": x, "y": y} for x, y in PAIRS]
    passing = Slot(dynamical, (x_maxes, _axis("ym", (DYNAMICAL_PASSING_Y_MAX,)), times))
    timed = [
        Slot(weyl, (h0s, couplings + [{"c": "single"}] * len(COUPLING_MHZ))),
        Slot(single, (h0s, times, formats)),
        Slot(analytic, (pairs, ranges, formats)),
        *[Slot(coupled, (h0s, couplings, times))] * 4,
        *[passing] * 3,
    ]
    return timed, [Slot(dynamical, (x_maxes, _axis("ym", (DYNAMICAL_FAILING_Y_MAX,)), times))]


# Whole rounds a run makes even when --seconds runs out first.
MIN_ROUNDS = {"analytic-grid": 1, "ramp-sweep": 1, "cli-mix": 4}
_CLI_TIMED, _CLI_PROBE_ONLY = _cli_slots()
_SLOTS = {"analytic-grid": _analytic_slots(), "ramp-sweep": _ramp_slots(), "cli-mix": _CLI_TIMED}
_PROBE_ONLY_SLOTS = {"cli-mix": _CLI_PROBE_ONLY}


def all_ops(workload: str) -> list[Op]:
    """Every input the workload can draw, one per key (for the golden records)."""
    unique = {}
    for slot in _SLOTS[workload] + _PROBE_ONLY_SLOTS.get(workload, []):
        for op in slot.candidates():
            unique.setdefault(op.key(), op)
    return list(unique.values())


@functools.cache
def known_defects() -> frozenset[str]:
    """Keys of the inputs that failed at the reference commit, from golden/."""
    keys = set()
    ramps = GOLDEN_DIR / "ramps.json"
    if ramps.exists():
        keys.update(k for k, v in json.loads(ramps.read_text()).items() if "error" in v)
    cli = GOLDEN_DIR / "cli.json"
    if cli.exists():
        keys.update(k for k, v in json.loads(cli.read_text()).items() if v["returncode"] != 0)
    return frozenset(keys)


def round_ops(workload: str, seed: int, index: int) -> list[Op]:
    """The operations of round `index` of a workload, in execution order.

    A slot that draws a known defect draws again with another tag, so the
    timed rounds hold only inputs that passed at the reference commit.
    """
    ops = []
    for k, slot in enumerate(_SLOTS[workload]):
        tag = f"{workload}|{seed}|{k}"
        op, retry = slot.draw(tag, index), 0
        while op.key() in known_defects():
            retry += 1
            op = slot.draw(f"{tag}|{retry}", index)
        ops.append(op)
    return ops


def defect_probe(workload: str, seed: int) -> list[Op]:
    """The known-defect inputs a run executes once, outside the timed loop.

    In-process workloads run all of theirs (each raises before any
    propagation, in microseconds).  cli-mix runs one per subcommand, drawn
    by the seed, since each costs a process start.
    """
    defects = [op for op in all_ops(workload) if op.key() in known_defects()]
    if workload != "cli-mix":
        return defects
    groups: dict[str, list[Op]] = {}
    for op in defects:
        groups.setdefault(op.args["argv"][0], []).append(op)
    rng = random.Random(f"{workload}|{seed}|defects")
    return [rng.choice(ops) for _, ops in sorted(groups.items())]


def cli_pool_probe(seed: int) -> list[str]:
    """argv of the analytic diagram timed at --jobs 1 and at the default --jobs.

    It is the first analytic diagram of the cli-mix workload for this seed,
    without its output files.
    """
    argv = iter(round_ops("cli-mix", seed, 0)[2].args["argv"])
    keep = []
    for a in argv:
        if a in ("--out", "--svg", "--format"):
            next(argv)  # the flag's value
        else:
            keep.append(a)
    return keep
