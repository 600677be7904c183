#!/usr/bin/env python3
"""spin1topo benchmark: one command, three seeded workloads, checked results.

    python3 bench/run.py --workload analytic-grid --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ./src, never
from an installed copy.  BLAS thread variables are left as found.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same timed loop,
then replays the inputs of its first rounds in-process with spans around
every module and prints the per-layer metrics, the tracing overhead and the
CLI probes.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
A fuller record (environment, every metric, spans) goes to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 11
HELP_REPEATS = 5
POOL_REPEATS = 2
OP_TIMEOUT_S = 150
TAIL_BEYOND = 10
# Rounds replayed by the traced run: about a dozen seconds of work each.
TRACE_ROUNDS = {"analytic-grid": 12, "ramp-sweep": 8, "cli-mix": 2}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

from workloads import MIN_ROUNDS, WORKLOADS, Op, cli_pool_probe, defect_probe, round_ops  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Runner:
    """Executes ops and keeps what the oracle needs to check them later."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.env = child_env()

    def run(self, op: Op) -> dict:
        """Run one op; returns its record.  Failures are recorded, not raised."""
        if op.kind == "cli":
            return self._run_cli(op)
        start = time.perf_counter()
        try:
            result = self._run_inprocess(op)
            ok = True
        except Exception as exc:  # an op that raises is a failed op, counted
            result, ok = type(exc).__name__, False
        return {"op": op, "latency": time.perf_counter() - start, "ok": ok, "result": result}

    def _run_inprocess(self, op: Op):
        import numpy as np

        from oracle import cell_params, grid_mhz, rad, ramp_params
        from spin1topo.berry import RampProtocol, simulate_ramp
        from spin1topo.phases import phase_diagram

        if op.kind == "diagram":
            xs, ys = grid_mhz(op)
            fixed = cell_params(op, 0.0, 0.0)
            diagram = phase_diagram(op.args["x"], op.args["y"], xs * rad(1.0), ys * rad(1.0), fixed)
            return np.asarray(diagram.chern_grid).tolist()
        trace = simulate_ramp(ramp_params(op), RampProtocol(op.args["t_ramp"]), phi=op.args["phi"])
        return trace.chern_rounded

    def argv(self, op: Op) -> list[str]:
        return [a.replace("{out}", str(self.out_dir)) for a in op.args["argv"]]

    def _run_cli(self, op: Op) -> dict:
        cmd = [sys.executable, "-m", "spin1topo.cli", *self.argv(op)]
        for name in op.args["outputs"]:
            (self.out_dir / name).unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            # wait4 gives the peak RSS of this run (its pool workers included).
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        files = {}
        for name in op.args["outputs"]:
            path = self.out_dir / name
            files[name] = path.read_bytes() if path.exists() else None
        return {"op": op, "latency": latency, "ok": proc.returncode == 0, "rss_mb": usage.ru_maxrss / 1024.0,
                "result": {"returncode": proc.returncode, "stdout": stdout, "files": files}}


def cli_cherns(op: Op, result: dict) -> list[int]:
    """Chern numbers a CLI run returned: one per ramp, one per diagram cell."""
    if result["returncode"] != 0:
        return []
    argv = op.args["argv"]
    if argv[0] in ("single-ramp", "coupled-ramp"):
        fields = dict(kv.split("=") for kv in result["stdout"].decode().split())
        return [int(fields["rounded"])]
    if argv[0] == "phase-diagram":
        name = op.args["outputs"][0]
        text = result["files"][name].decode()
        if name.endswith(".json"):
            return [int(v) for row in json.loads(text)["chern"] for v in row]
        return [int(line.split(",")[2]) for line in text.splitlines()[1:]]
    return []


def cli_record(op: Op, result: dict) -> dict:
    """Byte identity of one CLI run, in the form stored in golden/cli.json."""
    return {
        "returncode": result["returncode"],
        "stdout_sha256": hashlib.sha256(result["stdout"]).hexdigest(),
        "files": {k: (hashlib.sha256(v).hexdigest() if v is not None else None)
                  for k, v in sorted(result["files"].items())},
        "cherns": cli_cherns(op, result),
    }


def returned_cherns(rec: dict) -> int:
    if not rec["ok"]:
        return 0
    op = rec["op"]
    if op.kind == "diagram":
        return op.args["steps"] ** 2
    if op.kind == "ramp":
        return 1
    return len(cli_cherns(op, rec["result"]))


def check(records: list[dict]) -> dict:
    """Compare every returned Chern number with its oracle."""
    from oracle import Oracle

    oracle = Oracle()
    totals = {"wrong": 0, "missing": 0, "unverified": 0, "mismatch": 0}
    for rec in records:
        op = rec["op"]
        if op.kind == "cli":
            counts = oracle.check_cli(op, cli_record(op, rec["result"]))
        elif not rec["ok"]:
            continue
        elif op.kind == "diagram":
            counts = oracle.check_diagram(op, rec["result"])
        else:
            counts = oracle.check_ramp(op, rec["result"])
        for k, v in counts.items():
            totals[k] += v
    return totals


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timed_loop(runner: Runner, workload: str, seed: int, seconds: float) -> tuple[list[dict], float]:
    """Closed loop, one caller: whole rounds until `seconds` have passed."""
    records = []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or index < MIN_ROUNDS[workload]:
        for op in round_ops(workload, seed, index):
            records.append(runner.run(op))
        index += 1
    return records, time.perf_counter() - start


def end_to_end(records: list[dict], wall: float) -> dict:
    latencies = [r["latency"] for r in records]
    tail_value, tail_pct = tail(latencies)
    return {
        "chern_per_s": sum(returned_cherns(r) for r in records) / wall,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_value,
        "op_tail_percentile": tail_pct,
        "op_count": len(records),
        "failed_frac": sum(not r["ok"] for r in records) / len(records),
    }


def peak_rss(records: list[dict]) -> dict:
    """Peak resident memory of the process(es) running the program, in MB.

    In-process workloads: this process's peak.  cli-mix: each CLI run's peak
    (pool workers included) is taken from wait4; the metric is the median
    over runs, since the largest depends on which rare inputs a seed draws.
    The largest is kept as peak_rss_max_mb.
    """
    per_op = [r["rss_mb"] for r in records if "rss_mb" in r]
    if per_op:
        return {"peak_rss_mb": statistics.median(per_op), "peak_rss_max_mb": max(per_op)}
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"peak_rss_mb": own, "peak_rss_max_mb": own}


def measure_setup(args) -> list[float]:
    """Set-up time of fresh processes: import, input generation, one warm-up op."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-2000:]}")
        times.append(json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"])
    return times


def setup_probe(args, out_dir: Path) -> None:
    start = time.perf_counter()
    import spin1topo  # noqa: F401

    Runner(out_dir).run(round_ops(args.workload, args.seed, 0)[0])
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def run_quiet_cli(argv: list[str]) -> int:
    """cli.main in this process; a traceback is exit code 1, as in a subprocess."""
    from spin1topo import cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception:  # the subprocess would end in a traceback: a failed op
            return 1


def replay_argv(runner: Runner, op: Op) -> list[str]:
    """In-process replay keeps the work in this process, where it is traced."""
    argv = runner.argv(op)
    return argv + ["--jobs", "1"] if argv[0] == "phase-diagram" else argv


def replay(runner: Runner, ops: list[Op], tracer=None) -> float:
    """Run ops in-process (CLI ops through cli.main); returns the wall time."""
    from tracing import instrument

    context = instrument(tracer) if tracer is not None else contextlib.nullcontext()
    with context:
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            if op.kind == "cli":
                run_quiet_cli(replay_argv(runner, op))
            else:
                runner.run(op)
        return time.perf_counter() - start


def cli_probes(runner: Runner, seed: int) -> dict:
    """CLI start-up (--help) and the pool speed-up at the CLI's default --jobs."""
    def timed(argv):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "spin1topo.cli", *argv], cwd=ROOT, env=runner.env,
                       capture_output=True, timeout=OP_TIMEOUT_S)
        return time.perf_counter() - start

    startup = statistics.median(timed(["--help"]) for _ in range(HELP_REPEATS))
    argv = cli_pool_probe(seed)
    serial, pooled = [], []
    for _ in range(POOL_REPEATS):
        serial.append(timed(argv + ["--jobs", "1"]))
        pooled.append(timed(argv))
    jobs1, default = statistics.median(serial), statistics.median(pooled)
    return {"cli.startup_s": startup, "cli.pool.jobs1_s": jobs1, "cli.pool.default_s": default,
            "cli.pool.speedup": jobs1 / default, "cli.pool.default_jobs": os.cpu_count() or 1,
            "cli.pool.probe": " ".join(argv)}


def cli_layer(records: list[dict]) -> dict:
    """cli.* from the loop's subprocess timing: output bytes and per-subcommand medians."""
    out = {"cli.output.bytes": 0}
    by_command: dict[str, list[float]] = {}
    for rec in records:
        if rec["op"].kind != "cli":
            continue
        out["cli.output.bytes"] += sum(len(v) for v in rec["result"]["files"].values() if v is not None)
        argv = rec["op"].args["argv"]
        name = argv[0] + ("-" + argv[argv.index("--method") + 1] if "--method" in argv else "")
        by_command.setdefault(name, []).append(rec["latency"])
    for name, values in sorted(by_command.items()):
        out[f"cli.{name}.p50_s"] = statistics.median(values)
    return out


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps.get(k, {}).get("name", "unknown") + " " + deps.get(k, {}).get("version", "")
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = {"blas": "unknown"}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "spin1topo" / "__init__.py").is_file():
        print(f"error: {SRC / 'spin1topo'} not found; run from a spin1topo checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir()
    try:
        if args.setup_probe:
            setup_probe(args, out_dir)
            return 0
        return bench(args, out_dir)
    finally:
        for path in out_dir.iterdir():
            path.unlink()
        out_dir.rmdir()


def bench(args, out_dir: Path) -> int:
    setups = measure_setup(args)
    import spin1topo  # noqa: F401

    runner = Runner(out_dir)
    runner.run(round_ops(args.workload, args.seed, 0)[0])  # warm-up, untimed
    records, wall = timed_loop(runner, args.workload, args.seed, args.seconds)
    e2e = end_to_end(records, wall)
    e2e["setup_s"] = statistics.median(setups)
    e2e.update(peak_rss(records))
    probe = [runner.run(op) for op in defect_probe(args.workload, args.seed)]
    defects = {"attempted": len(probe), "failed": sum(not r["ok"] for r in probe),
               "failed_inputs": [r["op"].key() for r in probe if not r["ok"]]}
    verdict = check(records + probe)
    cherns = sum(returned_cherns(r) for r in records)
    e2e["wrong_frac"] = verdict["wrong"] / cherns if cherns else 0.0
    correct = verdict["wrong"] == verdict["missing"] == verdict["mismatch"] == 0

    report = {"workload": args.workload, "why": WORKLOADS[args.workload], "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed), "end_to_end": e2e,
              "setup_samples_s": setups, "check": verdict, "correct": correct, "defect_probe": defects,
              "ops": [[r["op"].key(), r["latency"], r["ok"], r.get("rss_mb")] for r in records]}
    units = {**END_TO_END_UNITS, "failed_frac": "1", "wrong_frac": "1"}
    if args.trace:
        layers = traced(args, runner, records)
        layers["known_defects.failed"] = defects["failed"]
        report["per_layer"] = layers
        metrics = per_layer_selection(layers)
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")
    for k, u in units.items():
        print(f"{args.workload} {k} = {e2e[k]:.6g} {u}")
    print(f"{args.workload} known-defect probe: {defects['failed']} of {defects['attempted']} ops failed "
          f"(not in the timed loop)")
    print(f"{args.workload} op_tail is p{e2e['op_tail_percentile']:.4g} of {e2e['op_count']} ops; "
          f"env: {json.dumps(report['environment'], sort_keys=True)}")
    if args.trace:
        for k, v in sorted(report["per_layer"].items()):
            print(f"{args.workload} {k} = {v}")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": sum(not r["ok"] for r in records), "metrics": metrics}))
    return 0


def traced(args, runner: Runner, records: list[dict]) -> dict:
    """Per-layer metrics from an in-process replay of the first TRACE_ROUNDS rounds.

    A fixed set of inputs makes the counts repeat exactly for a seed.  The
    same ops run untraced first, so the overhead compares equal work (CLI
    ops go through cli.main, without the process start-up of the loop).
    """
    from tracing import Tracer, layer_metrics

    ops = [op for i in range(TRACE_ROUNDS[args.workload]) for op in round_ops(args.workload, args.seed, i)]
    layers = cli_layer(records)
    untraced = replay(runner, ops)
    tracer = Tracer()
    traced_wall = replay(runner, ops, tracer)
    layers.update(layer_metrics(tracer, traced_wall))
    layers["trace.overhead_pct"] = 100.0 * (traced_wall / untraced - 1.0)
    layers["trace.replayed_ops"] = len(ops)
    layers.update(cli_probes(runner, args.seed))
    with gzip.open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz", "wt") as f:
        for row in tracer.rows():
            f.write(json.dumps(row) + "\n")
    return layers


# The metrics of the last JSON line, as listed in BENCHMARK.json.  failed_frac
# and wrong_frac are printed too, but are 0 when the program is right, and a
# bound relative to a median of 0 means nothing; the last line carries them
# as failed/attempted and correct.
END_TO_END_UNITS = {"setup_s": "s", "chern_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "hamiltonians.matrices.count": "count",
    "hamiltonians.matrices.self_s": "s",
    "numerics.eigh_many.calls": "count",
    "numerics.eigh_many.matrices": "count",
    "numerics.eigh_many.single_calls": "count",
    "numerics.eigh_many.self_s": "s",
    "numerics.eigh_many.us_per_matrix": "us",
    "numerics.propagate_step.calls": "count",
    "berry.simulate_ramp.calls": "count",
    "berry.simulate_ramp.self_share": "%",
    "berry.ramp.steps": "count",
    "berry.ramp.steps_per_chern": "count",
    "berry.curvature.points": "count",
    "berry.curvature.self_share": "%",
    "phases.scan_weyl_points.calls": "count",
    "phases.scan_weyl_points.self_share": "%",
    "phases.scan.grid_matrices": "count",
    "phases.bisection.steps": "count",
    "phases.flux.evaluations": "count",
    "phases.flux.refinements": "count",
    "phases.flux.first_try_ratio": "1",
    "phases.flux.unconverged": "count",
    "phases.flux.full_refinements": "count",
    "phases.phase_diagram.cells": "count",
    "phases.phase_diagram.self_share": "%",
    "phases.phase_diagram.flagged": "count",
    "cli.startup_s": "s",
    "cli.pool.speedup": "x",
    "cli.pool.jobs1_s": "s",
    "cli.pool.default_s": "s",
    "cli.output.bytes": "bytes",
    "svgplot.write_heatmap_svg.self_share": "%",
    "trace.overhead_pct": "%",
    "known_defects.failed": "count",
}


def per_layer_selection(layers: dict) -> dict:
    return {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


if __name__ == "__main__":
    sys.exit(main())
