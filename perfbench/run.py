#!/usr/bin/env python3
"""Seeded benchmark of the planarflow solvers, end to end and per layer.

Run from the root of a checkout (the package is imported from ``src``):

    python3 perfbench/run.py --workload grid-many --seed 0 --seconds 20 --trace 0

Every workload is a set of instances generated from ``--seed``. Each
instance is generated, written as PLEM and parsed back (the set-up); the
solvers receive the parsed instance, as they would from the command line.
The run then solves every instance with ``solve_recursive`` and
``sequential_saturation`` in passes until ``--seconds`` have elapsed (at
least one pass), and checks every solve against ``oracle_value``,
``validate_flow`` and the value from ``flow_value`` outside the timed
region. A wrong solve, or one that raises ``PlanarFlowError``, counts as
failed; the run goes on.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` repeats the
untraced measurement, then solves every instance once more untraced and
once under the tracer of ``tracing.py``, and prints the per-layer
metrics, the tracing overhead, and the time of one ``planarflow solve``
subprocess.

Every time in seconds is normalised by the reference kernel of
``clock.py``, which runs alongside the work: it reads as seconds on a
machine on which that kernel takes ``clock.REFERENCE_S``. Each solve
and each instance's set-up is normalised by the kernel runs right
before and right after it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
from clock import REFERENCE_S, REFERENCE_SHARE, reference_kernel  # noqa: E402
from tracing import DETERMINISTIC_COUNTS, Tracer  # noqa: E402

ROOT = Path.cwd()

# Instance counts are sized so that the spread between seeds, which comes
# mostly from where the few sources land, stays well inside the bounds in
# BENCHMARK.json; instance seeds are 1000 * seed + index.
WORKLOADS = {
    "grid-few": dict(kind="grid", n=900, sources=4, sinks=1, cap_max=100,
                     instances=36),
    "grid-many": dict(kind="grid", n=2000, sources=200, sinks=1, cap_max=100,
                      instances=3),
    "tri-sinks": dict(kind="triangulation", n=1000, sources=32, sinks=5,
                      cap_max=100, instances=6),
}

END_TO_END = {"recursive_s": "s", "sequential_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "generators.generate_s": "s",
    "formats.write_s": "s",
    "formats.parse_s": "s",
    "embedding.graph_builds": "count",
    "embedding.build_s": "s",
    "embedding.insert_vertex_calls": "count",
    "embedding.insert_vertex_s": "s",
    "embedding.induced_subgraph_s": "s",
    "decomposition.divide_calls": "count",
    "decomposition.divide_s": "s",
    "decomposition.triangulate_s": "s",
    "decomposition.attach_s": "s",
    "decomposition.pieces": "count",
    "decomposition.max_boundary": "count",
    "decomposition.max_holes": "count",
    "maxflow.engine_calls": "count",
    "maxflow.engine_s": "s",
    "maxflow.engine_useful_ratio": "ratio",
    "maxflow.reachable_s": "s",
    "maxflow.cut_s": "s",
    "maxflow.bounded_push_calls": "count",
    "maxflow.bounded_push_s": "s",
    "maxflow.bounded_push_useful_ratio": "ratio",
    "flowstate.states_built": "count",
    "flowstate.build_s": "s",
    "flowstate.cancel_s": "s",
    "flowstate.cycles_cancelled": "count",
    "flowstate.drain_s": "s",
    "solver.piece_calls": "count",
    "solver.max_depth": "count",
    "solver.phase1_s": "s",
    "solver.phase2_s": "s",
    "solver.phase2_engine_s": "s",
    "solver.phase3_s": "s",
    "solver.base_case_s": "s",
    "oracle.value_s": "s",
    "oracle.validate_s": "s",
    "cli.solve_s": "s",
    "trace.recursive_s": "s",
    "trace.sequential_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.absent_hooks": "count",
    "trace.slowdown": "ratio",
}

# Per-layer times normalised where they are taken; the other per-layer
# times are normalised by the median slowdown of the traced pass.
NORMALISED = {"generators.generate_s", "formats.write_s", "formats.parse_s",
              "oracle.value_s", "trace.recursive_s", "trace.sequential_s"}

SOLVERS = ("solve_recursive", "sequential_saturation")
CLI_TIMEOUT_S = 120
# Set-up is timed in rounds over all instances until this much set-up time
# has passed, so that a short slow spell of the machine does not decide
# setup_s.
SETUP_MIN_S = 2.0


def load_planarflow():
    """Import the package from the checkout's own sources, or exit."""
    src = ROOT / "src"
    if not (src / "planarflow" / "__init__.py").is_file():
        sys.exit("perfbench: src/planarflow not found; run from the repository root")
    sys.path.insert(0, str(src))
    import planarflow
    return planarflow


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.validate_s = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(what)

    def check(self, pf, inst, state, expected: int, what: str) -> None:
        """Count one solve; fail it unless its flow is valid and maximum."""
        self.attempted += 1
        reason = self.verdict(pf, inst, state, expected)
        if reason is not None:
            self.fail(f"{what}: {reason}")

    def verdict(self, pf, inst, state, expected: int) -> str | None:
        t0 = perf_counter()
        report = pf.validate_flow(inst, state)
        self.validate_s += perf_counter() - t0
        if report:
            return f"validate_flow: {report[0]} ({len(report)} violations)"
        value = pf.flow_value(state, inst.sinks)
        if value != expected:
            return f"flow_value {value} != oracle {expected}"
        sinks = set(inst.sinks)
        head, tail = inst.graph.head, inst.graph.tail
        into_sinks = sum(f for d, f in enumerate(state.flow) if f and head(d) in sinks)
        out_of_sinks = sum(f for d, f in enumerate(state.flow) if f and tail(d) in sinks)
        if into_sinks - out_of_sinks != value:
            return (f"net flow into the sinks {into_sinks - out_of_sinks} "
                    f"!= flow_value {value}")
        return None


def make_instance(pf, spec: dict, inst_seed: int):
    """Generate, write and parse one instance.

    Returns the parsed instance, its PLEM text and the seconds spent in
    generate_instance, write_instance and parse_instance. Objects built
    so far are frozen out of the collector first, so every set-up is timed
    as if it ran in a fresh process.
    """
    gc.collect()
    gc.freeze()
    t0 = perf_counter()
    inst = pf.generate_instance(spec["kind"], spec["n"], inst_seed,
                                spec["cap_max"], spec["sources"])
    t1 = perf_counter()
    if spec["sinks"] > len(inst.sinks):
        # generate_instance makes one sink; add the rest from its own RNG
        rng = random.Random(f"extra-sinks:{inst_seed}")
        taken = set(inst.sources) | set(inst.sinks)
        free = [v for v in range(inst.graph.vertex_count) if v not in taken]
        extra = rng.sample(free, spec["sinks"] - len(inst.sinks))
        inst = pf.Instance(inst.graph, inst.capacities, inst.sources,
                           sorted(inst.sinks + extra))
    t2 = perf_counter()
    text = pf.write_instance(inst)
    t3 = perf_counter()
    parsed = pf.parse_instance(text)
    t4 = perf_counter()
    return parsed, text, (t1 - t0, t3 - t2, t4 - t3)


def set_up(pf, spec: dict, inst_seed: int, before: float):
    """make_instance, normalised by reference kernel runs on either side.

    `before` is the kernel time measured right before. After the set-up
    the kernel runs often enough to take about REFERENCE_SHARE of the
    set-up time, and the median of those runs is the kernel time after.
    Returns the parsed instance, its PLEM text, the normalised (generate,
    write, parse) times, the slowdown and the kernel time after.
    """
    inst, text, parts = make_instance(pf, spec, inst_seed)
    runs = max(1, round(REFERENCE_SHARE * sum(parts) / REFERENCE_S))
    after = statistics.median(reference_kernel() for _ in range(runs))
    slowdown = (before + after) / (2 * REFERENCE_S)
    return inst, text, tuple(t / slowdown for t in parts), slowdown, after


def self_check(pf, tally: Tally, inst, state, expected: int) -> list[str]:
    """The checker must reject a corrupted flow and a valid non-maximum one."""
    problems = []
    flow = list(state.flow)
    dart = next((d for d, f in enumerate(flow) if f > 0), 0)
    flow[dart] += 1
    corrupted = pf.FlowState(inst.graph, inst.capacities, flow)
    if tally.verdict(pf, inst, corrupted, expected) is None:
        problems.append(f"self-check: flow with dart {dart} raised by 1 passed the checker")
    if expected > 0:
        empty = pf.FlowState(inst.graph, inst.capacities)
        if tally.verdict(pf, inst, empty, expected) is None:
            problems.append("self-check: the zero flow passed the checker")
    return problems


def measure(pf, instances, expected, seconds: float, tally: Tally):
    """Solve every instance with both solvers, in passes, for `seconds`.

    The reference kernel runs before, between and after each instance's
    two solves; each solve time is divided by the slowdown shown by the
    kernel runs on either side of it. Returns per-instance lists of
    normalised solve times for each solver, the slowdowns, and the first
    recursive solution of instance 0.
    """
    times = {name: [[] for _ in instances] for name in SOLVERS}
    slowdowns = []
    first = None
    start = perf_counter()
    first_pass = True
    while True:
        for i, inst in enumerate(instances):
            gc.collect()
            before = reference_kernel()
            for name in SOLVERS:
                gc.collect()
                t0 = perf_counter()
                try:
                    state = getattr(pf, name)(inst)
                except pf.PlanarFlowError as exc:
                    tally.attempted += 1
                    tally.fail(f"{name} on instance {i} raised {type(exc).__name__}: {exc}")
                    state = None
                elapsed = perf_counter() - t0
                gc.collect()
                after = reference_kernel()
                if state is not None:
                    slowdown = (before + after) / (2 * REFERENCE_S)
                    slowdowns.append(slowdown)
                    times[name][i].append(elapsed / slowdown)
                    tally.check(pf, inst, state, expected[i], f"{name} on instance {i}")
                    if first is None and i == 0 and name == "solve_recursive":
                        first = state
                before = after
            done_all = not first_pass or i == len(instances) - 1
            if done_all and perf_counter() - start >= seconds:
                return times, slowdowns, first
        first_pass = False


def total_of_medians(per_instance: list[list[float]]) -> float:
    """Time of one pass over the instances, each at its median."""
    return sum(statistics.median(t) for t in per_instance if t)


def traced_pass(pf, instances, expected, tally: Tally):
    """Solve every instance once with both solvers under the tracer.

    Each instance is first solved once untraced by ``solve_recursive``, and
    the tracing overhead compares the raw times of that solve and the
    traced one right after it: adjacent solves share the machine's state,
    and kernel runs around them would add their own noise (README.md).
    The traced times are normalised like the untraced measurement, by the
    reference kernel runs right before and after each solve.

    Returns the tracer, the normalised traced time of each solver over the
    pass, the per-instance ratios of traced to untraced recursive time, the
    slowdowns of the traced solves, and the deterministic counts of each
    recursive solve.
    """
    tracer = Tracer()
    hooks = tracer.solve_trace(pf.SolveTrace)
    elapsed = dict.fromkeys(SOLVERS, 0.0)
    ratios = []
    slowdowns = []
    counts = []
    for i, inst in enumerate(instances):
        gc.collect()
        t0 = perf_counter()
        try:
            state = pf.solve_recursive(inst)
        except pf.PlanarFlowError as exc:
            tally.attempted += 1
            tally.fail(f"solve_recursive on instance {i} raised {type(exc).__name__}: {exc}")
            state = None
        untraced = perf_counter() - t0 if state is not None else 0.0
        if state is not None:
            tally.check(pf, inst, state, expected[i], f"solve_recursive on instance {i}")
        gc.collect()
        before = reference_kernel()
        for name in SOLVERS:
            gc.collect()
            try:
                with tracer.installed():
                    state, seconds, solve_counts = tracer.run(
                        name, getattr(pf, name), inst, engine=tracer.engine,
                        trace=hooks)
            except pf.PlanarFlowError as exc:
                tally.attempted += 1
                tally.fail(f"traced {name} on instance {i} raised "
                           f"{type(exc).__name__}: {exc}")
                continue
            finally:
                gc.collect()
                after = reference_kernel()
            slowdowns.append((before + after) / (2 * REFERENCE_S))
            before = after
            elapsed[name] += seconds / slowdowns[-1]
            if name == "solve_recursive":
                counts.append(solve_counts)
                if untraced > 0:
                    ratios.append(seconds / untraced)
            tally.check(pf, inst, state, expected[i], f"traced {name} on instance {i}")
    return tracer, elapsed, ratios, slowdowns, counts


def cli_solve(pf, inst, text: str, expected: int, tally: Tally) -> float:
    """Time one `planarflow solve` subprocess on a PLEM file; check its flow."""
    work = ROOT / ".perfbench-tmp"
    work.mkdir(exist_ok=True)
    plem = work / "instance.plem"
    try:
        plem.write_text(text)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "planarflow.cli", "solve", str(plem)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S)
        elapsed = perf_counter() - t0
    finally:
        plem.unlink(missing_ok=True)
        work.rmdir()
    tally.attempted += 1
    if proc.returncode != 0:
        tally.fail(f"planarflow solve exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return elapsed
    try:
        dump = pf.parse_flow(proc.stdout)
    except pf.PlanarFlowError as exc:
        tally.fail(f"planarflow solve printed no valid PFLO: {exc}")
        return elapsed
    flow = [0] * inst.graph.dart_count
    for dart, f in dump.dart_flow.items():
        flow[dart] = f
    report = pf.validate_flow(inst, flow)
    if report:
        tally.fail(f"planarflow solve flow: {report[0]}")
    elif dump.value != expected:
        tally.fail(f"planarflow solve printed value {dump.value} != oracle {expected}")
    return elapsed


def emit(correct: bool, tally: Tally, metrics: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pf = load_planarflow()
    spec = WORKLOADS[args.workload]
    problems: list[str] = []
    tally = Tally()

    seeds = [1000 * args.seed + i for i in range(spec["instances"])]
    setups = [[] for _ in seeds]  # per instance: (generate, write, parse) per round
    setup_slowdowns = []
    texts, instances = [], []
    kernel = statistics.median(reference_kernel() for _ in range(3))
    for i, inst_seed in enumerate(seeds):
        inst, text, parts, local, kernel = set_up(pf, spec, inst_seed, kernel)
        setups[i].append(parts)
        setup_slowdowns.append(local)
        texts.append(text)
        instances.append(inst)
        if pf.write_instance(inst) != text:
            problems.append(f"instance {i}: PLEM write/parse round trip differs")
    while sum(sum(p) for runs in setups for p in runs) < SETUP_MIN_S:
        for i, inst_seed in enumerate(seeds):
            _, text, parts, local, kernel = set_up(pf, spec, inst_seed, kernel)
            setups[i].append(parts)
            setup_slowdowns.append(local)
            if text != texts[i]:
                problems.append(f"instance {i}: set-up is not deterministic")

    def setup_total(part: slice) -> float:
        """Sum over instances of each instance's median set-up time."""
        return sum(statistics.median(sum(p[part]) for p in runs) for runs in setups)

    # make_instance froze the set-up objects; the solves run with all of
    # them under the collector, as a process that parsed them would.
    gc.unfreeze()
    t0 = perf_counter()
    expected = [pf.oracle_value(inst) for inst in instances]
    oracle_s = (perf_counter() - t0) / ((kernel + reference_kernel()) / (2 * REFERENCE_S))
    setup_slowdown = statistics.median(setup_slowdowns)

    times, slowdowns, first = measure(pf, instances, expected, args.seconds, tally)
    slowdown = statistics.median(slowdowns)
    if first is not None:
        problems += self_check(pf, tally, instances[0], first, expected[0])
    passes = min(len(t) for t in times["solve_recursive"])
    metrics = {
        "recursive_s": total_of_medians(times["solve_recursive"]),
        "sequential_s": total_of_medians(times["sequential_saturation"]),
        "setup_s": setup_total(slice(0, 3)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = END_TO_END

    if args.trace:
        tally.validate_s = 0.0  # oracle.validate_s covers the traced pass only
        tracer, traced, ratios, traced_slowdowns, counts = traced_pass(
            pf, instances, expected, tally)
        # layer times and validation come from the traced pass alone
        layer_slowdown = statistics.median(traced_slowdowns)
        metrics.update(tracer.metrics())
        metrics.update({
            "generators.generate_s": setup_total(slice(0, 1)),
            "formats.write_s": setup_total(slice(1, 2)),
            "formats.parse_s": setup_total(slice(2, 3)),
            "oracle.value_s": oracle_s,
            "oracle.validate_s": tally.validate_s,
            "trace.recursive_s": traced["solve_recursive"],
            "trace.sequential_s": traced["sequential_saturation"],
            "trace.overhead_frac": statistics.median(ratios) - 1 if ratios else 0.0,
            "trace.absent_hooks": len(tracer.absent),
            "trace.slowdown": layer_slowdown,
        })
        # the same instance solved again in this process must do the same work
        if counts:
            *_, again = traced_pass(pf, instances[:1], expected[:1], tally)
            if again and again[0] != counts[0]:
                problems.append(f"counts differ between two solves of instance 0: "
                                f"{counts[0]} then {again[0]}")
        metrics["cli.solve_s"] = cli_solve(pf, instances[0], texts[0],
                                           expected[0], tally)
        for name in tracer.absent:
            print(f"  absent hook: {name}")
        for i, c in enumerate(counts):
            print(f"  instance {i} counts: " +
                  " ".join(f"{k}={c[k]}" for k in DETERMINISTIC_COUNTS))
        units = PER_LAYER
        for name, unit in PER_LAYER.items():
            metrics.setdefault(name, 0)
            if unit == "s" and name not in NORMALISED:
                metrics[name] /= layer_slowdown

    print(f"perfbench {args.workload} seed {args.seed}: {len(instances)} instances "
          f"({spec['kind']} n={spec['n']}, {spec['sources']} sources, "
          f"{spec['sinks']} sinks, cap_max {spec['cap_max']}), "
          f"{passes} passes, trace {args.trace}, machine slowdown "
          f"median {setup_slowdown:.4f} in set-up, {slowdown:.4f} in measurement")
    print(f"  failed_frac {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} solves)")
    for reason in tally.reasons + problems:
        print(f"  FAIL {reason}")
    emit(tally.failed == 0 and not problems, tally, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
