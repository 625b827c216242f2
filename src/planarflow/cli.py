"""Command-line front end: solve, verify, gen, bench, fig1.

Exit codes: 0 success, 1 verification failure, 2 parse or parameter
error or an output path that cannot be written, 3 solver error. All
randomness flows through one ``--seed`` flag (environment variable
``PLANARFLOW_SEED`` is the fallback).
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import time
from pathlib import Path

from .decomposition import DivisionParams, division_tree
from .errors import InvalidParams, ParseError, PlanarFlowError
from .flowstate import FlowState, flow_value
from .formats import parse_flow, parse_instance, write_flow, write_instance
from .generators import KINDS, generate_instance
from .oracle import load_fig1_fixture, oracle_value, validate_flow
from .solver import (SolveTrace, pairwise_arbitrary_saturation,
                     sequential_saturation, solve_recursive)


def _number(text: str, name: str) -> int:
    """`int(text)`, or InvalidParams naming the key or flag it came from."""
    try:
        return int(text)
    except ValueError:
        raise InvalidParams(f"{name} needs an integer, got {text!r}") from None


# --params key -> DivisionParams field
_PARAM_FIELDS = {"r": "r", "t": "sink_bound", "b": "budget"}


def _parse_params(spec: str | None) -> DivisionParams:
    """Parse ``r=64,t=6,b=8`` style division values; a key may appear once."""
    kwargs = {}
    if spec:
        for item in spec.split(","):
            if not item:
                continue
            if "=" not in item:
                raise InvalidParams(f"bad params item {item!r}")
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in _PARAM_FIELDS:
                raise InvalidParams(f"unknown params key {key!r}")
            field = _PARAM_FIELDS[key]
            if field in kwargs:
                raise InvalidParams(f"repeated params key {key!r}")
            kwargs[field] = _number(val, key)
    return DivisionParams(**kwargs)


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("PLANARFLOW_SEED")
    return _number(env, "PLANARFLOW_SEED") if env else 0


def _read(path: str) -> str:
    """Text of a file, or of stdin for ``-``; ParseError if unreadable."""
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


class _WriteFailed(Exception):
    """An output path could not be written; main exits with code 2."""


def _write_file(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _WriteFailed(f"cannot write {path}: {exc}") from None


def _write_out(text: str, path: str | None) -> None:
    if path and path != "-":
        _write_file(path, text)
    else:
        sys.stdout.write(text)


class _CliTrace(SolveTrace):
    """PFLO phase snapshots and a nested division dump, each optional."""

    def __init__(self, directory: str | None, divisions_path: str | None):
        self.dir = Path(directory) if directory else None
        if self.dir:
            try:
                self.dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise _WriteFailed(f"cannot write {directory}: {exc}") from None
        self.divisions_path = divisions_path
        self.division_lines: list[str] = []
        self.step = 0

    def _dump(self, tag: str, state, sinks) -> None:
        if self.dir is None:
            return
        text = write_flow(state.flow, flow_value(state, sinks))
        _write_file(self.dir / f"step{self.step:04d}_{tag}.pflo", text)
        self.step += 1

    def phase1_done(self, piece, sub_instance, sub_state):
        self._dump("phase1", sub_state, sub_instance.sinks)

    def phase2_done(self, instance, state):
        self._dump("phase2", state, instance.sinks)

    def phase3_done(self, instance, state):
        self._dump("phase3", state, instance.sinks)

    def division_made(self, instance, division, depth: int = 0):
        if self.divisions_path:
            self.division_lines.append(division_tree(division, indent=depth))

    def finish(self) -> None:
        """Write the division dump, also after a solver error; it is empty
        when no division was made."""
        if self.divisions_path:
            _write_file(self.divisions_path,
                        "".join(line + "\n" for line in self.division_lines))


def cmd_solve(args) -> int:
    try:
        inst = parse_instance(_read(args.input))
    except PlanarFlowError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    params = _parse_params(args.params)
    trace = _CliTrace(args.trace, args.divisions)
    try:
        if args.algorithm == "recursive":
            state = solve_recursive(inst, params, trace=trace)
        else:
            state = sequential_saturation(inst)
    except InvalidParams:
        raise  # a parameter error: main reports it with exit code 2
    except PlanarFlowError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        trace.finish()
        return 3
    trace.finish()
    _write_out(write_flow(state.flow, flow_value(state, inst.sinks)), args.output)
    return 0


def cmd_verify(args) -> int:
    try:
        inst = parse_instance(_read(args.input))
        dump = parse_flow(_read(args.flow)) if args.flow else None
    except PlanarFlowError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    params = _parse_params(args.params)

    failures = 0

    def report(ok: bool, check: str, detail: str) -> None:
        nonlocal failures
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'} {check} {detail}")

    oracle = oracle_value(inst)
    if dump is not None:
        flow = [0] * inst.graph.dart_count
        for d, f in dump.dart_flow.items():
            if not 0 <= d < len(flow):
                report(False, "flow-valid", f"dart {d} out of range")
                return 1
            flow[d] = f
        violations = validate_flow(inst, flow)
        report(not violations, "flow-valid",
               "no violations" if not violations else
               f"{len(violations)} violations: {violations[0]}")
        computed = flow_value(
            FlowState(inst.graph, inst.capacities, flow), inst.sinks)
        report(computed == dump.value, "flow-value",
               f"dump={dump.value} computed={computed}")
        report(computed == oracle, "oracle-match",
               f"value={computed} oracle={oracle}")
    else:
        seq = sequential_saturation(inst)
        seq_value = flow_value(seq, inst.sinks)
        report(not validate_flow(inst, seq), "sequential-valid", "")
        report(seq_value == oracle, "sequential-matches-oracle",
               f"value={seq_value} oracle={oracle}")
        try:
            rec = solve_recursive(inst, params)
            rec_value = flow_value(rec, inst.sinks)
            report(not validate_flow(inst, rec), "recursive-valid", "")
            report(rec_value == oracle, "recursive-matches-oracle",
                   f"value={rec_value} oracle={oracle}")
        except InvalidParams:
            raise  # a parameter error: main reports it with exit code 2
        except PlanarFlowError as exc:
            report(False, "recursive-solver", str(exc))
    return 1 if failures else 0


def cmd_gen(args) -> int:
    inst = generate_instance(args.kind, args.n, _default_seed(args.seed),
                             args.cap_max, args.sources)
    _write_out(write_instance(inst), args.output)
    return 0


def cmd_bench(args) -> int:
    sizes = [_number(s, "--sizes") for s in args.sizes.split(",") if s]
    if sizes != sorted(sizes):
        raise InvalidParams("sizes must be ascending")
    seeds = ([_number(s, "--seeds") for s in (args.seeds or "").split(",")
              if s] or [_default_seed(None)])
    params = _parse_params(args.params)
    print(f"{'n':>10} {'seed':>6} {'time_s':>10} {'value':>10}")
    points = []
    for n in sizes:
        for seed in seeds:
            inst = generate_instance("grid", n, seed, args.cap_max, args.sources)
            t0 = time.perf_counter()
            state = solve_recursive(inst, params)
            elapsed = time.perf_counter() - t0
            value = flow_value(state, inst.sinks)
            actual_n = inst.graph.vertex_count
            print(f"{actual_n:>10} {seed:>6} {elapsed:>10.3f} {value:>10}")
            points.append((actual_n, elapsed))
    # repeated sizes, or distinct ones that make the same grid, give one
    # vertex count: no slope to fit
    if len({n for n, _ in points}) >= 2:
        xs = [math.log(n) for n, _ in points]
        ys = [math.log(max(t, 1e-9)) for _, t in points]
        print(f"exponent {statistics.linear_regression(xs, ys).slope:.3f}")
    else:
        print("exponent n/a")
    return 0


def cmd_fig1(args) -> int:
    if args.search is not None:
        if args.search < 1:
            raise InvalidParams(f"--search needs at least 1 seed, got {args.search}")
        from .oracle import build_fig1_counterexample

        try:
            inst, order = build_fig1_counterexample(args.search)
        except PlanarFlowError as exc:
            print(f"search failed: {exc}", file=sys.stderr)
            return 3
    else:
        inst, order = load_fig1_fixture()
    _write_out(write_instance(inst), args.output)
    state = pairwise_arbitrary_saturation(inst, order)
    print(f"# oracle={oracle_value(inst)} "
          f"pairwise={flow_value(state, inst.sinks)} order={order}",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="planarflow",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("solve", help="compute a maximum flow for a PLEM instance")
    p.add_argument("input", help="PLEM file, or - for stdin")
    p.add_argument("--algorithm", choices=("recursive", "sequential"),
                   default="recursive")
    p.add_argument("--params", help="division values, e.g. r=64,t=6,b=8")
    p.add_argument("--trace", help="directory for per-phase PFLO snapshots")
    p.add_argument("--divisions", metavar="PATH",
                   help="write a nested text dump of every division made")
    p.add_argument("-o", "--output", help="PFLO output path (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="validate a flow or cross-check solvers")
    p.add_argument("input", help="PLEM file, or - for stdin")
    p.add_argument("--flow", help="PFLO file to validate against the instance")
    p.add_argument("--params", help="division values, e.g. r=64,t=6,b=8")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--kind", choices=KINDS, default="grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--cap-max", type=int, default=100)
    p.add_argument("--sources", type=int, default=1)
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time the recursive solver on grids")
    p.add_argument("--sizes", required=True, help="comma list, ascending")
    p.add_argument("--seeds", help="comma list of seeds (default one seed)")
    p.add_argument("--cap-max", type=int, default=10)
    p.add_argument("--sources", type=int, default=4)
    p.add_argument("--params", help="division values, e.g. r=64,t=6,b=8")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fig1", help="emit the pair-order counterexample fixture")
    p.add_argument("--search", type=int, metavar="SEEDS",
                   help="re-run the bounded search instead of using the fixture")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_fig1)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvalidParams as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except _WriteFailed as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
