"""One workload's closed loop, run in a child process of ``run.py``.

One client: each op starts when the previous one has finished.  An op is
one CLI invocation's work -- ``load_scenario`` plus ``run_command`` -- timed
from the outside; writing its inputs, clearing its output directory and
checking its outputs happen between ops and are not timed.

Usage (normally started by run.py, from the checkout root):
    python bench/workload.py --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR

Prints one JSON object on its last stdout line: correct, attempted, failed,
metrics and info.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads as wl
from calibration import Calibrator
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_study.json"

MIN_OPS = 100  # the p90 needs at least 10 ops beyond it
# A --trace 0 run times a fixed set of at least MIN_OPS ops: it runs each
# once (round 1), then reruns them in rounds until the run's time is up,
# each rerun round in its own seeded random order.  Every run's wall time is
# scaled to the reference host speed by the calibration samples taken next
# to it (see calibration.py), and an op's time is the median of its scaled
# runs, so a run preempted or slowed by a short burst on the host does not
# count, and the number of rounds that fit does not bias it.
RERUN_DIFFERS = "summary.json differs from the first run with the same inputs"


@dataclass(frozen=True)
class Op:
    kind: str
    scenario: Path
    command: str
    policy: str | None = None
    seed: int | None = None
    samples: int | None = None


@dataclass
class Outcome:
    op: Op
    seconds: float
    started: float = 0.0
    raw: bytes | None = None
    payload: dict | None = None
    error: str | None = None
    bytes_written: int = 0


class Program:
    """The ``coexist`` entry points an op calls, looked up at call time so a tracer can wrap them."""

    def __init__(self) -> None:
        import coexist
        import coexist.cli
        import coexist.config

        src = (ROOT / "src").resolve()
        if src not in Path(coexist.__file__).resolve().parents:
            raise SystemExit(f"coexist imported from {coexist.__file__}, not from {src}")
        self.cli = coexist.cli
        self.config = coexist.config

    def op(self, op: Op, out_dir: Path) -> None:
        scenario = self.config.load_scenario(op.scenario)
        self.cli.run_command(
            scenario, op.command, out_dir, seed=op.seed, samples=op.samples, policy=op.policy
        )


class Runner:
    def __init__(self, program: Program, work: Path):
        self.program = program
        self.out_root = work / "out"
        self.tracer: Tracer | None = None
        self.next_op_id = 0
        self.bytes_traced = 0

    def execute(self, op: Op) -> Outcome:
        out_dir = self.out_dir(op)
        if out_dir.exists():
            shutil.rmtree(out_dir)
        out_dir.mkdir(parents=True)
        op_id = self.next_op_id
        self.next_op_id += 1
        error = None
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                self.program.op(op, out_dir)
            else:
                self.tracer.run_op(op_id, self.program.op, op, out_dir)
        except Exception as exc:  # any failure of the program is a failed op
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        outcome = Outcome(op=op, seconds=seconds, started=t0, error=error)
        outcome.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
        if self.tracer is not None:
            self.bytes_traced += outcome.bytes_written
        if error is None:
            try:
                outcome.raw, outcome.payload = checks.read_summary(out_dir)
            except checks.CheckFailed as exc:
                outcome.error = str(exc)
        return outcome

    def out_dir(self, op: Op) -> Path:
        return self.out_root / op.kind


class McWorkload:
    """validate-mc ops, one per batch, each with its own seed."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed = name, seed
        self.scenario_path = wl.mc_scenario_path(ROOT, name, work / "inputs")
        self.moments = checks.truncated_moments(json.loads(self.scenario_path.read_text()))
        self.samples = wl.MC_SAMPLES[name]
        self.estimates: list[tuple[float, float]] = []
        self.pooled = {}

    def preamble(self) -> list[tuple[Op, dict]]:
        return []

    def batch(self, index: int) -> list[tuple[Op, dict]]:
        op = Op("validate-mc", self.scenario_path, "validate-mc",
                seed=wl.op_seed(self.name, self.seed, index), samples=self.samples)
        return [(op, {})]

    def check(self, runner: Runner, batch: list, outcomes: list[Outcome], replay: bool) -> None:
        for outcome in outcomes:
            if outcome.error is not None:
                continue
            try:
                estimate = checks.check_mc_op(
                    runner.out_dir(outcome.op), outcome.payload, outcome.op.seed,
                    self.samples, self.moments,
                )
            except checks.CheckFailed as exc:
                outcome.error = str(exc)
                continue
            if not replay:
                self.estimates.append(estimate)

    def finish(self) -> int:
        """Pooled check over every distinct op; returns how many ops it fails."""
        try:
            z_mean, z_var = checks.pooled_z(self.estimates, self.moments)
        except checks.CheckFailed as exc:
            self.pooled = {"error": str(exc)}
            return max(len(self.estimates), 1)
        ok = z_mean < checks.POOLED_Z_MAX and z_var < checks.POOLED_Z_MAX
        self.pooled = {"ops": len(self.estimates), "z_mean": z_mean, "z_variance": z_var, "ok": ok}
        return 0 if ok else len(self.estimates)

    def info(self) -> dict:
        return {"op_size": f"validate-mc, {self.samples} samples", "pooled_check": self.pooled}


class StudyWorkload:
    """Seven CLI runs per batch (one study pass) on scenarios drawn per pass."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.inputs = work / "inputs"

    def _ops(self, paths: dict) -> list[Op]:
        return [Op(kind, paths[key], command, policy=policy)
                for kind, key, command, policy in wl.STUDY_RUNS]

    def preamble(self) -> list[tuple[Op, dict]]:
        paths = {"radar": wl.fixture_path(ROOT, "type_b_radar"),
                 "wifi": wl.fixture_path(ROOT, "wifi_sharing")}
        return [(op, {"reference": True}) for op in self._ops(paths)]

    def batch(self, index: int) -> list[tuple[Op, dict]]:
        generated = wl.write_study_pass(ROOT, self.inputs, self.seed, index)
        return [(op, {"draw": generated["draw"]}) for op in self._ops(generated["paths"])]

    def check(self, runner: Runner, batch: list, outcomes: list[Outcome], replay: bool) -> None:
        contexts = [ctx for _op, ctx in batch]
        reference = json.loads(REFERENCE_FILE.read_text()) if contexts[0].get("reference") else None
        for outcome, ctx in zip(outcomes, contexts):
            if outcome.error is not None:
                continue
            try:
                checks.check_study_op(runner.out_dir(outcome.op), outcome.payload,
                                      outcome.op.command, ctx.get("draw"))
                if reference is not None:
                    checks.compare_reference(outcome.payload["results"], reference[outcome.op.kind])
            except checks.CheckFailed as exc:
                outcome.error = str(exc)
        multi = [o for o in outcomes if o.op.command == "protect-multi"]
        if all(o.error is None for o in multi):
            try:
                checks.check_area_order({o.op.kind: o.payload["results"]["area_m2"] for o in multi})
            except checks.CheckFailed as exc:
                for o in multi:
                    o.error = str(exc)

    def finish(self) -> int:
        return 0

    def info(self) -> dict:
        return {"op_size": "one CLI run (load_scenario + run_command); 7 per study pass"}


def run_batch(workload, runner: Runner, batch: list[tuple[Op, dict]],
              all_outcomes: list[Outcome], replay: bool = False) -> list[Outcome]:
    """Run and check one batch of ops; ``replay`` marks reruns of earlier inputs."""
    outcomes = [runner.execute(op) for op, _ctx in batch]
    workload.check(runner, batch, outcomes, replay)
    all_outcomes.extend(outcomes)
    return outcomes


def run_new(workload, runner: Runner, index: int, enough, all_outcomes: list[Outcome],
            before_batch=lambda: None) -> tuple[list, int]:
    """Run new batches from ``index`` until ``enough(elapsed_s, op_count)``.

    Returns the batches with their outcomes, and the next index.
    """
    batches: list[tuple[list, list[Outcome]]] = []
    ops = 0
    start = time.perf_counter()
    while not enough(time.perf_counter() - start, ops):
        before_batch()
        batch = workload.batch(index)
        outcomes = run_batch(workload, runner, batch, all_outcomes)
        batches.append((batch, outcomes))
        ops += len(outcomes)
        index += 1
    return batches, index


def measure(workload, runner: Runner, seconds: float, seed: int, calibrator: Calibrator,
            all_outcomes: list[Outcome]) -> tuple[list[float], list[float], int, int]:
    """Time at least MIN_OPS ops in rounds for ``seconds``; see MIN_OPS.

    Every rerun must write the same summary.json bytes as its op's first run.
    Returns each op's median scaled time and median wall time, the next
    batch index and the number of rounds begun.
    """
    deadline = time.perf_counter() + seconds
    batches, index = run_new(workload, runner, 1, lambda t, n: n >= MIN_OPS, all_outcomes,
                             calibrator.tick)
    runs = [[outcome] for _batch, outcomes in batches for outcome in outcomes]
    offsets = [0]
    for _batch, outcomes in batches[:-1]:
        offsets.append(offsets[-1] + len(outcomes))
    order = list(range(len(batches)))
    rounds = 1
    while time.perf_counter() < deadline:
        rounds += 1
        random.Random(f"rerun:{seed}:{rounds}").shuffle(order)
        for position in order:
            if time.perf_counter() >= deadline:
                break
            calibrator.tick()
            batch, firsts = batches[position]
            outcomes = run_batch(workload, runner, batch, all_outcomes, replay=True)
            require_same_bytes(firsts, outcomes)
            for k, outcome in enumerate(outcomes):
                runs[offsets[position] + k].append(outcome)
    calibrator.sample()
    scaled = [statistics.median(o.seconds * calibrator.factor(o.started) for o in op_runs)
              for op_runs in runs]
    wall = [statistics.median(o.seconds for o in op_runs) for op_runs in runs]
    return scaled, wall, index, rounds


def time_figures(times: list[float]) -> dict[str, float]:
    """ops_per_s, op_p50_s and op_p90_s of per-op times."""
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10)[8],
    }


def require_same_bytes(firsts: list[Outcome], reruns: list[Outcome]) -> None:
    """Fail every rerun whose summary.json differs from its first run's."""
    for first, again in zip(firsts, reruns):
        if again.error is None and again.raw != first.raw:
            again.error = RERUN_DIFFERS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    program = Program()
    from coexist import _mc_kernels
    import numpy
    import scipy

    work = args.work_dir
    runner = Runner(program, work)
    if args.workload == "study-suite":
        workload = StudyWorkload(args.seed, work)
    else:
        workload = McWorkload(args.workload, args.seed, work)
    outcomes: list[Outcome] = []

    # preamble: the reference pass on the unmodified fixtures (study-suite)
    run_batch(workload, runner, workload.preamble(), outcomes)

    # the first batch warms up; the last batch replays it and must write the same bytes
    first_batch = workload.batch(0)
    first_out = run_batch(workload, runner, first_batch, outcomes)
    metrics: dict[str, float] = {}
    if args.trace:
        half = args.seconds / 2.0
        untraced, index = run_new(workload, runner, 1, lambda t, n: t >= half, outcomes)
        runner.tracer = Tracer()
        runner.tracer.install()
        try:
            traced, index = run_new(workload, runner, index, lambda t, n: t >= half, outcomes)
        finally:
            runner.tracer.uninstall()
        metrics.update(layer_metrics(runner.tracer, runner.bytes_traced))
        untraced_times = [o.seconds for _batch, batch_out in untraced for o in batch_out]
        traced_times = [o.seconds for _batch, batch_out in traced for o in batch_out]
        untraced_rate = len(untraced_times) / sum(untraced_times)
        traced_rate = len(traced_times) / sum(traced_times)
        metrics["trace.untraced_ops_per_s"] = untraced_rate
        metrics["trace.overhead_ratio"] = untraced_rate / traced_rate - 1.0
        runner.tracer.write_spans(work / "spans.csv.gz")
        op_count = len(untraced_times) + len(traced_times)
        runner.tracer = None
    else:
        calibrator = Calibrator(wl.CALIBRATION_PARTS[args.workload])
        times, wall, index, rounds = measure(workload, runner, args.seconds, args.seed,
                                             calibrator, outcomes)
        op_count = len(times)

    require_same_bytes(first_out, run_batch(workload, runner, first_batch, outcomes, replay=True))
    deterministic = not any(o.error == RERUN_DIFFERS for o in outcomes)

    failed = sum(o.error is not None for o in outcomes) + workload.finish()
    attempted = len(outcomes)
    if not args.trace:
        metrics.update(time_figures(times))
        metrics.update({
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "success_ratio": 1.0 - failed / attempted,
        })
    errors = [f"{o.op.kind}: {o.error}" for o in outcomes if o.error is not None]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_count": op_count,
        "rounds": None if args.trace else rounds,
        "wall_time_figures": None if args.trace else time_figures(wall),
        "calibration": None if args.trace else {
            "parts": wl.CALIBRATION_PARTS[args.workload],
            "reference_s": calibrator.reference_s,
            "samples": len(calibrator.samples),
            "median_s": statistics.median(calibrator.samples),
        },
        "determinism_check": deterministic,
        "first_errors": errors[:5],
        "backend": _mc_kernels.resolve_backend(),
        "numba_present": _mc_kernels.HAS_NUMBA,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    info.update(workload.info())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }
    shutil.rmtree(runner.out_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
