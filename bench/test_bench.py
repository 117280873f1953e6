"""Self-tests of the benchmark itself (not of coexist).

Run from the checkout root:
    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibration  # noqa: E402
import tracing  # noqa: E402
import workload as child  # noqa: E402
import workloads as wl  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_generator_is_deterministic_per_seed(tmp_path):
    for workload in ("mc-directional", "mc-dense"):
        seeds = [wl.op_seed(workload, 7, i) for i in range(20)]
        assert seeds == [wl.op_seed(workload, 7, i) for i in range(20)]
        assert seeds != [wl.op_seed(workload, 8, i) for i in range(20)]
        assert len(set(seeds)) == len(seeds)
    assert wl.study_draw(7, 3) == wl.study_draw(7, 3)
    assert wl.study_draw(7, 3) != wl.study_draw(8, 3)
    files = {}
    for run in ("a", "b", "c"):
        seed = 8 if run == "c" else 7
        written = wl.write_study_pass(ROOT, tmp_path / run, seed, 2)
        files[run] = {k: p.read_bytes() for k, p in written["paths"].items()}
    assert files["a"] == files["b"]
    assert files["a"] != files["c"]
    dense = [wl.mc_scenario_path(ROOT, "mc-dense", tmp_path / run).read_bytes() for run in "ab"]
    assert dense[0] == dense[1]


def test_study_draws_cover_each_stratum_once_per_block():
    for block in range(2):
        first = 1 + block * wl.STUDY_STRATA
        units = [wl._study_units(7, i) for i in range(first, first + wl.STUDY_STRATA)]
        for k in range(3):
            strata = sorted(int(u[k] * wl.STUDY_STRATA) for u in units)
            assert strata == list(range(wl.STUDY_STRATA))


def test_calibration_scales_by_the_nearest_samples():
    cal = calibration.Calibrator(("numpy", "page_faults"))
    assert cal.reference_s == calibration.PARTS["numpy"] + calibration.PARTS["page_faults"]
    cal.stamps = [float(i) for i in range(12)]
    cal.samples = [cal.reference_s] * 6 + [2 * cal.reference_s] * 6
    assert cal.factor(1.0) == 1.0  # host at reference speed: times unchanged
    assert cal.factor(11.0) == 0.5  # host twice as slow: times halved
    assert cal.sample() > 0
    with pytest.raises(ValueError):
        calibration.Calibrator(("numpy", "no-such-part"))


def test_every_metric_name_is_well_formed():
    declared = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    declared += [w["name"] for w in SPEC["workloads"]]
    assert len(declared) == len(set(declared))
    for name in declared:
        assert NAME_RE.fullmatch(name), name
    # every per-layer metric is produced by the tracer or the import probe, and documented
    tracer = tracing.Tracer()
    tracer.spans.append((0, 1, 0, tracing.ROOT_LAYER, "op", 0, 10))
    produced = set(tracing.layer_metrics(tracer, 0))
    produced |= {"import.total_s", "import.scipy_s", "trace.untraced_ops_per_s", "trace.overhead_ratio"}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert per_layer == produced
    documented = json.loads((HERE / "metrics.json").read_text())
    assert set(documented["per_layer"]) == per_layer
    assert set(documented["workloads"]) == {w["name"] for w in SPEC["workloads"]}


class CorruptingProgram(child.Program):
    """Runs the real op, then damages what it wrote."""

    def __init__(self, damage):
        super().__init__()
        self.damage = damage

    def op(self, op, out_dir):
        super().op(op, out_dir)
        self.damage(out_dir / "summary.json")


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:40])


def _wrong_samples(path: Path) -> None:
    payload = json.loads(path.read_text())
    payload["results"]["n_samples"] += 1
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("damage", [_truncate, _wrong_samples, lambda p: p.unlink()])
def test_corrupted_summary_counts_as_failed_op(tmp_path, damage):
    runner = child.Runner(CorruptingProgram(damage), tmp_path)
    workload = child.McWorkload("mc-directional", 3, tmp_path)
    op = child.Op("validate-mc", workload.scenario_path, "validate-mc", seed=11, samples=20)
    workload.samples = 20
    outcomes = child.run_batch(workload, runner, [(op, {})], [])
    assert outcomes[0].error is not None
    assert workload.estimates == []


def test_intact_summary_passes(tmp_path):
    runner = child.Runner(child.Program(), tmp_path)
    workload = child.StudyWorkload(3, tmp_path)
    batch = workload.preamble()
    outcomes = child.run_batch(workload, runner, batch, [])
    assert [o.error for o in outcomes] == [None] * len(batch)


def test_traced_self_times_sum_to_op_duration(tmp_path):
    runner = child.Runner(child.Program(), tmp_path)
    workload = child.StudyWorkload(5, tmp_path)
    batch = [b for b in workload.batch(0) if b[0].kind != "protect-multi-main-side-lobe"]
    runner.tracer = tracing.Tracer()
    runner.tracer.install()
    try:
        outcomes = [runner.execute(op) for op, _ctx in batch]
    finally:
        runner.tracer.uninstall()
    assert all(o.error is None for o in outcomes)
    spans = runner.tracer.spans
    durations = tracing.op_durations_ns(spans)
    assert len(durations) == len(batch)
    self_ns = tracing.self_times_ns(spans)
    for op_id, duration in durations.items():
        layers = {layer: ns for (op, layer), ns in self_ns.items() if op == op_id}
        assert sum(layers.values()) == duration
        assert all(ns >= 0 for ns in layers.values())
        assert {"config", "cli"} <= set(layers)
    touched = {layer for (_op, layer) in self_ns}
    assert {"numerics", "propagation", "protection_multi", "wifi_link"} <= touched
    # uninstall restores the program's own functions
    import coexist.cli
    import coexist.protection_multi

    assert not hasattr(coexist.cli.run_command, "__wrapped__")
    assert not hasattr(coexist.protection_multi.solve_root, "__wrapped__")
