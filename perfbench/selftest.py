"""Self-test of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Checks the self-time arithmetic on a hand-built span tree, the tail rule,
the best-latency mix, the Philox draw count, that a very short run of
every workload prints every metric BENCHMARK.json names with its unit, and
that the benchmark refuses to run without the program's source.  The short runs take a minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from benchtrace import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("root", 0, 100, None, "op0"),
        Span("a", 10, 40, 0, "op0"),
        Span("b", 30, 60, 0, "op0"),  # overlaps a: the overlap counts once
        Span("a.child", 15, 20, 1, "op0"),
        Span("late", 90, 120, 0, "op0"),  # runs past its parent: clipped at 100
    ]
    # root is covered on [10, 60] and [90, 100]
    assert self_times(spans) == [40, 25, 30, 5, 30]


def test_tracer_nests_spans_and_stamps_the_op():
    tracer = Tracer()
    tracer.op = "op7"
    with tracer.span("outer"):
        with tracer.span("inner", k=3):
            pass
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert inner.attrs == {"k": 3} and inner.op == "op7"
    assert outer.start <= inner.start <= inner.end <= outer.end
    own = self_times(tracer.spans)
    assert own[0] == outer.ns - inner.ns and own[1] == inner.ns


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    from run import tail

    assert tail([float(x) for x in range(1, 31)]) == (20.0, "p66")
    assert tail([float(x) for x in range(1, 16)]) == (8.0, "p50")


def test_best_seconds_takes_each_shape_at_its_fastest_op():
    from benchops import Op, Outcome
    from run import best_seconds

    fast, slow = Op("predict", "ar1", [], 20), Op("predict", "htilde", [], 20)
    outcomes = [Outcome(fast, s, 0, "") for s in (3.0, 1.0, 2.0)] + [Outcome(slow, 10.0, 0, "")]
    # three ar1 ops at their fastest, 1 s, and the one htilde op at 10 s
    assert best_seconds(outcomes) == 13.0


def test_philox_position_counts_64_bit_draws():
    from benchops import philox_position

    from rmtlaw import replicate_stream

    stream = replicate_stream(3, 4)
    assert philox_position(stream) == 0
    stream.random(5)
    assert philox_position(stream) == 5
    stream.random(3)
    assert philox_position(stream) == 8


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
# spectrum-wide and cli-cold are not in BENCHMARK.json, but they still run
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]]
                         + ["spectrum-wide", "cli-cold"])
def test_short_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    text = "\n".join(lines[:-1])
    for m in want:
        assert m["name"] in text
    assert lines[0].startswith("provenance ")
    if not trace:
        assert "failed_share" in text


def test_refuses_to_run_without_the_program():
    work = BENCH / ".work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        proc = _run(bare, "predict-table", 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
