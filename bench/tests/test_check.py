"""``--check``: one tiny block per run, untraced and traced, on every
workload — what is printed must be exactly what BENCHMARK.json declares."""

import json
import os
import re
import subprocess
import sys

from bench import load_spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_every_declared_metric_is_printed_with_its_unit():
    spec = load_spec()
    runs = {
        w["name"]: subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--check", "--workload", w["name"]],
            stdout=subprocess.PIPE,
            text=True,
        )
        for w in spec["workloads"]
    }
    for workload, process in runs.items():
        output, _ = process.communicate(timeout=120)
        assert process.returncode == 0, output
        results = [json.loads(line) for line in output.splitlines() if line.startswith("{")]
        assert len(results) == 2, output
        for result, declared in zip(results, (spec["end_to_end"], spec["per_layer"])):
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            units = {m["name"]: m["unit"] for m in declared}
            assert set(result["metrics"]) == set(units), workload
            for name, metric in result["metrics"].items():
                assert NAME.match(name)
                assert metric["unit"] == units[name]
                assert isinstance(metric["value"], float)
    leftovers = [n for n in os.listdir(os.path.join(ROOT, "bench", "out")) if n.startswith("run-")]
    assert not leftovers
