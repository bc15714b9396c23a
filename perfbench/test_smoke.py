"""Smoke test of the benchmark harness on a tiny input.

Run from the root of a checkout:

    python3 -m unittest perfbench/test_smoke.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that the tracer leaves no wrapper behind, and that the harness
refuses to run without the library's sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import build_config  # noqa: E402

run.import_library()

# copies=2 and two gamma points, with few, short restarts.
TINY_SOLVE = {"restarts": 2, "max_outer_rounds": 20}


def bindings():
    """Every name bound in a seesawqec module, and the traced classes' __init__."""
    from seesawqec.channels import Channel
    from seesawqec.codes import Isometry

    out = {(key, attr): value for key, mod in sys.modules.items()
           if key == "seesawqec" or key.startswith("seesawqec.")
           for attr, value in vars(mod).items()}
    for cls in (Channel, Isometry):
        out[(cls.__qualname__, "__init__")] = cls.__dict__["__init__"]
    return out


class HarnessSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        cls.units = {trace: {m["name"]: m["unit"] for m in bench[key]}
                     for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
        cls.configs = {
            "seesaw_sweep": build_config("seesaw_sweep", 0, solve=TINY_SOLVE, copies=2),
            "fixed_code_sweep": build_config("fixed_code_sweep", 0, steps=2),
        }

    def measure(self, workload, trace):
        detail, result = run.measure(workload, self.configs[workload], 0, 0.0, trace)
        self.assertTrue(result["correct"], detail["problems"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(emitted, self.units[trace])
        for name, m in result["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)
        return detail, result

    def test_end_to_end_metrics(self):
        for workload in self.configs:
            with self.subTest(workload=workload):
                detail, _ = self.measure(workload, 0)
                self.assertEqual(len(detail["points"]), 2)
                self.assertTrue(detail["environment"]["numpy"])

    def test_per_layer_metrics_and_wrappers_removed(self):
        before = bindings()
        for workload in self.configs:
            with self.subTest(workload=workload):
                _, result = self.measure(workload, 1)
                self.assertGreater(result["metrics"]["cli.write_csv.bytes"]["value"], 0)
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as root:
            shutil.copytree(HERE, os.path.join(root, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "seesaw_sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
