"""The benchmark's own tests: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import chmv  # noqa: E402
import chmv.cli  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_smoke_runs_every_workload_with_its_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.count("workload shape checks hold") == 3


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracer.METRICS
    assert all(m["unit"] == tracer.unit_of(m["name"]) for m in spec["per_layer"])


@pytest.mark.parametrize("workload", ["algebra-eval", "cli-queries"])
def test_traced_counts_repeat_for_one_seed(workload, tmp_path):
    def traced_counts():
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3",
             "--mode", "pass", "--smoke", "--trace-out", str(tmp_path / "spans.bin")],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env={"PYTHONHASHSEED": "0", "PATH": ""})
        assert proc.returncode == 0, proc.stderr
        layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
        return {k: v for k, v in layers.items() if k.endswith((".calls", ".items", ".built"))}

    first = traced_counts()
    assert any(first.values())
    assert traced_counts() == first


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-queries",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_evaluator_knows_mv_identities():
    rng = random.Random(0)
    for _ in range(200):
        a, b = Fraction(rng.randint(0, 6), 6), Fraction(rng.randint(0, 4), 4)
        env = {"x": (a,), "y": (b,)}
        assert workloads.ref_eval(("oplus", ("neg", ("var", "x")), ("var", "x")), env, 0) == 1
        assert workloads.ref_eval(("odot", ("var", "x"), ("neg", ("var", "x"))), env, 0) == 0
        implies = workloads.ref_eval(("implies", ("var", "x"), ("var", "y")), env, 0)
        assert implies == min(1 - a + b, 1)


def test_term_text_parses_back_to_the_same_tree():
    dsl = chmv.dsl

    def tree(t):
        kind = t[0]
        if kind == "var":
            return dsl.Var(t[1])
        if kind == "const":
            return dsl.Const(t[1])
        if kind == "neg":
            return dsl.Neg(tree(t[1]))
        return dsl.BinOp(kind, tree(t[1]), tree(t[2]))

    rng = random.Random(1)
    for depth in range(7):
        t = workloads.random_term(rng, depth, ("x", "y", "z"))
        assert dsl.parse_term(workloads.term_text(t)) == tree(t)


@pytest.mark.parametrize("build", [workloads.algebra_eval_ops, workloads.cli_queries_ops])
def test_checks_reject_a_wrong_output(build):
    """Every op's check accepts the program's output and rejects a corrupted one."""
    for op in build(chmv, 5, True)[0]:
        result = op.call()
        assert op.check(result) is None
        assert op.check(corrupt(result)) is not None, op.kind


def corrupt(result):
    if isinstance(result, list):  # hom images: shift one coordinate of the first image
        first = result[0]
        return [corrupt(first)] + result[1:]
    if isinstance(result, tuple):  # CLI (exit code, stdout)
        code, text = result
        doc = json.loads(text)
        payload = doc["payload"]
        if "count" in payload:
            payload["count"] += 1
        elif "coords" in payload:
            label = next(iter(payload["coords"]))
            value = Fraction(payload["coords"][label])
            payload["coords"][label] = str(1 - value if value != Fraction(1, 2) else 0)
        elif "profile" in payload:
            payload["profile"]["entries"] = payload["profile"]["entries"][:-1] + [{"mult": "7"}]
        else:
            payload["dual"] += " * L2"
        return code, json.dumps(doc)
    coords = list(result.coords)
    coords[0] = 1 - coords[0] if coords[0] != Fraction(1, 2) else Fraction(0)
    return type("Wrong", (), {"coords": tuple(coords), "algebra": result.algebra})()
