"""The benchmark's tracer and the walkthrough script still fit the package.

Both reach into algint by name from outside the test paths: the tracer
wraps functions and reads attributes of their arguments and results, and
the script imports and prints the worked examples.  A rename or deletion
in the package must show up here rather than only when they are run.
"""
import importlib.util
import json
import pathlib
import subprocess
import sys

from algint.cli import run_record

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_tracer():
    # looks up every wrapped name at import, so a missing one fails here
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _desk_record(name):
    for line in (ROOT / "data" / "desk_corpus.jsonl").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            record = json.loads(line)
            if record["name"] == name:
                return record
    raise KeyError(name)


def test_tracer_runs_a_desk_record_and_restores_the_package():
    tracer = _load_tracer()
    record = _desk_record("legendre-period")
    plain = run_record(record)
    with tracer.installed(tracer.Tracer()) as tr:
        # the hooks read Decomposer._complements, outcome.status and order
        traced = tracer.cli.run_record(record)
    tracer.check_pristine()
    assert traced == plain
    assert plain["status"] == "ok"
    assert tr.counts["telescoper.order.max"] == 2
    assert tr.stats["polyred.complement"][0] > 0
    assert sum(tr.counts[f"hermite.steps.{kind}"]
               for kind in ("unique", "underdetermined", "inconsistent")) > 0
    assert set(tracer.layer_metrics(tr)) >= {"polyred.complement.hit_ratio",
                                             "hermite.update.yield"}


def test_worked_examples_script_runs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "worked_examples.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "order: 2" in done.stdout


def test_a_traced_record_counts_the_same_steps_on_kept_step_systems():
    # the second pass finds the curve's step systems kept and solves fewer
    # systems, but every step still goes through the traced hermite_step
    tracer = _load_tracer()
    record = _desk_record("legendre-period")
    passes = []
    for _ in range(2):
        with tracer.installed(tracer.Tracer()) as tr:
            assert tracer.cli.run_record(record)["status"] == "ok"
        tracer.check_pristine()
        passes.append(tr)
    steps = [
        {kind: tr.counts[f"hermite.steps.{kind}"]
         for kind in ("unique", "underdetermined", "inconsistent")}
        for tr in passes
    ]
    assert steps[0] == steps[1] and steps[0]["unique"] > 0
    solves = [tr.stats["linalg.solve_mod"][0] for tr in passes]
    assert solves[1] < solves[0]
