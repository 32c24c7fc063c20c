"""The repository benchmark.

    python3 perfbench/run.py --workload fig11-campaign --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen and
which layers it should load or bypass):

* ``fig11-campaign`` — ``repro.experiments.fig11.run`` at the paper's
  shape, on the array path;
* ``zoo-chaos`` — ``repro.schedulers.compare.run_compare`` with chaos
  faults, on the reference event loop;
* ``serve-durable`` — a ``repro serve --journal`` process driven
  open-loop by one client process.

With ``--trace 0`` the run reports every end-to-end metric; with
``--trace 1`` it also makes a traced pass and reports every per-layer
metric, including the traced-minus-untraced overhead.  Human-readable
lines (named figures such as ``sim_tasks_per_s``, the checks, the
environment stamp) come first; the last line of standard output is one
JSON object::

    {"correct": true, "attempted": 84, "failed": 0, "metrics": {...}}

Each run also writes its full record, environment included, to
``.perfbench_out/results/`` and, when traced, its spans to
``.perfbench_out/spans/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import OUT, ROOT, Outcome, ensure_program, environment  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("fig11-campaign", "zoo-chaos", "serve-durable")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    from perfbench import serve, sims

    if name == "fig11-campaign":
        return sims.measure(sims.fig11_workload(), seed, seconds, trace)
    if name == "zoo-chaos":
        return sims.measure(sims.zoo_workload(), seed, seconds, trace)
    return serve.measure(seed, seconds, trace, workdir=OUT / f"run-{os.getpid()}")


def result_line(outcome: Outcome, trace: bool) -> dict:
    """The final JSON object: every metric of the run's kind."""
    catalogue = PER_LAYER if trace else END_TO_END
    values = outcome.per_layer if trace else outcome.end_to_end
    metrics = {}
    for name, unit, *_ in catalogue:
        value = float(values[name])
        if not math.isfinite(value):
            raise SystemExit(f"perfbench: metric {name} is not finite ({value})")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="repository benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    ensure_program()
    os.chdir(ROOT)
    trace = bool(args.trace)

    outcome = run_workload(args.workload, args.seed, args.seconds, trace)
    final = result_line(outcome, trace)
    env = environment(OUT)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "checks": outcome.checks,
        "digests": outcome.digests,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in outcome.report.items()},
        "notes": outcome.notes,
        "details": outcome.details,
        "end_to_end": outcome.end_to_end,
        "per_layer": outcome.per_layer,
        "result": final,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if outcome.tracer is not None:
        outcome.tracer.dump(OUT / "spans" / f"{args.workload}.jsonl")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + json.dumps(env, sort_keys=True))
    for check, ok in outcome.checks.items():
        print(f"# check {'OK' if ok else 'FAILED'}: {check}")
    for note in outcome.notes:
        print(f"# {note}")
    for name, (value, unit) in outcome.report.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, entry in final["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
