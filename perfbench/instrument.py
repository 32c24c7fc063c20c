"""Spans around the calls into each simulator layer.

The traced run swaps the layers' public functions, where their callers
look them up, for :class:`~perfbench.spans.Tracer` wrappers, and puts
the originals back afterwards.  Nothing inside the program is edited:
the spans sit on the boundaries between modules.

==========================  ==========================================
span                        wrapped call
==========================  ==========================================
``workload.gen``            ``generate_workload`` as ``experiments.fig11``
                            and ``schedulers.compare`` call it
``vecengine.lower``         ``lower_eligibility`` as ``core.vecengine``
                            (``fast_eft_fmax``) and ``simulation.engine``
                            (array backend) call it
``vecengine.decide``        ``eft_decide``, same two callers
``maxload.lp``              ``max_load_lp`` as ``experiments.fig11`` calls it
``runner.campaign``         ``run_campaign`` as ``experiments.fig11`` calls it
``runner.unit``             the unit executor the runner resolves
                            (``fig11.measure_unit``)
``schedulers.cell``         ``compare_cell`` / ``sanity_check`` in
``schedulers.sanity``       ``schedulers.compare``
``engine.run.<policy>``     ``Simulator.run``
``schedulers.submit.<p>``   ``submit`` of every scheduler built by
                            ``schedulers.compare``
==========================  ==========================================
"""

from __future__ import annotations

from .spans import Patches, Tracer


def instrument(tracer: Tracer) -> Patches:
    """Install the simulator-layer wrappers; use as a context manager."""
    from repro.core import vecengine
    from repro.experiments import fig11
    from repro.schedulers import compare
    from repro.schedulers.registry import canonical_name
    from repro.simulation import engine

    patches = Patches()

    def count_tasks(instance, *args) -> None:
        tracer.count("workload.tasks", len(instance.tasks))

    for module in (fig11, compare):
        patches.set(
            module,
            "generate_workload",
            tracer.wrap(module.generate_workload, "workload.gen", after=count_tasks),
        )
    for module in (vecengine, engine):
        patches.set(
            module, "lower_eligibility", tracer.wrap(module.lower_eligibility, "vecengine.lower")
        )
        patches.set(module, "eft_decide", tracer.wrap(module.eft_decide, "vecengine.decide"))
    patches.set(fig11, "max_load_lp", tracer.wrap(fig11.max_load_lp, "maxload.lp"))
    patches.set(fig11, "run_campaign", tracer.wrap(fig11.run_campaign, "runner.campaign"))
    patches.set(fig11, "measure_unit", tracer.wrap(fig11.measure_unit, "runner.unit"))
    patches.set(compare, "compare_cell", tracer.wrap(compare.compare_cell, "schedulers.cell"))
    patches.set(compare, "sanity_check", tracer.wrap(compare.sanity_check, "schedulers.sanity"))

    policy_of: dict[int, str] = {}
    build = compare.get_scheduler

    def get_scheduler(name: str, m: int, seed: int | None = 0):
        sched = build(name, m, seed=seed)
        policy = canonical_name(name)
        policy_of[id(sched)] = policy
        sched.submit = tracer.wrap(sched.submit, f"schedulers.submit.{policy}")
        return sched

    patches.set(compare, "get_scheduler", get_scheduler)

    def run_name(sim, *args) -> str:
        return f"engine.run.{policy_of.get(id(sim.scheduler), 'other')}"

    def after_run(result, sim, *args) -> None:
        tracer.count(f"engine.{sim.backend_used}_runs")
        tracer.count("engine.tasks_preempted", result.n_preempted)
        tracer.count("engine.tasks_requeued", result.n_requeued)

    patches.set(
        engine.Simulator, "run", tracer.wrap(engine.Simulator.run, run_name, after=after_run)
    )
    return patches
