"""High-level convenience API.

Most users want: "run the paper's snapshot / renaming / consensus
algorithm with these inputs under this schedule and give me the
outputs".  The functions here assemble the machine, wiring, memory,
processes and runner in one call, with seeded randomness for
reproducibility.  Everything they build is the ordinary public
machinery of :mod:`repro.core`, :mod:`repro.memory` and
:mod:`repro.sim`, so graduating from the convenience layer to explicit
construction is a refactor, not a rewrite.

Example
-------
>>> from repro.api import run_snapshot
>>> result = run_snapshot(inputs=["a", "b", "c"], seed=42)
>>> sorted(sorted(v) for v in result.outputs.values())  # doctest: +SKIP
[['a', 'b', 'c'], ['a', 'b', 'c'], ['a', 'b', 'c']]
"""

from __future__ import annotations

import random
from typing import Hashable, Optional, Sequence

from repro.core.consensus import ConsensusMachine
from repro.core.renaming import RenamingMachine
from repro.core.snapshot import SnapshotMachine
from repro.core.write_scan import WriteScanMachine
from repro.memory.memory import AnonymousMemory
from repro.memory.wiring import WiringAssignment
from repro.sim.machine import AlgorithmMachine, FIRST_ENABLED, RandomPolicy
from repro.sim.process import MachineProcess
from repro.sim.runner import ExecutionResult, Runner
from repro.sim.schedulers import RandomScheduler, Scheduler


def build_runner(
    machine: AlgorithmMachine,
    inputs: Sequence[Hashable],
    seed: Optional[int] = 0,
    wiring: Optional[WiringAssignment] = None,
    scheduler: Optional[Scheduler] = None,
    n_registers: Optional[int] = None,
    detect_lasso: bool = False,
) -> Runner:
    """Assemble a runner for ``len(inputs)`` anonymous processors.

    With ``seed`` given (the default), the wiring, the scheduler and the
    resolution of the algorithms' internal nondeterminism are all drawn
    from one seeded RNG — runs are exactly reproducible.  Pass
    ``seed=None`` for deterministic first-enabled behaviour with a
    round-robin-free random-free setup only if ``wiring`` and
    ``scheduler`` are supplied explicitly.
    """
    n_processors = len(inputs)
    registers = (
        n_registers
        if n_registers is not None
        else getattr(machine, "n_registers", n_processors)
    )
    if seed is None:
        if wiring is None or scheduler is None:
            raise ValueError("seed=None requires explicit wiring and scheduler")
        policy = FIRST_ENABLED
    else:
        rng = random.Random(seed)
        if wiring is None:
            wiring = WiringAssignment.random(n_processors, registers, rng)
        if scheduler is None:
            scheduler = RandomScheduler(rng)
        policy = RandomPolicy(rng)
    memory = AnonymousMemory(wiring, machine.register_initial_value())
    processes = [
        MachineProcess(pid, machine, inputs[pid], policy)
        for pid in range(n_processors)
    ]
    return Runner(memory, processes, scheduler, detect_lasso=detect_lasso)


def run_snapshot(
    inputs: Sequence[Hashable],
    seed: Optional[int] = 0,
    wiring: Optional[WiringAssignment] = None,
    scheduler: Optional[Scheduler] = None,
    n_registers: Optional[int] = None,
    level_target: Optional[int] = None,
    max_steps: int = 1_000_000,
) -> ExecutionResult:
    """Run the wait-free snapshot algorithm (Figure 3) to completion.

    Returns the :class:`~repro.sim.runner.ExecutionResult`; the
    snapshots are ``result.outputs`` (pid -> frozenset of inputs).
    """
    machine = SnapshotMachine(
        len(inputs), n_registers=n_registers, level_target=level_target
    )
    runner = build_runner(machine, inputs, seed, wiring, scheduler, n_registers)
    return runner.run(max_steps)


def run_renaming(
    group_ids: Sequence[Hashable],
    seed: Optional[int] = 0,
    wiring: Optional[WiringAssignment] = None,
    scheduler: Optional[Scheduler] = None,
    max_steps: int = 1_000_000,
) -> ExecutionResult:
    """Run adaptive renaming (Figure 4); names are ``result.outputs``."""
    machine = RenamingMachine(len(group_ids))
    runner = build_runner(machine, group_ids, seed, wiring, scheduler)
    return runner.run(max_steps)


def run_consensus(
    proposals: Sequence[Hashable],
    seed: Optional[int] = 0,
    wiring: Optional[WiringAssignment] = None,
    scheduler: Optional[Scheduler] = None,
    max_steps: int = 2_000_000,
) -> ExecutionResult:
    """Run obstruction-free consensus (Figure 5).

    Under a random scheduler decisions are overwhelmingly likely but not
    guaranteed (the algorithm is obstruction-free, not wait-free);
    ``result.outputs`` holds the decisions of the processors that
    decided within ``max_steps``.
    """
    machine = ConsensusMachine(len(proposals))
    runner = build_runner(machine, proposals, seed, wiring, scheduler)
    return runner.run(max_steps)


def submit_campaign(
    state_dir,
    n: int = 2,
    budget: int = 0,
    wait: bool = True,
    timeout: Optional[float] = None,
    **spec_kwargs,
):
    """Submit a checking campaign to a local coordinator and (by
    default) wait for its verdicts.

    The coordinator is discovered through ``state_dir`` (the directory
    ``repro serve --state-dir`` runs on).  ``spec_kwargs`` are the
    remaining :class:`~repro.service.jobs.JobSpec` fields (``symmetry``,
    ``por``, ``kernel``, ``shards``, ...).  Returns the finished
    :class:`~repro.service.jobs.JobRecord` when ``wait`` is true, else
    the job id; results are bit-identical to a local
    :func:`~repro.checker.parallel.check_snapshot_classes` run of the
    same configuration.
    """
    from repro.service.jobs import JobSpec
    from repro.service.transport import ServiceClient

    spec = JobSpec(n=n, budget=budget, **spec_kwargs)
    spec.validate()
    with ServiceClient.for_state_dir(state_dir) as client:
        job_id = client.submit(spec)
        if not wait:
            return job_id
        return client.wait(job_id, timeout=timeout)


def run_write_scan(
    inputs: Sequence[Hashable],
    steps: int,
    seed: Optional[int] = 0,
    wiring: Optional[WiringAssignment] = None,
    scheduler: Optional[Scheduler] = None,
    n_registers: Optional[int] = None,
    detect_lasso: bool = False,
) -> ExecutionResult:
    """Run the (non-terminating) write-scan loop for ``steps`` steps."""
    registers = n_registers if n_registers is not None else len(inputs)
    machine = WriteScanMachine(registers)
    runner = build_runner(
        machine, inputs, seed, wiring, scheduler, registers,
        detect_lasso=detect_lasso,
    )
    return runner.run(steps)
