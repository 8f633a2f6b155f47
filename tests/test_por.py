"""Partial-order reduction: conformance, cycle proviso, composition.

The contract under test (``docs/checking.md``, "Partial-order
reduction"): every POR run reports the **same verdict and violation**
as the unreduced exploration while generating strictly fewer
transitions whenever any ample set is admitted.  Reduced state/
transition *counts* are not canonical — different C3 oracles (serial
visited set vs a shard's local view) legitimately pick different ample
candidates and reach differently-sized sound reductions — so only the
verdicts are compared across engines.

The cycle-proviso regression encodes the classic livelock miss C3
exists to prevent: a processor spinning through an invisible write
cycle would, without the proviso, absorb every ample selection and
starve the poisoning processor forever.
"""

from __future__ import annotations

import pytest

from repro.checker import Explorer, SystemSpec
from repro.checker.fast_snapshot import FastSnapshotSpec
from repro.checker.parallel import check_snapshot_classes, explore_sharded
from repro.checker.batch import BatchAmpleSelector, make_kernel
from repro.checker.por import (
    AmpleSelector,
    PORCounters,
    aggregate_visibility,
)
from repro.checker.properties import (
    SNAPSHOT_SAFETY,
    snapshot_outputs_comparable,
    snapshot_outputs_valid,
    visibility_footprint,
)
from repro.cli import main
from repro.core import SnapshotMachine
from repro.memory.wiring import WiringAssignment, enumerate_wiring_assignments
from repro.sim.ops import Read, Write

#: One of the two canonical N=2 wiring classes (the non-identity one).
N2_CLASS = ((0, 1), (1, 0))

_SEEDED_MESSAGE = "seeded violation: a processor terminated"


# ----------------------------------------------------------------------
# Visibility footprints (C2 inputs)
# ----------------------------------------------------------------------


class TestVisibilityAggregation:
    def test_decorator_attaches_footprint(self):
        @visibility_footprint(outputs=True, registers=(1, 3))
        def prop(spec, state):
            return None

        assert prop.visibility_footprint == {
            "outputs": True,
            "registers": (1, 3),
            "locals": False,
        }

    def test_undeclared_property_makes_all_steps_visible(self):
        def bare(spec, state):
            return None

        visibility = aggregate_visibility([bare], n_registers=3)
        assert visibility.all_steps

    def test_locals_declaration_makes_all_steps_visible(self):
        @visibility_footprint(locals=True)
        def prop(spec, state):
            return None

        assert aggregate_visibility([prop], n_registers=3).all_steps

    def test_outputs_and_register_union(self):
        @visibility_footprint(outputs=True)
        def by_outputs(spec, state):
            return None

        @visibility_footprint(registers=(0, 2))
        def by_registers(spec, state):
            return None

        visibility = aggregate_visibility(
            [by_outputs, by_registers], n_registers=3
        )
        assert not visibility.all_steps
        assert visibility.outputs
        assert visibility.register_mask == 0b101

    def test_registers_all_is_the_full_mask(self):
        @visibility_footprint(registers="all")
        def prop(spec, state):
            return None

        visibility = aggregate_visibility([prop], n_registers=3)
        assert visibility.register_mask == 0b111

    def test_out_of_range_register_is_rejected(self):
        @visibility_footprint(registers=(5,))
        def prop(spec, state):
            return None

        with pytest.raises(ValueError, match="outside"):
            aggregate_visibility([prop], n_registers=3)


# ----------------------------------------------------------------------
# Fast engine: exhaustive N=2 conformance across por x symmetry
# ----------------------------------------------------------------------


def _verdicts(rows):
    return [
        (cls, result.ok, result.violation, result.complete)
        for cls, result in rows
    ]


class TestFastConformance:
    def test_n2_sweep_verdicts_identical_across_all_four_combos(self):
        base = check_snapshot_classes(2)
        combos = {
            "por": check_snapshot_classes(2, por=True),
            "symmetry": check_snapshot_classes(2, symmetry=True),
            "por_symmetry": check_snapshot_classes(
                2, por=True, symmetry=True
            ),
        }
        for label, rows in combos.items():
            assert _verdicts(rows) == _verdicts(base), label

        base_transitions = sum(r.transitions for _, r in base)
        reduced = sum(r.transitions for _, r in combos["por_symmetry"])
        assert base_transitions >= 2 * reduced  # the acceptance bar
        pruned = sum(
            r.por_counters["transitions_pruned"]
            for _, r in combos["por"]
        )
        assert pruned > 0

    def test_por_counters_account_for_every_state(self):
        for _, result in check_snapshot_classes(2, por=True):
            counters = result.por_counters
            assert counters is not None
            assert (
                counters["ample_states"] + counters["fully_expanded_states"]
                == result.states
            )

    def test_serial_fast_engine_matches_unreduced(self):
        spec = FastSnapshotSpec([1, 2], N2_CLASS)
        base = spec.explore()
        por = FastSnapshotSpec([1, 2], N2_CLASS).explore(por=True)
        assert (por.ok, por.violation, por.complete) == (
            base.ok,
            base.violation,
            base.complete,
        )
        assert por.transitions < base.transitions

    def test_sharded_por_matches_unreduced_verdict(self):
        base = FastSnapshotSpec([1, 2], N2_CLASS).explore()
        sharded = explore_sharded([1, 2], N2_CLASS, jobs=2, por=True)
        assert (sharded.ok, sharded.violation) == (base.ok, base.violation)
        assert sharded.complete
        assert sharded.por_counters is not None
        assert sharded.por_counters["transitions_pruned"] > 0

    def test_composes_with_fingerprint_and_symmetry(self):
        base = FastSnapshotSpec([1, 2], N2_CLASS).explore()
        reduced = FastSnapshotSpec([1, 2], N2_CLASS).explore(
            por=True, symmetry=True, fingerprint=True
        )
        assert (reduced.ok, reduced.violation) == (base.ok, base.violation)

    def test_seeded_violation_survives_reduction(self, monkeypatch):
        # Seed an outputs-footprint violation (fires when a processor
        # terminates).  Termination steps are exactly the visible ones
        # under the fast engine's C2, so POR must preserve it.
        original = FastSnapshotSpec.check_outputs

        def seeded(self, state):
            for pid in range(self.n):
                local = (state >> self.local_offsets[pid]) & self.local_mask
                if ((local >> self.o_phase) & 3) == 2:  # DONE
                    return _SEEDED_MESSAGE
            return original(self, state)

        monkeypatch.setattr(FastSnapshotSpec, "check_outputs", seeded)
        base = FastSnapshotSpec([1, 2], N2_CLASS).explore()
        por = FastSnapshotSpec([1, 2], N2_CLASS).explore(por=True)
        assert not base.ok and not por.ok
        assert base.violation == _SEEDED_MESSAGE
        assert por.violation == _SEEDED_MESSAGE

    def test_por_refuses_wait_freedom(self):
        with pytest.raises(ValueError, match="wait-freedom"):
            FastSnapshotSpec([1, 2], N2_CLASS).explore(
                por=True, check_wait_freedom=True
            )


# ----------------------------------------------------------------------
# Generic engine: conformance and conservative degeneration
# ----------------------------------------------------------------------


def _generic_spec():
    wiring = list(enumerate_wiring_assignments(2, 2))[1]
    return SystemSpec(SnapshotMachine(2), [1, 2], wiring)


class TestGenericConformance:
    def test_undeclared_footprints_degenerate_to_full_expansion(self):
        # SNAPSHOT_SAFETY includes locals=True members: every step is
        # visible, so POR must change nothing at all.
        base = Explorer(_generic_spec(), invariants=SNAPSHOT_SAFETY).run()
        por = Explorer(
            _generic_spec(), invariants=SNAPSHOT_SAFETY, por=True
        ).run()
        assert (por.states, por.transitions) == (
            base.states,
            base.transitions,
        )
        assert por.por_counters["transitions_pruned"] == 0

    def test_outputs_footprint_conformance_all_four_combos(self):
        invariants = (snapshot_outputs_comparable, snapshot_outputs_valid)
        base = Explorer(_generic_spec(), invariants=invariants).run()
        combos = {
            "por": dict(por=True),
            "symmetry": dict(symmetry=True),
            "por_symmetry": dict(por=True, symmetry=True),
        }
        for label, kwargs in combos.items():
            result = Explorer(
                _generic_spec(), invariants=invariants, **kwargs
            ).run()
            assert (result.ok, result.violation) == (
                base.ok,
                base.violation,
            ), label
        por = Explorer(
            _generic_spec(), invariants=invariants, por=True
        ).run()
        assert por.transitions < base.transitions

    def test_por_refuses_keep_edges(self):
        with pytest.raises(ValueError, match="keep_edges"):
            Explorer(_generic_spec(), por=True, keep_edges=True)

    @pytest.mark.parametrize(
        "wiring", list(enumerate_wiring_assignments(2, 2)),
        ids=lambda w: str(w.permutations()),
    )
    def test_renaming_exhaustive_all_four_combos(self, wiring):
        from repro.checker.properties import renaming_names_valid
        from repro.core import RenamingMachine

        def run(**kwargs):
            spec = SystemSpec(RenamingMachine(2), ["a", "b"], wiring)
            return Explorer(
                spec, invariants=(renaming_names_valid,), **kwargs
            ).run()

        base = run()
        assert base.complete
        for label, kwargs in (
            ("por", dict(por=True)),
            ("symmetry", dict(symmetry=True)),
            ("por_symmetry", dict(por=True, symmetry=True)),
        ):
            result = run(**kwargs)
            assert (result.ok, result.violation, result.complete) == (
                base.ok,
                base.violation,
                base.complete,
            ), label

    def test_consensus_budgeted_verdicts_agree(self):
        # Consensus N=2 is infinite-state (timestamps grow), so only a
        # budgeted sweep exists; the reduced and unreduced prefixes
        # differ (the documented budget caveat), so the assertion is
        # limited to both honestly reporting "no violation found".
        from repro.checker.properties import consensus_agreement_and_validity
        from repro.core import ConsensusMachine

        def run(**kwargs):
            wiring = WiringAssignment.identity(2, 2)
            spec = SystemSpec(ConsensusMachine(2), ["x", "y"], wiring)
            return Explorer(
                spec,
                invariants=(consensus_agreement_and_validity,),
                max_states=20_000,
                **kwargs,
            ).run()

        base = run()
        por = run(por=True)
        assert base.ok and por.ok
        assert por.por_counters["transitions_pruned"] > 0


# ----------------------------------------------------------------------
# C3: the cycle proviso (livelock regression)
# ----------------------------------------------------------------------


class LivelockMachine:
    """Toggler spins invisibly; poisoner writes "BAD" once, visibly.

    The toggler (input ``"T"``) writes alternating bits to local
    register 0 forever — an invisible cycle under a ``registers=(1,)``
    footprint.  The poisoner (input ``"P"``) writes ``"BAD"`` to local
    register 1 and terminates.  Without the cycle proviso the ample
    selector picks the toggler at every state, closes its two-state
    cycle, and declares the system safe without ever running the
    poisoner.
    """

    def __init__(self, n_processors: int, n_registers: int = 2) -> None:
        self.n_processors = n_processors
        self.n_registers = n_registers

    def initial_state(self, my_input):
        return (my_input, 0)

    def enabled_ops(self, state):
        role, step = state
        if role == "T":
            return (Write(0, step),)
        if step == 0:
            return (Write(1, "BAD"),)
        return ()

    def apply(self, state, op, result):
        role, step = state
        if role == "T":
            return (role, 1 - step)
        return (role, 1)

    def output(self, state):
        role, step = state
        return "done" if role == "P" and step == 1 else None

    def register_initial_value(self):
        return "init"


@visibility_footprint(registers=(1,))
def _no_poison(spec, state):
    if state.registers[1] == "BAD":
        return "register 1 poisoned"
    return None


def _livelock_spec():
    return SystemSpec(
        LivelockMachine(2), ["T", "P"], WiringAssignment.identity(2, 2)
    )


class TestCycleProviso:
    def test_unreduced_exploration_finds_the_poison(self):
        result = Explorer(_livelock_spec(), invariants=(_no_poison,)).run()
        assert not result.ok
        assert "poisoned" in result.violation.message

    def test_without_proviso_the_violation_is_missed(self):
        # The documented livelock: C0-C2 alone admit the toggler's
        # invisible cycle as ample everywhere and never run the
        # poisoner.  This is exactly the unsoundness C3 repairs.
        result = Explorer(
            _livelock_spec(),
            invariants=(_no_poison,),
            por=True,
            por_cycle_proviso=False,
        ).run()
        assert result.ok
        assert result.complete
        assert result.por_counters["cycle_proviso_expansions"] == 0

    def test_proviso_restores_the_violation(self):
        result = Explorer(
            _livelock_spec(), invariants=(_no_poison,), por=True
        ).run()
        assert not result.ok
        assert "poisoned" in result.violation.message
        assert result.por_counters["cycle_proviso_expansions"] > 0

    def test_fast_engine_proviso_seam_exists(self):
        # The fast engine carries the same seam; on the (cycle-free)
        # snapshot machine disabling C3 must not change the verdict,
        # only remove the proviso blocks.
        base = FastSnapshotSpec([1, 2], N2_CLASS).explore()
        no_c3 = FastSnapshotSpec([1, 2], N2_CLASS).explore(
            por=True, por_cycle_proviso=False
        )
        assert (no_c3.ok, no_c3.violation) == (base.ok, base.violation)
        assert no_c3.por_counters["cycle_proviso_expansions"] == 0


# ----------------------------------------------------------------------
# C1: future-footprint closure (register-retirement regression)
# ----------------------------------------------------------------------


class RetiringMachine:
    """Toucher writes register 0 once and retires; prober probes it.

    The toucher (input ``"T"``) writes ``"touched"`` to register 0 and
    then never issues another operation — register 0 is permanently
    retired from its footprint.  The prober (input ``"P"``) writes a
    marker to register 2, then reads register 0, and poisons register
    1 iff the read still saw the initial value.

    At the initial state the toucher's *current* footprint ``{r0}`` is
    disjoint from the prober's *current* footprint ``{r2}``, so
    current-operation C1 admits the toucher as ample and prunes every
    ordering in which the prober's later read of r0 precedes the
    toucher's write — exactly the orderings that poison r1.  The write-
    scan machines cannot exhibit this (an active processor eventually
    scans everything, so its current scan footprint already covers its
    future), which is why the approximation survived its conformance
    suite; a retiring machine needs the closure.
    """

    def __init__(self, n_processors: int, n_registers: int = 3) -> None:
        self.n_processors = n_processors
        self.n_registers = n_registers

    def initial_state(self, my_input):
        return (my_input, "start")

    def register_initial_value(self):
        return "init"

    def enabled_ops(self, state):
        role, step = state
        if role == "T":
            return (Write(0, "touched"),) if step == "start" else ()
        if step == "start":
            return (Write(2, "mark"),)
        if step == "probe":
            return (Read(0),)
        if step == "poison":
            return (Write(1, 9),)
        return ()

    def apply(self, state, op, result):
        role, step = state
        if role == "T":
            return (role, "retired")
        if step == "start":
            return (role, "probe")
        if step == "probe":
            return (role, "poison" if result == "init" else "clean")
        return (role, "done")

    def output(self, state):
        return None


class RetiringMachineWithFootprint(RetiringMachine):
    """The same machine declaring its exact future footprints."""

    def future_footprint(self, state):
        role, step = state
        if role == "T":
            return ((0,), ()) if step == "start" else ((), ())
        if step == "start":
            return ((1, 2), (0,))
        if step == "probe":
            return ((1,), (0,))
        if step == "poison":
            return ((1,), ())
        return ((), ())


@visibility_footprint(registers=(1,))
def _r1_not_poisoned(spec, state):
    if state.registers[1] == 9:
        return "register 1 poisoned by an unprobed read"
    return None


def _retiring_spec(machine_cls):
    return SystemSpec(
        machine_cls(2), ["T", "P"], WiringAssignment.identity(2, 3)
    )


class TestFutureFootprintClosure:
    def test_unreduced_exploration_finds_the_poison(self):
        result = Explorer(
            _retiring_spec(RetiringMachine), invariants=(_r1_not_poisoned,)
        ).run()
        assert not result.ok
        assert "poisoned" in result.violation.message

    def test_without_the_hook_the_violation_is_missed(self):
        # The documented C1 gap: current-operation footprints admit the
        # toucher as ample at the root, pruning the prober-reads-first
        # orderings.  This is what the future-footprint closure repairs.
        result = Explorer(
            _retiring_spec(RetiringMachine),
            invariants=(_r1_not_poisoned,),
            por=True,
        ).run()
        assert result.ok
        assert result.complete
        assert result.por_counters["ample_states"] > 0

    def test_hook_restores_the_violation(self):
        result = Explorer(
            _retiring_spec(RetiringMachineWithFootprint),
            invariants=(_r1_not_poisoned,),
            por=True,
        ).run()
        assert not result.ok
        assert "poisoned" in result.violation.message

    def test_hook_tightens_rather_than_pessimizes(self):
        # The closure must not degenerate to full expansion: the
        # prober's marker write at the root is independent of the
        # toucher's entire future and stays ample.
        result = Explorer(
            _retiring_spec(RetiringMachineWithFootprint),
            invariants=(_r1_not_poisoned,),
            por=True,
        ).run()
        assert result.por_counters["ample_states"] > 0
        assert result.por_counters["transitions_pruned"] > 0


# ----------------------------------------------------------------------
# Counters and statistics plumbing
# ----------------------------------------------------------------------


class TestCounters:
    def test_as_dict_load_roundtrip(self):
        counters = PORCounters()
        counters.transitions_pruned = 7
        counters.ample_states = 3
        counters.fully_expanded_states = 4
        counters.cycle_proviso_expansions = 1
        restored = PORCounters()
        restored.load(counters.as_dict())
        assert restored.as_dict() == counters.as_dict()

    def test_aggregate_por_statistics_skips_unreduced_results(self):
        from repro.analysis import aggregate_por_statistics

        por = FastSnapshotSpec([1, 2], N2_CLASS).explore(por=True)
        base = FastSnapshotSpec([1, 2], N2_CLASS).explore()
        stats = aggregate_por_statistics([por, base])
        assert stats.transitions_pruned == (
            por.por_counters["transitions_pruned"]
        )
        assert 0.0 < stats.ample_fraction < 1.0
        assert "transitions pruned" in stats.summary()

    def test_selectors_expose_counters(self):
        spec = FastSnapshotSpec([1, 2], N2_CLASS)
        selector = BatchAmpleSelector(make_kernel(spec, "numpy"))
        assert selector.counters.as_dict()["ample_states"] == 0
        generic = AmpleSelector(_generic_spec(), (_no_poison,))
        assert not generic.visibility.all_steps


# ----------------------------------------------------------------------
# CLI: the budget gate and reporting
# ----------------------------------------------------------------------


class TestCli:
    def test_n3_por_refused_under_default_budget(self, capsys):
        assert main(["check", "--n", "3", "--por"]) == 2
        out = capsys.readouterr().out
        assert "--por-unsafe-budget" in out and "--budget 0" in out

    def test_n3_por_allowed_with_explicit_override(self, capsys):
        assert main([
            "check", "--n", "3", "--por", "--por-unsafe-budget",
            "--budget", "3000",
        ]) == 0
        assert "[por:" in capsys.readouterr().out

    def test_n2_por_symmetry_reports_totals(self, capsys):
        assert main(["check", "--n", "2", "--por", "--symmetry"]) == 0
        out = capsys.readouterr().out
        assert "[por:" in out
        assert "por total:" in out

    def test_resume_refuses_por_flip(self, capsys, tmp_path):
        assert main(["check", "--n", "3", "--budget", "2000",
                     "--checkpoint-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["check", "--n", "3", "--budget", "2000",
                     "--por", "--por-unsafe-budget",
                     "--resume", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "configuration mismatch" in out and "por" in out
