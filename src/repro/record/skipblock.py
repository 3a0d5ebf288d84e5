"""The SkipBlock language construct (Section 4.2).

A SkipBlock encloses a loop and always applies the loop's side-effects to
the program state, in one of two ways: by executing the loop, or by skipping
it and loading its memoized side-effects from a Loop End Checkpoint.  Which
branch is taken depends on the session's execution phase (record / replay
initialization / replay execution), whether the enclosed loop is probed by a
hindsight logging statement, and whether a checkpoint is available — the
"parameterized branching" of the paper.

Usage (this is also what the instrumenter generates)::

    sb = flor.skipblock("train_loop")
    if sb.should_execute():
        for batch in trainloader:
            ...                      # the expensive nested training loop
    net, optimizer = sb.end(net=net, optimizer=optimizer)

``end`` memoizes the named values when the loop executed on record, and
restores them when the loop was skipped.  Values that implement
``load_state_dict`` are restored in place; plain Python values are returned
so the caller can rebind them.
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Mapping

from ..analysis.augmentation import augment_changeset
from ..exceptions import ReplayError
from ..modes import Phase
from ..storage.serializer import ValueSnapshot, restore_value, snapshot_value
from ..telemetry import get_metrics, get_tracer
from ..utils.timing import monotonic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..session import Session

__all__ = ["SkipBlock", "UNDEFINED"]


class _Undefined:
    """Sentinel for a changeset variable that has no value in this process.

    On replay a skipped loop never binds its loop-scoped variables; if such a
    variable is in the changeset but missing from the checkpoint, the
    generated rebinding assigns this sentinel instead of crashing with a
    ``NameError`` at the ``end()`` call site.
    """

    _instance: "_Undefined | None" = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<flor.UNDEFINED>"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _Undefined()


class SkipBlock:
    """One dynamic activation of a SkipBlock (one enclosing-loop iteration)."""

    def __init__(self, session: "Session", block_id: str):
        self.session = session
        self.block_id = block_id
        self.execution_index = session.next_execution_index(block_id)
        self._executed: bool | None = None
        self._start_time: float | None = None
        self._restore_index: int | None = None

    # ------------------------------------------------------------------ #
    # Parameterized branching
    # ------------------------------------------------------------------ #
    def should_execute(self) -> bool:
        """Decide whether the enclosed loop must run in this activation."""
        phase = self.session.phase
        if phase is Phase.RECORD:
            decision = True
        elif phase is Phase.REPLAY_INIT:
            # Nearest-earlier (weak) restoration is allowed only at the
            # initialization plan's designated restore iteration; any other
            # init iteration must exact-restore or recompute, or replay
            # silently rewinds to stale state (the weak-init divergence bug).
            decision = not self._restorable(
                weak_ok=self.session.allows_weak_restore(self.execution_index))
        elif phase is Phase.REPLAY_EXEC:
            if self.block_id in self.session.probed_blocks:
                decision = True
            else:
                decision = not self._restorable(weak_ok=False)
        else:  # pragma: no cover - defensive
            raise ReplayError(f"unknown phase {phase!r}")

        self._executed = decision
        if decision:
            self._start_time = monotonic()
        return decision

    def _restorable(self, weak_ok: bool) -> bool:
        """Whether a usable checkpoint exists for this activation."""
        store = self.session.store
        if store.contains(self.block_id, self.execution_index):
            self._restore_index = self.execution_index
            return True
        if weak_ok:
            nearest = store.latest_execution_at_or_before(
                self.block_id, self.execution_index)
            if nearest is not None:
                self._restore_index = nearest
                return True
        return False

    # ------------------------------------------------------------------ #
    # Side-effect memoization and restoration
    # ------------------------------------------------------------------ #
    def end(self, _namespace: Mapping[str, object] | None = None,
            **named_values) -> tuple:
        """Close the SkipBlock: memoize or restore, then return the values.

        ``named_values`` are the loop's statically-estimated changeset,
        passed by name.  ``_namespace`` (typically ``{**globals(),
        **locals()}`` at the call site) lets runtime augmentation find
        indirectly-mutated objects such as the model behind an optimizer.
        """
        if self._executed is None:
            raise ReplayError(
                f"SkipBlock {self.block_id!r}.end() called before "
                "should_execute()")
        if self._executed:
            result = self._memoize(named_values, _namespace)
        else:
            result = self._restore(named_values, _namespace)
        if len(named_values) == 1:
            return (result[0],)
        return result

    def end_from_namespace(self, names: list[str],
                           namespace: Mapping[str, object]) -> dict:
        """Close the SkipBlock using a namespace lookup instead of kwargs.

        This is the form the auto-instrumenter generates: the changeset
        ``names`` are looked up in ``namespace`` (so names that are not yet
        bound — loop-scoped variables on a skipped replay — do not raise),
        and the result is a mapping from name to the value the caller should
        rebind.  Missing values come back as :data:`UNDEFINED`.
        """
        named_values = {name: namespace[name] for name in names
                        if name in namespace}
        if self._executed is None:
            raise ReplayError(
                f"SkipBlock {self.block_id!r}.end_from_namespace() called "
                "before should_execute()")
        if self._executed:
            values = self._memoize(named_values, namespace)
        else:
            # Ask _restore about every requested name, not only the bound
            # ones, so loop-scoped variables come back from the checkpoint.
            request = {name: named_values.get(name, UNDEFINED) for name in names}
            values = self._restore(request, namespace)
            return {name: value for name, value in zip(request, values)}
        result = dict(zip(named_values, values))
        for name in names:
            result.setdefault(name, UNDEFINED)
        return result

    # -- record / probed-re-execution path --------------------------------
    def _memoize(self, named_values: dict, namespace: Mapping | None) -> tuple:
        compute_seconds = 0.0
        if self._start_time is not None:
            compute_seconds = monotonic() - self._start_time

        if self.session.phase is not Phase.RECORD:
            # Probed re-execution on replay produces hindsight logs but does
            # not create new checkpoints.
            return tuple(named_values.values())

        session = self.session
        session.adaptive.observe_execution(self.block_id, compute_seconds,
                                           iteration=session.current_iteration)

        with get_tracer().span("record.capture", block_id=self.block_id,
                               execution_index=self.execution_index) as capture:
            # Runtime changeset augmentation with library knowledge.
            capture_names = list(named_values)
            if namespace:
                augmented = augment_changeset(set(named_values), namespace)
                for name in sorted(augmented - set(named_values)):
                    if name in namespace:
                        capture_names.append(name)

            snapshots: list[ValueSnapshot] = []
            payload_nbytes = 0
            for name in capture_names:
                value = named_values.get(name, namespace.get(name) if namespace else None)
                if inspect.ismodule(value):
                    # Table 1's method-call rule conservatively adds the call's
                    # receiver to the changeset, which drags modules in when the
                    # loop calls e.g. ``time.sleep``.  Modules are import
                    # machinery, not training state — never checkpoint them.
                    continue
                snapshot = snapshot_value(name, value)
                payload_nbytes += snapshot.nbytes()
                snapshots.append(snapshot)

            decision = session.adaptive.should_materialize(
                self.block_id, compute_seconds, payload_nbytes)
            capture.set(nbytes=payload_nbytes,
                        materialize=decision.materialize)
            if decision.materialize:
                get_metrics().inc("record.checkpoints")
                get_metrics().inc("record.checkpoint_bytes", payload_nbytes)
                main_thread_seconds, _ = session.materializer.submit(
                    self.block_id, self.execution_index, snapshots)
                # The submit's main-thread time is just the enqueue cost;
                # feeding nbytes/enqueue-time into the throughput model would
                # inflate it absurdly, so nbytes is withheld here and the
                # spool's completion callback refines throughput instead.
                session.adaptive.observe_materialization(
                    self.block_id, main_thread_seconds, 0)
            else:
                get_metrics().inc("record.checkpoints_skipped")
        return tuple(named_values.values())

    # -- skip-and-restore path ---------------------------------------------
    def _restore(self, named_values: dict, namespace: Mapping | None) -> tuple:
        session = self.session
        index = self._restore_index
        if index is None:  # pragma: no cover - defensive
            raise ReplayError(
                f"SkipBlock {self.block_id!r} was skipped but no checkpoint "
                f"index was resolved")
        start = monotonic()
        with get_tracer().span("replay.restore", block_id=self.block_id,
                               execution_index=self.execution_index,
                               restore_index=index,
                               weak=index != self.execution_index):
            snapshots = session.store.get(self.block_id, index,
                                          run_id=session.run_id)
            by_name = {snapshot.name: snapshot for snapshot in snapshots}

            restored = dict(named_values)
            for name, live_value in named_values.items():
                snapshot = by_name.pop(name, None)
                if snapshot is not None:
                    restored[name] = restore_value(snapshot, live_value)

            # Snapshots that were captured through runtime augmentation (for
            # example the model behind the optimizer) are restored in place via
            # the namespace when possible.
            if namespace:
                for name, snapshot in by_name.items():
                    live = namespace.get(name)
                    if live is not None:
                        restore_value(snapshot, live)

        restore_seconds = monotonic() - start
        get_metrics().inc("replay.restores")
        session.adaptive.observe_restore(self.block_id, restore_seconds)
        return tuple(restored.values())
