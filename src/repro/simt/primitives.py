"""Composite wait primitive: wait-for-all."""

from __future__ import annotations

from typing import Iterable, List

from repro.simt.kernel import Event, Simulator

__all__ = ["AllOf"]


class AllOf(Event):
    """Succeeds when every child event has succeeded.

    Value is the list of child values in input order.  Fails as soon as
    any child fails (with that child's exception).
    """

    __slots__ = ("_children", "_pending", "_results")

    def __init__(self, sim: Simulator, events: Iterable[Event]):
        super().__init__(sim)
        self._children: List[Event] = list(events)
        self._results: List = [None] * len(self._children)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for idx, evt in enumerate(self._children):
            self._attach(idx, evt)

    def _attach(self, idx: int, evt: Event) -> None:
        def on_fire(e: Event, idx=idx) -> None:
            if self.triggered:
                return
            if not e._ok:
                self.fail(e._value)
                return
            self._results[idx] = e._value
            self._pending -= 1
            if self._pending == 0:
                self.succeed(list(self._results))

        if evt.processed:
            on_fire(evt)
        else:
            evt.callbacks.append(on_fire)
