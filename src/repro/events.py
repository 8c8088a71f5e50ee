"""A minimal event-hook protocol shared across the package.

Historically every component grew its own ad-hoc callback kwarg or bare
callback list. :class:`HookEmitter` unifies them: any component that
mixes it in exposes ``on(event, callback)`` and fires
``emit(event, **payload)``; the repair engine (and so every repairer),
trace clients, and the fault timeline all share it.

Conventions:

* event names are lower_snake strings (``"all_done"``, ``"node_crashed"``);
* the emitting object is always passed as the first positional argument,
  so one callback can serve several emitters;
* callbacks registered while an event is being emitted do not receive
  that emission (the subscriber list is snapshotted).

The legacy constructor kwargs (``on_all_done=``, ``on_done=``) went
through a deprecation cycle and are gone; ``on(event, cb)`` is the only
subscription path.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable

Hook = Callable[..., None]


class HookEmitter:
    """Mixin providing ``on(event, cb)`` registration and ``emit``.

    Subclasses may declare ``HOOK_EVENTS`` (an iterable of event names);
    when present, registering for an unknown event raises ``ValueError``
    immediately — a misspelled event name fails at subscription time, not
    by silently never firing.
    """

    HOOK_EVENTS: tuple[str, ...] | None = None

    def on(self, event: str, callback: Hook) -> "HookEmitter":
        """Subscribe ``callback`` to ``event``; returns self for chaining."""
        if self.HOOK_EVENTS is not None and event not in self.HOOK_EVENTS:
            raise ValueError(
                f"unknown event {event!r} for {type(self).__name__}; "
                f"known events: {sorted(self.HOOK_EVENTS)}"
            )
        self._hooks()[event].append(callback)
        return self

    def off(self, event: str, callback: Hook) -> None:
        """Remove one subscription (no-op when absent)."""
        callbacks = self._hooks().get(event)
        if callbacks and callback in callbacks:
            callbacks.remove(callback)

    def emit(self, event: str, /, *args: Any, **payload: Any) -> None:
        """Fire ``event``: every subscriber runs with (*args, **payload).

        ``event`` is positional-only so payloads may carry an ``event=``
        keyword (e.g. the fault timeline attaching the triggering event).
        """
        hooks = getattr(self, "_hook_subscribers", None)
        callbacks = hooks.get(event) if hooks is not None else None
        if not callbacks:
            return
        for callback in list(callbacks):
            callback(*args, **payload)

    def _hooks(self) -> dict[str, list[Hook]]:
        hooks = getattr(self, "_hook_subscribers", None)
        if hooks is None:
            hooks = defaultdict(list)
            self._hook_subscribers = hooks
        return hooks
