"""One process-wide on/off switch type for the optional subsystems.

The correctness checker (``CHECK``), RAS checksum verification (``RAS``),
content-addressed checkpoint storage (``DEDUP``) and the restore-plan
cache (``RESTORE_PLAN``) are each a module-level :class:`Switch`.  The
CLI and the experiment plumbing flip them without threading a flag
through every call site; call sites read :meth:`Switch.active`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Optional


class Switch:
    """A named process-wide switch with a scoped override.

    :meth:`active` resolves, in order: an enclosing :meth:`force` scope,
    then the ``enabled`` flag, then ``follows`` (another switch whose
    activity implies this one's).  The constructor data is all that
    differs between switches:

    * ``default`` — the ``enabled`` flag after construction and
      :meth:`reset`;
    * ``env`` — an environment variable read at the same two points:
      ``"0"`` turns the switch off, any other value on (so worker
      processes inherit the setting);
    * ``follows`` — e.g. RAS is active whenever the checker is;
    * ``counters`` — attribute name -> zero-argument factory; each
      attribute is set to a fresh ``factory()`` on :meth:`reset`.
    """

    def __init__(
        self,
        name: str,
        *,
        default: bool = False,
        env: Optional[str] = None,
        follows: Optional["Switch"] = None,
        counters: Mapping[str, Callable[[], object]] = {},
    ) -> None:
        self.name = name
        self.default = default
        self.env = env
        self.follows = follows
        self.counters = dict(counters)
        self.reset()

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Back to the constructed state: flag, no override, zero counters."""
        value = os.environ.get(self.env) if self.env else None
        self.enabled = self.default if value is None else value != "0"
        self._forced: Optional[bool] = None
        for attr, factory in self.counters.items():
            setattr(self, attr, factory())

    def active(self) -> bool:
        if self._forced is not None:
            return self._forced
        return self.enabled or (self.follows is not None and self.follows.active())

    @contextmanager
    def force(self, value: bool) -> Iterator[None]:
        """Pin :meth:`active` to ``value`` for the scope (reentrant)."""
        previous = self._forced
        self._forced = bool(value)
        try:
            yield
        finally:
            self._forced = previous

    def summary(self) -> dict:
        """The flag and every counter, by name."""
        return {
            "enabled": self.enabled,
            **{attr: getattr(self, attr) for attr in self.counters},
        }


__all__ = ["Switch"]
