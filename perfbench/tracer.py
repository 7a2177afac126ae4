"""In-memory spans and call counts around the program's public layer calls.

The benchmark never edits the program: it replaces a public method,
property or module function with a thin wrapper for the length of one
traced pass and puts the original back afterwards.  A wrapper either opens
a *span* (name, start, end and the span that was open when it started, kept
in flat arrays) or only bumps a *count* (for properties read millions of
times, where a span per read would cost more than the read).

A layer's self time is its span's duration minus the time its child spans
cover.  Spans are kept in memory and written out once, by :meth:`dump`,
when the pass ends.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

import numpy as np


class Tracer:
    """Records spans and counts; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name_id = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self.counts: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Any] = []

    # ------------------------------------------------------------- recording
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self._start)
            self._name_id.append(name_id)
            self._parent.append(parent)
            self._end.append(0.0)
            self._start.append(time.perf_counter())
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack().pop()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.counts.setdefault(name, 0)
        return self._name_ids[name]

    def spanned(self, name: str, fn: Callable[..., Any],
                on_call: Optional[Callable[..., None]] = None,
                on_result: Optional[Callable[[Any], None]] = None
                ) -> Callable[..., Any]:
        """``fn`` wrapped in a span named ``name``.  ``on_call`` sees the
        arguments and ``on_result`` the return value (for ratios)."""
        name_id = self._intern(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if on_call is not None:
                on_call(*args, **kwargs)
            index = opened(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(index)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -------------------------------------------------------------- patching
    def wrap(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        """Replace ``owner.attr`` (a method or module function) by a
        spanned wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.spanned(name, getattr(owner, attr),
                                          **hooks))

    def count_property(self, cls: type, attr: str, name: str) -> None:
        """Count every read of the property ``cls.attr`` (no span).

        The count is unlocked, for speed: it assumes one thread at a time
        reads the property, as in the benchmark's serial replays."""
        original = cls.__dict__[attr]
        fget = original.fget
        counts = self.counts
        counts.setdefault(name, 0)

        def getter(obj: Any) -> Any:
            counts[name] += 1
            return fget(obj)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, property(getter, original.fset, original.fdel,
                                    original.__doc__))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- analysis
    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: ``self_s`` and the ``durations`` array (seconds);
        each span name's call count lands in :attr:`counts`."""
        n = len(self._start)
        name_id = np.frombuffer(self._name_id, dtype=np.int32, count=n)
        start = np.frombuffer(self._start, dtype=np.float64, count=n)
        end = np.frombuffer(self._end, dtype=np.float64, count=n)
        parent = np.frombuffer(self._parent, dtype=np.int32, count=n)
        duration = end - start
        covered = np.zeros(n)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        own = duration - covered
        result = {}
        for index, name in enumerate(self.names):
            mask = name_id == index
            self.counts[name] = int(mask.sum())
            result[name] = {"self_s": float(own[mask].sum()),
                            "durations": duration[mask]}
        return result

    def dump(self, path: str) -> None:
        """Write the spans (``.npz``) and counts (``.counts.json``)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        n = len(self._start)
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self._name_id, dtype=np.int32, count=n),
            start=np.frombuffer(self._start, dtype=np.float64, count=n),
            end=np.frombuffer(self._end, dtype=np.float64, count=n),
            parent=np.frombuffer(self._parent, dtype=np.int32, count=n))
        with open(os.path.splitext(path)[0] + ".counts.json", "w",
                  encoding="utf-8") as handle:
            json.dump(self.counts, handle, indent=1, sort_keys=True)
