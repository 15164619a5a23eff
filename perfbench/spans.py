"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: it times calls into each layer's
public functions by temporarily replacing them with thin wrappers.
:class:`SpanRecorder` keeps a stack of open spans, so a layer's *self*
time is its span minus the time covered by spans opened inside it,
and the self times of all layers add up to the time covered by the
outermost spans.

:class:`Instrumentation` installs the wrappers before any simulator is
built and restores every original binding afterwards.  A function is
patched in every loaded ``repro`` module that imported it by name, and
a method in every class of its hierarchy that defines it, so each call
site is seen whichever binding it uses.

Worker processes that :mod:`multiprocessing` forks while wrappers are
installed (the warm pool's) start from an empty recorder and write it
to ``spans-<pid>.json`` in the dump directory when they exit; the
benchmark merges those files.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator


class SpanRecorder:
    """Self time and call count per layer, plus named counters.

    ``clock`` returns seconds; it is injectable so tests can drive
    nested spans with exact times.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self._stack: list[list[Any]] = []
        #: layer -> seconds inside the layer's spans, children excluded
        self.self_s: dict[str, float] = {}
        #: layer -> seconds inside the layer's spans, children included
        self.total_s: dict[str, float] = {}
        #: layer -> completed spans
        self.calls: dict[str, int] = {}
        #: seconds covered by outermost spans (the self times' total)
        self.root_s = 0.0
        #: counter name -> summed amount
        self.counts: dict[str, float] = {}
        #: mark name -> first ``time.monotonic()`` it was set at
        self.marks: dict[str, float] = {}

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, children = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - children
        self.total_s[layer] = self.total_s.get(layer, 0.0) + elapsed
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed
        else:
            self.root_s += elapsed

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def mark(self, name: str) -> None:
        """Remember when ``name`` first happened (cross-process clock)."""
        self.marks.setdefault(name, time.monotonic())

    def to_dict(self) -> dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "root_s": self.root_s,
            "counts": dict(self.counts),
            "marks": dict(self.marks),
        }


def merge(dumps: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum several :meth:`SpanRecorder.to_dict` dumps (one per process)."""
    merged: dict[str, Any] = {
        "self_s": {}, "total_s": {}, "calls": {}, "root_s": 0.0,
        "counts": {}, "marks": {},
    }
    for dump in dumps:
        for field in ("self_s", "total_s", "calls", "counts"):
            for name, value in dump[field].items():
                merged[field][name] = merged[field].get(name, 0) + value
        merged["root_s"] += dump["root_s"]
        for name, at in dump["marks"].items():
            merged["marks"][name] = min(at, merged["marks"].get(name, at))
    return merged


Hook = Callable[[SpanRecorder, tuple, Any], None]


@dataclass(frozen=True)
class Target:
    """One public function or method to observe.

    ``name`` is ``"function"`` or ``"Class.method"`` inside ``module``.
    ``layer`` names the span recorded in traced runs.  ``hook`` (if
    any) runs after every call with the recorder, the call's
    positional arguments and its return value.  Untraced runs wrap
    only the targets marked ``untraced`` and time no span.
    """

    module: str
    name: str
    layer: str
    hook: Hook | None = None
    untraced: bool = False


class Instrumentation:
    """Installs wrappers for ``targets`` and restores them on exit.

    With ``spans=False`` only targets marked ``untraced`` are wrapped,
    and no span is timed: the untraced run keeps just the counters the
    end-to-end metrics need.  ``dump_dir`` enables the fork handling
    described in the module docstring.
    """

    def __init__(
        self,
        recorder: SpanRecorder,
        targets: list[Target],
        *,
        spans: bool,
        dump_dir: str | os.PathLike | None = None,
        on_dump: Callable[[SpanRecorder], None] | None = None,
    ) -> None:
        self.recorder = recorder
        self.targets = [t for t in targets if spans or t.untraced]
        self.spans = spans
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.on_dump = on_dump
        #: (owner, attribute, original value as found in owner.__dict__)
        self._patched: list[tuple[Any, str, Any]] = []
        self._wrappers: dict[int, Any] = {}
        self._active = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._active:
            raise RuntimeError("instrumentation is already installed")
        self._active = True
        for target in self.targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.name.rpartition(".")
            if owner_name:
                base = getattr(module, owner_name)
                for cls in _hierarchy(base):
                    original = cls.__dict__.get(attr)
                    if callable(original):
                        self._patch(cls, attr, original, target)
            else:
                original = getattr(module, attr)
                for bound in _modules_binding(attr, original):
                    self._patch(bound, attr, original, target)
        if self.dump_dir is not None:
            from multiprocessing import util

            util.register_after_fork(self, Instrumentation._after_fork)

    def uninstall(self) -> None:
        """Restore every original binding, including copies that other
        modules imported while the wrappers were in place."""
        if not self._active:
            return
        self._active = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        originals = {id(w): o for w, o in self._wrappers.values()}
        for module in list(sys.modules.values()):
            if not _is_repro_module(module):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and self._is_wrapper(value):
                    setattr(module, attr, originals[id(value)])
        self._patched.clear()
        self._wrappers.clear()

    def leftover_wrappers(self) -> list[str]:
        """Where any wrapper made by this object is still bound."""
        found = set()
        for module in list(sys.modules.values()):
            if not _is_repro_module(module):
                continue
            for attr, value in vars(module).items():
                if self._is_wrapper(value):
                    found.add(f"{module.__name__}.{attr}")
                if isinstance(value, type):
                    for name, member in vars(value).items():
                        if self._is_wrapper(member):
                            found.add(f"{value.__qualname__}.{name}")
        return sorted(found)

    # ------------------------------------------------------------------
    def _is_wrapper(self, value: Any) -> bool:
        function = getattr(value, "__func__", value)
        return getattr(function, "__perfbench_wrapper__", None) is self

    def _patch(self, owner: Any, attr: str, original: Any, target: Target) -> None:
        if self._is_wrapper(original):
            return
        if isinstance(original, (staticmethod, classmethod)):
            wrapper = type(original)(self._wrap(original.__func__, target))
        else:
            wrapper = self._wrap(original, target)
        self._wrappers[id(wrapper)] = (wrapper, original)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, original: Callable, target: Target) -> Callable:
        recorder = self.recorder
        hook = target.hook
        layer = target.layer
        if self.spans:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                recorder.enter(layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder.exit()
                if hook is not None:
                    hook(recorder, args, result)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                if hook is not None:
                    hook(recorder, args, result)
                return result
        wrapper.__perfbench_wrapper__ = self
        return wrapper

    def _after_fork(self) -> None:
        if not self._active:
            return
        self.recorder.reset()
        from multiprocessing import util

        util.Finalize(None, self.dump, exitpriority=100)

    def dump(self) -> None:
        """Write this process's recorder to the dump directory."""
        if self.dump_dir is None:
            return
        if self.on_dump is not None:
            self.on_dump(self.recorder)
        path = self.dump_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.recorder.to_dict()), encoding="utf-8")


def _is_repro_module(module: Any) -> bool:
    name = getattr(module, "__name__", "")
    return name == "repro" or name.startswith("repro.")


def _modules_binding(attr: str, obj: Any) -> Iterator[Any]:
    for module in list(sys.modules.values()):
        if _is_repro_module(module) and vars(module).get(attr) is obj:
            yield module


def _hierarchy(base: type) -> Iterator[type]:
    seen: set[type] = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        pending.extend(cls.__subclasses__())
