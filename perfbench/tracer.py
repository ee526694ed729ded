"""Outside-in call timing: wrappers patched around a package's functions.

The benchmark does not instrument the program.  Instead a traced run
wraps public functions and methods of ``repro`` at every place that
binds them, and times each call:

* a **module-level function** is replaced in the defining module and in
  every loaded module of the package that imported it by name, in dict
  values of module globals (dispatch tables), and in fields of
  dataclass instances held by module globals or such dicts (format
  descriptors that store function references);
* a **method** is replaced on its class, which covers every instance.

A target whose wrapper ends up bound nowhere is an error, and so is an
expected wrapper that records no calls (see :meth:`Tracer.require`):
both mean the benchmark would report a layer as idle when it was
merely unobserved.

Self time of a call is its duration minus the time spent in wrapped
calls nested inside it on the same thread, so the self times of all
wrapped layers add up to (at most) the wall time of the outermost one.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Iterable, Mapping

#: ``on_result(tracer, args, kwargs, result)`` hook run after a call returns.
ResultHook = Callable[["Tracer", tuple, dict, Any], None]


@dataclasses.dataclass
class LayerStat:
    """Calls into one named group of wrapped functions."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def merge(self, other: "LayerStat") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s


@dataclasses.dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    Attributes:
        spec: ``"package.module:function"`` or
            ``"package.module:Class.method"``.
        stat: the group its calls are timed under.
        on_result: optional hook fed each call's arguments and result.
        factory: optional ``(tracer, original) -> wrapper`` replacing the
            default timing wrapper (it must time the call itself).
    """

    spec: str
    stat: str
    on_result: ResultHook | None = None
    factory: Callable[["Tracer", Callable], Callable] | None = None


class TracerError(RuntimeError):
    """A wrapper could not be installed or never fired where it must."""


class Tracer:
    """Per-group call counts, total and self time, plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, LayerStat] = {}
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    # -- recording ------------------------------------------------------- #

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(
        self, stat: str, fn: Callable, on_result: ResultHook | None = None
    ) -> Callable:
        """``fn`` wrapped so each call is timed under ``stat``."""
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            nested = [0.0]
            stack.append(nested)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    entry = self.stats.setdefault(stat, LayerStat())
                    entry.calls += 1
                    entry.total_s += elapsed
                    entry.self_s += elapsed - nested[0]
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- installation ---------------------------------------------------- #

    def install(self, targets: Iterable[Target], package: str = "repro") -> dict[str, int]:
        """Wrap every target; returns how many bindings each replaced.

        Every module of ``package`` is imported first, so names bound by
        ``from x import y`` anywhere in the package are found.

        Raises:
            TracerError: a target resolved to nothing or bound nowhere.
        """
        import_all(package)
        bound: dict[str, int] = {}
        for target in targets:
            original, owner, attr = _resolve(target.spec)
            if getattr(original, "__wrapped_by_tracer__", False):
                raise TracerError(f"{target.spec} is already wrapped")
            if target.factory is not None:
                wrapper = target.factory(self, original)
            else:
                wrapper = self.timed(target.stat, original, target.on_result)
            if isinstance(owner, type):
                self._set_attr(owner, attr, wrapper)
                bound[target.spec] = 1
            else:
                bound[target.spec] = self._rebind(package, original, wrapper)
            if bound[target.spec] == 0:
                raise TracerError(f"{target.spec}: no binding to patch")
        return bound

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            self._undo.pop()()

    def _set_attr(self, owner: Any, attr: str, value: Any) -> None:
        # Frozen dataclasses refuse setattr; object.__setattr__ bypasses
        # that.  Classes keep their raw __dict__ entry for the restore.
        setter = object.__setattr__ if _is_dataclass_instance(owner) else setattr
        previous = vars(owner)[attr]
        setter(owner, attr, value)
        self._undo.append(lambda: setter(owner, attr, previous))

    def _set_item(self, mapping: dict, key: Any, value: Any) -> None:
        previous = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, previous))

    def _rebind_fields(self, obj: Any, original: Callable, wrapper: Callable) -> int:
        patched = 0
        for field in dataclasses.fields(obj):
            if getattr(obj, field.name, None) is original:
                self._set_attr(obj, field.name, wrapper)
                patched += 1
        return patched

    def _rebind(self, package: str, original: Callable, wrapper: Callable) -> int:
        patched = 0
        prefix = package + "."
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(prefix)):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set_attr(module, key, wrapper)
                    patched += 1
                elif isinstance(value, dict):
                    for item_key, item in list(value.items()):
                        if item is original:
                            self._set_item(value, item_key, wrapper)
                            patched += 1
                        elif _is_dataclass_instance(item):
                            patched += self._rebind_fields(item, original, wrapper)
                elif _is_dataclass_instance(value):
                    patched += self._rebind_fields(value, original, wrapper)
        return patched

    # -- reporting ------------------------------------------------------- #

    def require(self, stats: Iterable[str]) -> None:
        """Raise unless every named group recorded at least one call."""
        silent = [name for name in stats if self.stat(name).calls == 0]
        if silent:
            raise TracerError(
                "wrappers expected to fire recorded no calls: " + ", ".join(silent)
            )

    def stat(self, name: str) -> LayerStat:
        return self.stats.get(name, LayerStat())

    def report(self) -> dict[str, Any]:
        """JSON-ready snapshot (see :meth:`merge_report`)."""
        with self._lock:
            return {
                "stats": {
                    name: [s.calls, s.total_s, s.self_s] for name, s in self.stats.items()
                },
                "counts": dict(self.counts),
            }

    def merge_report(self, report: Mapping[str, Any]) -> None:
        """Fold in another tracer's :meth:`report` (e.g. a child process)."""
        with self._lock:
            for name, (calls, total, self_time) in report.get("stats", {}).items():
                self.stats.setdefault(name, LayerStat()).merge(
                    LayerStat(int(calls), float(total), float(self_time))
                )
            for name, value in report.get("counts", {}).items():
                self.counts[name] = self.counts.get(name, 0) + value


def _is_dataclass_instance(value: Any) -> bool:
    return dataclasses.is_dataclass(value) and not isinstance(value, type)


def _resolve(spec: str) -> tuple[Callable, Any, str]:
    """``(original, owner, attribute)`` for a target spec."""
    module_name, _, attr = spec.partition(":")
    if not attr:
        raise TracerError(f"bad target spec {spec!r}")
    module = importlib.import_module(module_name)
    if "." in attr:
        class_name, method = attr.split(".", 1)
        owner = getattr(module, class_name)
        if method not in owner.__dict__:
            raise TracerError(f"{spec}: {class_name} defines no {method}")
        return owner.__dict__[method], owner, method
    if not hasattr(module, attr):
        raise TracerError(f"{spec}: no such function")
    return getattr(module, attr), module, attr


def import_all(package: str) -> None:
    """Import every module of ``package`` (never ``__main__``)."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        importlib.import_module(info.name)
