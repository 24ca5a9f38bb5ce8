"""Layer-boundary tracing of the package, installed from outside it.

Every public function of each layer module (and the public methods,
classmethods and constructors of the classes defined there) is replaced by
a timing wrapper. Because `from .x import y` copies a reference into the
importing module, the wrapper is bound wherever the original is referenced:
module globals of the package and its layers, class dictionaries, and lists
or dicts held at module level (such as `verify.CHECKS`). `leftover()` lists
any reference still pointing at an unwrapped original, so a missed binding
shows instead of silently reporting zero calls.

Spans nest on a stack; a span's self time is its duration minus the time
covered by its child spans. numpy's eigensolvers, `kron` and `einsum` get
counting wrappers (no span), so kernel counts are exact.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "experiments", "measures", "channels", "states",
          "nonlocality", "io", "sampling", "verify")
KERNELS = {
    "eig": ((np.linalg, "eigh"), (np.linalg, "eigvalsh")),
    "kron": ((np, "kron"),),
    "einsum": ((np, "einsum"),),
}
_CONSTRUCTORS = ("__init__", "__post_init__")


class Tracer:
    """Wraps a package's layers; `snapshot()` returns per-function totals."""

    def __init__(self, package: str = "waveparticle"):
        self.package = importlib.import_module(package)
        self.modules = {layer: importlib.import_module(f"{package}.{layer}")
                        for layer in LAYERS}
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.layer_calls: Counter = Counter()
        self.kernel_calls: Counter = Counter()
        self._stack: list = []
        self._wrappers: dict = {}
        self._restore: list = []

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(name, layer, function, owner class or None, attribute) to wrap."""
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if _own_function(obj, mod) and not attr.startswith("_"):
                    yield f"{layer}.{attr}", layer, obj, None, attr
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for name, member in vars(obj).items():
                        if name.startswith("_") and name not in _CONSTRUCTORS:
                            continue
                        func = member.__func__ if isinstance(member, classmethod) else member
                        if _own_function(func, mod):
                            yield f"{layer}.{attr}.{name}", layer, func, obj, name

    def install(self) -> "Tracer":
        for qualname, layer, func, owner, attr in self._targets():
            wrapper = self._wrap(func, qualname, layer)
            self._wrappers[func] = wrapper
            if owner is not None:
                member = vars(owner)[attr]
                bound = classmethod(wrapper) if isinstance(member, classmethod) else wrapper
                self._set(owner, attr, member, bound)
        for mod in (self.package, *self.modules.values()):
            for attr, obj in list(vars(mod).items()):
                if _is_function(obj) and obj in self._wrappers:
                    self._set(mod, attr, obj, self._wrappers[obj])
                elif isinstance(obj, (list, dict)):
                    self._rebind_container(obj)
        for kind, sites in KERNELS.items():
            for owner, attr in sites:
                original = getattr(owner, attr)
                self._set(owner, attr, original, self._count(original, kind))
        return self

    def _rebind_container(self, container) -> None:
        keys = range(len(container)) if isinstance(container, list) else list(container)
        for key in keys:
            obj = container[key]
            if _is_function(obj) and obj in self._wrappers:
                container[key] = self._wrappers[obj]
                self._restore.append((container.__setitem__, key, obj))

    def _set(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._restore.append((lambda k, v, o=owner: setattr(o, k, v), attr, original))

    def uninstall(self) -> None:
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore.clear()
        self._wrappers.clear()

    def leftover(self) -> list[str]:
        """Bindings in the package that still reach an unwrapped original."""
        originals = set(self._wrappers)
        found = []
        for mod in (self.package, *self.modules.values()):
            for attr, obj in vars(mod).items():
                values = (obj.values() if isinstance(obj, dict)
                          else obj if isinstance(obj, (list, tuple)) else (obj,))
                if any(_is_function(v) and v in originals for v in values):
                    found.append(f"{mod.__name__}.{attr}")
        return found

    # -- recording --------------------------------------------------------

    def _wrap(self, func, qualname: str, layer: str):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        layer_calls = self.layer_calls

        def traced(*args, **kwargs):
            caller = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[qualname] += 1
                self_s[qualname] += elapsed - frame[1]
                total_s[qualname] += elapsed
                if caller is None or caller[0] != layer:
                    layer_calls[layer] += 1
                if caller is not None:
                    caller[1] += elapsed

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__qualname__ = func.__qualname__
        traced.__doc__ = func.__doc__
        return traced

    def _count(self, func, kind: str):
        counter = self.kernel_calls

        def counted(*args, **kwargs):
            counter[kind] += 1
            return func(*args, **kwargs)

        return counted

    def reset(self) -> None:
        for table in (self.calls, self.self_s, self.total_s,
                      self.layer_calls, self.kernel_calls):
            table.clear()

    def snapshot(self) -> dict:
        """Totals since the last reset, keyed by layer and function."""
        layer_self = defaultdict(float)
        for qualname, seconds in self.self_s.items():
            layer_self[qualname.split(".", 1)[0]] += seconds
        return {
            "functions": {name: {"calls": self.calls[name], "self_s": self.self_s[name],
                                 "total_s": self.total_s[name]} for name in self.calls},
            "layers": {layer: {"calls": self.layer_calls[layer],
                               "self_s": layer_self[layer]} for layer in LAYERS},
            "kernels": {kind: self.kernel_calls[kind] for kind in KERNELS},
        }


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType)


def _own_function(obj, mod) -> bool:
    code = getattr(obj, "__code__", None)
    return _is_function(obj) and code is not None and code.co_filename == mod.__file__
