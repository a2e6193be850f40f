"""Outside-in tracing: wrap ncflab's public functions from the benchmark's side.

:class:`Tracer` replaces each traced function with a wrapper that records a
span: calls, self time (span time minus the time of child spans) and
exceptions that escape it.  The wrapper is installed under every module-level
name that refers to the function in any loaded ``ncflab`` module, so calls
through an import alias (``enumeration.cert_profile``, ``symmetry.decompose``)
are caught as well as calls through the home module; methods are patched on
their class.  Spans are aggregated per function as they close instead of
being stored, because ``verify 5`` opens millions of them.

A function is named ``<layer>.<name>``: a module-level function of
``ncflab.<layer>``, or else a method of a class defined there.  Names missing
from the program (renamed or merged away) simply report zero calls.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Aggregated spans over the traced functions, while installed."""

    def __init__(self, keys) -> None:
        self.keys = tuple(keys)  # "<layer>.<function or method name>"
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.items: Counter[str] = Counter()  # values yielded by generators
        self.hits: Counter[str] = Counter()  # see _HIT_TESTS
        self.errors: Counter[str] = Counter()  # per layer
        self.tables_built = 0
        self._stack: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------

    def install(self) -> None:
        loaded = [m for key, m in sys.modules.items() if key.split(".")[0] == "ncflab"]
        for key in self.keys:
            layer, _, attr = key.partition(".")
            home = sys.modules.get(f"ncflab.{layer}")
            if home is None:
                continue
            if attr in vars(home):
                raw = vars(home)[attr]
                wrapper = self._wrap(key, layer, raw)
                for module in loaded:
                    for alias, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, alias, wrapper)
                continue
            for cls in vars(home).values():
                if inspect.isclass(cls) and cls.__module__ == home.__name__ and attr in vars(cls):
                    raw = vars(cls)[attr]
                    if isinstance(raw, classmethod):
                        wrapper = classmethod(self._wrap(key, layer, raw.__func__))
                    else:
                        wrapper = self._wrap(key, layer, raw)
                    self._patch(cls, attr, wrapper)
        core = sys.modules.get("ncflab.core")
        if core is not None:
            cls = core.BooleanFunction
            built = cls.__post_init__

            def counted(obj):
                self.tables_built += 1
                return built(obj)

            self._patch(cls, "__post_init__", counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # ------------------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(key, layer, fn)
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, errors, hits = self.calls, self.self_s, self.errors, self.hits
        hit_test = _HIT_TESTS.get(key)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                span = clock() - start
                self_s[key] += span - stack.pop()
                if stack:
                    stack[-1] += span
                calls[key] += 1
            if hit_test is not None and hit_test(args, result):
                hits[key] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, key: str, layer: str, fn):
        """Each resumption is a span; the consumer's work between items is not."""
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            inner = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except Exception:
                    self.errors[layer] += 1
                    raise
                finally:
                    span = clock() - start
                    self.self_s[key] += span - stack.pop()
                    if stack:
                        stack[-1] += span
                self.items[key] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper


#: Wrapped functions whose results are also counted as hits:
#: ``permute_inputs`` returning its input (an automorphism) and
#: ``equivalent`` answering true.
_HIT_TESTS = {
    "core.permute_inputs": lambda args, result: result == args[0],
    "symmetry.equivalent": lambda args, result: result is True,
}
