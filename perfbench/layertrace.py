"""Per-layer host-time attribution for one op, from outside the program.

:class:`LayerProfiler` runs a call under :mod:`cProfile` and folds the
per-function statistics into self time per ``repro.<layer>.<module>``:

* a function defined in a ``repro`` source file is charged to its module;
* any other function (stdlib, third-party, builtins) is charged to the
  modules of its callers, in proportion to the time each caller spent
  in it, so time in ``heapq``, ``set`` methods or a lock wait lands in
  the calling layer instead of an anonymous "builtins" bucket;
* what no ``repro`` frame called belongs to ``"bench"``.

It also counts calls of selected functions and reports the inclusive
time of others.
Profiling slows the calls it sees; report its overhead next to the
numbers it produces.
"""

from __future__ import annotations

import cProfile
import types
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

BENCH = "bench"

#: cProfile's key for a function: ``(filename, first line, name)``.
FuncKey = tuple[str, int, str]


def func_key(fn) -> FuncKey:
    code = fn if isinstance(fn, types.CodeType) else getattr(fn, "__func__", fn).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def nested_codes(fn: Callable, name: str) -> list[types.CodeType]:
    """Code objects of the functions called *name* defined inside *fn*."""
    fn = getattr(fn, "__wrapped__", fn)  # see through functools decorators
    return [
        c
        for c in fn.__code__.co_consts
        if isinstance(c, types.CodeType) and c.co_name == name
    ]


def adopt(fn: Callable, original: Callable) -> Callable:
    """A copy of *fn* that profilers attribute to *original*'s module.

    The copy keeps *fn*'s code and closure but takes *original*'s
    globals, file name and ``__name__``.  *fn* must reach everything it
    uses through its closure.
    """
    code = fn.__code__.replace(co_filename=original.__code__.co_filename)
    return types.FunctionType(
        code, original.__globals__, original.__name__, None, fn.__closure__
    )


def counting(original: Callable, counts: dict, name: str) -> Callable:
    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    return adopt(counted, original)


class LayerProfiler:
    """Self time per module, call counts and inclusive times for one call.

    Parameters
    ----------
    src_root:
        Directory holding the ``repro`` package; files under it map to
        module names.
    counted:
        ``{metric: [target, ...]}``; every call of a target adds one to
        the metric.  A target is a function or code object, counted from
        the profile, or an ``(owner, attribute)`` pair, which is replaced
        by a counting copy for the call: needed for generator functions,
        whose every resume the profile counts as a call.
    timed:
        ``{metric: [function, ...]}``; the inclusive time of the listed
        functions is summed into the metric.
    """

    def __init__(
        self,
        src_root: Path,
        counted: Optional[dict[str, list]] = None,
        timed: Optional[dict[str, list[Callable]]] = None,
    ) -> None:
        self._src = str(Path(src_root).resolve()) + "/"
        self._counted = counted or {}
        self._timed = timed or {}
        self._modules: dict[str, Optional[str]] = {}
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = {name: 0 for name in self._counted}
        self.inclusive_s: dict[str, float] = {name: 0.0 for name in self._timed}

    def run(self, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` under the profiler; return its result."""
        patched = []
        for name, targets in self._counted.items():
            for owner, attr in (t for t in targets if isinstance(t, tuple)):
                original = owner.__dict__[attr]
                patched.append((owner, attr, original))
                setattr(owner, attr, counting(original, self.counts, name))
        prof = cProfile.Profile()
        try:
            return prof.runcall(fn, *args, **kwargs)
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
            prof.create_stats()
            self._fold(prof.stats)

    # -- folding -------------------------------------------------------------
    def module_of(self, filename: str) -> Optional[str]:
        """``repro.x.y`` for a file under the source root, else ``None``."""
        try:
            return self._modules[filename]
        except KeyError:
            pass
        module = None
        if filename.startswith(self._src) and filename.endswith(".py"):
            parts = filename[len(self._src) : -3].split("/")
            if parts[0] == "repro":
                if parts[-1] == "__init__":
                    parts.pop()
                module = ".".join(parts)
        self._modules[filename] = module
        return module

    def _fold(self, stats: dict) -> None:
        shares: dict[FuncKey, dict[str, float]] = {}

        def owners(func: FuncKey, visiting: set) -> dict[str, float]:
            """Share of *func*'s self time owed to each module."""
            if func in shares:
                return shares[func]
            module = self.module_of(func[0])
            if module is not None:
                return shares.setdefault(func, {module: 1.0})
            callers = stats[func][4] if func in stats else {}
            total = sum(c[2] for c in callers.values())
            if func in visiting or total <= 0.0:
                return {BENCH: 1.0}
            visiting.add(func)
            out: dict[str, float] = defaultdict(float)
            for caller, c in callers.items():
                for mod, share in owners(caller, visiting).items():
                    out[mod] += share * c[2] / total
            visiting.discard(func)
            shares[func] = out
            return out

        for func, (_, _, tt, _, _) in stats.items():
            for module, share in owners(func, set()).items():
                self.self_s[module] += tt * share
        for name, targets in self._counted.items():
            for target in targets:
                if not isinstance(target, tuple):
                    self.counts[name] += stats.get(func_key(target), (0, 0))[1]
        for name, fns in self._timed.items():
            for fn in fns:
                self.inclusive_s[name] += stats.get(func_key(fn), (0,) * 4)[3]

    def layer_self_s(self, prefix: str) -> float:
        """Self time of every module under ``repro.<prefix>``.

        *prefix* is a layer (``"network"``) or a module within one
        (``"ompss.graph"``).
        """
        full = "repro." + prefix
        return sum(
            t
            for module, t in self.self_s.items()
            if module == full or module.startswith(full + ".")
        )
