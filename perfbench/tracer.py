"""Spans around genset's layers, recorded from outside the package.

    python3 perfbench/tracer.py TRACE_OUT -- GENSET_ARGS...

runs `genset.cli.main(GENSET_ARGS)` in this process with every public
function of families, generate, search, graphs and bounds wrapped in a span,
then writes the spans to TRACE_OUT and exits with main's status. A span is
named after the module that binds the function, so `search.reachable_layers`
(calls made by the search) is told apart from `generate.reachable_layers`
(calls made by check and decompose).

Spans are kept in memory and aggregated by name: a search makes about 10^5
DP calls per invocation, too many to keep one record each. Self time is a
span's duration minus the durations of the spans it directly encloses.

After main returns, the per-layer pass reruns each distinct
`generate.reachable_layers(fam, k)` call with k = 1..k, so that layer j's
time is the difference between the runs with k = j and k = j - 1, and its
coverage is the popcount of layer j. The pass is timed on its own and left
out of the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

LAYER_MODULES = ("families", "generate", "search", "graphs", "bounds")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = defaultdict(int)
        self.dp_calls: list = []
        self._child_time: list[float] = []

    def span(self, name: str, fn, *args, **kwargs):
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            enclosed = self._child_time.pop()
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += duration
            st[2] += duration - enclosed
            if self._child_time:
                self._child_time[-1] += duration

    def _wrap(self, name: str, fn):
        if name == "generate.reachable_layers":
            def traced(*args, **kwargs):
                self.dp_calls.append((fn, args, kwargs))
                return self.span(name, fn, *args, **kwargs)
        elif name == "graphs.count_cliques":
            def traced(*args, **kwargs):
                count = self.span(name, fn, *args, **kwargs)
                self.counters["graphs.cliques_counted"] += count
                return count
        else:
            def traced(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Replace each module's public genset functions, imported ones included, by traced ones."""
        import importlib

        for short in LAYER_MODULES:
            mod = importlib.import_module(f"genset.{short}")
            for attr, value in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__.startswith("genset.")
                ):
                    setattr(mod, attr, self._wrap(f"{short}.{attr}", value))

    def layer_profile(self) -> dict[str, list]:
        """{j: [seconds, covered]} summed over the distinct generate.reachable_layers calls."""
        out: dict[str, list] = {}
        seen = set()
        for fn, args, kwargs in self.dp_calls:
            fam, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
            extra = {key: val for key, val in kwargs.items() if key != "k"}
            if (fam, k) in seen:
                continue
            seen.add((fam, k))
            before = 0.0
            for j in range(1, k + 1):
                start = time.perf_counter()
                layers = fn(fam, j, **extra)
                took = time.perf_counter() - start
                row = out.setdefault(str(j), [0.0, 0])
                row[0] += took - before
                row[1] += layers[j].bit_count()
                before = took
        return out

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.stats, "counters": dict(self.counters), **extra}, fh)


def main(argv: list[str]) -> int:
    out, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE_OUT -- GENSET_ARGS...")
    tracer = Tracer()
    tracer.install()
    from genset import cli

    status = tracer.span("cli.main", cli.main, cli_args)
    sys.stdout.flush()
    start = time.perf_counter()
    layers = tracer.layer_profile()
    tracer.dump(out, layers=layers, layer_pass_s=time.perf_counter() - start)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
