"""In-memory span tracing of cafreq layer functions, by attribute rebinding.

A traced job wraps the functions listed in SPANS and COUNTERS.  Each
wrapper is bound in place of the original under every name that refers to
it in any loaded `cafreq` module, so calls made through an imported alias
(`cafreq.measures.self_compose`, `cafreq.interval_swap.bernoulli_word`,
`cli.correlation.histogram`, ...) are traced as well.  `uninstall` puts
every original back.

A span is (name, parent span, start, end).  Spans stay in flat arrays until
the job writes them out with `dump`; `self_times` turns a dump back into
per-name call counts and self time (duration minus the time of child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

# (module, function) pairs recorded as spans.  These are the layer
# boundaries the per-layer metrics name; helpers inside a layer (apply_word,
# compose, _preimage_iter, ...) stay unwrapped so that their time counts as
# self time of the layer function that called them.
SPANS = (
    ("cafreq.cli", "main"),
    ("cafreq.rules", "self_compose"),
    ("cafreq.rules", "enumerate_rules"),
    ("cafreq.rules", "is_surjective"),
    ("cafreq.correlation", "histogram"),
    ("cafreq.correlation", "find_conservation_violation"),
    ("cafreq.correlation", "check_high_domination"),
    ("cafreq.correlation", "check_prefix_sum_conjecture"),
    ("cafreq.measures", "pushforward"),
    ("cafreq.measures", "iterate_pushforward"),
    ("cafreq.measures", "check_uniform_contraction"),
    ("cafreq.interval_swap", "check_swap_params"),
    ("cafreq.interval_swap", "run_swap_trials"),
    ("cafreq.block_sampler", "sample_hierarchical"),
    ("cafreq.block_sampler", "xor_iterate"),
    ("cafreq.rng", "bernoulli_word"),
)

# SplitMix64 methods called too often for a span each: counted only.
COUNTERS = (("cafreq.rng", "SplitMix64", "next64"), ("cafreq.rng", "SplitMix64", "for_index"))

MARK = "_perfbench_wrapper"


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('cafreq.')}.{attr}"


def _cafreq_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "cafreq" or name.startswith("cafreq.")
    ]


class Tracer:
    """Span and counter store for one traced job."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, k: int) -> int:
        i = len(self.start)
        self.name_idx.append(k)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(self.clock())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = self.clock()
        self.stack.pop()

    def span_wrapper(
        self, name: str, fn: Callable, on_result: Optional[Callable] = None
    ) -> Callable:
        k = len(self.names)
        self.names.append(name)
        if inspect.isgeneratorfunction(fn):
            # one span per step, so a generator's self time is its own work
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    i = self._open(k)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    yield item

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = self._open(k)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(i)
                if on_result is not None:
                    on_result(result)
                return result

        setattr(wrapper, MARK, name)
        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        counters = self.counters
        counters[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, name)
        return wrapper

    # -- installing -----------------------------------------------------------

    def _rebind_everywhere(self, original: object, wrapper: object) -> None:
        for mod in _cafreq_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every SPANS function and COUNTERS method that exists."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        hooks = {"block_sampler.sample_hierarchical": self._on_hierarchical_sample}
        for module, attr in SPANS:
            # importlib: `cafreq.correlation` as an attribute is the re-exported
            # function of that name, not the submodule
            mod = importlib.import_module(module)
            name = span_name(module, attr)
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(name)  # reported, and its metrics read 0
                continue
            self._rebind_everywhere(original, self.span_wrapper(name, original, hooks.get(name)))
        for module, cls_name, attr in COUNTERS:
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[attr]
            name = span_name(module, attr) + ".calls"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.count_wrapper(name, raw.__func__))
            else:
                wrapped = self.count_wrapper(name, raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def _on_hierarchical_sample(self, sample) -> None:
        rejections = self.counters.get("block_sampler.rejections", 0)
        self.counters["block_sampler.rejections"] = rejections + sample.rejections

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def dump(self, directory: Path) -> None:
        """Write spans.json (names, counters) and spans.bin (the span arrays)."""
        with open(directory / "spans.bin", "wb") as fh:
            for arr in (self.name_idx, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {"names": self.names, "spans": len(self.start), "counters": self.counters}
        (directory / "spans.json").write_text(json.dumps(meta))


def installed_wrappers() -> list[str]:
    """Names of tracing wrappers still bound anywhere in loaded cafreq modules."""
    found = []
    for mod in _cafreq_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for meth, raw in vars(value).items():
                    if hasattr(getattr(raw, "__func__", raw), MARK):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


def load(directory: Path) -> tuple[dict, array, array, array, array]:
    meta = json.loads((directory / "spans.json").read_text())
    n = meta["spans"]
    name_idx, parent, start, end = array("i"), array("i"), array("d"), array("d")
    with open(directory / "spans.bin", "rb") as fh:
        for arr in (name_idx, parent, start, end):
            arr.fromfile(fh, n)
    return meta, name_idx, parent, start, end


def self_times(directory: Path) -> tuple[dict[str, tuple[int, float]], dict[str, int], int]:
    """Per span name (calls, self seconds), the counters, and the span count.

    Self time is a span's duration minus the durations of its children;
    spans nest strictly because the traced code is single threaded.
    """
    meta, name_idx, parent, start, end = load(directory)
    n = meta["spans"]
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    totals = {name: [0, 0.0] for name in meta["names"]}
    for i in range(n):
        entry = totals[meta["names"][name_idx[i]]]
        entry[0] += 1
        entry[1] += dur[i] - child[i]
    return {k: (c, s) for k, (c, s) in totals.items()}, meta["counters"], n
