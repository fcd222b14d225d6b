"""In-process spans and counters around regmod's layers, from outside the program.

Each traced name is replaced, where it is looked up, by a wrapper that
records a span (name, start, end, parent, call id) or bumps a counter, and
`restore` puts every original back.  Spans stay in memory until the run
writes them out.  The hot scalar-level calls (`Field.check`, building an
`AlgebraElement`) are only counted: a span each would cost more than the
work it measures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import time
from collections import Counter
from typing import Any, Callable, Optional

# (module, attribute, span name): each name patched where the caller looks it up
SPANNED = (
    ("regmod.cli", "build_parser", "cli.args"),
    ("regmod.cli", "_parse_piece", "cli.args"),
    ("regmod.cli", "_load", "cli.load"),
    ("regmod.cli", "_passport_json", "cli.render"),
    ("regmod.cli", "_vector_json", "cli.render"),
    ("regmod.cli", "_first_difference", "cli.render"),
    ("regmod.cli", "_print_json", "cli.render"),
    ("regmod.cli", "parse_module_file", "module_file.parse"),
    ("regmod.cli", "passport", "classification.passport"),
    ("regmod.classification", "passport", "classification.passport"),
    ("regmod.classification", "regular_eliminate", "classification.eliminate"),
    ("regmod.cli", "kappa", "classification.kappa"),
    ("regmod.cli", "extract_basis", "classification.basis"),
    ("regmod.classification", "extract_basis", "classification.basis"),
    ("regmod.cli", "build_isomorphism", "classification.build_iso"),
    ("regmod.cli", "membership", "module_space.membership"),
    ("regmod.classification", "membership", "module_space.membership"),
    ("regmod.module_space", "solve_linear", "module_space.solve_linear"),
    ("regmod.classification", "fiber_rank", "module_space.fiber_rank"),
    ("checks", "oracle_passport", "oracle.passport"),
    ("checks", "oracle_verify_iso", "oracle.verify_iso"),
)

# (module, class, method, counter name)
COUNTED = (
    ("regmod.fields", "PrimeField", "check", "fields.check_calls"),
    ("regmod.fields", "RationalField", "check", "fields.check_calls"),
    ("regmod.regular_algebra", "AlgebraElement", "__post_init__", "regular_algebra.elements_built"),
)


class Tracer:
    """Spans as [id, call, name, parent, start, end] rows, plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.call: Optional[int] = None
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        row = [len(self.spans), self.call, name, parent, time.perf_counter(), 0.0]
        self.spans.append(row)
        self._stack.append(row[0])
        return row

    def _close(self, row: list) -> None:
        self._stack.pop()
        row[5] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, call: int):
        """A root span owned by the benchmark, e.g. one op; `call` tags its spans."""
        self.call = call
        row = self._open(name)
        try:
            yield
        finally:
            self._close(row)
            self.call = None

    def wrap(self, owner: Any, attr: str, name: str, on_result: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            row = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(row)
            if on_result is not None:
                on_result(result)
            return result

        self._patch(owner, attr, original, spanned)

    def count(self, owner: Any, attr: str, key: str) -> None:
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args):
            counts[key] += 1
            return original(*args)

        self._patch(owner, attr, original, counted)

    def _patch(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install_spans(self, modules: dict[str, Any]) -> None:
        """Wrap every SPANNED name; `modules` maps module names to modules."""
        hooks = {
            "classification.eliminate": self._on_eliminate,
            "module_file.parse": self._on_parse,
        }
        for module, attr, name in SPANNED:
            self.wrap(modules[module], attr, name, hooks.get(name))
        self.wrap(argparse.ArgumentParser, "parse_args", "cli.args")

    def install_counters(self, modules: dict[str, Any]) -> None:
        """Count every COUNTED method.  Kept apart from the spans because
        counting millions of scalar checks slows the layers the spans time."""
        for module, cls, attr, key in COUNTED:
            self.count(getattr(modules[module], cls), attr, key)

    def _on_eliminate(self, result) -> None:
        _, trace = result
        self.counts["classification.pivot_steps"] += len(trace.steps)
        self.counts["classification.leaves"] += len(trace.leaves)

    def _on_parse(self, gens) -> None:
        self.counts["input_scalars"] += len(gens.context) * gens.ambient_dim * len(gens.gens)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def summarize(spans: list[list], root: str) -> dict[str, dict[str, float]]:
    """Per span name below `root` spans: call count, inclusive and self seconds.

    Self time is a span's duration minus the part its direct children cover;
    calls are synchronous, so children never overlap.  The entry for `root`
    itself holds the op time no layer span covers.
    """
    by_id = {row[0]: row for row in spans}
    child_time: Counter = Counter()
    for row in spans:
        if row[3] is not None:
            child_time[row[3]] += row[5] - row[4]
    out: dict[str, dict[str, float]] = {}
    for row in spans:
        top = row
        while top[3] is not None:
            top = by_id[top[3]]
        if top[2] != root:
            continue
        stat = out.setdefault(row[2], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = row[5] - row[4]
        stat["calls"] += 1
        stat["total_s"] += duration
        stat["self_s"] += duration - child_time[row[0]]
    return out
