"""Span recorder for the benchmark's traced run.

``Tracer.patch`` replaces a function or method of ``mempoolsim`` with a
wrapper that records one span per call: (id, name, start_ns, end_ns,
parent id, policy). The original is replaced under every name a
``mempoolsim`` module holds it by, because modules import each other's
functions by name (``replay`` holds ``build_block`` and ``drain``). Spans
stay in memory until ``write`` is called.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, int, int, int, str]  # id, name, start_ns, end_ns, parent id, policy


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.policy = ""
        self._stack: List[int] = [-1]
        self._next_id = 0
        self._undo: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call; ``observe(counts, result)`` runs
        after the span has ended."""
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.policy))
            if observe is not None:
                observe(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, name: str, owner, attr: str, observe: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, observe)
        holders = [owner] + [
            module
            for mod_name, module in list(sys.modules.items())
            if (mod_name == "mempoolsim" or mod_name.startswith("mempoolsim."))
            and module is not owner
            and getattr(module, attr, None) is original
        ]
        for holder in holders:
            self._undo.append((holder, attr, original))
            setattr(holder, attr, wrapped)

    def unpatch(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,policy\n")
            for span in sorted(self.spans):
                fh.write(",".join(map(str, span)) + "\n")


def self_times(spans: List[Span]) -> Dict[Tuple[str, str], int]:
    """(name, policy) -> summed self time in ns: each span's duration minus
    the durations of its direct children. Calls nest on one thread, so
    children cover disjoint parts of their parent."""
    covered: Dict[int, int] = {}
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0) + end - start
    totals: Dict[Tuple[str, str], int] = {}
    for span_id, name, start, end, _, policy in spans:
        key = (name, policy)
        totals[key] = totals.get(key, 0) + end - start - covered.get(span_id, 0)
    return totals


def misnested(spans: List[Span]) -> int:
    """Number of spans that do not lie within their parent's interval or ran
    under another policy than their parent."""
    by_id = {span_id: (start, end, policy) for span_id, _, start, end, _, policy in spans}
    bad = 0
    for _, _, start, end, parent, policy in spans:
        if parent >= 0:
            p_start, p_end, p_policy = by_id.get(parent, (end, start, None))
            bad += not (p_start <= start <= end <= p_end and p_policy == policy)
    return bad
