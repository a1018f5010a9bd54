"""Pure helpers of the benchmark: percentile rule, self time, import parsing.

Nothing here imports martkit or starts a process, so the helpers can be
tested on synthetic input (see ``test_metrics.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# A tail percentile is reported only where at least this many samples lie
# beyond it, so that one slow outlier cannot set it alone.
TAIL_BEYOND = 10


def tail_point(samples: Sequence[float],
               beyond: int = TAIL_BEYOND) -> Tuple[float, float]:
    """(value, percentile): the highest percentile with ``beyond`` above it.

    With n sorted samples the value at rank k (0-based) has n-1-k samples
    after it, so the highest admissible rank is n-1-beyond; its percentile
    is the share of samples at or below it.  Fewer than beyond+1 samples
    admit no such point and raise ValueError.
    """
    n = len(samples)
    if n < beyond + 1:
        raise ValueError(f"need at least {beyond + 1} samples, got {n}")
    rank = n - 1 - beyond
    return sorted(samples)[rank], 100.0 * (rank + 1) / n


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """The smallest sample with at least ``pct`` percent at or below it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def by_type(samples: Iterable[Tuple[str, int, float]],
            pct: float) -> Dict[str, Tuple[int, float]]:
    """Type -> (requested paths, latency at ``pct``) over (type, paths,
    latency) samples.

    Each operation type enters a figure built from these once, so the
    figure does not move with how many operations of each type a run
    fitted before its time ran out.
    """
    found: Dict[str, Tuple[int, List[float]]] = {}
    for kind, paths, latency in samples:
        found.setdefault(kind, (paths, []))[1].append(latency)
    return {k: (p, nearest_rank(t, pct)) for k, (p, t) in found.items()}


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


@dataclass
class Span:
    """One timed call at a layer boundary."""

    sid: int
    layer: str
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover.

    Children may overlap (spans from worker threads share a parent), so
    the covered part is the union of their intervals, not their sum.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - covered(children.get(s.sid, ()), s.start,
                                        s.end)
            for s in spans}


def layer_busy(spans: Sequence[Span], layer: str) -> float:
    """Time the layer was on a stack: spans of the layer not nested in it."""
    by_id = {s.sid: s for s in spans}
    total = 0.0
    for s in spans:
        if s.layer != layer:
            continue
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != layer:
            total += s.duration
    return total


# ---------------------------------------------------------------------------
# python -X importtime


@dataclass
class ImportNode:
    name: str
    depth: int
    self_us: int
    cumulative_us: int
    children: List["ImportNode"] = field(default_factory=list)


def parse_importtime(text: str) -> List[ImportNode]:
    """Top-level import trees from ``python -X importtime`` stderr.

    Lines come in post-order (a package after everything it imported) and
    the name column is indented two spaces per nesting level, so each
    line adopts the deeper lines still waiting above it.
    """
    stack: List[ImportNode] = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the column header
        label = parts[2]
        depth = (len(label) - len(label.lstrip(" ")) - 1) // 2
        node = ImportNode(label.strip(), depth, self_us, cum_us)
        adopted = []
        while stack and stack[-1].depth > depth:
            adopted.append(stack.pop())
        node.children = adopted[::-1]
        stack.append(node)
    return stack


def import_buckets(roots: Sequence[ImportNode],
                   targets: Sequence[str]) -> Dict[str, float]:
    """Seconds each target module adds beyond the other targets it pulls in.

    A target's bucket is its cumulative import time minus the cumulative
    time of the nearest targets nested below it, so the buckets partition
    the time of the outermost target.  Targets never imported read 0.
    """
    wanted = set(targets)
    out = {t: 0.0 for t in targets}

    def nested_targets_us(node: ImportNode) -> int:
        total = 0
        for child in node.children:
            if child.name in wanted:
                total += child.cumulative_us
            else:
                total += nested_targets_us(child)
        return total

    def visit(node: ImportNode) -> None:
        if node.name in wanted:
            out[node.name] = (node.cumulative_us
                              - nested_targets_us(node)) / 1e6
        for child in node.children:
            visit(child)

    for root in roots:
        visit(root)
    return out
