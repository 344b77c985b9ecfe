"""Spans around the package's layers, for the traced benchmark run only.

Every wrapper replaces a name binding in the module that *calls* the
function, because the package imports with ``from .x import y``: each
loaded ``cuberamsey`` module whose attribute is the original function
gets the wrapper.  A function that a later version no longer has stops
the traced run, so a layer metric never reads 0 because its wrapper went
missing; ``run.py --smoke`` also checks that every wrapped function is
called on some workload.  Spans record name, start, end, parent
span and operation id; they stay in memory and are written out once the
run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# metric prefix -> (defining module, attribute path)
FUNCTIONS = {
    "bits.lowest_bits": ("bits", "lowest_bits"),
    "colored_graph.is_blue_triangle_free": ("colored_graph", "is_blue_triangle_free"),
    "colored_graph.max_disjoint_red_cliques": ("colored_graph", "max_disjoint_red_cliques"),
    "colored_graph.find_red_clique": ("colored_graph", "find_red_clique"),
    "colored_graph.max_balanced_biclique": ("colored_graph", "max_balanced_biclique"),
    "colored_graph.verify_red_embedding": ("colored_graph", "verify_red_embedding"),
    "colored_graph.ColouredGraph.induced": ("colored_graph", "ColouredGraph.induced"),
    "dense_embedding.dense_embed": ("dense_embedding", "dense_embed"),
    "dense_embedding.extend_or_clean": ("dense_embedding", "extend_or_clean"),
    "dense_embedding.embed_partial_assignment": ("dense_embedding", "embed_partial_assignment"),
    "snake_embedding.snake_embed": ("snake_embedding", "snake_embed"),
    "snake_embedding.validate_snake": ("snake_embedding", "validate_snake"),
    "snake_embedding.closed_tree_walk": ("snake_embedding", "closed_tree_walk"),
    "decomposition.decompose": ("decomposition", "decompose"),
    "decomposition.select_gap_threshold": ("decomposition", "select_gap_threshold"),
    "decomposition.verify_decomposition": ("decomposition", "verify_decomposition"),
    "decomposition.Decomposition.json": ("decomposition", "Decomposition.to_json"),
    "decomposition.Decomposition.from_json": ("decomposition", "Decomposition.from_json"),
    "solver.solve": ("solver", "solve"),
    "solver.choose_case": ("solver", "choose_case"),
    "solver.assign_subcubes": ("solver", "assign_subcubes"),
    "hypercube.partition_complement": ("hypercube", "partition_complement"),
    "hypercube.bandwidth_order": ("hypercube", "bandwidth_order"),
    "oracle.exhaustive_ramsey": ("oracle", "exhaustive_ramsey"),
    "oracle.canonical_triangle_free_graphs": ("oracle", "canonical_triangle_free_graphs"),
    "oracle.contains_red_cube": ("oracle", "contains_red_cube"),
}

# to_json and from_json are one layer: the certificate's JSON round trip
SPAN_NAME = {"decomposition.Decomposition.from_json": "decomposition.Decomposition.json"}


def _count_result(name: str, result, counts) -> None:
    """Counters read off a layer's return value."""
    if name == "colored_graph.max_disjoint_red_cliques":
        counts[name + ".cliques"] += len(result)
    elif name == "colored_graph.find_red_clique":
        counts[name + ".found"] += result is not None
    elif name == "dense_embedding.extend_or_clean":
        counts[name + ".extended"] += type(result).__name__ == "Extended"
    elif name == "decomposition.decompose":
        counts[name + ".rounds"] += len(result.rounds)
    elif name == "solver.choose_case":
        counts["solver.route_dense.count" if result == 1 else "solver.route_snake.count"] += 1
    elif name == "oracle.canonical_triangle_free_graphs":
        counts[name + ".classes"] += len(result)
    elif name == "oracle.contains_red_cube":
        counts[name + ".nodes"] += result.nodes


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        # [name, start, end, parent index, op id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        span_name = SPAN_NAME.get(name, name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [span_name, perf_counter(), None, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            _count_result(name, result, counts)
            return result

        return functools.wraps(fn)(traced)

    def install(self, package: str = "cuberamsey") -> None:
        """Wrap every function of FUNCTIONS; raises LookupError naming
        the functions that cannot be found."""
        missing = []
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for name, (modname, path) in FUNCTIONS.items():
            home = sys.modules.get(f"{package}.{modname}")
            if home is None:
                missing.append(name)
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name, None)
                raw = cls.__dict__.get(attr) if cls is not None else None
                if raw is None:
                    missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, raw))
                continue
            original = getattr(home, path, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        if missing:
            raise LookupError(f"cannot trace, not found: {', '.join(missing)}")

    def op_span(self, kind: str, op_id: int):
        """Open the root span of one benchmark operation; returns a closer.

        An operation aborted by its budget can leave a span open, when
        the abort lands between opening it and entering its ``try``;
        closing the operation closes every span it opened.
        """
        self.op = op_id
        first = len(self.spans)
        self.spans.append([f"op.{kind}", perf_counter(), None, -1, op_id])
        self.stack.append(first)

        def close():
            now = perf_counter()
            for span in self.spans[first:]:
                if span[2] is None:
                    span[2] = now
            self.stack.clear()
            self.op = -1

        return close

    def layer_metrics(self) -> dict[str, float]:
        """Totals of the run: <layer>.s counts outermost spans of a name
        only; <layer>.self_s subtracts the time of child spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            total[name + ".calls"] += 1
            total[name + ".self_s"] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total[name + ".s"] += t1 - t0
        for key, value in self.counts.items():
            total[key] += value
        for layer, hit in (
            ("colored_graph.find_red_clique", "found"),
            ("dense_embedding.extend_or_clean", "extended"),
        ):
            calls = total[f"{layer}.calls"]
            total[f"{layer}.{hit}_share"] = (
                total[f"{layer}.{hit}"] / calls if calls else 0.0
            )
        return dict(total)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                f.write(json.dumps(
                    {"id": i, "name": name, "start": t0, "end": t1,
                     "parent": parent, "op": op}) + "\n")
