"""Spans around calls into commham, recorded from outside the package.

The tracer replaces public functions with timing wrappers at the module
attribute where their callers look them up (for example
`verifier.compute_omega`, which `verify` and the provers call by that name),
so nothing inside the package changes.  Spans are kept in memory as
[name, parent index, start, end] and written out when the run ends.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from commham import cli, decompose, linalg, model, oracle, prover, serialize, verifier


def _split_count(counters, layers) -> None:
    black, white = layers
    counters["split_vertices"] += len(black.split_vertices) + len(white.split_vertices)


def _graph_count(counters, graph) -> None:
    counters["components"] += len(graph.components)
    longest = max((len(c.node_ids) for c in graph.components), default=0)
    counters["max_component_len"] = max(counters["max_component_len"], longest)


def _evaluated_count(counters, result) -> None:
    counters["evaluated"] += result.evaluated


# (module, attribute, span name, counter hook).  A function looked up from
# several modules is patched at each of them under one span name.
PATCHES = [
    (model, "check_commuting", "model.check_commuting", None),
    (verifier, "ground_projectors", "model.ground_projectors", None),
    (oracle, "ground_projectors", "model.ground_projectors", None),
    (verifier, "prepare", "verifier.prepare", None),
    (verifier, "decompose_layers", "decompose.decompose_layers", _split_count),
    (decompose, "operator_schmidt", "linalg.operator_schmidt", None),
    (decompose, "algebra_classify", "linalg.algebra_classify", None),
    (decompose, "common_eigenbasis", "linalg.common_eigenbasis", None),
    (linalg, "common_eigenbasis", "linalg.common_eigenbasis", None),
    (verifier, "verify", "verifier.verify", None),
    (prover, "verify", "verifier.verify", None),
    (verifier, "compute_omega", "verifier.compute_omega", None),
    (prover, "compute_omega", "verifier.compute_omega", None),
    (oracle, "compute_omega", "verifier.compute_omega", None),
    (verifier, "apply_certificate", "verifier.apply_certificate", None),
    (verifier, "effective_states", "verifier.effective_states", None),
    (verifier, "build_overlap_graph", "verifier.build_overlap_graph", _graph_count),
    (verifier, "contract_component", "verifier.contract_component", None),
    (prover, "greedy_search", "prover.greedy_search", _evaluated_count),
    (prover, "exhaustive_search", "prover.exhaustive_search", _evaluated_count),
    (oracle, "total_overlap", "oracle.total_overlap", None),
    (oracle, "ground_dim", "oracle.ground_dim", None),
    (oracle, "certificate_sum", "oracle.certificate_sum", None),
    (oracle, "trace_product_embedded", "linalg.trace_product_embedded", None),
    (serialize, "save_model", "serialize.save_model", None),
    (serialize, "load_model", "serialize.load_model", None),
    (cli, "main", "cli.main", None),
]


class Tracer:
    """In-memory span recorder; use as a context manager to install the
    wrappers and restore the original functions afterwards."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, hook):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counters, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, name, hook in PATCHES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @property
    def active(self) -> bool:
        return bool(self._saved)

    @contextmanager
    def paused(self):
        """Restore the original functions for the body, then wrap them again."""
        self.__exit__()
        try:
            yield
        finally:
            self.__enter__()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (duration
        minus the part covered by direct child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, (name, parent, start, end) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(out)

    def early_zero_exits(self) -> int:
        """compute_omega calls that returned before reaching effective
        states, i.e. at the sliced-norm check."""
        reached = {
            parent for name, parent, _, _ in self.spans if name == "verifier.effective_states"
        }
        return sum(
            1
            for i, (name, _, _, _) in enumerate(self.spans)
            if name == "verifier.compute_omega" and i not in reached
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        data = {
            "names": names,
            "columns": ["name", "parent", "start_s", "end_s"],
            "spans": [[index[n], p, round(a, 7), round(b, 7)] for n, p, a, b in self.spans],
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans.  Layer times are per call of the
    layer's entry point; verifier stage times are per compute_omega call, so
    they add up to verifier.compute_omega_ms.  A layer the workload never
    reaches reads 0."""
    t = tracer.totals()
    c = tracer.counters

    def calls(name: str) -> int:
        return t[name]["calls"] if name in t else 0

    def per_call(name: str, key: str = "total_s", per: str | None = None) -> float:
        n = calls(per or name)
        return t[name][key] / n if n and name in t else 0.0

    omega = "verifier.compute_omega"
    n_omega = calls(omega)
    n_graphs = calls("verifier.build_overlap_graph")
    n_decomp = calls("decompose.decompose_layers")
    provers = [t[n] for n in ("prover.greedy_search", "prover.exhaustive_search") if n in t]
    prover_total = sum(r["total_s"] for r in provers)
    prover_self = sum(r["self_s"] for r in provers)
    n_prover = sum(r["calls"] for r in provers)
    return {
        "model.ground_projectors_s": per_call("model.ground_projectors"),
        "model.check_commuting_s": per_call("model.check_commuting"),
        "decompose.decompose_layers_s": per_call("decompose.decompose_layers"),
        "decompose.split_vertices": c["split_vertices"] / n_decomp if n_decomp else 0.0,
        "linalg.operator_schmidt_calls": calls("linalg.operator_schmidt") / n_decomp if n_decomp else 0.0,
        "linalg.algebra_classify_calls": calls("linalg.algebra_classify") / n_decomp if n_decomp else 0.0,
        "linalg.common_eigenbasis_calls": calls("linalg.common_eigenbasis") / n_decomp if n_decomp else 0.0,
        "verifier.compute_omega_ms": 1e3 * per_call(omega),
        "verifier.apply_certificate_ms": 1e3 * per_call("verifier.apply_certificate", per=omega),
        "verifier.effective_states_ms": 1e3 * per_call("verifier.effective_states", per=omega),
        "verifier.build_overlap_graph_ms": 1e3 * per_call("verifier.build_overlap_graph", per=omega),
        "verifier.contract_component_ms": 1e3 * per_call("verifier.contract_component", per=omega),
        "verifier.self_ms": 1e3 * per_call(omega, key="self_s"),
        "verifier.zero_exit_frac": tracer.early_zero_exits() / n_omega if n_omega else 0.0,
        "verifier.components": c["components"] / n_graphs if n_graphs else 0.0,
        "verifier.max_component_len": c["max_component_len"],
        "prover.evaluated": c["evaluated"] / n_prover if n_prover else 0.0,
        "prover.ms_per_eval": 1e3 * prover_total / c["evaluated"] if c["evaluated"] else 0.0,
        "prover.self_share": prover_self / prover_total if prover_total else 0.0,
        "oracle.total_overlap_s": per_call("oracle.total_overlap"),
        "oracle.ground_dim_s": per_call("oracle.ground_dim"),
        "oracle.certificate_sum_s": per_call("oracle.certificate_sum"),
        "linalg.trace_product_embedded_s": per_call("linalg.trace_product_embedded"),
        "prover.exhaustive_s": per_call("prover.exhaustive_search"),
        "serialize.save_model_s": per_call("serialize.save_model"),
        "serialize.load_model_s": per_call("serialize.load_model"),
        "cli.verify_s": per_call("cli.main"),
    }
