"""Span tracing from outside the package, and the per-layer metrics built on it.

Every public entry point of a layer is replaced by a wrapper that records a
span (name, start, end, parent, rows). A function is rebound under every
name a `cavlab` module holds it by: `trainer` imports `step`,
`local_observation`, `build_adjacency` and `step_reward` into its own
namespace, so patching `sim.step` alone would miss the rollout's calls.
Spans stay in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# Span name -> (module, attribute). Functions are rebound in every cavlab
# module that holds them; methods are replaced on their class.
FUNCTIONS = {
    "sim.step": ("cavlab.sim", "step"),
    "sim.compute_leaders": ("cavlab.sim", "compute_leaders"),
    "sim.detect_collision": ("cavlab.sim", "detect_collision"),
    "sim.local_observation": ("cavlab.sim", "local_observation"),
    "graph.build_adjacency": ("cavlab.graph", "build_adjacency"),
    "rewards.step_reward": ("cavlab.rewards", "step_reward"),
    "trainer.collect_rollout": ("cavlab.trainer", "collect_rollout"),
    "trainer.compute_advantages": ("cavlab.trainer", "compute_advantages"),
    "trainer.critic_update": ("cavlab.trainer", "critic_update"),
    "trainer.actor_update": ("cavlab.trainer", "actor_update"),
    "checkpoint.save": ("cavlab.checkpoint", "save_checkpoint"),
    "checkpoint.load": ("cavlab.checkpoint", "load_checkpoint"),
}
METHODS = {
    "layers.policy_forward": ("cavlab.layers", "PolicyNetwork", "action_mean"),
    "layers.critic_forward": ("cavlab.layers", "CriticNetwork", "values"),
    "layers.adam_step": ("cavlab.layers", "Adam", "step"),
    "layers.adam_restore": ("cavlab.layers", "Adam", "load_state_dict"),
    "tensor.backward": ("cavlab.tensor", "Tensor", "backward"),
}
# Forward passes also record B x N, the agent rows they compute.
ROW_COUNTED = {"layers.policy_forward", "layers.critic_forward"}


def rebind(original, replacement) -> int:
    """Replace `original` by `replacement` in every loaded cavlab module.

    Modules are taken from `sys.modules`, not by attribute access: the
    package re-exports the function `evaluate`, which hides the submodule
    `cavlab.evaluate` from `import cavlab.evaluate as m`.
    """
    importlib.import_module("cavlab.evaluate")
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cavlab" or name.startswith("cavlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


class Tracer:
    """Nested spans of one thread: [name, start, end, parent index, rows]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counted = name in ROW_COUNTED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = 0
            if counted:
                shape = args[1].shape
                rows = shape[0] * shape[1]
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, rows]
            spans.append(span)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[1] = start
                stack.pop()

        return traced

    def install(self) -> None:
        for name, (mod_name, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(mod_name), attr)
            if rebind(original, self.wrap(name, original)) == 0:
                raise RuntimeError(f"{mod_name}.{attr} is bound nowhere")
        for name, (mod_name, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,rows\n")
            for i, (name, start, end, parent, rows) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{rows}\n")

    def layer_metrics(self, agent_steps: int) -> dict[str, tuple[float, str]]:
        """Per-layer counts and self times, keyed by metric name."""
        n = len(self.spans)
        child_time = [0.0] * n
        in_rollout = [False] * n
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_rollout[i] = in_rollout[parent]
            if name == "trainer.collect_rollout":
                in_rollout[i] = True

        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        rows: dict[str, int] = {}
        for i, (name, start, end, _, nrows) in enumerate(self.spans):
            if name == "layers.policy_forward":
                name += ".rollout" if in_rollout[i] else ".update"
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            rows[name] = rows.get(name, 0) + nrows

        out: dict[str, tuple[float, str]] = {}

        def put(name: str, with_rows: bool = False) -> None:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
            if with_rows:
                out[f"{name}.rows"] = (rows.get(name, 0), "rows")

        for name in ("sim.step", "sim.compute_leaders", "sim.local_observation",
                     "graph.build_adjacency", "layers.adam_step", "tensor.backward"):
            put(name)
        for name in ("layers.policy_forward.rollout", "layers.policy_forward.update",
                     "layers.critic_forward"):
            put(name, with_rows=True)
        steps = calls.get("sim.step", 0)
        out["sim.compute_leaders.per_step"] = (
            calls.get("sim.compute_leaders", 0) / steps if steps else 0.0, "calls/step")
        out["sim.local_observation.per_agent_step"] = (
            calls.get("sim.local_observation", 0) / agent_steps if agent_steps else 0.0,
            "calls/agent_step")
        out["layers.adam_restore.calls"] = (calls.get("layers.adam_restore", 0), "count")
        for name in ("sim.detect_collision", "trainer.collect_rollout",
                     "trainer.compute_advantages", "trainer.critic_update",
                     "trainer.actor_update", "rewards.step_reward",
                     "checkpoint.save", "checkpoint.load"):
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        out["trainer.updates"] = (calls.get("trainer.critic_update", 0), "count")
        return out
