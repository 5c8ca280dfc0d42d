"""Per-layer spans for the traced benchmark pass, recorded from outside the package.

Each traced function is wrapped once and the wrapper is installed wherever
a caller looks the name up: in the defining module, in every ``evonas``
module that imported the name, and in the package namespace.  Patching only
the defining module would miss calls made through imported names, such as
``evonas.evolution.query`` or ``evonas.zeroproxy.build_network``.

Spans are aggregated in memory per (name, parent name): call count,
inclusive time and self time (inclusive time minus the time covered by
child spans).  Work the benchmark adds while tracing (one extra forward
pass per scored network) is timed on its own and shifted out of every open
span, so it counts in no span and not in the traced total either.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer module, attribute); "Class.method" patches a class attribute.
TRACED = {
    "rng": ("RngStream.child",),
    "cellspace": ("mutate", "random_arch", "decode_str", "encode_str"),
    "batches": ("make_batch", "load_raw_batch"),
    "tensornet": ("build_network", "input_jacobian"),
    "zeroproxy": ("score_arch", "per_class_correlation", "eval_matrix"),
    "oracle": ("gen_synthetic", "save_tabular", "load_tabular", "best_of", "query"),
    "stats": ("kendall_tau", "welch_ttest"),
    "evolution": (
        "run_search",
        "run_random_search",
        "init_population",
        "tournament_select",
        "spawn_generation",
        "remove_survivor",
    ),
    "experiment": ("run_experiment", "emit_results"),
}


class Tracer:
    """Aggregating span recorder; `install` patches the package in place."""

    def __init__(self):
        self.active = False
        self.stack: list = []  # open frames: [name, start, child_time]
        self.spans: dict = {}  # (name, parent) -> [calls, total_s, self_s]
        self.excluded_s = 0.0
        self.probe = [0, 0.0]  # extra forward passes: calls, s
        self.sentinels = 0
        self.conv_flop = 0.0
        self._flop_of = None

    # -- span bookkeeping ---------------------------------------------------

    def _record(self, name, dur, self_s):
        parent = self.stack[-1][0] if self.stack else None
        rec = self.spans.get((name, parent))
        if rec is None:
            rec = self.spans[(name, parent)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += self_s

    def wrap(self, name, fn):
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                self._record(name, dur, dur - frame[2])

        return traced

    def shift(self, dur: float) -> None:
        """Leave `dur` seconds of benchmark work just done out of every open span."""
        for frame in self.stack:
            frame[1] += dur

    def probe_forward(self, forward, net, batch):
        """Time one extra forward pass, kept out of every span and the total."""
        start = time.perf_counter()
        forward(net, batch)
        dur = time.perf_counter() - start
        self.shift(dur)
        self.excluded_s += dur
        self.probe[0] += 1
        self.probe[1] += dur

    # -- installation ---------------------------------------------------------

    def install(self, flop_of):
        """Wrap every TRACED function in all loaded evonas modules.

        `flop_of(net, n)` returns the computed conv FLOPs of one scoring of
        `net` on a batch of `n` samples.
        """
        self._flop_of = flop_of
        modules = [m for n, m in sys.modules.items() if n == "evonas" or n.startswith("evonas.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"evonas.{layer}"]
            for attr in names:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self.wrap(f"{layer}.{meth}", getattr(cls, meth)))
                    continue
                orig = getattr(home, attr)
                wrapped = self.wrap(f"{layer}.{attr}", self._special(layer, attr, orig))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)

    def _special(self, layer, attr, orig):
        """Inner behaviour for functions whose calls also feed counters."""
        if (layer, attr) == ("evolution", "run_search"):
            wrap = self.wrap

            def run_search(cfg, bench, scorer=None, *args, **kwargs):
                if scorer is not None:
                    scorer = wrap("evolution.scorer", scorer)
                return orig(cfg, bench, scorer, *args, **kwargs)

            return run_search
        if (layer, attr) == ("zeroproxy", "score_arch"):

            def score_arch(*args, **kwargs):
                result = orig(*args, **kwargs)
                if self.active:
                    self.sentinels += result.is_sentinel
                return result

            return score_arch
        if (layer, attr) == ("tensornet", "input_jacobian"):
            from evonas.tensornet import forward

            def input_jacobian(net, batch, labels):
                result = orig(net, batch, labels)
                if self.active:
                    self.probe_forward(forward, net, batch)
                    self.conv_flop += self._flop_of(net, len(batch))
                return result

            return input_jacobian
        return orig

    # -- results --------------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, total_s, self_s], summed over parents."""
        out: dict = {}
        for (name, _parent), (calls, total, self_s) in self.spans.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

    def span_table(self) -> list:
        return [
            {"name": n, "parent": p, "calls": c, "s": t, "self_s": s}
            for (n, p), (c, t, s) in sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        ]
