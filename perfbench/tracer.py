"""Spans around gssm's public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function wherever a gssm module has
bound it -- as a module global (e.g. `gssm.layers.gnn_diffuse`,
`gssm.harness.gnn_diffuse`, `gssm.hippo.edges_at`) or as a value of a
module-level dispatch table -- with a wrapper that records a span, and
`remove()` puts every original back.  Nothing under `src/` changes.

A span is (name, start, end, parent, op id).  Spans stay in memory and are
written as JSON lines at the end.  A span's self time is its duration minus
the time covered by its child spans.  A few wrappers also record a count
computed from the call's arguments, outside the timed interval.
"""

import bisect
import functools
import json
import sys
import time

# "<module>.<function>" of every traced function, named by its defining module.
TRACED = (
    "tgraph.edges_at", "tgraph.laplacian", "tgraph.adjacency_from_edges",
    "hippo.integrate_hippo", "hippo.projection_oracle",
    "discretize.MutationSchedule.from_stream", "discretize.segment_weights",
    "discretize.zoh_oracle_step", "discretize.mixed_estimate",
    "scan.scan_parallel", "scan.scan_sequential",
    "layers.gnn_diffuse", "layers.apply_mix", "layers.s4_forward",
    "layers.s5_forward", "layers.s6_forward", "layers.block_forward",
    "harness.gen_synthetic", "harness.sample_model", "harness.extract_features",
    "harness.static_features", "harness.train_readout", "harness.readout_loss",
    "harness.f1_scores", "harness.run_experiment",
    "cli.main", "cli.suite_projection", "cli.suite_zoh", "cli.suite_weights",
    "cli.suite_reduction",
)


def _events_replayed(stream, t, *_, **__):
    """Events with time <= t: what one edge-set query has to replay."""
    return bisect.bisect_right(stream.mutation_times, t)


def _elements(inp, *_, **__):
    return int(inp.decay.size)


COUNTS = {"tgraph.edges_at": _events_replayed,
          "scan.scan_parallel": _elements, "scan.scan_sequential": _elements}


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, op id, child seconds, count]
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [name, 0.0, 0.0, parent, self.op, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][5] += rec[2] - rec[1]
                if count is not None:
                    rec[6] = count(*args, **kwargs)
        return traced

    def _patch(self, target, key, new):
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = new
        else:
            self._undo.append((target, key, vars(target)[key]))
            setattr(target, key, new)

    def install(self):
        """Wrap every traced function that exists in the loaded gssm."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gssm" or n.startswith("gssm.")]
        for qual in TRACED:
            mod_name, _, attr = qual.partition(".")
            owner = sys.modules.get(f"gssm.{mod_name}")
            *path, fname = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            if path:  # a classmethod: wrap the function behind the descriptor
                desc = vars(owner).get(fname)
                if isinstance(desc, classmethod):
                    self._patch(owner, fname, classmethod(self._wrap(qual, desc.__func__)))
                continue
            orig = vars(owner).get(fname)
            if not callable(orig):
                continue
            wrapped = self._wrap(qual, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapped)
                    elif type(val) is dict and not key.startswith("__"):
                        for k, v in list(val.items()):
                            if v is orig:
                                self._patch(val, k, wrapped)

    def remove(self):
        while self._undo:
            target, key, old = self._undo.pop()
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)

    def totals(self) -> dict:
        """name -> [calls, total seconds, self seconds, summed count]."""
        agg = {}
        for name, start, end, _, _, child, count in self.spans:
            a = agg.setdefault(name, [0, 0.0, 0.0, 0])
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child
            a[3] += count or 0
        return agg

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, child, count) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start - origin,
                       "end": end - origin, "parent": parent, "op": op,
                       "self_s": end - start - child}
                if count is not None:
                    rec["count"] = count
                fh.write(json.dumps(rec) + "\n")
