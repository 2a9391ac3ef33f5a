"""Layer tracing for nsvertex from outside the program.

Run as ``python3 perfbench/tracer.py <job argv>`` with ``src`` on the
path.  It imports the package, replaces the public functions and methods
of each layer module with counting, timing wrappers, runs the job in
this process and appends one ``TRACE_MARK`` line with the counters to
stdout.  The job argv is either ``-m nsvertex <cli args>`` or
``perfbench/jobs.py <job args>``, exactly as the untraced run starts it.

Each wrapper records calls and, for its outermost activation,
inclusive time.  Self time is charged to the layer of the innermost
wrapped frame, so time spent in stdlib ``fractions`` or in an unwrapped
helper counts for the layer that called it.
"""

import functools
import gc
import json
import os
import sys
import time
import types

TRACE_MARK = "#perfbench-trace "

LAYERS = ("scalars", "linalg", "liealg", "modules", "fields",
          "constructions", "cli")

# Operator methods that carry arithmetic; comparison and hashing dunders
# stay unwrapped because they are called per dict probe.
ARITH_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__"})

# Leaf helpers called once per mode or per field action: a wrapper would
# cost more than they do, so their time counts for the caller.
SKIP = frozenset({"modules.mode_parity", "modules.mode_key",
                  "modules.state_grade2", "modules.state_parity",
                  "fields.gbinom"})


class Tracer:
    """Counters and span stack shared by every installed wrapper."""

    def __init__(self):
        self.calls = {}        # "layer.Qual.name" -> calls
        self.inclusive = {}    # "layer.Qual.name" -> outermost seconds
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.hits = {}         # cache probes: key -> [hits, misses]
        self.rational_mul = 0
        self._stack = [[0.0]]  # child time of the running frame; [0] is the job
        self._active = {}

    def wrap(self, fn, key, layer):
        calls, inclusive, active = self.calls, self.inclusive, self._active
        self_s, stack = self.self_s, self._stack
        calls[key] = 0
        inclusive[key] = 0.0
        active[key] = 0
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[key] += 1
            depth = active[key]
            active[key] = depth + 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                self_s[layer] += dt - frame[0]
                active[key] = depth
                if not depth:
                    inclusive[key] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def probe_cache(self, fn, key, cache_attr, make_key):
        """Count hits and misses of a memo dict that fn fills."""
        counts = self.hits.setdefault(key, [0, 0])

        @functools.wraps(fn)
        def wrapper(self_, *args):
            cache = getattr(self_, cache_attr)
            k = make_key(self_, *args)
            if k in cache:
                counts[0] += 1
                return fn(self_, *args)
            out = fn(self_, *args)
            if k in cache:
                counts[1] += 1
            return out

        return wrapper

    def count_rational(self, fn):
        """Count multiplies whose operands are both rational."""
        @functools.wraps(fn)
        def wrapper(a, b):
            ta = a._t
            tb = b._t if hasattr(b, "_t") else None
            if len(ta) <= 1 and (not ta or 1 in ta) and (
                    tb is None or (len(tb) <= 1 and (not tb or 1 in tb))):
                self.rational_mul += 1
            return fn(a, b)

        return wrapper

    def install(self):
        """Wrap every layer and rebind the wrappers in each importer."""
        import nsvertex.cli  # noqa: F401  (imports every layer)
        from nsvertex import fields, modules, scalars

        # cache probes and operand mix sit under the timing wrapper, so
        # their bookkeeping is charged to the wrapped layer
        modules.Module.apply_to_basis = self.probe_cache(
            modules.Module.apply_to_basis, "modules.apply_to_basis",
            "_apply_cache", lambda m, mode, state: (mode, state))
        fields.Field.act = self.probe_cache(
            fields.Field.act, "fields.act", "_cache",
            lambda f, n, module, state: (module, n, state))
        mul = self.count_rational(scalars.Scalar.__mul__)
        scalars.Scalar.__mul__ = scalars.Scalar.__rmul__ = mul

        replaced = {}     # id of a module-level function -> its wrapper
        for layer in LAYERS:
            mod = sys.modules[f"nsvertex.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or f"{layer}.{name}" in SKIP:
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
                elif isinstance(obj, types.FunctionType) \
                        and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self.wrap(obj, f"{layer}.{name}",
                                                  layer)
        # rebind the names that other modules imported with "from ... import"
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("nsvertex"):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        setattr(mod, name, replaced[id(obj)])

    def _wrap_class(self, cls, layer):
        done = {}         # __rmul__ = __mul__ shares one wrapper and counter
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in ARITH_DUNDERS:
                continue
            static = isinstance(attr, staticmethod)
            fn = attr.__func__ if static else attr
            if not isinstance(fn, types.FunctionType):
                continue
            wrapped = done.get(id(fn))
            if wrapped is None:
                base = getattr(fn, "__wrapped__", fn)
                wrapped = self.wrap(fn, f"{layer}.{base.__qualname__}", layer)
                done[id(fn)] = wrapped
            setattr(cls, name, staticmethod(wrapped) if static else wrapped)

    def report(self) -> dict:
        """Counters, plus the cache entries still held when the job ends."""
        from nsvertex import fields, modules
        apply_entries = field_entries = 0
        for obj in gc.get_objects():
            if isinstance(obj, modules.Module):
                apply_entries += len(obj._apply_cache)
            elif isinstance(obj, fields.Field):
                field_entries += len(obj._cache)
        self_s = dict(self.self_s)
        self_s["job"] = self._stack[0][0]
        return {"calls": {k: v for k, v in self.calls.items() if v},
                "inclusive": {k: v for k, v in self.inclusive.items() if v},
                "self_s": self_s, "hits": self.hits,
                "rational_mul": self.rational_mul,
                "retained": {"modules.apply_to_basis": apply_entries,
                             "fields.act": field_entries}}


def run_job(argv) -> int:
    """Run a job argv in this process, as its own process would."""
    if argv[:2] == ["-m", "nsvertex"]:
        from nsvertex import cli
        return cli.main(argv[2:])
    sys.path.insert(0, os.path.dirname(os.path.abspath(argv[0])))
    import jobs
    return jobs.main(argv[1:])


def main(argv) -> int:
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    code = run_job(argv)
    total = time.perf_counter() - t0
    # the job's own time is total minus what wrapped frames covered
    tracer._stack[0][0] = total - tracer._stack[0][0]
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(tracer.report(), sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
