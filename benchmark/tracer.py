"""Outside-in tracer: spans and counters around nilflow's public calls.

The wrappers live in the benchmark, not in the program.  ``bind_function``
replaces a function on its defining module and on every loaded nilflow
module that imported it by name (``catalog`` imports the solvers by
name, ``cli`` imports ``verify_iso_homomorphism``), so a call is seen
wherever the name is looked up.  ``bind_method`` replaces a method on its
class together with its aliases (``__rmul__ = __mul__``).

A span records name, start, end, parent span and the workload item it
belongs to (an entry, a check or an ``integrate`` call).  Callables that
run hundreds of thousands of times (ratpoly arithmetic, the geodesic
field, linalg kernels) are "hot": they keep one count and summed time per
parent span instead of one span per call, so trace memory stays bounded.
Totals count outermost calls only, so a callable that calls itself is
not counted twice.

``covered[group]`` is the time during which at least one call of the
group was open: the union of its intervals, which is the numerator of a
layer share even when layers of the group nest inside each other.
"""

import json
import sys
import time
from collections import defaultdict


def _matcher(patterns):
    def match(name):
        return any(name.startswith(p[:-1]) if p.endswith("*") else name == p
                   for p in patterns)
    return match


class Tracer:
    def __init__(self, groups):
        self.clock = time.perf_counter
        self.t0 = self.clock()
        self.item = None
        self.spans = []      # [name, start, end, parent, item, attrs]
        self.stack = []      # indices of open spans
        self.agg = defaultdict(lambda: [0, 0.0, defaultdict(int)])
        self.depth = defaultdict(int)
        self.total_s = defaultdict(float)
        self._group_match = {g: _matcher(p) for g, p in groups.items()}
        self._groups_of = {}
        self.open_in = defaultdict(int)
        self.covered = defaultdict(float)

    # -- recording ------------------------------------------------------

    def groups_of(self, name):
        if name not in self._groups_of:
            self._groups_of[name] = [g for g, m in self._group_match.items()
                                     if m(name)]
        return self._groups_of[name]

    def _enter(self, name, groups):
        self.depth[name] += 1
        for g in groups:
            self.open_in[g] += 1

    def _leave(self, name, groups, dt):
        self.depth[name] -= 1
        if self.depth[name] == 0:
            self.total_s[name] += dt
        for g in groups:
            self.open_in[g] -= 1
            if self.open_in[g] == 0:
                self.covered[g] += dt

    def span(self, name, fn, attrs=None):
        """Wrap fn in one span per call; ``name`` may be a function of the
        call's (args, kwargs).  ``attrs(out, args, kwargs)`` adds fields."""
        tr = self

        def wrapper(*args, **kwargs):
            nm = name(args, kwargs) if callable(name) else name
            groups = tr.groups_of(nm)
            idx = len(tr.spans)
            parent = tr.stack[-1] if tr.stack else None
            rec = [nm, None, None, parent, tr.item, None]
            tr.spans.append(rec)
            tr.stack.append(idx)
            tr._enter(nm, groups)
            rec[1] = tr.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = tr.clock()
                tr.stack.pop()
                tr._leave(nm, groups, rec[2] - rec[1])
            if attrs is not None:
                rec[5] = attrs(out, args, kwargs)
            return out

        return wrapper

    def hot(self, name, fn, timed=True, extra=None):
        """Wrap fn with a per-parent count (and summed time when timed);
        ``name`` may be a function of the call's args.  ``extra(counts,
        args)`` adds to named counters of the same aggregate."""
        tr = self
        clock = self.clock

        def wrapper(*args, **kwargs):
            nm = name(args) if callable(name) else name
            if tr.depth[nm]:
                return fn(*args, **kwargs)
            rec = tr.agg[(tr.stack[-1] if tr.stack else None, nm)]
            rec[0] += 1
            if extra is not None:
                extra(rec[2], args)
            if not timed:
                return fn(*args, **kwargs)
            groups = tr.groups_of(nm)
            tr._enter(nm, groups)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t
                rec[1] += dt
                tr._leave(nm, groups, dt)

        return wrapper

    # -- queries --------------------------------------------------------

    def spans_named(self, name):
        return [s for s in self.spans if s[0] == name]

    def calls(self, name):
        return (sum(r[0] for (_, n), r in self.agg.items() if n == name)
                + len(self.spans_named(name)))

    def seconds(self, name):
        return self.total_s.get(name, 0.0)

    def extra(self, name, key):
        return sum(r[2][key] for (_, n), r in self.agg.items() if n == name)

    def child_calls(self, parent, name):
        rec = self.agg.get((parent, name))
        return rec[0] if rec else 0

    def item_of(self, parent):
        return self.spans[parent][4] if parent is not None else None

    # -- output ---------------------------------------------------------

    def write(self, path):
        """All spans and per-parent aggregates as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, item, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "span": i, "name": name, "start": t0 - self.t0,
                    "end": t1 - self.t0, "parent": parent, "item": item,
                    "attrs": attrs}) + "\n")
            for (parent, name), (calls, secs, extra) in self.agg.items():
                fh.write(json.dumps({
                    "aggregate": name, "parent": parent, "calls": calls,
                    "s": secs, "counts": dict(extra)}) + "\n")


# -- binding ------------------------------------------------------------

def _program_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "nilflow" or n.startswith("nilflow."))]


def bind_function(module, name, wrap):
    """Replace module.name by wrap(original) at every nilflow lookup site."""
    orig = getattr(module, name)
    wrapped = wrap(orig)
    for mod in _program_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapped)


def bind_method(cls, name, wrap):
    """Replace cls.name and every alias of it in the class body."""
    orig = cls.__dict__[name]
    wrapped = wrap(orig)
    for attr, val in list(vars(cls).items()):
        if val is orig:
            setattr(cls, attr, wrapped)


def unbound_sites(originals):
    """Lookup sites still holding one of the original callables."""
    ids = {id(f) for f in originals}
    return ["%s.%s" % (mod.__name__, attr) for mod in _program_modules()
            for attr, val in vars(mod).items() if id(val) in ids]
