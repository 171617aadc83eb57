"""Per-layer self time and counters, recorded from outside the program.

:class:`Tracer` wraps the public entry points of each bridgelen module (one
module is one layer) at every name through which callers look them up: a
method on its class, a function on every module that holds it.  Each call
becomes a span; a span's self time is its duration minus that of the spans
it encloses, kept per thread so that concurrent batch workers do not mix.
Counters are read from arguments, results and the public state of the
objects the wrapped calls create.

``install()`` and ``uninstall()`` swap the wrappers in and out, so untimed
code runs the program exactly as shipped.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import defaultdict

#: (span key, module, class or None, attribute).  The key's first part is
#: the layer: the module that defines the wrapped name.
SPANS = (
    ("edges.stream", "edges", "EdgeGenerator", "__init__"),
    ("edges.stream", "edges", "EdgeGenerator", "__next__"),
    ("quotient.classify", "quotient", "QuotientState", "classify_edge"),
    ("intlinalg.add", "intlinalg", "OnlineSnfState", "add"),
    ("geometry.motif", "geometry", "Motif", "__init__"),
    ("geometry.cell_metrics", "geometry", None, "cell_metrics"),
    ("ingest.parse", "ingest", None, "parse_cif"),
    ("ingest.expand", "ingest", None, "to_periodic_set"),
    ("ingest.read", "ingest", None, "read_set_file"),
    ("bridge", "bridge", None, "bridge_length"),
)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._generators = []
        self._patches = self._build_patches()

    # ------------------------------------------------------------ patching

    def _build_patches(self):
        """(owner, attribute, original, wrapper) for every lookup name."""
        patches = []
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "bridgelen" or name.startswith("bridgelen.")
        ]
        for key, module, cls, attr in SPANS:
            home = sys.modules[f"bridgelen.{module}"]
            if cls is not None:
                owner = getattr(home, cls)
                original = owner.__dict__[attr]
                hook = getattr(self, f"_after_{cls}_{attr.strip('_')}", None)
                patches.append((owner, attr, original, self._wrap(key, original, hook)))
                continue
            original = getattr(home, attr)
            hook = getattr(self, f"_after_{attr}", None)
            wrapper = self._wrap(key, original, hook)
            for mod in modules:
                for name, value in vars(mod).items():
                    if value is original:
                        patches.append((mod, name, original, wrapper))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # --------------------------------------------------------------- spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key, fn, hook):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.self_s[key] += elapsed - children
                    self.total_s[key] += elapsed
                    self.calls[key] += 1
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] += value

    # ------------------------------------------------------------ counters

    def _after_EdgeGenerator_init(self, fn, args, kwargs, result):
        with self._lock:
            self._generators.append(args[0])

    def _after_EdgeGenerator_next(self, fn, args, kwargs, result):
        self._count("edges.yielded")

    def _after_QuotientState_classify_edge(self, fn, args, kwargs, result):
        self._count(f"quotient.{result.kind}")

    def _after_OnlineSnfState_add(self, fn, args, kwargs, result):
        self._count("intlinalg.add_accepted", int(bool(result)))

    def _after_Motif_init(self, fn, args, kwargs, result):
        self._count("geometry.motif_points", args[0].size)

    def _after_to_periodic_set(self, fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        doc = bound.arguments["doc"]
        ops = doc.symmetry_ops if bound.arguments["expand_symmetry"] else None
        self._count("ingest.images", len(doc.sites) * (len(ops) if ops else 1))
        self._count("ingest.atoms_kept", result.motif_size)

    def collect(self) -> None:
        """Read the state every edge stream created since the last call
        ended in.  Call it outside timed code: ``pending`` sorts."""
        with self._lock:
            generators, self._generators = self._generators, []
        for gen in generators:
            self._count("edges.shells", gen.shells_enumerated)
            self._count("edges.pending", len(gen.pending))

    # ------------------------------------------------------------- summary

    def metrics(self) -> dict:
        s, c, n = self.self_s, self.calls, self.counts
        generated = n["edges.yielded"] + n["edges.pending"]
        return {
            "edges.stream_s": (s["edges.stream"], "s"),
            "edges.shells": (n["edges.shells"], "count"),
            "edges.yielded": (n["edges.yielded"], "count"),
            "edges.generated": (generated, "count"),
            "edges.yielded_per_generated": (_ratio(n["edges.yielded"], generated), "ratio"),
            "quotient.classify_s": (s["quotient.classify"], "s"),
            "quotient.classify_calls": (c["quotient.classify"], "count"),
            "quotient.forest": (n["quotient.forest"], "count"),
            "quotient.cycle": (n["quotient.cycle"], "count"),
            "quotient.zero_cycle": (n["quotient.zero_cycle"], "count"),
            "intlinalg.add_s": (s["intlinalg.add"], "s"),
            "intlinalg.add_calls": (c["intlinalg.add"], "count"),
            "intlinalg.add_accepted": (n["intlinalg.add_accepted"], "count"),
            "intlinalg.accepted_per_call": (
                _ratio(n["intlinalg.add_accepted"], c["intlinalg.add"]),
                "ratio",
            ),
            "geometry.motif_s": (s["geometry.motif"], "s"),
            "geometry.motif_points": (n["geometry.motif_points"], "count"),
            "geometry.cell_metrics_s": (s["geometry.cell_metrics"], "s"),
            "geometry.cell_metrics_calls": (c["geometry.cell_metrics"], "count"),
            "ingest.parse_s": (s["ingest.parse"], "s"),
            "ingest.expand_s": (s["ingest.expand"], "s"),
            "ingest.read_s": (s["ingest.read"], "s"),
            "ingest.images": (n["ingest.images"], "count"),
            "ingest.atoms_kept": (n["ingest.atoms_kept"], "count"),
            "ingest.kept_per_image": (
                _ratio(n["ingest.atoms_kept"], n["ingest.images"]),
                "ratio",
            ),
            "bridge.total_s": (self.total_s["bridge"], "s"),
            "bridge.self_s": (s["bridge"], "s"),
        }


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
