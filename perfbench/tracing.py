"""In-memory span tracing around the public functions of cubic2ec.

Each wrapped call records one span: name, start, end and the index of
the enclosing span.  Spans stay in flat arrays while the traced pass runs
and are written out afterwards.  A function imported into another module
with ``from ... import`` is patched under every name that refers to it,
so calls made through those names are traced too.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

# (module, attribute, records entries_out).  Module-level functions are
# looked up by identity in every loaded cubic2ec module; ``Certifier.certify``
# is patched on the class.
TARGETS = (
    ("canon", "canonical_form", False),
    ("connectivity", "edge_connectivity", False),
    ("connectivity", "is_essentially_4ec", False),
    ("connectivity", "find_essential_3cut", False),
    ("connectivity", "find_safe_pair", False),
    ("connectivity", "essential_4cut_with_pair", False),
    ("connectivity", "is_2ec", False),
    ("connectivity", "verify_lemma3", False),
    ("graphs", "parse_graph6", False),
    ("graphs", "remove_edges_and_smooth", False),
    ("graphs", "contract_shore", False),
    ("combine", "lift", True),
    ("combine", "glue", True),
    ("combine", "average", True),
    ("combine", "pad_to_uniform", True),
    ("combine", "edge_occurrences", False),
    ("combine", "combination", False),
    ("combine", "base_case_combination", False),
    ("combine", "verify_certificate", False),
    ("combine", "min_support_subgraph", False),
    ("combine", "Certifier.certify", False),
    ("exact_lp", "solve_cut_lp", False),
    ("exact_lp", "feasible_basic_solution", False),
    ("oracle", "lp_bound", False),
    ("oracle", "exact_opt", False),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _ in TARGETS)
ENTRIES_OUT = tuple(f"{mod}.{attr}" for mod, attr, out in TARGETS if out)


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.entries_out: dict[str, int] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, entries_out: bool):
        nid = len(self.names)
        self.names.append(name)
        self.entries_out[name] = 0
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if entries_out:
                self.entries_out[name] += len(out.entries)
            return out

        return traced

    def install(self):
        """Replace every target under each name it is reachable by."""
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "cubic2ec" or key.startswith("cubic2ec.")
        ]
        for mod_name, attr, entries_out in TARGETS:
            home = sys.modules[f"cubic2ec.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(f"{mod_name}.{attr}", orig, entries_out))
                continue
            orig = getattr(home, attr)
            traced = self.wrap(f"{mod_name}.{attr}", orig, entries_out)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, traced)

    def _set(self, owner, key: str, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def summary(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds).

        Self time is the span's duration minus the durations of its direct
        children; the wrappers run on one thread, so children nest inside
        their parent and never overlap each other.
        """
        count = len(self.start)
        child = [0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(count):
            nid = self.name_id[i]
            calls[nid] += 1
            self_ns[nid] += self.end[i] - self.start[i] - child[i]
        return {
            name: (calls[k], self_ns[k] / 1e9) for k, name in enumerate(self.names)
        }

    def write(self, path):
        """Write spans as tab-separated text: name, parent index, start ns, end ns."""
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name_id[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]}\t{self.end[i]}\n"
                )
