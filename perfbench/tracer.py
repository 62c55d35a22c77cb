"""Outside-in tracer: wraps the library's public functions from the benchmark.

Nothing under ``src/`` is edited.  ``install`` replaces each target function
in every ``rootcert`` module that binds it, since the library imports names
directly (``from .poly import roots_batch``), and patches methods on their
class.  Each call records a span (name, start, end, parent span, request id)
into flat arrays kept in memory; ``save`` writes them once the run ends.
Counts come from arguments and return values, so quantities that callers
drop today (such as ``rejected_candidates``) are still measured.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np


def _count_roots_batch(c, args, kwargs, out):
    rows = [rm for rm in out if rm is not None]
    c["poly.roots_batch.rows"] += len(out)
    c["poly.roots_batch.roots"] += sum(rm.total_multiplicity() for rm in rows)
    c["poly.roots_batch.multi_rows"] += sum(
        1 for rm in rows if any(m > 1 for _, m in rm.entries))
    c["poly.roots_batch.nonzero_rows"] += len(rows)
    c.worst("poly.roots_batch.worst_residual",
            max((rm.residual for rm in rows), default=0.0))


def _count_nonvanishing(c, args, kwargs, out):
    c["symbols.nonvanishing_check.w_samples"] += out.w_samples
    c["symbols.nonvanishing_check.zero_slices"] += out.zero_slices
    c["symbols.nonvanishing_check.rejected_candidates"] += out.rejected_candidates
    c["symbols.nonvanishing_check.witnesses"] += out.found


def _count_sample(c, args, kwargs, out):
    c["domains.sample.points"] += len(out)


# (module, attribute or "Class.method", span name, counter)
TARGETS = (
    ("rootcert.cli", "main", "cli.main", None),
    ("rootcert.cli", "parse_operator", "cli.parse_operator", None),
    ("rootcert.cli", "report_json", "cli.report_json", None),
    ("rootcert.certify", "certify_closed", "certify.certify_closed", None),
    ("rootcert.certify", "certify_open", "certify.certify_open", None),
    ("rootcert.certify", "boundary_root_check", "certify.boundary_root_check", None),
    ("rootcert.certify", "falsify", "certify.falsify", None),
    ("rootcert.certify", "gcd_image", "certify.gcd_image", None),
    ("rootcert.symbols", "nonvanishing_check", "symbols.nonvanishing_check",
     _count_nonvanishing),
    ("rootcert.symbols", "operator_symbol", "symbols.operator_symbol", None),
    ("rootcert.poly", "roots_batch", "poly.roots_batch", _count_roots_batch),
    ("rootcert.poly", "roots", "poly.roots", None),
    ("rootcert.poly", "root_uncertainty", "poly.root_uncertainty", None),
    ("rootcert.poly", "from_roots", "poly.from_roots", None),
    ("rootcert.poly", "approx_gcd", "poly.approx_gcd", None),
    ("rootcert.domains", "MoebiusDomain.classify", "domains.classify", None),
    ("rootcert.domains", "MoebiusDomain.robustly_in", "domains.robustly_in", None),
    ("rootcert.domains", "MoebiusDomain.sample", "domains.sample", _count_sample),
    ("rootcert.operators", "LinearOperator.apply", "operators.apply", None),
    ("rootcert.operators", "LinearOperator.rank_one_form",
     "operators.rank_one_form", None),
)
SPAN_NAMES = tuple(t[2] for t in TARGETS)


class Counters(defaultdict):
    def __init__(self):
        super().__init__(float)

    def worst(self, key: str, value: float) -> None:
        self[key] = max(self[key], value)


class Tracer:
    """Span recorder; ``install``/``uninstall`` patch and restore the targets."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        # time spent inside the tracer's counters, charged to no span
        self.excluded = array("d")
        self.names = list(SPAN_NAMES)
        self.request_id = -1
        self.counters = Counters()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = self.clock
        stack = self._stack
        start, end, names, parents = self.start, self.end, self.name, self.parent
        requests, excluded, counters = self.request, self.excluded, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            requests.append(self.request_id)
            excluded.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                t0 = clock()
                counter(counters, args, kwargs, out)
                if parent >= 0:
                    excluded[parent] += clock() - t0
            return out

        return traced

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "rootcert" or k.startswith("rootcert."))]
        for modname, attr, span, counter in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self.wrap(span, original, counter))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(span, original, counter)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, traced)

    def _patch(self, owner, key, original, replacement) -> None:
        setattr(owner, key, replacement)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "request": np.array(self.request, dtype=np.int32),
                "excluded": np.array(self.excluded, dtype=np.float64)}

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self time, call count).

        Self time is a span's duration minus the durations of its direct
        children and minus the time the tracer's counters spent inside it.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(dur.size)
        has_parent = a["parent"] >= 0
        if has_parent.any():
            child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                minlength=dur.size)
        own = dur - child - a["excluded"]
        names = self.names
        totals = np.bincount(a["name"], weights=own, minlength=len(names))
        counts = np.bincount(a["name"], minlength=len(names))
        return {n: (float(totals[i]), int(counts[i])) for i, n in enumerate(names)}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
