"""Outside-in tracing for the benchmark's traced run.

The tracer swaps module attributes for timing wrappers: qroot's public
functions and the numpy/scipy kernels they call.  Nothing inside qroot
changes.  A kernel span's parent is the innermost qroot span open when it
ran, which attributes the kernel to that function.  Spans stay in memory as
[name, start, end, parent, instance] and are written out by the caller.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import scipy.linalg

import qroot.canonical
import qroot.jsonio
import qroot.roots
import qroot.verify
from qroot.quaternion import QuatMatrix

BUILDERS = ("root_block_real", "root_block_nonreal", "root_block_negative_even",
            "root_block_nilpotent", "assemble_root")

# (owner, attribute, span name).  canonical's functions are reached through
# the names roots imported, so they are patched there.
TARGETS = (
    [(qroot.roots, "mth_root", "roots.mth_root"),
     (qroot.roots, "canonicalize_pair", "canonical.canonicalize_pair"),
     (qroot.roots, "canonicalize_nilpotent_copy", "canonical.canonicalize_nilpotent_copy"),
     (qroot.roots, "selfadjoint_residual", "omega.selfadjoint_residual"),
     (qroot.canonical, "selfadjoint_residual", "omega.selfadjoint_residual"),
     (qroot.roots, "omega_embed", "omega.omega_embed"),
     (qroot.roots, "omega_extract", "omega.omega_extract"),
     (qroot.verify, "omega_embed", "omega.omega_embed"),
     (qroot.verify, "verify_root", "verify.verify_root"),
     (qroot.jsonio, "dumps", "jsonio.dumps"),
     (qroot.jsonio, "loads", "jsonio.loads"),
     (QuatMatrix, "power", "quaternion.QuatMatrix.power"),
     (scipy.linalg, "schur", "kernel.schur"),
     (np.linalg, "eigvals", "kernel.eigvals"),
     (np.linalg, "svd", "kernel.svd")]
    + [(qroot.roots, name, "roots.builders." + name) for name in BUILDERS])

FIELDS = ("name", "start", "end", "parent", "instance")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.instance])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def patched(self):
        """Route every TARGETS attribute through a span while the block runs."""
        saved = []
        try:
            for owner, attr, name in TARGETS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def to_json(self) -> dict:
        return {"fields": list(FIELDS), "spans": self.spans}


def summarize(spans: list[list]) -> dict[str, dict]:
    """Calls, total and self seconds per span name.

    Self time is a span's duration minus the time its direct children cover.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
    return dict(out)
