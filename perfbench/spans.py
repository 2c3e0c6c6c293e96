"""In-memory span tracing of helmdd from outside the package.

`Tracer.install()` replaces the public functions at each module boundary of
helmdd with timing wrappers, in every helmdd module that holds a reference to
them, and `Tracer.uninstall()` puts the originals back.  Each call becomes one
span (name, start, end, parent); aggregates are computed from the span list
when the run ends, so a call costs two clock reads and one list append.

A target that no longer exists is recorded in `absent` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# (span name, module, attribute path)
TARGETS = [
    ("mesh.build", "helmdd.mesh", "build_uniform_mesh"),
    ("assembly.global", "helmdd.assembly", "assemble_global"),
    ("assembly.subdomain", "helmdd.assembly", "assemble_subdomain"),
    ("decomposition.build", "helmdd.decomposition", "build_decomposition"),
    ("linalg.factorize", "helmdd.linalg", "factorize"),
    ("linalg.lu_solve", "helmdd.linalg", "SparseFactorization.solve"),
    ("linalg.eig", "helmdd.linalg", "generalized_eig"),
    ("linalg.gmres", "helmdd.linalg", "gmres"),
    ("preconditioner.one_level_build", "helmdd.preconditioner", "build_one_level"),
    ("preconditioner.coarse_build", "helmdd.preconditioner", "build_grid_cs"),
    ("preconditioner.coarse_build", "helmdd.preconditioner", "build_dtn_cs"),
    ("preconditioner.one_level_apply", "helmdd.preconditioner", "OneLevelORAS.apply"),
    ("preconditioner.coarse_apply", "helmdd.preconditioner", "CoarseSpace.coarse_apply"),
    ("solver.verify", "helmdd.solver", "verify_solution"),
    ("solver.setup", "helmdd.solver", "SolverContext.__init__"),
]

# Operators handed to gmres, timed as children of its span: (argument, span name).
GMRES_OPERATORS = [("apply_A", "solver.matvec"), ("apply_M", "preconditioner.apply")]


def _helmdd_modules():
    return [m for name, m in list(sys.modules.items()) if name == "helmdd" or name.startswith("helmdd.")]


class Tracer:
    """Spans of the traced rounds; install() before each round, uninstall() after it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.absent = []
        self._stack = []
        self._restore = []

    def timed(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _traced_gmres(self, gmres):
        signature = inspect.signature(gmres)
        missing = [span for arg, span in GMRES_OPERATORS if arg not in signature.parameters]
        self.absent.extend(missing)
        if missing:
            return self.timed("linalg.gmres", gmres)

        def with_timed_operators(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            for arg, span in GMRES_OPERATORS:
                op = bound.arguments.get(arg)
                if op is not None:
                    bound.arguments[arg] = self.timed(span, op if callable(op) else op.__matmul__)
            return gmres(*bound.args, **bound.kwargs)

        return self.timed("linalg.gmres", functools.wraps(gmres)(with_timed_operators))

    def install(self):
        self.absent.clear()
        for name, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{name} ({module_name}.{path})")
                continue
            if name == "linalg.gmres":
                wrapped = self._traced_gmres(original)
            else:
                wrapped = self.timed(name, original)
            if owner_path:  # a method: patch the class
                self._restore.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrapped)
                continue
            for module in _helmdd_modules():  # a function: patch every imported reference
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def aggregate(self):
        """Per span name: inclusive seconds (outermost calls only), self seconds, calls."""
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                total[name] += end - start
        return total, self_s, calls
