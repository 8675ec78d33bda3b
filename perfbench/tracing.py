"""In-memory spans around certnn's layer entry points, and the per-layer metrics they give.

``Tracer.install`` replaces each traced function with a wrapper in its
defining module and in every ``certnn`` module that bound the same function
object by name (``verify`` and ``control`` import ``max_positively_invariant``
and ``intersect`` that way), plus scipy's ``_highs_wrapper`` for the time
spent inside HiGHS.  ``src/`` is not modified.  A span is
``[name, start, end, parent, op, info]``; ``info`` holds the counts read off
the call's arguments and result.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from workloads import CASE_KMAX

HIGHS_CORE = ("scipy.optimize._linprog_highs", "_highs_wrapper")
MAX_HIDDEN_LAYERS = 3  # the saturated case-study net has hidden widths [4, 1, 1]

ENCODERS = ("milp.encode_output_range", "milp.encode_reach")
POLYTOPE_FUNCS = (
    "is_empty",
    "support",
    "remove_redundant",
    "contains_set",
    "intersect",
    "max_positively_invariant",
    "bounding_box",
)


def _lp_info(args, kwargs, out):
    p = args[0]
    rows = p.A.shape[0] + (p.A_eq.shape[0] if p.A_eq is not None else 0)
    return (p.objective.size, rows, out.status.value == "infeasible")


def _encode_info(net_arg: int):
    """Model size and, per hidden layer, the binaries left free by the bounds."""

    def info(args, kwargs, m):
        # The encoders add binaries step by step and, within a step, layer by layer.
        widths = args[net_arg].hidden_widths
        free = m.lb[m.binaries] != m.ub[m.binaries]
        layer = np.searchsorted(np.cumsum(widths), np.arange(free.size) % sum(widths), side="right")
        return (m.c.size, m.binaries.size, np.bincount(layer[free], minlength=len(widths)).tolist())

    return info


def _reach_info(args, kwargs, out):
    return (args[3] if len(args) > 3 else kwargs["k"], len(out))


TARGETS = {
    "cli.main": None,
    "verify.verify_stability": None,
    "verify.stability_set": None,
    "milp.output_range_results": None,
    "milp.reach_results": _reach_info,
    "milp.encode_output_range": _encode_info(0),
    "milp.encode_reach": _encode_info(1),
    "milp.solve_milp": lambda a, k, out: out.nodes,
    "lp.solve_lp": _lp_info,
    "control.lqr": None,
    "control.lqr_admissible_set": None,
    **{f"polytope.{f}": None for f in POLYTOPE_FUNCS},
    "polytope.max_positively_invariant": lambda a, k, out: out.nrows,
}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out

        return wrapper

    def _replace(self, module, attr, new):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "certnn" or n.startswith("certnn.")]
        for target, info in TARGETS.items():
            mod_name, attr = target.split(".")
            fn = getattr(sys.modules[f"certnn.{mod_name}"], attr)
            wrapper = self._wrap(target, fn, info)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, bound, wrapper)
        core_mod, core_attr = HIGHS_CORE
        module = sys.modules[core_mod]
        self._replace(module, core_attr, self._wrap("highs.core", getattr(module, core_attr), None))

    def uninstall(self):
        while self._undo:
            module, attr, old = self._undo.pop()
            setattr(module, attr, old)

    def dump(self, path: Path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"], "spans": self.spans}, f)


def _ancestors(spans, i):
    p = spans[i][3]
    while p >= 0:
        yield spans[p]
        p = spans[p][3]


def layer_metrics(spans: list[list], lo: int = 0, hi: int | None = None) -> dict[str, float]:
    """Per-layer counts and busy times of the spans ``spans[lo:hi]`` (one pass)."""
    dur = lambda s: s[2] - s[1]  # noqa: E731
    window = range(lo, len(spans) if hi is None else hi)
    by_name: dict[str, list[int]] = {}
    children: dict[int, list[int]] = {}
    for i in window:
        by_name.setdefault(spans[i][0], []).append(i)
        children.setdefault(spans[i][3], []).append(i)
    get = lambda name: [spans[i] for i in by_name.get(name, [])]  # noqa: E731

    def under(i, names):
        return any(a[0] in names for a in _ancestors(spans, i))

    m: dict[str, float] = {}

    lps = get("lp.solve_lp")
    n_lp = len(lps)
    lp_busy = sum(dur(s) for s in lps)
    # Only HiGHS calls made by certnn's LPs: the answer checks of a traced
    # pass call scipy's linprog directly, and those spans are not certnn's.
    core = sum(dur(spans[i]) for i in by_name.get("highs.core", []) if under(i, ("lp.solve_lp",)))
    m["lp.calls"] = n_lp
    m["lp.busy_s"] = lp_busy
    m["lp.ms_per_call"] = 1e3 * lp_busy / n_lp if n_lp else 0.0
    m["lp.vars_mean"] = float(np.mean([s[5][0] for s in lps])) if lps else 0.0
    m["lp.rows_mean"] = float(np.mean([s[5][1] for s in lps])) if lps else 0.0
    m["lp.infeasible_frac"] = sum(s[5][2] for s in lps) / n_lp if n_lp else 0.0
    m["lp.core_s"] = core
    m["lp.wrapper_s"] = lp_busy - core

    enc = [spans[i] for n in ENCODERS for i in by_name.get(n, [])]
    enc_info = [s[5] for s in enc if s[5] is not None]
    tighten = [spans[i] for i in by_name.get("lp.solve_lp", []) if under(i, ENCODERS)]
    binaries = sum(e[1] for e in enc_info)
    unstable = np.zeros(MAX_HIDDEN_LAYERS)
    for e in enc_info:
        unstable[: len(e[2])] += e[2]
    m["milp.encode.calls"] = len(enc)
    m["milp.encode.busy_s"] = sum(dur(s) for s in enc)
    m["milp.tighten.lps"] = len(tighten)
    m["milp.tighten.busy_s"] = sum(dur(s) for s in tighten)
    m["milp.model.vars_mean"] = float(np.mean([e[0] for e in enc_info])) if enc_info else 0.0
    m["milp.model.binaries_mean"] = binaries / len(enc_info) if enc_info else 0.0
    m["milp.unstable_frac"] = float(unstable.sum() / binaries) if binaries else 0.0
    for layer in range(MAX_HIDDEN_LAYERS):
        m[f"milp.unstable.L{layer + 1}"] = int(unstable[layer])

    bnb_idx = by_name.get("milp.solve_milp", [])
    bnb = [spans[i] for i in bnb_idx]
    bnb_lp = sum(dur(spans[i]) for i in by_name.get("lp.solve_lp", []) if under(i, ("milp.solve_milp",)))
    m["milp.bnb.queries"] = len(bnb)
    m["milp.bnb.nodes"] = sum(s[5] or 0 for s in bnb)
    m["milp.bnb.nodes_per_query.max"] = max((s[5] or 0 for s in bnb), default=0)
    m["milp.bnb.busy_s"] = sum(dur(s) for s in bnb)
    m["milp.bnb.self_s"] = m["milp.bnb.busy_s"] - bnb_lp

    poly_names = tuple(f"polytope.{f}" for f in POLYTOPE_FUNCS)
    poly_outer = [
        spans[i] for n in poly_names for i in by_name.get(n, []) if not under(i, poly_names)
    ]
    mpi_idx = by_name.get("polytope.max_positively_invariant", [])
    rr_under_mpi = sum(
        1 for i in by_name.get("polytope.remove_redundant", []) if under(i, ("polytope.max_positively_invariant",))
    )
    m["polytope.busy_s"] = sum(dur(s) for s in poly_outer)
    m["polytope.lps"] = sum(1 for i in by_name.get("lp.solve_lp", []) if under(i, poly_names))
    m["polytope.redundancy.calls"] = len(get("polytope.remove_redundant"))
    m["polytope.redundancy.busy_s"] = sum(dur(s) for s in get("polytope.remove_redundant"))
    m["polytope.support.calls"] = len(get("polytope.support"))
    m["polytope.mpi.iters"] = rr_under_mpi - len(mpi_idx)
    m["polytope.rows_out"] = sum(spans[i][5] or 0 for i in mpi_idx)

    m["control.lqr_s"] = sum(dur(s) for s in get("control.lqr"))
    m["control.admissible_set_s"] = sum(dur(s) for s in get("control.lqr_admissible_set"))

    stages = {"input": 0.0, "invariance": 0.0, "stability_set": 0.0}
    reach = np.zeros(CASE_KMAX)
    reach_queries = 0
    for v in by_name.get("verify.verify_stability", []):
        first_reach = True
        for s in (spans[i] for i in children.get(v, [])):
            if s[0] == "milp.output_range_results":
                stages["input"] += dur(s)
            elif s[0] == "verify.stability_set":
                stages["stability_set"] += dur(s)
            elif s[0] == "milp.reach_results":
                if first_reach:
                    stages["invariance"] += dur(s)
                    first_reach = False
                else:
                    k, n_dirs = s[5]
                    reach[k - 1] += dur(s)
                    reach_queries += n_dirs
    m["verify.stage.input_s"] = stages["input"]
    m["verify.stage.invariance_s"] = stages["invariance"]
    m["verify.stage.stability_set_s"] = stages["stability_set"]
    for k in range(CASE_KMAX):
        m[f"verify.stage.reach_k{k + 1}_s"] = float(reach[k])
    m["verify.reach_queries"] = reach_queries

    m["cli.io_s"] = sum(dur(s) for s in get("cli.main")) - sum(
        dur(spans[i]) for i in by_name.get("verify.verify_stability", []) if under(i, ("cli.main",))
    )
    return m
