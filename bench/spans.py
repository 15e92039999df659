"""Spans and counters from wrappers installed around the library's public calls.

Nothing in the library is edited.  install() replaces each traced function or
method with a wrapper, both where it is defined and in every module that
imported it by name (rational_roots is also bound in cuspdiff.classify,
exact_divide in skewlaurent, cuspops, gwa and classify, and exactpoly.divides
calls exact_divide through its module global).  BasePoly.__radd__ and
__rmul__ are class attributes of their own and get wrappers of their own.

A span records its layer, start, end, parent span and job id.  Spans stay in
memory until the run ends.  Self time is span time minus the time covered by
child spans, accumulated as spans close.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from fractions import Fraction
from time import perf_counter

from cuspdiff import cuspops
from cuspdiff.exactpoly import BasePoly, NotDivisible
from cuspdiff.gwa import NotInImage
from cuspdiff.skewlaurent import LaurentOp

# (module, attribute, layer).  A dotted attribute names a method.
TARGETS = [
    ("cuspdiff.exactpoly", "BasePoly.__mul__", "exactpoly.mul"),
    ("cuspdiff.exactpoly", "BasePoly.__rmul__", "exactpoly.mul"),
    ("cuspdiff.exactpoly", "BasePoly.__add__", "exactpoly.add"),
    ("cuspdiff.exactpoly", "BasePoly.__radd__", "exactpoly.add"),
    ("cuspdiff.exactpoly", "BasePoly.shift", "exactpoly.shift"),
    ("cuspdiff.exactpoly", "BasePoly.eval", "exactpoly.eval"),
    ("cuspdiff.exactpoly", "exact_divide", "exactpoly.exact_divide"),
    ("cuspdiff.exactpoly", "rational_roots", "exactpoly.rational_roots"),
    ("cuspdiff.skewlaurent", "LaurentOp.__mul__", "skewlaurent.mul"),
    ("cuspdiff.skewlaurent", "LaurentOp.__add__", "skewlaurent.add"),
    ("cuspdiff.skewlaurent", "LaurentOp.__radd__", "skewlaurent.add"),
    ("cuspdiff.skewlaurent", "weyl_membership", "skewlaurent.weyl_membership"),
    ("cuspdiff.cuspops", "delta_op", "cuspops.delta_op"),
    ("cuspdiff.cuspops", "structure_constant", "cuspops.structure_constant"),
    ("cuspdiff.cuspops", "membership", "cuspops.membership"),
    ("cuspdiff.cuspops", "decompose", "cuspops.decompose"),
    ("cuspdiff.gwa", "gwa_multiply", "gwa.multiply"),
    ("cuspdiff.gwa", "GwaPresentation.pair_coefficient", "gwa.pair_coefficient"),
    ("cuspdiff.gwa", "verify_presentation", "gwa.verify_presentation"),
    ("cuspdiff.gwa", "Embedding.apply", "gwa.apply"),
    ("cuspdiff.gwa", "Embedding.pullback", "gwa.pullback"),
    ("cuspdiff.modactions", "act", "modactions.act"),
    ("cuspdiff.modactions", "stability_check", "modactions.stability_check"),
    ("cuspdiff.modactions", "simplicity_probe", "modactions.simplicity_probe"),
    ("cuspdiff.classify", "normalize", "classify.normalize"),
    ("cuspdiff.classify", "is_normal", "classify.is_normal"),
    ("cuspdiff.classify", "classify_bbA", "classify.classify_bbA"),
    ("cuspdiff.classify", "partition_orbit", "classify.partition_orbit"),
    ("cuspdiff.exprparse", "parse_expression", "exprparse.parse_expression"),
    ("cuspdiff.cli", "main", "cli.main"),
]

LAYERS = sorted({layer for _, _, layer in TARGETS})

# Per-layer metrics of the traced run: (name, unit); directions live in
# BENCHMARK.json.  Counts repeat exactly between runs of one commit and seed;
# times do not.
PER_LAYER = [
    ("exactpoly.init.calls", "count"),
    ("exactpoly.mul.calls", "count"),
    ("exactpoly.mul.term_pairs", "count"),
    ("exactpoly.mul.self_s", "s"),
    ("exactpoly.add.calls", "count"),
    ("exactpoly.add.self_s", "s"),
    ("exactpoly.shift.calls", "count"),
    ("exactpoly.shift.self_s", "s"),
    ("exactpoly.exact_divide.calls", "count"),
    ("exactpoly.exact_divide.self_s", "s"),
    ("exactpoly.exact_divide.not_divisible", "count"),
    ("exactpoly.eval.calls", "count"),
    ("exactpoly.eval.self_s", "s"),
    ("exactpoly.rational_roots.calls", "count"),
    ("exactpoly.rational_roots.self_s", "s"),
    ("exactpoly.rational_roots.useful_ratio", "ratio"),
    ("skewlaurent.mul.calls", "count"),
    ("skewlaurent.mul.component_pairs", "count"),
    ("skewlaurent.mul.self_s", "s"),
    ("skewlaurent.add.self_s", "s"),
    ("skewlaurent.weyl_membership.calls", "count"),
    ("skewlaurent.weyl_membership.self_s", "s"),
    ("cuspops.phi.hit_ratio", "ratio"),
    ("cuspops.delta_op.calls", "count"),
    ("cuspops.delta_op.self_s", "s"),
    ("cuspops.structure_constant.calls", "count"),
    ("cuspops.structure_constant.self_s", "s"),
    ("cuspops.membership.calls", "count"),
    ("cuspops.membership.self_s", "s"),
    ("cuspops.membership.true_ratio", "ratio"),
    ("cuspops.decompose.calls", "count"),
    ("cuspops.decompose.self_s", "s"),
    ("gwa.multiply.calls", "count"),
    ("gwa.multiply.coord_pairs", "count"),
    ("gwa.multiply.self_s", "s"),
    ("gwa.pair_coefficient.calls", "count"),
    ("gwa.pair_coefficient.hit_ratio", "ratio"),
    ("gwa.verify_presentation.calls", "count"),
    ("gwa.verify_presentation.self_s", "s"),
    ("gwa.apply.calls", "count"),
    ("gwa.apply.self_s", "s"),
    ("gwa.pullback.calls", "count"),
    ("gwa.pullback.self_s", "s"),
    ("gwa.pullback.not_in_image", "count"),
    ("modactions.act.calls", "count"),
    ("modactions.act.scalar_evals", "count"),
    ("modactions.act.self_s", "s"),
    ("modactions.stability_check.self_s", "s"),
    ("modactions.simplicity_probe.self_s", "s"),
    ("classify.normalize.calls", "count"),
    ("classify.normalize.self_s", "s"),
    ("classify.normalize.shift_total", "count"),
    ("classify.is_normal.calls", "count"),
    ("classify.is_normal.self_s", "s"),
    ("classify.classify_bbA.self_s", "s"),
    ("classify.partition_orbit.self_s", "s"),
    ("exprparse.parse_expression.calls", "count"),
    ("exprparse.parse_expression.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """In-memory spans plus the counters the per-layer metrics need."""

    def __init__(self):
        self.enabled = False
        self.job = -1
        self.layer_ids = {name: k for k, name in enumerate(LAYERS)}
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.stack = []  # [span id, layer id, start, child time]
        self.open_count = [0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.counts = dict.fromkeys(
            ("init", "term_pairs", "not_divisible", "rr_evals", "rr_roots",
             "component_pairs", "membership_true", "coord_pairs", "pair_hits",
             "not_in_image", "scalar_evals", "shift_total"), 0)

    def open(self, layer):
        sid = len(self.span_start)
        start = perf_counter()
        self.span_layer.append(layer)
        self.span_start.append(start)
        self.span_end.append(0.0)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_job.append(self.job)
        self.stack.append([sid, layer, start, 0.0])
        self.open_count[layer] += 1

    def close(self, counted):
        end = perf_counter()
        sid, layer, start, child = self.stack.pop()
        self.span_end[sid] = end
        self.open_count[layer] -= 1
        duration = end - start
        self.self_s[layer] += duration - child
        if counted:
            self.calls[layer] += 1
        if self.stack:
            self.stack[-1][3] += duration

    def is_open(self, layer_name):
        return self.open_count[self.layer_ids[layer_name]] > 0

    def exact_counts(self) -> dict:
        """Every count that must repeat bit for bit between runs."""
        out = dict(self.counts)
        out.update(("%s.calls" % name, self.calls[k]) for k, name in enumerate(LAYERS))
        return out

    def metrics(self, phi_hits, phi_misses, overhead) -> dict:
        c = self.counts
        calls = {name: self.calls[k] for name, k in self.layer_ids.items()}
        self_s = {name: self.self_s[k] for name, k in self.layer_ids.items()}
        values = {
            "exactpoly.init.calls": c["init"],
            "exactpoly.mul.term_pairs": c["term_pairs"],
            "exactpoly.exact_divide.not_divisible": c["not_divisible"],
            "exactpoly.rational_roots.useful_ratio": _ratio(c["rr_roots"], c["rr_evals"]),
            "skewlaurent.mul.component_pairs": c["component_pairs"],
            "cuspops.phi.hit_ratio": _ratio(phi_hits, phi_hits + phi_misses),
            "cuspops.membership.true_ratio": _ratio(c["membership_true"],
                                                    calls["cuspops.membership"]),
            "gwa.multiply.coord_pairs": c["coord_pairs"],
            "gwa.pair_coefficient.hit_ratio": _ratio(c["pair_hits"],
                                                     calls["gwa.pair_coefficient"]),
            "gwa.pullback.not_in_image": c["not_in_image"],
            "modactions.act.scalar_evals": c["scalar_evals"],
            "classify.normalize.shift_total": c["shift_total"],
            "trace.overhead_ratio": overhead,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in values:
                value = values[name]
            else:
                layer, _, field = name.rpartition(".")
                value = calls[layer] if field == "calls" else self_s[layer]
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Spans as tab-separated id, layer, start, end, parent, job."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tlayer\tstart\tend\tparent\tjob\n")
            for sid in range(len(self.span_start)):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    sid, LAYERS[self.span_layer[sid]], self.span_start[sid],
                    self.span_end[sid], self.span_parent[sid], self.span_job[sid]))


# -- hooks: extra counts taken at the boundaries ----------------------------
# before(tracer, args) runs when the span opens; after(tracer, args, result,
# exc) when it closes.

def _operand_size(other, own_type, attr):
    """Terms or components of the other operand; scalars coerce to one."""
    if isinstance(other, own_type):
        return len(getattr(other, attr))
    if isinstance(other, (int, Fraction)):
        return 1
    return 0


def _mul_before(t, args):
    t.counts["term_pairs"] += len(args[0].terms) * _operand_size(args[1], BasePoly, "terms")


def _divide_after(t, args, result, exc):
    if isinstance(exc, NotDivisible):
        t.counts["not_divisible"] += 1


def _eval_before(t, args):
    if t.is_open("exactpoly.rational_roots"):
        t.counts["rr_evals"] += 1
    # the eval span is already on the stack; its parent sits below it
    if len(t.stack) > 1 and LAYERS[t.stack[-2][1]] == "modactions.act":
        t.counts["scalar_evals"] += 1


def _roots_after(t, args, result, exc):
    if exc is None:
        t.counts["rr_roots"] += len(result[0])


def _laurent_mul_before(t, args):
    other = args[1]
    size = 1 if isinstance(other, BasePoly) else _operand_size(other, LaurentOp, "components")
    t.counts["component_pairs"] += len(args[0].components) * size


def _membership_after(t, args, result, exc):
    if result is True:
        t.counts["membership_true"] += 1


def _gwa_mul_before(t, args):
    t.counts["coord_pairs"] += len(args[0].coords) * len(args[1].coords)


def _pair_before(t, args):
    pres, i, n, m = args
    if (i, n, m) in pres._pair_cache:
        t.counts["pair_hits"] += 1


def _pullback_after(t, args, result, exc):
    if isinstance(exc, NotInImage):
        t.counts["not_in_image"] += 1


def _normalize_after(t, args, result, exc):
    if exc is None:
        t.counts["shift_total"] += result.s


HOOKS = {
    "exactpoly.mul": (_mul_before, None),
    "exactpoly.exact_divide": (None, _divide_after),
    "exactpoly.eval": (_eval_before, None),
    "exactpoly.rational_roots": (None, _roots_after),
    "skewlaurent.mul": (_laurent_mul_before, None),
    "cuspops.membership": (None, _membership_after),
    "gwa.multiply": (_gwa_mul_before, None),
    "gwa.pair_coefficient": (_pair_before, None),
    "gwa.pullback": (None, _pullback_after),
    "classify.normalize": (None, _normalize_after),
}


def _span_wrapper(tracer, layer_name, fn):
    layer = tracer.layer_ids[layer_name]
    before, after = HOOKS.get(layer_name, (None, None))

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.open(layer)
        if before is not None:
            before(tracer, args)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if after is not None:
                after(tracer, args, None, exc)
            tracer.close(True)
            raise
        if after is not None:
            after(tracer, args, result, None)
        # an operand of another type makes the dunder return NotImplemented
        # and Python retries on the other operand; that is not a call
        tracer.close(result is not NotImplemented)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _count_init(tracer, fn):
    def __init__(self, *args, **kwargs):
        if tracer.enabled:
            tracer.counts["init"] += 1
        fn(self, *args, **kwargs)
    return __init__


def install(tracer) -> list:
    """Install every wrapper; returns the undo list for uninstall()."""
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    replace(BasePoly, "__init__", _count_init(tracer, BasePoly.__dict__["__init__"]))
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "cuspdiff" or name.startswith("cuspdiff.")]
    for modname, attr, layer in TARGETS:
        module = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            replace(cls, meth, _span_wrapper(tracer, layer, cls.__dict__[meth]))
            continue
        original = getattr(module, attr)
        wrapper = _span_wrapper(tracer, layer, original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    replace(mod, name, wrapper)
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def phi_cache_counts():
    info = cuspops.phi.cache_info()
    return info.hits, info.misses
