"""Spans around calls into ncrewrite's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in the module
or class that defines it and in every ncrewrite module that imported it by
name; ``uninstall`` puts the originals back.  A span is
``(id, parent, layer, start_ns, end_ns, request, tag)``; spans stay in
memory until the benchmark writes them out.  A layer's self time is its
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "ncrewrite"

# (module, attribute or Class.attribute, layer)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_presentation", "cli.parse_presentation"),
    ("syntax", "format_polynomial", "syntax.format_polynomial"),
    ("order", "check_compatibility", "order.check_compatibility"),
    ("rewrite", "validate_system", "rewrite.validate_system"),
    ("rewrite", "normal_form", "rewrite.normal_form"),
    ("rewrite", "all_normal_forms", "rewrite.all_normal_forms"),
    ("ambiguity", "enumerate_overlaps", "ambiguity.enumerate"),
    ("ambiguity", "enumerate_inclusions", "ambiguity.enumerate"),
    ("ambiguity", "check_resolvable", "ambiguity.check_resolvable"),
    ("ambiguity", "check_resolvable_relative", "ambiguity.check_resolvable_relative"),
    ("quotient", "QuotientRing.build", "quotient.build"),
    ("quotient", "QuotientRing.multiply", "quotient.multiply"),
    ("quotient", "QuotientRing.basis_words", "quotient.basis_words"),
    ("freealg", "Polynomial.__mul__", "freealg.poly_mul"),
    ("arw", "newman_verdict", "arw.newman_verdict"),
    ("arw", "check_termination", "arw.check_termination"),
    ("arw", "check_local_diamond", "arw.check_local_diamond"),
)


def _tag(layer, args, result):
    """What a span records about its call beyond its duration."""
    if layer == "rewrite.normal_form":
        return ["q" if args[1].field.modulus is None else "fp", len(result.trace)]
    if layer in ("ambiguity.enumerate", "quotient.basis_words"):
        return len(result)
    if layer == "ambiguity.check_resolvable_relative":
        return len(result.certificate or ())
    if layer == "arw.newman_verdict":
        return len(args[0].edges)
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = None
        self.active = True
        self.candidates = 0  # words basis_words drew from words_up_to_degree
        self._stack: list[int] = []   # ids of the open spans
        self._open: list[str] = []    # their layers
        self._patches: list = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def _wrap(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            tracer._open.append(layer)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.spans[sid] = (sid, parent, layer, start, time.perf_counter_ns(),
                                     tracer.request, "raise:" + type(exc).__name__)
                raise
            finally:
                tracer._stack.pop()
                tracer._open.pop()
            end = time.perf_counter_ns()
            tracer.spans[sid] = (sid, parent, layer, start, end, tracer.request,
                                 _tag(layer, args, result))
            return result

        return traced

    def _count_candidates(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            inside = (tracer.active and tracer._open
                      and tracer._open[-1] == "quotient.basis_words")
            for word in fn(*args, **kwargs):
                if inside:
                    tracer.candidates += 1
                yield word

        return counted

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for module_name, qualname, layer in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(layer, raw.__func__)))
                else:
                    self._patch(cls, attr, self._wrap(layer, raw))
                continue
            raw = module.__dict__[qualname]
            wrapper = self._wrap(layer, raw)
            for mod in self._modules():
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, name, wrapper)
        alphabet = sys.modules[f"{PACKAGE}.freealg"].Alphabet
        self._patch(alphabet, "words_up_to_degree",
                    self._count_candidates(alphabet.__dict__["words_up_to_degree"]))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def layer_metrics(spans, candidates) -> dict:
    """Per-layer metrics of one traced iteration, from its spans."""
    child = defaultdict(int)
    for sid, parent, layer, start, end, request, tag in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    nf_steps = {"q": 0, "fp": 0}
    nf_self = {"q": 0, "fp": 0}
    counts = defaultdict(int)
    for sid, parent, layer, start, end, request, tag in spans:
        own = end - start - child[sid]
        calls[layer] += 1
        self_ns[layer] += own
        if layer == "rewrite.normal_form" and isinstance(tag, list):
            nf_steps[tag[0]] += tag[1]
            nf_self[tag[0]] += own
        elif layer == "rewrite.all_normal_forms" and tag == "raise:BudgetExceededError":
            counts["budget_exceeded"] += 1
        elif isinstance(tag, int):
            counts[layer] += tag

    def s(layer):
        return self_ns[layer] / 1e9

    oracle_calls = calls["rewrite.all_normal_forms"]
    kept = counts["quotient.basis_words"]
    return {
        "rewrite.validate_system.calls": calls["rewrite.validate_system"],
        "rewrite.validate_system.self_s": s("rewrite.validate_system"),
        "order.check_compatibility.calls": calls["order.check_compatibility"],
        "order.check_compatibility.self_s": s("order.check_compatibility"),
        "ambiguity.enumerate.count": counts["ambiguity.enumerate"],
        "ambiguity.enumerate.self_s": s("ambiguity.enumerate"),
        "ambiguity.check_resolvable.calls": calls["ambiguity.check_resolvable"],
        "ambiguity.check_resolvable.self_s": s("ambiguity.check_resolvable"),
        "cli.main.self_s": s("cli.main"),
        "cli.parse_presentation.self_s": s("cli.parse_presentation"),
        "syntax.format_polynomial.self_s": s("syntax.format_polynomial"),
        "rewrite.normal_form.calls": calls["rewrite.normal_form"],
        "rewrite.normal_form.self_s": s("rewrite.normal_form"),
        "rewrite.normal_form.steps": nf_steps["q"] + nf_steps["fp"],
        "rewrite.normal_form.steps_per_s.q":
            nf_steps["q"] / (nf_self["q"] / 1e9) if nf_self["q"] else 0.0,
        "rewrite.normal_form.steps_per_s.fp":
            nf_steps["fp"] / (nf_self["fp"] / 1e9) if nf_self["fp"] else 0.0,
        "quotient.multiply.calls": calls["quotient.multiply"],
        "quotient.multiply.self_s": s("quotient.multiply"),
        "freealg.poly_mul.calls": calls["freealg.poly_mul"],
        "freealg.poly_mul.self_s": s("freealg.poly_mul"),
        "quotient.basis_words.self_s": s("quotient.basis_words"),
        # basis_words keeps `kept` of the candidate words it drew; when it
        # draws none from words_up_to_degree, every word it examined was kept
        "quotient.basis_words.kept_ratio":
            kept / candidates if candidates else (1.0 if kept else 0.0),
        "quotient.build.self_s": s("quotient.build"),
        "rewrite.all_normal_forms.calls": oracle_calls,
        "rewrite.all_normal_forms.self_s": s("rewrite.all_normal_forms"),
        "rewrite.all_normal_forms.budget_exceeded": counts["budget_exceeded"],
        "rewrite.all_normal_forms.decided_ratio":
            (oracle_calls - counts["budget_exceeded"]) / oracle_calls
            if oracle_calls else 0.0,
        "ambiguity.check_resolvable_relative.calls":
            calls["ambiguity.check_resolvable_relative"],
        "ambiguity.check_resolvable_relative.self_s":
            s("ambiguity.check_resolvable_relative"),
        "ambiguity.check_resolvable_relative.certificate_terms":
            counts["ambiguity.check_resolvable_relative"],
        "arw.newman_verdict.self_s": s("arw.newman_verdict"),
        "arw.check_termination.self_s": s("arw.check_termination"),
        "arw.check_local_diamond.self_s": s("arw.check_local_diamond"),
        "arw.edges": counts["arw.newman_verdict"],
    }
