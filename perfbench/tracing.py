"""Per-layer tracing: timed wrappers around steinmult's public calls.

The program itself is not instrumented.  ``Tracer.install`` replaces each
traced function at every binding its callers look up (the ``WeylGroup``
methods on the class, and each module-level name in the steinmult modules
that refers to the function, such as ``steinberg_jh.verma_multiplicity``
or ``cli.jh_factors``), and ``uninstall`` puts the originals back.

Each wrapper counts calls and accumulates self time: its own duration
minus the durations of the traced calls it made.  Spans are folded into
these per-name totals as they close rather than kept one by one, because a
single round makes millions of ``multiply`` calls.  For the calls whose
arguments can repeat across requests the tracer also counts distinct
argument keys per group, which gives the share of calls that could be
served by a shared result.
"""

from __future__ import annotations

import functools
import time
import weakref

import steinmult
from steinmult import cli, kl, period_domain, root_datum, steinberg_jh, weyl

MODULES = (steinmult, cli, kl, period_domain, root_datum, steinberg_jh, weyl)

#: ``WeylGroup`` methods traced as ``weyl.<name>``.
METHODS = (
    "multiply",
    "bruhat_leq",
    "bruhat_interval",
    "enumerate_group",
    "canonical_word",
    "kostant_reps",
    "act_coweight",
)

#: Module functions traced as ``<module>.<name>``.
FUNCTIONS = (
    (kl, "kl_polynomial"),
    (kl, "verma_multiplicity"),
    (steinberg_jh, "jh_factors"),
    (period_domain, "omega"),
    (period_domain, "y_structure"),
    (period_domain, "build_complex"),
    (period_domain, "distribution_types"),
    (period_domain, "solve_multiplicity_intervals"),
    (period_domain, "homology_bounds"),
    (period_domain, "double_complex_layout"),
    (root_datum, "build_root_datum"),
    (cli, "main"),
)

#: Calls whose distinct arguments are counted, keyed within their group.
#: Elements are interned per group, so ``id`` identifies them while the
#: group lives.
DISTINCT_KEYS = {
    "kl.verma_multiplicity": lambda group, u, v: (id(u), id(v)),
    "steinberg_jh.jh_factors": lambda group, w: id(w),
}


def _label(module, name: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{name}"


def span_names() -> list[str]:
    return [_label(weyl, name) for name in METHODS] + [
        _label(module, name) for module, name in FUNCTIONS
    ]


class Tracer:
    """Call counts, self times and distinct-argument counts per traced name."""

    def __init__(self) -> None:
        #: name -> [calls, self seconds, distinct argument keys]
        self.totals: dict[str, list] = {name: [0, 0.0, 0] for name in span_names()}
        # Time spent in traced children of each open span; the bottom entry
        # collects the time of top-level spans.
        self._open = [0.0]
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        cell = self.totals[name]
        stack = self._open
        clock = time.perf_counter
        key_of = DISTINCT_KEYS.get(name)
        seen = self._seen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key_of is not None:
                keys = seen.setdefault(args[0], {}).setdefault(name, set())
                key = key_of(*args, **kwargs)
                if key not in keys:
                    keys.add(key)
                    cell[2] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                cell[0] += 1
                cell[1] += elapsed - inner

        return traced

    def _replace(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        group_class = weyl.WeylGroup
        for name in METHODS:
            original = group_class.__dict__[name]
            self._replace(group_class, name, self._wrap(_label(weyl, name), original))
        for module, name in FUNCTIONS:
            original = getattr(module, name)
            wrapped = self._wrap(_label(module, name), original)
            for holder in MODULES:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
