"""Outside-in tracing of the program's layers.

The tracer replaces functions of the loaded ``pickylab.*`` modules with
wrappers and puts the originals back afterwards; nothing under ``src/``
knows about it.  Layers bind each other's names with ``from ... import``,
so every binding is patched by identity: each module attribute, class
attribute and ``CHECKS`` entry that *is* the original function gets the
same wrapper.

Three kinds of wrapper:

* ``span``  records (name, start, end, parent) and charges self time;
* ``timed`` charges self time like a span but keeps only totals, for
  functions called too often to keep every span in memory;
* ``count`` only counts calls.

A span's self time is its duration minus the time its child spans and
timed calls cover, so time is charged to the layer that did the work and
not to the caller that first touched a shared cache.  The self times of
all names plus the time outside every span add up to the traced wall time.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN, TIMED, COUNT = "span", "timed", "count"

# (module, attribute path, kind).  A boundary's name is
# "<module>.<attribute path>"; its layer is the module.
BOUNDARIES = [
    ("cli", "run_batch", SPAN),
    ("cli", "load_catalog", SPAN),
    ("cli", "_entry_reports", SPAN),
    ("cli", "_cache_load", SPAN),
    ("cli", "_cache_store", SPAN),
    ("conjectures", "check_ito_michler", SPAN),
    ("conjectures", "check_normality_via_qblocks", SPAN),
    ("conjectures", "check_mckay", SPAN),
    ("conjectures", "check_degree_conjectures", SPAN),
    ("conjectures", "check_chain_conjecture", SPAN),
    ("conjectures", "check_height_conjectures", SPAN),
    ("conjectures", "check_vanishing_proposition", SPAN),
    ("conjectures", "check_alperin_c", SPAN),
    ("conjectures", "check_kb_principal", SPAN),
    ("conjectures", "check_picky_conjecture", SPAN),
    ("conjectures", "check_subnormalizer_conjecture", SPAN),
    ("conjectures", "check_fusion_lemma", SPAN),
    ("conjectures", "_reverify_mismatch", SPAN),
    ("chartab", "character_table", SPAN),
    ("chartab", "_build_table", SPAN),
    ("chartab", "_verify_table", SPAN),
    ("chartab", "CharacterTable.to_json_dict", SPAN),
    ("blocks", "block_partition", SPAN),
    ("subnorm", "picky_report", SPAN),
    ("subnorm", "subnormalizer_set", SPAN),
    ("subnorm", "subnormalizer_subgroup", SPAN),
    ("subnorm", "chain_length", SPAN),
    ("subnorm", "_subnormal_in_generated", COUNT),
    ("symfast", "table1_report", SPAN),
    ("symfast", "mn_value", COUNT),
    ("permgroup", "conjugacy_classes", SPAN),
    ("permgroup", "sylow_data", SPAN),
    ("permgroup", "normalizer", SPAN),
    ("permgroup", "PermGroup.elements", TIMED),
    ("permgroup", "extended_group", COUNT),
    ("permgroup", "_Chain.insert", TIMED),
    ("permgroup", "Perm.__mul__", COUNT),
    ("exactnum", "_reduce_conductor", TIMED),
    ("exactnum", "_downconvert", COUNT),
    ("exactnum", "Cyclotomic.__mul__", COUNT),
    ("exactnum", "Cyclotomic.__add__", COUNT),
]

LAYERS = ("cli", "conjectures", "chartab", "blocks", "subnorm", "symfast", "permgroup", "exactnum")

# The name of the bookkeeping the tracer does inside a span (keys for the
# distinct-group counts); it is charged to its own pseudo-layer.
BOOKKEEPING = "trace.keys"


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: dict[str, float] = defaultdict(float)  # outermost calls only
        self.self_time: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.keys: dict[str, set] = defaultdict(set)
        self.results: Counter = Counter()
        self.originals: dict[str, object] = {}
        self.top_level = [0.0]  # time inside outermost frames
        self._stack: list[list] = []  # [name, child time, span index]
        self._active: Counter = Counter()
        self._undo: list = []

    # -- patching --------------------------------------------------------

    def install(self):
        mods = {n: m for n, m in sys.modules.items() if n == "pickylab" or n.startswith("pickylab.")}
        for module, path, kind in BOUNDARIES:
            owner = mods[f"pickylab.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            name = f"{module}.{path}"
            self.originals[name] = original
            wrapper = self._wrap(original, name, kind)
            for m in mods.values():
                self._rebind(vars(m), original, wrapper, m)
                for value in list(vars(m).values()):
                    if isinstance(value, type) and value.__module__ == m.__name__:
                        self._rebind(value.__dict__, original, wrapper, value)
                    elif isinstance(value, dict):
                        self._rebind(value, original, wrapper, None)

    def _rebind(self, namespace, original, wrapper, owner):
        for key, value in list(namespace.items()):
            if value is original:
                if owner is None:
                    namespace[key] = wrapper
                else:
                    setattr(owner, key, wrapper)
                self._undo.append((namespace, owner, key, original))

    def uninstall(self):
        for namespace, owner, key, original in reversed(self._undo):
            if owner is None:
                namespace[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name, kind):
        calls = self.calls
        if kind == COUNT:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        record = kind == SPAN
        stack, active = self._stack, self._active
        spans, total, self_time = self.spans, self.total, self.self_time
        top_level = self.top_level
        after = _AFTER.get(name)

        def timed(*args, **kwargs):
            calls[name] += 1
            index = None
            if record:
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), -1)
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [name, 0.0, index]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                duration = end - start
                self_time[name] += duration - frame[1]
                if not active[name]:
                    total[name] += duration
                if stack:
                    stack[-1][1] += duration
                else:
                    top_level[0] += duration
                if record:
                    spans[index][1] = start
                    spans[index][2] = end
            if after is not None:
                self._bookkeep(after, name, args, result)
            return result

        return timed

    def _bookkeep(self, after, name, args, result):
        start = perf_counter()
        after(self, name, args, result)
        duration = perf_counter() - start
        self.self_time[BOOKKEEPING] += duration
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.top_level[0] += duration

    def group_key(self, G):
        """The element set of G, read through the unwrapped method."""
        elements = self.originals["permgroup.PermGroup.elements"](G)
        return frozenset(g.images for g in elements)

    # -- results -----------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS + ("trace",), 0.0)
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return out

    def top_level_time(self) -> float:
        """Time inside outermost frames; equals the sum of all self times."""
        return self.top_level[0]


def _after_subnormalizer_set(tracer, name, args, result):
    G, x = args[0], args[1]
    tracer.keys[name].add((tracer.group_key(G), x.images))


def _after_build_table(tracer, name, args, result):
    tracer.keys[name].add(tracer.group_key(args[0]))


def _after_cache_load(tracer, name, args, result):
    tracer.results["cli.cache_hits" if result is not None else "cli.cache_misses"] += 1


_AFTER = {
    "subnorm.subnormalizer_set": _after_subnormalizer_set,
    "chartab._build_table": _after_build_table,
    "cli._cache_load": _after_cache_load,
}
