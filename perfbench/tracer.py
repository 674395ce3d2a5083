"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of the ``voachar`` modules before the CLI
runs, so the library itself carries no instrumentation.  Every wrapped call
records a span (name, start, end, parent span); spans stay in memory and are
reduced to per-layer totals when the op ends.  A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time

PACKAGE = "voachar"

# (layer name, module, attribute path).  The layer name is the prefix of
# every metric the layer reports; a dotted attribute path names a method.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("qseries.mul", "qseries", "TruncSeries.__mul__"),
    ("qseries.euler_product", "qseries", "euler_product"),
    ("rootsys.weyl_elements", "rootsys", "weyl_elements"),
    ("rootsys.dominant_weights_up_to", "rootsys", "dominant_weights_up_to"),
    ("weylchar.irr_character", "weylchar", "irr_character"),
    ("weylchar.alternating_sum", "weylchar", "alternating_sum"),
    ("weylchar.divide_exact", "weylchar", "divide_exact"),
    ("weylchar.decompose", "weylchar", "decompose"),
    ("weylchar.tensor_decompose_pair", "weylchar", "tensor_decompose_pair"),
    ("weylchar.laurent_mul", "weylchar", "LaurentPoly.__mul__"),
    ("branching.branching_product", "branching", "branching_product"),
    ("branching.branching_weylsum", "branching", "branching_weylsum"),
    ("branching.denominator_identity_check", "branching", "denominator_identity_check"),
    ("characters.theorem2_character", "characters", "theorem2_character"),
    ("characters.trivial_multiplicity", "characters", "_trivial_multiplicity"),
    ("characters.fermion_character", "characters", "fermion_character"),
    ("characters.decompose_by_level", "characters", "decompose_by_level"),
    ("modealg.griess_product", "modealg", "griess_product"),
    ("modealg.mode_operator", "modealg", "mode_operator"),
    ("modealg.apply_generator", "modealg", "apply_generator"),
    ("modealg.bracket", "modealg", "bracket"),
    ("fock.graded_basis", "fock", "graded_basis"),
    ("fock.sp_action", "fock", "sp_action"),
    ("fock.invariant_subspace", "fock", "invariant_subspace"),
    ("fock.null_space", "fock", "_null_space"),
    ("fock.mode_apply", "fock", "mode_apply"),
    ("fock.rank_and_reduce", "fock", "_rank_and_reduce"),
    ("fock.virasoro_check", "fock", "virasoro_check"),
    ("fock.generation_check", "fock", "generation_check"),
)

# Counts taken from a wrapped call's arguments and result, at the layer
# where the work happens: layer -> [(counter, fn(args, result) -> int)].
COUNTERS = {
    "rootsys.weyl_elements": [("elements", lambda a, r: len(r))],
    "characters.trivial_multiplicity": [("useful", lambda a, r: int(r != 0))],
    "fock.graded_basis": [("vectors", lambda a, r: len(r))],
    "fock.invariant_subspace": [("kernel_dim", lambda a, r: r[0])],
    "fock.null_space": [("cols", lambda a, r: a[1])],
    "fock.rank_and_reduce": [
        ("rank", lambda a, r: r[0]),
        ("candidates", lambda a, r: len(a[0])),
    ],
}

# A call of the outer layer that runs the inner layer beneath it is a cache
# miss: hit ratio = 1 - (inner calls under outer / outer calls).
MISS_MARKERS = {
    "weylchar.irr_character": "weylchar.divide_exact",
    "weylchar.tensor_decompose_pair": "weylchar.decompose",
}


class Tracer:
    """Span recorder for one op (one child process).  ``absent`` collects the
    layers and counters that could not be measured."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack = [-1]

    def wrap(self, layer: str, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counters, absent = self._stack, self.counters, self.absent
        hooks = COUNTERS.get(layer, ())
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(layer)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            for counter, count in hooks:
                key = f"{layer}.{counter}"
                if key in absent:
                    continue
                try:
                    counters[key] = counters.get(key, 0) + count(args, result)
                except (TypeError, IndexError, KeyError, AttributeError, ValueError):
                    # The layer's signature or result changed shape: report
                    # the count as absent rather than fail the op.
                    absent.append(key)
                    counters.pop(key, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent.

        A function imported by name into another module (``from .weylchar
        import decompose``) is rebound there too, so calls through that name
        are traced as well.
        """
        for layer, modname, attr in TARGETS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{modname}")
            except ImportError:
                self.absent.append(layer)
                continue
            owner, _, name = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = getattr(holder, name, None) if holder is not None else None
            if orig is None or (owner and name not in vars(holder)):
                self.absent.append(layer)
                continue
            wrapped = self.wrap(layer, orig)
            setattr(holder, name, wrapped)
            if owner:
                continue
            for loaded, module in list(sys.modules.items()):
                if module is None or not (
                    loaded == PACKAGE or loaded.startswith(PACKAGE + ".")
                ):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, alias, wrapped)

    def spans(self) -> list[tuple[str, int, int, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the union of the parts of
    its children's intervals that fall inside it."""
    children: dict[int, list[int]] = {}
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children.get(idx, ())
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans, counters=None) -> dict[str, int]:
    """Reduce one op's spans to additive totals: ``<layer>.calls``,
    ``<layer>.self_ns``, the call counters, and ``<outer>.misses``."""
    totals: dict[str, int] = dict(counters or {})
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        totals[f"{name}.self_ns"] = totals.get(f"{name}.self_ns", 0) + own
    for outer, inner in MISS_MARKERS.items():
        misses = 0
        for name, _, _, parent in spans:
            if name != inner:
                continue
            while parent >= 0 and spans[parent][0] != outer:
                parent = spans[parent][3]
            misses += parent >= 0
        totals[f"{outer}.misses"] = misses
    return totals


# Per-layer metrics every traced run reports: (name, unit).  The last line
# carries the subset that BENCHMARK.json lists; all go to the results file.
LAYER_METRICS = (
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("qseries.mul.calls", "count"),
    ("qseries.mul.self_s", "s"),
    ("qseries.euler_product.self_s", "s"),
    ("rootsys.weyl_elements.calls", "count"),
    ("rootsys.weyl_elements.elements", "count"),
    ("rootsys.weyl_elements.self_s", "s"),
    ("rootsys.dominant_weights_up_to.self_s", "s"),
    ("weylchar.irr_character.calls", "count"),
    ("weylchar.irr_character.self_s", "s"),
    ("weylchar.irr_character.misses", "count"),
    ("weylchar.irr_character.hit_ratio", "ratio"),
    ("weylchar.alternating_sum.calls", "count"),
    ("weylchar.alternating_sum.self_s", "s"),
    ("weylchar.divide_exact.calls", "count"),
    ("weylchar.divide_exact.self_s", "s"),
    ("weylchar.decompose.calls", "count"),
    ("weylchar.decompose.self_s", "s"),
    ("weylchar.tensor_decompose_pair.calls", "count"),
    ("weylchar.tensor_decompose_pair.self_s", "s"),
    ("weylchar.tensor_decompose_pair.misses", "count"),
    ("weylchar.tensor_decompose_pair.hit_ratio", "ratio"),
    ("weylchar.laurent_mul.calls", "count"),
    ("weylchar.laurent_mul.self_s", "s"),
    ("branching.branching_product.self_s", "s"),
    ("branching.branching_weylsum.self_s", "s"),
    ("branching.denominator_identity_check.self_s", "s"),
    ("characters.theorem2_character.self_s", "s"),
    ("characters.trivial_multiplicity.calls", "count"),
    ("characters.trivial_multiplicity.self_s", "s"),
    ("characters.trivial_multiplicity.useful", "count"),
    ("characters.trivial_multiplicity.useful_ratio", "ratio"),
    ("characters.fermion_character.self_s", "s"),
    ("characters.decompose_by_level.self_s", "s"),
    ("modealg.griess_product.self_s", "s"),
    ("modealg.mode_operator.calls", "count"),
    ("modealg.mode_operator.self_s", "s"),
    ("modealg.apply_generator.calls", "count"),
    ("modealg.bracket.calls", "count"),
    ("modealg.bracket.self_s", "s"),
    ("fock.graded_basis.vectors", "count"),
    ("fock.graded_basis.self_s", "s"),
    ("fock.sp_action.calls", "count"),
    ("fock.sp_action.self_s", "s"),
    ("fock.invariant_subspace.self_s", "s"),
    ("fock.invariant_subspace.kernel_dim", "count"),
    ("fock.null_space.cols", "count"),
    ("fock.null_space.self_s", "s"),
    ("fock.mode_apply.calls", "count"),
    ("fock.mode_apply.self_s", "s"),
    ("fock.rank_and_reduce.self_s", "s"),
    ("fock.rank_and_reduce.rank", "count"),
    ("fock.rank_and_reduce.candidates", "count"),
    ("fock.rank_and_reduce.useful_ratio", "ratio"),
    ("fock.virasoro_check.self_s", "s"),
    ("fock.generation_check.self_s", "s"),
)

# Ratio metrics: name -> (numerator, base, complement).  A hit ratio is the
# complement of misses / calls.
RATIOS = {
    "weylchar.irr_character.hit_ratio": (
        "weylchar.irr_character.misses", "weylchar.irr_character.calls", True),
    "weylchar.tensor_decompose_pair.hit_ratio": (
        "weylchar.tensor_decompose_pair.misses", "weylchar.tensor_decompose_pair.calls", True),
    "characters.trivial_multiplicity.useful_ratio": (
        "characters.trivial_multiplicity.useful", "characters.trivial_multiplicity.calls", False),
    "fock.rank_and_reduce.useful_ratio": (
        "fock.rank_and_reduce.rank", "fock.rank_and_reduce.candidates", False),
}


def layer_of(metric: str) -> str:
    return metric.rsplit(".", 1)[0]


def layer_metrics(totals: dict[str, int], absent) -> dict[str, float | None]:
    """Per-layer metric values from a pass's summed totals.  ``None`` marks
    a metric that is absent: its layer or counter no longer exists in the
    program, or it is a ratio whose base is zero or absent."""
    absent = set(absent) | {
        f"{outer}.misses" for outer, inner in MISS_MARKERS.items() if inner in absent
    }
    out: dict[str, float | None] = {}
    for name, _ in LAYER_METRICS:
        layer = layer_of(name)
        if name == "cli.stdout_bytes":
            out[name] = totals.get(name, 0)
        elif layer in absent or name in absent:
            out[name] = None
        elif name in RATIOS:
            num, den, complement = RATIOS[name]
            base = totals.get(den, 0)
            if base == 0 or num in absent:
                out[name] = None
            else:
                share = totals.get(num, 0) / base
                out[name] = 1 - share if complement else share
        elif name.endswith(".self_s"):
            out[name] = totals.get(f"{layer}.self_ns", 0) / 1e9
        else:
            out[name] = totals.get(name, 0)
    return out
