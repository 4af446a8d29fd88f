"""Spans around the calls into each `jamgame` module, recorded from outside.

`Tracer.install` wraps every public module-level function of the package, plus
`StepCache.step`, and rebinds each wrapper in every module namespace that
holds the function, so `consensus_step` called from `game` and from `rolling`
lands in separate spans (`dynamics.consensus_step@game`,
`dynamics.consensus_step@rolling`). No file under `src/` changes. Spans stay
in memory until `uninstall`; `summary` and `write_spans` read them afterwards.

`Checkpoints` is the light counterpart, installed in every iteration: it
counts the calls of one function and reads the clocks every `every` calls, so
an iteration falls into segments that hold the same work in every iteration,
and times a fixed reference loop there (`timed_reference`), which measures
the host's speed as the iteration runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from fractions import Fraction

MODULES = ("scenario", "network", "dynamics", "energy", "game", "rolling", "analysis", "cli")


class _Patches:
    """Rebinding of module attributes, undone in reverse order by `uninstall`."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)


def reference_loop() -> int:
    """Fixed work that uses only the standard library, about 0.4 ms on a fast core.

    Exact fractions, tuple keys and dict updates, as in `jamgame`'s solver.
    No change under `src/` changes its cost, so its time measures how fast
    the host runs Python at that moment.
    """
    acc, table = Fraction(0), {}
    for i in range(1, 100):
        x = Fraction(i, i + 1) * Fraction(2 * i + 1, 3)
        acc += x
        key = (i % 7, x.numerator % 11)
        table[key] = table.get(key, 0) + 1
    return len(table) + acc.denominator % 2


def timed_reference() -> tuple[float, float, float, float]:
    """Wall and CPU clocks before and after one run of `reference_loop`."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    reference_loop()
    return wall0, cpu0, time.perf_counter(), time.process_time()


class Checkpoints(_Patches):
    """Clock readings at every `every`-th call of one function.

    `target` is `module:function` or `module:Class.method`, the module given
    by its import name (`jamgame.game:StepCache.step`, `itertools:combinations`).
    Install it before a `Tracer`: the wrapper carries the function's name, so
    the tracer wraps it in turn and traced iterations fall into the same
    segments. A module-level function is rebound in its own module and in
    every `jamgame` module namespace that holds it. The program is
    deterministic, so the k-th reading falls at the same point of the work in
    every iteration of a run. A target that no longer exists yields no
    readings: the iteration is then one segment.

    Each reading is `timed_reference()`: with `reference`, the reference loop
    runs between the clock reads, sampling the host's speed all through the
    iteration; without, the two reads coincide.
    """

    def __init__(self, target: str, every: int, reference: bool = True) -> None:
        super().__init__()
        self.target, self.every, self.reference = target, every, reference
        self.marks: list[tuple[float, float, float, float]] = []

    def install(self) -> None:
        module, _, path = self.target.partition(":")
        cls_name, _, attr = path.rpartition(".")
        home = importlib.import_module(module)
        if cls_name:
            owners = [getattr(home, cls_name, None)]
        else:
            owners = [home] + [importlib.import_module(f"jamgame.{name}") for name in MODULES]
        fn = getattr(owners[0], attr, None)
        if not callable(fn):
            return
        marks, every, count = self.marks, self.every, [0]
        wall, cpu = time.perf_counter, time.process_time
        read = timed_reference if self.reference else lambda: (wall(), cpu()) * 2

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            count[0] += 1
            if count[0] == every:
                count[0] = 0
                marks.append(read())
            return fn(*args, **kwargs)

        for owner in owners:
            if vars(owner).get(attr) is fn:
                self._patch(owner, attr, wrapper)


class Tracer(_Patches):
    def __init__(self) -> None:
        super().__init__()
        self.labels: list[str] = []  # span label per label id, "module.func@caller"
        self.span_label: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._stack = [-1]

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"jamgame.{name}") for name in MODULES}
        targets = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    targets[obj] = f"{short}.{attr}"
        step_cache = mods["game"].StepCache
        self._patch(step_cache, "step", self._wrap(step_cache.step, "game.StepCache.step@game"))
        for caller, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._patch(mod, attr, self._wrap(obj, f"{targets[obj]}@{caller}"))

    def _wrap(self, fn, label: str):
        label_id = len(self.labels)
        self.labels.append(label)
        clock = time.perf_counter
        names, starts, ends, parents, stack = (
            self.span_label, self.span_start, self.span_end, self.span_parent, self._stack,
        )

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(label_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    # --- reading the spans --------------------------------------------------------

    def summary(self) -> dict:
        """Per function and per (function, caller): calls, busy and self seconds.

        Busy time is the union of a function's span intervals, so a recursive
        call is not counted twice. Self time is a span's duration minus the
        part its direct child spans cover.
        """
        n = len(self.span_start)
        starts, ends, parents, labels = self.span_start, self.span_end, self.span_parent, self.span_label
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        funcs = [label.split("@")[0] for label in self.labels]
        stats: dict[str, list] = {}  # name -> [calls, busy, self, last_end]
        for i in range(n):
            dur = ends[i] - starts[i]
            for key in (funcs[labels[i]], self.labels[labels[i]]):
                s = stats.get(key)
                if s is None:
                    s = stats[key] = [0, 0.0, 0.0, float("-inf")]
                s[0] += 1
                s[2] += dur - child[i]
                if starts[i] >= s[3]:
                    s[1] += dur
                    s[3] = ends[i]
        out = {key: {"calls": s[0], "busy_s": s[1], "self_s": s[2]} for key, s in stats.items()}
        out["_solve_durations"] = [
            ends[i] - starts[i] for i in range(n) if funcs[labels[i]] == "game.solve_decision"
        ]
        # Total duration of each direct child function of cmd_run's spans.
        cmd_run = {i for i in range(n) if funcs[labels[i]] == "cli.cmd_run"}
        children: dict[str, float] = {}
        for i in range(n):
            if parents[i] in cmd_run:
                f = funcs[labels[i]]
                children[f] = children.get(f, 0.0) + ends[i] - starts[i]
        out["_children_of"] = children
        out["_spans"] = n
        return out

    def write_spans(self, path) -> None:
        """One CSV row per span: id, label, start and end in microseconds, parent id."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as fh:
            fh.write("id,label,start_us,end_us,parent\n")
            for i, (lab, s, e, p) in enumerate(
                zip(self.span_label, self.span_start, self.span_end, self.span_parent)
            ):
                fh.write(f"{i},{self.labels[lab]},{(s - t0) * 1e6:.1f},{(e - t0) * 1e6:.1f},{p}\n")
