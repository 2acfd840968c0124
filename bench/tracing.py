"""Tracing for the benchmark's per-layer metrics, applied from outside the program.

Three instruments, all installed by patching the imported `dyadlab` modules and
removed again by `Tracer.unpatch`:

* spans around every public function and public method of the layers above
  `exactnum` (cli, report, universal, dense_divergence, interior_gap,
  lattice).  A span is (name, start, end, parent span, op id); spans stay in
  memory and are written out once at the end.
* counting wrappers on the public methods of `exactnum.Dyadic`, which is too
  fine-grained to span (about 10^6 calls per pass).  The constructor wrapper
  also tracks the widest mantissa built.
* a sampler thread that reads the main thread's stack every millisecond and
  charges the sample to the innermost `dyadlab` module on it.  Every layer's
  self time comes from these samples, one consistent source; frames of the
  benchmark's own code (these wrappers, the speed probes) are charged to
  `trace`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from typing import Any

SPANNED_MODULES = ("cli", "report", "universal", "dense_divergence", "interior_gap", "lattice")
SAMPLED_MODULES = SPANNED_MODULES + ("exactnum",)
SAMPLE_INTERVAL_S = 0.001
BUILD_SPAN = "universal.build_universal"  # its result's block count feeds universal.blocks_built

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _public_callables(module) -> list[tuple[Any, str, Any, str]]:
    """(owner, attribute, raw attribute value, span name) for every public
    function of `module` and public method of the classes it defines."""
    out = []
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, obj, f"{short}.{name}"))
        elif inspect.isclass(obj):
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                    out.append((obj, attr, raw, f"{short}.{obj.__name__}.{attr}"))
    return out


class Tracer:
    """Installs the instruments on an imported `dyadlab` package."""

    def __init__(self, package):
        self.package = package
        self.modules = {m: sys.modules[f"{package.__name__}.{m}"] for m in SAMPLED_MODULES}
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op = -1
        self.dyadic_calls: dict[str, list[int]] = {}
        self.mantissa_bits_max = [0]
        self.samples: dict[str, int] = {}
        self.builds: list[tuple[int, int]] = []  # (op id, blocks) per build_universal
        self._patches: list[tuple[Any, str, Any]] = []
        self._file_module = {os.path.abspath(m.__file__): short for short, m in self.modules.items()}
        self._sampling = threading.Event()
        self._stop = threading.Event()
        self._sampler: threading.Thread | None = None
        self._old_switch = sys.getswitchinterval()

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr] if attr in vars(owner) else None))
        setattr(owner, attr, value)

    def patch(self) -> None:
        """Install the wrappers (and start the sampler on first use)."""
        originals: dict[int, Any] = {}
        for short in SPANNED_MODULES:
            for owner, attr, raw, name in _public_callables(self.modules[short]):
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._span_wrapper(raw.__func__, name))
                else:
                    wrapped = self._span_wrapper(raw, name)
                    originals[id(raw)] = (raw, wrapped)
                self._set(owner, attr, wrapped)
        # `from .lattice import floor_sum` copies references: repoint every copy
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith(self.package.__name__):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        dyadic = self.modules["exactnum"].Dyadic
        for attr, raw in list(vars(dyadic).items()):
            if attr == "__init__":
                self._set(dyadic, attr, self._ctor_wrapper(raw))
            elif attr == "__setattr__" or (attr.startswith("_") and not attr.endswith("__")):
                continue  # immutability guard and private helpers
            elif isinstance(raw, (staticmethod, classmethod)):
                self._set(dyadic, attr, type(raw)(self._count_wrapper(raw.__func__, attr)))
            elif inspect.isfunction(raw):
                self._set(dyadic, attr, self._count_wrapper(raw, attr))
        if self._sampler is None:
            self._sampler = threading.Thread(target=self._sample_loop, name="bench-sampler", daemon=True)
            self._sampler.start()

    @property
    def patched(self) -> bool:
        return bool(self._patches)

    def unpatch(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, old in reversed(self._patches):
            if old is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    def close(self) -> None:
        self.unpatch()
        self._stop.set()
        self._sampling.set()
        if self._sampler is not None:
            self._sampler.join(timeout=10)
            if self._sampler.is_alive():
                raise RuntimeError("sampler thread did not stop")
        sys.setswitchinterval(self._old_switch)

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if name == BUILD_SPAN:
                tracer.builds.append((tracer.op, len(result.blocks)))
            return result

        return span

    def _count_wrapper(self, fn, attr: str):
        cell = self.dyadic_calls.setdefault(attr, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _ctor_wrapper(self, fn):
        cell = self.dyadic_calls.setdefault("__init__", [0])
        widest = self.mantissa_bits_max

        @functools.wraps(fn)
        def init(self, *args, **kwargs):
            cell[0] += 1
            fn(self, *args, **kwargs)
            bits = self.m.bit_length()
            if bits > widest[0]:
                widest[0] = bits

        return init

    # -- sampling -------------------------------------------------------------

    def start_op(self, op: int) -> None:
        self.op = op
        sys.setswitchinterval(SAMPLE_INTERVAL_S / 2)
        self._sampling.set()

    def end_op(self) -> None:
        self._sampling.clear()
        sys.setswitchinterval(self._old_switch)
        self.op = -1

    def _sample_loop(self) -> None:
        main_id = threading.main_thread().ident
        samples = self.samples
        file_module = self._file_module
        while not self._stop.is_set():
            self._sampling.wait()
            if self._stop.is_set():
                return
            time.sleep(SAMPLE_INTERVAL_S)
            if not self._sampling.is_set():
                continue
            frame = sys._current_frames().get(main_id)
            bucket = "other"
            while frame is not None:
                path = frame.f_code.co_filename
                short = file_module.get(path)
                if short is not None:
                    bucket = short
                    break
                if path.startswith(_BENCH_DIR):  # wrappers and speed probes
                    bucket = "trace"
                    break
                frame = frame.f_back
            samples[bucket] = samples.get(bucket, 0) + 1

    # -- results --------------------------------------------------------------

    def dyadic_totals(self) -> tuple[int, int]:
        """(all counted Dyadic calls, constructor calls)."""
        total = sum(c[0] for c in self.dyadic_calls.values())
        return total, self.dyadic_calls.get("__init__", [0])[0]

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")
