"""Per-layer spans recorded from outside kdc, by wrapping its public functions.

``from .kernels import gram`` binds the function again in each importing
module, so a wrapper installed only where a function is defined would miss
most calls. ``Tracer.install`` therefore replaces every binding of a traced
function in every loaded ``kdc`` module (class attributes such as
``KernelSpec.key`` are replaced on the class), and ``uninstall`` puts the
originals back.

Each call records a span (id, name, start, end, parent id) in memory, plus
the counts it contributes. Time metrics are self time: a span's duration
minus the durations of its direct child spans. Calls nest on one thread,
so this never counts an interval twice, even when mode_projection calls
itself for each local model of an AveragedModel.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _gram_counts(args):
    n = len(args["inputs"])
    return {"kernels.gram_entries": n * n}


def _eig_counts(args):
    g = args["g"]
    n = g.n if hasattr(g, "n") else len(g)
    return {"kernels.eig_n3": n**3}


def _sgm_counts(args):
    cfg = args["config"]
    return {"trainers.sgm_steps": cfg.iterations,
            "trainers.sgm_rows": cfg.iterations * cfg.batch_size}


def _task_counts(result) -> dict:
    return {"harness.task_errors": int(bool(result["error"]))}


@dataclass(frozen=True)
class Target:
    """One traced function.

    ``where`` is the defining module and attribute (``Class.attr`` for a
    method or property). ``only_in`` limits patching to the named modules;
    otherwise every kdc module binding the function is patched.
    """

    where: tuple[str, str]
    time: str
    calls: str | None = None
    arg_counts: Callable | None = None
    result_counts: Callable | None = None
    divergences: bool = False
    only_in: tuple[str, ...] = ()


TARGETS = (
    Target(("kdc.spectral_model", "basis_matrix"), "spectral_model.basis_s"),
    Target(("kdc.spectral_model", "SpectralProblem.problem_id"),
           "spectral_model.problem_id_s", "spectral_model.problem_id_calls"),
    Target(("kdc.spectral_model", "sample_dataset"), "spectral_model.sample_s"),
    Target(("kdc.kernels", "gram"), "kernels.gram_s", "kernels.gram_calls", _gram_counts),
    Target(("kdc.kernels", "sym_eigendecompose"), "kernels.eig_s", "kernels.eig_calls",
           _eig_counts),
    Target(("kdc.kernels", "KernelSpec.key"), "kernels.key_s", "kernels.key_calls"),
    Target(("kdc.filters", "apply_filter"), "filters.apply_s", "filters.apply_calls"),
    Target(("kdc.trainers", "sgm_local"), "trainers.sgm_s", "trainers.sgm_calls",
           _sgm_counts, divergences=True),
    Target(("kdc.trainers", "sa_local"), "trainers.sa_s"),
    Target(("kdc.trainers", "partition_data"), "trainers.partition_s"),
    Target(("kdc.trainers", "average_models"), "trainers.average_s"),
    Target(("kdc.evaluation", "mode_projection"), "evaluation.projection_s",
           "evaluation.projection_calls"),
    Target(("kdc.evaluation", "excess_risk_exact"), "evaluation.risk_s"),
    Target(("kdc.harness", "run_experiment"), "harness.run_s"),
    Target(("kdc.harness", "_run_point"), "harness.run_s", "harness.tasks",
           result_counts=_task_counts),
    # The problem_id property serializes too; only the harness's own
    # round-trip counts as serialization, so only its bindings are patched.
    Target(("kdc.harness", "problem_to_json"), "harness.serialize_s",
           only_in=("kdc.harness",)),
    Target(("kdc.harness", "problem_from_json"), "harness.serialize_s",
           only_in=("kdc.harness",)),
)

#: Counts that follow from the arguments rather than from a clock.
COMPUTED_COUNTS = ("kernels.gram_entries", "kernels.eig_n3", "trainers.sgm_steps",
                   "trainers.sgm_rows")


def time_metrics() -> list[str]:
    return list(dict.fromkeys(t.time for t in TARGETS))


def count_metrics() -> list[str]:
    names = [t.calls for t in TARGETS if t.calls]
    names += [*COMPUTED_COUNTS, "trainers.divergences", "harness.task_errors"]
    return list(dict.fromkeys(names))


def _kdc_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kdc" or name.startswith("kdc."))]


class Tracer:
    """Collects spans, self times and counts while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.self_s = dict.fromkeys(time_metrics(), 0.0)
        self.counts = dict.fromkeys(count_metrics(), 0)
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        from kdc.errors import DivergenceError

        name = target.where[1]
        sig = inspect.signature(fn) if target.arg_counts else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.calls:
                self.counts[target.calls] += 1
            if target.arg_counts:
                for key, inc in target.arg_counts(sig.bind(*args, **kwargs).arguments).items():
                    self.counts[key] += inc
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [sid, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except DivergenceError:
                if target.divergences:
                    self.counts["trainers.divergences"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += t1 - t0
                self.self_s[target.time] += (t1 - t0) - frame[1]
                self.spans[sid] = (sid, name, t0, t1, parent)
            if target.result_counts:
                for key, inc in target.result_counts(result).items():
                    self.counts[key] += inc
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = _kdc_modules()
        for target in TARGETS:
            mod_name, attr = target.where
            home = sys.modules[mod_name]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[member]
                if isinstance(orig, property):
                    self._set(cls, member, property(self._wrap(target, orig.fget)))
                else:
                    self._set(cls, member, self._wrap(target, orig))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(target, orig)
            for mod in modules:
                if target.only_in and mod.__name__ not in target.only_in:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> dict:
        """Self times and counts, plus the ratios derived from them."""
        out = {**self.self_s, **self.counts}
        rows = self.counts["trainers.sgm_rows"]
        out["trainers.sgm_us_per_row"] = 1e6 * self.self_s["trainers.sgm_s"] / rows if rows else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON lines (times in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")
