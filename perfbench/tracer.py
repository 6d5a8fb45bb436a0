"""Span tracer that times the emocons layers from outside the package.

Each layer is timed by replacing the module attribute its caller looks up
(``trainer.compute_batch`` for ``_train_loop``, ``evalharness.run_cv`` for
``ab_compare``, ...) with a wrapper that records a span.  The package source
is never edited, and ``uninstall`` puts every original back.

A span is ``[name, start, end, parent index, run id, probe seconds]``.  Spans
stay in memory until ``write_jsonl`` is called at the end of a run.  Time the
speed probe spends inside a span is charged to the innermost open span and
left out of every duration reported here.  A span's self time is its
duration minus the durations of its direct children; calls are nested and
single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

# (module, attribute, span name, only record when the enclosing span is ...)
# Predictor forward/backward are recorded only inside compute_batch, so the
# validation forward pass in the epoch loop stays in run_training's self time.
_SPANS = (
    ("evalharness", "ab_compare", "evalharness.ab_compare", None),
    ("evalharness", "run_cv", "evalharness.run_cv", None),
    ("evalharness", "evaluate", "evalharness.evaluate", None),
    ("evalharness", "prepare_data", "trainer.prepare_data", None),
    ("evalharness", "run_training", "trainer.run_training", None),
    ("evalharness", "save_run", "trainer.save_run", None),
    ("trainer", "prepare_data", "trainer.prepare_data", None),
    ("trainer", "run_training", "trainer.run_training", None),
    ("trainer", "save_run", "trainer.save_run", None),
    ("trainer", "make_batches", "trainer.make_batches", None),
    ("trainer", "optimizer_step", "nn.optimizer_step", None),
    ("trainer", "forward", "nn.forward", "trainer.compute_batch"),
    ("trainer", "backward", "nn.backward", "trainer.compute_batch"),
    ("trainer", "forward_consensus", "consensus.forward_consensus", None),
    ("trainer", "backward_consensus", "consensus.backward_consensus", None),
    ("trainer", "ccc_batch_loss", "ccc.ccc_batch_loss", None),
    ("annotations", "write_dataset", "annotations.write_dataset", None),
    ("annotations", "load_dataset", "annotations.load_dataset", None),
    ("synth", "generate_corpus", "synth.generate_corpus", None),
)


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.run_id, 0.0]
        # append before pushing: the probe's signal handler may read the stack
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[1] = _clock()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = _clock()
        self._stack.pop()

    def exclude(self, seconds: float) -> None:
        """Charge probe time to the innermost open span."""
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def timed(self, name: str, fn, only_under: str | None = None):
        def wrapper(*args, **kwargs):
            if only_under is not None and self._parent_name() != only_under:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, module, attr: str, new) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self, emocons_modules: dict) -> None:
        """Wrap the layer entry points; ``emocons_modules`` maps short
        module names (``"trainer"``) to the imported modules."""
        for mod, attr, name, only_under in _SPANS:
            module = emocons_modules[mod]
            self._patch(module, attr, self.timed(name, getattr(module, attr), only_under))

        trainer = emocons_modules["trainer"]
        compute_batch = trainer.compute_batch
        dims_of = trainer.resolve_dimensions

        def counted_compute_batch(model, batch, cfg):
            stats = compute_batch(model, batch, cfg)
            self.counts["windows_attempted"] += len(batch.segments) * len(dims_of(cfg))
            self.counts["windows_degenerate"] += stats.degenerate
            return stats

        self._patch(
            trainer, "compute_batch", self.timed("trainer.compute_batch", counted_compute_batch)
        )

        ccc = emocons_modules["ccc"]
        ccc_loss = ccc.ccc_loss

        def counted_ccc_loss(*args, **kwargs):
            self.counts["ccc_loss_calls"] += 1
            return ccc_loss(*args, **kwargs)

        self._patch(ccc, "ccc_loss", counted_ccc_loss)

        nn = emocons_modules["nn"]
        clip_gradients = nn.clip_gradients

        def counted_clip(net, max_norm):
            norm = clip_gradients(net, max_norm)
            self.counts["clip_calls"] += 1
            self.counts["clip_fired"] += norm > max_norm
            return norm

        self._patch(nn, "clip_gradients", counted_clip)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- reporting -----------------------------------------------------------

    def net_durations(self) -> list[float]:
        """Each span's duration without the probe time inside it."""
        probe = [rec[5] for rec in self.spans]
        for i in range(len(self.spans) - 1, -1, -1):  # children follow parents
            parent = self.spans[i][3]
            if parent >= 0:
                probe[parent] += probe[i]
        return [end - start - p for (_, start, end, *_), p in zip(self.spans, probe)]

    def self_times(self, run_ids) -> tuple[dict, dict]:
        """Per span name: summed self time and call count over ``run_ids``."""
        run_ids = set(run_ids)
        net = self.net_durations()
        child = [0.0] * len(self.spans)
        for i, rec in enumerate(self.spans):
            if rec[3] >= 0:
                child[rec[3]] += net[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, _, _, _, rid, _) in enumerate(self.spans):
            if rid in run_ids:
                self_s[name] += net[i] - child[i]
                calls[name] += 1
        return dict(self_s), dict(calls)

    def durations(self, run_id: str, name: str | None = None, top: bool = False) -> list[float]:
        """Net durations of one run's spans called ``name`` (or, with
        ``top``, of its top-level spans), in call order."""
        net = self.net_durations()
        return [
            net[i]
            for i, (n, _, _, parent, rid, _) in enumerate(self.spans)
            if rid == run_id and (parent < 0 if top else n == name)
        ]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, rid, probe_s) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run_id": rid,
                            "probe_s": probe_s,
                        }
                    )
                    + "\n"
                )
