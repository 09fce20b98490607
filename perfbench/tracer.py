"""Spans and counts around the program's layers, for the traced run.

A ``Tracer`` replaces each layer's public function by a wrapper at the
name its caller looks it up under (``training.backward`` for the call in
``train_step``, ``evaluation.greedy_decode`` for the call in
``decode_corpus_side``, ...). Every call becomes one span (name, start,
end, parent, operation) kept in memory; ``uninstall`` puts the original
functions back. Nothing under ``src/interlingua`` changes.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

# (module, attribute the caller looks up, span name)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("data", "learn_bpe", "data.learn_bpe"),
    ("data", "apply_bpe", "data.apply_bpe"),
    ("data", "load_parallel", "data.load_parallel"),
    ("data", "read_corpus", "data.read_corpus"),
    ("cli", "build_system", "training.build_system"),
    ("training", "build_system", "training.build_system"),
    ("cli", "train", "training.train"),
    ("training", "train_step", "training.train_step"),
    ("training", "joint_loss", "training.joint_loss"),
    ("training", "backward", "tensor.backward"),
    ("training", "encode", "transformer.encode"),
    ("evaluation", "encode", "transformer.encode"),
    ("training", "decode_teacher_forced", "transformer.decode_teacher_forced"),
    ("transformer", "decode_teacher_forced", "transformer.decode_teacher_forced"),
    ("evaluation", "greedy_decode", "transformer.greedy_decode"),
    ("training", "quantize", "latent.quantize"),
    ("evaluation", "quantize", "latent.quantize"),
    ("training", "corr_distance", "latent.distance"),
    ("training", "max_distance", "latent.distance"),
    ("cli", "save_checkpoint", "training.save_checkpoint"),
    ("training", "save_checkpoint", "training.save_checkpoint"),
    ("cli", "load_checkpoint", "training.load_checkpoint"),
    ("cli", "decode_corpus_side", "evaluation.decode_corpus_side"),
    ("evaluation", "decode_corpus_side", "evaluation.decode_corpus_side"),
    ("cli", "interlingua_eval", "evaluation.interlingua_eval"),
    ("cli", "bleu", "evaluation.bleu"),
    ("evaluation", "bleu", "evaluation.bleu"),
)

MB = 1024.0 * 1024.0


def _note_backward(args, kwargs, result):
    return {"nodes": len(args[0].tape)}


def _note_decode(args, kwargs, result):
    target_in = args[3] if len(args) > 3 else kwargs["target_in"]
    return {"positions": int(target_in.size)}


def _note_greedy(args, kwargs, result):
    return {"rows": len(result), "tokens": sum(len(row) for row in result)}


def _note_save(args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return {"mb": Path(path).stat().st_size / MB}


NOTES = {
    "tensor.backward": _note_backward,
    "transformer.decode_teacher_forced": _note_decode,
    "transformer.greedy_decode": _note_greedy,
    "training.save_checkpoint": _note_save,
}


class Tracer:
    """Installs the wrappers and keeps the spans of one run in memory.

    ``op`` labels the spans recorded next (an operation number or a
    set-up label). When ``probe_memory`` is set, the next backward sweep
    runs under tracemalloc to measure the memory it adds; that span is
    left out of the backward timing.
    """

    def __init__(self, modules: dict):
        self.spans: list[list] = []  # [name, start, end, parent, op, note]
        self.op = None
        self.probe_memory = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._targets = [(modules[m], attr, name) for m, attr, name in TARGETS]

    def install(self):
        for module, attr, name in self._targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        note = NOTES.get(name)
        probe = name == "tensor.backward"
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            measure = probe and self.probe_memory
            # tracemalloc runs inside the probed span, which is left out of
            # the backward timing, so that it slows no other span
            span[1] = clock()
            if measure:
                self.probe_memory = False
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            if measure:
                span[5]["peak_mb"] = peak / MB
            return result

        return traced

    def dump(self, path: Path):
        """Write every span, times in ms from the first span, plus self times."""
        origin = self.spans[0][1] if self.spans else 0.0
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        own = _self_times(self.spans)
        for span, ms in zip(self.spans, own):
            self_ms[span[0]] += ms
            calls[span[0]] += 1
        payload = {
            "fields": ["name", "start_ms", "end_ms", "parent", "op", "note"],
            "spans": [
                [s[0], round((s[1] - origin) * 1e3, 4), round((s[2] - origin) * 1e3, 4), s[3], s[4], s[5]]
                for s in self.spans
            ],
            "self_ms_total": {k: round(v, 4) for k, v in sorted(self_ms.items())},
            "calls": dict(sorted(calls.items())),
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover, in ms."""
    own = [(s[2] - s[1]) * 1e3 for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= (s[2] - s[1]) * 1e3
    return own


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, traced_ops: list[int], untraced_op_ms: list[float], traced_op_ms: list[float]) -> dict:
    """Per-layer figures from the spans of the traced operations and set-ups.

    Times of single calls are medians over calls; per-step figures are
    medians over ``train_step`` spans of the time inside each step; per-op
    figures are medians over traced operations.
    """
    ops = set(traced_ops)
    by_name = defaultdict(list)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
        children[s[3]].append(i)
    own = _self_times(spans)

    def ms(i):
        return (spans[i][2] - spans[i][1]) * 1e3

    def in_ops(name):
        return [i for i in by_name[name] if spans[i][4] in ops]

    def per_call(name):
        return _median(ms(i) for i in by_name[name])

    def per_op(value_of):
        totals = dict.fromkeys(ops, 0.0)
        for i, s in enumerate(spans):
            if s[4] in ops:
                totals[s[4]] += value_of(i)
        return _median(totals.values())

    def count_per_op(name):
        return per_op(lambda i: 1.0 if spans[i][0] == name else 0.0)

    def inside(root, name):
        found, todo = [], list(children[root])
        while todo:
            i = todo.pop()
            if spans[i][0] == name:
                found.append(i)
            todo.extend(children[i])
        return found

    steps = in_ops("training.train_step")

    def per_step(name):
        return _median(sum(ms(i) for i in inside(step, name)) for step in steps)

    setups = sorted({s[4] for s in spans if isinstance(s[4], str)})

    def per_setup(name):
        return _median(
            sum(ms(i) for i in by_name[name] if spans[i][4] == label) for label in setups
        )

    backward = in_ops("tensor.backward")
    probed = {i for i in backward if "peak_mb" in spans[i][5]}
    greedy = in_ops("transformer.greedy_decode")
    positions = tokens = 0
    finished = dict.fromkeys(ops, 0.0)
    for g in greedy:
        inner = [c for c in children[g] if spans[c][0] == "transformer.decode_teacher_forced"]
        positions += sum(spans[c][5]["positions"] for c in inner)
        tokens += spans[g][5]["tokens"]
        finished[spans[g][4]] += spans[g][5]["rows"] * len(inner) - spans[g][5]["tokens"]
    traced_ms = _median(traced_op_ms)

    return {
        "tensor.tape_nodes": ("count", _median(spans[i][5]["nodes"] for i in backward)),
        "tensor.backward_ms": ("ms", _median(ms(i) for i in backward if i not in probed)),
        "tensor.backward_peak_mb": ("MB", _median(spans[i][5]["peak_mb"] for i in probed)),
        "training.forward_ms": ("ms", _median(ms(i) for i in in_ops("training.joint_loss"))),
        "training.optimizer_ms": ("ms", _median(own[i] for i in steps)),
        "training.checkpoint_save_ms": ("ms", per_call("training.save_checkpoint")),
        "training.checkpoint_mb": ("MB", _median(spans[i][5]["mb"] for i in by_name["training.save_checkpoint"])),
        "training.checkpoint_load_ms": ("ms", per_call("training.load_checkpoint")),
        "transformer.encode_ms": ("ms", _median(ms(i) for i in in_ops("transformer.encode"))),
        "transformer.encode_calls": ("count", count_per_op("transformer.encode")),
        "transformer.decode_tf_ms": ("ms", _median(ms(i) for i in in_ops("transformer.decode_teacher_forced"))),
        "transformer.decode_tf_calls": ("count", count_per_op("transformer.decode_teacher_forced")),
        "transformer.greedy_ms": ("ms", _median(ms(i) for i in greedy)),
        "transformer.positions_per_token": ("ratio", positions / tokens if tokens else 0.0),
        "transformer.finished_row_steps": ("count", _median(finished.values())),
        "latent.quantize_ms": ("ms", per_step("latent.quantize")),
        "latent.distance_ms": ("ms", per_step("latent.distance")),
        "data.learn_bpe_ms": ("ms", per_setup("data.learn_bpe")),
        "data.apply_bpe_ms": ("ms", per_setup("data.apply_bpe")),
        "data.load_parallel_ms": ("ms", per_setup("data.load_parallel")),
        "data.read_corpus_ms": ("ms", _median(ms(i) for i in in_ops("data.read_corpus"))),
        "evaluation.decode_passes": ("count", count_per_op("transformer.greedy_decode")),
        "evaluation.bleu_ms": ("ms", _median(ms(i) for i in in_ops("evaluation.bleu"))),
        "cli.overhead_ms": ("ms", per_op(lambda i: own[i] if spans[i][0] == "cli.main" else 0.0)),
        "trace.op_ms": ("ms", traced_ms),
        "trace.overhead_ms": ("ms", traced_ms - _median(untraced_op_ms)),
    }
