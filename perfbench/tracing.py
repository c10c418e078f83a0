"""Per-layer host-clock spans recorded from outside the program.

Nothing here is installed inside ``src/``: a :class:`LayerTracer` swaps
wrappers in for the public functions and methods each layer of
``repro`` exposes, records one span per call (name, start, end, parent
via the stack) and restores the originals on :meth:`LayerTracer.remove`.
Module-level functions are rebound in *every* ``repro`` module that holds
them, so ``collectives.all_reduce`` and ``from ..comm import all_reduce``
are both caught; the coverage check in ``traced.py`` compares the wrapper
counts with the program's own collective trace hook.

A span's *self* time is its duration minus the time of the spans nested
inside it, so the self times of all spans partition the traced interval.
``total`` time is inclusive and counted only for the outermost span of a
name (recursion is not double counted).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


def _nbytes(shards) -> int:
    return sum(int(getattr(s, "nbytes", 0)) for s in shards)


class LayerTracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        self._patches = []          # (owner, attr, original, wrapper)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack = []            # [name, start, child_seconds]
        self._depth = defaultdict(int)

    # -- recording -----------------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers keep feeding
        the same dictionaries)."""
        for table in (self.self_s, self.total_s, self.calls, self.counts,
                      self._depth):
            table.clear()
        self._stack.clear()

    def enter(self, name: str) -> None:
        self.calls[name] += 1
        self._depth[name] += 1
        self._stack.append([name, _clock(), 0.0])

    def exit(self) -> None:
        end = _clock()
        name, start, child = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.total_s[name] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def top(self):
        return self._stack[-1][0] if self._stack else None

    # -- patching ------------------------------------------------------------
    def _wrap(self, fn, name, before=None, errors=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            except Exception as error:
                if errors is not None:
                    errors(error)
                raise
            finally:
                tracer.exit()
        return wrapped

    def _count(self, fn, before):
        """Call ``before`` and then ``fn``, with no span: a counter that
        leaves the self time of the enclosing span whole."""
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            before(args, kwargs)
            return fn(*args, **kwargs)
        return wrapped

    def patch(self, owner, attr: str, wrapper) -> None:
        """Install ``wrapper`` as ``owner.attr`` while the tracer is on."""
        self._patches.append((owner, attr, vars(owner)[attr], wrapper))

    def method(self, cls, attr: str, name: str, before=None, errors=None,
               count_only: bool = False) -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself) as span ``name``,
        or with ``count_only`` just call ``before`` on every call."""
        original = vars(cls)[attr]
        self.patch(cls, attr, self._count(original, before) if count_only
                   else self._wrap(original, name, before, errors))

    def function(self, original, name: str, before=None, wrapper=None) -> None:
        """Wrap a module-level function in every ``repro`` module that
        binds it, under whatever local name it was imported as."""
        wrapper = wrapper or self._wrap(original, name, before)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, wrapper)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def sum_self(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items()
                   if k == prefix or k.startswith(prefix + "."))


#: the collectives the program's trace hook reports
COMM_KINDS = ("all_reduce", "all_gather", "reduce_scatter", "all_to_all",
              "broadcast")


def build_layer_tracer() -> LayerTracer:
    """The benchmark's patch table: one entry per layer boundary."""
    from repro.allocator import FirstFitAllocator
    from repro.comm import collectives
    from repro.fusion import ops as fusion_ops
    from repro.layers.embedding import GPTEmbedding
    from repro.layers.transformer import GPTModel, LMHead, TransformerLayer
    from repro.longctx import attention as lc_attention
    from repro.longctx import mappings as lc_mappings
    from repro.longctx import model as lc_model
    from repro.parallel import mappings as par_mappings
    from repro.parallel.embedding import VocabParallelEmbedding
    from repro.parallel.transformer import (ParallelGPTModel, ParallelLMHead,
                                            ParallelTransformerLayer)
    from repro.pipeline_sim.schedule import schedule_interleaved
    from repro.serving import (ContinuousBatchingScheduler, DecodeEngine,
                               KVAdmissionFull, PagedKVCache,
                               ServingPerfModel)
    from repro.tensor.checkpoint import Checkpoint
    from repro.tensor import context as tensor_context
    from repro.tensor.memory_tracker import MemoryTracker
    from repro.tensor.oplog import Phase
    from repro.tensor.tensor import FnCtx, Function, Tensor, apply, run_backward
    from repro.training import Adam, PipelinedGPT, UniformTokens

    t = LayerTracer()
    counts = t.counts

    # training
    t.method(PipelinedGPT, "train_step", "training.step")
    for cls in (GPTModel, ParallelGPTModel, lc_model.LongContextGPTModel):
        t.method(cls, "forward", "training.forward")
    t.method(PipelinedGPT, "_run_group", "training.forward")
    t.method(Tensor, "backward", "training.backward")
    for cls in (ParallelGPTModel, lc_model.LongContextGPTModel):
        t.method(cls, "finish_grad_sync", "training.backward")
    t.method(Adam, "step", "training.optimizer")
    t.method(Adam, "zero_grad", "training.optimizer")
    t.method(UniformTokens, "batch", "training.data")

    # tensor: op dispatch, tape walk, tracker charges (counted, not spanned)
    t.function(apply, "tensor.apply")
    t.function(run_backward, "tensor.backward")

    def on_save(args, kwargs):
        counts["tensor.save"] += 1

    def on_release(args, kwargs):
        counts["tensor.release"] += 1

    t.method(MemoryTracker, "save", "", before=on_save, count_only=True)
    t.method(MemoryTracker, "release", "", before=on_release, count_only=True)

    # checkpoint: the region's forward, its backward, and the recompute
    # forward inside it (the ``phase(RECOMPUTE)`` block)
    t.method(Checkpoint, "forward", "checkpoint.forward")
    t.method(Checkpoint, "backward", "checkpoint.backward")
    original_phase = tensor_context.phase

    @contextmanager
    def traced_phase(value):
        if value is not Phase.RECOMPUTE:
            with original_phase(value):
                yield
            return
        t.enter("checkpoint.recompute")
        try:
            with original_phase(value):
                yield
        finally:
            t.exit()

    t.function(original_phase, "", wrapper=traced_phase)

    # fusion: fused kernels, forward and backward
    for cls in (fusion_ops.BiasGelu, fusion_ops.DropoutAdd,
                fusion_ops.FusedLayerNorm, fusion_ops.ScaleMaskSoftmaxDropout,
                fusion_ops.SoftmaxCrossEntropy):
        t.method(cls, "forward", "fusion.forward")
        t.method(cls, "backward", "fusion.backward")

    # layers: the model's embedding / transformer block / head modules
    for cls in (GPTEmbedding, VocabParallelEmbedding,
                lc_model.LongContextEmbedding):
        t.method(cls, "forward", "layers.embedding")
    for cls in (TransformerLayer, ParallelTransformerLayer,
                lc_model.LongContextTransformerLayer):
        t.method(cls, "forward", "layers.transformer")
    for cls in (LMHead, ParallelLMHead, lc_model.LongContextLMHead):
        t.method(cls, "forward", "layers.head")

    # parallel: every TP/SP mapping autograd function
    for cls in vars(par_mappings).values():
        if (isinstance(cls, type) and issubclass(cls, Function)
                and cls.__module__ == par_mappings.__name__):
            t.method(cls, "forward", "parallel.mapping")
            t.method(cls, "backward", "parallel.mapping")

    # comm: each collective wherever it is bound; ring hops as p2p
    for kind in COMM_KINDS:
        def on_collective(args, kwargs, kind=kind):
            shards = args[0] if args else kwargs["shards"]
            if kind == "broadcast":
                shards = [shards]
            counts[f"comm.{kind}.bytes"] += _nbytes(shards)
        t.function(getattr(collectives, kind), f"comm.{kind}",
                   before=on_collective)
    t.method(lc_mappings.RingGather, "forward", "comm.p2p")
    t.method(lc_mappings.RingGather, "backward", "comm.p2p")

    def on_log_comm(args, kwargs):
        # FnCtx.log_comm(self, name, op, nbytes, group_size, ...)
        if args[2] == "p2p":
            counts["comm.p2p.hops"] += 1
            counts["comm.p2p.bytes"] += args[3]

    t.method(FnCtx, "log_comm", "", before=on_log_comm, count_only=True)

    # longctx: context-parallel attention modules and Ulysses re-shards
    for cls in (lc_attention.RingSelfAttention, lc_attention.RingCoreAttention,
                lc_attention.UlyssesSelfAttention):
        t.method(cls, "forward", "longctx.attention")
    t.method(lc_mappings.AllToAll, "forward", "longctx.attention")
    t.method(lc_mappings.AllToAll, "backward", "longctx.attention")

    # pipeline: the 1F1B op order the pipelined trainer asks for each step
    t.function(schedule_interleaved, "pipeline.schedule")

    # serving: scheduler rounds, prefill/decode, swaps, roofline pricing
    def on_refusal(error):
        if isinstance(error, KVAdmissionFull):
            counts["serving.admission_refusals"] += 1

    t.method(ContinuousBatchingScheduler, "submit", "serving.scheduler",
             errors=on_refusal)
    t.method(ContinuousBatchingScheduler, "step", "serving.scheduler")

    def on_prefill(args, kwargs):
        counts["serving.prefill_tokens"] += len(args[2])

    t.method(DecodeEngine, "prefill", "serving.prefill", before=on_prefill)
    original_decode = DecodeEngine.__dict__["decode"]

    @functools.wraps(original_decode)
    def traced_decode(self, request_ids, tokens):
        # prefill runs its prompt through decode one token at a time;
        # those calls belong to the prefill span
        if t.top() == "serving.prefill":
            return original_decode(self, request_ids, tokens)
        counts["serving.decode_tokens"] += len(request_ids)
        t.enter("serving.decode")
        try:
            return original_decode(self, request_ids, tokens)
        finally:
            t.exit()

    t.patch(DecodeEngine, "decode", traced_decode)
    t.method(DecodeEngine, "swap_out", "serving.swap")
    t.method(DecodeEngine, "swap_in", "serving.swap")
    for attr in ("decode_step_time", "prefill_time", "swap_time"):
        t.method(ServingPerfModel, attr, "serving.pricing")

    # kv_cache: page writes, context gathers, block bookkeeping
    t.method(PagedKVCache, "write", "kv_cache.write")
    t.method(PagedKVCache, "gather", "kv_cache.gather")
    for attr in ("add_request", "reserve_token", "free_request", "swap_out",
                 "swap_in"):
        t.method(PagedKVCache, attr, "kv_cache.manage")

    # allocator: first-fit block arena under the KV cache
    t.method(FirstFitAllocator, "alloc", "allocator.alloc")
    t.method(FirstFitAllocator, "free", "allocator.free")
    return t


class CollectiveObserver:
    """Counts collectives through the program's public trace hook
    (``repro.comm.collectives.install_trace_hook``)."""

    def __init__(self):
        self.calls = 0
        self.bytes = 0

    def __call__(self, op, shards):
        self.calls += 1
        self.bytes += _nbytes(shards)

    @contextmanager
    def installed(self):
        from repro.comm import collectives
        collectives.install_trace_hook(self)
        try:
            yield self
        finally:
            collectives.install_trace_hook(None)
