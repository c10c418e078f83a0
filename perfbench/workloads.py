"""The three benchmark workloads, each built from a seed.

A workload owns its model and inputs and exposes:

* ``unit()`` — one timed work unit (a train step or a scheduler round);
  a timed window holds at least ``MIN_UNITS`` of them, which fixes the
  tail percentile it can report;
* ``before_unit(i)`` / ``after_unit(i, out)`` — untimed bookkeeping around
  unit ``i`` (weight snapshots for the sampled reference checks, taken
  at fixed unit indices so the memory they hold does not grow with the
  number of units a run gets through);
* ``verify()`` — output checks after the timed window; returns the number
  of failed work units;
* ``deterministic()`` — ``peak_device_bytes`` and the simulated-clock
  metrics, which depend only on shapes and fixed inputs, never on the
  seed or the host;
* ``start_window()`` / ``window_tokens(units)`` — tokens trained or
  generated by the timed units;
* ``layer_state()`` / ``bubble_share()`` — counters and the simulated
  pipeline bubble the traced run reads.

The seed only chooses inputs (token batches, request mixes); weights and
dropout masks are fixed, so every seed trains the same model.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from collections import deque
from dataclasses import replace

import numpy as np

from repro.config import ModelConfig
from repro.inference import generate
from repro.layers import GPTModel, Recompute, token_tensor
from repro.longctx import LongContextGPTModel
from repro.observability import Tracer, trace_scope
from repro.observability.analysis import attribute, from_tracer
from repro.parallel import ParallelGPTModel
from repro.serving import (ContinuousBatchingScheduler, DecodeEngine,
                           KVAdmissionFull, PagedKVCache, ServingPerfModel,
                           generate_requests)
from repro.tensor import MemoryTracker, instrument, no_grad
from repro.tensor.functions import MaskSource
from repro.training import (Adam, PipelinedGPT, UniformTokens,
                            split_microbatches)

#: L=4, h=128, 4 heads, s=64, vocab 64 (b=8 -> 512 tokens per step)
TRAIN_CFG = ModelConfig(name="bench", num_layers=4, hidden_size=128,
                        num_heads=4, seq_length=64, vocab_size=64)
#: the long-context shape: L=2, s=256 (b=2 -> the same 512 tokens per step)
LONG_CFG = ModelConfig(name="bench-long", num_layers=2, hidden_size=128,
                       num_heads=4, seq_length=256, vocab_size=64)
WEIGHT_SEED = 0
MASKS = MaskSource(seed=11, keep_prob=0.9)
#: every CHECK_EVERY-th of a workload's first MIN_UNITS train steps is
#: re-run on the serial reference
CHECK_EVERY = 8


def serial_weights(model) -> dict:
    """The serial ``GPTModel`` weights a (TP / CP) model currently holds.

    Sharded parameters are concatenated along their shard axis; replicated
    ones must agree bitwise on every rank.  TP's fused QKV projection is
    split back into per-rank ``[q_r | k_r | v_r]`` blocks.
    """
    out = {}
    world = getattr(getattr(model, "group", None), "size", 1)
    for name, param in model.named_parameters():
        shards = [np.asarray(s) for s in param.shards]
        if param.layout.startswith("shard(dim="):
            axis = int(param.layout[len("shard(dim="):-1])
            full = np.concatenate(shards, axis=axis)
        else:
            for other in shards[1:]:
                if not np.array_equal(other, shards[0]):
                    raise ValueError(f"replicated {name} differs by rank")
            full = shards[0]
        if ".attn.qkv." in name:
            parts = [np.split(block, 3, axis=-1)
                     for block in np.split(full, world, axis=-1)]
            for i, proj in enumerate(("wq", "wk", "wv")):
                key = name.replace(".qkv.", f".{proj}.")
                out[key] = np.concatenate([p[i] for p in parts], axis=-1)
        else:
            out[name] = full.copy()
    return out


class TrainWorkload:
    """Closed-loop training: one unit is one optimizer step."""

    cfg = TRAIN_CFG
    batch = 8
    microbatches = 1
    loss_tolerance = 0.0

    def __init__(self, seed: int):
        self.data = UniformTokens(self.cfg.vocab_size, self.cfg.seq_length,
                                  seed=seed)
        self.tokens_per_unit = self.batch * self.cfg.seq_length
        self.tracker = MemoryTracker()
        self.peak = 0
        self.failed = set()
        self.samples = []          # (unit, weights, ids, targets, loss)
        self._snapshot = None
        self._last_batch = None
        self.build()

    # -- subclass hooks ------------------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def step(self, ids, targets) -> float:
        raise NotImplementedError

    # -- the unit ------------------------------------------------------------
    def unit(self):
        ids, targets = self.data.batch(self.batch)
        self._last_batch = (ids, targets)
        return self.step(ids, targets)

    def warmup(self) -> None:
        self.unit()

    def before_unit(self, i: int) -> None:
        self._snapshot = None
        if 0 <= i < self.MIN_UNITS and i % CHECK_EVERY == 0:
            try:
                self._snapshot = serial_weights(self.model)
            except ValueError as error:
                print(f"{self.name}: step {i}: {error}", file=sys.stderr)
                self.failed.add(i)

    def after_unit(self, i: int, loss) -> None:
        if loss is None or not math.isfinite(loss):
            self.failed.add(i)
        elif self._snapshot is not None:
            ids, targets = self._last_batch
            self.samples.append((i, self._snapshot, ids, targets, loss))
        self._snapshot = None

    def verify(self) -> int:
        """Each sampled step's loss must equal the loss a serial
        ``GPTModel`` with the same weights, batch, dropout masks and
        fusion setting computes: bitwise, or within ``loss_tolerance``
        where the repo's layout-equivalence tests allow one.

        The reference fuses when the workload does: the fused kernels
        are not always order-identical to the unfused chain (a 1-ulp
        loss difference shows on some trained weights), and that is a
        property of the fusion layer, not of the parallel layout
        checked here.
        """
        reference = GPTModel(self.cfg, seed=WEIGHT_SEED, mask_source=MASKS,
                             fused=self.model.fused)
        params = dict(reference.named_parameters())
        for i, weights, ids, targets, loss in self.samples:
            for name, value in weights.items():
                params[name].shards[0][...] = value
            total = 0.0
            with no_grad():
                for mb_ids, mb_targets in split_microbatches(
                        ids, targets, self.microbatches):
                    total += reference(token_tensor(mb_ids),
                                       token_tensor(mb_targets)).item()
            if abs(total / self.microbatches - loss) > self.loss_tolerance:
                print(f"{self.name}: step {i} loss {loss!r} != serial "
                      f"reference {total / self.microbatches!r}",
                      file=sys.stderr)
                self.failed.add(i)
        return len(self.failed)

    @property
    def attempted_extra(self) -> int:
        return 0

    def start_window(self) -> None:
        pass

    def window_tokens(self, units: int) -> int:
        return units * self.tokens_per_unit

    def simulated_step(self) -> Tracer:
        """One step on the simulated A100 clock, outside the timed window."""
        tracer = Tracer()
        with trace_scope(tracer):
            self.unit()
        return tracer

    def deterministic(self) -> dict:
        step_s = self.simulated_step().clock_s
        return {"peak_device_bytes": self.peak,
                "sim_tokens_per_s": self.tokens_per_unit / step_s,
                # every token of a step completes when the step does, so
                # for training this restates sim_tokens_per_s
                "sim_token_ms_p95": step_s * 1e3}

    def layer_state(self) -> dict:
        """Workload counters read before and after the traced window."""
        return {"preemptions": 0, "resumes": 0, "peak_occupancy": 0.0,
                "fragmentation": 0.0}

    def bubble_share(self) -> float:
        """Idle share of the rank walls in one simulated step: the
        ``pipeline_bubble`` bucket of the program's own time attribution."""
        attribution = attribute(from_tracer(self.simulated_step()))
        return (attribution.totals["pipeline_bubble"]
                / (attribution.wall * len(attribution.ranks)))

    def _tracked_peak(self) -> int:
        return max(self.tracker.peak_bytes(r) for r in range(self.world))


class TrainTP2PP2(TrainWorkload):
    """TP=2 + SP, PP=2 with 4 microbatches, selective recompute, fused."""

    name = "train_tp2pp2"
    MIN_UNITS = 40
    microbatches = 4
    #: row-parallel partial sums reorder float additions, so TP matches
    #: the serial loss to 1e-9 (tests/test_parallel_equivalence.py), not
    #: bitwise
    loss_tolerance = 1e-9
    pipeline = 2
    world = 2

    def build(self) -> None:
        self.model = ParallelGPTModel(
            self.cfg, tensor_parallel=2, sequence_parallel=True,
            recompute=Recompute.SELECTIVE, seed=WEIGHT_SEED,
            mask_source=MASKS, fused=True)
        self.pipe = PipelinedGPT(self.model, pipeline_parallel=self.pipeline)
        self.optimizer = Adam(self.model.parameters(), lr=1e-3)

    def step(self, ids, targets) -> float:
        self.optimizer.zero_grad()
        result = self.pipe.train_step(ids, targets, self.microbatches)
        self.optimizer.step()
        self.peak = max(self.peak, *result.peak_stage_bytes)
        return result.loss


class TrainCP4Ring(TrainWorkload):
    """Ring-attention context parallelism, CP=4, selective recompute, fused.

    ``Trainer`` only syncs ``ParallelGPTModel`` gradients, so the step is
    spelled out here with the model's own ``finish_grad_sync``.
    """

    name = "train_cp4_ring"
    MIN_UNITS = 40
    cfg = LONG_CFG
    batch = 2
    world = 4

    def build(self) -> None:
        self.model = LongContextGPTModel(
            self.cfg, context_parallel=self.world, layout="ring",
            recompute=Recompute.SELECTIVE, seed=WEIGHT_SEED,
            mask_source=MASKS, fused=True)
        self.optimizer = Adam(self.model.parameters(), lr=1e-3)

    def step(self, ids, targets) -> float:
        self.optimizer.zero_grad()
        with instrument(memory=self.tracker):
            loss = self.model(token_tensor(ids, world=self.world),
                              token_tensor(targets, world=self.world))
            loss.backward()
        self.model.finish_grad_sync()
        self.optimizer.step()
        self.peak = self._tracked_peak()
        return loss.item()


class ServeTP2:
    """Continuous batching over a TP=2 model on a paged KV cache.

    On the host the scheduler is driven as a closed loop: ``CLIENTS``
    clients each keep one request outstanding and send the next as soon
    as the previous completes.  One unit is one scheduler round: offer
    the oldest waiting request for admission (at most one prefill per
    round, so a round's cost does not hinge on how many requests happen
    to finish together), then decode every resident request by one token.
    """

    name = "serve_tp2"
    MIN_UNITS = 1000
    cfg = TRAIN_CFG
    world = 2
    CLIENTS = 16
    BLOCK_SIZE = 4
    NUM_BLOCKS = 32
    MAX_BATCH = 8
    PROMPTS = (1, 8)
    NEW_TOKENS = (2, 40)
    #: the fixed open-loop request set priced on the simulated clock
    SIM_REQUESTS = 64
    SIM_SEED = 0
    CHECK_STREAMS = 3
    WARMUP_ROUNDS = 48
    DRAIN_ROUNDS = 10_000
    #: warm-up requests come from a fixed stream, so set-up time does not
    #: depend on the run's seed; the timed window draws from the seed
    WARMUP_SEED = 99991

    def __init__(self, seed: int):
        self.seed = seed
        serial = GPTModel(self.cfg, seed=WEIGHT_SEED, attention_dropout=0.0,
                          hidden_dropout=0.0)
        self.model = ParallelGPTModel(self.cfg, tensor_parallel=self.world,
                                      attention_dropout=0.0,
                                      hidden_dropout=0.0, serial=serial)
        self.scheduler = self._scheduler(seed)
        self._issued = 0
        self._stream = self._stream_of(self.WARMUP_SEED)
        self.waiting = deque(self._next_spec() for _ in range(self.CLIENTS))
        self.completed = []
        self.sending = True
        self.failed = 0
        self._counted_from = 0

    def _scheduler(self, seed: int) -> ContinuousBatchingScheduler:
        cache = PagedKVCache(self.cfg, tensor_parallel=self.world,
                             block_size=self.BLOCK_SIZE,
                             num_blocks=self.NUM_BLOCKS)
        return ContinuousBatchingScheduler(
            DecodeEngine(self.model, cache),
            ServingPerfModel(self.cfg, tensor_parallel=self.world),
            policy="swap", max_batch=self.MAX_BATCH, seed=seed)

    def _requests(self, count: int, seed: int):
        return generate_requests(self.cfg, count, seed=seed,
                                 arrival_rate=5000.0,
                                 prompt_lengths=self.PROMPTS,
                                 new_tokens=self.NEW_TOKENS)

    def _stream_of(self, seed: int):
        """Endless client request stream drawn from ``seed``."""
        chunk = 0
        while True:
            yield from self._requests(256, seed * 100003 + chunk)
            chunk += 1

    def _next_spec(self):
        index = self._issued
        self._issued += 1
        return replace(next(self._stream), index=index,
                       request_id=f"req{index}")

    # -- the unit ------------------------------------------------------------
    def unit(self) -> int:
        scheduler = self.scheduler
        if self.waiting:
            try:
                scheduler.submit(self.waiting[0])
                self.waiting.popleft()
            except KVAdmissionFull:
                pass
        finished = scheduler.step()
        for state in finished:
            self.completed.append(state)
            if self.sending:
                self.waiting.append(self._next_spec())
        return len(finished)

    def warmup(self) -> None:
        # a fixed round count: a seed-dependent stopping rule would make
        # set-up time depend on the request mix
        for _ in range(self.WARMUP_ROUNDS):
            self.unit()

    def before_unit(self, i: int) -> None:
        pass

    def after_unit(self, i: int, out) -> None:
        if out is None:
            self.failed += 1

    def generated(self) -> int:
        resident = self.scheduler.resident_requests()
        return (sum(len(s.tokens) for s in self.completed)
                + sum(len(s.tokens) for s, _ in resident))

    def start_window(self) -> None:
        self._stream = self._stream_of(self.seed)
        self._counted_from = len(self.completed)
        self._window_start_tokens = self.generated()

    def window_tokens(self, units: int) -> int:
        return self.generated() - self._window_start_tokens

    def verify(self) -> int:
        """Drain every request already sent, then check each completed
        request's length and a seeded sample of token streams against
        the uncached ``generate``."""
        self.sending = False               # clients send nothing new
        failed = self.failed
        for _ in range(self.DRAIN_ROUNDS):
            if not (self.waiting or self.scheduler.num_resident):
                break
            try:
                self.unit()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                break
        failed += len(self.waiting) + self.scheduler.num_resident
        checked = self.completed[self._counted_from:]
        self.requests_checked = len(checked)
        for state in checked:
            if len(state.tokens) != state.spec.max_new_tokens:
                failed += 1
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(checked), size=min(self.CHECK_STREAMS,
                                                  len(checked)),
                           replace=False)
        for k in picks:
            state = checked[int(k)]
            prompt = state.spec.prompt
            out = generate(self.model, prompt[:, None],
                           state.spec.max_new_tokens)
            if not np.array_equal(np.asarray(out)[len(prompt):, 0],
                                  np.asarray(state.tokens)):
                failed += 1
        return failed

    @property
    def attempted_extra(self) -> int:
        return self.requests_checked

    def deterministic(self) -> dict:
        """The fixed open-loop request set on the simulated clock."""
        scheduler = self._scheduler(self.SIM_SEED)
        report = scheduler.run(self._requests(self.SIM_REQUESTS,
                                              self.SIM_SEED))
        cache = scheduler.engine.cache
        if report.completed != self.SIM_REQUESTS or report.kv_drift_bytes:
            raise RuntimeError("reference serving run did not complete "
                               "cleanly")
        return {"peak_device_bytes": max(cache.tracker.peak_bytes(r)
                                         for r in range(self.world)),
                "sim_tokens_per_s": report.tokens_per_s,
                "sim_token_ms_p95": report.p95_token_latency_s * 1e3}

    def bubble_share(self) -> float:
        return 0.0

    def layer_state(self) -> dict:
        cache = self.scheduler.engine.cache
        return {"preemptions": self.scheduler.preemptions,
                "resumes": self.scheduler.resumes,
                "peak_occupancy": cache.peak_blocks_in_use / cache.num_blocks,
                "fragmentation": cache.arena.stats.fragmentation}


WORKLOADS = {cls.name: cls for cls in (TrainTP2PP2, TrainCP4Ring,
                                        ServeTP2)}


def make_workload(name: str, seed: int):
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed)


def run_unit(workload, i: int) -> float:
    """Run unit ``i`` and return its seconds; a unit that raises reaches
    ``after_unit`` with output ``None`` and counts as failed."""
    workload.before_unit(i)
    t0 = time.perf_counter()
    try:
        out = workload.unit()
    except Exception:
        out = None
        traceback.print_exc(file=sys.stderr)
    seconds = time.perf_counter() - t0
    workload.after_unit(i, out)
    return seconds
