"""Context-parallel GPT: sequence-sharded layers over a ``"cp"`` group.

The model replicates every weight (loaded from a serial reference so
equivalence is checkable bitwise) and shards the *sequence* dimension of
all activations across the group:

* the embedding looks up the full sequence (token ids are replicated),
  then enters the context-parallel region with a local slice
  (:func:`~repro.parallel.mappings.scatter_split_sequence`) and applies
  the sequence-sharded embedding dropout;
* every transformer layer runs on ``(s/p, b, h)`` chunks, with the
  attention core seeing the full sequence via Ulysses all-to-alls or
  ring K/V hops (:mod:`repro.longctx.attention`);
* the head gathers the full sequence back
  (:func:`~repro.parallel.mappings.gather_with_slice_backward` — the
  loss region is replicated, so each rank's backward just takes its
  slice) and computes the serial loss.

Forward losses are **bitwise identical** to the serial model (every op
is an exact row-slice of the serial op); weight gradients are per-chunk
partial sums that :meth:`LongContextGPTModel.finish_grad_sync`
all-reduces over the group.
"""

from __future__ import annotations

import copy
from typing import List, Optional

import numpy as np

from ..comm import all_reduce
from ..comm.process_group import ProcessGroup
from ..config import ModelConfig
from ..errors import ConfigError
from ..fusion.ops import bias_gelu, dropout_add, softmax_cross_entropy
from ..layers.dropout import Dropout
from ..layers.layernorm import LayerNorm
from ..layers.module import Module
from ..layers.transformer import GPTModel, Recompute
from ..parallel.mappings import (
    gather_with_slice_backward,
    scatter_split_sequence,
)
from ..parallel.transformer import _harvest_serial_weights
from ..tensor import FP16, FP32, Tensor, checkpoint, parameter
from ..tensor import functions as F
from ..tensor.backend import AbstractArray
from ..tensor.functions import MaskSource
from .attention import ReplicatedLinear, RingSelfAttention, UlyssesSelfAttention

#: The two context-parallel attention layouts.
LAYOUTS = ("ulysses", "ring")


class LongContextEmbedding(Module):
    """Replicated lookup, then a local slice into the sequence region."""

    def __init__(self, vocab_size: int, hidden_size: int, max_seq_length: int,
                 group: ProcessGroup, hidden_dropout: float = 0.1,
                 serial_word: Optional[np.ndarray] = None,
                 serial_position: Optional[np.ndarray] = None,
                 abstract: bool = False,
                 mask_source: Optional[MaskSource] = None):
        self.group = group
        self.max_seq_length = max_seq_length
        world = group.size
        if abstract:
            word = [AbstractArray((vocab_size, hidden_size))
                    for _ in range(world)]
            position = [AbstractArray((max_seq_length, 1, hidden_size))
                        for _ in range(world)]
        else:
            word = [serial_word] * world
            position = [serial_position] * world
        self.word = parameter(word, dtype=FP16, name="embedding.word")
        self.position = parameter(position, dtype=FP16,
                                  name="embedding.position")
        self.dropout = Dropout(hidden_dropout, mode="sharded", shard_axis=0,
                               tag="embedding.dropout",
                               mask_source=mask_source)

    def forward(self, ids: Tensor) -> Tensor:
        emb = F.embedding(self.word, ids)
        position = self.position
        if ids.shape[0] < self.max_seq_length:
            position = F.slice_axis(position, 0, 0, ids.shape[0])
        emb = F.add(emb, position)
        emb = scatter_split_sequence(emb, self.group, axis=0)
        return self.dropout(emb)


class LongContextMLP(Module):
    """The serial MLP with replicated serial weights."""

    def __init__(self, hidden_size: int, world: int,
                 serial_weights: Optional[dict] = None, abstract: bool = False,
                 tag: str = "mlp", fused: bool = False):
        sw = serial_weights or {}
        self.fused = fused
        self.fc1 = ReplicatedLinear(hidden_size, 4 * hidden_size, world,
                                    weight=sw.get("w1"), bias=sw.get("b1"),
                                    abstract=abstract,
                                    category="mlp_fc1_input",
                                    name=f"{tag}.fc1")
        self.fc2 = ReplicatedLinear(4 * hidden_size, hidden_size, world,
                                    weight=sw.get("w2"), bias=sw.get("b2"),
                                    abstract=abstract,
                                    category="mlp_fc2_input",
                                    name=f"{tag}.fc2")

    def forward(self, x: Tensor) -> Tensor:
        if self.fused and self.fc1.bias is not None:
            h = self.fc1(x, skip_bias_add=True)
            return self.fc2(bias_gelu(h, self.fc1.bias))
        return self.fc2(F.gelu(self.fc1(x)))


class LongContextTransformerLayer(Module):
    """Pre-LN layer on sequence chunks; attention per the chosen layout."""

    def __init__(self, hidden_size: int, num_heads: int, group: ProcessGroup,
                 layout: str = "ulysses", attention_dropout: float = 0.1,
                 hidden_dropout: float = 0.1,
                 recompute: Recompute = Recompute.NONE,
                 serial_weights: Optional[dict] = None, abstract: bool = False,
                 tag: str = "layer",
                 mask_source: Optional[MaskSource] = None,
                 fused: bool = False):
        if layout not in LAYOUTS:
            raise ConfigError(f"unknown context layout {layout!r}")
        self.recompute = Recompute(recompute)
        self.tag = tag
        self.fused = fused
        world = group.size
        weights = serial_weights or {}
        self.ln1 = LayerNorm(hidden_size, abstract=abstract, world=world,
                             name=f"{tag}.ln1", fused=fused)
        attn_cls = (UlyssesSelfAttention if layout == "ulysses"
                    else RingSelfAttention)
        self.attn = attn_cls(
            hidden_size, num_heads, group,
            attention_dropout=attention_dropout,
            recompute_core=(self.recompute == Recompute.SELECTIVE),
            serial_weights=weights.get("attn"), abstract=abstract,
            tag=f"{tag}.attn", mask_source=mask_source, fused=fused)
        self.attn_dropout = Dropout(hidden_dropout, mode="sharded",
                                    shard_axis=0, tag=f"{tag}.attn_dropout",
                                    mask_source=mask_source)
        self.ln2 = LayerNorm(hidden_size, abstract=abstract, world=world,
                             name=f"{tag}.ln2", fused=fused)
        self.mlp = LongContextMLP(hidden_size, world,
                                  serial_weights=weights.get("mlp"),
                                  abstract=abstract, tag=f"{tag}.mlp",
                                  fused=fused)
        self.mlp_dropout = Dropout(hidden_dropout, mode="sharded",
                                   shard_axis=0, tag=f"{tag}.mlp_dropout",
                                   mask_source=mask_source)

    def _residual(self, out: Tensor, x: Tensor, dropout: Dropout) -> Tensor:
        if self.fused:
            if dropout.p == 0.0 and dropout.mask_source is None:
                return F.add(out, x)
            return dropout_add(out, x, dropout.p, mode=dropout.mode,
                               shard_axis=dropout.shard_axis, tag=dropout.tag,
                               mask_source=dropout.mask_source)
        return F.add(dropout(out), x)

    def _body(self, x: Tensor) -> Tensor:
        attn_out = self.attn(self.ln1(x))
        x = self._residual(attn_out, x, self.attn_dropout)
        mlp_out = self.mlp(self.ln2(x))
        return self._residual(mlp_out, x, self.mlp_dropout)

    def forward(self, x: Tensor) -> Tensor:
        if self.recompute in (Recompute.FULL, Recompute.FULL_SHARDED):
            # The layer input is already a 1/p sequence chunk, so FULL
            # and FULL_SHARDED coincide (as with sequence parallelism).
            return checkpoint(self._body, x, label=self.tag)
        return self._body(x)


class LongContextLMHead(Module):
    """The serial LM head with replicated serial weights."""

    def __init__(self, hidden_size: int, vocab_size: int, world: int,
                 serial_weight: Optional[np.ndarray] = None,
                 abstract: bool = False, fused: bool = False):
        self.fused = fused
        self.ln_f = LayerNorm(hidden_size, abstract=abstract, world=world,
                              name="head.ln_f", fused=fused)
        self.proj = ReplicatedLinear(hidden_size, vocab_size, world,
                                     weight=serial_weight, has_bias=False,
                                     abstract=abstract,
                                     category="lm_head_input",
                                     name="head.proj")

    def logits(self, x: Tensor) -> Tensor:
        return F.cast(self.proj(self.ln_f(x)), FP32)

    def forward(self, x: Tensor, targets: Tensor,
                loss_mask: Optional[Tensor] = None) -> Tensor:
        if self.fused:
            return softmax_cross_entropy(self.proj(self.ln_f(x)), targets,
                                         loss_mask=loss_mask)
        return F.cross_entropy(self.logits(x), targets, loss_mask=loss_mask)


class LongContextGPTModel(Module):
    """GPT under p-way context parallelism (Ulysses or ring attention).

    ``serial`` provides the reference weights (a fresh serial model is
    built from ``seed`` when omitted), making the forward loss bitwise
    comparable against :class:`~repro.layers.transformer.GPTModel`.
    """

    def __init__(self, config: ModelConfig, context_parallel: int,
                 layout: str = "ulysses", attention_dropout: float = 0.1,
                 hidden_dropout: float = 0.1,
                 recompute: Recompute = Recompute.NONE, seed: int = 0,
                 abstract: bool = False,
                 mask_source: Optional[MaskSource] = None,
                 serial: Optional[GPTModel] = None, fused: bool = False):
        p = context_parallel
        if layout not in LAYOUTS:
            raise ConfigError(f"unknown context layout {layout!r}")
        if config.seq_length % p != 0:
            raise ConfigError(
                f"seq_length ({config.seq_length}) must be divisible by the "
                f"context-parallel size ({p})")
        if layout == "ulysses" and config.num_heads % p != 0:
            raise ConfigError(
                f"Ulysses needs num_heads ({config.num_heads}) divisible by "
                f"the context-parallel size ({p})")
        self.config = config
        self.layout = layout
        self.group = ProcessGroup(p, scope="cp")
        self.recompute = Recompute(recompute)
        self.fused = fused

        weights = None
        if not abstract:
            if serial is None:
                serial = GPTModel(config,
                                  attention_dropout=attention_dropout,
                                  hidden_dropout=hidden_dropout, seed=seed,
                                  mask_source=mask_source)
            # One private copy, shared by every rank: training must move
            # neither the serial model nor a buffer once per rank.
            weights = copy.deepcopy(_harvest_serial_weights(serial))

        self.embedding = LongContextEmbedding(
            config.vocab_size, config.hidden_size, config.seq_length,
            self.group, hidden_dropout=hidden_dropout,
            serial_word=None if abstract else weights["word"],
            serial_position=None if abstract else weights["position"],
            abstract=abstract, mask_source=mask_source)
        self.layers: List[LongContextTransformerLayer] = [
            LongContextTransformerLayer(
                config.hidden_size, config.num_heads, self.group,
                layout=layout, attention_dropout=attention_dropout,
                hidden_dropout=hidden_dropout, recompute=self.recompute,
                serial_weights=None if abstract else weights["layers"][i],
                abstract=abstract, tag=f"layer{i}", mask_source=mask_source,
                fused=fused)
            for i in range(config.num_layers)
        ]
        self.head = LongContextLMHead(
            config.hidden_size, config.vocab_size, p,
            serial_weight=None if abstract else weights["head"],
            abstract=abstract, fused=fused)

    def hidden_states(self, ids: Tensor) -> Tensor:
        x = self.embedding(ids)
        for layer in self.layers:
            x = layer(x)
        return x

    def logits(self, ids: Tensor) -> Tensor:
        full = gather_with_slice_backward(self.hidden_states(ids), self.group,
                                          axis=0)
        return self.head.logits(full)

    def forward(self, ids: Tensor, targets: Tensor,
                loss_mask: Optional[Tensor] = None) -> Tensor:
        full = gather_with_slice_backward(self.hidden_states(ids), self.group,
                                          axis=0)
        return self.head(full, targets, loss_mask=loss_mask)

    def finish_grad_sync(self) -> None:
        """All-reduce the per-sequence-chunk partial weight gradients.

        Every layer parameter sees only ``1/p`` of the sequence, so its
        gradient is a partial sum.  Embedding and head gradients are
        already replicated (the scatter's backward all-gather and the
        gather's replicated loss region make every rank's copy
        identical) and must *not* be reduced again.
        """
        if self.group.size == 1:
            return
        for layer in self.layers:
            for p in layer.parameters():
                if p.grad is not None:
                    p.grad = all_reduce(p.grad)
