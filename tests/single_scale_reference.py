"""Independently coded single-scale (kernel-3) baseline forward pass.

Recodes the block and stage composition from scratch against the same
primitives, reading parameters from a built model. A kernels=(3,) model
must match this baseline bit for bit; any drift in the production block
wiring shows up as a nonzero diff.
"""

import numpy as np

from msast import numerics as nx
from msast.attention import WindowSpec, sliding_window_attention, window_schedule
from msast.model import Model
from msast.numerics import no_grad


def _single_scale_block(x, enc_out, blk, layer, alpha, causal):
    br = blk.branches[0]
    h = nx.relu(nx.dilated_conv1d(x, br.conv_w, br.conv_b, 2 ** (layer - 1), causal))
    n = h if causal else nx.temporal_norm(h, blk.norm_gain, blk.norm_bias)
    qk_src = n if enc_out is None else nx.concat_channels(n, enc_out)
    q = nx.matmul(qk_src, br.wq)
    k = nx.matmul(qk_src, br.wk)
    v = nx.matmul(n, br.wv)
    spec = WindowSpec(window_size=window_schedule(3, layer), causal=causal,
                      kernel_size=3, layer_index=layer)
    # the kernel's output at a unit weight is the attention output itself
    attn = sliding_window_attention(q, k, v, spec, nx.as_tensor(np.ones((), x.data.dtype)))
    term = nx.mul(br.mix, attn)
    if alpha != 1.0:
        term = nx.scale(term, alpha)
    fused = nx.add(h, term)
    proj = nx.add(nx.matmul(fused, blk.out_w), blk.out_b)
    return nx.add(x, proj)


def single_scale_forward(model: Model, features: np.ndarray) -> list[np.ndarray]:
    """Inference pass of a kernels=(3,) model, stage logits as arrays."""
    assert model.cfg.kernels == (3,), "baseline only covers the single-scale configuration"
    cfg = model.cfg
    with no_grad():
        x = nx.as_tensor(features.astype(model.dtype, copy=False))
        h = nx.add(nx.matmul(x, model.encoder.in_w), model.encoder.in_b)
        for layer in range(1, cfg.layers_per_stage + 1):
            h = _single_scale_block(h, None, model.encoder.blocks[layer - 1], layer, 1.0, cfg.causal)
        enc_hidden = h
        logits = nx.add(nx.matmul(h, model.encoder.head_w), model.encoder.head_b)
        stages = [logits.data]
        for d, dec in enumerate(model.decoders, start=1):
            alpha = float(cfg.alpha_base) ** (-(d - 1))
            inp = nx.softmax_rows(nx.as_tensor(stages[-1]))
            h = nx.add(nx.matmul(inp, dec.in_w), dec.in_b)
            for layer in range(1, cfg.layers_per_stage + 1):
                h = _single_scale_block(h, enc_hidden, dec.blocks[layer - 1], layer, alpha, cfg.causal)
            logits = nx.add(nx.matmul(h, dec.head_w), dec.head_b)
            stages.append(logits.data)
    return stages
