"""Forward-only mask-estimation network.

The network is built from stateful per-frame layers and always runs frame
by frame, so batch processing, prefix truncation, and stateful streaming
are the same code path and agree bit-exactly. Everything is causal: no
layer reads input frames beyond the current one.

State per stream is bounded by the attention lookback: with
`chunk_lookback_seconds` set, each conformer layer keeps its keys and values
in a ring of exactly that many frames, so memory and cost per frame stay
flat however long the stream runs. Without a lookback, attention spans the
whole stream and its cache grows with it.

Stage order per frame:
    features (stacked re/im, LPS, IPD) -> three 2-conv encoders -> 1x1 merge
    -> N x (full-band recurrence -> TAC -> sub-band conformer)
    -> causal deconvolution back to Z channels -> two sigmoid mask heads.

The TAC runs on frames 0, 2, 4, ... only (`ModelConfig.time_skip`); the
other frames pass it unchanged.

The network computes in float32, straight off the weight container's arrays;
only the conv kernels and attention's projections are re-laid out, once.
The features become float32 once, in the encoder's conv windows; the STFT,
the features and the MVDR stay float64/complex128.

The sigmoid gates (swish, the GLU, the LSTM and the mask heads) are computed
as 1/2 + tanh(x/2)/2 with np.tanh rather than with scipy's `expit`, so that
importing the network loads no scipy module: `scipy.special` alone was about
two thirds of the separation path's start-up.

Every stage keeps a frame as (channels, bins), bins innermost, the sub-band
conformer included: its projections left-multiply by the weights, and its
layer norm, GLU, swish and residuals run their inner loops over 257
contiguous bins rather than over a width of 16. Per frame, numpy's fixed
cost per call outweighs the arithmetic of most layers, so the frame path
keeps its passes few: layer norm takes both of its means as products with a
row of 1/width, the 3-tap depthwise conv is one contraction, each conv's
patch view is built once, and attention's softmax is normalised after the
context sum, on the (head_dim, heads x bins) context rather than on the
(frames, heads x bins) weights.

Attention keeps each cached frame as a (head_dim, heads x bins) block, so
both of its contractions run their inner loops over 1028 contiguous floats
per row at 257 bins, not over the few dozen cached frames of one (bin, head,
dim). The query, key and value projections are reordered once, when a layer
is built, so that they produce that layout directly.

The softmax is not shifted, neither by each row's max, which would be one
more reduction over the (frames, heads x bins) scores, nor by a constant. A
score is q.k scaled, with q and k projections of a layer-norm output whose
norm is at most sqrt(width), so when a layer is built its weights bound every
score by some B, and every exp argument lies in [-B, B]. A container whose B
exceeds 40, past which exp could overflow, is refused with InvalidConfig.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import features
from ..errors import InvalidConfig, InvalidInput
from .config import ModelConfig
from .weights import ModelWeights

_LN_EPS = 1e-5
# the largest score bound: exp arguments lie in [-B, B], float32 exp leaves
# its normal range past +-87, and a row sum of exp(40) terms has e^48 to spare
_MAX_BOUND = 40.0


@dataclass
class MaskPair:
    """Speech and noise masks, each (zones, frames, bins) in [0, 1]."""

    speech: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        if self.speech.shape != self.noise.shape:
            raise InvalidInput("speech and noise masks must have equal shapes")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.speech.shape


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # the exact identity sigmoid(x) = 1/2 + tanh(x/2)/2: no branch, no overflow
    # for any finite x, and the result stays in [0, 1]
    out = np.tanh(0.5 * x)
    out *= 0.5
    out += 0.5
    return out


def _swish(x: np.ndarray) -> np.ndarray:
    return x * _sigmoid(x)


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    # over each column of (width, bins), both means as products with a row:
    # numpy's reduction over the short width axis costs more than the arithmetic
    mean = np.full(x.shape[0], 1.0 / x.shape[0], np.float32)
    centred = x - mean @ x
    var = mean @ (centred * centred)  # as np.var computes it
    centred /= np.sqrt(var + _LN_EPS)
    centred *= gain[:, None]
    centred += bias[:, None]
    return centred


class _CausalConv2d:
    """3x3 convolution over (time, freq): 2 past time taps, same-padded freq."""

    def __init__(self, w: np.ndarray, b: np.ndarray, n_bins: int):
        out_ch, in_ch, kt, kf = w.shape
        self.pad = kf // 2
        self.n_bins = n_bins
        # (out, in, kt, kf) -> (out, kt*kf*in) matching the patch layout below
        self.w_mat = np.ascontiguousarray(w.transpose(0, 2, 3, 1).reshape(out_ch, -1))
        self.b = b[:, None]
        # the last kt frames, zero-padded in frequency; zeros before the stream
        self.window = np.zeros((kt, in_ch, n_bins + 2 * self.pad), np.float32)
        # (kt, in, F, kf) -> (kt, kf, in, F); a view, so it follows `window`
        self.patches = sliding_window_view(self.window, kf, axis=-1).transpose(0, 3, 1, 2)

    def step(self, frame: np.ndarray) -> np.ndarray:
        self.window[:-1] = self.window[1:]
        self.window[-1, :, self.pad : self.pad + self.n_bins] = frame
        return self.w_mat @ self.patches.reshape(-1, self.n_bins) + self.b


class _LstmCell:
    def __init__(self, w_ih, w_hh, b_ih, b_hh):
        self.w_ih, self.w_hh = w_ih, w_hh
        self.b = b_ih + b_hh
        hidden = w_hh.shape[1]
        self.h = np.zeros(hidden, np.float32)
        self.c = np.zeros(hidden, np.float32)
        self.hidden = hidden

    def step(self, x: np.ndarray) -> np.ndarray:
        gates = self.w_ih @ x + self.w_hh @ self.h + self.b
        n = self.hidden
        # one call over all 4n gates: per call, np.tanh costs more than the
        # arithmetic of n elements; the g quarter's sigmoid goes unused
        sig = _sigmoid(gates)
        i, f, o = sig[:n], sig[n : 2 * n], sig[3 * n :]
        g = np.tanh(gates[2 * n : 3 * n])
        self.c = f * self.c + i * g
        self.h = o * np.tanh(self.c)
        return self.h


class _FullBand:
    """Per-frame recurrence over the flattened (C, F) feature, residual added."""

    def __init__(self, weights: ModelWeights, prefix: str):
        self.w_in = weights[f"{prefix}.in_proj.w"]
        self.b_in = weights[f"{prefix}.in_proj.b"]
        self.lstm = _LstmCell(
            weights[f"{prefix}.lstm.w_ih"], weights[f"{prefix}.lstm.w_hh"],
            weights[f"{prefix}.lstm.b_ih"], weights[f"{prefix}.lstm.b_hh"],
        )
        self.w_out = weights[f"{prefix}.out_proj.w"]
        self.b_out = weights[f"{prefix}.out_proj.b"]

    def step(self, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1)
        h = self.lstm.step(self.w_in @ flat + self.b_in)
        return x + (self.w_out @ h + self.b_out).reshape(x.shape)


class _Tac:
    """Channel compress / average / concatenate / restore, pointwise in (t, f)."""

    def __init__(self, weights: ModelWeights, prefix: str):
        self.wa = weights[f"{prefix}.linear_a.w"]
        self.ba = weights[f"{prefix}.linear_a.b"][:, None]
        self.wb = weights[f"{prefix}.linear_b.w"]
        self.bb = weights[f"{prefix}.linear_b.b"][:, None]
        self.wc = weights[f"{prefix}.linear_c.w"]
        self.bc = weights[f"{prefix}.linear_c.b"][:, None]

    def step(self, x: np.ndarray) -> np.ndarray:
        a = np.maximum(self.wa @ x + self.ba, 0.0)
        b = np.maximum(self.wb @ x + self.bb, 0.0)
        pooled = np.broadcast_to(b.mean(axis=0, keepdims=True), a.shape)
        cat = np.concatenate([a, pooled], axis=0)
        return self.wc @ cat + self.bc


class _KvCache:
    """Keys or values of past frames as (slots, head_dim, heads * bins).

    A frame is one contiguous slot, and each of its head_dim rows holds the
    heads x bins positions side by side, so attention's two contractions run
    their inner loops over rows of heads * bins floats (1028 at 257 bins)
    rather than over a few dozen slots per (bin, head, dim). With a lookback
    of L frames the buffer is a ring of exactly L slots: frame n goes to slot
    n % L and the ring is read unrotated. Attention has no positional term,
    so only the summation order differs from chronological order. Without a
    lookback the buffer grows along the slot axis by 1.25x and the attended
    frames are a contiguous prefix. A grow copies only the filled slots and
    no slot is written before its frame arrives, so the spare quarter is
    address space that need not be resident; each frame is copied four to
    five times over a stream's life, while attention reads it at every later
    frame.
    """

    def __init__(self, head_dim: int, width: int, lookback: int | None):
        slots = 16 if lookback is None else lookback
        self.buf = np.zeros((slots, head_dim, width), np.float32)
        self.n = 0
        self.lookback = lookback

    def append(self, frame: np.ndarray) -> None:
        slots = self.buf.shape[0]
        if self.lookback is None and self.n == slots:
            grown = np.zeros((slots + slots // 4,) + self.buf.shape[1:], np.float32)
            grown[:slots] = self.buf
            self.buf = grown
        self.buf[self.n % self.buf.shape[0]] = frame
        self.n += 1

    def view(self) -> np.ndarray:
        """The attended frames, (min(n, slots), head_dim, heads * bins)."""
        return self.buf[: self.n]


def _score_bound(ln_g, ln_b, wq, bq, wk, bk, heads: int) -> np.ndarray:
    """Per-head bound on |q.k| over every input, (heads,) float64.

    The layer-norm output has norm <= sqrt(width) before its gain and bias,
    and a head's projection grows a norm by at most its spectral norm.
    """
    width = ln_g.size
    u = np.abs(ln_g).max() * np.sqrt(width) + np.linalg.norm(ln_b)
    w = np.stack([wq, wk]).astype(np.float64).reshape(2, heads, -1, width)
    b = np.stack([bq, bk]).reshape(2, heads, -1)
    q, k = np.linalg.norm(w, 2, axis=(2, 3)) * u + np.linalg.norm(b, axis=2)
    return q * k


class _ConformerLayer:
    """Causal conformer block on per-bin sequences of (width, bins) frames."""

    def __init__(self, weights: ModelWeights, prefix: str, cfg: ModelConfig):
        get = lambda leaf: weights[f"{prefix}.{leaf}"]
        col = lambda leaf: get(leaf)[:, None]
        self.ln = {name: (get(f"{name}.g"), get(f"{name}.b"))
                   for name in ("ln_ff1", "ln_att", "ln_conv", "ln_ff2", "ln_out")}
        self.ff1 = (get("ff1.w1"), col("ff1.b1"), get("ff1.w2"), col("ff1.b2"))
        self.ff2 = (get("ff2.w1"), col("ff2.b1"), get("ff2.w2"), col("ff2.b2"))
        self.wq, self.bq = get("att.wq"), get("att.bq")
        self.wk, self.bk = get("att.wk"), get("att.bk")
        self.wv, self.bv = get("att.wv"), get("att.bv")
        self.wo, self.bo = get("att.wo"), col("att.bo")
        self.pw1 = (get("conv.pw1.w"), col("conv.pw1.b"))
        self.dw = (get("conv.dw.w"), col("conv.dw.b"))
        self.pw2 = (get("conv.pw2.w"), col("conv.pw2.b"))

        self.heads = cfg.attn_heads
        self.head_dim = cfg.subband_hidden // cfg.attn_heads
        # float32: under NEP 50 a float64 scalar would make the scaling float64
        self.scale = np.float32(1.0 / np.sqrt(self.head_dim))
        # the margins keep float32 rounding from pushing a score past the bound
        bound = _score_bound(*self.ln["ln_att"], self.wq, self.bq, self.wk, self.bk,
                             self.heads) * self.scale * (1 + 1e-3) + 1e-3
        if not bound.max() <= _MAX_BOUND:
            raise InvalidConfig(
                f"{prefix}.att: the weights bound the attention scores only by "
                f"{bound.max():.4g}; past {_MAX_BOUND:g} the unshifted softmax "
                f"could overflow float32")
        # q, k and v come out as (head_dim, heads * bins), the cache's row
        # layout: the projections' rows are reordered from (head, dim) to
        # (dim, head), stacked, and the query's carry the scale
        order = np.arange(cfg.subband_hidden).reshape(self.heads, self.head_dim).T.ravel()
        self.w_qkv = np.concatenate([self.wq[order] * self.scale, self.wk[order],
                                     self.wv[order]])
        self.b_qkv = np.concatenate([self.bq[order] * self.scale, self.bk[order],
                                     self.bv[order]])[:, None]
        self.wo_ctx = self.wo[:, order]
        width = self.heads * cfg.bins
        self.k_cache = _KvCache(self.head_dim, width, cfg.lookback_frames)
        self.v_cache = _KvCache(self.head_dim, width, cfg.lookback_frames)
        # the last kt GLU outputs, oldest first; zeros before the stream
        self.conv_window = np.zeros((self.dw[0].shape[1], cfg.subband_hidden, cfg.bins),
                                    np.float32)

    def _ff(self, x, params):
        w1, b1, w2, b2 = params
        return w2 @ _swish(w1 @ x + b1) + b2

    def _attend(self, x: np.ndarray) -> np.ndarray:
        u = _layer_norm(x, *self.ln["ln_att"])
        qkv = self.w_qkv @ u + self.b_qkv  # (3 H, F)
        q, k, v = qkv.reshape(3, self.head_dim, -1)  # each (dh, heads * F)
        self.k_cache.append(k)
        self.v_cache.append(v)
        keys = self.k_cache.view()      # (S, dh, heads * F)
        values = self.v_cache.view()
        # the softmax division acts on the (dh, heads * F) context, which is
        # smaller than the (S, heads * F) weights; in place, because fresh
        # temporaries cost more here than the arithmetic
        scores = np.einsum("dn,sdn->sn", q, keys)
        att = np.exp(scores, out=scores)
        ctx = np.einsum("sn,sdn->dn", att, values)
        ctx /= att.sum(axis=0)
        return self.wo_ctx @ ctx.reshape(-1, x.shape[1]) + self.bo

    def _conv_module(self, x: np.ndarray) -> np.ndarray:
        u = _layer_norm(x, *self.ln["ln_conv"])
        w1, b1 = self.pw1
        gates = w1 @ u + b1
        half = gates.shape[0] // 2
        taps = self.conv_window
        taps[:-1] = taps[1:]
        np.multiply(gates[:half], _sigmoid(gates[half:]), out=taps[-1])
        dw_w, dw_b = self.dw
        conv = np.einsum("khf,hk->hf", taps, dw_w)
        conv += dw_b
        w2, b2 = self.pw2
        return w2 @ _swish(conv) + b2

    def step(self, x: np.ndarray) -> np.ndarray:
        x = x + 0.5 * self._ff(_layer_norm(x, *self.ln["ln_ff1"]), self.ff1)
        x = x + self._attend(x)
        x = x + self._conv_module(x)
        x = x + 0.5 * self._ff(_layer_norm(x, *self.ln["ln_ff2"]), self.ff2)
        return _layer_norm(x, *self.ln["ln_out"])


class _SubBand:
    """Per-bin conformer stack between channel projections, residual added."""

    def __init__(self, weights: ModelWeights, prefix: str, cfg: ModelConfig):
        self.w_in = weights[f"{prefix}.conv_in.w"]
        self.b_in = weights[f"{prefix}.conv_in.b"][:, None]
        self.layers = [
            _ConformerLayer(weights, f"{prefix}.layer{j}", cfg)
            for j in range(cfg.conformer_layers)
        ]
        self.w_out = weights[f"{prefix}.proj_out.w"]
        self.b_out = weights[f"{prefix}.proj_out.b"][:, None]

    def step(self, x: np.ndarray) -> np.ndarray:
        z = self.w_in @ x + self.b_in  # (H, F)
        for layer in self.layers:
            z = layer.step(z)
        return x + (self.w_out @ z + self.b_out)


class _EncoderStage:
    """Three two-conv encoders plus the 1x1 merge convolution."""

    def __init__(self, weights: ModelWeights, cfg: ModelConfig):
        conv = lambda p: _CausalConv2d(weights[f"{p}.w"], weights[f"{p}.b"], cfg.bins)
        self.convs = {name: (conv(f"enc_{name}.conv1"), conv(f"enc_{name}.conv2"))
                      for name in ("spec", "lps", "ipd")}
        self.merge_w = weights["merge.w"][:, :, 0, 0]
        self.merge_b = weights["merge.b"][:, None]

    def step(self, spec_feat: np.ndarray, lps: np.ndarray, ipd: np.ndarray) -> np.ndarray:
        outs = []
        for name, frame in (("spec", spec_feat), ("lps", lps), ("ipd", ipd)):
            conv1, conv2 = self.convs[name]
            hidden = np.maximum(conv1.step(frame), 0.0)
            outs.append(np.maximum(conv2.step(hidden), 0.0))
        return self.merge_w @ np.concatenate(outs, axis=0) + self.merge_b


class StreamingMaskNet:
    """Stateful frame-by-frame mask estimator.

    One instance serves one audio stream. Weights are read-only and can be
    shared across concurrently running instances.
    """

    def __init__(self, weights: ModelWeights, cfg: ModelConfig):
        weights.validate(cfg)
        self.cfg = cfg
        self.encoder = _EncoderStage(weights, cfg)
        self.blocks = [
            (
                _FullBand(weights, f"block{i}.fullband"),
                _Tac(weights, f"block{i}.tac"),
                _SubBand(weights, f"block{i}.subband", cfg),
            )
            for i in range(cfg.n_full_sub)
        ]
        self.decoder = _CausalConv2d(weights["decoder.w"], weights["decoder.b"], cfg.bins)
        self.w_speech = weights["head_speech.w"]
        self.b_speech = weights["head_speech.b"][:, None]
        self.w_noise = weights["head_noise.w"]
        self.b_noise = weights["head_noise.b"][:, None]
        self.frame_index = 0

    def step(self, snapshot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Consume one (Z, F) complex STFT frame; return (speech, noise) masks (Z, F).

        A mis-shaped or non-finite frame raises InvalidInput before any state
        changes, so the stream continues as if it had never been sent.
        """
        snapshot = np.asarray(snapshot)
        if snapshot.shape != (self.cfg.zones, self.cfg.bins):
            raise InvalidInput(
                f"expected frame of shape {(self.cfg.zones, self.cfg.bins)}, "
                f"got {snapshot.shape}"
            )
        if not np.isfinite(snapshot).all():
            raise InvalidInput("frame contains non-finite values")
        spec_feat = features.stack_real_imag(snapshot)
        lps = features.compute_lps(snapshot)
        ipd = features.compute_ipd(snapshot)

        x = self.encoder.step(spec_feat, lps, ipd)
        selected = self.frame_index % 2 == 0
        for fullband, tac, subband in self.blocks:
            x = fullband.step(x)
            if selected:
                x = tac.step(x)
            x = subband.step(x)
        decoded = self.decoder.step(x)
        speech = _sigmoid(self.w_speech @ decoded + self.b_speech)
        noise = _sigmoid(self.w_noise @ decoded + self.b_noise)
        self.frame_index += 1
        return speech, noise


def forward(spec: np.ndarray, weights: ModelWeights, cfg: ModelConfig) -> MaskPair:
    """Run the mask network over a whole (Z, T, F) spectrogram.

    Processes frames in order through `StreamingMaskNet`, so the result is
    bit-identical to stateful streaming and to any prefix run.
    """
    spec = np.asarray(spec)
    if spec.ndim != 3:
        raise InvalidInput(f"spectrogram must be (Z, T, F), got ndim={spec.ndim}")
    net = StreamingMaskNet(weights, cfg)
    n_frames = spec.shape[1]
    speech = np.empty((cfg.zones, n_frames, cfg.bins), np.float32)
    noise = np.empty_like(speech)
    for t in range(n_frames):
        speech[:, t, :], noise[:, t, :] = net.step(spec[:, t, :])
    return MaskPair(speech, noise)
