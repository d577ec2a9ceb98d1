"""Analytic multiply-accumulate (MAC) accounting for layer graphs.

Counting convention: convolutions cost k^2 * (C_in / groups) * C_out * H_out
* W_out, transposed convolutions use the same formula at their (upsampled)
output resolution, fully connected layers cost in * out, and a
squeeze-and-excitation block costs its two bottleneck FC layers (2 * C *
C_reduced).  Biases, activations, normalization, pooling, and elementwise
ops count zero MACs.  Spatial shapes propagate with same-padding semantics:
H_out = ceil(H / stride) for convolutions and H_out = H * stride for
transposed convolutions.

A graph is its layers: its input has the first layer's ``in_channels``, and
every layer checks the channel count it is fed.  A profile is its per-stage
totals; the total is their sum.

Built-in catalogs cover ResNet-50, EfficientNet-B0, a deconvolution decoder
in the classic image-to-lixel arrangement, the full decoders built from the
three upsampling block variants (``decoder_block``: depthwise+pointwise,
MBConv-style with squeeze-excitation, and squeeze-excitation without the
pointwise), and the heatmap aggregation stage.  1 GMAC = 1e9 MACs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError, ShapeError, as_number

_SIZE_LIMIT = 2 ** 31  # layer sizes and spatial extents, as in int32

KINDS = ("conv", "deconv", "depthwise_conv", "depthwise_deconv", "pointwise",
         "fully_connected", "squeeze_excitation", "pool", "elementwise")
#: the kinds whose output has their input's channel count
_SAME_CHANNELS = ("depthwise_conv", "depthwise_deconv", "squeeze_excitation", "pool",
                  "elementwise")


@dataclass
class LayerSpec:
    kind: str
    kernel: int = 1
    in_channels: int = 1
    out_channels: int = 1
    stride: int = 1
    groups: int = 1
    se_ratio: float = 4.0   # reduction divisor for squeeze_excitation
    global_pool: bool = False
    branch: bool = False    # parallel shortcut: costs MACs, shape passes through

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown layer kind {self.kind!r}")
        for name in ("kernel", "in_channels", "out_channels", "stride", "groups"):
            setattr(self, name, as_number(getattr(self, name), name, 1,
                                          _SIZE_LIMIT - 1, integer=True))
        self.se_ratio = as_number(self.se_ratio, "se_ratio (a reduction)", 1)
        if self.kind in _SAME_CHANNELS and self.in_channels != self.out_channels:
            raise InputError(f"{self.kind} keeps the channel count: in_channels "
                             f"{self.in_channels}, out_channels {self.out_channels}")
        if self.kind in ("depthwise_conv", "depthwise_deconv"):
            self.groups = self.in_channels
        if self.kind == "pointwise":
            self.kernel = 1
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise InputError("groups must divide both channel counts")

    def out_shape(self, in_c: int, in_h: int, in_w: int) -> tuple[int, int, int]:
        if self.in_channels != in_c:
            raise ShapeError(
                f"{self.kind} expects {self.in_channels} channels, got {in_c}")
        if self.kind in ("elementwise", "squeeze_excitation"):
            return in_c, in_h, in_w
        if self.kind == "pool" and self.global_pool:
            return self.out_channels, 1, 1
        if self.kind == "fully_connected":
            if in_h != 1 or in_w != 1:
                raise ShapeError("fully_connected needs a 1x1 spatial input")
            return self.out_channels, 1, 1
        if self.kind in ("deconv", "depthwise_deconv"):
            return self.out_channels, in_h * self.stride, in_w * self.stride
        return (self.out_channels, math.ceil(in_h / self.stride),
                math.ceil(in_w / self.stride))


def layer_macs(layer: LayerSpec, in_h: int, in_w: int) -> int:
    """MAC count for one layer given its input spatial size."""
    if in_h < 1 or in_w < 1:
        raise ShapeError("spatial size must be positive")
    if layer.kind in ("pool", "elementwise"):
        return 0
    if layer.kind == "fully_connected":
        return layer.in_channels * layer.out_channels
    if layer.kind == "squeeze_excitation":
        reduced = max(1, round(layer.in_channels / layer.se_ratio))
        return 2 * layer.in_channels * reduced
    _, out_h, out_w = layer.out_shape(layer.in_channels, in_h, in_w)
    return (layer.kernel * layer.kernel * (layer.in_channels // layer.groups)
            * layer.out_channels * out_h * out_w)


@dataclass
class NetGraph:
    """Named layer sequence; its input has the first layer's ``in_channels``.

    ``input_stride`` positions subgraphs (decoders, aggregators) that consume
    backbone features: their input spatial size is resolution / input_stride.
    Skip connections appear as zero-cost elementwise entries.
    """

    name: str
    layers: list[tuple[str, LayerSpec]]
    input_stride: int = 1

    def __post_init__(self):
        self.input_stride = as_number(self.input_stride, "input stride", 1,
                                      integer=True)


@dataclass
class ProfileReport:
    graph: str
    resolution: int
    stage_totals: dict[str, int]

    @property
    def total_macs(self) -> int:
        return sum(self.stage_totals.values())

    @property
    def total_gmacs(self) -> float:
        return self.total_macs / 1e9

    def to_text(self) -> str:
        lines = [f"graph {self.graph} @ {self.resolution}x{self.resolution}"]
        width = max((len(s) for s in self.stage_totals), default=5)
        for stage, total in self.stage_totals.items():
            lines.append(f"{stage:<{width}}  {total:>14d} MACs"
                         f"  {total / 1e9:10.4f} GMACs")
        lines.append(f"{'total':<{width}}  {self.total_macs:>14d} MACs"
                     f"  {self.total_gmacs:10.4f} GMACs")
        return "\n".join(lines) + "\n"


def profile(graph: NetGraph, resolution: int = 256) -> ProfileReport:
    """Propagate shapes through the graph and sum MACs per named stage."""
    resolution = as_number(resolution, "resolution", 1, _SIZE_LIMIT - 1, integer=True)
    if resolution % graph.input_stride:
        raise ShapeError("resolution must be divisible by the input stride")
    c = graph.layers[0][1].in_channels if graph.layers else 0
    h = w = resolution // graph.input_stride
    stage_totals: dict[str, int] = {}
    for stage, layer in graph.layers:
        if max(h, w) >= _SIZE_LIMIT:
            raise ShapeError("spatial size must stay below 2**31")
        macs = layer_macs(layer, h, w)
        if layer.branch:
            layer.out_shape(c, h, w)  # validates channel agreement only
        else:
            c, h, w = layer.out_shape(c, h, w)
        stage_totals[stage] = stage_totals.get(stage, 0) + macs
    return ProfileReport(graph=graph.name, resolution=resolution,
                         stage_totals=stage_totals)


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------

def _bottleneck(layers, stage, in_c, mid, out_c, stride):
    if stride != 1 or in_c != out_c:
        layers.append((stage, LayerSpec("pointwise", in_channels=in_c,
                                        out_channels=out_c, stride=stride,
                                        branch=True)))
    layers.append((stage, LayerSpec("pointwise", in_channels=in_c, out_channels=mid)))
    layers.append((stage, LayerSpec("conv", kernel=3, in_channels=mid,
                                    out_channels=mid, stride=stride)))
    layers.append((stage, LayerSpec("pointwise", in_channels=mid, out_channels=out_c)))
    layers.append((stage, LayerSpec("elementwise", in_channels=out_c,
                                    out_channels=out_c)))


def resnet50() -> NetGraph:
    layers: list[tuple[str, LayerSpec]] = [
        ("stem", LayerSpec("conv", kernel=7, in_channels=3, out_channels=64, stride=2)),
        ("stem", LayerSpec("pool", kernel=3, in_channels=64, out_channels=64, stride=2)),
    ]
    in_c = 64
    for stage, (mid, out_c, blocks, stride) in {
            "layer1": (64, 256, 3, 1), "layer2": (128, 512, 4, 2),
            "layer3": (256, 1024, 6, 2), "layer4": (512, 2048, 3, 2)}.items():
        for b in range(blocks):
            _bottleneck(layers, stage, in_c, mid, out_c, stride if b == 0 else 1)
            in_c = out_c
    layers.append(("head", LayerSpec("pool", in_channels=2048, out_channels=2048,
                                     global_pool=True)))
    layers.append(("head", LayerSpec("fully_connected", in_channels=2048,
                                     out_channels=1000)))
    return NetGraph("resnet50", layers)


# EfficientNet-B0 stage plan: (expand, out channels, repeats, stride, kernel).
_B0_BLOCKS = ((1, 16, 1, 1, 3), (6, 24, 2, 2, 3), (6, 40, 2, 2, 5),
              (6, 80, 3, 2, 3), (6, 112, 3, 1, 5), (6, 192, 4, 2, 5),
              (6, 320, 1, 1, 3))


def _mbconv(layers, stage, in_c, out_c, expand, stride, kernel):
    mid = in_c * expand
    if expand != 1:
        layers.append((stage, LayerSpec("pointwise", in_channels=in_c,
                                        out_channels=mid)))
    layers.append((stage, LayerSpec("depthwise_conv", kernel=kernel,
                                    in_channels=mid, out_channels=mid,
                                    stride=stride)))
    # SE bottleneck width is a quarter of the block input channels
    reduced = max(1, in_c // 4)
    layers.append((stage, LayerSpec("squeeze_excitation", in_channels=mid,
                                    out_channels=mid, se_ratio=mid / reduced)))
    layers.append((stage, LayerSpec("pointwise", in_channels=mid,
                                    out_channels=out_c)))
    if stride == 1 and in_c == out_c:
        layers.append((stage, LayerSpec("elementwise", in_channels=out_c,
                                        out_channels=out_c)))


def efficientnet_b0() -> NetGraph:
    layers: list[tuple[str, LayerSpec]] = [
        ("stem", LayerSpec("conv", kernel=3, in_channels=3, out_channels=32,
                           stride=2)),
    ]
    in_c = 32
    for i, (expand, out_c, repeats, stride, kernel) in enumerate(_B0_BLOCKS):
        stage = f"stage{i + 1}"
        for r in range(repeats):
            _mbconv(layers, stage, in_c, out_c, expand,
                    stride if r == 0 else 1, kernel)
            in_c = out_c
    layers.append(("head", LayerSpec("pointwise", in_channels=320,
                                     out_channels=1280)))
    layers.append(("head", LayerSpec("pool", in_channels=1280,
                                     out_channels=1280, global_pool=True)))
    layers.append(("head", LayerSpec("fully_connected", in_channels=1280,
                                     out_channels=1000)))
    return NetGraph("efficientnet_b0", layers)


def i2l_decoder_original() -> NetGraph:
    """Three 256-channel deconvolution stages from the backbone top, plus the
    per-joint output convolution (reconstruction; treat totals as +-10%)."""
    layers = [
        ("up1", LayerSpec("deconv", kernel=4, in_channels=2048,
                          out_channels=256, stride=2)),
        ("up2", LayerSpec("deconv", kernel=4, in_channels=256,
                          out_channels=256, stride=2)),
        ("up3", LayerSpec("deconv", kernel=4, in_channels=256,
                          out_channels=256, stride=2)),
        ("out", LayerSpec("pointwise", in_channels=256, out_channels=21)),
    ]
    return NetGraph("i2l_decoder_original", layers, input_stride=32)


def heatmap_aggregator() -> NetGraph:
    """Fuses per-joint lixel heatmaps (21 x 64 channels) with 64 image-feature
    channels by a 3x3 convolution at quarter resolution."""
    layers = [
        ("fuse", LayerSpec("conv", kernel=3, in_channels=21 * 64 + 64,
                           out_channels=64)),
    ]
    return NetGraph("heatmap_aggregator", layers, input_stride=4)


def decoder_block(variant: str, channels: int) -> NetGraph:
    """One x2 upsampling block of decoder variant A, B, or C: a depthwise
    deconvolution, then squeeze-excitation (B, C) and a pointwise (A, B)."""
    if variant not in ("A", "B", "C"):
        raise InputError("variant must be 'A', 'B', or 'C'")
    layers = [("dw_deconv", LayerSpec("depthwise_deconv", kernel=4,
                                      in_channels=channels,
                                      out_channels=channels, stride=2))]
    if variant in ("B", "C"):
        layers.append(("se", LayerSpec("squeeze_excitation", in_channels=channels,
                                       out_channels=channels, se_ratio=4.0)))
    if variant in ("A", "B"):
        layers.append(("pointwise", LayerSpec("pointwise", in_channels=channels,
                                              out_channels=channels)))
    return NetGraph(f"decoder_block_{variant}", layers)


DECODER_CHANNELS = 256
DECODER_STAGES = 3
BACKBONE_CHANNELS = 320   # EfficientNet-B0's last stage


def decoder_variant(variant: str) -> NetGraph:
    """Full decoder built from variant blocks, with the channel-change
    pointwise in front (backbone width differs from the decoder width)."""
    layers = [("in", LayerSpec("pointwise", in_channels=BACKBONE_CHANNELS,
                               out_channels=DECODER_CHANNELS))]
    for s in range(DECODER_STAGES):
        for name, spec in decoder_block(variant, DECODER_CHANNELS).layers:
            layers.append((f"up{s + 1}_{name}", spec))
    layers.append(("out", LayerSpec("pointwise", in_channels=DECODER_CHANNELS,
                                    out_channels=21)))
    return NetGraph(f"decoder_variant_{variant}", layers, input_stride=32)


CATALOG = {
    "resnet50": resnet50,
    "efficientnet_b0": efficientnet_b0,
    "i2l_decoder_original": i2l_decoder_original,
    "decoder_variant_A": lambda: decoder_variant("A"),
    "decoder_variant_B": lambda: decoder_variant("B"),
    "decoder_variant_C": lambda: decoder_variant("C"),
    "heatmap_aggregator": heatmap_aggregator,
}


# ---------------------------------------------------------------------------
# plain-text graph files
# ---------------------------------------------------------------------------

def load_graph_text(path, input_stride: int = 1) -> NetGraph:
    """One layer per line: kind kernel in_channels out_channels stride groups
    [se_ratio].  Lines starting with '#' are comments.  The graph is named
    after the file's stem."""
    layers: list[tuple[str, LayerSpec]] = []
    for lineno, raw in enumerate(
            Path(path).read_text(errors="replace").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if not 6 <= len(parts) <= 7:
            raise InputError(f"{path}:{lineno}: expected 6 or 7 fields, got {len(parts)}")
        try:
            nums = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        # whole sizes as ints; LayerSpec refuses 2.5, inf or nan
        sizes = [int(n) if n.is_integer() else n for n in nums[:5]]
        try:
            spec = LayerSpec(parts[0], *sizes, se_ratio=nums[5] if len(nums) > 5 else 4.0)
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        layers.append((f"layer{len(layers) + 1}", spec))
    if not layers:
        raise InputError(f"{path}: no layers")
    return NetGraph(Path(path).stem, layers, input_stride=input_stride)
