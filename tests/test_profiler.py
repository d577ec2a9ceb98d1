import pytest

from handkit.profiler import (CATALOG, LayerSpec, NetGraph,
                              ShapeError, decoder_block, decoder_variant,
                              efficientnet_b0, heatmap_aggregator,
                              i2l_decoder_original, layer_macs,
                              load_graph_text, profile, resnet50)


# ---------------------------------------------------------------------------
# layer_macs
# ---------------------------------------------------------------------------

def test_conv_hand_calculation():
    layer = LayerSpec("conv", kernel=3, in_channels=16, out_channels=32)
    assert layer_macs(layer, 8, 8) == 294_912


def test_depthwise_hand_calculation():
    layer = LayerSpec("depthwise_conv", kernel=3, in_channels=16,
                      out_channels=16)
    assert layer_macs(layer, 8, 8) == 9_216


def test_pointwise_equals_conv_k1():
    pw = LayerSpec("pointwise", in_channels=48, out_channels=96)
    conv = LayerSpec("conv", kernel=1, in_channels=48, out_channels=96)
    assert layer_macs(pw, 13, 17) == layer_macs(conv, 13, 17)


def test_fully_connected_macs():
    layer = LayerSpec("fully_connected", in_channels=2048, out_channels=1000)
    assert layer_macs(layer, 1, 1) == 2_048_000


def test_squeeze_excitation_macs():
    layer = LayerSpec("squeeze_excitation", in_channels=64, out_channels=64,
                      se_ratio=4.0)
    assert layer_macs(layer, 10, 10) == 2 * 64 * 16


def test_pool_and_elementwise_are_free():
    assert layer_macs(LayerSpec("pool", in_channels=8, out_channels=8,
                                stride=2), 16, 16) == 0
    assert layer_macs(LayerSpec("elementwise", in_channels=8,
                                out_channels=8), 16, 16) == 0


def test_deconv_counts_at_output_resolution():
    layer = LayerSpec("deconv", kernel=4, in_channels=8, out_channels=8,
                      stride=2)
    assert layer_macs(layer, 8, 8) == 16 * 8 * 8 * 16 * 16


def test_layerspec_validation():
    with pytest.raises(ValueError):
        LayerSpec("unknown")
    with pytest.raises(ValueError):
        LayerSpec("conv", kernel=0)
    with pytest.raises(ValueError):
        LayerSpec("conv", in_channels=6, out_channels=6, groups=4)
    with pytest.raises(ValueError):
        LayerSpec("depthwise_conv", in_channels=8, out_channels=16)
    with pytest.raises(ShapeError):
        layer_macs(LayerSpec("conv"), 0, 4)


def test_shape_mismatch_detected():
    graph = NetGraph("bad", [
        ("a", LayerSpec("conv", kernel=3, in_channels=3, out_channels=8)),
        ("b", LayerSpec("conv", kernel=3, in_channels=16, out_channels=8)),
    ])
    with pytest.raises(ShapeError):
        profile(graph, 32)


# ---------------------------------------------------------------------------
# catalog totals
# ---------------------------------------------------------------------------

def test_resnet50_total_matches_reference():
    report = profile(resnet50(), 256)
    assert report.total_gmacs == pytest.approx(5.38, rel=0.02)


def test_efficientnet_b0_fraction_of_resnet():
    r50 = profile(resnet50(), 256).total_macs
    b0 = profile(efficientnet_b0(), 256).total_macs
    assert b0 <= 0.15 * r50


def test_i2l_decoder_total():
    report = profile(i2l_decoder_original(), 256)
    assert report.total_gmacs == pytest.approx(7.55, rel=0.10)
    assert report.total_gmacs == pytest.approx(7.59, rel=0.10)


def test_heatmap_aggregator_total():
    report = profile(heatmap_aggregator(), 256)
    assert report.total_gmacs == pytest.approx(3.32, rel=0.10)


def test_catalog_graphs_propagate_at_256():
    for name, builder in CATALOG.items():
        report = profile(builder(), 256)
        assert report.total_macs > 0, name


def test_empty_graph_is_zero():
    assert profile(NetGraph("empty", []), 256).total_macs == 0


# exact totals: any change to the accounting or a catalog graph shows here
CATALOG_MACS_AT_256 = {
    "resnet50": 5_340_348_416,
    "efficientnet_b0": 503_337_472,
    "i2l_decoder_original": 7_538_212_864,
    "decoder_variant_A": 401_604_608,
    "decoder_variant_B": 401_702_912,
    "decoder_variant_C": 49_381_376,
    "heatmap_aggregator": 3_321_888_768,
}


def test_catalog_totals_are_pinned():
    assert list(CATALOG) == list(CATALOG_MACS_AT_256)
    for name, builder in CATALOG.items():
        report = profile(builder(), 256)
        assert report.total_macs == CATALOG_MACS_AT_256[name], name
        assert report.total_macs == sum(report.stage_totals.values()), name


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_macs_additive_over_concatenation():
    a = [("s1", LayerSpec("conv", kernel=3, in_channels=3, out_channels=8,
                          stride=2))]
    b = [("s2", LayerSpec("conv", kernel=3, in_channels=8, out_channels=16))]
    whole = profile(NetGraph("ab", a + b), 64).total_macs
    first = profile(NetGraph("a", a), 64).total_macs
    second = profile(NetGraph("b", b), 32).total_macs
    assert whole == first + second


def test_resolution_doubling_quadruples_spatial_macs():
    graph = resnet50()
    small = profile(graph, 128)
    large = profile(graph, 256)
    fc = 2_048_000  # the only non-spatial layer
    assert large.total_macs - fc == 4 * (small.total_macs - fc)


# ---------------------------------------------------------------------------
# decoder blocks
# ---------------------------------------------------------------------------

def _block_totals(channels):
    return {v: profile(decoder_block(v, channels), 8).total_macs for v in "ABC"}


@pytest.mark.parametrize("channels", [8, 16, 64, 256])
def test_variant_ordering(channels):
    totals = _block_totals(channels)
    assert totals["C"] < totals["A"] < totals["B"]


# exact totals on an 8x8 input
@pytest.mark.parametrize("channels, expected", [
    (16, {"A": 131_072, "B": 131_200, "C": 65_664}),
    (64, {"A": 1_310_720, "B": 1_312_768, "C": 264_192}),
    (256, {"A": 17_825_792, "B": 17_858_560, "C": 1_081_344}),
])
def test_decoder_block_totals_are_pinned(channels, expected):
    assert _block_totals(channels) == expected


def test_variant_ordering_full_decoders():
    totals = {v: profile(decoder_variant(v), 256).total_macs for v in "ABC"}
    assert totals["C"] < totals["A"] < totals["B"]


def test_pointwise_dominates_variant_a():
    # with a 3x3 kernel the pointwise share is C / (9 + C): > 1/2 above 9
    for channels in (10, 16, 64, 256):
        dw = layer_macs(LayerSpec("depthwise_deconv", kernel=3,
                                  in_channels=channels, out_channels=channels,
                                  stride=2), 8, 8)
        pw = layer_macs(LayerSpec("pointwise", in_channels=channels,
                                  out_channels=channels), 16, 16)
        assert pw / (dw + pw) > 0.5
    # boundary: at exactly 9 channels the share is exactly 1/2
    dw = layer_macs(LayerSpec("depthwise_deconv", kernel=3, in_channels=9,
                              out_channels=9, stride=2), 8, 8)
    pw = layer_macs(LayerSpec("pointwise", in_channels=9, out_channels=9),
                    16, 16)
    assert pw / (dw + pw) == pytest.approx(0.5, rel=1e-12)


def test_single_channel_pointwise_not_dominant():
    a = profile(decoder_block("A", 1), 8).stage_totals
    assert a["pointwise"] / (a["pointwise"] + a["dw_deconv"]) < 0.5


def test_comparison_report_text():
    text = profile(decoder_block("B", 32), 8).to_text()
    assert text.startswith("graph decoder_block_B @ 8x8\n")
    assert [line.split()[0] for line in text.splitlines()[1:]] == [
        "dw_deconv", "se", "pointwise", "total"]


# ---------------------------------------------------------------------------
# text graphs
# ---------------------------------------------------------------------------

def test_graph_text_roundtrip(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# a small net\n"
                    "conv 3 3 16 2 1\n"
                    "depthwise_conv 3 16 16 1 16\n"
                    "pointwise 1 16 32 1 1\n")
    graph = load_graph_text(path)
    report = profile(graph, 64)
    expected = (9 * 3 * 16 * 32 * 32 + 9 * 16 * 32 * 32
                + 16 * 32 * 32 * 32)
    assert report.total_macs == expected


def test_graph_text_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("conv 3 3\n")
    with pytest.raises(ValueError):
        load_graph_text(path)


def test_profile_report_text():
    text = profile(resnet50(), 256).to_text()
    assert "total" in text and "GMACs" in text
