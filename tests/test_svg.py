from zipfold import cut_and_unfold, embed, glue_halving, svg_net, svg_polygon, tetra_metric


def test_polygon_svg_structure(regular_hexagon):
    doc = svg_polygon(regular_hexagon)
    assert doc.startswith("<svg")
    assert doc.count("<polygon") == 1
    assert doc.count("<text") == 6
    assert "v0" in doc and "v5" in doc


def test_net_svg_has_three_dashed_creases(regular_hexagon):
    tet = embed(tetra_metric(glue_halving(regular_hexagon, 0)))
    doc = svg_net(cut_and_unfold(tet))
    assert doc.count("<line") == 3
    assert doc.count("stroke-dasharray") == 3
    assert doc.count("<polygon") == 1


def test_svg_byte_stable(regular_hexagon):
    assert svg_polygon(regular_hexagon) == svg_polygon(regular_hexagon)
    tet = embed(tetra_metric(glue_halving(regular_hexagon, 1)))
    net = cut_and_unfold(tet)
    assert svg_net(net) == svg_net(net)


def test_coordinates_have_nine_decimals(regular_hexagon):
    doc = svg_polygon(regular_hexagon)
    first = doc.split('points="')[1].split('"')[0].split()[0]
    x, y = first.split(",")
    assert len(x.split(".")[1]) == 9
    assert len(y.split(".")[1]) == 9

