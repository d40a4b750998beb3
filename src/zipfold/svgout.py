"""Deterministic SVG emitters for the source polygon and the unfolded net.

These are the files `verify --emit-svg` and `fold --emit-svg` write.
Coordinates are written with 9 decimal digits and no timestamps, so equal
inputs produce byte-identical documents.  The y axis is flipped into screen
convention via a group transform rather than by touching coordinates.
"""

_PRECISION = 9


def _fmt(v):
    return f"{v:.{_PRECISION}f}"


def _bounds(points, margin=0.35):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (
        min(xs) - margin,
        min(ys) - margin,
        (max(xs) - min(xs)) + 2 * margin,
        (max(ys) - min(ys)) + 2 * margin,
    )


def _document(points, body):
    x, y, w, h = _bounds(points)
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x)} {_fmt(-y - h)} {_fmt(w)} {_fmt(h)}">\n'
        '<g transform="scale(1,-1)" stroke-linecap="round">\n'
    )
    return head + body + "</g>\n</svg>\n"


def _poly_element(points, stroke, width, cls):
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return (
        f'<polygon class="{cls}" points="{coords}" fill="none" stroke="{stroke}" '
        f'stroke-width="{_fmt(width)}" />\n'
    )


def _crease_element(p, q):
    return (
        f'<line x1="{_fmt(p[0])}" y1="{_fmt(p[1])}" x2="{_fmt(q[0])}" y2="{_fmt(q[1])}" '
        f'stroke="#305090" stroke-width="{_fmt(0.015)}" stroke-dasharray="0.06,0.05" />\n'
    )


def _label_element(p, text):
    return (
        f'<text x="{_fmt(p[0])}" y="{_fmt(-p[1])}" font-size="0.12" '
        f'transform="scale(1,-1)" fill="#444444">{text}</text>\n'
    )


def svg_polygon(poly):
    pts = poly.vertices
    body = _poly_element(pts, "#1a1a1a", 0.02, "boundary")
    for i, p in enumerate(pts):
        body += _label_element(p, f"v{i}")
    return _document(pts, body)


def svg_net(net):
    body = _poly_element(net.boundary, "#b03030", 0.025, "zipper-boundary")
    for p, q, _ in net.creases:
        body += _crease_element(p, q)
    for p, label in zip(net.boundary, net.boundary_labels):
        body += _label_element(p, label)
    return _document(net.boundary, body)

