import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import point_partition, square_region
from finescale.evaluate import grid_partition
from finescale.geo import (
    AggregationMap,
    ArealDataset,
    GeoParseError,
    GeoValidationError,
    Location,
    Partition,
    Region,
    aggregate,
    build_aggregation,
    load_aggregation_csv,
    load_dataset,
    load_partition,
    partition_to_geojson,
    polygon_area_centroid,
    save_aggregation_csv,
    save_dataset,
    to_intensive,
)


def feature(rid, coords):
    return {
        "type": "Feature",
        "properties": {"id": rid},
        "geometry": {"type": "Polygon", "coordinates": [coords]},
    }


def collection(*features):
    return {"type": "FeatureCollection", "features": list(features)}

UNIT_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
L_SHAPE = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2], [0, 0]]


def test_unit_square_centroid_and_area():
    part = load_partition(collection(feature("A", UNIT_SQUARE)))
    r = part.regions[0]
    assert r.centroid.xy == pytest.approx([0.5, 0.5], abs=1e-14)
    assert r.area == pytest.approx(1.0, abs=1e-14)


def test_l_shape_centroid_and_area():
    part = load_partition(collection(feature("L", L_SHAPE)))
    r = part.regions[0]
    # decomposition oracle: [0,2]x[0,1] (area 2, centroid (1, 1/2)) union
    # [0,1]x[1,2] (area 1, centroid (1/2, 3/2)) -> (2*1 + 0.5)/3 = 5/6 per axis
    assert r.centroid.xy == pytest.approx([5.0 / 6.0, 5.0 / 6.0], abs=1e-12)
    assert r.area == pytest.approx(3.0, abs=1e-12)


def test_duplicate_ids_rejected():
    doc = collection(feature("A", UNIT_SQUARE), feature("A", L_SHAPE))
    with pytest.raises(GeoValidationError, match="duplicate"):
        load_partition(doc)


def test_degenerate_polygon_names_region():
    bad = feature("BAD", [[0, 0], [1, 1], [2, 2], [0, 0]])
    with pytest.raises(GeoValidationError, match="BAD"):
        load_partition(collection(bad))


def test_malformed_document_rejected():
    with pytest.raises(GeoParseError):
        load_partition("{not json")
    with pytest.raises(GeoParseError):
        load_partition({"type": "Point"})


def test_hole_reduces_area():
    outer = [[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]]
    hole = [[1, 1], [2, 1], [2, 2], [1, 2], [1, 1]]
    doc = {
        "type": "Feature",
        "properties": {"id": "H"},
        "geometry": {"type": "Polygon", "coordinates": [outer, hole]},
    }
    part = load_partition(collection(doc))
    assert part.regions[0].area == pytest.approx(15.0, abs=1e-12)


def test_load_partition_deterministic():
    doc = collection(feature("A", UNIT_SQUARE), feature("B", L_SHAPE))
    p1 = load_partition(doc, name="p")
    p2 = load_partition(json.loads(json.dumps(doc)), name="p")
    s1 = json.dumps(partition_to_geojson(p1), sort_keys=True)
    s2 = json.dumps(partition_to_geojson(p2), sort_keys=True)
    assert s1 == s2


def test_lonlat_sniff_warns():
    shifted = [[c[0] + 73, c[1] + 40] for c in UNIT_SQUARE]
    with pytest.warns(UserWarning, match="lon/lat"):
        load_partition(collection(feature("NYC", shifted)))


def test_unit_square_no_lonlat_warning(recwarn):
    load_partition(collection(feature("A", UNIT_SQUARE)))
    assert not [w for w in recwarn if "lon/lat" in str(w.message)]


@given(
    dx=st.floats(-100, 100),
    dy=st.floats(-100, 100),
    c=st.floats(0.1, 50),
)
@settings(max_examples=50, deadline=None)
def test_centroid_translation_and_area_scaling(dx, dy, c):
    base = np.array(L_SHAPE, dtype=float)
    area0, cent0 = polygon_area_centroid([[base]])
    area_t, cent_t = polygon_area_centroid([[base + np.array([dx, dy])]])
    assert cent_t == pytest.approx(cent0 + np.array([dx, dy]), abs=1e-8)
    area_s, _ = polygon_area_centroid([[base * c]])
    assert area_s == pytest.approx(area0 * c * c, rel=1e-9)


def test_to_intensive_division():
    part = Partition("p", (square_region("A", 0, 0, np.sqrt(2.0)),))
    d = ArealDataset(part, [10.0], quantity_kind="extensive")
    out = to_intensive(d)
    assert out.values[0] == pytest.approx(5.0, rel=1e-12)
    assert out.quantity_kind == "intensive"


def test_to_intensive_rejects_intensive():
    part = point_partition("p", np.array([[0.5, 0.5]]))
    with pytest.raises(GeoValidationError):
        to_intensive(ArealDataset(part, [1.0]))


def test_to_intensive_zero_value():
    part = Partition("p", (square_region("A", 0, 0, 2.0),))
    out = to_intensive(ArealDataset(part, [0.0], quantity_kind="extensive"))
    assert out.values[0] == 0.0


# The scalar point-in-polygon test that built H one centroid and one edge at a
# time, kept as the oracle for the vectorised build_aggregation.
def _point_on_segment(p, a, b, tol=1e-12) -> bool:
    ab = b - a
    ap = p - a
    cross = ab[0] * ap[1] - ab[1] * ap[0]
    scale = max(1.0, float(np.abs(ab).max()))
    if abs(cross) > tol * scale:
        return False
    dot = float(ap @ ab)
    return -tol <= dot <= float(ab @ ab) + tol


def point_in_polygon(point: np.ndarray, polygons: list[list[np.ndarray]]) -> bool:
    """Even-odd ray casting over all rings; boundary points count as inside."""
    px, py = float(point[0]), float(point[1])
    inside = False
    for rings in polygons:
        for ring in rings:
            r = np.asarray(ring, dtype=float)
            if r.shape[0] >= 2 and np.allclose(r[0], r[-1]):
                r = r[:-1]
            n = r.shape[0]
            for i in range(n):
                a, b = r[i], r[(i + 1) % n]
                if _point_on_segment(np.array([px, py]), a, b):
                    return True
                if (a[1] > py) != (b[1] > py):
                    x_cross = a[0] + (py - a[1]) / (b[1] - a[1]) * (b[0] - a[0])
                    if px < x_cross:
                        inside = not inside
    return inside


def loop_aggregation(coarse: Partition, fine: Partition) -> tuple[np.ndarray, dict]:
    """H and membership from the scalar test, lowest coarse id first."""
    nc, nf = len(coarse), len(fine)
    order = sorted(range(nc), key=lambda i: coarse.regions[i].id)
    membership = {}
    for fr in fine.regions:
        for i in order:
            if point_in_polygon(fr.centroid.xy, coarse.regions[i].geometry):
                membership[fr.id] = coarse.regions[i].id
                break
    assert len(membership) == nf, "oracle: a fine centroid lies in no coarse region"
    H = np.zeros((nc, nf))
    for j, fr in enumerate(fine.regions):
        H[coarse.ids.index(membership[fr.id]), j] = 1.0
    counts = H.sum(axis=1)
    assert np.all(counts > 0), "oracle: a coarse region has no fine members"
    return H / counts[:, None], membership


def assert_matches_oracle(coarse: Partition, fine: Partition) -> None:
    amap = build_aggregation(coarse, fine)
    H, membership = loop_aggregation(coarse, fine)
    assert np.array_equal(amap.H, H)
    assert amap.membership == membership


def test_aggregation_left_right_halves():
    left = Region(
        "A",
        [[np.array([[0, 0], [0.5, 0], [0.5, 1], [0, 1], [0, 0]], float)]],
        Location(0.25, 0.5),
        0.5,
    )
    right = Region(
        "B",
        [[np.array([[0.5, 0], [1, 0], [1, 1], [0.5, 1], [0.5, 0]], float)]],
        Location(0.75, 0.5),
        0.5,
    )
    coarse = Partition("coarse", (left, right))
    fine = grid_partition(2, 2, "fine")  # columns: (x0y0, x1y0, x0y1, x1y1)
    amap = build_aggregation(coarse, fine)
    expected = np.array([[0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5]])
    assert np.allclose(amap.H, expected, atol=1e-14)
    assert aggregate(amap, [1.0, 2.0, 3.0, 4.0]) == pytest.approx([2.0, 3.0])


def test_identical_partitions_give_identity():
    part = grid_partition(3, 3, "g")
    amap = build_aggregation(part, part)
    assert np.allclose(amap.H, np.eye(9), atol=1e-14)


def test_boundary_tie_breaks_to_lowest_coarse_id():
    # two coarse halves; one fine cell centered exactly on the split line
    left = Region(
        "B_right_named_later",
        [[np.array([[0, 0], [0.5, 0], [0.5, 1], [0, 1], [0, 0]], float)]],
        Location(0.25, 0.5),
        0.5,
    )
    right = Region(
        "A_lowest",
        [[np.array([[0.5, 0], [1, 0], [1, 1], [0.5, 1], [0.5, 0]], float)]],
        Location(0.75, 0.5),
        0.5,
    )
    coarse = Partition("coarse", (left, right))
    fine = point_partition("f", np.array([[0.5, 0.5], [0.25, 0.5], [0.75, 0.5]]))
    amap = build_aggregation(coarse, fine)
    assert amap.membership["f_000"] == "A_lowest"


def test_unassigned_fine_centroid_errors():
    coarse = point_partition("c", np.array([[0.5, 0.5]]), side=0.2)
    fine = point_partition("f", np.array([[0.5, 0.5], [5.0, 5.0]]))
    with pytest.raises(GeoValidationError, match="f_001"):
        build_aggregation(coarse, fine)


def test_empty_coarse_region_errors():
    coarse = Partition(
        "c", (square_region("A", 0, 0, 1.0), square_region("B", 10, 10, 1.0))
    )
    fine = point_partition("f", np.array([[0.3, 0.3], [0.7, 0.7]]))
    with pytest.raises(GeoValidationError, match="B"):
        build_aggregation(coarse, fine)


def _region(rid, polygons):
    """Region from polygons given as lists of rings of (x, y) vertex lists."""
    geometry = [[np.array(ring, dtype=float) for ring in rings] for rings in polygons]
    area, centroid = polygon_area_centroid(geometry)
    return Region(rid, geometry, Location(*centroid), area)


def _rect(x0, y0, x1, y1):
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]


# Each template tiles one 4 x 4 lattice slot with coarse regions, given as
# (polygons, a point strictly inside): rectangles on a grid, an L-shaped
# (concave) region with its corner, a ring around a square hole filled by a
# second region, two MultiPolygons of diagonal quadrants meeting at a vertex,
# and two triangles sharing a diagonal edge.
def _slot_template(kind, k):
    if kind == "grid":
        w = 4 // k
        return [
            ([[_rect(i * w, j * w, (i + 1) * w, (j + 1) * w)]], ((i + 0.5) * w, (j + 0.5) * w))
            for i in range(k)
            for j in range(k)
        ]
    if kind == "L":
        c = 4 - k
        ell = [[0, 0], [4, 0], [4, c], [c, c], [c, 4], [0, 4]]
        return [([[ell]], (0.5, 0.5)), ([[_rect(c, c, 4, 4)]], (4 - k / 2, 4 - k / 2))]
    if kind == "hole":
        inner = _rect(1, 1, 1 + k, 1 + k)
        return [([[_rect(0, 0, 4, 4), inner[::-1]]], (0.5, 0.5)), ([[inner]], (1 + k / 2, 1 + k / 2))]
    if kind == "multi":
        return [
            ([[_rect(0, 0, 2, 2)], [_rect(2, 2, 4, 4)]], (1.0, 1.0)),
            ([[_rect(2, 0, 4, 2)], [_rect(0, 2, 2, 4)]], (3.0, 1.0)),
        ]
    return [([[[[0, 0], [4, 0], [4, 4]]]], (3.0, 1.0)), ([[[[0, 0], [4, 4], [0, 4]]]], (1.0, 3.0))]


@st.composite
def tiled_partitions(draw):
    """A coarse partition tiling nx x ny slots, and point-like fine regions at
    the coarse interiors plus half-lattice points, many on edges and vertices.

    Vertices are (lattice + offset) * scale and fine points lattice * scale +
    offset * scale, so every edge is at least 1/16 long; with a scale that is
    not a power of two, points meant to lie on an edge or vertex miss it by
    rounding, and the boundary tolerance decides them.
    """
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    scale = draw(st.sampled_from([0.0625, 0.1, 1.0 / 3.0, 1.0, 2.7, 16.0]))
    offset = np.array([draw(st.integers(-8, 8)), draw(st.integers(-8, 8))], dtype=float)
    shapes, inner = [], []
    for sx in range(nx):
        for sy in range(ny):
            kind = draw(st.sampled_from(["grid", "L", "hole", "multi", "triangles"]))
            k = draw(st.sampled_from([1, 2, 4] if kind == "grid" else [1, 2, 3] if kind == "L" else [1, 2]))
            for polygons, point in _slot_template(kind, k):
                shift = np.array([4 * sx, 4 * sy])
                shapes.append([[np.asarray(ring) + shift for ring in rings] for rings in polygons])
                inner.append(np.asarray(point) + shift)
    regions = []
    ids = draw(st.permutations(range(len(shapes))))
    for rid, polygons in zip(ids, shapes):
        rings_out = []
        for rings in polygons:
            out = []
            for ring in rings:
                ring = np.roll(ring, draw(st.integers(0, len(ring) - 1)), axis=0)
                if draw(st.booleans()):
                    ring = ring[::-1]
                if draw(st.booleans()):
                    ring = np.vstack([ring, ring[:1]])
                out.append((ring + offset) * scale)
            rings_out.append(out)
        regions.append(_region(f"c{rid:02d}", rings_out))
    vertices = np.vstack([ring for region in regions for rings in region.geometry for ring in rings])
    half = draw(st.lists(st.tuples(st.integers(0, 8 * nx), st.integers(0, 8 * ny)), max_size=40))
    picks = draw(st.lists(st.integers(0, len(vertices) - 1), max_size=10))
    points = [np.asarray(p) * scale + offset * scale for p in inner]
    points += [np.asarray(p) / 2.0 * scale + offset * scale for p in half]
    points += [vertices[i] for i in picks]
    return Partition("coarse", tuple(regions)), point_partition("f", np.array(points))


@given(tiled_partitions())
@settings(max_examples=150, deadline=None)
def test_aggregation_matches_scalar_oracle(parts):
    assert_matches_oracle(*parts)


@pytest.mark.parametrize(
    "fine_shape, coarse_shape",
    [((24, 20), (8, 5)), ((20, 12), (5, 4)), ((40, 30), (8, 6))],
    ids=["fit_medium", "aux_heavy", "refine_large"],
)
def test_benchmark_shapes_match_scalar_oracle(fine_shape, coarse_shape):
    # partitions as the CLI reads them: grid GeoJSON with shoelace centroids
    fine = load_partition(partition_to_geojson(grid_partition(*fine_shape, "fine")))
    coarse = load_partition(partition_to_geojson(grid_partition(*coarse_shape, "coarse")))
    assert_matches_oracle(coarse, fine)


@pytest.mark.parametrize("repeat", [[1.0, 0.0], [1.0 + 1e-13, 0.0], [1.0, 1e-13]])
def test_degenerate_edge_claims_only_nearby_centroids(repeat):
    # A's ring repeats its vertex (1, 0), exactly or 1e-13 apart; the zero or
    # near-zero edge must not put far-away centroids on A's boundary
    ring = [[0, 0], [1, 0], repeat, [1, 1], [0, 1], [0, 0]]
    coarse = Partition(
        "c", (_region("A", [[ring]]), square_region("B", 5.5, 2.5), square_region("C", 49.5, 49.5))
    )
    fine = point_partition("f", np.array([[0.5, 0.5], [1.0, 0.0], [6.0, 3.0], [50.0, 50.0]]))
    amap = build_aggregation(coarse, fine)
    assert amap.membership == {"f_000": "A", "f_001": "A", "f_002": "B", "f_003": "C"}


def test_aggregate_constant_field(grid_amap_2x2_over_4x4):
    amap = grid_amap_2x2_over_4x4
    out = aggregate(amap, np.full(16, 3.25))
    assert np.allclose(out, 3.25, atol=1e-14)


def test_aggregate_ones_row_sums(grid_amap_2x2_over_4x4):
    out = aggregate(grid_amap_2x2_over_4x4, np.ones(16))
    assert np.array_equal(out, np.ones(4))


def test_aggregate_length_mismatch(grid_amap_2x2_over_4x4):
    with pytest.raises(GeoValidationError):
        aggregate(grid_amap_2x2_over_4x4, np.ones(5))


def test_column_sparsity(grid_amap_2x2_over_4x4):
    H = grid_amap_2x2_over_4x4.H
    assert np.all((H > 0).sum(axis=0) == 1)


def test_aggregation_map_invariant_validation():
    part = grid_partition(2, 1, "p")
    bad = np.array([[0.5, 0.6], [0.4, 0.5]])
    with pytest.raises(GeoValidationError):
        AggregationMap(coarse=part, fine=part, H=bad, membership={})
    with pytest.raises(GeoValidationError):
        AggregationMap(coarse=part, fine=part, H=-np.eye(2), membership={})


def test_dataset_csv_round_trip(tmp_path):
    part = grid_partition(2, 2, "g")
    d = ArealDataset(part, [1.5, -2.25, 0.1, 4.0])
    path = tmp_path / "d.csv"
    save_dataset(d, path)
    back = load_dataset(part, path)
    assert np.array_equal(back.values, d.values)


def test_dataset_csv_id_mismatch(tmp_path):
    part = grid_partition(2, 1, "g")
    path = tmp_path / "d.csv"
    path.write_text("region_id,value\ng_000_000,1.0\nwrong_id,2.0\n")
    with pytest.raises(GeoValidationError, match="wrong_id"):
        load_dataset(part, path)


def test_dataset_csv_bad_header(tmp_path):
    part = grid_partition(2, 1, "g")
    path = tmp_path / "d.csv"
    path.write_text("id,val\ng_000_000,1.0\n")
    with pytest.raises(GeoParseError):
        load_dataset(part, path)


def test_aggregation_csv_round_trip(tmp_path, grid_amap_2x2_over_4x4):
    amap = grid_amap_2x2_over_4x4
    path = tmp_path / "H.csv"
    save_aggregation_csv(amap, path)
    back = load_aggregation_csv(amap.coarse, amap.fine, path)
    assert np.array_equal(back.H, amap.H)
    assert back.membership == amap.membership


def test_aggregation_csv_rejects_multi_membership(tmp_path):
    coarse = grid_partition(2, 1, "c")
    fine = grid_partition(2, 1, "f")
    path = tmp_path / "H.csv"
    ids = fine.ids
    path.write_text(
        f",{ids[0]},{ids[1]}\n{coarse.ids[0]},0.5,0.5\n{coarse.ids[1]},0.5,0.5\n"
    )
    with pytest.raises(GeoValidationError, match="exactly one nonzero"):
        load_aggregation_csv(coarse, fine, path)
