import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    partition_of,
    point_partition,
    polygon_area_centroid,
    save_aggregation_csv,
    square_region,
)
from finescale import geo
from finescale.evaluate import grid_partition
from finescale.geo import (
    AggregationMap,
    ArealDataset,
    GeoParseError,
    GeoValidationError,
    InputError,
    Partition,
    Region,
    build_aggregation,
    json_value,
    load_aggregation_csv,
    load_dataset,
    load_partition,
    partition_to_geojson,
    save_dataset,
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
    assert part.centroids[0] == pytest.approx([0.5, 0.5], abs=1e-14)
    area, centroid = polygon_area_centroid(part.regions[0].geometry)
    assert area == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(centroid, part.centroids[0])


def test_l_shape_centroid_and_area():
    part = load_partition(collection(feature("L", L_SHAPE)))
    # decomposition oracle: [0,2]x[0,1] (area 2, centroid (1, 1/2)) union
    # [0,1]x[1,2] (area 1, centroid (1/2, 3/2)) -> (2*1 + 0.5)/3 = 5/6 per axis
    assert part.centroids[0] == pytest.approx([5.0 / 6.0, 5.0 / 6.0], abs=1e-12)
    assert polygon_area_centroid(part.regions[0].geometry)[0] == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize(
    "centroids, message",
    [([[0.5, 0.5]], r"shape \(1, 2\) for 2 regions"), ([[0.5, 0.5, 0.0]] * 2, r"shape \(2, 3\)"),
     ([[0.5, 0.5], [np.nan, 0.5]], "non-finite centroids")],
    ids=["one-row", "three-columns", "nan"],
)
def test_partition_checks_its_centroids(centroids, message):
    regions = (square_region("A", 0, 0), square_region("B", 1, 0))
    with pytest.raises(GeoValidationError, match=message):
        Partition("p", regions, centroids)


def test_duplicate_ids_rejected():
    doc = collection(feature("A", UNIT_SQUARE), feature("A", L_SHAPE))
    with pytest.raises(GeoValidationError, match="duplicate"):
        load_partition(doc)


def test_degenerate_polygon_names_region():
    bad = feature("BAD", [[0, 0], [1, 1], [2, 2], [0, 0]])
    with pytest.raises(GeoValidationError, match="BAD"):
        load_partition(collection(bad))


def test_malformed_document_rejected(tmp_path):
    path = tmp_path / "broken.geojson"
    for text in ("{not json", "[1, 2]"):
        path.write_text(text)
        with pytest.raises(GeoParseError, match="broken.geojson"):
            load_partition(path)
    with pytest.raises(GeoParseError):
        load_partition({"type": "Point"})


@pytest.mark.parametrize(
    "bad, message",
    [
        (["not a feature"], "feature 0 is not an object"),
        ([feature("A", UNIT_SQUARE), 7], "feature 1 is not an object"),
        ([{**feature("A", UNIT_SQUARE), "properties": [1]}], "feature 0 is not an object"),
        ([feature("A", ["ab", "cd", "ef"])], "region 'A': ring is not an array of numeric"),
        ([feature("A", [[0, 0], [1, "x"], [1, 1]])], "region 'A': ring is not an array of numeric"),
        ([feature("A", [0, 1, 2])], "region 'A': ring is not an array of positions"),
        ([{**feature("A", UNIT_SQUARE), "geometry": {"type": "Polygon", "coordinates": 5}}],
         "region 'A': Polygon coordinates are not arrays of rings"),
    ],
)
def test_malformed_features_name_the_file(tmp_path, bad, message):
    path = tmp_path / "bad.geojson"
    path.write_text(json.dumps(collection(*bad)))
    with pytest.raises(GeoParseError, match=f"bad.geojson: {message}"):
        load_partition(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_non_finite_vertex_names_the_region(tmp_path, literal):
    # json reads both literals as floats; the ring check refuses them before
    # any area arithmetic, which would warn on an infinite vertex
    path = tmp_path / "x.geojson"
    ring = [[1, 0], [2, 0], [2, float(literal)], [1, 1]]
    path.write_text(json.dumps(collection(feature("A", UNIT_SQUARE), feature("B", ring))))
    assert literal in path.read_text()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            GeoParseError, match="x.geojson: region 'B': ring has a non-finite coordinate"
        ):
            load_partition(path)


def test_hole_reduces_area():
    outer = [[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]]
    hole = [[1, 1], [2, 1], [2, 2], [1, 2], [1, 1]]
    doc = {
        "type": "Feature",
        "properties": {"id": "H"},
        "geometry": {"type": "Polygon", "coordinates": [outer, hole]},
    }
    part = load_partition(collection(doc))
    assert polygon_area_centroid(part.regions[0].geometry)[0] == pytest.approx(15.0, abs=1e-12)


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

    def area_centroid(ring):
        return polygon_area_centroid(Region("L", [[ring]]).geometry)

    area0, cent0 = area_centroid(base)
    area_t, cent_t = area_centroid(base + np.array([dx, dy]))
    assert cent_t == pytest.approx(cent0 + np.array([dx, dy]), abs=1e-8)
    area_s, _ = area_centroid(base * c)
    assert area_s == pytest.approx(area0 * c * c, rel=1e-9)


# The shoelace area and centroid of one ring as computed before rings were
# closed at construction: every call dropped a last vertex within np.allclose
# of the first and wrapped around with np.roll. Kept as the oracle for the
# closed rings that Region holds.
def roll_ring_area_centroid(ring: np.ndarray) -> tuple[float, np.ndarray]:
    """Signed shoelace area and area-weighted centroid of one closed ring."""
    r = np.asarray(ring, dtype=float)
    if r.shape[0] >= 2 and np.allclose(r[0], r[-1]):
        r = r[:-1]
    if r.shape[0] < 3:
        raise GeoParseError(f"ring needs >= 3 distinct vertices, got {r.shape[0]}")
    x, y = r[:, 0], r[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * float(np.sum(cross))
    if area == 0.0:
        return 0.0, r.mean(axis=0)
    cx = float(np.sum((x + xn) * cross)) / (6.0 * area)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * area)
    return area, np.array([cx, cy])


def closed_ring(ring) -> np.ndarray:
    """ring closed by geo._closed_rings, or its GeoParseError raised."""
    [closed] = geo._closed_rings([ring])
    if isinstance(closed, GeoParseError):
        raise closed
    return closed


def assert_closed_like_oracle(ring, closed: np.ndarray) -> None:
    """closed is ring under the ring rule, and its area and centroid are the oracle's."""
    assert closed.dtype == float and closed.shape[1] == 2
    assert np.array_equal(closed[-1], closed[0])
    (area,), (centroid,) = geo._ring_areas_centroids(closed[None])
    oracle_area, oracle_centroid = roll_ring_area_centroid(ring)
    assert area == oracle_area
    assert np.array_equal(centroid, oracle_centroid)


OPEN_RING = [[0.0, 0.0], [3.0, 0.2], [2.5, 2.0], [0.4, 1.7]]


@pytest.mark.parametrize(
    "last, kept",
    [(None, False), ([0.0, 0.0], False), ([1e-9, -1e-9], False), ([1e-3, 0.0], True)],
    ids=["open", "exactly_closed", "last_1e-9_off", "last_1e-3_off"],
)
def test_region_closes_each_ring_once(last, kept):
    ring = OPEN_RING + ([last] if last else [])
    (closed,) = _region("R", [[ring]]).geometry[0]
    assert_closed_like_oracle(ring, closed)
    # a last vertex within allclose of the first is replaced by an exact copy of it
    assert closed.tolist() == OPEN_RING + ([last] if kept else []) + [OPEN_RING[0]]


@given(
    n=st.integers(3, 9),
    scale=st.sampled_from([1e-3, 1.0, 37.0]),
    closing=st.sampled_from(["open", "exact", "near", "far"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_closed_ring_area_centroid_match_roll_oracle(n, scale, closing, seed):
    ring = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 2)) * scale
    if closing != "open":
        offset = {"exact": 0.0, "near": 1e-9, "far": 1e-3}[closing] * scale
        ring = np.vstack([ring, ring[:1] + offset])
    assert_closed_like_oracle(ring, closed_ring(ring))


def test_collinear_ring_takes_vertex_mean_like_oracle():
    ring = [[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [0.0, 0.0]]
    assert_closed_like_oracle(ring, closed_ring(ring))


def test_every_ring_is_closed_at_construction():
    loaded = load_partition(collection(feature("A", OPEN_RING), feature("L", L_SHAPE)))
    for part in (loaded, grid_partition(3, 2, "g"), partition_of("s", [square_region("S", 1, 2)])):
        for region in part.regions:
            for rings in region.geometry:
                for ring in rings:
                    assert ring.dtype == float and np.array_equal(ring[-1], ring[0])


def test_load_closes_each_ring_once(monkeypatch):
    calls = []
    close = geo._closed_rings
    monkeypatch.setattr(geo, "_closed_rings", lambda rings: calls.append(len(rings)) or close(rings))
    hole = [[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]]
    multi = {
        "type": "Feature",
        "properties": {"id": "M"},
        "geometry": {
            "type": "MultiPolygon",
            "coordinates": [[[[4, 0], [5, 0], [5, 1], [4, 0]]], [[[6, 0], [7, 0], [7, 1], [6, 0]]]],
        },
    }
    with_hole = feature("H", [[0, 0], [2, 0], [2, 2], [0, 2]])
    with_hole["geometry"]["coordinates"].append(hole)
    doc = collection(feature("A", OPEN_RING), feature("L", L_SHAPE), with_hole, multi)
    part = load_partition(doc)
    # one call for the document, on A, L, H's outer ring and hole, M's two polygons
    assert calls == [6]
    # the centroids are those of polygon_area_centroid on the rings Region closes
    want = [
        polygon_area_centroid(Region("R", geo._geometry_rings(f["geometry"])).geometry)[1]
        for f in doc["features"]
    ]
    assert np.array_equal(part.centroids, np.array(want))


@pytest.mark.parametrize("ring", [[[0, 0], [1, 0], [0, 0]], [[0, 0], [1, 0]], [[2, 2]]])
def test_ring_needs_three_distinct_vertices(ring):
    with pytest.raises(GeoParseError, match=">= 3 distinct vertices"):
        Region("R", [[ring]])
    with pytest.raises(GeoParseError, match=">= 3 distinct vertices"):
        load_partition(collection(feature("R", ring)))


def star_ring(rng, center, radius: float, n: int) -> np.ndarray:
    """n vertices at spread angles and radii 0.6 to 1 times radius, in either turning sense."""
    angles = 2 * np.pi * (np.arange(n) + rng.uniform(0.0, 0.8, size=n)) / n
    r = radius * rng.uniform(0.6, 1.0, size=n)
    ring = center + np.column_stack([r * np.cos(angles), r * np.sin(angles)])
    return ring if rng.random() < 0.5 else ring[::-1]


def collinear_ring(rng, center, n: int) -> np.ndarray:
    """n distinct integer points on one line: every cross product, so the area, is exactly 0."""
    step = rng.integers(1, 4, size=2) * rng.choice([-1, 1], size=2)
    t = np.sort(rng.choice(np.arange(-20, 21), size=n, replace=False))
    return np.round(center) + t[:, None] * step


# A region of each kind; "degenerate" has only a zero-area ring.
REGION_KINDS = ["polygon", "holes", "multi", "collinear_hole", "collinear_part", "degenerate"]


@st.composite
def partition_documents(draw, degenerate: bool = True):
    """A FeatureCollection of 1 to 12 regions of the kinds in REGION_KINDS,
    with rings of 3 to 64 vertices, at an offset of up to 1e6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1e3, 1e6])) * rng.uniform(-1.0, 1.0, size=2)
    kinds = REGION_KINDS if degenerate else REGION_KINDS[:-1]
    features = []
    for k in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(kinds))
        sizes = draw(st.lists(st.integers(3, 64), min_size=3, max_size=3))
        center = offset + 10.0 * np.array([k % 4, k // 4])
        radius = rng.uniform(0.5, 3.0)
        outer = star_ring(rng, center, radius, sizes[0])
        polygons = [[outer]]
        if kind == "holes":
            polygons[0] += [star_ring(rng, center, 0.15 * radius, n) for n in sizes[1:]]
        elif kind == "multi":
            polygons += [[star_ring(rng, center + 4.0, 0.5, n)] for n in sizes[1:]]
        elif kind == "collinear_hole":
            polygons[0].append(collinear_ring(rng, center, min(sizes[1], 41)))
        elif kind == "collinear_part":
            polygons.append([collinear_ring(rng, center + 4.0, min(sizes[1], 41))])
        elif kind == "degenerate":
            polygons = [[collinear_ring(rng, center, min(sizes[1], 41))]]
        # closed exactly, so that no last vertex is taken for the closing one
        coords = [[np.vstack([ring, ring[:1]]).tolist() for ring in rings] for rings in polygons]
        geometry = (
            {"type": "Polygon", "coordinates": coords[0]}
            if len(coords) == 1
            else {"type": "MultiPolygon", "coordinates": coords}
        )
        features.append({"type": "Feature", "properties": {"id": f"r{k}"}, "geometry": geometry})
    return collection(*features)


@given(doc=partition_documents())
@settings(max_examples=150, deadline=None)
def test_load_partition_centroids_are_the_per_region_oracle_bit_for_bit(doc):
    # the rings are grouped by length, so a region's rings are worked out of
    # order and beside other regions' rings: every centroid keeps its bits,
    # and the first degenerate region in document order is the one named
    want, first_bad = [], None
    for f in doc["features"]:
        region = Region(f["properties"]["id"], geo._geometry_rings(f["geometry"]))
        try:
            want.append(polygon_area_centroid(region.geometry)[1])
        except GeoValidationError:
            first_bad = first_bad or region.id
    if first_bad is not None:
        with pytest.raises(GeoValidationError, match=f"region '{first_bad}': degenerate"):
            load_partition(doc)
        return
    part = load_partition(doc)
    assert np.array_equal(part.centroids, np.array(want))


@given(doc=partition_documents(degenerate=False), data=st.data())
@settings(max_examples=50, deadline=None)
def test_shuffled_features_permute_the_centroids_bit_for_bit(doc, data):
    order = data.draw(st.permutations(range(len(doc["features"]))))
    shuffled = collection(*(doc["features"][k] for k in order))
    part, moved = load_partition(doc), load_partition(shuffled)
    assert moved.ids == [part.ids[k] for k in order]
    assert np.array_equal(moved.centroids, part.centroids[list(order)])


def test_a_degenerate_region_before_a_malformed_one_is_named_first():
    bad = feature("BAD", [[0, 0], [1, 1], [2, 2], [0, 0]])
    malformed = feature("M", [[0, 0], [1, 0]])
    with pytest.raises(GeoValidationError, match="'BAD': degenerate"):
        load_partition(collection(feature("A", UNIT_SQUARE), bad, malformed))
    with pytest.raises(GeoParseError, match="'M'"):
        load_partition(collection(malformed, bad))


@pytest.mark.parametrize(
    "value, shown",
    [("0.5", "'0.5' is a str"), (True, "True is a bool"), (False, "False is a bool")],
)
def test_string_and_boolean_coordinates_are_refused(tmp_path, value, shown):
    # numpy would read all three as numbers; B is read with A, of its length
    ring = [[0, 0], [1, 0], [1, value], [0, 1], [0, 0]]
    message = f"region 'B': ring is not an array of numeric positions: coordinate {shown}"
    path = tmp_path / "x.geojson"
    path.write_text(json.dumps(collection(feature("A", UNIT_SQUARE), feature("B", ring))))
    with pytest.raises(GeoParseError, match=f"x.geojson: {message}"):
        load_partition(path)
    # also as a third coordinate, and in a Region built directly
    z_ring = [[x, y, 0] for x, y in UNIT_SQUARE]
    z_ring[1][2] = value
    with pytest.raises(GeoParseError, match=message.replace("'B'", "'Z'")):
        load_partition(collection(feature("A", UNIT_SQUARE), feature("Z", z_ring)))
    with pytest.raises(GeoParseError, match=f"coordinate {shown}"):
        Region("R", [[ring]])


@pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["10**400", "-10**400"])
def test_an_integer_coordinate_too_large_for_a_float_is_refused(tmp_path, big):
    # numpy raised OverflowError on it, which escaped as a traceback
    ring = [[0, 0], [1, 0], [1, big], [0, 1], [0, 0]]
    message = "region 'B': ring is not an array of numeric positions: int too large"
    path = tmp_path / "x.geojson"
    path.write_text(json.dumps(collection(feature("A", UNIT_SQUARE), feature("B", ring))))
    with pytest.raises(GeoParseError, match=f"x.geojson: {message}"):
        load_partition(path)
    # alone in its length group, and in a Region built directly
    with pytest.raises(GeoParseError, match=message):
        load_partition(collection(feature("A", UNIT_SQUARE[:-1]), feature("B", ring)))
    with pytest.raises(GeoParseError, match="int too large"):
        Region("R", [[ring]])


@pytest.mark.parametrize(
    "value",
    [10**400, -(10**400), float("inf"), float("nan"), True, "1"],
    ids=["10**400", "-10**400", "inf", "nan", "True", "str"],
)
def test_json_value_refuses_what_is_not_a_finite_float(value):
    with pytest.raises(InputError, match="models.json: key 'w' must be a finite number"):
        json_value({"w": value}, "w", float, "models.json")


def test_json_value_reads_the_largest_finite_numbers():
    big = int(np.finfo(float).max)
    assert json_value({"w": big}, "w", float, "m") == np.finfo(float).max
    assert json_value({"w": -big}, "w", float, "m") == -np.finfo(float).max
    assert json_value({"w": 3}, "w", float, "m") == 3.0


def test_grid_partition_is_its_cells_built_one_region_at_a_time():
    # grid_partition closes every cell's ring in one call: the rings, ids and
    # centroids of building each cell's Region on its own, bit for bit
    nx, ny = 4, 3
    part = grid_partition(nx, ny, "g")
    dx, dy = 1.0 / nx, 1.0 / ny
    k = 0
    for iy in range(ny):
        for ix in range(nx):
            x0, y0 = ix * dx, iy * dy
            ring = [[x0, y0], [x0 + dx, y0], [x0 + dx, y0 + dy], [x0, y0 + dy], [x0, y0]]
            want = Region(id=f"g_{iy:03d}_{ix:03d}", geometry=[[np.array(ring)]])
            got = part.regions[k]
            assert got.id == want.id
            [[got_ring]], [[want_ring]] = got.geometry, want.geometry
            assert got_ring.tobytes() == want_ring.tobytes() and got_ring.shape == (5, 2)
            assert part.centroids[k].tolist() == [x0 + dx / 2, y0 + dy / 2]
            k += 1
    assert len(part) == k


# The per-ring closer that load_partition and Region called once per ring
# before rings were closed per length group, kept as the oracle for
# geo._closed_rings.
def scalar_closed_ring(ring) -> np.ndarray:
    try:
        r = np.asarray(ring, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GeoParseError(f"ring is not an array of numeric positions: {exc}") from exc
    if r.ndim != 2 or r.shape[1] < 2:
        raise GeoParseError(f"ring is not an array of positions, got shape {r.shape}")
    r = r[:, :2]
    if not np.isfinite(r).all():
        raise GeoParseError("ring has a non-finite coordinate")
    if len(r) >= 2:
        (x0, y0), (xk, yk) = r[0].tolist(), r[-1].tolist()
        if abs(x0 - xk) <= 1e-8 + 1e-5 * abs(xk) and abs(y0 - yk) <= 1e-8 + 1e-5 * abs(yk):
            r = r[:-1]
    if len(r) < 3:
        raise GeoParseError(f"ring needs >= 3 distinct vertices, got {len(r)}")
    return np.concatenate([r, r[:1]])


def feature_by_feature(doc: dict):
    """(closed geometries, centroids) of the regions of doc, or the error,
    as the parser that closed one ring and one region at a time gave them."""
    geometries, error = [], None
    for k, feat in enumerate(doc["features"]):
        try:
            rid, polygons = geo._feature_geometry(k, feat)
            try:
                geometries.append(
                    (rid, [[scalar_closed_ring(ring) for ring in rings] for rings in polygons])
                )
            except GeoParseError as exc:
                raise GeoParseError(f"region {rid!r}: {exc}") from exc
        except (GeoParseError, GeoValidationError) as exc:
            error = exc
            break
    centroids = []
    for rid, geometry in geometries:
        try:
            centroids.append(polygon_area_centroid(geometry)[1])
        except GeoValidationError as exc:
            return GeoValidationError(f"region {rid!r}: {exc}")
    return error or ([g for _, g in geometries], np.array(centroids))


MALFORMED_RINGS = {
    "two_distinct": [[0, 0], [1, 0], [0, 0]],
    "one_vertex": [[2, 2]],
    "nan": [[0, 0], [1, 0], [1, float("nan")], [0, 1]],
    "inf_ends": [[float("inf"), 0], [1, 0], [1, 1], [float("inf"), 0]],
    "word": [[0, 0], [1, "x"], [1, 1]],
    "flat": [0, 1, 2],
    "one_number_positions": [[0], [1], [2]],
    "ragged": [[0, 0], [1, 0, 5], [1, 1]],
    "nested": [[[0, 0]], [[1, 0]], [[1, 1]]],
    "empty": [],
    "number": 5,
}
MALFORMED_FEATURES = {
    "not_an_object": 7,
    "no_id": {"type": "Feature", "properties": {}, "geometry": {"type": "Polygon"}},
    "point": {"type": "Feature", "properties": {"id": "P"}, "geometry": {"type": "Point"}},
}


@st.composite
def ring_documents(draw):
    """A FeatureCollection of 1 to 10 regions whose rings mix 3 to 7 vertices;
    open, exactly, nearly and not quite closed ends; 2 or 3 coordinates per
    position, a third one sometimes not finite; integer and float coordinates;
    holes, MultiPolygon parts and collinear rings. Up to 3 rings or features
    may be replaced by malformed ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = []
    for k in range(draw(st.integers(1, 10))):
        center = 10.0 * np.array([k % 4, k // 4])
        polygons = []
        for part in range(draw(st.integers(1, 2))):
            rings = []
            for hole in range(draw(st.integers(1, 3))):
                n = draw(st.integers(3, 7))
                radius = 2.0 if hole == 0 else 0.3
                if draw(st.integers(0, 9)) == 0:
                    ring = collinear_ring(rng, center, n)
                else:
                    ring = star_ring(rng, center + 4.0 * part, radius, n)
                    if draw(st.booleans()):
                        ring = np.round(ring)  # integer coordinates, maybe repeated
                closing = draw(st.sampled_from(["open", "exact", "near", "far"]))
                if closing != "open":
                    offset = {"exact": 0.0, "near": 1e-9, "far": 1e-3}[closing]
                    ring = np.vstack([ring, ring[:1] + offset])
                positions = ring.tolist()
                if draw(st.booleans()):
                    z = draw(st.sampled_from([0, 1.5, float("nan"), float("inf")]))
                    positions = [[x, y, z] for x, y in positions]
                if not any(isinstance(v, float) for p in positions for v in p):
                    positions = [[int(v) for v in p] for p in positions]
                rings.append(positions)
            polygons.append(rings)
        geometry = (
            {"type": "Polygon", "coordinates": polygons[0]}
            if len(polygons) == 1
            else {"type": "MultiPolygon", "coordinates": polygons}
        )
        features.append({"type": "Feature", "properties": {"id": f"r{k}"}, "geometry": geometry})
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(features) - 1))
        if draw(st.integers(0, 3)) == 0:
            features[k] = MALFORMED_FEATURES[draw(st.sampled_from(sorted(MALFORMED_FEATURES)))]
        elif isinstance(features[k], dict) and "coordinates" in features[k]["geometry"]:
            geometry = features[k]["geometry"]
            polygons = geometry["coordinates"]
            rings = polygons if geometry["type"] == "Polygon" else polygons[-1]
            rings[draw(st.integers(0, len(rings) - 1))] = MALFORMED_RINGS[
                draw(st.sampled_from(sorted(MALFORMED_RINGS)))
            ]
    return collection(*features)


@given(doc=ring_documents())
@settings(max_examples=200, deadline=None)
def test_rings_closed_per_length_are_the_per_ring_oracle_bit_for_bit(doc):
    # rings of every region are closed in one call, grouped by length and
    # position size: each ring and centroid keeps the per-ring closer's bits,
    # and a malformed document its first error, type and message
    want = feature_by_feature(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no floating-point warning
        if isinstance(want, Exception):
            with pytest.raises(type(want)) as raised:
                load_partition(doc)
            assert str(raised.value) == str(want)
            return
        part = load_partition(doc)
    geometries, centroids = want
    assert np.array_equal(part.centroids, centroids)
    for region, geometry in zip(part.regions, geometries):
        assert [len(rings) for rings in region.geometry] == [len(rings) for rings in geometry]
        for rings, oracle_rings in zip(region.geometry, geometry):
            for ring, oracle in zip(rings, oracle_rings):
                assert ring.dtype == float and ring.flags.c_contiguous
                assert ring.shape == oracle.shape and ring.tobytes() == oracle.tobytes()


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
    """H and fine id -> coarse id from the scalar test, lowest coarse id first."""
    nc, nf = len(coarse), len(fine)
    order = sorted(range(nc), key=lambda i: coarse.regions[i].id)
    membership = {}
    for fr, centroid in zip(fine.regions, fine.centroids):
        for i in order:
            if point_in_polygon(centroid, coarse.regions[i].geometry):
                membership[fr.id] = coarse.regions[i].id
                break
    assert len(membership) == nf, "oracle: a fine centroid lies in no coarse region"
    H = np.zeros((nc, nf))
    for j, fr in enumerate(fine.regions):
        H[coarse.ids.index(membership[fr.id]), j] = 1.0
    counts = H.sum(axis=1)
    assert np.all(counts > 0), "oracle: a coarse region has no fine members"
    return H / counts[:, None], membership


def holders(amap: AggregationMap) -> dict:
    """Fine id -> coarse id, read from the one nonzero in each column of H."""
    cols, rows = np.nonzero(amap.H.T)
    assert np.array_equal(cols, np.arange(len(amap.fine))), "a column without exactly one nonzero"
    return {amap.fine.ids[j]: amap.coarse.ids[i] for j, i in zip(cols, rows)}


def assert_matches_oracle(coarse: Partition, fine: Partition) -> None:
    amap = build_aggregation(coarse, fine)
    H, membership = loop_aggregation(coarse, fine)
    assert np.array_equal(amap.H, H)
    assert holders(amap) == membership


def test_aggregation_left_right_halves():
    left = Region(
        "A", [[np.array([[0, 0], [0.5, 0], [0.5, 1], [0, 1], [0, 0]], float)]]
    )
    right = Region(
        "B", [[np.array([[0.5, 0], [1, 0], [1, 1], [0.5, 1], [0.5, 0]], float)]]
    )
    coarse = partition_of("coarse", (left, right))
    fine = grid_partition(2, 2, "fine")  # columns: (x0y0, x1y0, x0y1, x1y1)
    amap = build_aggregation(coarse, fine)
    expected = np.array([[0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5]])
    assert np.allclose(amap.H, expected, atol=1e-14)
    assert amap.H @ [1.0, 2.0, 3.0, 4.0] == pytest.approx([2.0, 3.0])


def test_identical_partitions_give_identity():
    part = grid_partition(3, 3, "g")
    amap = build_aggregation(part, part)
    assert np.allclose(amap.H, np.eye(9), atol=1e-14)


def test_boundary_tie_breaks_to_lowest_coarse_id():
    # two coarse halves; one fine cell centered exactly on the split line
    left = Region(
        "B_right_named_later", [[np.array([[0, 0], [0.5, 0], [0.5, 1], [0, 1], [0, 0]], float)]]
    )
    right = Region(
        "A_lowest", [[np.array([[0.5, 0], [1, 0], [1, 1], [0.5, 1], [0.5, 0]], float)]]
    )
    coarse = partition_of("coarse", (left, right))
    fine = point_partition("f", np.array([[0.5, 0.5], [0.25, 0.5], [0.75, 0.5]]))
    amap = build_aggregation(coarse, fine)
    assert holders(amap)["f_000"] == "A_lowest"


def test_unassigned_fine_centroid_errors():
    coarse = point_partition("c", np.array([[0.5, 0.5]]), side=0.2)
    fine = point_partition("f", np.array([[0.5, 0.5], [5.0, 5.0]]))
    with pytest.raises(GeoValidationError, match="f_001"):
        build_aggregation(coarse, fine)


def test_empty_coarse_region_errors():
    coarse = partition_of("c", (square_region("A", 0, 0, 1.0), square_region("B", 10, 10, 1.0)))
    fine = point_partition("f", np.array([[0.3, 0.3], [0.7, 0.7]]))
    with pytest.raises(GeoValidationError, match="B"):
        build_aggregation(coarse, fine)


def _region(rid, polygons):
    """Region from polygons given as lists of rings of (x, y) vertex lists."""
    return Region(rid, [[np.array(ring, dtype=float) for ring in rings] for rings in polygons])


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
    return partition_of("coarse", regions), point_partition("f", np.array(points))


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
    coarse = partition_of(
        "c", (_region("A", [[ring]]), square_region("B", 5.5, 2.5), square_region("C", 49.5, 49.5))
    )
    fine = point_partition("f", np.array([[0.5, 0.5], [1.0, 0.0], [6.0, 3.0], [50.0, 50.0]]))
    amap = build_aggregation(coarse, fine)
    assert holders(amap) == {"f_000": "A", "f_001": "A", "f_002": "B", "f_003": "C"}


def test_aggregate_constant_field(grid_amap_2x2_over_4x4):
    amap = grid_amap_2x2_over_4x4
    out = amap.H @ np.full(16, 3.25)
    assert np.allclose(out, 3.25, atol=1e-14)


def test_aggregate_ones_row_sums(grid_amap_2x2_over_4x4):
    out = grid_amap_2x2_over_4x4.H @ np.ones(16)
    assert np.array_equal(out, np.ones(4))


def test_column_sparsity(grid_amap_2x2_over_4x4):
    H = grid_amap_2x2_over_4x4.H
    assert np.all((H > 0).sum(axis=0) == 1)


def test_aggregation_map_invariant_validation():
    part = grid_partition(2, 1, "p")
    bad = np.array([[0.5, 0.6], [0.4, 0.5]])
    with pytest.raises(GeoValidationError):
        AggregationMap(coarse=part, fine=part, H=bad)
    with pytest.raises(GeoValidationError):
        AggregationMap(coarse=part, fine=part, H=-np.eye(2))


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
    assert holders(back) == holders(amap)


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
