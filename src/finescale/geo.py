"""Partition geometry, areal datasets, the coarse-over-fine aggregation matrix,
and the checked reads of input files."""

from __future__ import annotations

import csv
import json
import sys
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np


class InputError(ValueError):
    """An input from outside the program is malformed or inconsistent.

    The base of the library's input errors; the CLI exits 2 on it.
    """


class GeoParseError(InputError):
    """Input document is not a usable geometry collection."""


class GeoValidationError(InputError):
    """Geometry or dataset violates a structural invariant."""


_JSON_KINDS = {float: "a finite number", str: "a string", list: "an array", dict: "an object"}

# The largest |log| a parameter read from a file may have: exp(+-300) squared is
# still a normal float, so the parameter and its square are finite and nonzero.
LOG_PARAM_MAX = 300.0


def json_value(record, key: str, kind: type, where: str, default=None):
    """``record[key]`` of a parsed JSON document, checked to be a ``kind``:
    float (a finite number, not a boolean; returned as a float), str, list or dict.

    A missing key gives ``default`` when one is set. Otherwise a record that
    is not an object, a missing key or a value of another kind raises
    InputError naming ``where`` and the key.
    """
    if not isinstance(record, dict):
        raise InputError(f"{where}: expected a JSON object")
    if key not in record:
        if default is not None:
            return default
        raise InputError(f"{where}: missing key {key!r}")
    value = record[key]
    if kind is float:
        # NaN, the infinities and an int too large for a float all fail the bound
        if (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
        ):
            return float(value)
    elif isinstance(value, kind):
        return value
    raise InputError(f"{where}: key {key!r} must be {_JSON_KINDS[kind]}, got {value!r}")


def json_log(record, key: str, where: str) -> float:
    """The log of a positive parameter, read as ``json_value`` reads a float and
    within +-LOG_PARAM_MAX."""
    value = json_value(record, key, float, where)
    if abs(value) > LOG_PARAM_MAX:
        raise InputError(f"{where}: key {key!r} is {value!r}, outside +-{LOG_PARAM_MAX:g}")
    return value


# Coordinate types that numpy would read as numbers but a ring may not hold.
_NOT_NUMBERS = (str, bytes, bool, np.bool_)


def _ring_array(ring) -> np.ndarray:
    """The ring as a float (k, d) array of k positions of d >= 2 numbers.

    A ring that numpy cannot read so, or that holds a string or a boolean
    coordinate, raises GeoParseError saying why.
    """
    try:
        r = np.asarray(ring, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # an int too large for a float
        raise GeoParseError(f"ring is not an array of numeric positions: {exc}") from exc
    if r.ndim != 2 or r.shape[1] < 2:
        raise GeoParseError(f"ring is not an array of positions, got shape {r.shape}")
    for value in chain.from_iterable(ring):
        if isinstance(value, _NOT_NUMBERS):
            raise GeoParseError(
                f"ring is not an array of numeric positions: coordinate {value!r} "
                f"is a {type(value).__name__}"
            )
    return r


def _group_array(group: list) -> np.ndarray | None:
    """The rings of one length k and position size d as one float (m, k, d)
    array, or None where ``_ring_array`` would refuse one of them."""
    try:
        R = np.array(group, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if R.ndim != 3 or R.shape[2] < 2:
        return None
    types = set(map(type, chain.from_iterable(chain.from_iterable(group))))
    if any(issubclass(t, _NOT_NUMBERS) for t in types):
        return None
    return R


def _closed_rings(rings: list) -> list:
    """Each ring as a float (k+1) x 2 array of x, y whose last vertex is
    exactly its first, or the GeoParseError that refuses it.

    A last vertex within ``np.allclose`` of the first (its test written out
    elementwise) is the closing one and is replaced by the first; else the
    first is appended. A ring that is not an array of positions of two or
    more finite numbers, none a string or a boolean, with three or more
    distinct vertices is refused.

    Rings of one length and position size are read and closed in one array
    pass. A group that numpy cannot read as one array of numbers is read
    ring by ring, which names what is wrong with each ring, and its other
    rings are closed together as before.
    """
    closed = [None] * len(rings)
    groups = {}
    for j, ring in enumerate(rings):
        try:
            key = len(ring), len(ring[0])
        except (TypeError, KeyError, IndexError):
            key = j  # in a group of its own
        groups.setdefault(key, []).append(j)
    for at in groups.values():
        group = [rings[j] for j in at]
        R = _group_array(group)
        if R is None:
            arrays = []
            for j, ring in zip(at, group):
                try:
                    arrays.append(_ring_array(ring))
                except GeoParseError as exc:
                    closed[j] = exc
            if not arrays:
                continue
            at = [j for j in at if closed[j] is None]
            R = np.stack(arrays)
        R = R[:, :, :2]
        m, k = R.shape[:2]
        finite = np.isfinite(R).all(axis=(1, 2))
        first, last = R[:, 0], R[:, -1]
        with np.errstate(invalid="ignore"):  # inf - inf, in rings refused as non-finite
            ends = (np.abs(first - last) <= 1e-8 + 1e-5 * np.abs(last)).all(axis=1)
        ends &= k >= 2
        # C[i, :k] is ring i closed on its last vertex, C[i] ring i with its first appended
        C = np.empty((m, k + 1, 2))
        C[:, :k] = R
        C[:, k] = first
        C[ends, k - 1] = first[ends]
        for i, (j, is_finite, closes) in enumerate(zip(at, finite.tolist(), ends.tolist())):
            if not is_finite:
                closed[j] = GeoParseError("ring has a non-finite coordinate")
            elif k - closes < 3:
                closed[j] = GeoParseError(f"ring needs >= 3 distinct vertices, got {k - closes}")
            else:
                closed[j] = C[i, :k] if closes else C[i]
    return closed


def _closed_geometries(geometries: list) -> list:
    """Each geometry, a list of polygons of rings, with its rings closed by
    ``_closed_rings`` in one call for all, or the GeoParseError of its first
    refused ring."""
    closed = iter(_closed_rings([ring for g in geometries for rings in g for ring in rings]))
    out = []
    for geometry in geometries:
        polygons = [[next(closed) for _ in rings] for rings in geometry]
        refused = [r for rings in polygons for r in rings if isinstance(r, GeoParseError)]
        out.append(refused[0] if refused else polygons)
    return out


def _ring_areas_centroids(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed shoelace areas and area-weighted centroids of m closed rings of
    one length, stacked (m, k+1, 2); a ring of zero area has the mean of its
    k vertices as centroid.

    Every sum runs along the last axis of a C-ordered (m, k) array, as it
    runs over the (k,) array of one ring, so each ring gets the bits it gets
    alone.
    """
    x, y = R[:, :, 0], R[:, :, 1]
    cross = x[:, :-1] * y[:, 1:] - x[:, 1:] * y[:, :-1]
    area = 0.5 * np.sum(cross, axis=1)
    flat = area == 0.0
    six_area = 6.0 * np.where(flat, 1.0, area)
    centroid = np.stack(
        [
            np.sum((x[:, :-1] + x[:, 1:]) * cross, axis=1) / six_area,
            np.sum((y[:, :-1] + y[:, 1:]) * cross, axis=1) / six_area,
        ],
        axis=1,
    )
    centroid[flat] = R[flat, :-1].mean(axis=1)
    return area, centroid


def _centroids(regions) -> np.ndarray:
    """The (n, 2) area-weighted centroids of the regions: net area and
    weighted centroid sum over each region's rings, rings after the first of
    a polygon being holes.

    The rings' areas and centroids come in one array pass per ring length.
    Each region then adds its rings in their order, from 0.0 and zeros, and
    divides the weighted sum by the net area. A region whose net area is not
    positive raises GeoValidationError naming the first such region.
    """
    owner, outer, rings = [], [], []
    for i, region in enumerate(regions):
        for polygon in region.geometry:
            for k, ring in enumerate(polygon):
                owner.append(i)
                outer.append(k == 0)
                rings.append(ring)
    owner = np.array(owner, dtype=np.intp)
    lengths = np.array([len(ring) for ring in rings], dtype=np.intp)
    area, centre = np.empty(len(rings)), np.empty((len(rings), 2))
    # np.unique would import numpy.ma, 18 ms of a command's start-up
    for length in np.flatnonzero(np.bincount(lengths)):
        at = np.flatnonzero(lengths == length)
        area[at], centre[at] = _ring_areas_centroids(np.stack([rings[j] for j in at]))
    area = np.where(outer, np.abs(area), -np.abs(area))
    # the position of each ring among its region's rings; owner is sorted
    position = np.arange(len(rings)) - np.searchsorted(owner, owner)
    total, weighted = np.zeros(len(regions)), np.zeros((len(regions), 2))
    for p in range(position.max(initial=-1) + 1):
        at = position == p
        total[owner[at]] += area[at]
        weighted[owner[at]] += area[at, None] * centre[at]
    degenerate = np.flatnonzero(total <= 0)
    if degenerate.size:
        raise GeoValidationError(
            f"region {regions[degenerate[0]].id!r}: degenerate polygon with nonpositive net area"
        )
    return weighted / total[:, None]


@dataclass(frozen=True)
class Region:
    id: str
    geometry: list  # list of polygons; each polygon is a list of closed (k+1, 2) rings

    def __post_init__(self):
        [closed] = _closed_geometries([self.geometry])
        if isinstance(closed, GeoParseError):
            raise closed
        object.__setattr__(self, "geometry", closed)

    @classmethod
    def _of_closed(cls, rid: str, geometry: list) -> "Region":
        """The Region of a geometry that ``_closed_geometries`` has closed."""
        region = object.__new__(cls)
        object.__setattr__(region, "id", rid)
        object.__setattr__(region, "geometry", geometry)
        return region


@dataclass(frozen=True)
class Partition:
    """Named regions and their locations: row k of the read-only float
    (n, 2) ``centroids`` is where region k is."""

    name: str
    regions: tuple[Region, ...]
    centroids: np.ndarray

    def __post_init__(self):
        if len(self.regions) < 1:
            raise GeoValidationError("partition needs at least one region")
        centroids = np.array(self.centroids, dtype=float)
        if centroids.shape != (len(self.regions), 2):
            raise GeoValidationError(
                f"centroids of shape {centroids.shape} for {len(self.regions)} regions"
            )
        if not np.isfinite(centroids).all():
            raise GeoValidationError("non-finite centroids")
        centroids.flags.writeable = False
        object.__setattr__(self, "centroids", centroids)
        ids = [r.id for r in self.regions]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise GeoValidationError(f"duplicate region ids: {dupes}")

    def __len__(self) -> int:
        return len(self.regions)

    @property
    def ids(self) -> list[str]:
        return [r.id for r in self.regions]


@dataclass(frozen=True)
class ArealDataset:
    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (len(self.partition),):
            raise GeoValidationError(
                f"values length {self.values.shape} != region count {len(self.partition)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise GeoValidationError("dataset contains non-finite values")


def _geometry_rings(geom: dict) -> list:
    gtype = geom.get("type") if isinstance(geom, dict) else None
    if gtype not in ("Polygon", "MultiPolygon"):
        raise GeoParseError(f"unsupported geometry type {gtype!r}")
    if "coordinates" not in geom:
        raise GeoParseError(f"{gtype} without coordinates")
    polygons = [geom["coordinates"]] if gtype == "Polygon" else geom["coordinates"]
    if not (isinstance(polygons, list) and all(isinstance(rings, list) for rings in polygons)):
        raise GeoParseError(f"{gtype} coordinates are not arrays of rings")
    return polygons


def load_partition(source, name: str | None = None) -> Partition:
    """Build a Partition from a GeoJSON FeatureCollection, given as a file path or a parsed dict.

    Each feature must carry a unique string property ``id``; region order
    follows document order. Centroids are area-weighted shoelace centroids.
    A partition read from a file is named by its stem and its errors name the file.
    """
    if isinstance(source, dict):
        return _parse_partition(source, name)
    path = Path(source)
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise GeoParseError(f"{source}: not valid JSON: {exc}") from exc
    try:
        return _parse_partition(doc, name or path.stem)
    except (GeoParseError, GeoValidationError) as exc:
        raise type(exc)(f"{source}: {exc}") from exc


def _feature_geometry(k: int, feat) -> tuple[str, list]:
    """The id and the polygons of rings of feature k of a FeatureCollection;
    its errors name it."""
    if not (isinstance(feat, dict) and isinstance(feat.get("properties") or {}, dict)):
        raise GeoParseError(f"feature {k} is not an object with an object of properties")
    rid = (feat.get("properties") or {}).get("id")
    if rid is None:
        raise GeoValidationError("feature missing string property 'id'")
    rid = str(rid)
    try:
        return rid, _geometry_rings(feat.get("geometry") or {})
    except GeoParseError as exc:
        raise GeoParseError(f"region {rid!r}: {exc}") from exc


def _parse_partition(doc: dict, name: str | None) -> Partition:
    """The Partition of a FeatureCollection. Every ring is closed by one
    ``_closed_geometries`` call; the error named is the first in document
    order, after any degenerate region before it."""
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection" or "features" not in doc:
        raise GeoParseError("document is not a GeoJSON FeatureCollection")
    features = doc["features"]
    if not isinstance(features, list) or not features:
        raise GeoParseError("FeatureCollection has no array of features")
    ids, geometries, error = [], [], None
    for k, feat in enumerate(features):
        try:
            rid, geometry = _feature_geometry(k, feat)
        except InputError as exc:
            error = exc
            break
        ids.append(rid)
        geometries.append(geometry)
    regions = []
    for rid, geometry in zip(ids, _closed_geometries(geometries)):
        if isinstance(geometry, GeoParseError):
            error = GeoParseError(f"region {rid!r}: {geometry}")
            break
        regions.append(Region._of_closed(rid, geometry))
    if error is not None:
        _centroids(regions)  # a degenerate region before it is the first error
        raise error
    part = Partition(
        name=name or "partition", regions=tuple(regions), centroids=_centroids(regions)
    )
    cs = part.centroids
    # crude lon/lat sniff: geographic magnitudes inside the valid degree box
    if (
        np.all(np.abs(cs[:, 0]) <= 180)
        and np.all(np.abs(cs[:, 1]) <= 90)
        and np.abs(cs).max() > 45
    ):
        warnings.warn(
            "coordinates look like lon/lat degrees; distances use the raw planar values",
            stacklevel=3,
        )
    return part


def partition_to_geojson(partition: Partition) -> dict:
    """Serialize back to a FeatureCollection (inverse of load_partition)."""
    features = []
    for r in partition.regions:
        coords = [[ring.tolist() for ring in rings] for rings in r.geometry]
        gtype = "Polygon" if len(coords) == 1 else "MultiPolygon"
        geometry = {"type": gtype, "coordinates": coords[0] if gtype == "Polygon" else coords}
        features.append(
            {"type": "Feature", "properties": {"id": r.id}, "geometry": geometry}
        )
    return {"type": "FeatureCollection", "name": partition.name, "features": features}


@dataclass(frozen=True)
class AggregationMap:
    coarse: Partition
    fine: Partition
    H: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        object.__setattr__(self, "H", H)
        nc, nf = len(self.coarse), len(self.fine)
        if H.shape != (nc, nf):
            raise GeoValidationError(f"H shape {H.shape} != ({nc}, {nf})")
        # a NaN passes both tests below: it is neither negative nor a row sum off 1
        if not np.isfinite(H).all():
            raise GeoValidationError("H has non-finite entries")
        if np.any(H < 0):
            raise GeoValidationError("H has negative entries")
        if np.abs(H.sum(axis=1) - 1.0).max() > 1e-12:
            raise GeoValidationError("H rows must sum to 1 within 1e-12")


# Reach of the boundary test for an edge ab is BOUNDARY_TOL * max(1, |ab|_inf).
BOUNDARY_TOL = 1e-12


def _ring_edges(polygons: list[list[np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points, each (m, 2), of the edges of every closed ring."""
    rings = [ring for polygon in polygons for ring in polygon]
    return np.concatenate([r[:-1] for r in rings]), np.concatenate([r[1:] for r in rings])


def _points_inside(px: np.ndarray, py: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Even-odd ray casting of k points against the m edges a -> b of a
    (multi)polygon, as k x m arrays; points on the boundary count as inside.

    A point is on edge ab when, with t = BOUNDARY_TOL * max(1, |ab|_inf), its
    perpendicular distance to the line is at most t and its projection lies
    no more than t before a or past b. Both tests are multiplied through by
    |ab|; for a zero-length edge, where they hold trivially, the point must
    instead lie within t of the vertex in each coordinate.
    """
    ax, ay = a[:, 0], a[:, 1]
    dx, dy = b[:, 0] - ax, b[:, 1] - ay
    apx = px[:, None] - ax
    apy = py[:, None] - ay
    ab2 = dx * dx + dy * dy
    length = np.sqrt(ab2)
    t = BOUNDARY_TOL * np.maximum(1.0, np.maximum(np.abs(dx), np.abs(dy)))
    reach = t * length
    cross = dx * apy - dy * apx
    dot = apx * dx + apy * dy
    on = (np.abs(cross) <= reach) & (dot >= -reach) & (dot <= ab2 + reach)
    zero = length == 0
    if zero.any():
        on[:, zero] = np.maximum(np.abs(apx[:, zero]), np.abs(apy[:, zero])) <= t[zero]
    straddle = (ay > py[:, None]) != (b[:, 1] > py[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):  # dy == 0 only where not straddling
        x_cross = ax + (py[:, None] - ay) / dy * dx
    crossings = np.count_nonzero(straddle & (px[:, None] < x_cross), axis=1)
    return on.any(axis=1) | (crossings % 2 == 1)


def build_aggregation(coarse: Partition, fine: Partition) -> AggregationMap:
    """Uniform-weight H: fine region j belongs to the coarse region containing
    its centroid; boundary ties break to the lexicographically lowest coarse id.

    Coarse regions are visited in id order, and each tests only the fine
    centroids still unassigned that lie in its bounding box widened by
    4 * BOUNDARY_TOL * max(1, max |vertex coordinate|). The widening never
    changes an answer: the boundary test reaches at most sqrt(2) * t past an
    edge per coordinate, with t <= 2 * BOUNDARY_TOL * max(1, max |vertex|);
    a point above or below the box straddles no edge; and since ray crossings
    fall within a few ulps of the vertex x range, a point left or right of it
    crosses every straddling edge or none, an even count for closed rings.
    """
    nc, nf = len(coarse), len(fine)
    centroids = fine.centroids
    holder = np.full(nf, -1)
    for i in sorted(range(nc), key=lambda i: coarse.regions[i].id):
        a, b = _ring_edges(coarse.regions[i].geometry)
        margin = 4.0 * BOUNDARY_TOL * max(1.0, float(np.abs(a).max()))
        in_box = np.all(
            (centroids >= a.min(axis=0) - margin) & (centroids <= a.max(axis=0) + margin),
            axis=1,
        )
        candidates = np.flatnonzero((holder < 0) & in_box)
        px, py = centroids[candidates, 0], centroids[candidates, 1]
        holder[candidates[_points_inside(px, py, a, b)]] = i
    unassigned = [fine.regions[j].id for j in np.flatnonzero(holder < 0)]
    if unassigned:
        raise GeoValidationError(
            f"fine regions with centroids in no coarse region: {unassigned}"
        )
    counts = np.bincount(holder, minlength=nc)
    empty = [coarse.regions[i].id for i in np.flatnonzero(counts == 0)]
    if empty:
        raise GeoValidationError(f"coarse regions with no fine members: {empty}")
    H = np.zeros((nc, nf))
    H[holder, np.arange(nf)] = 1.0 / counts[holder]
    return AggregationMap(coarse=coarse, fine=fine, H=H)


def load_dataset(partition: Partition, path) -> ArealDataset:
    """Read a `region_id,value` CSV matched to the partition by id."""
    rows = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames
            if header is None or "region_id" not in header or "value" not in header:
                raise GeoParseError(f"{path}: expected header 'region_id,value'")
            for row in reader:
                rid = row["region_id"]
                if rid in rows:
                    raise GeoValidationError(f"{path}: duplicate region id {rid!r}")
                try:
                    rows[rid] = float(row["value"])
                except (TypeError, ValueError) as exc:
                    raise GeoParseError(f"{path}: region {rid!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GeoParseError(f"{path}: not a text CSV: {exc}") from exc
    ids = partition.ids
    known = set(ids)
    missing = [i for i in ids if i not in rows]
    extra = [i for i in rows if i not in known]
    if missing or extra:
        raise GeoValidationError(f"{path}: missing ids {missing}, extra ids {extra}")
    values = np.array([rows[i] for i in ids])
    return ArealDataset(partition, values)


def write_csv(path, header: list[str], ids, rows) -> None:
    """The header, then one line per id: the id and its row's values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([rid, *(repr(float(v)) for v in row)] for rid, row in zip(ids, rows))


def save_dataset(dataset: ArealDataset, path) -> None:
    write_csv(path, ["region_id", "value"], dataset.partition.ids, dataset.values[:, None])


def load_aggregation_csv(coarse: Partition, fine: Partition, path) -> AggregationMap:
    """Read a user-supplied H (e.g. population-weighted) and validate it.

    Blank lines are skipped; every other row must have as many fields as the header.
    """
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except UnicodeDecodeError as exc:
        raise GeoParseError(f"{path}: not a text CSV: {exc}") from exc
    if not rows:
        raise GeoParseError(f"{path}: empty file")
    for k, r in enumerate(rows[1:], start=1):
        if len(r) != len(rows[0]):
            raise GeoParseError(
                f"{path}: row {k} has {len(r)} fields, the header {len(rows[0])}"
            )
    col_ids = rows[0][1:]
    if col_ids != fine.ids:
        raise GeoValidationError(f"{path}: column ids do not match fine partition order")
    row_ids = [r[0] for r in rows[1:]]
    if row_ids != coarse.ids:
        raise GeoValidationError(f"{path}: row ids do not match coarse partition order")
    try:
        H = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    except ValueError as exc:
        raise GeoParseError(f"{path}: {exc}") from exc
    nz_per_col = (H > 0).sum(axis=0)
    if np.any(nz_per_col != 1):
        bad = [fine.ids[j] for j in np.nonzero(nz_per_col != 1)[0]]
        raise GeoValidationError(f"{path}: columns without exactly one nonzero: {bad}")
    try:
        return AggregationMap(coarse=coarse, fine=fine, H=H)
    except GeoValidationError as exc:
        raise GeoValidationError(f"{path}: {exc}") from exc
