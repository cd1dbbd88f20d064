"""Partition geometry, areal datasets, and the coarse-over-fine aggregation matrix."""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class GeoParseError(ValueError):
    """Input document is not a usable geometry collection."""


class GeoValidationError(ValueError):
    """Geometry or dataset violates a structural invariant."""


@dataclass(frozen=True)
class Location:
    x1: float
    x2: float

    def __post_init__(self):
        if not (np.isfinite(self.x1) and np.isfinite(self.x2)):
            raise GeoValidationError(f"non-finite coordinates ({self.x1}, {self.x2})")

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x1, self.x2])


def _ring_area_centroid(ring: np.ndarray) -> tuple[float, np.ndarray]:
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


def polygon_area_centroid(polygons: list[list[np.ndarray]]) -> tuple[float, np.ndarray]:
    """Net area and centroid of a (multi)polygon; rings after the first are holes."""
    total = 0.0
    weighted = np.zeros(2)
    for rings in polygons:
        for k, ring in enumerate(rings):
            a, c = _ring_area_centroid(ring)
            a = abs(a) if k == 0 else -abs(a)
            total += a
            weighted += a * c
    if total <= 0:
        raise GeoValidationError("degenerate polygon with nonpositive net area")
    return total, weighted / total


@dataclass(frozen=True)
class Region:
    id: str
    geometry: list  # list of polygons; each polygon is a list of (k, 2) rings
    centroid: Location
    area: float


@dataclass(frozen=True)
class Partition:
    name: str
    regions: tuple[Region, ...]

    def __post_init__(self):
        if len(self.regions) < 1:
            raise GeoValidationError("partition needs at least one region")
        ids = [r.id for r in self.regions]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise GeoValidationError(f"duplicate region ids: {dupes}")

    def __len__(self) -> int:
        return len(self.regions)

    @property
    def ids(self) -> list[str]:
        return [r.id for r in self.regions]

    @property
    def centroids(self) -> np.ndarray:
        return np.array([[r.centroid.x1, r.centroid.x2] for r in self.regions])

    @property
    def areas(self) -> np.ndarray:
        return np.array([r.area for r in self.regions])


@dataclass(frozen=True)
class ArealDataset:
    partition: Partition
    values: np.ndarray
    quantity_kind: str = "intensive"

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (len(self.partition),):
            raise GeoValidationError(
                f"values length {self.values.shape} != region count {len(self.partition)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise GeoValidationError("dataset contains non-finite values")
        if self.quantity_kind not in ("intensive", "extensive"):
            raise GeoValidationError(f"unknown quantity kind {self.quantity_kind!r}")


def _geometry_rings(geom: dict) -> list[list[np.ndarray]]:
    gtype = geom.get("type")
    if gtype == "Polygon":
        polys = [geom["coordinates"]]
    elif gtype == "MultiPolygon":
        polys = geom["coordinates"]
    else:
        raise GeoParseError(f"unsupported geometry type {gtype!r}")
    out = []
    for rings in polys:
        out.append([np.asarray(ring, dtype=float)[:, :2] for ring in rings])
    return out


def load_partition(source, name: str | None = None) -> Partition:
    """Build a Partition from a GeoJSON FeatureCollection (path, text, or dict).

    Each feature must carry a unique string property ``id``; region order
    follows document order. Centroids are area-weighted shoelace centroids.
    """
    if isinstance(source, (str, Path)) and Path(str(source)).exists():
        doc = json.loads(Path(source).read_text())
        name = name or Path(source).stem
    elif isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise GeoParseError(f"not valid JSON: {exc}") from exc
    elif isinstance(source, dict):
        doc = source
    else:
        raise GeoParseError(f"unsupported source type {type(source)}")
    if doc.get("type") != "FeatureCollection" or "features" not in doc:
        raise GeoParseError("document is not a GeoJSON FeatureCollection")
    features = doc["features"]
    if not features:
        raise GeoParseError("FeatureCollection has no features")
    regions = []
    for feat in features:
        props = feat.get("properties") or {}
        rid = props.get("id")
        if rid is None:
            raise GeoValidationError("feature missing string property 'id'")
        rid = str(rid)
        try:
            polys = _geometry_rings(feat.get("geometry") or {})
            area, centroid = polygon_area_centroid(polys)
        except GeoValidationError as exc:
            raise GeoValidationError(f"region {rid!r}: {exc}") from exc
        regions.append(
            Region(id=rid, geometry=polys, centroid=Location(*centroid), area=area)
        )
    cs = np.array([[r.centroid.x1, r.centroid.x2] for r in regions])
    # crude lon/lat sniff: geographic magnitudes inside the valid degree box
    if (
        np.all(np.abs(cs[:, 0]) <= 180)
        and np.all(np.abs(cs[:, 1]) <= 90)
        and np.abs(cs).max() > 45
    ):
        warnings.warn(
            "coordinates look like lon/lat degrees; distances use the raw planar values",
            stacklevel=2,
        )
    return Partition(name=name or "partition", regions=tuple(regions))


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


def to_intensive(d: ArealDataset) -> ArealDataset:
    """Divide extensive values by region areas."""
    if d.quantity_kind != "extensive":
        raise GeoValidationError("dataset is already intensive; refusing double division")
    areas = d.partition.areas
    if np.any(areas <= 0):
        raise GeoValidationError("zero-area region prevents intensive conversion")
    return ArealDataset(d.partition, d.values / areas, "intensive")


@dataclass(frozen=True)
class AggregationMap:
    coarse: Partition
    fine: Partition
    H: np.ndarray
    membership: dict = field(compare=False)

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        object.__setattr__(self, "H", H)
        nc, nf = len(self.coarse), len(self.fine)
        if H.shape != (nc, nf):
            raise GeoValidationError(f"H shape {H.shape} != ({nc}, {nf})")
        if np.any(H < 0):
            raise GeoValidationError("H has negative entries")
        if np.abs(H.sum(axis=1) - 1.0).max() > 1e-12:
            raise GeoValidationError("H rows must sum to 1 within 1e-12")


# Reach of the boundary test for an edge ab is BOUNDARY_TOL * max(1, |ab|_inf).
BOUNDARY_TOL = 1e-12


def _ring_edges(polygons: list[list[np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points, each (m, 2), of the edges of every ring.

    A ring's last vertex is dropped when it repeats the first (within
    ``np.allclose``); each ring then closes from its last vertex to its first.
    """
    rings = []
    for polygon in polygons:
        for ring in polygon:
            r = np.asarray(ring, dtype=float)
            if r.shape[0] >= 2 and np.allclose(r[0], r[-1]):
                r = r[:-1]
            rings.append(r)
    return np.concatenate(rings), np.concatenate([np.roll(r, -1, axis=0) for r in rings])


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
    coarse_ids = coarse.ids
    membership = {fid: coarse_ids[i] for fid, i in zip(fine.ids, holder)}
    return AggregationMap(coarse=coarse, fine=fine, H=H, membership=membership)


def aggregate(amap: AggregationMap, fine_values: np.ndarray) -> np.ndarray:
    """H @ fine_values."""
    v = np.asarray(fine_values, dtype=float)
    if v.shape[0] != amap.H.shape[1]:
        raise GeoValidationError(
            f"fine_values length {v.shape[0]} != {amap.H.shape[1]}"
        )
    return amap.H @ v


def load_dataset(partition: Partition, path, quantity_kind: str = "intensive") -> ArealDataset:
    """Read a `region_id,value` CSV matched to the partition by id."""
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "region_id" not in reader.fieldnames or "value" not in reader.fieldnames:
            raise GeoParseError(f"{path}: expected header 'region_id,value'")
        for row in reader:
            rid = row["region_id"]
            if rid in rows:
                raise GeoValidationError(f"{path}: duplicate region id {rid!r}")
            rows[rid] = float(row["value"])
    ids = partition.ids
    known = set(ids)
    missing = [i for i in ids if i not in rows]
    extra = [i for i in rows if i not in known]
    if missing or extra:
        raise GeoValidationError(f"{path}: missing ids {missing}, extra ids {extra}")
    values = np.array([rows[i] for i in ids])
    return ArealDataset(partition, values, quantity_kind)


def save_dataset(dataset: ArealDataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region_id", "value"])
        for rid, v in zip(dataset.partition.ids, dataset.values):
            writer.writerow([rid, repr(float(v))])


def save_aggregation_csv(amap: AggregationMap, path) -> None:
    """CSV matrix with coarse ids as row labels and fine ids as column labels."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + amap.fine.ids)
        for i, rid in enumerate(amap.coarse.ids):
            writer.writerow([rid] + [repr(float(v)) for v in amap.H[i]])


def load_aggregation_csv(coarse: Partition, fine: Partition, path) -> AggregationMap:
    """Read a user-supplied H (e.g. population-weighted) and validate it."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise GeoParseError(f"{path}: empty file")
    col_ids = rows[0][1:]
    if col_ids != fine.ids:
        raise GeoValidationError(f"{path}: column ids do not match fine partition order")
    row_ids = [r[0] for r in rows[1:]]
    if row_ids != coarse.ids:
        raise GeoValidationError(f"{path}: row ids do not match coarse partition order")
    H = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    nz_per_col = (H > 0).sum(axis=0)
    if np.any(nz_per_col != 1):
        bad = [fine.ids[j] for j in np.nonzero(nz_per_col != 1)[0]]
        raise GeoValidationError(f"{path}: columns without exactly one nonzero: {bad}")
    membership = {}
    for j, fid in enumerate(fine.ids):
        i = int(np.nonzero(H[:, j] > 0)[0][0])
        membership[fid] = coarse.ids[i]
    return AggregationMap(coarse=coarse, fine=fine, H=H, membership=membership)
