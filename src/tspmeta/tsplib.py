"""Instance I/O: a TSPLIB subset (EUC_2D coordinate files), plain coordinate
CSV, TOUR files, and the built-in instances packaged with the toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import ParseError, UnsupportedFormatError
from .instance import Instance, Metric, Tour, validate_tour

FIVE_CITY_NAME = "five-city"
FIVE_CITY_COORDS = ((0.0, 0.0), (1.0, 3.0), (4.0, 3.0), (6.0, 1.0), (3.0, 0.0))

# TSPLIB keywords that are read but carry no information we use.
_IGNORED_KEYWORDS = {"COMMENT", "DISPLAY_DATA_TYPE", "NODE_COORD_TYPE"}
_SUPPORTED_EDGE_WEIGHT_TYPES = {"EUC_2D"}


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _check_distances_finite(coords: list[tuple[float, float]], line: int) -> None:
    """Raise ParseError if some pairwise distance would overflow to inf.

    Python floats overflow to inf just as build_distance_matrix's numpy
    does, without a warning. The bounding box's diagonal bounds every
    distance, so the pairwise scan runs only for coordinates spread over
    more than about 1e154.
    """
    xs, ys = [x for x, _ in coords], [y for _, y in coords]
    w, h = max(xs) - min(xs), max(ys) - min(ys)
    if math.isfinite(w * w + h * h):
        return
    for i, (xi, yi) in enumerate(coords):
        for j, (xj, yj) in enumerate(coords[:i]):
            if math.isinf((xi - xj) * (xi - xj) + (yi - yj) * (yi - yj)):
                raise ParseError(f"the distance between cities {j + 1} and {i + 1} "
                                 "overflows a float", line)


@dataclass
class ParseDiagnostics:
    source_name: str
    warnings: list[tuple[int, str]] = field(default_factory=list)

    def warn(self, line: int, message: str) -> None:
        self.warnings.append((line, message))


def parse_tsplib(text: str, source_name: str = "<tsplib>") -> tuple[Instance, ParseDiagnostics]:
    """Parse the EUC_2D coordinate subset of the TSPLIB format.

    Recognized keywords: NAME, TYPE (must be TSP), DIMENSION,
    EDGE_WEIGHT_TYPE (EUC_2D only), NODE_COORD_SECTION, EOF. Keyword lines
    accept any spacing around the colon. 1-based node ids become 0-based
    city ids; DIMENSION must match the number of coordinate lines.
    """
    diags = ParseDiagnostics(source_name=source_name)
    name: str | None = None
    dimension: int | None = None
    edge_weight_type: str | None = None
    coord_section_line = 0
    nodes: dict[int, tuple[float, float]] = {}
    in_coords = False
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line:
            continue
        if line.upper() == "EOF":
            break

        if in_coords:
            parts = line.split()
            if _is_int(parts[0]):
                if len(parts) != 3:
                    raise ParseError(f"expected 'id x y' in NODE_COORD_SECTION, got {line!r}", lineno)
                node_id = int(parts[0])
                try:
                    x, y = float(parts[1]), float(parts[2])
                except ValueError:
                    raise ParseError(f"non-numeric coordinate line {line!r}", lineno) from None
                if node_id in nodes:
                    raise ParseError(f"duplicate node id {node_id}", lineno)
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ParseError(f"non-finite coordinate for node {node_id}", lineno)
                nodes[node_id] = (x, y)
                continue
            in_coords = False  # keyword line ends the section; handle it below

        if ":" in line:
            key, _, value = line.partition(":")
            key = key.strip().upper()
            value = value.strip()
        else:
            key, value = line.upper(), ""

        if key == "NAME":
            name = value
        elif key == "TYPE":
            if not value or value.split()[0].upper() != "TSP":
                raise ParseError(f"TYPE must be TSP, got {value!r}", lineno)
        elif key == "DIMENSION":
            try:
                dimension = int(value)
            except ValueError:
                raise ParseError(f"DIMENSION is not an integer: {value!r}", lineno) from None
            if dimension < 1:
                raise ParseError(f"DIMENSION must be >= 1, got {dimension}", lineno)
        elif key == "EDGE_WEIGHT_TYPE":
            edge_weight_type = value.upper()
            if edge_weight_type not in _SUPPORTED_EDGE_WEIGHT_TYPES:
                raise UnsupportedFormatError(
                    f"EDGE_WEIGHT_TYPE {edge_weight_type} is not supported (only EUC_2D)", lineno)
        elif key == "NODE_COORD_SECTION":
            in_coords = True
            coord_section_line = lineno
        elif key in _IGNORED_KEYWORDS:
            pass
        else:
            diags.warn(lineno, f"unrecognized keyword {key!r} ignored")

    if dimension is None:
        raise ParseError("missing DIMENSION", last_line)
    if coord_section_line == 0:
        raise ParseError("missing NODE_COORD_SECTION", last_line)
    if len(nodes) != dimension:
        raise ParseError(
            f"NODE_COORD_SECTION has {len(nodes)} nodes but DIMENSION is {dimension}",
            coord_section_line)
    if sorted(nodes) != list(range(1, dimension + 1)):
        raise ParseError("node ids must be exactly 1..DIMENSION", coord_section_line)
    if edge_weight_type is None:
        diags.warn(last_line, "missing EDGE_WEIGHT_TYPE, assuming EUC_2D")

    coords = [nodes[i] for i in range(1, dimension + 1)]
    _check_distances_finite(coords, coord_section_line)
    instance = Instance.from_coords(name or source_name, coords, Metric.EUCLIDEAN_ROUNDED)
    return instance, diags


def parse_coords_csv(text: str, name: str = "coords",
                     source_name: str = "<csv>") -> tuple[Instance, ParseDiagnostics]:
    """Parse 'x,y' lines; row order defines 0-based city ids.

    Blank lines and lines starting with '#' are skipped. The metric is
    exact Euclidean.
    """
    diags = ParseDiagnostics(source_name=source_name)
    coords: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ParseError(f"expected 'x,y', got {line!r}", lineno)
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric coordinate in {line!r}", lineno) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"non-finite coordinate in {line!r}", lineno)
        coords.append((x, y))
    if not coords:
        raise ParseError("no coordinate rows found", 0)
    _check_distances_finite(coords, 0)
    return Instance.from_coords(name, coords, Metric.EUCLIDEAN_EXACT), diags


def write_coords_csv(instance: Instance) -> str:
    lines = [f"# {instance.name}"]
    lines.extend(f"{c.x!r},{c.y!r}" for c in instance.cities)
    return "\n".join(lines) + "\n"


def write_tsplib(instance: Instance) -> str:
    """Emit the instance as a TSPLIB EUC_2D file (1-based node ids).

    TSPLIB EUC_2D always means nearest-integer distances, so an
    exact-metric instance changes metric on the way out.
    """
    lines = [
        f"NAME: {instance.name}",
        "TYPE: TSP",
        f"DIMENSION: {instance.n}",
        "EDGE_WEIGHT_TYPE: EUC_2D",
        "NODE_COORD_SECTION",
    ]
    lines.extend(f"{c.id + 1} {c.x!r} {c.y!r}" for c in instance.cities)
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def write_five_city_csv() -> str:
    """The built-in five-city demo instance as CSV, byte-stable."""
    return write_coords_csv(five_city_instance())


def five_city_instance() -> Instance:
    """The built-in five-city demo instance (exact Euclidean metric)."""
    return Instance.from_coords(FIVE_CITY_NAME, list(FIVE_CITY_COORDS), Metric.EUCLIDEAN_EXACT)


def parse_tour_file(text: str, n: int, source_name: str = "<tour>") -> Tour:
    """Parse a TSPLIB TOUR file (1-based ids, -1 terminator) into a tour."""
    ids: list[int] = []
    in_section = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.upper().startswith("TOUR_SECTION"):
            in_section = True
            continue
        if not in_section:
            continue
        if line == "-1" or line.upper() == "EOF":
            break
        for token in line.split():
            try:
                ids.append(int(token))
            except ValueError:
                raise ParseError(f"non-integer tour entry {token!r}", lineno) from None
    if not ids:
        raise ParseError("no TOUR_SECTION entries found", 0)
    tour = tuple(i - 1 for i in ids)
    try:
        validate_tour(tour, n)
    except ValueError as exc:
        raise ParseError(str(exc), 0) from None
    return tour


def load_instance_file(path: str | Path) -> tuple[Instance, ParseDiagnostics]:
    """Load an instance from disk, dispatching on the file extension
    (.tsp/.tsplib use the TSPLIB parser, anything else the CSV parser)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{p.name} is not UTF-8 text: {exc}") from None
    if p.suffix.lower() in (".tsp", ".tsplib"):
        return parse_tsplib(text, source_name=p.name)
    return parse_coords_csv(text, name=p.stem, source_name=p.name)


def packaged_instance(name: str) -> Instance:
    """Load a TSPLIB instance shipped with the package (e.g. 'berlin52')."""
    text = (resources.files("tspmeta") / "data" / f"{name}.tsp").read_text(encoding="utf-8")
    instance, _ = parse_tsplib(text, source_name=f"{name}.tsp")
    return instance


def packaged_opt_tour(name: str, n: int) -> Tour:
    """Load the packaged known-optimal tour for a packaged instance."""
    text = (resources.files("tspmeta") / "data" / f"{name}.opt.tour").read_text(encoding="utf-8")
    return parse_tour_file(text, n, source_name=f"{name}.opt.tour")
