"""Instance I/O: a TSPLIB subset (EUC_2D coordinate files), plain coordinate
CSV, TOUR files, and the built-in instances packaged with the toolkit.
"""

from __future__ import annotations

import math
import os
import sys
from importlib import resources
from pathlib import Path

from .errors import ParseError, UnsupportedFormatError
from .instance import Instance, Metric, Tour, validate_tour

FIVE_CITY_NAME = "five-city"
FIVE_CITY_COORDS = ((0.0, 0.0), (1.0, 3.0), (4.0, 3.0), (6.0, 1.0), (3.0, 0.0))

# TSPLIB keywords that are read but carry no information we use.
_IGNORED_KEYWORDS = {"COMMENT", "DISPLAY_DATA_TYPE", "NODE_COORD_TYPE"}
_SUPPORTED_EDGE_WEIGHT_TYPES = {"EUC_2D"}


def parse_tsplib(text: str, source_name: str = "<tsplib>") -> tuple[Instance, list[str]]:
    """Parse the EUC_2D coordinate subset of the TSPLIB format.

    Recognized keywords: NAME, TYPE (must be TSP), DIMENSION,
    EDGE_WEIGHT_TYPE (EUC_2D only), NODE_COORD_SECTION, EOF. Keyword lines
    accept any spacing around the colon. 1-based node ids become 0-based
    city ids; DIMENSION must match the number of coordinate lines. Returns
    the instance and its warnings, each a "source_name:line: message" string.
    """
    warnings: list[str] = []
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
            try:
                node_id = int(parts[0])
            except ValueError:  # a keyword line ends the section; handle it below
                in_coords = False
            else:
                if len(parts) != 3:
                    raise ParseError(f"expected 'id x y' in NODE_COORD_SECTION, got {line!r}", lineno)
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
            warnings.append(f"{source_name}:{lineno}: unrecognized keyword {key!r} ignored")

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
        warnings.append(f"{source_name}:{last_line}: missing EDGE_WEIGHT_TYPE, assuming EUC_2D")

    coords = [nodes[i] for i in range(1, dimension + 1)]
    try:
        instance = Instance.from_coords(name or source_name, coords, Metric.EUCLIDEAN_ROUNDED)
    except ValueError as exc:  # e.g. a distance that overflows a float
        raise ParseError(str(exc), coord_section_line) from None
    return instance, warnings


def parse_coords_csv(text: str, name: str = "coords") -> tuple[Instance, list[str]]:
    """Parse 'x,y' lines; row order defines 0-based city ids.

    Blank lines and lines starting with '#' are skipped. The metric is
    exact Euclidean. No line warns: the warning list returned is empty.
    """
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
    try:
        return Instance.from_coords(name, coords, Metric.EUCLIDEAN_EXACT), []
    except ValueError as exc:  # e.g. a distance that overflows a float
        raise ParseError(str(exc), 0) from None


def _one_line(name: str) -> str:
    """name with each line break that str.splitlines knows made a space, so
    that a writer's name line reads back as one line."""
    return " ".join(name.splitlines())


def write_coords_csv(instance: Instance) -> str:
    lines = [f"# {_one_line(instance.name)}"]
    lines.extend(f"{c.x!r},{c.y!r}" for c in instance.cities)
    return "\n".join(lines) + "\n"


def write_tsplib(instance: Instance) -> str:
    """Emit the instance as a TSPLIB EUC_2D file (1-based node ids).

    TSPLIB EUC_2D always means nearest-integer distances, so an
    exact-metric instance changes metric on the way out.
    """
    lines = [
        f"NAME: {_one_line(instance.name)}",
        "TYPE: TSP",
        f"DIMENSION: {instance.n}",
        "EDGE_WEIGHT_TYPE: EUC_2D",
        "NODE_COORD_SECTION",
    ]
    lines.extend(f"{i} {c.x!r} {c.y!r}" for i, c in enumerate(instance.cities, 1))
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def five_city_instance() -> Instance:
    """The built-in five-city demo instance (exact Euclidean metric)."""
    return Instance.from_coords(FIVE_CITY_NAME, list(FIVE_CITY_COORDS), Metric.EUCLIDEAN_EXACT)


def parse_tour_file(text: str, n: int, source_name: str = "<tour>") -> Tour:
    """Parse a TSPLIB TOUR file (1-based ids, -1 terminator) into a tour."""
    ids: list[int] = []
    in_section = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.upper().startswith("TOUR_SECTION"):
            in_section = True
            continue
        if not in_section:
            continue
        for token in line.split():
            if token == "-1" or token.upper() == "EOF":
                break
            try:
                ids.append(int(token))
            except ValueError:
                raise ParseError(f"non-integer tour entry {token!r}", lineno) from None
        else:
            continue
        break  # the terminator, at the end of an ids' line or on its own
    if not ids:
        raise ParseError("no TOUR_SECTION entries found", 0)
    tour = tuple(i - 1 for i in ids)
    try:
        validate_tour(tour, n)
    except ValueError as exc:
        raise ParseError(str(exc), 0) from None
    return tour


def open_text(path: str | Path, mode: str = "r"):
    """The file at path opened as UTF-8 text, a leading byte-order mark
    dropped on reading. A path that no file can have, one holding a lone
    surrogate that no byte stands for (UnicodeEncodeError) or a null byte
    (ValueError), raises ParseError naming it by its repr."""
    try:
        return open(path, mode, encoding="utf-8-sig" if mode == "r" else "utf-8")
    except (UnicodeEncodeError, ValueError) as exc:
        raise ParseError(f"no file can have the path {str(path)!r}: {exc}") from None


def load_instance_file(path: str | Path) -> tuple[Instance, list[str]]:
    """Load an instance from disk, dispatching on the file extension
    (.tsp/.tsplib use the TSPLIB parser, anything else the CSV parser)."""
    p = Path(path)
    with open_text(p) as file:
        # a file name's bytes that do not decode are held as lone surrogates,
        # which no UTF-8 output can encode; they become U+FFFD in the names
        source_name = os.fsencode(p.name).decode(sys.getfilesystemencoding(), errors="replace")
        try:
            text = file.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source_name} is not UTF-8 text: {exc}") from None
    if p.suffix.lower() in (".tsp", ".tsplib"):
        return parse_tsplib(text, source_name=source_name)
    return parse_coords_csv(text, name=Path(source_name).stem)


def packaged_instance(name: str) -> Instance:
    """Load a TSPLIB instance shipped with the package (e.g. 'berlin52')."""
    text = (resources.files("tspmeta") / "data" / f"{name}.tsp").read_text(encoding="utf-8")
    instance, _ = parse_tsplib(text, source_name=f"{name}.tsp")
    return instance


def packaged_opt_tour(name: str, n: int) -> Tour:
    """Load the packaged known-optimal tour for a packaged instance."""
    text = (resources.files("tspmeta") / "data" / f"{name}.opt.tour").read_text(encoding="utf-8")
    return parse_tour_file(text, n, source_name=f"{name}.opt.tour")
