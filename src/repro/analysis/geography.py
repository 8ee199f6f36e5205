"""Geographic views of the shadowing landscape (Figure 3's map form).

Figure 3 in the paper is a country-by-destination heat matrix.  This
module builds that matrix from the ledger and events, aggregates
countries into world regions, and renders a terminal heat map.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.landscape import PathRatioRow, problematic_path_ratios
from repro.core.correlate import DecoyLedger, ShadowingEvent
from repro.records import frozen

# Coarse world regions for aggregation; anything unlisted lands in "Other".
REGIONS: Dict[str, Tuple[str, ...]] = {
    "North America": ("US", "CA", "MX"),
    "South America": ("BR", "AR", "CL", "CO", "PE"),
    "Europe": ("DE", "GB", "FR", "NL", "SE", "CH", "ES", "IT", "PL", "IE",
               "PT", "GR", "CZ", "AT", "BE", "HU", "RO", "BG", "RS", "UA",
               "NO", "DK", "FI", "IS", "LU", "MT", "CY", "EE", "LV", "LT",
               "SK", "SI", "HR", "AD", "MD", "AL", "RU", "TR"),
    "East Asia": ("CN", "JP", "KR", "TW", "HK", "MN"),
    "South/SE Asia": ("IN", "SG", "TH", "VN", "MY", "ID", "PH", "PK", "BD",
                      "LK", "NP", "MM", "KH", "LA"),
    "Middle East": ("IL", "AE", "SA", "QA", "GE", "AM", "AZ", "KZ", "UZ"),
    "Africa": ("ZA", "EG", "NG", "KE", "MA"),
    "Oceania": ("AU", "NZ"),
}


def region_of(country: str) -> str:
    for region, countries in REGIONS.items():
        if country in countries:
            return region
    return "Other"


@frozen
class HeatCell:
    """One cell of the country x destination matrix."""

    vp_country: str
    destination_name: str
    ratio: float
    paths: int


def cells_from_rows(rows: Sequence[PathRatioRow],
                    protocol: str = "dns",
                    min_paths: int = 1) -> List[HeatCell]:
    """Build the heat matrix cells from already-computed ratio rows.

    Shared by the batch path (:func:`country_destination_matrix`) and the
    streaming path, which produces its rows via
    ``landscape.problematic_path_ratios_from_accumulator``.
    """
    cells = []
    for row in rows:
        if row.protocol != protocol or row.paths_total < min_paths:
            continue
        cells.append(HeatCell(
            vp_country=row.vp_country,
            destination_name=row.destination_name,
            ratio=row.ratio,
            paths=row.paths_total,
        ))
    return cells


def country_destination_matrix(
    ledger: DecoyLedger,
    events: Sequence[ShadowingEvent],
    protocol: str = "dns",
    min_paths: int = 1,
) -> List[HeatCell]:
    """The Figure 3 matrix for one decoy protocol."""
    return cells_from_rows(problematic_path_ratios(ledger, events),
                           protocol=protocol, min_paths=min_paths)


def regional_ratios(cells: Sequence[HeatCell]) -> Dict[str, float]:
    """Problematic-path ratio aggregated to world regions."""
    totals: Dict[str, int] = {}
    problematic: Dict[str, float] = {}
    for cell in cells:
        region = region_of(cell.vp_country)
        totals[region] = totals.get(region, 0) + cell.paths
        problematic[region] = problematic.get(region, 0.0) + cell.ratio * cell.paths
    return {
        region: problematic.get(region, 0.0) / count
        for region, count in totals.items() if count
    }


_HEAT_GLYPHS = " .:-=+*#%@"


def heat_glyph(ratio: float) -> str:
    """One character per intensity decile."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    index = min(len(_HEAT_GLYPHS) - 1, int(ratio * len(_HEAT_GLYPHS)))
    return _HEAT_GLYPHS[index]


def render_heat_matrix(cells: Sequence[HeatCell],
                       destinations: Optional[Sequence[str]] = None,
                       max_countries: int = 20) -> str:
    """Country rows x destination columns, one glyph per cell."""
    if destinations is None:
        seen = {}
        for cell in cells:
            seen[cell.destination_name] = seen.get(cell.destination_name, 0.0) + cell.ratio
        destinations = [name for name, _ in
                        sorted(seen.items(), key=lambda item: -item[1])][:10]
    by_pair = {(cell.vp_country, cell.destination_name): cell for cell in cells}
    country_mass = {}
    for cell in cells:
        country_mass[cell.vp_country] = country_mass.get(cell.vp_country, 0) + cell.paths
    countries = [country for country, _ in
                 sorted(country_mass.items(), key=lambda item: -item[1])][:max_countries]
    lines = ["      " + " ".join(f"{name[:6]:>6}" for name in destinations)]
    for country in sorted(countries):
        glyphs = []
        for name in destinations:
            cell = by_pair.get((country, name))
            glyphs.append(f"{heat_glyph(cell.ratio) if cell else ' ':>6}")
        lines.append(f"{country:<5} " + " ".join(glyphs))
    lines.append(f"scale: '{_HEAT_GLYPHS}' = 0%..100% problematic paths")
    return "\n".join(lines)
