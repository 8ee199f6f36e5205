"""One-shot report rendering every paper artifact from a finished run.

Used by the CLI (``python -m repro run``) and reusable on reloaded
bundles (:mod:`repro.core.persist`): anything exposing the run's merged
:class:`~repro.analysis.streaming.AnalysisState` as ``analysis`` works
with :func:`full_report`.

Every report renders from that state through :func:`streaming_artifacts`.
:func:`batch_artifacts` recomputes the same figures/tables from the raw
correlation output; it is the executable specification the accumulators
are checked against (``tests/test_streaming_analysis.py`` and the
scenario fuzzer require the two artifact sets to be equal), not a second
render path.
"""

from typing import Dict, List, Optional

from repro.analysis.combos import (
    http_https_share,
    http_https_share_from_accumulator,
    shadowed_share,
    shadowed_share_from_accumulator,
)
from repro.analysis.landscape import (
    destination_ratio_summary,
    destination_share,
    destination_share_from_accumulator,
    observer_location_table,
    observer_location_table_from_accumulator,
    problematic_path_ratios,
    problematic_path_ratios_from_accumulator,
)
from repro.analysis.origins import (
    observer_as_groups,
    observer_as_groups_from_accumulator,
    observer_country_counts,
    observer_country_counts_from_accumulator,
    origin_as_distribution,
    origin_as_distribution_from_accumulator,
    origin_blocklist_rate,
    origin_blocklist_rate_from_accumulator,
    top_observer_ases,
    top_observer_ases_from_accumulator,
)
from repro.analysis.payloads import incentive_report, incentive_report_from_accumulator
from repro.analysis.report import percent, render_table
from repro.analysis.temporal import (
    dns_delay_cdfs,
    dns_delay_cdfs_from_accumulator,
    multi_use_stats,
    multi_use_stats_from_accumulator,
    other_resolver_cdf,
    other_resolver_cdf_from_accumulator,
    web_delay_cdfs,
    web_delay_cdfs_from_accumulator,
)
from repro.datasets.resolvers import RESOLVER_H_NAMES
from repro.simkit.units import DAY, HOUR, MINUTE


def batch_artifacts(source) -> Dict[str, object]:
    """Every rendered artifact, recomputed from the raw correlation
    output (the reference implementation; no report renders from it)."""
    from repro.analysis.geography import cells_from_rows

    ledger = source.ledger
    log = source.log
    locations = source.locations
    directory = source.directory if hasattr(source, "directory") else source.eco.directory
    blocklist = source.blocklist if hasattr(source, "blocklist") else source.eco.blocklist
    events = source.phase1.events

    fig3_rows = problematic_path_ratios(ledger, events)
    return {
        "phase1_decoys": len(ledger.records(phase=1)),
        "phase2_decoys": len(ledger.records(phase=2)),
        "log_entries": len(log),
        "events": len(events),
        "fig3_rows": fig3_rows,
        "table2": observer_location_table(locations),
        "observer_rows": top_observer_ases(locations),
        "countries": observer_country_counts(locations),
        "fig4_cdfs": dns_delay_cdfs(events),
        "other_cdf": other_resolver_cdf(events),
        "fig5": [
            (name, shadowed_share(ledger, events, name),
             http_https_share(ledger, events, name))
            for name in RESOLVER_H_NAMES
        ],
        "multi_use": multi_use_stats(events),
        "fig6_rows": origin_as_distribution(events, directory, top_n=2),
        "blocklist_rates": tuple(
            origin_blocklist_rate(events, blocklist, protocol, "dns")
            for protocol in ("dns", "http", "https")
        ),
        "web_cdfs": web_delay_cdfs(events),
        "destination_shares": tuple(
            destination_share(locations, protocol)
            for protocol in ("dns", "http", "tls")
        ),
        "groups": observer_as_groups(locations, events, directory),
        "incentives": incentive_report(events, blocklist),
        "heat_cells": cells_from_rows(fig3_rows, "dns"),
        "matrix": _matrix_of(getattr(source, "analysis", None)),
    }


def _matrix_of(state):
    """The run's mitigation-vs-observer matrix accumulator, or None.

    The matrix has no batch recomputation path: per-observer-class
    attribution exists only at tap time, so both artifact sets read the
    same accumulator."""
    if state is None or not state.matrix.enabled:
        return None
    return state.matrix


def streaming_artifacts(state) -> Dict[str, object]:
    """The same artifacts read out of a merged
    :class:`~repro.analysis.streaming.AnalysisState` — O(state) instead
    of O(events); no ledger, log, IP directory or blocklist needed."""
    from repro.analysis.geography import cells_from_rows

    fig3_rows = problematic_path_ratios_from_accumulator(state.landscape)
    return {
        "phase1_decoys": state.decoy_counts.get(1, 0),
        "phase2_decoys": state.decoy_counts.get(2, 0),
        "log_entries": state.log_entries,
        "events": state.event_count,
        "fig3_rows": fig3_rows,
        "table2": observer_location_table_from_accumulator(state.landscape),
        "observer_rows": top_observer_ases_from_accumulator(state.origins),
        "countries": observer_country_counts_from_accumulator(state.origins),
        "fig4_cdfs": dns_delay_cdfs_from_accumulator(state.cdf),
        "other_cdf": other_resolver_cdf_from_accumulator(state.cdf),
        "fig5": [
            (name, shadowed_share_from_accumulator(state.combos, name),
             http_https_share_from_accumulator(state.combos, name))
            for name in RESOLVER_H_NAMES
        ],
        "multi_use": multi_use_stats_from_accumulator(state.multi_use),
        "fig6_rows": origin_as_distribution_from_accumulator(state.origins, top_n=2),
        "blocklist_rates": tuple(
            origin_blocklist_rate_from_accumulator(state.origins, protocol, "dns")
            for protocol in ("dns", "http", "https")
        ),
        "web_cdfs": web_delay_cdfs_from_accumulator(state.cdf),
        "destination_shares": tuple(
            destination_share_from_accumulator(state.landscape, protocol)
            for protocol in ("dns", "http", "tls")
        ),
        "groups": observer_as_groups_from_accumulator(state.origins),
        "incentives": incentive_report_from_accumulator(state.incentives),
        "heat_cells": cells_from_rows(fig3_rows, "dns"),
        "matrix": _matrix_of(state),
    }


def _render(artifacts: Dict[str, object], title: str,
            extra_sections: Optional[List[str]] = None) -> str:
    sections: List[str] = [title, "=" * len(title)]

    sections.append(
        f"\ndecoys: {artifacts['phase1_decoys']:,} (phase I) + "
        f"{artifacts['phase2_decoys']:,} (phase II traceroute probes); "
        f"honeypot log entries: {artifacts['log_entries']:,}; "
        f"unsolicited requests: {artifacts['events']:,}"
    )

    # Figure 3.  Ties rank alphabetically so the order is a pure function
    # of content, not of dict insertion order.
    dns_summary = destination_ratio_summary(artifacts["fig3_rows"], "dns")
    ranked = sorted(dns_summary.items(), key=lambda item: (-item[1], item[0]))
    sections.append("\n" + render_table(
        ("DNS destination", "problematic paths"),
        [(name, percent(ratio)) for name, ratio in ranked if ratio > 0][:12],
        title="Figure 3 — problematic-path ratios (DNS)",
    ))

    # Table 2.
    table = artifacts["table2"]
    sections.append("\n" + render_table(
        ["protocol"] + [str(hop) for hop in range(1, 11)],
        [[protocol.upper()] + [f"{table[protocol].get(hop, 0.0):.1f}"
                               for hop in range(1, 11)]
         for protocol in sorted(table)],
        title="Table 2 — normalized observer locations (%)",
    ))

    # Table 3.
    sections.append("\n" + render_table(
        ("decoy", "AS", "network", "observer IPs", "share"),
        [(row.protocol.upper(), f"AS{row.asn}", row.as_name[:40],
          row.observers, percent(row.share)) for row in artifacts["observer_rows"]],
        title="Table 3 — top observer networks",
    ))
    countries = artifacts["countries"]
    total_observers = sum(countries.values())
    if total_observers:
        sections.append(
            f"observer IPs by country: "
            + ", ".join(f"{country}={count}" for country, count
                        in sorted(countries.items(),
                                  key=lambda item: (-item[1], item[0])))
        )

    # Figure 4.
    cdfs = artifacts["fig4_cdfs"]
    sections.append("\n" + render_table(
        ("resolver", "n", "<1m", "<1h", "<1d", "<10d"),
        [(name, len(cdf), percent(cdf.at(MINUTE)), percent(cdf.at(HOUR)),
          percent(cdf.at(DAY)), percent(cdf.at(10 * DAY)))
         for name, cdf in cdfs.items() if len(cdf)],
        title="Figure 4 — retention of DNS decoy data (Resolver_h)",
    ))
    other = artifacts["other_cdf"]
    if len(other):
        sections.append(
            f"other public resolvers: {percent(other.at(MINUTE))} of "
            f"{len(other)} unsolicited requests within one minute"
        )

    # Figure 5 digest.
    sections.append("\n" + render_table(
        ("destination", "shadowed", "drew HTTP/HTTPS"),
        [(name, percent(shadowed), percent(webbed))
         for name, shadowed, webbed in artifacts["fig5"]],
        title="Figure 5 — Resolver_h decoy outcomes",
    ))

    # Section 5.1 multi-use.
    stats = artifacts["multi_use"]
    sections.append(
        f"\nSection 5.1 — of DNS decoys still active >1h after emission, "
        f"{percent(stats.share_more_than_3)} produced >3 unsolicited "
        f"requests and {percent(stats.share_more_than_10)} produced >10"
    )

    # Figure 6 digest.
    sections.append("\n" + render_table(
        ("destination", "request", "origin AS", "share"),
        [(row.destination_name, row.request_protocol.upper(),
          f"AS{row.asn} {row.as_name[:28]}", percent(row.share))
         for row in artifacts["fig6_rows"]],
        title="Figure 6 — top origins of unsolicited requests",
    ))
    dns_rate, http_rate, https_rate = artifacts["blocklist_rates"]
    sections.append(
        "origin blocklist rates (DNS decoys): "
        f"dns {percent(dns_rate)}, "
        f"http {percent(http_rate)}, "
        f"https {percent(https_rate)}"
    )

    # Figure 7.
    web = artifacts["web_cdfs"]
    sections.append("\n" + render_table(
        ("decoy", "n", "<1h", "<1d", "<3d"),
        [(protocol.upper(), len(cdf), percent(cdf.at(HOUR)),
          percent(cdf.at(DAY)), percent(cdf.at(3 * DAY)))
         for protocol, cdf in sorted(web.items())],
        title="Figure 7 — retention of HTTP/TLS decoy data",
    ))
    dns_share, http_share, tls_share = artifacts["destination_shares"]
    sections.append(
        f"observers at destination: dns {percent(dns_share)}, "
        f"http {percent(http_share)}, "
        f"tls {percent(tls_share)}"
    )

    # Section 5.2 groups + incentives.
    groups = artifacts["groups"]
    if groups:
        sections.append("\n" + render_table(
            ("observer AS", "paths", "share", "same-AS origins"),
            [(f"AS{group.asn} {group.as_name[:26]}", group.paths,
              percent(group.share_of_all_paths),
              percent(group.same_as_origin_share)) for group in groups],
            title="Section 5.2 — HTTP/TLS shadowing by observer AS",
        ))
    incentives = artifacts["incentives"]
    sections.append(
        f"\nprobing incentives: {percent(incentives.enumeration_share)} path "
        f"enumeration, {percent(incentives.exploit_share)} exploit payloads "
        f"across {incentives.requests} unsolicited HTTP(S) requests"
    )

    # Geographic view (Figure 3's map form).
    from repro.analysis.geography import regional_ratios, render_heat_matrix
    cells = artifacts["heat_cells"]
    if cells:
        sections.append("\nFigure 3 (map form) — DNS heat matrix:")
        sections.append(render_heat_matrix(cells, max_countries=14))
        regions = regional_ratios(cells)
        sections.append("by region: " + ", ".join(
            f"{region} {percent(ratio)}"
            for region, ratio in sorted(regions.items(),
                                        key=lambda item: (-item[1], item[0]))
        ))

    # Mitigation vs observer class (encrypted-transport scenarios only;
    # absent matrix keeps every pre-existing report byte-identical).
    matrix = artifacts.get("matrix")
    if matrix is not None:
        rows = matrix.rows()
        if rows:
            def cell(count: int, sent: int) -> str:
                return f"{count} ({percent(count / sent)})"

            sections.append("\n" + render_table(
                ("mitigation", "sent", "sni-dpi", "traffic-analysis",
                 "dst-ip"),
                [(mitigation, sent,
                  cell(cells["sni-dpi"], sent),
                  cell(cells["traffic-analysis"], sent),
                  cell(cells["dst-ip"], sent))
                 for mitigation, sent, cells in rows],
                title="Mitigation vs observer class — Phase I decoy "
                      "domains classified",
            ))
            provenance = matrix.provenance_counts()
            if provenance:
                sections.append("visit provenance: " + ", ".join(
                    f"{mitigation}/{kind}={count}"
                    for (mitigation, kind), count
                    in sorted(provenance.items())))

    if extra_sections:
        sections.extend(extra_sections)
    return "\n".join(sections) + "\n"


def full_report(source, title: str = "Traffic shadowing measurement report",
                include_validation: bool = False) -> str:
    """Render all reproduced artifacts of a run or bundle as one text
    document, from its ``analysis`` state.

    ``include_validation`` appends the ground-truth recall section; it
    requires a live :class:`~repro.core.experiment.ExperimentResult`
    (reloaded bundles carry no ground truth) and is off by default so the
    same input always renders the same report.
    """
    extra: List[str] = []
    if include_validation and hasattr(source, "eco"):
        from repro.analysis.validation import validate
        report = validate(source.eco.ground_truth, source.phase1,
                          source.phase2, source.ledger,
                          source.config.observation_window)
        extra.append(
            f"\nvalidation vs ground truth: recall "
            f"{percent(report.recall)} over {report.planted_domains} planted "
            f"domains, {report.false_domains} unexplained flags"
        )
    return _render(streaming_artifacts(source.analysis), title, extra)


def full_report_from_state(
    state, title: str = "Traffic shadowing measurement report",
) -> str:
    """Render the same document from a merged
    :class:`~repro.analysis.streaming.AnalysisState` — O(merge), never
    touching the ledger, the honeypot log, or the correlation output."""
    return _render(streaming_artifacts(state), title)
