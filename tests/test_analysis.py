"""Tests for the analysis layer, on both synthetic events and a real run."""

import pytest

from repro.analysis.combos import (
    LATENCY_BUCKETS,
    bucket_of,
    decoy_breakdown,
    http_https_share,
    shadowed_share,
)
from repro.analysis.landscape import (
    destination_ratio_summary,
    destination_share,
    observer_location_table,
    problematic_path_ratios,
    vp_country_ratio_summary,
)
from repro.analysis.origins import (
    observer_as_groups,
    observer_country_counts,
    origin_as_distribution,
    origin_blocklist_rate,
    top_observer_ases,
)
from repro.analysis.payloads import incentive_report
from repro.analysis.ports import observer_port_audit
from repro.analysis.report import percent, render_table
from repro.analysis.temporal import (
    Cdf,
    dns_delay_cdfs,
    multi_use_stats,
    other_resolver_cdf,
    reappearance_share,
    web_delay_cdfs,
)
from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.shard import result_digest
from repro.simkit.units import DAY, HOUR, MINUTE
from tests.make_pins import (
    TIE_CONFIGS,
    check,
    ciphertext_config,
    faulted_config,
    fig4_pin,
    matrix_pin,
    medium_config,
    report_pin,
    table2_pin,
    table3_pin,
)


@pytest.fixture(scope="module")
def result():
    return Experiment(ExperimentConfig.tiny(seed=20240301)).run()


class TestCdf:
    def test_at(self):
        cdf = Cdf.from_values([1.0, 2.0, 3.0, 4.0])
        assert cdf.at(0.5) == 0.0
        assert cdf.at(2.0) == 0.5
        assert cdf.at(10.0) == 1.0

    def test_empty(self):
        assert Cdf.from_values([]).at(100) == 0.0
        with pytest.raises(ValueError):
            Cdf.from_values([]).quantile(0.5)

    def test_quantile(self):
        cdf = Cdf.from_values(range(100))
        assert cdf.quantile(0.5) == 50
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_series_monotone(self):
        cdf = Cdf.from_values([5, 50, 500, 5000])
        series = cdf.series([1, 10, 100, 1000, 10000])
        fractions = [fraction for _, fraction in series]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0


class TestBuckets:
    def test_bucket_boundaries(self):
        assert bucket_of(30) == "<1m"
        assert bucket_of(MINUTE + 1) == "<1h"
        assert bucket_of(HOUR + 1) == "<1d"
        assert bucket_of(2 * DAY) == ">=1d"

    def test_bucket_labels_defined(self):
        assert [label for label, _ in LATENCY_BUCKETS] == ["<1m", "<1h", "<1d", ">=1d"]


class TestTemporalOnRun:
    def test_dns_cdfs_cover_resolver_h(self, result):
        cdfs = dns_delay_cdfs(result.phase1.events)
        assert set(cdfs) == {"Yandex", "114DNS", "OneDNS", "DNSPAI", "Vercara"}
        assert len(cdfs["Yandex"]) > 0

    def test_yandex_retention_is_long(self, result):
        cdfs = dns_delay_cdfs(result.phase1.events)
        yandex = cdfs["Yandex"]
        # Substantial mass beyond one day — the paper's headline finding.
        assert yandex.at(DAY) < 0.8

    def test_other_resolvers_mostly_sub_minute(self, result):
        cdf = other_resolver_cdf(result.phase1.events)
        assert len(cdf) > 0
        assert cdf.at(MINUTE) > 0.7

    def test_web_cdfs_shorter_than_dns(self, result):
        web = web_delay_cdfs(result.phase1.events)
        dns = dns_delay_cdfs(result.phase1.events)["Yandex"]
        assert web["http"].at(DAY) > dns.at(DAY)

    def test_multi_use(self, result):
        stats = multi_use_stats(result.phase1.events)
        assert stats.decoys_with_late_requests > 0
        assert 0 < stats.share_more_than_3 <= 1
        assert stats.share_more_than_10 <= stats.share_more_than_3

    def test_reappearance_share_bounded(self, result):
        share = reappearance_share(result.phase1.events, "Yandex", after=5 * DAY)
        assert 0.0 <= share <= 1.0


class TestLandscapeOnRun:
    def test_ratio_rows_consistent(self, result):
        rows = problematic_path_ratios(result.ledger, result.phase1.events)
        assert rows
        for row in rows:
            assert 0 <= row.paths_problematic <= row.paths_total
            assert 0.0 <= row.ratio <= 1.0

    def test_destination_summary_orders_resolver_h_first(self, result):
        rows = problematic_path_ratios(result.ledger, result.phase1.events)
        summary = destination_ratio_summary(rows, "dns")
        assert summary["Yandex"] > summary.get("Google", 0.0) or \
            summary["Yandex"] == 1.0

    def test_vp_country_summary(self, result):
        rows = problematic_path_ratios(result.ledger, result.phase1.events)
        summary = vp_country_ratio_summary(rows, "dns")
        assert summary
        assert all(0.0 <= ratio <= 1.0 for ratio in summary.values())

    def test_location_table_percentages_sum_to_100(self, result):
        table = observer_location_table(result.locations)
        for protocol, per_hop in table.items():
            assert sum(per_hop.values()) == pytest.approx(100.0)

    def test_dns_destination_share_dominates(self, result):
        assert destination_share(result.locations, "dns") > 0.8


class TestOriginsOnRun:
    def test_origin_as_rows(self, result):
        rows = origin_as_distribution(result.phase1.events, result.eco.directory)
        assert rows
        for row in rows:
            assert 0 < row.share <= 1.0
            assert row.requests > 0

    def test_google_among_dns_origins(self, result):
        rows = origin_as_distribution(result.phase1.events, result.eco.directory)
        dns_asns = {row.asn for row in rows if row.request_protocol == "dns"}
        assert 15169 in dns_asns

    def test_blocklist_rates_ordered(self, result):
        events = result.phase1.events
        blocklist = result.eco.blocklist
        dns_rate = origin_blocklist_rate(events, blocklist, "dns", "dns")
        https_rate = origin_blocklist_rate(events, blocklist, "https", "dns")
        assert dns_rate < https_rate

    def test_top_observer_ases_counts_distinct_ips(self, result):
        rows = top_observer_ases(result.locations)
        for row in rows:
            assert row.observers > 0
            assert 0 < row.share <= 1.0

    def test_observer_countries_cn_heavy(self, result):
        counts = observer_country_counts(result.locations)
        if counts:
            assert max(counts, key=counts.get) == "CN"

    def test_observer_groups(self, result):
        groups = observer_as_groups(result.locations, result.phase1.events,
                                    result.eco.directory)
        for group in groups:
            assert group.paths > 0
            assert 0.0 <= group.same_as_origin_share <= 1.0
            assert abs(sum(group.combo_shares.values()) - 1.0) < 1e-9


class TestCombosOnRun:
    def test_breakdown_rows(self, result):
        rows = decoy_breakdown(result.ledger, result.phase1.events)
        assert rows
        for row in rows:
            assert row.latency_bucket in {"<1m", "<1h", "<1d", ">=1d"}
            assert 0 < row.share_of_sent <= 1.0

    def test_shadowed_share_yandex_near_one(self, result):
        share = shadowed_share(result.ledger, result.phase1.events, "Yandex")
        assert share > 0.9

    def test_shadowed_share_unknown_destination_zero(self, result):
        assert shadowed_share(result.ledger, result.phase1.events, "NoSuch") == 0.0

    def test_http_https_share_bounded(self, result):
        share = http_https_share(result.ledger, result.phase1.events, "Yandex")
        assert 0.0 < share <= 1.0


class TestPayloadsOnRun:
    def test_incentive_report(self, result):
        report = incentive_report(result.phase1.events, result.eco.blocklist,
                                  decoy_protocol="dns")
        assert report.requests > 0
        assert report.enumeration_share > 0.8
        assert report.exploit_share == 0.0
        assert report.top_paths

    def test_empty_report(self, result):
        report = incentive_report([], result.eco.blocklist)
        assert report.requests == 0
        assert report.top_paths == ()


class TestPortsOnRun:
    def test_port_audit(self, result):
        audit = observer_port_audit(result.locations, result.eco.topology)
        assert 0.0 <= audit["silent_fraction"] <= 1.0
        if audit["port_counts"]:
            assert audit["top_open_port"] == 179


class TestReportHelpers:
    def test_render_table(self):
        text = render_table(("name", "value"), [("x", 1), ("long-name", 22)],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "long-name" in lines[4]

    def test_percent(self):
        assert percent(0.1234) == "12.3%"
        assert percent(1.0, digits=0) == "100%"


class TestGoldenDigests:
    """The golden artifacts of ``ExperimentConfig.tiny(seed=20240301)``.

    Figure 4 (per-resolver retention CDF series), Table 2 (normalized
    observer-hop distribution) and Table 3 (top observer ASes) are pinned
    in ``tests/pins.json``.  The streaming accumulators must reproduce
    the same bytes (see tests/test_streaming_analysis.py for the full
    equivalence suite).
    """

    def test_fig4_cdf_series(self, result):
        check("fig4", fig4_pin(dns_delay_cdfs(result.phase1.events)))

    def test_table2_hop_table(self, result):
        check("table2", table2_pin(observer_location_table(result.locations)))

    def test_table3_as_table(self, result):
        check("table3", table3_pin(top_observer_ases(result.locations)))

    def test_streaming_reproduces_golden_digests(self, result):
        from repro.analysis.landscape import (
            observer_location_table_from_accumulator,
        )
        from repro.analysis.origins import top_observer_ases_from_accumulator
        from repro.analysis.temporal import dns_delay_cdfs_from_accumulator
        state = result.analysis
        check("fig4", fig4_pin(dns_delay_cdfs_from_accumulator(state.cdf)))
        check("table2", table2_pin(
            observer_location_table_from_accumulator(state.landscape)))
        check("table3", table3_pin(
            top_observer_ases_from_accumulator(state.origins)))


class TestMitigationMatrixGolden:
    """The mitigation-vs-observer matrix of the encrypted-transport
    reference config, pinned as ``matrix`` in ``tests/pins.json``.

    The matrix is the deliverable of the ciphertext-observer subsystem;
    the pin freezes its cell values (per-mitigation sent/classified
    domain counts across all three observer classes, plus
    visit-provenance counts) for the tiny seed.  Any drift in decoy
    mitigation adoption, observer placement, the size/timing classifier,
    or destination-IP linkage shows up here.
    """

    @pytest.fixture(scope="class")
    def ciphertext_result(self):
        return Experiment(ciphertext_config()).run()

    def test_matrix_table_digest(self, ciphertext_result):
        check("matrix", matrix_pin(ciphertext_result.analysis.matrix))

    def test_matrix_tells_the_mitigation_story(self, ciphertext_result):
        """ECH/DoH blind SNI DPI; metadata observers keep classifying."""
        rows = {mitigation: (sent, cells) for mitigation, sent, cells
                in ciphertext_result.analysis.matrix.rows()}
        assert rows["none"][1]["sni-dpi"] > 0
        for blinded in ("ech", "doh"):
            sent, cells = rows[blinded]
            assert cells["sni-dpi"] == 0
            assert cells["traffic-analysis"] > 0
            assert cells["dst-ip"] > 0

    def test_provenance_splits_by_mitigation(self, ciphertext_result):
        provenance = ciphertext_result.analysis.matrix.provenance_counts()
        kinds = {key[1] for key in provenance}
        assert kinds <= {"plaintext-read", "metadata-inferred"}
        assert all(kind == "plaintext-read" for (mitigation, kind)
                   in provenance if mitigation == "none")
        assert all(kind == "metadata-inferred" for (mitigation, kind)
                   in provenance if mitigation != "none")

    def test_report_renders_matrix_section(self, ciphertext_result):
        from repro.analysis.paperreport import full_report
        text = full_report(ciphertext_result)
        assert "Mitigation vs observer class" in text
        assert "visit provenance:" in text


class TestDigestNeutrality:
    """The encrypted-transport knobs at their defaults change NOTHING.

    These pins predate the ciphertext-observer subsystem: a default
    campaign must produce byte-identical results and reports whether or
    not the matrix machinery exists.  If either digest moves, a
    supposedly opt-in knob leaked into the default pipeline.
    """

    def test_default_result_digest_unchanged(self, result):
        check("tiny-20240301-result", result_digest(result))

    def test_default_report_unchanged_and_matrixless(self, result):
        from repro.analysis.paperreport import full_report
        check("tiny-20240301-report", report_pin(result))
        assert "Mitigation vs observer class" not in full_report(result)

    def test_default_snapshot_has_no_matrix_key(self, result):
        assert "matrix" not in result.analysis.snapshot()


class TestWirePathDigests:
    """Result digests of the campaigns a change to the per-decoy wire
    path (packet transit, TTL handling, DNS encoding) would move first:
    medium (about 2 s), serial and on 2 workers, and tiny seed 7 under
    the fault knobs of CI's ``fault-smoke`` job, whose link loss drops
    decoys mid-path (``Path.transit``'s ``loss_at``).
    """

    def test_medium_serial_digest(self):
        result = Experiment(medium_config()).run()
        check("medium", result_digest(result))

    def test_medium_two_workers_digest(self):
        result = Experiment(medium_config(workers=2)).run()
        check("medium", result_digest(result))

    def test_faulted_tiny_digest(self):
        result = Experiment(faulted_config()).run()
        check("faulted-tiny-7", result_digest(result))


class TestTieOrderDigests:
    """Result digests of the configs where another event can fire at
    the same virtual instant as a Phase I send: a cache refresh one
    wildcard TTL after a send, a retry after a whole-second backoff, or
    the next round's first send inside the last round's tail.  Events at
    one instant fire in scheduling order, so these pins fix which of the
    two fires first.
    """

    @pytest.mark.parametrize("name", sorted(TIE_CONFIGS))
    def test_tie_case_digest(self, name):
        result = Experiment(TIE_CONFIGS[name]()).run()
        check(name, result_digest(result))
