"""Tests for VP geolocation and zone-file configuration."""

import random

import pytest

from repro.honeypot.logstore import LogStore
from repro.honeypot.zonefile import ZoneFileError, parse_zone, server_from_zonefile
from repro.intel.directory import IpDirectory
from repro.protocols.dns import DnsMessage, make_query
from repro.simkit.rng import RandomRouter
from repro.vpn.geolocate import (
    advertised_skew,
    geolocate_vps,
    inject_advertised_locations,
)
from repro.vpn.platform import VpnPlatform

ZONE_TEXT = """\
; experiment zone
$ORIGIN www.experiment.domain.
$TTL 3600
@    IN SOA ns1.experiment.domain. hostmaster.experiment.domain. (
             2024030101 7200 3600 1209600 300 )
@    IN NS  ns1.experiment.domain.
ns1  IN A   203.0.113.10
*    IN A   203.0.113.11
*    IN A   203.0.113.21
"""


class TestZoneFile:
    def test_parse_full_zone(self):
        zone = parse_zone(ZONE_TEXT)
        assert zone.origin == "www.experiment.domain"
        assert zone.default_ttl == 3600
        assert zone.wildcard_addresses == ["203.0.113.11", "203.0.113.21"]
        assert zone.ns_names == ["ns1.experiment.domain"]
        assert zone.soa.split()[2] == "2024030101"
        assert ("ns1.www.experiment.domain", "203.0.113.10") in zone.static_a

    def test_comments_ignored(self):
        zone = parse_zone("$ORIGIN z.example.\n; nothing\n* IN A 1.2.3.4 ; tail\n")
        assert zone.wildcard_addresses == ["1.2.3.4"]

    def test_ttl_column_tolerated(self):
        zone = parse_zone("$ORIGIN z.example.\n* 600 IN A 1.2.3.4\n")
        assert zone.wildcard_addresses == ["1.2.3.4"]

    def test_rejects_records_before_origin(self):
        with pytest.raises(ZoneFileError):
            parse_zone("* IN A 1.2.3.4\n")

    def test_rejects_bad_address(self):
        with pytest.raises(ZoneFileError):
            parse_zone("$ORIGIN z.example.\n* IN A 1.2.3.999\n")

    def test_rejects_unsupported_type(self):
        with pytest.raises(ZoneFileError):
            parse_zone("$ORIGIN z.example.\n@ IN MX 10 mail.z.example.\n")

    def test_rejects_unbalanced_parentheses(self):
        with pytest.raises(ZoneFileError):
            parse_zone("$ORIGIN z.example.\n@ IN SOA a. b. ( 1 2 3 4 5\n")

    def test_server_from_zonefile_answers_wildcard(self):
        log = LogStore()
        server = server_from_zonefile(ZONE_TEXT, log, site="US")
        query = make_query("abc123-0001.www.experiment.domain", txid=5)
        response = DnsMessage.decode(server.handle_query(query.encode(), "9.9.9.9", 1.0))
        assert response.answers[0].rdata in ("203.0.113.11", "203.0.113.21")
        assert response.answers[0].ttl == 3600
        assert len(log) == 1

    def test_rejects_ttl_beyond_u32(self):
        log = LogStore()
        with pytest.raises(ZoneFileError, match="4294967296"):
            server = server_from_zonefile(
                ZONE_TEXT.replace("$TTL 3600", "$TTL 4294967296"), log, site="US")
            server.handle_query(
                make_query("abc.www.experiment.domain", txid=5).encode(),
                "9.9.9.9", 1.0)
        assert len(log) == 0
        assert parse_zone(ZONE_TEXT.replace("$TTL 3600", "$TTL 4294967295")
                          ).default_ttl == 4294967295

    def test_server_requires_wildcard(self):
        with pytest.raises(ZoneFileError):
            server_from_zonefile("$ORIGIN z.example.\n@ IN A 1.2.3.4\n",
                                 LogStore(), site="US")


class TestGeolocation:
    def make_platform(self):
        router = RandomRouter(42)
        platform = VpnPlatform(router, vp_scale=0.01)
        directory = IpDirectory()
        for vp in platform.vantage_points:
            directory.register(vp.address, vp.asn, vp.country, role="vp")
        return platform, directory

    def test_observed_country_matches_directory(self):
        platform, directory = self.make_platform()
        results = geolocate_vps(platform.vantage_points, "203.0.113.11",
                                directory, random.Random(1))
        assert len(results) == len(platform.vantage_points)
        by_id = {vp.vp_id: vp for vp in platform.vantage_points}
        for result in results:
            assert result.observed_country == by_id[result.vp_id].country
            assert result.observed_asn == by_id[result.vp_id].asn

    def test_skew_detection(self):
        platform, directory = self.make_platform()
        rng = random.Random(2)
        advertised = inject_advertised_locations(platform.vantage_points, rng,
                                                 skew_fraction=0.25)
        results = geolocate_vps(platform.vantage_points, "203.0.113.11",
                                directory, random.Random(3),
                                advertised=advertised)
        skew = advertised_skew(results)
        assert 0.05 < skew < 0.5

    def test_truthful_advertising_has_zero_skew(self):
        platform, directory = self.make_platform()
        advertised = inject_advertised_locations(
            platform.vantage_points, random.Random(2), skew_fraction=0.0,
        )
        results = geolocate_vps(platform.vantage_points, "203.0.113.11",
                                directory, random.Random(3),
                                advertised=advertised)
        assert advertised_skew(results) == 0.0

    def test_no_advertised_locations_skew_zero(self):
        platform, directory = self.make_platform()
        results = geolocate_vps(platform.vantage_points, "203.0.113.11",
                                directory, random.Random(3))
        assert advertised_skew(results) == 0.0
        assert all(result.advertised_matches is None for result in results)

    def test_skew_fraction_validated(self):
        platform, _ = self.make_platform()
        with pytest.raises(ValueError):
            inject_advertised_locations(platform.vantage_points,
                                        random.Random(1), skew_fraction=1.5)
