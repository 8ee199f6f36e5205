"""Tests for the honeypot infrastructure."""

import pytest

from repro.honeypot import (
    AuthoritativeServer,
    HoneypotDeployment,
    HoneyTlsServer,
    HoneyWebServer,
    LoggedRequest,
    LogStore,
)
from repro.protocols.dns import DnsHeader, DnsMessage, QTYPE, RCODE, make_query
from repro.protocols.http import HttpRequest, HttpResponse, make_get
from repro.protocols.tls import ClientHello, wrap_handshake

ZONE = "www.experiment.domain"


class TestLogStore:
    def entry(self, time=1.0, domain="a.www.experiment.domain", protocol="dns"):
        return LoggedRequest(time=time, site="US", protocol=protocol,
                             src_address="198.51.100.1", domain=domain)

    def test_append_and_len(self):
        store = LogStore()
        store.append(self.entry())
        assert len(store) == 1

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            LoggedRequest(time=0, site="US", protocol="gopher",
                          src_address="1.2.3.4", domain="x")

    def test_rejects_time_regression(self):
        store = LogStore()
        store.append(self.entry(time=5.0))
        with pytest.raises(ValueError):
            store.append(self.entry(time=4.0))

    def test_for_domain_preserves_order(self):
        store = LogStore()
        store.append(self.entry(time=1.0, protocol="dns"))
        store.append(self.entry(time=2.0, protocol="http"))
        store.append(self.entry(time=3.0, domain="other.www.experiment.domain"))
        entries = store.for_domain("a.www.experiment.domain")
        assert [entry.protocol for entry in entries] == ["dns", "http"]

    def test_between_is_half_open(self):
        store = LogStore()
        for time in (1.0, 2.0, 3.0):
            store.append(self.entry(time=time))
        assert [entry.time for entry in store.between(1.0, 3.0)] == [1.0, 2.0]

    def test_between_excludes_entry_exactly_at_end(self):
        """Pins ``start <= time < end``: an entry at exactly ``end`` is
        excluded, so adjacent windows tile the log without double counting
        (see the ``between`` docstring)."""
        store = LogStore()
        for time in (0.0, 5.0, 10.0):
            store.append(self.entry(time=time))
        assert [entry.time for entry in store.between(0.0, 5.0)] == [0.0]
        assert [entry.time for entry in store.between(5.0, 10.0)] == [5.0]
        assert [entry.time for entry in store.between(10.0, 10.0)] == []

    def test_between_windows_compose(self):
        """between(a, b) + between(b, c) == between(a, c) for any cut b,
        including cuts landing exactly on an entry's timestamp."""
        store = LogStore()
        times = (0.0, 1.0, 1.0, 2.5, 4.0, 4.0, 7.0)
        for time in times:
            store.append(self.entry(time=time))
        whole = [entry.time for entry in store.between(0.0, 8.0)]
        assert whole == list(times)
        for cut in (0.0, 1.0, 2.0, 2.5, 4.0, 6.9, 7.0, 8.0):
            left = [entry.time for entry in store.between(0.0, cut)]
            right = [entry.time for entry in store.between(cut, 8.0)]
            assert left + right == whole, f"cut at {cut} double/under-counts"

    def test_by_protocol(self):
        store = LogStore()
        store.append(self.entry(time=1.0, protocol="dns"))
        store.append(self.entry(time=2.0, protocol="https"))
        assert len(store.by_protocol("https")) == 1

    def test_by_protocol_preserves_arrival_order(self):
        store = LogStore()
        for time in (1.0, 2.0, 3.0, 4.0):
            store.append(self.entry(time=time, protocol="dns"))
        store.append(self.entry(time=5.0, protocol="http"))
        assert [entry.time for entry in store.by_protocol("dns")] == \
            [1.0, 2.0, 3.0, 4.0]
        assert store.by_protocol("https") == []

    def test_tail_from_zero_returns_everything(self):
        store = LogStore()
        for time in (1.0, 2.0, 3.0):
            store.append(self.entry(time=time))
        entries, cursor = store.tail(0)
        assert [entry.time for entry in entries] == [1.0, 2.0, 3.0]
        assert cursor == 3

    def test_tail_is_half_open(self):
        """Pins the cursor contract: a second tail() from the returned
        cursor yields only what arrived in the meantime — no entry
        duplicated, none skipped (mirrors ``between``'s half-open
        discipline)."""
        store = LogStore()
        store.append(self.entry(time=1.0))
        entries, cursor = store.tail(0)
        assert len(entries) == 1
        entries, cursor = store.tail(cursor)
        assert entries == [] and cursor == 1
        store.append(self.entry(time=2.0))
        store.append(self.entry(time=3.0))
        entries, cursor = store.tail(cursor)
        assert [entry.time for entry in entries] == [2.0, 3.0]
        assert cursor == 3

    def test_tail_windows_compose(self):
        """Consecutive tail() calls tile the log exactly: concatenating
        every window reproduces all()."""
        store = LogStore()
        consumed = []
        cursor = 0
        for batch in ((1.0,), (2.0, 2.0, 3.0), (), (4.0,)):
            for time in batch:
                store.append(self.entry(time=time))
            entries, cursor = store.tail(cursor)
            consumed.extend(entries)
        assert tuple(consumed) == store.all()
        assert cursor == len(store)

    def test_tail_rejects_negative_cursor(self):
        store = LogStore()
        with pytest.raises(ValueError):
            store.tail(-1)

    def test_domains_deduplicated(self):
        store = LogStore()
        store.append(self.entry(time=1.0))
        store.append(self.entry(time=2.0))
        assert store.domains() == ["a.www.experiment.domain"]


class TestAuthoritativeServer:
    def make_server(self, log=None):
        log = log if log is not None else LogStore()
        server = AuthoritativeServer(ZONE, ["203.0.113.11"], log, site="US")
        return server, log

    def test_in_zone_query_answered_with_wildcard(self):
        server, log = self.make_server()
        query = make_query(f"abc123.{ZONE}", txid=9)
        response = DnsMessage.decode(server.handle_query(query.encode(), "1.2.3.4", 5.0))
        assert response.header.rcode is RCODE.NOERROR
        assert response.answers[0].rdata == "203.0.113.11"
        assert response.answers[0].ttl == 3600

    def test_in_zone_query_logged(self):
        server, log = self.make_server()
        query = make_query(f"abc123.{ZONE}", txid=9)
        server.handle_query(query.encode(), "1.2.3.4", 5.0)
        assert len(log) == 1
        entry = log.all()[0]
        assert entry.domain == f"abc123.{ZONE}"
        assert entry.src_address == "1.2.3.4"
        assert entry.protocol == "dns"
        assert entry.qtype == QTYPE.A

    def test_out_of_zone_refused_and_not_logged(self):
        server, log = self.make_server()
        query = make_query("www.google.com", txid=9)
        response = DnsMessage.decode(server.handle_query(query.encode(), "1.2.3.4", 5.0))
        assert response.header.rcode is RCODE.REFUSED
        assert len(log) == 0
        assert server.refused == 1

    def test_question_less_query_formerr_and_not_logged(self):
        server, log = self.make_server()
        query = DnsMessage(header=DnsHeader(txid=9, flags=0x0100))
        response = DnsMessage.decode(server.handle_query(query.encode(), "1.2.3.4", 5.0))
        assert response.header.is_response
        assert response.header.rcode is RCODE.FORMERR
        assert response.header.txid == 9
        assert response.questions == ()
        assert len(log) == 0
        assert server.refused == 1

    def test_zone_apex_covered(self):
        server, _ = self.make_server()
        assert server.covers(ZONE)
        assert server.covers(f"deep.label.{ZONE}")
        assert not server.covers("experiment.domain.evil.com")

    def test_wildcard_resolution_is_deterministic(self):
        server = AuthoritativeServer(ZONE, ["203.0.113.11", "203.0.113.21"],
                                     LogStore(), site="US")
        name = f"xyz.{ZONE}"
        assert server.resolve_address(name) == server.resolve_address(name)

    def test_requires_web_addresses(self):
        with pytest.raises(ValueError):
            AuthoritativeServer(ZONE, [], LogStore(), site="US")

    # A server that cannot answer must fail when it is built, not after it
    # has logged the query it then fails to answer.
    @pytest.mark.parametrize("record_ttl", [-1, 2**32])
    def test_rejects_record_ttl_out_of_range(self, record_ttl):
        log = LogStore()
        with pytest.raises(ValueError, match=f"record TTL out of range: {record_ttl}"):
            server = AuthoritativeServer(ZONE, ["203.0.113.11"], log, site="US",
                                         record_ttl=record_ttl)
            server.handle_query(make_query(f"a.{ZONE}", txid=1).encode(),
                                "1.2.3.4", 1.0)
        assert len(log) == 0

    def test_rejects_web_address_that_is_not_ipv4(self):
        log = LogStore()
        with pytest.raises(ValueError, match="'not-an-ip'"):
            server = AuthoritativeServer(ZONE, ["203.0.113.11", "not-an-ip"],
                                         log, site="US")
            for index in range(4):
                server.handle_query(
                    make_query(f"{index}.{ZONE}", txid=1).encode(), "1.2.3.4", 1.0)
        assert len(log) == 0


class TestHoneyWebServer:
    def make_server(self):
        log = LogStore()
        return HoneyWebServer("203.0.113.11", log, site="US"), log

    def test_root_serves_disclosure_page(self):
        server, _ = self.make_server()
        response_bytes = server.handle_request(
            make_get(f"a.{ZONE}").encode(), "9.9.9.9", 1.0
        )
        response = HttpResponse.decode(response_bytes)
        assert response.status == 200
        assert b"measurement" in response.body

    def test_enumeration_path_404s_but_is_logged(self):
        server, log = self.make_server()
        request = HttpRequest(method="GET", path="/admin",
                              headers=(("Host", f"a.{ZONE}"),))
        response = HttpResponse.decode(server.handle_request(request.encode(), "9.9.9.9", 1.0))
        assert response.status == 404
        assert log.all()[0].path == "/admin"

    def test_https_flag_sets_protocol(self):
        server, log = self.make_server()
        server.handle_request(make_get(f"a.{ZONE}").encode(), "9.9.9.9", 1.0,
                              over_tls=True)
        assert log.all()[0].protocol == "https"

    def test_user_agent_recorded(self):
        server, log = self.make_server()
        server.handle_request(
            make_get(f"a.{ZONE}", user_agent="probe/2.0").encode(), "9.9.9.9", 1.0
        )
        assert log.all()[0].user_agent == "probe/2.0"


class TestHoneyTlsServer:
    def make_server(self):
        log = LogStore()
        web = HoneyWebServer("203.0.113.11", log, site="US")
        return HoneyTlsServer(web), log

    def hello_record(self, sni=f"a.{ZONE}"):
        hello = ClientHello(server_name=sni, random=bytes(32))
        return wrap_handshake(hello.encode())

    def test_connection_with_request_logs_https(self):
        server, log = self.make_server()
        response = server.handle_connection(
            self.hello_record(), make_get(f"a.{ZONE}").encode(), "9.9.9.9", 2.0
        )
        assert response is not None
        assert log.all()[0].protocol == "https"
        assert server.handshakes_seen == 1

    def test_connection_without_request_logs_nothing(self):
        server, log = self.make_server()
        assert server.handle_connection(self.hello_record(), None, "9.9.9.9", 2.0) is None
        assert len(log) == 0
        assert server.handshakes_seen == 1

    def test_peek_sni(self):
        assert HoneyTlsServer.peek_sni(self.hello_record("x.example")) == "x.example"


class TestDeployment:
    def test_three_sites(self):
        deployment = HoneypotDeployment()
        assert sorted(deployment.site_names) == ["DE", "SG", "US"]

    def test_shared_log(self):
        deployment = HoneypotDeployment()
        query = make_query(f"abc.{ZONE}", txid=1)
        deployment.sites["US"].authdns.handle_query(query.encode(), "1.1.1.2", 1.0)
        deployment.sites["DE"].authdns.handle_query(query.encode(), "1.1.1.3", 2.0)
        assert len(deployment.log) == 2

    def test_resolve_experiment_name(self):
        deployment = HoneypotDeployment()
        address = deployment.resolve_experiment_name(f"foo.{ZONE}")
        assert address in {site.web_address for site in deployment.sites.values()}
        assert deployment.resolve_experiment_name("foo.google.com") is None

    def test_site_for_client_is_deterministic(self):
        deployment = HoneypotDeployment()
        assert (deployment.site_for_client("1.2.3.4").name
                == deployment.site_for_client("1.2.3.4").name)

    def test_web_site_by_address(self):
        deployment = HoneypotDeployment()
        site = deployment.sites["SG"]
        assert deployment.web_site_by_address(site.web_address) is site
        assert deployment.web_site_by_address("1.2.3.4") is None
