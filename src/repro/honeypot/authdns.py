"""Authoritative DNS server for the experiment zone.

Configured with a wildcard A record (TTL 3,600 per Section 3) resolving
every name under the experiment domain to the honey web servers.  Every
query is logged: the initial decoy's recursive lookup *and* any later
unsolicited re-queries both land here, which is what makes rule (iii) of
the unsolicited classifier decidable.
"""

from typing import Sequence

from repro.honeypot.logstore import LoggedRequest, LogStore, PROTOCOL_DNS
from repro.net.addr import is_valid_ipv4
from repro.protocols.dns import (
    DnsMessage,
    QTYPE,
    RCODE,
    ResourceRecord,
    encode_answer,
    make_response,
    normalize_name,
    read_query,
)

WILDCARD_RECORD_TTL = 3600


class AuthoritativeServer:
    """The honeypot-side authoritative server for one experiment zone."""

    def __init__(
        self,
        zone: str,
        web_addresses: Sequence[str],
        log: LogStore,
        site: str,
        record_ttl: int = WILDCARD_RECORD_TTL,
    ):
        if not web_addresses:
            raise ValueError("need at least one honey web address")
        for address in web_addresses:
            if not is_valid_ipv4(address):
                raise ValueError(f"honey web address is not IPv4: {address!r}")
        # Checked here, so that no query is logged that cannot be answered.
        if (not isinstance(record_ttl, int)
                or not 0 <= record_ttl <= 0xFFFFFFFF):
            raise ValueError(f"record TTL out of range: {record_ttl!r}")
        self.zone = normalize_name(zone)
        self._zone_suffix = "." + self.zone
        self.web_addresses = tuple(web_addresses)
        self.record_ttl = record_ttl
        self._log = log
        self.site = site
        self.queries_served = 0
        self.refused = 0

    def covers(self, name: str) -> bool:
        """True when ``name`` falls inside the experiment zone
        (:func:`~repro.protocols.dns.names.is_subdomain_of`, with the
        zone normalized once)."""
        name = normalize_name(name)
        return name == self.zone or name.endswith(self._zone_suffix)

    def resolve_address(self, name: str) -> str:
        """Wildcard resolution: deterministic honey web address per name."""
        index = sum(name.encode()) % len(self.web_addresses)
        return self.web_addresses[index]

    def handle_query(self, wire: bytes, src_address: str, now: float) -> bytes:
        """Process one query's wire bytes; returns response bytes.

        Queries outside the zone are REFUSED (and not logged as experiment
        traffic); in-zone queries are logged and answered from the
        wildcard.  A query without a question is answered FORMERR, and
        not logged.  A query of one question and no records, the shape
        every query of a run has, is read and answered from its bytes;
        any other goes through the message codec, with the same result.
        """
        query = read_query(wire)
        if query is not None:
            txid, flags, qname, qtype, qclass = query
            # covers(qname), for a name read_query has normalized.
            if qname == self.zone or qname.endswith(self._zone_suffix):
                address = self._serve(qname, qtype, src_address, now)
                return encode_answer(txid, flags, qname, qtype, qclass,
                                     self.record_ttl, address)
        message = DnsMessage.decode(wire)
        qname = message.qname
        if qname is None:
            self.refused += 1
            return make_response(message, rcode=RCODE.FORMERR).encode()
        if not self.covers(qname):
            self.refused += 1
            return make_response(message, rcode=RCODE.REFUSED).encode()
        address = self._serve(qname, message.questions[0].qtype, src_address, now)
        answer = ResourceRecord(
            name=qname, rtype=QTYPE.A, ttl=self.record_ttl, rdata=address,
        )
        return make_response(message, answers=(answer,), authoritative=True).encode()

    def _serve(self, qname: str, qtype: int, src_address: str, now: float) -> str:
        """Log one in-zone query; returns the address its answer carries."""
        self._log.append(
            LoggedRequest(
                time=now,
                site=self.site,
                protocol=PROTOCOL_DNS,
                src_address=src_address,
                domain=qname,
                qtype=qtype,
            )
        )
        self.queries_served += 1
        return self.resolve_address(qname)
