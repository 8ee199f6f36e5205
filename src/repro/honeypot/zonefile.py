"""Zone-file configuration for the honeypot authoritative server.

Production deployments configure wildcard zones in a master file; this
parser understands the subset the experiment needs — ``$ORIGIN``,
``$TTL``, SOA, NS, A records, and the wildcard ``*`` owner — and builds
an :class:`~repro.honeypot.authdns.AuthoritativeServer` from it.

Example::

    $ORIGIN www.experiment.domain.
    $TTL 3600
    @    IN SOA ns1.experiment.domain. hostmaster.experiment.domain. (
                 2024030101 7200 3600 1209600 300 )
    @    IN NS  ns1.experiment.domain.
    *    IN A   203.0.113.11
    *    IN A   203.0.113.21
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.honeypot.authdns import AuthoritativeServer
from repro.honeypot.logstore import LogStore
from repro.net.addr import is_valid_ipv4
from repro.protocols.dns import normalize_name


class ZoneFileError(ValueError):
    """Raised for zone files the parser cannot accept."""


@dataclass
class ParsedZone:
    """What the parser extracted from a master file."""

    origin: str
    default_ttl: int
    soa: Optional[str]
    ns_names: List[str] = field(default_factory=list)
    wildcard_addresses: List[str] = field(default_factory=list)
    static_a: List[Tuple[str, str]] = field(default_factory=list)


def _strip_comment(line: str) -> str:
    # Comments start at an unquoted semicolon; the experiment zone never
    # quotes, so a plain split suffices.
    return line.split(";", 1)[0].rstrip()


def _join_parentheses(lines: List[str]) -> List[str]:
    """Merge multi-line parenthesized records (SOA spans lines)."""
    joined: List[str] = []
    buffer = ""
    depth = 0
    for line in lines:
        depth += line.count("(") - line.count(")")
        if buffer:
            buffer += " " + line.strip()
        elif depth > 0 or not line:
            buffer = line
        else:
            joined.append(line)
            continue
        if depth == 0 and buffer:
            joined.append(buffer.replace("(", " ").replace(")", " "))
            buffer = ""
    if depth != 0:
        raise ZoneFileError("unbalanced parentheses in zone file")
    return joined


def parse_zone(text: str) -> ParsedZone:
    """Parse zone-file text into a :class:`ParsedZone`."""
    raw_lines = [_strip_comment(line) for line in text.splitlines()]
    lines = _join_parentheses([line for line in raw_lines if line.strip()])

    origin: Optional[str] = None
    default_ttl = 3600
    soa: Optional[str] = None
    ns_names: List[str] = []
    wildcard: List[str] = []
    static_a: List[Tuple[str, str]] = []

    for line in lines:
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "$ORIGIN":
            if len(fields) != 2:
                raise ZoneFileError(f"malformed $ORIGIN: {line!r}")
            origin = normalize_name(fields[1])
            continue
        if fields[0] == "$TTL":
            if (len(fields) != 2 or not fields[1].isascii()
                    or not fields[1].isdigit()):
                raise ZoneFileError(f"malformed $TTL: {line!r}")
            default_ttl = int(fields[1])
            if default_ttl > 0xFFFFFFFF:
                raise ZoneFileError(f"$TTL {default_ttl} exceeds 4294967295")
            continue
        if origin is None:
            raise ZoneFileError("records before $ORIGIN")
        owner = fields[0]
        rest = fields[1:]
        # Optional TTL column, then the IN class, are both tolerated.
        if rest and rest[0].isdigit():
            rest = rest[1:]
        if rest and rest[0].upper() == "IN":
            rest = rest[1:]
        if len(rest) < 2:
            raise ZoneFileError(f"truncated record: {line!r}")
        rtype = rest[0].upper()
        rdata = rest[1:]
        if rtype == "SOA":
            if len(rdata) != 7:
                raise ZoneFileError(f"SOA needs 7 fields, got {line!r}")
            soa = " ".join(
                [normalize_name(rdata[0]), normalize_name(rdata[1])] + rdata[2:]
            )
        elif rtype == "NS":
            ns_names.append(normalize_name(rdata[0]))
        elif rtype == "A":
            address = rdata[0]
            if not is_valid_ipv4(address):
                raise ZoneFileError(f"bad A record address {address!r}")
            if owner == "*":
                wildcard.append(address)
            else:
                name = origin if owner == "@" else f"{normalize_name(owner)}.{origin}"
                static_a.append((name, address))
        else:
            raise ZoneFileError(f"unsupported record type {rtype!r}")

    if origin is None:
        raise ZoneFileError("zone file has no $ORIGIN")
    return ParsedZone(
        origin=origin,
        default_ttl=default_ttl,
        soa=soa,
        ns_names=ns_names,
        wildcard_addresses=wildcard,
        static_a=static_a,
    )


def server_from_zonefile(text: str, log: LogStore,
                         site: str) -> AuthoritativeServer:
    """Build an authoritative server from zone-file text."""
    zone = parse_zone(text)
    if not zone.wildcard_addresses:
        raise ZoneFileError(
            "the experiment zone needs a wildcard A record pointing at the "
            "honey web servers"
        )
    return AuthoritativeServer(
        zone=zone.origin,
        web_addresses=zone.wildcard_addresses,
        log=log,
        site=site,
        record_ttl=zone.default_ttl,
    )
