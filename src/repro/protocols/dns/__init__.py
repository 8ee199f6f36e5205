"""DNS wire-format codec (RFC 1035 subset with name compression)."""

from repro.protocols.dns.message import (
    DnsHeader,
    DnsMessage,
    DnsQuestion,
    ResourceRecord,
    encode_answer,
    encode_query,
    make_query,
    make_response,
    read_query,
)
from repro.protocols.dns.names import (
    DnsNameError,
    decode_name,
    encode_name,
    is_subdomain_of,
    normalize_name,
)
from repro.protocols.dns.types import QCLASS_IN, RCODE, QTYPE

__all__ = [
    "DnsHeader",
    "DnsQuestion",
    "ResourceRecord",
    "DnsMessage",
    "make_query",
    "make_response",
    "encode_query",
    "read_query",
    "encode_answer",
    "encode_name",
    "decode_name",
    "normalize_name",
    "is_subdomain_of",
    "DnsNameError",
    "QTYPE",
    "RCODE",
    "QCLASS_IN",
]
