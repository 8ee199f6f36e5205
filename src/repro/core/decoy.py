"""Decoy construction.

A decoy is one protocol message carrying the experiment domain in its
clear-text name field: QNAME for DNS, Host for HTTP, SNI for TLS.  The
factory encodes full wire bytes so everything downstream (sniffers,
resolvers, honeypots) parses real messages.
"""

import random
from typing import Optional

from repro.core.identifier import DecoyIdentity, IdentifierCodec
from repro.net.packet import Packet
from repro.protocols.dns import encode_query
from repro.protocols.http import make_get
from repro.protocols.tls import ClientHello, wrap_handshake
from repro.records import frozen
from repro.simkit.rng import random_bytes, randrange

DECOY_PROTOCOLS = ("dns", "http", "tls")

_DEFAULT_PORTS = {"dns": 53, "http": 80, "tls": 443}

ECH_PROVIDER_CONFIG = None
"""Lazily built shared :class:`~repro.mitigations.ech.EchConfig` for
ECH-adopting TLS decoys (one synthetic fronting provider)."""


def _ech_provider_config():
    global ECH_PROVIDER_CONFIG
    if ECH_PROVIDER_CONFIG is None:
        from repro.mitigations.ech import EchConfig
        ECH_PROVIDER_CONFIG = EchConfig(
            config_id=7,
            public_name="public.ech-frontend.example",
            secret=b"repro-experiment-ech-shared-key!",
        )
    return ECH_PROVIDER_CONFIG


DECOY_MITIGATIONS = ("none", "ech", "doh")


@frozen
class Decoy:
    """One decoy, ready to transit a path."""

    identity: DecoyIdentity
    protocol: str
    domain: str
    packet: Packet
    mitigation: str = "none"
    """Which encryption mitigation this decoy adopted: ``"ech"`` for TLS
    decoys carrying an Encrypted Client Hello, ``"doh"`` for DNS decoys
    tunneled to the DoH frontend, ``"none"`` for plaintext."""

    def __post_init__(self):
        if self.protocol not in DECOY_PROTOCOLS:
            raise ValueError(f"unknown decoy protocol {self.protocol!r}")
        if self.mitigation not in DECOY_MITIGATIONS:
            raise ValueError(f"unknown decoy mitigation {self.mitigation!r}")


class DecoyFactory:
    """Builds decoys for one experiment zone."""

    def __init__(self, zone: str, rng: random.Random,
                 codec: Optional[IdentifierCodec] = None,
                 ech_adoption: float = 0.0, ech_streams=None,
                 doh_adoption: float = 0.0, doh_streams=None):
        self.zone = zone.rstrip(".").lower()
        self._rng = rng
        self.codec = codec if codec is not None else IdentifierCodec()
        self.built = 0
        if not 0.0 <= ech_adoption <= 1.0:
            raise ValueError(f"ech_adoption must be in [0, 1], got {ech_adoption}")
        if ech_adoption > 0.0 and ech_streams is None:
            raise ValueError("ech_adoption > 0 needs keyed ech_streams")
        self.ech_adoption = ech_adoption
        self._ech_streams = ech_streams
        """Keyed :class:`~repro.simkit.rng.SubstreamFactory`: the adopt
        decision and the ECH sealing randomness are pure functions of the
        decoy domain, so the same decoys carry ECH in every shard layout."""
        self.ech_built = 0
        if not 0.0 <= doh_adoption <= 1.0:
            raise ValueError(f"doh_adoption must be in [0, 1], got {doh_adoption}")
        if doh_adoption > 0.0 and doh_streams is None:
            raise ValueError("doh_adoption > 0 needs keyed doh_streams")
        self.doh_adoption = doh_adoption
        self._doh_streams = doh_streams
        """Keyed like ``ech_streams``: whether a DNS decoy tunnels over
        DoH is a pure function of its domain."""
        self.doh_built = 0

    def domain_for(self, identity: DecoyIdentity) -> str:
        """The unique experiment domain embedding ``identity``."""
        return f"{self.codec.encode(identity)}.{self.zone}"

    def build(self, identity: DecoyIdentity, protocol: str,
              src_port: Optional[int] = None) -> Decoy:
        """Construct the decoy packet for ``identity`` over ``protocol``.

        The IP destination is the identity's destination address and the
        IP TTL is the identity's TTL, so Phase II probes are built through
        the exact same code path with varied identities.
        """
        if protocol not in DECOY_PROTOCOLS:
            raise ValueError(f"unknown decoy protocol {protocol!r}")
        domain = self.domain_for(identity)
        rng = self._rng
        if src_port is None:
            src_port = 20000 + randrange(rng, 40000)  # rng.randrange(20000, 60000)
        dst_port = _DEFAULT_PORTS[protocol]
        identification = randrange(rng, 0x10000)
        mitigation = "none"
        if protocol == "dns":
            doh_draw = None
            if self.doh_adoption > 0.0:
                doh_draw = self._doh_streams.derive("doh", domain)
            if doh_draw is not None and doh_draw.random() < self.doh_adoption:
                # DoH-adopting decoy: what crosses the wire is a TLS
                # session to the resolver's frontend — constant SNI, the
                # query sealed inside.  The simulation sends the
                # ClientHello as the flow's one on-path packet (the
                # handshake round trips add nothing observable that the
                # hello's size/timing does not already carry).
                from repro.mitigations.doh import DOH_RESOLVER_HOST
                hello = ClientHello(
                    server_name=DOH_RESOLVER_HOST,
                    random=random_bytes(rng, 32),
                )
                payload = wrap_handshake(hello.encode())
                packet = Packet.tcp(
                    src=identity.vp_address, dst=identity.dst_address,
                    ttl=identity.ttl, src_port=src_port, dst_port=443,
                    payload=payload, identification=identification,
                )
                mitigation = "doh"
                self.doh_built += 1
            else:
                payload = encode_query(domain, txid=randrange(rng, 0x10000))
                packet = Packet.udp(
                    src=identity.vp_address, dst=identity.dst_address,
                    ttl=identity.ttl, src_port=src_port, dst_port=dst_port,
                    payload=payload, identification=identification,
                )
        elif protocol == "http":
            payload = make_get(domain).encode()
            packet = Packet.tcp(
                src=identity.vp_address, dst=identity.dst_address,
                ttl=identity.ttl, src_port=src_port, dst_port=dst_port,
                payload=payload, identification=identification,
            )
        elif protocol == "tls":
            ech_draw = None
            if self.ech_adoption > 0.0:
                ech_draw = self._ech_streams.derive("ech", domain)
            if ech_draw is not None and ech_draw.random() < self.ech_adoption:
                from repro.mitigations.ech import build_ech_client_hello
                hello = build_ech_client_hello(
                    domain, _ech_provider_config(), rng=ech_draw)
                mitigation = "ech"
                self.ech_built += 1
            else:
                hello = ClientHello(
                    server_name=domain,
                    random=random_bytes(rng, 32),
                )
            payload = wrap_handshake(hello.encode())
            packet = Packet.tcp(
                src=identity.vp_address, dst=identity.dst_address,
                ttl=identity.ttl, src_port=src_port, dst_port=dst_port,
                payload=payload, identification=identification,
            )
        else:
            raise ValueError(f"unknown decoy protocol {protocol!r}")
        self.built += 1
        return Decoy(identity=identity, protocol=protocol, domain=domain,
                     packet=packet, mitigation=mitigation)
