"""Ciphertext-metadata observers: classification without plaintext.

The mitigations package treats encryption as a point defense — ECH hides
the SNI, DoH hides the query — and the wire sniffers in
:mod:`repro.observers.onpath` are indeed blinded by both.  But the
defense is leaky.  Siby et al. fingerprint encrypted DNS from packet
sizes and timing alone; Hoang et al. show that correlating resolved
destination addresses defeats domain encryption outright.  This module
models both observer classes:

* :class:`TrafficClassifier` / :class:`CiphertextObserver` — a
  traffic-analysis observer that scores TLS flows against reference
  ClientHello *size templates* plus inter-send timing regularity.  It
  parses lengths and extension *types* only, never name bytes: decoy
  domains have a fixed label length, so their hellos land in a handful
  of record-size buckets a passive observer can precompute.
* :class:`DstIpCorrelator` — a destination-address correlator that flags
  endpoints contacted by many distinct flows as shared decoy sinks and
  links every flow to a flagged sink, SNI or no SNI.

Both are deterministic: classification inputs are wire-stable metadata
(payload lengths, addresses, ports, virtual times) and every stochastic
decision — placement and the tunable false-positive rate — is a keyed
substream draw, so serial and sharded campaigns classify identically.
"""

from typing import Callable, Dict, List, Optional, Tuple

from repro.mitigations.doh import DOH_RESOLVER_HOST
from repro.mitigations.ech import ECH_EXTENSION_TYPE, _NONCE_LENGTH
from repro.net.packet import PROTO_TCP, Packet
from repro.observers.placement import PlacementPlanner
from repro.protocols.tls import ClientHello, wrap_handshake
from repro.records import frozen
from repro.telemetry.registry import NULL_REGISTRY

PADDING_BUCKET = 32
"""Record sizes quantize to 32-byte buckets: features are invariant to
padding that stays within a bucket, which is exactly the invariance the
property tests pin (and the reason naive SNI-length padding of less than
a bucket does not evade the classifier)."""

DECOY_LABEL_LENGTH = 29
"""Every experiment label is 24 base32 chars + ``-`` + a 4-digit
sequence (see :mod:`repro.core.identifier`), so decoy ClientHello sizes
are a pure function of the zone name — the template anchor."""

ECH_PUBLIC_NAME = "public.ech-frontend.example"

SIZE_WEIGHT = 0.7
TIMING_WEIGHT = 0.3


@frozen
class FlowFeatures:
    """Metadata extracted from one packet without reading plaintext."""

    transport: int
    dst_port: int
    size_bucket: int
    sni_length: int
    """Length of the (outer) SNI name in bytes; -1 when the payload is
    not a parseable ClientHello."""
    has_ech: bool


def _client_hello_metadata(payload: bytes) -> Tuple[int, int]:
    """(sni_length, has_ech as int) from TLS framing lengths and types.

    Walks the record -> handshake -> extension structure reading only
    length fields and extension type codes — the traffic-analysis
    observer's discipline is that name bytes stay opaque.  Returns
    ``(-1, 0)`` for anything that is not a ClientHello record.
    """
    # TLS record header: type(1) version(2) length(2), type 22 = handshake.
    if len(payload) < 5 + 4 or payload[0] != 22:
        return -1, 0
    body = payload[5:]
    if body[0] != 1:  # handshake type 1 = ClientHello
        return -1, 0
    cursor = 4 + 2 + 32  # handshake header, legacy_version, random
    if len(body) < cursor + 1:
        return -1, 0
    cursor += 1 + body[cursor]  # session id
    if len(body) < cursor + 2:
        return -1, 0
    cursor += 2 + int.from_bytes(body[cursor:cursor + 2], "big")  # suites
    if len(body) < cursor + 1:
        return -1, 0
    cursor += 1 + body[cursor]  # compression methods
    if len(body) < cursor + 2:
        return -1, 0
    ext_total = int.from_bytes(body[cursor:cursor + 2], "big")
    cursor += 2
    end = min(cursor + ext_total, len(body))
    sni_length = -1
    has_ech = 0
    while cursor + 4 <= end:
        ext_type = int.from_bytes(body[cursor:cursor + 2], "big")
        ext_length = int.from_bytes(body[cursor + 2:cursor + 4], "big")
        cursor += 4
        if ext_type == 0 and ext_length >= 5:  # server_name
            sni_length = int.from_bytes(body[cursor + 3:cursor + 5], "big")
        elif ext_type == ECH_EXTENSION_TYPE:
            has_ech = 1
        cursor += ext_length
    return sni_length, has_ech


def featurize(packet: Packet) -> FlowFeatures:
    """The metadata feature vector of one packet."""
    payload = packet.payload
    sni_length, has_ech = -1, 0
    if packet.ip.protocol == PROTO_TCP and packet.transport.dst_port == 443:
        sni_length, has_ech = _client_hello_metadata(payload)
    return FlowFeatures(
        transport=packet.ip.protocol,
        dst_port=packet.transport.dst_port,
        size_bucket=len(payload) // PADDING_BUCKET,
        sni_length=sni_length,
        has_ech=bool(has_ech),
    )


def size_templates(zone: str) -> Dict[str, int]:
    """Reference ClientHello size buckets for decoy flows under each
    mitigation, computed from wire framing alone.

    A passive observer who knows the experiment zone (or merely a label
    length, which never varies) can build these offline: hello sizes
    depend only on name lengths, never on key material.
    """
    zone = zone.rstrip(".").lower()
    label = "a" * DECOY_LABEL_LENGTH
    domain = f"{label}.{zone}"
    randomness = bytes(32)
    plain = wrap_handshake(
        ClientHello(server_name=domain, random=randomness).encode())
    # The ECH extension body is config_id(1) + nonce + sealed inner SNI;
    # only its length matters to the template.
    ech_body = bytes(1 + _NONCE_LENGTH + len(domain))
    ech = wrap_handshake(
        ClientHello(
            server_name=ECH_PUBLIC_NAME,
            random=randomness,
            extra_extensions=((ECH_EXTENSION_TYPE, ech_body),),
        ).encode())
    doh = wrap_handshake(
        ClientHello(server_name=DOH_RESOLVER_HOST, random=randomness).encode())
    return {
        "tls-plain": len(plain) // PADDING_BUCKET,
        "tls-ech": len(ech) // PADDING_BUCKET,
        "doh": len(doh) // PADDING_BUCKET,
    }


class TrafficClassifier:
    """Thresholded size/timing classifier over ciphertext metadata.

    ``score`` is independent of the threshold, so the classified set
    shrinks monotonically as the threshold rises — the property tests
    pin exactly that.  ``fpr`` is the observer's tunable aggressiveness:
    sub-threshold flows are still flagged with that probability, drawn
    from a keyed substream of wire-stable flow keys so the same flows
    false-positive in every shard layout.
    """

    def __init__(self, templates: Dict[str, int], threshold: float = 0.6,
                 fpr: float = 0.0, streams=None):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        if not 0.0 <= fpr <= 1.0:
            raise ValueError(f"fpr must be in [0, 1], got {fpr}")
        if fpr > 0.0 and streams is None:
            raise ValueError("fpr > 0 needs keyed substreams")
        self.templates = dict(templates)
        self._buckets = sorted(set(templates.values()))
        self.threshold = threshold
        self.fpr = fpr
        self._streams = streams

    def score(self, features: FlowFeatures, regularity: float = 0.0) -> float:
        """Decoy likelihood in [0, 1] from metadata alone."""
        if features.transport != PROTO_TCP or features.dst_port != 443:
            return 0.0
        if features.sni_length < 0:
            return 0.0
        distance = min(abs(features.size_bucket - bucket)
                       for bucket in self._buckets)
        size_score = {0: 1.0, 1: 0.5}.get(distance, 0.0)
        return SIZE_WEIGHT * size_score + TIMING_WEIGHT * max(
            0.0, min(1.0, regularity))

    def classify(self, features: FlowFeatures, regularity: float,
                 flow_keys: Tuple = ()) -> bool:
        """Final verdict: threshold on the score, plus the keyed FPR coin."""
        if self.score(features, regularity) >= self.threshold:
            return True
        if self.fpr > 0.0:
            draw = self._streams.derive("fp", *flow_keys)
            return draw.random() < self.fpr
        return False


class DstIpCorrelator:
    """Links flows by destination-address reuse (Hoang et al.).

    Needs no TLS parsing at all: an address contacted by at least
    ``link_threshold`` distinct flows is flagged as a shared decoy sink
    and every flow to it is linked — which is why ECH and DoH rows of the
    mitigation matrix stay nonzero in this column.
    """

    def __init__(self, link_threshold: int = 3):
        if link_threshold < 1:
            raise ValueError(
                f"link_threshold must be >= 1, got {link_threshold}")
        self.link_threshold = link_threshold
        self._sources: Dict[str, set] = {}

    def observe(self, src: str, dst: str) -> None:
        self._sources.setdefault(dst, set()).add(src)

    def flagged(self, dst: str) -> bool:
        return len(self._sources.get(dst, ())) >= self.link_threshold

    def flagged_destinations(self) -> List[str]:
        return sorted(dst for dst, sources in self._sources.items()
                      if len(sources) >= self.link_threshold)


class _TimingTracker:
    """Per-source inter-arrival regularity from virtual timestamps.

    Decoy campaigns send on a fixed spacing grid, so consecutive deltas
    from one vantage point match almost exactly — organic clients do not.
    State is keyed by source address, and every flow from a source stays
    in that source's shard, so serial and sharded runs see identical
    delta sequences.
    """

    def __init__(self):
        self._state: Dict[str, Tuple[float, Optional[float]]] = {}

    def observe(self, src: str, now: float) -> float:
        previous = self._state.get(src)
        if previous is None:
            self._state[src] = (now, None)
            return 0.0
        last_time, last_delta = previous
        delta = now - last_time
        self._state[src] = (now, delta)
        if last_delta is None or delta < 0.0:
            return 0.0
        spread = abs(delta - last_delta)
        scale = max(delta, last_delta, 1e-9)
        return max(0.0, 1.0 - spread / scale)


class CiphertextObserver:
    """One hop's ciphertext-metadata instrumentation.

    The tap sees every packet crossing the hop (same contract as
    :meth:`repro.observers.onpath.WireSniffer.tap`), runs the traffic
    classifier and the destination correlator, and reports each flow
    observation upward — attribution to a decoy is the measurement
    harness's job, not the observer's.
    """

    def __init__(self, hop, classifier: TrafficClassifier,
                 correlator: DstIpCorrelator,
                 clock: Callable[[], float],
                 report: Optional[Callable] = None):
        self.hop = hop
        self.classifier = classifier
        self.correlator = correlator
        self._clock = clock
        self.report = report
        self._timing = _TimingTracker()
        self.flows_seen = 0
        self.flows_classified = 0

    def tap(self, position: int, hop, packet: Packet) -> None:
        self.flows_seen += 1
        src = packet.ip.src
        dst = packet.ip.dst
        regularity = self._timing.observe(src, self._clock())
        features = featurize(packet)
        classified = self.classifier.classify(
            features, regularity,
            flow_keys=(self.hop.address, src, dst, features.size_bucket))
        if classified:
            self.flows_classified += 1
        self.correlator.observe(src, dst)
        if self.report is not None:
            self.report(self.hop.address, src, dst, classified)


class CiphertextDeployment:
    """Sites ciphertext observers by centrality and owns their reporting.

    Deployment is a keyed draw per hop address against the placement
    planner's probability, cached like
    :class:`~repro.observers.onpath.ObserverDeployment` decisions so the
    same routers observe regardless of path or shard materialization
    order.  ``flow_sink`` is installed by the campaign; observers report
    through the deployment so creation order never matters.
    """

    def __init__(self, planner: PlacementPlanner, zone: str, *,
                 threshold: float = 0.6, fpr: float = 0.0,
                 link_threshold: int = 3, placement_streams=None,
                 classify_streams=None, clock: Callable[[], float] = None,
                 metrics=None):
        if placement_streams is None:
            raise ValueError("deployment needs keyed placement_streams")
        self.planner = planner
        self.zone = zone
        self.classifier = TrafficClassifier(
            size_templates(zone), threshold=threshold, fpr=fpr,
            streams=classify_streams)
        self.correlator = DstIpCorrelator(link_threshold=link_threshold)
        self._placement_streams = placement_streams
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._observers: Dict[str, Optional[CiphertextObserver]] = {}
        self.flow_sink: Optional[Callable] = None
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_deployed = metrics.counter("ciphertext.observers_deployed")

    def observer_for(self, hop) -> Optional[CiphertextObserver]:
        """The observer at this hop, deciding on first sight (cached)."""
        cached = self._observers.get(hop.address)
        if cached is not None or hop.address in self._observers:
            return cached
        observer: Optional[CiphertextObserver] = None
        probability = self.planner.deploy_probability(hop)
        if probability > 0.0:
            draw = self._placement_streams.derive(hop.address)
            if draw.random() < probability:
                observer = CiphertextObserver(
                    hop=hop,
                    classifier=self.classifier,
                    correlator=self.correlator,
                    clock=self._clock,
                    report=self._report,
                )
                self._m_deployed.inc()
        self._observers[hop.address] = observer
        return observer

    def _report(self, hop_address: str, src: str, dst: str,
                classified: bool) -> None:
        if self.flow_sink is not None:
            self.flow_sink(hop_address, src, dst, classified)
