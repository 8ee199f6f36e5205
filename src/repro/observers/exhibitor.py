"""Shadow exhibitors: retention plus unsolicited-request emission."""

import random
from typing import Dict, List, Optional, Tuple

from repro.records import frozen
from repro.simkit.rng import SubstreamFactory, random_bytes, randrange

from repro.honeypot.deployment import HoneypotDeployment
from repro.intel.exploitdb import ENUMERATION_PATHS
from repro.observers.policy import ShadowPolicy
from repro.protocols.dns import encode_query
from repro.protocols.http import make_get
from repro.protocols.tls import ClientHello, wrap_handshake
from repro.simkit.events import Simulator
from repro.simkit.units import DAY, HOUR, MINUTE
from repro.telemetry.registry import NULL_REGISTRY, labeled

# Virtual-second buckets for observation→use delays: sub-minute (benign
# retry territory), sub-hour, sub-day, then the paper's ">10 days" tail.
DELAY_BUCKETS = (MINUTE, HOUR, DAY, 10 * DAY)


@frozen
class ObservationRecord:
    """Ground truth: one exhibitor observing one decoy's data.

    The measurement pipeline never reads these — they exist so tests and
    validation can compare what the pipeline *recovered* against what the
    simulated exhibitors actually did.
    """

    exhibitor: str
    domain: str
    observed_at: float
    observed_from: str
    """Where the data was captured (hop or destination address)."""
    leveraged: bool
    scheduled_requests: int


class GroundTruth:
    """Append-only record of every observation event in a campaign."""

    def __init__(self):
        self.observations: List[ObservationRecord] = []

    def record(self, observation: ObservationRecord) -> None:
        self.observations.append(observation)

    def for_domain(self, domain: str) -> List[ObservationRecord]:
        return [obs for obs in self.observations if obs.domain == domain]

    def __len__(self) -> int:
        return len(self.observations)


class UnsolicitedEmitter:
    """Delivers one unsolicited request to the honeypot deployment.

    This models everything between an exhibitor deciding to probe a domain
    and the request arriving: resolving the experiment name through the
    wildcard zone, then issuing the DNS query / HTTP GET / TLS handshake
    from the chosen origin address.
    """

    def __init__(self, deployment: HoneypotDeployment, sim: Simulator,
                 rng: random.Random, metrics=None):
        self._deployment = deployment
        self._sim = sim
        self._rng = rng
        self.emitted = 0
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_emitted = {
            protocol: metrics.counter(
                labeled("emitter.emitted", protocol=protocol)
            )
            for protocol in ("dns", "http", "https")
        }

    def emit(self, protocol: str, domain: str, origin_address: str,
             path: str = "/") -> None:
        now = self._sim.now()
        if protocol == "dns":
            wire = encode_query(domain, txid=randrange(self._rng, 0x10000))
            server = self._deployment.authoritative_for(origin_address)
            server.handle_query(wire, origin_address, now)
        elif protocol == "http":
            web_address = self._deployment.resolve_experiment_name(domain)
            if web_address is None:
                return
            site = self._deployment.web_site_by_address(web_address)
            request = make_get(domain, path=path, user_agent="shadow-probe/1.0")
            site.web.handle_request(request.encode(), origin_address, now)
        elif protocol == "https":
            web_address = self._deployment.resolve_experiment_name(domain)
            if web_address is None:
                return
            site = self._deployment.web_site_by_address(web_address)
            hello = ClientHello(
                server_name=domain,
                random=random_bytes(self._rng, 32),
            )
            request = make_get(domain, path=path, user_agent="shadow-probe/1.0")
            site.tls.handle_connection(
                wrap_handshake(hello.encode()), request.encode(), origin_address, now
            )
        else:
            raise ValueError(f"unknown unsolicited protocol {protocol!r}")
        self.emitted += 1
        self._m_emitted[protocol].inc()


class ShadowExhibitor:
    """One shadowing party: applies a :class:`ShadowPolicy` to observations.

    On observing a domain, decides whether to leverage it and, if so,
    schedules ``uses`` unsolicited requests at policy-drawn delays — the
    mechanism behind the paper's "data retained for over 10 days and
    leveraged more than once" findings.
    """

    def __init__(
        self,
        policy: ShadowPolicy,
        sim: Simulator,
        emitter: UnsolicitedEmitter,
        rng: random.Random,
        ground_truth: Optional[GroundTruth] = None,
        retention=None,
        streams: Optional[SubstreamFactory] = None,
        metrics=None,
    ):
        self.policy = policy
        self._sim = sim
        self._emitter = emitter
        self._rng = rng
        self._streams = streams
        """When set, each observation's draws (leverage decision, uses,
        delays, protocols, origins, paths) come from a substream keyed by
        (domain, observed_from, arrival) — pure function of the keys, so
        identical whether observations arrive interleaved in one simulator
        or split across shards."""
        self._arrivals: Dict[Tuple[str, str], int] = {}
        self._ground_truth = ground_truth
        self.retention = retention
        """Optional :class:`~repro.observers.retention.RetentionStore`;
        when set, eviction under capacity pressure cancels an observation's
        still-pending unsolicited requests (the limited-storage hypothesis
        of Section 5.2)."""
        self.observed_count = 0
        self.leveraged_count = 0
        metrics = metrics if metrics is not None else NULL_REGISTRY
        name = policy.name
        self._m_observed = metrics.counter(
            labeled("observer.observed", exhibitor=name))
        self._m_leveraged = metrics.counter(
            labeled("observer.leveraged", exhibitor=name))
        self._m_scheduled = metrics.counter(
            labeled("observer.unsolicited_scheduled", exhibitor=name))
        self._m_delay = metrics.histogram(
            labeled("observer.use_delay_virtual", exhibitor=name),
            DELAY_BUCKETS)

    @property
    def name(self) -> str:
        return self.policy.name

    def observe(self, domain: str, observed_from: str) -> None:
        """Feed one captured domain into the exhibitor."""
        self.observed_count += 1
        self._m_observed.inc()
        if self._streams is not None:
            key = (domain, observed_from)
            arrival = self._arrivals.get(key, 0)
            self._arrivals[key] = arrival + 1
            rng = self._streams.derive(self.name, domain, observed_from, arrival)
        else:
            rng = self._rng
        leveraged = rng.random() < self.policy.observe_probability
        scheduled = 0
        if leveraged:
            self.leveraged_count += 1
            self._m_leveraged.inc()
            if self.retention is not None:
                self.retention.admit(domain, self._sim.now())
            uses = max(1, round(self.policy.uses.sample(rng)))
            for _ in range(uses):
                delay = max(0.0, self.policy.delay.sample(rng))
                self._m_delay.observe(delay)
                protocol = self.policy.pick_protocol(rng)
                origin = self.policy.origin_pool.pick(rng, protocol)
                path = self._pick_path(protocol, rng)
                event = self._sim.schedule_in(
                    delay,
                    lambda protocol=protocol, domain=domain, origin=origin, path=path:
                        self._emitter.emit(protocol, domain, origin, path),
                    label=f"unsolicited:{self.name}",
                )
                if self.retention is not None:
                    self.retention.attach(domain, event)
                scheduled += 1
                self._m_scheduled.inc()
        if self._ground_truth is not None:
            self._ground_truth.record(
                ObservationRecord(
                    exhibitor=self.name,
                    domain=domain,
                    observed_at=self._sim.now(),
                    observed_from=observed_from,
                    leveraged=leveraged,
                    scheduled_requests=scheduled,
                )
            )

    def _pick_path(self, protocol: str, rng: random.Random) -> str:
        if protocol == "dns":
            return "/"
        if rng.random() < self.policy.http_enumeration_rate:
            return ENUMERATION_PATHS[rng.randrange(len(ENUMERATION_PATHS))]
        return "/"
