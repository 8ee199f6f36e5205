"""The three-site honeypot deployment (US, DE, SG)."""

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.honeypot.authdns import AuthoritativeServer
from repro.honeypot.logstore import LoggedRequest, LogStore
from repro.honeypot.tlsserver import HoneyTlsServer
from repro.honeypot.webserver import HoneyWebServer
from repro.telemetry.registry import NULL_REGISTRY

DEFAULT_EXPERIMENT_ZONE = "www.experiment.domain"

# Honeypot addresses from TEST-NET-3, disjoint from every other address
# pool in the simulation.
_SITE_PLAN: Tuple[Tuple[str, str, str], ...] = (
    # (site, authoritative DNS address, honey web address)
    ("US", "203.0.113.10", "203.0.113.11"),
    ("DE", "203.0.113.20", "203.0.113.21"),
    ("SG", "203.0.113.30", "203.0.113.31"),
)


class FaultInjectingLog(LogStore):
    """A :class:`LogStore` whose append path consults the fault plan.

    Three collector failure modes, all deterministic under the fault seed
    and all counted (no silent drops):

    * **Site outage** — a request arriving while its site is inside an
      injected downtime window is dropped entirely, as a crashed
      collector would lose it (``faults.honeypot_dropped``).
    * **Delayed append** — the entry lands late: the real append is
      scheduled at ``time + delay`` with the delayed timestamp, modeling
      collector write lag (``faults.log_delayed``).  Delays are keyed
      content draws, so the landing time is identical in serial and
      sharded runs.
    * **Duplicated append** — the entry is recorded twice back to back,
      as an at-least-once log sink would (``faults.log_duplicated``).
    """

    def __init__(self, sim, faults, metrics=None):
        super().__init__(metrics=metrics)
        self._sim = sim
        self._faults = faults
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_dropped = metrics.counter("faults.honeypot_dropped")
        self._m_delayed = metrics.counter("faults.log_delayed")
        self._m_duplicated = metrics.counter("faults.log_duplicated")

    def append(self, entry: LoggedRequest) -> None:
        if not self._faults.site_online(entry.site, entry.time):
            self._m_dropped.inc()
            return
        delay, duplicated = self._faults.log_append_fault(
            entry.site, entry.protocol, entry.src_address, entry.domain,
            entry.time,
        )
        if delay > 0.0:
            self._m_delayed.inc()
            landed = dataclasses.replace(entry, time=entry.time + delay)
            self._sim.schedule_in(
                delay,
                lambda landed=landed, duplicated=duplicated:
                    self._land(landed, duplicated),
                label="honeypot:delayed_append",
            )
            return
        self._land(entry, duplicated)

    def _land(self, entry: LoggedRequest, duplicated: bool) -> None:
        LogStore.append(self, entry)
        if duplicated:
            self._m_duplicated.inc()
            LogStore.append(self, entry)


@dataclass
class HoneypotSite:
    """One honeypot location: authoritative DNS + web + TLS services."""

    name: str
    dns_address: str
    web_address: str
    authdns: AuthoritativeServer
    web: HoneyWebServer
    tls: HoneyTlsServer


class HoneypotDeployment:
    """All honeypot sites sharing one log store and one experiment zone."""

    def __init__(self, zone: str = DEFAULT_EXPERIMENT_ZONE,
                 log: Optional[LogStore] = None, metrics=None):
        self.zone = zone
        self.log = log if log is not None else LogStore(metrics=metrics)
        self.sites: Dict[str, HoneypotSite] = {}
        web_addresses = [web for _, _, web in _SITE_PLAN]
        for site_name, dns_address, web_address in _SITE_PLAN:
            authdns = AuthoritativeServer(
                zone=zone, web_addresses=web_addresses, log=self.log, site=site_name,
            )
            web = HoneyWebServer(address=web_address, log=self.log, site=site_name)
            tls = HoneyTlsServer(web=web)
            self.sites[site_name] = HoneypotSite(
                name=site_name,
                dns_address=dns_address,
                web_address=web_address,
                authdns=authdns,
                web=web,
                tls=tls,
            )
        self._by_name: Tuple[HoneypotSite, ...] = tuple(
            self.sites[name] for name in sorted(self.sites))
        """The sites in name order, which client addresses index."""

    @property
    def site_names(self) -> List[str]:
        return list(self.sites)

    def site_for_client(self, client_address: str) -> HoneypotSite:
        """Deterministic site selection, standing in for DNS-based
        load distribution across the three locations."""
        by_name = self._by_name
        return by_name[sum(client_address.encode()) % len(by_name)]

    def authoritative_for(self, client_address: str) -> AuthoritativeServer:
        return self.site_for_client(client_address).authdns

    def resolve_experiment_name(self, name: str) -> Optional[str]:
        """Wildcard resolution as any recursive resolver would see it."""
        site = self._by_name[0]
        if not site.authdns.covers(name):
            return None
        return site.authdns.resolve_address(name)

    def web_site_by_address(self, address: str) -> Optional[HoneypotSite]:
        for site in self.sites.values():
            if site.web_address == address:
                return site
        return None
