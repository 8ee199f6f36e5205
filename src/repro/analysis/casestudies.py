"""The paper's two case studies as first-class analyses (Section 5.1).

* **Case Study I — Yandex**: nearly every decoy shadowed, data retained
  for days, half the names re-probed over HTTP(S) with directory
  enumeration.
* **Case Study II — 114DNS**: anycast split — CN instances shadow, US
  instances do not, so the problematic-path ratio towers for CN vantage
  points only.
"""

from typing import Dict, Optional, Sequence

from repro.analysis.combos import http_https_share, shadowed_share
from repro.analysis.temporal import Cdf, dns_delay_cdfs, reappearance_share
from repro.core.correlate import DecoyLedger, ShadowingEvent
from repro.records import frozen
from repro.simkit.units import DAY


@frozen
class YandexCaseStudy:
    """Case Study I digest."""

    shadowed_share: float
    http_https_share: float
    median_delay: Optional[float]
    share_after_10_days: float
    reappearance_5d: float

    def matches_paper_shape(self) -> bool:
        """The qualitative claims of Case Study I."""
        return (
            self.shadowed_share > 0.9
            and self.http_https_share > 0.2
            and (self.median_delay or 0) > DAY / 4
        )


def yandex_case_study(ledger: DecoyLedger,
                      events: Sequence[ShadowingEvent]) -> YandexCaseStudy:
    cdf = dns_delay_cdfs(events).get("Yandex", Cdf.from_values([]))
    return YandexCaseStudy(
        shadowed_share=shadowed_share(ledger, events, "Yandex"),
        http_https_share=http_https_share(ledger, events, "Yandex"),
        median_delay=cdf.quantile(0.5) if len(cdf) else None,
        share_after_10_days=(1 - cdf.at(10 * DAY)) if len(cdf) else 0.0,
        reappearance_5d=reappearance_share(events, "Yandex", after=5 * DAY),
    )


@frozen
class AnycastCaseStudy:
    """Case Study II digest: per-VP-region susceptibility of an anycast
    destination."""

    destination: str
    cn_paths: int
    cn_problematic: int
    global_paths: int
    global_problematic: int

    @property
    def cn_ratio(self) -> float:
        return self.cn_problematic / self.cn_paths if self.cn_paths else 0.0

    @property
    def global_ratio(self) -> float:
        return (self.global_problematic / self.global_paths
                if self.global_paths else 0.0)

    def matches_paper_shape(self) -> bool:
        """CN instances shadow; the residual global ratio (benign retries)
        stays far below."""
        return (self.cn_paths > 0 and self.cn_ratio > 0.6
                and self.global_ratio < self.cn_ratio / 2)


def anycast_case_study(ledger: DecoyLedger, events: Sequence[ShadowingEvent],
                       destination: str = "114DNS") -> AnycastCaseStudy:
    problematic_pairs = {
        (event.decoy.vp_id, event.decoy.destination_address)
        for event in events
        if event.decoy.destination_name == destination
        and event.decoy.protocol == "dns"
    }
    cn_paths = set()
    global_paths = set()
    for record in ledger.records(phase=1):
        if record.destination_name != destination or record.protocol != "dns":
            continue
        pair = (record.vp_id, record.destination_address)
        if record.vp_country == "CN":
            cn_paths.add(pair)
        else:
            global_paths.add(pair)
    return AnycastCaseStudy(
        destination=destination,
        cn_paths=len(cn_paths),
        cn_problematic=len(cn_paths & problematic_pairs),
        global_paths=len(global_paths),
        global_problematic=len(global_paths & problematic_pairs),
    )
