"""Active port probing of on-path observers (Section 5.2).

After Phase II reveals observer addresses, the paper probes their open
ports to infer device types: 92% expose nothing, and among the rest the
most common open port is 179 (BGP), marking them as inter-network routing
devices.  In the simulation, routers carry their ``open_ports`` on the
:class:`~repro.net.path.Hop`, so the scan is a lookup with the same
output shape a banner scan would produce.
"""

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net.path import Hop
from repro.records import frozen

_BANNERS: Dict[int, str] = {
    179: "BGP-4",
    22: "SSH-2.0-OpenSSH",
    23: "telnet",
    80: "HTTP/1.1",
    443: "TLS",
    161: "SNMPv2",
}


@frozen
class PortScanResult:
    """Scan outcome for one observer address."""

    address: str
    open_ports: Tuple[int, ...]
    banners: Tuple[Tuple[int, str], ...]

    @property
    def responsive(self) -> bool:
        return bool(self.open_ports)


def scan_observers(
    addresses: Iterable[str],
    resolve_hop: Callable[[str], Optional[Hop]],
) -> List[PortScanResult]:
    """Probe each observer address for open ports.

    ``resolve_hop`` maps an address to the simulated device (e.g.
    ``TopologyModel.known_router``); unknown addresses scan as silent,
    just as firewalled real devices do.
    """
    results = []
    for address in addresses:
        hop = resolve_hop(address)
        ports = tuple(hop.open_ports) if hop is not None else ()
        banners = tuple((port, _BANNERS.get(port, "unknown")) for port in ports)
        results.append(PortScanResult(address=address, open_ports=ports, banners=banners))
    return results


def summarize_ports(results: Sequence[PortScanResult]) -> Dict[str, object]:
    """The Section 5.2 summary: silent fraction and top open port."""
    total = len(results)
    silent = sum(1 for result in results if not result.responsive)
    port_counts: Dict[int, int] = {}
    for result in results:
        for port in result.open_ports:
            port_counts[port] = port_counts.get(port, 0) + 1
    top_port = max(port_counts, key=port_counts.get) if port_counts else None
    return {
        "observers_scanned": total,
        "silent_fraction": (silent / total) if total else 0.0,
        "port_counts": port_counts,
        "top_open_port": top_port,
    }
