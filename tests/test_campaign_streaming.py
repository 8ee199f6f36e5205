"""Ledger and log round-trips.

The ledger and the log must round-trip through the wire codec and hand
back the very records they hold, and a merged log must answer every
query like a serially built one.
"""

import gc
import random

from repro.core.columnar import merged_order
from repro.core.correlate import DecoyLedger
from repro.core.wire import (
    ShardPhase1Payload,
    decode_phase1_payload,
    encode_phase1_payload,
)
from repro.honeypot.logstore import LoggedRequest, LogStore


def _ledger_with_keys(rng, count=40):
    from repro.core.identifier import DecoyIdentity
    from repro.core.correlate import DecoyRecord

    ledger = DecoyLedger()
    payload_records = []
    for index in range(count):
        domain = f"d{index:04d}.www.experiment.domain"
        record = DecoyRecord(
            identity=DecoyIdentity(
                sent_at=rng.randint(0, 0xFFFFFFFF),
                vp_address=f"100.96.0.{index % 250 + 1}",
                dst_address=f"198.51.100.{index % 250 + 1}",
                ttl=64,
                sequence=index,
            ),
            domain=domain,
            protocol=rng.choice(("dns", "http", "tls")),
            vp_id=f"vp-{index % 7:02d}",
            vp_country=rng.choice(("US", "DE", "JP")),
            vp_province=rng.choice((None, "CA")),
            destination_address=f"203.0.113.{index % 250 + 1}",
            destination_name="resolver.example",
            destination_kind=rng.choice(("dns", "web")),
            destination_country=rng.choice(("US", "CN")),
            instance_country=rng.choice(("US", "NL")),
            path_length=rng.randint(2, 20),
            sent_at=float(index),
            phase=1,
            delivered=rng.random() < 0.9,
            round_index=index % 3,
        )
        key = (float(index), 1, index % 5, 0)
        ledger.register(record)
        ledger.set_key(domain, key)
        payload_records.append((key, record))
    return ledger, payload_records


def _log_with_entries(rng, count=60):
    log = LogStore()
    clock = 0.0
    for index in range(count):
        clock += rng.uniform(0.0, 5.0)
        protocol = rng.choice(("dns", "http", "https"))
        log.append(LoggedRequest(
            time=clock,
            site=rng.choice(("US", "DE")),
            protocol=protocol,
            src_address=f"192.0.2.{index % 250 + 1}",
            domain=f"d{index % 20:04d}.www.experiment.domain",
            path=None if protocol == "dns" else "/",
            qtype=1 if protocol == "dns" else None,
            user_agent="curl/8.0" if protocol == "http" else None,
        ))
    return log


def _held_by(store, record) -> bool:
    """Whether one of ``store``'s own lists references ``record``."""
    lists = [value for value in vars(store).values() if isinstance(value, list)]
    return any(referrer is held for referrer in gc.get_referrers(record)
               for held in lists)


class TestColumnarRoundTrip:
    """Ledger and log state survives the wire codec byte for byte."""

    def _payload(self, rng):
        ledger, payload_records = _ledger_with_keys(rng)
        log = _log_with_entries(rng)
        return ledger, log, ShardPhase1Payload(
            shard_index=0,
            records=payload_records,
            log_entries=list(log),
            sends_planned=1000,
            sends_scheduled=250,
            last_send_time=999.5,
            virtual_now=1200.0,
            wall_seconds=1.25,
        )

    def test_wire_round_trip_preserves_columnar_rows(self):
        rng = random.Random(4242)
        ledger, log, payload = self._payload(rng)
        decoded = decode_phase1_payload(encode_phase1_payload(payload))
        assert decoded.records == payload.records
        assert decoded.log_entries == payload.log_entries
        # Rebuilding the stores from the decoded rows reproduces every
        # index-backed view of the originals.
        rebuilt = DecoyLedger()
        for key, record in decoded.records:
            rebuilt.register(record)
            rebuilt.set_key(record.domain, key)
        assert list(rebuilt.records()) == list(ledger.records())
        assert [rebuilt.key_of(r.domain) for r in rebuilt.records()] == \
            [ledger.key_of(r.domain) for r in ledger.records()]
        rebuilt_log = LogStore()
        for entry in decoded.log_entries:
            rebuilt_log.append(entry)
        assert rebuilt_log.all() == log.all()
        assert rebuilt_log.domains() == log.domains()

    def test_stores_return_the_objects_they_were_given(self):
        """The ledger and the log hold the records appended to them:
        once the caller's own list is gone, a list of the store still
        references each record, and every read returns the very object.
        (Records are slotted, so they cannot be weakly referenced.)"""
        rng = random.Random(11)
        ledger, keyed = _ledger_with_keys(rng, count=5)
        log = _log_with_entries(rng, count=5)
        records = [record for _key, record in keyed]
        entries = list(log)
        del keyed
        gc.collect()
        assert all(_held_by(ledger, record) for record in records)
        assert all(_held_by(log, entry) for entry in entries)
        assert all(ledger.lookup(record.domain) is record
                   for record in records)
        for view in (ledger.records(), list(ledger.records_from(0)),
                     ledger.records(phase=1)):
            assert all(a is b for a, b in zip(view, records, strict=True))
        for view in (list(log), log.all(), log.between(0.0, 1e9),
                     log.tail(0)[0]):
            assert all(a is b for a, b in zip(view, entries, strict=True))
        for entry in entries:
            assert any(entry is other
                       for other in log.for_domain(entry.domain))
            assert any(entry is other
                       for other in log.by_protocol(entry.protocol))


class TestMergedOrder:
    def test_three_shards_with_ties(self):
        # Key (time, shard position, index): the 3.0 tie goes to shard 0.
        order = list(merged_order([[1.0, 3.0], [2.0, 3.0], [0.5]]))
        assert order == [(2, 0), (0, 0), (1, 0), (0, 1), (1, 1)]


class TestMergedLogStoreIndexes:
    """Satellite: merged() must rebuild every maintained index so
    windowed/filtered queries match a serially-built store exactly."""

    def _shards(self):
        rng = random.Random(909)
        shards = []
        for shard in range(3):
            clock, entries = 0.0, []
            for index in range(25):
                clock += rng.uniform(0.0, 4.0)
                protocol = ("dns", "http", "https")[index % 3]
                entries.append(LoggedRequest(
                    time=clock,
                    site="US",
                    protocol=protocol,
                    src_address=f"192.0.2.{shard + 1}",
                    domain=f"d{index % 6}.www.experiment.domain",
                    path=None if protocol == "dns" else "/",
                    qtype=1 if protocol == "dns" else None,
                ))
            shards.append(entries)
        return shards

    def _serial_equivalent(self, shards):
        """Append the merged order by hand into a fresh store."""
        flat = sorted(
            ((entry.time, position, index), entry)
            for position, entries in enumerate(shards)
            for index, entry in enumerate(entries)
        )
        store = LogStore()
        for _, entry in flat:
            store.append(entry)
        return store

    def test_between_tail_by_protocol_match_serial(self):
        shards = self._shards()
        merged = LogStore.merged(shards)
        serial = self._serial_equivalent(shards)
        assert merged.all() == serial.all()
        times = [entry.time for entry in serial]
        mid, late = times[len(times) // 3], times[2 * len(times) // 3]
        assert merged.between(mid, late) == serial.between(mid, late)
        assert merged.between(0.0, mid) == serial.between(0.0, mid)
        entries, cursor = merged.tail(0)
        serial_entries, serial_cursor = serial.tail(0)
        assert (entries, cursor) == (serial_entries, serial_cursor)
        half = cursor // 2
        assert merged.tail(half) == serial.tail(half)
        for protocol in ("dns", "http", "https"):
            assert merged.by_protocol(protocol) == serial.by_protocol(protocol)
        for domain in serial.domains():
            assert merged.for_domain(domain) == serial.for_domain(domain)
