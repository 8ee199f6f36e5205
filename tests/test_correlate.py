"""Tests for the unsolicited-request classifier (Section 3 rules)."""

import gc
import random
import weakref

import pytest

from repro.core import identifier
from repro.core.correlate import (
    Correlator,
    DecoyLedger,
    DecoyRecord,
    IncrementalCorrelator,
)
from repro.core.identifier import DecoyIdentity, IdentifierCodec, IdentifierError
from repro.honeypot.logstore import LoggedRequest, LogStore

ZONE = "www.experiment.domain"
CODEC = IdentifierCodec()


def make_record(protocol="dns", sequence=1, phase=1, identity=None,
                domain=None) -> DecoyRecord:
    if identity is None:
        identity = DecoyIdentity(sent_at=100, vp_address="100.96.0.1",
                                 dst_address="8.8.8.8", ttl=64,
                                 sequence=sequence)
    if domain is None:
        domain = f"{CODEC.encode(identity)}.{ZONE}"
    return DecoyRecord(
        identity=identity, domain=domain, protocol=protocol,
        vp_id="vp-1", vp_country="DE", vp_province=None,
        destination_address="8.8.8.8", destination_name="Google",
        destination_kind="dns", destination_country="US",
        instance_country="US", path_length=10, sent_at=100.0, phase=phase,
    )


def entry(domain, protocol, time, src="100.88.0.1", path=None):
    return LoggedRequest(time=time, site="US", protocol=protocol,
                         src_address=src, domain=domain, path=path)


class TestClassificationRules:
    def make(self, record):
        ledger = DecoyLedger()
        ledger.register(record)
        return ledger, Correlator(ledger, ZONE), LogStore()

    def test_first_dns_arrival_of_dns_decoy_is_initial(self):
        record = make_record(protocol="dns")
        ledger, correlator, log = self.make(record)
        log.append(entry(record.domain, "dns", 101.0))
        result = correlator.correlate(log)
        assert result.events == []
        assert record.domain in result.initial_arrivals

    def test_second_dns_arrival_is_unsolicited_rule_iii(self):
        record = make_record(protocol="dns")
        ledger, correlator, log = self.make(record)
        log.append(entry(record.domain, "dns", 101.0))
        log.append(entry(record.domain, "dns", 150.0))
        result = correlator.correlate(log)
        assert len(result.events) == 1
        assert result.events[0].combo == "DNS-DNS"
        assert result.events[0].delta == pytest.approx(50.0)

    def test_http_arrival_always_unsolicited_rule_ii(self):
        record = make_record(protocol="dns")
        ledger, correlator, log = self.make(record)
        log.append(entry(record.domain, "http", 7300.0, path="/admin"))
        result = correlator.correlate(log)
        assert [event.combo for event in result.events] == ["DNS-HTTP"]

    def test_dns_arrival_for_http_decoy_unsolicited_rule_i(self):
        record = make_record(protocol="http")
        ledger, correlator, log = self.make(record)
        log.append(entry(record.domain, "dns", 200.0))
        result = correlator.correlate(log)
        assert [event.combo for event in result.events] == ["HTTP-DNS"]

    def test_tls_decoy_https_request_combo(self):
        record = make_record(protocol="tls")
        ledger, correlator, log = self.make(record)
        log.append(entry(record.domain, "https", 200.0))
        result = correlator.correlate(log)
        assert [event.combo for event in result.events] == ["TLS-HTTPS"]

    def test_all_arrivals_after_initial_counted(self):
        record = make_record(protocol="dns")
        ledger, correlator, log = self.make(record)
        for time in (101.0, 102.0, 5000.0, 90000.0):
            log.append(entry(record.domain, "dns", time))
        result = correlator.correlate(log)
        assert len(result.events) == 3

    def test_unknown_domain_is_noise(self):
        record = make_record()
        ledger, correlator, log = self.make(record)
        log.append(entry(f"unknown-label-0001.{ZONE}", "dns", 101.0))
        result = correlator.correlate(log)
        assert result.events == []
        assert result.unknown_domains == [f"unknown-label-0001.{ZONE}"]

    def test_phase_filter(self):
        record1 = make_record(protocol="dns", sequence=1, phase=1)
        record2 = make_record(protocol="dns", sequence=2, phase=2)
        ledger = DecoyLedger()
        ledger.register(record1)
        ledger.register(record2)
        correlator = Correlator(ledger, ZONE)
        log = LogStore()
        log.append(entry(record1.domain, "http", 200.0))
        log.append(entry(record2.domain, "http", 300.0))
        phase1 = correlator.correlate(log, phase=1)
        phase2 = correlator.correlate(log, phase=2)
        assert [event.decoy.phase for event in phase1.events] == [1]
        assert [event.decoy.phase for event in phase2.events] == [2]

    def test_origin_address_exposed(self):
        record = make_record(protocol="dns")
        ledger, correlator, log = self.make(record)
        log.append(entry(record.domain, "http", 200.0, src="100.88.7.7"))
        result = correlator.correlate(log)
        assert result.events[0].origin_address == "100.88.7.7"

    def test_shadowed_domains_deduplicated(self):
        record = make_record(protocol="dns")
        ledger, correlator, log = self.make(record)
        log.append(entry(record.domain, "http", 200.0))
        log.append(entry(record.domain, "https", 300.0))
        result = correlator.correlate(log)
        assert result.shadowed_domains() == [record.domain]

    def test_combo_label_rejects_unknown(self):
        with pytest.raises(ValueError):
            Correlator.combo_label("dns", "gopher")


class TestAliasRecovery:
    """Mangled names whose embedded identifier still decodes are mapped
    back to their decoy instead of being misfiled as noise."""

    def make(self, record):
        ledger = DecoyLedger()
        ledger.register(record)
        return ledger, Correlator(ledger, ZONE), LogStore()

    def test_prepended_label_recovered_as_unsolicited(self):
        record = make_record(protocol="dns")
        ledger, correlator, log = self.make(record)
        log.append(entry(f"probe.{record.domain}", "dns", 200.0))
        result = correlator.correlate(log)
        assert [event.decoy.domain for event in result.events] == [record.domain]
        assert result.events[0].combo == "DNS-DNS"
        assert result.unknown_domains == []

    def test_alias_never_counts_as_initial_arrival(self):
        # The decoy's own recursion carries its exact domain; a mangled
        # name is third-party by construction, so even its *first* DNS
        # arrival is unsolicited and must not consume rule (iii).
        record = make_record(protocol="dns")
        ledger, correlator, log = self.make(record)
        log.append(entry(f"scan.{record.domain}", "dns", 150.0))
        log.append(entry(record.domain, "dns", 200.0))
        result = correlator.correlate(log)
        assert record.domain in result.initial_arrivals
        assert f"scan.{record.domain}" not in result.initial_arrivals
        assert len(result.events) == 1

    def test_alias_http_arrival_keeps_combo(self):
        record = make_record(protocol="dns")
        ledger, correlator, log = self.make(record)
        log.append(entry(f"a.b.{record.domain}", "http", 300.0, path="/x"))
        result = correlator.correlate(log)
        assert [event.combo for event in result.events] == ["DNS-HTTP"]

    def test_undecodable_mangling_stays_noise(self):
        record = make_record(protocol="dns")
        ledger, correlator, log = self.make(record)
        noise = f"probe.not-an-identifier-0001.{ZONE}"
        log.append(entry(noise, "dns", 200.0))
        result = correlator.correlate(log)
        assert result.events == []
        assert result.unknown_domains == [noise]

    def test_decodable_but_unregistered_identifier_stays_noise(self):
        # A forged name can carry a valid checksum without matching any
        # decoy this campaign actually sent.
        record = make_record(sequence=1)
        ledger, correlator, log = self.make(record)
        foreign = make_record(sequence=2)
        log.append(entry(f"probe.{foreign.domain}", "dns", 200.0))
        result = correlator.correlate(log)
        assert result.events == []
        assert result.unknown_domains == [f"probe.{foreign.domain}"]


def _batch_events(ledger, entries):
    log = LogStore()
    for item in entries:
        log.append(item)
    return Correlator(ledger, ZONE).correlate(log).events


def _incremental_events(ledger, entries):
    correlator = IncrementalCorrelator(ledger, ZONE, retain_events=True)
    for item in entries:
        correlator.ingest(item)
    return correlator.result().events


class TestAliasEventOrder:
    """Aliased names are grouped under their own logged domain, so every
    path emits the batch order: logged domains by first appearance, each
    domain's arrivals in time order."""

    A = make_record(protocol="dns", sequence=1)
    B = make_record(protocol="http", sequence=2)
    ALIAS = f"probe.{A.domain}"

    CASES = {
        "alias-only": (
            [(ALIAS, "dns", 150.0)],
            [(ALIAS, 150.0)],
        ),
        "alias-before-canonical": (
            [(ALIAS, "dns", 150.0), (A.domain, "dns", 200.0)],
            [(ALIAS, 150.0)],
        ),
        "canonical-alias-canonical": (
            [(A.domain, "dns", 100.0), (ALIAS, "dns", 150.0),
             (A.domain, "dns", 200.0)],
            [(A.domain, 200.0), (ALIAS, 150.0)],
        ),
        "alias-between-decoys": (
            [(A.domain, "dns", 100.0), (B.domain, "http", 120.0),
             (ALIAS, "dns", 150.0), (A.domain, "dns", 200.0)],
            [(A.domain, 200.0), (B.domain, 120.0), (ALIAS, 150.0)],
        ),
    }

    @pytest.mark.parametrize("path", [_batch_events, _incremental_events],
                             ids=["batch", "incremental"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_event_order(self, case, path):
        ledger = DecoyLedger()
        ledger.register(self.A)
        ledger.register(self.B)
        arrivals, expected = self.CASES[case]
        events = path(ledger, [entry(domain, protocol, time)
                               for domain, protocol, time in arrivals])
        assert [(event.request.domain, event.request.time)
                for event in events] == expected
        canonical = {self.ALIAS: self.A.domain}
        assert [event.decoy.domain for event in events] == \
            [canonical.get(domain, domain) for domain, _ in expected]


class TestDecoyLedger:
    def test_duplicate_domain_rejected(self):
        ledger = DecoyLedger()
        record = make_record()
        ledger.register(record)
        with pytest.raises(ValueError):
            ledger.register(record)

    def test_lookup_and_records(self):
        ledger = DecoyLedger()
        record1 = make_record(sequence=1, phase=1)
        record2 = make_record(sequence=2, phase=2)
        ledger.register(record1)
        ledger.register(record2)
        assert ledger.lookup(record1.domain) is record1
        assert ledger.lookup("nope") is None
        assert len(ledger.records(phase=2)) == 1
        assert len(ledger) == 2



def _reference_resolve(ledger, zone, domain):
    """The decode-every-hit rule the correlator must match: a ledger hit
    counts only when its name decodes; a miss whose name decodes to a
    registered canonical name other than itself is that decoy, aliased.
    Returns ``(record, aliased)``, or None for noise."""
    record = ledger.lookup(domain)
    if record is not None:
        try:
            CODEC.decode_domain(domain, zone)
        except IdentifierError:
            return None
        return record, False
    try:
        identity = CODEC.decode_domain(domain, zone)
    except IdentifierError:
        return None
    canonical = f"{CODEC.encode(identity)}.{zone}"
    if canonical == domain:
        return None
    record = ledger.lookup(canonical)
    return None if record is None else (record, True)


def _reference_verdicts(ledger, zone, entries):
    """Per entry: ("unknown",), ("initial",) or (combo, decoy record)."""
    resolutions, initial_seen, verdicts = {}, set(), []
    for item in entries:
        if item.domain not in resolutions:
            resolutions[item.domain] = _reference_resolve(ledger, zone,
                                                          item.domain)
        resolved = resolutions[item.domain]
        if resolved is None:
            verdicts.append(("unknown",))
            continue
        record, aliased = resolved
        if (not aliased and item.protocol == "dns"
                and record.protocol == "dns"
                and item.domain not in initial_seen):
            initial_seen.add(item.domain)
            verdicts.append(("initial",))
            continue
        verdicts.append((Correlator.combo_label(record.protocol,
                                                item.protocol), record))
    return verdicts


class TestClassifiesAsDecodeEveryHit:
    """The correlator accepts a ledger hit on its record's canonical name
    without decoding it; every verdict must still equal the
    decode-every-hit rule's, entry by entry."""

    ZONES = ("www.experiment.domain", "WWW.Experiment.Domain",
             "www.experiment.domain.", "Www.Experiment.Domain.", ".")

    @staticmethod
    def _identity(rng, sequence):
        return DecoyIdentity(
            sent_at=rng.randrange(1 << 20),
            vp_address=f"100.96.{rng.randrange(256)}.1",
            dst_address=f"8.8.{rng.randrange(256)}.8",
            ttl=rng.randrange(1, 256), sequence=sequence)

    def _world(self, rng, zone):
        """A ledger as a campaign or a serve feeder could fill it, and
        logged names that reach every resolution path."""
        ledger, names = DecoyLedger(), []

        def register(identity, domain):
            ledger.register(make_record(
                rng.choice(("dns", "dns", "http", "tls")),
                identity=identity, domain=domain))
            names.append(domain)

        for sequence in range(8):
            # Canonical names under the zone as configured, and the
            # shapes third parties replay them in.
            identity = self._identity(rng, sequence)
            domain = f"{CODEC.encode(identity)}.{zone}"
            register(identity, domain)
            names.extend([domain + ".", domain.upper(), f"probe.{domain}",
                          f"a.b.{domain}"])
        normalized = zone.rstrip(".").lower()
        for sequence in range(8, 11):
            identity = self._identity(rng, sequence)
            domain = f"{CODEC.encode(identity)}.{normalized}"
            register(identity, domain)
            names.append(f"scan.{domain}")
        # Serve-fed records whose domain is not their identity's encoding:
        # another identity's name, an identity that cannot be encoded, a
        # corrupted checksum, a wrong sequence width, another zone.
        register(self._identity(rng, 20),
                 f"{CODEC.encode(self._identity(rng, 21))}.{zone}")
        unencodable = DecoyIdentity(sent_at=5, vp_address="not-an-ip",
                                    dst_address="8.8.8.8", ttl=1, sequence=22)
        register(unencodable,
                 f"{CODEC.encode(self._identity(rng, 23))}.{zone}")
        register(unencodable, f"not-an-ip-0022.{zone}")
        identity = self._identity(rng, 24)
        label = CODEC.encode(identity)
        corrupted = ("a" if label[0] != "a" else "b") + label[1:]
        register(identity, f"{corrupted}.{zone}")
        names.append(f"probe.{corrupted}.{zone}")
        token = label.rsplit("-", 1)[0]
        register(identity, f"{token}-024.{zone}")
        names.append(f"{token}-00024.{zone}")
        register(identity, f"{label}.other.example")
        # Noise: foreign labels under the zone, names outside it.
        names.extend([f"www.{zone}", f"probe.{zone}",
                      f"not-an-identifier-0001.{zone}", "foo.example.com",
                      zone, label])
        return ledger, names

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("zone", ZONES)
    def test_verdicts_match_reference(self, zone, seed):
        rng = random.Random(seed)
        ledger, names = self._world(rng, zone)
        picks = names + [rng.choice(names) for _ in range(3 * len(names))]
        rng.shuffle(picks)
        entries = [entry(name, rng.choice(("dns", "dns", "http", "https")),
                         float(time))
                   for time, name in enumerate(picks)]
        expected = _reference_verdicts(ledger, zone, entries)
        correlator = IncrementalCorrelator(ledger, zone, retain_events=True)
        verdicts = []
        for item in entries:
            initial = correlator.initial_count
            event = correlator.ingest(item)
            if event is not None:
                verdicts.append((event.combo, event.decoy))
            elif correlator.initial_count > initial:
                verdicts.append(("initial",))
            else:
                verdicts.append(("unknown",))
        assert verdicts == expected
        assert all(got[1] is want[1] for got, want in zip(verdicts, expected)
                   if len(want) == 2)
        first_unknown = {}
        for item, verdict in zip(entries, expected):
            if verdict == ("unknown",):
                first_unknown.setdefault(item.domain)
        assert correlator.result().unknown_domains == list(first_unknown)
        assert correlator.unknown_count == len(first_unknown)
        if zone != ".":
            # The sweep reaches every verdict, aliased events included.
            assert {"initial", "unknown"} <= {v[0] for v in expected}
            assert any(len(v) == 2 and v[1].domain != item.domain
                       for item, v in zip(entries, expected))


class TestCanonicalHitSkipsDecode:
    @pytest.mark.parametrize("zone", [ZONE, ZONE.upper() + "."])
    def test_canonical_hit_never_reaches_decode_label(self, monkeypatch,
                                                      zone):
        calls = []
        decode_label = identifier._decode_label

        def counting(label):
            calls.append(label)
            return decode_label(label)

        monkeypatch.setattr(identifier, "_decode_label", counting)
        ledger = DecoyLedger()
        records = [make_record(protocol=protocol, sequence=sequence)
                   for sequence, protocol in enumerate(("dns", "http", "tls"),
                                                       start=40)]
        for record in records:
            ledger.register(record)
        correlator = IncrementalCorrelator(ledger, zone)
        for time, record in enumerate(records * 2):
            correlator.ingest(entry(record.domain, "dns", float(time)))
        assert calls == []
        assert (correlator.initial_count, correlator.event_count) == (1, 5)
        correlator.ingest(entry(f"probe.{records[0].domain}", "dns", 9.0))
        assert calls


class TestNoiseReleasesTheLedger:
    def test_ledger_collected_after_undecodable_name(self):
        # A memoized decode failure must not keep the frames of the
        # call that raised it, and with them the correlator and ledger.
        ledger = DecoyLedger()
        ledger.register(make_record())
        correlator = IncrementalCorrelator(ledger, ZONE)
        for name in (f"bogus-label.{ZONE}", f"probe.bogus-label.{ZONE}"):
            assert correlator.ingest(entry(name, "dns", 1.0)) is None
        assert correlator.unknown_count == 2
        ledger_ref = weakref.ref(ledger)
        del correlator, ledger
        gc.collect()
        assert ledger_ref() is None
