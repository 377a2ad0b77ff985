import pytest

from repro.faultsim.transient import TransientUpset
from repro.memory.organization import MemoryOrganization
from repro.memory.ram import BehavioralRAM
from repro.scenarios import CampaignEngine, TransientScenario, Workload


def make_ram(words=32):
    return BehavioralRAM(MemoryOrganization(words, 8, column_mux=4))


def scrubbed(words, cycles, scrub_period, seed=0):
    return Workload.scrubbed(
        words, cycles, scrub_period=scrub_period, seed=seed
    ).address_list()


def transient_records(ram, upsets, addresses):
    """One single-upset scenario per upset on the vector backend; the
    records in upset order."""
    scenarios = [TransientScenario(upsets=(upset,)) for upset in upsets]
    return CampaignEngine().transient(ram, scenarios, addresses).records


class TestScrubbedStream:
    def test_length_and_range(self):
        stream = scrubbed(16, 100, scrub_period=5)
        assert len(stream) == 100
        assert all(0 <= a < 16 for a in stream)

    def test_scrubber_visits_round_robin(self):
        stream = scrubbed(16, 80, scrub_period=4, seed=1)
        scrub_visits = stream[::4]
        assert scrub_visits[:4] == [0, 1, 2, 3]

    def test_no_scrubbing(self):
        stream = scrubbed(16, 50, scrub_period=0, seed=1)
        assert len(stream) == 50

    def test_deterministic(self):
        assert scrubbed(8, 30, 3, seed=9) == scrubbed(8, 30, 3, seed=9)


class TestTransientCampaign:
    def test_upset_detected_on_next_victim_read(self):
        ram = make_ram()
        upset = TransientUpset(address=5, bit=2, cycle=3)
        # stream reads 5 at cycles 1 (before upset) and 8 (after)
        addresses = [0, 5, 1, 2, 3, 4, 6, 7, 5, 5]
        records = transient_records(ram, [upset], addresses)
        assert len(records) == 1
        assert records[0].first_detection == 8
        assert records[0].first_detection - upset.cycle == 5

    def test_upset_never_read_is_never_detected(self):
        ram = make_ram()
        upset = TransientUpset(address=5, bit=0, cycle=0)
        addresses = [0, 1, 2, 3]
        records = transient_records(ram, [upset], addresses)
        assert records[0].first_detection is None
        assert not records[0].detected

    def test_parity_bit_upset_also_detected(self):
        ram = make_ram()
        upset = TransientUpset(address=2, bit=8, cycle=0)  # the check bit
        records = transient_records(ram, [upset], [2])
        assert records[0].first_detection == 0

    def test_scrubbing_bounds_latency(self):
        ram = make_ram(words=16)
        upsets = [
            TransientUpset(address=a, bit=1, cycle=0) for a in range(16)
        ]
        period = 2
        cycles = 16 * period * 2 + 10
        stream = scrubbed(16, cycles, scrub_period=period, seed=4)
        records = transient_records(ram, upsets, stream)
        assert all(r.detected for r in records)
        latencies = [
            r.first_detection - upset.cycle
            for upset, r in zip(upsets, records)
        ]
        # the scrubber guarantees a visit within words * period cycles
        assert max(latencies) <= 16 * period + period

    def test_requires_parity(self):
        ram = BehavioralRAM(
            MemoryOrganization(16, 4, column_mux=2), with_parity=False
        )
        with pytest.raises(ValueError):
            transient_records(ram, [TransientUpset(0, 0, 0)], [0])

    def test_address_validation(self):
        ram = make_ram()
        with pytest.raises(ValueError):
            transient_records(ram, [TransientUpset(999, 0, 0)], [0])

    def test_flip_stored_bit_validation(self):
        ram = make_ram()
        with pytest.raises(ValueError):
            ram.flip_stored_bit(0, 99)

    def test_double_upset_same_word_escapes_parity(self):
        # two flips in one word restore even parity: the known limit of
        # the single-parity-bit data path (SEC-DED exists for this).
        ram = make_ram()
        zero = (0,) * 8
        for address in range(ram.organization.words):
            ram.write(address, zero)
        ram.flip_stored_bit(3, 0)
        ram.flip_stored_bit(3, 1)
        assert ram.parity_ok(3)
