"""`CampaignEngine` — one facade, every campaign, two engines.

The unified driver over the scenario vocabulary.  ``engine="vector"``
is the one fast path of every campaign family and ``engine="serial"``
the per-cycle oracle it is proven bit-identical against: decoder and
scheme campaigns delegate to :mod:`repro.faultsim` (NumPy lane-array
engine / serial loops), while **transient** and **march** campaigns
run their packed lane-mask backends here:

* *Transient upsets as time-varying lane masks.*  With lane ``k`` =
  cycle ``k``, an upset at cycle ``c`` is an XOR mask on the lanes
  ``>= c`` of its victim word.  Per victim address the engine walks the
  sparse event list (upsets toggling bits, workload writes resetting the
  word) and emits, per constant-state segment, two lane words:
  erroneous-read lanes (victim reads while any flip is live) and
  detected lanes (victim reads while the flipped word is outside the
  parity code).  ``first_error``/``first_detection`` fall out as lowest
  set bits — no per-cycle simulation, and multi-upset scenarios whose
  second flip restores parity are costed exactly (error without
  detection).

* *March sequences as packed read/write lane streams.*  A march test
  compiles (via :class:`~repro.scenarios.workload.MarchWorkload`) into
  per-background read masks, per-address read occupancy words and
  sparse per-address event lists; each built-in behavioural fault class
  then resolves to a handful of word operations (e.g. a cell stuck-at
  ``v`` violates exactly the victim's reads expecting ``1-v``).
  Unknown fault classes fall back to the serial replay, so the facade
  is total.

Both lane-mask paths are proven bit-identical to the serial oracle
record-by-record; the serial loops remain the reference semantics.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.faultsim.transient import TransientUpset
from repro.circuits.parallel import first_set_lane
from repro.faultsim.vectorsim import _map_jobs, check_engine
from repro.results import (
    Provenance,
    ResultRecord,
    ResultSet,
    ResultStore,
    campaign_key,
    canonical_json,
    content_digest,
    describe_target,
    fault_id,
    scenario_material,
    workload_material,
)
from repro.memory.faults import (
    CellStuckAt,
    CouplingFault,
    DataLineStuckAt,
    MemoryFault,
    MuxLineStuckAt,
)
from repro.memory.march import MarchTest
from repro.memory.ram import BehavioralRAM
from repro.scenarios.faults import (
    MemoryScenario,
    StructuralScenario,
    TransientScenario,
    as_scenarios,
)
from repro.scenarios.workload import Access, Workload, as_workload

__all__ = ["CampaignEngine"]


# -- shared helpers ----------------------------------------------------------


def _fill_zero(ram: BehavioralRAM) -> None:
    """Fault-free all-zero preparation — every stored word a code word."""
    zero = (0,) * ram.organization.bits
    for address in range(ram.organization.words):
        ram.write(address, zero)


def _background_words(ram: BehavioralRAM) -> Dict[int, Tuple[int, ...]]:
    """Stored word (data + parity when enabled) per background bit."""
    words: Dict[int, Tuple[int, ...]] = {}
    for bit in (0, 1):
        data = [bit] * ram.organization.bits
        if ram.with_parity:
            data.append(ram.parity_code.parity_bit(tuple(data[:])))
        words[bit] = tuple(data)
    return words


def _lane_range(lo: int, hi: int) -> int:
    """Lane word with bits [lo, hi) set (clamped at 0)."""
    if hi <= lo:
        return 0
    return ((1 << hi) - 1) ^ ((1 << lo) - 1) if lo > 0 else (1 << hi) - 1


# -- transient backend -------------------------------------------------------


def _require_fault_free(ram: BehavioralRAM, campaign: str) -> None:
    """Campaigns own the RAM's fault state: a pre-injected behavioural
    fault would be honoured by the serial replay but not by the packed
    lane algebra — refuse rather than silently diverge."""
    if ram.faults:
        raise ValueError(
            f"{campaign} campaign needs a fault-free RAM "
            f"({len(ram.faults)} behavioural fault(s) injected; call "
            f"clear_faults() and pass faults as scenarios instead)"
        )


def _validate_transient(
    ram: BehavioralRAM, scenarios: Sequence[TransientScenario]
) -> None:
    _require_fault_free(ram, "transient")
    if not ram.with_parity:
        raise ValueError("transient campaign needs a parity-protected RAM")
    words = ram.organization.words
    stored_bits = ram.word_width
    for scenario in scenarios:
        for upset in scenario.upsets:
            if not 0 <= upset.address < words:
                raise ValueError(
                    f"upset address {upset.address} out of range"
                )
            if not 0 <= upset.bit < stored_bits:
                raise ValueError(
                    f"upset bit {upset.bit} out of range [0, {stored_bits})"
                )


def _transient_serial_one(
    ram: BehavioralRAM,
    scenario: TransientScenario,
    accesses: Iterable[Access],
    backgrounds: Dict[int, Tuple[int, ...]],
) -> Tuple[Optional[int], Optional[int]]:
    """(first_error, first_detection) by per-cycle replay — the oracle.

    Starts from a fault-free all-zero fill; a golden shadow of the
    stored contents tells erroneous reads (observed != fault-free) apart
    from detected ones (observed outside the parity code).
    """
    _fill_zero(ram)
    golden: Dict[int, Tuple[int, ...]] = {}
    pending = sorted(scenario.upsets, key=lambda u: u.cycle)
    pointer = 0
    first_error: Optional[int] = None
    first_detection: Optional[int] = None
    zero_word = backgrounds[0]
    for lane, access in enumerate(accesses):
        while pointer < len(pending) and pending[pointer].cycle <= lane:
            upset = pending[pointer]
            ram.flip_stored_bit(upset.address, upset.bit)
            pointer += 1
        if access.is_write:
            data = (access.bit,) * ram.organization.bits
            ram.write(access.address, data)
            golden[access.address] = backgrounds[access.bit]
            continue
        word = ram.read(access.address)
        if first_error is None and word != golden.get(
            access.address, zero_word
        ):
            first_error = lane
        if not ram.parity_code.is_codeword(word):
            first_detection = lane
            break
    return first_error, first_detection


class _TransientPackedState:
    """Per-victim walker state carried across lane windows."""

    __slots__ = ("flips", "base", "pending", "pointer")

    def __init__(self, base: Tuple[int, ...], upsets: List[TransientUpset]):
        self.flips: set = set()
        self.base = base
        self.pending = sorted(upsets, key=lambda u: u.cycle)
        self.pointer = 0


def _transient_packed_scan(
    scenario: TransientScenario,
    states: Dict[int, _TransientPackedState],
    occ_read: Dict[int, int],
    writes: Dict[int, List[Tuple[int, int]]],
    window: int,
    offset: int,
    backgrounds: Dict[int, Tuple[int, ...]],
    parity_code,
    codeword_cache: Dict[Tuple[Tuple[int, ...], frozenset], bool],
) -> Tuple[int, int]:
    """(err_word, det_word) for one W-lane window of one scenario.

    Events — upsets (bit toggles, effective at their own lane) and
    workload writes (word resets, effective after their lane) — cut the
    window into constant-state segments per victim; each live segment
    contributes its victim-read lanes to ``err`` and, when the flipped
    word leaves the parity code, to ``det``.
    """
    err = det = 0
    for address, state in states.items():
        occupancy = occ_read.get(address, 0)
        events: List[Tuple[int, int, Optional[int]]] = []
        while (
            state.pointer < len(state.pending)
            and state.pending[state.pointer].cycle < offset + window
        ):
            upset = state.pending[state.pointer]
            events.append((max(upset.cycle - offset, 0), 0, upset.bit))
            state.pointer += 1
        for lane, background in writes.get(address, ()):
            events.append((lane, 1, background))
        # upsets strike before the same lane's access; writes take
        # effect after their own lane — the sort key encodes both.
        # A final sentinel closes the last live segment of the window.
        events.sort(key=lambda event: (event[0], event[1]))
        events.append((window, 2, None))
        segment_start = 0
        for lane, event_kind, payload in events:
            boundary = lane if event_kind == 0 else lane + 1
            boundary = min(boundary, window)
            if state.flips and boundary > segment_start:
                lanes = occupancy & _lane_range(segment_start, boundary)
                if lanes:
                    err |= lanes
                    cache_key = (state.base, frozenset(state.flips))
                    is_code = codeword_cache.get(cache_key)
                    if is_code is None:
                        word = list(state.base)
                        for bit in state.flips:
                            word[bit] ^= 1
                        is_code = parity_code.is_codeword(tuple(word))
                        codeword_cache[cache_key] = is_code
                    if not is_code:
                        det |= lanes
            segment_start = max(segment_start, boundary)
            if event_kind == 0:
                state.flips.symmetric_difference_update((payload,))
            elif event_kind == 1:
                state.flips.clear()
                state.base = backgrounds[payload]
    return err, det


def _transient_worker(payload):
    """One shard of transient scenarios against one workload."""
    (ram, workload, engine, chunk), scenarios = payload
    backgrounds = _background_words(ram)
    if engine == "serial":
        out = []
        for scenario in scenarios:
            accesses = workload.accesses()
            out.append(
                _transient_serial_one(ram, scenario, accesses, backgrounds)
            )
        if scenarios:
            # leave no stray flips behind: the RAM ends in the same
            # documented all-zero state every scenario started from
            _fill_zero(ram)
        return out

    window_size = chunk if chunk is not None else max(len(workload), 1)
    victim_set = {u.address for s in scenarios for u in s.upsets}
    states = [
        {
            address: _TransientPackedState(
                backgrounds[0],
                [u for u in scenario.upsets if u.address == address],
            )
            for address in scenario.addresses
        }
        for scenario in scenarios
    ]
    outcomes: List[List[Optional[int]]] = [
        [None, None] for _ in scenarios
    ]
    active = list(range(len(scenarios)))
    codeword_cache: Dict[Tuple[Tuple[int, ...], frozenset], bool] = {}
    offset = 0
    for batch in workload.chunks(window_size):
        occ_read: Dict[int, int] = {}
        writes: Dict[int, List[Tuple[int, int]]] = {}
        for lane, access in enumerate(batch):
            if access.address not in victim_set:
                continue
            if access.is_read:
                occ_read[access.address] = occ_read.get(
                    access.address, 0
                ) | (1 << lane)
            else:
                writes.setdefault(access.address, []).append(
                    (lane, access.bit)
                )
        survivors = []
        for index in active:
            err, det = _transient_packed_scan(
                scenarios[index],
                states[index],
                occ_read,
                writes,
                len(batch),
                offset,
                backgrounds,
                ram.parity_code,
                codeword_cache,
            )
            if outcomes[index][0] is None:
                lane = first_set_lane(err)
                if lane is not None:
                    outcomes[index][0] = offset + lane
            lane = first_set_lane(det)
            if lane is not None:
                outcomes[index][1] = offset + lane
            else:
                survivors.append(index)
        active = survivors
        offset += len(batch)
        if not active:
            break
    return [tuple(outcome) for outcome in outcomes]


# -- march backend -----------------------------------------------------------


class _MarchContext:
    """One march trace compiled to packed lane structures.

    ``read_bg[b]`` — lanes reading background ``b``; ``occ_read[a]`` —
    lanes reading address ``a``; ``events[a]`` — sparse per-address
    (lane, op, bit) history.  ``regular`` is the fault-free invariant
    (every read sees its expected background); irregular traces fall
    back to serial replay wholesale, keeping the packed evaluators
    exact.
    """

    def __init__(self, ram: BehavioralRAM, accesses: List[Access]):
        self.ram = ram
        self.organization = ram.organization
        self.accesses = accesses
        self.backgrounds = _background_words(ram)
        bits = ram.organization.bits
        self.bits = bits
        self.read_bg = {0: 0, 1: 0}
        self.occ_read: Dict[int, int] = {}
        self.events: Dict[int, List[Tuple[int, str, int]]] = {}
        golden: Dict[int, int] = {}
        self.regular = True
        for lane, access in enumerate(accesses):
            self.events.setdefault(access.address, []).append(
                (lane, access.op, access.bit)
            )
            if access.is_write:
                golden[access.address] = access.bit
            else:
                self.read_bg[access.bit] |= 1 << lane
                self.occ_read[access.address] = self.occ_read.get(
                    access.address, 0
                ) | (1 << lane)
                if golden.get(access.address, 0) != access.bit:
                    self.regular = False
        self._column_masks: Dict[int, int] = {}

    def column_read_mask(self, column: int) -> int:
        mask = self._column_masks.get(column)
        if mask is None:
            mask = 0
            for address, occupancy in self.occ_read.items():
                if self.organization.split_address(address)[1] == column:
                    mask |= occupancy
            self._column_masks[column] = mask
        return mask

    def stored_bit(self, background: int, bit: int) -> int:
        return self.backgrounds[background][bit]


def _march_serial_one(
    ram: BehavioralRAM, fault: MemoryFault, accesses: List[Access]
) -> Optional[int]:
    """First violating read lane by full replay — the oracle (and the
    packed path's fallback for unknown fault classes)."""
    ram.clear_faults()
    _fill_zero(ram)
    ram.inject(fault)
    bits = ram.organization.bits
    try:
        for lane, access in enumerate(accesses):
            if access.is_write:
                ram.write(access.address, (access.bit,) * bits)
            else:
                expected = (access.bit,) * bits
                if ram.read_data(access.address) != expected:
                    return lane
        return None
    finally:
        ram.clear_faults()


def _march_cell_stuck(ctx: _MarchContext, fault: CellStuckAt) -> Optional[int]:
    if fault.bit >= ctx.bits:
        return None  # parity region: invisible to data compares
    lanes = ctx.occ_read.get(fault.address, 0) & ctx.read_bg[1 - fault.value]
    return first_set_lane(lanes)


def _march_data_line(
    ctx: _MarchContext, fault: DataLineStuckAt
) -> Optional[int]:
    if fault.bit >= ctx.bits:
        return None
    return first_set_lane(ctx.read_bg[1 - fault.value])


def _march_mux_line(ctx: _MarchContext, fault: MuxLineStuckAt) -> Optional[int]:
    if fault.bit >= ctx.bits:
        return None
    lanes = ctx.column_read_mask(fault.column) & ctx.read_bg[1 - fault.value]
    return first_set_lane(lanes)


def _march_read_coupling(
    ctx: _MarchContext, fault: CouplingFault
) -> Optional[int]:
    """Read-model coupling: victim reads are wrong exactly while the
    aggressor's stored bit holds the trigger (and the forced value
    differs from the read's background)."""
    if fault.victim_bit >= ctx.bits:
        return None
    total = len(ctx.accesses)
    trigger_mask = 0
    value = ctx.stored_bit(0, fault.aggressor_bit)  # all-zero preparation
    segment_start = 0
    for lane, op, bit in ctx.events.get(fault.aggressor_address, ()):
        if op != "w":
            continue
        new_value = ctx.stored_bit(bit, fault.aggressor_bit)
        if new_value != value:
            if value == fault.trigger:
                trigger_mask |= _lane_range(segment_start, lane)
            value = new_value
            segment_start = lane
    if value == fault.trigger:
        trigger_mask |= _lane_range(segment_start, total)
    lanes = (
        ctx.occ_read.get(fault.victim_address, 0)
        & trigger_mask
        & ctx.read_bg[1 - fault.forced]
    )
    return first_set_lane(lanes)


def _march_write_coupling(
    ctx: _MarchContext, fault: CouplingFault
) -> Optional[int]:
    """Write-triggered coupling: sparse walk over the merged aggressor /
    victim event history, tracking the victim's corrupted stored bit."""
    if fault.victim_bit >= ctx.bits:
        return None
    aggressor_value = ctx.stored_bit(0, fault.aggressor_bit)
    victim_value = ctx.stored_bit(0, fault.victim_bit)
    merged = sorted(
        [
            (lane, "a", op, bit)
            for lane, op, bit in ctx.events.get(fault.aggressor_address, ())
        ]
        + [
            (lane, "v", op, bit)
            for lane, op, bit in ctx.events.get(fault.victim_address, ())
        ]
    )
    for lane, cell, op, bit in merged:
        if cell == "a":
            if op == "w":
                new_value = ctx.stored_bit(bit, fault.aggressor_bit)
                if (
                    new_value == fault.trigger
                    and aggressor_value != fault.trigger
                ):
                    victim_value = fault.forced
                aggressor_value = new_value
        else:
            if op == "w":
                victim_value = ctx.stored_bit(bit, fault.victim_bit)
            elif victim_value != bit:
                return lane
    return None


def _march_packed_one(
    ctx: _MarchContext, fault: MemoryFault
) -> Optional[int]:
    if not ctx.regular:
        return _march_serial_one(ctx.ram, fault, ctx.accesses)
    if isinstance(fault, CellStuckAt):
        return _march_cell_stuck(ctx, fault)
    if isinstance(fault, DataLineStuckAt):
        return _march_data_line(ctx, fault)
    if isinstance(fault, MuxLineStuckAt):
        return _march_mux_line(ctx, fault)
    if isinstance(fault, CouplingFault):
        if fault.write_triggered:
            return _march_write_coupling(ctx, fault)
        return _march_read_coupling(ctx, fault)
    return _march_serial_one(ctx.ram, fault, ctx.accesses)


def _march_worker(payload):
    (ram, workload, engine), scenarios = payload
    accesses = list(workload.accesses())
    if engine == "serial":
        return [
            _march_serial_one(ram, scenario.fault, accesses)
            for scenario in scenarios
        ]
    ctx = _MarchContext(ram, accesses)
    return [_march_packed_one(ctx, scenario.fault) for scenario in scenarios]


# -- the facade --------------------------------------------------------------


class CampaignEngine:
    """One front door for every campaign family.

    Carries the execution policy and applies it across :meth:`decoder`,
    :meth:`scheme`, :meth:`transient` and :meth:`march` campaigns, all
    of which consume the same
    :class:`~repro.scenarios.workload.Workload` /
    :class:`~repro.scenarios.faults.FaultScenario` vocabulary:

    * ``engine`` — ``"vector"`` (default), the one fast path, or
      ``"serial"``, the bit-identity oracle.  :meth:`decoder` and
      :meth:`scheme` run the NumPy lane-array engine; :meth:`transient`
      and :meth:`march` run their whole-word lane-mask backends;
    * ``workers`` — process-pool sharding of the scenario list (every
      method);
    * ``collapse`` — structural equivalence classes (:meth:`decoder`
      and :meth:`scheme`, where structural faults occur);
    * ``chunk`` — bounded-memory lane windows (:meth:`decoder`,
      :meth:`scheme` and :meth:`transient`, the streaming backends;
      :meth:`march` ignores it — its lane masks are already bounded by
      the compiled march length).  For :meth:`decoder` and
      :meth:`scheme` it is the cap the windows ramp up to from one
      64-lane word (8192 when unset); :meth:`transient` runs windows of
      exactly ``chunk`` lanes (the whole trace when unset).

    Since 1.4 the engine also carries the **artifact policy**:

    * ``store`` — a :class:`repro.results.ResultStore` (or its root
      path).  Every campaign is keyed on the canonical hash of
      ``(target, scenarios, workload, collapse policy)``; identical
      re-runs are served from disk, hash-verified, without invoking the
      simulator.  With ``workers=N`` the scenario-list campaigns
      (:meth:`decoder`, :meth:`transient`, :meth:`march`) additionally
      checkpoint per shard, so an interrupted campaign resumes from its
      completed shards.  A result served from the store equals the
      fresh one value for value (``record.fault`` is always the
      printable identity string); only ``from_store`` tells them
      apart.
    * ``cache`` — ``False`` skips the lookup but still refreshes the
      store entry (the CLI's ``--no-cache``).

    ``engine``, ``workers`` and ``chunk`` are excluded from the
    campaign key: all three are proven result-invariant execution
    details, so a serial run and a vector run share one store entry.
    The serial oracle never reads the store, though — it is there to
    check the fast path, so it always simulates (and refreshes the
    entry), whatever ``cache`` says.
    """

    def __init__(
        self,
        engine: str = "vector",
        collapse: bool = True,
        workers: Optional[int] = None,
        chunk: Optional[int] = None,
        store: Optional[Union[ResultStore, str]] = None,
        cache: bool = True,
    ):
        engine = check_engine(engine)
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be >= 1 lanes, got {chunk}")
        self.engine = engine
        self.collapse = collapse
        self.workers = workers
        self.chunk = chunk
        self.store = ResultStore.coerce(store)
        self.cache = cache

    @property
    def _reads_store(self) -> bool:
        """Whether a stored result may stand in for a simulation."""
        return self.cache and self.engine != "serial"

    def __repr__(self) -> str:
        return (
            f"CampaignEngine(engine={self.engine!r}, "
            f"collapse={self.collapse}, workers={self.workers}, "
            f"chunk={self.chunk}, store={self.store!r}, "
            f"cache={self.cache})"
        )

    # -- artifact policy -----------------------------------------------------

    def _material(
        self,
        family: str,
        target: dict,
        descriptions: Sequence[str],
        workload: Optional[Workload],
        extra: Optional[dict] = None,
    ) -> dict:
        """The canonical campaign-key material (see module docstring of
        :mod:`repro.results.store`)."""
        material = {
            "format": 1,
            "campaign": family,
            "target": target,
            "scenarios": scenario_material(descriptions),
            "workload": (
                workload_material(workload) if workload is not None else None
            ),
            "policy": {"collapse": self.collapse},
        }
        if extra:
            material["extra"] = extra
        return material

    def _provenance(
        self,
        family: str,
        workload: Optional[Workload],
        scenario_count: int,
        material: Optional[dict] = None,
        key: Optional[str] = None,
        spec: Optional[dict] = None,
    ) -> Provenance:
        """The stamp every result carries.  The digest fields come from
        the key ``material`` and are only present on store-keyed runs —
        store-less campaigns skip the digest work entirely."""
        from repro import __version__

        workload_spec = None
        workload_label = None
        if workload is not None:
            workload_label = workload.label()
            as_dict = workload.to_dict()
            if len(canonical_json(as_dict)) <= 4096:
                workload_spec = as_dict
        scenario_digest = None
        target_digest = None
        if material is not None:
            scenario_digest = material["scenarios"]["digest"]
            target_digest = content_digest(
                canonical_json(material["target"])
            )
        return Provenance(
            campaign=family,
            engine=self.engine,
            collapse=self.collapse,
            workload=workload_label,
            workload_spec=workload_spec,
            scenario_count=scenario_count,
            scenario_digest=scenario_digest,
            target_digest=target_digest,
            spec=spec,
            repro_version=__version__,
            key=key,
        )

    def _execute(
        self,
        family: str,
        material_fn: Callable[[], dict],
        scenarios: List,
        runner: Callable[[List], ResultSet],
        workload: Optional[Workload] = None,
        shardable: bool = False,
        spec: Optional[dict] = None,
        storable: bool = True,
    ) -> ResultSet:
        """Run (or serve) one campaign under the artifact policy.

        ``runner(subset)`` simulates a scenario subset and returns its
        :class:`ResultSet` in subset order — the contract the
        shard-resume path relies on.  ``material_fn`` builds the key
        material lazily: store-less runs never pay for target/scenario
        digests.  The set is stamped with this run's provenance and
        stored as it is, so a fresh result equals the one a later run
        is served.
        """
        if self.store is None or not storable:
            result = runner(scenarios)
            result.provenances = (
                self._provenance(family, workload, len(scenarios), spec=spec),
            )
            return result
        material = material_fn()
        key = campaign_key(material)
        if self._reads_store:
            cached = self.store.get(key)
            if cached is not None:
                cached.from_store = True
                return cached
        if (
            shardable
            and self.workers is not None
            and self.workers > 1
            and len(scenarios) > 1
        ):
            result, shard_keys = self._run_sharded(
                family, material, scenarios, runner, workload, spec
            )
        else:
            result = runner(scenarios)
            shard_keys = []
        result.provenances = (
            self._provenance(
                family, workload, len(scenarios),
                material=material, key=key, spec=spec,
            ),
        )
        self.store.put(key, result, material)
        # the full entry supersedes the per-shard checkpoints — prune
        # them so the store holds one entry per completed campaign
        for shard_key in shard_keys:
            self.store.delete(shard_key)
        return result

    def _run_sharded(
        self,
        family: str,
        material: dict,
        scenarios: List,
        runner: Callable[[List], ResultSet],
        workload: Optional[Workload],
        spec: Optional[dict],
    ) -> Tuple[ResultSet, List[str]]:
        """Per-shard checkpointing: each of ``workers`` contiguous
        scenario shards is stored under its own sub-key as it completes,
        so a re-run after an interruption only simulates the shards that
        never finished.  The shard sets concatenate in scenario order;
        the caller stamps the whole campaign's provenance.
        """
        shard_count = min(self.workers, len(scenarios))
        base, remainder = divmod(len(scenarios), shard_count)
        shards: List[List] = []
        cursor = 0
        for index in range(shard_count):
            size = base + (1 if index < remainder else 0)
            shards.append(scenarios[cursor : cursor + size])
            cursor += size
        parts: List[ResultSet] = []
        shard_keys: List[str] = []
        for index, shard in enumerate(shards):
            shard_material = dict(material)
            shard_material["shard"] = {"index": index, "of": shard_count}
            shard_key = campaign_key(shard_material)
            shard_keys.append(shard_key)
            cached = (
                self.store.get(shard_key) if self._reads_store else None
            )
            if cached is not None:
                parts.append(cached)
                continue
            part = runner(shard)
            part.provenances = (
                self._provenance(
                    family, workload, len(shard),
                    material=shard_material, key=shard_key, spec=spec,
                ),
            )
            self.store.put(shard_key, part, shard_material)
            parts.append(part)
        # every shard set has a single provenance, so each record's
        # provenance index is 0 and stays valid in the merged set
        merged = ResultSet(
            [record for part in parts for record in part.records],
            cycles_simulated=parts[0].cycles_simulated,
        )
        return merged, shard_keys

    # -- structural campaigns ------------------------------------------------

    def decoder(
        self,
        checked,
        checker,
        faults: Sequence,
        workload: Union[Workload, Sequence[int]],
        attach_analytic: bool = True,
        spec: Optional[dict] = None,
    ) -> ResultSet:
        """Stuck-at campaign on a checked decoder (see
        :func:`repro.faultsim.campaign.decoder_campaign`).

        ``spec`` (a ``DesignSpec.to_dict()``) is stamped into the
        provenance when the campaign backs a design flow — it does not
        enter the campaign key (the built hardware already does).
        """
        from repro.faultsim.campaign import decoder_campaign

        workload = as_workload(workload)
        bare = [
            s.fault if isinstance(s, StructuralScenario) else s
            for s in faults
        ]

        def run(subset: List) -> ResultSet:
            return decoder_campaign(
                checked,
                checker,
                subset,
                workload,
                attach_analytic=attach_analytic,
                engine=self.engine,
                collapse=self.collapse,
                workers=self.workers,
                chunk=self.chunk,
            )

        def material():
            return self._material(
                "decoder",
                {
                    "checked": describe_target(checked),
                    "checker": describe_target(checker),
                },
                [fault_id(fault) for fault in bare],
                workload,
                extra={"attach_analytic": attach_analytic},
            )

        return self._execute(
            "decoder", material, bare, run,
            workload=workload, shardable=True, spec=spec,
        )

    def scheme(
        self,
        memory,
        workload: Union[Workload, Sequence[int]],
        scenarios: Iterable = (),
        writer=None,
    ) -> ResultSet:
        """End-to-end campaign on a self-checking memory, scenarios
        routed by kind (structural axis faults, behavioural memory
        faults) — see :func:`repro.faultsim.campaign.scheme_campaign`."""
        from repro.faultsim.campaign import scheme_campaign

        workload = as_workload(workload)
        row_scenarios: List[StructuralScenario] = []
        column_scenarios: List[StructuralScenario] = []
        memory_scenarios: List[MemoryScenario] = []
        for scenario in as_scenarios(scenarios):
            if isinstance(scenario, StructuralScenario):
                bucket = (
                    row_scenarios
                    if scenario.axis == "row"
                    else column_scenarios
                )
                bucket.append(scenario)
            elif isinstance(scenario, MemoryScenario):
                memory_scenarios.append(scenario)
            else:
                raise TypeError(
                    f"scheme campaigns take structural or memory "
                    f"scenarios, not {scenario.kind!r} "
                    f"(use CampaignEngine.transient for upsets)"
                )
        # record order is row -> column -> memory; key material and the
        # (unshardable) runner both speak that canonical order
        ordered = row_scenarios + column_scenarios + memory_scenarios

        def run(subset: List) -> ResultSet:
            return scheme_campaign(
                memory,
                workload,
                row_faults=[
                    s.fault for s in subset
                    if isinstance(s, StructuralScenario) and s.axis == "row"
                ],
                column_faults=[
                    s.fault for s in subset
                    if isinstance(s, StructuralScenario)
                    and s.axis == "column"
                ],
                memory_faults=[
                    s.fault for s in subset
                    if isinstance(s, MemoryScenario)
                ],
                writer=writer,
                engine=self.engine,
                collapse=self.collapse,
                workers=self.workers,
                chunk=self.chunk,
            )

        def material():
            return self._material(
                "scheme",
                describe_target(memory),
                [scenario.describe() for scenario in ordered],
                workload,
            )

        # a custom writer changes memory contents in ways the key cannot
        # capture (it is an arbitrary callable) — never cache those runs
        return self._execute(
            "scheme", material, ordered, run,
            workload=workload, storable=writer is None,
        )

    # -- transient campaigns -------------------------------------------------

    def transient(
        self,
        ram: BehavioralRAM,
        scenarios: Iterable,
        workload: Union[Workload, Sequence[int]],
    ) -> ResultSet:
        """Single-event-upset campaign on a parity-protected RAM.

        Per scenario the RAM starts as a fault-free all-zero fill; the
        workload then replays with each upset flipping its stored bit at
        its cycle (workload writes re-encode their word, clearing any
        live corruption).  ``first_error`` is the first read observing
        corrupt data, ``first_detection`` the first read the parity
        check flags — a gap between them is a parity escape (e.g. a
        double flip in one word).  Vector backend: time-varying lane
        masks (module docstring); serial: the per-cycle oracle.

        The campaign owns the RAM: pre-injected behavioural faults are
        refused (pass them as scenarios to :meth:`scheme`/:meth:`march`
        instead), and the contents are scratch — the serial replay
        leaves the array as the all-zero fill; the lane-mask backend never
        touches it.
        """
        workload = as_workload(workload)
        normalized: List[TransientScenario] = []
        for scenario in as_scenarios(scenarios):
            if not isinstance(scenario, TransientScenario):
                raise TypeError(
                    f"transient campaigns take transient scenarios, "
                    f"not {scenario.kind!r}"
                )
            normalized.append(scenario)
        _validate_transient(ram, normalized)

        def run(subset: List[TransientScenario]) -> ResultSet:
            outcomes = _map_jobs(
                _transient_worker,
                (ram, workload, self.engine, self.chunk),
                subset,
                self.workers,
            )
            records = [
                ResultRecord(
                    fault_id(scenario), "transient",
                    first_detection, first_error,
                )
                for scenario, (first_error, first_detection) in zip(
                    subset, outcomes
                )
            ]
            return ResultSet(records, cycles_simulated=len(workload))

        def material():
            return self._material(
                "transient",
                describe_target(ram),
                [scenario.describe() for scenario in normalized],
                workload,
            )

        return self._execute(
            "transient", material, normalized, run,
            workload=workload, shardable=True,
        )

    # -- march campaigns -----------------------------------------------------

    def march(
        self,
        ram: BehavioralRAM,
        scenarios: Iterable,
        test: MarchTest,
    ) -> ResultSet:
        """March-test detection campaign over behavioural fault scenarios.

        Each scenario runs the full march from a fresh all-zero array;
        ``first_detection`` is the index of the first violating read in
        the compiled operation stream (one lane per operation), ``None``
        when the algorithm's coverage class misses the fault.  Vector
        backend: compiled lane masks with serial fallback for unknown
        fault classes; serial: full replay.
        """
        _require_fault_free(ram, "march")
        workload = Workload.march(test, ram.organization.words)
        normalized: List[MemoryScenario] = []
        for scenario in as_scenarios(scenarios):
            if not isinstance(scenario, MemoryScenario):
                raise TypeError(
                    f"march campaigns take memory scenarios, "
                    f"not {scenario.kind!r}"
                )
            normalized.append(scenario)

        def run(subset: List[MemoryScenario]) -> ResultSet:
            outcomes = _map_jobs(
                _march_worker,
                (ram, workload, self.engine),
                subset,
                self.workers,
            )
            records = [
                ResultRecord(fault_id(scenario), "memory", first_detection)
                for scenario, first_detection in zip(subset, outcomes)
            ]
            return ResultSet(records, cycles_simulated=len(workload))

        def material():
            return self._material(
                "march",
                describe_target(ram),
                [scenario.describe() for scenario in normalized],
                workload,
            )

        return self._execute(
            "march", material, normalized, run,
            workload=workload, shardable=True,
        )
