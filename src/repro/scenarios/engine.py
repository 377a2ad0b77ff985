"""`CampaignEngine` — one facade, every campaign, two engines.

The unified driver over the scenario vocabulary.  ``engine="vector"``
is the one fast path of every campaign family and ``engine="serial"``
the per-cycle oracle it is proven bit-identical against: decoder and
scheme campaigns delegate to :mod:`repro.faultsim` (NumPy lane-array
engine / serial loops), while **transient** and **march** campaigns
run sparse event walks here, which need no lane sets at all:

* *Transient upsets as event segments.*  One pass over the trace
  collects each victim address's read cycles and writes.  Per victim
  the engine walks its events in cycle order — upsets toggling bits,
  workload writes storing a fresh code word — and in each segment with
  live flips bisects for the first victim read: that read is an error,
  and a detection when the flipped word is outside the parity code.
  No per-cycle simulation, and multi-upset scenarios whose second flip
  restores parity are costed exactly (error without detection).

* *March sequences as compiled lookups.*  A march test compiles (via
  :class:`~repro.scenarios.workload.MarchWorkload`) into per-address
  event lists plus the first read of each background, overall and per
  mux column; each built-in behavioural fault class then resolves to a
  lookup or a short event walk (e.g. a cell stuck-at ``v`` violates
  the victim's first read expecting ``1-v``).  Unknown fault classes
  fall back to the serial replay, so the facade is total.

Both event paths are proven bit-identical to the serial oracle
record-by-record; the serial loops remain the reference semantics.
"""

from __future__ import annotations

import bisect
import sys
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


# -- transient backend -------------------------------------------------------


def _require_fault_free(ram: BehavioralRAM, campaign: str) -> None:
    """Campaigns own the RAM's fault state: a pre-injected behavioural
    fault would be honoured by the serial replay but not by the event
    walks — refuse rather than silently diverge."""
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


def _victim_accesses(
    workload: Workload, victims: Iterable[int]
) -> Tuple[Dict[int, List[int]], Dict[int, List[Tuple[int, int]]]]:
    """One pass over the trace: each victim address's read cycles and
    its ``(cycle, background)`` writes, both in cycle order."""
    reads: Dict[int, List[int]] = {address: [] for address in victims}
    writes: Dict[int, List[Tuple[int, int]]] = {
        address: [] for address in reads
    }
    for cycle, access in enumerate(workload.accesses()):
        if access.address in reads:
            if access.is_read:
                reads[access.address].append(cycle)
            else:
                writes[access.address].append((cycle, access.bit))
    return reads, writes


def _transient_victim(
    upsets: List[TransientUpset],
    reads: List[int],
    writes: List[Tuple[int, int]],
    is_code: Callable[[int, int], bool],
) -> Tuple[Optional[int], Optional[int]]:
    """(first_error, first_detection) of one victim word.

    Upsets toggle stored bits before their cycle's access; workload
    writes store a background word, clearing every live flip.  Between
    two such events the word is constant, so the first read of each
    segment with live flips (found by bisection) is that segment's
    first error, and a detection too when the flipped word
    (``is_code(background, flips)``) is not a code word.
    """
    events = sorted(
        [(max(u.cycle, 0), 0, u.bit) for u in upsets]
        + [(cycle, 1, background) for cycle, background in writes]
    )
    first_error: Optional[int] = None
    background, flips, start = 0, 0, 0
    for end, kind, payload in events + [(sys.maxsize, 2, 0)]:
        if flips:  # the segment [start, end) reads a corrupt word
            index = bisect.bisect_left(reads, start)
            if index < len(reads) and reads[index] < end:
                read = reads[index]
                if first_error is None:
                    first_error = read
                if not is_code(background, flips):
                    return first_error, read
        if kind == 0:  # an upset toggles its bit
            flips ^= 1 << payload
        elif kind == 1:  # a write stores a fresh background word
            background, flips = payload, 0
        start = end
    return first_error, None


def _transient_worker(payload):
    """One shard of transient scenarios against one workload."""
    (ram, workload, engine), scenarios = payload
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

    reads, writes = _victim_accesses(
        workload, {u.address for s in scenarios for u in s.upsets}
    )
    codes: Dict[Tuple[int, int], bool] = {}

    def is_code(background: int, flips: int) -> bool:
        key = (background, flips)
        if key not in codes:
            word = [
                bit ^ (flips >> index & 1)
                for index, bit in enumerate(backgrounds[background])
            ]
            codes[key] = ram.parity_code.is_codeword(tuple(word))
        return codes[key]

    out = []
    for scenario in scenarios:
        # victims are independent words: the scenario's firsts are the
        # earliest of any victim's
        victims = [
            _transient_victim(
                [u for u in scenario.upsets if u.address == address],
                reads[address],
                writes[address],
                is_code,
            )
            for address in scenario.addresses
        ]
        errors = [error for error, _ in victims if error is not None]
        detections = [found for _, found in victims if found is not None]
        out.append(
            (min(errors, default=None), min(detections, default=None))
        )
    return out


# -- march backend -----------------------------------------------------------


class _MarchContext:
    """One march trace compiled to sparse lookups.

    ``events[a]`` — address ``a``'s (lane, op, bit) history in lane
    order; ``first_read[b]`` and ``first_column_read[(c, b)]`` — the
    first lane reading background ``b`` anywhere, and in mux column
    ``c``.  ``regular`` is the fault-free invariant (every read sees its
    expected background); irregular traces fall back to serial replay
    wholesale, keeping the event evaluators exact.
    """

    def __init__(self, ram: BehavioralRAM, accesses: List[Access]):
        self.ram = ram
        self.accesses = accesses
        self.backgrounds = _background_words(ram)
        self.bits = ram.organization.bits
        self.events: Dict[int, List[Tuple[int, str, int]]] = {}
        # keyed by ``Access.bit``: a march read's expected background
        self.first_read: Dict[Optional[int], int] = {}
        self.first_column_read: Dict[Tuple[int, Optional[int]], int] = {}
        split = ram.organization.split_address
        golden: Dict[int, int] = {}
        self.regular = True
        for lane, access in enumerate(accesses):
            self.events.setdefault(access.address, []).append(
                (lane, access.op, access.bit)
            )
            if access.is_write:
                golden[access.address] = access.bit
                continue
            self.first_read.setdefault(access.bit, lane)
            self.first_column_read.setdefault(
                (split(access.address)[1], access.bit), lane
            )
            if golden.get(access.address, 0) != access.bit:
                self.regular = False

    def stored_bit(self, background: int, bit: int) -> int:
        return self.backgrounds[background][bit]


def _march_serial_one(
    ram: BehavioralRAM, fault: MemoryFault, accesses: List[Access]
) -> Optional[int]:
    """First violating read lane by full replay — the oracle (and the
    vector path's fallback for unknown fault classes)."""
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


def _march_coupling(ctx: _MarchContext, fault: CouplingFault) -> Optional[int]:
    """Both coupling models in one walk over the merged aggressor /
    victim event history.  The victim's stored bit follows its writes
    and, write-triggered, an aggressor write into ``trigger`` forces it;
    read-model, a victim read sees ``forced`` while the aggressor's
    stored bit holds ``trigger``."""
    aggressor = ctx.stored_bit(0, fault.aggressor_bit)
    victim = ctx.stored_bit(0, fault.victim_bit)
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
        if op == "w":
            if cell == "v":
                victim = ctx.stored_bit(bit, fault.victim_bit)
                continue
            value = ctx.stored_bit(bit, fault.aggressor_bit)
            if fault.write_triggered and value == fault.trigger != aggressor:
                victim = fault.forced
            aggressor = value
        elif cell == "v":
            seen = victim
            if not fault.write_triggered and aggressor == fault.trigger:
                seen = fault.forced
            if seen != bit:
                return lane
    return None


def _march_vector_one(
    ctx: _MarchContext, fault: MemoryFault
) -> Optional[int]:
    """First violating read lane of the built-in fault classes, from
    the compiled trace; unknown classes replay serially.  A fault on
    the parity bit is invisible to the march's data compares."""
    if not ctx.regular:
        return _march_serial_one(ctx.ram, fault, ctx.accesses)
    if isinstance(fault, CellStuckAt):
        if fault.bit >= ctx.bits:
            return None
        for lane, op, bit in ctx.events.get(fault.address, ()):
            if op == "r" and bit != fault.value:
                return lane
        return None
    if isinstance(fault, DataLineStuckAt):
        if fault.bit >= ctx.bits:
            return None
        return ctx.first_read.get(1 - fault.value)
    if isinstance(fault, MuxLineStuckAt):
        if fault.bit >= ctx.bits:
            return None
        return ctx.first_column_read.get((fault.column, 1 - fault.value))
    if isinstance(fault, CouplingFault):
        if fault.victim_bit >= ctx.bits:
            return None
        return _march_coupling(ctx, fault)
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
    return [_march_vector_one(ctx, scenario.fault) for scenario in scenarios]


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
      and :meth:`march` run sparse event walks;
    * ``workers`` — process-pool sharding of the scenario list (every
      method);
    * ``collapse`` — structural equivalence classes (:meth:`decoder`
      and :meth:`scheme`, where structural faults occur);
    * ``chunk`` — bounded-memory lane windows of :meth:`decoder` and
      :meth:`scheme`, the cap the windows ramp up to from one 64-lane
      word (8192 when unset).  :meth:`transient` and :meth:`march`
      ignore it: their event walks hold only the victims' accesses.

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
        double flip in one word).  Vector backend: per-victim event
        segments (module docstring); serial: the per-cycle oracle.

        The campaign owns the RAM: pre-injected behavioural faults are
        refused (pass them as scenarios to :meth:`scheme`/:meth:`march`
        instead), and the contents are scratch — the serial replay
        leaves the array as the all-zero fill; the event walk never
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
                (ram, workload, self.engine),
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
        backend: compiled lookups and event walks with serial fallback
        for unknown fault classes; serial: full replay.
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
