"""Resilient tenant registry: warm per-tenant matcher state, swapped atomically.

A *tenant* is one dataset/matcher pairing the service keeps warm: a
fitted matcher bundle, a fingerprint-keyed
:class:`~repro.core.feature_cache.PairFeatureStore` (for the LEAPME
systems), and the bootstrap spec that makes all of it reproducible.
The registry owns three invariants:

**Copy-on-swap reload.**  ``add_source`` never mutates the state a
request might be reading.  A *new* :class:`TenantState` is built beside
the old one -- through :meth:`PairFeatureStore.with_source`, the PR 5
delta path, so only the new rows/pairs are featurized and the result is
bit-identical to a cold rebuild -- and then swapped in with a single
attribute assignment.  In-flight requests finish against the state they
grabbed; new requests see the new state.

**Crash-safe lifecycle.**  Every transition is journaled
(:class:`~repro.serve.journal.RegistryJournal`) with fsynced appends
*before* the swap makes it visible, so :meth:`load` can warm-restart a
SIGKILLed server into the same tenant set: bootstraps and reloads are
deterministic functions of the journaled specs and file fingerprints,
which is what makes post-restart match responses byte-identical to a
cold rebuild over the same journal.

**Bulkhead quarantine.**  Each tenant carries a consecutive-failure
breaker.  A tenant whose requests keep failing is quarantined as a
structured journal record (reason, final error, failure count) and
answers 503 from then on -- it can never take the process, the
admission queue, or healthy tenants down with it.
"""

from __future__ import annotations

import copy
import hashlib
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.blocking import CandidatePolicy
from repro.core.feature_cache import PairUniverse
from repro.core.matcher import LeapmeMatcher
from repro.core.pipeline import flush_persistent_distances
from repro.data.csvio import load_dataset_csv
from repro.data.model import Dataset, PropertyRef
from repro.data.pairs import LabeledPair, build_pairs, sample_training_pairs
from repro.errors import (
    ConfigurationError,
    DataError,
    ReproError,
    TenantQuarantinedError,
)
from repro.ingest.watcher import alignment_sidecar, source_fingerprint
from repro.serve.journal import (
    REASON_CIRCUIT_OPEN,
    REASON_POISON_TENANT,
    TENANT_QUARANTINED,
    RegistryJournal,
    TenantEvent,
)
from repro.systems import build_system_matcher, fallback_embeddings

#: Fingerprints are content hashes truncated like journal keys.
_FINGERPRINT_HEX = 16


@dataclass(frozen=True)
class TenantSpec:
    """Everything needed to (re)bootstrap one tenant, JSON-serialisable.

    Either ``dataset`` names a built-in domain (with ``scale``) or
    ``instances``/``alignment`` point at CSV files on the server's
    filesystem.  ``seed`` drives the (single) training-pair draw of
    supervised systems; everything else downstream is deterministic, so
    the spec plus the input bytes pin the tenant's behaviour exactly.
    ``blocking`` is an optional candidate-policy label (see
    :meth:`repro.blocking.CandidatePolicy.from_label`); unset means the
    exact-equivalence null policy, and the label is journaled so a warm
    restart rebuilds the same pruned universe.
    """

    tenant: str
    system: str = "lsh"
    instances: str | None = None
    alignment: str | None = None
    dataset: str | None = None
    scale: str = "small"
    seed: int = 0
    threshold: float | None = None
    blocking: str | None = None

    def __post_init__(self) -> None:
        if not self.tenant or "/" in self.tenant:
            raise ConfigurationError(
                "tenant ids must be non-empty and slash-free"
            )
        if (self.dataset is None) == (self.instances is None):
            raise ConfigurationError(
                "a tenant spec needs exactly one of dataset= (built-in) "
                "or instances= (CSV path)"
            )
        # Fail at spec time, not bootstrap time: a bad blocking label is
        # a client error the create request should surface immediately.
        self.policy()

    def policy(self) -> CandidatePolicy:
        """The candidate policy this spec bootstraps with."""
        return CandidatePolicy.from_label(self.blocking)

    def to_record(self) -> dict:
        record: dict = {"system": self.system, "seed": self.seed, "scale": self.scale}
        for name in ("instances", "alignment", "dataset", "threshold", "blocking"):
            value = getattr(self, name)
            if value is not None:
                record[name] = value
        return record

    @classmethod
    def from_record(cls, tenant: str, record: dict) -> "TenantSpec":
        return cls(
            tenant=tenant,
            system=str(record.get("system", "lsh")),
            instances=record.get("instances"),
            alignment=record.get("alignment"),
            dataset=record.get("dataset"),
            scale=str(record.get("scale", "small")),
            seed=int(record.get("seed", 0)),
            threshold=record.get("threshold"),
            blocking=record.get("blocking"),
        )

    def input_fingerprint(self) -> str | None:
        """Content hash of the instances (+ alignment) files, if any.

        Journaled at creation so a warm restart can refuse to silently
        rebuild a tenant from bytes that changed underneath it -- the
        same contract the ingestion journal enforces on resume.
        """
        if self.instances is None:
            return None
        hasher = hashlib.sha256()
        try:
            hasher.update(Path(self.instances).read_bytes())
            if self.alignment is not None:
                hasher.update(b"\x1f")
                hasher.update(Path(self.alignment).read_bytes())
        except OSError as problem:
            raise DataError(
                f"tenant {self.tenant!r}: cannot read bootstrap inputs: "
                f"{problem}"
            ) from None
        return hasher.hexdigest()[:_FINGERPRINT_HEX]


class _Once:
    """A value computed at most once, on first use.

    Concurrent first callers serialise on the guard, so exactly one of
    them computes; the rest wait and share its result.  A computation
    that raises leaves the slot empty, and the next caller retries.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._done = False
        self._value = None

    def get(self, compute):
        if not self._done:
            with self._lock:
                if not self._done:
                    self._value = compute()
                    self._done = True
        return self._value


@dataclass(frozen=True)
class TenantState:
    """One immutable snapshot of a tenant's serving state.

    Requests read ``tenant.state`` exactly once and hold the reference;
    reloads build a whole new snapshot and swap it in.  Nothing in here
    is mutated after construction (store gathers are internally locked
    read-through caches; see :mod:`repro.core.feature_cache`) except
    two write-once memos, each a pure function of the snapshot: its
    scored candidate pairs and its ``(source, name)`` property index.
    """

    dataset: Dataset
    matcher: object
    #: ``(file, fingerprint)`` of every reload applied, in order.
    sources: tuple[tuple[str, str], ...] = ()
    _scores: _Once = field(
        default_factory=_Once, init=False, repr=False, compare=False
    )
    _refs: _Once = field(
        default_factory=_Once, init=False, repr=False, compare=False
    )

    @property
    def universe(self) -> PairUniverse | None:
        """The warm LEAPME store's candidate universe, if the matcher has one."""
        matcher = self.matcher
        if isinstance(matcher, LeapmeMatcher) and matcher.store is not None:
            return matcher.store.universe
        return None

    def scored_pairs(self) -> tuple[list[LabeledPair], np.ndarray]:
        """Every candidate pair of the snapshot and its score.

        One forward pass per snapshot, run lazily by the first read:
        scoring at bootstrap, reload or replay would charge every
        ``/add-source`` (and every warm restart) for snapshots that may
        never be read.  The call is exactly the one ``/match`` always
        made, so response bytes do not change.
        """
        return self._scores.get(self._score_candidates)

    def _score_candidates(self) -> tuple[list[LabeledPair], np.ndarray]:
        universe = self.universe
        # The warm store's universe is element-identical to build_pairs
        # under the null policy, and the blocked candidate set otherwise.
        pairs = (
            list(universe.pairs)
            if universe is not None
            else build_pairs(self.dataset).pairs
        )
        scores = np.asarray(
            self.matcher.score_pairs(self.dataset, pairs) if pairs else np.zeros(0)
        )
        scores.setflags(write=False)
        return pairs, scores

    def scores_of(self, pairs: list[LabeledPair]) -> np.ndarray:
        """Scores of explicit pairs: universe rows from the memo.

        Pairs without a universe row -- those a blocking policy pruned
        -- are scored on demand, and so is everything for a matcher
        without a store.
        """
        if not pairs:
            return np.zeros(0)
        universe = self.universe
        if universe is None:
            return self.matcher.score_pairs(self.dataset, pairs)
        rows = universe.lookup_rows(pairs)
        found = rows >= 0
        if found.all():
            return self.scored_pairs()[1][rows]
        scores = np.empty(len(pairs))
        if found.any():
            scores[found] = self.scored_pairs()[1][rows[found]]
        scores[~found] = self.matcher.score_pairs(
            self.dataset, [pair for pair, hit in zip(pairs, found) if not hit]
        )
        return scores

    def property_index(self) -> dict[tuple[str, str], PropertyRef]:
        """``(source, name) -> PropertyRef`` over the snapshot's dataset."""
        return self._refs.get(
            lambda: {(ref.source, ref.name): ref for ref in self.dataset.properties()}
        )


@dataclass
class Tenant:
    """A registered tenant: spec, swappable state, breaker bookkeeping."""

    spec: TenantSpec
    state: TenantState | None = None
    #: Consecutive request failures (reset on success).
    failures: int = 0
    quarantine: TenantEvent | None = None
    #: Reload counter; the journal's ``order`` field.
    reloads: int = 0
    created_order: int = 0

    @property
    def quarantined(self) -> bool:
        return self.quarantine is not None


def _tenant_threshold(tenant: Tenant) -> float:
    if tenant.spec.threshold is not None:
        return float(tenant.spec.threshold)
    return float(tenant.state.matcher.threshold)


def _state_pair_count(state: TenantState) -> int:
    """Candidate pairs the state serves (the journal's bootstrap count).

    A warm LEAPME store answers from its universe -- under a blocking
    policy that is the pruned candidate count, and under the null
    policy it equals the full ``build_pairs`` enumeration exactly.
    """
    if state.universe is not None:
        return len(state.universe)
    return len(build_pairs(state.dataset).pairs)


class TenantRegistry:
    """The warm tenant set behind :mod:`repro.serve.server`.

    Parameters
    ----------
    journal:
        The crash-safe registry journal; pass the same path across
        restarts to warm-restart into the same tenant set.
    breaker_threshold:
        Consecutive request failures after which a tenant is
        quarantined (journaled, 503 from then on).
    fault_plan:
        Optional :class:`repro.testing.faults.ServeFaultPlan`; its
        ``maybe_exit`` hook fires after each journal append (and at the
        ``reload`` point just before one) so chaos tests can SIGKILL
        the process at exact lifecycle stages.
    """

    def __init__(
        self,
        journal: RegistryJournal | None = None,
        *,
        breaker_threshold: int = 3,
        fault_plan=None,
    ) -> None:
        if breaker_threshold < 1:
            raise ConfigurationError("breaker_threshold must be >= 1")
        self.journal = journal
        self.breaker_threshold = breaker_threshold
        self.fault_plan = fault_plan
        self._tenants: dict[str, Tenant] = {}
        #: Guards the tenant map (cheap, held briefly).
        self._lock = threading.Lock()
        #: Serialises bootstraps/reloads: featurization shares the
        #: process-wide distance memo, and one reload at a time keeps
        #: its bookkeeping single-writer.  Request serving never takes
        #: this lock.
        self._reload_lock = threading.Lock()
        self.loaded = False

    # -- introspection -------------------------------------------------------
    def tenants(self) -> list[Tenant]:
        """Current tenants, in creation order."""
        with self._lock:
            return sorted(self._tenants.values(), key=lambda t: t.created_order)

    def get(self, tenant_id: str) -> Tenant | None:
        with self._lock:
            return self._tenants.get(tenant_id)

    def ready(self) -> bool:
        """Whether every live tenant is warm (or pinned quarantined).

        The readiness gate: after :meth:`load` has replayed the journal
        there is no tenant whose state is still being built, so the
        service can take traffic without a cold-start stall.
        """
        if not self.loaded:
            return False
        return all(
            tenant.state is not None or tenant.quarantined
            for tenant in self.tenants()
        )

    # -- journaling + fault hooks -------------------------------------------
    def _journal(self, record_method: str, *args) -> None:
        if self.journal is not None:
            getattr(self.journal, record_method)(*args)

    def _maybe_fault(self, stage: str) -> None:
        if self.fault_plan is not None:
            self.fault_plan.maybe_exit(stage)

    # -- bootstrap -----------------------------------------------------------
    def _load_spec_dataset(self, spec: TenantSpec) -> Dataset:
        if spec.dataset is not None:
            from repro.datasets import load_dataset

            return load_dataset(spec.dataset, scale=spec.scale, seed=spec.seed)
        return load_dataset_csv(spec.instances, spec.alignment)

    def _bootstrap(self, spec: TenantSpec) -> TenantState:
        """Deterministic tenant bootstrap: dataset, embeddings, fit, store."""
        dataset = self._load_spec_dataset(spec)
        if spec.dataset is not None:
            from repro.datasets import build_domain_embeddings

            embeddings = build_domain_embeddings(spec.dataset, scale=spec.scale)
        else:
            embeddings = fallback_embeddings(dataset)
        matcher = build_system_matcher(spec.system, embeddings, spec.policy())
        store = None
        if isinstance(matcher, LeapmeMatcher):
            store = matcher.build_feature_store(dataset)
            matcher.attach_store(store)
        matcher.prepare(dataset)
        if matcher.is_supervised:
            rng = np.random.default_rng(spec.seed)
            # Under a blocking policy the tenant trains on the pruned
            # candidate universe -- the same pairs it will serve -- so
            # warm restarts stay bit-identical to this bootstrap.
            candidates = (
                store.universe.subset()
                if store is not None and store.universe.is_blocked
                else build_pairs(dataset)
            )
            training = sample_training_pairs(candidates, rng=rng)
            if not training.positives():
                raise ConfigurationError(
                    f"tenant {spec.tenant!r}: {spec.system} is supervised and "
                    "the bootstrap dataset has no positive training pairs; "
                    "provide an alignment"
                )
            matcher.fit(dataset, training)
        return TenantState(dataset=dataset, matcher=matcher)

    def create(self, spec: TenantSpec) -> Tenant:
        """Register and warm a tenant; journaled, quarantined on failure.

        The ``created`` record (spec + input fingerprint) lands before
        any bootstrap work, so a kill mid-bootstrap leaves a journal
        from which the restart re-runs the same deterministic bootstrap.
        A bootstrap that *fails* (poison spec) is journaled as a
        quarantined tenant -- the registry stays up, the client gets the
        error, healthy tenants are untouched.
        """
        with self._reload_lock:
            with self._lock:
                if spec.tenant in self._tenants:
                    raise DataError(f"tenant already exists: {spec.tenant}")
                created_order = len(self._tenants)
            self._journal(  # repro: noqa[REP014] durability before visibility: the record must be fsynced before the tenant is observable; serving never takes _reload_lock
                "record_created", spec.tenant, spec.to_record(),
                spec.input_fingerprint(),
            )
            self._maybe_fault("created")
            tenant = Tenant(spec=spec, created_order=created_order)
            try:
                state = self._bootstrap(spec)
            except ReproError as error:
                tenant.quarantine = TenantEvent(
                    spec.tenant,
                    TENANT_QUARANTINED,
                    reason=REASON_POISON_TENANT,
                    error_type=type(error).__name__,
                    error=str(error),
                )
                self._journal(  # repro: noqa[REP014] durability before visibility: the quarantine must be fsynced before the poisoned tenant is published; serving never takes _reload_lock
                    "record_quarantined", spec.tenant, REASON_POISON_TENANT,
                    error, 0,
                )
                with self._lock:
                    self._tenants[spec.tenant] = tenant
                raise
            tenant.state = state
            self._journal(  # repro: noqa[REP014] durability before visibility: bootstrap is journaled before the tenant serves; serving never takes _reload_lock
                "record_bootstrapped",
                spec.tenant,
                len(state.dataset.properties()),
                _state_pair_count(state),
            )
            flush_persistent_distances()
            self._maybe_fault("bootstrapped")
            with self._lock:
                self._tenants[spec.tenant] = tenant
            return tenant

    # -- copy-on-swap reload -------------------------------------------------
    def _state_with_source(
        self, state: TenantState, path: Path
    ) -> tuple[TenantState, int, int]:
        """A *new* state with ``path`` fused in; the old state untouched.

        Returns ``(state, properties_added, pairs_added)``.
        """
        addition = load_dataset_csv(path, alignment_sidecar(path), name=path.stem)
        if not addition.sources():
            raise DataError(f"no usable rows in {path}")
        overlap = set(addition.sources()) & set(state.dataset.sources())
        if overlap:
            raise DataError(
                f"sources already present in tenant dataset: {sorted(overlap)}"
            )
        matcher = state.matcher
        if isinstance(matcher, LeapmeMatcher) and matcher.store is not None:
            new_store, new_pairs = matcher.store.with_source(addition)
            new_matcher = matcher.with_store(new_store)
            merged = new_store.universe.dataset
            pairs_added = len(new_pairs)
        else:
            merged = state.dataset.merged_with(addition)
            # Shallow copy, then prepare: matchers rebind their
            # per-dataset state on prepare, so the old snapshot's
            # structures are never touched.
            new_matcher = copy.copy(matcher)
            new_matcher.prepare(merged)
            pairs_added = len(build_pairs(merged).pairs) - len(
                build_pairs(state.dataset).pairs
            )
        fingerprint = source_fingerprint(path)
        new_state = TenantState(
            dataset=merged,
            matcher=new_matcher,
            sources=state.sources + ((path.name, fingerprint),),
        )
        properties_added = len(merged.properties()) - len(
            state.dataset.properties()
        )
        return new_state, properties_added, pairs_added

    def add_source(self, tenant_id: str, path: str | Path) -> dict[str, int]:
        """Graceful reload: fuse a new source CSV into ``tenant_id``.

        The new state is fully built (and journaled) before the swap;
        in-flight requests keep serving the old state, and a process
        killed anywhere in between restarts into whichever side of the
        journal append it reached -- both sides byte-identical to a
        cold rebuild over the journal's record of events.
        """
        path = Path(path)
        tenant = self._require_live(tenant_id)
        with self._reload_lock:
            state = tenant.state
            new_state, addition_properties, new_pairs = self._state_with_source(
                state, path
            )
            self._maybe_fault("reload")
            order = tenant.reloads + 1
            self._journal(  # repro: noqa[REP014] durability before visibility: the reload is journaled before the swapped state is observable; serving never takes _reload_lock
                "record_source_added",
                tenant_id,
                str(path),
                new_state.sources[-1][1],
                order,
                addition_properties,
                new_pairs,
            )
            flush_persistent_distances()
            self._maybe_fault("source-added")
            tenant.reloads = order
            tenant.state = new_state
        return {
            "order": order,
            "properties": addition_properties,
            "pairs": new_pairs,
        }

    def remove(self, tenant_id: str) -> None:
        """Delete a tenant (journaled; a rebuild skips it)."""
        with self._reload_lock:
            with self._lock:
                if tenant_id not in self._tenants:
                    raise DataError(f"no such tenant: {tenant_id}")
                del self._tenants[tenant_id]
            self._journal("record_removed", tenant_id)  # repro: noqa[REP014] durability before visibility: removal is fsynced while admission still rejects the tenant; serving never takes _reload_lock
            self._maybe_fault("removed")

    # -- breaker -------------------------------------------------------------
    def record_success(self, tenant_id: str) -> None:
        with self._lock:
            tenant = self._tenants.get(tenant_id)
            if tenant is not None:
                tenant.failures = 0

    def record_failure(self, tenant_id: str, error: BaseException) -> bool:
        """Count one request failure; returns True when the breaker opened.

        ``breaker_threshold`` consecutive failures quarantine the
        tenant as a structured journal record.  The quarantine gates
        only this tenant: its slots drain, its requests get 503, and
        every other tenant keeps serving.

        Handler threads call this concurrently, so the counter moves
        only under ``_lock`` (the ``/statz`` failure totals are exact)
        and exactly the thread that lands on the threshold opens the
        breaker: it journals the quarantine *outside* the lock -- the
        fsynced append must not stall readers -- and then publishes the
        quarantine event with a second short hold.
        """
        with self._lock:
            tenant = self._tenants.get(tenant_id)
            if tenant is None or tenant.quarantined:
                return False
            tenant.failures += 1
            failures = tenant.failures
            if failures != self.breaker_threshold:
                return False
        event = TenantEvent(
            tenant_id,
            TENANT_QUARANTINED,
            reason=REASON_CIRCUIT_OPEN,
            error_type=type(error).__name__,
            error=str(error),
            failures=failures,
        )
        self._journal(
            "record_quarantined", tenant_id, REASON_CIRCUIT_OPEN, error,
            failures,
        )
        with self._lock:
            tenant.quarantine = event
        self._maybe_fault("quarantined")
        return True

    def _require_live(self, tenant_id: str) -> Tenant:
        tenant = self.get(tenant_id)
        if tenant is None:
            raise DataError(f"no such tenant: {tenant_id}")
        if tenant.quarantined:
            raise TenantQuarantinedError(
                f"tenant {tenant_id} is quarantined "
                f"({tenant.quarantine.reason}: {tenant.quarantine.error})",
                reason=tenant.quarantine.reason,
            )
        if tenant.state is None:
            raise DataError(f"tenant {tenant_id} is not warm yet")
        return tenant

    # -- request payloads ----------------------------------------------------
    def match_payload(self, tenant_id: str) -> dict:
        """The deterministic ``/match`` response body.

        The rows of the snapshot's scored candidate pairs
        (:meth:`TenantState.scored_pairs`, one forward pass per
        snapshot) at or above the tenant threshold -- exactly the
        content of ``repro match``'s CSV, as JSON.  Pure function of
        the snapshot, which is what the chaos suite's byte-identity
        assertions lean on.
        """
        tenant = self._require_live(tenant_id)
        state = tenant.state
        pairs, scores = state.scored_pairs()
        threshold = _tenant_threshold(tenant)
        matches = []
        for row in np.flatnonzero(scores >= threshold):
            pair = pairs[row]
            matches.append(
                [pair.left.source, pair.left.name,
                 pair.right.source, pair.right.name, f"{float(scores[row]):.4f}"]
            )
        payload = {
            "tenant": tenant_id,
            "pairs": len(pairs),
            "threshold": threshold,
            "matches": matches,
            "sources": [file for file, _ in state.sources],
        }
        if state.universe is not None and state.universe.is_blocked:
            # Only under a blocking policy: null-policy responses stay
            # byte-identical to the pre-blocking service.
            payload["blocking"] = state.universe.policy.label
        return payload

    def predict_payload(self, tenant_id: str, raw_pairs: list) -> dict:
        """The deterministic ``/predict`` response body for explicit pairs.

        ``raw_pairs`` is a list of ``[left_source, left_property,
        right_source, right_property]`` rows; unknown properties raise
        :class:`DataError` (a client error, not a tenant failure).
        Pairs in the snapshot's candidate universe are answered from
        its score vector (the row ``/match`` reports); the rest -- pairs
        a blocking policy pruned -- are scored on demand.
        """
        tenant = self._require_live(tenant_id)
        state = tenant.state
        refs = state.property_index()
        pairs: list[LabeledPair] = []
        for row in raw_pairs:
            if not isinstance(row, (list, tuple)) or len(row) != 4:
                raise DataError(
                    "each pair must be [left_source, left_property, "
                    "right_source, right_property]"
                )
            left = refs.get((str(row[0]), str(row[1])))
            right = refs.get((str(row[2]), str(row[3])))
            if left is None or right is None:
                missing = row[:2] if left is None else row[2:]
                raise DataError(f"unknown property: {list(missing)}")
            pairs.append(
                LabeledPair(left, right, state.dataset.is_match(left, right))
            )
        threshold = _tenant_threshold(tenant)
        scores = state.scores_of(pairs)
        return {
            "tenant": tenant_id,
            "threshold": threshold,
            "scores": [f"{float(score):.4f}" for score in scores],
            "decisions": [bool(score >= threshold) for score in scores],
        }

    def tenant_summaries(self) -> dict:
        """Per-tenant ``/statz`` section: status, sources, stage counters."""
        summaries: dict[str, dict] = {}
        for tenant in self.tenants():
            entry: dict = {
                "system": tenant.spec.system,
                "failures": tenant.failures,
            }
            if tenant.quarantined:
                entry["status"] = "quarantined"
                entry["reason"] = tenant.quarantine.reason
            elif tenant.state is None:
                entry["status"] = "warming"
            else:
                entry["status"] = "ready"
                state = tenant.state
                entry["properties"] = len(state.dataset.properties())
                entry["sources_added"] = len(state.sources)
                matcher = state.matcher
                if isinstance(matcher, LeapmeMatcher):
                    entry["stage_calls"] = dict(
                        sorted(matcher.pipeline.stage_calls.items())
                    )
                    if matcher.store is not None:
                        universe = matcher.store.universe
                        entry["blocking"] = universe.policy.label
                        entry["candidate_pairs"] = len(universe)
                        if universe.is_blocked:
                            stats = universe.blocking_stats()
                            entry["total_cross_pairs"] = stats["total_pairs"]
                            entry["reduction_ratio"] = round(
                                stats["reduction_ratio"], 4
                            )
            summaries[tenant.spec.tenant] = entry
        return summaries

    # -- warm restart --------------------------------------------------------
    def load(self) -> dict[str, int]:
        """Warm-restart from the journal; returns replay counts.

        Replays ``created`` specs (verifying input fingerprints against
        the files on disk, exactly as ingestion resume does) and then
        each tenant's ``source-added`` records in order, through the
        same deterministic bootstrap and delta paths that produced
        them.  Tenants whose latest status is ``quarantined`` are
        pinned quarantined without a rebuild; tenants that fail to
        rebuild (poison specs) are quarantined rather than taking the
        registry down.  Marks the registry loaded (the ``/readyz``
        gate) even when the journal is empty or absent.
        """
        replayed_tenants = replayed_sources = quarantined = 0
        if self.journal is not None:
            latest = self.journal.latest()
            for genesis, additions in self.journal.replay_plan():
                spec = TenantSpec.from_record(genesis.tenant, genesis.spec or {})
                last = latest[genesis.tenant]
                if last.status == TENANT_QUARANTINED:
                    with self._lock:
                        self._tenants[spec.tenant] = Tenant(
                            spec=spec,
                            quarantine=last,
                            failures=last.failures or 0,
                            created_order=len(self._tenants),
                        )
                    quarantined += 1
                    continue
                current = spec.input_fingerprint()
                if genesis.fingerprint is not None and current != genesis.fingerprint:
                    raise DataError(
                        f"cannot warm-restart tenant {spec.tenant!r}: its "
                        f"bootstrap inputs changed since creation (journal "
                        f"{genesis.fingerprint}, disk {current})"
                    )
                try:
                    tenant = self._replay_tenant(spec, additions)
                except ReproError as error:
                    tenant = Tenant(spec=spec)
                    tenant.quarantine = TenantEvent(
                        spec.tenant,
                        TENANT_QUARANTINED,
                        reason=REASON_POISON_TENANT,
                        error_type=type(error).__name__,
                        error=str(error),
                    )
                    self._journal(
                        "record_quarantined", spec.tenant,
                        REASON_POISON_TENANT, error, 0,
                    )
                    quarantined += 1
                with self._lock:
                    tenant.created_order = len(self._tenants)
                    self._tenants[spec.tenant] = tenant
                replayed_tenants += 1
                replayed_sources += len(additions)
        self.loaded = True
        return {
            "tenants": replayed_tenants,
            "sources": replayed_sources,
            "quarantined": quarantined,
        }

    def _replay_tenant(
        self, spec: TenantSpec, additions: list[TenantEvent]
    ) -> Tenant:
        tenant = Tenant(spec=spec)
        state = self._bootstrap(spec)
        for event in additions:
            path = Path(event.file)
            if not path.exists():
                raise DataError(
                    f"cannot warm-restart tenant {spec.tenant!r}: reloaded "
                    f"source {event.file} is missing"
                )
            current = source_fingerprint(path)
            if current != event.fingerprint:
                raise DataError(
                    f"cannot warm-restart tenant {spec.tenant!r}: {event.file} "
                    f"changed since it was fused (journal {event.fingerprint}, "
                    f"disk {current})"
                )
            state, _, _ = self._state_with_source(state, path)
            tenant.reloads = event.order or tenant.reloads + 1
        tenant.state = state
        return tenant
