"""`PlacementStore`: one logical bucket over N simulated providers.

Implements the :class:`~repro.cloud.interface.ObjectStore` verbs, so it
slots under the existing Tracing/Retry layers (and the fleet's
PrefixedObjectStore) exactly where a single cloud would sit.  Each verb
is translated per the object's :class:`~repro.placement.policy
.PlacementPolicy`:

* **mirror-N** — PUT fans out full copies to the first N providers in
  parallel and acks once ``write_quorum`` confirm; GET walks the
  replicas cheapest-first with automatic mid-read failover.
* **stripe-K-N** — PUT encodes K data + 1 parity fragment
  (:mod:`repro.placement.fragments`) and places fragment *i* on
  provider *i*; GET lists the fragment set, picks the newest generation
  with ≥K fragments reachable, fetches the K cheapest in parallel
  (failures promote the next candidate), and reassembles.

Read-source ranking is by (read dollars from the provider's price book,
observed GET latency from its metering layer, provider index) — the
cost-optimal source wins, latency breaks ties, and the index makes the
whole order deterministic.

The single-provider ``mirror-1`` configuration is a **fast path**: every
verb delegates straight to provider 0 with no thread-pool hop and no
byte copies, so placement-by-default costs nothing (the perf guard in
benchmarks pins this).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.common.errors import (
    CloudError,
    CloudObjectNotFound,
    CloudUnavailable,
    IntegrityError,
)
from repro.cloud.interface import ObjectInfo, ObjectStore
from repro.placement.fragments import (
    FRAGMENT_ROOT,
    decode_fragment,
    encode_fragments,
    fragment_prefix,
    is_fragment_key,
    parse_fragment_key,
    reassemble,
)
from repro.placement.policy import PlacementPolicy, policy_for
from repro.placement.providers import Provider
from repro.placement.survey import (
    DISAGREEING,
    MISPLACED,
    MISSING,
    ORPHAN,
    STALE,
    Finding,
    authoritative,
    group_fragments,
    survey_layout,
)


@dataclass
class RepairReport:
    """What one :meth:`PlacementStore.repair` pass did.

    Deletions are counted under the audit's names: ``stale_deleted``
    are generations older than the authoritative one, and
    ``orphans_deleted`` everything the audit calls an orphan —
    malformed keys, fragments of mirror-placed keys, newer generations
    that never completed, and misplaced fragments.
    """

    copies_restored: int = 0
    fragments_rebuilt: int = 0
    stale_deleted: int = 0
    orphans_deleted: int = 0
    #: Bytes read from each *source* provider to feed re-replication —
    #: this is the inter-provider egress the bill attributes.
    egress_bytes: dict[str, int] = field(default_factory=dict)

    @property
    def actions(self) -> int:
        return (self.copies_restored + self.fragments_rebuilt
                + self.stale_deleted + self.orphans_deleted)

    def summary(self) -> str:
        egress = sum(self.egress_bytes.values())
        return (
            f"repair: {self.copies_restored} copies restored, "
            f"{self.fragments_rebuilt} fragments rebuilt, "
            f"{self.stale_deleted} stale + {self.orphans_deleted} orphan "
            f"fragment(s) deleted, {egress} bytes repair egress"
        )


class PlacementStore(ObjectStore):
    """Policy-driven placement of Ginja objects across providers."""

    def __init__(
        self,
        providers: list[Provider],
        policies: dict[str, PlacementPolicy],
    ):
        if not providers:
            raise ValueError("PlacementStore needs at least one provider")
        for policy in policies.values():
            if policy.providers_used > len(providers):
                raise ValueError(
                    f"policy {policy.spec!r} needs {policy.providers_used} "
                    f"providers, have {len(providers)}"
                )
        self.providers = list(providers)
        self.policies = dict(policies)
        self._lock = threading.Lock()
        self.replica_errors: dict[str, int] = {p.name: 0 for p in providers}
        self.read_failovers = 0
        self.repair_egress_bytes: dict[str, int] = {}
        self._gens: dict[str, int] = {}
        self._gens_loaded = False
        self._closed = False
        # The fast path needs no pool at all; spare the threads.
        self._single = (
            len(providers) == 1
            and all(p.providers_used == 1 and not p.striped
                    for p in self.policies.values())
        )
        self._pool: ThreadPoolExecutor | None = None
        if not self._single:
            self._pool = ThreadPoolExecutor(
                max_workers=max(2, len(providers)),
                thread_name_prefix="placement",
            )

    # -- plumbing -------------------------------------------------------------

    def policy_of(self, key: str) -> PlacementPolicy:
        return policy_for(self.policies, key)

    def _check_open(self) -> None:
        if self._closed:
            raise CloudUnavailable(
                "placement store is closed (the stack that owned it was "
                "stopped or crashed; clone() builds a standby-side store "
                "over the same providers)"
            )

    def _fanout(self, calls: list) -> list:
        """Run thunks in parallel on the pool; returns per-call results
        as ``(value, error)`` pairs in input order."""
        assert self._pool is not None
        self._check_open()
        futures: list[Future] = [self._pool.submit(call) for call in calls]
        results = []
        for future in futures:
            try:
                results.append((future.result(), None))
            except (CloudError, IntegrityError) as exc:
                # A corrupt fragment (IntegrityError from decode) is a
                # failed read source, same as an unreachable provider.
                results.append((None, exc))
        return results

    def _count_error(self, provider: Provider) -> None:
        with self._lock:
            self.replica_errors[provider.name] = (
                self.replica_errors.get(provider.name, 0) + 1
            )

    def _ranked(self, providers: list[Provider], nbytes: int) -> list[Provider]:
        """Cheapest-first read order: dollars, then observed latency,
        then index (deterministic)."""
        order = sorted(
            range(len(providers)),
            key=lambda i: (
                providers[i].read_cost(nbytes),
                providers[i].observed_get_latency(nbytes),
                i,
            ),
        )
        return [providers[i] for i in order]

    # -- generation tracking ---------------------------------------------------

    def _load_generations(self) -> None:
        """One ``frag/`` LIST per reachable provider seeds the generation
        map, so striping over a pre-existing bucket continues past the
        highest generation already stored (unreachable providers are
        skipped; their fragments can only hold generations a survivor
        also saw or that repair will supersede)."""
        for provider in self.providers:
            try:
                infos = provider.store.list(FRAGMENT_ROOT)
            except CloudError:
                continue
            for info in infos:
                frag = parse_fragment_key(info.key)
                if frag is None:
                    continue
                if frag.generation > self._gens.get(frag.logical, 0):
                    self._gens[frag.logical] = frag.generation
        self._gens_loaded = True

    def _next_generation(self, logical: str) -> int:
        with self._lock:
            if not self._gens_loaded:
                self._load_generations()
            gen = self._gens.get(logical, 0) + 1
            self._gens[logical] = gen
            return gen

    # -- PUT -------------------------------------------------------------------

    def put(self, key: str, data: bytes) -> None:
        self._check_open()
        policy = self.policy_of(key)
        if self._single:
            self.providers[0].store.put(key, data)
            return
        if policy.striped:
            self._put_striped(key, data, policy)
        else:
            self._put_mirrored(key, data, policy)

    def _put_mirrored(
        self, key: str, data: bytes, policy: PlacementPolicy
    ) -> None:
        targets = self.providers[:policy.replicas]
        if len(targets) == 1:
            targets[0].store.put(key, data)
            return
        results = self._fanout(
            [lambda p=p: p.store.put(key, data) for p in targets]
        )
        confirmed, last_error = 0, None
        for provider, (_, error) in zip(targets, results):
            if error is None:
                confirmed += 1
            else:
                last_error = error
                self._count_error(provider)
        if confirmed < policy.effective_quorum:
            raise last_error  # type: ignore[misc]

    def _put_striped(
        self, key: str, data: bytes, policy: PlacementPolicy
    ) -> None:
        generation = self._next_generation(key)
        frags = encode_fragments(
            key, data, generation=generation, k=policy.k, n=policy.n
        )
        targets = self.providers[:policy.n]
        results = self._fanout([
            lambda p=p, f=f: p.store.put(f[0].key, f[1])
            for p, f in zip(targets, frags)
        ])
        confirmed, last_error = 0, None
        for provider, (_, error) in zip(targets, results):
            if error is None:
                confirmed += 1
            else:
                last_error = error
                self._count_error(provider)
        if confirmed < policy.effective_quorum:
            raise last_error  # type: ignore[misc]
        # Best-effort GC of the overwritten generation: a fragment that
        # survives here is stale, which fsck flags and repair deletes.
        if generation > 1:
            prefix = fragment_prefix(key)
            for provider in targets:
                try:
                    provider.store.delete_many([
                        info.key for info in provider.store.list(prefix)
                        if (frag := parse_fragment_key(info.key)) is not None
                        and frag.generation < generation
                    ])
                except CloudError:
                    continue

    # -- GET -------------------------------------------------------------------

    def get(self, key: str) -> bytes:
        self._check_open()
        policy = self.policy_of(key)
        if self._single:
            return self.providers[0].store.get(key)
        if policy.striped:
            return self._get_striped(key, policy)
        return self._get_mirrored(key, policy)

    def _get_mirrored(self, key: str, policy: PlacementPolicy) -> bytes:
        replicas = self.providers[:policy.replicas]
        # Rank by the policy's typical object size proxy: unknown until
        # read, so rank with 0 bytes (per-GB egress then separates books
        # only via the flat GET price + observed latency).
        last_error: CloudError | None = None
        for attempt, provider in enumerate(self._ranked(replicas, 0)):
            try:
                return provider.store.get(key)
            except CloudError as exc:
                last_error = exc
                if attempt + 1 < len(replicas):
                    with self._lock:
                        self.read_failovers += 1
                if not isinstance(exc, CloudObjectNotFound):
                    self._count_error(provider)
        assert last_error is not None
        raise last_error

    def _get_striped(self, key: str, policy: PlacementPolicy) -> bytes:
        prefix = fragment_prefix(key)
        listings = self._fanout(
            [lambda p=p: p.store.list(prefix) for p in self.providers]
        )
        gens = group_fragments(
            (provider, [info.key for info in infos])
            for provider, (infos, error) in zip(self.providers, listings)
            if error is None
        ).get(key, {})
        generation = authoritative(gens, policy)
        if generation is None:
            unreachable = sum(1 for _, error in listings if error is not None)
            if unreachable:
                # Fragments may exist on the providers we couldn't LIST:
                # an outage, not corruption.
                raise CloudUnavailable(
                    f"{key!r}: no generation has {policy.k} reachable "
                    f"fragments with {unreachable} provider(s) unreachable"
                )
            if gens:
                raise IntegrityError(
                    f"{key!r}: no generation has {policy.k} reachable "
                    f"fragments (have {sorted(gens)})"
                )
            raise CloudObjectNotFound(key)
        available = {
            index: holders[0] for index, holders in gens[generation].items()
        }
        size = next(iter(available.values()))[1].size
        # Cheapest-first fragment candidates; fetch the first k in
        # parallel, promote the next candidate when a fetch fails.
        ranked_providers = self._ranked(
            [p for p, _ in available.values()], size // max(1, policy.k)
        )
        rank = {p.name: i for i, p in enumerate(ranked_providers)}
        candidates = sorted(
            available.items(), key=lambda item: rank[item[1][0].name]
        )
        chosen = candidates[:policy.k]
        backups = candidates[policy.k:]
        bodies: dict[int, bytes] = {}
        while True:
            results = self._fanout([
                lambda p=p, f=f: decode_fragment(f, p.store.get(f.key))
                for _, (p, f) in chosen
            ])
            failed = []
            for (index, (provider, _)), (body, error) in zip(chosen, results):
                if error is None:
                    bodies[index] = body
                else:
                    self._count_error(provider)
                    failed.append(index)
            if not failed:
                break
            with self._lock:
                self.read_failovers += len(failed)
            if len(backups) < len(failed):
                raise IntegrityError(
                    f"{key!r}: generation {generation} lost fragments "
                    f"{failed} mid-read with no spares left"
                )
            chosen, backups = backups[:len(failed)], backups[len(failed):]
        return reassemble(bodies, k=policy.k, n=policy.n, size=size)

    # -- LIST ------------------------------------------------------------------

    def list(self, prefix: str = "") -> list[ObjectInfo]:
        """The merged *logical* view: mirrored objects first-seen across
        providers, striped objects reported once with their logical size
        (from the fragment keys — no GETs).  A provider that is down is
        simply skipped; the listing fails only when every provider does,
        so recovery plans and fsck verdicts on survivors are unchanged
        by a partial outage."""
        if self._single:
            return [
                info for info in self.providers[0].store.list(prefix)
                if not is_fragment_key(info.key)
            ]
        calls = []
        for provider in self.providers:
            calls.append(lambda p=provider: p.store.list(prefix))
            calls.append(
                lambda p=provider: p.store.list(FRAGMENT_ROOT + prefix)
            )
        results = self._fanout(calls)
        merged: dict[str, int] = {}
        listings = []
        responses, last_error = 0, None
        for provider, i in zip(self.providers, range(0, len(results), 2)):
            raw, raw_err = results[i]
            frag_list, frag_err = results[i + 1]
            if raw_err is not None or frag_err is not None:
                last_error = raw_err or frag_err
                continue
            responses += 1
            for info in raw:
                if is_fragment_key(info.key):
                    continue
                merged.setdefault(info.key, info.size)
            listings.append((provider, [info.key for info in frag_list]))
        if responses == 0 and last_error is not None:
            raise last_error
        for logical, gens in group_fragments(listings).items():
            gen = authoritative(gens, self.policy_of(logical))
            if gen is not None and logical.startswith(prefix):
                holders = next(iter(gens[gen].values()))
                merged.setdefault(logical, holders[0][1].size)
        return [
            ObjectInfo(key=key, size=size)
            for key, size in sorted(merged.items())
        ]

    # -- DELETE ----------------------------------------------------------------

    def _delete_request(self, keys: list[str]) -> None:
        """One logical batch DELETE is one provider request per replica
        for the mirrored keys and one per fragment provider for the
        striped ones (behind one fragment LIST on that provider), all
        providers in parallel.

        A copy left on a dead provider is stale-on-revival; fsck's
        repair removes it.  Only a total failure propagates: when every
        provider some key lives on failed, that key still exists
        everywhere and the caller must not assume it gone.
        """
        if self._single:
            self.providers[0].store.delete_many(keys)
            return
        # Keys that share a placement share their targets and their
        # verdict: (striped, providers used) -> keys.
        groups: dict[tuple[bool, int], list[str]] = {}
        for key in keys:
            policy = self.policy_of(key)
            groups.setdefault(
                (policy.striped, policy.providers_used), []
            ).append(key)
        width = max(used for _, used in groups)
        targets = self.providers[:width]

        def wipe(index: int, provider: Provider) -> None:
            doomed: list[str] = []
            striped_here: set[str] = set()
            for (striped, used), members in groups.items():
                if index >= used:
                    continue
                if striped:
                    striped_here.update(members)
                else:
                    doomed.extend(members)
            if striped_here:
                # One LIST, narrowed to what the fragment prefixes have
                # in common (one key: exactly its own fragments).
                prefix = os.path.commonprefix(
                    [fragment_prefix(key) for key in striped_here]
                )
                doomed.extend(
                    info.key for info in provider.store.list(prefix)
                    if (frag := parse_fragment_key(info.key)) is not None
                    and frag.logical in striped_here
                )
            provider.store.delete_many(doomed)

        results = self._fanout(
            [lambda i=i, p=p: wipe(i, p) for i, p in enumerate(targets)]
        )
        errors = [error for _, error in results]
        for provider, error in zip(targets, errors):
            if error is not None:
                self._count_error(provider)
        with self._lock:
            for (striped, _), members in groups.items():
                if striped:
                    for key in members:
                        self._gens.pop(key, None)
        for _, used in groups:
            if all(error is not None for error in errors[:used]):
                raise errors[used - 1]

    # -- health / quorum -------------------------------------------------------

    def read_quorum_ok(self) -> bool:
        """True when every configured policy can still serve reads from
        the currently-alive providers — the gate failover promotion
        checks before attempting recovery."""
        for policy in self.policies.values():
            subset = self.providers[:policy.providers_used]
            alive = sum(1 for p in subset if p.alive)
            needed = policy.k if policy.striped else 1
            if alive < needed:
                return False
        return True

    # -- repair ----------------------------------------------------------------

    def repair(self) -> RepairReport:
        """Act on one :func:`~repro.placement.survey.survey_layout` of the
        providers, restoring before deleting:

        1. missing mirror copies are restored from the cheapest holder and
           missing fragments rebuilt from any k of the authoritative
           generation, misplaced fragments included;
        2. then stale and orphan fragments are deleted, and a misplaced
           one once its own provider holds it.

        A key with no complete reachable generation, a mirrored key whose
        copies disagree and a newer generation an unreachable provider
        may still complete are left as the audit reports them, and
        unreachable providers for the next pass."""
        survey = survey_layout(self)
        report = RepairReport()
        by_name = {p.name: p for p in self.providers}
        disputed = {f.key for f in survey.of_kind(DISAGREEING)}
        targets: dict[str, list[Provider]] = {}
        for finding in survey.of_kind(MISSING):
            targets.setdefault(finding.key, []).append(
                by_name[finding.provider]
            )
        for key, missing in targets.items():
            if key in survey.best:
                puts = self._rebuilt_fragments(key, survey, missing, report)
            elif key not in disputed:
                puts = self._copies(key, survey.copies[key], missing, report)
            else:
                continue
            for target, physical, payload in puts:
                try:
                    target.store.put(physical, payload)
                except CloudError:
                    self._count_error(target)
                    continue
                survey.held.add((target.name, physical))
                if physical == key:
                    report.copies_restored += 1
                else:
                    report.fragments_rebuilt += 1

        doomed: dict[str, list[Finding]] = {}
        for finding in survey.of_kind(STALE, ORPHAN, MISPLACED):
            if finding.kind == MISPLACED:
                index = parse_fragment_key(finding.key).index
                if index >= len(self.providers) or (
                    self.providers[index].name, finding.key
                ) not in survey.held:
                    continue
            doomed.setdefault(finding.provider, []).append(finding)
        for name, findings in doomed.items():
            try:
                by_name[name].store.delete_many([f.key for f in findings])
            except CloudError:
                self._count_error(by_name[name])
                continue
            stale = sum(1 for f in findings if f.kind == STALE)
            report.stale_deleted += stale
            report.orphans_deleted += len(findings) - stale
        with self._lock:
            for name, nbytes in report.egress_bytes.items():
                self.repair_egress_bytes[name] = (
                    self.repair_egress_bytes.get(name, 0) + nbytes
                )
        return report

    def _fetch(
        self, provider: Provider, key: str, report: RepairReport
    ) -> bytes | None:
        """GET one repair source, billing its egress to ``provider``."""
        try:
            blob = provider.store.get(key)
        except CloudError:
            return None
        report.egress_bytes[provider.name] = (
            report.egress_bytes.get(provider.name, 0) + len(blob)
        )
        return blob

    def _copies(self, key, sizes, missing, report) -> list:
        """``(target, key, body)`` for each missing mirror copy, read from
        the cheapest holder that answers."""
        holders = [p for p in self.providers if p.name in sizes]
        for source in self._ranked(holders, sizes[holders[0].name]):
            data = self._fetch(source, key, report)
            if data is not None:
                return [(target, key, data) for target in missing]
        return []

    def _rebuilt_fragments(self, logical, survey, missing, report) -> list:
        """``(target, fragment key, payload)`` for each missing fragment of
        the authoritative generation, re-encoded from any k it has."""
        policy = self.policy_of(logical)
        generation = survey.best[logical]
        candidates = [
            (index, provider, frag)
            for index, holders in sorted(
                survey.stripes[logical][generation].items()
            )
            for provider, frag in holders
        ]
        bodies: dict[int, bytes] = {}
        for index, provider, frag in candidates:
            if len(bodies) == policy.k:
                break
            if index in bodies:
                continue
            blob = self._fetch(provider, frag.key, report)
            if blob is None:
                continue
            try:
                bodies[index] = decode_fragment(frag, blob)
            except IntegrityError:
                continue
        try:
            data = reassemble(
                bodies, k=policy.k, n=policy.n, size=candidates[0][2].size
            )
        except IntegrityError:
            return []
        homes = {self.providers.index(target): target for target in missing}
        return [
            (homes[frag.index], frag.key, payload)
            for frag, payload in encode_fragments(
                logical, data, generation=generation, k=policy.k, n=policy.n
            )
            if frag.index in homes
        ]

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut the fan-out pool down.  Idempotent; safe after crash."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def clone(self) -> "PlacementStore":
        """A fresh store over the *same* providers and policies — the
        standby side of a disaster: the primary's store died with its
        process (``close()``), the provider buckets did not."""
        return PlacementStore(self.providers, self.policies)
