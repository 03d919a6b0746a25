"""One reading of a multi-provider layout.

:func:`survey_layout` LISTs every provider once and returns what it
found: which providers answered, the full copies and fragments each
holds, the authoritative generation of every striped key, and one
:class:`Finding` per departure from the placement policies.  The
cross-provider audit (:mod:`repro.fsck.placement`) reports the findings
and :meth:`~repro.placement.store.PlacementStore.repair` acts on them,
so the two cannot disagree about what is stale, orphaned or missing.
An unreachable provider is never found missing anything: a dead
provider is an availability event, not a violation.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import CloudError
from repro.placement.fragments import (
    FragmentId,
    is_fragment_key,
    parse_fragment_key,
)
from repro.placement.policy import PlacementPolicy

if TYPE_CHECKING:
    from repro.placement.providers import Provider
    from repro.placement.store import PlacementStore

#: A reachable provider of a key's policy set lacks its copy, or its
#: fragment of the authoritative generation, that others still hold.
MISSING = "missing"
#: A fragment of a generation older than the authoritative one.
STALE = "stale"
#: A fragment nothing can read: malformed key, mirror-placed logical key,
#: or a newer generation that never completed on any provider.
ORPHAN = "orphan"
#: A newer generation that never completed while a provider did not
#: answer: the rest of it may sit there, so it is no orphan yet.
UNFINISHED = "unfinished"
#: A fragment of the authoritative generation off its index's provider.
MISPLACED = "misplaced"
#: No generation of a striped key has k fragments reachable.
INCOMPLETE = "incomplete"
#: Full copies of a key differ in size, or a stripe-placed key has any.
DISAGREEING = "disagreeing"

#: generation -> fragment index -> holders ``(provider, fragment)``, in
#: provider order.
Generations = dict[int, dict[int, list[tuple["Provider", FragmentId]]]]


def group_fragments(
    listings: Iterable[tuple["Provider", Iterable[str]]],
) -> dict[str, Generations]:
    """Group the fragment keys each provider listed by logical key,
    generation and index.  Keys that do not parse are left out."""
    grouped: dict[str, Generations] = {}
    for provider, keys in listings:
        for key in keys:
            frag = parse_fragment_key(key)
            if frag is not None:
                grouped.setdefault(frag.logical, {}).setdefault(
                    frag.generation, {}
                ).setdefault(frag.index, []).append((provider, frag))
    return grouped


def authoritative(
    generations: Generations, policy: PlacementPolicy
) -> int | None:
    """The generation a read serves: the newest with at least k distinct
    fragments reachable.  ``None`` when none has, or when the key's
    policy does not stripe it (its fragments are then orphans)."""
    if not policy.striped:
        return None
    return max(
        (gen for gen, idxs in generations.items() if len(idxs) >= policy.k),
        default=None,
    )


@dataclass(frozen=True)
class Finding:
    """One departure from the placement policies."""

    kind: str
    #: The fragment key for stale/orphan/unfinished/misplaced, the
    #: logical key otherwise.
    key: str
    #: The provider holding the fragment, or missing the copy; ``""``
    #: for the key-wide kinds (incomplete, disagreeing).
    provider: str
    detail: str


@dataclass
class Survey:
    """What one LIST of every provider found."""

    #: name -> answered the LIST.
    reachable: dict[str, bool] = field(default_factory=dict)
    #: (provider name, key) for every object a reachable provider holds.
    held: set[tuple[str, str]] = field(default_factory=set)
    #: full-copy key -> {holder name: size}, holders in provider order.
    copies: dict[str, dict[str, int]] = field(default_factory=dict)
    #: logical key -> its reachable fragments.
    stripes: dict[str, Generations] = field(default_factory=dict)
    #: striped key -> its authoritative generation, where it has one.
    best: dict[str, int] = field(default_factory=dict)
    #: Ordered by (kind, key, provider, detail).
    findings: list[Finding] = field(default_factory=list)

    def of_kind(self, *kinds: str) -> list[Finding]:
        return [f for f in self.findings if f.kind in kinds]


def survey_layout(store: "PlacementStore") -> Survey:
    """LIST every provider of ``store`` once and classify what it holds."""
    survey = Survey()
    listings = []
    for provider in store.providers:
        try:
            infos = provider.store.list("")
        except CloudError:
            survey.reachable[provider.name] = False
            continue
        survey.reachable[provider.name] = True
        fragment_keys = []
        for info in infos:
            survey.held.add((provider.name, info.key))
            if not is_fragment_key(info.key):
                survey.copies.setdefault(info.key, {})[provider.name] = info.size
            elif parse_fragment_key(info.key) is None:
                survey.findings.append(Finding(
                    ORPHAN, info.key, provider.name,
                    f"malformed fragment key on {provider.name}",
                ))
            else:
                fragment_keys.append(info.key)
        listings.append((provider, fragment_keys))
    survey.stripes = group_fragments(listings)
    order = [p.name for p in store.providers]
    _classify_copies(store, survey, order)
    _classify_fragments(store, survey, order)
    survey.findings.sort(key=lambda f: (f.kind, f.key, f.provider, f.detail))
    return survey


def _classify_copies(store, survey: Survey, order: list[str]) -> None:
    add = survey.findings.append
    for key, sizes in sorted(survey.copies.items()):
        policy = store.policy_of(key)
        if policy.striped:
            # Some earlier policy (or a bug) mirrored it: harmless for
            # reads, but physical layout and policy disagree.
            add(Finding(
                DISAGREEING, key, "",
                f"policy is {policy.spec} but full copies exist on "
                f"{', '.join(sizes)}",
            ))
            continue
        if len(set(sizes.values())) > 1:
            detail = ", ".join(f"{n}={s}" for n, s in sorted(sizes.items()))
            add(Finding(
                DISAGREEING, key, "", f"replica sizes differ: {detail}"
            ))
        for name in order[:policy.replicas]:
            if survey.reachable.get(name) and name not in sizes:
                add(Finding(
                    MISSING, key, name,
                    f"missing on reachable provider {name} "
                    f"(held by {', '.join(sorted(sizes))})",
                ))


def _classify_fragments(store, survey: Survey, order: list[str]) -> None:
    add = survey.findings.append
    everyone = all(survey.reachable.values())
    for logical, gens in sorted(survey.stripes.items()):
        policy = store.policy_of(logical)
        best = authoritative(gens, policy)
        if best is None and policy.striped:
            have = {gen: len(idxs) for gen, idxs in sorted(gens.items())}
            add(Finding(
                INCOMPLETE, logical, "",
                f"no generation has {policy.k} reachable fragments "
                f"(found {have})",
            ))
            continue
        for gen, idxs in sorted(gens.items()):
            for index, holders in sorted(idxs.items()):
                names = [p.name for p, _ in holders]
                home = order[index] if index < len(order) else None
                for name, (_, frag) in zip(names, holders):
                    if best is None:
                        kind, detail = ORPHAN, (
                            f"policy for {logical!r} is {policy.spec}, "
                            f"fragment on {', '.join(sorted(names))}"
                        )
                    elif gen < best:
                        kind = STALE
                        detail = f"generation {gen} superseded by {best}"
                    elif gen > best:
                        kind = ORPHAN if everyone else UNFINISHED
                        detail = (
                            f"generation {gen} never completed "
                            f"(best is {best})"
                        )
                    elif name != home:
                        kind = MISPLACED
                        detail = f"fragment {index} on {name}, belongs on {home}"
                    else:
                        continue
                    add(Finding(kind, frag.key, name, detail))
        if best is None:
            continue
        survey.best[logical] = best
        for index, name in enumerate(order[:policy.n]):
            holders = {p.name for p, _ in gens[best].get(index, [])}
            if survey.reachable.get(name) and name not in holders:
                add(Finding(
                    MISSING, logical, name,
                    f"fragment {index} of generation {best} missing on "
                    f"reachable provider {name}",
                ))
