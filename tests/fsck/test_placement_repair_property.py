"""Placement repair acts only on what the audit found, and loses nothing.

Property under test, over generated multi-provider layouts — full
copies on any providers (inside or outside a key's mirror set), up to
three generations of striped fragments with any fragment absent, at
home, misplaced or both, fragments under a mirrored class, malformed
fragment keys, a stray full copy of a striped key — and any set of dead providers short of all of them:

* every key repair deletes is one the pre-repair audit flagged as
  stale or orphan on that provider;
* every key repair writes belongs to a logical key the audit flagged as
  under-replicated on that provider;
* every logical key readable with all providers alive before the repair
  reads the same bytes after it, once the dead providers return;
* with every provider alive, one repair leaves only what stays
  report-only (fragment sets below k, disagreeing copies), and the pass
  after it takes no action.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.common.errors import CloudError, IntegrityError
from repro.fsck.placement import (
    FRAGMENT_ORPHAN,
    REPLICA_STALE,
    REPLICA_UNDERREPLICATED,
    audit_placement,
)
from repro.placement import build_placement
from repro.placement.fragments import (
    FRAGMENT_ROOT,
    encode_fragments,
    parse_fragment_key,
)
from repro.placement.survey import (
    DISAGREEING,
    INCOMPLETE,
    MISPLACED,
    MISSING,
    ORPHAN,
    STALE,
    survey_layout,
)

#: (providers, placement spec, stripe k)
SHAPES = [
    (3, "wal=mirror-2,db=stripe-2-3,default=mirror-2", 2),
    (4, "wal=mirror-2,db=stripe-3-4,default=mirror-3", 3),
]
MIRRORED = ["WAL/000000000001_seg_0", "WAL/000000000002_seg_0", "misc"]
STRIPED = ["DB/000000000001_dump_40.0.1.0", "DB/000000000002_dump_40.0.1.0"]
#: Where one fragment of one generation sits.
SPOTS = ["home", "home", "home", "absent", "elsewhere", "both"]


def payload(key: str, generation: int, length: int) -> bytes:
    seed = f"{key}:{generation}:".encode()
    return (seed * (length // len(seed) + 1))[:length]


@st.composite
def layouts(draw):
    providers, spec, k = draw(st.sampled_from(SHAPES))
    others = st.integers(1, providers - 1)
    held: list[dict[str, bytes]] = [{} for _ in range(providers)]
    for key in MIRRORED:
        holders = draw(st.frozensets(st.integers(0, providers - 1)))
        body = payload(key, 0, draw(st.integers(1, 30)))
        for p in holders:
            held[p][key] = body
    for key in STRIPED:
        for gen in range(1, draw(st.integers(0, 3)) + 1):
            data = payload(key, gen, draw(st.integers(1, 40)))
            frags = encode_fragments(key, data, generation=gen, k=k, n=k + 1)
            for frag, blob in frags:
                spot = draw(st.sampled_from(SPOTS))
                away = (frag.index + draw(others)) % providers
                places = {
                    "home": [frag.index], "absent": [],
                    "elsewhere": [away], "both": [frag.index, away],
                }[spot]
                for p in places:
                    held[p][frag.key] = blob
    if draw(st.booleans()):  # a fragment under a mirrored class
        [(frag, blob)] = encode_fragments(
            "WAL/000000000009_seg_0", b"lost" * 5, generation=1, k=2, n=3,
        )[:1]
        held[draw(st.integers(0, providers - 1))][frag.key] = blob
    if draw(st.booleans()):
        held[draw(st.integers(0, providers - 1))][FRAGMENT_ROOT + "junk"] = b"?"
    if draw(st.booleans()):  # a full copy of a stripe-placed key
        held[draw(st.integers(0, providers - 1))][STRIPED[0]] = b"stray"
    dead = draw(st.frozensets(
        st.integers(0, providers - 1), max_size=providers - 1
    ))
    return providers, spec, held, dead


def readable(store) -> dict[str, bytes]:
    out = {}
    for key in MIRRORED + STRIPED:
        try:
            out[key] = store.get(key)
        except (CloudError, IntegrityError):
            continue
    return out


def snapshot(store) -> list[dict[str, bytes]]:
    return [
        {info.key: p.backend.get(info.key) for info in p.backend.list()}
        for p in store.providers
    ]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(layouts())
def test_repair_acts_only_on_audit_findings_and_loses_nothing(layout):
    providers, spec, held, dead = layout
    store = build_placement(providers, spec)
    try:
        for provider, objects in zip(store.providers, held):
            for key, blob in objects.items():
                provider.backend.put(key, blob)
        before = readable(store)
        for p in dead:
            store.providers[p].kill()

        audit = audit_placement(store)
        findings = survey_layout(store).findings
        flagged = {(v.rule, v.key) for v in audit.violations}
        on = {(f.kind, f.provider, f.key) for f in findings}
        pre = snapshot(store)
        store.repair()
        post = snapshot(store)

        for provider, old, new in zip(store.providers, pre, post):
            name = provider.name
            for key in old.keys() - new.keys():
                assert any(
                    (kind, name, key) in on
                    for kind in (STALE, ORPHAN, MISPLACED)
                ), (name, key)
                assert (REPLICA_STALE, key) in flagged or (
                    FRAGMENT_ORPHAN, key
                ) in flagged, (name, key)
            for key in new:
                if old.get(key) == new[key]:
                    continue
                frag = parse_fragment_key(key)
                logical = key if frag is None else frag.logical
                assert (MISSING, name, logical) in on, (name, key)
                assert (REPLICA_UNDERREPLICATED, logical) in flagged

        for p in dead:
            store.providers[p].revive()
        after = readable(store)
        for key, data in before.items():
            assert after.get(key) == data, key

        store.repair()
        left = {f.kind for f in survey_layout(store).findings}
        assert left <= {INCOMPLETE, DISAGREEING}, left
        assert store.repair().actions == 0
    finally:
        store.close()
