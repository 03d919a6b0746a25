"""Multi-provider placement: mirroring and erasure striping of Ginja
objects across independent simulated clouds, with cost-optimal reads
and whole-provider outage survival (the paper's §6).

Import surface:

* :mod:`repro.placement.policy` — ``PlacementPolicy``/``parse_placement``
  (safe for :mod:`repro.core.config` to import; no core dependencies).
* :mod:`repro.placement.fragments` — fragment keys, headers, XOR codec.
* :mod:`repro.placement.providers` — per-provider transport stacks.
* :mod:`repro.placement.store` — the ``ObjectStore``-compatible
  :class:`PlacementStore`.
* :mod:`repro.placement.survey` — one LIST of every provider, classified:
  the findings the cross-provider audit reports and repair acts on.
* :mod:`repro.placement.factory` — :func:`build_placement` from config
  knobs.
"""

from repro.placement.factory import build_placement
from repro.placement.fragments import (
    FRAGMENT_ROOT,
    FragmentId,
    decode_fragment,
    encode_fragments,
    fragment_prefix,
    is_fragment_key,
    parse_fragment_key,
    reassemble,
)
from repro.placement.policy import (
    OBJECT_CLASSES,
    PlacementPolicy,
    parse_placement,
    policy_for,
)
from repro.placement.providers import (
    Provider,
    ProviderSpec,
    build_providers,
    default_provider_specs,
)
from repro.placement.store import PlacementStore, RepairReport

__all__ = [
    "FRAGMENT_ROOT",
    "FragmentId",
    "OBJECT_CLASSES",
    "PlacementPolicy",
    "PlacementStore",
    "Provider",
    "ProviderSpec",
    "RepairReport",
    "build_placement",
    "build_providers",
    "decode_fragment",
    "default_provider_specs",
    "encode_fragments",
    "fragment_prefix",
    "is_fragment_key",
    "parse_fragment_key",
    "parse_placement",
    "policy_for",
    "reassemble",
]
