"""Placement policies: how one object class maps onto the providers.

Two families (§6 of the paper plus the Taurus-style per-class choice):

* ``mirror-N`` — full copies on the first N providers, durable once
  ``write_quorum`` confirm (default: all N, so a clean run is always
  fully replicated; chaos drills lower it to ride out a dead provider);
* ``stripe-K-N`` — XOR erasure striping, K data + one parity fragment
  (N must be K+1), durable once ``write_quorum`` fragments confirm
  (default K: the object stays recoverable through the loss of every
  unconfirmed fragment's provider, at 1/K-th the byte overhead of a
  second full mirror).

A spec string selects policies from config/CLI: a bare policy
(``mirror-2``, ``stripe-2-3``) applies to every object class, or a
comma list assigns per-class policies by key prefix —
``wal=mirror-2,db=stripe-2-3`` (classes: ``wal``, ``db``, ``default``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError

#: Object classes a policy can be scoped to, with their key prefixes.
OBJECT_CLASSES: dict[str, str] = {
    "wal": "WAL/",
    "db": "DB/",
    "default": "",
}


@dataclass(frozen=True)
class PlacementPolicy:
    """One object class's redundancy scheme over the provider set."""

    mode: str  # "mirror" | "stripe"
    replicas: int = 1     # mirror copies (mirror mode)
    k: int = 0            # data fragments (stripe mode)
    n: int = 0            # total fragments (stripe mode)
    write_quorum: int = 0  # 0 = the mode's default

    def __post_init__(self) -> None:
        if self.mode == "mirror":
            if self.replicas < 1:
                raise ConfigError("mirror needs at least one replica")
            quorum = self.write_quorum or self.replicas
            if not 1 <= quorum <= self.replicas:
                raise ConfigError(
                    f"mirror write_quorum must be in [1, {self.replicas}]"
                )
        elif self.mode == "stripe":
            if self.k < 2:
                raise ConfigError("stripe needs k >= 2 data fragments")
            if self.n != self.k + 1:
                raise ConfigError(
                    "XOR striping supports exactly one parity fragment "
                    f"(n == k + 1); got k={self.k}, n={self.n}"
                )
            quorum = self.write_quorum or self.k
            if not self.k <= quorum <= self.n:
                raise ConfigError(
                    f"stripe write_quorum must be in [{self.k}, {self.n}]"
                )
        else:
            raise ConfigError(f"unknown placement mode {self.mode!r}")

    @property
    def striped(self) -> bool:
        return self.mode == "stripe"

    @property
    def providers_used(self) -> int:
        """Distinct providers this policy writes to."""
        return self.n if self.striped else self.replicas

    @property
    def effective_quorum(self) -> int:
        if self.write_quorum:
            return self.write_quorum
        return self.k if self.striped else self.replicas

    @property
    def spec(self) -> str:
        if self.striped:
            base = f"stripe-{self.k}-{self.n}"
        else:
            base = f"mirror-{self.replicas}"
        if self.write_quorum and self.write_quorum != (
            self.k if self.striped else self.replicas
        ):
            base += f"/q{self.write_quorum}"
        return base

    #: Storage bytes written per logical byte (the durability overhead
    #: the cost tables compare).
    @property
    def storage_overhead(self) -> float:
        return float(self.replicas) if not self.striped else self.n / self.k


#: The trivial single-provider policy (zero-overhead fast path).
SINGLE = PlacementPolicy(mode="mirror", replicas=1)


def _parse_one(token: str) -> PlacementPolicy:
    """Parse ``mirror-N``, ``stripe-K-N``, optionally ``/qW``."""
    spec, _, quorum_s = token.partition("/")
    quorum = 0
    if quorum_s:
        if not quorum_s.startswith("q"):
            raise ConfigError(f"bad placement quorum suffix in {token!r}")
        try:
            quorum = int(quorum_s[1:])
        except ValueError:
            raise ConfigError(f"bad placement quorum in {token!r}") from None
    parts = spec.split("-")
    try:
        if parts[0] == "mirror" and len(parts) == 2:
            return PlacementPolicy(
                mode="mirror", replicas=int(parts[1]), write_quorum=quorum
            )
        if parts[0] == "stripe" and len(parts) == 3:
            return PlacementPolicy(
                mode="stripe", k=int(parts[1]), n=int(parts[2]),
                write_quorum=quorum,
            )
    except ValueError:
        raise ConfigError(f"malformed placement spec {token!r}") from None
    raise ConfigError(
        f"malformed placement spec {token!r} "
        "(want mirror-N or stripe-K-N, optionally /qW)"
    )


def parse_placement(spec: str, providers: int) -> dict[str, PlacementPolicy]:
    """Parse a placement spec string into per-class policies.

    Returns ``{key_prefix: policy}`` with ``""`` always present as the
    default class.  Every policy is validated against the provider
    count (a policy cannot use more providers than exist).
    """
    spec = spec.strip()
    if not spec:
        raise ConfigError("empty placement spec")
    policies: dict[str, PlacementPolicy] = {}
    if "=" in spec:
        for item in spec.split(","):
            name, _, token = item.strip().partition("=")
            if name not in OBJECT_CLASSES or not token:
                raise ConfigError(
                    f"bad placement class assignment {item!r} "
                    f"(classes: {', '.join(OBJECT_CLASSES)})"
                )
            prefix = OBJECT_CLASSES[name]
            if prefix in policies:
                raise ConfigError(f"duplicate placement class {name!r}")
            policies[prefix] = _parse_one(token)
        policies.setdefault("", SINGLE)
    else:
        policies[""] = _parse_one(spec)
    for prefix, policy in policies.items():
        if policy.providers_used > providers:
            raise ConfigError(
                f"placement {policy.spec!r} needs {policy.providers_used} "
                f"providers but only {providers} are configured"
            )
    return policies


def policy_for(policies: dict[str, PlacementPolicy], key: str) -> PlacementPolicy:
    """The policy governing ``key``: longest matching class prefix wins.

    Fleet-qualified keys (``tenants/<id>/WAL/...``) match their object
    class by the suffix after the tenant prefix.
    """
    from repro.cloud.prefix import TENANT_ROOT, tenant_of_key, tenant_prefix

    logical = key
    if key.startswith(TENANT_ROOT):
        tenant = tenant_of_key(key)
        if tenant is not None:
            logical = key[len(tenant_prefix(tenant)):]
    best = policies[""]
    best_len = -1
    for prefix, policy in policies.items():
        if prefix and logical.startswith(prefix) and len(prefix) > best_len:
            best, best_len = policy, len(prefix)
    return best
