"""Microbenchmarks: pipeline throughput, codec bandwidth, replay.

Every benchmark runs twice — a **baseline** series that reproduces the
pre-optimization implementation (the legacy copy-chain codec and
list-join payload framing) and an **optimized** series on the shipped
code (zero-copy assembly).  Committing both series makes the report
self-describing: the regression signal is the per-benchmark ratio, which
is far more stable across machines than absolute MB/s.

Notes on machines: the parallel-encode win only exists with >1 CPU
(zlib/AES/HMAC release the GIL, but one core can still only run one of
them at a time).  The worker that plans a batch encodes it, so there is
no hand-off to lose on one core: the submit→unlock benchmarks carry a
``floor_1cpu`` of 1.0 — on a 1-CPU runner the shipped pipeline must
never lose to the baseline, no parallel-flag exemption.  The report
records the CPU count so readers (and the CI band check) can interpret
the multi-core ratios.
"""

from __future__ import annotations

import contextlib
import hashlib
import hmac
import json
import os
import platform
import random
import statistics
import time
import zlib

from repro.cloud.latency import LatencyModel
from repro.cloud.memory import InMemoryObjectStore
from repro.cloud.simulated import SimulatedCloud
from repro.cloud.transport import build_transport
from repro.common.serialize import pack_bytes, pack_u32, pack_u64
from repro.core.bootstrap import recover_files
from repro.core.cloud_view import CloudView
from repro.core.codec import ObjectCodec, _MAC_BYTES
from repro.core.commit_pipeline import CommitPipeline
from repro.core.config import GinjaConfig
from repro.core.data_model import (
    DBObjectMeta,
    DUMP,
    WALObjectMeta,
    decode_wal_payload,
    encode_dump_payload,
    encode_wal_payload,
)
from repro.harness import running_pools
from repro.storage.memory import MemoryFileSystem

SCHEMA = "ginja-perf-v1"
PASSWORD = "bench-password"

# ---------------------------------------------------------------------------
# Baseline replicas (the pre-optimization implementations, kept verbatim
# so the baseline series measures the CPU profile this PR replaced).


class LegacyCodec(ObjectCodec):
    """The old copy-chain encoder/decoder: ``head + body`` then
    ``signed + mac`` concatenations on encode, ``bytes`` slices on
    decode."""

    def encode(self, payload) -> bytes:  # type: ignore[override]
        flags = 0
        body = bytes(payload)
        if self.compressing:
            body = zlib.compress(body, 1)
            flags |= 0x01
        iv = b""
        if self.encrypting:
            iv = os.urandom(16)
            body = _legacy_aes(self._cipher_key, iv, body)
            flags |= 0x02
        head = bytes([flags]) + iv
        signed = head + body
        mac = hmac.new(self._mac_key, signed, hashlib.sha1).digest()
        return signed + mac

    def decode(self, blob) -> bytes:  # type: ignore[override]
        blob = bytes(blob)
        mac = blob[-_MAC_BYTES:]
        signed = blob[:-_MAC_BYTES]
        expected = hmac.new(self._mac_key, signed, hashlib.sha1).digest()
        if not hmac.compare_digest(mac, expected):
            raise ValueError("MAC mismatch")
        flags = signed[0]
        offset = 1
        iv = b""
        if flags & 0x02:
            iv = signed[offset:offset + 16]
            offset += 16
        body = signed[offset:]
        if flags & 0x02:
            body = _legacy_aes(self._cipher_key, iv, body)
        if flags & 0x01:
            body = zlib.decompress(body)
        return body


def _legacy_aes(key: bytes, iv: bytes, data: bytes) -> bytes:
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    cipher = Cipher(algorithms.AES(key), modes.CTR(iv))
    enc = cipher.encryptor()
    return enc.update(data) + enc.finalize()


def legacy_encode_wal_payload(chunks) -> bytes:
    """The old list-join framing (one copy per field, one final join)."""
    out = [pack_u32(len(chunks))]
    for offset, data in chunks:
        out.append(pack_u64(offset))
        out.append(pack_bytes(bytes(data)))
    return b"".join(out)


# ---------------------------------------------------------------------------
# Workload material


def page_stream(seed: int, pages: int, page_size: int):
    """Deterministic, mildly compressible page writes at distinct offsets."""
    rng = random.Random(seed)
    template = bytes(rng.randrange(256) for _ in range(page_size // 4))
    out = []
    for i in range(pages):
        filler = bytes([rng.randrange(256)]) * (page_size - len(template) - 8)
        out.append((i * page_size, b"%08d" % i + template + filler))
    return out


# ---------------------------------------------------------------------------
# Benchmarks.  Each returns updates/s, MB/s or ops/s for one series —
# the best of ``repeats`` passes, which filters scheduler noise far
# better than averaging (the best pass is the least-perturbed one).


def _best(passes) -> float:
    return max(passes)


def bench_pipeline(*, optimized: bool, updates: int, page_size: int,
                   uploaders: int = 5, encoders: int = 4,
                   batch: int = 50, seed: int = 1234,
                   repeats: int = 3, cloud_factory=None) -> float:
    """Submit→unlock throughput with compress+encrypt on a zero-latency
    cloud — the CPU-bound shape where the encode stage matters.

    ``optimized=False`` runs the same pipeline with the legacy
    copy-chain codec.  ``cloud_factory`` swaps the store the
    pipeline uploads into (the mirror-1 passthrough gate uses a
    single-provider PlacementStore); the factory's product is closed
    after each pass when it can be.
    """
    config = GinjaConfig(
        batch=batch, safety=updates + batch, batch_timeout=0.005,
        safety_timeout=120.0, uploaders=uploaders,
        compress=True, encrypt=True, password=PASSWORD,
    )
    codec_cls = ObjectCodec if optimized else LegacyCodec
    codec = codec_cls(compress=True, encrypt=True, password=PASSWORD)
    writes = page_stream(seed, updates, page_size)
    rates = []
    for _ in range(repeats):
        if cloud_factory is not None:
            cloud = cloud_factory()
        else:
            cloud = SimulatedCloud(
                backend=InMemoryObjectStore(), time_scale=0.0
            )
        # The stand-alone shape: what a Ginja builds for itself.
        with running_pools(encoders, inflight=uploaders) as pools:
            pipe = CommitPipeline(
                config, build_transport(cloud, config), codec, CloudView(),
                *pools,
            )
            pipe.start()
            try:
                start = time.perf_counter()
                for offset, data in writes:
                    pipe.submit("seg", offset, data)
                if not pipe.drain(timeout=600.0):
                    raise RuntimeError("pipeline failed to drain")
                elapsed = time.perf_counter() - start
            finally:
                pipe.stop(drain_timeout=30.0)
                if cloud_factory is not None and hasattr(cloud, "close"):
                    cloud.close()
        rates.append(updates / elapsed)
    return _best(rates)


def _mirror1_store():
    """A single-provider mirror-1 PlacementStore on a zero-latency
    stack — the configuration that must be a pure passthrough."""
    from repro.cloud.latency import LOCAL_LATENCY
    from repro.cloud.pricing import S3_STANDARD_2017
    from repro.placement import ProviderSpec, build_placement

    spec = ProviderSpec(
        name="s3", prices=S3_STANDARD_2017, latency=LOCAL_LATENCY,
        time_scale=0.0,
    )
    return build_placement(1, "mirror-1", specs=[spec])


def bench_placement_read(*, optimized: bool, objects: int, object_bytes: int,
                         get_latency: float = 0.002, seed: int = 37,
                         repeats: int = 2) -> float:
    """Stripe read-path throughput in objects/s against 2 ms-GET
    providers: the placement store's parallel fragment fetch +
    reassembly vs a sequential one-fragment-at-a-time reader.

    Both series do the same logical work per object — locate the
    fragment set with narrow per-provider LISTs, GET ``k`` fragments,
    decode and reassemble — and byte-verify the result, so the ratio
    isolates the latency overlap of the parallel read path (which, like
    the recovery engine's, survives a single-core runner: the GIL is
    released while a GET sleeps out its modeled latency).
    """
    from repro.placement import build_placement, default_provider_specs
    from repro.placement.fragments import (
        decode_fragment,
        fragment_prefix,
        parse_fragment_key,
        reassemble,
    )

    latency = LatencyModel(
        get_base=get_latency, list_base=get_latency, jitter_sigma=0.0,
    )
    rng = random.Random(seed)
    payloads = {
        f"DB/{i:05d}": bytes(rng.randrange(256) for _ in range(object_bytes))
        for i in range(objects)
    }
    specs = default_provider_specs(3, seed=seed, latency=latency)
    store = build_placement(3, "stripe-2-3", specs=specs)
    try:
        for key, data in payloads.items():
            store.put(key, data)
        rates = []
        for _ in range(repeats):
            start = time.perf_counter()
            for key, data in payloads.items():
                if optimized:
                    got = store.get(key)
                else:
                    # Sequential reader: one LIST per provider, then one
                    # GET at a time until k fragments are in hand.
                    frags = {}
                    for provider in store.providers:
                        for info in provider.store.list(fragment_prefix(key)):
                            frag = parse_fragment_key(info.key)
                            if frag is not None:
                                frags.setdefault(frag.index, (provider, frag))
                    shape = next(iter(frags.values()))[1]
                    bodies = {}
                    for index, (provider, frag) in sorted(frags.items()):
                        if len(bodies) == shape.k:
                            break
                        blob = provider.store.get(frag.key)
                        bodies[index] = decode_fragment(frag, blob)
                    got = reassemble(
                        bodies, k=shape.k, n=shape.n, size=shape.size
                    )
                if got != data:
                    raise RuntimeError(f"read of {key} corrupt")
            elapsed = time.perf_counter() - start
            rates.append(objects / elapsed)
    finally:
        store.close()
    return _best(rates)


def bench_codec(*, optimized: bool, payload_bytes: int, rounds: int,
                seed: int = 99, decode: bool = False,
                repeats: int = 3) -> float:
    """Codec bandwidth in MB/s (compress+encrypt+MAC, one big payload)."""
    codec_cls = ObjectCodec if optimized else LegacyCodec
    codec = codec_cls(compress=True, encrypt=True, password=PASSWORD)
    rng = random.Random(seed)
    quarter = bytes(rng.randrange(256) for _ in range(payload_bytes // 4))
    payload = (quarter + b"\x00" * (payload_bytes // 4)) * 2
    payload = payload[:payload_bytes]
    blob = codec.encode(payload)  # warm-up (and the decode input)
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(rounds):
            if decode:
                codec.decode(blob)
            else:
                codec.encode(payload)
        elapsed = time.perf_counter() - start
        rates.append(payload_bytes * rounds / elapsed / 1e6)
    return _best(rates)


def bench_codec_pair(*, payload_bytes: int, rounds: int, seed: int = 99,
                     decode: bool = False, repeats: int = 5) -> dict:
    """Both codec series in one interleaved measurement.

    A codec round over 4 MiB is ~10 ms of pure CPU, so measuring the
    two series back-to-back lets a host frequency ramp land entirely on
    one of them and swing the ratio by 2x.  Interleaving makes adjacent
    samples share the frequency state, and the **median of per-repeat
    ratios** is robust to the ramps a per-series best-of pairs
    asymmetrically.  The reported optimized rate is derived from the
    median ratio (the gate is on the ratio, not the absolute rate).
    """
    codecs = {
        "baseline": LegacyCodec(compress=True, encrypt=True,
                                password=PASSWORD),
        "optimized": ObjectCodec(compress=True, encrypt=True,
                                 password=PASSWORD),
    }
    rng = random.Random(seed)
    quarter = bytes(rng.randrange(256) for _ in range(payload_bytes // 4))
    payload = (quarter + b"\x00" * (payload_bytes // 4)) * 2
    payload = payload[:payload_bytes]
    blobs = {s: c.encode(payload) for s, c in codecs.items()}  # warm-up
    ratios = []
    base_rates = []
    for _ in range(repeats):
        elapsed = {}
        for series, codec in codecs.items():
            start = time.perf_counter()
            for _ in range(rounds):
                if decode:
                    codec.decode(blobs[series])
                else:
                    codec.encode(payload)
            elapsed[series] = time.perf_counter() - start
        base_rates.append(payload_bytes * rounds / elapsed["baseline"] / 1e6)
        ratios.append(elapsed["baseline"] / elapsed["optimized"])
    baseline = statistics.median(base_rates)
    return {
        "baseline": baseline,
        "optimized": baseline * statistics.median(ratios),
    }


def bench_replay(*, optimized: bool, objects: int, object_bytes: int,
                 seed: int = 17) -> float:
    """Recovery replay bandwidth in MB/s: decode WAL objects from an
    in-memory bucket and apply their chunks to a file image."""
    codec_cls = ObjectCodec if optimized else LegacyCodec
    codec = codec_cls(compress=True, encrypt=True, password=PASSWORD)
    frame = encode_wal_payload if optimized else legacy_encode_wal_payload
    store = InMemoryObjectStore()
    writes = page_stream(seed, objects, object_bytes)
    for ts, (offset, data) in enumerate(writes):
        meta = WALObjectMeta(ts=ts, filename="seg", offset=offset)
        store.put(meta.key, codec.encode(frame([(offset, data)])))
    total = objects * object_bytes
    rates = []
    for _ in range(3):
        image = bytearray(total)
        start = time.perf_counter()
        for info in store.list("WAL/"):
            payload = codec.decode(store.get(info.key))
            for offset, data in decode_wal_payload(payload):
                image[offset:offset + len(data)] = data
        elapsed = time.perf_counter() - start
        for offset, data in writes:
            if bytes(image[offset:offset + len(data)]) != data:
                raise RuntimeError("replayed image does not match the stream")
        rates.append(total / elapsed / 1e6)
    return _best(rates)


def _recovery_bucket(codec, objects, object_bytes, seed):
    """A bucket holding one dump plus a consecutive WAL chain, and the
    material to verify a byte-identical restore against."""
    store = InMemoryObjectStore()
    rng = random.Random(seed)
    base = bytes(rng.randrange(256) for _ in range(object_bytes)) * 4
    store.put(
        DBObjectMeta(ts=0, type=DUMP, size=len(base)).key,
        codec.encode(encode_dump_payload([("base/data", base)])),
    )
    writes = page_stream(seed + 1, objects, object_bytes)
    for ts, (offset, data) in enumerate(writes, start=1):
        meta = WALObjectMeta(ts=ts, filename="seg", offset=offset)
        store.put(meta.key, codec.encode(encode_wal_payload([(offset, data)])))
    return store, writes, base


def bench_recovery(*, optimized: bool, objects: int, object_bytes: int,
                   downloaders: int = 6, get_latency: float = 0.002,
                   seed: int = 23, repeats: int = 2) -> float:
    """Recovery download→decode→apply throughput in objects/s against a
    latency-modeled store — Figure 7's phase.

    ``optimized=False`` restores sequentially (one blocking GET at a
    time, the pre-engine behaviour); ``optimized=True`` runs the
    recovery engine's ``downloaders``-wide prefetch pool.  Unlike the
    encode pipeline's, this speedup survives a single-core runner: the
    workers overlap *latency* (the GIL is released while a GET sleeps
    out its modeled latency), not CPU.  Each pass verifies the restored
    image byte-for-byte, so baseline and optimized provably produce the
    same files.
    """
    codec = ObjectCodec(compress=True, encrypt=True, password=PASSWORD)
    backend, writes, base = _recovery_bucket(
        codec, objects, object_bytes, seed
    )
    expected_seg = b"".join(data for _offset, data in writes)
    config = GinjaConfig(
        downloaders=downloaders if optimized else 1,
        prefetch_window=2 * downloaders,
        compress=True, encrypt=True, password=PASSWORD,
    )
    latency = LatencyModel(get_base=get_latency, list_base=get_latency)
    rates = []
    for _ in range(repeats):
        sim = SimulatedCloud(backend=backend, latency=latency, time_scale=1.0)
        fs = MemoryFileSystem()
        start = time.perf_counter()
        report = recover_files(sim, codec, fs, config=config)
        elapsed = time.perf_counter() - start
        if fs.read_all("seg") != expected_seg:
            raise RuntimeError("restored WAL image does not match the stream")
        if fs.read_all("base/data") != base:
            raise RuntimeError("restored dump does not match the source")
        if report.wal_objects_applied != objects:
            raise RuntimeError("recovery applied the wrong object count")
        rates.append(objects / elapsed)
    return _best(rates)


def bench_fleet(*, optimized: bool, tenants: int, updates_per_tenant: int,
                page_size: int = 4096, hot_factor: int = 4,
                batch: int = 20, seed: int = 31, repeats: int = 3) -> float:
    """Fleet submit→unlock throughput: N tenant pipelines under a skewed
    load, shared encode pool vs N private pools.

    Both series run the *same total encoder thread count* (``tenants``
    workers), so the ratio isolates the pooling structure rather than
    raw parallelism: ``optimized=True`` is one shared ``tenants``-wide
    EncodeStage with per-tenant fair-share lanes, ``optimized=False``
    gives each tenant a private single-worker stage.  The load is
    deliberately skewed (a hot third of the fleet submits
    ``hot_factor``x the updates) — private pools strand the cold
    tenants' workers while the hot tenants' single worker becomes the
    makespan, which is exactly the idle capacity a shared pool
    reclaims.

    The upload reactor follows the same split as the encode pool: the
    shared series runs one fleet-wide reactor (one loop thread, exactly
    what ``FleetManager`` deploys), the private series gives every
    pipeline its own — ``tenants`` loop threads, the stand-alone shape.
    """
    weights = [
        hot_factor if i < max(1, tenants // 3) else 1 for i in range(tenants)
    ]
    streams = [
        page_stream(seed + i, updates_per_tenant * weight, page_size)
        for i, weight in enumerate(weights)
    ]
    total = sum(len(stream) for stream in streams)
    rates = []
    for _ in range(repeats):
        pipes = []
        with contextlib.ExitStack() as owned:
            if optimized:
                shared = owned.enter_context(
                    running_pools(tenants, inflight=2 * tenants)
                )
            try:
                for i in range(tenants):
                    config = GinjaConfig(
                        batch=batch, safety=len(streams[i]) + batch,
                        batch_timeout=0.005, safety_timeout=120.0,
                        uploaders=2, compress=True, encrypt=True, password=PASSWORD,
                    )
                    cloud = SimulatedCloud(
                        backend=InMemoryObjectStore(), time_scale=0.0
                    )
                    codec = ObjectCodec(
                        compress=True, encrypt=True, password=PASSWORD
                    )
                    # Private series: the pre-fleet layout, every tenant
                    # with a one-worker stage and a reactor of its own.
                    pools = shared if optimized else owned.enter_context(
                        running_pools(1, inflight=2)
                    )
                    pipe = CommitPipeline(
                        config, build_transport(cloud, config), codec,
                        CloudView(), *pools, lane=f"tenant-{i}",
                    )
                    pipe.start()
                    pipes.append(pipe)
                start = time.perf_counter()
                # Round-robin submission interleaves tenants the way a
                # fleet of concurrent databases would.
                cursors = [0] * tenants
                remaining = total
                while remaining:
                    for i, stream in enumerate(streams):
                        if cursors[i] < len(stream):
                            offset, data = stream[cursors[i]]
                            pipes[i].submit("seg", offset, data)
                            cursors[i] += 1
                            remaining -= 1
                for pipe in pipes:
                    if not pipe.drain(timeout=600.0):
                        raise RuntimeError("fleet pipeline failed to drain")
                elapsed = time.perf_counter() - start
            finally:
                for pipe in pipes:
                    pipe.stop(drain_timeout=30.0)
        rates.append(total / elapsed)
    return _best(rates)


def bench_reactor(*, optimized: bool, tenants: int, puts_per_tenant: int,
                  blob_bytes: int = 8192, window: int = 512,
                  put_ms: float = 5.0, repeats: int = 3) -> float:
    """Upload-stage throughput: thread-per-upload vs the shared reactor
    at an equal global in-flight window.

    Both series push the same pre-encoded blobs (round-robin across
    ``tenants`` lanes, the hot third submitting 4x) through the same
    5 ms-PUT simulated cloud with at most ``window`` PUTs in flight.
    The baseline replicates the pre-reactor cost model — each in-flight
    PUT owns a dedicated OS thread for its lifetime (spawned on demand,
    gated by a ``window``-permit semaphore, joined to complete) — while
    the optimized series multiplexes every PUT onto the one reactor
    event loop as asyncio tasks, backoff-free timers and all.  The
    series diverge with the window, not at a point: threads plateau
    near window 64 (spawn cost and scheduler churn eat the wider
    window), while loop timers keep scaling — batching more expiries
    per loop iteration actually *amortizes* the reactor's overhead as
    concurrency grows.  EXPERIMENTS.md tabulates the sweep; the gated
    entry pins the wide-window point where the structures differ most.
    """
    import threading

    from repro.cloud.reactor import UploadReactor

    latency = LatencyModel(put_base=put_ms / 1000.0)
    weights = [4 if i < max(1, tenants // 3) else 1 for i in range(tenants)]
    jobs: list[tuple[int, str, bytes]] = []
    rng = random.Random(97)
    blobs = [rng.randbytes(blob_bytes) for _ in range(8)]
    cursor = 0
    remaining = [puts_per_tenant * weight for weight in weights]
    while any(remaining):
        for i in range(tenants):
            if remaining[i]:
                jobs.append((i, f"tenants/t{i}/WAL/{remaining[i]}",
                             blobs[cursor % len(blobs)]))
                cursor += 1
                remaining[i] -= 1
    rates = []
    for _ in range(repeats):
        # The lean lower half of the transport stack (a meter with the
        # latency model over the backend, billing to no bus): both
        # series pay identical per-PUT work, so the ratio isolates
        # threads-vs-loop-timers, not metering overhead.
        cloud = build_transport(
            InMemoryObjectStore(), latency=latency, tracing=False,
            time_scale=1.0,
        )
        if optimized:
            reactor = UploadReactor(inflight_window=window, io_threads=4)
            reactor.start()
            lane_window = max(1, window // tenants)
            try:
                for i in range(tenants):
                    reactor.attach(f"t{i}", window=lane_window)
                start = time.perf_counter()
                handles = [
                    reactor.submit(cloud, key, blob, tenant=f"t{i}")
                    for i, key, blob in jobs
                ]
                for handle in handles:
                    handle.wait(timeout=600.0)
                    if not handle.ok:
                        raise RuntimeError(f"upload failed: {handle.error}")
                elapsed = time.perf_counter() - start
            finally:
                reactor.stop()
        else:
            gate = threading.Semaphore(window)
            failures: list[BaseException] = []

            def upload(key: str, blob: bytes) -> None:
                try:
                    cloud.put(key, blob)
                except BaseException as exc:  # noqa: BLE001 - recorded
                    failures.append(exc)
                finally:
                    gate.release()

            start = time.perf_counter()
            threads = []
            for _, key, blob in jobs:
                gate.acquire()
                thread = threading.Thread(
                    target=upload, args=(key, blob), daemon=True
                )
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join(timeout=600.0)
            elapsed = time.perf_counter() - start
            if failures:
                raise RuntimeError(f"upload failed: {failures[0]}")
        rates.append(len(jobs) / elapsed)
    return _best(rates)


# ---------------------------------------------------------------------------
# The full suite


def run_suite(scale: float = 1.0) -> dict:
    """Run every benchmark at ``scale`` (1.0 = the committed report's
    sizes; the smoke test uses a tiny fraction) and return the canonical
    report structure."""

    def n(value: int, floor: int = 1) -> int:
        return max(floor, int(value * scale))

    results = {}

    pipeline = {
        series: bench_pipeline(
            optimized=(series == "optimized"),
            updates=n(2000, 20), page_size=8192,
        )
        for series in ("baseline", "optimized")
    }
    results["pipeline_submit_unlock"] = {
        "unit": "updates/s",
        "config": "compress+encrypt, uploaders=5, encoders=4, B=50, "
                  "8 KiB pages, zero-copy codec vs legacy copy-chain codec",
        # The band check only compares the ratio against a report from
        # a machine with the same CPU count.  On one CPU the shipped
        # pipeline can only win (zero-copy codec) — a hard floor, no
        # parallel exemption.
        "parallel": True,
        "floor_1cpu": 1.0,
        **pipeline,
    }

    for name, decode in (("codec_encode", False), ("codec_decode", True)):
        results[name] = {
            "unit": "MB/s",
            "config": "compress+encrypt+MAC, 4 MiB payload, "
                      "interleaved series",
            **bench_codec_pair(
                payload_bytes=n(4 * 1024 * 1024, 64 * 1024),
                rounds=n(8, 2), decode=decode, repeats=5,
            ),
        }

    replay = {
        s: bench_replay(
            optimized=(s == "optimized"),
            objects=n(200, 8), object_bytes=16384,
        )
        for s in ("baseline", "optimized")
    }
    results["recovery_replay"] = {
        "unit": "MB/s",
        "config": "16 KiB WAL objects, compress+encrypt",
        **replay,
    }

    fleet = {
        s: bench_fleet(
            optimized=(s == "optimized"),
            tenants=6, updates_per_tenant=n(250, 8),
            # Best-of-5 for the same reason as the codec pair: the two
            # series sit within a few percent on one core, so the gated
            # floor needs the peak, not a noisy 3-sample draw.
            repeats=5,
        )
        for s in ("baseline", "optimized")
    }
    results["fleet_submit_unlock"] = {
        "unit": "updates/s",
        "config": "6 tenants (hot third at 4x), shared pool vs 6 private "
                  "1-worker pools, compress+encrypt, 4 KiB pages",
        # Equal thread counts in both series, but the work-stealing win
        # depends on genuinely overlapping encoder work — floor-only
        # across machines with different core counts.  On one CPU the
        # shared pool must not lose to the private ones: a hard floor,
        # no parallel exemption.
        "parallel": True,
        "floor_1cpu": 1.0,
        **fleet,
    }

    reactor = {
        s: bench_reactor(
            optimized=(s == "optimized"),
            tenants=32, puts_per_tenant=n(48, 2), window=512,
        )
        for s in ("baseline", "optimized")
    }
    results["reactor_inflight"] = {
        "unit": "puts/s",
        "config": "32 tenants (hot third at 4x), 5 ms-PUT simulated "
                  "cloud, global window 512: thread-per-upload vs one "
                  "reactor event loop",
        # The thread series plateaus near window 64 while loop timers
        # keep scaling (see EXPERIMENTS.md for the sweep), so the wide-
        # window ratio holds across core counts — and on one CPU the
        # thread-per-upload spawn/switch tax bites hardest, which is
        # exactly the claim under test: the floor is the >=2x
        # submit->ack acceptance bar.
        "parallel": True,
        "floor_1cpu": 2.0,
        # Peak threads parked on upload duty, by construction: the
        # baseline needs one OS thread per in-flight PUT; the reactor
        # needs its event-loop thread plus a fixed 4-thread executor
        # (idle here — the simulated cloud is natively async).
        "threads_baseline": 512,
        "threads_optimized": 5,
        **reactor,
    }

    download = {
        s: bench_recovery(
            optimized=(s == "optimized"),
            objects=n(150, 12), object_bytes=8192,
        )
        for s in ("baseline", "optimized")
    }
    results["recovery_parallel_download"] = {
        "unit": "objects/s",
        "config": "8 KiB WAL objects, 2 ms GET latency, downloaders=6",
        # Latency-bound rather than CPU-bound, but timing real sleeps is
        # scheduler-sensitive — keep the cross-machine check floor-only.
        "parallel": True,
        **download,
    }

    placement_read = {
        s: bench_placement_read(
            optimized=(s == "optimized"),
            objects=n(120, 10), object_bytes=8192,
        )
        for s in ("baseline", "optimized")
    }
    results["placement_stripe_read"] = {
        "unit": "objects/s",
        "config": "stripe-2-3 over 3 providers, 8 KiB objects, "
                  "2 ms GET/LIST latency",
        # Latency-bound like the recovery download — floor-only across
        # machines.
        "parallel": True,
        **placement_read,
    }

    mirror1 = {
        # Both series run the *shipped* pipeline; the only difference is
        # the store underneath — a plain simulated cloud vs a
        # single-provider mirror-1 PlacementStore.  The speedup must pin
        # ~1.0x: the fast path adds zero copies and zero fan-out, so a
        # drifting ratio means the placement layer grew a cost on the
        # configuration everyone who doesn't use it still runs.
        "baseline": bench_pipeline(
            optimized=True, updates=n(2000, 20), page_size=8192,
        ),
        "optimized": bench_pipeline(
            optimized=True, updates=n(2000, 20), page_size=8192,
            cloud_factory=_mirror1_store,
        ),
    }
    results["placement_mirror1_passthrough"] = {
        "unit": "updates/s",
        "config": "shipped pipeline on plain cloud vs mirror-1 "
                  "PlacementStore; ratio must hold ~1.0x",
        **mirror1,
    }

    for entry in results.values():
        entry["speedup"] = (
            entry["optimized"] / entry["baseline"] if entry["baseline"] else 0.0
        )

    return {
        "schema": SCHEMA,
        "machine": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "scale": scale,
        "benchmarks": results,
    }


#: Canonical-scale re-runs of each benchmark pair, used by the check
#: CLI to confirm a gate violation (single-core floor or band) before
#: failing the run.  Mid-suite, a shared 1-CPU host can throttle or
#: steal cycles for minutes at a time, which squeezes the few-percent
#: margins below their gates even though an isolated re-measurement
#: lands back inside; a *real* regression (a copy chain back, a lane
#: serializing) re-measures low too, so the retry does not weaken any
#: gate.  Keep the parameters in lockstep with :func:`run_suite`'s
#: canonical (scale=1.0) sizes.
REMEASURE = {
    "pipeline_submit_unlock": lambda: {
        "baseline": bench_pipeline(
            optimized=False, updates=2000, page_size=8192,
        ),
        "optimized": bench_pipeline(
            optimized=True, updates=2000, page_size=8192,
        ),
    },
    "fleet_submit_unlock": lambda: {
        "baseline": bench_fleet(
            optimized=False, tenants=6, updates_per_tenant=250, repeats=5,
        ),
        "optimized": bench_fleet(
            optimized=True, tenants=6, updates_per_tenant=250, repeats=5,
        ),
    },
    "reactor_inflight": lambda: {
        "baseline": bench_reactor(
            optimized=False, tenants=32, puts_per_tenant=48, window=512,
        ),
        "optimized": bench_reactor(
            optimized=True, tenants=32, puts_per_tenant=48, window=512,
        ),
    },
    "codec_encode": lambda: bench_codec_pair(
        payload_bytes=4 * 1024 * 1024, rounds=8, decode=False, repeats=5,
    ),
    "codec_decode": lambda: bench_codec_pair(
        payload_bytes=4 * 1024 * 1024, rounds=8, decode=True, repeats=5,
    ),
    "recovery_replay": lambda: {
        s: bench_replay(
            optimized=(s == "optimized"), objects=200, object_bytes=16384,
        )
        for s in ("baseline", "optimized")
    },
    "recovery_parallel_download": lambda: {
        s: bench_recovery(
            optimized=(s == "optimized"), objects=150, object_bytes=8192,
        )
        for s in ("baseline", "optimized")
    },
    "placement_stripe_read": lambda: {
        s: bench_placement_read(
            optimized=(s == "optimized"), objects=120, object_bytes=8192,
        )
        for s in ("baseline", "optimized")
    },
    "placement_mirror1_passthrough": lambda: {
        "baseline": bench_pipeline(
            optimized=True, updates=2000, page_size=8192,
        ),
        "optimized": bench_pipeline(
            optimized=True, updates=2000, page_size=8192,
            cloud_factory=_mirror1_store,
        ),
    },
}


def remeasure(name: str) -> dict | None:
    """Re-run one benchmark pair at canonical scale.

    Returns ``{"baseline": ..., "optimized": ..., "speedup": ...}`` or
    ``None`` for benchmarks without a registered re-measurement.
    """
    factory = REMEASURE.get(name)
    if factory is None:
        return None
    series = factory()
    series["speedup"] = (
        series["optimized"] / series["baseline"] if series["baseline"] else 0.0
    )
    return series


def render(report: dict) -> str:
    lines = [
        f"perf report ({report['machine']['cpus']} CPUs, "
        f"scale={report['scale']})",
        f"  {'benchmark':24} {'baseline':>12} {'optimized':>12} "
        f"{'speedup':>8}  unit",
    ]
    for name, entry in report["benchmarks"].items():
        lines.append(
            f"  {name:24} {entry['baseline']:>12.1f} "
            f"{entry['optimized']:>12.1f} {entry['speedup']:>7.2f}x  "
            f"{entry['unit']}"
        )
    return "\n".join(lines)


def dump(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
