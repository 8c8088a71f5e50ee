"""Checksum layer and bit-rot timeline: nothing silent stays silent.

The load-bearing property of the whole integrity subsystem is that the
per-chunk CRC catches *any* single-byte change — a seeded exhaustive
sweep below flips every byte of every stored chunk and demands a
detection each time. The ``rot()`` schedule mirrors ``churn()``'s
determinism contract: same seed, bit-for-bit identical damage.
"""

import numpy as np
import pytest

from repro.cluster import (
    ChunkId,
    ChunkStore,
    Cluster,
    FailureInjector,
    MB,
    encode_and_load,
    mbs,
    place_stripes,
)
from repro.codes import RSCode
from repro.errors import SimulationError
from repro.faults import FaultTimeline, LatentSectorError, SilentCorruption
from repro.integrity import payload_checksum

CHUNK = 16 * MB


def make_env(num_nodes=12, num_stripes=10, seed=0):
    cluster = Cluster(
        num_nodes=num_nodes, num_clients=0, link_bw=mbs(100),
        disk_bw=mbs(1000),
    )
    store = place_stripes(RSCode(4, 2), num_stripes, cluster.storage_ids,
                          chunk_size=CHUNK, seed=seed)
    injector = FailureInjector(cluster, store)
    chunk_store = encode_and_load(store, payload_size=64, seed=seed + 1)
    return cluster, store, injector, chunk_store


class TestChecksumLayer:
    def test_put_records_checksum_and_verifies(self):
        cs = ChunkStore()
        chunk = ChunkId(0, 0)
        payload = np.arange(32, dtype=np.uint8)
        cs.put(chunk, payload, truth=True)
        assert cs.checksum(chunk) == payload_checksum(payload)
        assert cs.verify(chunk)
        assert cs.matches_checksum(chunk, payload)

    def test_put_copies_the_payload(self):
        # Regression: put() must not alias the caller's buffer — later
        # caller-side mutation would silently change "stored" bytes.
        cs = ChunkStore()
        chunk = ChunkId(0, 0)
        payload = np.zeros(16, dtype=np.uint8)
        cs.put(chunk, payload, truth=True)
        payload[0] = 0xFF
        assert cs.get(chunk)[0] == 0
        assert cs.verify(chunk)

    def test_put_coerces_dtype(self):
        cs = ChunkStore()
        chunk = ChunkId(0, 0)
        cs.put(chunk, np.arange(8, dtype=np.int64), truth=True)
        assert cs.get(chunk).dtype == np.uint8

    def test_every_single_byte_flip_is_caught(self):
        # Exhaustive: every chunk, every byte position, a seeded non-zero
        # XOR — the CRC must flag all of them, and a restore must clear.
        _, _, _, cs = make_env(num_stripes=4)
        rng = np.random.default_rng(42)
        for chunk in cs.chunks():
            original = cs.get(chunk).copy()
            for pos in range(original.size):
                tampered = original.copy()
                tampered[pos] ^= int(rng.integers(1, 256))
                cs.put(chunk, tampered)
                assert not cs.verify(chunk), (chunk, pos)
                assert not cs.matches_checksum(chunk, tampered), (chunk, pos)
            cs.put(chunk, original)
            assert cs.verify(chunk), chunk

    def test_corrupt_flips_distinct_bytes_and_is_detected(self):
        _, _, _, cs = make_env()
        chunk = next(iter(cs.chunks()))
        before = cs.get(chunk).copy()
        positions = cs.corrupt(chunk, rng=np.random.default_rng(7), flips=5)
        after = cs.get(chunk)
        assert positions == sorted(set(positions)) and len(positions) == 5
        changed = np.flatnonzero(before != after)
        assert sorted(changed.tolist()) == positions
        assert not cs.verify(chunk)
        assert not cs.matches_truth(chunk)
        # The recorded checksum is untouched: it is the detection oracle.
        assert cs.checksum(chunk) == payload_checksum(before)

    def test_unreadable_chunk_fails_verification(self):
        _, _, _, cs = make_env()
        chunk = next(iter(cs.chunks()))
        assert cs.verify(chunk)
        cs.mark_unreadable(chunk)
        assert cs.is_unreadable(chunk)
        assert not cs.verify(chunk)
        # A fresh (repair) write-back clears the latent sector error.
        cs.put(chunk, cs.truth(chunk))
        assert not cs.is_unreadable(chunk)
        assert cs.verify(chunk)

    def test_checksum_survives_drop(self):
        # A lost payload keeps its checksum: it is the write-back oracle.
        _, _, _, cs = make_env()
        chunk = next(iter(cs.chunks()))
        recorded = cs.checksum(chunk)
        truth = cs.truth(chunk)
        cs.drop(chunk)
        assert not cs.has(chunk)
        assert cs.checksum(chunk) == recorded
        assert cs.matches_checksum(chunk, truth)

    def test_no_checksum_is_vacuously_sound(self):
        cs = ChunkStore()
        chunk = ChunkId(3, 1)
        assert cs.matches_checksum(chunk, np.zeros(4, dtype=np.uint8))

    def test_unsound_lists_every_chunk_that_fails_verify(self):
        _, _, _, cs = make_env()
        corrupted, dropped, unreadable, sound = list(cs.chunks())[:4]
        cs.corrupt(corrupted, rng=np.random.default_rng(3))
        cs.drop(dropped)
        cs.mark_unreadable(unreadable)
        batch = [corrupted, dropped, unreadable, sound]
        assert cs.unsound(batch) == [corrupted, dropped, unreadable]
        # By default only stored chunks are checked: a dropped payload
        # has nothing left to verify.
        assert cs.unsound() == [corrupted, unreadable]


class TestRotSchedule:
    def chunks(self, n=30):
        return [ChunkId(s, i) for s in range(n // 3) for i in range(3)]

    def test_same_seed_same_rot_schedule(self):
        def build(seed):
            return FaultTimeline(seed=seed).rot(
                chunks=self.chunks(), horizon=20.0,
                corruptions=4, sector_errors=3, flips=2,
            )

        a, b = build(11), build(11)
        assert a.sorted_events() == b.sorted_events()
        c = build(12)
        assert c.sorted_events() != a.sorted_events()

    def test_rot_damages_distinct_chunks(self):
        tl = FaultTimeline(seed=5).rot(
            chunks=self.chunks(), horizon=10.0, corruptions=5, sector_errors=5,
        )
        victims = [e.chunk for e in tl.events]
        assert len(victims) == len(set(victims)) == 10
        kinds = {type(e) for e in tl.events}
        assert kinds == {SilentCorruption, LatentSectorError}

    def test_rot_max_per_stripe_caps_stripe_damage(self):
        chunks = self.chunks(30)  # 10 stripes x 3 chunks
        for seed in range(8):
            tl = FaultTimeline(seed=seed).rot(
                chunks=chunks, horizon=10.0, corruptions=6, sector_errors=4,
                max_per_stripe=1,
            )
            stripes = [e.chunk.stripe for e in tl.events]
            assert len(stripes) == 10
            assert len(set(stripes)) == 10  # no stripe hit twice

    def test_rot_max_per_stripe_infeasible_raises(self):
        with pytest.raises(SimulationError, match="per stripe"):
            FaultTimeline(seed=1).rot(
                chunks=self.chunks(30), horizon=10.0, corruptions=11,
                max_per_stripe=1,  # only 10 stripes available
            )

    def test_rot_validation(self):
        tl = FaultTimeline()
        with pytest.raises(SimulationError):
            tl.rot(chunks=[], horizon=10.0, corruptions=1)
        with pytest.raises(SimulationError):
            tl.rot(chunks=self.chunks(3), horizon=10.0,
                   corruptions=2, sector_errors=2)
        with pytest.raises(SimulationError):
            tl.rot(chunks=self.chunks(), horizon=0.0, corruptions=1)

    def test_arming_corruption_requires_chunk_store(self):
        cluster, _, injector, _ = make_env()
        tl = FaultTimeline().corrupt(1.0, ChunkId(0, 0))
        with pytest.raises(SimulationError, match="ChunkStore"):
            tl.arm(cluster, injector)

    def test_same_seed_flips_the_same_bytes(self):
        # Bit-for-bit deterministic injection: two identical worlds rot
        # identically, down to the byte positions flipped.
        def run(seed):
            cluster, _, injector, cs = make_env(seed=3)
            tl = FaultTimeline(seed=seed).rot(
                chunks=list(cs.chunks()), horizon=5.0,
                corruptions=4, sector_errors=2, flips=3,
            )
            tl.arm(cluster, injector, chunk_store=cs)
            damage = []
            tl.on("corrupted",
                  lambda t, **kw: damage.append((kw["chunk"], tuple(kw["positions"]))))
            tl.on("sector_error",
                  lambda t, **kw: damage.append((kw["chunk"], "unreadable")))
            cluster.sim.run(until=6.0)
            assert len(damage) == 6
            return damage

        assert run(21) == run(21)
        assert run(22) != run(21)

    def test_injected_corruption_fails_verification(self):
        cluster, _, injector, cs = make_env()
        victim = next(iter(cs.chunks()))
        tl = (
            FaultTimeline(seed=9)
            .corrupt(1.0, victim, flips=2)
            .sector_error(2.0, None)  # random victim at execution time
        )
        tl.arm(cluster, injector, chunk_store=cs)
        cluster.sim.run(until=3.0)
        assert not cs.verify(victim)
        unsound = [c for c in cs.chunks() if not cs.verify(c)]
        assert len(unsound) == 2  # the explicit victim + the random one
