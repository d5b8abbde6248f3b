"""Cross-pod replication: bit-identical wire images, dedup, loss."""

import pytest

from repro.cluster import build_federation
from repro.cluster.replication import ReplicationError, encode_image
from repro.exceptions import PoisonError
from repro.ras import RAS
from repro.ras.checksum import checkpoint_frames, invalidate_restore_plan
from repro.rfork.restoreplan import RESTORE_PLAN
from repro.porter.autoscaler import PorterConfig


def drain(queue):
    while queue.peek_time() is not None:
        queue.step()


def federation(mechanism="cxlfork", pod_count=2):
    router = build_federation(
        pod_count, porter_config=PorterConfig(mechanism=mechanism)
    )
    router.register_function("float")
    return router, router.membership.pods()


class TestWireRoundTrip:
    @pytest.mark.parametrize("mechanism", ["cxlfork", "criu-cxl"])
    def test_shipped_image_reencodes_bit_identical(self, mechanism):
        """encode(materialize(encode(ckpt))) == encode(ckpt): the wire
        form carries no pod-specific state, so a replica of a replica is
        indistinguishable from the original."""
        router, (src, dst) = federation(mechanism)
        src.porter.prewarm_and_checkpoint("float")
        original = encode_image(
            src.store.peek("tenant0", "float").checkpoint
        )

        landed = []
        router.replicator.ship("float", src, dst, on_done=landed.append)
        drain(router.queue)

        assert len(landed) == 1 and landed[0] is not None
        replica = landed[0].checkpoint
        assert encode_image(replica) == original
        # The replica is backed by the destination pod's own resources.
        assert getattr(replica, "fabric", dst.fabric) is dst.fabric
        assert getattr(replica, "cxlfs", dst.cxlfs) is dst.cxlfs

    def test_second_hop_still_identical(self):
        """pod0 -> pod1 -> pod2 must not accumulate drift."""
        router, pods = federation(pod_count=3)
        pods[0].porter.prewarm_and_checkpoint("float")
        original = encode_image(
            pods[0].store.peek("tenant0", "float").checkpoint
        )
        router.replicator.ship("float", pods[0], pods[1])
        drain(router.queue)
        router.replicator.ship("float", pods[1], pods[2])
        drain(router.queue)
        final = pods[2].store.peek("tenant0", "float").checkpoint
        assert encode_image(final) == original


class TestShipPolicies:
    def test_mitosis_images_refuse_to_ship(self):
        """Mitosis checkpoints are coupled to a live parent (§3.1) —
        there is no self-contained image to put on the wire."""
        router, (src, dst) = federation("mitosis-cxl")
        src.porter.prewarm_and_checkpoint("float")
        with pytest.raises(ReplicationError):
            router.replicator.ship("float", src, dst)

    def test_missing_image_raises(self):
        router, (src, dst) = federation()
        with pytest.raises(ReplicationError):
            router.replicator.ship("float", src, dst)

    def test_inflight_ships_deduplicate(self):
        router, (src, dst) = federation()
        src.porter.prewarm_and_checkpoint("float")
        done = []
        first = router.replicator.ship("float", src, dst, on_done=done.append)
        second = router.replicator.ship("float", src, dst, on_done=done.append)
        assert first == second  # joined the in-flight transfer
        assert router.replicator.stats.ships == 1
        assert router.replicator.stats.dedup_hits == 1
        drain(router.queue)
        assert len(done) == 2 and all(e is not None for e in done)
        # Both waiters see the same landed entry, paid for once.
        assert done[0] is done[1]

    def test_push_fanout_encodes_once(self):
        """Pushing one checkpoint to N pods reuses the encoded blob: the
        wire image is canonical content, so the bytes cannot differ per
        destination (and re-encoding them N times is pure host waste)."""
        router, pods = federation(pod_count=3)
        pods[0].porter.prewarm_and_checkpoint("float")
        router.replicator.ship("float", pods[0], pods[1])
        router.replicator.ship("float", pods[0], pods[2])
        drain(router.queue)
        stats = router.replicator.stats
        assert stats.ships == 2
        assert stats.encode_cache_hits == 1
        # Cache reuse must not change what lands: both replicas re-encode
        # bit-identical to the original.
        original = encode_image(pods[0].store.peek("tenant0", "float").checkpoint)
        for dst in pods[1:]:
            landed = dst.store.peek("tenant0", "float").checkpoint
            assert encode_image(landed) == original

    def test_recheckpoint_misses_blob_cache(self):
        """A new checkpoint object for the same function must not reuse
        the previous image's cached bytes."""
        router, (src, dst) = federation()
        src.porter.prewarm_and_checkpoint("float")
        first = src.store.peek("tenant0", "float").checkpoint
        router.replicator.ship("float", src, dst)
        drain(router.queue)

        src.porter.prewarm_and_checkpoint("float")
        second = src.store.peek("tenant0", "float").checkpoint
        blob, _ = router.replicator._encoded(second, src.fabric)
        if second is not first:
            assert router.replicator.stats.encode_cache_hits == 0
        assert blob == encode_image(second)

    def test_poisoned_after_ship_refused_despite_blob_cache(self):
        """A checkpoint shipped once and poisoned afterwards must not ship
        again: the RAS check runs before the restore-plan lookup, so a
        cached encoded blob cannot bypass it."""
        router, pods = federation(pod_count=3)
        pods[0].porter.prewarm_and_checkpoint("float")
        ckpt = pods[0].store.peek("tenant0", "float").checkpoint
        with RAS.force(True):
            router.replicator.ship("float", pods[0], pods[1])
            drain(router.queue)
            pods[0].fabric.device.frames.poison(checkpoint_frames(ckpt)[:1])
            with pytest.raises(PoisonError):
                router.replicator.ship("float", pods[0], pods[2])
            drain(router.queue)
        stats = router.replicator.stats
        assert stats.ships == 1 and stats.encode_cache_hits == 0
        assert pods[2].store.peek("tenant0", "float") is None

    def test_plan_off_ship_encodes_every_time(self):
        """With the restore-plan cache off, every ship encodes afresh and
        lands the same bytes, over the same wire volume, as plan-on."""

        def push_twice():
            router, pods = federation(pod_count=3)
            pods[0].porter.prewarm_and_checkpoint("float")
            router.replicator.ship("float", pods[0], pods[1])
            router.replicator.ship("float", pods[0], pods[2])
            drain(router.queue)
            replicas = [
                encode_image(dst.store.peek("tenant0", "float").checkpoint)
                for dst in pods[1:]
            ]
            return router.replicator.stats, replicas

        with RESTORE_PLAN.force(False):
            off_stats, off_replicas = push_twice()
        on_stats, on_replicas = push_twice()
        assert off_stats.ships == 2 and off_stats.encode_cache_hits == 0
        assert on_stats.encode_cache_hits == 1
        assert off_stats.bytes_shipped == on_stats.bytes_shipped
        assert off_replicas == on_replicas

    def test_invalidated_plan_reencodes(self):
        """The shipping form follows the restore plan's epochs: after the
        image is invalidated in place, the next ship encodes afresh."""
        router, pods = federation(pod_count=3)
        pods[0].porter.prewarm_and_checkpoint("float")
        ckpt = pods[0].store.peek("tenant0", "float").checkpoint
        router.replicator.ship("float", pods[0], pods[1])
        drain(router.queue)
        invalidate_restore_plan(ckpt)
        router.replicator.ship("float", pods[0], pods[2])
        drain(router.queue)
        stats = router.replicator.stats
        assert stats.ships == 2 and stats.encode_cache_hits == 0
        landed = pods[2].store.peek("tenant0", "float").checkpoint
        assert encode_image(landed) == encode_image(ckpt)

    def test_destination_death_in_flight_loses_replica(self):
        router, (src, dst) = federation()
        src.porter.prewarm_and_checkpoint("float")
        done = []
        router.replicator.ship("float", src, dst, on_done=done.append)
        dst.fail()
        drain(router.queue)
        assert done == [None]
        assert router.replicator.stats.failed == 1
        assert not dst.store.contains("tenant0", "float")
