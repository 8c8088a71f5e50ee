"""Journal replay wall-clock: recovery cost of folding the full log."""

from conftest import emit

from repro.cluster.stripes import ChunkId
from repro.journal import Journal


def _build_journal(chunks: int) -> Journal:
    """A journal shaped like a real run: enqueue, plan, commit per chunk."""
    journal = Journal()
    view = journal.shard_view(0)
    view.coordinator_started()
    ids = [ChunkId(i // 4, i % 4) for i in range(chunks)]
    for chunk in ids:
        view.chunk_enqueued(chunk)
    for chunk in ids:
        view.plan_chosen(chunk, destination=1, sources=[2, 3, 4], attempt=1)
        view.reads_issued(chunk, transfers=4)
        view.decode_verified(chunk)
        view.writeback_committed(chunk)
    return journal


def test_journal_replay(benchmark, bench_scale):
    chunks = max(200, int(4000 * bench_scale))
    journal = _build_journal(chunks)
    state = benchmark(journal.replay)
    assert len(state.committed) == chunks and not state.pending
    emit(
        benchmark,
        "Journal replay: record counts",
        ["chunks", "records"],
        [[chunks, len(journal)]],
    )
