from collections import Counter
from itertools import islice

from bench.workloads import POPULARITY, WORKLOADS, OpStream, zipf_quota


def ops(name, seed, blocks=2):
    stream = OpStream(WORKLOADS[name], seed)
    return stream.warmup() + [op for _ in range(blocks) for op in stream.block()]


def test_same_seed_same_stream():
    for name in WORKLOADS:
        assert ops(name, 7) == ops(name, 7)


def test_other_seed_other_texts_same_mix():
    for name in WORKLOADS:
        a, b = ops(name, 7), ops(name, 8)
        assert [op.text for op in a] != [op.text for op in b]
        # What decides the cost of a run does not depend on the seed.
        mix = lambda stream: Counter((op.kind, op.make if op.kind == "query" else "") for op in stream)
        assert mix(a) == mix(b)


def test_quota_follows_zipf():
    counts = Counter(islice(zipf_quota(), 293))
    assert sum(counts.values()) == 293
    assert counts["ford"] == 100  # 293 / H(10) = 100.03
    assert [m for m, _ in counts.most_common()] == list(POPULARITY)


def test_churn_block_shape():
    block = OpStream(WORKLOADS["churn_store"], 3).block()
    kinds = [op.kind for op in block]
    assert kinds.count("write") == 5 and kinds.count("restart") == 1
    at = kinds.index("restart")
    # The restart follows the last cycle's queries; the query just before
    # it is repeated right after, without a drawn threshold.
    assert block[at + 1].probe and block[at + 1].text == block[at - 1].base
    assert kinds[-1] == "write"
