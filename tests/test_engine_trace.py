"""Golden engine traces: the sha256 of every pivot step and leaf of `regular_eliminate`.

Every module is `AMBIENT`-dimensional with `GENS` generators drawn by
`randgen.random_vector` (about a third of the values zero, so pivots split
their regions) at a fixed seed, over F_2, F_5, F_(2^61-1) and Q with 16, 64
or 256 atoms.  Each is eliminated from the full idempotent and from the
even-indexed atoms.  The digest covers the start, every step's (region,
row, col, pivot support) and every leaf's (piece, rank), so a change to the
engine must keep the pivot rule, the worklist order and the leaf order.

`python tests/test_engine_trace.py` prints the table for the current code.
"""

from __future__ import annotations

import hashlib

import pytest

from regmod import (
    AtomSet,
    EliminationTrace,
    GeneratorSet,
    Idempotent,
    PivotStep,
    PrimeField,
    RationalField,
    regular_eliminate,
)
from regmod.randgen import default_labels, random_vector
from regmod.rng import SplitMix64

FIELDS = (("f2", PrimeField(2)), ("f5", PrimeField(5)), ("m61", PrimeField(2**61 - 1)),
          ("q", RationalField()))
SIZES = (16, 64, 256)
SEEDS = (1, 2)
STARTS = ("full", "even")
AMBIENT, GENS = 4, 5
CASES = tuple(f"{tag}-d{d}-s{seed}-{start}" for tag, _ in FIELDS for d in SIZES
              for seed in SEEDS for start in STARTS)


def case_input(name: str) -> tuple[GeneratorSet, Idempotent]:
    tag, d, seed, start = name.split("-")
    field, d, seed = dict(FIELDS)[tag], int(d[1:]), int(seed[1:])
    rng = SplitMix64(1000 * seed + d)
    context = AtomSet(default_labels(d))
    gens = GeneratorSet(field, context, AMBIENT, tuple(
        random_vector(field, context, AMBIENT, rng) for _ in range(GENS)))
    mask = context.full_mask if start == "full" else sum(1 << q for q in range(0, d, 2))
    return gens, Idempotent(context, mask)


def trace_text(trace: EliminationTrace) -> str:
    lines = [f"start {trace.start.mask:x}"]
    lines += [f"step {s.piece.mask:x} {s.row} {s.col} {s.pivot_support.mask:x}"
              for s in trace.steps]
    lines += [f"leaf {piece.mask:x} {rank}" for piece, rank in trace.leaves]
    return "\n".join(lines) + "\n"


def summary(name: str) -> tuple[int, int, str]:
    """(pivot steps, leaves, sha256 of the trace text) for one case."""
    leaves, trace = regular_eliminate(*case_input(name))
    assert list(trace.leaves) == leaves
    digest = hashlib.sha256(trace_text(trace).encode("ascii")).hexdigest()
    return len(trace.steps), len(leaves), digest


@pytest.mark.parametrize("name", CASES)
def test_engine_trace(name):
    assert summary(name) == GOLDEN[name]


def test_readme_fixture_trace(fixture_gens, atoms3):
    def e(*labels: str) -> Idempotent:
        return atoms3.subset(labels)

    leaves, trace = regular_eliminate(fixture_gens, atoms3.full())
    assert trace.steps == (
        PivotStep(e("q1", "q2", "q3"), 0, 0, e("q1", "q2", "q3")),
        PivotStep(e("q1", "q2", "q3"), 0, 0, e("q1", "q3")),
    )
    assert leaves == [(e("q1", "q3"), 2), (e("q2"), 1)]
    assert trace.leaves == tuple(leaves)


GOLDEN: dict[str, tuple[int, int, str]] = {
    'f2-d16-s1-full': (21, 14, '23ee5df445caf2e5f77b984720a3b2a4117961faea16ee5df430807c14733c46'),
    'f2-d16-s1-even': (12, 7, 'e6ca3ef29797e26d91d3bb180445868667d6892fee24606139b5ef7b948fc975'),
    'f2-d16-s2-full': (24, 13, '3e6c669c9c181f3e92ae9e3e0eafe6bdc2beb39643488128c43110233d9b48c3'),
    'f2-d16-s2-even': (15, 8, '2ff679455499a964b50adb1ceb6e92ce867f2a416faea5c375380aab83d5905a'),
    'f2-d64-s1-full': (71, 48, 'da087971a72dc6cc0ab7af8e455501c71d981789025869856df4637432e8c238'),
    'f2-d64-s1-even': (37, 25, 'a008f7884aabc9f3188c9b5b9e92bc3038f32571680e7f3f9c76f0f26dba8657'),
    'f2-d64-s2-full': (71, 47, '2b4bd7a1c214d2b2b26ee95aa08a5e6be53e39797197b86c4456c0c7eae1e9f7'),
    'f2-d64-s2-even': (43, 27, '48dadaa6bb8a28687c26e1e1fe2ec60aca3bd9aa7f37feea54e9c3c364433198'),
    'f2-d256-s1-full': (161, 139, 'a4aecfcf5285622821a072e6877ab8caa3d97f8393fbcf2c7d4740a285564cc2'),
    'f2-d256-s1-even': (103, 85, '33d85a04bd1cd7a688eea2f70e3a64eceb66cde655fd69a05db823bd65ff8d17'),
    'f2-d256-s2-full': (158, 136, '1081cfa93425dee16cc8c284bc3d8a7ad58f94936a4ca6ae25d777def7c3a7d0'),
    'f2-d256-s2-even': (89, 72, '7324050aa808a6f31e5dacc0fe8f372f9afe52b3b66074c5cce595158d148310'),
    'f5-d16-s1-full': (14, 7, '170746bd47b12b7e1041ba3e7c30bb6602ed94dcd260febb8f05e40e6b8aa622'),
    'f5-d16-s1-even': (11, 4, '1726062b8eb892bf9a8de4fcffe543a97246142783a0c2a971221e29c93ac059'),
    'f5-d16-s2-full': (22, 10, '3f4a2a02eeac2015c161339659e9e4f01a1f350d53f693cd858497c821de99da'),
    'f5-d16-s2-even': (13, 6, '54664d5c1a9117c8451a72db505c37072e7ba19ff761a2249063914388564e2b'),
    'f5-d64-s1-full': (36, 21, 'b5bf8f9ea028d02521638e7c1d43421238aec02817dc918488796958e9b9ed33'),
    'f5-d64-s1-even': (28, 13, '22339d7ca319205cb43a696525074d2650d84e1640a872bff47a679b231abd52'),
    'f5-d64-s2-full': (40, 24, '0b1840ab6355afc06c5c7f86aea0f1a3774943c1c8fc780cf71784fc6ab46c0d'),
    'f5-d64-s2-even': (29, 16, '8001ad0944e1f20de8e9acec48f671b93da552fa822d4a633a4e81197def4782'),
    'f5-d256-s1-full': (94, 66, 'd9844ff2ea26a03a7dbc3bb6f65d778658eadb2f8a282a54d353ed0563674799'),
    'f5-d256-s1-even': (61, 42, '804f06a4a0da75b591290e43cb891304233f43d230607b4bd9bdf5b0cce7c7f0'),
    'f5-d256-s2-full': (88, 59, 'cbbf2ddbb7e217fc92b95ea8026a05cc503a651780c007de1e8d4888078915ac'),
    'f5-d256-s2-even': (61, 36, 'fce58537c55693dd0a4b185e7f23e7223a1d8ddba34f237061b2afae44d0491c'),
    'm61-d16-s1-full': (8, 2, 'ca32e5bc327c9caae93ead1f0a5579e5c3c9a0f5dcfa7b9388f78938eb12fc5a'),
    'm61-d16-s1-even': (8, 2, '83dc1bf9e2e3b7f4f129be91ab862e720c33f17389f9deb9c2cb6a41eda60f73'),
    'm61-d16-s2-full': (13, 4, '0fa59c2678bfa7f28f5f474432eedecc98ee7357b818839ebf4cf15eae1bc971'),
    'm61-d16-s2-even': (9, 3, '7b461e5ffa353fbf8cea6082e6e7b1ce91fd399c1928dc67ad1cf9db29393aea'),
    'm61-d64-s1-full': (21, 9, 'e4f14c65119485396261e0558dc9e56e82ca84d2d33d62eae74dbcd621604075'),
    'm61-d64-s1-even': (18, 7, '9e5b889c5bc1ac4baae41ae29acc3718367f77f93c26c98510b08cdfbf8ea455'),
    'm61-d64-s2-full': (19, 8, '9c17eff0af64d661b1cee541d6b3d955912bf1cc5e94e194106ef2bb5f4d31bf'),
    'm61-d64-s2-even': (17, 7, 'c0a55df53b20648911e6128da41d7b7b68522183ebc626a2fc986b7ed4ed0013'),
    'm61-d256-s1-full': (47, 23, '0551d83a558c508ff749067e15b92b2d2d1893eeef45ff0211aeed4cfb16f1b7'),
    'm61-d256-s1-even': (37, 15, '97ee8d1651a343f1144ab3a8f0928abcab3f91ba6f41a4438d801d5ce0e7d73a'),
    'm61-d256-s2-full': (39, 19, 'e03e016b654a93a8f64f85cbc6803201afcb5a3af4f18cac856fa9575aa49f94'),
    'm61-d256-s2-even': (27, 11, '3f1bd57aa05fa5802a0301df73ed7b4922d3a5590977814ce7a89c9023b4579e'),
    'q-d16-s1-full': (12, 4, '72132150bfe45663222cc54c0cabe0af6ce7b2116193fe5043ef890eb5d79f2e'),
    'q-d16-s1-even': (5, 2, '4a44012ee79a7a5a8337ed057531088cb1251fbc39643b534e1a007d6540a947'),
    'q-d16-s2-full': (11, 4, '35fbfae99b62958f98bae664b6d059ba47fd62a231e1d58d67d161d37c1b59de'),
    'q-d16-s2-even': (10, 3, '26ac89579d85ebf3abeb573f9f17f22d50b0f8ac4aeb17bd84122cab24893916'),
    'q-d64-s1-full': (19, 8, '3b802a93edc9cf6ccb2377ad86c6cb7c3ef15ba255b8a7eaa97afd789f15c125'),
    'q-d64-s1-even': (21, 9, '8e7d8d065850b7a6fe8755c6c0d038f478de4527d73b0f25125442b8583dc75e'),
    'q-d64-s2-full': (30, 14, '2b82c6e1ff14e6895b320f5e2ec7f47b803483928e1d6f4d4da6e50995660beb'),
    'q-d64-s2-even': (19, 8, '6aa42b35aa5ec93e45f028a67932de6f8d25ec83a4ce9ef4eed0f56b5c52c618'),
    'q-d256-s1-full': (48, 27, '655a9de219fabea07f560a41b908f46f369ae7f45b7b65544e094fbf2bbbbee7'),
    'q-d256-s1-even': (36, 18, '2aab9ff920bb07ef35083abf538abd15807984b7f53dd0ace04aa1745fac496b'),
    'q-d256-s2-full': (44, 26, 'b37cec61955985e261972f38f513b56e55994bda41c0a397a991ee54a8b35ad9'),
    'q-d256-s2-even': (30, 16, '5f34ed6619930fe29ecaf2a39c2e78122ccc2ccea061102af2d06ef213c0fdd8'),
}


if __name__ == "__main__":
    print("GOLDEN: dict[str, tuple[int, int, str]] = {")
    for case in CASES:
        print(f"    {case!r}: {summary(case)!r},")
    print("}")
