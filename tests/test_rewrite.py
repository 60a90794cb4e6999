"""Rewrite schemas, the simplifier, and proof-script checking."""

import hashlib
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zxzw.rewrite as rw
import zxzw.translate as tr
from helpers import random_diagram, reference_simplify
from zxzw.diagrams import Diagram, Gen, color_swap, h, iso_equal, seq, ten, white, x, z
from zxzw.dsl import parse, print_diagram
from zxzw.matrices import Matrix
from zxzw.phases import Phase
from zxzw.rings import Cyclo
from zxzw.semantics import EXACT, eq_semantic, interp

PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"


def test_fusion_adds_phases():
    d = seq(z(1, 1, F(1, 4)), z(1, 1, F(1, 4)))
    locs = rw.find(rw.FUSION, d)
    assert locs == [(0, 1)]
    fused = rw.apply(rw.FUSION, d, (0, 1))
    assert len(fused.nodes) == 1
    assert fused.nodes[0].phase == F(1, 2)
    assert interp(fused, EXACT) == Matrix.from_rows([[1, 0], [0, Cyclo.omega_power(2)]])


def test_fusion_eats_parallel_wires():
    d = seq(z(1, 2, F(1, 4)), z(2, 1, F(3, 4)))
    fused = rw.apply(rw.FUSION, d, (0, 1))
    assert len(fused.nodes) == 1 and len(fused.edges) == 2
    assert eq_semantic(d, fused)


def test_fusion_multiplies_white_parameters():
    d = seq(white(1, 1, Cyclo(0, 1)), white(1, 1, Cyclo(0, 0, 1)))
    fused = rw.apply(rw.FUSION, d, (0, 1))
    assert fused.nodes[0].param == Cyclo(0, 0, 0, 1)
    assert eq_semantic(d, fused)


def test_fusion_rejects_mixed_colors_and_stale_locations():
    d = seq(z(1, 1, 0), x(1, 1, 0))
    assert rw.find(rw.FUSION, d) == []
    with pytest.raises(rw.StaleLocation):
        rw.apply(rw.FUSION, d, (0, 1))
    fused = rw.apply(rw.FUSION, seq(z(1, 1, 0), z(1, 1, 0)), (0, 1))
    with pytest.raises(rw.StaleLocation):
        rw.apply(rw.FUSION, fused, (0, 1))


# for each schema: a diagram and locations that `find` does not list there
_STALE = {
    # (1, 0) names the listed pair (0, 1) the other way round
    "fusion": (seq(z(1, 1, 0), z(1, 1, 0)), [(1, 0), (0, 0), (0, 2)]),
    "identity-removal": (seq(z(1, 1, 0), z(1, 1, F(1, 4))), [1, 2]),
    "h-cancel": (seq(h(), h(), z(1, 1, 0)), [(1, 0), (1, 2), (0, 2)]),
    # the matcher pairs the first +pi/2 dot with the first -pi/2 dot
    "scalar-merge": (
        ten(z(0, 0, F(1, 2)), z(0, 0, F(1, 2)), x(0, 0, F(3, 2))),
        [("pair", 1, 2), ("pair", 2, 0), ("two", 0)],
    ),
    "hopf": (seq(z(1, 2, 0), x(2, 1, 0), z(1, 1, 0)), [(1, 0), (1, 2)]),
    "color-change": (seq(z(1, 1, 0), x(1, 1, 0)), [0, 2]),
}


@pytest.mark.parametrize("schema", rw.ALL_SCHEMAS, ids=lambda s: s.name)
def test_apply_refuses_every_location_find_does_not_list(schema):
    d, stale = _STALE[schema.name]
    listed = rw.find(schema, d)
    assert listed and not set(stale) & set(listed)
    assert eq_semantic(d, rw.apply(schema, d, listed[0]))
    for loc in stale:
        with pytest.raises(rw.StaleLocation, match=f"{schema.name} does not apply at"):
            rw.apply(schema, d, loc)


def test_fusion_keeps_self_loops_on_the_merged_spider():
    # node 0 is Z 1->3 with outputs 1 and 2 joined, node 1 is Z 2->1 with
    # input 1 joined to its output; they share one wire
    zero = Phase.ZERO
    d = Diagram(
        "zx",
        [Gen("Z", 1, 3, zero), Gen("Z", 2, 1, zero)],
        [
            (("i", 0), ("n", 0, 0)),
            (("n", 0, 1), ("n", 0, 2)),
            (("n", 0, 3), ("n", 1, 0)),
            (("n", 1, 1), ("n", 1, 2)),
        ],
        1,
        0,
    )
    fused = rw.apply(rw.FUSION, d, (0, 1))
    # merged ports: inputs (0, 0) and (1, 1), then outputs (0, 1), (0, 2) and (1, 2)
    assert fused == Diagram(
        "zx",
        [Gen("Z", 2, 3, zero)],
        [(("i", 0), ("n", 0, 0)), (("n", 0, 1), ("n", 0, 4)), (("n", 0, 2), ("n", 0, 3))],
        1,
        0,
    )
    assert eq_semantic(d, fused)


def test_identity_chain_collapses_to_wire():
    chain = seq(*[z(1, 1, 0)] * 5)
    out, trace = rw.simplify(chain)
    assert not out.nodes and out.shape == (1, 1)
    assert [name for name, _ in trace] == ["fusion"] * 4 + ["identity-removal"]


def test_minimal_diagram_is_left_alone():
    d = z(1, 2, F(1, 4))
    out, trace = rw.simplify(d)
    assert out is d and trace == []


def test_identity_removal_of_closed_spider_makes_a_circle():
    d = seq(Diagram.cap(), z(1, 1, 0).tensor(Diagram.identity(1)), Diagram.cup())
    out = rw.apply(rw.IDENTITY_REMOVAL, d, 0)
    assert not out.nodes and out.loops == d.loops + 1
    assert eq_semantic(d, out)


def test_h_cancel_single_and_doubled():
    d = seq(h(), h())
    out = rw.apply(rw.H_CANCEL, d, (0, 1))
    assert not out.nodes and eq_semantic(d, out)
    closed = seq(Diagram.cap(), d.tensor(Diagram.identity(1)), Diagram.cup())
    out2 = rw.apply(rw.H_CANCEL, closed, (0, 1))
    assert out2.loops == 1 and eq_semantic(closed, out2)


def test_scalar_merge_folds_dots_into_circles():
    d = ten(z(0, 0, 0), z(0, 0, F(1, 2)), x(0, 0, F(3, 2)))
    out, trace = rw.simplify(d)
    assert not out.nodes and out.loops == 2
    assert eq_semantic(d, out)
    assert {name for name, _ in trace} == {"scalar-merge"}


def test_hopf_fires_on_doubled_edge_only():
    d = seq(z(1, 2, F(1, 4)), x(2, 1, F(3, 4)))
    assert rw.find(rw.HOPF, d) == [(0, 1)]
    single = seq(z(1, 1, F(1, 4)), x(1, 1, F(3, 4)))
    assert rw.find(rw.HOPF, single) == []
    out = rw.apply(rw.HOPF, d, (0, 1))
    assert eq_semantic(d, out)
    assert rw.HOPF not in rw.DEFAULT_STRATEGY  # it grows the diagram


def test_color_change_wraps_legs_in_hadamards():
    d = x(2, 1, F(1, 4))
    out = rw.apply(rw.COLOR_CHANGE, d, 0)
    kinds = [g.kind for g in out.nodes]
    assert kinds.count("H") == 3 and kinds.count("Z") == 1
    assert eq_semantic(d, out)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["zx", "zxt", "zw"]))
def test_simplify_preserves_semantics(seed, tag):
    rng = random.Random(seed)
    d = random_diagram(rng, tag=tag, max_nodes=5)
    out, trace = rw.simplify(d)
    assert len(out.nodes) <= len(d.nodes)
    assert eq_semantic(d, out)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_opt_in_schemas_preserve_semantics(seed):
    rng = random.Random(seed)
    d = random_diagram(rng, tag="zx", max_nodes=5)
    out, _ = rw.simplify(d, strategy=rw.ALL_SCHEMAS, fuel=40)
    assert eq_semantic(d, out)


def test_simplify_respects_fuel():
    chain = seq(*[z(1, 1, 0)] * 5)
    out, trace = rw.simplify(chain, fuel=2)
    assert len(trace) == 2 and len(out.nodes) == 3


def test_simplify_refuses_negative_fuel():
    with pytest.raises(ValueError, match="fuel must be non-negative"):
        rw.simplify(seq(*[z(1, 1, 0)] * 5), fuel=-1)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["zx", "zxt", "zw"]),
    st.sampled_from([rw.DEFAULT_STRATEGY, rw.ALL_SCHEMAS]),
    st.sampled_from([1, 2, 3, 5, None]),
)
def test_simplify_matches_one_site_per_step(seed, tag, strategy, fuel):
    d = random_diagram(random.Random(seed), tag=tag, max_nodes=8)
    out, trace = rw.simplify(d, strategy, fuel)
    ref, ref_trace = reference_simplify(d, strategy, fuel)
    assert print_diagram(out) == print_diagram(ref)
    assert trace == ref_trace


@pytest.mark.parametrize(
    "d, trace",
    [
        # cancelling the first H pair makes a new one: taking the next
        # listed pair instead would differ
        (
            random_diagram(random.Random(416), tag="zx", max_nodes=8),
            [("h-cancel", (0, 1)), ("h-cancel", (2, 4))],
        ),
        # each cancelled pair makes a fusion site, taken before the next pair
        (
            parse("(seq " + " ".join(["(Z 1 1 pi/4) H H"] * 4) + ")"),
            [("h-cancel", (1, 2)), ("fusion", (0, 1))] * 3 + [("h-cancel", (1, 2))],
        ),
        # the pair (1, 2) becomes (0, 1) once 0 and 2 fuse, so the merged
        # spider has node 2's legs before node 1's
        (
            parse("(seq (ten (Z 1 1 pi/4) (Z 1 2 pi/2)) (ten (Z 2 2 0) id))"),
            [("fusion", (0, 2)), ("fusion", (0, 1))],
        ),
    ],
    ids=["h-chain", "cancel-then-fuse", "fusion-order"],
)
def test_simplify_rounds_end_where_one_site_per_step_turns(d, trace):
    out, steps = rw.simplify(d)
    ref, ref_trace = reference_simplify(d)
    assert steps == ref_trace == trace
    assert out == ref and print_diagram(out) == print_diagram(ref)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["zx", "zxt", "zw"]),
    st.sampled_from([rw.DEFAULT_STRATEGY, rw.ALL_SCHEMAS]),
)
def test_trace_replays_to_the_simplified_diagram(seed, tag, strategy):
    d = random_diagram(random.Random(seed), tag=tag, max_nodes=8)
    out, trace = rw.simplify(d, strategy, 40)
    by_name = {s.name: s for s in strategy}
    for name, loc in trace:
        d = rw.apply(by_name[name], d, loc)
    assert d == out


# -- pinned outputs of the simplifier and of every `graft` caller ----------------

# (input, printed simplification, trace, SHA-256 of the printed translation
# (zx_to_zw, or zw_to_zx for a zw input), round trip, colour swap and
# triangle expansion).  An input is diagram text, or the seed and calculus of
# `random_diagram(random.Random(seed), tag=calculus, max_nodes=6)`.
GOLDEN = [
    (
        '(seq cap (ten (Z 1 1 0) id) cup)',
        '(seq cap cup)',
        [('identity-removal', 0)],
        (
            'a3994d028176fc38cf19ec8314e508216c77c0078f4f0dd008677b0d43255b94',
            '826eff7cab729b2065aff894dd624a472b0e503c06ba14c1f66411a775cf5254',
            '45cc35343ad64ccda85dd676e08a150f53d20569e308ecdece60e982489140be',
        ),
    ),
    (
        '(seq cap (ten (seq H H) id) cup)',
        '(seq cap cup)',
        [('h-cancel', (0, 1))],
        (
            'c7e97a4ed05dae628a9517beda1388f72b4bf5be185524542ab13c7199671366',
            'b03f3cb2c8a656faee14c5ec6e40728c16eb9f27bb40975a63a0d4d1d0a8f444',
            'd1970945a0e7d01cd038f5948dd5ee1f4efa86fa7e4dc414d27c2ddae3f0f781',
        ),
    ),
    (
        '(seq H H H)',
        'H',
        [('h-cancel', (0, 1))],
        (
            '72ae6e18ceaa638cd4a2397a795f2ebf8eb08a5197b50171e54b4d3cfd199365',
            '85220224e930cfe2dd9d6c5e09df369fc25640bb557d0f1ac10cc7821df15949',
            '6b6ec5572c4d5aca60b289adf8fa6ff70d0955879124a110299d5740f2e0b544',
        ),
    ),
    (
        '(ten (Z 0 0 0) (Z 0 0 pi/2) (X 0 0 3*pi/2) (X 0 0 pi/2))',
        '(ten (X 0 0 pi/2) (seq cap cup) (seq cap cup))',
        [('scalar-merge', ('pair', 1, 2)), ('scalar-merge', ('two', 0))],
        (
            'c91ffdd81330893dfaaafa1fb44b9dfd96e888ba9cd26ccc10c36f11907de6e2',
            '5f4d6fc59d0895eb30f942fa6960778cb280badf0aa2824fa163638a4ad4e68b',
            '806b1bd17f57ef9e15164e4b14b9310eb238f0a8db36bf5746e57555bf0726d1',
        ),
    ),
    (
        '(seq (Z 1 1 pi/4) (Z 1 1 pi/4) (Z 1 2 0) (Z 2 1 pi/2) (Z 1 1 0))',
        '(Z 1 1 pi)',
        [('fusion', (0, 1)), ('fusion', (0, 1)), ('fusion', (0, 1)), ('fusion', (0, 1))],
        (
            '96091baf0eb7f36b57fc3bcf041169d48efa05a20022ce967b9e882beb460564',
            '04f3cf214d64e37a000e8381595d94df014eb8bfba6d15f22fd8a114976a35f4',
            'bbbc8915312eb43bae638158f2db9e12c4e5dbaaedf407f402f32ea26092cda2',
        ),
    ),
    (
        '(seq (X 1 2 pi) (ten H (X 1 1 0)) (X 2 1 pi/4) H)',
        '(seq (ten id cap cap cap) (perm 0 1 4 2 5 3 6) (ten (X 2 2 5*pi/4) H H id id id) (perm 3 5 1 0 2 4 6) (ten id cup cup cup))',
        [('fusion', (0, 2)), ('fusion', (0, 2))],
        (
            'd2e9206083479fddfb086d45d47a215e6d6d2573ef0aad6a6e04a1a80e68f872',
            '10d1b55a0b23897fd6abe25d51291ee899a7d9ddb8aa839edcb245c4df2ccd8e',
            '2e0ec85e071ca5e52a853c92d3ccc626533b6b532ecc591abaa06a2877e89036',
        ),
    ),
    (
        '(seq (wz 1 1 2) (wz 1 2 -1) (wz 2 1 cyclo:0,1,0,0,0) (W 1 1))',
        '(seq (ten id cap) (ten (wz 1 1 cyclo:0,-2,0,0,0) (W 1 1) id) (perm 1 0 2) (ten id cup))',
        [('fusion', (0, 1)), ('fusion', (0, 1))],
        (
            'af383925867f9bfdd9fbcc23796453ccd2974147c99268bed723fa696c6a9a68',
            None,
            None,
        ),
    ),
    (
        '(seq (wz 1 1 1) (W 1 2) (ten (wz 1 1 2) (wz 1 1 3)) (zw-cross))',
        '(seq (ten id cap cap cap cap cap) (perm 0 1 6 2 7 3 8 4 9 5 10) (ten (wz 1 1 1) (W 1 2) (wz 1 1 2) (wz 1 1 3) (zw-cross) id id id id id) (perm 2 4 6 8 10 0 1 3 5 7 9 11) (ten id id cup cup cup cup cup))',
        [],
        (
            'c0e948b6494a792a72813780f535a810341a0e9552d6d2249463f76f21380a3d',
            None,
            None,
        ),
    ),
    (
        '(seq (Z 1 1 pi/2) (tri 1) (Z 1 1 0) (tri -1) (X 1 1 pi))',
        '(seq (ten id cap cap cap) (perm 0 1 4 2 5 3 6) (ten (Z 1 1 pi/2) (tri 1) (tri -1) (X 1 1 pi) id id id) (perm 1 3 5 0 2 4 6) (ten id cup cup cup))',
        [('identity-removal', 2)],
        (
            '41387a31826b1fa1b8f47062dbe41308ad2c67ad77ffb2df812a62d589a918b5',
            'a92f636ef203071fbed3533652769dfaeb86acc172d35b9afca8fc7836ba8523',
            '931482eb3b5218d8afb4cf3987a1fc8a5f86ff7836953709210cea488c1d6d0b',
        ),
    ),
    (
        '(seq (Z 1 1 0) H (X 1 1 0))',
        'H',
        [('identity-removal', 0), ('identity-removal', 1)],
        (
            '878898405d841d08b797b41362d35e88a69a72240fceede7341eef714b11b237',
            'a9682bef00d68e0644966945035c51aa5fe36587e0f58b056d2750c0521cb823',
            '4c242769fb40dddafa87b01085af1960905541721596352eaf9f5793ae67478d',
        ),
    ),
    (
        '(seq (X 1 1 pi/2) H H (Z 1 1 pi/4))',
        '(seq (ten id cap) (ten (X 1 1 pi/2) (Z 1 1 pi/4) id) (perm 1 0 2) (ten id cup))',
        [('h-cancel', (1, 2))],
        (
            'aecc05cc4ccd35e381a4a384e928cd046b7f467b62255fc60368f9e8359ae4df',
            'cb79d495823b69f249004f3f7f3c17f93ad25958ae096ab03fd46962a53d9ff7',
            '920d6d3f56a133db7a60e65de86a4ca1fd00f86ec6aab64476bee737d77c73fe',
        ),
    ),
    (
        (5, 'zx'),
        '(seq (perm 1 0) (ten (Z 1 0 0) (Z 0 1 7*pi/4) id) (perm 1 0))',
        [('h-cancel', (0, 3)), ('h-cancel', (0, 1))],
        (
            '3d1d1d321c835ba4516b7947441496e57ed147e5155fa9e82088e686811f12b0',
            '5df3e152ba0659f7d85573080ce47a0825dbc89563d2fd2cac400bb061449e42',
            '242f5c7f9fd9c7dcaa69b6e48d8e923a09b6f829545d0d708f8e310f9537ef3b',
        ),
    ),
    (
        (20, 'zx'),
        '(seq (ten id cap) (perm 1 0 2) (ten (Z 0 2 pi/2) (Z 1 0 0) id id) (perm 2 3 0 1) (ten id id cup))',
        [('fusion', (1, 2)), ('fusion', (1, 2)), ('h-cancel', (0, 2))],
        (
            '16167450e44433df3d3c9b1a6d284a4a86632b81807468f5bc7580e97f6b0812',
            '48e6aa3fcb6eda9204334f377e114bfb832a43822a954e8cb70589f9d0d3ebc3',
            '290e04818e095d6af003e643ea103e8f6980e12b8d23eddc9fbc9492a8c959cf',
        ),
    ),
    (
        (26, 'zx'),
        '(ten id (seq cap cup))',
        [('fusion', (2, 3)), ('h-cancel', (0, 1)), ('scalar-merge', ('two', 0))],
        (
            '68ba27f342057fca910e3b886f8649995bf4f7e7746e7721dfd3523ecf55e5f7',
            '9ee491d7b53af7a60c99c441f66c19cdd070d9e105ca540151e5f0acc9bd724a',
            '1e555b7db5afa3c8ef9ce64d82da5681c649b926b59c74c0e30891de3ecee260',
        ),
    ),
    (
        (34, 'zx'),
        '(ten (seq (ten id id cap cap) (perm 3 0 1 4 2 5) (ten (Z 2 1 pi) (X 1 2 0) id id id) (perm 4 2 0 1 3 5) (ten cup cup cup)) (seq cap cup))',
        [('fusion', (0, 3)), ('fusion', (0, 1)), ('fusion', (0, 1)), ('fusion', (0, 1))],
        (
            '41e14545b48f6c140a323493b1669b6811d52691e1b4db8e3fade18abcb50bf8',
            '062ac86dc88788c1a41f5293be5dd725d36e676734935bdc7bdff36134917b93',
            '1ec45a09e20cbad44f11ea3e03c29fb3609f2f042f57271d0e3e2a6093dccf01',
        ),
    ),
    (
        (13, 'zxt'),
        '(ten (seq (ten id id cap cap cap) (perm 0 5 1 3 4 6 2 7) (ten (X 2 2 7*pi/4) H (Z 1 0 0) (Z 1 0 0) id id id) (perm 2 4 3 0 5 1) (ten id id cup cup)) (seq cap cup))',
        [('fusion', (0, 1)), ('fusion', (0, 1))],
        (
            'e0b73f950286bcdac8468caa08869e796590689d2817804864a226d6776a8be3',
            'fa3c149c490a36b7e5b1377ca7fc98f3fb8bbc4ed6701d427dc07296835c3ae8',
            '81e1903d24bd290e11d52e65280351bcd1d4c970003b6eafdd2103b6c36c87dc',
        ),
    ),
    (
        (62, 'zxt'),
        '(ten (seq (ten id cap cap) (perm 3 0 4 1 2) (ten (X 2 0 pi) (Z 2 1 3*pi/4) id) cup) (seq cap cup))',
        [('fusion', (0, 1)), ('fusion', (0, 4)), ('fusion', (1, 2)), ('fusion', (1, 2))],
        (
            '7255114306854b1296a500848b3e83daa65d73666e49f7484e76779db8fa59e3',
            'edacb7d22824a9487f72da73a77c5ac2937f3c8ac325fe211e42b2e62eeb6d20',
            'cf83625a82411cb97dc8721c24f7544d2bf038a3a8ec3e85da4069d2818edd4b',
        ),
    ),
    (
        (111, 'zxt'),
        '(ten (seq (ten id cap) (perm 2 0 1) (ten (X 1 1 3*pi/4) (Z 1 0 0) id)) (seq cap cup))',
        [('fusion', (0, 1)), ('fusion', (0, 1))],
        (
            '095d9e4f88d93a3488057ad705c5b1fe77b713c82dcb47032874a8819cf7a9ae',
            '1d972b28c8e71386aa37472b01d8c73fcf86ddb55a8f6dbd21e93811b10e3ee7',
            '3f6073b876d5cb8de04de4d800e2d49f86b05e185b6fdfc35d003d87be1ab534',
        ),
    ),
    (
        (20, 'zw'),
        '(seq (ten id cap) (perm 2 0 1) (ten (wz 0 2 -1) half (zw-cross) (wz 1 0 1)) (perm 2 1 0 3) (ten id id cup))',
        [('fusion', (0, 1)), ('fusion', (0, 1))],
        (
            'f50cbff40dffad0408aae16d7b69610e423220d00ad8f3c5e633029dd2da773d',
            None,
            None,
        ),
    ),
    (
        (131, 'zw'),
        '(seq (ten id id cap cap) (perm 4 0 1 5 2 3) (ten half (wz 1 0 1) (zw-cross) (wz 1 2 2) half id id) (perm 4 2 1 5 0 3) (ten id id cup cup))',
        [('fusion', (1, 6)), ('fusion', (3, 4))],
        (
            '48db532e5c81f8b30e33593ca3701e82ffa58d9018a7468e072eb131ebfe3e81',
            None,
            None,
        ),
    ),
    (
        (183, 'zw'),
        '(ten (seq cap (ten (wz 1 1 1) (wz 0 0 2) half (W 1 1)) cup) (seq cap cup))',
        [('fusion', (0, 1)), ('fusion', (1, 4))],
        (
            'adf0c966eb62814324ad0726341dd47d8e6f40146c937329c5fe25bce2fd78d8',
            None,
            None,
        ),
    ),
]


def _sha(d):
    return hashlib.sha256(print_diagram(d).encode()).hexdigest()


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: str(c[0]))
def test_pinned_simplify_and_graft_outputs(case):
    key, printed, trace, hashes = case
    if isinstance(key, str):
        d = parse(key)
    else:
        d = random_diagram(random.Random(key[0]), tag=key[1], max_nodes=6)
    out, steps = rw.simplify(d)
    assert print_diagram(out) == printed
    assert steps == trace
    if d.tag == "zw":
        assert (_sha(tr.zw_to_zx(d)), None, None) == hashes
    else:
        got = (tr.zx_to_zw(d), tr.round_trip(d), color_swap(d))
        assert tuple(map(_sha, got)) == hashes


_PHASES = ("0", "pi/4", "pi/2", "3*pi/4", "pi", "5*pi/4", "3*pi/2", "7*pi/4")
_CNOT = "(seq (ten (Z 1 2 0) id) (ten id (X 2 1 0)))"


def _layered_circuit(rng, wires, atoms):
    """Circuit text of about `atoms` atoms over `wires` wires: three blocks
    of one-colour phase gates per wire (which fuse), one Hadamard pair per
    wire (which cancels), CNOTs at a quarter and three quarters of the
    layers, and some idle wires."""
    layers = max(1, atoms // wires)
    flips = (layers // 3, 2 * layers // 3)
    cnots = {layers // 4: 0, 3 * layers // 4: wires - 2} if wires > 1 else {}
    h_pair = [rng.randrange(layers) for _ in range(wires)]
    rows = []
    for t in range(layers):
        if t in cnots:
            c = cnots[t]
            row = ["id"] * c + [_CNOT] + ["id"] * (wires - c - 2)
        else:
            row = []
            for w in range(wires):
                colour = "ZX"[(w + sum(t >= f for f in flips)) % 2]
                if t == h_pair[w]:
                    row.append("(seq H H)")
                elif rng.random() < 0.15:
                    row.append("id")
                else:
                    row.append(f"({colour} 1 1 {rng.choice(_PHASES)})")
        rows.append("(ten " + " ".join(row) + ")" if len(row) > 1 else row[0])
    return "(seq\n  " + "\n  ".join(rows) + ")"


@pytest.mark.parametrize(
    "seed, wires, atoms, nodes, digest",
    [
        (1, 2, 100, 87, "50397cfc38c28ccfa427fccb3da6995326aee489c397a02c033129c1e23c8b6c"),
        (2, 3, 200, 171, "60ec2a154b3ac9459ae005f3df399e23825bd1bfa2ef6a39eb3bc49a8c13ee1b"),
        (3, 4, 300, 257, "5e510608233dcdcf8875a5909ff1bd4e9b8f37aff88f0e97155a62b437bd793d"),
    ],
)
def test_pinned_simplify_of_large_circuits(seed, wires, atoms, nodes, digest):
    # the printed simplification and its trace, recorded before diagram
    # construction was made cheaper
    d = parse(_layered_circuit(random.Random(seed), wires, atoms))
    assert len(d.nodes) == nodes
    out, trace = rw.simplify(d)
    text = print_diagram(out) + "\n" + repr(trace)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_simplify_of_a_long_chain_takes_seconds():
    # rounds keep this linear; one site per step, rebuilding the whole
    # diagram at each step, is quadratic: about 66 s here
    d = parse(_layered_circuit(random.Random(1), 1, 6000))
    assert len(d.nodes) >= 5000
    start = time.perf_counter()
    out, _ = rw.simplify(d)
    assert time.perf_counter() - start < 10
    assert len(out.nodes) == 3 and eq_semantic(d, out)


# -- proof scripts ---------------------------------------------------------------


def _load(name):
    return rw.parse_proof((PROOF_DIR / name).read_text())


@pytest.mark.parametrize(
    "name", ["pi-commutation.zxp", "w-unit.zwp", "triangle-fusion.zxp"]
)
def test_shipped_proofs_pass(name):
    result = rw.check_proof(_load(name))
    assert result.ok, result.failures


def test_proof_structure():
    script = _load("pi-commutation.zxp")
    assert script.name == "pi-commutation"
    assert script.axiom_set == "zx-pi4"
    assert len(script.steps) == 3
    assert script.citations == (("K",), ("H",))


def test_single_step_proof_passes():
    res = rw.check_proof(rw.parse_proof("proof t\nset zx-pi2\n(Z 1 1 pi)\n"))
    assert res.ok and res.n_steps == 1


VARIABLE_PROOF = "proof var\nset zx-pi2\n(seq (Z 1 1 a) (Z 1 1 0))\nby S\n(Z 1 1 a)\n"
FLOAT_VARIABLE_PROOF = "proof var\nset zx-pi2\n(seq (Z 1 1 a) (Z 1 1 0.5))\nby S\n(Z 1 1 a+0.5)\n"


def test_proof_steps_with_phase_variables_are_sampled():
    # exact constants: proved for every phase, so nothing is only sampled
    res = rw.check_proof(rw.parse_proof(VARIABLE_PROOF), seed=3)
    assert res.ok and res.sampled_steps == 0
    assert res.to_json()["sampled_steps"] == 0
    floats = rw.check_proof(rw.parse_proof(FLOAT_VARIABLE_PROOF), seed=3)
    assert floats.ok and floats.sampled_steps == 1
    assert floats.to_json()["sampled_steps"] == 1
    # a refuted step comes with a falsifying valuation: it is not sampled
    wrong = rw.check_proof(rw.parse_proof(VARIABLE_PROOF.replace("(Z 1 1 0)", "(Z 1 1 pi)")))
    assert [f["step"] for f in wrong.failures] == [0] and wrong.sampled_steps == 0
    shifted = rw.check_proof(rw.parse_proof(VARIABLE_PROOF.replace("(Z 1 1 a)\n", "(Z 1 1 a+pi)\n")))
    assert [f["step"] for f in shifted.failures] == [0] and shifted.sampled_steps == 0
    assert shifted.to_json()["sampled_steps"] == 0


def test_corrupted_phase_fails_at_first_transition():
    text = (PROOF_DIR / "pi-commutation.zxp").read_text()
    res = rw.check_proof(rw.parse_proof(text.replace("7*pi/4", "5*pi/4")))
    assert not res.ok
    assert res.failures[0]["step"] == 0


def test_corrupted_middle_step_fails_both_transitions():
    text = (PROOF_DIR / "triangle-fusion.zxp").read_text()
    res = rw.check_proof(rw.parse_proof(text.replace("(tri 2)", "(tri 3)")))
    assert [f["step"] for f in res.failures] == [0, 1]


def test_citation_outside_set_fails():
    text = (PROOF_DIR / "pi-commutation.zxp").read_text()
    res = rw.check_proof(rw.parse_proof(text.replace("by K", "by IV")))
    assert not res.ok
    assert "IV" in res.failures[0]["reason"]


@pytest.mark.parametrize(
    "set_name, steps, bad",
    [
        ("zw", ["(Z 1 1 0)", "(Z 1 1 0)"], [(0, "zx"), (1, "zx")]),
        ("zw-half", ["(seq (W 1 1) (W 1 1))", "(Z 1 1 0)"], [(1, "zx")]),
        ("zx-pi2", ["(seq (W 1 1) (W 1 1) (W 1 1))", "(W 1 1)"], [(0, "zw"), (1, "zw")]),
        ("zx-pi4", ["(tri 2)", "(tri 2)"], [(0, "zxt"), (1, "zxt")]),
        ("zx-t", ["(seq (tri 1) (tri 1))", "(tri 2)"], []),
        ("zx-t", ["(Z 1 1 0)", "id"], []),
        ("zw-half", ["(ten half (seq cap cup))", "empty"], []),
        ("zx-pi4", ["(seq (Z 0 1 pi/4) (X 1 0 7*pi/4))", "empty"], []),
    ],
)
def test_proof_steps_must_be_diagrams_of_the_sets_calculus(set_name, steps, bad):
    # every step is equal to the next and cites a rule of the set, so only
    # the calculus can fail
    cite = f"\nby {rw._rules.axiom_set(set_name).rules[0].name}\n"
    text = f"proof c\nset {set_name}\n" + cite.join(steps)
    res = rw.check_proof(rw.parse_proof(text))
    assert [(f["step"], f["tag"]) for f in res.failures] == bad
    assert res.ok == (not bad)
    assert all(f["reason"] == f"a {t} diagram, which set {set_name!r} cannot hold"
               for f, (_, t) in zip(res.failures, bad))


def test_malformed_scripts_raise():
    with pytest.raises(rw.ProofError):
        rw.parse_proof("set zx-pi2\n(Z 1 1 pi)\n")
    with pytest.raises(rw.ProofError):
        rw.parse_proof("proof p\nset zx-pi2\n(Z 1 1 pi)\nby S\n")
    with pytest.raises(rw.ProofError):
        rw.parse_proof("proof p\nset zx-pi2\n(Z 1 1 pi//4)\n")


def test_proof_step_parse_errors_carry_file_lines():
    # the bad phase is on line 6 of the file, line 2 of its step's block
    text = "proof p\nset zx-pi2\n(Z 1 1 pi/4)\nby S\n(seq (Z 1 1 pi/8)\n  (Z 1 1 frob/2))\n"
    with pytest.raises(rw.ProofError, match=r"^step 1 of proof 'p': line 6, col 10: "):
        rw.parse_proof(text)
    with pytest.raises(rw.ProofError, match=r"^step 0 of proof 'p': line 4, col 1: unknown atom"):
        rw.parse_proof("; a proof\nproof p\nset zx-pi2\nfrob\nby S\n(Z 1 1)\n")
