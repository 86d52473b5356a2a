import numpy as np
import pytest

from cosetcq.channels import (
    EX2_SIGMA0,
    EX2_SIGMA1,
    CqChannel,
    CqState,
    InputDistribution,
    binary_input_distribution,
    binary_split_distribution,
    classical_conditional_entropy,
    classical_quantum_mi,
    cq_entropy,
    cq_mutual_information,
    example1_channel,
    example2_channel,
    example2_mix,
    is_3to1,
    label_entropy,
    sigma1,
    sigma2,
    split_sigma1,
    split_sigma_receiver,
)
from cosetcq.linalg import DensityOperator
from cosetcq.regions import conv, hb


def test_qubit_pair_entries():
    np.testing.assert_allclose(EX2_SIGMA0, np.diag([2 / 3, 1 / 3]), atol=1e-15)
    np.testing.assert_allclose(
        EX2_SIGMA1, np.array([[0.5, 1 / 6], [1 / 6, 0.5]]), atol=1e-15
    )


def test_example2_mix_is_affine():
    np.testing.assert_allclose(example2_mix(1.0), EX2_SIGMA0)
    np.testing.assert_allclose(example2_mix(0.0), EX2_SIGMA1)
    p = 0.37
    np.testing.assert_allclose(
        example2_mix(p), p * EX2_SIGMA0 + (1 - p) * EX2_SIGMA1, atol=1e-15
    )
    # every mixture is a valid state
    DensityOperator(example2_mix(0.62))


def test_example_channels_are_3to1():
    for chan in (example1_channel(0.05, 0.1), example2_channel(0.05, 0.2)):
        ok, witness = is_3to1(chan)
        assert ok and witness is None


def test_is_3to1_flags_a_cross_dependence():
    # receiver 2 sees x1 instead of x2
    states = {}
    for x1 in range(2):
        for x2 in range(2):
            for x3 in range(2):
                mat = np.kron(
                    np.kron(np.diag([1.0 - x1, float(x1)]), np.diag([1.0 - x1, float(x1)])),
                    np.diag([1.0 - x3, float(x3)]),
                )
                states[(x1, x2, x3)] = DensityOperator(mat)
    chan = CqChannel((2, 2, 2), (2, 2, 2), states, (np.zeros(2),) * 3)
    ok, witness = is_3to1(chan)
    assert not ok
    assert witness[0] == 2
    # the witness pair really does differ in x1
    assert witness[1][0] != witness[2][0]


def test_channel_validation():
    states = {
        (x1, x2, x3): DensityOperator(np.eye(8) / 8)
        for x1 in range(2)
        for x2 in range(2)
        for x3 in range(2)
    }
    del states[(1, 1, 1)]
    with pytest.raises(ValueError, match="missing"):
        CqChannel((2, 2, 2), (2, 2, 2), states, (np.zeros(2),) * 3)


def test_input_distribution_marginals():
    dist = binary_input_distribution(0.3)
    np.testing.assert_allclose(dist.p_x1, [0.7, 0.3])
    np.testing.assert_allclose(dist.p_v2, [0.5, 0.5])
    np.testing.assert_allclose(dist.p_u(), [0.5, 0.5])
    with pytest.raises(ValueError, match="probability"):
        InputDistribution(2, [0.5, 0.6], np.eye(2) / 2, np.eye(2) / 2)


def test_cost_expectations():
    chan = example1_channel(0.1, 0.1)
    dist = binary_input_distribution(0.25)
    np.testing.assert_allclose(dist.cost_expectations(chan), [0.25, 0.0, 0.0])


def test_sigma1_blocks_by_hand():
    """On the parity channel the (x1, u) block is a flipped diagonal qubit."""
    delta1 = 0.05
    chan = example1_channel(delta1, 0.1)
    s1 = sigma1(chan, binary_input_distribution(0.3))
    assert s1.registers == ("x1", "u")
    assert set(s1.blocks) == {(x1, u) for x1 in range(2) for u in range(2)}
    for (x1, u), (p, mat) in s1.blocks.items():
        expected_p = (0.7 if x1 == 0 else 0.3) * 0.5
        assert p == pytest.approx(expected_p, abs=1e-12)
        parity = (x1 + u) % 2
        want = np.diag([1.0 - delta1, delta1] if parity == 0 else [delta1, 1.0 - delta1])
        np.testing.assert_allclose(mat, want, atol=1e-12)


def test_sigma2_weights_and_mixture():
    chan = example2_channel(0.05, 0.2)
    dist = binary_input_distribution(0.4)
    s2 = sigma2(chan, dist)
    assert s2.registers == ("v2", "v3")
    total = sum(p for p, _ in s2.blocks.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    # the unconditional mixture equals the direct channel average
    direct = np.zeros((8, 8), dtype=complex)
    for x1 in range(2):
        for x2 in range(2):
            for x3 in range(2):
                w = dist.p_x1[x1] * 0.5 * 0.5
                direct += w * chan.states[(x1, x2, x3)].matrix
    np.testing.assert_allclose(s2.mixture(), direct, atol=1e-12)


def test_conditional_holevo_matches_binary_closed_form():
    # I(X1 ; Y1 | U) on the parity channel is hb(conv(tau, delta1)) - hb(delta1)
    tau, delta1 = 0.2, 0.05
    chan = example1_channel(delta1, 0.1)
    s1 = sigma1(chan, binary_input_distribution(tau))
    got = cq_mutual_information(s1, ("x1",), ("u",))
    assert got == pytest.approx(hb(conv(tau, delta1)) - hb(delta1), abs=1e-12)


def test_unconditional_holevo_on_commuting_channel():
    # averaging over the uniform u scrambles the parity completely, so
    # I(X1; Y1) vanishes while I(X1; Y1 | U) is the full flip-channel rate
    chan = example1_channel(0.1, 0.1)
    s1 = sigma1(chan, binary_input_distribution(0.5))
    assert cq_mutual_information(s1, ("x1",)) == pytest.approx(0.0, abs=1e-12)
    assert cq_mutual_information(s1, ("x1",), ("u",)) == pytest.approx(
        1.0 - hb(0.1), abs=1e-12
    )


def test_label_entropy_and_cq_entropy():
    chan = example1_channel(0.05, 0.1)
    s1 = sigma1(chan, binary_input_distribution(0.3))
    assert label_entropy(s1, ("u",)) == pytest.approx(1.0, abs=1e-12)
    assert label_entropy(s1, ("x1",)) == pytest.approx(hb(0.3), abs=1e-12)
    # block-diagonal state: S = H(labels) + average block entropy
    want = hb(0.3) + 1.0 + hb(0.05)
    assert cq_entropy(s1) == pytest.approx(want, abs=1e-12)
    # bare quantum mixture of the parity channel is uniform
    assert cq_entropy(s1, ()) == pytest.approx(1.0, abs=1e-12)


def test_classical_quantum_mi_reduces_to_shannon():
    chan = example1_channel(0.05, 0.1)
    s1 = sigma1(chan, binary_input_distribution(0.3))
    # I(X1 ; U, Y1): the quantum part adds hb(conv(.)) - hb(delta1) on top
    # of the (zero) classical dependence between x1 and u
    got = classical_quantum_mi(s1, ("x1",), ("u",))
    want = cq_mutual_information(s1, ("x1",), ("u",))
    assert got == pytest.approx(want, abs=1e-12)


def test_classical_conditional_entropy_extremes():
    """H(W | Y) is 0 when the blocks of different w are orthogonal and H(W)
    when they are identical; the register x is marginalized first."""
    p_x, p_w = np.array([0.3, 0.7]), np.array([0.5, 0.3, 0.2])
    h_w = float(-(p_w * np.log2(p_w)).sum())
    rng = np.random.default_rng(2)

    def block(w, x):
        # a mixed state supported on the two basis vectors 2w, 2w + 1
        out = np.zeros((6, 6), dtype=complex)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        out[2 * w : 2 * w + 2, 2 * w : 2 * w + 2] = g @ g.conj().T
        return out / np.trace(out).real

    weights = {(x, w): p_x[x] * p_w[w] for x in range(2) for w in range(3)}
    blocks = {(x, w): (p, block(w, x)) for (x, w), p in weights.items()}
    orthogonal = CqState(("x", "w"), (6,), blocks)
    assert classical_conditional_entropy(orthogonal, ("w",)) == pytest.approx(0.0, abs=1e-12)
    same = block(1, 0)
    identical = CqState(("x", "w"), (6,), {lab: (p, same) for lab, p in weights.items()})
    assert classical_conditional_entropy(identical, ("w",)) == pytest.approx(h_w, abs=1e-12)


def test_marginal_registers_and_reduce_quantum():
    chan = example2_channel(0.05, 0.2)
    s2 = sigma2(chan, binary_input_distribution(0.3))
    only_v2 = s2.marginal_registers(("v2",))
    assert only_v2.registers == ("v2",)
    assert sum(p for p, _ in only_v2.blocks.values()) == pytest.approx(1.0)
    reduced = s2.reduce_quantum((1,))
    assert reduced.quantum_dims == (2,)
    for _, mat in reduced.blocks.values():
        assert mat.shape == (2, 2)


def test_cq_state_weight_validation():
    with pytest.raises(ValueError, match="sum"):
        CqState(("a",), (2,), {(0,): (0.5, np.eye(2) / 2)})


def test_split_distribution_padding():
    struct = binary_split_distribution(0.2, "structured")
    np.testing.assert_allclose(struct.p_uj(2), [0.5, 0.5])
    np.testing.assert_allclose(struct.p_w(), [0.5, 0.5])
    usb = binary_split_distribution(0.2, "usb")
    np.testing.assert_allclose(usb.p_uj(2), [1.0, 0.0])
    np.testing.assert_allclose(usb.p_w(), [1.0, 0.0])
    with pytest.raises(ValueError, match="mode"):
        binary_split_distribution(0.2, "other")


def test_split_distribution_refuses_other_senders():
    """Only senders 2 and 3 carry structured letters: any other j read
    sender 3's pmf."""
    dist = binary_split_distribution(0.2, "structured")
    for j in (0, 1, 4):
        with pytest.raises(ValueError, match="2 or 3"):
            dist.p_uj(j)
        with pytest.raises(ValueError, match="2 or 3"):
            dist.p_ujxj(j)


def test_split_sigma1_degenerate_w_is_plain_average():
    chan = example2_channel(0.05, 0.2)
    s = split_sigma1(chan, binary_split_distribution(0.3, "usb"))
    assert s.registers == ("x1", "w")
    # w is constant zero, so the blocks only range over x1
    assert set(s.blocks) == {(0, 0), (1, 0)}


def test_split_sigma_receiver_structure():
    chan = example1_channel(0.05, 0.1)
    s = split_sigma_receiver(chan, binary_split_distribution(0.3, "structured"), 2)
    assert s.registers == ("u", "x")
    # structured mode couples u = x, so only the diagonal labels carry weight
    assert set(s.blocks) == {(0, 0), (1, 1)}
    for (u, x), (p, mat) in s.blocks.items():
        assert p == pytest.approx(0.5)
        want = np.diag([0.9, 0.1] if x == 0 else [0.1, 0.9])
        np.testing.assert_allclose(mat, want, atol=1e-12)
    with pytest.raises(ValueError, match="receiver"):
        split_sigma_receiver(chan, binary_split_distribution(0.3, "structured"), 1)


def test_bias_domain_for_examples():
    with pytest.raises(ValueError, match="delta1"):
        example1_channel(0.0, 0.1)
    with pytest.raises(ValueError, match="delta"):
        example2_channel(0.1, 0.5)
