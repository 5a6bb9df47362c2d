import numpy as np
import pytest

from qbound import linalg, qcore
from conftest import random_channel


def test_choi_channel_roundtrip(rng):
    ch = random_channel(3, 2, 4, rng)
    J = qcore.choi_of(ch)
    assert abs(np.trace(J.matrix).real - 3) < 1e-10  # trace = input dim
    ch2 = qcore.channel_of(J)
    rho = qcore.random_density(3, rng)
    assert np.abs(ch.apply(rho) - ch2.apply(rho)).max() < 1e-10


def test_choi_of_bipartite_channel():
    # a BipartiteChannel has the dimensions of the channel it wraps
    N = qcore.cnot()
    assert (N.in_dim, N.out_dim) == (4, 4)
    J, J_ref = qcore.choi_of(N), qcore.choi_of(N.channel)
    assert np.array_equal(J.matrix, J_ref.matrix)
    assert (J.in_dim, J.out_dim) == (J_ref.in_dim, J_ref.out_dim)


def test_depolarizing_action(rng):
    d, q = 3, 0.4
    ch = qcore.depolarizing(d, q)
    rho = qcore.random_density(d, rng)
    expect = (1 - q) * rho.matrix + q * np.eye(d) / d
    assert np.abs(ch.apply(rho) - expect).max() < 1e-12


@pytest.mark.parametrize("d", [0, 1])
def test_depolarizing_rejects_trivial_dimension(d):
    with pytest.raises(ValueError, match="d >= 2"):
        qcore.depolarizing(d, 0.0)


@pytest.mark.parametrize("make", [qcore.erasure,
                                  qcore.erasure_wiretap_isometry],
                         ids=["erasure", "erasure_wiretap_isometry"])
@pytest.mark.parametrize("d", [0, -1])
def test_erasure_rejects_empty_dimension(make, d):
    with pytest.raises(ValueError, match="d >= 1"):
        make(d, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [0, -1])
def test_max_ent_vector_rejects_empty_dimension(d):
    with pytest.raises(ValueError, match="d >= 1"):
        qcore.max_ent_vector(d)


def test_erasure_channel():
    d, q = 2, 0.3
    ch = qcore.erasure(d, q)
    rho = np.diag([0.6, 0.4]).astype(complex)
    out = ch.apply(rho)
    assert out.shape == (d + 1, d + 1)
    assert abs(out[d, d].real - q) < 1e-12
    assert np.abs(out[:d, :d] - (1 - q) * rho).max() < 1e-12


def test_erasure_wiretap_marginals():
    d, q = 3, 0.25
    iso = qcore.erasure_wiretap_isometry(d, q)
    chB = iso.channel()
    ref = qcore.erasure(d, q)
    rho = np.eye(d, dtype=complex) / d
    assert np.abs(chB.apply(rho) - ref.apply(rho)).max() < 1e-10
    # environment sees the complementary erasure
    chE = iso.complementary_channel()
    refE = qcore.erasure(d, 1 - q)
    assert np.abs(chE.apply(rho) - refE.apply(rho)).max() < 1e-10


def test_isometric_extension_consistency(rng):
    ch = random_channel(2, 3, 3, rng)
    iso = qcore.isometric_extension(ch)
    V = iso.matrix
    assert np.abs(V.conj().T @ V - np.eye(2)).max() < 1e-10
    rho = qcore.random_density(2, rng)
    assert np.abs(iso.channel().apply(rho) - ch.apply(rho)).max() < 1e-9


def test_hw_operators():
    d = 3
    w = np.exp(2j * np.pi / d)
    X = qcore.hw_operator(d, 1, 0)
    Z = qcore.hw_operator(d, 0, 1)
    # shift and phase actions on basis kets
    assert np.abs(X @ qcore.ket(0, d) - qcore.ket(1, d)).max() < 1e-12
    assert abs((Z @ qcore.ket(2, d))[2] - w ** 2) < 1e-12
    # Weyl commutation: Z X = w X Z
    assert np.abs(Z @ X - w * X @ Z).max() < 1e-12


def test_hw_group_is_one_design():
    for d in (2, 3):
        assert qcore.hw_group(d).is_one_design()


def test_covariance_erasure():
    d = 3
    g = qcore.hw_group(d)
    out_mats = []
    for U in g.unitaries:
        M = np.eye(d + 1, dtype=complex)
        M[:d, :d] = U
        out_mats.append(M)
    out = qcore.GroupRep(out_mats, check_closure=False)
    assert qcore.covariance_check(qcore.erasure(d, 0.3), g, out)


def test_covariance_fails_for_biased_channel():
    # amplitude damping is not covariant for the full HW group
    ch = qcore.gadc(0.5, 1.0)
    g = qcore.hw_group(2)
    assert not qcore.covariance_check(ch, g, g)


def test_environment_unitaries(rng):
    ch = qcore.depolarizing(2, 0.5)
    g = qcore.hw_group(2)
    ws = qcore.environment_unitaries(ch, g, g)
    assert len(ws) == len(g)
    for W in ws:
        assert np.abs(W.conj().T @ W - np.eye(W.shape[0])).max() < 1e-8


def test_teleport_simulate_depolarizing(rng):
    ch = qcore.depolarizing(2, 0.35)
    g = qcore.hw_group(2)
    rho = qcore.random_density(2, rng).matrix
    sim = qcore.teleport_simulate(ch, rho, in_rep=g, out_rep=g)
    direct = ch.apply(rho)
    assert 0.5 * linalg.schatten_norm(sim - direct, 1) < 1e-8


def test_teleport_simulate_cnot(rng):
    N = qcore.cnot()
    rho = qcore.random_density(4, rng).matrix
    sim = qcore.teleport_simulate(N, rho)
    direct = N.channel.apply(rho)
    assert 0.5 * linalg.schatten_norm(sim - direct, 1) < 1e-8


def test_partial_swap_endpoints(rng):
    rho = qcore.random_density(4, rng)
    S = qcore.swap_operator(2)
    full = qcore.partial_swap(0.0).channel.apply(rho)
    assert np.abs(full - S @ rho.matrix @ S).max() < 1e-12
    none = qcore.partial_swap(1.0).channel.apply(rho)
    assert np.abs(none - rho.matrix).max() < 1e-12


def test_swap_then_collective_dephasing_tp():
    ch = qcore.swap_then_collective_dephasing(0.5, np.pi)
    assert ch.channel.trace_preserving


def test_zero_error_pair_trace_preserving():
    ch1, ch2 = qcore.zero_error_pair()
    for ch in (ch1, ch2):
        S = sum(K.conj().T @ K for K in ch.kraus)
        assert np.abs(S - np.eye(4)).max() < 1e-12
        assert (ch.out_dim, ch.in_dim) == (2, 4)


def test_bidirectional_from_cell(rng):
    cell = [qcore.identity_channel(2), qcore.dephasing(np.pi)]
    N = qcore.bidirectional_from_cell(cell)
    # control |x> selects cell channel x on the target
    for x, ch in enumerate(cell):
        rho_t = qcore.random_density(2, rng)
        rho = np.kron(np.outer(qcore.ket(x, 2), qcore.ket(x, 2).conj()),
                      rho_t.matrix)
        out = N.channel.apply(rho)
        tgt = linalg.partial_trace(out, (2, 2), [1])
        assert np.abs(tgt - ch.apply(rho_t)).max() < 1e-10


def test_density_operator_validation():
    with pytest.raises(ValueError):
        qcore.DensityOperator(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        qcore.DensityOperator(np.diag([0.4, 0.4]).astype(complex))
    sub = qcore.DensityOperator(np.diag([0.4, 0.4]).astype(complex),
                                subnormalized=True)
    assert sub.subnormalized


def test_group_rep_rejects_nonunitary():
    with pytest.raises(ValueError):
        qcore.GroupRep([np.array([[1, 0], [0, 2]], dtype=complex)])
