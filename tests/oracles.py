"""Brute-force reference computations used to freeze expected test values.

Everything enumerates basis strings as tuples of 'g'/'e' characters and
works from first principles (product weights, direct marginal sums, dense
complex 2^N x 2^N matrices and full eigendecompositions). Nothing here
touches the package's bit masks, support restriction or combinatorial
shortcuts.
"""

import itertools
import math

import numpy as np


def all_strings(n):
    return list(itertools.product("ge", repeat=n))


def string_weight(s, p_list):
    w = 1.0
    for c, p in zip(s, p_list):
        w *= p if c == "e" else (1.0 - p)
    return w


def chain_survives(s):
    return all(not (s[i] == "g" and s[i + 1] == "g") for i in range(len(s) - 1))


def global_survives(s):
    return any(c == "e" for c in s)


def string_energy(s, gap=1.0):
    excited = sum(1 for c in s if c == "e")
    return (gap / 2.0) * (2 * excited - len(s))


def shannon(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def matrix_entropy(rho):
    w = np.linalg.eigvalsh(rho)
    return float(-sum(x * math.log(x) for x in w if x > 1e-12))


def matrix_coherence(rho):
    return matrix_entropy(np.diag(np.diag(rho))) - matrix_entropy(rho)


def brute_protocol(n, p_list, survives=chain_survives, gap=1.0):
    """(p_s, E_f, C_f, C_f_local) of the conditional pure final state."""
    survivors = [s for s in all_strings(n) if survives(s)]
    weights = {s: string_weight(s, p_list) for s in survivors}
    p_s = sum(weights.values())
    probs = {s: w / p_s for s, w in weights.items()}
    e_f = sum(q * string_energy(s, gap) for s, q in probs.items())
    c_f = -sum(q * math.log(q) for q in probs.values() if q > 0.0)
    amps = {s: math.sqrt(q) for s, q in probs.items()}
    c_loc = 0.0
    for i in range(n):
        rho = np.zeros((2, 2))
        for s, a in amps.items():
            for t, b in amps.items():
                if s[:i] + s[i + 1:] == t[:i] + t[i + 1:]:
                    row = 0 if s[i] == "g" else 1
                    col = 0 if t[i] == "g" else 1
                    rho[row, col] += a * b
        c_loc += matrix_coherence(rho)
    return p_s, e_f, c_f, c_loc


def brute_marginal(n, p_list, which, survives=chain_survives):
    """2x2 reduced matrix of TLS `which` (1-based) of the conditional state."""
    survivors = [s for s in all_strings(n) if survives(s)]
    weights = {s: string_weight(s, p_list) for s in survivors}
    p_s = sum(weights.values())
    amps = {s: math.sqrt(w / p_s) for s, w in weights.items()}
    i = which - 1
    rho = np.zeros((2, 2))
    for s, a in amps.items():
        for t, b in amps.items():
            if s[:i] + s[i + 1:] == t[:i] + t[i + 1:]:
                row = 0 if s[i] == "g" else 1
                col = 0 if t[i] == "g" else 1
                rho[row, col] += a * b
    return rho


def binomial_initial_coherence(n, p):
    """Initial coherence as the explicit sum over ground-count classes."""
    total = 0.0
    for k in range(n + 1):
        w = p ** (n - k) * (1.0 - p) ** k
        if w > 0.0:
            total -= math.comb(n, k) * w * math.log(w)
    return total


def count_strings_no_adjacent_ground(n, k):
    return sum(
        1
        for s in all_strings(n)
        if sum(1 for c in s if c == "g") == k and chain_survives(s)
    )


def fibonacci(m):
    a, b = 0, 1
    for _ in range(m):
        a, b = b, a + b
    return a


# ----------------------------------------------------- dense 2^N x 2^N routes


def dense_hamiltonian(n, gap=1.0):
    """Total Hamiltonian as a dense complex matrix of basis-string energies."""
    return np.diag([complex(string_energy(s, gap)) for s in all_strings(n)])


def eigh_entropy(rho):
    """Von Neumann entropy from a full complex eigendecomposition (1e-12 clip)."""
    w = np.linalg.eigh(np.asarray(rho, dtype=complex))[0]
    w = w[w > 1e-12]
    return float(-(w * np.log(w)).sum())


def eigh_coherence(rho):
    return eigh_entropy(np.diag(np.diag(rho))) - eigh_entropy(rho)


def relative_entropy(rho, sigma):
    """
    Quantum relative entropy Tr(rho ln rho) - Tr(rho ln sigma) in nats, from
    full eigendecompositions. sigma must have full support.
    """
    w_s, v_s = np.linalg.eigh(sigma)
    if w_s.min() <= 1e-12:
        raise ValueError("reference state must have full support")
    log_sigma = (v_s * np.log(w_s)) @ v_s.conj().T
    return float(-eigh_entropy(rho) - np.trace(rho @ log_sigma).real)


def kron_all(factors):
    """Left-to-right Kronecker product; factor 0 owns the most significant bits."""
    out = np.ones((1, 1))
    for f in factors:
        out = np.kron(out, f)
    return out


def partial_trace(rho, keep, n):
    """Trace out every TLS not in `keep` (1-based indices, ascending output order)."""
    rho = np.asarray(rho)
    keep_sorted = sorted(set(keep))
    if not keep_sorted:
        raise ValueError("keep must be a nonempty set of TLS indices")
    if keep_sorted[0] < 1 or keep_sorted[-1] > n:
        raise ValueError(f"TLS indices {keep_sorted} out of range 1..{n}")
    if rho.shape != (2**n, 2**n):
        raise ValueError(f"expected a {2**n}x{2**n} matrix for n={n}")
    tensor = rho.reshape([2] * (2 * n))
    traced = 0
    for tls in range(n, 0, -1):
        if tls in keep_sorted:
            continue
        axis = tls - 1
        tensor = np.trace(tensor, axis1=axis, axis2=axis + n - traced)
        traced += 1
    d = 2 ** len(keep_sorted)
    return tensor.reshape(d, d)


def dephase_full(rho):
    """Keep the diagonal, zero everything else."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("dephase_full expects a square matrix")
    return np.diag(np.diag(rho))


def single_marginal(rho, n, which):
    """2x2 reduced matrix of TLS `which` (1-based) by summing over the others."""
    t = np.asarray(rho).reshape([2] * (2 * n))
    i = which - 1
    t = np.moveaxis(t, (i, n + i), (0, 1)).reshape(2, 2, 2 ** (n - 1), 2 ** (n - 1))
    return np.einsum("abkk->ab", t)


def mutual_coherence_from_relative_entropies(rho, n):
    """
    Mutual coherence as the gap between two relative-entropy distances:
    distance of rho to the product of its marginals, minus the distance of
    the dephased rho to the product of the dephased marginals. Requires
    non-degenerate marginals (full-support reference products).
    """
    rho = np.asarray(rho, dtype=complex)
    marginals = [single_marginal(rho, n, k) for k in range(1, n + 1)]
    product = product_diag = np.ones((1, 1), dtype=complex)
    for m in marginals:
        product = np.kron(product, m)
        product_diag = np.kron(product_diag, np.diag(np.diag(m)))
    coherent_part = relative_entropy(rho, product)
    diagonal_part = relative_entropy(np.diag(np.diag(rho)), product_diag)
    return coherent_part - diagonal_part


def dense_report(n, p_list, survives, pre_eps=None, post_eps=None, gap=1.0):
    """
    (p_s, e0, ef, c0, cf, c0_loc, cf_loc) of one protocol run computed the
    dense way: a complex product density matrix, the full projector, the
    dephasing factor of every matrix element, a dense Hamiltonian and full
    complex eigendecompositions.
    """
    pre = [1.0] * n if pre_eps is None else list(pre_eps)
    rho0 = np.ones((1, 1), dtype=complex)
    for p, e in zip(p_list, pre):
        x = e * math.sqrt(p * (1.0 - p))
        rho0 = np.kron(rho0, np.array([[1.0 - p, x], [x, p]], dtype=complex))
    strings = all_strings(n)
    proj = np.diag([1.0 if survives(s) else 0.0 for s in strings]).astype(complex)
    p_s = float(np.trace(proj @ rho0).real)
    rho_f = proj @ rho0 @ proj / p_s
    if post_eps is not None:
        factor = np.array([
            [math.prod(e for a, b, e in zip(s, t, post_eps) if a != b) for t in strings]
            for s in strings
        ])
        rho_f = rho_f * factor
    h = dense_hamiltonian(n, gap)
    out = [p_s]
    out += [float(np.trace(r @ h).real) for r in (rho0, rho_f)]
    out += [eigh_coherence(r) for r in (rho0, rho_f)]
    out += [
        sum(eigh_coherence(single_marginal(r, n, k)) for k in range(1, n + 1))
        for r in (rho0, rho_f)
    ]
    return tuple(out)
