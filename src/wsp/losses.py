"""Contrastive loss family over a shared similarity matrix.

All four losses share one skeleton: a per-anchor set of positives, a weight
for each positive (normalized per anchor), and a log-ratio of the positive's
similarity against a log-sum-exp over competing views. They differ only in
how positives are chosen and weighted:

  wsp          same weak label, Gaussian-in-depth weights
  supcon       same weak label, uniform weights
  depth_aware  every other view, Gaussian-in-depth weights
  infonce      the sibling augmented view only

The denominator index set is configurable: ``exclude_anchor`` drops both the
anchor and the current positive, ``literal_paper`` drops only the positive
(keeping the anchor's self-similarity). One convention applies uniformly to
all four losses so their reduction identities hold exactly. Dropping the
positive from the denominator, as ``exclude_anchor`` does, is the decoupled
contrastive form (Yeh et al., ECCV 2022).

The denominator of every pair, L[t, i] = log sum_j exp S[t, j] over the
convention's set, costs O(m^2) time and memory for m views: each is its
row's log-sum-exp A_t corrected by log1p(-p_ti), with p_ti the pair's share
of the row's mass, and the one entry that may dominate each row
(p_ti > 1/2) is recomputed as a masked row log-sum-exp
(``pairwise_logsumexp``). Nothing grows cubically in the batch size.

Anchors with an empty or fully-underflowed positive set contribute nothing
and are excluded from the mean; the same applies to pairs whose denominator
set is empty (only possible for two views under ``exclude_anchor``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Annotated, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, check_array, check_fields

LOSS_KINDS = ("wsp", "supcon", "depth_aware", "infonce")
SIGMA_KINDS = ("wsp", "depth_aware")  # the kinds whose pair weights read sigma (see pair_weights)
DENOMINATOR_CONVENTIONS = ("exclude_anchor", "literal_paper")

_UNIT_ROW_TOL = 1e-6


@dataclass(frozen=True)
class LossConfig:
    tau: Annotated[float, "(0, inf)"] = 0.1
    sigma: Annotated[float, "(0, inf)"] = 0.1
    loss_kind: Annotated[str, LOSS_KINDS] = "wsp"
    denominator_convention: Annotated[str, DENOMINATOR_CONVENTIONS] = "exclude_anchor"

    def __post_init__(self):
        check_fields(self)
        if not 2 * self.sigma * self.sigma >= 1 / sys.float_info.max:  # the depth kernel's 1 / (2 sigma^2) is finite
            raise ConfigError(f"sigma {self.sigma} is too small: 1 / (2 * sigma**2) overflows")
        if not np.isfinite(1 / self.tau):  # the similarity scale 1 / tau
            raise ConfigError(f"tau {self.tau} is too small: 1 / tau overflows")


class BatchMeta:
    """Per-view metadata: weak label, normalized depth, slice and patient ids.

    Views originating from the same slice must agree on (y, d).
    """

    def __init__(
        self,
        y: Sequence[int],
        d: Sequence[float],
        slice_ids: Sequence,
        patient_ids: Sequence,
    ):
        self.y = np.asarray(y, dtype=np.int64)
        self.d = np.asarray(d, dtype=np.float64)
        self.slice_ids = tuple(slice_ids)
        self.patient_ids = tuple(patient_ids)
        n = len(self.y)
        if not (len(self.d) == len(self.slice_ids) == len(self.patient_ids) == n):
            raise ContractError("BatchMeta fields must have equal length")
        check_array("normalized depth", self.d, "in [0, 1]", lambda d: (d >= 0.0) & (d <= 1.0))
        per_slice: dict = {}
        for i, sid in enumerate(self.slice_ids):
            prev = per_slice.setdefault(sid, i)
            if prev != i and (self.y[prev] != self.y[i] or self.d[prev] != self.d[i]):
                raise ContractError(f"views of slice {sid!r} disagree on (y, d)")

    def __len__(self) -> int:
        return len(self.y)


def _sibling_index(meta: BatchMeta) -> np.ndarray:
    """For each view, its sibling: a slice's views pair in order of appearance, 1st with 2nd, 3rd with 4th.

    A slice drawn twice into one batch has four views, each draw's two side by side.
    """
    groups: dict = {}
    for i, sid in enumerate(meta.slice_ids):
        groups.setdefault(sid, []).append(i)
    sib = np.full(len(meta), -1, dtype=np.int64)
    for sid, members in groups.items():
        if len(members) % 2:
            raise ContractError(
                f"slice {sid!r} has {len(members)} view(s); infonce needs an even number"
            )
        sib[members[0::2]], sib[members[1::2]] = members[1::2], members[0::2]
    return sib


def _row_logsumexp(x: np.ndarray) -> np.ndarray:
    """log sum_j exp x[r, j] per row, as a column; -inf entries drop out."""
    peak = x.max(axis=1, keepdims=True)
    return peak + np.log(np.exp(x - peak).sum(axis=1, keepdims=True))


def pairwise_logsumexp(s: np.ndarray, exclude_anchor: bool):
    """L[t, i] = logsumexp_j S[t, j] over j != i (and j != t when requested), with its vjp.

    Exact in O(m^2) time and memory. With A_t the log-sum-exp of row t over
    its row set R_t (j != t under ``exclude_anchor``, every j otherwise) and
    p_ti = exp(S[t, i] - A_t) the share of pair (t, i) in that row's mass,

        L[t, i] = A_t + log1p(-p_ti)    for i in R_t,   L[t, t] = A_t otherwise.

    The identity loses precision only as p_ti nears 1, and the shares of a
    row sum to 1, so at most one entry per row (the dominant one, p_ti > 1/2)
    is instead recomputed as a masked row log-sum-exp. When R_t holds two
    entries (m = 3 under ``exclude_anchor``, m = 2 otherwise) every entry of
    R_t is recomputed that way, which copies the one remaining competitor
    exactly. The gradient,

        G[t, j] = [j in R_t] sum_{i != j} g[t, i] exp(S[t, j] - L[t, i]),

    is p_tj (c_t - r_tj) with r_ti = g[t, i] exp(A_t - L[t, i]) =
    g[t, i] / (1 - p_ti), at most 2 |g[t, i]|, over the entries not
    recomputed and c_t = sum_i r_ti, plus the terms of the recomputed entries
    taken directly from their masked rows, so nothing overflows at small tau.
    Returns ``(L, vjp)`` with ``vjp(g) = G``; nothing is recorded on a tape.
    """
    m = s.shape[0]
    row_size = m - 1 if exclude_anchor else m
    if row_size < 2:
        raise ContractError("denominator set empty at this batch size")
    in_row = ~np.eye(m, dtype=bool) if exclude_anchor else np.ones((m, m), dtype=bool)
    row = np.where(in_row, s, -np.inf)
    a = _row_logsumexp(row)
    share = np.exp(row - a)
    exact = in_row if row_size == 2 else share > 0.5
    kept = np.where(exact, 0.0, share)
    out = a + np.log1p(-kept)
    t, i = np.nonzero(exact)
    rest = row[t]
    rest[np.arange(len(t)), i] = -np.inf
    out[t, i] = _row_logsumexp(rest)[:, 0]

    def vjp(g):
        r = np.where(exact, 0.0, g / (1.0 - kept))
        grad = share * (r.sum(axis=1, keepdims=True) - r)
        np.add.at(grad, t, g[t, i, None] * np.exp(rest - out[t, i, None]))
        return grad

    return out, vjp


def pair_weights(meta: BatchMeta, cfg: LossConfig) -> np.ndarray:
    """Raw m x m kernel for ``cfg.loss_kind``; row t weighs anchor t's positives.

    wsp gates on equal weak labels and weighs by a Gaussian in depth; supcon
    keeps the gate with unit weights, depth_aware keeps the Gaussian without
    the gate, and infonce puts a single unit weight on the sibling view. The
    diagonal is always zero.
    """
    m = len(meta)
    if cfg.loss_kind == "infonce":
        raw = np.zeros((m, m))
        raw[np.arange(m), _sibling_index(meta)] = 1.0
        return raw
    not_self = ~np.eye(m, dtype=bool)
    if cfg.loss_kind == "depth_aware":
        eligible = not_self
    else:  # wsp, supcon share the label-gated positive set
        eligible = (meta.y[:, None] == meta.y[None, :]) & not_self
    if cfg.loss_kind not in SIGMA_KINDS:
        return eligible.astype(np.float64)
    diff = meta.d[:, None] - meta.d[None, :]
    gauss = np.exp(-(diff * diff) / (2.0 * cfg.sigma * cfg.sigma))
    return np.where(eligible, gauss, 0.0)


def normalize_rows(raw: np.ndarray) -> np.ndarray:
    """Scale each row of non-negative weights to sum to 1; rows with no positive mass (skipped anchors) stay zero."""
    totals = raw.sum(axis=1, keepdims=True)
    return raw / np.where(totals > 0.0, totals, 1.0)


def compute_loss(z: Tensor, meta: BatchMeta, cfg: LossConfig) -> Tensor:
    """The ``cfg.loss_kind`` loss on unit-norm rows of ``z``, one per view: one op, S = z z^T / tau inside it."""
    m = len(meta)
    if z.data.ndim != 2 or z.shape[0] != m:
        raise ContractError(f"embeddings {z.shape} do not match batch of {m}")
    norms = np.sqrt((z.data * z.data).sum(axis=1))
    check_array("embedding row norms", norms, f"within {_UNIT_ROW_TOL} of 1", lambda n: abs(n - 1.0) <= _UNIT_ROW_TOL)
    if m < 2:
        raise ContractError(f"need at least two views, got {m}")
    weights = normalize_rows(pair_weights(meta, cfg))
    exclude_anchor = cfg.denominator_convention == "exclude_anchor"
    # An anchor contributes when it has positive mass and competitors: two views under exclude_anchor leave none.
    n_anchors = int(np.count_nonzero(weights.sum(axis=1) > 0.0)) if m > 1 + exclude_anchor else 0
    if n_anchors == 0:
        return Tensor(np.zeros(()))
    # S is built after the pair weights: built before them, glibc's heap made each wide probe fault ~12,900 pages.
    c = 1.0 / cfg.tau
    zt = z.data.T.copy()  # the checkpoint bytes depend on this copy and on the operand order of both passes
    s = (z.data @ zt) * c
    lse, lse_vjp = pairwise_logsumexp(s, exclude_anchor)
    k = -1.0 / n_anchors

    def bwd(g):  # d/dS of sum w (S - L), then through the Gram matrix, in the order the checkpoint bytes depend on
        w = g * k * weights
        gs = (w + lse_vjp(-w)) * c
        return (gs @ zt.T + (z.data.T @ gs).T,)

    return ad.make_op(np.asarray((weights * (s - lse)).sum()) * k, (z,), bwd)


def random_batch(rng):
    """Random raw embeddings (2 to 4 slices of two views, 3 to 16 dimensions) and their metadata for gradient checks."""
    n_slices = int(rng.integers(2, 5))
    dim = int(rng.integers(3, 17))
    y = rng.integers(0, 4, size=n_slices)
    d = rng.random(n_slices)
    meta = BatchMeta(
        y=np.repeat(y, 2),
        d=np.repeat(d, 2),
        slice_ids=[f"s{i // 2}" for i in range(2 * n_slices)],
        patient_ids=[f"p{i // 2}" for i in range(2 * n_slices)],
    )
    x = rng.uniform(-1.0, 1.0, size=(2 * n_slices, dim))
    return x, meta


def gradient_check(seed: int = 0, n_batches: int = 20, convention: str = "exclude_anchor") -> dict[str, float]:
    """Max relative error of each loss kind between backward() and central finite differences.

    The check differentiates each loss through row normalization of a raw
    embedding matrix, mirroring how losses see projection-head outputs.
    """
    results: dict[str, float] = {}
    for kind in LOSS_KINDS:
        cfg = LossConfig(tau=0.5, sigma=0.2, loss_kind=kind, denominator_convention=convention)
        worst = 0.0
        for b in range(n_batches):
            rng = np.random.default_rng(np.random.SeedSequence([seed, b]))
            x, meta = random_batch(rng)

            def f(t: Tensor) -> Tensor:
                return compute_loss(ad.l2_normalize(t), meta, cfg)

            leaf = Tensor(x, requires_grad=True)
            analytic = ad.backward(f(leaf)).wrt(leaf)
            numeric = ad.finite_diff_gradient(f, Tensor(x)).data
            worst = max(worst, ad.max_relative_error(analytic, numeric))
        results[kind] = worst
    return results
