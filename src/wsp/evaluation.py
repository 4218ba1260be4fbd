"""Frozen-representation probing: logistic probe, CV, metrics and PCA.

The probe is a full-batch damped Newton solve of L2-regularized logistic
regression, run to a gradient-norm tolerance so results are deterministic.
Headline metrics are computed at the patient level by averaging per-slice
probabilities within each patient; slice-level AUC is also reported for
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import slice_id
from .encoders import EncoderCheckpoint, input_batch
from .errors import ContractError, NonFiniteError, check_fields, size_rule

EXTRACT_CHUNK = 128  # slices encoded at a time by extract_representations


@dataclass(frozen=True)
class ProbeConfig:
    l2_strength: float = 1.0
    max_iterations: int = 200
    tolerance: float = 1e-8
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        check_fields(
            self, l2_strength="[0, inf)", max_iterations=size_rule(1), tolerance="(0, inf)", folds=size_rule(2)
        )


@dataclass
class RepresentationTable:
    patient_ids: list
    slice_ids: list
    d: np.ndarray
    y_weak: np.ndarray
    y_strong: np.ndarray  # -1 where the strong label is absent
    repr: np.ndarray = field(repr=False)  # n x D

    def __len__(self) -> int:
        return len(self.slice_ids)


@dataclass
class ProbeReport:
    fold_auc_patient: list
    fold_auc_slice: list
    fold_bacc: list
    mean_auc_patient: float
    std_auc_patient: float
    mean_bacc: float
    std_bacc: float


def extract_representations(ckpt: EncoderCheckpoint, volumes) -> RepresentationTable:
    """Representation vectors for every retained slice, augmentation off."""
    enc = ckpt.to_encoder()
    rows = [(vol, s) for vol in volumes for s in vol.slices]
    if not rows:
        raise ContractError("no retained slices to embed")
    # The encoder is frozen, so no chunk records a graph; pixels become float64 one chunk at a time.
    reprs = np.empty((len(rows), enc.config.repr_dim))
    for start in range(0, len(rows), EXTRACT_CHUNK):
        block = np.stack([s.pixels for _, s in rows[start : start + EXTRACT_CHUNK]]).astype(np.float64, copy=False)
        reprs[start : start + len(block)] = enc.encode(input_batch(enc.config, block)).data
    # The probe's Hessian and the PCA covariance sum products of these values; the sum of squares bounds every one.
    if not np.isfinite(np.vdot(reprs, reprs)):
        raise NonFiniteError("the encoder's representations are non-finite, or their sum of squares overflows")
    return RepresentationTable(
        patient_ids=[vol.patient_id for vol, _ in rows],
        slice_ids=[slice_id(vol, s) for vol, s in rows],
        d=np.asarray([s.d for _, s in rows]),
        y_weak=np.asarray([vol.y_weak for vol, _ in rows], dtype=np.int64),
        y_strong=np.asarray([-1 if vol.y_strong is None else int(vol.y_strong) for vol, _ in rows], dtype=np.int64),
        repr=reprs,
    )


# ---------------------------------------------------------------------------
# Logistic probe
# ---------------------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _probe_objective(x, y, w, b, lam):
    z = x @ w + b
    # softplus(z) - y z, stable for both signs of z
    ce = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return ce + 0.5 * lam * float(w @ w)


def fit_logistic_probe(x: np.ndarray, y: np.ndarray, cfg: ProbeConfig, trace: list | None = None):
    """Damped Newton minimization of mean cross-entropy + (l2/n)||w||^2 / 2.

    The bias is unregularized. Backtracking halves the step until the
    objective decreases, so the iterate sequence is monotone. When ``trace``
    is a list the accepted objective values are appended to it.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or len(x) != len(y):
        raise ContractError(f"bad probe inputs: X {x.shape}, y {y.shape}")
    classes = np.unique(y)
    if len(classes) < 2:
        raise ContractError("probe needs both classes present")
    n, dim = x.shape
    lam = cfg.l2_strength / n
    w = np.zeros(dim)
    b = 0.0
    obj = _probe_objective(x, y, w, b, lam)
    if trace is not None:
        trace.append(obj)
    for _ in range(cfg.max_iterations):
        z = x @ w + b
        p = _sigmoid(z)
        grad_w = x.T @ (p - y) / n + lam * w
        grad_b = float(np.mean(p - y))
        grad_norm = max(float(np.abs(grad_w).max(initial=0.0)), abs(grad_b))
        if grad_norm <= cfg.tolerance:
            break
        dvec = p * (1.0 - p)
        h = np.empty((dim + 1, dim + 1))
        xd = x * dvec[:, None]
        h[:dim, :dim] = x.T @ xd / n + lam * np.eye(dim)
        h[:dim, dim] = xd.sum(axis=0) / n
        h[dim, :dim] = h[:dim, dim]
        h[dim, dim] = float(dvec.mean())
        g = np.concatenate([grad_w, [grad_b]])
        try:
            step = np.linalg.solve(h + 1e-12 * np.eye(dim + 1), g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(h, g, rcond=None)[0]
        scale = 1.0
        for _ in range(60):
            w_new = w - scale * step[:dim]
            b_new = b - scale * step[dim]
            obj_new = _probe_objective(x, y, w_new, b_new, lam)
            if obj_new < obj:
                break
            scale *= 0.5
        else:
            break  # no descent direction left at float precision
        w, b, obj = w_new, float(b_new), obj_new
        if trace is not None:
            trace.append(obj)
    return w, b


def predict_probe(x: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    return _sigmoid(np.asarray(x, dtype=np.float64) @ w + b)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; tied scores share the mean of the ranks they span."""
    _, tie_group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[tie_group]


def auc(scores, labels) -> float:
    """Mann-Whitney statistic with tie correction: P(s+ > s-) + P(s+ = s-)/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ContractError("AUC needs both classes present")
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def balanced_accuracy(probabilities, labels) -> float:
    """(sensitivity + specificity) / 2, a probability of 0.5 or more predicting the positive class."""
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = labels == 1
    neg = labels == 0
    if not pos.any() or not neg.any():
        raise ContractError("balanced accuracy needs both classes present")
    preds = probs >= 0.5
    sensitivity = float(preds[pos].mean())
    specificity = float((~preds[neg]).mean())
    return 0.5 * (sensitivity + specificity)


def stratified_kfold(labels, k: int = 5, seed: int = 0) -> np.ndarray:
    """Fold index per patient, given each patient's label; per-class counts across folds differ by <= 1."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    folds = np.full(len(labels), -1, dtype=np.int64)
    for cls in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < k:
            raise ContractError(f"class {cls} has {len(idx)} patients, fewer than {k} folds")
        idx = idx[rng.permutation(len(idx))]
        offset = int(rng.integers(k))
        for i, patient_idx in enumerate(idx):
            folds[patient_idx] = (offset + i) % k
    return folds


def pca_project(x: np.ndarray):
    """Mean-centered projection onto the two leading covariance eigenvectors.

    Each component's sign is fixed by making its largest-magnitude coordinate
    positive. Returns (coordinates n x 2, the two explained-variance fractions).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or len(x) < 3:
        raise ContractError(f"PCA needs an n x D matrix with n >= 3, got {x.shape}")
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (len(x) - 1)
    total = float(np.trace(cov))
    if total <= 0.0:
        raise ContractError("data has zero variance")
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:2]
    components = eigvecs[:, order]
    for j in range(components.shape[1]):
        pivot = int(np.abs(components[:, j]).argmax())
        if components[pivot, j] < 0:
            components[:, j] = -components[:, j]
    coords = centered @ components
    explained = np.clip(eigvals[order], 0.0, None) / total
    return coords, explained


# ---------------------------------------------------------------------------
# Probe protocol
# ---------------------------------------------------------------------------


def run_probe_protocol(ckpt: EncoderCheckpoint, volumes, cfg: ProbeConfig) -> ProbeReport:
    """Stratified k-fold linear probing with patient-level aggregation."""
    table = extract_representations(ckpt, volumes)
    return probe_representations(table, cfg)


def probe_representations(table: RepresentationTable, cfg: ProbeConfig) -> ProbeReport:
    """Probe protocol on a precomputed table: folds over patients, each held-out patient scored by the mean of its
    slices' probabilities."""
    if len(table.repr) != len(table):
        raise ContractError("representation matrix does not match the representation table")
    ids, first_rows, sorted_patient = np.unique(np.asarray(table.patient_ids), return_index=True, return_inverse=True)
    order = np.argsort(first_rows)  # patients in order of first appearance
    patient = np.argsort(order)[sorted_patient]  # each slice's patient, in that order
    ids, labels = ids[order], table.y_strong[first_rows[order]]
    if (labels < 0).any():
        raise ContractError(f"patient {ids[np.argmax(labels < 0)]} lacks a strong label")
    patient_folds = stratified_kfold(labels, cfg.folds, cfg.seed)
    slice_folds = patient_folds[patient]
    slice_counts = np.bincount(patient)
    slice_labels = table.y_strong.astype(np.float64)
    fold_auc_patient: list[float] = []
    fold_auc_slice: list[float] = []
    fold_bacc: list[float] = []
    for f in range(cfg.folds):
        test = slice_folds == f
        w, b = fit_logistic_probe(table.repr[~test], slice_labels[~test], cfg)
        probs = predict_probe(table.repr[test], w, b)
        held_out = patient_folds == f
        # bincount adds each patient's probabilities in slice order
        scores = (np.bincount(patient[test], probs, len(ids)) / slice_counts)[held_out]
        fold_auc_patient.append(auc(scores, labels[held_out]))
        fold_auc_slice.append(auc(probs, table.y_strong[test]))
        fold_bacc.append(balanced_accuracy(scores, labels[held_out]))
    return ProbeReport(
        fold_auc_patient=fold_auc_patient,
        fold_auc_slice=fold_auc_slice,
        fold_bacc=fold_bacc,
        mean_auc_patient=float(np.mean(fold_auc_patient)),
        std_auc_patient=float(np.std(fold_auc_patient)),
        mean_bacc=float(np.mean(fold_bacc)),
        std_bacc=float(np.std(fold_bacc)),
    )
