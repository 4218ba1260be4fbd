"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (explicit loops, textbook formulas) and
shares no code with the package, so agreement is meaningful. The file helpers
write bytes that the package's writers refuse to write; ``write_raw_dataset``
uses the package's unchecked ``write_volume_file``. ``product`` is a tape op
made with the package's ``make_op``, to exercise the engine itself.
"""

import json
import math
import struct

import numpy as np

from wsp import autodiff as ad
from wsp.data import write_volume_file


def product(a, b):
    """Elementwise a * b as one tape op, for tests of the backward engine."""
    return ad.make_op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data), "product")


def naive_kernel_loss(z, y, d, slice_ids, tau, sigma, kind, convention="exclude_anchor"):
    """Direct triple-loop enumeration of the kernel-weighted contrastive loss.

    For every anchor t: collect its positives and raw weights per ``kind``,
    normalize the weights, and sum -w * log(exp(s_ti) / sum_j exp(s_tj)) with
    j ranging over the convention's denominator set. Anchors with no positive
    mass (or no pair with a non-empty denominator) are skipped and excluded
    from the final mean.
    """
    z = np.asarray(z, dtype=np.float64)
    m = len(y)
    s = z @ z.T / tau
    siblings = {}
    groups = {}
    for i, sid in enumerate(slice_ids):
        groups.setdefault(sid, []).append(i)
    for members in groups.values():
        if len(members) == 2:
            a, b = members
            siblings[a], siblings[b] = b, a
    total = 0.0
    contributing = 0
    for t in range(m):
        if kind in ("wsp", "supcon"):
            positives = [i for i in range(m) if i != t and y[i] == y[t]]
        elif kind == "depth_aware":
            positives = [i for i in range(m) if i != t]
        elif kind == "infonce":
            positives = [siblings[t]] if t in siblings else []
        else:
            raise ValueError(kind)
        if kind in ("wsp", "depth_aware"):
            weights = {
                i: math.exp(-((d[t] - d[i]) ** 2) / (2.0 * sigma * sigma)) for i in positives
            }
        else:
            weights = {i: 1.0 for i in positives}
        weight_sum = sum(weights.values())
        if not positives or weight_sum <= 0.0:
            continue
        anchor_total = 0.0
        any_pair = False
        for i in positives:
            denom = [
                j
                for j in range(m)
                if j != i and (convention == "literal_paper" or j != t)
            ]
            if not denom:
                continue
            any_pair = True
            lse = math.log(sum(math.exp(s[t, j]) for j in denom))
            anchor_total += (weights[i] / weight_sum) * (s[t, i] - lse)
        if not any_pair:
            continue
        contributing += 1
        total += anchor_total
    if contributing == 0:
        return 0.0
    return -total / contributing


def brute_force_auc(scores, labels):
    """Pairwise comparison count: P(s+ > s-) + P(s+ = s-) / 2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def make_meta(y, d, slice_ids=None, patient_ids=None):
    """Convenience constructor for loss metadata in tests."""
    from wsp.losses import BatchMeta

    n = len(y)
    if slice_ids is None:
        slice_ids = [f"s{i}" for i in range(n)]
    if patient_ids is None:
        patient_ids = [f"p{i}" for i in range(n)]
    return BatchMeta(y=y, d=d, slice_ids=slice_ids, patient_ids=patient_ids)


def rewrite_checkpoint_header(raw, edit):
    """Checkpoint bytes with the JSON header replaced by ``edit(header)``.

    The layout is 4 magic bytes, a 2-byte version, a 4-byte little-endian
    header length, the header, then the parameters.
    """
    (length,) = struct.unpack("<I", raw[6:10])
    header = json.dumps(edit(json.loads(raw[10 : 10 + length]))).encode("utf-8")
    return raw[:6] + struct.pack("<I", len(header)) + header + raw[10 + length :]


def patch_checkpoint_value(path, params, name, index, value):
    """Overwrite entry ``index`` (flat) of parameter ``name`` in the checkpoint saved at ``path`` from ``params`` with
    the float64 ``value``; returns its byte offset. Each parameter follows the header as a u8 rank, u32 extents and
    float64 values, in ``params``' order."""
    raw = bytearray(path.read_bytes())
    (length,) = struct.unpack("<I", raw[6:10])
    at = 10 + length
    for key, values in params.items():
        at += 1 + 4 * values.ndim
        if key == name:
            break
        at += 8 * values.size
    at += 8 * index
    raw[at : at + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    return at


def write_raw_dataset(volumes, out_dir, generator=None):
    """Write ``volumes`` to the directory ``out_dir`` as a dataset without checking any of its rules: one
    ``write_volume_file`` per volume and a manifest whose records are built from the volumes."""
    out_dir.mkdir(parents=True)
    records = []
    for v in volumes:
        write_volume_file(out_dir / f"{v.volume_id}.wspv", v)
        records.append({"id": v.volume_id, "file": f"{v.volume_id}.wspv", "patient_id": v.patient_id,
                        "v_max": v.v_max, "y_weak": v.y_weak, "y_strong": v.y_strong})
    (out_dir / "manifest.json").write_text(json.dumps({"version": 1, "volumes": records, "generator": generator}))


def paired_random_batch(rng, n_slices, dim, n_classes=4):
    """Two unit-normalized views per slice plus matching metadata arrays."""
    y = rng.integers(0, n_classes, size=n_slices)
    d = rng.random(n_slices)
    z = rng.normal(size=(2 * n_slices, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    meta = make_meta(
        y=np.repeat(y, 2),
        d=np.repeat(d, 2),
        slice_ids=[f"s{i // 2}" for i in range(2 * n_slices)],
        patient_ids=[f"p{i // 2}" for i in range(2 * n_slices)],
    )
    return z, meta


def naive_pairwise_logsumexp(s, exclude_anchor):
    """Loss denominator per pair, one explicit log-sum-exp per (t, i).

    L[t][i] = log sum_j exp s[t][j] over j != i, and also j != t when
    ``exclude_anchor``; each sum is shifted by its own maximum and added
    with ``math.fsum``, so it neither overflows nor loses small terms.
    """
    s = np.asarray(s, dtype=np.float64)
    m = len(s)
    out = np.empty((m, m))
    for t in range(m):
        for i in range(m):
            terms = [float(s[t, j]) for j in range(m) if j != i and not (exclude_anchor and j == t)]
            peak = max(terms)
            out[t, i] = peak + math.log(math.fsum(math.exp(v - peak) for v in terms))
    return out


def _oracle_bilinear(img, rows, cols):
    h, w = img.shape
    rows = np.clip(rows, 0.0, h - 1.0)
    cols = np.clip(cols, 0.0, w - 1.0)
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = rows - r0
    fc = cols - c0
    top = img[r0, c0] * (1.0 - fc) + img[r0, c1] * fc
    bottom = img[r1, c0] * (1.0 - fc) + img[r1, c1] * fc
    return top * (1.0 - fr) + bottom * fr


def oracle_augment(pixels, cfg, draw_seed):
    """One view, one image at a time: flip, rotate, then crop-and-resize.

    The per-view reference for ``wsp.sampling.augment_views``. The five
    draws come from a generator seeded with [cfg.seed, *draw_seed]; rotation
    rebuilds its coordinate grid and both resamplings index the 2-d image
    with (row, column) arrays. Returns float64.
    """
    img = np.asarray(pixels, dtype=np.float64)
    if not cfg.enabled:
        return img.copy()
    key = [int(cfg.seed)]
    key.extend(int(k) for k in (draw_seed if isinstance(draw_seed, (tuple, list)) else (draw_seed,)))
    rng = np.random.default_rng(np.random.SeedSequence(key))
    u_flip = rng.random()
    angle = rng.uniform(-cfg.rotation_degrees, cfg.rotation_degrees)
    scale = rng.uniform(cfg.crop_scale[0], cfg.crop_scale[1])
    u_top = rng.random()
    u_left = rng.random()
    h, w = img.shape
    if u_flip < cfg.flip_prob:
        img = img[:, ::-1].copy()
    if angle != 0.0:
        theta = math.radians(angle)
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        rr, cc = np.mgrid[0:h, 0:w].astype(np.float64)
        dy = rr - cy
        dx = cc - cx
        src_r = cy + math.cos(theta) * dy + math.sin(theta) * dx
        src_c = cx - math.sin(theta) * dy + math.cos(theta) * dx
        img = _oracle_bilinear(img, src_r, src_c)
    side = h * math.sqrt(scale)
    if side != h:
        top = (h - side) * u_top
        left = (w - side) * u_left
        rr = top + (np.arange(h, dtype=np.float64) + 0.5) * side / h - 0.5
        cc = left + (np.arange(w, dtype=np.float64) + 0.5) * side / w - 0.5
        img = _oracle_bilinear(img, rr[:, None], cc[None, :])
    return img


def im2col_conv2d(x, k, stride):
    """Channels-first valid cross-correlation: B,C,H,W input, F,C,kh,kw kernel.

    Returns the B,F,hout,wout output and ``backward(g, need_gx)``, which maps
    a B,F,hout,wout output gradient to (input gradient, or None unless
    ``need_gx``; kernel gradient). All taps of the input gradient come from
    one GEMM and are scattered back in tap order.
    """
    batch, cin, h, w = x.shape
    fout, _, kh, kw = k.shape
    hout = (h - kh) // stride + 1
    wout = (w - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch * hout * wout, cin * kh * kw)
    kmat = k.reshape(fout, cin * kh * kw)
    out = (cols @ kmat.T).reshape(batch, hout, wout, fout).transpose(0, 3, 1, 2)

    def backward(g, need_gx):
        gcols = g.transpose(0, 2, 3, 1).reshape(batch * hout * wout, fout)
        gk = (gcols.T @ cols).reshape(fout, cin, kh, kw)
        if not need_gx:
            return None, gk
        gwin = (gcols @ kmat).reshape(batch, hout, wout, cin, kh, kw).transpose(0, 3, 1, 2, 4, 5)
        gx = np.zeros_like(x)
        for u in range(kh):
            for v in range(kw):
                gx[:, :, u : u + stride * hout : stride, v : v + stride * wout : stride] += gwin[..., u, v]
        return gx, gk

    return np.ascontiguousarray(out), backward


def conv_bias_relu_stage(x, k, b, stride, g, need_gx):
    """One channels-first conv stage, relu(conv(x, k) + b), with its gradients for output gradient ``g``.

    Three separate steps, as a textbook writes them: ``im2col_conv2d``, a
    per-channel bias add, then ReLU. Returns (output, input gradient or None,
    kernel gradient, bias gradient), all channels-first.
    """
    conv, conv_backward = im2col_conv2d(x, k, stride)
    pre = conv + b[None, :, None, None]
    mask = pre > 0
    out = np.where(mask, pre, 0.0)
    g_pre = g * mask
    gx, gk = conv_backward(g_pre, need_gx)
    return out, gx, gk, g_pre.sum(axis=(0, 2, 3))
