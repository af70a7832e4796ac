"""Synthetic MNIST-like digits for the ``digits_irm`` workload.

Each of the ten classes gets a template of a few random-walk ink strokes
on a blank 28x28 background.  A sample is its class template shifted by
up to one pixel with a share of its ink pixels dropped and the rest
jittered in intensity.  Everything derives from one seed, and the files
are written with the package's own IDX writers so the program reads them
through the ``multimnist`` config path, exactly as it would read MNIST.
"""

from __future__ import annotations

import os

import numpy as np
from mtcrl.data import write_idx_images, write_idx_labels

SIDE = 28
CLASSES = 10
STROKES = 8
STROKE_LEN = 24
MAX_SHIFT = 1
INK_DROP = 0.15


def _template(rng) -> np.ndarray:
    img = np.zeros((SIDE, SIDE))
    lo, hi = 6, SIDE - 6
    for _ in range(STROKES):
        r, c = rng.integers(lo, hi, size=2)
        for _ in range(STROKE_LEN):
            img[r, c] = rng.uniform(0.7, 1.0)
            dr, dc = rng.integers(-1, 2, size=2)
            r = int(np.clip(r + dr, lo, hi - 1))
            c = int(np.clip(c + dc, lo, hi - 1))
    return img


def make_digits(seed: int, per_class: int):
    """Images in [0, 1] of shape (10 * per_class, 28, 28) and their labels."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD161]))
    templates = [_template(rng) for _ in range(CLASSES)]
    labels = rng.permutation(np.repeat(np.arange(CLASSES), per_class))
    images = np.empty((labels.size, SIDE, SIDE))
    for i, c in enumerate(labels):
        dr, dc = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=2)
        img = np.roll(templates[c], (dr, dc), axis=(0, 1))
        keep = rng.random((SIDE, SIDE)) >= INK_DROP
        images[i] = img * keep * rng.uniform(0.8, 1.0, size=(SIDE, SIDE))
    return images, labels


def write_digits(out_dir: str, seed: int, per_class: int):
    """Write ``images.idx`` and ``labels.idx``; returns their two paths."""
    images, labels = make_digits(seed, per_class)
    images_path = os.path.join(out_dir, "images.idx")
    labels_path = os.path.join(out_dir, "labels.idx")
    write_idx_images(images_path, images)
    write_idx_labels(labels_path, labels)
    return images_path, labels_path
