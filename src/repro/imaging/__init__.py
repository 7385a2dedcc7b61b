"""Imaging substrate: lossy still-image codec and loss recovery.

SONIC transmits *images* of rendered webpages instead of HTML/JS (paper
Section 3.2), encoded as WebP at quality 10.  ``SWebpCodec`` is a
from-scratch block-DCT codec with the same rate-quality mechanism and the
same 0-95 quality scale; ``interpolate`` implements the paper's
nearest-neighbour missing-pixel recovery with left-pixel priority.
"""

from repro.imaging.color import (
    rgb_to_ycbcr,
    ycbcr_to_rgb,
    downsample_420,
    upsample_420,
)
from repro.imaging.codec import SWebpCodec, CodecError, DecodeMemo
from repro.imaging.interpolate import (
    interpolate_missing,
    loss_mask_from_columns,
)
from repro.imaging.metrics import mse, psnr_db, ssim
from repro.imaging.pnm import read_pnm, write_pgm, write_ppm

__all__ = [
    "rgb_to_ycbcr",
    "ycbcr_to_rgb",
    "downsample_420",
    "upsample_420",
    "SWebpCodec",
    "CodecError",
    "DecodeMemo",
    "interpolate_missing",
    "loss_mask_from_columns",
    "mse",
    "psnr_db",
    "ssim",
    "read_pnm",
    "write_pgm",
    "write_ppm",
]
