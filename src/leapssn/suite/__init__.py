"""Desk-scale problem instances, data generators, and image helpers."""

from .academic import partial_smooth_2d, quadratic, rank_deficient_ls, rosenbrock
from .imaging import GridImage, add_noise, phantom, psnr, read_pgm, write_pgm
from .obstacle import (laplacian_2d, membrane_problem, plate_bending_operator,
                       plate_problem, punch_obstacle)
from .penalty import penalised_quadratic
from .rng import SplitMix64
from .svm import read_svm_data, svm_data, svm_problem, write_svm_data
from .tv import tv_dual_problem

__all__ = [
    "partial_smooth_2d", "quadratic", "rank_deficient_ls", "rosenbrock",
    "GridImage", "add_noise", "phantom", "psnr", "read_pgm", "write_pgm",
    "laplacian_2d", "membrane_problem", "plate_bending_operator",
    "plate_problem", "punch_obstacle", "penalised_quadratic", "SplitMix64",
    "read_svm_data", "svm_data", "svm_problem", "write_svm_data",
    "tv_dual_problem",
]
